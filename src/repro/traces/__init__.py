"""Workload traces: data model, generators, serialisation, statistics."""
