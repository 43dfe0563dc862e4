"""Discrete-event simulation kernel and supporting utilities."""
