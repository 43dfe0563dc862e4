"""Simulated HTTP: messages, conditional-GET semantics, network model."""
