"""Core primitives: types, errors, clock, RNG streams, event records."""
