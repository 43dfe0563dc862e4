"""Simulated HTTP: messages, conditional-GET semantics, network model.

Of the paper's two Section 5.1 protocol extensions, the
modification-history response (the update times a poll has not seen)
is modelled; the cache-control directives declaring Δ and δ are not.
"""
