"""Canonical workloads for the paper-reproduction experiments.

All experiments pull their traces from here so that a single seed
reproduces the entire evaluation deterministically.
"""

from __future__ import annotations

from typing import Dict

from repro.core.rng import DEFAULT_SEED, RngRegistry
from repro.traces.model import UpdateTrace
from repro.traces.news import generate_table2_traces, table2_traces
from repro.traces.stocks import generate_table3_traces, table3_traces

__all__ = [
    "DEFAULT_SEED",
    "news_trace",
    "news_traces",
    "stock_trace",
    "stock_traces",
]


def news_traces(seed: int = DEFAULT_SEED) -> Dict[str, UpdateTrace]:
    """The four Table 2 news traces, keyed cnn_fn/nyt_ap/nyt_reuters/guardian."""
    return generate_table2_traces(RngRegistry(seed))


def stock_traces(seed: int = DEFAULT_SEED) -> Dict[str, UpdateTrace]:
    """The two Table 3 stock traces, keyed att/yahoo."""
    return generate_table3_traces(RngRegistry(seed))


def news_trace(key: str, seed: int = DEFAULT_SEED) -> UpdateTrace:
    """One Table 2 trace by key (``KeyError`` for an unknown one)."""
    return table2_traces((key,), seed)[0]


def stock_trace(key: str, seed: int = DEFAULT_SEED) -> UpdateTrace:
    """One Table 3 trace by key (``KeyError`` for an unknown one)."""
    return table3_traces((key,), seed)[0]
