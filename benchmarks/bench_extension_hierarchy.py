"""Extension bench — hierarchical proxies (related work refs [10], [11]).

The paper studies a single proxy; its related work (hierarchical WAN
caching) motivates this extension: interpose a shared parent proxy
between N edge proxies and the origin.  Each edge polls the parent with
LIMD; only the parent polls the origin.

Quantified trade-off:

* **origin load** collapses from N independent poll streams to the
  parent's single stream (the hierarchy's raison d'être);
* **edge staleness** grows — each level adds its own Δ, so edge
  fidelity at the composed bound (2Δ) stays high while fidelity at the
  single-level bound degrades.

Fidelity uses the snapshot-based metric
(:func:`repro.metrics.fidelity.temporal_fidelity_from_snapshots`): an
edge poll refreshes only to parent-current state, so poll-time fidelity
would overestimate hierarchy freshness.
"""

from __future__ import annotations

from repro.scenarios.engine import render_scenario, run_scenario


def test_extension_hierarchy(run_once):
    result = run_once(run_scenario, "hierarchy")
    rows = result.rows
    print()
    print(render_scenario(result))
    flat, hierarchy = rows

    # (1) The hierarchy shields the origin: origin load drops by roughly
    # the edge fan-out (the parent's stream replaces N edge streams).
    assert hierarchy["origin_requests"] < flat["origin_requests"] / 2

    # (2) Staleness composes: at the per-level bound the hierarchy's
    # edges cannot beat flat edges, but at the composed bound (2Δ) they
    # recover high fidelity.
    assert hierarchy["edge_fidelity_1x"] <= flat["edge_fidelity_1x"] + 0.02
    assert hierarchy["edge_fidelity_2x"] >= 0.85
    # (3) The composed bound recovers most of what the per-level bound
    # loses.
    assert hierarchy["edge_fidelity_2x"] > hierarchy["edge_fidelity_1x"]
