"""First-class cache topology: arbitrary proxy trees of polling proxies.

The paper evaluates one proxy polling one origin; its related work
(Yin et al. [10], Yu et al. [11]) poses the open question of consistency
in proxy *hierarchies*, where staleness composes additively (Σ Δᵢ) but
origin load concentrates at the root.  This package makes that topology
a first-class, declarative object:

* :mod:`repro.topology.protocols` — the :class:`Upstream` protocol every
  node above another node satisfies (origin servers, proxies);
* :mod:`repro.topology.levels` — :class:`TreeLevel`, the per-level
  structural spec (fan-out, link latency) and the Σ Δᵢ staleness-bound
  helper;
* :mod:`repro.topology.tree` — :class:`TopologyTree`, the assembled
  tree of :class:`TopologyNode` proxies, built from a level spec and
  registered object by object, root-first.

The layers above construct through this package:
:func:`repro.api.runs.build_stack` builds its single proxy as a
one-node tree, :func:`repro.api.builder.run_simulation` maps both
``TopologyConfig`` kinds (``single`` / ``tree``) onto a
:class:`TopologyTree`.
"""
