"""Consistency policies: the paper's core contribution.

Individual consistency:
    * :class:`~repro.consistency.base.FixedTTRPolicy` — the baseline
      poll-every-Δ approach.
    * :class:`~repro.consistency.limd.LimdPolicy` — adaptive temporal
      TTR (Section 3.1).
    * :class:`~repro.consistency.adaptive_value.AdaptiveValueTTRPolicy`
      — adaptive value-domain TTR (Section 4.1).

Mutual consistency:
    * :class:`~repro.consistency.mutual_temporal.MutualTemporalCoordinator`
      — triggered polls and the rate heuristic (Section 3.2).
    * :class:`~repro.consistency.mutual_value.AdaptiveFCoordinator` and
      :class:`~repro.consistency.mutual_value.PartitionedMvCoordinator`
      — the two Section 4.2 approaches.  The partitioned coordinator
      takes a group of n ≥ 2 members (the paper's pair is a group of
      two) and a :class:`~repro.consistency.mutual_value.GroupBudget`.
"""
