"""End-to-end integration tests: full stacks over calibrated workloads.

These reproduce the paper's headline claims in miniature (small traces
where exact behaviour is predictable, plus seeded slices of the real
experiment workloads), crossing every module boundary: trace → feeder →
server → network → proxy → policy → metrics.
"""

from __future__ import annotations

import pytest

from repro.consistency.base import fixed_policy_factory
from repro.consistency.limd import limd_policy_factory
from repro.consistency.mutual_temporal import MutualTemporalMode
from repro.core.types import MINUTE, ObjectId, TTRBounds
from repro.api.runs import (
    run_individual,
    run_mutual_temporal,
    run_mutual_value_adaptive,
    run_mutual_value_partitioned,
)
from repro.experiments.workloads import news_trace, stock_trace
from repro.metrics.collector import (
    collect_mutual_synchrony,
    collect_mutual_value,
    collect_temporal,
)
from repro.traces.model import trace_from_times


class TestIndividualTemporalEndToEnd:
    def test_baseline_perfect_fidelity_on_real_workload(self):
        trace = news_trace("nyt_ap")
        delta = 10 * MINUTE
        result = run_individual([trace], fixed_policy_factory(delta))
        report = collect_temporal(result.proxy, trace, delta)
        assert report.violations == 0
        assert report.fidelity_by_violations == 1.0
        assert report.fidelity_by_time == 1.0
        # Baseline polls ≈ duration / delta (+1 initial fetch).
        expected = int(trace.duration // delta) + 1
        assert report.polls == pytest.approx(expected, abs=2)

    def test_limd_beats_baseline_on_poll_count(self):
        trace = news_trace("cnn_fn")
        delta = 5 * MINUTE
        limd = run_individual([trace], limd_policy_factory(delta))
        base = run_individual([trace], fixed_policy_factory(delta))
        limd_polls = limd.polls_of(trace.object_id)
        base_polls = base.polls_of(trace.object_id)
        assert limd_polls < base_polls
        # And retains reasonable fidelity.
        report = collect_temporal(limd.proxy, trace, delta)
        assert report.fidelity_by_violations >= 0.7

    def test_limd_converges_to_baseline_for_loose_delta(self):
        trace = news_trace("cnn_fn")
        delta = 60 * MINUTE  # looser than the mean update interval
        # The paper's configuration pins TTR_max = 60 min, so at
        # Δ = 60 min the TTR is clamped to exactly Δ and LIMD behaves
        # like the baseline.
        limd = run_individual(
            [trace], limd_policy_factory(delta, ttr_max=60 * MINUTE)
        )
        base = run_individual([trace], fixed_policy_factory(delta))
        assert limd.polls_of(trace.object_id) == pytest.approx(
            base.polls_of(trace.object_id), rel=0.1
        )

    def test_multiple_objects_run_independently(self):
        traces = [news_trace("cnn_fn"), news_trace("nyt_ap")]
        delta = 10 * MINUTE
        result = run_individual(traces, limd_policy_factory(delta))
        for trace in traces:
            assert result.polls_of(trace.object_id) > 10
        assert result.total_polls == sum(
            result.polls_of(t.object_id) for t in traces
        )

    def test_deterministic_across_runs(self):
        trace = news_trace("guardian")
        delta = 10 * MINUTE
        first = run_individual([trace], limd_policy_factory(delta))
        second = run_individual([trace], limd_policy_factory(delta))
        assert first.total_polls == second.total_polls


class TestMutualTemporalEndToEnd:
    def test_triggered_operational_fidelity_is_one(self):
        trace_a = news_trace("cnn_fn")
        trace_b = news_trace("nyt_ap")
        delta = 10 * MINUTE
        mutual_delta = 2 * MINUTE
        result = run_mutual_temporal(
            (trace_a, trace_b),
            limd_policy_factory(delta),
            mutual_delta,
            MutualTemporalMode.TRIGGERED,
        )
        pair = collect_mutual_synchrony(
            result.proxy, trace_a.object_id, trace_b.object_id, mutual_delta
        )
        assert pair.report.fidelity_by_violations == 1.0

    def test_heuristic_cheaper_than_triggered(self):
        delta = 10 * MINUTE
        mutual_delta = 1 * MINUTE
        # The paper's pair, and the n-object group it generalises to.
        for keys in (("cnn_fn", "nyt_ap"), ("cnn_fn", "nyt_ap", "nyt_reuters")):
            traces = [news_trace(key) for key in keys]
            triggered = run_mutual_temporal(
                traces, limd_policy_factory(delta),
                mutual_delta, MutualTemporalMode.TRIGGERED,
            )
            heuristic = run_mutual_temporal(
                traces, limd_policy_factory(delta),
                mutual_delta, MutualTemporalMode.HEURISTIC,
            )
            assert set(triggered.traces) == {t.object_id for t in traces}
            assert (
                0
                < heuristic.coordinator.extra_polls
                <= triggered.coordinator.extra_polls
            )

    def test_baseline_mode_never_triggers(self):
        traces = (news_trace("cnn_fn"), news_trace("nyt_ap"))
        result = run_mutual_temporal(
            traces, limd_policy_factory(10 * MINUTE),
            2 * MINUTE, MutualTemporalMode.NONE,
        )
        assert result.coordinator.extra_polls == 0

    def test_a_group_needs_two_members(self):
        with pytest.raises(ValueError, match="at least two"):
            run_mutual_temporal(
                [news_trace("cnn_fn")], limd_policy_factory(10 * MINUTE),
                2 * MINUTE, MutualTemporalMode.TRIGGERED,
            )


class TestMutualValueEndToEnd:
    BOUNDS = TTRBounds(ttr_min=1.0, ttr_max=60.0)

    def test_partitioned_beats_adaptive_on_fidelity(self):
        att = stock_trace("att")
        yahoo = stock_trace("yahoo")
        delta = 1.0
        adaptive = run_mutual_value_adaptive(att, yahoo, delta, bounds=self.BOUNDS)
        partitioned = run_mutual_value_partitioned(
            (att, yahoo), delta, bounds=self.BOUNDS
        )
        adaptive_f = collect_mutual_value(
            adaptive.proxy, att, yahoo, delta
        ).report.fidelity_by_violations
        partitioned_f = collect_mutual_value(
            partitioned.proxy, att, yahoo, delta
        ).report.fidelity_by_violations
        assert partitioned_f >= adaptive_f

    def test_looser_delta_means_fewer_polls(self):
        att = stock_trace("att")
        yahoo = stock_trace("yahoo")
        tight = run_mutual_value_adaptive(att, yahoo, 0.5, bounds=self.BOUNDS)
        loose = run_mutual_value_adaptive(att, yahoo, 5.0, bounds=self.BOUNDS)
        assert loose.total_polls <= tight.total_polls

    def test_adaptive_polls_both_objects_equally(self):
        att = stock_trace("att")
        yahoo = stock_trace("yahoo")
        result = run_mutual_value_adaptive(att, yahoo, 1.0, bounds=self.BOUNDS)
        assert result.polls_of(att.object_id) == result.polls_of(
            yahoo.object_id
        )


class TestSmallPredictableScenario:
    """A hand-computable scenario crossing the whole stack."""

    def test_exact_poll_schedule_and_detection(self):
        # One object updated at t=15 and t=45; fixed 10 s polling.
        trace = trace_from_times(
            ObjectId("obj"), [15.0, 45.0], start_time=0.0, end_time=60.0
        )
        result = run_individual([trace], fixed_policy_factory(10.0))
        entry = result.proxy.entry_for(ObjectId("obj"))
        times = list(entry.fetch_times)
        assert times == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        modified = [t for t, m in zip(times, entry.fetch_modified) if m]
        # Initial fetch (t=0) is a 200; updates detected at 20 and 50.
        assert modified == [0.0, 20.0, 50.0]
        # The final cached version is 2 with Last-Modified 45.
        assert entry.snapshot.version == 2
        assert entry.snapshot.last_modified == 45.0
