"""Unit and property tests for the sports-score trace generator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import ObjectId
from repro.traces.sports import (
    DEFAULT_LINEUP,
    PlayerSpec,
    SportsMatchSpec,
    generate_match,
)


@pytest.fixture
def match():
    return generate_match(SportsMatchSpec(scoring_events=60), random.Random(11))


def server_sum_error_at(match, time):
    """|total − Σ players| at the origin at ``time``: the server applies
    both sides of each scoring event at one instant, so this is 0."""
    total = match.total.value_at(time) or 0.0
    players = sum(trace.value_at(time) or 0.0 for trace in match.players.values())
    return abs(total - players)


class TestSpecValidation:
    def test_default_spec_is_valid(self):
        SportsMatchSpec()

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            SportsMatchSpec(duration=0.0)

    def test_rejects_zero_events(self):
        with pytest.raises(ValueError):
            SportsMatchSpec(scoring_events=0)

    def test_rejects_single_player(self):
        with pytest.raises(ValueError):
            SportsMatchSpec(players=(PlayerSpec("solo", "Solo"),))

    def test_rejects_duplicate_player_keys(self):
        with pytest.raises(ValueError):
            SportsMatchSpec(
                players=(PlayerSpec("a", "A"), PlayerSpec("a", "B"))
            )

    def test_rejects_mismatched_point_weights(self):
        with pytest.raises(ValueError):
            SportsMatchSpec(point_values=(1, 2), point_weights=(1.0,))

    def test_rejects_nonpositive_point_value(self):
        with pytest.raises(ValueError):
            SportsMatchSpec(point_values=(0, 2), point_weights=(1.0, 1.0))

    def test_rejects_nonpositive_scoring_weight(self):
        with pytest.raises(ValueError):
            PlayerSpec("p", "P", scoring_weight=0.0)

    def test_object_id_helpers(self):
        spec = SportsMatchSpec(key="final")
        assert spec.player_object_id("star") == ObjectId("final.star")
        assert spec.total_object_id == ObjectId("final.total")


class TestGeneration:
    def test_event_count_matches_spec(self, match):
        assert len(match.events) == 60
        assert match.total.update_count == 60

    def test_every_player_has_a_trace(self, match):
        assert len(match.players) == len(DEFAULT_LINEUP)

    def test_total_is_sum_of_finals(self, match):
        finals = match.final_scores()
        assert match.total.values[-1] == sum(finals.values())

    def test_scores_are_monotone(self, match):
        for trace in list(match.players.values()) + [match.total]:
            values = trace.values
            assert values == sorted(values)

    def test_event_times_strictly_increasing(self, match):
        times = [e.time for e in match.events]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_events_stay_inside_match(self, match):
        assert all(0.0 < e.time <= match.spec.duration for e in match.events)

    def test_server_sum_error_is_zero_at_every_event(self, match):
        for event in match.events:
            assert server_sum_error_at(match, event.time) == 0.0

    def test_deterministic_for_seed(self):
        spec = SportsMatchSpec(scoring_events=40)
        one = generate_match(spec, random.Random(3))
        two = generate_match(spec, random.Random(3))
        assert [e.time for e in one.events] == [e.time for e in two.events]
        assert one.final_scores() == two.final_scores()

    def test_star_outsources_role_players_in_expectation(self):
        # weight 3.0 vs 1.0 over many events: the star should lead.
        spec = SportsMatchSpec(scoring_events=600)
        match = generate_match(spec, random.Random(5))
        finals = match.final_scores()
        star = finals[spec.player_object_id("star")]
        center = finals[spec.player_object_id("center")]
        assert star > center


class TestSumInvariantProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        events=st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=25, deadline=None)
    def test_total_equals_player_sum_at_all_probes(self, seed, events):
        spec = SportsMatchSpec(scoring_events=events)
        match = generate_match(spec, random.Random(seed))
        probes = [0.0, spec.duration / 3, spec.duration / 2, spec.duration]
        probes += [e.time for e in match.events[:: max(1, events // 5)]]
        for t in probes:
            assert server_sum_error_at(match, t) == pytest.approx(0.0)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_points_accounting_matches_events(self, seed):
        spec = SportsMatchSpec(scoring_events=50)
        match = generate_match(spec, random.Random(seed))
        replayed = sum(e.points for e in match.events)
        assert match.events[-1].team_total == replayed
