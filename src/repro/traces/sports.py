"""Synthetic sports-score traces (paper Section 1, motivating example 2).

The paper motivates mutual consistency with proxies that disseminate
up-to-the-minute sports information: "a proxy should ensure that scores
of individual players and the overall score are mutually consistent".
This module generates that workload: a match in which scoring events
arrive over time, each event credits one player and simultaneously
raises the team total, yielding one value trace per player plus the
team-total trace.

The defining invariant — the team total equals the sum of the player
scores at every instant *at the server* — is what a mutual-consistency
mechanism must preserve in the proxy's cached view: with f the
difference between the cached total and the sum of cached player
scores, ``|f| < δ`` is exactly the paper's Eq. 5 with the server-side f
identically zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core.errors import TraceFormatError
from repro.core.types import HOUR, ObjectId, Seconds
from repro.traces.model import TraceMetadata, UpdateTrace, trace_from_ticks


@dataclass(frozen=True)
class PlayerSpec:
    """One player in the lineup.

    Attributes:
        key: Short identifier used in object ids (e.g. ``"guard1"``).
        name: Human-readable name for reports.
        scoring_weight: Relative likelihood that a scoring event credits
            this player (normalised across the lineup).
    """

    key: str
    name: str
    scoring_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("player key must be non-empty")
        if self.scoring_weight <= 0:
            raise ValueError(
                f"scoring_weight must be positive, got {self.scoring_weight}"
            )


#: A basketball-style starting five with a star scorer and role players.
DEFAULT_LINEUP: Tuple[PlayerSpec, ...] = (
    PlayerSpec("star", "A. Star", scoring_weight=3.0),
    PlayerSpec("guard", "B. Guard", scoring_weight=2.0),
    PlayerSpec("wing", "C. Wing", scoring_weight=1.5),
    PlayerSpec("forward", "D. Forward", scoring_weight=1.0),
    PlayerSpec("center", "E. Center", scoring_weight=1.0),
)


@dataclass(frozen=True)
class SportsMatchSpec:
    """Parameters of a synthetic match.

    Attributes:
        key: Prefix for generated object ids (``<key>.<player>`` and
            ``<key>.total``).
        duration: Match length in seconds.
        scoring_events: Total number of scoring events to generate.
        players: The lineup splitting the scoring events.
        point_values: Possible points per event (basketball: 1, 2, 3).
        point_weights: Relative likelihood of each entry in
            ``point_values``.
    """

    key: str = "match"
    duration: Seconds = 2 * HOUR
    scoring_events: int = 180
    players: Tuple[PlayerSpec, ...] = DEFAULT_LINEUP
    point_values: Tuple[int, ...] = (1, 2, 3)
    point_weights: Tuple[float, ...] = (0.2, 0.55, 0.25)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.scoring_events < 1:
            raise ValueError(
                f"scoring_events must be >= 1, got {self.scoring_events}"
            )
        if len(self.players) < 2:
            raise ValueError("a match needs at least two players")
        keys = [p.key for p in self.players]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate player keys in lineup: {keys}")
        if len(self.point_values) != len(self.point_weights):
            raise ValueError(
                "point_values and point_weights must have equal length"
            )
        if any(v <= 0 for v in self.point_values):
            raise ValueError("point values must be positive")
        if any(w <= 0 for w in self.point_weights):
            raise ValueError("point weights must be positive")

    def player_object_id(self, player_key: str) -> ObjectId:
        return ObjectId(f"{self.key}.{player_key}")

    @property
    def total_object_id(self) -> ObjectId:
        return ObjectId(f"{self.key}.total")


@dataclass(frozen=True)
class ScoringEvent:
    """One scoring event: who scored, how much, and the running total."""

    time: Seconds
    player: ObjectId
    points: int
    player_score: int
    team_total: int


@dataclass(frozen=True)
class MatchTraces:
    """The generated workload: per-player traces plus the total trace.

    Attributes:
        spec: The generating specification.
        players: Object id → cumulative-score trace, one per player.
        total: The team-total trace (one update per scoring event).
        events: The underlying scoring events, time-ordered.
    """

    spec: SportsMatchSpec
    players: Dict[ObjectId, UpdateTrace]
    total: UpdateTrace
    events: Tuple[ScoringEvent, ...] = field(repr=False)

    def final_scores(self) -> Dict[ObjectId, int]:
        """Final cumulative score per player (from the traces)."""
        finals: Dict[ObjectId, int] = {}
        for object_id, trace in self.players.items():
            finals[object_id] = int(trace.values[-1]) if trace.values else 0
        return finals


def generate_match(spec: SportsMatchSpec, rng: random.Random) -> MatchTraces:
    """Generate a match's scoring events and the resulting traces.

    Event instants are uniform over the match (order statistics of a
    Poisson process conditioned on its count); each event credits one
    player drawn by scoring weight and adds a point value drawn by
    weight.  Every event updates exactly two server objects: the scoring
    player and the team total — the simultaneous-update pattern that
    makes the workload a mutual-consistency stress test.

    Raises:
        TraceFormatError: If the generated invariant check fails
            (total != sum of player scores) — indicates a bug, never
            expected for valid specs.
    """
    times = _strictly_increasing_times(spec, rng)
    lineup = list(spec.players)
    weights = [p.scoring_weight for p in lineup]
    point_values = list(spec.point_values)
    point_weights = list(spec.point_weights)

    per_player_scores: Dict[ObjectId, int] = {
        spec.player_object_id(p.key): 0 for p in lineup
    }
    per_player_ticks: Dict[ObjectId, List[Tuple[Seconds, float]]] = {
        object_id: [] for object_id in per_player_scores
    }
    total_ticks: List[Tuple[Seconds, float]] = []
    events: List[ScoringEvent] = []
    team_total = 0

    for time in times:
        player = rng.choices(lineup, weights=weights, k=1)[0]
        points = rng.choices(point_values, weights=point_weights, k=1)[0]
        object_id = spec.player_object_id(player.key)
        per_player_scores[object_id] += points
        team_total += points
        per_player_ticks[object_id].append(
            (time, float(per_player_scores[object_id]))
        )
        total_ticks.append((time, float(team_total)))
        events.append(
            ScoringEvent(
                time=time,
                player=object_id,
                points=points,
                player_score=per_player_scores[object_id],
                team_total=team_total,
            )
        )

    if team_total != sum(per_player_scores.values()):
        raise TraceFormatError(
            "sports generator invariant broken: total "
            f"{team_total} != sum of players {sum(per_player_scores.values())}"
        )

    player_traces = {
        object_id: trace_from_ticks(
            object_id,
            ticks,
            start_time=0.0,
            end_time=spec.duration,
            metadata=TraceMetadata(
                name=str(object_id),
                description="cumulative player score",
                value_unit="points",
            ),
        )
        for object_id, ticks in per_player_ticks.items()
    }
    total_trace = trace_from_ticks(
        spec.total_object_id,
        total_ticks,
        start_time=0.0,
        end_time=spec.duration,
        metadata=TraceMetadata(
            name=str(spec.total_object_id),
            description="cumulative team total",
            value_unit="points",
        ),
    )
    return MatchTraces(
        spec=spec,
        players=player_traces,
        total=total_trace,
        events=tuple(events),
    )


def _strictly_increasing_times(
    spec: SportsMatchSpec, rng: random.Random
) -> Sequence[Seconds]:
    """Draw event instants, strictly increasing and inside (0, duration)."""
    times = sorted(rng.uniform(0.0, spec.duration) for _ in range(spec.scoring_events))
    out: List[Seconds] = []
    previous = 0.0
    for time in times:
        # Collisions are measure-zero but floats make them possible;
        # nudge forward by a microsecond to keep per-object strictness.
        candidate = max(time, previous + 1e-6)
        out.append(candidate)
        previous = candidate
    if out and out[-1] > spec.duration:
        raise TraceFormatError(
            f"event time {out[-1]} exceeds match duration {spec.duration}"
        )
    return out
