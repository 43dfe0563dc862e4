"""Unit tests for the simulated HTTP layer."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.ttl import StaticTTLPolicy
from repro.core.events import PollReason
from repro.core.types import ObjectId
from repro.httpsim.messages import (
    Method,
    Request,
    Response,
    Status,
    conditional_get,
)
from repro.httpsim.network import LatencyModel, Network
from repro.httpsim.semantics import (
    MAX_HISTORY_LENGTH,
    answer_conditional_get,
    response_to,
)
from repro.proxy.proxy import ProxyCache
from repro.server.origin import OriginServer
from repro.sim.kernel import Kernel


class TestConditionalGetBuilder:
    def test_carries_ims_and_history_flag(self):
        request = conditional_get(
            ObjectId("x"), if_modified_since=9.5, want_history=True
        )
        assert request.if_modified_since == 9.5
        assert request.wants_history
        assert request.method is Method.GET

    def test_omitted_fields_absent(self):
        request = conditional_get(ObjectId("x"))
        assert request.if_modified_since is None
        assert not request.wants_history


class TestMessageFields:
    """A message is its typed fields: equality and ``repr`` read them."""

    def test_repr_prints_the_typed_fields(self):
        request = conditional_get(ObjectId("x"), if_modified_since=1.5)
        assert repr(request) == (
            "Request(method=<Method.GET: 'GET'>, object_id='x', "
            "if_modified_since=1.5, wants_history=False, issued_at=0.0)"
        )
        response = Response(
            Status.OK, ObjectId("x"), version=7, modification_history=[1.0]
        )
        assert "version=7" in repr(response)
        assert "modification_history=[1.0]" in repr(response)

    def test_equality_follows_the_typed_fields(self):
        first = conditional_get(ObjectId("x"), if_modified_since=1.0)
        assert first == conditional_get(ObjectId("x"), if_modified_since=1.0)
        assert first != conditional_get(ObjectId("x"), if_modified_since=2.0)
        assert first != conditional_get(ObjectId("x"), want_history=True)
        ok = Response(Status.OK, ObjectId("x"), version=1)
        assert ok == Response(Status.OK, ObjectId("x"), version=1)
        assert ok != Response(Status.OK, ObjectId("x"), version=2)
        assert ok != Response(Status.OK, ObjectId("x"), version=1, served_at=1.0)


#: One distinct value per slot, so a swapped parameter shows.
_FIELDS = {
    Request: (Method.HEAD, ObjectId("x"), 1.5, True, 2.5),
    Response: (Status.NOT_MODIFIED, ObjectId("x"), 1.5, 7, 4.5, [1.0], 2.5),
}


class TestPositionalConstruction:
    """The poll path builds messages positionally, so parameter order
    is API: it must be slot order."""

    @pytest.mark.parametrize("cls", list(_FIELDS), ids=lambda cls: cls.__name__)
    def test_positional_equals_keyword_slot_by_slot(self, cls):
        values = _FIELDS[cls]
        assert len(values) == len(cls.__slots__)
        positional = cls(*values)
        keyword = cls(**dict(zip(cls.__slots__, values)))
        for name, value in zip(cls.__slots__, values):
            assert getattr(positional, name) == value, name
            assert getattr(keyword, name) == value, name

    def test_response_to_builds_the_keyword_equivalent(self):
        request = Request(Method.GET, ObjectId("x"), 10.0, True, 3.0)
        answers = {
            (None, None): Response(Status.NOT_FOUND, ObjectId("x"), served_at=9.0),
            (10.0, 1): Response(
                Status.NOT_MODIFIED,
                ObjectId("x"),
                last_modified=10.0,
                version=1,
                modification_history=[],
                served_at=9.0,
            ),
            (12.0, 2): Response(
                Status.OK,
                ObjectId("x"),
                last_modified=12.0,
                version=2,
                value=0.5,
                modification_history=[12.0],
                served_at=9.0,
            ),
        }
        for (last_modified, version), expected in answers.items():
            answer = answer_conditional_get(
                10.0, True, last_modified, version, 0.5, (5.0, 10.0, 12.0)
            )
            assert response_to(request, answer, 9.0) == expected


class TestConditionalGetSemantics:
    """``answer_conditional_get``'s ``(status, last_modified, version,
    value, history)`` answers."""

    def _evaluate(self, *, ims=None, last_modified=50.0, version=3,
                  value=None, history=(10.0, 30.0, 50.0), want_history=False):
        return answer_conditional_get(
            ims, want_history, last_modified, version, value, history
        )

    def test_unknown_object_is_404(self):
        answer = self._evaluate(last_modified=None, version=None)
        assert answer == (Status.NOT_FOUND, None, None, None, None)

    def test_no_ims_returns_200(self):
        status, last_modified, version, _value, _history = self._evaluate(ims=None)
        assert status is Status.OK
        assert last_modified == 50.0
        assert version == 3

    def test_unchanged_returns_304(self):
        status, last_modified, _version, _value, _history = self._evaluate(
            ims=50.0
        )
        assert status is Status.NOT_MODIFIED
        assert last_modified == 50.0

    def test_changed_returns_200(self):
        assert self._evaluate(ims=49.0)[0] is Status.OK

    def test_ims_after_last_modified_returns_304(self):
        assert self._evaluate(ims=60.0)[0] is Status.NOT_MODIFIED

    def test_value_header_on_200(self):
        assert self._evaluate(ims=None, value=42.5)[3] == 42.5

    def test_history_contains_only_unseen_updates(self):
        answer = self._evaluate(ims=10.0, want_history=True)
        assert answer[4] == [30.0, 50.0]

    def test_history_without_ims_is_full(self):
        answer = self._evaluate(ims=None, want_history=True)
        assert answer[4] == [10.0, 30.0, 50.0]

    def test_history_absent_when_not_requested(self):
        assert self._evaluate(ims=10.0, want_history=False)[4] is None

    def test_history_truncated_to_cap(self):
        history = tuple(float(i) for i in range(1, 200))
        got = self._evaluate(
            ims=0.5, last_modified=199.0, history=history, want_history=True,
        )[4]
        assert got is not None
        assert len(got) == MAX_HISTORY_LENGTH
        assert got[-1] == 199.0  # most recent entries kept

    def test_empty_history_on_304(self):
        status, _lm, _version, _value, history = self._evaluate(
            ims=50.0, want_history=True
        )
        assert status is Status.NOT_MODIFIED
        assert history == []

    def test_server_without_the_extension_omits_history(self):
        # history_times=None: a plain HTTP/1.1 server ignores the ask.
        modified = self._evaluate(ims=10.0, history=None, want_history=True)
        assert modified[0] is Status.OK
        assert modified[4] is None
        unchanged = self._evaluate(ims=50.0, history=None, want_history=True)
        assert unchanged == (Status.NOT_MODIFIED, 50.0, 3, None, None)


def _upstream(kind, gaps, supports_history):
    """An origin, or a proxy polling one after each update, holding ``x``
    created at 0 and updated after each of ``gaps`` (``None``: absent),
    and ``x``'s last modification time."""
    kernel = Kernel()
    origin = OriginServer(supports_history=supports_history)
    if gaps is None:
        upstream = origin if kind == "origin" else ProxyCache(kernel, Network(kernel))
        return upstream, 0.0
    x = ObjectId("x")
    origin.create_object(x)
    times = [0.0, *itertools.accumulate(gaps)]
    if kind == "origin":
        for when in times[1:]:
            origin.apply_update(x, when)
        return origin, times[-1]
    proxy = ProxyCache(kernel, Network(kernel))
    proxy.register_object(x, origin, StaticTTLPolicy(ttl=1e9))
    for when in times[1:]:
        kernel.run(until=when)
        origin.apply_update(x, when)
        proxy.trigger_poll(x, reason=PollReason.INITIAL_FETCH)
    return proxy, times[-1]


class TestRespondMatchesHandleRequest:
    """``handle_request`` — the message form latent links and the
    benchmark drivers use — is ``respond``'s answer field for field."""

    @given(
        kind=st.sampled_from(["origin", "proxy"]),
        gaps=st.none()
        | st.lists(st.floats(0.25, 10.0, allow_nan=False), max_size=80),
        supports_history=st.booleans(),
        ims=st.sampled_from([None, "before", "equal", "after"]),
        offset=st.floats(0.0, 5.0, exclude_min=True, allow_nan=False),
        wants_history=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_handle_request_is_respond(
        self, kind, gaps, supports_history, ims, offset, wants_history
    ):
        upstream, last_modified = _upstream(kind, gaps, supports_history)
        if_modified_since = {
            None: None,
            "before": last_modified - offset,
            "equal": last_modified,
            "after": last_modified + offset,
        }[ims]
        x, now = ObjectId("x"), last_modified + 1.0
        answer = upstream.respond(x, if_modified_since, wants_history, now)
        response = upstream.handle_request(
            Request(Method.GET, x, if_modified_since, wants_history, now), now
        )
        status, got_last_modified, version, value, history = answer
        assert response.status is status
        assert response.object_id == x
        assert response.last_modified == got_last_modified
        assert response.version == version
        assert response.value == value
        assert response.modification_history == history
        assert response.served_at == now
        if gaps is None:
            assert status is Status.NOT_FOUND
        else:
            assert got_last_modified == last_modified
            if history:
                assert len(history) <= MAX_HISTORY_LENGTH


class TestLatencyModel:
    def test_synchronous_default(self):
        assert LatencyModel().is_synchronous

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(one_way=-1.0)

    def test_jitter_exceeding_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(one_way=1.0, jitter=2.0)

    def test_sample_without_jitter_is_constant(self):
        model = LatencyModel(one_way=0.5)
        assert model.sample_one_way(None) == 0.5

    def test_sample_with_jitter_in_range(self):
        model = LatencyModel(one_way=1.0, jitter=0.5)
        rng = random.Random(0)
        for _ in range(100):
            sample = model.sample_one_way(rng)
            assert 0.5 <= sample <= 1.5


class TestNetwork:
    def _handler(self, request, now):
        return Response(
            status=Status.OK, object_id=request.object_id, served_at=now
        )

    def test_zero_latency_exchange_delivers_through_events(self, kernel):
        # A synchronous link's proxy never calls exchange(); given one,
        # exchange() still delivers by (zero-delay) kernel events.
        network = Network(kernel)
        responses = []
        network.exchange(
            conditional_get(ObjectId("x")), self._handler, responses.append
        )
        assert responses == []
        assert kernel.run() == 2
        assert len(responses) == 1
        assert responses[0].served_at == 0.0
        assert kernel.now() == 0.0

    def test_latency_delays_delivery(self):
        kernel = Kernel()
        network = Network(kernel, LatencyModel(one_way=2.0))
        responses = []
        network.exchange(
            conditional_get(ObjectId("x")), self._handler, responses.append
        )
        assert responses == []  # not yet delivered
        kernel.run()
        assert len(responses) == 1
        # Served after forward trip, response observed after round trip.
        assert responses[0].served_at == 2.0
        assert kernel.now() == 4.0

    def test_request_counter(self, kernel):
        network = Network(kernel, LatencyModel(one_way=1.0))
        responses = []
        for _ in range(3):
            network.exchange(
                conditional_get(ObjectId("x")), self._handler, responses.append
            )
        assert network.requests_sent == 3  # counted when sent
        kernel.run()
        assert len(responses) == 3
