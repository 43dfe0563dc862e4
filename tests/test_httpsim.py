"""Unit tests for the simulated HTTP layer."""

from __future__ import annotations

import random

import pytest

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
    evaluate_conditional_get,
)
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

    def test_evaluate_conditional_get_builds_the_keyword_equivalent(self):
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
            got = evaluate_conditional_get(
                request, 9.0, last_modified, version, 0.5, (5.0, 10.0, 12.0)
            )
            assert got == expected


class TestConditionalGetSemantics:
    def _evaluate(self, *, ims=None, last_modified=50.0, version=3,
                  value=None, history=(10.0, 30.0, 50.0), want_history=False,
                  now=100.0):
        request = conditional_get(
            ObjectId("x"), if_modified_since=ims, want_history=want_history
        )
        return evaluate_conditional_get(
            request,
            now=now,
            last_modified=last_modified,
            version=version,
            value=value,
            history_times=history,
        )

    def test_unknown_object_is_404(self):
        response = self._evaluate(last_modified=None, version=None)
        assert response.status is Status.NOT_FOUND

    def test_no_ims_returns_200(self):
        response = self._evaluate(ims=None)
        assert response.status is Status.OK
        assert response.last_modified == 50.0
        assert response.version == 3

    def test_unchanged_returns_304(self):
        response = self._evaluate(ims=50.0)
        assert response.status is Status.NOT_MODIFIED
        assert response.last_modified == 50.0

    def test_changed_returns_200(self):
        response = self._evaluate(ims=49.0)
        assert response.status is Status.OK

    def test_ims_after_last_modified_returns_304(self):
        response = self._evaluate(ims=60.0)
        assert response.status is Status.NOT_MODIFIED

    def test_value_header_on_200(self):
        response = self._evaluate(ims=None, value=42.5)
        assert response.value == 42.5

    def test_history_contains_only_unseen_updates(self):
        response = self._evaluate(ims=10.0, want_history=True)
        assert response.modification_history == [30.0, 50.0]

    def test_history_without_ims_is_full(self):
        response = self._evaluate(ims=None, want_history=True)
        assert response.modification_history == [10.0, 30.0, 50.0]

    def test_history_absent_when_not_requested(self):
        response = self._evaluate(ims=10.0, want_history=False)
        assert response.modification_history is None

    def test_history_truncated_to_cap(self):
        history = tuple(float(i) for i in range(1, 200))
        response = self._evaluate(
            ims=0.5, last_modified=199.0, history=history,
            want_history=True, now=300.0,
        )
        got = response.modification_history
        assert got is not None
        assert len(got) == MAX_HISTORY_LENGTH
        assert got[-1] == 199.0  # most recent entries kept

    def test_empty_history_on_304(self):
        response = self._evaluate(ims=50.0, want_history=True)
        assert response.status is Status.NOT_MODIFIED
        assert response.modification_history == []

    def test_server_without_the_extension_omits_history(self):
        # history_times=None: a plain HTTP/1.1 server ignores the ask.
        modified = self._evaluate(ims=10.0, history=None, want_history=True)
        assert modified.status is Status.OK
        assert modified.modification_history is None
        unchanged = self._evaluate(ims=50.0, history=None, want_history=True)
        assert unchanged.status is Status.NOT_MODIFIED
        assert unchanged.modification_history is None
        assert unchanged.last_modified == 50.0


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
