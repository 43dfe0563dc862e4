"""Unit tests for the policy registry."""

from __future__ import annotations

import pytest

from repro.consistency.base import FixedTTRPolicy, PassivePolicy, RefreshPolicy
from repro.consistency.limd import LimdPolicy
from repro.consistency.adaptive_value import AdaptiveValueTTRPolicy
from repro.consistency.ttl import AlexTTLPolicy, StaticTTLPolicy
from repro.consistency.registry import (
    available_policies,
    build_policy_factory,
    register_policy,
)
from repro.core.errors import PolicyConfigurationError
from repro.core.types import ObjectId, TTRBounds


class TestRegistry:
    def test_builtin_policies_listed(self):
        names = available_policies()
        for expected in ("baseline", "limd", "adaptive_value", "passive"):
            assert expected in names

    def test_build_baseline(self):
        factory = build_policy_factory("baseline", delta=5.0)
        policy = factory(ObjectId("x"))
        assert isinstance(policy, FixedTTRPolicy)
        assert policy.ttr == 5.0

    def test_build_limd(self):
        factory = build_policy_factory("limd", delta=5.0, ttr_max=100.0)
        policy = factory(ObjectId("x"))
        assert isinstance(policy, LimdPolicy)
        assert policy.bounds.ttr_max == 100.0

    def test_build_limd_detection_mode(self):
        factory = build_policy_factory(
            "limd", delta=5.0, detection_mode="inferred"
        )
        policy = factory(ObjectId("x"))
        assert policy.detector.mode == "inferred"

    def test_build_adaptive_value(self):
        factory = build_policy_factory(
            "adaptive_value", delta=1.0, ttr_min=1.0, ttr_max=60.0
        )
        policy = factory(ObjectId("x"))
        assert isinstance(policy, AdaptiveValueTTRPolicy)

    def test_build_passive(self):
        factory = build_policy_factory("passive")
        assert isinstance(factory(ObjectId("x")), PassivePolicy)

    def test_build_static_ttl(self):
        policy = build_policy_factory("static_ttl", ttl=30.0)(ObjectId("x"))
        assert isinstance(policy, StaticTTLPolicy)
        assert policy.ttl == 30.0

    def test_build_alex(self):
        factory = build_policy_factory(
            "alex", ttr_min=10.0, ttr_max=600.0, update_threshold=0.5
        )
        policy = factory(ObjectId("x"))
        assert isinstance(policy, AlexTTLPolicy)
        assert policy.bounds == TTRBounds(ttr_min=10.0, ttr_max=600.0)
        assert policy.parameters.update_threshold == 0.5

    def test_unknown_policy_rejected(self):
        with pytest.raises(PolicyConfigurationError, match="unknown"):
            build_policy_factory("telepathy", delta=1.0)

    def test_custom_registration(self):
        class EchoPolicy(RefreshPolicy):
            name = "echo"

            def first_ttr(self):
                return 1.0

            def next_ttr(self, *outcome):
                return 1.0

            @property
            def current_ttr(self):
                return 1.0

        def build_echo():
            return lambda _oid: EchoPolicy()

        register_policy("echo-test", build_echo)
        try:
            factory = build_policy_factory("echo-test")
            assert isinstance(factory(ObjectId("x")), EchoPolicy)
            with pytest.raises(PolicyConfigurationError, match="already"):
                register_policy("echo-test", build_echo)
        finally:
            from repro.consistency import registry as registry_module

            registry_module.POLICIES._items.pop("echo-test", None)
