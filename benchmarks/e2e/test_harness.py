"""Tier-1 checks of the end-to-end harness, through ``run.py --smoke``.

The smoke run (all five workloads plus the trace at one-twentieth size,
one round) and a run against a deliberately corrupted ``expected.json``
start together and are shared by every test here.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
RUN = os.path.join(E2E_DIR, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
EXACT = ("figures", "clients", "churn", "tree_polls")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def benchmark_json():
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def expected_json():
    return _load(os.path.join(E2E_DIR, "expected.json"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory, expected_json):
    """(smoke result line, every smoke sample, corrupted run) -- run once."""
    scratch = tmp_path_factory.mktemp("e2e")
    out = scratch / "smoke.json"
    corrupted = json.loads(json.dumps(expected_json))
    pinned = corrupted["workloads"]["tree_polls"]["pinned"]["0.05"]
    pinned["digest"] = "0" * 64
    tampered = scratch / "expected.json"
    tampered.write_text(json.dumps(corrupted), encoding="utf-8")

    def start(*arguments):
        return subprocess.Popen(
            [sys.executable, RUN, "--smoke", *arguments],
            cwd=str(scratch),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    smoke = start("--out", str(out))
    bad = start(
        "--workload", "tree_polls", "--trace", "0", "--expected", str(tampered)
    )
    smoke_stdout, smoke_stderr = smoke.communicate(timeout=120)
    bad_stdout, _ = bad.communicate(timeout=120)
    assert smoke.returncode == 0, smoke_stderr
    return {
        "line": json.loads(smoke_stdout.strip().splitlines()[-1]),
        "workloads": _load(out)["sets"][0]["workloads"],
        "bad_exit": bad.returncode,
        "bad_line": json.loads(bad_stdout.strip().splitlines()[-1]),
    }


def test_benchmark_json_names_are_within_the_contract(benchmark_json):
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_json[section]
    ]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    by_name = {m["name"]: m for m in benchmark_json["end_to_end"]}
    assert by_name["setup_s"]["unit"] == "s"
    assert by_name["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in by_name.values())


def test_printed_names_equal_declared_names(benchmark_json, runs):
    declared = [w["name"] for w in benchmark_json["workloads"]]
    assert list(runs["workloads"]) == declared
    end_to_end = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    for name, entry in runs["workloads"].items():
        printed = {k: v["unit"] for k, v in entry["end_to_end"].items()}
        assert printed == end_to_end, name
        printed = {k: v["unit"] for k, v in entry["per_layer"].items()}
        assert printed == per_layer, name


def test_result_line_is_the_contract_object(runs):
    line = runs["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_profile_bucketer_loses_no_time(runs):
    for name, entry in runs["workloads"].items():
        layers = {k: v["value"] for k, v in entry["per_layer"].items()}
        profiled = layers["phase.loop_s"] + layers["phase.outside_s"]
        bucketed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        assert bucketed == pytest.approx(profiled, rel=0.01), name
        shares = sum(v for k, v in layers.items() if k.endswith(".share"))
        assert shares == pytest.approx(1.0, abs=0.01), name
        assert layers["other.share"] <= 0.02, name
        assert layers["trace.overhead_ratio"] > 1.0, name


def test_layers_separate_the_workloads(runs):
    def layer(workload, metric):
        return runs["workloads"][workload]["per_layer"][metric]["value"]

    for name in EXACT:
        assert layer(name, "sim.fastforward.share") == 0.0, name
    assert layer("tree_polls_ff", "sim.fastforward.share") > 0.0
    assert layer("clients", "loadgen.share") <= 0.15
    assert layer("clients", "proxy.hit_ratio") == 1.0
    assert 0.0 < layer("churn", "proxy.hit_ratio") < 1.0
    assert layer("churn", "proxy.cache.evictions") > 0
    assert layer("tree_polls_ff", "proxy.polls") == layer("tree_polls", "proxy.polls")
    assert layer("tree_polls_ff", "sim.kernel.events") < layer(
        "tree_polls", "sim.kernel.events"
    )


def test_fast_forward_is_pinned_to_the_exact_result(expected_json):
    exact = expected_json["workloads"]["tree_polls"]
    fast = expected_json["workloads"]["tree_polls_ff"]
    assert fast["sim_ops"] == exact["sim_ops"]
    for scale, pinned in exact["pinned"].items():
        assert fast["pinned"][scale]["digest"] == pinned["digest"]
        assert (
            fast["pinned"][scale]["counts"]["proxy.polls"]
            == pinned["counts"]["proxy.polls"]
        )


def test_corrupted_digest_fails_the_run(runs):
    assert runs["bad_exit"] != 0
    assert runs["bad_line"]["correct"] is False
    assert runs["bad_line"]["failed"] > 0
