"""The traced run must leave the package as it found it and train the same bits."""
import dataclasses
import json
from pathlib import Path

import pytest

import harness
import tracing
from cotrain import trainer
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
# A short horizon keeps each run to a few seconds; the loss guard is not asserted here.
SHORT = dataclasses.replace(WORKLOADS["default_full"], warmup=1, horizon=12)


def originals():
    return [(owner, attr, tracing.current(owner, attr)) for owner, attr, _ in tracing.targets()]


def assert_restored(before):
    changed = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in before if tracing.current(o, a) is not orig]
    assert not changed


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    before = originals()
    plain = harness.run_untraced(SHORT, 3, 1.0, tmp_path_factory.mktemp("plain"))
    traced = harness.run_traced(SHORT, 3, 1.0, tmp_path_factory.mktemp("traced"))
    assert_restored(before)
    return plain, traced


def test_traced_and_untraced_runs_train_the_same_bits(runs):
    plain, traced = runs
    for result in runs:
        assert [m for m in result["detail"]["failures"] if not m.startswith("loss did not fall")] == []
    assert plain["detail"]["fingerprints"] == traced["detail"]["fingerprints"]
    assert plain["detail"]["fingerprints"]["params_sha256"]


def test_runs_report_exactly_the_declared_metrics(runs):
    plain, traced = runs
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for result in runs:
        for name, m in result["metrics"].items():
            assert m["unit"] == units[name]


def test_workloads_match_benchmark_json():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in WORKLOADS.items()}


def test_uninstall_restores_after_an_exception():
    before = originals()
    evaluate = tracing.current(trainer, "evaluate")
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert tracing.current(trainer, "evaluate") is not evaluate
            raise RuntimeError("boom")
    assert_restored(before)


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["op.add", 1.0, 3.0, 0, 0],
        ["backbone", 4.0, 9.0, 0, 0],
        ["op.mul", 5.0, 6.0, 2, 0],
    ]
    times, nodes = tracing.tabulate(spans)
    assert times[0]["outer"] == [10.0, 3.0, 1]
    assert times[0]["backbone"] == [5.0, 4.0, 1]
    assert nodes[0]["backbone"] == 1
