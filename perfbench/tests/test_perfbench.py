"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench import tracer as tr
from perfbench.workloads import DistAdaptive, Episode, ServeBursty, TrainMoE

ROOT = Path(__file__).resolve().parents[2]


TINY_TRAIN = dict(cases=1, steps=2, batch_size=64, train_tokens=256,
                  test_tokens=32, model_dim=16, hidden_dim=32, num_experts=4)


def tiny(name: str):
    return {
        "train_moe": TrainMoE(**TINY_TRAIN),
        "serve_bursty": ServeBursty(cases=1, horizon_s=0.5),
        "dist_adaptive": DistAdaptive(cases=1, iterations=3, tokens=32,
                                      model_dim=8, hidden_dim=16,
                                      check_every=1),
    }[name]


NAMES = ("train_moe", "serve_bursty", "dist_adaptive")

# Per workload: counters that must fire, and counters the layer table
# predicts idle (exactly 0).
ACTIVE = {
    "train_moe": ("train.steps", "autograd.backward_calls",
                  "autograd.tape_nodes", "optim.calls",
                  "nn.moe_forward_calls", "moe.gating_calls",
                  "moe.encode_calls", "executor.ffn_calls"),
    "serve_bursty": ("autograd.tape_nodes", "nn.moe_forward_calls",
                     "moe.gating_calls", "moe.encode_calls",
                     "executor.ffn_calls", "serve.batches",
                     "obs.trace_events"),
    "dist_adaptive": ("moe.gating_calls", "moe.encode_calls",
                      "layer.ffn_calls", "collectives.a2a_calls",
                      "plan.simulate_calls"),
}
IDLE = {
    "train_moe": ("layer.ffn_calls", "dist.p1_calls", "dist.p2_calls",
                  "collectives.a2a_calls", "plan.simulate_calls",
                  "serve.batches", "obs.trace_events"),
    "serve_bursty": ("train.steps", "autograd.backward_calls",
                     "optim.calls", "layer.ffn_calls", "dist.p1_calls",
                     "dist.p2_calls", "collectives.a2a_calls",
                     "plan.simulate_calls"),
    "dist_adaptive": ("train.steps", "autograd.backward_calls",
                      "autograd.tape_nodes", "optim.calls",
                      "nn.moe_forward_calls", "executor.ffn_calls",
                      "serve.batches", "obs.trace_events"),
}
# Quality metrics each workload defines (the rest are not applicable).
QUALITY = {
    "train_moe": ("final_loss",),
    "serve_bursty": ("model_p50_ms", "model_p99_ms", "goodput_rps"),
    "dist_adaptive": ("planned_step_ms",),
}


@pytest.fixture(scope="module")
def traced():
    return {name: harness.run_traced(tiny(name), seed=1, seconds=0)
            for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_smoke_untraced(name):
    report = harness.run_untraced(tiny(name), seed=1, seconds=0)
    assert report.correct, report.errors
    units = harness.declared_metrics("end_to_end")
    assert set(report.metrics) == set(units)
    assert all(v > 0 for v in report.metrics.values()), report.metrics
    assert report.metrics["ok_frac"] == 1.0
    result = json.loads(report.result_json(units))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_matches_untraced_and_is_complete(traced, name):
    report = traced[name]
    assert report.correct, report.errors
    assert set(report.metrics) == set(harness.declared_metrics("per_layer"))


@pytest.mark.parametrize("name", NAMES)
def test_wrappers_fire_and_idle_layers_count_zero(traced, name):
    metrics = traced[name].metrics
    for key in ACTIVE[name]:
        assert metrics[key] > 0, key
    for key in IDLE[name]:
        assert metrics[key] == 0, key
    if name == "dist_adaptive":
        assert metrics["dist.p1_calls"] + metrics["dist.p2_calls"] == 3


@pytest.mark.parametrize("name", NAMES)
def test_self_times_plus_unattributed_equal_root(traced, name):
    metrics = traced[name].metrics
    total = sum(metrics[m] for m in tr.SELF_TIME_METRIC.values())
    total += metrics["bench.unattributed_s"]
    assert math.isclose(total, metrics["bench.root_s"], rel_tol=1e-9)


@pytest.mark.parametrize("name", NAMES)
def test_quality_metrics_repeat_for_a_seed_and_differ_across_seeds(name):
    first = harness.run_untraced(tiny(name), seed=1, seconds=0).metrics
    again = harness.run_untraced(tiny(name), seed=1, seconds=0).metrics
    other = harness.run_untraced(tiny(name), seed=2, seconds=0).metrics
    for key in QUALITY[name]:
        assert first[key] == again[key], key
        assert first[key] != other[key], key


@pytest.mark.parametrize("name", NAMES)
def test_not_applicable_metrics_read_one(name):
    metrics = harness.run_untraced(tiny(name), seed=1, seconds=0).metrics
    for key in {k for q in QUALITY.values() for k in q} - set(QUALITY[name]):
        assert metrics[key] == 1.0, key


class ObservedTrain(TrainMoE):
    """A train episode that turns on the program's own observer."""

    def run(self, state):
        import repro.obs
        repro.obs.enable()
        try:
            return super().run(state)
        finally:
            repro.obs.disable()


def test_trace_events_count_a_recorder_enabled_through_repro_obs():
    report = harness.run_traced(ObservedTrain(**TINY_TRAIN), seed=1,
                                seconds=0)
    assert report.correct, report.errors
    assert report.metrics["obs.trace_events"] > 0


def test_trace_events_count_only_growth_of_a_preinstalled_recorder():
    import repro.obs
    observer = repro.obs.enable()
    try:
        observer.recorder.instant("before", "test", 0.0)
        tracer = tr.Tracer()
        with tr.installed(tracer):
            observer.recorder.instant("inside", "test", 0.0)
    finally:
        repro.obs.disable()
    assert tracer.counts["obs.trace_events"] == 1


def test_serve_check_counts_each_failed_request_once():
    wl = tiny("serve_bursty")
    state = wl.prepare(1)
    ep = wl.run(state)
    generated = ep.attempted
    ep.detail.requests.pop()          # one request never served
    report = harness.Report()
    report.add(ep, wl.check(state, ep))
    assert (report.attempted, report.failed) == (generated, 1)
    assert len(report.errors) == 1


def test_skipped_train_steps_count_once():
    wl = tiny("train_moe")
    ep = Episode(tokens=1, attempted=4, failed=2, outputs=((), (), [1, 2]),
                 summary=0.5, errors=["train steps [1, 2] skipped"])
    report = harness.Report()
    report.add(ep, wl.check(None, ep))
    assert (report.attempted, report.failed) == (4, 2)


def test_self_time_excludes_children():
    t = tr.Tracer()
    root = t.open("root", "bench")
    child = t.open("child", "layer")
    t.close(child)
    t.close(root)
    by_group = t.self_ns_by_group()
    assert by_group["bench"] + by_group["layer"] == t.root_ns()
    assert by_group["layer"] == t.ends[child] - t.starts[child]


def test_installed_restores_every_name():
    import repro.autograd.tensor as tensor
    import repro.nn.moe as nn_moe
    before = (nn_moe.moe_dispatch, tensor.Tensor.__dict__["from_op"])
    with tr.installed(tr.Tracer()):
        assert nn_moe.moe_dispatch is not before[0]
    assert (nn_moe.moe_dispatch,
            tensor.Tensor.__dict__["from_op"]) == before


def test_fails_without_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_moe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
