"""The benchmark's own span tracer and the layer wrappers it installs.

Every layer is timed from here, never from inside ``src/``: a wrapper
replaces the public function at the name its caller looks up (callers
import by value, so ``repro.nn.moe.moe_dispatch`` is patched, not
``repro.autograd.moe_ops.moe_dispatch``).  A span records
``{name, start, end, parent, run id}``; spans stay in memory and are
written out when the benchmark ends.  A span's self time is its
duration minus the durations of its child spans (calls nest
synchronously, so children never overlap).

The program's own observer (``repro.obs``) is never installed here:
that would switch on the program's spans in ``train_moe`` and
``dist_adaptive``.  The ``obs`` layer counts the events of every trace
recorder the program records into during an episode, whoever installs
it (the serve loop always does).
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Layer group -> the per-layer metric that carries its self time.
SELF_TIME_METRIC = {
    "train": "train.loop_self_s",
    "autograd": "autograd.backward_self_s",
    "optim": "optim.self_s",
    "nn": "nn.moe_forward_self_s",
    "gating": "moe.gating_s",
    "metrics": "moe.routing_stats_s",
    "encode": "moe.encode_s",
    "moe_ops": "moe_ops.self_s",
    "executor": "executor.ffn_s",
    "layer": "layer.ffn_s",
    "dist": "dist.forward_self_s",
    "collectives": "collectives.a2a_s",
    "plan": "plan.decide_s",
    "serve": "serve.loop_self_s",
    "serve.batcher": "serve.batcher_s",
    "serve.ledger": "serve.ledger_s",
    "obs": "obs.routing_observe_s",
}

# Per-layer counters, averaged per traced episode.
COUNTERS = (
    "train.steps", "train.skipped_steps",
    "autograd.backward_calls", "autograd.tape_nodes",
    "optim.calls",
    "nn.moe_forward_calls",
    "moe.gating_calls",
    "moe.encode_calls", "moe.encode_bytes",
    "executor.ffn_calls", "executor.ffn_flops",
    "layer.ffn_calls", "layer.ffn_flops",
    "dist.p1_calls", "dist.p2_calls",
    "collectives.a2a_calls", "collectives.a2a_bytes",
    "plan.simulate_calls", "plan.switches",
    "serve.batches",
    "obs.trace_events",
)

# Ratios: metric -> (numerator counter, denominator counter).
RATIOS = {
    "moe.slots_kept_ratio": ("_gating.kept", "_gating.slots"),
    "moe.buffer_pool_hit_ratio": ("_pool.hits", "_pool.lookups"),
    "plan.bucket_hit_ratio": ("_plan.hits", "_plan.decisions"),
    "serve.mean_batch_tokens": ("_serve.tokens", "serve.batches"),
}


class Tracer:
    """In-memory spans plus counters for one benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.groups: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: dict[str, float] = {}
        self.state: dict = {}
        self.run_id = 0
        self._stack: list[int] = []

    def open(self, name: str, group: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out "
                               f"of order (open: {self.names[popped]!r})")

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def self_ns_by_group(self) -> dict[str, int]:
        """Summed self time (ns) of every group's spans."""
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: dict[str, int] = {}
        for i, group in enumerate(self.groups):
            dur = self.ends[i] - self.starts[i]
            out[group] = out.get(group, 0) + dur - child_ns[i]
        return out

    def root_ns(self) -> int:
        return sum(self.ends[i] - self.starts[i]
                   for i, p in enumerate(self.parents) if p < 0)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "group": self.groups[i],
                    "start_ns": self.starts[i], "end_ns": self.ends[i],
                    "parent": self.parents[i], "run": self.runs[i]}))
                fh.write("\n")


# ----------------------------------------------------------------------
# Count hooks: (tracer, args, kwargs, result) -> None
# ----------------------------------------------------------------------

def _nbytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _nbytes(v)
    return total


def _on_train(t, args, kwargs, result) -> None:
    t.count("train.steps", len(result.step_walls))
    t.count("train.skipped_steps", len(result.skipped_steps))


def _kept(t, crit) -> None:
    t.count("_gating.kept", int(crit.valid.sum()))
    t.count("_gating.slots", crit.idxs.size)


def _on_top_k_routing(t, args, kwargs, crit) -> None:
    t.count("moe.gating_calls")
    _kept(t, crit)


def _on_routing_stats(t, args, kwargs, result) -> None:
    _kept(t, args[0])


def _on_encode(t, args, kwargs, result) -> None:
    # Bytes are computed from array sizes: every dense operand plus the
    # result, i.e. what one pass over them reads and writes.
    t.count("moe.encode_calls")
    t.count("moe.encode_bytes", _nbytes(args) + _nbytes((result,)))


def _gemm_flops(x: np.ndarray, w1: np.ndarray) -> int:
    """2*E*C*M*H: one expert GEMM over the (E, C, M) capacity cells."""
    e, c, m = x.shape
    return 2 * e * c * m * w1.shape[-1]


def _on_ffn_forward(t, args, kwargs, result) -> None:
    t.count("executor.ffn_calls")
    t.count("executor.ffn_flops", 2 * _gemm_flops(args[0], args[1]))


def _on_ffn_backward(t, args, kwargs, result) -> None:
    saved = args[5] if len(args) > 5 else kwargs.get("saved")
    gemms = 4 if saved is not None else 6      # recompute without saved
    t.count("executor.ffn_calls")
    t.count("executor.ffn_flops", gemms * _gemm_flops(args[0], args[1]))


def _on_layer_ffn(t, args, kwargs, result) -> None:
    t.count("layer.ffn_calls")
    t.count("layer.ffn_flops", 2 * _gemm_flops(args[0], args[1].w1))


def _on_a2a(t, args, kwargs, result) -> None:
    t.count("collectives.a2a_calls")
    t.count("collectives.a2a_bytes", _nbytes(args[0]))


def _before_search_step(t, args, kwargs) -> None:
    search, f = args[0], args[1]
    # exploration_remaining() first files f exactly as get_strategy()
    # would, so the decision it precedes is unchanged.
    t.count("_plan.decisions")
    if search.exploration_remaining(f) == 0:
        t.count("_plan.hits")


def _switch(t, key: str, choice) -> None:
    previous = t.state.get(key)
    if previous is not None and previous != choice:
        t.count("plan.switches")
    t.state[key] = choice


def _on_search_step(t, args, kwargs, result) -> None:
    _switch(t, "pipeline", result[0])


def _on_best_strategy(t, args, kwargs, result) -> None:
    _switch(t, "parallelism", result.strategy)


def _on_ledger(t, args, kwargs, result) -> None:
    t.count("serve.batches")
    t.count("_serve.tokens", result.tokens)


def _on_recorder_init(t, args, kwargs, result) -> None:
    t.state.setdefault("recorders", []).append(args[0])


def _counter(key: str):
    def hook(t, args, kwargs, result) -> None:
        t.count(key)
    return hook


@dataclass(frozen=True)
class Site:
    """One wrapped name: ``module:Attr.path`` plus its layer group.

    ``group=None`` counts calls without a span (for names called so
    often that a span would dominate, such as ``Tensor.from_op``).
    """

    path: str
    group: str | None
    after: Callable | None = None
    before: Callable | None = None


SITES = (
    Site("repro.train.trainer:train_model", "train", _on_train),
    Site("repro.autograd.tensor:Tensor.backward", "autograd",
         _counter("autograd.backward_calls")),
    Site("repro.autograd.tensor:Tensor.from_op", None,
         _counter("autograd.tape_nodes")),
    Site("repro.autograd.optim:Adam.step", "optim",
         _counter("optim.calls")),
    Site("repro.train.trainer:clip_grad_norm", "optim",
         _counter("optim.calls")),
    Site("repro.nn.moe:MoE.forward", "nn",
         _counter("nn.moe_forward_calls")),
    Site("repro.nn.moe:compute_locations", "gating",
         _counter("moe.gating_calls")),
    Site("repro.moe.distributed:top_k_routing", "gating",
         _on_top_k_routing),
    Site("repro.parallel.functional:top_k_routing", "gating",
         _on_top_k_routing),
    Site("repro.nn.moe:routing_stats", "metrics", _on_routing_stats),
    Site("repro.autograd.moe_ops:fast_encode", "encode", _on_encode),
    Site("repro.autograd.moe_ops:fast_decode", "encode", _on_encode),
    Site("repro.autograd.moe_ops:fast_encode_backward", "encode",
         _on_encode),
    Site("repro.autograd.moe_ops:fast_decode_backward", "encode",
         _on_encode),
    Site("repro.moe.distributed:fast_encode", "encode", _on_encode),
    Site("repro.moe.distributed:fast_decode", "encode", _on_encode),
    Site("repro.parallel.functional:fast_encode", "encode", _on_encode),
    Site("repro.parallel.functional:fast_decode", "encode", _on_encode),
    Site("repro.nn.moe:moe_dispatch", "moe_ops"),
    Site("repro.nn.moe:moe_combine", "moe_ops"),
    Site("repro.nn.moe:expert_ffn", "moe_ops"),
    Site("repro.autograd.moe_ops:ffn_forward_arrays", "executor",
         _on_ffn_forward),
    Site("repro.autograd.moe_ops:ffn_backward_arrays", "executor",
         _on_ffn_backward),
    Site("repro.moe.distributed:expert_ffn", "layer", _on_layer_ffn),
    Site("repro.parallel.functional:expert_ffn", "layer", _on_layer_ffn),
    Site("repro.moe.distributed:distributed_moe_forward", "dist"),
    Site("repro.parallel.functional:p1_forward", "dist",
         _counter("dist.p1_calls")),
    Site("repro.parallel.functional:p2_forward", "dist",
         _counter("dist.p2_calls")),
    Site("repro.moe.distributed:flexible_all_to_all", "collectives",
         _on_a2a),
    Site("repro.parallel.strategy:best_strategy", "plan",
         _on_best_strategy),
    Site("repro.pipeline.adaptive:OnlinePipeliningSearch.step", "plan",
         _on_search_step, _before_search_step),
    Site("repro.pipeline.schedule:simulate", "plan",
         _counter("plan.simulate_calls")),
    Site("repro.serve.engine:serve_workload", "serve"),
    Site("repro.serve.engine:BatchFormer.next_batch", "serve.batcher"),
    Site("repro.serve.engine:build_batch_ledger", "serve.ledger",
         _on_ledger),
    Site("repro.serve.engine:RoutingRecorder.observe_batch", "obs"),
    # At the class, so a recorder counts whichever name created it.
    Site("repro.obs.trace:TraceRecorder.__init__", None,
         _on_recorder_init),
)


def _resolve(path: str):
    """``'pkg.mod:Cls.attr'`` -> (owner object, attribute name)."""
    module, _, attr_path = path.partition(":")
    owner = importlib.import_module(module)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(tracer: Tracer, fn: Callable, site: Site) -> Callable:
    name = site.path.partition(":")[2]
    group, after, before = site.group, site.after, site.before
    if group is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, kwargs, result)
            return result
        return counted

    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        idx = tracer.open(name, group)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result
    return traced


def _trace_events(recorder) -> int:
    return 0 if recorder is None else len(recorder.events) + recorder.dropped


def _current_recorder():
    observer = importlib.import_module("repro.obs").get_observer()
    return None if observer is None else observer.recorder


class installed:
    """Context manager: every :data:`SITES` name wrapped for ``tracer``.

    On exit it adds to ``obs.trace_events`` the events recorded inside
    the block: all events of the recorders created there, plus the
    growth of a recorder already installed when the block began.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []
        self._before = (None, 0)

    def __enter__(self) -> Tracer:
        recorder = _current_recorder()
        self._before = recorder, _trace_events(recorder)
        for site in SITES:
            owner, attr = _resolve(site.path)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            self._saved.append((owner, attr, raw))
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(
                    _wrap(self.tracer, raw.__func__, site))
            else:
                wrapped = _wrap(self.tracer, raw, site)
            setattr(owner, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        recorders = {id(r): r for r in
                     self.tracer.state.pop("recorders", [])}
        before, events_before = self._before
        for recorder in (before, _current_recorder()):
            if recorder is not None:
                recorders.setdefault(id(recorder), recorder)
        events = sum(map(_trace_events, recorders.values()))
        self.tracer.count("obs.trace_events", events - events_before)
        self._before = (None, 0)


def end_episode(tracer: Tracer) -> None:
    """Forget per-episode state (the last planner choices: each episode
    starts a fresh planner) and start a new run id."""
    tracer.state.clear()
    tracer.run_id += 1


def per_layer_metrics(tracer: Tracer, episodes: int) -> dict[str, float]:
    """Per-episode averages of every per-layer metric except
    ``bench.trace_overhead``, which needs the untraced walls."""
    if episodes < 1:
        raise ValueError("need at least one traced episode")
    by_group = tracer.self_ns_by_group()
    out = {metric: by_group.get(group, 0) / 1e9 / episodes
           for group, metric in SELF_TIME_METRIC.items()}
    for key in COUNTERS:
        out[key] = tracer.counts.get(key, 0) / episodes
    for metric, (num, den) in RATIOS.items():
        d = tracer.counts.get(den, 0)
        out[metric] = tracer.counts.get(num, 0) / d if d else 0.0
    out["bench.root_s"] = tracer.root_ns() / 1e9 / episodes
    out["bench.unattributed_s"] = by_group.get("bench", 0) / 1e9 / episodes
    return out
