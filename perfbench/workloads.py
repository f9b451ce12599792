"""The three benchmark workloads.

Each workload is a set of *cases*: independent inputs derived from the
run's ``--seed`` (case ``c`` uses the sub-seed ``SeedSequence([seed,
c])``).  The harness prepares a case (its inputs and model, where the
program accepts them prebuilt; timed as set-up), runs it through the
program's public functions (the timed episode), then checks the
outputs outside the timed region.  The
deterministic quality metrics pool one pass over all cases, which keeps
their seed-to-seed spread inside the bounds in ``BENCHMARK.json``.

The program receives only the generated inputs; every call goes through
a module attribute (``trainer.train_model``, ``engine.serve_workload``,
...) so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

# Reported for an end-to-end metric the workload has no such quantity
# for (the output must carry every metric, and none may be 0).
NOT_APPLICABLE = 1.0


def sub_seed(seed: int, case: int) -> int:
    return int(np.random.SeedSequence([seed, case]).generate_state(1)[0])


@dataclass
class Episode:
    """What one timed run of a case produced.

    ``attempted`` and ``failed`` count operations (train steps,
    requests, iterations).  ``run`` fills in what it can see;
    ``check`` completes the counts with the failures only it finds, so
    every failed operation is counted once.
    """

    tokens: int
    attempted: int
    failed: int
    # The deterministic outputs that must repeat bit for bit, what the
    # quality metrics need (kept for the whole pass), and the full
    # output the checks read.
    outputs: tuple = ()
    summary: object = None
    detail: object = None
    errors: list[str] = field(default_factory=list)

    def fingerprint(self) -> str:
        """Digest of ``outputs``; taken outside the timed region."""
        return _digest(*self.outputs)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as the serve engine's own
    histogram computes it."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
# train_moe
# ----------------------------------------------------------------------

@dataclass
class TrainMoE:
    """``train.train_model`` on an MoE classifier (forward, backward,
    Adam): the GEMM-heavy training path."""

    name: ClassVar[str] = "train_moe"
    input_dim: ClassVar[int] = 16
    num_classes: ClassVar[int] = 8
    num_blocks: ClassVar[int] = 4
    top_k: ClassVar[int] = 2
    capacity_factor: ClassVar[float] = 1.25

    cases: int = 6
    steps: int = 16
    batch_size: int = 1024
    train_tokens: int = 8192
    test_tokens: int = 512
    model_dim: int = 128
    hidden_dim: int = 256
    num_experts: int = 16

    def prepare(self, seed: int):
        from repro.nn.models import MoEClassifier
        from repro.train.data import ClusteredTokenTask
        task = ClusteredTokenTask(input_dim=self.input_dim,
                                  num_classes=self.num_classes, seed=seed)
        train = task.sample(self.train_tokens)
        test = task.sample(self.test_tokens)
        model = MoEClassifier(
            self.input_dim, self.model_dim, self.hidden_dim,
            self.num_classes, self.num_blocks, self.num_experts,
            np.random.default_rng(seed), top_k=self.top_k,
            capacity_factor=self.capacity_factor)
        return seed, model, train, test

    def run(self, state) -> Episode:
        from repro.train import trainer
        seed, model, train, test = state
        result = trainer.train_model(model, train, test, steps=self.steps,
                                     batch_size=self.batch_size, seed=seed)
        skipped = result.skipped_steps
        return Episode(
            tokens=self.batch_size * self.steps, attempted=self.steps,
            failed=len(skipped),
            outputs=(result.losses, result.eval_accuracy, skipped),
            summary=result.final_train_loss,
            errors=[f"train steps {skipped} skipped"] if skipped else [])

    def check(self, state, ep: Episode) -> list[str]:
        if math.isfinite(ep.summary):
            return []
        # Skipped steps keep no loss, so a non-finite one came from a
        # step not yet counted as failed.
        ep.failed += 1
        return [f"non-finite final loss {ep.summary}"]

    def quality(self, episodes: list[Episode]) -> dict[str, float]:
        return {
            "final_loss": float(np.mean([ep.summary for ep in episodes])),
            "model_p50_ms": NOT_APPLICABLE,
            "model_p99_ms": NOT_APPLICABLE,
            "goodput_rps": NOT_APPLICABLE,
            "planned_step_ms": NOT_APPLICABLE,
        }

    @staticmethod
    def samples(episodes: list[Episode]) -> dict[str, int]:
        return {"final_loss_runs": len(episodes)}


# ----------------------------------------------------------------------
# serve_bursty
# ----------------------------------------------------------------------

@dataclass
class ServeBursty:
    """``serve.serve_workload`` on the registered ``bursty_spike``
    workload with its horizon fixed: forward-only ``nn.MoE`` on small
    batches, where per-batch fixed costs dominate."""

    name: ClassVar[str] = "serve_bursty"

    # Many short traces rather than a few long ones: bursts transiently
    # overload the server, so one trace's median latency varies by
    # ~90% from trace to trace, and only the mean over many traces is
    # steady from seed to seed.  The horizon is fixed because
    # throughput falls with trace length (the engine's per-batch
    # queue-depth count scans every remaining request).
    cases: int = 140
    horizon_s: float = 2.0

    # Set-up is only the workload spec: ``serve_workload`` takes no
    # prebuilt inputs, so generating the arrivals, building the model
    # and allocating its trace recorder all fall inside the timed
    # episode.  The reference arrivals for the check are generated
    # again afterwards, outside every timed region.
    def prepare(self, seed: int):
        from repro.serve import get_workload
        base = get_workload("bursty_spike")
        return replace(base, seed=seed,
                       arrival=replace(base.arrival,
                                       horizon_s=self.horizon_s))

    def run(self, wl) -> Episode:
        from repro.serve import engine
        result = engine.serve_workload(wl)
        return Episode(
            tokens=sum(b.tokens for b in result.batches),
            attempted=len(result.requests), failed=0,
            outputs=([(r.request_id, r.batch_id, r.model_e2e_ns)
                      for r in result.requests], result.expert_load),
            summary=dict(
                latency_ns=np.array([r.model_e2e_ns
                                     for r in result.requests]),
                makespan_s=result.makespan_s,
                deadline_ns=round(wl.slo.deadline_ms * 1e6)),
            detail=result)

    def check(self, wl, ep: Episode) -> list[str]:
        """Every generated request served exactly once with a consistent
        ledger.  Sets ``attempted`` to the generated requests (plus any
        served request that was never generated) and ``failed`` to the
        requests that break either rule."""
        from collections import Counter

        from repro.serve import generate_arrivals, stage_sum
        generated = {r.request_id for r in
                     generate_arrivals(wl.arrival, wl.seed)}
        result = ep.detail
        times_served = Counter(r.request_id for r in result.requests)
        bad = {i for i in generated if times_served[i] != 1}
        bad |= times_served.keys() - generated
        for batch in result.batches:
            for r in batch.requests:
                # The ledger's spans partition [arrival, batch done).
                if (stage_sum(r.model_spans) != r.model_e2e_ns
                        or r.arrival_ns + r.model_e2e_ns != batch.done_ns):
                    bad.add(r.request_id)
        ep.attempted = len(generated | times_served.keys())
        ep.failed = len(bad)
        if not bad:
            return []
        return [f"{len(bad)} requests not served exactly once or with "
                f"model spans that do not cover [arrival, batch done), "
                f"e.g. {sorted(bad)[:5]}"]

    def quality(self, episodes: list[Episode]) -> dict[str, float]:
        runs = [ep.summary for ep in episodes]
        on_time = sum(int((r["latency_ns"] <= r["deadline_ns"]).sum())
                      for r in runs)
        # Each trace's percentile, then the mean over traces: a pooled
        # p99 would follow the few longest bursts of the seed.
        p50, p99 = (float(np.mean([percentile(r["latency_ns"] / 1e6, q)
                                   for r in runs]))
                    for q in (50, 99))
        return {
            "final_loss": NOT_APPLICABLE,
            "model_p50_ms": p50,
            "model_p99_ms": p99,
            "goodput_rps": on_time / sum(r["makespan_s"] for r in runs),
            "planned_step_ms": NOT_APPLICABLE,
        }

    @staticmethod
    def samples(episodes: list[Episode]) -> dict[str, int]:
        return {"traces": len(episodes),
                "min_requests_per_trace": min(
                    len(ep.summary["latency_ns"]) for ep in episodes)}


# ----------------------------------------------------------------------
# dist_adaptive
# ----------------------------------------------------------------------

@dataclass
class DistAdaptive:
    """Tutel's adaptive loop over simulated ranks: decide (parallelism
    for a sharded-expert layer, pipelining for an EP layer) then execute
    both layers on the tape-free functional path."""

    name: ClassVar[str] = "dist_adaptive"
    world_size: ClassVar[int] = 8
    gpus_per_node: ClassVar[int] = 4
    top_k: ClassVar[int] = 2
    # P1/P2 combine in the input dtype (float32 by default), hence the
    # float32-level tolerance against moe.layer.moe_layer_forward.
    rtol: ClassVar[float] = 1e-5
    atol: ClassVar[float] = 1e-5
    # Paper-scale layers the planner prices (NDv4, W=8): the sharded
    # layer sits near the P1/P2 crossover (P2 below f~1.6, P1 above).
    paper_sharded: ClassVar[dict] = dict(
        model_dim=2048, hidden_dim=8192, tokens_per_gpu=512)
    paper_ep: ClassVar[dict] = dict(
        model_dim=2048, hidden_dim=2048, tokens_per_gpu=8192)

    cases: int = 6
    iterations: int = 24
    tokens: int = 128
    model_dim: int = 64
    hidden_dim: int = 128
    # Executed output is checked on every ``check_every``-th iteration.
    check_every: int = 4

    def _cfg(self, experts_per_gpu: float, f: float, **dims):
        from repro.core.config import MoEConfig
        dims = dims or dict(model_dim=self.model_dim,
                            hidden_dim=self.hidden_dim,
                            tokens_per_gpu=self.tokens)
        return MoEConfig(world_size=self.world_size,
                         gpus_per_node=self.gpus_per_node,
                         experts_per_gpu=experts_per_gpu, top_k=self.top_k,
                         capacity_factor=f, **dims)

    def prepare(self, seed: int):
        from repro.core.substrate import default_dtype
        from repro.models.workload import dynamic_capacity_trace
        from repro.moe.layer import MoELayerParams
        w, n = self.world_size, self.iterations
        rng = np.random.default_rng(seed)
        ep_params = MoELayerParams.init(w, self.model_dim, self.hidden_dim,
                                        rng, top_k=self.top_k)
        sh_params = MoELayerParams.init(w // 2, self.model_dim,
                                        self.hidden_dim, rng,
                                        top_k=self.top_k)
        dtype = default_dtype()
        inputs = [[rng.standard_normal((self.tokens, self.model_dim))
                   .astype(dtype) for _ in range(w)] for _ in range(n)]
        # Needed capacity factors of a deep (EP) and a shallow (sharded)
        # layer, rounded up to the grid on which every rank's capacity
        # is a whole number and P1's even split over r=2 replicas works.
        grid = self.world_size / (self.top_k * self.tokens)

        def factors(layer: int) -> list[float]:
            trace = dynamic_capacity_trace(n, layer_index=layer,
                                           num_layers=10, seed=seed)
            return [math.ceil(f / grid) * grid for f in trace]
        return dict(ep=ep_params, sh=sh_params, inputs=inputs,
                    f_ep=factors(9), f_sh=factors(0))

    def run(self, state) -> Episode:
        from repro.cluster.topology import ndv4_topology
        from repro.moe import distributed
        from repro.parallel import functional, strategy
        from repro.pipeline.adaptive import OnlinePipeliningSearch
        from repro.pipeline.schedule import pipeline_segment_time
        topo = ndv4_topology(self.world_size,
                             gpus_per_node=self.gpus_per_node)
        search = OnlinePipeliningSearch()
        outputs, planned_ms, decisions, failed, errors = [], [], [], 0, []
        for i, xs in enumerate(state["inputs"]):
            f_ep, f_sh = state["f_ep"][i], state["f_sh"][i]
            try:
                choice = strategy.best_strategy(
                    self._cfg(0.5, f_sh, **self.paper_sharded), topo,
                    training=False)
                paper_ep = self._cfg(1, f_ep, **self.paper_ep)
                pipe, seg_s = search.step(
                    f_ep, lambda s: pipeline_segment_time(paper_ep, topo, s))
                ep_out = distributed.distributed_moe_forward(
                    xs, state["ep"], self._cfg(1, f_ep))
                forward = (functional.p1_forward
                           if choice.strategy is strategy.Parallelism.P1_EP_DP
                           else functional.p2_forward)
                sh_out = forward(ep_out.outputs, state["sh"],
                                 self._cfg(0.5, f_sh))
            except Exception as exc:  # counted, reported, run continues
                failed += 1
                errors.append(f"iteration {i}: {exc!r}")
                outputs.append(None)
                continue
            planned_ms.append((choice.total_time + seg_s) * 1e3)
            decisions.append((choice.strategy.value, pipe.describe()))
            outputs.append((ep_out.outputs, sh_out))
        parts = [decisions, planned_ms]
        for out in outputs:
            if out is not None:
                parts.extend(out[0] + out[1])
        return Episode(
            tokens=(self.world_size * self.tokens * 2
                    * (self.iterations - failed)),
            attempted=self.iterations, failed=failed,
            outputs=tuple(parts), summary=planned_ms,
            detail=outputs, errors=errors)

    def check(self, state, ep: Episode) -> list[str]:
        """Sampled iterations against ``moe_layer_forward``; each one
        that differs is one more failed iteration (those that raised are
        already in ``ep.failed``)."""
        errors = []
        for i in range(0, self.iterations, self.check_every):
            out = ep.detail[i]
            if out is not None:
                error = self._check_iteration(state, i, out)
                if error:
                    errors.append(error)
        ep.failed += len(errors)
        return errors

    def _check_iteration(self, state, i: int, out) -> str | None:
        from repro.moe.capacity import CapacityPolicy
        from repro.moe.layer import moe_layer_forward
        for layer, params, f, xs, got in (
                ("ep", state["ep"], state["f_ep"][i], state["inputs"][i],
                 out[0]),
                ("sharded", state["sh"], state["f_sh"][i], out[0], out[1])):
            for rank, (x, y) in enumerate(zip(xs, got)):
                ref = moe_layer_forward(
                    x, params, capacity=CapacityPolicy(f)).output
                if not np.allclose(y, ref, rtol=self.rtol, atol=self.atol):
                    return (f"iteration {i} {layer} rank {rank}: output "
                            "differs from moe_layer_forward by "
                            f"{float(np.abs(y - ref).max()):.3g}")
        return None

    def quality(self, episodes: list[Episode]) -> dict[str, float]:
        planned = [p for ep in episodes for p in ep.summary]
        return {
            "final_loss": NOT_APPLICABLE,
            "model_p50_ms": NOT_APPLICABLE,
            "model_p99_ms": NOT_APPLICABLE,
            "goodput_rps": NOT_APPLICABLE,
            "planned_step_ms": float(np.mean(planned)),
        }

    @staticmethod
    def samples(episodes: list[Episode]) -> dict[str, int]:
        return {"iterations": sum(len(ep.summary) for ep in episodes)}


WORKLOADS = {wl.name: wl for wl in (TrainMoE, ServeBursty, DistAdaptive)}
