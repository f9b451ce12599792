"""Run one workload untraced (end-to-end metrics) or traced (per-layer
metrics), check its outputs, and build the result object."""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from perfbench import tracer as tr
from perfbench.workloads import Episode, sub_seed

ROOT = Path(__file__).resolve().parent.parent


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics
    ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_program() -> None:
    """Import every program module the wrappers name (set-up cost)."""
    for site in tr.SITES:
        importlib.import_module(site.path.partition(":")[0])


_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); "
                 "sys.path[:0] = sys.argv[1:]; "
                 "from perfbench import harness; harness.load_program(); "
                 "print(time.perf_counter() - t)")


def import_seconds(runs: int) -> list[float]:
    """Program import time, measured in ``runs`` fresh interpreters."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
             str(ROOT)], capture_output=True, text=True, check=True,
            timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return times


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def result_json(self, units: dict[str, str]) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in self.metrics.items()}})

    def add(self, ep: Episode, checked: list[str]) -> None:
        """``ep``'s counts must already include what ``checked`` says."""
        self.attempted += ep.attempted
        self.failed += ep.failed
        self.errors.extend(ep.errors + checked)


def _mismatch(ep: Episode, message: str) -> list[str]:
    """Outputs that do not reproduce: at least one operation failed."""
    ep.failed = max(ep.failed, 1)
    return [message]


def _run(wl, state) -> tuple[Episode | None, float, str | None]:
    t0 = perf_counter()
    try:
        ep = wl.run(state)
    except Exception:  # an episode that raises is one failed operation
        return None, perf_counter() - t0, traceback.format_exc(limit=3)
    return ep, perf_counter() - t0, None


def _prepare(wl, seed: int, case: int, times: list[float]):
    t0 = perf_counter()
    state = wl.prepare(sub_seed(seed, case))
    times.append(perf_counter() - t0)
    return state


def run_untraced(wl, seed: int, seconds: float,
                 import_s: float = 0.0) -> Report:
    """At least one pass over the cases, then more episodes until
    ``seconds`` have passed.  Quality metrics pool the first pass; later
    passes must reproduce its outputs exactly."""
    report = Report()
    prepare_s: list[float] = []
    rates: list[float] = []
    first_pass: list[Episode] = []
    fingerprints: dict[int, str] = {}
    counts: dict[int, tuple[int, int]] = {}
    deadline = perf_counter() + seconds
    i = 0
    while i < wl.cases or perf_counter() < deadline:
        case = i % wl.cases
        state = _prepare(wl, seed, case, prepare_s)
        ep, wall, error = _run(wl, state)
        i += 1
        if ep is None:
            report.attempted += 1
            report.failed += 1
            report.errors.append(error)
            continue
        fingerprint = ep.fingerprint()
        checked = []
        if case not in fingerprints:
            checked = wl.check(state, ep)
            fingerprints[case] = fingerprint
            counts[case] = ep.attempted, ep.failed
            first_pass.append(ep)
        elif fingerprint == fingerprints[case]:
            # Same outputs, same verdict: reuse the first pass's counts.
            ep.attempted, ep.failed = counts[case]
        else:
            checked = wl.check(state, ep) + _mismatch(
                ep, f"case {case}: outputs differ between passes")
        report.add(ep, checked)
        rates.append(ep.tokens / wall)
        # Hold one case at a time, so peak RSS does not depend on how
        # many episodes fit in the run.
        ep.outputs = ep.detail = None
        del state, ep
    if len(first_pass) < wl.cases:
        report.errors.append("a case never completed; no quality metrics")
        return report
    report.metrics = {
        "setup_s": import_s + statistics.median(prepare_s),
        "tokens_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1.0 - report.failed / max(1, report.attempted),
    }
    report.metrics.update(wl.quality(first_pass))
    report.info["episodes"] = i
    report.info["tokens_per_s_quartiles"] = (
        statistics.quantiles(rates, n=4) if len(rates) > 1 else rates)
    report.info["samples"] = wl.samples(first_pass)
    return report


def run_traced(wl, seed: int, seconds: float, spans_path=None) -> Report:
    """Alternate untraced and traced episodes of the same case until
    ``seconds`` have passed (at least two pairs).  The traced output
    must equal the untraced one; ``bench.trace_overhead`` is the median
    traced/untraced wall ratio minus one."""
    report = Report()
    tracer = tr.Tracer()
    pool = _buffer_pool()
    ratios: list[float] = []
    traced = 0
    deadline = perf_counter() + seconds
    i = 0
    while i < 2 or perf_counter() < deadline:
        case = i % wl.cases
        i += 1
        ep_u, wall_u, error = _run(wl, _prepare(wl, seed, case, []))
        state = _prepare(wl, seed, case, [])
        hits, misses = pool.hits, pool.misses
        with tr.installed(tracer):
            root = tracer.open("episode", "bench")
            ep_t, _, error_t = _run(wl, state)
            tracer.close(root)
        tr.end_episode(tracer)
        tracer.count("_pool.hits", pool.hits - hits)
        tracer.count("_pool.lookups",
                     pool.hits - hits + pool.misses - misses)
        traced += 1
        if ep_u is None or ep_t is None:
            report.attempted += 1
            report.failed += 1
            report.errors.append(error or error_t)
            continue
        checked = wl.check(state, ep_t)
        if ep_t.fingerprint() != ep_u.fingerprint():
            checked += _mismatch(ep_t, f"case {case}: traced outputs "
                                 "differ from untraced outputs")
        report.add(ep_t, checked)
        ratios.append((tracer.ends[root] - tracer.starts[root]) / 1e9
                      / wall_u)
    report.metrics = tr.per_layer_metrics(tracer, traced)
    report.metrics["bench.trace_overhead"] = (
        statistics.median(ratios) - 1.0 if ratios else 0.0)
    report.info["episodes"] = traced
    if spans_path is not None:
        tracer.write_jsonl(spans_path)
    return report


def _buffer_pool():
    from repro.moe.encode import dispatch_buffer_pool
    return dispatch_buffer_pool()


def environment(seed: int, pins: dict[str, str]) -> dict:
    """Host, pins, versions, substrate dtype, source revision, seed."""
    from repro.core.substrate import default_dtype
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "pins": pins,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "substrate_dtype": np.dtype(default_dtype()).name,
        "git_sha": _git_sha(),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"
