"""Differentiable MoE dispatch/combine built on the sparse kernels.

Wraps the verified sparse fast encode/decode of :mod:`repro.moe.encode`
(Figure 19's K0/K1/K2 kernels) as autograd ops.  Routing indices and
locations are discrete and carry no gradient; the gate values *do* —
the combine op returns gradients for both the expert outputs and the
per-slot gates, which is how the router trains through the layer.

The array-level halves — :func:`expert_ffn_arrays` (executor or serial
expert FFN) and :func:`live_criteria` (the combine's live-gate
routing) — are shared with the tape-free forward of
:class:`repro.nn.moe.MoE`, so both paths run the same kernels.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.moe.encode import (
    fast_decode,
    fast_decode_backward,
    fast_encode,
    fast_encode_backward,
)
from repro.moe.gating import RoutingCriteria
from repro.obs import profiler as _prof
from repro.runtime.executor import (
    ffn_backward_arrays,
    ffn_forward_arrays,
    get_executor,
)

__all__ = ["moe_dispatch", "moe_combine", "batched_expert_ffn_input",
           "expert_ffn", "expert_ffn_arrays", "live_criteria"]


def moe_dispatch(x: Tensor, crit: RoutingCriteria) -> Tensor:
    """Scatter tokens into ``(E, dC, M)`` capacity cells (fast_encode)."""
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    out_data = fast_encode(x.data, crit)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(fast_encode_backward(grad, crit))
    out = Tensor.from_op(out_data, (x,), backward)
    if p is not None:
        routes = _prof.routes_of(crit)
        cells = crit.num_experts * crit.capacity
        m = x.data.shape[1]
        isz = out.data.itemsize
        p.tape_op(out, "moe_dispatch", t0,
                  _prof.sparse_encode_cost(routes, cells, m,
                                           itemsize=isz),
                  _prof.sparse_encode_backward_cost(
                      routes, crit.num_tokens, m, itemsize=isz))
    return out


def live_criteria(crit: RoutingCriteria,
                  gates: np.ndarray) -> RoutingCriteria:
    """``crit`` with its gates replaced by the live ``(k, T)`` values,
    zeroed on the slots the capacity limit dropped."""
    if gates.shape != crit.gates.shape:
        raise ValueError(
            f"gates shape {gates.shape} != crit gates "
            f"{crit.gates.shape}")
    return RoutingCriteria(idxs=crit.idxs, locations=crit.locations,
                           gates=np.where(crit.valid, gates, 0.0),
                           capacity=crit.capacity,
                           num_experts=crit.num_experts)


def moe_combine(expert_output: Tensor, gates: Tensor,
                crit: RoutingCriteria) -> Tensor:
    """Weighted gather back to token order (fast_decode).

    ``gates`` must have the ``(k, T)`` layout of ``crit.gates``; the
    decode uses these live values, keeping the router differentiable.
    """
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    live = live_criteria(crit, gates.data)
    out_data = fast_decode(expert_output.data, live)

    def backward(grad: np.ndarray) -> None:
        grad_z, grad_gates = fast_decode_backward(grad,
                                                  expert_output.data, live)
        expert_output._accumulate(grad_z)
        gates._accumulate(np.where(crit.valid, grad_gates, 0.0))
    out = Tensor.from_op(out_data, (expert_output, gates), backward)
    if p is not None:
        routes = _prof.routes_of(live)
        cells = crit.num_experts * crit.capacity
        m = expert_output.data.shape[-1]
        isz = out.data.itemsize
        p.tape_op(out, "moe_combine", t0,
                  _prof.sparse_decode_cost(routes, crit.num_tokens, m,
                                           itemsize=isz),
                  _prof.sparse_decode_backward_cost(
                      routes, cells, crit.gates.size, m, itemsize=isz))
    return out


def batched_expert_ffn_input(dispatched: Tensor, w: Tensor) -> Tensor:
    """Differentiable per-expert GEMM: ``(E, dC, M) @ (E, M, V)``.

    Batched ``np.matmul``, i.e. one BLAS GEMM per expert — the same
    contraction as the fused kernel in :mod:`repro.runtime.executor`.
    """
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    out_data = np.matmul(dispatched.data, w.data)

    def backward(grad: np.ndarray) -> None:
        dispatched._accumulate(
            np.matmul(grad, w.data.swapaxes(-1, -2)))
        w._accumulate(np.matmul(dispatched.data.swapaxes(-1, -2), grad))
    out = Tensor.from_op(out_data, (dispatched, w), backward)
    if p is not None:
        fwd, bwd = _prof.matmul_cost(dispatched.data.shape, w.data.shape,
                                     out_data.shape,
                                     itemsize=out_data.itemsize)
        p.tape_op(out, "expert_gemm", t0, fwd, bwd)
    return out


def expert_ffn_cost(e: int, c: int, m: int, v: int, activation: str,
                    itemsize: int) -> tuple[_prof.OpCost, _prof.OpCost]:
    """Closed-form cost of the fused expert FFN, composed from the
    two per-expert GEMMs plus the activation (serial algorithm; the
    parallel executor's recompute is a schedule choice, not counted)."""
    g1_f, g1_b = _prof.matmul_cost((e, c, m), (e, m, v), (e, c, v),
                                   itemsize=itemsize)
    a_f, a_b = _prof.elementwise_cost(activation, e * c * v,
                                      itemsize=itemsize)
    g2_f, g2_b = _prof.matmul_cost((e, c, v), (e, v, m), (e, c, m),
                                   itemsize=itemsize)
    return g1_f + a_f + g2_f, g1_b + a_b + g2_b


def expert_ffn_arrays(x: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                      activation: str) -> tuple[np.ndarray, tuple | None]:
    """Expert FFN forward on raw arrays: the multicore executor when one
    is configured (:func:`repro.core.substrate.set_expert_workers`),
    else the serial kernel.  A failing executor latches ``broken`` and
    the call falls back to serial.  Returns ``(y, saved)``; ``saved``
    is the serial kernel's backward cache, None after an executor run.
    """
    ex = get_executor()
    if ex is not None:
        try:
            return ex.ffn_forward(x, w1, w2, activation), None
        except Exception:
            ex.broken = True
    return ffn_forward_arrays(x, w1, w2, activation)


def expert_ffn(dispatched: Tensor, w1: Tensor, w2: Tensor,
               activation: str = "gelu") -> Tensor:
    """Fused differentiable expert FFN: ``act(x @ w1) @ w2`` per expert.

    One tape node replaces the two ``batched_expert_ffn_input`` calls
    plus the activation op.  When the substrate has expert workers
    configured (:func:`repro.core.substrate.set_expert_workers`), the
    E experts' GEMMs run on the multicore executor; the backward then
    recomputes the hidden activations in the workers instead of
    saving them.  Serial and parallel paths share the same array
    kernels and agree numerically.
    """
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    x_data, w1_data, w2_data = dispatched.data, w1.data, w2.data
    out_data, saved = expert_ffn_arrays(x_data, w1_data, w2_data,
                                        activation)

    def backward(grad: np.ndarray) -> None:
        ex_b = get_executor()
        if ex_b is not None:
            try:
                gx, gw1, gw2 = ex_b.ffn_backward(
                    x_data, w1_data, w2_data, grad, activation)
            except Exception:
                ex_b.broken = True
                ex_b = None
        if ex_b is None:
            gx, gw1, gw2 = ffn_backward_arrays(
                x_data, w1_data, w2_data, grad, activation, saved)
        dispatched._accumulate(gx)
        w1._accumulate(gw1)
        w2._accumulate(gw2)
    out = Tensor.from_op(out_data, (dispatched, w1, w2), backward)
    if p is not None:
        e, c, m = x_data.shape
        v = w1_data.shape[-1]
        fwd, bwd = expert_ffn_cost(e, c, m, v, activation,
                                   out_data.itemsize)
        p.tape_op(out, "expert_ffn", t0, fwd, bwd)
    return out
