"""Differentiable nonlinearities, normalization and losses.

Every op is instrumented for :mod:`repro.obs.profiler` with
closed-form FLOP/byte costs (see the conventions documented there);
with no active profiler each op pays one ``is None`` check.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.obs import profiler as _prof
from repro.obs.profiler import OpCost
from repro.runtime.executor import _act_forward, _act_grad

__all__ = [
    "relu",
    "gelu",
    "tanh",
    "exp",
    "log",
    "softmax",
    "log_softmax",
    "layer_norm",
    "cross_entropy",
    "gather_rows",
    "take_along",
    "concat",
]


def relu(x: Tensor) -> Tensor:
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    mask = x.data > 0

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)
    out = Tensor.from_op(x.data * mask, (x,), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("relu", out.data.size, 1,
                                         itemsize=out.data.itemsize)
        p.tape_op(out, "relu", t0, fwd, bwd)
    return out


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU with its exact derivative.

    Runs the expert-FFN kernel's activation, so a dense block and an
    expert apply bitwise the same GELU.
    """
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    xd = x.data
    out_data, t = _act_forward(xd, "gelu")

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * _act_grad(xd, t, "gelu"))
    out = Tensor.from_op(out_data, (x,), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("gelu", out_data.size, 1,
                                         itemsize=out_data.itemsize)
        p.tape_op(out, "gelu", t0, fwd, bwd)
    return out


def tanh(x: Tensor) -> Tensor:
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    t = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (1.0 - t * t))
    out = Tensor.from_op(t, (x,), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("tanh", t.size, 1,
                                         itemsize=t.itemsize)
        p.tape_op(out, "tanh", t0, fwd, bwd)
    return out


def exp(x: Tensor) -> Tensor:
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    e = np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * e)
    out = Tensor.from_op(e, (x,), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("exp", e.size, 1,
                                         itemsize=e.itemsize)
        p.tape_op(out, "exp", t0, fwd, bwd)
    return out


def log(x: Tensor) -> Tensor:
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad / x.data)
    out = Tensor.from_op(np.log(x.data), (x,), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("log", out.data.size, 1,
                                         itemsize=out.data.itemsize)
        p.tape_op(out, "log", t0, fwd, bwd)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * s).sum(axis=axis, keepdims=True)
        x._accumulate(s * (grad - dot))
    out = Tensor.from_op(s, (x,), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("softmax", s.size, 1,
                                         itemsize=s.itemsize)
        p.tape_op(out, "softmax", t0, fwd, bwd)
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    s = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - s * grad.sum(axis=axis, keepdims=True))
    out = Tensor.from_op(out_data, (x,), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("log_softmax", out_data.size, 1,
                                         itemsize=out_data.itemsize)
        p.tape_op(out, "log_softmax", t0, fwd, bwd)
    return out


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last axis with affine parameters."""
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * weight.data + bias.data

    def backward(grad: np.ndarray) -> None:
        weight._accumulate((grad * xhat).sum(
            axis=tuple(range(grad.ndim - 1))))
        bias._accumulate(grad.sum(axis=tuple(range(grad.ndim - 1))))
        gx = grad * weight.data
        dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
        x._accumulate(dx)
    out = Tensor.from_op(out_data, (x, weight, bias), backward)
    if p is not None:
        fwd, bwd = _prof.elementwise_cost("layer_norm", out_data.size, 1,
                                         itemsize=out_data.itemsize)
        p.tape_op(out, "layer_norm", t0, fwd, bwd)
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over integer class labels."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ValueError(
            f"logits must be (N, C) and labels (N,), got {logits.shape} "
            f"and {labels.shape}")
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - lse
    loss = -logp[np.arange(n), labels].mean()

    def backward(grad: np.ndarray) -> None:
        prob = np.exp(logp)
        prob[np.arange(n), labels] -= 1.0
        logits._accumulate(float(grad) * prob / n)
    out = Tensor.from_op(np.asarray(loss), (logits,), backward)
    if p is not None:
        size = logits.data.size
        isz = logits.data.itemsize
        fwd = OpCost(flops=10.0 * size, bytes_read=size * isz,
                     bytes_written=isz)
        bwd = OpCost(flops=8.0 * size, bytes_read=size * isz,
                     bytes_written=size * isz)
        p.tape_op(out, "cross_entropy", t0, fwd, bwd)
    return out


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Differentiable row gather: ``out[i] = x[indices[i]]``."""
    indices = np.asarray(indices)
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    out_data = x.data[indices]

    def backward(grad: np.ndarray) -> None:
        gx = np.zeros_like(x.data)
        np.add.at(gx, indices, grad)
        x._accumulate(gx)
    out = Tensor.from_op(out_data, (x,), backward)
    if p is not None:
        size = out_data.size
        isz = out_data.itemsize
        fwd = OpCost(bytes_read=size * isz,
                     bytes_written=size * isz)
        bwd = OpCost(flops=float(size), bytes_read=2.0 * size * isz,
                     bytes_written=x.data.size * isz)
        p.tape_op(out, "gather_rows", t0, fwd, bwd)
    return out


def take_along(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Differentiable ``np.take_along_axis``."""
    indices = np.asarray(indices)
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    out_data = np.take_along_axis(x.data, indices, axis=axis)

    def backward(grad: np.ndarray) -> None:
        # put_along_axis overwrites on duplicate indices, so scatter-add
        # through explicit fancy indexing instead.
        gx = np.zeros_like(x.data)
        idx = [np.arange(s).reshape([s if d == i else 1
                                     for d in range(x.ndim)])
               for i, s in enumerate(x.data.shape)]
        idx[axis] = indices
        np.add.at(gx, tuple(np.broadcast_arrays(*idx)), grad)
        x._accumulate(gx)
    out = Tensor.from_op(out_data, (x,), backward)
    if p is not None:
        size = out_data.size
        isz = out_data.itemsize
        fwd = OpCost(bytes_read=size * isz,
                     bytes_written=size * isz)
        bwd = OpCost(flops=float(size), bytes_read=2.0 * size * isz,
                     bytes_written=x.data.size * isz)
        p.tape_op(out, "take_along", t0, fwd, bwd)
    return out


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation."""
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    p = _prof.active()
    t0 = p.clock() if p is not None else 0.0
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(lo, hi)
            t._accumulate(grad[tuple(slicer)])
    out = Tensor.from_op(out_data, tuple(tensors), backward)
    if p is not None:
        size = out_data.size
        isz = out_data.itemsize
        cost = OpCost(bytes_read=size * isz,
                      bytes_written=size * isz)
        p.tape_op(out, "concat", t0, cost, cost)
    return out
