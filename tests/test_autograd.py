"""Numerical gradient checks for the autograd engine."""

import numpy as np
import pytest

from repro.autograd.functional import (
    concat,
    cross_entropy,
    exp,
    gather_rows,
    gelu,
    layer_norm,
    log,
    log_softmax,
    relu,
    softmax,
    take_along,
    tanh,
)
from repro.autograd.optim import SGD, Adam, clip_grad_norm
from repro.autograd.tensor import Tensor


@pytest.fixture(autouse=True)
def _float64_substrate():
    """Numeric gradient checks stay in float64: central differences at
    float32 lose half the mantissa to roundoff (see ISSUE 6 / DESIGN
    dtype conventions)."""
    from repro.core.substrate import substrate_dtype
    with substrate_dtype(np.float64):
        yield


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of ``x``."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = (fn(xp) - fn(xm)) / (2 * eps)
    return grad


def check_grad(build, x: np.ndarray, atol=1e-5):
    """Compare autograd and numeric gradients of ``sum(build(t))``."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.sum().backward()
    numeric = numeric_grad(lambda v: float(build(Tensor(v)).data.sum()), x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


RNG = np.random.default_rng(0)


class TestArithmetic:
    def test_add(self):
        other = Tensor(RNG.normal(size=(3, 4)))
        check_grad(lambda t: t + other, RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        bias = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))

    def test_mul(self):
        other = RNG.normal(size=(3, 4))
        check_grad(lambda t: t * Tensor(other), RNG.normal(size=(3, 4)))

    def test_div(self):
        denom = RNG.normal(size=(3, 4)) + 3.0
        check_grad(lambda t: t / Tensor(denom), RNG.normal(size=(3, 4)))

    def test_pow(self):
        check_grad(lambda t: t ** 3.0, RNG.normal(size=(4,)) + 2.0)

    def test_neg_sub(self):
        check_grad(lambda t: (-t) - Tensor(np.ones((2, 2))),
                   RNG.normal(size=(2, 2)))

    def test_rsub_rmul(self):
        check_grad(lambda t: 2.0 - 3.0 * t, RNG.normal(size=(3,)))

    def test_matmul_grad_both_sides(self):
        a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        na = numeric_grad(lambda v: float((v @ b.data).sum()), a.data)
        nb = numeric_grad(lambda v: float((a.data @ v).sum()), b.data)
        np.testing.assert_allclose(a.grad, na, atol=1e-5)
        np.testing.assert_allclose(b.grad, nb, atol=1e-5)

    def test_batched_matmul(self):
        a = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)


class TestShapes:
    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6) * Tensor(np.arange(6.0))),
                   RNG.normal(size=(2, 3)))

    def test_transpose(self):
        w = RNG.normal(size=(3, 2))
        check_grad(lambda t: t.T * Tensor(w), RNG.normal(size=(2, 3)))

    def test_sum_axis_keepdims(self):
        w = Tensor(RNG.normal(size=(3, 1)))
        check_grad(lambda t: t.sum(axis=1, keepdims=True) * w,
                   RNG.normal(size=(3, 4)))

    def test_mean(self):
        check_grad(lambda t: t.mean(axis=0), RNG.normal(size=(5, 2)))

    def test_concat(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        concat([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((4, 3)))


class TestNonlinearities:
    def test_relu(self):
        check_grad(relu, RNG.normal(size=(4, 4)) + 0.05)

    def test_gelu(self):
        check_grad(gelu, RNG.normal(size=(4, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_is_the_expert_kernel_activation(self, dtype):
        """Dense blocks and experts apply bitwise the same GELU, forward
        and backward, at both substrate dtypes."""
        from repro.runtime.executor import _act_forward, _act_grad
        rng = np.random.default_rng(3)
        x = rng.normal(scale=2.0, size=(64, 128)).astype(dtype)
        grad = rng.normal(size=x.shape).astype(dtype)
        t = Tensor(x, requires_grad=True, dtype=dtype)
        out = gelu(t)
        out.backward(grad)
        ref, cache = _act_forward(x, "gelu")
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == ref.tobytes()
        assert t.grad.tobytes() == (grad * _act_grad(x, cache, "gelu")
                                    ).tobytes()

    def test_tanh(self):
        check_grad(tanh, RNG.normal(size=(3, 3)))

    def test_exp_log(self):
        check_grad(exp, RNG.normal(size=(3,)))
        check_grad(log, RNG.normal(size=(3,)) ** 2 + 1.0)

    def test_softmax(self):
        w = RNG.normal(size=(3, 5))
        check_grad(lambda t: softmax(t) * Tensor(w),
                   RNG.normal(size=(3, 5)))

    def test_log_softmax(self):
        w = RNG.normal(size=(3, 5))
        check_grad(lambda t: log_softmax(t) * Tensor(w),
                   RNG.normal(size=(3, 5)))

    def test_layer_norm(self):
        weight = Tensor(RNG.normal(size=(6,)) + 1.0, requires_grad=True)
        bias = Tensor(RNG.normal(size=(6,)), requires_grad=True)
        x = RNG.normal(size=(4, 6))
        check_grad(lambda t: layer_norm(t, weight, bias), x, atol=1e-4)

    def test_layer_norm_param_grads(self):
        weight = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(RNG.normal(size=(8, 4)), requires_grad=True)
        layer_norm(x, weight, bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 8.0))
        assert weight.grad is not None


class TestGathers:
    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        w = RNG.normal(size=(4, 3))
        check_grad(lambda t: gather_rows(t, idx) * Tensor(w),
                   RNG.normal(size=(3, 3)))

    def test_take_along(self):
        idx = RNG.integers(0, 5, size=(4, 2))
        w = RNG.normal(size=(4, 2))
        check_grad(lambda t: take_along(t, idx, axis=1) * Tensor(w),
                   RNG.normal(size=(4, 5)))

    def test_take_along_duplicate_indices_accumulate(self):
        x = Tensor(RNG.normal(size=(1, 3)), requires_grad=True)
        idx = np.array([[1, 1]])
        take_along(x, idx, axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 2.0, 0.0]])


class TestCrossEntropy:
    def test_matches_manual(self):
        logits = RNG.normal(size=(6, 4))
        labels = RNG.integers(0, 4, 6)
        t = Tensor(logits, requires_grad=True)
        loss = cross_entropy(t, labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1,
                                                    keepdims=True))
        expected = -logp[np.arange(6), labels].mean()
        assert float(loss.data) == pytest.approx(expected)

    def test_gradient(self):
        logits = RNG.normal(size=(5, 3))
        labels = RNG.integers(0, 3, 5)
        t = Tensor(logits, requires_grad=True)
        cross_entropy(t, labels).backward()
        numeric = numeric_grad(
            lambda v: float(cross_entropy(Tensor(v), labels).data),
            logits)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_grad_accumulates_across_uses(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t + t).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(3, 2.0))

    def test_no_grad_for_constants(self):
        t = Tensor(np.ones(3))
        out = (t * 2).sum()
        out.backward()
        assert t.grad is None

    def test_detach_stops_gradient(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t.detach() * 2).sum().backward()
        assert t.grad is None

    def test_deep_graph_no_recursion_error(self):
        t = Tensor(np.ones(2), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones(2))


class TestOptimizers:
    def test_sgd_descends(self):
        w = Tensor(np.array([5.0]), requires_grad=True)
        opt = SGD([w], lr=0.1)
        for _ in range(50):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(float(w.data[0])) < 0.1

    def test_sgd_momentum_accelerates(self):
        def run(momentum):
            w = Tensor(np.array([5.0]), requires_grad=True)
            opt = SGD([w], lr=0.01, momentum=momentum)
            for _ in range(30):
                loss = (w * w).sum()
                opt.zero_grad()
                loss.backward()
                opt.step()
            return abs(float(w.data[0]))
        assert run(0.9) < run(0.0)

    def test_adam_descends(self):
        w = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        opt = Adam([w], lr=0.05)
        for _ in range(200):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.abs(w.data).max() < 0.05

    def test_weight_decay_shrinks(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([w], lr=0.1, weight_decay=1.0)
        loss = (w * 0.0).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert float(w.data[0]) < 1.0

    def test_clip_grad_norm(self):
        w = Tensor(np.ones(4), requires_grad=True)
        w.grad = np.full(4, 10.0)
        norm = clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([Tensor(np.ones(1), requires_grad=True)], lr=0)
        with pytest.raises(ValueError):
            Adam([Tensor(np.ones(1), requires_grad=True)], lr=-1)
