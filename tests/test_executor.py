"""Tests for the multicore expert-parallel FFN executor.

The load-bearing claim: the parallel path (worker processes + shared
memory + backward recompute) is **bitwise identical** to the serial
fused path, because both run the same :func:`ffn_forward_arrays` /
:func:`ffn_backward_arrays` kernels on the same operand bytes.  The
executor may therefore be toggled freely without perturbing training.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.core.substrate import expert_parallelism, substrate_dtype
from repro.runtime.executor import (
    ExpertParallelExecutor,
    ffn_backward_arrays,
    ffn_forward_arrays,
    get_executor,
    shutdown_executor,
)


def ffn_case(e=4, c=6, m=5, v=7, dtype=np.float32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(e, c, m)).astype(dtype)
    w1 = rng.normal(size=(e, m, v)).astype(dtype)
    w2 = rng.normal(size=(e, v, m)).astype(dtype)
    gy = rng.normal(size=(e, c, m)).astype(dtype)
    return x, w1, w2, gy


@pytest.fixture
def executor():
    ex = ExpertParallelExecutor(num_workers=2)
    yield ex
    ex.close()


class TestArrayKernels:
    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_forward_matches_autograd_reference(self, activation):
        from repro.autograd.functional import gelu, relu

        x, w1, w2, _ = ffn_case(dtype=np.float64)
        y, _ = ffn_forward_arrays(x, w1, w2, activation)
        act = gelu if activation == "gelu" else relu
        with substrate_dtype(np.float64):
            h = Tensor(x) @ Tensor(w1)
            ref = (act(h) @ Tensor(w2)).data
        np.testing.assert_array_equal(y, ref)

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_backward_matches_autograd_reference(self, activation):
        from repro.autograd.functional import gelu, relu

        x, w1, w2, gy = ffn_case(dtype=np.float64)
        gx, gw1, gw2 = ffn_backward_arrays(x, w1, w2, gy, activation)
        act = gelu if activation == "gelu" else relu
        with substrate_dtype(np.float64):
            xt = Tensor(x, requires_grad=True)
            w1t = Tensor(w1, requires_grad=True)
            w2t = Tensor(w2, requires_grad=True)
            y = act(xt @ w1t) @ w2t
            (y * Tensor(gy)).sum().backward()
        np.testing.assert_allclose(gx, xt.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw1, w1t.grad, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw2, w2t.grad, rtol=1e-12, atol=1e-12)

    def test_recompute_equals_saved(self):
        # The stateless worker protocol recomputes (h, a); it must give
        # the exact same gradients as the saved-activations path.
        x, w1, w2, gy = ffn_case(dtype=np.float32)
        _, saved = ffn_forward_arrays(x, w1, w2, "gelu")
        with_saved = ffn_backward_arrays(x, w1, w2, gy, "gelu", saved)
        recomputed = ffn_backward_arrays(x, w1, w2, gy, "gelu", None)
        for a, b in zip(with_saved, recomputed):
            np.testing.assert_array_equal(a, b)

    def test_unknown_activation_rejected(self):
        x, w1, w2, _ = ffn_case()
        with pytest.raises(ValueError, match="activation"):
            ffn_forward_arrays(x, w1, w2, "swish")


class TestExecutorAgreement:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bitwise_identical_to_serial(self, executor, dtype):
        x, w1, w2, _ = ffn_case(dtype=dtype)
        y_par = executor.ffn_forward(x, w1, w2, "gelu")
        y_ser, _ = ffn_forward_arrays(x, w1, w2, "gelu")
        assert y_par.dtype == dtype
        np.testing.assert_array_equal(y_par, y_ser)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bitwise_identical_to_serial(self, executor, dtype):
        x, w1, w2, gy = ffn_case(dtype=dtype)
        par = executor.ffn_backward(x, w1, w2, gy, "gelu")
        ser = ffn_backward_arrays(x, w1, w2, gy, "gelu", None)
        for p, s in zip(par, ser):
            assert p.dtype == dtype
            np.testing.assert_array_equal(p, s)

    def test_uneven_expert_chunks(self, executor):
        # 5 experts over 2 workers: chunks (0,2)/(2,5) must still
        # cover every expert exactly once.
        x, w1, w2, _ = ffn_case(e=5)
        y_par = executor.ffn_forward(x, w1, w2, "relu")
        y_ser, _ = ffn_forward_arrays(x, w1, w2, "relu")
        np.testing.assert_array_equal(y_par, y_ser)

    def test_more_workers_than_experts(self):
        ex = ExpertParallelExecutor(num_workers=4)
        try:
            x, w1, w2, _ = ffn_case(e=2)
            y_par = ex.ffn_forward(x, w1, w2, "gelu")
            y_ser, _ = ffn_forward_arrays(x, w1, w2, "gelu")
            np.testing.assert_array_equal(y_par, y_ser)
        finally:
            ex.close()

    def test_slabs_grow_and_are_reused(self, executor):
        small = ffn_case(e=2, c=3, m=4, v=5)
        big = ffn_case(e=4, c=8, m=6, v=9, seed=1)
        for x, w1, w2, _ in (small, big, small):
            y_par = executor.ffn_forward(x, w1, w2, "gelu")
            y_ser, _ = ffn_forward_arrays(x, w1, w2, "gelu")
            np.testing.assert_array_equal(y_par, y_ser)
        assert executor.calls == 3

    def test_output_not_aliased_to_slab(self, executor):
        # The returned array must be a private copy: the next call
        # reuses the slab and would otherwise corrupt the graph.
        x, w1, w2, _ = ffn_case()
        y1 = executor.ffn_forward(x, w1, w2, "gelu")
        snapshot = y1.copy()
        executor.ffn_forward(x * 2.0, w1, w2, "gelu")
        np.testing.assert_array_equal(y1, snapshot)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            ExpertParallelExecutor(num_workers=0)


class TestSubstrateWiring:
    def test_get_executor_off_by_default(self):
        assert get_executor() is None

    def test_get_executor_sized_from_config(self):
        try:
            with expert_parallelism(2):
                ex = get_executor()
                assert ex is not None and ex.num_workers == 2
                # Resizes (new instance) when the config changes.
                with expert_parallelism(3):
                    ex3 = get_executor()
                    assert ex3 is not None and ex3.num_workers == 3
            assert get_executor() is None
        finally:
            shutdown_executor()

    def test_expert_ffn_parallel_matches_serial(self):
        from repro.autograd.moe_ops import expert_ffn

        x, w1, w2, gy = ffn_case(e=4, c=8, m=6, v=10)

        def run():
            xt = Tensor(x, requires_grad=True)
            w1t = Tensor(w1, requires_grad=True)
            w2t = Tensor(w2, requires_grad=True)
            y = expert_ffn(xt, w1t, w2t, "gelu")
            (y * Tensor(gy)).sum().backward()
            return y.data, xt.grad, w1t.grad, w2t.grad

        serial = run()
        try:
            with expert_parallelism(2):
                parallel = run()
        finally:
            shutdown_executor()
        for s, p in zip(serial, parallel):
            np.testing.assert_array_equal(s, p)

    def test_broken_executor_falls_back_to_serial(self, monkeypatch):
        from repro.autograd.moe_ops import expert_ffn
        from repro.runtime import executor as executor_mod

        x, w1, w2, gy = ffn_case()
        try:
            with expert_parallelism(2):
                ex = get_executor()
                assert ex is not None
                monkeypatch.setattr(
                    ex, "_run",
                    lambda *a, **k: (_ for _ in ()).throw(
                        OSError("pool died")))
                xt = Tensor(x, requires_grad=True)
                w1t = Tensor(w1, requires_grad=True)
                w2t = Tensor(w2, requires_grad=True)
                y = expert_ffn(xt, w1t, w2t, "gelu")
                (y * Tensor(gy)).sum().backward()
                assert ex.broken
                assert get_executor() is None  # latched off
        finally:
            shutdown_executor()
        # Compare against the serial kernel on the *tensor* operands:
        # leaf coercion may have cast them to the substrate default.
        y_ser, _ = ffn_forward_arrays(xt.data, w1t.data, w2t.data, "gelu")
        np.testing.assert_array_equal(y.data, y_ser)
        assert xt.grad is not None

    def test_tape_free_moe_forward_uses_executor(self):
        # The array input of nn.MoE (the serving path) shares the
        # executor-or-serial choice with the autograd op.
        from repro.nn.moe import MoE

        rng = np.random.default_rng(3)
        moe = MoE(6, 10, 4, rng, top_k=2, capacity_factor=1.5)
        x = rng.normal(size=(24, 6)).astype(moe.w1.data.dtype)
        serial, _ = moe(x)
        try:
            with expert_parallelism(2):
                parallel, _ = moe(x)
                ex = get_executor()
                assert ex is not None and ex.calls == 1
        finally:
            shutdown_executor()
        np.testing.assert_array_equal(serial, parallel)
