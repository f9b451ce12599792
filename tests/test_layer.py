"""Tests for the functional single-process MoE layer."""

import math

import numpy as np
import pytest

from repro.core.substrate import substrate_dtype
from repro.moe.capacity import CapacityPolicy
from repro.moe.layer import (
    ExpertParams,
    MoELayerParams,
    expert_ffn,
    moe_layer_forward,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def params(rng):
    return MoELayerParams.init(num_experts=8, model_dim=16,
                               hidden_dim=32, rng=rng)


class TestExpertParams:
    def test_init_shapes(self, rng):
        p = ExpertParams.init(4, 8, 16, rng)
        assert p.w1.shape == (4, 8, 16)
        assert p.w2.shape == (4, 16, 8)
        assert p.num_experts == 4
        assert p.model_dim == 8
        assert p.hidden_dim == 16

    def test_rejects_incompatible_w2(self, rng):
        with pytest.raises(ValueError):
            ExpertParams(w1=rng.normal(size=(2, 4, 8)),
                         w2=rng.normal(size=(2, 4, 8)))


def _layer_arrays(params):
    e = params.experts
    return [e.w1, e.w2, e.b1, e.b2, params.gate_weight,
            params.cosine_proj, params.cosine_embed]


class TestInitDtype:
    """The factories allocate in the substrate dtype from the same
    float64 variates, so the random stream is dtype independent."""

    @staticmethod
    def _init(dtype, seed=5):
        rng = np.random.default_rng(seed)
        with substrate_dtype(dtype):
            params = MoELayerParams.init(num_experts=4, model_dim=8,
                                         hidden_dim=16, rng=rng,
                                         router="cosine", router_dim=6)
        return params, rng.bit_generator.state

    def test_float32_is_float64_cast_and_keeps_stream(self):
        p32, state32 = self._init(np.float32)
        p64, state64 = self._init(np.float64)
        assert state32 == state64
        for a32, a64 in zip(_layer_arrays(p32), _layer_arrays(p64)):
            assert a32.dtype == np.float32 and a64.dtype == np.float64
            assert a32.tobytes() == a64.astype(np.float32).tobytes()

    def test_float64_draws_are_the_raw_normals(self):
        params, _ = self._init(np.float64)
        rng = np.random.default_rng(5)
        expected = [
            rng.normal(0.0, (2.0 / 8) ** 0.5, (4, 8, 16)),
            rng.normal(0.0, (2.0 / 16) ** 0.5, (4, 16, 8)),
            np.zeros((4, 16)), np.zeros((4, 8)),
            rng.normal(0.0, 8 ** -0.5, (8, 4)),
            rng.normal(0.0, 8 ** -0.5, (8, 6)),
            rng.normal(0.0, 6 ** -0.5, (4, 6))]
        for got, want in zip(_layer_arrays(params), expected):
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


class TestExpertFfn:
    def test_matches_per_expert_loop(self, rng):
        p = ExpertParams.init(3, 8, 16, rng)
        x = rng.normal(size=(3, 5, 8))
        out = expert_ffn(x, p, activation="relu")
        for e in range(3):
            h = np.maximum(x[e] @ p.w1[e] + p.b1[e], 0)
            expected = h @ p.w2[e] + p.b2[e]
            np.testing.assert_allclose(out[e], expected)

    def test_gelu_activation(self, rng):
        p = ExpertParams.init(2, 4, 8, rng)
        x = rng.normal(size=(2, 3, 4))
        out_gelu = expert_ffn(x, p, activation="gelu")
        out_relu = expert_ffn(x, p, activation="relu")
        assert not np.allclose(out_gelu, out_relu)

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
    def test_matches_einsum_reference(self, rng, activation, x_dtype,
                                      w_dtype):
        """The shared BLAS kernel against an independent einsum +
        ``x ** 3`` tanh-GELU reference, with non-zero biases."""
        e, c, m, v = 4, 6, 8, 16
        p = ExpertParams(
            w1=rng.normal(0, m ** -0.5, (e, m, v)).astype(w_dtype),
            w2=rng.normal(0, v ** -0.5, (e, v, m)).astype(w_dtype),
            b1=rng.normal(0, 0.5, (e, v)).astype(w_dtype),
            b2=rng.normal(0, 0.5, (e, m)).astype(w_dtype))
        x = rng.normal(size=(e, c, m)).astype(x_dtype)

        h = np.einsum("ecm,emv->ecv", x, p.w1) + p.b1[:, None, :]
        if activation == "gelu":
            h = 0.5 * h * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                         * (h + 0.044715 * h ** 3)))
        else:
            h = np.maximum(h, 0.0)
        ref = np.einsum("ecv,evm->ecm", h, p.w2) + p.b2[:, None, :]

        out = expert_ffn(x, p, activation=activation)
        assert out.dtype == ref.dtype == np.result_type(x_dtype, w_dtype)
        if ref.dtype == np.float64:
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        else:
            np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_rejects_expert_mismatch(self, rng):
        p = ExpertParams.init(3, 8, 16, rng)
        with pytest.raises(ValueError):
            expert_ffn(rng.normal(size=(2, 5, 8)), p)

    def test_rejects_bad_ndim(self, rng):
        p = ExpertParams.init(3, 8, 16, rng)
        with pytest.raises(ValueError):
            expert_ffn(rng.normal(size=(3, 8)), p)


class TestMoELayerForward:
    def test_output_shape(self, params, rng):
        x = rng.normal(size=(64, 16))
        out = moe_layer_forward(x, params)
        assert out.output.shape == (64, 16)

    def test_fast_and_dense_paths_agree(self, params, rng):
        x = rng.normal(size=(64, 16))
        fast = moe_layer_forward(x, params)
        import dataclasses
        dense_params = dataclasses.replace(params, use_fast_encode=False)
        dense = moe_layer_forward(x, dense_params)
        np.testing.assert_allclose(fast.output, dense.output)

    def test_dynamic_top_k_override(self, params, rng):
        x = rng.normal(size=(32, 16))
        out1 = moe_layer_forward(x, params, top_k=1)
        out4 = moe_layer_forward(x, params, top_k=4)
        assert out1.crit.top_k == 1
        assert out4.crit.top_k == 4
        assert not np.allclose(out1.output, out4.output)

    def test_adaptive_capacity_drops_nothing(self, params, rng):
        x = rng.normal(size=(64, 16))
        out = moe_layer_forward(x, params,
                                capacity=CapacityPolicy(0.0))
        assert out.dropped_fraction == 0.0

    def test_bounded_adaptive_capacity(self, params, rng):
        import dataclasses
        x = rng.normal(size=(64, 16))
        bounded = moe_layer_forward(x, params,
                                    capacity=CapacityPolicy(-1.0))
        assert bounded.effective_capacity_factor <= 1.0

    def test_small_capacity_drops_tokens(self, params, rng):
        x = rng.normal(size=(256, 16))
        out = moe_layer_forward(x, params,
                                capacity=CapacityPolicy(0.25))
        assert out.dropped_fraction > 0

    def test_aux_loss_positive(self, params, rng):
        x = rng.normal(size=(64, 16))
        assert moe_layer_forward(x, params).l_aux > 0

    def test_cosine_router_runs(self, rng):
        params = MoELayerParams.init(num_experts=4, model_dim=16,
                                     hidden_dim=32, rng=rng,
                                     router="cosine")
        x = rng.normal(size=(32, 16))
        out = moe_layer_forward(x, params)
        assert out.output.shape == (32, 16)

    def test_cosine_router_requires_params(self, params, rng):
        import dataclasses
        bad = dataclasses.replace(params, router="cosine")
        with pytest.raises(ValueError):
            moe_layer_forward(rng.normal(size=(8, 16)), bad)

    def test_unknown_router_rejected(self, params, rng):
        import dataclasses
        bad = dataclasses.replace(params, router="mystery")
        with pytest.raises(ValueError):
            moe_layer_forward(rng.normal(size=(8, 16)), bad)

    def test_rejects_bad_input_ndim(self, params, rng):
        with pytest.raises(ValueError):
            moe_layer_forward(rng.normal(size=(8, 16, 2)), params)

    def test_bpr_changes_drops_not_values(self, rng):
        import dataclasses
        params = MoELayerParams.init(num_experts=4, model_dim=8,
                                     hidden_dim=16, rng=rng)
        bpr = dataclasses.replace(params, batch_prioritized=True)
        x = rng.normal(size=(128, 8))
        tight = CapacityPolicy(0.5)
        out_fifo = moe_layer_forward(x, params, capacity=tight)
        out_bpr = moe_layer_forward(x, bpr, capacity=tight)
        # Same drop budget, different victims.
        assert out_fifo.dropped_fraction == pytest.approx(
            out_bpr.dropped_fraction, abs=0.05)
        surviving_fifo = out_fifo.crit.valid
        surviving_bpr = out_bpr.crit.valid
        assert (surviving_fifo != surviving_bpr).any()
