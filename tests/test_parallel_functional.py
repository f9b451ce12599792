"""Tests for the functional P1/P2 executions (zero-cost switching).

The paper's key design property: P1 and P2 share token feeding and
parameter placement semantics, so an iteration may run under either
and produce the same numbers.  These tests assert elementwise
equality between P1, P2 and the single-process reference.
"""

import re

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.moe_ops import expert_ffn as fused_expert_ffn
from repro.baselines.fairseq_moe import fairseq_moe_forward
from repro.core.config import MoEConfig
from repro.core.substrate import substrate_dtype
from repro.moe.capacity import CapacityPolicy
from repro.moe.distributed import distributed_moe_forward
from repro.moe.layer import (
    ExpertParams,
    MoELayerParams,
    expert_ffn,
    moe_layer_forward,
)
from repro.parallel.functional import (
    gather_zero_slices,
    p1_forward,
    p2_forward,
    shard_expert_columns,
    slice_expert_zero,
)
from repro.runtime.executor import ACTIVATIONS


def build(world=8, experts=2, tokens=16, m=12, v=24, k=1, f=2.0,
          seed=0, activation="gelu", bias=False):
    rng = np.random.default_rng(seed)
    cfg = MoEConfig(world_size=world, experts_per_gpu=experts / world,
                    model_dim=m, hidden_dim=v, tokens_per_gpu=tokens,
                    top_k=min(k, experts), capacity_factor=f)
    params = MoELayerParams.init(num_experts=experts, model_dim=m,
                                 hidden_dim=v, rng=rng,
                                 top_k=min(k, experts),
                                 activation=activation)
    if bias:  # init makes zero biases; P2 splits b2 over its shards
        params.experts.b1 = rng.normal(size=params.experts.b1.shape)
        params.experts.b2 = rng.normal(size=params.experts.b2.shape)
    xs = [rng.normal(size=(tokens, m)) for _ in range(world)]
    return cfg, params, xs


class TestParameterPlacement:
    def test_column_shards_reconstruct(self):
        _, params, _ = build()
        shards = shard_expert_columns(params.experts, 0, 4)
        w1 = np.concatenate([s.w1 for s in shards], axis=1)
        w2 = np.concatenate([s.w2 for s in shards], axis=0)
        np.testing.assert_array_equal(w1, params.experts.w1[0])
        np.testing.assert_array_equal(w2, params.experts.w2[0])

    def test_column_shards_reject_indivisible(self):
        _, params, _ = build(v=10)
        with pytest.raises(ValueError):
            shard_expert_columns(params.experts, 0, 4)

    def test_zero_slices_roundtrip(self):
        _, params, _ = build()
        slices = slice_expert_zero(params.experts, 1, 4)
        full = gather_zero_slices(slices, params.experts, 1)
        np.testing.assert_allclose(full.w1[0], params.experts.w1[1])
        np.testing.assert_allclose(full.w2[0], params.experts.w2[1])
        np.testing.assert_allclose(full.b1[0], params.experts.b1[1])
        np.testing.assert_allclose(full.b2[0], params.experts.b2[1])

    def test_zero_slices_are_disjoint_and_complete(self):
        _, params, _ = build()
        slices = slice_expert_zero(params.experts, 0, 3)
        total = sum(s["slice"].size for s in slices)
        expected = (params.experts.w1[0].size
                    + params.experts.w2[0].size
                    + params.experts.b1[0].size
                    + params.experts.b2[0].size)
        assert total == expected

    def test_bias_free_float32_slices_stay_float32(self):
        cfg, params, xs = build()
        e = params.experts
        params.experts = ExpertParams(w1=e.w1.astype(np.float32),
                                      w2=e.w2.astype(np.float32))
        xs = [x.astype(np.float32) for x in xs]
        full = gather_zero_slices(slice_expert_zero(params.experts, 1, 4),
                                  params.experts, 1)
        assert full.w1.dtype == full.w2.dtype == np.float32
        assert full.b1 is None and full.b2 is None
        np.testing.assert_array_equal(full.w1[0], params.experts.w1[1])
        p1 = p1_forward(xs, params, cfg)
        p2 = p2_forward(xs, params, cfg)
        policy = CapacityPolicy(cfg.capacity_factor)
        for x, y1, y2 in zip(xs, p1, p2):
            ref = moe_layer_forward(x, params, capacity=policy).output
            assert y1.dtype == np.float32
            np.testing.assert_allclose(y1, y2, rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(y1, ref, rtol=1e-5, atol=1e-6)


class TestDtypeClosure:
    """Params from ``MoELayerParams.init`` and inputs in the substrate
    dtype stay in it through every functional MoE path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("router", ["linear", "cosine"])
    def test_every_path_returns_the_substrate_dtype(self, dtype, router):
        rng = np.random.default_rng(11)
        cfg = MoEConfig(world_size=4, experts_per_gpu=1, model_dim=12,
                        hidden_dim=24, tokens_per_gpu=16, top_k=2,
                        capacity_factor=2.0)
        shared = cfg.with_(experts_per_gpu=0.5)
        with substrate_dtype(dtype):
            ep = MoELayerParams.init(4, 12, 24, rng, router=router,
                                     router_dim=8)
            sh = MoELayerParams.init(2, 12, 24, rng, router=router,
                                     router_dim=8)
        xs = [rng.normal(size=(16, 12)).astype(dtype) for _ in range(4)]
        policy = CapacityPolicy(2.0)
        outputs = {
            "layer": [moe_layer_forward(xs[0], ep, capacity=policy).output],
            "fairseq": [fairseq_moe_forward(xs[0], ep,
                                            capacity_factor=2.0).output],
            "flexible": distributed_moe_forward(xs, ep, cfg).outputs,
            "raw": distributed_moe_forward(xs, ep, cfg,
                                           flexible=False).outputs,
            "p1": p1_forward(xs, sh, shared),
            "p2": p2_forward(xs, sh, shared),
        }
        for path, ys in outputs.items():
            assert {y.dtype for y in ys} == {np.dtype(dtype)}, path


class TestSwitchingEquivalence:
    @pytest.mark.parametrize("world,experts,k", [(4, 2, 1), (8, 2, 1),
                                                 (8, 2, 2), (8, 4, 1),
                                                 (8, 1, 1)])
    def test_p1_equals_p2_equals_reference(self, world, experts, k):
        for bias in (False, True):
            cfg, params, xs = build(world=world, experts=experts, k=k,
                                    bias=bias)
            ref = [moe_layer_forward(
                x, params, capacity=CapacityPolicy(cfg.capacity_factor))
                .output for x in xs]
            p1 = p1_forward(xs, params, cfg)
            p2 = p2_forward(xs, params, cfg)
            for r in range(world):
                np.testing.assert_allclose(p1[r], ref[r], atol=1e-12)
                np.testing.assert_allclose(p2[r], ref[r], atol=1e-12)
                np.testing.assert_allclose(p1[r], p2[r], atol=1e-12)

    def test_relu_activation_path(self):
        cfg, params, xs = build(activation="relu")
        p1 = p1_forward(xs, params, cfg)
        p2 = p2_forward(xs, params, cfg)
        for r in range(cfg.world_size):
            np.testing.assert_allclose(p1[r], p2[r], atol=1e-12)

    def test_unknown_activation_raises_on_every_path(self):
        """Every path raises the kernel's error; none falls back to
        GELU for a name it does not know."""
        # W = E, so the same layer also fits distributed_moe_forward.
        cfg, params, xs = build(world=2, experts=2, activation="swish")
        msg = re.escape(f"unknown activation 'swish'; expected one of "
                        f"{ACTIVATIONS}")
        calls = [
            lambda: expert_ffn(np.ones((2, 3, 12)), params.experts,
                               params.activation),
            lambda: p1_forward(xs, params, cfg),
            lambda: p2_forward(xs, params, cfg),
            lambda: distributed_moe_forward(xs, params, cfg),
            lambda: fused_expert_ffn(
                Tensor(np.ones((2, 3, 12))), Tensor(params.experts.w1),
                Tensor(params.experts.w2), params.activation),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=msg):
                call()

    def test_with_token_dropping(self):
        # Even with capacity truncation both paths agree: the routing
        # (hence the drop set) is computed identically up front.
        cfg, params, xs = build(f=0.5, tokens=64)
        p1 = p1_forward(xs, params, cfg)
        p2 = p2_forward(xs, params, cfg)
        for r in range(cfg.world_size):
            np.testing.assert_allclose(p1[r], p2[r], atol=1e-12)

    def test_p1_requires_divisible_capacity(self):
        # dC = 11 with r = 4 cannot be sub-sliced evenly.
        cfg, params, xs = build(tokens=11, f=2.0)
        assert cfg.capacity_per_gpu % 4 != 0
        with pytest.raises(ValueError):
            p1_forward(xs, params, cfg)

    def test_rejects_wrong_world(self):
        cfg, params, xs = build()
        with pytest.raises(ValueError):
            p2_forward(xs[:-1], params, cfg)

    def test_rejects_expert_mismatch(self):
        cfg, params, xs = build()
        bad = cfg.with_(experts_per_gpu=0.5)
        with pytest.raises(ValueError):
            p2_forward(xs, params, bad)
