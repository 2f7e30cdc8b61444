import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from oracles import brute_force_attention_block, brute_force_prior, random_label_instance

from aan import tensor as tn
from aan.data import AttributeMap, IntervalLabelSet, LoadedVideo
from aan.graph import (
    CoOccurrencePrior,
    ModelConfig,
    attention_adjacency,
    bottleneck,
    build_prior,
    classify,
    clone_state,
    forward,
    graph_conv,
    init_model_state,
    merge_heads,
    per_head,
    split_heads,
    temporal_mix,
    total_loss,
)
from aan.optim import grad_check
from aan.tensor import ConfigurationError, Tensor


class TestBuildPrior:
    def test_perfect_co_occurrence(self):
        amap = AttributeMap([[0, 1]], attribute_count=2)
        labels = [IntervalLabelSet("v", 1, [(0, 0, 9)])]
        prior = build_prior(labels, amap, 2, frame_counts=[10])
        npt.assert_array_equal(prior.probabilities, [[1.0, 1.0], [1.0, 1.0]])

    def test_hand_case_asymmetric_conditional(self):
        # attribute 0 active 10 frames; attribute 1 active in 5 of those only
        amap = AttributeMap([[0], [1]], attribute_count=2)
        labels = [IntervalLabelSet("v", 2, [(0, 0, 9), (1, 0, 4)])]
        prior = build_prior(labels, amap, 2, frame_counts=[10])
        assert prior.probabilities[0, 1] == 0.5
        assert prior.probabilities[1, 0] == 1.0
        assert prior.totals.tolist() == [10, 5]

    def test_never_active_attribute_row_is_zero(self):
        amap = AttributeMap([[0]], attribute_count=3)
        labels = [IntervalLabelSet("v", 1, [(0, 0, 3)])]
        prior = build_prior(labels, amap, 3, frame_counts=[8])
        npt.assert_array_equal(prior.probabilities[1], [0.0, 0.0, 0.0])
        npt.assert_array_equal(prior.probabilities[2], [0.0, 0.0, 0.0])
        npt.assert_array_equal(prior.probabilities[:, 1], [0.0, 0.0, 0.0])

    def test_diagonal_is_one_where_present(self):
        amap = AttributeMap([[0], [1]], attribute_count=3)
        labels = [IntervalLabelSet("v", 2, [(0, 0, 2), (1, 4, 6)])]
        prior = build_prior(labels, amap, 3, frame_counts=[8])
        assert prior.probabilities[0, 0] == 1.0
        assert prior.probabilities[1, 1] == 1.0
        assert prior.probabilities[2, 2] == 0.0

    def test_matches_brute_force_on_50_random_label_sets(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n, amap, labels, frames = random_label_instance(rng)
            prior = build_prior(labels, amap, n, frame_counts=frames)
            counts, totals, probs = brute_force_prior(labels, amap, n, frames)
            npt.assert_array_equal(prior.counts, counts)
            npt.assert_array_equal(prior.totals, totals)
            npt.assert_allclose(prior.probabilities, probs, atol=1e-12)


def tiny_config(**over):
    defaults = dict(n_attributes=3, n_classes=2, input_dim=6, hidden_dim=4,
                    n_blocks=2, n_heads=2, kernel_size=3)
    defaults.update(over)
    return ModelConfig(**defaults)


def tiny_state(seed=0, **over):
    cfg = tiny_config(**over)
    rng = np.random.default_rng(seed + 100)
    p = rng.random((cfg.n_attributes, cfg.n_attributes)) * 0.5
    np.fill_diagonal(p, 1.0)
    prior = CoOccurrencePrior(
        probabilities=p,
        counts=(p * 100).astype(np.int64),
        totals=np.full(cfg.n_attributes, 100, dtype=np.int64),
    )
    return init_model_state(cfg, prior, seed=seed)


class TestConfig:
    def test_heads_must_divide_hidden_dim(self):
        with pytest.raises(ConfigurationError):
            tiny_config(hidden_dim=6, n_heads=4).validate()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(kernel_size=4).validate()

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_config(ablation="nope").validate()

    def test_zero_heads_rejected_before_the_divisibility_check(self):
        with pytest.raises(ConfigurationError, match="n_heads must be positive"):
            tiny_config(n_heads=0).validate()


class TestInit:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_extractor_weight_is_the_first_draw_of_the_seed(self, seed):
        state = tiny_state(seed=seed)
        cfg = state.config
        bound = 1.0 / np.sqrt(cfg.input_dim)
        first = np.random.default_rng(seed).uniform(
            -bound, bound, (cfg.n_attributes, cfg.input_dim, cfg.input_dim))
        npt.assert_array_equal(state.params["extractor.weight"].data, first)


class TestBottleneck:
    def test_identity_columns_copy_coordinates(self):
        w = np.zeros((4, 2))
        w[0, 0] = w[1, 1] = 1.0
        x = np.random.default_rng(0).standard_normal((3, 2, 4))
        out = bottleneck(Tensor(x), Tensor(w))
        npt.assert_array_equal(out.data, x[:, :, :2])

    def test_zero_weight(self):
        out = bottleneck(Tensor(np.ones((2, 3, 4))), Tensor(np.zeros((4, 2))))
        npt.assert_array_equal(out.data, np.zeros((2, 3, 2)))

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4))
        weights = rng.standard_normal((2, 3, 2))

        def f(t):
            return (bottleneck(Tensor(x), t["w"]) * Tensor(weights)).sum()

        assert grad_check(f, {"w": rng.standard_normal((4, 2))}).passed


class TestHeadSplit:
    def test_split_then_merge_is_identity(self):
        rng = np.random.default_rng(40)
        x = Tensor(rng.standard_normal((3, 5, 8)))
        npt.assert_array_equal(merge_heads(split_heads(x, 4)).data, x.data)

    def test_split_isolates_subspaces(self):
        x = np.arange(8.0).reshape(1, 1, 8)
        heads = split_heads(Tensor(x), 2)
        npt.assert_array_equal(heads.data[0, 0, 0], [0, 1, 2, 3])
        npt.assert_array_equal(heads.data[1, 0, 0], [4, 5, 6, 7])


class TestAttention:
    def test_zero_projections_give_uniform_plus_prior(self):
        rng = np.random.default_rng(2)
        n, dh = 4, 3
        x = Tensor(rng.standard_normal((1, 1, n, dh)))
        p = rng.random((n, n))
        zero = Tensor(np.zeros((1, dh, dh)))
        a = attention_adjacency(x, zero, zero, p)
        npt.assert_allclose(a.data[0, 0], 1.0 / n + p, atol=1e-12)

    def test_row_sums_equal_one_plus_prior_row_sum(self):
        rng = np.random.default_rng(3)
        n, dh, t, h = 5, 2, 3, 2
        x = Tensor(rng.standard_normal((h, t, n, dh)))
        w1 = Tensor(rng.standard_normal((h, dh, dh)))
        w2 = Tensor(rng.standard_normal((h, dh, dh)))
        p = rng.random((n, n))
        a = attention_adjacency(x, w1, w2, p)
        expected = 1.0 + p.sum(axis=1)
        npt.assert_allclose(a.data.sum(axis=-1),
                            np.broadcast_to(expected, (h, t, n)), atol=1e-9)

    def test_entries_non_negative(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 2, 4, 3)) * 5)
        w1 = Tensor(rng.standard_normal((2, 3, 3)))
        w2 = Tensor(rng.standard_normal((2, 3, 3)))
        a = attention_adjacency(x, w1, w2, np.random.default_rng(5).random((4, 4)))
        assert (a.data >= 0).all()

    def test_eval_peak_memory_is_about_two_adjacencies(self):
        # eval on a long video: the [H, T, N, N] arrays dominate.  The softmax
        # takes the scores a block of rows at a time and adds the prior to each
        # block before writing it out, so at most the scores and the adjacency
        # (plus the small queries, keys and one block) are alive at once.
        rng = np.random.default_rng(27)
        t, h, n, dh = 500, 4, 16, 4
        x = Tensor(rng.standard_normal((h, t, n, dh)))
        w1, w2 = (Tensor(rng.standard_normal((h, dh, dh))) for _ in range(2))
        tracemalloc.start()
        try:
            with tn.no_grad():
                a = attention_adjacency(x, w1, w2, rng.random((n, n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * a.data.nbytes, f"peak {peak / a.data.nbytes:.2f} adjacencies"

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_grad_forward_is_bitwise_the_graph_building_one(self, dtype):
        rng = np.random.default_rng(32)
        h, t, n, dh = 2, 130, 16, 4          # 4,160 rows: three blocks
        assert h * t * n > 2 * tn.SOFTMAX_BLOCK
        x, w1, w2 = (rng.standard_normal(shape).astype(dtype)
                     for shape in ((h, t, n, dh), (h, dh, dh), (h, dh, dh)))
        p = rng.random((n, n))
        built = attention_adjacency(*(Tensor(a, requires_grad=True) for a in (x, w1, w2)), p)
        assert built._parents
        with tn.no_grad():
            plain = attention_adjacency(Tensor(x), Tensor(w1), Tensor(w2), p)
        assert plain.data.dtype == dtype
        bits = np.uint64 if dtype == np.float64 else np.uint32
        assert np.array_equal(plain.data.view(bits), built.data.view(bits))

    def test_gradcheck_over_more_than_one_block_of_rows(self):
        rng = np.random.default_rng(33)
        h, t, n, dh = 2, 130, 8, 2           # 2,080 rows: one block and a part
        assert h * t * n > tn.SOFTMAX_BLOCK
        x = Tensor(rng.standard_normal((h, t, n, dh)))
        p = rng.random((n, n))
        weights = rng.standard_normal((h, t, n, n))

        def f(ts):
            return (attention_adjacency(x, ts["w1"], ts["w2"], p) * Tensor(weights)).sum()

        result = grad_check(f, {"w1": rng.standard_normal((h, dh, dh)),
                                "w2": rng.standard_normal((h, dh, dh))})
        assert result.max_rel_err <= 1e-5, result.per_input


class TestHeadsMajorBlock:
    @pytest.mark.parametrize("h, t, n, dh", [(2, 3, 4, 3), (4, 64, 8, 4)],
                             ids=["tiny", "desk"])
    def test_attention_and_conv_match_frame_by_frame_oracle(self, h, t, n, dh):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((t, n, h * dh))
        w1, w2, w3 = (rng.uniform(-1, 1, (h, dh, dh)) / np.sqrt(dh) for _ in range(3))
        p = rng.random((n, n))
        heads = split_heads(Tensor(x), h)
        a = attention_adjacency(heads, Tensor(w1), Tensor(w2), p)
        out = merge_heads(graph_conv(heads, a, Tensor(w3)))
        npt.assert_allclose(out.data, brute_force_attention_block(x, w1, w2, w3, p),
                            rtol=0, atol=1e-12)

    def test_per_head_weight_gradient_builds_no_per_frame_products(self):
        # paper width: 4 heads over 64 frames x 8 nodes, Dh 64.  The weight
        # gradient is one [Dh, T*N] @ [T*N, Dh] GEMM per head; per-frame
        # products would hold a [T, H, Dh, Dh] stack, 64 times the weight.
        rng = np.random.default_rng(29)
        heads = split_heads(Tensor(rng.standard_normal((64, 8, 256))), 4)
        w = Tensor(rng.standard_normal((4, 64, 64)), requires_grad=True)
        out = per_head(heads, w)
        g = rng.standard_normal(out.shape)
        tracemalloc.start()
        try:
            out.backward(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * w.data.nbytes, f"peak {peak / w.data.nbytes:.1f} weights"


class TestGraphConv:
    def test_zero_w3_is_identity_bitwise(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 2, 3, 4)))
        a = Tensor(rng.random((2, 2, 3, 3)))
        out = graph_conv(x, a, Tensor(np.zeros((2, 4, 4))))
        npt.assert_array_equal(out.data, x.data)

    def test_identity_adjacency_and_weight_doubles_nonneg_input(self):
        x = np.abs(np.random.default_rng(7).standard_normal((1, 1, 3, 2)))
        eye_a = Tensor(np.broadcast_to(np.eye(3), (1, 1, 3, 3)).copy())
        eye_w = Tensor(np.eye(2)[None])
        out = graph_conv(Tensor(x), eye_a, eye_w)
        npt.assert_allclose(out.data, 2 * x, atol=1e-15)

    def test_gradcheck_through_attention_and_conv(self):
        rng = np.random.default_rng(8)
        n, dh = 3, 4
        x = rng.standard_normal((2, 2, n, dh))
        p = rng.random((n, n))
        weights = rng.standard_normal((2, 2, n, dh))

        def f(t):
            a = attention_adjacency(t["x"], t["w1"], t["w2"], p)
            return (graph_conv(t["x"], a, t["w3"]) * Tensor(weights)).sum()

        result = grad_check(f, {
            "x": x,
            "w1": rng.standard_normal((2, dh, dh)),
            "w2": rng.standard_normal((2, dh, dh)),
            "w3": rng.standard_normal((2, dh, dh)),
        })
        assert result.max_rel_err <= 1e-5, result.per_input


class TestTemporalMix:
    def test_zero_w5_is_identity_bitwise(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((4, 2, 3)))
        out = temporal_mix(
            x, Tensor(rng.standard_normal((3, 3))), Tensor(np.zeros(3)),
            Tensor(rng.standard_normal((3, 3))),
            Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)),
        )
        npt.assert_array_equal(out.data, x.data)

    def test_identity_wiring_doubles_nonneg_input(self):
        x = np.abs(np.random.default_rng(10).standard_normal((4, 2, 3)))
        eye = Tensor(np.eye(3))
        kernel = np.zeros((3, 3))
        kernel[:, 1] = 1.0
        out = temporal_mix(Tensor(x), eye, None, Tensor(kernel), eye, None)
        npt.assert_allclose(out.data, 2 * x, atol=1e-15)

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 2, 3))
        weights = rng.standard_normal((4, 2, 3))

        def f(t):
            out = temporal_mix(Tensor(x), t["w4"], t["b4"], t["kernel"], t["w5"], t["b5"])
            return (out * Tensor(weights)).sum()

        result = grad_check(f, {
            "w4": rng.standard_normal((3, 3)), "b4": rng.standard_normal(3),
            "kernel": rng.standard_normal((3, 3)),
            "w5": rng.standard_normal((3, 3)), "b5": rng.standard_normal(3),
        })
        assert result.max_rel_err <= 1e-5, result.per_input


class TestClassify:
    def test_identical_nodes_pool_to_themselves(self):
        rng = np.random.default_rng(12)
        row = rng.standard_normal(4)
        x = np.broadcast_to(row, (3, 5, 4)).copy()
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        out = classify(Tensor(x), Tensor(w), Tensor(b))
        npt.assert_allclose(out.data, np.broadcast_to(row @ w + b, (3, 2)), atol=1e-12)

    def test_zero_weight_gives_bias_rows(self):
        out = classify(Tensor(np.random.default_rng(13).standard_normal((4, 3, 2))),
                       Tensor(np.zeros((2, 3))), Tensor([1.0, 2.0, 3.0]))
        npt.assert_allclose(out.data, np.broadcast_to([1.0, 2.0, 3.0], (4, 3)), atol=1e-15)

    def test_output_shape(self):
        out = classify(Tensor(np.zeros((6, 4, 5))), Tensor(np.zeros((5, 7))), Tensor(np.zeros(7)))
        assert out.shape == (6, 7)


class TestForward:
    def test_eval_forward_is_deterministic(self):
        rng = np.random.default_rng(14)
        state = tiny_state()
        feats = rng.standard_normal((5, 6))
        anchors = rng.standard_normal((3, 6))
        with tn.no_grad():
            a = forward(feats, anchors, state, "eval")
            b = forward(feats, anchors, state, "eval")
        npt.assert_array_equal(a.logits.data, b.logits.data)
        npt.assert_array_equal(a.attributes.data, b.attributes.data)

    def test_output_shapes(self):
        state = tiny_state()
        result = forward(np.zeros((5, 6)), np.zeros((3, 6)), state, "train")
        assert result.logits.shape == (5, 2)
        assert result.attributes.shape == (5, 3, 6)

    def test_extractor_only_skips_blocks(self):
        state = tiny_state()
        state.config.ablation = "extractor-only"
        rng = np.random.default_rng(15)
        feats = rng.standard_normal((4, 6))
        with tn.no_grad():
            result = forward(feats, None, state, "eval")
        assert result.logits.shape == (4, 2)
        # graph-block parameters are inert in this wiring
        state.params["blocks.0.attn.w1"].data[:] = 99.0
        with tn.no_grad():
            again = forward(feats, None, state, "eval")
        npt.assert_array_equal(result.logits.data, again.logits.data)

    def test_linear_ablation_has_no_attributes(self):
        state = tiny_state(ablation="linear")
        result = forward(np.zeros((3, 6)), None, state, "eval")
        assert result.attributes is None
        assert result.logits.shape == (3, 2)

    def test_receptive_field_bound(self):
        # an input impulse may only reach L*(k-1)/2 frames on each side
        state = tiny_state()
        cfg = state.config
        rng = np.random.default_rng(16)
        feats = rng.standard_normal((16, 6))
        bumped = feats.copy()
        bumped[8] += 10.0
        with tn.no_grad():
            base = forward(feats, None, state, "eval").logits.data
            probe = forward(bumped, None, state, "eval").logits.data
        diff = np.abs(probe - base).sum(axis=1)
        radius = cfg.n_blocks * (cfg.kernel_size - 1) // 2
        assert diff[8] > 0
        outside = np.ones(16, dtype=bool)
        outside[8 - radius: 8 + radius + 1] = False
        npt.assert_array_equal(diff[outside], 0.0)
        # and the bound is tight enough that some neighbour moved
        assert diff[~outside].sum() > diff[8]

    def test_attribute_permutation_equivariance(self):
        state = tiny_state(seed=21)
        n, d0 = state.config.n_attributes, state.config.input_dim
        rng = np.random.default_rng(17)
        feats = rng.standard_normal((6, d0))
        with tn.no_grad():
            base = forward(feats, None, state, "eval").logits.data

        perm = np.array([2, 0, 1])
        permuted = clone_state(state)
        permuted.params["extractor.weight"].data[:] = state.params["extractor.weight"].data[perm]
        for name in ("extractor.bn.gain", "extractor.bn.bias"):
            permuted.params[name].data[:] = (
                state.params[name].data.reshape(n, d0)[perm].reshape(-1)
            )
        for name in ("extractor.bn.running_mean", "extractor.bn.running_var"):
            permuted.buffers[name][:] = state.buffers[name].reshape(n, d0)[perm].reshape(-1)
        permuted.prior.probabilities[:] = state.prior.probabilities[np.ix_(perm, perm)]
        with tn.no_grad():
            out = forward(feats, None, permuted, "eval").logits.data
        npt.assert_allclose(out, base, atol=1e-9)


class TestTotalLoss:
    def test_components_sum_exactly(self):
        state = tiny_state()
        rng = np.random.default_rng(18)
        feats = rng.standard_normal((5, 6))
        anchors = rng.standard_normal((3, 6))
        labels = rng.integers(0, 2, (5, 2)).astype(float)
        result = forward(feats, anchors, state, "train")
        breakdown = total_loss(result, labels, anchors)
        assert abs(breakdown.total.item() - breakdown.action - breakdown.attribute) <= 1e-12

    def test_perfect_predictions_and_anchors_give_zero(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = Tensor(np.array([[60.0, -60.0], [-60.0, 60.0]]))
        anchors = np.ones((2, 3))
        from aan.graph import ForwardResult
        result = ForwardResult(logits=logits,
                               attributes=Tensor(np.ones((2, 2, 3))))
        breakdown = total_loss(result, labels, anchors, None)
        assert breakdown.total.item() < 1e-12

    def test_full_model_gradcheck(self):
        cfg = ModelConfig(n_attributes=3, n_classes=2, input_dim=6, hidden_dim=4,
                          n_blocks=2, n_heads=2, kernel_size=3)
        state = tiny_state()
        rng = np.random.default_rng(19)
        feats = rng.standard_normal((4, 6))
        anchors = rng.standard_normal((3, 6))
        labels = rng.integers(0, 2, (4, 2)).astype(float)
        base = {name: p.data.copy() for name, p in state.active_params().items()}

        def f(tensors):
            trial = clone_state(state)
            for name, t in tensors.items():
                trial.params[name] = t
            result = forward(feats, anchors, trial, "train")
            return total_loss(result, labels, anchors).total

        result = grad_check(f, base, h=1e-5, tol=1e-5)
        assert result.max_rel_err <= 1e-5, result.per_input


class TestFrameMaskCompatibility:
    """forward and total_loss take only the masks that change nothing."""

    def inputs(self):
        rng = np.random.default_rng(20)
        return (rng.standard_normal((5, 6)), rng.standard_normal((3, 6)),
                rng.integers(0, 2, (5, 2)).astype(float))

    @pytest.mark.parametrize("mask", [np.array([True, True, False, True, True]),
                                      np.zeros(5, bool), np.ones(4, bool), np.ones(6, bool)],
                             ids=["partial", "empty", "short", "long"])
    def test_other_masks_rejected(self, mask):
        feats, anchors, labels = self.inputs()
        state = tiny_state()
        with pytest.raises(ValueError, match="frame masks are not supported"):
            forward(feats, anchors, state, "train", mask=mask)
        result = forward(feats, anchors, state, "train")
        with pytest.raises(ValueError, match="frame masks are not supported"):
            total_loss(result, labels, anchors, mask)

    def test_loaded_video_takes_only_an_all_true_mask(self):
        feats, _, labels = self.inputs()
        video = LoadedVideo("v", feats, labels, np.ones(5, bool))
        npt.assert_array_equal(video.mask, np.ones(5, bool))
        with pytest.raises(ValueError, match="frame masks are not supported"):
            LoadedVideo("v", feats, labels, np.array([True, True, False, True, True]))

    def test_all_true_mask_equals_none_bitwise(self):
        feats, anchors, labels = self.inputs()
        runs = []
        for mask in (None, np.ones(5, bool)):
            state = tiny_state()
            result = forward(feats, anchors, state, "train", mask=mask)
            loss = total_loss(result, labels, anchors, mask)
            loss.total.backward()
            runs.append((result.logits.data, loss.total.data,
                         {k: p.grad for k, p in state.params.items()},
                         {k: b.copy() for k, b in state.buffers.items()}))
        (logits_a, loss_a, grads_a, bufs_a), (logits_b, loss_b, grads_b, bufs_b) = runs
        npt.assert_array_equal(logits_a, logits_b)
        assert loss_a.tobytes() == loss_b.tobytes()
        for name in grads_a:
            assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
        for name in bufs_a:
            assert bufs_a[name].tobytes() == bufs_b[name].tobytes(), name
