import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from aan import tensor as tn
from aan.optim import clip_global_norm, grad_check
from aan.tensor import (
    ConfigurationError,
    DegenerateBatchError,
    DimensionError,
    Tensor,
    affine,
    batch_norm,
    bce_with_logits,
    depthwise_temporal_conv,
    make_batch_norm_state,
    mean_pool_nodes,
    mse_to_anchor,
    softmax_lastaxis,
)


class TestAffine:
    def test_identity_weight(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor(np.eye(2))
        npt.assert_array_equal(affine(x, w).data, [[1.0, 2.0]])

    def test_zero_weight_with_bias(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor(np.zeros((2, 2)))
        b = Tensor([3.0, 4.0])
        npt.assert_array_equal(affine(x, w, b).data, [[3.0, 4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
            affine(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 2))))

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 2))

        def f(t):
            return affine(Tensor(x), t["w"], t["b"]).sum()

        result = grad_check(f, {"w": rng.standard_normal((2, 4)), "b": rng.standard_normal(4)})
        assert result.max_rel_err <= 1e-6

    def test_batched_input_gradient(self):
        rng = np.random.default_rng(1)

        def f(t):
            return affine(t["x"], t["w"]).sum()

        result = grad_check(
            f, {"x": rng.standard_normal((2, 3, 4)), "w": rng.standard_normal((4, 2))}
        )
        assert result.passed


class TestRelu:
    def test_sign_cases(self):
        npt.assert_array_equal(Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_identity_on_positives(self):
        x = np.array([0.5, 1.0, 7.25])
        npt.assert_array_equal(Tensor(x).relu().data, x)

    def test_backward_is_positivity_indicator(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        npt.assert_array_equal(x.grad, [0.0, 1.0])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16)
        for a in (0.5, 2.0, 13.0):
            npt.assert_array_equal(
                Tensor(a * x).relu().data, a * Tensor(x).relu().data
            )

    def test_pool_and_conv_are_positively_homogeneous(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((5, 3, 2))
        kernel = rng.standard_normal((2, 3))
        for a in (0.5, 3.0):
            npt.assert_allclose(mean_pool_nodes(Tensor(a * x)).data,
                                a * mean_pool_nodes(Tensor(x)).data, rtol=1e-15)
            npt.assert_allclose(
                depthwise_temporal_conv(Tensor(a * x), Tensor(kernel)).data,
                a * depthwise_temporal_conv(Tensor(x), Tensor(kernel)).data,
                rtol=0, atol=1e-13)


class TestBatchNorm:
    def test_constant_column_maps_to_zero(self):
        state = make_batch_norm_state(1)
        out = batch_norm(Tensor([[5.0], [5.0], [5.0]]), state, "train")
        npt.assert_array_equal(out.data, np.zeros((3, 1)))

    def test_unit_column_is_preserved(self):
        state = make_batch_norm_state(1)
        out = batch_norm(Tensor([[-1.0], [1.0]]), state, "train")
        npt.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-5)

    def test_eval_mode_is_affine_in_running_stats(self):
        state = make_batch_norm_state(1)
        state.gain.data[:] = 2.0
        state.bias.data[:] = 3.0
        out = batch_norm(Tensor([[1.0]]), state, "eval")
        npt.assert_allclose(out.data, [[5.0]], atol=1e-5)

    def test_degenerate_batch_rejected(self):
        state = make_batch_norm_state(2)
        with pytest.raises(DegenerateBatchError):
            batch_norm(Tensor([[1.0, 2.0]]), state, "train")

    def test_running_statistics_update(self):
        state = make_batch_norm_state(1)
        x = np.array([[0.0], [2.0]])
        batch_norm(Tensor(x), state, "train")
        npt.assert_allclose(state.running_mean, [0.1])       # 0.9*0 + 0.1*1
        npt.assert_allclose(state.running_var, [0.9 + 0.1 * 2.0])  # unbiased var = 2

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_gradients(self, mode):
        rng = np.random.default_rng(3)

        def f(t):
            state = make_batch_norm_state(3)
            state.gain = t["gain"]
            state.bias = t["bias"]
            state.running_mean = np.array([0.3, -0.2, 0.1])
            state.running_var = np.array([1.5, 0.7, 1.1])
            return (batch_norm(t["x"], state, mode) * Tensor(weights)).sum()

        weights = rng.standard_normal((5, 3))
        result = grad_check(
            f,
            {
                "x": rng.standard_normal((5, 3)),
                "gain": rng.standard_normal(3) + 1.5,
                "bias": rng.standard_normal(3),
            },
        )
        assert result.passed, result.per_input

    def test_train_gradients_from_fresh_state(self):
        rng = np.random.default_rng(4)
        weights = rng.standard_normal((5, 2))

        def f(t):
            state = make_batch_norm_state(2)
            state.gain = t["gain"]
            state.bias = t["bias"]
            return (batch_norm(t["x"], state, "train") * Tensor(weights)).sum()

        result = grad_check(
            f,
            {
                "x": rng.standard_normal((5, 2)),
                "gain": rng.standard_normal(2) + 1.0,
                "bias": rng.standard_normal(2),
            },
        )
        assert result.passed, result.per_input


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(softmax_lastaxis(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_closed_form(self):
        out = softmax_lastaxis(Tensor([0.0, np.log(3.0)]))
        npt.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_no_overflow_on_large_inputs(self):
        out = softmax_lastaxis(Tensor([1000.0, 1000.0]))
        npt.assert_allclose(out.data, [0.5, 0.5])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = softmax_lastaxis(Tensor(rng.standard_normal((4, 7)) * 10))
        npt.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 5))
        a = softmax_lastaxis(Tensor(x)).data
        b = softmax_lastaxis(Tensor(x + 17.25)).data
        npt.assert_allclose(a, b, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        weights = rng.standard_normal((2, 4))

        def f(t):
            return (softmax_lastaxis(t["x"]) * Tensor(weights)).sum()

        assert grad_check(f, {"x": rng.standard_normal((2, 4))}).passed


class TestBceWithLogits:
    def test_zero_logits_give_ln2(self):
        logits = Tensor(np.zeros((4, 3)))
        y = np.random.default_rng(8).integers(0, 2, (4, 3)).astype(float)
        loss = bce_with_logits(logits, y)
        npt.assert_allclose(loss.data, np.log(2.0), atol=1e-12)

    def test_perfect_prediction_limit(self):
        y = np.array([[1.0, 0.0]])
        logits = Tensor(np.array([[40.0, -40.0]]))
        assert float(bce_with_logits(logits, y).data) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(10)
        y = rng.integers(0, 2, (4, 3)).astype(float)

        def f(t):
            return bce_with_logits(t["z"], y)

        assert grad_check(f, {"z": rng.standard_normal((4, 3))}).passed


class TestMseToAnchor:
    def test_zero_distance(self):
        anchors = np.random.default_rng(11).standard_normal((3, 4))
        stacked = np.broadcast_to(anchors, (5, 3, 4)).copy()
        loss = mse_to_anchor(Tensor(stacked), Tensor(anchors))
        assert float(loss.data) == 0.0

    def test_hand_case(self):
        loss = mse_to_anchor(Tensor(np.zeros((1, 1, 2))), Tensor([[3.0, 4.0]]))
        assert float(loss.data) == 25.0

    def test_duplicating_frames_leaves_loss_unchanged(self):
        rng = np.random.default_rng(12)
        i = rng.standard_normal((4, 2, 3))
        anchors = Tensor(rng.standard_normal((2, 3)))
        a = mse_to_anchor(Tensor(i), anchors).data
        b = mse_to_anchor(Tensor(np.concatenate([i, i], axis=0)), anchors).data
        npt.assert_allclose(a, b, atol=1e-12)

    def test_anchor_count_mismatch(self):
        with pytest.raises(DimensionError):
            mse_to_anchor(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4))))

    def test_gradient(self):
        rng = np.random.default_rng(13)

        def f(t):
            return mse_to_anchor(t["i"], t["anchors"])

        assert grad_check(
            f,
            {"i": rng.standard_normal((3, 2, 4)), "anchors": rng.standard_normal((2, 4))},
        ).passed


class TestTemporalConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 2, 3))
        kernel = np.zeros((3, 3))
        kernel[:, 1] = 1.0
        out = depthwise_temporal_conv(Tensor(x), Tensor(kernel))
        npt.assert_array_equal(out.data, x)

    def test_impulse_response(self):
        x = np.zeros((5, 1, 1))
        x[2] = 1.0
        out = depthwise_temporal_conv(Tensor(x), Tensor(np.ones((1, 3))))
        npt.assert_array_equal(out.data[:, 0, 0], [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            depthwise_temporal_conv(Tensor(np.zeros((4, 1, 2))), Tensor(np.zeros((2, 4))))

    def test_kernel_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((5, 2, 3))
        weights = rng.standard_normal((5, 2, 3))

        def f(t):
            return (depthwise_temporal_conv(Tensor(x), t["kernel"]) * Tensor(weights)).sum()

        result = grad_check(f, {"kernel": rng.standard_normal((3, 3))})
        assert result.max_rel_err <= 1e-6

    def test_input_gradient(self):
        rng = np.random.default_rng(16)
        weights = rng.standard_normal((5, 2, 2))

        def f(t):
            return (depthwise_temporal_conv(t["x"], t["kernel"]) * Tensor(weights)).sum()

        assert grad_check(
            f, {"x": rng.standard_normal((5, 2, 2)), "kernel": rng.standard_normal((2, 3))}
        ).passed


class TestMeanPoolNodes:
    def test_single_node_is_identity(self):
        x = np.random.default_rng(17).standard_normal((4, 1, 3))
        out = mean_pool_nodes(Tensor(x))
        npt.assert_array_equal(out.data, x[:, 0, :])

    def test_mean_of_two_nodes(self):
        x = np.zeros((1, 2, 1))
        x[0, 0, 0], x[0, 1, 0] = 1.0, 3.0
        assert mean_pool_nodes(Tensor(x)).item() == 2.0

    def test_backward_distributes_uniformly(self):
        x = Tensor(np.zeros((2, 4, 3)), requires_grad=True)
        mean_pool_nodes(x).sum().backward()
        npt.assert_allclose(x.grad, np.full((2, 4, 3), 0.25))


class TestGraphMechanics:
    def test_repeated_evaluation_is_bitwise_reproducible(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 4))

        def run():
            t = Tensor(x, requires_grad=True)
            out = softmax_lastaxis(affine(t, Tensor(w))).sum(axis=0).sum()
            out.backward()
            return out.data.copy(), t.grad.copy()

        (o1, g1), (o2, g2) = run(), run()
        npt.assert_array_equal(o1, o2)
        npt.assert_array_equal(g1, g2)

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with tn.no_grad():
            out = x.relu()
        assert out._backward is None and not out.requires_grad

    def test_gradient_accumulates_across_backward_calls(self):
        x = Tensor(np.ones(2), requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        npt.assert_array_equal(x.grad, [2.0, 2.0])

    def test_shared_node_gradient(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x  # dy/dx = 2x
        y.sum().backward()
        npt.assert_allclose(x.grad, [6.0])

    def test_forward_values_stay_finite(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((6, 4)) * 50, requires_grad=True)
        out = softmax_lastaxis(x).sum() + x.relu().sum()
        out.backward()
        assert np.isfinite(out.data).all()
        assert np.isfinite(x.grad).all()
        assert np.isfinite(tn.sigmoid(x.data)).all()


def masked_sigmoid(x):
    """The two-branch logistic written with boolean-mask gathers."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_the_masked_formula(self, dtype):
        edges = np.array([0.0, -0.0, 800.0, -800.0, np.nan, -np.nan, np.inf, -np.inf,
                          1e-300, -1e-300, 36.7, -36.7, 745.0, -745.0, 104.0, -104.0])
        rng = np.random.default_rng(41)
        for x in (edges, rng.standard_normal((40, 157)) * 30, rng.standard_normal((300, 51))):
            x = x.astype(dtype)
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = tn.sigmoid(x), masked_sigmoid(x)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


MATMUL_SHAPES = {
    "frames_nodes_by_weight": ((4, 3, 5), (5, 2)),        # bottleneck, temporal mix
    "heads_by_per_head_weight": ((3, 2, 4, 3), (2, 3, 2)),  # attention w1, w2, w3
    "frames_by_per_node_weight": ((4, 3), (2, 3, 5)),     # attribute extractor
    "heads_by_broadcast_weight": ((3, 2, 4, 3), (1, 3, 2)),
    "plain": ((4, 3), (3, 5)),
    # the extractor's [N, T, D0] output enters the bottleneck as a [T, N, D0] view
    "transposed_frames_nodes_by_weight": ((3, 4, 5), (5, 2)),
    # attention's per-head weights: the [H, T*N, Dh] view of split heads
    "heads_major_per_head_weight": ((12, 2, 3), (2, 3, 2)),
}
LEFT_AXES = {"transposed_frames_nodes_by_weight": (1, 0, 2),
             "heads_major_per_head_weight": (1, 0, 2)}


def _left(a, name):
    """The left operand as the product sees it: a transposed view where LEFT_AXES says so."""
    axes = LEFT_AXES.get(name)
    return a if axes is None else a.transpose(axes)


class TestMatmulGradients:
    @pytest.mark.parametrize("name", sorted(MATMUL_SHAPES))
    def test_matches_finite_differences(self, name):
        sa, sb = MATMUL_SHAPES[name]
        rng = np.random.default_rng(20)
        w = rng.standard_normal((_left(np.zeros(sa), name) @ np.zeros(sb)).shape)
        result = grad_check(lambda t: (_left(t["a"], name) @ t["b"] * Tensor(w)).sum(),
                            {"a": rng.standard_normal(sa), "b": rng.standard_normal(sb)})
        assert result.passed, result.per_input

    @pytest.mark.parametrize("name", sorted(MATMUL_SHAPES))
    def test_matches_unbroadcast_formula(self, name):
        sa, sb = MATMUL_SHAPES[name]
        rng = np.random.default_rng(21)
        a = Tensor(_left(rng.standard_normal(sa), name), requires_grad=True)
        b = Tensor(rng.standard_normal(sb), requires_grad=True)
        assert a.data.flags.c_contiguous == (name not in LEFT_AXES)
        out = a @ b
        g = rng.standard_normal(out.shape)
        out.backward(g)
        npt.assert_allclose(a.grad, tn._unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
                            rtol=0, atol=1e-12)
        npt.assert_allclose(b.grad, tn._unbroadcast(np.swapaxes(a.data, -1, -2) @ g, sb),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("transposed", [False, True])
    def test_shared_weight_forward_matches_per_frame_products(self, transposed):
        # paper width: [T, N, D1] @ [D1, D1] as one GEMM over T*N rows
        rng = np.random.default_rng(24)
        x = rng.standard_normal((8, 64, 256)).transpose(1, 0, 2) if transposed \
            else rng.standard_normal((64, 8, 256))
        w = rng.standard_normal((256, 256))
        y = (Tensor(x) @ Tensor(w)).data
        stacked = np.stack([x[t] @ w for t in range(x.shape[0])])
        assert y.shape == (64, 8, 256) and y.flags.c_contiguous
        npt.assert_allclose(y, stacked, rtol=1e-12, atol=0)


class TestGradientOwnership:
    def test_leaves_of_a_sum_get_separate_gradients(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)

    def test_clipping_scales_each_leaf_gradient_once(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (a + b).sum().backward()
        norm = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
        assert norm == np.sqrt(6.0)
        npt.assert_array_equal(a.grad, np.full(3, 1.0 / np.sqrt(6.0)))
        npt.assert_array_equal(b.grad, np.full(3, 1.0 / np.sqrt(6.0)))

    def test_leaf_used_twice_gets_the_summed_gradient(self):
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (a + a).sum().backward()
        npt.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        a.grad = None
        (a * a).sum().backward()
        npt.assert_array_equal(a.grad, [2.0, -4.0, 6.0])

    def test_leaf_owns_a_writable_gradient_from_a_broadcast(self):
        a = Tensor(np.ones((4, 3)), requires_grad=True)
        a.sum().backward()  # sum's backward hands over a read-only broadcast view
        assert a.grad.flags.writeable and a.grad.flags.owndata
        a.grad *= 2.0
        npt.assert_array_equal(a.grad, np.full((4, 3), 2.0))

    def test_float32_leaves_get_float32_gradients(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((4, 3, 5)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 2)).astype(np.float32), requires_grad=True)
        ((x @ w).relu() * 2.0 + x.sum(axis=2, keepdims=True)).sum().backward()
        assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32

    def test_backward_mutates_no_interior_data(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        state = make_batch_norm_state(5)
        h = (x @ w).relu() + x
        h = depthwise_temporal_conv(h, Tensor(rng.standard_normal((5, 3)), requires_grad=True))
        h = batch_norm(h.reshape(12, 5), state, "train").reshape(4, 3, 5)
        loss = softmax_lastaxis(h + h).sum() + mean_pool_nodes(h).sum()
        interior = [n for n in tn._topo_order(loss) if n._parents]
        before = [n.data.copy() for n in interior]
        loss.backward()
        for node, data in zip(interior, before):
            npt.assert_array_equal(node.data, data)


class TestGraphRelease:
    def graph(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        hidden = (x @ w).relu()
        return x, w, hidden, hidden.sum()

    def test_only_leaves_keep_gradients(self):
        x, w, hidden, loss = self.graph()
        loss.backward()
        assert x.grad is not None and w.grad is not None
        assert hidden.grad is None and loss.grad is None
        assert hidden._backward is None and loss._backward is None

    def test_second_backward_through_same_root_raises(self):
        x, _, _, loss = self.graph()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        npt.assert_array_equal(x.grad, first)

    def test_new_root_over_released_nodes_raises(self):
        _, _, hidden, loss = self.graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            (hidden * 2.0).sum().backward()

    def test_backward_peak_memory_stays_near_leaf_gradients(self):
        # 20 shared-weight layers: each activation is 1 MiB, each weight 0.5 MiB.
        # Holding every intermediate gradient, or building per-frame weight
        # products, needs several times the leaf gradients' 11 MiB.
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((64, 8, 256)), requires_grad=True)
        weights = [Tensor(rng.standard_normal((256, 256)) / 16, requires_grad=True)
                   for _ in range(20)]
        h = x
        for w in weights:
            h = (h @ w).relu()
        loss = h.sum()
        leaf_bytes = x.data.nbytes + sum(w.data.nbytes for w in weights)
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * leaf_bytes, f"backward peak {peak / 2 ** 20:.1f} MiB"


def _case_affine(rng):
    x = rng.standard_normal((3, 4))
    return (
        lambda t: affine(Tensor(x), t["w"], t["b"]).sum(),
        {"w": rng.standard_normal((4, 2)), "b": rng.standard_normal(2)},
    )


def _case_relu(rng):
    w = rng.standard_normal((4, 3))
    return (
        lambda t: (t["x"].relu() * Tensor(w)).sum(),
        {"x": rng.standard_normal((4, 3)) + 0.05},
    )


def _case_softmax(rng):
    w = rng.standard_normal((2, 5))
    return (
        lambda t: (softmax_lastaxis(t["x"]) * Tensor(w)).sum(),
        {"x": rng.standard_normal((2, 5))},
    )


def _case_temporal_conv(rng):
    w = rng.standard_normal((4, 2, 3))
    return (
        lambda t: (depthwise_temporal_conv(t["x"], t["kernel"]) * Tensor(w)).sum(),
        {"x": rng.standard_normal((4, 2, 3)), "kernel": rng.standard_normal((3, 3))},
    )


def _case_mean_pool(rng):
    w = rng.standard_normal((3, 2))
    return (
        lambda t: (mean_pool_nodes(t["x"]) * Tensor(w)).sum(),
        {"x": rng.standard_normal((3, 5, 2))},
    )


def _case_bce(rng):
    y = rng.integers(0, 2, (4, 2)).astype(float)
    return (
        lambda t: bce_with_logits(t["z"], y),
        {"z": rng.standard_normal((4, 2))},
    )


def _case_mse_to_anchor(rng):
    return (
        lambda t: mse_to_anchor(t["i"], t["anchors"]),
        {"i": rng.standard_normal((3, 2, 3)), "anchors": rng.standard_normal((2, 3))},
    )


OPERATION_CASES = {
    "affine": _case_affine,
    "relu": _case_relu,
    "softmax": _case_softmax,
    "temporal_conv": _case_temporal_conv,
    "mean_pool": _case_mean_pool,
    "bce": _case_bce,
    "mse_to_anchor": _case_mse_to_anchor,
}


@pytest.mark.parametrize("name", sorted(OPERATION_CASES))
def test_gradients_match_finite_differences_over_seeds(name):
    """Every differentiable operation passes the oracle on 100 random draws."""
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f, inputs = OPERATION_CASES[name](rng)
        result = grad_check(f, inputs, h=1e-5, tol=1e-5)
        worst = max(worst, result.max_rel_err)
        assert result.passed, f"{name} seed {seed}: {result.per_input}"
    assert worst <= 1e-5
