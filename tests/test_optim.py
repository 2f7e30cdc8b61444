import numpy as np
import numpy.testing as npt
import pytest

from aan.optim import (
    ADAM_BETA1, ADAM_BETA2, ADAM_CHUNK, ADAM_EPSILON, AdamState, GradCheckResult,
    NonFiniteGradientError, adam_step, grad_check, zero_grads,
)
from aan.tensor import Tensor


def make_param(value):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


class TestAdam:
    def test_first_step_closed_form(self):
        p = make_param([0.0])
        p.grad = np.array([1.0])
        state = AdamState.for_params({"p": p}, learning_rate=0.1)
        adam_step({"p": p}, state)
        # bias-corrected first step: -lr * 1 / (1 + eps)
        npt.assert_allclose(p.data, [-0.1 / (1.0 + 1e-8)], rtol=0, atol=1e-15)
        assert state.step_count == 1

    def test_zero_gradient_with_zero_moments_is_noop(self):
        p = make_param([1.5, -2.0])
        p.grad = np.zeros(2)
        state = AdamState.for_params({"p": p}, learning_rate=0.1)
        adam_step({"p": p}, state)
        npt.assert_array_equal(p.data, [1.5, -2.0])

    def test_parameters_update_independently(self):
        a, b = make_param([0.0]), make_param([0.0])
        a.grad = np.array([1.0])
        b.grad = np.array([0.0])
        state = AdamState.for_params({"a": a, "b": b}, learning_rate=0.1)
        adam_step({"a": a, "b": b}, state)
        assert a.data[0] != 0.0
        assert b.data[0] == 0.0

    def test_non_finite_gradient_names_parameter(self):
        p = make_param([0.0])
        p.grad = np.array([np.nan])
        state = AdamState.for_params({"theta": p}, learning_rate=0.1)
        with pytest.raises(NonFiniteGradientError, match="theta"):
            adam_step({"theta": p}, state)

    @pytest.mark.parametrize("bad", [np.array([np.nan]), np.zeros(2)])
    def test_rejected_gradient_changes_nothing(self, bad):
        a, b = make_param([0.0]), make_param([0.0])
        a.grad, b.grad = np.array([1.0]), bad
        state = AdamState.for_params({"a": a, "b": b}, learning_rate=0.1)
        with pytest.raises((NonFiniteGradientError, ValueError), match="'b'"):
            adam_step({"a": a, "b": b}, state)
        assert state.step_count == 0
        npt.assert_array_equal(a.data, [0.0])
        npt.assert_array_equal(state.first_moment["a"], [0.0])
        npt.assert_array_equal(state.second_moment["a"], [0.0])

    def test_parameter_without_moments_rejected_changing_nothing(self):
        a, b = make_param([0.0]), make_param([0.0])
        a.grad, b.grad = np.array([1.0]), np.array([1.0])
        state = AdamState.for_params({"a": a}, learning_rate=0.1)
        with pytest.raises(ValueError, match="no Adam moments for parameter 'b'"):
            adam_step({"a": a, "b": b}, state)
        assert state.step_count == 0
        npt.assert_array_equal(a.data, [0.0])
        npt.assert_array_equal(b.data, [0.0])
        assert set(state.first_moment) == set(state.second_moment) == {"a"}
        npt.assert_array_equal(state.first_moment["a"], [0.0])
        npt.assert_array_equal(state.second_moment["a"], [0.0])

    def test_moments_are_zeros_of_each_parameter(self):
        params = {"w": Tensor(np.ones((2, 3), np.float32)), "b": make_param([1.0])}
        state = AdamState.for_params(params, learning_rate=0.1)
        for moments in (state.first_moment, state.second_moment):
            for name, p in params.items():
                assert moments[name].dtype == p.data.dtype
                npt.assert_array_equal(moments[name], np.zeros_like(p.data))

    def test_chunked_update_is_bitwise_the_whole_array_update(self):
        # 3 chunks + 7 elements (17 * 5783), with a Fortran-ordered gradient
        rng = np.random.default_rng(1)
        shapes = {"big": (17, 5783), "one": (1,)}
        assert np.prod(shapes["big"]) == 3 * ADAM_CHUNK + 7
        params = {k: make_param(rng.standard_normal(s)) for k, s in shapes.items()}
        ref = {k: [p.data.copy(), np.zeros(s), np.zeros(s)] for (k, p), s in
               zip(params.items(), shapes.values())}
        state = AdamState.for_params(params, learning_rate=0.01)
        for t in range(1, 4):
            for k, p in params.items():
                p.grad = np.asfortranarray(rng.standard_normal(shapes[k]))
            adam_step(params, state)
            c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
            for k, (rp, m, v) in ref.items():
                g = params[k].grad
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * g * g
                rp -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
                npt.assert_array_equal(params[k].data, rp)
                npt.assert_array_equal(state.first_moment[k], m)
                npt.assert_array_equal(state.second_moment[k], v)

    def test_missing_gradient_treated_as_zero(self):
        p = make_param([4.0])
        state = AdamState.for_params({"p": p}, learning_rate=0.1)
        adam_step({"p": p}, state)
        npt.assert_array_equal(p.data, [4.0])

    def test_zero_learning_rate_is_bitwise_noop(self):
        rng = np.random.default_rng(0)
        p = make_param(rng.standard_normal(5))
        before = p.data.copy()
        p.grad = rng.standard_normal(5)
        state = AdamState.for_params({"p": p}, learning_rate=0.0)
        for _ in range(3):
            adam_step({"p": p}, state)
        npt.assert_array_equal(p.data, before)

    def test_zero_grads(self):
        p = make_param([1.0])
        p.grad = np.array([2.0])
        zero_grads({"p": p})
        assert p.grad is None

    def test_clip_global_norm(self):
        from aan.optim import clip_global_norm
        a, b = make_param([3.0]), make_param([4.0])
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = clip_global_norm({"a": a, "b": b}, max_norm=1.0)
        assert norm == 5.0
        joint = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        npt.assert_allclose(joint, 1.0)
        # under the cap nothing changes
        clip_global_norm({"a": a, "b": b}, max_norm=10.0)
        npt.assert_allclose(np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2), 1.0)


class TestGradCheck:
    def test_quadratic(self):
        result = grad_check(lambda t: (t["x"] * t["x"]).sum(), {"x": np.array([3.0])})
        assert result.passed
        assert result.max_rel_err < 1e-9

    def test_large_step_trips_cubic(self):
        # central difference of x^3 is 3x^2 + h^2; h=0.5 leaves a visible bias
        result = grad_check(lambda t: (t["x"] * t["x"] * t["x"]).sum(),
                            {"x": np.array([3.0])}, h=0.5)
        assert not result.passed
        assert result.max_rel_err > result.tolerance

    def test_result_bookkeeping(self):
        result = grad_check(lambda t: t["a"].sum() + t["b"].sum(),
                            {"a": np.zeros(2), "b": np.zeros(3)})
        assert isinstance(result, GradCheckResult)
        assert set(result.per_input) == {"a", "b"}
        assert result.worst_input() in {"a", "b"}

    def test_requires_scalar(self):
        with pytest.raises(ValueError):
            grad_check(lambda t: t["x"] * 2.0, {"x": np.zeros(3)})
