import numpy as np
import numpy.testing as npt
import pytest

from aan.attributes import extract_attributes, select_anchor_prompt
from aan.data import AnchorSet
from aan.optim import grad_check
from aan.tensor import DimensionError, Tensor, make_batch_norm_state, mse_to_anchor


def make_params(n, d0, rng, use_bn=True):
    """(weight, bn) of an extractor drawn as init_model_state draws them."""
    bound = 1.0 / np.sqrt(d0)
    weight = Tensor(rng.uniform(-bound, bound, (n, d0, d0)), requires_grad=True)
    return weight, make_batch_norm_state(n * d0) if use_bn else None


class TestExtractAttributes:
    def test_zero_weights_give_zero_output(self):
        weight, bn = make_params(3, 4, np.random.default_rng(0))
        weight.data[:] = 0.0
        out = extract_attributes(Tensor(np.random.default_rng(1).standard_normal((5, 4))),
                                 weight, bn, "train")
        npt.assert_array_equal(out.data, np.zeros((5, 3, 4)))

    def test_output_shape(self):
        params = make_params(6, 3, np.random.default_rng(2))
        out = extract_attributes(Tensor(np.random.default_rng(3).standard_normal((7, 3))),
                                 *params, "train")
        assert out.shape == (7, 6, 3)

    def test_output_is_non_negative(self):
        rng = np.random.default_rng(4)
        params = make_params(4, 5, rng)
        out = extract_attributes(Tensor(rng.standard_normal((9, 5))), *params, "train")
        assert (out.data >= 0).all()

    def test_dim_mismatch(self):
        params = make_params(2, 4, np.random.default_rng(5))
        with pytest.raises(DimensionError):
            extract_attributes(Tensor(np.zeros((3, 5))), *params, "train")

    def test_eval_mode_is_pure(self):
        rng = np.random.default_rng(6)
        weight, bn = make_params(3, 4, rng)
        x = Tensor(rng.standard_normal((6, 4)))
        a = extract_attributes(x, weight, bn, "eval").data
        rm = bn.running_mean.copy()
        b = extract_attributes(x, weight, bn, "eval").data
        npt.assert_array_equal(a, b)
        npt.assert_array_equal(bn.running_mean, rm)

    def test_gradient_of_anchor_objective_through_extractor(self):
        rng = np.random.default_rng(7)
        frames = rng.standard_normal((4, 3))
        anchors = rng.standard_normal((2, 3))

        def f(t):
            out = extract_attributes(Tensor(frames), t["w"], None, "train")
            return mse_to_anchor(out, Tensor(anchors))

        result = grad_check(f, {"w": rng.standard_normal((2, 3, 3))})
        assert result.max_rel_err <= 1e-5, result.per_input

    def test_gradient_with_batch_norm(self):
        rng = np.random.default_rng(8)
        frames = rng.standard_normal((5, 2))
        anchors = rng.standard_normal((2, 2))

        def f(t):
            bn = make_batch_norm_state(4)
            bn.gain = t["gain"]
            bn.bias = t["bias"]
            out = extract_attributes(Tensor(frames), t["w"], bn, "train")
            return mse_to_anchor(out, Tensor(anchors))

        result = grad_check(f, {
            "w": rng.standard_normal((2, 2, 2)),
            "gain": rng.standard_normal(4) + 1.2,
            "bias": rng.standard_normal(4),
        })
        assert result.max_rel_err <= 1e-5, result.per_input

    def test_rank_one_map_reaches_zero_loss(self):
        # non-negative anchor, BN disabled: W = a a^T / |a|^2 maps a to itself
        rng = np.random.default_rng(9)
        anchor = np.abs(rng.standard_normal(6)) + 0.1
        w = np.outer(anchor, anchor) / float(anchor @ anchor)
        weight = Tensor(w[None, :, :], requires_grad=True)
        frames = Tensor(np.broadcast_to(anchor, (4, 6)).copy())
        out = extract_attributes(frames, weight, None, "eval")
        loss = mse_to_anchor(out, Tensor(anchor[None, :]))
        assert loss.item() < 1e-24


class TestTrainedExtractorGeometry:
    def test_active_frames_sit_closer_to_their_anchor(self):
        """Extractor output approaches an anchor when that attribute is present.

        Measured on a noiseless corpus with idle stretches between actions,
        with the normalization-free extractor wiring: affine BN re-centers
        each channel, which erases the far-from-every-anchor geometry of
        empty frames and buries this effect (see decisions ledger).
        """
        from aan.data import SynthSpec, generate_synthetic_corpus, LoadedVideo
        from aan.graph import forward, init_model_state, prior_from_dense
        from aan.trainer import LoadedCorpus, TrainConfig, run_epoch
        from aan import tensor as tn

        spec = SynthSpec(video_count=100, max_frames=48, dim=32, noise_sigma=0.0,
                         seed=7, n_attributes=6, n_classes=6, gap_max=6)
        raw = generate_synthetic_corpus(spec)
        train_vids, val_vids = [], []
        for fs, ls in zip(raw.features, raw.labels):
            video = LoadedVideo(fs.video_id, fs.features.astype(np.float64),
                                ls.densify(fs.frame_count))
            (train_vids if raw.splits[fs.video_id] == "train" else val_vids).append(video)
        corpus = LoadedCorpus(train=train_vids, val=val_vids, anchors=raw.anchors,
                              attribute_map=raw.attribute_map)

        config = TrainConfig.desk_profile(seed=7)
        prior = prior_from_dense([v.labels for v in corpus.train], corpus.attribute_map, 6)
        model_config = config.model_config(32, 6, 6)
        model_config.use_batch_norm = False
        state = init_model_state(model_config, prior, seed=7,
                                 learning_rate=config.learning_rate)
        for epoch in range(20):
            run_epoch(state, corpus, config, "train")
            state.epoch = epoch + 1

        anchors0 = raw.anchors.anchors[:, 0, :].astype(np.float64)
        incidence = raw.attribute_map.incidence()
        n = raw.anchors.attribute_count
        dist_active = np.zeros(n)
        count_active = np.zeros(n)
        dist_inactive = np.zeros(n)
        count_inactive = np.zeros(n)
        for v in corpus.val:
            with tn.no_grad():
                out = forward(v.features, None, state, "eval")
            distances = np.linalg.norm(out.attributes.data - anchors0[None], axis=2)
            active = (v.labels @ incidence) > 0
            for a in range(n):
                m = active[:, a]
                dist_active[a] += distances[m, a].sum()
                count_active[a] += m.sum()
                dist_inactive[a] += distances[~m, a].sum()
                count_inactive[a] += (~m).sum()
        closer = sum(
            1 for a in range(n)
            if dist_active[a] / max(count_active[a], 1)
            < dist_inactive[a] / max(count_inactive[a], 1)
        )
        assert closer / n >= 0.9, (dist_active / count_active, dist_inactive / count_inactive)


class TestPromptSelection:
    def _anchors(self, prompts=4):
        rng = np.random.default_rng(10)
        vecs = rng.standard_normal((3, prompts, 5)).astype(np.float32)
        return AnchorSet([f"o{i}" for i in range(3)],
                         [f"prompt {p} {{}}" for p in range(prompts)], vecs)

    def test_eval_mode_always_prompt_zero(self):
        anchors = self._anchors()
        for epoch in range(5):
            sel = select_anchor_prompt(anchors, "eval", seed=3, epoch=epoch, video_id="v")
            npt.assert_array_equal(sel, anchors.anchors[:, 0, :].astype(np.float64))

    def test_single_prompt_same_in_both_modes(self):
        anchors = self._anchors(prompts=1)
        train = select_anchor_prompt(anchors, "train", 0, 0, "v")
        ev = select_anchor_prompt(anchors, "eval", 0, 0, "v")
        npt.assert_array_equal(train, ev)

    def test_deterministic_per_video_epoch(self):
        anchors = self._anchors()
        a = select_anchor_prompt(anchors, "train", 7, 3, "vid_0004")
        b = select_anchor_prompt(anchors, "train", 7, 3, "vid_0004")
        npt.assert_array_equal(a, b)

    def test_train_mode_uses_multiple_prompts(self):
        anchors = self._anchors()
        picks = set()
        for v in range(40):
            sel = select_anchor_prompt(anchors, "train", 7, 0, f"vid_{v}")
            for p in range(4):
                if np.array_equal(sel, anchors.anchors[:, p, :].astype(np.float64)):
                    picks.add(p)
        assert len(picks) > 1


class TestAttributeLoss:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(11)
        anchors = rng.standard_normal((3, 4))
        stacked = np.broadcast_to(anchors, (5, 3, 4)).copy()
        assert mse_to_anchor(Tensor(stacked), Tensor(anchors)).item() == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(12)
        anchors = rng.standard_normal((2, 3))
        delta = rng.standard_normal((4, 2, 3))
        one = mse_to_anchor(Tensor(anchors + delta), Tensor(anchors)).item()
        two = mse_to_anchor(Tensor(anchors + 2 * delta), Tensor(anchors)).item()
        npt.assert_allclose(two, 4.0 * one, rtol=1e-12)

    def test_hand_case(self):
        loss = mse_to_anchor(Tensor(np.zeros((1, 1, 2))), Tensor([[3.0, 4.0]]))
        assert loss.item() == 25.0
