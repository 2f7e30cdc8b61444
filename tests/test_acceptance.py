"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The learnability and ablation criteria share one synthetic corpus (the desk
profile: 32-d features, 8 attributes, 10 classes, 2 reasoning blocks,
hidden width 16, videos up to 64 frames, 200 train / 50 val, noise 0.1,
seed 7) and train each wiring with an identical budget.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from oracles import brute_force_ap, brute_force_prior, enumerate_conditional, random_label_instance

from aan import tensor as tn
from aan.cli import _gradcheck_suite
from aan.data import AttributeMap, IntervalLabelSet, LoadedVideo, SynthSpec, generate_synthetic_corpus
from aan.graph import (
    attention_adjacency,
    build_prior,
    clone_state,
    forward,
    graph_conv,
    init_model_state,
    temporal_mix,
)
from aan.metrics import EvalRun, VideoEval, action_conditional_metrics, average_precision
from aan.optim import grad_check
from aan.tensor import Tensor
from aan.trainer import (
    LoadedCorpus,
    TrainConfig,
    load_checkpoint,
    plateau_scheduler,
    save_checkpoint,
    state_hash,
    train,
)

GRADCHECK_TOL = 1e-5
ABLATION_EPOCHS = 120
LEARNABILITY_TARGET = 0.90
ABLATION_MARGIN = 0.05


def report(criterion, description, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status}: {description}  {detail}")
    assert condition, f"criterion {criterion} failed: {description}  {detail}"


def to_loaded(raw):
    train_vids, val_vids = [], []
    for fs, ls in zip(raw.features, raw.labels):
        video = LoadedVideo(fs.video_id, fs.features.astype(np.float64),
                            ls.densify(fs.frame_count))
        (train_vids if raw.splits[fs.video_id] == "train" else val_vids).append(video)
    return LoadedCorpus(train=train_vids, val=val_vids, anchors=raw.anchors,
                        attribute_map=raw.attribute_map)


@pytest.fixture(scope="module")
def desk_corpus():
    raw = generate_synthetic_corpus(SynthSpec())  # the desk-profile defaults
    assert len(raw.features) == 250
    corpus = to_loaded(raw)
    assert len(corpus.train) == 200 and len(corpus.val) == 50
    return corpus


@pytest.fixture(scope="module")
def arm_results(desk_corpus):
    """Train full / extractor-only / linear with the same budget and seed."""
    results = {}
    for ablation in ("full", "extractor-only", "linear"):
        config = TrainConfig.desk_profile(seed=7, max_epochs=ABLATION_EPOCHS,
                                          ablation=ablation)
        started = time.perf_counter()
        outcome = train(desk_corpus, config)
        maps = [h["val_map"] for h in outcome.history if h["val_map"] is not None]
        results[ablation] = {
            "maps": maps,
            "best": max(maps),
            "seconds": time.perf_counter() - started,
        }
    return results


class TestCriterion1GradientOracle:
    def test_gradcheck_all_operations_and_composed_loss(self):
        started = time.perf_counter()
        worst = {}
        for seed in (0, 1, 2):
            for name, f, inputs in _gradcheck_suite(seed):
                result = grad_check(f, inputs, h=1e-5, tol=GRADCHECK_TOL)
                worst[name] = max(worst.get(name, 0.0), result.max_rel_err)
                assert result.passed, (name, seed, result.per_input)
        elapsed = time.perf_counter() - started
        assert "full_model_total_loss" in worst
        report(1, "gradient oracle over every operation and the composed loss",
               max(worst.values()) <= GRADCHECK_TOL and elapsed < 120.0,
               f"max rel err {max(worst.values()):.2e} over {len(worst)} checks x 3 seeds, "
               f"{elapsed:.1f}s")


class TestCriterion2PriorOracle:
    def test_prior_matches_brute_force_counting(self):
        max_p_err = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n, amap, labels, frames = random_label_instance(rng)
            prior = build_prior(labels, amap, n, frame_counts=frames)
            counts, totals, probs = brute_force_prior(labels, amap, n, frames)
            npt.assert_array_equal(prior.counts, counts)
            npt.assert_array_equal(prior.totals, totals)
            max_p_err = max(max_p_err, float(np.abs(prior.probabilities - probs).max()))
            assert max_p_err <= 1e-12

        # hand case: attribute 0 on 10 frames, attribute 1 on 5 of those
        amap = AttributeMap([[0], [1]], attribute_count=2)
        hand = build_prior([IntervalLabelSet("v", 2, [(0, 0, 9), (1, 0, 4)])],
                           amap, 2, frame_counts=[10])
        assert hand.probabilities[0, 1] == 0.5 and hand.probabilities[1, 0] == 1.0
        report(2, "co-occurrence prior matches brute-force frame counting",
               True, f"50 random label sets exact, max P error {max_p_err:.1e}, hand case ok")


class TestCriterion3MetricOracle:
    def test_average_precision_and_conditional_metrics(self):
        max_err = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            err = abs(average_precision(scores, labels)
                      - brute_force_ap(scores.tolist(), labels.tolist()))
            max_err = max(max_err, err)
            assert err <= 1e-9

        assert average_precision([0.9, 0.1], [1, 0]) == 1.0
        assert average_precision([0.1, 0.9], [1, 0]) == 0.5
        npt.assert_allclose(average_precision([0.9, 0.8, 0.1], [1, 0, 1]),
                            (1.0 + 2.0 / 3.0) / 2.0, atol=1e-15)

        scores = np.array([[0.10, 0.10], [0.90, 0.20], [0.80, 0.90],
                           [0.60, 0.70], [0.20, 0.10], [0.10, 0.05]])
        labels = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.], [0., 0.], [0., 0.]])
        run = EvalRun([VideoEval("v", scores, labels, np.ones(6, bool))])
        got = action_conditional_metrics(run, tau=0, threshold=0.5)
        want = enumerate_conditional(run, 0, 0.5)
        npt.assert_allclose(got.precision, want["precision"], atol=1e-12)
        npt.assert_allclose(got.f1, want["f1"], atol=1e-12)
        npt.assert_allclose(got.mean_ap, want["mean_ap"], atol=1e-12)
        report(3, "ranking metrics match brute-force definitions",
               True, f"100 AP instances (max err {max_err:.1e}), 3 hand cases, "
               f"6-frame conditional case exact")


class TestCriterion4StructuralIdentities:
    def _tiny_state(self, seed=0):
        from aan.graph import CoOccurrencePrior, ModelConfig
        cfg = ModelConfig(n_attributes=3, n_classes=2, input_dim=6, hidden_dim=4,
                          n_blocks=2, n_heads=2, kernel_size=3)
        rng = np.random.default_rng(seed + 11)
        p = rng.random((3, 3)) * 0.5
        np.fill_diagonal(p, 1.0)
        prior = CoOccurrencePrior(p, (p * 100).astype(np.int64),
                                  np.full(3, 100, dtype=np.int64))
        return init_model_state(cfg, prior, seed=seed)

    def test_identities(self):
        rng = np.random.default_rng(3)

        # adjacency rows sum to 1 + prior row sum
        n, dh, t, h = 5, 2, 3, 2
        x = Tensor(rng.standard_normal((h, t, n, dh)))
        p = rng.random((n, n))
        adjacency = attention_adjacency(x, Tensor(rng.standard_normal((h, dh, dh))),
                                        Tensor(rng.standard_normal((h, dh, dh))), p)
        row_err = float(np.abs(adjacency.data.sum(axis=-1) - (1.0 + p.sum(axis=1))).max())
        assert row_err <= 1e-9

        # residual identities, bitwise
        xh = Tensor(rng.standard_normal((2, 2, 3, 4)))
        a = Tensor(rng.random((2, 2, 3, 3)))
        npt.assert_array_equal(graph_conv(xh, a, Tensor(np.zeros((2, 4, 4)))).data, xh.data)
        xt = Tensor(rng.standard_normal((4, 2, 3)))
        out = temporal_mix(xt, Tensor(rng.standard_normal((3, 3))), Tensor(np.zeros(3)),
                           Tensor(rng.standard_normal((3, 3))),
                           Tensor(np.zeros((3, 3))), Tensor(np.zeros(3)))
        npt.assert_array_equal(out.data, xt.data)

        # receptive field bound via impulse probe
        state = self._tiny_state()
        radius = state.config.n_blocks * (state.config.kernel_size - 1) // 2
        feats = rng.standard_normal((16, 6))
        bumped = feats.copy()
        bumped[8] += 10.0
        with tn.no_grad():
            base = forward(feats, None, state, "eval").logits.data
            probe = forward(bumped, None, state, "eval").logits.data
        diff = np.abs(probe - base).sum(axis=1)
        outside = np.ones(16, dtype=bool)
        outside[8 - radius: 8 + radius + 1] = False
        npt.assert_array_equal(diff[outside], 0.0)
        assert diff[8] > 0

        # permuting attribute order consistently leaves logits unchanged
        state = self._tiny_state(seed=4)
        n_attr, d0 = state.config.n_attributes, state.config.input_dim
        frames = rng.standard_normal((6, d0))
        with tn.no_grad():
            reference = forward(frames, None, state, "eval").logits.data
        perm = np.array([2, 0, 1])
        permuted = clone_state(state)
        permuted.params["extractor.weight"].data[:] = state.params["extractor.weight"].data[perm]
        for name in ("extractor.bn.gain", "extractor.bn.bias"):
            permuted.params[name].data[:] = (
                state.params[name].data.reshape(n_attr, d0)[perm].reshape(-1))
        for name in ("extractor.bn.running_mean", "extractor.bn.running_var"):
            permuted.buffers[name][:] = state.buffers[name].reshape(n_attr, d0)[perm].reshape(-1)
        permuted.prior.probabilities[:] = state.prior.probabilities[np.ix_(perm, perm)]
        with tn.no_grad():
            shuffled = forward(frames, None, permuted, "eval").logits.data
        perm_err = float(np.abs(shuffled - reference).max())
        assert perm_err <= 1e-9

        report(4, "structural identities (row sums, residuals, receptive field, "
                  "attribute permutation)",
               True, f"row-sum err {row_err:.1e}, permutation err {perm_err:.1e}, "
               f"impulse radius {radius}")


class TestCriterion5SyntheticLearnability:
    def test_full_model_reaches_target_map(self, arm_results):
        maps = arm_results["full"]["maps"]
        seconds = arm_results["full"]["seconds"]
        reached = next((i for i, m in enumerate(maps) if m >= LEARNABILITY_TARGET), None)
        report(5, f"full model reaches val mAP >= {LEARNABILITY_TARGET} within 200 epochs",
               reached is not None and len(maps) <= 200 and seconds < 1800.0,
               f"mAP {LEARNABILITY_TARGET} first reached at epoch {reached}, "
               f"best {arm_results['full']['best']:.4f}, {seconds:.0f}s for "
               f"{len(maps)} epochs")


class TestCriterion6AblationDirection:
    def test_full_beats_extractor_beats_linear(self, arm_results):
        full = arm_results["full"]["best"]
        extractor = arm_results["extractor-only"]["best"]
        linear = arm_results["linear"]["best"]
        report(6, "full > extractor-only (by >= 0.05) > linear baseline on val mAP",
               (full >= extractor + ABLATION_MARGIN) and (extractor > linear),
               f"full {full:.4f}, extractor-only {extractor:.4f}, linear {linear:.4f}")


class TestCriterion7DeterminismAndResumption:
    def test_bitwise_logs_and_resume_equivalence(self, tmp_path):
        spec = SynthSpec(video_count=12, max_frames=24, dim=8, seed=9)
        config = TrainConfig.desk_profile(seed=4, max_epochs=3, batch_size=4)

        first = train(to_loaded(generate_synthetic_corpus(spec)), config)
        second = train(to_loaded(generate_synthetic_corpus(spec)), config)
        assert first.history == second.history  # bitwise-equal epoch logs

        shorter = TrainConfig.desk_profile(seed=4, max_epochs=2, batch_size=4)
        partial = train(to_loaded(generate_synthetic_corpus(spec)), shorter)
        ckpt = tmp_path / "resume.ckpt"
        save_checkpoint(partial.state, ckpt)
        resumed = train(to_loaded(generate_synthetic_corpus(spec)), config,
                        state=load_checkpoint(ckpt))
        assert resumed.history[0] == first.history[2]
        assert state_hash(resumed.state) == state_hash(first.state)
        report(7, "bitwise-identical runs and exact checkpoint resumption", True,
               "3-epoch logs equal; resumed epoch record matches uninterrupted run")


class TestCriterion8ScheduleConformance:
    def test_flat_history_halves_once(self):
        out = plateau_scheduler([1.0] * 9, 1e-4, factor=0.5, patience=8)
        halved_once = out == pytest.approx(5e-5, rel=0, abs=0)
        decreasing = plateau_scheduler([1.0, 0.9, 0.8], 1e-4, factor=0.5, patience=8)
        report(8, "plateau schedule halves exactly once on a flat history of "
                  "length patience+1 (factor 0.5, patience 8)",
               halved_once and decreasing == 1e-4,
               f"flat history -> lr {out:g}; improving history -> lr {decreasing:g}")
