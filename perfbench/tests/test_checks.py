"""Each correctness check accepts the program's right output and rejects a wrong one."""

import dataclasses

import numpy as np
import pytest

import checks
import workload
from aan import graph, metrics
from aan.data import LoadedVideo


def make_videos(seed, lengths, n_classes=6, informative=False):
    rng = np.random.default_rng(seed)
    videos = []
    for k, t in enumerate(lengths):
        labels = (rng.random((t, n_classes)) < 0.2).astype(float)
        scores = rng.random((t, n_classes))
        if informative:
            scores = np.clip(0.6 * labels + 0.4 * scores, 0.0, 1.0)
        scores[rng.random((t, n_classes)) < 0.1] = 0.5          # ties
        mask = np.ones(t, dtype=bool)
        mask[-2:] = False
        videos.append(metrics.VideoEval(f"v{k}", scores, labels, mask))
    return videos


def brute_force_ap(scores, labels):
    """Precision at each positive's rank; ties ranked in frame order."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, precisions = 0, []
    for rank, i in enumerate(order, start=1):
        if labels[i] > 0.5:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(precisions)


def test_column_aps_match_the_definition():
    videos = make_videos(0, [30, 17])
    scores = np.concatenate([v.scores for v in videos])
    labels = np.concatenate([v.labels for v in videos])
    got = checks.column_aps(scores, labels)
    for c in range(scores.shape[1]):
        assert got[c] == pytest.approx(brute_force_ap(scores[:, c], labels[:, c]), rel=1e-12)


def test_per_frame_map_check_rejects_a_perturbed_ap():
    videos = make_videos(1, [40, 25, 33])
    result = metrics.per_frame_map(metrics.EvalRun(videos))
    assert checks.check_per_frame_map(videos, result.mean_ap) == []
    assert checks.check_per_frame_map(videos, result.mean_ap + 1e-6)


def test_windows_match_the_definition_on_short_videos():
    rng = np.random.default_rng(2)
    labels = (rng.random((12, 3)) < 0.15).astype(float)
    mask = np.ones(12, dtype=bool)
    mask[0] = False
    for tau in (0, 1, 5, 20):
        got = checks.windows(labels, mask, tau)
        for t in range(12):
            for j in range(3):
                near = any(mask[u] and labels[u, j] > 0.5
                           for u in range(max(0, t - tau), min(12, t + tau + 1)))
                assert got[t, j] == (near and mask[t])


@pytest.mark.parametrize("tau", [0, 20])
def test_conditional_check_accepts_the_program_and_rejects_a_perturbed_mean(tau):
    videos = make_videos(3, [60, 45, 80])                   # all >= 2 * 20 + 1 frames
    result = metrics.action_conditional_metrics(metrics.EvalRun(videos), tau)
    assert checks.check_conditional(videos, result, tau) == []
    for field, delta in (("mean_ap", 1e-6), ("precision", 1e-6), ("f1", -1e-6)):
        wrong = dataclasses.replace(result, **{field: getattr(result, field) + delta})
        assert checks.check_conditional(videos, wrong, tau)
    wrong = dataclasses.replace(result, pairs_skipped=result.pairs_skipped + 1)
    assert checks.check_conditional(videos, wrong, tau)


def test_score_range_check():
    videos = make_videos(4, [10])
    assert checks.check_scores(videos) == []
    videos[0].scores[3, 1] = 1.0 + 1e-12
    assert checks.check_scores(videos)


def desk_state_and_video(seed=0):
    rng = np.random.default_rng(seed)
    n_attr, dim, n_classes, t = 3, 6, 4, 12
    anchors_base = rng.standard_normal((n_attr, dim))
    labels = (rng.random((t, n_classes)) < 0.3).astype(float)
    prior = graph.CoOccurrencePrior(np.full((n_attr, n_attr), 0.5),
                                    np.ones((n_attr, n_attr), dtype=np.int64),
                                    np.ones(n_attr, dtype=np.int64))
    config = graph.ModelConfig(n_attributes=n_attr, n_classes=n_classes, input_dim=dim,
                               hidden_dim=8, n_blocks=1, n_heads=2)
    state = graph.init_model_state(config, prior, seed=seed)
    video = LoadedVideo("v0", rng.standard_normal((t, dim)), labels, np.ones(t, dtype=bool))

    class Anchors:
        prompt_count = 1
        anchors = anchors_base[:, None, :]
    return state, video, Anchors()


def test_directional_derivatives_reject_a_gradient_scaled_by_1_001():
    state, video, anchors = desk_state_and_video()
    pairs = workload.directional_derivatives(state, video, anchors, 7)
    assert len(pairs) == 5
    assert checks.check_directional_derivatives(pairs) == []
    assert checks.check_directional_derivatives([(a * 1.001, n) for a, n in pairs])


def test_one_outlying_direction_is_tolerated_but_not_three():
    good = [(1.0, 1.0 + 1e-8)] * 5
    kinked = [(1.0, 1.0 + 1e-3)]
    assert checks.check_directional_derivatives(kinked * 2 + good[:3]) == []
    assert checks.check_directional_derivatives(kinked * 3 + good[:2])


def test_learnability_check_rejects_an_uninformative_scorer():
    lengths = [50] * 40
    uninformative = make_videos(5, lengths)
    informative = make_videos(5, lengths, informative=True)
    prevalence = checks.mean_prevalence(uninformative)
    for videos, passes in ((uninformative, False), (informative, True)):
        mean_ap = metrics.per_frame_map(metrics.EvalRun(videos)).mean_ap
        assert (checks.check_learned(mean_ap, prevalence) == []) is passes


def test_loss_and_bitwise_checks():
    assert checks.check_losses([3.0, 2.0, 1.0], 3.0, 1.0) == []
    assert checks.check_losses([3.0, float("nan")], 3.0, 1.0)
    assert checks.check_losses([3.0, 3.0], 3.0, 3.0)
    a = make_videos(6, [9, 7])
    b = [dataclasses.replace(v, scores=v.scores.copy()) for v in a]
    assert checks.check_bitwise(a, b) == []
    b[1].scores[2, 2] = np.nextafter(b[1].scores[2, 2], 2.0)
    assert checks.check_bitwise(a, b)

