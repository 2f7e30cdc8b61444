import numpy as np
import numpy.testing as npt
import pytest

from oracles import brute_force_ap, enumerate_conditional, stable_ranked_precision

from aan import metrics
from aan.data import IntervalLabelSet, LoadedVideo
from aan.metrics import (
    EvalRun,
    NoPositivesError,
    VideoEval,
    action_conditional_metrics,
    average_precision,
    conditioning_window,
    evaluate_run,
    format_table,
    per_frame_map,
)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.1], [1, 0]) == 1.0

    def test_positive_at_rank_two(self):
        assert average_precision([0.1, 0.9], [1, 0]) == 0.5

    def test_three_frame_hand_case(self):
        ap = average_precision([0.9, 0.8, 0.1], [1, 0, 1])
        npt.assert_allclose(ap, (1.0 + 2.0 / 3.0) / 2.0, atol=1e-15)

    def test_no_positives_is_an_error(self):
        with pytest.raises(NoPositivesError):
            average_precision([0.5, 0.5], [0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN never compares equal, so it would escape the ranking's tie check
        with pytest.raises(ValueError, match="non-finite"):
            average_precision([0.5, bad, 0.5], [1, 0, 1])

    def test_matches_brute_force_on_100_random_instances(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 40))
            scores = np.round(rng.random(n), 2)  # rounding forces some ties
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            fast = average_precision(scores, labels)
            slow = brute_force_ap(scores.tolist(), labels.tolist())
            npt.assert_allclose(fast, slow, atol=1e-9)

    def test_invariant_to_monotone_transforms(self):
        rng = np.random.default_rng(123)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[0] = 1
        base = average_precision(scores, labels)
        for transform in (lambda s: s ** 3, lambda s: 2 * s + 1, np.tanh):
            npt.assert_allclose(average_precision(transform(scores), labels), base, atol=1e-12)

    def test_random_scores_approach_positive_rate(self):
        rng = np.random.default_rng(7)
        rho = 0.3
        values = []
        for _ in range(200):
            labels = (rng.random(200) < rho).astype(int)
            if labels.sum() == 0:
                continue
            values.append(average_precision(rng.random(200), labels))
        assert abs(np.mean(values) - rho) < 0.03


def run_from(scores_list, labels_list, masks=None):
    videos = []
    for i, (s, y) in enumerate(zip(scores_list, labels_list)):
        s = np.asarray(s, dtype=float)
        y = np.asarray(y, dtype=float)
        m = np.ones(len(s), bool) if masks is None else np.asarray(masks[i], bool)
        videos.append(VideoEval(f"v{i}", s, y, m))
    return EvalRun(videos)


class TestPerFrameMap:
    def test_perfect_scores(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, (20, 3)).astype(float)
        labels[0] = 1  # ensure every class has a positive
        run = run_from([labels], [labels])
        assert per_frame_map(run).mean_ap == 1.0

    def test_classes_without_positives_are_skipped(self):
        scores = np.random.default_rng(2).random((10, 2))
        labels = np.zeros((10, 2))
        labels[3, 0] = 1
        result = per_frame_map(run_from([scores], [labels]))
        assert result.skipped_classes == [1]
        assert result.per_class[1].ap is None
        assert result.mean_ap == result.per_class[0].ap

    def test_invariant_to_video_concatenation_order(self):
        rng = np.random.default_rng(3)
        scores = [rng.random((8, 2)) for _ in range(3)]
        labels = [rng.integers(0, 2, (8, 2)).astype(float) for _ in range(3)]
        labels[0][0] = 1
        forward_order = per_frame_map(run_from(scores, labels)).mean_ap
        reverse_order = per_frame_map(run_from(scores[::-1], labels[::-1])).mean_ap
        npt.assert_allclose(forward_order, reverse_order, atol=1e-12)

    def test_masked_frames_do_not_count(self):
        scores = np.array([[0.9], [0.8], [0.1]])
        labels = np.array([[1.0], [0.0], [1.0]])
        mask = np.array([True, True, False])
        result = per_frame_map(run_from([scores], [labels], [mask]))
        assert result.mean_ap == 1.0  # the unscored positive at t=2 is invisible


class TestConditioningWindow:
    def test_tau_zero_is_exact_co_occurrence(self):
        active = np.array([0, 1, 1, 0, 0], bool)
        npt.assert_array_equal(conditioning_window(active, 0), active)

    def test_window_dilates(self):
        active = np.array([0, 0, 1, 0, 0], bool)
        npt.assert_array_equal(conditioning_window(active, 1),
                               [False, True, True, True, False])

    @pytest.mark.parametrize("tau", [20, 40])
    def test_video_shorter_than_window(self, tau):
        active = np.zeros(12, bool)
        active[[3, 9]] = True
        npt.assert_array_equal(conditioning_window(active, tau), np.ones(12, bool))
        npt.assert_array_equal(conditioning_window(np.zeros(12, bool), tau),
                               np.zeros(12, bool))

    @pytest.mark.parametrize("tau", [0, 1, 3, 20])
    def test_matrix_window_equals_column_windows(self, tau):
        rng = np.random.default_rng([11, tau])
        for t in (1, 5, 12, 50):          # all but 50 are shorter than 2 * 20 + 1
            active = rng.random((t, 4)) < 0.15
            got = conditioning_window(active, tau)
            assert got.shape == active.shape
            for j in range(4):
                npt.assert_array_equal(got[:, j], conditioning_window(active[:, j], tau))

    def test_windows_are_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        active = rng.random(30) < 0.2
        previous = conditioning_window(active, 0)
        for tau in (1, 2, 5, 9):
            current = conditioning_window(active, tau)
            assert (previous <= current).all()
            previous = current


class TestActionConditional:
    def hand_case(self):
        scores = np.array([
            [0.10, 0.10],
            [0.90, 0.20],
            [0.80, 0.90],
            [0.60, 0.70],   # class-0 false positive inside class-1's window
            [0.20, 0.10],
            [0.10, 0.05],
        ])
        labels = np.array([
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [0.0, 0.0],
            [0.0, 0.0],
        ])
        return run_from([scores], [labels])

    def test_hand_case_against_enumeration(self):
        run = self.hand_case()
        got = action_conditional_metrics(run, tau=0, threshold=0.5)
        expected = enumerate_conditional(run, 0, 0.5)
        npt.assert_allclose(got.precision, expected["precision"], atol=1e-12)
        npt.assert_allclose(got.f1, expected["f1"], atol=1e-12)
        npt.assert_allclose(got.mean_ap, expected["mean_ap"], atol=1e-12)
        assert got.pairs_skipped == expected["skipped"]
        # frozen hand-derived values: pairs (0,0),(1,0),(1,1) are clean,
        # (0,1) has one false positive -> precision 1/2, F1 2/3
        npt.assert_allclose(got.precision, (1.0 + 0.5 + 1.0 + 1.0) / 4.0, atol=1e-12)
        npt.assert_allclose(got.f1, (1.0 + 2.0 / 3.0 + 1.0 + 1.0) / 4.0, atol=1e-12)
        npt.assert_allclose(got.mean_ap, 1.0, atol=1e-12)

    def test_matches_enumeration_on_random_instances(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            videos = [
                (np.round(rng.random((12, 3)), 2), rng.integers(0, 2, (12, 3)).astype(float))
                for _ in range(2)
            ]
            run = run_from([v[0] for v in videos], [v[1] for v in videos])
            for tau in (0, 2):
                got = action_conditional_metrics(run, tau, 0.5)
                expected = enumerate_conditional(run, tau, 0.5)
                if got.precision is None:
                    assert expected["precision"] is None
                    continue
                npt.assert_allclose(got.precision, expected["precision"], atol=1e-9)
                npt.assert_allclose(got.recall, expected["recall"], atol=1e-9)
                npt.assert_allclose(got.f1, expected["f1"], atol=1e-9)
                npt.assert_allclose(got.mean_ap, expected["mean_ap"], atol=1e-9)

    @pytest.mark.parametrize("tau", [20, 40])
    def test_videos_shorter_than_window_match_enumeration(self, tau):
        # lengths straddle 2*tau + 1 at tau = 20; every video is shorter at 40
        for seed in range(5):
            rng = np.random.default_rng([seed, tau])
            lengths = (5, 30, 45)
            scores = [np.round(rng.random((t, 3)), 2) for t in lengths]
            labels = [(rng.random((t, 3)) < 0.1).astype(float) for t in lengths]
            masks = [np.arange(t) < t - 2 for t in lengths]
            run = run_from(scores, labels, masks)
            got = action_conditional_metrics(run, tau, 0.5)
            expected = enumerate_conditional(run, tau, 0.5)
            assert got.pairs_skipped == expected["skipped"]
            for key in ("precision", "recall", "f1", "mean_ap"):
                if expected[key] is None:
                    assert getattr(got, key) is None
                else:
                    npt.assert_allclose(getattr(got, key), expected[key], atol=1e-9)

    @pytest.mark.parametrize("tau", [0, 1, 3, 20])
    def test_stacked_pass_matches_enumeration_at_the_edges(self, tau):
        # scores on a 0.1 grid tie across video boundaries; partial masks;
        # three of four videos are shorter than 2 * 20 + 1; class 3 is never
        # active and class 4 is active on every frame
        rng = np.random.default_rng([12, tau])
        lengths = (3, 9, 17, 45)
        scores = [np.round(rng.random((t, 5)), 1) for t in lengths]
        labels = [(rng.random((t, 5)) < 0.25).astype(float) for t in lengths]
        for y in labels:
            y[:, 3] = 0.0
            y[:, 4] = 1.0
        masks = [rng.random(t) < 0.8 for t in lengths]
        for m in masks:
            m[0] = True
        run = run_from(scores, labels, masks)
        got = action_conditional_metrics(run, tau, 0.5)
        expected = enumerate_conditional(run, tau, 0.5)
        assert got.pairs_evaluated == expected["evaluated"]
        assert got.pairs_skipped == expected["skipped"]
        for key in ("precision", "recall", "f1", "mean_ap"):
            npt.assert_allclose(getattr(got, key), expected[key], rtol=0, atol=1e-12)

    def test_never_active_condition_skips_all_pairs(self):
        scores = np.random.default_rng(5).random((8, 2))
        labels = np.zeros((8, 2))
        labels[2, 0] = 1
        got = action_conditional_metrics(run_from([scores], [labels]), tau=0)
        # j=1 never active: pairs (0,1), (1,1) skipped; (1,0) has no positive of 1
        assert got.pairs_evaluated == 1
        assert got.pairs_skipped == 3

    def test_self_conditioning_on_perfect_output(self):
        labels = np.zeros((10, 2))
        labels[3:6, 0] = 1
        labels[5:9, 1] = 1
        got = action_conditional_metrics(run_from([labels], [labels]), tau=0)
        assert got.precision == 1.0 and got.f1 == 1.0 and got.mean_ap == 1.0

    def test_always_active_condition_equals_unconditional(self):
        rng = np.random.default_rng(6)
        scores = rng.random((15, 2))
        labels = np.zeros((15, 2))
        labels[:, 1] = 1.0                        # class 1 always active
        labels[rng.random(15) < 0.4, 0] = 1.0
        labels[0, 0] = 1.0
        run = run_from([scores], [labels])
        got = action_conditional_metrics(run, tau=0)
        uncond = per_frame_map(run)
        conditional_ap_of_0 = [
            brute_force_ap(scores[:, 0].tolist(), labels[:, 0].tolist()),
        ]
        npt.assert_allclose(conditional_ap_of_0[0], uncond.per_class[0].ap, atol=1e-12)
        # pairs (i, 1) cover every frame, so their APs equal unconditional APs
        expected = enumerate_conditional(run, 0, 0.5)
        npt.assert_allclose(got.mean_ap, expected["mean_ap"], atol=1e-12)

    def test_invalid_parameters(self):
        run = self.hand_case()
        with pytest.raises(ValueError):
            action_conditional_metrics(run, tau=-1)
        with pytest.raises(ValueError):
            action_conditional_metrics(run, tau=0, threshold=0.0)


class TestReport:
    def test_report_structure_and_table(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, (30, 3)).astype(float)
        labels[0] = 1
        scores = np.clip(labels * 0.8 + rng.random((30, 3)) * 0.2, 0, 1)
        run = run_from([scores], [labels])
        report = evaluate_run(run, taus=[0, 2], threshold=0.5, curves=True)
        doc = report.to_dict()
        assert set(doc) == {"per_frame", "conditional", "curves"}
        assert len(doc["conditional"]) == 2
        text = format_table(report)
        assert "per-frame mAP" in text and "tau" in text

    def test_score_range_validated(self):
        with pytest.raises(ValueError):
            VideoEval("v", np.array([[1.5]]), np.array([[1.0]]), np.array([True]))


class TestInputs:
    def test_soft_labels_rejected_naming_the_video(self):
        # with 0.3 everywhere, per-frame mAP would count one positive per class
        # while the conditional metrics would skip every pair
        with pytest.raises(ValueError, match="clip_7: labels must be 0 or 1"):
            VideoEval("clip_7", np.full((4, 2), 0.5), np.full((4, 2), 0.3), np.ones(4, bool))

    def test_half_label_rejected(self):
        labels = np.array([[1.0, 0.0], [0.5, 1.0]])
        with pytest.raises(ValueError, match="v: labels must be 0 or 1"):
            VideoEval("v", np.full((2, 2), 0.5), labels, np.ones(2, bool))

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float64, np.float32])
    def test_zero_one_labels_become_bool(self, dtype):
        labels = np.array([[1, 0], [0, 1], [0, 0]], dtype=dtype)
        video = VideoEval("v", np.full((3, 2), 0.5), labels, np.ones(3, bool))
        assert video.labels.dtype == bool
        npt.assert_array_equal(video.labels, labels == 1)

    def test_bool_labels_of_a_loaded_video_are_not_copied(self):
        labels = IntervalLabelSet("v", 3, [(0, 1, 2), (2, 0, 4)]).densify(5)
        loaded = LoadedVideo("v", np.zeros((5, 4)), labels)
        video = VideoEval(loaded.video_id, np.full((5, 3), 0.5), loaded.labels, loaded.mask)
        assert video.labels.dtype == bool and np.shares_memory(video.labels, loaded.labels)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float_and_bool_labels_give_the_same_report(self, seed):
        run = tied_run(seed)

        def report(dtype):
            videos = [VideoEval(v.video_id, v.scores, v.labels.astype(dtype), v.mask)
                      for v in run.videos]
            return evaluate_run(EvalRun(videos), taus=[0, 2, 20], curves=True).to_dict()

        want = report(bool)
        assert report(np.float64) == want
        assert report(np.float32) == want

    def test_stacked_labels_are_an_exact_bool_copy(self):
        rng = np.random.default_rng(30)
        labels = [rng.integers(0, 2, (t, 3)).astype(float) for t in (4, 7)]
        masks = [np.ones(4, bool), np.array([True, False, True, True, True, False, True])]
        run = run_from([rng.random((4, 3)), rng.random((7, 3))], labels, masks)
        scores, stacked = run.stacked()
        assert stacked.dtype == bool and scores.dtype == np.float64
        npt.assert_array_equal(stacked, np.concatenate([y[m] for y, m in zip(labels, masks)]).T)

    def test_stack_without_masked_frames_is_class_major(self):
        rng = np.random.default_rng(31)
        scores = [rng.random((t, 3)) for t in (4, 7)]
        labels = [rng.integers(0, 2, (t, 3)).astype(float) for t in (4, 7)]
        stacked_scores, stacked = run_from(scores, labels).stacked()
        npt.assert_array_equal(stacked_scores, np.concatenate(scores).T)
        npt.assert_array_equal(stacked, np.concatenate(labels).T > 0.5)
        # one contiguous row per class, also after dropping masked frames
        masked_scores, masked = run_from(scores, labels, [[True, False, True, True],
                                                          np.ones(7, bool)]).stacked()
        for a in (stacked_scores, stacked, masked_scores, masked):
            assert a.flags.c_contiguous

    @pytest.mark.parametrize("score", [per_frame_map,
                                       lambda run: action_conditional_metrics(run, 0)],
                             ids=["per-frame", "conditional"])
    def test_run_without_videos_rejected(self, score):
        with pytest.raises(ValueError, match="no videos"):
            score(EvalRun([]))


def tied_run(seed):
    """A seeded run whose scores are rounded to one decimal, so nearly every
    class ties across hundreds of frames, with about a fifth of frames masked."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 120, 8)
    scores = [np.round(rng.random((t, 5)), 1) for t in lengths]
    scores[0][:, 0] = -0.0          # signed zeros tie with 0.0
    labels = [(rng.random((t, 5)) < 0.3).astype(float) for t in lengths]
    for y in labels:
        y[:, 4] = 0.0               # a class without positives
    masks = [rng.random(t) > 0.2 for t in lengths]
    return run_from(scores, labels, masks)


def stable_column_precision(run, c):
    """Precision at each positive of class c, ranked by the stable oracle over
    the run's valid frames in video-then-frame order; None without positives."""
    s = np.concatenate([v.scores[v.mask, c] for v in run.videos])
    y = np.concatenate([v.labels[v.mask, c] for v in run.videos]) > 0.5
    if not y.any():
        return None
    hits, precision = stable_ranked_precision(s[None], y[None])
    return precision[hits]


class TestRankingAgainstStableSort:
    """Ranking sorts unstably and then sorts only the tied frames by column;
    every output must equal, bit for bit, what one stable sort of every row
    gives."""

    @staticmethod
    def assert_same_ranking(scores, labels):
        got_hits, got = metrics._ranked_precision(scores, labels)
        want_hits, want = stable_ranked_precision(scores, labels)
        npt.assert_array_equal(got_hits, want_hits)
        assert got.tobytes() == want.tobytes()

    def test_block_of_tied_and_untied_rows(self):
        rng = np.random.default_rng(50)
        n = 300
        rows = [
            rng.random(n),                              # no ties
            np.round(rng.random(n), 1),                 # ties everywhere
            np.where(rng.random(n) < 0.5, 0.0, -0.0),   # signed zeros only
            np.full(n, 0.25),                           # one value
            np.r_[rng.random(n - 2), 0.5, 0.5],         # one tie at the end
            np.round(rng.random(n), 2),
        ]
        scores = np.stack(rows)
        labels = rng.random(scores.shape) < 0.3
        self.assert_same_ranking(scores, labels)
        for k in range(len(rows)):                       # k = 1
            self.assert_same_ranking(scores[k:k + 1], labels[k:k + 1])

    def test_tied_frames_take_the_stable_order(self):
        rng = np.random.default_rng(51)
        n = 200
        scores = np.stack([
            np.full(n, 0.5), np.full(n, 0.5),           # equal rows side by side
            np.round(rng.random(n), 1),
            rng.random(n),
            np.where(rng.random(n) < 0.5, 0.0, -0.0),
            np.r_[0.75, rng.random(n - 2), 0.75],       # a tie of the first and last frame
        ])
        order = np.argsort(-scores, axis=1)
        order += np.arange(0, scores.size, n)[:, None]
        metrics._order_ties_by_column(order, scores)
        want = np.argsort(-scores, axis=1, kind="stable") + np.arange(0, scores.size, n)[:, None]
        npt.assert_array_equal(order, want)

    def test_precision_at_positives_matches_the_cumulative_sum(self):
        # counts of positives replace the cumsum over every rank: bitwise equal
        rng = np.random.default_rng(52)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            row = np.round(rng.random(n), int(rng.integers(0, 3)))
            labels = rng.random(n) < rng.random()
            labels[rng.integers(n)] = True
            hits, precision = stable_ranked_precision(row[None], labels[None])
            got = metrics._precision_at_positives(row, labels)
            assert got.tobytes() == precision[hits].tobytes()

    @pytest.mark.parametrize("k", [1, 4])
    def test_single_frame_rows(self, k):
        scores = np.array([[0.3], [-0.0], [0.0], [1.0]])[:k]
        labels = np.array([[True], [False], [True], [True]])[:k]
        self.assert_same_ranking(scores, labels)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_frame_map(self, seed):
        run = tied_run(seed)
        got = per_frame_map(run)
        values = []
        for c, entry in enumerate(got.per_class):
            precision = stable_column_precision(run, c)
            want = None if precision is None else float(precision.mean())
            assert entry.ap == want
            if want is not None:
                values.append(want)
        assert got.mean_ap == float(np.mean(values))
        assert got.skipped_classes == [4]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conditional_metrics(self, seed, monkeypatch):
        run = tied_run(seed)
        taus = [0, 2, 20]
        got = [action_conditional_metrics(run, tau).to_dict() for tau in taus]
        monkeypatch.setattr(metrics, "_ranked_precision", stable_ranked_precision)
        want = [action_conditional_metrics(run, tau).to_dict() for tau in taus]
        assert got == want

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_curves(self, seed):
        run = tied_run(seed)
        curves = evaluate_run(run, curves=True).curves
        want = {}
        for c in range(run.class_count):
            precision = stable_column_precision(run, c)
            if precision is not None:
                want[str(c)] = precision.tolist()
        assert curves == want
