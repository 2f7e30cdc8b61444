import numpy as np
import numpy.testing as npt
import pytest

from oracles import brute_force_ap, enumerate_conditional

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
