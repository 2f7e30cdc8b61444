"""Correctness checks on the program's outputs, computed apart from `aan`.

Each check returns a list of failure messages (empty when the output is
right), so one run reports every check that failed.  None of them compares
with a stored copy of an earlier output: they recompute from the metric
definitions or test a property the method must have.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9                # metric recomputation: same definition, other arithmetic
GRAD_TOL = 1e-4               # median relative error: measured up to 9.3e-6; a 1.001 fault gives 1e-3
CHANCE_FACTOR = 3.0           # learnability: val mAP over the uninformative scorer's


def column_aps(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """AP of every column: rank by descending score, ties in frame order.

    Columns without positives get NaN.
    """
    order = np.argsort(-scores, axis=0, kind="stable")
    hits = np.take_along_axis(labels > 0.5, order, axis=0)
    positives = hits.sum(axis=0)
    ranks = np.arange(1, len(scores) + 1)[:, None]
    precision_sum = (np.cumsum(hits, axis=0) / ranks * hits).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(positives > 0, precision_sum / positives, np.nan)


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= REL_TOL * max(1.0, abs(want))


def check_scores(videos) -> list:
    """Every score lies in [0, 1] and is finite."""
    bad = [v.video_id for v in videos
           if not (np.isfinite(v.scores).all() and v.scores.min() >= 0.0 and v.scores.max() <= 1.0)]
    return [f"scores outside [0, 1] in {len(bad)} videos, first {bad[0]}"] if bad else []


def check_per_frame_map(videos, reported_mean) -> list:
    """Recompute every class's AP over all valid frames; the mean must match."""
    scores = np.concatenate([v.scores[v.mask] for v in videos])
    labels = np.concatenate([v.labels[v.mask] for v in videos])
    aps = column_aps(scores, labels)
    want = float(np.mean(aps[~np.isnan(aps)])) if (~np.isnan(aps)).any() else None
    if not _close(reported_mean, want):
        return [f"per-frame mAP {reported_mean!r}, recomputed {want!r}"]
    return []


def windows(labels: np.ndarray, mask: np.ndarray, tau: int) -> np.ndarray:
    """[T, C]: valid frames within tau of a valid active frame of each class."""
    active = (labels > 0.5) & mask[:, None]
    t = len(mask)
    cums = np.vstack([np.zeros((1, active.shape[1])), np.cumsum(active, axis=0)])
    hi = np.minimum(np.arange(t) + tau + 1, t)
    lo = np.maximum(np.arange(t) - tau, 0)
    return ((cums[hi] - cums[lo]) > 0) & mask[:, None]


def conditional_reference(videos, tau: int, threshold: float = 0.5) -> dict:
    """Action-conditional metrics from their definition, every ordered pair (i, j)."""
    n_classes = videos[0].scores.shape[1]
    wins = [windows(v.labels, v.mask, tau) for v in videos]
    cols = {k: [] for k in ("precision", "recall", "f1", "ap")}
    skipped = 0
    for j in range(n_classes):
        s = np.concatenate([v.scores[w[:, j]] for v, w in zip(videos, wins)])
        y = np.concatenate([v.labels[w[:, j]] for v, w in zip(videos, wins)]) > 0.5
        positives = y.sum(axis=0)
        keep = positives > 0
        skipped += int((~keep).sum())
        if not keep.any():
            continue
        s, y, positives = s[:, keep], y[:, keep], positives[keep]
        predicted = s >= threshold
        tp = (predicted & y).sum(axis=0).astype(float)
        called = predicted.sum(axis=0)
        precision = np.divide(tp, called, out=np.zeros_like(tp), where=called > 0)
        recall = tp / positives
        both = precision + recall
        f1 = np.divide(2 * precision * recall, both, out=np.zeros_like(tp), where=both > 0)
        for key, values in (("precision", precision), ("recall", recall), ("f1", f1),
                            ("ap", column_aps(s, y))):
            cols[key].append(values)
    out = {k: (float(np.mean(np.concatenate(v))) if v else None) for k, v in cols.items()}
    out["evaluated"] = sum(len(v) for v in cols["ap"])
    out["skipped"] = skipped
    return out


def check_conditional(videos, result, tau: int) -> list:
    """Means of all pairs against the definition, and evaluated + skipped = C^2."""
    n_classes = videos[0].scores.shape[1]
    errors = []
    if result.pairs_evaluated + result.pairs_skipped != n_classes ** 2:
        errors.append(f"tau={tau}: {result.pairs_evaluated} evaluated + "
                      f"{result.pairs_skipped} skipped != C^2 = {n_classes ** 2}")
    ref = conditional_reference(videos, tau, result.threshold)
    if (result.pairs_evaluated, result.pairs_skipped) != (ref["evaluated"], ref["skipped"]):
        errors.append(f"tau={tau}: pairs {result.pairs_evaluated}/{result.pairs_skipped}, "
                      f"recomputed {ref['evaluated']}/{ref['skipped']}")
    for key, got in (("precision", result.precision), ("recall", result.recall),
                     ("f1", result.f1), ("ap", result.mean_ap)):
        if not _close(got, ref[key]):
            errors.append(f"tau={tau}: conditional {key} {got!r}, recomputed {ref[key]!r}")
    return errors


def check_directional_derivatives(pairs: list) -> list:
    """Backward pass against central differences, (analytic, numeric) per direction.

    The median relative error must be within GRAD_TOL.  One direction alone
    can miss by far more without any fault: a step of h can cross a ReLU kink,
    or the derivative can happen to be near zero.
    """
    errs = sorted(abs(a - n) / max(abs(a), abs(n), 1e-12) for a, n in pairs)
    median = errs[len(errs) // 2]
    if not median <= GRAD_TOL:
        return [f"directional derivatives: median relative error {median:.3e} > {GRAD_TOL:g} "
                f"over {len(pairs)} directions (backward, central difference): {pairs}"]
    return []


def mean_prevalence(videos) -> float:
    """Mean positive rate of the classes present: the AP of an uninformative scorer."""
    labels = np.concatenate([v.labels[v.mask] for v in videos])
    rates = labels.mean(axis=0)
    return float(rates[rates > 0].mean())


def check_learned(val_map, prevalence: float) -> list:
    if val_map is None or not val_map >= CHANCE_FACTOR * prevalence:
        return [f"val mAP {val_map!r} is not {CHANCE_FACTOR:g}x the uninformative "
                f"scorer's {prevalence:.4f}"]
    return []


def check_losses(losses: list, first_train: float, last_train: float) -> list:
    errors = []
    if not all(np.isfinite(x) for x in losses):
        errors.append("a loss is not finite")
    if not last_train < first_train:
        errors.append(f"last train loss {last_train!r} is not below the first {first_train!r}")
    return errors


def check_bitwise(videos_a, videos_b) -> list:
    same = len(videos_a) == len(videos_b) and all(
        a.video_id == b.video_id and np.array_equal(a.scores, b.scores)
        for a, b in zip(videos_a, videos_b))
    return [] if same else ["reloaded checkpoint scores differ from the writing state's"]
