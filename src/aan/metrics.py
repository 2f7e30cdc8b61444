"""Per-frame ranking metrics and action-conditional variants.

Average precision ranks all valid frames of a class by descending score,
ties kept in frame order, and averages precision at each positive's rank.
Classes without positives are skipped, not scored zero, so corpora of
different sparsity stay comparable.  Ranking takes numpy's default (not
stable) argsort; only the frames of a run of tied scores are sorted again,
by frame, so every ranking equals that of a stable sort.

The action-conditional metrics restrict evaluation of class i to frames
lying within tau frames of some ground-truth occurrence of class j, for
every ordered pair (i, j) including i == j; pairs whose restricted frame
set contains no positive of class i are skipped and counted.

They are computed in C vectorised steps over the valid frames of the whole
run, stacked once class-major in video-then-frame order (C classes, F
frames), so each class is one contiguous row.  One clipped cumulative-sum
window per video marks, for every class j at once, the frames within tau of
j; stacked, these form W [C, F].  Step j takes the n_j frames W[j] selects,
counts every class's positives among them in one call, and scores the k
classes i that have any as the rows of one [k, n_j] matrix: tp, predicted
and positive counts are row sums, and AP comes from the same row-wise
ranking that per-frame AP uses, one row per class.  Python work grows with
C; arithmetic with C * sum_j n_j, plus k * n_j log n_j for the sorts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NoPositivesError(ValueError):
    """Average precision is undefined without at least one positive label."""


@dataclass
class VideoEval:
    """One video's scores, ground truth and frame validity.

    Bool labels, as `load_split` gives them, are kept as they are, not
    copied; labels of another dtype must be 0 or 1 and are converted to bool
    once.
    """

    video_id: str
    scores: np.ndarray            # [T, C] in [0, 1]
    labels: np.ndarray            # [T, C] bool
    mask: np.ndarray              # [T] bool

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.scores.shape != self.labels.shape:
            raise ValueError(
                f"{self.video_id}: scores {self.scores.shape} vs labels {self.labels.shape}"
            )
        if self.mask.shape != (self.scores.shape[0],):
            raise ValueError(f"{self.video_id}: mask length mismatch")
        if not np.isfinite(self.scores).all():
            raise ValueError(f"{self.video_id}: non-finite scores")
        if self.scores.min(initial=0.0) < 0.0 or self.scores.max(initial=0.0) > 1.0:
            raise ValueError(f"{self.video_id}: scores outside [0, 1]")
        if self.labels.dtype != bool:
            if not ((self.labels == 0) | (self.labels == 1)).all():
                raise ValueError(f"{self.video_id}: labels must be 0 or 1")
            self.labels = self.labels.astype(bool)


@dataclass
class EvalRun:
    videos: list

    def __post_init__(self):
        if not self.videos:
            raise ValueError("evaluation run has no videos")

    @property
    def class_count(self) -> int:
        return self.videos[0].scores.shape[1]

    def stacked(self) -> tuple:
        """All valid frames of the run, class-major in video-then-frame order:
        (scores [C, F] float64, labels [C, F] bool, stacked from each video's
        bool labels as they are).  Each class is one contiguous row."""
        scores = _class_major([v.scores for v in self.videos], np.float64)
        labels = _class_major([v.labels for v in self.videos], bool)
        mask = np.concatenate([v.mask for v in self.videos])
        if not mask.all():
            scores, labels = scores.compress(mask, axis=1), labels.compress(mask, axis=1)
        return scores, labels


def _class_major(blocks: list, dtype) -> np.ndarray:
    """[T_v, C] blocks concatenated along frames into one C-contiguous [C, F]
    array (concatenating the transposes alone would give F order)."""
    out = np.empty((blocks[0].shape[1], sum(len(b) for b in blocks)), dtype)
    return np.concatenate([b.T for b in blocks], axis=1, out=out)


def average_precision(scores, labels) -> float:
    """AP of one ranking; descending scores, ties in original order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores/labels must be equal-length vectors, got {scores.shape} and {labels.shape}")
    hits = labels.astype(bool)
    if np.count_nonzero(hits != labels):
        raise ValueError("labels must be 0 or 1")
    if not np.count_nonzero(hits):
        raise NoPositivesError("average precision undefined without positive labels")
    if not np.isfinite(scores).all():
        raise ValueError("non-finite scores")
    return float(_precision_at_positives(scores, hits).mean())


def _precision_at_positives(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Precision at each positive's rank, in rank order, of one row of finite
    scores and bool labels (per-frame AP and --curves).  The p-th positive
    has p positives at or above its rank, so no cumulative sum is needed;
    both counts are exact, so the values equal _ranked_precision's bitwise."""
    at = np.flatnonzero(_ranked_hits(scores[None], labels[None]))
    return np.arange(1, at.size + 1) / (at + 1)


def _ranked_hits(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Rank each row of finite scores [k, n] in descending order, ties in
    column order: labels [k, n] in rank order.

    The default argsort ranks every row; without a tie its descending order
    is unique.  A run of equal scores is contiguous in that order but its
    frames are in no set order, so only the frames in such runs are sorted
    again, by (run, column), which gives the order a stable sort gives.  NaN
    would escape the tie check, so callers pass finite scores.
    """
    k, n = scores.shape
    order = np.argsort(-scores, axis=1)
    order += np.arange(0, k * n, n)[:, None]   # one flat gather; take_along_axis costs ~10 us a call
    _order_ties_by_column(order, scores)
    return labels.ravel()[order]


def _ranked_precision(scores: np.ndarray, labels: np.ndarray) -> tuple:
    """(hits [k, n] bool in rank order, precision [k, n] float64 at every
    rank) of each row of finite scores [k, n], ranked by _ranked_hits."""
    hits = _ranked_hits(scores, labels)
    precision = hits.astype(np.float64)
    # in place: a cumsum with dtype= casts through a second [k, n] buffer
    np.cumsum(precision, axis=1, out=precision)
    precision /= np.arange(1, scores.shape[1] + 1)
    return hits, precision


def _order_ties_by_column(order: np.ndarray, scores: np.ndarray) -> None:
    """Put each run of tied ranks of `order` [k, n] (C-order flat indices
    into `scores`, each row sorted descending) in ascending frame order, in
    place.  Runs stay within a row, so the flat index sorts as the
    column does; g * order.size + index is unique per frame and sorts by
    run g, then by frame."""
    ranked = scores.ravel()[order]
    same = ranked[:, 1:] == ranked[:, :-1]      # [k, n - 1]: rank r + 1 ties rank r
    del ranked
    if not same.any():
        return
    tied = np.zeros(order.shape, bool)
    tied[:, 1:] = same
    tied[:, :-1] |= same
    first = tied.copy()
    first[:, 1:] &= ~same                       # a tied rank that does not tie the one before
    at = np.flatnonzero(tied)
    g = np.cumsum(first.ravel()[at])            # run of each tied rank, ascending
    g *= order.size
    key = np.sort(order.ravel()[at] + g)
    np.put(order, at, key - g)


@dataclass
class ClassAP:
    class_id: int
    positives: int
    ap: float | None


@dataclass
class PerFrameMap:
    mean_ap: float | None
    per_class: list
    skipped_classes: list

    def to_dict(self) -> dict:
        return {
            "mean_ap": self.mean_ap,
            "per_class": [
                {"class_id": c.class_id, "positives": c.positives, "ap": c.ap}
                for c in self.per_class
            ],
            "skipped_classes": self.skipped_classes,
        }


def per_frame_map(run: EvalRun) -> PerFrameMap:
    """Mean AP over classes with at least one positive valid frame."""
    return _per_frame_map(*run.stacked())


def _per_frame_map(scores: np.ndarray, labels: np.ndarray) -> PerFrameMap:
    per_class, skipped, values = [], [], []
    for c, (row, hits) in enumerate(zip(scores, labels)):
        positives = int(np.count_nonzero(hits))
        if positives == 0:
            per_class.append(ClassAP(c, 0, None))
            skipped.append(c)
            continue
        ap = float(_precision_at_positives(row, hits).mean())
        per_class.append(ClassAP(c, positives, ap))
        values.append(ap)
    mean = float(np.mean(values)) if values else None
    return PerFrameMap(mean_ap=mean, per_class=per_class, skipped_classes=skipped)


def conditioning_window(active: np.ndarray, tau: int) -> np.ndarray:
    """Frames within tau of an active frame (tau=0: the active frames).

    `active` is [T] or [T, C]; each column is dilated along axis 0.
    """
    active = np.asarray(active, dtype=bool)
    if tau == 0:
        return active.copy()
    # counts[t] = active frames before t; frame t sees [t - tau, t + tau] clipped to the video
    t_count = active.shape[0]
    counts = np.zeros((t_count + 1,) + active.shape[1:], dtype=np.int64)
    np.cumsum(active, axis=0, out=counts[1:])
    t = np.arange(t_count)
    return counts[np.minimum(t + tau + 1, t_count)] > counts[np.maximum(t - tau, 0)]


@dataclass
class ConditionalMetrics:
    tau: int
    threshold: float
    precision: float | None
    recall: float | None
    f1: float | None
    mean_ap: float | None
    pairs_evaluated: int
    pairs_skipped: int

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "threshold": self.threshold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "mean_ap": self.mean_ap,
            "pairs_evaluated": self.pairs_evaluated,
            "pairs_skipped": self.pairs_skipped,
        }


def action_conditional_metrics(run: EvalRun, tau: int,
                               threshold: float = 0.5) -> ConditionalMetrics:
    """Precision/F1/AP of each class on frames near occurrences of another.

    For every ordered pair (i, j): keep valid frames t such that class j is
    active at some valid frame t' with |t - t'| <= tau, then score class i
    on that restricted set.  Pairs with no restricted positive of class i
    are skipped.  Precision with no predicted positives counts as 0.
    """
    return _conditional_metrics(run, *run.stacked(), tau, threshold)


def _conditional_metrics(run: EvalRun, scores: np.ndarray, labels: np.ndarray, tau: int,
                         threshold: float) -> ConditionalMetrics:
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    c_count = run.class_count

    # windows[j, f]: stacked frame f is within tau of a valid frame of the
    # same video where class j is active
    windows = _class_major(
        [conditioning_window(v.labels & v.mask[:, None], tau)[v.mask] for v in run.videos],
        bool)

    precisions, recalls, f1s, aps = [], [], [], []
    skipped = 0
    for j in range(c_count):
        # frames selected by j, in video-then-frame order, so ties rank as in a
        # single-pair average_precision over the same frames
        frames = np.flatnonzero(windows[j])
        selected = labels.take(frames, axis=1)                      # [C, n_j]
        positives = np.count_nonzero(selected, axis=1)
        keep = np.flatnonzero(positives)
        skipped += c_count - keep.size
        if keep.size == 0:
            continue
        positives = positives[keep].astype(np.float64)
        s = scores[np.ix_(keep, frames)]                           # [k, n_j]
        y = selected[keep]
        predicted = s >= threshold
        tp = np.count_nonzero(predicted & y, axis=1).astype(np.float64)
        called = np.count_nonzero(predicted, axis=1).astype(np.float64)
        precision = np.divide(tp, called, out=np.zeros_like(tp), where=called > 0)
        recall = tp / positives
        both = precision + recall
        f1 = np.divide(2 * precision * recall, both, out=np.zeros_like(tp), where=both > 0)
        # AP: mean precision at each positive's rank
        hits, at_rank = _ranked_precision(s, y)
        at_rank *= hits
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
        aps.append(at_rank.sum(axis=1) / positives)

    def agg(values):
        return float(np.mean(np.concatenate(values))) if values else None

    return ConditionalMetrics(
        tau=tau, threshold=threshold,
        precision=agg(precisions), recall=agg(recalls), f1=agg(f1s), mean_ap=agg(aps),
        pairs_evaluated=c_count * c_count - skipped, pairs_skipped=skipped,
    )


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    per_frame: PerFrameMap
    conditional: list = field(default_factory=list)
    curves: dict | None = None

    def to_dict(self) -> dict:
        doc = {"per_frame": self.per_frame.to_dict(),
               "conditional": [c.to_dict() for c in self.conditional]}
        if self.curves is not None:
            doc["curves"] = self.curves
        return doc


def evaluate_run(run: EvalRun, taus: list | None = None, threshold: float = 0.5,
                 curves: bool = False) -> MetricReport:
    """Every metric of one run, from one stack of its valid frames."""
    scores, labels = run.stacked()
    report = MetricReport(per_frame=_per_frame_map(scores, labels))
    for tau in taus or []:
        report.conditional.append(_conditional_metrics(run, scores, labels, tau, threshold))
    if curves:
        report.curves = {
            str(c): _precision_at_positives(row, hits).tolist()
            for c, (row, hits) in enumerate(zip(scores, labels)) if hits.any()
        }
    return report


def format_table(report: MetricReport) -> str:
    """Plain-text rendering of a metric report."""
    lines = []
    pf = report.per_frame
    mean = "n/a" if pf.mean_ap is None else f"{pf.mean_ap:.4f}"
    lines.append(f"per-frame mAP: {mean}  (classes evaluated: "
                 f"{len(pf.per_class) - len(pf.skipped_classes)}, skipped: {len(pf.skipped_classes)})")
    for c in pf.per_class:
        ap = "skipped" if c.ap is None else f"{c.ap:.4f}"
        lines.append(f"  class {c.class_id:3d}  positives {c.positives:6d}  AP {ap}")
    if report.conditional:
        lines.append("")
        lines.append(f"{'tau':>5} {'P_AC':>8} {'R_AC':>8} {'F1_AC':>8} {'mAP_AC':>8} {'pairs':>7}")
        for c in report.conditional:
            def fmt(x):
                return "   n/a" if x is None else f"{x:8.4f}"
            lines.append(f"{c.tau:5d} {fmt(c.precision)} {fmt(c.recall)} {fmt(c.f1)} "
                         f"{fmt(c.mean_ap)} {c.pairs_evaluated:7d}")
    return "\n".join(lines)
