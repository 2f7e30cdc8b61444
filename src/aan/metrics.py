"""Per-frame ranking metrics and action-conditional variants.

Average precision ranks all valid frames of a class by score (stable sort,
ties kept in original order) and averages precision at each positive's rank.
Classes without positives are skipped, not scored zero, so corpora of
different sparsity stay comparable.

The action-conditional metrics restrict evaluation of class i to frames
lying within tau frames of some ground-truth occurrence of class j, for
every ordered pair (i, j) including i == j; pairs whose restricted frame
set contains no positive of class i are skipped and counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NoPositivesError(ValueError):
    """Average precision is undefined without at least one positive label."""


@dataclass
class VideoEval:
    """One video's scores, ground truth and frame validity."""

    video_id: str
    scores: np.ndarray            # [T, C] in [0, 1]
    labels: np.ndarray            # [T, C] 0/1
    mask: np.ndarray              # [T] bool

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
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


@dataclass
class EvalRun:
    videos: list

    @property
    def class_count(self) -> int:
        return self.videos[0].scores.shape[1]

    def stacked(self) -> tuple:
        """All valid frames concatenated across videos: (scores, labels)."""
        scores = np.concatenate([v.scores[v.mask] for v in self.videos], axis=0)
        labels = np.concatenate([v.labels[v.mask] for v in self.videos], axis=0)
        return scores, labels


def average_precision(scores, labels) -> float:
    """AP of one ranking; stable descending sort, ties in original order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores/labels must be equal-length vectors, got {scores.shape} and {labels.shape}")
    n_pos = labels.sum()
    if n_pos == 0:
        raise NoPositivesError("average precision undefined without positive labels")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cumulative = np.cumsum(ranked)
    ranks = np.arange(1, len(ranked) + 1)
    at_positives = ranked > 0
    return float((cumulative[at_positives] / ranks[at_positives]).mean())


def precision_at_positives(scores, labels) -> np.ndarray:
    """Precision at each positive's rank, in rank order (for --curves)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cumulative = np.cumsum(ranked)
    ranks = np.arange(1, len(ranked) + 1)
    at_positives = ranked > 0
    return cumulative[at_positives] / ranks[at_positives]


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
    scores, labels = run.stacked()
    per_class, skipped, values = [], [], []
    for c in range(run.class_count):
        positives = int(labels[:, c].sum())
        if positives == 0:
            per_class.append(ClassAP(c, 0, None))
            skipped.append(c)
            continue
        ap = average_precision(scores[:, c], labels[:, c])
        per_class.append(ClassAP(c, positives, ap))
        values.append(ap)
    mean = float(np.mean(values)) if values else None
    return PerFrameMap(mean_ap=mean, per_class=per_class, skipped_classes=skipped)


def conditioning_window(active: np.ndarray, tau: int) -> np.ndarray:
    """Frames within tau of an active frame (tau=0: the active frames)."""
    active = np.asarray(active, dtype=bool)
    if tau == 0:
        return active.copy()
    # counts[t] = active frames before t; frame t sees [t - tau, t + tau] clipped to the video
    counts = np.concatenate(([0], np.cumsum(active)))
    t = np.arange(active.size)
    return counts[np.minimum(t + tau + 1, active.size)] > counts[np.maximum(t - tau, 0)]


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
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    c_count = run.class_count

    # per (video, j): frames selected by j's window, restricted to valid ones
    windows = []
    for v in run.videos:
        active = (v.labels > 0.5) & v.mask[:, None]
        windows.append(
            np.stack([conditioning_window(active[:, j], tau) & v.mask
                      for j in range(c_count)], axis=1)
        )

    precisions, recalls, f1s, aps = [], [], [], []
    skipped = 0
    for j in range(c_count):
        selected_scores = np.concatenate(
            [v.scores[w[:, j]] for v, w in zip(run.videos, windows)], axis=0)
        selected_labels = np.concatenate(
            [v.labels[w[:, j]] for v, w in zip(run.videos, windows)], axis=0)
        for i in range(c_count):
            y = selected_labels[:, i]
            if y.sum() == 0:
                skipped += 1
                continue
            s = selected_scores[:, i]
            predicted = s >= threshold
            tp = float((predicted & (y > 0.5)).sum())
            fp = float((predicted & (y <= 0.5)).sum())
            fn = float(((~predicted) & (y > 0.5)).sum())
            precision = tp / (tp + fp) if tp + fp > 0 else 0.0
            recall = tp / (tp + fn)
            f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
            precisions.append(precision)
            recalls.append(recall)
            f1s.append(f1)
            aps.append(average_precision(s, y))

    def agg(values):
        return float(np.mean(values)) if values else None

    return ConditionalMetrics(
        tau=tau, threshold=threshold,
        precision=agg(precisions), recall=agg(recalls), f1=agg(f1s), mean_ap=agg(aps),
        pairs_evaluated=len(aps), pairs_skipped=skipped,
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
    report = MetricReport(per_frame=per_frame_map(run))
    for tau in taus or []:
        report.conditional.append(action_conditional_metrics(run, tau, threshold))
    if curves:
        scores, labels = run.stacked()
        report.curves = {
            str(c): precision_at_positives(scores[:, c], labels[:, c]).tolist()
            for c in range(run.class_count) if labels[:, c].sum() > 0
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
