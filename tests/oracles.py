"""Independent brute-force oracles used by the module and acceptance tests.

These deliberately avoid the library's vectorized code paths: plain Python
loops over frames, pairs and ranks, or (for the ranking) one stable sort of
every row, or (for a batch's gradients) one backward of the summed loss, or
(for eval) one forward of the whole video, so they can disagree with the
implementation when the implementation is wrong.
"""

import numpy as np


def brute_force_ap(scores, labels):
    """O(T^2) pairwise-rank average precision.

    rank(i) counts strictly higher scores plus earlier-index ties; AP is the
    mean over positives of (positives at rank <= rank(i)) / rank(i).
    """
    n = len(scores)
    ranks = [
        1
        + sum(1 for j in range(n) if scores[j] > scores[i])
        + sum(1 for j in range(i) if scores[j] == scores[i])
        for i in range(n)
    ]
    precisions = []
    for i in range(n):
        if labels[i] == 1:
            hits = sum(1 for j in range(n) if labels[j] == 1 and ranks[j] <= ranks[i])
            precisions.append(hits / ranks[i])
    return sum(precisions) / len(precisions)


def stable_ranked_precision(scores, labels):
    """Row-wise ranking by one stable descending argsort, ties in column order.

    scores, labels [k, n]; returns (hits [k, n] bool in rank order, precision
    [k, n] float64 at every rank): the reference for the metrics' unstable
    sort followed by a sort of the tied frames alone.
    """
    k, n = scores.shape
    order = np.argsort(-scores, axis=1, kind="stable")
    order += np.arange(k)[:, None] * n
    hits = labels.ravel()[order]
    precision = np.cumsum(hits, axis=1, dtype=np.float64)
    precision /= np.arange(1, n + 1)
    return hits, precision


def summed_batch_gradients(params, losses):
    """Leaf gradients of one batch by the summed-loss formula: the batch's
    loss tensors added in order, times 1/B, then one backward through all B
    graphs at once.  params maps names to leaf tensors; returns name -> a
    copy of its gradient (None where no gradient reached it)."""
    for p in params.values():
        p.grad = None
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss
    (total * (1.0 / len(losses))).backward()
    return {name: None if p.grad is None else p.grad.copy() for name, p in params.items()}


def whole_video_eval(state, features, labels=None, anchors=None):
    """(scores [T, C], (total, action, attribute) or None) of one video from a
    single no-grad eval forward over all its frames, with no chunks: the
    reference for the chunked eval forward.  The loss, given labels and an
    AnchorSet, uses the eval prompt, as the val pass does."""
    from aan import tensor as tn
    from aan.graph import forward, total_loss

    with tn.no_grad():
        result = forward(features, None, state, "eval")
        scores = tn.sigmoid(result.logits.data)
        if labels is None:
            return scores, None
        selected = None if state.config.ablation == "linear" else \
            anchors.anchors[:, 0, :].astype(np.float64)
        b = total_loss(result, labels, selected,
                       attribute_weight=state.config.attribute_weight,
                       normalize_anchors=state.config.normalize_anchors)
        return scores, (b.total.item(), b.action, b.attribute)


def brute_force_prior(label_sets, attribute_map, n_attributes, frame_counts):
    """Frame-by-frame loop over every ordered attribute pair."""
    counts = [[0] * n_attributes for _ in range(n_attributes)]
    totals = [0] * n_attributes
    for ls, t in zip(label_sets, frame_counts):
        for frame in range(t):
            active = set()
            for class_id, start, end in ls.intervals:
                if start <= frame <= end:
                    active.update(attribute_map.class_to_attributes[class_id])
            for i in active:
                totals[i] += 1
                for j in active:
                    counts[i][j] += 1
    probs = [
        [counts[i][j] / totals[i] if totals[i] else 0.0 for j in range(n_attributes)]
        for i in range(n_attributes)
    ]
    return np.array(counts), np.array(totals), np.array(probs)


def enumerate_conditional(run, tau, threshold):
    """Definition-level enumeration of the action-conditional metrics."""
    c_count = run.videos[0].scores.shape[1]
    precisions, recalls, f1s, aps = [], [], [], []
    skipped = 0
    for j in range(c_count):
        for i in range(c_count):
            sel_scores, sel_labels = [], []
            for v in run.videos:
                t_count = len(v.mask)
                j_frames = [t for t in range(t_count) if v.mask[t] and v.labels[t, j] == 1]
                for t in range(t_count):
                    if not v.mask[t]:
                        continue
                    if any(abs(t - tp) <= tau for tp in j_frames):
                        sel_scores.append(v.scores[t, i])
                        sel_labels.append(v.labels[t, i])
            if sum(sel_labels) == 0:
                skipped += 1
                continue
            predicted = [s >= threshold for s in sel_scores]
            tp = sum(1 for p, y in zip(predicted, sel_labels) if p and y == 1)
            fp = sum(1 for p, y in zip(predicted, sel_labels) if p and y == 0)
            fn = sum(1 for p, y in zip(predicted, sel_labels) if not p and y == 1)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn)
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            precisions.append(precision)
            recalls.append(recall)
            f1s.append(f1)
            aps.append(brute_force_ap(sel_scores, sel_labels))
    return {
        "precision": np.mean(precisions) if precisions else None,
        "recall": np.mean(recalls) if recalls else None,
        "f1": np.mean(f1s) if f1s else None,
        "mean_ap": np.mean(aps) if aps else None,
        "evaluated": len(aps),
        "skipped": skipped,
    }


def brute_force_attention_block(x, w1, w2, w3, prior):
    """One block's attention plus graph conv, frame by frame and head by head.

    x is [T, N, H*Dh], w1/w2/w3 are [H, Dh, Dh] and prior is [N, N].  Head h
    owns columns h*Dh..(h+1)*Dh of x.  Only 2-D products are used, so no head
    layout is assumed: softmax(x_th W1 (x_th W2)^T) + P, then
    relu(A x_th W3) + x_th.  Returns [T, N, H*Dh].
    """
    t_count = x.shape[0]
    h_count, dh, _ = w1.shape
    out = np.empty_like(x)
    for t in range(t_count):
        for h in range(h_count):
            cols = slice(h * dh, (h + 1) * dh)
            x_th = x[t, :, cols]
            scores = (x_th @ w1[h]) @ (x_th @ w2[h]).T
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            adjacency = e / e.sum(axis=1, keepdims=True) + prior
            out[t, :, cols] = np.maximum(adjacency @ x_th @ w3[h], 0.0) + x_th
    return out


def random_label_instance(rng):
    """A small random attribute map plus interval label sets."""
    from aan.data import AttributeMap, IntervalLabelSet

    n_attributes = int(rng.integers(2, 11))
    n_classes = int(rng.integers(2, 7))
    amap = AttributeMap(
        [[int(a) for a in rng.choice(n_attributes, size=rng.integers(1, 3), replace=False)]
         for _ in range(n_classes)],
        attribute_count=n_attributes,
    )
    label_sets, frame_counts = [], []
    for v in range(int(rng.integers(1, 4))):
        t = int(rng.integers(4, 20))
        intervals = []
        for _ in range(int(rng.integers(0, 6))):
            c = int(rng.integers(0, n_classes))
            s = int(rng.integers(0, t))
            e = int(rng.integers(s, t))
            intervals.append((c, s, e))
        label_sets.append(IntervalLabelSet(f"v{v}", n_classes, intervals))
        frame_counts.append(t)
    return n_attributes, amap, label_sets, frame_counts


def plain_softmax(x, addend=None):
    """Softmax over the last axis by the plain formula, one numpy reduction
    per row: x - max, exp, / sum, then + addend where one is given."""
    s = x - x.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s if addend is None else s + addend


def plain_softmax_backward(s, g):
    """The input gradient of the plain softmax, given its output s (without
    any addend) and the output gradient g: s * (g - sum(g * s))."""
    dot = (g * s).sum(axis=-1, keepdims=True)
    return s * (g - dot)
