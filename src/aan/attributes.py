"""Per-attribute extraction from frame embeddings and the anchor objective.

Each attribute owns a linear filter plus its own normalization channel; the
same filters apply to every frame.  Training pulls each filter's output
toward that attribute's text anchor vector in the shared embedding space.
"""

from __future__ import annotations

import numpy as np

from .data import AnchorSet, stable_index
from .tensor import BatchNormState, DimensionError, Tensor, batch_norm


def extract_attributes(frames: Tensor, weight: Tensor, bn: BatchNormState | None,
                       mode: str) -> Tensor:
    """Map frame features [T, D0] to per-attribute features [T, N, D0].

    Applies each attribute's filter (`weight` stacks N input-major [D0, D0]
    filters), normalizes each of the N*D0 channels over the frames with `bn`
    (if given), then rectifies.  Output is therefore elementwise non-negative.
    """
    if frames.ndim != 2:
        raise DimensionError(f"expected frames [T, D0], got {frames.shape}")
    if frames.shape[1] != weight.shape[1]:
        raise DimensionError(
            f"frame dim {frames.shape[1]} does not match extractor dim {weight.shape[1]}"
        )
    t, d0 = frames.shape
    n = weight.shape[0]

    pre = (frames @ weight).transpose((1, 0, 2))   # [N,T,D0] -> [T,N,D0]
    if bn is not None:
        pre = batch_norm(pre.reshape(t, n * d0), bn, mode)
        pre = pre.reshape(t, n, d0)
    return pre.relu()


def select_anchor_prompt(anchors: AnchorSet, mode: str, seed: int, epoch: int,
                         video_id: str) -> np.ndarray:
    """Pick the anchor vectors [N, D0] for one video.

    Training draws a prompt variant pseudo-randomly per (video, epoch);
    inference always uses the first prompt.
    """
    if mode == "train":
        idx = stable_index((seed, epoch, video_id, "prompt"), anchors.prompt_count)
    else:
        idx = 0
    return anchors.anchors[:, idx, :].astype(np.float64)
