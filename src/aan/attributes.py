"""Per-attribute extraction from frame embeddings and the anchor objective.

Each attribute owns a linear filter plus its own normalization channel; the
same filters apply to every frame.  Training pulls each filter's output
toward that attribute's text anchor vector in the shared embedding space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AnchorSet, stable_index
from .tensor import (
    BatchNormState,
    DimensionError,
    Tensor,
    make_batch_norm_state,
    batch_norm,
)


@dataclass
class AttributeExtractorParams:
    """N stacked D0->D0 filters with one normalization channel per output."""

    weight: Tensor                       # [N, D0, D0], input-major
    bn: BatchNormState | None            # over N*D0 flattened channels

    @property
    def attribute_count(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]


def init_extractor(n_attributes: int, dim: int, rng: np.random.Generator,
                   use_batch_norm: bool = True, dtype=np.float64) -> AttributeExtractorParams:
    bound = 1.0 / np.sqrt(dim)
    weight = Tensor(
        rng.uniform(-bound, bound, (n_attributes, dim, dim)).astype(dtype, copy=False),
        requires_grad=True,
    )
    bn = make_batch_norm_state(n_attributes * dim, dtype=dtype) if use_batch_norm else None
    return AttributeExtractorParams(weight=weight, bn=bn)


def extract_attributes(frames: Tensor, params: AttributeExtractorParams, mode: str) -> Tensor:
    """Map frame features [T, D0] to per-attribute features [T, N, D0].

    Applies each attribute's filter, normalizes per channel over the frames,
    then rectifies.  Output is therefore elementwise non-negative.
    """
    if frames.ndim != 2:
        raise DimensionError(f"expected frames [T, D0], got {frames.shape}")
    if frames.shape[1] != params.dim:
        raise DimensionError(
            f"frame dim {frames.shape[1]} does not match extractor dim {params.dim}"
        )
    t, d0 = frames.shape
    n = params.attribute_count

    pre = (frames @ params.weight).transpose((1, 0, 2))   # [N,T,D0] -> [T,N,D0]
    if params.bn is not None:
        pre = batch_norm(pre.reshape(t, n * d0), params.bn, mode)
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
