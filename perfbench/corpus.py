"""Seeded input corpora for the benchmark, written in the documented corpus format.

The generator is the benchmark's own code: it shares nothing with
`aan.data`, so the program under test only ever reads these files.  Every
corpus is a pure function of (shape, seed).  Video lengths are a fixed
multiset per split that the seed only shuffles, so properties the workloads
rely on -- such as the share of Charades-shaped videos shorter than 41
frames -- hold exactly for every seed.

Frames are the sum of the unit anchor vectors of the attributes their active
classes involve, plus Gaussian noise, so the labels are learnable from the
features.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROMPTS = ("a photo of a {}", "there is a {}", "an image of a {}", "a photo with a {}")
NOISE_SIGMA = 0.1
COMPANION_RATE = 0.3            # share of instances that bring class c+1 along


@dataclass(frozen=True)
class Split:
    name: str
    count: int
    min_frames: int
    max_frames: int


@dataclass(frozen=True)
class Shape:
    """Class, attribute and length make-up of one workload's corpus."""

    n_classes: int
    n_attributes: int
    dim: int
    splits: tuple                 # of Split
    instances_per_frame: float    # action instances started per frame of video
    min_segment: int
    max_segment: int


SHAPES = {
    # desk profile of the README: 10 classes, 8 attributes, 32-d, 32-64 frames
    "train-desk": Shape(10, 8, 32, (Split("train", 200, 32, 64), Split("val", 50, 32, 64)),
                        instances_per_frame=0.2, min_segment=3, max_segment=8),
    # paper width: 768-d CLIP-sized frames, one batch of 8 x 64 to train on
    "train-paper": Shape(10, 8, 768, (Split("train", 8, 64, 64), Split("val", 4, 64, 64)),
                         instances_per_frame=0.2, min_segment=3, max_segment=8),
    # Charades: 157 classes, about a thousand short clips, many under 41 frames
    "eval-charades": Shape(157, 20, 32, (Split("train", 32, 20, 60), Split("val", 16, 20, 60),
                                         Split("test", 1000, 20, 60)),
                           instances_per_frame=0.06, min_segment=4, max_segment=20),
    # Toyota Smarthome Untrimmed: 51 classes, a few videos thousands of frames long
    "eval-tsu": Shape(51, 16, 32, (Split("train", 8, 1000, 2000), Split("val", 2, 1000, 2000),
                                   Split("test", 4, 2500, 4000)),
                      instances_per_frame=0.03, min_segment=20, max_segment=200),
}


@dataclass
class Corpus:
    shape: Shape
    anchors: np.ndarray           # [N, P, D] float32
    class_attributes: list        # C lists of attribute ids
    videos: list                  # of (video_id, split, features [T, D] float32, intervals)


def split_lengths(split: Split) -> np.ndarray:
    """The fixed multiset of frame counts of one split, evenly spread."""
    return np.round(np.linspace(split.min_frames, split.max_frames, split.count)).astype(int)


def class_attribute_sets(n_classes: int, n_attributes: int) -> list:
    """Distinct attribute sets: every single attribute, then pairs by growing stride."""
    sets = [[a] for a in range(min(n_classes, n_attributes))]
    stride = 1
    while len(sets) < n_classes:
        if stride > n_attributes // 2:
            raise ValueError(f"{n_classes} classes need more than {n_attributes} attributes")
        for a in range(n_attributes):
            pair = sorted((a, (a + stride) % n_attributes))
            if pair not in sets and len(sets) < n_classes:
                sets.append(pair)
        stride += 1
    return sets


def fixed_multiset(values: np.ndarray, weights: np.ndarray, total: int) -> np.ndarray:
    """`total` draws of `values` in proportion to `weights`, by largest remainder."""
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    counts[np.argsort(counts - exact, kind="stable")[:total - counts.sum()]] += 1
    return np.repeat(values, counts)


def generate(shape: Shape, seed: int) -> Corpus:
    rng = np.random.default_rng([seed, shape.n_classes, shape.dim])
    base = rng.standard_normal((shape.n_attributes, shape.dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    anchors = np.empty((shape.n_attributes, len(PROMPTS), shape.dim), dtype=np.float32)
    anchors[:, 0] = base
    for p in range(1, len(PROMPTS)):
        jitter = base + 0.03 * rng.standard_normal(base.shape)
        anchors[:, p] = jitter / np.linalg.norm(jitter, axis=1, keepdims=True)

    class_attributes = class_attribute_sets(shape.n_classes, shape.n_attributes)
    incidence = np.zeros((shape.n_classes, shape.n_attributes))
    for c, attrs in enumerate(class_attributes):
        incidence[c, attrs] = 1.0
    # long-tailed class frequencies, as in both real datasets
    class_weights = 1.0 / np.sqrt(np.arange(1, shape.n_classes + 1))
    segment_lengths = np.arange(shape.min_segment, shape.max_segment + 1)

    videos = []
    for split in shape.splits:
        # how many instances of each class, how long, and which bring a
        # companion are fixed per split; the seed only shuffles and places them
        lengths = rng.permutation(split_lengths(split))
        per_video = [max(1, int(round(t * shape.instances_per_frame))) for t in lengths]
        total = sum(per_video)
        classes = rng.permutation(fixed_multiset(np.arange(shape.n_classes), class_weights, total))
        segments = rng.permutation(fixed_multiset(segment_lengths,
                                                  np.ones(len(segment_lengths)), total))
        companions = rng.permutation(np.arange(total) < round(total * COMPANION_RATE))
        k = 0
        for v, (frames, count) in enumerate(zip(lengths, per_video)):
            frames = int(frames)
            intervals = []
            for c, length, companion in zip(classes[k:k + count], segments[k:k + count],
                                            companions[k:k + count]):
                length = min(int(length), frames)
                start = int(rng.integers(0, frames - length + 1))
                intervals.append([int(c), start, start + length - 1])
                if companion:
                    intervals.append([(int(c) + 1) % shape.n_classes, start, start + length - 1])
            k += count
            active = (dense_labels(intervals, frames, shape.n_classes) @ incidence) > 0
            feats = active @ base + NOISE_SIGMA * rng.standard_normal((frames, shape.dim))
            videos.append((f"{split.name}_{v:05d}", split.name, feats.astype(np.float32),
                           intervals))
    return Corpus(shape, anchors, class_attributes, videos)


def dense_labels(intervals: list, frames: int, n_classes: int) -> np.ndarray:
    dense = np.zeros((frames, n_classes))
    for c, a, z in intervals:
        dense[a:z + 1, c] = 1.0
    return dense


def _matrix_file(path: Path, magic: bytes, header: bytes, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<H", 1) + header)
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def write(corpus: Corpus, out_dir: Path) -> Path:
    """Write manifest.json, anchors.aant, attribute_map.json and features/*.aanf."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    n, p, d = corpus.anchors.shape
    names = [f"object_{a:02d}" for a in range(n)]
    strings = b"".join(struct.pack("<I", len(s)) + s
                       for s in (x.encode() for x in names + list(PROMPTS)))
    _matrix_file(out_dir / "anchors.aant", b"AANT", struct.pack("<III", n, p, d) + strings,
                 corpus.anchors)
    (out_dir / "attribute_map.json").write_text(json.dumps(
        {"attribute_names": names, "class_to_attributes": corpus.class_attributes}))
    records = []
    for video_id, split, feats, intervals in corpus.videos:
        rel = f"features/{video_id}.aanf"
        _matrix_file(out_dir / rel, b"AANF", struct.pack("<II", *feats.shape), feats)
        records.append({"video_id": video_id, "features": rel, "split": split,
                        "labels": intervals})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps({
        "format": "aan-corpus", "version": 1, "dim": d,
        "class_count": corpus.shape.n_classes, "anchors": "anchors.aant",
        "attribute_map": "attribute_map.json", "videos": records,
    }))
    return manifest
