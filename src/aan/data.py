"""Corpus file formats, ingestion, synthetic generation and batching.

On-disk layout of a corpus directory:

    manifest.json        corpus index: dim, class count, per-video records
                         (feature path, label intervals, split tag) and the
                         paths of the two shared files below
    anchors.aant         attribute names, prompt templates and anchor vectors
    attribute_map.json   class id -> attribute ids, plus attribute names
    features/*.aanf      one binary feature file per video

Binary formats (all little-endian):

    .aanf   magic "AANF", u16 version=1, u32 T, u32 D0, then T*D0 float32
    .aant   magic "AANT", u16 version=1, u32 N, u32 P, u32 D0, then a block
            of N attribute names followed by P prompt templates (each u32
            byte length + UTF-8 bytes), then N*P*D0 float32
    .aans   magic "AANS", u16 version=1, u32 T, u32 C, then T*C float32
            per-frame class scores
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"AANF"
ANCHOR_MAGIC = b"AANT"
SCORE_MAGIC = b"AANS"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """A binary file is malformed (bad magic, version or truncated payload)."""


class CorpusError(ValueError):
    """A manifest or corpus-level consistency check failed."""


class BoundsError(ValueError):
    """A label interval or attribute index is out of range."""


class ValidationError(ValueError):
    """A generator or configuration precondition failed."""


def stable_index(parts: tuple, bound: int) -> int:
    """Deterministic pseudo-random index in [0, bound) from hashable parts.

    Platform-independent (blake2b of the repr), so seeded runs reproduce
    across machines and across resumed sessions.
    """
    if bound <= 1:
        return 0
    digest = hashlib.blake2b("|".join(str(p) for p in parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % bound


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class FeatureSequence:
    """One video's frame embeddings, every frame a real one."""

    video_id: str
    features: np.ndarray          # [T, D0], T >= 1

    def __post_init__(self):
        self.features = np.asarray(self.features)
        if self.features.ndim != 2:
            raise ValidationError(f"features must be [T, D0], got shape {self.features.shape}")
        if self.features.shape[0] < 1:
            raise ValidationError(f"video {self.video_id!r} has no frames")
        if not np.isfinite(self.features).all():
            raise ValidationError(f"video {self.video_id!r} has non-finite features")

    @property
    def frame_count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class AnchorSet:
    """Text anchor vectors: one per attribute per prompt template."""

    attribute_names: list
    prompt_templates: list
    anchors: np.ndarray           # [N, P, D0]

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors)
        n = len(self.attribute_names)
        if n < 1:
            raise ValidationError("anchor set needs at least one attribute")
        if len(set(self.attribute_names)) != n:
            raise ValidationError("attribute names must be unique")
        if self.anchors.ndim != 3 or self.anchors.shape[0] != n:
            raise ValidationError(f"anchors must be [N, P, D0], got {self.anchors.shape}")
        if self.anchors.shape[1] != len(self.prompt_templates):
            raise ValidationError("one anchor row per prompt template is required")
        if not np.isfinite(self.anchors).all():
            raise ValidationError("anchor vectors must be finite")
        if (np.abs(self.anchors).sum(axis=-1) == 0).any():
            raise ValidationError("anchor vectors must be nonzero")

    @property
    def attribute_count(self) -> int:
        return len(self.attribute_names)

    @property
    def prompt_count(self) -> int:
        return len(self.prompt_templates)

    @property
    def dim(self) -> int:
        return self.anchors.shape[2]


@dataclass
class IntervalLabelSet:
    """Per-video action annotations as inclusive frame intervals."""

    video_id: str
    class_count: int
    intervals: list               # of (class_id, start_frame, end_frame)

    def densify(self, frame_count: int) -> np.ndarray:
        """Expand to a [T, C] bool matrix; overlapping intervals merge.

        `bool @ bool` is a logical product (any, not a count), so a caller
        that counts co-occurring frames casts to an integer type first.
        """
        dense = np.zeros((frame_count, self.class_count), dtype=bool)
        for class_id, start, end in self.intervals:
            if not 0 <= class_id < self.class_count:
                raise BoundsError(
                    f"video {self.video_id!r}: class {class_id} outside [0, {self.class_count})"
                )
            if not 0 <= start <= end < frame_count:
                raise BoundsError(
                    f"video {self.video_id!r}: interval [{start}, {end}] outside [0, {frame_count})"
                )
            dense[start:end + 1, class_id] = True
        return dense

    def min_frame_count(self) -> int:
        return max((end + 1 for _, _, end in self.intervals), default=0)


@dataclass
class AttributeMap:
    """Which attributes each action class involves."""

    class_to_attributes: list     # C lists of attribute indices
    attribute_count: int

    def __post_init__(self):
        for c, attrs in enumerate(self.class_to_attributes):
            if len(attrs) == 0:
                raise ValidationError(f"class {c} maps to no attributes")
            for a in attrs:
                if not 0 <= a < self.attribute_count:
                    raise BoundsError(
                        f"class {c}: attribute {a} outside [0, {self.attribute_count})"
                    )
        self._incidence = np.zeros((self.class_count, self.attribute_count), dtype=np.float64)
        for c, attrs in enumerate(self.class_to_attributes):
            self._incidence[c, attrs] = 1.0
        self._incidence.flags.writeable = False

    @property
    def class_count(self) -> int:
        return len(self.class_to_attributes)

    def incidence(self) -> np.ndarray:
        """[C, N] 0/1 matrix of class -> attribute membership (read-only)."""
        return self._incidence

    def frame_attributes(self, dense_labels: np.ndarray) -> np.ndarray:
        """[T, N] bool: attribute active iff some active class involves it."""
        return (np.asarray(dense_labels) @ self._incidence) > 0


# ---------------------------------------------------------------------------
# binary file IO
# ---------------------------------------------------------------------------

def _write_matrix(path, magic: bytes, header: bytes, values: np.ndarray) -> None:
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(header)
        fh.write(payload)


def _read_exact(fh, count: int, what: str, path) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError(f"{path}: truncated {what}: expected {count} bytes, got {len(buf)}")
    return buf


def _check_magic(fh, magic: bytes, path) -> None:
    got = fh.read(4)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    (version,) = struct.unpack("<H", _read_exact(fh, 2, "version field", path))
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")


def _read_payload(fh, shape: tuple, path) -> np.ndarray:
    """The rest of the file as a float32 array of `shape`, which it must fill exactly."""
    expected = math.prod(shape) * 4
    payload = fh.read()
    if len(payload) != expected:
        raise FormatError(
            f"{path}: truncated payload: expected {expected} bytes for "
            f"{'x'.join(map(str, shape))} float32, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def write_feature_file(path, features: np.ndarray) -> None:
    features = np.asarray(features)
    t, d0 = features.shape
    _write_matrix(path, FEATURE_MAGIC, struct.pack("<HII", FORMAT_VERSION, t, d0), features)


def read_feature_header(path) -> tuple:
    """(frame_count, dim) from the file header without loading the payload."""
    with open(path, "rb") as fh:
        _check_magic(fh, FEATURE_MAGIC, path)
        t, d0 = struct.unpack("<II", _read_exact(fh, 8, "header", path))
    return t, d0


def read_feature_file(path, video_id: str | None = None) -> FeatureSequence:
    path = Path(path)
    with open(path, "rb") as fh:
        _check_magic(fh, FEATURE_MAGIC, path)
        t, d0 = struct.unpack("<II", _read_exact(fh, 8, "header", path))
        values = _read_payload(fh, (t, d0), path)
    return FeatureSequence(video_id=video_id or path.stem, features=values)


def write_anchor_file(path, anchors: AnchorSet) -> None:
    names = list(anchors.attribute_names) + list(anchors.prompt_templates)
    blob = b"".join(
        struct.pack("<I", len(raw)) + raw for raw in (s.encode("utf-8") for s in names)
    )
    n, p, d0 = anchors.anchors.shape
    header = struct.pack("<HIII", FORMAT_VERSION, n, p, d0) + blob
    _write_matrix(path, ANCHOR_MAGIC, header, anchors.anchors)


def read_anchor_file(path) -> AnchorSet:
    path = Path(path)
    with open(path, "rb") as fh:
        _check_magic(fh, ANCHOR_MAGIC, path)
        n, p, d0 = struct.unpack("<III", _read_exact(fh, 12, "header", path))
        strings = []
        for _ in range(n + p):
            (length,) = struct.unpack("<I", _read_exact(fh, 4, "name length", path))
            strings.append(_read_exact(fh, length, "name bytes", path).decode("utf-8"))
        vectors = _read_payload(fh, (n, p, d0), path)
    return AnchorSet(attribute_names=strings[:n], prompt_templates=strings[n:], anchors=vectors)


def write_score_file(path, scores: np.ndarray) -> None:
    scores = np.asarray(scores)
    t, c = scores.shape
    _write_matrix(path, SCORE_MAGIC, struct.pack("<HII", FORMAT_VERSION, t, c), scores)


def read_score_file(path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as fh:
        _check_magic(fh, SCORE_MAGIC, path)
        t, c = struct.unpack("<II", _read_exact(fh, 8, "header", path))
        return _read_payload(fh, (t, c), path)


# ---------------------------------------------------------------------------
# manifest / corpus index
# ---------------------------------------------------------------------------

@dataclass
class VideoEntry:
    video_id: str
    feature_path: Path
    labels: IntervalLabelSet
    split: str
    frame_count: int


@dataclass
class CorpusIndex:
    root: Path
    dim: int
    class_count: int
    anchors: AnchorSet
    attribute_map: AttributeMap
    videos: list

    def split(self, name: str) -> list:
        return [v for v in self.videos if v.split == name]

    def load_features(self, entry: VideoEntry) -> FeatureSequence:
        return read_feature_file(entry.feature_path, video_id=entry.video_id)


def _video_record(record, i: int, path: Path, class_count: int) -> tuple:
    """(video_id, features, split, label triples) of manifest video record i."""
    if not isinstance(record, dict):
        raise CorpusError(f"{path}: video record {i} is not an object")
    vid, features, split = record.get("video_id"), record.get("features"), record.get("split")
    if not (isinstance(vid, str) and isinstance(features, str) and isinstance(split, str)):
        raise CorpusError(f"{path}: video record {i} needs string video_id, features and split")
    labels = record.get("labels", [])
    # bools are ints to isinstance, so the types are compared exactly
    intervals = [tuple(iv) for iv in labels if isinstance(iv, list) and len(iv) == 3
                 and type(iv[0]) is type(iv[1]) is type(iv[2]) is int] \
        if isinstance(labels, list) else None
    if intervals is None or len(intervals) != len(labels):
        raise CorpusError(f"{path}: video {vid!r} labels must be [class, start, end] "
                          f"triples of integers")
    for c, start, end in intervals:
        if not 0 <= c < class_count:
            raise CorpusError(f"{path}: video {vid!r}: class {c} outside [0, {class_count})")
        if not 0 <= start <= end:
            raise CorpusError(f"{path}: video {vid!r}: interval [{start}, {end}] needs "
                              f"0 <= start <= end")
    return vid, features, split, intervals


def _read_attribute_map(path: Path) -> AttributeMap:
    """The class -> attribute map in attribute_map.json, its types checked."""
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorpusError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    names, classes = doc.get("attribute_names"), doc.get("class_to_attributes")
    if not isinstance(names, list):
        raise CorpusError(f"{path}: attribute_names must be a list, got {names!r}")
    # bools are ints to isinstance, so the types are compared exactly
    if not (isinstance(classes, list) and all(
            isinstance(attrs, list) and all(type(a) is int for a in attrs) for attrs in classes)):
        raise CorpusError(f"{path}: class_to_attributes must be a list of lists of "
                          f"integer attribute ids")
    try:
        return AttributeMap(class_to_attributes=classes, attribute_count=len(names))
    except (ValidationError, BoundsError) as exc:
        raise CorpusError(f"{path}: {exc}") from None


def read_manifest(path) -> CorpusIndex:
    """Parse and validate a corpus manifest; all referenced files must exist."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "aan-corpus":
        raise CorpusError(f"{path}: not an aan-corpus manifest")
    root = path.parent

    for key in ("dim", "class_count", "anchors", "attribute_map", "videos"):
        if key not in doc:
            raise CorpusError(f"{path}: missing manifest key {key!r}")
    for key in ("anchors", "attribute_map"):
        if not isinstance(doc[key], str):
            raise CorpusError(f"{path}: {key} must be a path string, got {doc[key]!r}")

    anchors_path = root / doc["anchors"]
    map_path = root / doc["attribute_map"]
    for p in (anchors_path, map_path):
        if not p.exists():
            raise FileNotFoundError(f"manifest references missing file: {p}")
    anchors = read_anchor_file(anchors_path)
    attribute_map = _read_attribute_map(map_path)

    for key in ("dim", "class_count"):
        if type(doc[key]) is not int or doc[key] < 1:
            raise CorpusError(f"{path}: {key} must be an integer >= 1, got {doc[key]!r}")
    dim, class_count = doc["dim"], doc["class_count"]
    if not isinstance(doc["videos"], list):
        raise CorpusError(f"{path}: videos must be a list of records")
    if anchors.dim != dim:
        raise CorpusError(
            f"{path}: anchor dim {anchors.dim} does not match corpus dim {dim}"
        )
    if attribute_map.class_count != class_count:
        raise CorpusError(
            f"{path}: attribute map covers {attribute_map.class_count} classes, "
            f"manifest declares {class_count}"
        )
    if attribute_map.attribute_count != anchors.attribute_count:
        raise CorpusError(f"{path}: attribute map and anchor set disagree on N")

    videos, seen = [], set()
    for i, record in enumerate(doc["videos"]):
        vid, features, split, intervals = _video_record(record, i, path, class_count)
        if vid in seen:
            raise CorpusError(f"{path}: duplicate video_id {vid!r}")
        seen.add(vid)
        fpath = root / features
        if not fpath.exists():
            raise FileNotFoundError(f"manifest references missing file: {fpath}")
        t, d0 = read_feature_header(fpath)
        if d0 != dim:
            raise CorpusError(
                f"{path}: video {vid!r} has dim {d0}, corpus declares {dim}"
            )
        labels = IntervalLabelSet(
            video_id=vid,
            class_count=class_count,
            intervals=intervals,
        )
        if labels.min_frame_count() > t:
            raise CorpusError(
                f"{path}: video {vid!r} labels reach frame {labels.min_frame_count() - 1} "
                f"but the file has only {t} frames"
            )
        videos.append(VideoEntry(vid, fpath, labels, split, t))

    if not any(v.split == "train" for v in videos):
        raise CorpusError(f"{path}: empty train split (training impossible)")
    return CorpusIndex(root, dim, class_count, anchors, attribute_map, videos)


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

PROMPT_TEMPLATES = [
    "a photo of a {}",
    "there is a {}",
    "an image of a {}",
    "a photo with a {}",
]


@dataclass
class SynthSpec:
    """Everything the generator needs; two equal specs give bitwise-equal corpora."""

    n_attributes: int = 8
    n_classes: int = 10
    dim: int = 32
    max_frames: int = 64
    video_count: int = 250
    noise_sigma: float = 0.1
    seed: int = 7
    train_fraction: float = 0.8
    gap_max: int = 2              # longest idle stretch between scenes

    def validate(self) -> None:
        if self.gap_max < 0:
            raise ValidationError("gap_max must be >= 0")
        if self.n_attributes < 2:
            raise ValidationError(f"need at least 2 attributes, got {self.n_attributes}")
        if self.n_classes < 2:
            raise ValidationError(f"need at least 2 classes, got {self.n_classes}")
        if self.dim < 2:
            raise ValidationError(f"need dim >= 2, got {self.dim}")
        if self.max_frames < 8:
            raise ValidationError(f"need max_frames >= 8, got {self.max_frames}")
        if self.video_count < 2:
            raise ValidationError(f"need at least 2 videos, got {self.video_count}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must be in (0, 1)")


@dataclass
class Scene:
    name: str
    classes: tuple
    prob: float
    twin_marker: int | None = None  # marker class placed on both sides


@dataclass
class PlantedStats:
    """Ground truth about the generator's sampling, for statistical checks."""

    scene_probs: dict
    scene_classes: dict
    pair_rates: dict              # (i, j) -> expected P(class j | class i) per frame


@dataclass
class SyntheticCorpus:
    spec: SynthSpec
    anchors: AnchorSet
    attribute_map: AttributeMap
    features: list                # of FeatureSequence
    labels: list                  # of IntervalLabelSet
    splits: dict                  # video_id -> split tag
    planted: PlantedStats


def _structured_layout(n_attributes: int, n_classes: int):
    """Class/attribute roles for the relational task.

    Classes 0 and 1 share attribute 0 ("twins") and are distinguishable only
    from the marker classes 2 / 3 planted in the neighbouring segments.
    Class 4 is positive exactly for attribute patterns {3} and {3,4,5} and
    negative for {3,4} and {3,5}: no linear scorer over attribute presence
    can rank all its positives above its negatives.  Remaining classes are
    directly detectable.
    """
    classes = [
        [0],        # twin a
        [0],        # twin b
        [1],        # marker for twin a
        [2],        # marker for twin b
        [3],        # xor target
        [4, 5],
        [3, 4],
        [3, 5],
        [6],
        [7],
    ]
    for extra in range(10, n_classes):
        classes.append([1 + (extra - 10) % (n_attributes - 1)])

    scenes = [
        Scene("twin_a", (0,), 0.14, twin_marker=2),
        Scene("twin_b", (1,), 0.14, twin_marker=3),
        Scene("xor_solo", (4,), 0.08),
        Scene("xor_joint", (4, 5), 0.10),
        Scene("pair_uv", (5,), 0.08),
        Scene("conf_mu", (6,), 0.10),
        Scene("conf_mv", (7,), 0.10),
        Scene("easy_a", (8,), 0.09),
        Scene("easy_b", (9,), 0.09),
        Scene("easy_ab", (8, 9), 0.08),
    ]
    extras = n_classes - 10
    if extras > 0:
        # 0.04 each, capped at half the scene mass in total so base scenes keep the rest
        each = min(0.04, 0.5 / extras)
        scale = (1.0 - each * extras) / sum(s.prob for s in scenes)
        scenes = [Scene(s.name, s.classes, s.prob * scale, s.twin_marker) for s in scenes]
        scenes += [Scene(f"extra_{c}", (c,), each) for c in range(10, n_classes)]
    return classes, scenes


def _generic_layout(n_attributes: int, n_classes: int):
    """Fallback roles for small corpora: solos plus enforced pairs."""
    classes = [[c % n_attributes] for c in range(n_classes)]
    pair_count = n_classes // 2
    solo_mass, pair_mass = (0.7, 0.3) if pair_count else (1.0, 0.0)
    scenes = [
        Scene(f"solo_{c}", (c,), solo_mass / n_classes) for c in range(n_classes)
    ]
    scenes += [
        Scene(f"pair_{i}", (2 * i, 2 * i + 1), pair_mass / pair_count)
        for i in range(pair_count)
    ]
    return classes, scenes


def _expected_pair_rates(scenes: list) -> dict:
    """Expected frame-level P(j active | i active) for all co-planted pairs.

    All non-twin scenes share the same segment-length distribution, so the
    frame-level conditional equals the scene-probability ratio.
    """
    rates = {}
    mass = {}
    joint = {}
    for s in scenes:
        if s.twin_marker is not None:
            continue
        for i in s.classes:
            mass[i] = mass.get(i, 0.0) + s.prob
            for j in s.classes:
                if i != j:
                    joint[(i, j)] = joint.get((i, j), 0.0) + s.prob
    for (i, j), p in joint.items():
        rates[(i, j)] = p / mass[i]
    return rates


def generate_synthetic_corpus(spec: SynthSpec) -> SyntheticCorpus:
    """Build a seeded corpus whose actions are defined by attribute mixtures.

    A frame's feature is the sum of the anchors of all attributes active at
    that frame plus isotropic Gaussian noise, so recovering the attribute
    mixture is exactly the information needed to detect the actions.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    if spec.n_attributes >= 8 and spec.n_classes >= 10:
        class_attrs, scenes = _structured_layout(spec.n_attributes, spec.n_classes)
    else:
        class_attrs, scenes = _generic_layout(spec.n_attributes, spec.n_classes)
    attribute_map = AttributeMap(class_to_attributes=class_attrs,
                                 attribute_count=spec.n_attributes)
    probs = np.array([s.prob for s in scenes])
    probs = probs / probs.sum()

    # anchors: random unit vectors, rounded to the storage precision up front
    # so that noiseless features reproduce them bit for bit
    base = rng.standard_normal((spec.n_attributes, spec.dim))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    base = base.astype(np.float32)
    names = [f"object_{i:02d}" for i in range(spec.n_attributes)]
    templates = list(PROMPT_TEMPLATES)
    variants = np.empty((spec.n_attributes, len(templates), spec.dim), dtype=np.float32)
    variants[:, 0] = base
    for p in range(1, len(templates)):
        jitter = base.astype(np.float64) + 0.03 * rng.standard_normal(base.shape)
        jitter /= np.linalg.norm(jitter, axis=1, keepdims=True)
        variants[:, p] = jitter.astype(np.float32)
    anchors = AnchorSet(attribute_names=names, prompt_templates=templates, anchors=variants)

    features, labels, splits = [], [], {}
    train_count = int(round(spec.video_count * spec.train_fraction))
    base64 = base.astype(np.float64)

    for v in range(spec.video_count):
        video_id = f"vid_{v:04d}"
        t_total = int(rng.integers(spec.max_frames // 2, spec.max_frames + 1))
        intervals = []
        t = 0
        while True:
            t += int(rng.integers(0, spec.gap_max + 1))  # background gap
            if t >= t_total:
                break
            scene = scenes[int(rng.choice(len(scenes), p=probs))]
            if scene.twin_marker is not None:
                lm1 = int(rng.integers(2, 4))
                lc = int(rng.integers(2, 5))
                lm2 = int(rng.integers(2, 4))
                if t + lm1 + lc + lm2 > t_total:
                    break
                intervals.append((scene.twin_marker, t, t + lm1 - 1))
                core = scene.classes[0]
                intervals.append((core, t + lm1, t + lm1 + lc - 1))
                intervals.append((scene.twin_marker, t + lm1 + lc, t + lm1 + lc + lm2 - 1))
                t += lm1 + lc + lm2
            else:
                length = int(rng.integers(3, 7))
                end = min(t + length, t_total) - 1
                for c in scene.classes:
                    intervals.append((c, t, end))
                t = end + 1

        label_set = IntervalLabelSet(video_id, spec.n_classes, intervals)
        dense = label_set.densify(t_total)
        active = attribute_map.frame_attributes(dense)
        frame = active.astype(np.float64) @ base64
        if spec.noise_sigma > 0:
            frame = frame + spec.noise_sigma * rng.standard_normal(frame.shape)
        features.append(FeatureSequence(video_id, frame.astype(np.float32)))
        labels.append(label_set)
        splits[video_id] = "train" if v < train_count else "val"

    planted = PlantedStats(
        scene_probs={s.name: float(p) for s, p in zip(scenes, probs)},
        scene_classes={s.name: s.classes for s in scenes},
        pair_rates=_expected_pair_rates(scenes),
    )
    return SyntheticCorpus(spec, anchors, attribute_map, features, labels, splits, planted)


def write_corpus(corpus: SyntheticCorpus, out_dir) -> Path:
    """Write a corpus directory; returns the manifest path."""
    out = Path(out_dir)
    (out / "features").mkdir(parents=True, exist_ok=True)
    write_anchor_file(out / "anchors.aant", corpus.anchors)
    (out / "attribute_map.json").write_text(json.dumps({
        "attribute_names": corpus.anchors.attribute_names,
        "class_to_attributes": corpus.attribute_map.class_to_attributes,
    }, indent=2) + "\n")

    records = []
    for fs, ls in zip(corpus.features, corpus.labels):
        rel = f"features/{fs.video_id}.aanf"
        write_feature_file(out / rel, fs.features)
        records.append({
            "video_id": fs.video_id,
            "features": rel,
            "split": corpus.splits[fs.video_id],
            "labels": [list(iv) for iv in ls.intervals],
        })

    manifest = {
        "format": "aan-corpus",
        "version": 1,
        "dim": int(corpus.spec.dim),
        "class_count": int(corpus.spec.n_classes),
        "anchors": "anchors.aant",
        "attribute_map": "attribute_map.json",
        "videos": records,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def check_all_frames(mask, frame_count: int) -> None:
    """Raise unless `mask` is None or all-True [T]: every frame is used.  Kept
    only while the benchmark passes masks; it goes with them (ROADMAP item 2)."""
    if mask is not None and not np.array_equal(mask, np.ones(frame_count, dtype=bool)):
        raise ValueError(f"frame masks are not supported: every one of the {frame_count} "
                         "frames is used, so only None or an all-True mask is accepted")


@dataclass
class LoadedVideo:
    """A video, or a training crop of one: float features and [T, C] bool
    labels (a crop's are views of its source's)."""

    video_id: str
    features: np.ndarray          # [T, D0] float
    labels: np.ndarray            # [T, C] bool, as densify makes them
    frame_mask: InitVar[np.ndarray | None] = None   # see check_all_frames

    def __post_init__(self, frame_mask):
        check_all_frames(frame_mask, self.features.shape[0])

    @property
    def mask(self) -> np.ndarray:
        """[T] all-True, for `VideoEval` and the benchmark: every frame is real."""
        return np.ones(self.features.shape[0], dtype=bool)


def load_split(index: CorpusIndex, split: str, dtype=np.float64) -> list:
    """Materialize every video of a split in manifest order.

    `dtype` applies to the features only; labels stay the bool [T, C]
    arrays densify makes, and the loss casts them per video.
    """
    out = []
    for entry in index.split(split):
        fs = index.load_features(entry)
        out.append(LoadedVideo(
            video_id=entry.video_id,
            features=fs.features.astype(dtype),
            labels=entry.labels.densify(fs.frame_count),
        ))
    return out


def make_batches(videos: list, batch_size: int, max_frames: int | None = None,
                 seed: int = 0, epoch: int = 0) -> list:
    """Shuffled, cropped training batches: lists of unpadded LoadedVideo views.

    The order is a permutation drawn from (seed, epoch); a video longer than
    max_frames is cropped to max_frames frames at a start drawn from
    (seed, epoch, video_id).  A crop slices its source's arrays and a video
    that fits is passed as is, so nothing is copied.  Every video appears
    exactly once.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng([seed, epoch, 0x0BA7C4])
    views = []
    for i in rng.permutation(len(videos)):
        v = videos[i]
        t = v.features.shape[0]
        if max_frames is not None and t > max_frames:
            a = stable_index((seed, epoch, v.video_id, "crop"), t - max_frames + 1)
            v = LoadedVideo(v.video_id, v.features[a:a + max_frames],
                            v.labels[a:a + max_frames])
        views.append(v)
    return [views[lo:lo + batch_size] for lo in range(0, len(views), batch_size)]
