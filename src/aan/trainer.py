"""End-to-end optimization: epochs, plateau schedule, checkpoints, evaluation.

Training is a pure function of (corpus bytes, config): batch order, crops
and prompt draws derive from (seed, epoch), so two runs agree bitwise in
float64 mode and a resumed run continues exactly where the uninterrupted
one would have been.  Epoch log records contain only deterministic fields;
wall-clock timing is reported separately.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as tn
from .attributes import select_anchor_prompt
from .data import CorpusIndex, LoadedVideo, load_split, make_batches
from .graph import (
    CoOccurrencePrior,
    ForwardResult,
    Hyperparameters,
    ModelConfig,
    ModelState,
    SchedulerState,
    config_from_dict,
    config_values,
    forward,
    init_model_state,
    prior_from_dense,
    total_loss,
)
from .metrics import EvalRun, VideoEval, per_frame_map
from .optim import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, AdamState, adam_step,
                    clip_global_norm, zero_grads)

CHECKPOINT_MAGIC = b"AANC"
CHECKPOINT_VERSION = 1
# written into every header, which may hold these values only
_ADAM_CONSTANTS = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "epsilon": ADAM_EPSILON}


class CheckpointError(ValueError):
    """A checkpoint file is malformed or incompatible with expectations."""


class NonFiniteLossError(RuntimeError):
    """A batch produced a non-finite loss; training must abort."""


@dataclass
class TrainConfig(Hyperparameters):
    """Everything a training run depends on besides the corpus itself."""

    learning_rate: float = 1e-4
    batch_size: int = 32
    plateau_factor: float = 0.5
    plateau_patience: int = 8
    max_epochs: int = 50
    seed: int = 0
    max_frames: int | None = None
    grad_clip: float | None = None

    def validate(self) -> None:
        super().validate()
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError("plateau_factor must be in (0, 1)")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        least = 1 if self.ablation == "linear" else 2   # batch norm needs two frames
        if self.max_frames is not None and self.max_frames < least:
            raise ValueError(f"max_frames must be >= {least} for ablation {self.ablation!r}, "
                             f"got {self.max_frames}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive when set, got {self.grad_clip}")

    def model_config(self, input_dim: int, n_attributes: int, n_classes: int) -> ModelConfig:
        hyper = {f.name: getattr(self, f.name) for f in fields(Hyperparameters)}
        cfg = ModelConfig(input_dim=input_dim, n_attributes=n_attributes,
                          n_classes=n_classes, **hyper)
        cfg.validate()
        return cfg

    @classmethod
    def desk_profile(cls, **overrides) -> "TrainConfig":
        """Laptop-scale defaults: small dims, short videos, quick epochs."""
        values = dict(hidden_dim=16, n_blocks=2, n_heads=4, batch_size=8,
                      max_frames=64, learning_rate=5e-3)
        values.update(overrides)
        return cls(**values)

    @classmethod
    def paper_profile(cls, **overrides) -> "TrainConfig":
        """Published operating point (needs external 768-d features): the defaults."""
        return cls(**overrides)

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """A config document's values, type-checked, over the profile it may
        name (`"profile": "desk"|"paper"`)."""
        values = config_values(cls, doc, ignored=("profile",))
        profile = doc.get("profile")
        if profile == "desk":
            return cls.desk_profile(**values)
        if profile == "paper":
            return cls.paper_profile(**values)
        if profile is not None:
            raise ValueError(f"unknown profile {profile!r}")
        return cls(**values)


# ---------------------------------------------------------------------------
# plateau schedule
# ---------------------------------------------------------------------------

IMPROVEMENT_EPS = 1e-6


class PlateauScheduler:
    """Multiply the rate by `factor` after `patience` epochs without improvement."""

    def __init__(self, adam: AdamState, state: SchedulerState,
                 factor: float = 0.5, patience: int = 8):
        self.adam = adam
        self.state = state
        self.factor = factor
        self.patience = patience

    def step(self, value: float) -> bool:
        """Record one validation loss; True when it improves on the best by
        more than IMPROVEMENT_EPS, the rule that also keeps best.ckpt."""
        if value < self.state.best_value - IMPROVEMENT_EPS:
            self.state.best_value = value
            self.state.num_bad_epochs = 0
            return True
        self.state.num_bad_epochs += 1
        if self.state.num_bad_epochs >= self.patience:
            self.adam.learning_rate *= self.factor
            self.state.num_bad_epochs = 0
        return False


def plateau_scheduler(history, learning_rate: float, factor: float = 0.5,
                      patience: int = 8) -> float:
    """Replay a validation-loss history through the plateau rule."""
    adam = AdamState(learning_rate=learning_rate)
    sched = PlateauScheduler(adam, SchedulerState(), factor=factor, patience=patience)
    for value in history:
        sched.step(value)
    return adam.learning_rate


# ---------------------------------------------------------------------------
# epochs
# ---------------------------------------------------------------------------

@dataclass
class EpochReport:
    epoch: int
    mode: str
    mean_total: float
    mean_action: float
    mean_attribute: float
    video_count: int
    learning_rate: float
    mean_ap: float | None = None  # val only; the epoch record logs it as val_map
    duration_s: float = 0.0       # excluded from determinism comparisons

    def log_record(self) -> dict:
        """Deterministic fields only (what goes into the epoch log)."""
        return {
            "epoch": self.epoch,
            "mode": self.mode,
            "mean_total": self.mean_total,
            "mean_action": self.mean_action,
            "mean_attribute": self.mean_attribute,
            "video_count": self.video_count,
            "learning_rate": self.learning_rate,
        }


@dataclass
class LoadedCorpus:
    train: list
    val: list
    anchors: object
    attribute_map: object


def load_corpus(index: CorpusIndex, dtype=np.float64) -> LoadedCorpus:
    return LoadedCorpus(
        train=load_split(index, "train", dtype=dtype),
        val=load_split(index, "val", dtype=dtype),
        anchors=index.anchors,
        attribute_map=index.attribute_map,
    )


def _video_loss(result, state: ModelState, anchors, config: TrainConfig, mode: str,
                epoch: int, video: LoadedVideo, rows: slice = slice(None)):
    """The loss of `result`, the forward of `video`'s frames `rows`."""
    selected = select_anchor_prompt(anchors, mode, config.seed, epoch, video.video_id) \
        if state.config.ablation != "linear" else None
    return total_loss(result, video.labels[rows], selected,
                      attribute_weight=state.config.attribute_weight,
                      normalize_anchors=state.config.normalize_anchors)


def run_epoch(state: ModelState, corpus: LoadedCorpus, config: TrainConfig,
              mode: str) -> EpochReport:
    """One pass over a split: optimize on shuffled, cropped train batches; on
    val, score each whole video.  Both forward each video alone, unpadded.

    Val forwards a video in chunks of EVAL_CHUNK frames (eval_forward):
    frames [a, b) come from a forward over [a - h, b + h), clipped to the
    video, with h = n_blocks * (kernel_size // 2) (eval_halo), so its
    memory does not grow with the video.  A video's val loss is the sum
    over chunks of the chunk's loss times its frames / T: each loss term is
    a mean over frames, so that is the whole video's loss up to round-off,
    and for a video of one chunk it is that loss bitwise.

    A train batch runs one backward per video, of its loss times 1/B, as soon
    as that loss is computed; leaf gradients accumulate across the B graphs
    in batch order, which adds the same terms in the same order as one
    backward of the batch's mean loss, so every update is bitwise the same.
    At most two videos' graphs are alive at once (the previous one is freed
    when the next is built), whatever the batch size.  A non-finite loss
    raises before the batch's update, so no parameter or moment changes.
    """
    if mode not in ("train", "val"):
        raise ValueError(f"unknown epoch mode {mode!r}")
    videos = corpus.train if mode == "train" else corpus.val
    if not videos:
        raise ValueError(f"empty {mode} split")
    epoch = state.epoch
    started = time.perf_counter()
    losses, mean_ap = [], None    # losses: (total, action, attribute) per video

    if mode == "train":
        active = state.active_params()
        for batch in make_batches(videos, config.batch_size, max_frames=config.max_frames,
                                  seed=config.seed, epoch=epoch):
            zero_grads(active)
            for v in batch:
                # rebinding frees the previous video's graph only once this one is
                # built; a `del` here would let the allocator trim and re-fault
                # the heap top on every video
                result = forward(v.features, None, state, "train")
                b = _video_loss(result, state, corpus.anchors, config, "train", epoch, v)
                if not np.isfinite(b.total.data):
                    raise NonFiniteLossError(
                        f"non-finite loss {b.total.data} of video {v.video_id!r} in epoch "
                        f"{epoch} on videos {[u.video_id for u in batch]}"
                    )
                (b.total * (1.0 / len(batch))).backward()
                losses.append((b.total.item(), b.action, b.attribute))
            if config.grad_clip:
                clip_global_norm(active, config.grad_clip)
            adam_step(active, state.adam)
    else:
        scored = []
        for v in videos:
            t = v.features.shape[0]
            scores = np.empty((t, state.config.n_classes), state.config.np_dtype)
            total = action = attribute = 0.0     # total adds in the model dtype
            for rows, result in eval_forward(state, v.features):
                scores[rows] = tn.sigmoid(result.logits.data)
                b = _video_loss(result, state, corpus.anchors, config, "eval", epoch, v, rows)
                share = (rows.stop - rows.start) / t
                total += b.total.data * share
                action += b.action * share
                attribute += b.attribute * share
            losses.append((float(total), action, attribute))
            scored.append(VideoEval(v.video_id, scores, v.labels, v.mask))
        mean_ap = per_frame_map(EvalRun(scored)).mean_ap

    totals = actions = attributes = 0.0
    for total, action, attribute in losses:
        totals += total
        actions += action
        attributes += attribute
    count = len(losses)
    return EpochReport(
        epoch=epoch, mode=mode,
        mean_total=totals / count, mean_action=actions / count,
        mean_attribute=attributes / count, video_count=count,
        learning_rate=state.adam.learning_rate, mean_ap=mean_ap,
        duration_s=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# evaluation to score matrices
# ---------------------------------------------------------------------------

EVAL_CHUNK = 512
"""Frames of a video whose logits one eval forward yields."""

_HEAP_KEEP_BYTES = 16 << 20
"""Size of the untouched block eval_forward frees before a video of more
than one chunk.  glibc returns the free top of its heap to the system once
it exceeds twice the largest block it has unmapped so far, and a chunk's
forward frees its whole working set, so each chunk would fault its pages
in afresh (about 4,300 faults a chunk on eval-tsu).  Freeing one block of
this size raises that bound to 32 MiB.  No page of the block is touched,
so resident memory does not grow (tracemalloc still counts the block);
under another allocator it is a plain allocation and free."""


def eval_halo(config: ModelConfig) -> int:
    """Frames on each side that one frame's eval logits depend on.

    In eval mode every stage but the temporal conv works frame by frame
    (batch norm uses its running statistics, attention is per frame), and
    each block's conv reaches kernel_size // 2 frames each way."""
    if config.ablation != "full" or config.disable_temporal:
        return 0
    return config.n_blocks * (config.kernel_size // 2)


def eval_forward(state: ModelState, features: np.ndarray):
    """Yield (rows, result): the no-grad eval forward of one video [T, D0]
    in chunks, `result` holding the logits and attributes of frames `rows`
    as tensors outside any graph.

    Frames [a, b) have the logits of a forward over [a - h, b + h), clipped
    to the video, where h = eval_halo: at the video's ends the conv
    zero-pads as the whole-video forward does, and at a window's inner
    edges only frames within h of the edge see a cut neighbourhood.  Chunks
    hold EVAL_CHUNK frames, so memory does not grow with T; a video of at
    most EVAL_CHUNK frames is one forward over [0, T).
    """
    t = features.shape[0]
    h = eval_halo(state.config)
    if t > EVAL_CHUNK:
        np.empty(_HEAP_KEEP_BYTES, np.uint8)     # freed at once: see _HEAP_KEEP_BYTES
    for a in range(0, max(t, 1), EVAL_CHUNK):
        b = min(a + EVAL_CHUNK, t)
        lo = max(a - h, 0)
        # no_grad ends before the yield, so a caller that stops early or
        # raises does not leave graph building switched off
        with tn.no_grad():
            window = forward(features[lo:min(b + h, t)], None, state, "eval")
        core = slice(a - lo, b - lo)
        attributes = None if window.attributes is None else \
            tn.Tensor(window.attributes.data[core])
        yield slice(a, b), ForwardResult(tn.Tensor(window.logits.data[core]), attributes)


def predict_scores(state: ModelState, features: np.ndarray) -> np.ndarray:
    """Per-frame sigmoid class scores [T, C] for one video (eval mode).

    The video is forwarded in chunks of EVAL_CHUNK frames (eval_forward):
    the scores of frames [a, b) come from a forward over [a - h, b + h),
    clipped to the video, with h = n_blocks * (kernel_size // 2) (0 when no
    temporal conv runs), so they equal the whole-video forward's up to
    round-off, and bitwise for a video of at most EVAL_CHUNK frames."""
    scores = np.empty((features.shape[0], state.config.n_classes), state.config.np_dtype)
    for rows, result in eval_forward(state, features):
        scores[rows] = tn.sigmoid(result.logits.data)
    return scores


def evaluate(state: ModelState, videos: list) -> EvalRun:
    """Score a list of LoadedVideo into an EvalRun; read-only on the state."""
    return EvalRun([VideoEval(v.video_id, predict_scores(state, v.features),
                              v.labels, v.mask) for v in videos])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _tensor_entries(state: ModelState) -> list:
    """(name, kind, array) for everything a checkpoint must carry."""
    entries = [(name, "param", p.data) for name, p in state.params.items()]
    entries += [(name, "buffer", arr) for name, arr in state.buffers.items()]
    entries += [
        ("prior.probabilities", "prior", state.prior.probabilities),
        ("prior.counts", "prior", state.prior.counts),
        ("prior.totals", "prior", state.prior.totals),
    ]
    entries += [(name, "adam.m", arr) for name, arr in state.adam.first_moment.items()]
    entries += [(name, "adam.v", arr) for name, arr in state.adam.second_moment.items()]
    return entries


def save_checkpoint(state: ModelState, path) -> None:
    """Versioned binary container: JSON header plus raw tensor payloads.

    Written to a temporary file beside `path`, fsynced, then renamed over it,
    so a failed write leaves an earlier checkpoint at `path` intact.
    """
    entries = _tensor_entries(state)
    header = {
        "model_config": asdict(state.config),
        "epoch": state.epoch,
        "adam": {
            "learning_rate": state.adam.learning_rate, **_ADAM_CONSTANTS,
            "step_count": state.adam.step_count,
        },
        "scheduler": {
            "best_value": state.scheduler.best_value,
            "num_bad_epochs": state.scheduler.num_bad_epochs,
        },
        "tensors": [
            {"name": name, "kind": kind, "shape": list(arr.shape), "dtype": str(arr.dtype)}
            for name, kind, arr in entries
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<HQ", CHECKPOINT_VERSION, len(blob)))
            fh.write(blob)
            for _, _, arr in entries:
                fh.write(np.ascontiguousarray(arr).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _header_number(value, what: str, integer: bool = False):
    """A header value that must be an int (or, unless integer, a float)."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise TypeError(f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value


def _tensor_meta(meta) -> tuple:
    """(name, kind, shape, dtype) of one tensor entry, as save_checkpoint writes it."""
    name, kind, shape, dtype = meta["name"], meta["kind"], meta["shape"], meta["dtype"]
    if not (isinstance(name, str) and isinstance(kind, str)):
        raise TypeError(f"tensor name and kind must be strings, got {name!r} and {kind!r}")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise TypeError(f"tensor shape must be a list of non-negative integers, got {shape!r}")
    try:
        # np.dtype raises SyntaxError, not only TypeError, on some strings (",loat64")
        parsed = np.dtype(dtype) if isinstance(dtype, str) else None
    except (TypeError, ValueError, SyntaxError):
        parsed = None
    if parsed is None or parsed.kind not in "fi":
        raise TypeError(f"tensor dtype must name a float or integer type, got {dtype!r}")
    return name, kind, tuple(shape), parsed


def load_checkpoint(path) -> ModelState:
    path = Path(path)
    with open(path, "rb") as fh:
        prefix = fh.read(14)
        if len(prefix) < 14:
            raise CheckpointError(f"{path}: truncated header")
        magic = prefix[:4]
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        version, blob_len = struct.unpack("<HQ", prefix[4:])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        blob = fh.read(blob_len)
        if len(blob) < blob_len:
            raise CheckpointError(f"{path}: truncated header")
        payload = fh.read()

    try:
        header = json.loads(blob.decode("utf-8"))
        if not isinstance(header, dict):
            raise TypeError(f"expected a JSON object, got {type(header).__name__}")
        config = config_from_dict(header["model_config"])
        tensors = [_tensor_meta(meta) for meta in header["tensors"]]
        adam_doc = {key: _header_number(header["adam"][key], f"adam.{key}",
                                        integer=key == "step_count")
                    for key in ("learning_rate", "beta1", "beta2", "epsilon", "step_count")}
        for key, value in _ADAM_CONSTANTS.items():
            if adam_doc[key] != value:
                raise ValueError(f"adam.{key} must be {value!r}, got {adam_doc[key]!r}")
        scheduler = SchedulerState(
            best_value=_header_number(header["scheduler"]["best_value"], "scheduler.best_value"),
            num_bad_epochs=_header_number(header["scheduler"]["num_bad_epochs"],
                                          "scheduler.num_bad_epochs", integer=True))
        epoch = _header_number(header["epoch"], "epoch", integer=True)
    except KeyError as exc:
        raise CheckpointError(f"{path}: malformed header: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header: {exc}") from None

    arrays, offset = {}, 0
    for name, kind, shape, dtype in tensors:
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        raw = payload[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError(f"{path}: truncated payload at tensor {name!r}")
        arrays[(kind, name)] = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} trailing bytes")
    prior_names = ("probabilities", "counts", "totals")
    missing = [f"prior.{n}" for n in prior_names if ("prior", f"prior.{n}") not in arrays]
    if missing:
        raise CheckpointError(f"{path}: incompatible tensors: missing {missing}")

    # rebuild a skeleton with the right shapes, then validate and fill
    skeleton = init_model_state(
        config,
        CoOccurrencePrior(*(arrays[("prior", f"prior.{n}")] for n in prior_names)),
        seed=0,
        learning_rate=adam_doc["learning_rate"],
    )
    mismatches = []
    for name, p in skeleton.params.items():
        stored = arrays.get(("param", name))
        if stored is None or stored.shape != p.data.shape:
            mismatches.append(f"{name}: expected {p.data.shape}, "
                              f"got {None if stored is None else stored.shape}")
        else:
            p.data = stored
    for name in skeleton.buffers:
        stored = arrays.get(("buffer", name))
        if stored is None or stored.shape != skeleton.buffers[name].shape:
            mismatches.append(f"{name}: buffer missing or misshaped")
        else:
            skeleton.buffers[name] = stored
    if mismatches:
        raise CheckpointError(f"{path}: incompatible tensors: " + "; ".join(mismatches))

    adam = skeleton.adam
    adam.step_count = adam_doc["step_count"]
    for name in list(adam.first_moment):
        m = arrays.get(("adam.m", name))
        v = arrays.get(("adam.v", name))
        if m is not None:
            adam.first_moment[name] = m
        if v is not None:
            adam.second_moment[name] = v
    skeleton.scheduler = scheduler
    skeleton.epoch = epoch
    return skeleton


def state_hash(state: ModelState) -> str:
    """Digest of all parameters and buffers (used to prove non-mutation)."""
    digest = hashlib.blake2b(digest_size=16)
    for name in sorted(state.params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state.params[name].data).tobytes())
    for name in sorted(state.buffers):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state.buffers[name]).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# full training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    state: ModelState
    history: list                 # of dict epoch records
    best_val_loss: float
    best_val_map: float | None
    best_epoch: int


def train(index_or_corpus, config: TrainConfig, out_dir=None,
          state: ModelState | None = None, quiet: bool = True) -> TrainResult:
    """Train to max_epochs, tracking validation loss/mAP every epoch.

    Pass a previously loaded ModelState to resume: epochs continue from
    state.epoch with identical batch order, crops and prompt draws as the
    uninterrupted run.
    """
    config.validate()
    corpus = index_or_corpus
    if isinstance(index_or_corpus, CorpusIndex):
        corpus = load_corpus(index_or_corpus, dtype=config.np_dtype)
    if not corpus.train:
        raise ValueError("empty train split")
    if not corpus.val:
        raise ValueError("empty val split")

    dims = corpus.train[0]
    if state is None:
        model_config = config.model_config(
            input_dim=dims.features.shape[1],
            n_attributes=corpus.anchors.attribute_count,
            n_classes=dims.labels.shape[1],
        )
        prior = prior_from_dense([v.labels for v in corpus.train], corpus.attribute_map,
                                 corpus.anchors.attribute_count)
        state = init_model_state(model_config, prior, seed=config.seed,
                                 learning_rate=config.learning_rate)
    short = [v.video_id for v in corpus.train if v.features.shape[0] < 2]
    if short and state.config.ablation != "linear" and state.config.use_batch_norm:
        raise ValueError(f"train video {short[0]!r} has fewer than 2 frames; batch norm "
                         f"(ablation {state.config.ablation!r}) needs 2 in every train video")

    scheduler = PlateauScheduler(state.adam, state.scheduler,
                                 factor=config.plateau_factor,
                                 patience=config.plateau_patience)

    out = Path(out_dir) if out_dir is not None else None
    log_path = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        log_path = out / "train_log.jsonl"

    history = []
    best_val_map = None
    best_epoch = -1

    for epoch in range(state.epoch, config.max_epochs):
        train_report = run_epoch(state, corpus, config, "train")
        val_report = run_epoch(state, corpus, config, "val")
        val_map = val_report.mean_ap
        improved = scheduler.step(val_report.mean_total)
        new_lr = state.adam.learning_rate
        state.epoch = epoch + 1

        record = {
            "epoch": epoch,
            "train": train_report.log_record(),
            "val": val_report.log_record(),
            "val_map": val_map,
            "learning_rate": new_lr,
        }
        history.append(record)
        if log_path is not None:
            with open(log_path, "a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        if not quiet:
            print(f"epoch {epoch:4d}  train {train_report.mean_total:.4f}  "
                  f"val {val_report.mean_total:.4f}  mAP {val_map if val_map is None else round(val_map, 4)}  "
                  f"lr {new_lr:g}  ({train_report.duration_s:.1f}s)")

        if improved:
            best_val_map = val_map
            best_epoch = epoch
            if out is not None:
                save_checkpoint(state, out / "best.ckpt")

    if out is not None:
        save_checkpoint(state, out / "final.ckpt")
        if not (out / "best.ckpt").exists():
            # a resumed run may never beat the inherited best; still leave a
            # usable best checkpoint behind
            save_checkpoint(state, out / "best.ckpt")
    return TrainResult(state=state, history=history, best_val_loss=state.scheduler.best_value,
                       best_val_map=best_val_map, best_epoch=best_epoch)

