"""Prior-guided graph reasoning over attribute nodes and the model state.

A frame is a graph whose nodes are the extracted attribute features.  Each
reasoning block computes a per-frame, per-head attention adjacency, adds the
global co-occurrence prior, propagates node features with a residual graph
convolution, then mixes information across neighbouring frames with a
depthwise temporal convolution wrapped in channel mixes (again residual).
Attention runs heads-major, on [H, T, N, Dh], so each per-head weight is one
GEMM over all T*N rows of its head.
Node features are mean-pooled per frame and classified with a shared linear
head into per-class logits.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from .attributes import extract_attributes
from .data import AttributeMap, check_all_frames
from .optim import AdamState
from .tensor import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNormState,
    ConfigurationError,
    DimensionError,
    Tensor,
    affine,
    bce_with_logits,
    depthwise_temporal_conv,
    make_batch_norm_state,
    mean_pool_nodes,
    mse_to_anchor,
    softmax_lastaxis,
)

ABLATIONS = ("full", "extractor-only", "linear")


# ---------------------------------------------------------------------------
# co-occurrence prior
# ---------------------------------------------------------------------------

@dataclass
class CoOccurrencePrior:
    """Frame-level conditional co-occurrence of attributes in training labels."""

    probabilities: np.ndarray     # [N, N], P[i, j] = P(j active | i active)
    counts: np.ndarray            # [N, N] joint frame counts
    totals: np.ndarray            # [N] per-attribute frame counts

    @property
    def attribute_count(self) -> int:
        return self.totals.shape[0]


def build_prior(label_sets: list, attribute_map: AttributeMap, n_attributes: int,
                frame_counts: list) -> CoOccurrencePrior:
    """Count frame-level attribute co-occurrence over interval label sets,
    densifying one video at a time to its frame count (see prior_from_dense)."""
    dense = (ls.densify(t) for ls, t in zip(label_sets, frame_counts) if t > 0)
    return prior_from_dense(dense, attribute_map, n_attributes)


def prior_from_dense(dense_labels, attribute_map: AttributeMap,
                     n_attributes: int) -> CoOccurrencePrior:
    """Count frame-level attribute co-occurrence over dense [T, C] label matrices.

    An attribute is active at a frame iff some active class involves it.
    Rows of attributes that never occur are all zero.
    """
    if attribute_map.attribute_count != n_attributes:
        raise DimensionError(
            f"attribute map covers {attribute_map.attribute_count} attributes, expected {n_attributes}"
        )
    counts = np.zeros((n_attributes, n_attributes), dtype=np.int64)
    for dense in dense_labels:
        active = attribute_map.frame_attributes(dense).astype(np.int64)
        counts += active.T @ active
    totals = np.diag(counts).copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(totals[:, None] > 0, counts / totals[:, None], 0.0)
    return CoOccurrencePrior(probabilities=probs, counts=counts, totals=totals)


# ---------------------------------------------------------------------------
# configuration and state
# ---------------------------------------------------------------------------

@dataclass
class Hyperparameters:
    """The model's hyperparameters, each declared here once with its default.

    The defaults are the published operating point."""

    hidden_dim: int = 256         # D1
    n_blocks: int = 5             # L
    n_heads: int = 4              # H
    kernel_size: int = 3
    attribute_weight: float = 1.0
    normalize_anchors: bool = False
    ablation: str = "full"
    disable_attention: bool = False
    disable_temporal: bool = False
    dtype: str = "float64"

    def validate(self) -> None:
        if self.ablation not in ABLATIONS:
            raise ConfigurationError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")
        for name in ("hidden_dim", "n_blocks", "n_heads"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.hidden_dim % self.n_heads != 0:
            raise ConfigurationError(
                f"hidden_dim {self.hidden_dim} must be divisible by n_heads {self.n_heads}"
            )
        if self.kernel_size % 2 == 0:
            raise ConfigurationError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.dtype not in ("float64", "float32"):
            raise ConfigurationError(f"dtype must be float64 or float32, got {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


@dataclass(kw_only=True)
class ModelConfig(Hyperparameters):
    """The hyperparameters plus the dimensions the model takes from its corpus."""

    n_attributes: int
    n_classes: int
    input_dim: int                # D0
    use_batch_norm: bool = True

    def validate(self) -> None:
        for name in ("n_attributes", "n_classes", "input_dim"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        super().validate()


@dataclass
class SchedulerState:
    best_value: float = float("inf")
    num_bad_epochs: int = 0


@dataclass
class ModelState:
    """All learnable parameters, buffers, prior, optimizer and schedule state."""

    config: ModelConfig
    params: dict                  # name -> Tensor (learnable)
    buffers: dict                 # name -> np.ndarray (running statistics)
    prior: CoOccurrencePrior
    adam: AdamState
    scheduler: SchedulerState = field(default_factory=SchedulerState)
    epoch: int = 0

    def active_param_names(self) -> list:
        """Parameters the configured wiring reads; the only ones a state holds."""
        cfg = self.config
        if cfg.ablation == "linear":
            return ["linear.weight", "linear.bias"]
        names = ["extractor.weight"]
        if cfg.use_batch_norm:
            names += ["extractor.bn.gain", "extractor.bn.bias"]
        names += ["bottleneck.weight", "classifier.weight", "classifier.bias"]
        if cfg.ablation == "full":
            for i in range(cfg.n_blocks):
                if not cfg.disable_attention:
                    names += [f"blocks.{i}.attn.w1", f"blocks.{i}.attn.w2", f"blocks.{i}.attn.w3"]
                if not cfg.disable_temporal:
                    names += [f"blocks.{i}.mix.w4", f"blocks.{i}.mix.kernel", f"blocks.{i}.mix.w5",
                              f"blocks.{i}.mix.b4", f"blocks.{i}.mix.b5"]
        return names

    def active_params(self) -> dict:
        return self.params


def init_model_state(config: ModelConfig, prior: CoOccurrencePrior, seed: int,
                     learning_rate: float = 1e-4) -> ModelState:
    """Build a freshly initialized model.

    Linear weights draw from a uniform fan-in scheme; biases start at zero;
    temporal kernels start as a near-identity impulse so early training
    behaves like per-frame classification.  Every wiring draws the same
    tensors in the same order, so a kept tensor does not depend on the
    wiring; only those the wiring reads are kept.
    """
    config.validate()
    if prior.attribute_count != config.n_attributes:
        raise DimensionError(
            f"prior covers {prior.attribute_count} attributes, model expects {config.n_attributes}"
        )
    rng = np.random.default_rng(seed)
    dt = config.np_dtype

    def fan_in(shape, fan):
        bound = 1.0 / np.sqrt(fan)
        return Tensor(rng.uniform(-bound, bound, shape).astype(dt, copy=False), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dt), requires_grad=True)

    d0, d1, h, dh = config.input_dim, config.hidden_dim, config.n_heads, config.head_dim
    params: dict = {"extractor.weight": fan_in((config.n_attributes, d0, d0), d0)}
    buffers: dict = {}
    if config.use_batch_norm:
        bn = make_batch_norm_state(config.n_attributes * d0, dtype=dt)
        params["extractor.bn.gain"], params["extractor.bn.bias"] = bn.gain, bn.bias
        buffers["extractor.bn.running_mean"] = bn.running_mean
        buffers["extractor.bn.running_var"] = bn.running_var
    params["bottleneck.weight"] = fan_in((d0, d1), d0)
    for i in range(config.n_blocks):
        params[f"blocks.{i}.attn.w1"] = fan_in((h, dh, dh), dh)
        params[f"blocks.{i}.attn.w2"] = fan_in((h, dh, dh), dh)
        params[f"blocks.{i}.attn.w3"] = fan_in((h, dh, dh), dh)
        params[f"blocks.{i}.mix.w4"] = fan_in((d1, d1), d1)
        params[f"blocks.{i}.mix.b4"] = zeros(d1)
        kernel = np.zeros((d1, config.kernel_size), dtype=dt)
        kernel[:, config.kernel_size // 2] = 1.0
        kernel += 0.01 * rng.standard_normal(kernel.shape).astype(dt)
        params[f"blocks.{i}.mix.kernel"] = Tensor(kernel, requires_grad=True)
        params[f"blocks.{i}.mix.w5"] = fan_in((d1, d1), d1)
        params[f"blocks.{i}.mix.b5"] = zeros(d1)
    params["classifier.weight"] = fan_in((d1, config.n_classes), d1)
    params["classifier.bias"] = zeros(config.n_classes)
    params["linear.weight"] = fan_in((d0, config.n_classes), d0)
    params["linear.bias"] = zeros(config.n_classes)

    state = ModelState(config=config, params=params, buffers=buffers, prior=prior, adam=None)
    state.params = {name: params[name] for name in state.active_param_names()}
    if config.ablation == "linear":
        state.buffers = {}
    state.adam = AdamState.for_params(state.params, learning_rate=learning_rate)
    return state


def clone_state(state: ModelState) -> ModelState:
    """Independent deep copy (parameters, buffers, prior, optimizer, schedule)."""
    import copy

    params = {k: Tensor(v.data.copy(), requires_grad=v.requires_grad)
              for k, v in state.params.items()}
    buffers = {k: v.copy() for k, v in state.buffers.items()}
    prior = CoOccurrencePrior(state.prior.probabilities.copy(),
                              state.prior.counts.copy(), state.prior.totals.copy())
    adam = AdamState(
        learning_rate=state.adam.learning_rate, step_count=state.adam.step_count,
        first_moment={k: v.copy() for k, v in state.adam.first_moment.items()},
        second_moment={k: v.copy() for k, v in state.adam.second_moment.items()},
    )
    return ModelState(config=copy.deepcopy(state.config), params=params, buffers=buffers,
                      prior=prior, adam=adam,
                      scheduler=SchedulerState(state.scheduler.best_value,
                                               state.scheduler.num_bad_epochs),
                      epoch=state.epoch)


# ---------------------------------------------------------------------------
# graph operations
# ---------------------------------------------------------------------------

def bottleneck(extracted: Tensor, weight: Tensor) -> Tensor:
    """Shared linear squeeze from D0 to D1 applied per node per frame."""
    return affine(extracted, weight)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[T, N, D1] -> heads-major [H, T, N, D1/H] (a strided view)."""
    t, n, d1 = x.shape
    return x.reshape(t, n, n_heads, d1 // n_heads).transpose((2, 0, 1, 3))


def merge_heads(x: Tensor) -> Tensor:
    """[H, T, N, Dh] -> [T, N, H*Dh]."""
    h, t, n, dh = x.shape
    return x.transpose((1, 2, 0, 3)).reshape(t, n, h * dh)


def per_head(x_heads: Tensor, w: Tensor) -> Tensor:
    """x_heads[H, T, N, Dh] @ w[H, Dh, Dh'] as one [T*N, Dh] @ [Dh, Dh'] GEMM per head."""
    h, t, n, dh = x_heads.shape
    return (x_heads.reshape(h, t * n, dh) @ w).reshape(h, t, n, w.shape[-1])


def attention_adjacency(x_heads: Tensor, w1: Tensor, w2: Tensor,
                        prior: np.ndarray) -> Tensor:
    """Per-frame, per-head adjacency: softmax over keys plus the prior.

    x_heads is [H, T, N, Dh]; the result is [H, T, N, N].  Each row is a
    probability vector plus the corresponding prior row, so rows sum to
    1 + sum(prior row).  The prior is added after the softmax, without
    renormalization.
    """
    queries = per_head(x_heads, w1)
    keys = per_head(x_heads, w2)
    attention = softmax_lastaxis(queries @ keys.transpose((0, 1, 3, 2)))
    return attention + Tensor(prior.astype(x_heads.data.dtype))


def graph_conv(x_heads: Tensor, adjacency: Tensor, w3: Tensor) -> Tensor:
    """Residual graph propagation per head over [H, T, N, Dh]: relu(A @ X @ W3) + X."""
    return per_head(adjacency @ x_heads, w3).relu() + x_heads


def temporal_mix(x: Tensor, w4: Tensor, b4: Tensor | None, kernel: Tensor,
                 w5: Tensor, b5: Tensor | None) -> Tensor:
    """Residual temporal block: channel mix, depthwise conv over frames,
    rectify, channel mix, add input."""
    mixed = affine(x, w4, b4)
    conv = depthwise_temporal_conv(mixed, kernel)
    return affine(conv.relu(), w5, b5) + x


def classify(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Mean-pool nodes per frame, then map to per-class logits [T, C]."""
    return affine(mean_pool_nodes(x), weight, bias)


# ---------------------------------------------------------------------------
# full forward and loss
# ---------------------------------------------------------------------------

@dataclass
class ForwardResult:
    logits: Tensor                # [T, C]
    attributes: Tensor | None     # [T, N, D0] (absent in the linear ablation)


def forward(features: np.ndarray, anchors_selected: np.ndarray | None,
            state: ModelState, mode: str, mask: np.ndarray | None = None) -> ForwardResult:
    """Run the configured wiring on one video's frames [T, D0].  `anchors_selected`
    is unused; it and `mask` stay while the benchmark passes them."""
    cfg = state.config
    dt = cfg.np_dtype
    frames = Tensor(np.asarray(features, dtype=dt))
    if frames.shape[1] != cfg.input_dim:
        raise DimensionError(
            f"features dim {frames.shape[1]} does not match model input_dim {cfg.input_dim}"
        )
    check_all_frames(mask, frames.shape[0])

    if cfg.ablation == "linear":
        logits = affine(frames, state.params["linear.weight"], state.params["linear.bias"])
        return ForwardResult(logits=logits, attributes=None)

    bn = None
    if cfg.use_batch_norm:
        bn = BatchNormState(state.params["extractor.bn.gain"], state.params["extractor.bn.bias"],
                            state.buffers["extractor.bn.running_mean"],
                            state.buffers["extractor.bn.running_var"])
    extracted = extract_attributes(frames, state.params["extractor.weight"], bn, mode)
    x = bottleneck(extracted, state.params["bottleneck.weight"])

    if cfg.ablation == "full":
        p = state.prior.probabilities
        for i in range(cfg.n_blocks):
            if not cfg.disable_attention:
                heads = split_heads(x, cfg.n_heads)
                adjacency = attention_adjacency(
                    heads, state.params[f"blocks.{i}.attn.w1"],
                    state.params[f"blocks.{i}.attn.w2"], p)
                heads = graph_conv(heads, adjacency, state.params[f"blocks.{i}.attn.w3"])
                x = merge_heads(heads)
            if not cfg.disable_temporal:
                x = temporal_mix(x, state.params[f"blocks.{i}.mix.w4"],
                                 state.params[f"blocks.{i}.mix.b4"],
                                 state.params[f"blocks.{i}.mix.kernel"],
                                 state.params[f"blocks.{i}.mix.w5"],
                                 state.params[f"blocks.{i}.mix.b5"])

    logits = classify(x, state.params["classifier.weight"], state.params["classifier.bias"])
    return ForwardResult(logits=logits, attributes=extracted)


@dataclass
class LossBreakdown:
    total: Tensor
    action: float
    attribute: float


def total_loss(result: ForwardResult, dense_labels: np.ndarray,
               anchors_selected: np.ndarray | None, mask: np.ndarray | None = None,
               attribute_weight: float = 1.0,
               normalize_anchors: bool = False) -> LossBreakdown:
    """Action BCE plus the (weighted) attribute anchor term, over all frames."""
    check_all_frames(mask, result.logits.shape[0])
    action = bce_with_logits(result.logits, dense_labels)
    if result.attributes is None or anchors_selected is None:
        return LossBreakdown(total=action, action=action.item(), attribute=0.0)
    anchors = np.asarray(anchors_selected, dtype=result.attributes.data.dtype)
    if normalize_anchors:
        anchors = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
    attr = mse_to_anchor(result.attributes, Tensor(anchors))
    total = action + attr * attribute_weight
    return LossBreakdown(total=total, action=action.item(), attribute=attr.item())


# Keys that earlier versions wrote into stored configs: the model now takes
# the three dimensions from the corpus, and nothing ever set the rest away
# from these values.  A document may carry such a key at its value only.
_RETIRED_KEYS = {"input_dim": None, "n_attributes": None, "n_classes": None,
                "mix_bias": True, "bn_eps": BN_EPS, "bn_momentum": BN_MOMENTUM}


def config_values(cls, doc, ignored=()) -> dict:
    """The fields of dataclass `cls` that a config document sets.

    Each value must have its field's type: a bool is not an int, an int
    serves for a float, and null only where the default is None.  Keys
    that are not fields of `cls` or `ignored` are rejected, except retired
    keys at their one accepted value, which are dropped.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a config must be a JSON object, got {type(doc).__name__}")
    known = {f.name: f for f in fields(cls)}
    for name in sorted(set(doc) - set(known) - set(ignored)):
        if name not in _RETIRED_KEYS:
            raise ValueError(f"unknown config key {name!r}")
        if doc[name] != _RETIRED_KEYS[name]:
            raise ConfigurationError(f"{name} is no longer configurable; only "
                                     f"{json.dumps(_RETIRED_KEYS[name])} is accepted")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, value in doc.items():
        if name not in known:
            continue
        kind = next(t for t in (bool, int, float, str)
                    if t is hints[name] or t in typing.get_args(hints[name]))
        if not (type(value) is kind or (kind is float and type(value) is int)
                or (value is None and known[name].default is None)):
            raise ValueError(f"config key {name!r} must be {kind.__name__}, got {value!r}")
        values[name] = value
    return values


def config_from_dict(doc: dict) -> ModelConfig:
    cfg = ModelConfig(**config_values(ModelConfig, doc))
    cfg.validate()
    return cfg
