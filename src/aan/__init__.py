"""Attributes-aware action detection on precomputed frame embeddings."""

from .data import (
    AnchorSet,
    AttributeMap,
    CorpusIndex,
    FeatureSequence,
    IntervalLabelSet,
    SynthSpec,
    generate_synthetic_corpus,
    read_manifest,
    write_corpus,
)
from .graph import (
    CoOccurrencePrior,
    ModelConfig,
    ModelState,
    build_prior,
    forward,
    init_model_state,
    total_loss,
)
from .metrics import EvalRun, VideoEval, action_conditional_metrics, average_precision, per_frame_map
from .optim import AdamState, adam_step, grad_check
from .tensor import (
    ConfigurationError,
    DegenerateBatchError,
    DimensionError,
    Tensor,
    no_grad,
)
from .trainer import TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "AnchorSet",
    "AttributeMap",
    "CoOccurrencePrior",
    "ConfigurationError",
    "CorpusIndex",
    "DegenerateBatchError",
    "DimensionError",
    "EvalRun",
    "FeatureSequence",
    "IntervalLabelSet",
    "ModelConfig",
    "ModelState",
    "SynthSpec",
    "Tensor",
    "TrainConfig",
    "VideoEval",
    "action_conditional_metrics",
    "adam_step",
    "average_precision",
    "build_prior",
    "evaluate",
    "forward",
    "generate_synthetic_corpus",
    "grad_check",
    "init_model_state",
    "load_checkpoint",
    "no_grad",
    "per_frame_map",
    "read_manifest",
    "save_checkpoint",
    "total_loss",
    "train",
    "write_corpus",
    "__version__",
]
