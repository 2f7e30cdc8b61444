"""Command-line entry point: synth, build-prior, train, eval, gradcheck, predict.

Exit codes: 0 success, 1 check failure, 2 usage/input error, 3 numerical
abort.  Every command first prints its resolved configuration as one JSON
line so runs are reproducible from their logs alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import tensor as tn
from .data import (
    CorpusError,
    SynthSpec,
    ValidationError,
    generate_synthetic_corpus,
    read_feature_file,
    read_manifest,
    read_score_file,
    write_corpus,
    write_score_file,
)
from .graph import build_prior, clone_state, forward, total_loss
from .metrics import EvalRun, VideoEval, evaluate_run, format_table
from .optim import NonFiniteGradientError, grad_check
from .tensor import Tensor
from .trainer import (
    CheckpointError,
    NonFiniteLossError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    load_split,
    predict_scores,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _emit_config(command: str, values: dict) -> None:
    print(json.dumps({"resolved_config": {"command": command, **values}}, sort_keys=True))


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_attributes=args.n_attributes, n_classes=args.n_classes, dim=args.dim,
        max_frames=args.max_frames, video_count=args.videos,
        noise_sigma=args.noise_sigma, seed=args.seed,
        train_fraction=args.train_fraction,
    )
    spec.validate()
    _emit_config("synth", {**asdict(spec), "out": str(args.out)})
    corpus = generate_synthetic_corpus(spec)
    manifest = write_corpus(corpus, args.out)
    frames = sum(fs.frame_count for fs in corpus.features)
    splits = {name: sum(1 for s in corpus.splits.values() if s == name)
              for name in sorted(set(corpus.splits.values()))}
    print(json.dumps({
        "manifest": str(manifest),
        "videos": len(corpus.features),
        "frames": frames,
        "splits": splits,
        "attributes": corpus.anchors.attribute_count,
        "classes": corpus.spec.n_classes,
    }, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# build-prior
# ---------------------------------------------------------------------------

def cmd_build_prior(args) -> int:
    index = read_manifest(args.manifest)
    _emit_config("build-prior", {"manifest": str(args.manifest), "out": str(args.out)})
    entries = index.split("train")
    prior = build_prior(
        [e.labels for e in entries], index.attribute_map,
        index.anchors.attribute_count,
        frame_counts=[e.frame_count for e in entries],
    )
    doc = {
        "attribute_names": index.anchors.attribute_names,
        "probabilities": prior.probabilities.tolist(),
        "counts": prior.counts.tolist(),
        "totals": prior.totals.tolist(),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({"out": str(args.out),
                      "attributes": index.anchors.attribute_count,
                      "frames_counted": int(prior.totals.sum())}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_config(args) -> TrainConfig:
    """The --config file's values, overridden by each flag given, validated;
    a profile named in the file wins over --profile."""
    flags = {f.name: getattr(args, f.name) for f in fields(TrainConfig)
             if getattr(args, f.name, None) is not None}
    try:
        doc = json.loads(Path(args.config).read_text()) if args.config else {}
        if isinstance(doc, dict):
            doc = {"profile": args.profile, **doc, **flags}
        config = TrainConfig.from_dict(doc)
        config.validate()
        return config
    except ValueError as exc:
        if not args.config:
            raise
        what = "not valid JSON: " if isinstance(exc, json.JSONDecodeError) else ""
        raise ValueError(f"{args.config}: {what}{exc}") from None


def cmd_train(args) -> int:
    config = _train_config(args)
    index = read_manifest(args.manifest)
    _emit_config("train", {**asdict(config), "manifest": str(args.manifest),
                           "out_dir": str(args.out_dir)})
    state = load_checkpoint(args.resume) if args.resume else None
    result = train(index, config, out_dir=args.out_dir, state=state,
                   quiet=args.quiet)
    out = Path(args.out_dir)
    (out / "resolved_config.json").write_text(
        json.dumps(asdict(config), sort_keys=True, indent=2) + "\n")
    summary = {
        "epochs": len(result.history),
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "best_val_map": result.best_val_map,
        "final_train_loss": result.history[-1]["train"]["mean_total"] if result.history else None,
        "checkpoints": {"best": str(out / "best.ckpt"), "final": str(out / "final.ckpt")},
    }
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _scores_run(videos, scores_dir) -> EvalRun:
    out = []
    for v in videos:
        path = Path(scores_dir) / f"{v.video_id}.aans"
        if not path.exists():
            raise FileNotFoundError(f"missing score file: {path}")
        scores = read_score_file(path)
        if scores.shape != v.labels.shape:
            raise CorpusError(
                f"{path}: scores shape {scores.shape} does not match labels {v.labels.shape}"
            )
        out.append(VideoEval(v.video_id, scores, v.labels, v.mask))
    return EvalRun(out)


def cmd_eval(args) -> int:
    index = read_manifest(args.manifest)
    taus = [int(t) for t in args.tau.split(",")] if args.conditional else []
    _emit_config("eval", {
        "manifest": str(args.manifest), "checkpoint": args.checkpoint,
        "scores": args.scores, "split": args.split, "conditional": bool(args.conditional),
        "tau": taus, "threshold": args.threshold, "curves": bool(args.curves),
    })
    videos = load_split(index, args.split)
    if not videos:
        raise CorpusError(f"split {args.split!r} is empty")

    if args.scores:
        run = _scores_run(videos, args.scores)
    else:
        if not args.checkpoint:
            raise ValidationError("eval needs --checkpoint or --scores")
        state = load_checkpoint(args.checkpoint)
        if state.config.input_dim != index.dim or state.config.n_classes != index.class_count:
            raise CheckpointError(
                f"checkpoint expects dim {state.config.input_dim}/{state.config.n_classes} classes, "
                f"corpus has {index.dim}/{index.class_count}"
            )
        run = evaluate(state, videos)

    report = evaluate_run(run, taus=taus, threshold=args.threshold, curves=args.curves)
    print(json.dumps({"report": report.to_dict()}, sort_keys=True))
    if args.table:
        print(format_table(report), file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _faulty_identity(t: Tensor) -> Tensor:
    """Identity forward with a backward that is wrong by 0.1% (test hook)."""
    if not t.requires_grad:
        return t
    out = Tensor(t.data, requires_grad=True, _parents=(t,))

    def backward(g):
        tn._accumulate(t, g * 1.001)

    out._backward = backward
    return out


def _gradcheck_suite(seed: int, inject_fault: bool = False):
    """(name, result) for every differentiable operation and the full model."""
    from .attributes import extract_attributes
    from .graph import (
        CoOccurrencePrior, ModelConfig, attention_adjacency, bottleneck,
        graph_conv, init_model_state, temporal_mix,
    )
    from .tensor import (
        affine, batch_norm, bce_with_logits, depthwise_temporal_conv,
        make_batch_norm_state, mean_pool_nodes, mse_to_anchor, softmax_lastaxis,
    )

    rng = np.random.default_rng(seed)
    checks = []

    x_aff = rng.standard_normal((3, 4))
    checks.append(("affine", lambda t: affine(Tensor(x_aff), t["w"], t["b"]).sum(),
                   {"w": rng.standard_normal((4, 2)), "b": rng.standard_normal(2)}))

    w_relu = rng.standard_normal((4, 3))
    checks.append(("relu", lambda t: (t["x"].relu() * Tensor(w_relu)).sum(),
                   {"x": rng.standard_normal((4, 3)) + 0.05}))

    w_soft = rng.standard_normal((3, 5))
    checks.append(("softmax_lastaxis",
                   lambda t: (softmax_lastaxis(t["x"]) * Tensor(w_soft)).sum(),
                   {"x": rng.standard_normal((3, 5))}))

    w_bn = rng.standard_normal((5, 3))

    def f_bn(t):
        state = make_batch_norm_state(3)
        state.gain, state.bias = t["gain"], t["bias"]
        return (batch_norm(t["x"], state, "train") * Tensor(w_bn)).sum()

    checks.append(("batch_norm", f_bn, {
        "x": rng.standard_normal((5, 3)),
        "gain": rng.standard_normal(3) + 1.2,
        "bias": rng.standard_normal(3),
    }))

    y_bce = rng.integers(0, 2, (4, 2)).astype(float)
    checks.append(("sigmoid_bce", lambda t: bce_with_logits(t["z"], y_bce),
                   {"z": rng.standard_normal((4, 2))}))

    checks.append(("mse_to_anchor",
                   lambda t: mse_to_anchor(t["i"], t["anchors"]),
                   {"i": rng.standard_normal((3, 2, 3)),
                    "anchors": rng.standard_normal((2, 3))}))

    w_tc = rng.standard_normal((5, 2, 3))
    checks.append(("depthwise_temporal_conv",
                   lambda t: (depthwise_temporal_conv(t["x"], t["kernel"])
                              * Tensor(w_tc)).sum(),
                   {"x": rng.standard_normal((5, 2, 3)),
                    "kernel": rng.standard_normal((3, 3))}))

    w_pool = rng.standard_normal((3, 2))
    checks.append(("mean_pool_nodes",
                   lambda t: (mean_pool_nodes(t["x"]) * Tensor(w_pool)).sum(),
                   {"x": rng.standard_normal((3, 4, 2))}))

    f_ext = rng.standard_normal((4, 3))
    a_ext = rng.standard_normal((2, 3))

    checks.append(("extract_attributes",
                   lambda t: mse_to_anchor(extract_attributes(Tensor(f_ext), t["w"], None, "train"),
                                           Tensor(a_ext)),
                   {"w": rng.standard_normal((2, 3, 3))}))

    x_gc = rng.standard_normal((2, 2, 3, 4))  # [H, T, N, Dh]
    p_gc = rng.random((3, 3))
    w_gc = rng.standard_normal((2, 2, 3, 4))

    def f_graph(t):
        a = attention_adjacency(t["x"], t["w1"], t["w2"], p_gc)
        return (graph_conv(t["x"], a, t["w3"]) * Tensor(w_gc)).sum()

    checks.append(("attention_graph_conv", f_graph, {
        "x": x_gc,
        "w1": rng.standard_normal((2, 4, 4)),
        "w2": rng.standard_normal((2, 4, 4)),
        "w3": rng.standard_normal((2, 4, 4)),
    }))

    x_tm = rng.standard_normal((4, 2, 3))
    w_tm = rng.standard_normal((4, 2, 3))

    def f_mix(t):
        out = temporal_mix(Tensor(x_tm), t["w4"], t["b4"], t["kernel"], t["w5"], t["b5"])
        return (out * Tensor(w_tm)).sum()

    checks.append(("temporal_mix", f_mix, {
        "w4": rng.standard_normal((3, 3)), "b4": rng.standard_normal(3),
        "kernel": rng.standard_normal((3, 3)),
        "w5": rng.standard_normal((3, 3)), "b5": rng.standard_normal(3),
    }))

    w_bot = rng.standard_normal((2, 3, 2))
    x_bot = rng.standard_normal((2, 3, 4))
    checks.append(("bottleneck",
                   lambda t: (bottleneck(t["x"], t["w"]) * Tensor(w_bot)).sum(),
                   {"x": x_bot, "w": rng.standard_normal((4, 2))}))

    # full model: composed total loss on a tiny random instance
    cfg = ModelConfig(n_attributes=3, n_classes=2, input_dim=6, hidden_dim=4,
                      n_blocks=2, n_heads=2, kernel_size=3)
    p = rng.random((3, 3)) * 0.5
    np.fill_diagonal(p, 1.0)
    prior = CoOccurrencePrior(probabilities=p, counts=(p * 10).astype(np.int64),
                              totals=np.full(3, 10, dtype=np.int64))
    base_state = init_model_state(cfg, prior, seed=seed)
    feats = rng.standard_normal((4, 6))
    anchors = rng.standard_normal((3, 6))
    labels = rng.integers(0, 2, (4, 2)).astype(float)

    def f_model(tensors):
        trial = clone_state(base_state)
        for name, t in tensors.items():
            trial.params[name] = t
        result = forward(feats, anchors, trial, "train")
        loss = total_loss(result, labels, anchors).total
        if inject_fault:
            loss = _faulty_identity(loss)  # test hook: wrong backward, same value
        return loss

    checks.append(("full_model_total_loss", f_model,
                   {name: t.data.copy() for name, t in base_state.active_params().items()}))
    return checks


def cmd_gradcheck(args) -> int:
    _emit_config("gradcheck", {"seed": args.seed, "h": args.h, "tol": args.tol})
    failures = 0
    for name, f, inputs in _gradcheck_suite(args.seed, inject_fault=args.inject_fault):
        result = grad_check(f, inputs, h=args.h, tol=args.tol)
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        print(f"{status}  {name:28s} max_rel_err {result.max_rel_err:.3e}  "
              f"(tol {args.tol:g}, worst input {result.worst_input()})")
    print(f"{'PASS' if failures == 0 else 'FAIL'}  gradient oracle: "
          f"{failures} failing operation(s)")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def cmd_predict(args) -> int:
    state = load_checkpoint(args.checkpoint)
    fs = read_feature_file(args.features)
    _emit_config("predict", {"checkpoint": str(args.checkpoint),
                             "features": str(args.features), "out": str(args.out)})
    if fs.dim != state.config.input_dim:
        raise CorpusError(
            f"feature dim {fs.dim} does not match checkpoint input_dim {state.config.input_dim}"
        )
    scores = predict_scores(state, fs.features)
    write_score_file(args.out, scores.astype(np.float32))
    print(json.dumps({"out": str(args.out), "frames": fs.frame_count,
                      "classes": int(scores.shape[1])}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aan",
        description="Attribute-graph action detection on precomputed frame embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--videos", type=int, default=250)
    p.add_argument("--n-attributes", type=int, default=8)
    p.add_argument("--n-classes", type=int, default=10)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--max-frames", type=int, default=64)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build-prior", help="count attribute co-occurrence on the train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_prior)

    p = sub.add_parser("train", help="optimize a model on a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--profile", choices=["desk", "paper"])
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--max-frames", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--n-blocks", type=int)
    p.add_argument("--n-heads", type=int)
    p.add_argument("--kernel-size", type=int)
    p.add_argument("--attribute-weight", type=float)
    p.add_argument("--grad-clip", type=float)
    p.add_argument("--dtype", choices=["float64", "float32"])
    p.add_argument("--ablation", choices=["full", "extractor-only", "linear"])
    p.add_argument("--disable-attention", action="store_true", default=None)
    p.add_argument("--disable-temporal", action="store_true", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a split and report metrics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--scores", help="directory of .aans files instead of a checkpoint")
    p.add_argument("--split", default="val", choices=["train", "val", "test"])
    p.add_argument("--conditional", action="store_true")
    p.add_argument("--tau", default="0,20,40", help="comma-separated window radii")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--curves", action="store_true",
                   help="include per-class precision-at-positive curves")
    p.add_argument("--table", action="store_true", help="also print a plain table to stderr")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference oracle over all operations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("predict", help="write per-frame scores for one feature file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonFiniteLossError, NonFiniteGradientError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
