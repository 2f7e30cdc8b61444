"""One benchmark workload, run in a process of its own by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

A run generates its corpus from the seed, sets the model up, warms up with
one epoch, and then repeats whole rounds of the same operations until
`--seconds` have passed and the workload's minimum number of rounds is
reached:

    setup  data.read_manifest, data.load_split of every split used, then
           graph.build_prior + graph.init_model_state or
           trainer.load_checkpoint, repeated for at least SETUP_SPAN_S;
           once per round
    step   trainer.run_epoch over 8 train videos: one forward/backward/Adam step
    epoch  trainer.train for one more epoch: train pass, val pass, val mAP,
           log line, best and final checkpoints
    eval   trainer.evaluate over the workload's eval videos
    map    metrics.per_frame_map over those scores
    cond   metrics.action_conditional_metrics at each of the workload's taus

Each end-to-end time is the median over rounds.  The checks then run on the
last round's outputs.  With --trace 1 the calls into the program are
recorded as spans and the per-layer metrics replace the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import corpus
from spans import Tracer

SETUP_SPAN_S = 0.5            # one setup_s sample repeats set-ups for at least this long


@dataclass(frozen=True)
class Workload:
    width: str                # "desk" or "paper"
    eval_split: str
    taus: tuple               # conditional calls made every round
    timed_taus: tuple         # the ones summed into cond_s
    checkpoint_input: bool    # set up from a checkpoint instead of a fresh model
    min_rounds: int
    # calls per round of each operation besides the one set-up sample; a
    # short operation repeats so that its median rests on enough samples
    steps: int
    epochs: int
    evals: int
    scorings: int             # per_frame_map plus the conditional calls


WORKLOADS = {
    "train-desk": Workload("desk", "val", (0,), (0,), False, 5,
                           steps=5, epochs=1, evals=3, scorings=5),
    # tau = 20 on 64-frame videos: nearly every pair is scored whatever the
    # seed, so the work behind cond_s hardly varies on this small val split
    "train-paper": Workload("paper", "val", (20,), (20,), False, 2,
                            steps=1, epochs=1, evals=4, scorings=9),
    # tau = 20 fails on every video shorter than 41 frames; it is attempted
    # each round, counted, and kept out of cond_s
    "eval-charades": Workload("desk", "test", (0, 20), (0,), True, 2,
                              steps=5, epochs=2, evals=1, scorings=1),
    "eval-tsu": Workload("desk", "test", (20, 40), (20, 40), True, 2,
                         steps=5, epochs=2, evals=2, scorings=3),
}

END_TO_END = ("setup_s", "epoch_s", "step_s", "eval_s", "map_s", "cond_s", "peak_rss_mb")

# spans whose self time is a per-layer metric, reported as "<span>_s"
LAYER_SPANS = (
    "data.read_manifest", "data.load_split", "data.make_batches", "attributes.extract",
    "graph.forward", "graph.bottleneck", "graph.attention", "graph.graph_conv",
    "graph.temporal", "graph.classify", "graph.loss", "graph.build_prior", "graph.init",
    "tensor.backward", "optim.adam", "trainer.train_pass", "trainer.val_pass",
    "trainer.val_map", "trainer.evaluate", "trainer.save", "trainer.load",
    "metrics.map", "metrics.cond",
)


def train_config(trainer, width: str, seed: int):
    if width == "paper":
        return trainer.TrainConfig.paper_profile(batch_size=8, max_frames=64, seed=seed)
    return trainer.TrainConfig.desk_profile(seed=seed)


def install_tracer(aan) -> Tracer:
    """Wrap every public function under each name a caller looks it up by."""
    data, graph, metrics, optim, tensor, trainer = (
        aan.data, aan.graph, aan.metrics, aan.optim, aan.tensor, aan.trainer)
    tracer = Tracer()
    for owner, attr, name in (
        (data, "read_manifest", "data.read_manifest"),
        (data, "load_split", "data.load_split"), (trainer, "load_split", "data.load_split"),
        (data, "make_batches", "data.make_batches"),
        (trainer, "make_batches", "data.make_batches"),
        (graph, "extract_attributes", "attributes.extract"),
        (graph, "forward", "graph.forward"), (trainer, "forward", "graph.forward"),
        (graph, "bottleneck", "graph.bottleneck"),
        (graph, "attention_adjacency", "graph.attention"),
        (graph, "graph_conv", "graph.graph_conv"),
        (graph, "temporal_mix", "graph.temporal"),
        (graph, "classify", "graph.classify"),
        (graph, "total_loss", "graph.loss"), (trainer, "total_loss", "graph.loss"),
        (graph, "build_prior", "graph.build_prior"),
        (trainer, "build_prior", "graph.build_prior"),
        (graph, "init_model_state", "graph.init"),
        (trainer, "init_model_state", "graph.init"),
        (optim, "adam_step", "optim.adam"), (trainer, "adam_step", "optim.adam"),
        (trainer, "validation_map", "trainer.val_map"),
        (trainer, "evaluate", "trainer.evaluate"),
        (trainer, "save_checkpoint", "trainer.save"),
        (trainer, "load_checkpoint", "trainer.load"),
        (metrics, "per_frame_map", "metrics.map"),
        (metrics, "action_conditional_metrics", "metrics.cond"),
    ):
        tracer.wrap(owner, attr, name)

    def epoch_mode(args, kwargs):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
        return "trainer.train_pass" if mode == "train" else "trainer.val_pass"

    tracer.wrap(trainer, "run_epoch", epoch_mode)
    tracer.wrap_peak(tensor.Tensor, "backward", "tensor.backward")
    tracer.wrap_counter(tensor.Tensor, "__init__", "tensor.nodes")
    tracer.wrap_counter(metrics, "average_precision", "metrics.ap_calls",
                        when=lambda: tracer.innermost() == "metrics.cond")
    tracer.wrap_counter(trainer, "save_checkpoint", "trainer.ckpt_bytes",
                        amount=lambda args, kwargs: os.path.getsize(kwargs.get("path", args[1])))
    return tracer


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int, cond_done: int) -> dict:
    """Per-layer values: self time of set-up spans per set-up, everything else per round."""
    own = tracer.self_times()
    root = tracer.root_of()
    totals = {name: 0.0 for name in LAYER_SPANS}
    forward_calls = saves = 0
    for i, (name, _, _, parent) in enumerate(tracer.spans):
        op = tracer.spans[root[i]][0]
        if parent == -1 or name not in totals or op == "op.failed":
            continue
        in_setup = op == "op.setup"
        totals[name] += own[i] / (n_setups if in_setup else n_rounds)
        forward_calls += name == "graph.forward" and not in_setup
        saves += name == "trainer.save"
    counts = {}
    for (op, name), n in tracer.counts.items():
        if tracer.spans[op][0] not in ("op.setup", "op.failed"):
            counts[name] = counts.get(name, 0) + n
    out = {f"{name}_s": (value, "s") for name, value in totals.items()}
    out.update({
        "graph.forward_calls": (forward_calls / n_rounds, "count"),
        "tensor.nodes": (counts.get("tensor.nodes", 0) / n_rounds, "count"),
        "metrics.ap_calls": (counts.get("metrics.ap_calls", 0) / cond_done if cond_done else 0.0,
                             "count"),
        "trainer.ckpt_bytes": (counts.get("trainer.ckpt_bytes", 0) / saves if saves else 0.0,
                               "bytes"),
        "tensor.backward_peak_mb": (tracer.backward_peak_bytes / 2 ** 20, "MB"),
    })
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import aan
    if not Path(aan.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"imported aan from {aan.__file__}, not from {root / 'src'}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    try:
        return run(args, root, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, work: Path, tag: str) -> int:
    import aan
    from aan import data, metrics, trainer

    spec = WORKLOADS[args.workload]
    config = train_config(trainer, spec.width, args.seed)
    manifest = corpus.write(corpus.generate(corpus.SHAPES[args.workload], args.seed),
                            work / "corpus")
    splits = ("train", "val") + ((spec.eval_split,) if spec.eval_split != "val" else ())

    checkpoint = None
    if spec.checkpoint_input:
        # input preparation, not measured: a desk-width checkpoint trained for
        # one epoch on this corpus, written by the program itself
        index = data.read_manifest(manifest)
        state = fresh_state(index, config, args.seed)
        loaded = trainer.LoadedCorpus(data.load_split(index, "train"),
                                      data.load_split(index, "val"),
                                      index.anchors, index.attribute_map)
        config.max_epochs = 1
        trainer.train(loaded, config, out_dir=work / "prep", state=state)
        checkpoint = work / "prep" / "final.ckpt"
        del index, state, loaded

    tracer = install_tracer(aan) if args.trace else None

    def timed(name: str, fn):
        """(result, seconds) of one operation, from the same collector state each time."""
        gc.collect()
        with tracer.operation(name) if tracer else nullcontext() as index:
            start = time.perf_counter()
            try:
                result = fn()
            except Exception:
                if tracer:
                    tracer.spans[index][0] = "op.failed"
                raise
            return result, time.perf_counter() - start

    wall_start = time.perf_counter()

    def setup():
        index = data.read_manifest(manifest)
        videos = {s: data.load_split(index, s) for s in splits}
        if checkpoint is not None:
            state = trainer.load_checkpoint(checkpoint)
        else:
            state = fresh_state(index, config, args.seed)
        return index, videos, state

    setup_times = []
    n_setups = 0

    def setup_sample():
        """Set up repeatedly for at least SETUP_SPAN_S; adds one sample of setup_s,
        the time per set-up, so that a short set-up is not timed on its own."""
        nonlocal n_setups

        def repeat():
            n, result, start = 0, None, time.perf_counter()
            while n == 0 or time.perf_counter() - start < SETUP_SPAN_S:
                result = None             # one set-up's data alive at a time
                result = setup()
                n += 1
            return result, n

        (result, n), elapsed = timed("op.setup", repeat)
        setup_times.append(elapsed / n)
        n_setups += n
        return result

    index, videos, state = setup_sample()

    loaded = trainer.LoadedCorpus(videos["train"], videos["val"], index.anchors, index.attribute_map)
    # the eight longest train videos, so a step has the same size for every seed
    longest = sorted(videos["train"], key=lambda v: (-len(v.mask), v.video_id))[:8]
    step_corpus = trainer.LoadedCorpus(longest, videos["val"], index.anchors,
                                       index.attribute_map)
    eval_videos = videos[spec.eval_split]
    run_dir = work / "run"

    def epoch():
        config.max_epochs = state.epoch + 1
        return trainer.train(loaded, config, out_dir=run_dir, state=state)

    def step():
        return trainer.run_epoch(state, step_corpus, config, "train")

    # warm-up: the first epoch, whose train pass includes steps, pays for page
    # faults and first-call costs
    warm_start = time.perf_counter()
    history = epoch().history
    warm_s = time.perf_counter() - warm_start

    times = {name: [] for name in ("epoch_s", "step_s", "eval_s", "map_s", "cond_s")}
    step_losses = []
    attempted = failed = cond_done = 0
    failures = {}
    rounds = 0
    measure_start = time.perf_counter()
    while rounds < spec.min_rounds or time.perf_counter() - measure_start < args.seconds:
        setup_sample()
        for _ in range(spec.steps):
            report, t = timed("op.step", step)
            step_losses.append(report.mean_total)
            times["step_s"].append(t)
        for _ in range(spec.epochs):
            result, t = timed("op.epoch", epoch)
            history += result.history
            times["epoch_s"].append(t)
        for _ in range(spec.evals):
            run_eval, t = timed("op.eval", lambda: trainer.evaluate(state, eval_videos))
            times["eval_s"].append(t)
        attempted += 1 + spec.steps + spec.epochs + spec.evals
        for _ in range(spec.scorings):
            pfm, t = timed("op.map", lambda: metrics.per_frame_map(run_eval))
            times["map_s"].append(t)
            attempted += 1
            cond_s, conds = 0.0, {}
            for tau in spec.taus:
                attempted += 1
                try:
                    conds[tau], t = timed(
                        "op.cond", lambda: metrics.action_conditional_metrics(run_eval, tau))
                except ValueError as exc:
                    failed += 1
                    failures[f"action_conditional_metrics(tau={tau})"] = str(exc)
                    continue
                cond_done += 1
                if tau in spec.timed_taus:
                    cond_s += t
            times["cond_s"].append(cond_s)
        rounds += 1
    measured_s = time.perf_counter() - measure_start
    wall_end = time.perf_counter()
    wall_s = wall_end - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        # one more step, untimed, for the peak memory of its backward pass
        tracer.measure_peak = True
        step()
        tracer.restore()

    # -- correctness, on the last round's outputs --------------------------------
    errors = checks.check_scores(run_eval.videos)
    errors += checks.check_per_frame_map(run_eval.videos, pfm.mean_ap)
    for tau, result in conds.items():
        errors += checks.check_conditional(run_eval.videos, result, tau)
    losses = step_losses + [h[m]["mean_total"] for h in history for m in ("train", "val")]
    errors += checks.check_losses(losses, history[0]["train"]["mean_total"],
                                  history[-1]["train"]["mean_total"])
    detail = {"final_val_map": history[-1]["val_map"],
              "val_prevalence": checks.mean_prevalence(videos["val"])}
    if args.workload == "train-desk":
        errors += checks.check_learned(detail["final_val_map"], detail["val_prevalence"])
        reloaded = trainer.evaluate(trainer.load_checkpoint(run_dir / "final.ckpt"), eval_videos)
        errors += checks.check_bitwise(run_eval.videos, reloaded.videos)
    if args.workload == "train-paper":
        pairs = directional_derivatives(state, videos["train"][0], index.anchors, args.seed)
        detail["directional_derivatives"] = pairs
        errors += checks.check_directional_derivatives(pairs)

    e2e = {
        "setup_s": statistics.median(setup_times),
        **{name: statistics.median(values) for name, values in times.items()},
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "rounds": rounds, "setups": n_setups, "setup_samples": len(setup_times),
            "warmup_s": warm_s, "measured_s": measured_s,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "failures": failures,
            "errors": errors, **detail}
    if tracer is not None:
        layers = layer_metrics(tracer, n_setups, rounds, cond_done)
        # properly nested spans inside the measured wall time are what make
        # the self times sum to no more than that wall time
        errors += tracer.nesting_errors(wall_start, wall_end)
        own_total = sum(tracer.self_times())
        info.update(self_time_total_s=own_total, wall_s=wall_s, absent=sorted(tracer.absent),
                    traced_end_to_end={k: v for k, v in e2e.items() if k != "peak_rss_mb"})
        tracer.write(root / ".perfbench" / "traces" / f"{tag}.json",
                     {"workload": args.workload, "seed": args.seed})
        metrics_out = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        units = {"peak_rss_mb": "MB"}
        metrics_out = {name: {"value": e2e[name], "unit": units.get(name, "s")}
                       for name in END_TO_END}

    print(json.dumps({"info": info}))
    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    out = {"correct": not errors, "attempted": attempted, "failed": failed,
           "metrics": metrics_out}
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    samples = dict(times, setup_s=setup_times)
    (results / f"{tag}.json").write_text(json.dumps(dict(out, info=info, samples=samples)) + "\n")
    print(json.dumps(out))
    return 0


def fresh_state(index, config, seed: int):
    """Co-occurrence prior from the train labels, then a freshly initialised model."""
    from aan import graph

    train = index.split("train")
    model_config = config.model_config(index.dim, index.anchors.attribute_count,
                                       index.class_count)
    prior = graph.build_prior([e.labels for e in train], index.attribute_map,
                              index.anchors.attribute_count,
                              frame_counts=[e.frame_count for e in train])
    return graph.init_model_state(model_config, prior, seed=seed,
                                  learning_rate=config.learning_rate)


def directional_derivatives(state, video, anchors, seed: int, directions: int = 5) -> list:
    """d/dh loss(theta + h u) at h = 0 along random unit directions u over all
    active parameters, float64: [(from the backward pass, by central differences)]."""
    from aan import graph
    from aan.attributes import select_anchor_prompt
    from aan.optim import zero_grads
    from aan.tensor import no_grad

    probe = graph.clone_state(state)
    params = probe.active_params()
    selected = select_anchor_prompt(anchors, "train", seed, 0, video.video_id)

    def loss():
        result = graph.forward(video.features, selected, probe, "train", mask=video.mask)
        return graph.total_loss(result, video.labels, selected, video.mask,
                                attribute_weight=probe.config.attribute_weight,
                                normalize_anchors=probe.config.normalize_anchors).total

    zero_grads(params)
    loss().backward()
    base = {k: p.data.copy() for k, p in params.items()}
    rng = np.random.default_rng([seed, 0xD1F])
    # 1e-5 crossed kinks along all five directions of some trained paper-width
    # states (median error 6e-5); at 1e-7 float64 round-off takes over
    h = 1e-6
    pairs = []
    for _ in range(directions):
        u = {k: rng.standard_normal(p.data.shape) for k, p in params.items()}
        norm = float(np.sqrt(sum(float((d * d).sum()) for d in u.values())))
        analytic = sum(float((p.grad * u[k]).sum()) for k, p in params.items()) / norm
        values = []
        for sign in (1.0, -1.0):
            for k, p in params.items():
                p.data = base[k] + (sign * h / norm) * u[k]
            with no_grad():
                values.append(loss().item())
        pairs.append((analytic, (values[0] - values[1]) / (2 * h)))
    return pairs


if __name__ == "__main__":
    sys.exit(main())
