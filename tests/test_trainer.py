import dataclasses
import gc
import json
import re
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from oracles import summed_batch_gradients, whole_video_eval

from aan import tensor as tn
from aan.data import (LoadedVideo, SynthSpec, generate_synthetic_corpus, make_batches,
                      read_manifest, write_corpus)
from aan import trainer as trainer_module
from aan.graph import clone_state, forward, init_model_state, prior_from_dense
from aan.trainer import (
    CheckpointError,
    EpochReport,
    LoadedCorpus,
    PlateauScheduler,
    TrainConfig,
    evaluate,
    load_checkpoint,
    plateau_scheduler,
    run_epoch,
    save_checkpoint,
    state_hash,
    train,
)
from aan.optim import AdamState, adam_step
from aan.graph import SchedulerState


def memory_corpus(spec=None):
    spec = spec or SynthSpec(video_count=12, max_frames=24, dim=8, seed=2,
                             n_attributes=8, n_classes=10)
    corpus = generate_synthetic_corpus(spec)
    train_vids, val_vids = [], []
    from aan.data import LoadedVideo
    for fs, ls in zip(corpus.features, corpus.labels):
        video = LoadedVideo(
            video_id=fs.video_id,
            features=fs.features.astype(np.float64),
            labels=ls.densify(fs.frame_count),
        )
        (train_vids if corpus.splits[fs.video_id] == "train" else val_vids).append(video)
    return LoadedCorpus(train=train_vids, val=val_vids, anchors=corpus.anchors,
                        attribute_map=corpus.attribute_map)


def fresh_state(corpus, config):
    prior = prior_from_dense([v.labels for v in corpus.train], corpus.attribute_map, 8)
    return init_model_state(config.model_config(8, 8, 10), prior, seed=config.seed,
                            learning_rate=config.learning_rate)


def checkpoint_tensor_names(path) -> dict:
    """kind -> set of tensor names listed in a checkpoint's header."""
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    names = {}
    for meta in json.loads(raw[14:14 + blob_len])["tensors"]:
        names.setdefault(meta["kind"], set()).add(meta["name"])
    return names


def rewrite_header(path, edit) -> None:
    """Apply edit(header) to a checkpoint's JSON header, keeping its payload."""
    raw = path.read_bytes()
    (blob_len,) = struct.unpack("<Q", raw[6:14])
    header = json.loads(raw[14:14 + blob_len])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(raw[:6] + struct.pack("<Q", len(blob)) + blob + raw[14 + blob_len:])


MALFORMED_HEADERS = {"missing-model-config": b'{"epoch": 0}', "json-list": b"[1,2]",
                     "not-utf8": b"\xff" * 40, "not-json": b"hello"}


WIRINGS = {"full": {}, "extractor-only": {"ablation": "extractor-only"},
           "linear": {"ablation": "linear"}, "disable-attention": {"disable_attention": True},
           "disable-temporal": {"disable_temporal": True}}


def desk_config(**over):
    defaults = dict(max_epochs=2, seed=1, batch_size=4)
    defaults.update(over)
    return TrainConfig.desk_profile(**defaults)


class TestPlateauScheduler:
    def test_strictly_decreasing_history_keeps_rate(self):
        lr = plateau_scheduler([1.0, 0.9, 0.8, 0.7], 0.1, factor=0.5, patience=2)
        assert lr == 0.1

    def test_flat_history_of_patience_plus_one_halves_once(self):
        lr = plateau_scheduler([1.0] * 9, 1e-4, factor=0.5, patience=8)
        npt.assert_allclose(lr, 5e-5)

    def test_two_plateaus_quarter_the_rate(self):
        lr = plateau_scheduler([1.0] * 17, 1e-4, factor=0.5, patience=8)
        npt.assert_allclose(lr, 2.5e-5)

    def test_improvement_resets_counter(self):
        history = [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]
        lr = plateau_scheduler(history, 0.1, factor=0.5, patience=3)
        assert lr == 0.1  # neither stretch reaches patience bad epochs

    def test_tiny_improvements_do_not_reset(self):
        # improvements below 1e-6 are not improvements
        history = [1.0, 1.0 - 1e-9, 1.0 - 2e-9]
        lr = plateau_scheduler(history, 0.1, factor=0.5, patience=2)
        npt.assert_allclose(lr, 0.05)

    def test_stateful_form_matches_replay(self):
        adam = AdamState(learning_rate=0.2)
        sched = PlateauScheduler(adam, SchedulerState(), factor=0.5, patience=2)
        history = [3.0, 2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
        for v in history:
            sched.step(v)
        assert adam.learning_rate == plateau_scheduler(history, 0.2, 0.5, 2)


class TestRunEpoch:
    def test_zero_learning_rate_leaves_parameters_bitwise(self):
        corpus = memory_corpus()
        config = desk_config(learning_rate=1e-30)
        # learning_rate must be positive; emulate the no-op with exact zero via adam
        prior = prior_from_dense([v.labels for v in corpus.train], corpus.attribute_map, 8)
        state = init_model_state(config.model_config(8, 8, 10), prior, seed=0,
                                 learning_rate=0.0)
        before = state_hash(state)
        # running statistics do change; snapshot parameters only
        params_before = {k: v.data.copy() for k, v in state.params.items()}
        run_epoch(state, corpus, config, "train")
        for name, value in params_before.items():
            npt.assert_array_equal(state.params[name].data, value, err_msg=name)
        assert before  # silence unused warning

    def test_epoch_reports_are_deterministic(self):
        corpus = memory_corpus()
        config = desk_config(max_epochs=1)
        a = train(corpus, config)
        b = train(memory_corpus(), config)
        assert a.history == b.history

    def test_eval_epoch_does_not_mutate_state(self):
        corpus = memory_corpus()
        config = desk_config(max_epochs=1)
        result = train(corpus, config)
        before = state_hash(result.state)
        run_epoch(result.state, corpus, config, "val")
        assert state_hash(result.state) == before

    def test_epoch_forwards_each_video_once(self, monkeypatch):
        corpus = memory_corpus()
        calls = []
        real_forward = trainer_module.forward

        def counting_forward(features, *args, **kwargs):
            calls.append((args[2], features.shape[0]))
            return real_forward(features, *args, **kwargs)

        monkeypatch.setattr(trainer_module, "forward", counting_forward)
        max_frames = 16
        assert max(v.features.shape[0] for v in corpus.train) > max_frames
        result = train(corpus, desk_config(max_epochs=1, max_frames=max_frames))
        assert len(calls) == len(corpus.train) + len(corpus.val)
        # train runs each crop unpadded
        assert sorted(t for mode, t in calls if mode == "train") == \
            sorted(min(v.features.shape[0], max_frames) for v in corpus.train)
        # val runs unpadded, in split order, and its report carries the val mAP
        assert [t for mode, t in calls if mode == "eval"] == \
            [v.features.shape[0] for v in corpus.val]
        assert result.history[0]["val_map"] is not None

    def test_val_map_matches_evaluate(self):
        from aan.metrics import per_frame_map
        corpus = memory_corpus()
        config = desk_config(max_epochs=1)
        result = train(corpus, config)
        report = run_epoch(result.state, corpus, config, "val")
        assert report.mean_ap == per_frame_map(evaluate(result.state, corpus.val)).mean_ap
        assert "mean_ap" not in report.log_record()

    @pytest.mark.parametrize("wiring", WIRINGS)
    def test_state_holds_only_what_the_wiring_trains(self, tmp_path, wiring):
        corpus = memory_corpus()
        config = desk_config(max_epochs=1, **WIRINGS[wiring])
        state = train(corpus, config, out_dir=tmp_path).state
        names = set(state.active_param_names())
        assert set(state.params) == names
        assert set(state.adam.first_moment) == names
        assert set(state.adam.second_moment) == names
        saved = checkpoint_tensor_names(tmp_path / "final.ckpt")
        assert saved["param"] == saved["adam.m"] == saved["adam.v"] == names
        assert saved.get("buffer", set()) == set(state.buffers)
        if config.ablation == "linear":
            assert state.buffers == {}
        # every tensor held is one the wiring reads, so one epoch moves it
        fresh = fresh_state(corpus, config)
        for name in names:
            assert not np.array_equal(state.params[name].data, fresh.params[name].data), name

    def test_non_finite_loss_aborts_with_diagnostics(self):
        from aan.trainer import NonFiniteLossError
        corpus = memory_corpus()
        config = desk_config(max_epochs=1)
        result = train(corpus, config)
        state = result.state
        state.params["classifier.bias"].data[:] = np.nan
        with pytest.raises(NonFiniteLossError, match="vid_"):
            run_epoch(state, corpus, config, "train")

    def test_gradient_clipping_bounds_update_norm(self):
        corpus = memory_corpus()
        config = desk_config(max_epochs=1, grad_clip=1e-9)
        result = train(corpus, config)
        # with an absurdly small clip the parameters barely move
        fresh = fresh_state(corpus, config)
        drift = max(
            float(np.abs(result.state.params[k].data - fresh.params[k].data).max())
            for k in fresh.params
        )
        assert drift < 1e-2

    def test_losses_decrease_on_noiseless_corpus(self):
        spec = SynthSpec(video_count=16, max_frames=24, dim=8, seed=4,
                         noise_sigma=0.0)
        corpus = memory_corpus(spec)
        config = desk_config(max_epochs=50, seed=3)
        result = train(corpus, config)
        first = result.history[0]["train"]["mean_total"]
        last = result.history[-1]["train"]["mean_total"]
        assert last < 0.5 * first


def record_updates(monkeypatch) -> list:
    """Patch the trainer's adam_step to record a copy of every leaf gradient
    it is about to apply, one dict per batch."""
    seen = []
    real_step = trainer_module.adam_step

    def recording_step(params, adam):
        seen.append({name: None if p.grad is None else p.grad.copy()
                     for name, p in params.items()})
        real_step(params, adam)

    monkeypatch.setattr(trainer_module, "adam_step", recording_step)
    return seen


def summed_loss_epoch(state, corpus, config) -> list:
    """One train epoch whose batch gradients come from the summed-loss oracle,
    over the same batches, crops and prompts as run_epoch."""
    active = state.active_params()
    updates = []
    for batch in make_batches(corpus.train, config.batch_size, max_frames=config.max_frames,
                              seed=config.seed, epoch=state.epoch):
        losses = [trainer_module._video_loss(forward(v.features, None, state, "train"), state,
                                             corpus.anchors, config, "train", state.epoch, v).total
                  for v in batch]
        updates.append(summed_batch_gradients(active, losses))
        adam_step(active, state.adam)
    return updates


def assert_same_bytes(got: dict, want: dict, what: str) -> None:
    assert got.keys() == want.keys(), what
    for name in want:
        if want[name] is None:
            assert got[name] is None, f"{what} {name}"
        else:
            assert got[name].dtype == want[name].dtype, f"{what} {name}"
            assert got[name].tobytes() == want[name].tobytes(), f"{what} {name}"


def graph_corpus(videos: int) -> LoadedCorpus:
    """Desk-width train videos of 64 frames or more, for memory measurements."""
    corpus = generate_synthetic_corpus(SynthSpec(video_count=40, max_frames=96, seed=3))
    train_vids = []
    for fs, ls in zip(corpus.features, corpus.labels):
        if fs.frame_count >= 64 and len(train_vids) < videos:
            train_vids.append(LoadedVideo(fs.video_id, fs.features.astype(np.float64),
                                          ls.densify(fs.frame_count)))
    assert len(train_vids) == videos
    return LoadedCorpus(train=train_vids, val=[], anchors=corpus.anchors,
                        attribute_map=corpus.attribute_map)


def traced(fn) -> tuple:
    """(fn(), bytes it left allocated, its peak bytes), both traced above
    what was held when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        return result, held - base, peak - base
    finally:
        tracemalloc.stop()


class TestPerVideoBackward:
    """run_epoch back-propagates each video alone and accumulates leaf
    gradients; every update must equal, bit for bit, the summed-loss
    formula's, while memory holds at most two videos' graphs."""

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("wiring", ["full", "extractor-only", "linear"])
    def test_updates_match_the_summed_loss(self, monkeypatch, wiring, dtype, batch_size):
        corpus = memory_corpus()
        if dtype == "float32":
            for v in corpus.train:
                v.features = v.features.astype(np.float32)
        # batches of 3 and 8 leave a ragged last batch
        assert len(corpus.train) % 3 and len(corpus.train) % 8
        config = desk_config(max_epochs=1, batch_size=batch_size, dtype=dtype,
                             max_frames=16, **WIRINGS[wiring])
        state = fresh_state(corpus, config)
        # a second epoch starts from moments the first one left
        run_epoch(state, corpus, config, "train")
        state.epoch += 1
        oracle = clone_state(state)

        seen = record_updates(monkeypatch)
        run_epoch(state, corpus, config, "train")
        want = summed_loss_epoch(oracle, corpus, config)

        assert len(seen) == len(want) == -(-len(corpus.train) // batch_size)
        for i, (got_grads, want_grads) in enumerate(zip(seen, want)):
            assert_same_bytes(got_grads, want_grads, f"batch {i} gradient")
        assert_same_bytes({k: p.data for k, p in state.params.items()},
                          {k: p.data for k, p in oracle.params.items()}, "parameter")
        assert_same_bytes(state.adam.first_moment, oracle.adam.first_moment, "first moment")
        assert_same_bytes(state.adam.second_moment, oracle.adam.second_moment, "second moment")
        assert state.adam.step_count == oracle.adam.step_count

    def test_peak_memory_does_not_grow_with_the_batch(self):
        corpus = graph_corpus(8)
        config = desk_config(max_epochs=1, max_frames=64)
        dims = (corpus.train[0].features.shape[1], corpus.anchors.attribute_count,
                corpus.train[0].labels.shape[1])
        prior = prior_from_dense([v.labels for v in corpus.train], corpus.attribute_map, dims[1])
        state = init_model_state(config.model_config(*dims), prior, seed=0,
                                 learning_rate=config.learning_rate)

        # one video's graph: what a 64-frame crop's loss holds until it is freed
        crop = corpus.train[0]
        crop = LoadedVideo(crop.video_id, crop.features[:64], crop.labels[:64])
        probe = clone_state(state)
        _, graph, _ = traced(lambda: trainer_module._video_loss(
            forward(crop.features, None, probe, "train"), probe, corpus.anchors, config,
            "train", 0, crop))

        def epoch_peak(batch_size, videos):
            sub = dataclasses.replace(corpus, train=corpus.train[:videos])
            run_state = clone_state(state)
            return traced(lambda: run_epoch(
                run_state, sub, dataclasses.replace(config, batch_size=batch_size), "train"))[2]

        one_batch_of_8 = epoch_peak(8, 8)
        four_batches_of_2 = epoch_peak(2, 8)
        one_batch_of_2 = epoch_peak(2, 2)
        three_batches_of_2 = epoch_peak(2, 6)
        mb = 2 ** 20
        assert one_batch_of_8 < four_batches_of_2 + graph, \
            f"batch 8 peaks at {one_batch_of_8 / mb:.1f} MB, batch 2 at " \
            f"{four_batches_of_2 / mb:.1f} MB; one graph is {graph / mb:.1f} MB"
        # the slack covers what grows with the epoch's video count (its crop
        # views and loss tuples, about 0.5 kB a video), not a graph
        assert three_batches_of_2 <= one_batch_of_2 + graph // 100, \
            f"three batches peak at {three_batches_of_2 / mb:.2f} MB, one at " \
            f"{one_batch_of_2 / mb:.2f} MB; one graph is {graph / mb:.2f} MB"

    def test_non_finite_loss_mid_batch_changes_nothing(self):
        from aan.trainer import NonFiniteLossError
        corpus = memory_corpus()
        config = desk_config(max_epochs=1, batch_size=4)
        state = fresh_state(corpus, config)
        run_epoch(state, corpus, config, "train")
        state.epoch += 1
        batch = make_batches(corpus.train, config.batch_size, max_frames=config.max_frames,
                             seed=config.seed, epoch=state.epoch)[0]
        assert len(batch) == 4
        last = next(v for v in corpus.train if v.video_id == batch[-1].video_id)
        last.features = np.full_like(last.features, np.nan)
        before = clone_state(state)
        with pytest.raises(NonFiniteLossError) as info:
            run_epoch(state, corpus, config, "train")
        for v in batch:
            assert repr(v.video_id) in str(info.value)
        assert_same_bytes({k: p.data for k, p in state.params.items()},
                          {k: p.data for k, p in before.params.items()}, "parameter")
        assert_same_bytes(state.adam.first_moment, before.adam.first_moment, "first moment")
        assert_same_bytes(state.adam.second_moment, before.adam.second_moment, "second moment")
        assert state.adam.step_count == before.adam.step_count


class TestCheckpoints:
    def test_round_trip_reproduces_forward_bitwise(self, tmp_path):
        corpus = memory_corpus()
        result = train(corpus, desk_config(max_epochs=1))
        state = result.state
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert state_hash(loaded) == state_hash(state)
        video = corpus.val[0]
        with tn.no_grad():
            a = forward(video.features, None, state, "eval").logits.data
            b = forward(video.features, None, loaded, "eval").logits.data
        npt.assert_array_equal(a, b)
        assert loaded.epoch == state.epoch
        assert loaded.adam.step_count == state.adam.step_count

    def test_corrupted_magic_rejected(self, tmp_path):
        corpus = memory_corpus()
        result = train(corpus, desk_config(max_epochs=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(result.state, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [0, 8, 13, 100])
    def test_checkpoint_truncated_in_its_header_rejected(self, tmp_path, cut):
        corpus = memory_corpus()
        path = tmp_path / "model.ckpt"
        save_checkpoint(fresh_state(corpus, desk_config()), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointError, match=f"{path}: truncated header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("blob", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_malformed_header_rejected(self, tmp_path, blob):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"AANC" + struct.pack("<HQ", 1, len(blob)) + blob)
        with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: malformed header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["model_config"].update(no_such_key=1),
        lambda h: h["model_config"].update(mix_bias=False, bn_eps=1e-05, bn_momentum=0.1),
        lambda h: h["model_config"].update(bn_eps=1e-3),
        lambda h: h["model_config"].update(hidden_dim=15),
        lambda h: h["model_config"].pop("n_classes"),
        lambda h: h["tensors"][0].pop("name"),
        lambda h: h["tensors"][0].pop("kind"),
        lambda h: h["tensors"][0].pop("shape"),
        lambda h: h["tensors"][0].pop("dtype"),
        lambda h: h["adam"].pop("beta1"),
        lambda h: h.pop("scheduler"),
        lambda h: h["tensors"][0].update(dtype="object"),
        lambda h: h["tensors"][0].update(dtype="complex128"),
        lambda h: h["tensors"][0].update(dtype=None),
        lambda h: h["tensors"][0].update(dtype=",loat64"),  # np.dtype raises SyntaxError
        lambda h: h["tensors"][0].update(shape=[1.5]),
        lambda h: h["tensors"][0].update(shape=[-1]),
        lambda h: h["tensors"][0].update(shape="8"),
        lambda h: h["adam"].update(beta1="x"),
        lambda h: h["adam"].update(step_count="3"),
        lambda h: h["adam"].update(step_count=2.5),
        lambda h: h["scheduler"].update(best_value=None),
        lambda h: h["scheduler"].update(num_bad_epochs=True),
        lambda h: h.update(epoch="1"),
        lambda h: h["tensors"][0].update(name=["x"]),
        lambda h: h["tensors"][0].update(kind={"a": 1}),
        lambda h: h["adam"].update(beta1=0.8),
        lambda h: h["adam"].update(epsilon=1e-7),
        lambda h: h["model_config"].update(hidden_dim="16"),
    ], ids=["unknown-config-key", "mix-bias-false", "bn-eps-changed", "config-invalid",
            "config-key-missing", "tensor-without-name", "tensor-without-kind",
            "tensor-without-shape", "tensor-without-dtype", "adam-key-missing",
            "scheduler-missing", "dtype-object", "dtype-complex", "dtype-null",
            "dtype-unparsable", "shape-fractional", "shape-negative", "shape-string",
            "beta1-string", "step-count-string", "step-count-fractional", "best-value-null",
            "bad-epochs-bool", "epoch-string", "name-list", "kind-object", "beta1-other",
            "epsilon-other", "config-value-string"])
    def test_malformed_header_fields_rejected(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(fresh_state(memory_corpus(), desk_config()), path)
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: malformed header"):
            load_checkpoint(path)

    def test_failed_write_leaves_previous_checkpoint_intact(self, tmp_path, monkeypatch):
        corpus = memory_corpus()
        first = train(corpus, desk_config(max_epochs=1))
        path = tmp_path / "best.ckpt"
        save_checkpoint(first.state, path)
        before = path.read_bytes()

        class Unwritable:
            """A tensor entry whose bytes cannot be produced: the write fails
            after the header and the tensors before it."""
            shape, dtype = (3,), np.dtype(np.float64)

            def __array__(self, *args, **kwargs):
                raise OSError("no space left on device")

        entries = trainer_module._tensor_entries
        monkeypatch.setattr(trainer_module, "_tensor_entries",
                            lambda state: entries(state) + [("late", "param", Unwritable())])
        later = train(corpus, desk_config(max_epochs=2), state=clone_state(first.state)).state
        with pytest.raises(OSError, match="no space left"):
            save_checkpoint(later, path)
        assert path.read_bytes() == before
        assert state_hash(load_checkpoint(path)) == state_hash(first.state)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]

    def test_checkpoint_without_prior_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(fresh_state(memory_corpus(), desk_config()), path)
        rewrite_header(path, lambda h: next(
            m for m in h["tensors"] if m["name"] == "prior.totals").update(kind="buffer"))
        with pytest.raises(CheckpointError, match=r"missing \['prior.totals'\]"):
            load_checkpoint(path)

    def test_checkpoint_with_retired_config_fields_loads(self, tmp_path):
        # earlier versions wrote mix_bias, bn_eps and bn_momentum into every config
        corpus = memory_corpus()
        state = train(corpus, desk_config(max_epochs=1)).state
        path = tmp_path / "legacy.ckpt"
        save_checkpoint(state, path)
        rewrite_header(path, lambda h: h["model_config"].update(
            mix_bias=True, bn_eps=1e-05, bn_momentum=0.1))
        loaded = load_checkpoint(path)
        assert state_hash(loaded) == state_hash(state)
        for video in corpus.val:
            with tn.no_grad():
                a = forward(video.features, None, state, "eval").logits.data
                b = forward(video.features, None, loaded, "eval").logits.data
            npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("ablation", ["full", "extractor-only"])
    def test_checkpoint_with_unused_wiring_tensors_loads(self, tmp_path, ablation):
        # earlier versions allocated, optimized and saved every wiring's
        # parameters: linear.* in every state, blocks.* under extractor-only too
        corpus = memory_corpus()
        state = train(corpus, desk_config(max_epochs=1, ablation=ablation)).state
        legacy = clone_state(state)
        extra = dict(init_model_state(dataclasses.replace(state.config, ablation="linear"),
                                      state.prior, seed=3).params)
        extra.update(init_model_state(dataclasses.replace(state.config, ablation="full"),
                                      state.prior, seed=4).params)
        rng = np.random.default_rng(5)
        for name, p in extra.items():
            if name not in legacy.params:
                legacy.params[name] = p
                legacy.adam.first_moment[name] = rng.standard_normal(p.shape)
                legacy.adam.second_moment[name] = rng.random(p.shape)
        path = tmp_path / "legacy.ckpt"
        save_checkpoint(legacy, path)
        expected_extra = {"linear.weight", "linear.bias"}
        if ablation == "extractor-only":
            expected_extra |= {n for n in extra if n.startswith("blocks.")}
        assert checkpoint_tensor_names(path)["param"] - set(state.params) == expected_extra

        loaded = load_checkpoint(path)
        assert set(loaded.params) == set(state.params)
        assert state_hash(loaded) == state_hash(state)
        for name in state.params:
            npt.assert_array_equal(loaded.adam.first_moment[name], state.adam.first_moment[name])
            npt.assert_array_equal(loaded.adam.second_moment[name], state.adam.second_moment[name])
        for video in corpus.val:
            with tn.no_grad():
                a = forward(video.features, None, state, "eval").logits.data
                b = forward(video.features, None, loaded, "eval").logits.data
            npt.assert_array_equal(a, b)

    def test_resumed_run_without_improvement_still_writes_best(self, tmp_path):
        spec = SynthSpec(video_count=10, max_frames=16, dim=8, seed=6)
        first = train(memory_corpus(spec),
                      desk_config(max_epochs=2, seed=5), out_dir=tmp_path / "a")
        resumed_state = load_checkpoint(tmp_path / "a" / "final.ckpt")
        result = train(memory_corpus(spec), desk_config(max_epochs=3, seed=5),
                       out_dir=tmp_path / "b", state=resumed_state)
        assert (tmp_path / "b" / "best.ckpt").exists()
        assert first.best_epoch >= 0

    def test_best_checkpoint_follows_the_scheduler_across_a_resume(self, tmp_path, monkeypatch):
        # the second and third losses beat the first by less than
        # IMPROVEMENT_EPS, the third by less than the second: neither counts,
        # resumed or not
        val_losses = [1.0, 1.0 - 5e-7, 1.0 - 2e-7]

        def fake_epoch(state, corpus, config, mode):
            loss = val_losses[state.epoch] if mode == "val" else 0.5
            return EpochReport(state.epoch, mode, loss, loss, 0.0, 1,
                               state.adam.learning_rate, mean_ap=0.5)

        monkeypatch.setattr(trainer_module, "run_epoch", fake_epoch)
        corpus = memory_corpus(SynthSpec(video_count=10, max_frames=16, dim=8, seed=6))
        straight = train(corpus, desk_config(max_epochs=3), out_dir=tmp_path / "straight")
        train(corpus, desk_config(max_epochs=2), out_dir=tmp_path / "resumed")
        resumed = train(corpus, desk_config(max_epochs=3), out_dir=tmp_path / "resumed",
                        state=load_checkpoint(tmp_path / "resumed" / "final.ckpt"))
        assert (straight.best_epoch, straight.best_val_loss) == (0, 1.0)
        assert (resumed.best_epoch, resumed.best_val_loss) == (-1, 1.0)
        assert load_checkpoint(tmp_path / "resumed" / "best.ckpt").epoch == 1
        assert (tmp_path / "resumed" / "best.ckpt").read_bytes() == \
            (tmp_path / "straight" / "best.ckpt").read_bytes()

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        spec = SynthSpec(video_count=10, max_frames=16, dim=8, seed=6)
        config = desk_config(max_epochs=3, seed=5)

        straight = train(memory_corpus(spec), config)

        two_epochs = train(memory_corpus(spec), desk_config(max_epochs=2, seed=5))
        path = tmp_path / "resume.ckpt"
        save_checkpoint(two_epochs.state, path)
        resumed_state = load_checkpoint(path)
        resumed = train(memory_corpus(spec), config, state=resumed_state)

        assert resumed.history[0] == straight.history[2]
        assert state_hash(resumed.state) == state_hash(straight.state)


class TestEvaluate:
    def test_scores_in_unit_interval(self):
        corpus = memory_corpus()
        result = train(corpus, desk_config(max_epochs=1))
        run = evaluate(result.state, corpus.val)
        for v in run.videos:
            assert (v.scores >= 0).all() and (v.scores <= 1).all()


CHUNK_WIRINGS = dict(WIRINGS, float32={"dtype": "float32"})


def max_relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


class TestChunkedEval:
    """predict_scores and the val pass forward a video in chunks of
    EVAL_CHUNK frames, each with a halo of eval_halo frames; every frame's
    score must be the whole-video forward's up to round-off."""

    @pytest.mark.parametrize("frames", [512, 513, 1025])
    @pytest.mark.parametrize("wiring", CHUNK_WIRINGS)
    def test_chunked_scores_match_the_whole_video(self, monkeypatch, wiring, frames):
        config = desk_config(**CHUNK_WIRINGS[wiring])
        state = fresh_state(memory_corpus(), config)
        features = np.random.default_rng(frames).standard_normal((frames, 8))
        windows = []
        real_forward = trainer_module.forward

        def recording_forward(chunk, *args, **kwargs):
            windows.append(chunk.shape[0])
            return real_forward(chunk, *args, **kwargs)

        monkeypatch.setattr(trainer_module, "forward", recording_forward)
        got = trainer_module.predict_scores(state, features)
        want, _ = whole_video_eval(state, features)
        assert got.dtype == want.dtype == config.np_dtype
        h = trainer_module.eval_halo(state.config)
        assert h == (0 if wiring in ("extractor-only", "linear", "disable-temporal") else 2)
        chunk = trainer_module.EVAL_CHUNK
        assert windows == [min(a + chunk + h, frames) - max(a - h, 0)
                           for a in range(0, frames, chunk)]
        if frames <= chunk:      # one forward over [0, T): the whole video's, bitwise
            npt.assert_array_equal(got, want)
        assert max_relative_gap(got, want) <= 1e-12

    @pytest.mark.parametrize("wiring", ["full", "disable-attention"])
    def test_halo_wider_than_the_chunk(self, monkeypatch, wiring):
        monkeypatch.setattr(trainer_module, "EVAL_CHUNK", 2)
        state = fresh_state(memory_corpus(), desk_config(n_blocks=5, **WIRINGS[wiring]))
        assert trainer_module.eval_halo(state.config) == 5
        features = np.random.default_rng(4).standard_normal((23, 8))
        got = trainer_module.predict_scores(state, features)
        want, _ = whole_video_eval(state, features)
        assert max_relative_gap(got, want) <= 1e-12

    def test_graph_building_is_on_between_chunks(self, monkeypatch):
        monkeypatch.setattr(trainer_module, "EVAL_CHUNK", 4)
        state = fresh_state(memory_corpus(), desk_config())
        features = np.random.default_rng(5).standard_normal((10, 8))
        chunks = trainer_module.eval_forward(state, features)
        next(chunks)     # a caller that stops after the first chunk
        assert forward(features, None, state, "train").logits.requires_grad

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("chunk", [512, 5])
    def test_val_loss_matches_the_whole_video(self, monkeypatch, chunk, dtype):
        monkeypatch.setattr(trainer_module, "EVAL_CHUNK", chunk)
        corpus = memory_corpus()
        config = desk_config(dtype=dtype)
        state = fresh_state(corpus, config)
        run_epoch(state, corpus, config, "train")
        report = run_epoch(state, corpus, config, "val")
        wants = [whole_video_eval(state, v.features, v.labels, corpus.anchors)[1]
                 for v in corpus.val]
        got = (report.mean_total, report.mean_action, report.mean_attribute)
        longest = max(v.features.shape[0] for v in corpus.val)
        if chunk >= longest:     # one chunk a video: the whole-video losses, bitwise
            totals = actions = attributes = 0.0
            for total, action, attribute in wants:
                totals += total
                actions += action
                attributes += attribute
            n = len(wants)
            assert got == (totals / n, actions / n, attributes / n)
        else:
            assert longest > 3 * chunk
            rtol = 1e-12 if dtype == "float64" else 1e-5
            npt.assert_allclose(got, np.mean(wants, axis=0), rtol=rtol, atol=0)

    def test_peak_memory_does_not_grow_with_the_video(self, monkeypatch):
        # tracemalloc counts the untouched block freed to steer the allocator;
        # without it the trace shows what the chunks hold
        monkeypatch.setattr(trainer_module, "_HEAP_KEEP_BYTES", 0)
        corpus = memory_corpus(SynthSpec(video_count=12, max_frames=24, seed=2))
        config = desk_config()
        dims = (corpus.train[0].features.shape[1], corpus.anchors.attribute_count,
                corpus.train[0].labels.shape[1])
        prior = prior_from_dense([v.labels for v in corpus.train], corpus.attribute_map, dims[1])
        state = init_model_state(config.model_config(*dims), prior, seed=0)
        rng = np.random.default_rng(9)
        chunk = trainer_module.EVAL_CHUNK

        def peak(frames):
            features = rng.standard_normal((frames, dims[0]))
            return traced(lambda: trainer_module.predict_scores(state, features))[2]

        short, long = peak(2 * chunk), peak(8 * chunk)
        assert long <= 1.1 * short, \
            f"{8 * chunk} frames peak at {long / 2 ** 20:.2f} MB, " \
            f"{2 * chunk} at {short / 2 ** 20:.2f} MB"


class TestTrainOutputs:
    def test_writes_checkpoints_and_log(self, tmp_path):
        spec = SynthSpec(video_count=8, max_frames=16, dim=8, seed=8)
        corpus = generate_synthetic_corpus(spec)
        write_corpus(corpus, tmp_path / "corpus")
        index = read_manifest(tmp_path / "corpus" / "manifest.json")
        result = train(index, desk_config(max_epochs=2), out_dir=tmp_path / "run")
        assert (tmp_path / "run" / "final.ckpt").exists()
        assert (tmp_path / "run" / "best.ckpt").exists()
        lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert {"epoch", "train", "val", "val_map", "learning_rate"} <= set(record)
        assert result.best_epoch >= 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(plateau_patience=0).validate()
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"no_such_key": 1})

    @pytest.mark.parametrize("over", [
        dict(max_frames=0, ablation="linear"), dict(max_frames=-3, ablation="linear"),
        dict(max_frames=1, ablation="full"), dict(max_frames=1, ablation="extractor-only"),
        dict(grad_clip=-1.0), dict(grad_clip=0.0), dict(grad_clip=float("nan")),
    ], ids=["frames-0-linear", "frames-negative", "frames-1-full", "frames-1-extractor-only",
            "clip-negative", "clip-0", "clip-nan"])
    def test_crop_length_and_clip_norm_validated(self, over):
        with pytest.raises(ValueError, match="max_frames|grad_clip"):
            desk_config(**over).validate()

    @pytest.mark.parametrize("over", [dict(max_frames=1, ablation="linear"),
                                      dict(max_frames=2), dict(max_frames=None),
                                      dict(grad_clip=0.5), dict(grad_clip=None)])
    def test_valid_crop_lengths_and_clip_norms_accepted(self, over):
        desk_config(**over).validate()

    @pytest.mark.parametrize("ablation", ["full", "extractor-only", "linear"])
    def test_one_frame_train_video_named_before_the_first_epoch(self, tmp_path, ablation):
        corpus = memory_corpus()
        short = corpus.train[3]
        corpus.train[3] = LoadedVideo(short.video_id, short.features[:1], short.labels[:1])
        config = desk_config(max_epochs=1, ablation=ablation)
        if ablation == "linear":   # no batch norm: one frame is enough
            assert len(train(corpus, config, out_dir=tmp_path).history) == 1
            return
        with pytest.raises(ValueError, match=f"train video '{short.video_id}' has fewer than 2"):
            train(corpus, config, out_dir=tmp_path)
        assert not (tmp_path / "train_log.jsonl").exists()

    def test_float32_training_mode_runs(self):
        corpus = memory_corpus()
        for videos in (corpus.train, corpus.val):
            for v in videos:
                v.features = v.features.astype(np.float32)
        config = desk_config(max_epochs=2, dtype="float32")
        result = train(corpus, config)
        assert result.state.params["bottleneck.weight"].dtype == np.float32
        assert np.isfinite(result.history[-1]["train"]["mean_total"])
        assert result.best_val_map is not None

    def test_profiles(self):
        desk = TrainConfig.desk_profile()
        assert desk.hidden_dim == 16 and desk.n_blocks == 2
        paper = TrainConfig.paper_profile()
        assert paper.hidden_dim == 256 and paper.n_blocks == 5
        assert paper.learning_rate == 1e-4 and paper.batch_size == 32
        assert paper.plateau_factor == 0.5 and paper.plateau_patience == 8
