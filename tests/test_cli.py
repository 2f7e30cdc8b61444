import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import aan
from aan.cli import _gradcheck_suite, main
from aan.data import read_feature_file, read_manifest, read_score_file, write_feature_file
from test_trainer import rewrite_header


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse rejections
        return exc.code


def corpus_args(out, videos=10, seed=3):
    return ["synth", "--out", str(out), "--videos", str(videos), "--seed", str(seed),
            "--dim", "8", "--max-frames", "16"]


def dir_digest(root):
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small corpus and a short training run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert run_cli(corpus_args(corpus, videos=10, seed=3)) == 0
    run_dir = root / "run"
    code = run_cli([
        "train", "--manifest", str(corpus / "manifest.json"),
        "--out-dir", str(run_dir), "--profile", "desk",
        "--max-epochs", "2", "--seed", "1", "--quiet",
    ])
    assert code == 0
    return corpus, run_dir


class TestSynth:
    def test_is_deterministic_byte_for_byte(self, tmp_path, capsys):
        assert run_cli(corpus_args(tmp_path / "a", videos=6, seed=9)) == 0
        assert run_cli(corpus_args(tmp_path / "b", videos=6, seed=9)) == 0
        capsys.readouterr()
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_single_attribute_rejected(self, tmp_path, capsys):
        code = run_cli(["synth", "--out", str(tmp_path / "x"), "--n-attributes", "1"])
        capsys.readouterr()
        assert code == 2

    def test_manifest_lists_all_videos(self, tmp_path, capsys):
        assert run_cli(corpus_args(tmp_path / "c", videos=7)) == 0
        out = capsys.readouterr().out.splitlines()
        summary = json.loads(out[-1])
        assert summary["videos"] == 7
        doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert len(doc["videos"]) == 7

    @pytest.mark.parametrize("classes", [51, 157])
    def test_many_classes(self, tmp_path, capsys, classes):
        out = tmp_path / "many"
        assert run_cli(corpus_args(out, videos=20) + ["--n-classes", str(classes)]) == 0
        capsys.readouterr()
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["class_count"] == classes

    def test_emits_resolved_config(self, tmp_path, capsys):
        assert run_cli(corpus_args(tmp_path / "d", videos=4)) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[0])
        assert first["resolved_config"]["command"] == "synth"
        assert first["resolved_config"]["seed"] == 3


class TestBuildPrior:
    def test_writes_prior_json(self, trained, tmp_path, capsys):
        corpus, _ = trained
        out = tmp_path / "prior.json"
        code = run_cli(["build-prior", "--manifest", str(corpus / "manifest.json"),
                        "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(out.read_text())
        p = np.array(doc["probabilities"])
        assert p.shape == (8, 8)
        assert ((p >= 0) & (p <= 1)).all()
        totals = np.array(doc["totals"])
        npt.assert_array_equal(np.diag(np.array(doc["counts"])), totals)


class TestTrain:
    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = run_cli(["train", "--manifest", str(tmp_path / "nope.json"),
                        "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 2
        assert "nope.json" in err

    def test_writes_artifacts_and_summary(self, trained, capsys):
        _, run_dir = trained
        assert (run_dir / "best.ckpt").exists()
        assert (run_dir / "final.ckpt").exists()
        assert (run_dir / "resolved_config.json").exists()
        assert len((run_dir / "train_log.jsonl").read_text().splitlines()) == 2

    def test_extractor_only_ablation_runs(self, trained, tmp_path, capsys):
        corpus, _ = trained
        code = run_cli([
            "train", "--manifest", str(corpus / "manifest.json"),
            "--out-dir", str(tmp_path / "run2"), "--profile", "desk",
            "--max-epochs", "1", "--ablation", "extractor-only", "--quiet",
        ])
        capsys.readouterr()
        assert code == 0

    def test_final_loss_below_initial_on_longer_run(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run_cli(corpus_args(corpus, videos=8, seed=5)) == 0
        code = run_cli([
            "train", "--manifest", str(corpus / "manifest.json"),
            "--out-dir", str(tmp_path / "run"), "--profile", "desk",
            "--max-epochs", "8", "--seed", "2", "--quiet",
        ])
        capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in
                   (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()]
        assert records[-1]["train"]["mean_total"] < records[0]["train"]["mean_total"]

    @pytest.mark.parametrize("flags, name", [
        (["--max-frames", "0", "--ablation", "linear"], "max_frames"),
        (["--max-frames", "1"], "max_frames"),
        (["--grad-clip", "-1"], "grad_clip"),
    ], ids=["frames-0-linear", "frames-1-full", "clip-negative"])
    def test_bad_crop_or_clip_exits_2_before_reading_the_corpus(self, tmp_path, capsys,
                                                                flags, name):
        # the manifest does not exist: the config is rejected before it is read
        code = run_cli(["train", "--manifest", str(tmp_path / "nope.json"),
                        "--out-dir", str(tmp_path / "run"), "--profile", "desk"] + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert name in err and "nope.json" not in err
        assert not (tmp_path / "run").exists()

    def test_unknown_flag_rejected(self, tmp_path, capsys):
        code = run_cli(["train", "--manifest", "x", "--out-dir", "y", "--frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_config_file_with_flag_overrides(self, trained, tmp_path, capsys):
        corpus, _ = trained
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "profile": "desk", "max_epochs": 5, "seed": 6,
        }))
        code = run_cli([
            "train", "--manifest", str(corpus / "manifest.json"),
            "--out-dir", str(tmp_path / "run"), "--config", str(config_path),
            "--max-epochs", "1", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        resolved = json.loads(out.splitlines()[0])["resolved_config"]
        assert resolved["max_epochs"] == 1   # flag wins over file
        assert resolved["seed"] == 6         # file value kept
        assert resolved["hidden_dim"] == 16  # desk profile applied

    def test_unknown_config_key_rejected(self, trained, tmp_path, capsys):
        corpus, _ = trained
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"no_such_option": 1}))
        code = run_cli([
            "train", "--manifest", str(corpus / "manifest.json"),
            "--out-dir", str(tmp_path / "run"), "--config", str(config_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "no_such_option" in err

    @pytest.mark.parametrize("text, flags, key", [
        ('{"hidden_dim": "x"}', [], "hidden_dim"),
        ('{"batch_size": 2.5}', [], "batch_size"),
        ('{"seed": "3"}', [], "seed"),
        ('{"seed": null}', [], "seed"),
        ('{"learning_rate": true}', [], "learning_rate"),
        ('{"disable_attention": 1}', [], "disable_attention"),
        ("[1]", [], "JSON object"),
        ("{", [], "not valid JSON"),
        (None, ["--n-heads", "0"], "n_heads must be positive"),
        ('{"n_heads": 0}', [], "n_heads must be positive"),
        ('{"plateau_factor": 1.5}', [], "plateau_factor must be in (0, 1)"),
    ], ids=["hidden-dim-string", "batch-size-fractional", "seed-string", "seed-null",
            "learning-rate-bool", "disable-attention-int", "not-an-object", "invalid-json",
            "heads-0-flag", "heads-0-file", "plateau-factor-out-of-range-file"])
    def test_ill_typed_config_exits_2_naming_key_and_file(self, tmp_path, capsys, text,
                                                          flags, key):
        args = ["train", "--manifest", str(tmp_path / "nope.json"),
                "--out-dir", str(tmp_path / "run"), "--profile", "desk"] + flags
        config_path = tmp_path / "config.json"
        if text is not None:
            config_path.write_text(text)
            args += ["--config", str(config_path)]
        code = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2
        assert key in err and "nope.json" not in err
        assert (str(config_path) in err) == (text is not None)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, flags, message, names_file", [
        ('{"profile": "desk"}', ["--n-heads", "0"], "n_heads must be positive", False),
        ('{"hidden_dim": 0}', ["--n-heads", "0"], "n_heads must be positive", False),
        ('{"n_heads": 3}', ["--hidden-dim", "16"], "must be divisible by n_heads 3", True),
        ('{"hidden_dim": 0}', ["--n-heads", "2"], "hidden_dim must be positive", True),
    ], ids=["flag-out-of-range", "flag-and-file-out-of-range", "file-with-flag-indivisible",
            "file-out-of-range-with-flag"])
    def test_range_error_names_the_file_only_when_the_flags_alone_are_valid(
            self, tmp_path, capsys, text, flags, message, names_file):
        config_path = tmp_path / "c.json"
        config_path.write_text(text)
        code = run_cli(["train", "--manifest", str(tmp_path / "nope.json"),
                        "--out-dir", str(tmp_path / "run"), "--config", str(config_path)]
                       + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "nope.json" not in err
        assert (str(config_path) in err) == names_file, err
        assert not (tmp_path / "run").exists()

    def test_config_file_values_stand_where_no_flag_is_given(self, trained, tmp_path, capsys):
        corpus, _ = trained
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"profile": "desk", "disable_attention": True,
                                           "grad_clip": None, "max_epochs": 1}))
        code = run_cli(["train", "--manifest", str(corpus / "manifest.json"),
                        "--out-dir", str(tmp_path / "run"), "--config", str(config_path),
                        "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        resolved = json.loads(out.splitlines()[0])["resolved_config"]
        assert resolved["disable_attention"] is True
        assert resolved["disable_temporal"] is False
        assert resolved["grad_clip"] is None

    @pytest.mark.parametrize("value, code", [(None, 0), (8, 2)], ids=["null", "set"])
    def test_old_resolved_config_with_retired_keys(self, trained, tmp_path, capsys, value, code):
        corpus, run_dir = trained
        doc = json.loads((run_dir / "resolved_config.json").read_text())
        # resolved configs written before these keys were retired hold all three at null
        doc.update(input_dim=value, n_attributes=None, n_classes=None, max_epochs=1)
        config_path = tmp_path / "resolved_config.json"
        config_path.write_text(json.dumps(doc))
        got = run_cli(["train", "--manifest", str(corpus / "manifest.json"),
                       "--out-dir", str(tmp_path / "run"), "--config", str(config_path),
                       "--quiet"])
        err = capsys.readouterr().err
        assert got == code
        if code == 2:
            assert "input_dim" in err
            assert not (tmp_path / "run").exists()

    def test_one_frame_train_video_exits_2_naming_it(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run_cli(corpus_args(corpus)) == 0
        manifest = corpus / "manifest.json"
        doc = json.loads(manifest.read_text())
        record = next(r for r in doc["videos"] if r["split"] == "train")
        features = corpus / record["features"]
        write_feature_file(features, read_feature_file(features).features[:1])
        record["labels"] = [[c, 0, 0] for c, start, _ in record["labels"] if start == 0]
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli(["train", "--manifest", str(manifest), "--out-dir", str(tmp_path / "run"),
                        "--profile", "desk", "--max-epochs", "1", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"train video {record['video_id']!r} has fewer than 2 frames" in err
        assert not (tmp_path / "run" / "train_log.jsonl").exists()


class TestEval:
    def test_eval_from_checkpoint(self, trained, capsys):
        corpus, run_dir = trained
        code = run_cli([
            "eval", "--manifest", str(corpus / "manifest.json"),
            "--checkpoint", str(run_dir / "best.ckpt"),
            "--conditional", "--tau", "0,2,4", "--table", "--curves",
        ])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out.splitlines()[-1])["report"]
        assert report["per_frame"]["mean_ap"] is not None
        assert [c["tau"] for c in report["conditional"]] == [0, 2, 4]
        for c in report["conditional"]:
            assert {"precision", "recall", "f1", "mean_ap"} <= set(c)
        assert report["curves"]  # per-class precision-at-positive lists
        assert "per-frame mAP" in captured.err

    def test_eval_is_deterministic(self, trained, capsys):
        corpus, run_dir = trained
        args = ["eval", "--manifest", str(corpus / "manifest.json"),
                "--checkpoint", str(run_dir / "best.ckpt")]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_oracle_scores_give_map_one(self, trained, tmp_path, capsys):
        corpus, _ = trained
        from aan.data import load_split
        from aan.data import write_score_file
        index = read_manifest(corpus / "manifest.json")
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for v in load_split(index, "val"):
            write_score_file(scores_dir / f"{v.video_id}.aans", v.labels.astype(np.float32))
        code = run_cli(["eval", "--manifest", str(corpus / "manifest.json"),
                        "--scores", str(scores_dir)])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out.splitlines()[-1])["report"]
        assert report["per_frame"]["mean_ap"] == 1.0

    def test_checkpoint_corpus_mismatch_exits_2(self, trained, tmp_path, capsys):
        _, run_dir = trained
        other = tmp_path / "other"
        assert run_cli(["synth", "--out", str(other), "--videos", "4", "--dim", "12",
                        "--max-frames", "16", "--seed", "1"]) == 0
        code = run_cli(["eval", "--manifest", str(other / "manifest.json"),
                        "--checkpoint", str(run_dir / "best.ckpt")])
        capsys.readouterr()
        assert code == 2


class TestExitCodes:
    def test_non_finite_loss_maps_to_exit_3(self, trained, tmp_path, capsys, monkeypatch):
        corpus, _ = trained
        from aan import cli
        from aan.trainer import NonFiniteLossError

        def explode(*args, **kwargs):
            raise NonFiniteLossError("non-finite loss in epoch 0 on videos ['vid_0000']")

        monkeypatch.setattr(cli, "train", explode)
        code = run_cli(["train", "--manifest", str(corpus / "manifest.json"),
                        "--out-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical abort" in err


class TestGradcheckCommand:
    def test_passes_and_reports_each_operation(self, capsys):
        assert run_cli(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 13
        assert "max_rel_err" in out
        assert "full_model_total_loss" in out

    def test_bottleneck_case_differentiates_input_and_weight(self):
        inputs = {name: arrays for name, _, arrays in _gradcheck_suite(1)}
        assert set(inputs["bottleneck"]) == {"x", "w"}
        assert inputs["bottleneck"]["x"].ndim == 3  # [T, N, D0]: the one-GEMM forward

    def test_injected_fault_fails_with_exit_1(self, capsys):
        assert run_cli(["gradcheck", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestPredict:
    def test_scores_file_round_trip_and_range(self, trained, tmp_path, capsys):
        corpus, run_dir = trained
        feature_file = next((corpus / "features").glob("*.aanf"))
        out = tmp_path / "scores.aans"
        code = run_cli(["predict", "--checkpoint", str(run_dir / "best.ckpt"),
                        "--features", str(feature_file), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        scores = read_score_file(out)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_predict_then_eval_matches_checkpoint_eval(self, trained, tmp_path, capsys):
        corpus, run_dir = trained
        index = read_manifest(corpus / "manifest.json")
        scores_dir = tmp_path / "pred"
        scores_dir.mkdir()
        for entry in index.split("val"):
            code = run_cli(["predict", "--checkpoint", str(run_dir / "best.ckpt"),
                            "--features", str(entry.feature_path),
                            "--out", str(scores_dir / f"{entry.video_id}.aans")])
            assert code == 0
        capsys.readouterr()

        base = ["eval", "--manifest", str(corpus / "manifest.json")]
        assert run_cli(base + ["--checkpoint", str(run_dir / "best.ckpt")]) == 0
        from_ckpt = json.loads(capsys.readouterr().out.splitlines()[-1])["report"]
        assert run_cli(base + ["--scores", str(scores_dir)]) == 0
        from_scores = json.loads(capsys.readouterr().out.splitlines()[-1])["report"]
        npt.assert_allclose(from_scores["per_frame"]["mean_ap"],
                            from_ckpt["per_frame"]["mean_ap"], atol=1e-6)

    def test_dim_mismatch_exits_2(self, trained, tmp_path, capsys):
        _, run_dir = trained
        bad = tmp_path / "bad.aanf"
        write_feature_file(bad, np.zeros((4, 5), dtype=np.float32))
        code = run_cli(["predict", "--checkpoint", str(run_dir / "best.ckpt"),
                        "--features", str(bad), "--out", str(tmp_path / "s.aans")])
        capsys.readouterr()
        assert code == 2

    def test_zero_frame_features_exit_2(self, trained, tmp_path, capsys):
        _, run_dir = trained
        blank = tmp_path / "blank.aanf"
        write_feature_file(blank, np.zeros((0, 8), dtype=np.float32))
        code = run_cli(["predict", "--checkpoint", str(run_dir / "best.ckpt"),
                        "--features", str(blank), "--out", str(tmp_path / "s.aans")])
        err = capsys.readouterr().err
        assert code == 2
        assert "'blank' has no frames" in err
        assert not (tmp_path / "s.aans").exists()

    @pytest.mark.parametrize("cut", [8, 100])
    def test_checkpoint_truncated_in_its_header_exits_2(self, trained, tmp_path, capsys, cut):
        corpus, run_dir = trained
        truncated = tmp_path / "t.ckpt"
        truncated.write_bytes((run_dir / "best.ckpt").read_bytes()[:cut])
        feature_file = next((corpus / "features").glob("*.aanf"))
        code = run_cli(["predict", "--checkpoint", str(truncated),
                        "--features", str(feature_file), "--out", str(tmp_path / "s.aans")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{truncated}: truncated header" in err

    @pytest.mark.parametrize("blob", [b'{"epoch": 0}', b"[1,2]", b"\xff" * 40, b"hello"],
                             ids=["missing-model-config", "json-list", "not-utf8", "not-json"])
    def test_malformed_header_exits_2_naming_the_file(self, trained, tmp_path, capsys, blob):
        corpus, _ = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"AANC" + struct.pack("<HQ", 1, len(blob)) + blob)
        feature_file = next((corpus / "features").glob("*.aanf"))
        code = run_cli(["predict", "--checkpoint", str(bad),
                        "--features", str(feature_file), "--out", str(tmp_path / "s.aans")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: malformed header" in err

    def test_malformed_header_value_exits_2_naming_the_file(self, trained, tmp_path, capsys):
        corpus, run_dir = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((run_dir / "best.ckpt").read_bytes())
        rewrite_header(bad, lambda h: h["tensors"][0].update(dtype="object"))
        feature_file = next((corpus / "features").glob("*.aanf"))
        code = run_cli(["predict", "--checkpoint", str(bad),
                        "--features", str(feature_file), "--out", str(tmp_path / "s.aans")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: malformed header" in err

    def test_unparsable_dtype_exits_2_naming_the_file(self, trained, tmp_path, capsys):
        # np.dtype(",loat64") raises SyntaxError, which is neither TypeError nor ValueError
        corpus, run_dir = trained
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes((run_dir / "best.ckpt").read_bytes())
        rewrite_header(bad, lambda h: h["tensors"][0].update(dtype=",loat64"))
        code = run_cli(["eval", "--manifest", str(corpus / "manifest.json"),
                        "--checkpoint", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad}: malformed header" in err


def run_readme(first: int, last: int, cwd: Path, edits=()) -> subprocess.CompletedProcess:
    """Run README's CLI steps `first` to `last` as written, with `aan` on PATH."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    steps = readme[readme.index(f"# {first}. "):]
    steps = steps[:steps.index("```")].split(f"# {last + 1}. ")[0]
    for old, new in edits:
        assert old in steps
        steps = steps.replace(old, new)
    shim = cwd / "bin" / "aan"
    shim.parent.mkdir()
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m aan.cli "$@"\n')
    shim.chmod(0o755)
    src = str(Path(aan.__file__).resolve().parents[1])
    env = dict(os.environ, PATH=f"{shim.parent}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(["bash", "-e", "-c", steps], cwd=cwd, env=env,
                          capture_output=True, text=True)


class TestReadme:
    def test_steps_1_to_5_run_as_written(self, tmp_path):
        """Steps 1-5 on the corpus step 1 makes, with 2 training epochs in place of 120."""
        done = run_readme(1, 5, tmp_path, edits=[("--max-epochs 120", "--max-epochs 2")])
        assert done.returncode == 0, done.stderr
        for path in ("corpus/manifest.json", "prior.json", "run/best.ckpt", "run/final.ckpt"):
            assert (tmp_path / path).exists(), path
        reports = [json.loads(line)["report"] for line in done.stdout.splitlines()
                   if line.startswith('{"report"')]
        assert len(reports) == 1
        assert reports[0]["per_frame"]["mean_ap"] is not None
        assert [c["tau"] for c in reports[0]["conditional"]] == [0, 20, 40]
        assert "per-frame mAP" in done.stderr        # the --table output
        assert "PASS  gradient oracle: 0 failing operation(s)" in done.stdout

    def test_step_6_scores_every_val_video_and_evaluates_them(self, trained, tmp_path):
        """Runs README step 6 as written, with `aan` on PATH, on the trained corpus."""
        corpus, run_dir = trained
        (tmp_path / "corpus").symlink_to(corpus)
        (tmp_path / "run").symlink_to(run_dir)
        done = run_readme(6, 6, tmp_path)
        assert done.returncode == 0, done.stderr
        val_ids = [entry.video_id for entry in read_manifest(corpus / "manifest.json").split("val")]
        assert sorted(p.name for p in (tmp_path / "scores_dir").iterdir()) == \
            sorted(f"{vid}.aans" for vid in val_ids)
        report = json.loads(done.stdout.splitlines()[-1])["report"]
        assert report["per_frame"]["mean_ap"] is not None
