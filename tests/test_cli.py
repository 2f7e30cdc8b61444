import hashlib
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from aan.cli import main
from aan.data import read_score_file, write_feature_file


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

    def test_eval_parallel_matches_serial(self, trained, capsys):
        corpus, run_dir = trained
        base = ["eval", "--manifest", str(corpus / "manifest.json"),
                "--checkpoint", str(run_dir / "best.ckpt")]
        assert run_cli(base) == 0
        serial = capsys.readouterr().out.splitlines()[-1]
        assert run_cli(base + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out.splitlines()[-1]
        assert serial == parallel

    def test_oracle_scores_give_map_one(self, trained, tmp_path, capsys):
        corpus, _ = trained
        from aan.data import read_manifest, load_split
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
        from aan.data import read_manifest
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
