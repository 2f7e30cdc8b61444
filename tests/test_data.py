import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from aan.cli import main
from aan.data import (
    AnchorSet,
    AttributeMap,
    BoundsError,
    CorpusError,
    FormatError,
    IntervalLabelSet,
    SynthSpec,
    ValidationError,
    generate_synthetic_corpus,
    load_split,
    make_batches,
    read_anchor_file,
    read_feature_file,
    read_feature_header,
    read_manifest,
    read_score_file,
    write_anchor_file,
    write_corpus,
    write_feature_file,
    write_score_file,
)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_synthetic_corpus(SynthSpec(video_count=12, max_frames=32, seed=3))


@pytest.fixture()
def corpus_dir(tmp_path, small_corpus):
    write_corpus(small_corpus, tmp_path / "corpus")
    return tmp_path / "corpus"


class TestFeatureFile:
    def test_round_trip_shape(self, tmp_path):
        path = tmp_path / "x.aanf"
        values = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_feature_file(path, values)
        fs = read_feature_file(path)
        assert fs.features.shape == (2, 3)
        assert fs.video_id == "x"

    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "y.aanf"
        values = np.random.default_rng(0).standard_normal((7, 4)).astype(np.float32)
        write_feature_file(path, values)
        npt.assert_array_equal(read_feature_file(path).features, values)

    # each writes a 60-byte payload: 15 float32 values
    @pytest.mark.parametrize("suffix, write, read", [
        ("aanf", lambda p: write_feature_file(p, np.zeros((5, 3), dtype=np.float32)),
         read_feature_file),
        ("aant", lambda p: write_anchor_file(p, AnchorSet(["a", "b", "c"], ["{}"],
                                                          np.ones((3, 1, 5)))),
         read_anchor_file),
        ("aans", lambda p: write_score_file(p, np.zeros((5, 3), dtype=np.float32)),
         read_score_file),
    ], ids=["aanf", "aant", "aans"])
    def test_truncated_payload_names_byte_counts(self, tmp_path, suffix, write, read):
        path = tmp_path / f"z.{suffix}"
        write(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 12])  # drop three values
        with pytest.raises(FormatError, match=re.escape(str(path)) +
                           ": truncated payload: expected 60 bytes for .* float32, got 48"):
            read(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.aanf"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="bad magic"):
            read_feature_file(path)

    def test_zero_frame_file_rejected_naming_the_video(self, tmp_path):
        path = tmp_path / "blank.aanf"
        write_feature_file(path, np.zeros((0, 4), dtype=np.float32))
        assert read_feature_header(path) == (0, 4)
        with pytest.raises(ValidationError, match="'blank' has no frames"):
            read_feature_file(path)

    def test_header_peek(self, tmp_path):
        path = tmp_path / "h.aanf"
        write_feature_file(path, np.zeros((9, 2), dtype=np.float32))
        assert read_feature_header(path) == (9, 2)


class TestAnchorFile:
    def test_round_trip(self, tmp_path, small_corpus):
        path = tmp_path / "a.aant"
        write_anchor_file(path, small_corpus.anchors)
        back = read_anchor_file(path)
        assert back.attribute_names == small_corpus.anchors.attribute_names
        assert back.prompt_templates == small_corpus.anchors.prompt_templates
        npt.assert_array_equal(back.anchors, small_corpus.anchors.anchors)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            AnchorSet(["a", "a"], ["p {}"], np.ones((2, 1, 3), dtype=np.float32))

    def test_zero_vector_rejected(self):
        vecs = np.ones((2, 1, 3), dtype=np.float32)
        vecs[1] = 0.0
        with pytest.raises(ValidationError, match="nonzero"):
            AnchorSet(["a", "b"], ["p {}"], vecs)


class TestScoreFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "s.aans"
        scores = np.random.default_rng(1).random((6, 3)).astype(np.float32)
        write_score_file(path, scores)
        npt.assert_array_equal(read_score_file(path), scores)


class TestLabels:
    def test_densify_single_interval(self):
        labels = IntervalLabelSet("v", 2, [(0, 1, 2)])
        dense = labels.densify(4)
        npt.assert_array_equal(dense[:, 0], [0, 1, 1, 0])
        npt.assert_array_equal(dense[:, 1], [0, 0, 0, 0])

    def test_overlapping_same_class_merges_idempotently(self):
        a = IntervalLabelSet("v", 1, [(0, 0, 3), (0, 2, 5)]).densify(8)
        b = IntervalLabelSet("v", 1, [(0, 0, 5)]).densify(8)
        npt.assert_array_equal(a, b)

    def test_multi_label_co_occurrence(self):
        dense = IntervalLabelSet("v", 2, [(0, 1, 3), (1, 2, 4)]).densify(6)
        npt.assert_array_equal(dense[2], [1, 1])
        npt.assert_array_equal(dense[3], [1, 1])

    def test_out_of_range_interval(self):
        with pytest.raises(BoundsError):
            IntervalLabelSet("v", 1, [(0, 2, 7)]).densify(5)
        with pytest.raises(BoundsError):
            IntervalLabelSet("v", 1, [(3, 0, 1)]).densify(5)

    def test_values_are_binary_and_order_invariant(self):
        rng = np.random.default_rng(2)
        intervals = [(int(rng.integers(0, 3)), 2, 9) for _ in range(6)]
        a = IntervalLabelSet("v", 3, intervals).densify(12)
        b = IntervalLabelSet("v", 3, intervals[::-1]).densify(12)
        npt.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 1.0}


class TestAttributeMap:
    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            AttributeMap([[0], []], attribute_count=2)

    def test_attribute_out_of_range(self):
        with pytest.raises(BoundsError):
            AttributeMap([[0], [5]], attribute_count=2)

    def test_frame_attributes_union(self):
        amap = AttributeMap([[0], [0, 1]], attribute_count=3)
        dense = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        active = amap.frame_attributes(dense)
        npt.assert_array_equal(active, [[1, 0, 0], [1, 1, 0], [0, 0, 0]])

    def test_incidence_is_built_once_and_read_only(self):
        amap = AttributeMap([[0], [0, 1]], attribute_count=3)
        incidence = amap.incidence()
        npt.assert_array_equal(incidence, [[1, 0, 0], [1, 1, 0]])
        assert amap.incidence() is incidence
        with pytest.raises(ValueError, match="read-only"):
            incidence[0, 2] = 1.0


class TestManifest:
    def test_round_trip_index(self, corpus_dir, small_corpus):
        index = read_manifest(corpus_dir / "manifest.json")
        assert len(index.videos) == small_corpus.spec.video_count
        assert index.dim == small_corpus.spec.dim
        assert len(index.split("train")) == 10  # round(12 * 0.8)
        assert len(index.split("val")) == 2

    def test_mixed_dims_rejected(self, corpus_dir):
        bad = corpus_dir / "features" / "vid_0000.aanf"
        write_feature_file(bad, np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(CorpusError, match="dim"):
            read_manifest(corpus_dir / "manifest.json")

    def test_dangling_path_is_missing_file_error(self, corpus_dir):
        (corpus_dir / "features" / "vid_0001.aanf").unlink()
        with pytest.raises(FileNotFoundError):
            read_manifest(corpus_dir / "manifest.json")

    def test_empty_train_split_rejected(self, corpus_dir):
        doc = json.loads((corpus_dir / "manifest.json").read_text())
        for rec in doc["videos"]:
            rec["split"] = "val"
        (corpus_dir / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="train"):
            read_manifest(corpus_dir / "manifest.json")

    def test_labels_beyond_frames_rejected(self, corpus_dir):
        doc = json.loads((corpus_dir / "manifest.json").read_text())
        doc["videos"][0]["labels"] = [[0, 0, 10_000]]
        (corpus_dir / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match="frames"):
            read_manifest(corpus_dir / "manifest.json")


def _set_dim_null(doc):
    doc["dim"] = None


def _set_class_count_true(doc):
    doc["class_count"] = True


def _set_first_record_empty(doc):
    doc["videos"][0] = {}


def _set_fractional_label_class(doc):
    doc["videos"][0]["labels"] = [[1.5, 0, 0]]


def _set_first_labels(triple):
    def edit(doc):
        doc["videos"][0]["labels"] = [triple]
    return edit


class TestManifestTypes:
    """Ill-typed manifest values are CorpusErrors naming the manifest, and
    `aan eval` exits 2 on them instead of escaping with a traceback."""

    @pytest.mark.parametrize("edit", [_set_dim_null, _set_class_count_true,
                                      _set_first_record_empty, _set_fractional_label_class,
                                      _set_first_labels([99, 0, 0]),
                                      _set_first_labels([-1, 0, 0]),
                                      _set_first_labels([0, 5, 3]),
                                      _set_first_labels([0, -1, 0])],
                             ids=["dim-null", "class-count-bool", "record-empty",
                                  "label-class-fractional", "label-class-99",
                                  "label-class-negative", "label-start-after-end",
                                  "label-start-negative"])
    def test_rejected_naming_the_manifest(self, corpus_dir, tmp_path, capsys, edit):
        manifest = corpus_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match=re.escape(str(manifest))):
            read_manifest(manifest)
        code = main(["eval", "--manifest", str(manifest), "--scores", str(tmp_path)])
        assert code == 2
        assert str(manifest) in capsys.readouterr().err


def _rewrite(doc, **changes):
    return json.dumps({**doc, **changes})


def _first_class(doc, entry):
    return _rewrite(doc, class_to_attributes=[entry] + doc["class_to_attributes"][1:])


# file, then the new text of that file from its parsed document
CORPUS_FILE_EDITS = {
    "map-classes-missing": ("attribute_map.json",
                            lambda d: json.dumps({"attribute_names": d["attribute_names"]})),
    "map-class-entry-int": ("attribute_map.json", lambda d: _first_class(d, 5)),
    "map-attribute-id-string": ("attribute_map.json", lambda d: _first_class(d, ["x"])),
    "map-attribute-id-fractional": ("attribute_map.json", lambda d: _first_class(d, [1.5])),
    "map-names-null": ("attribute_map.json", lambda d: _rewrite(d, attribute_names=None)),
    "map-not-an-object": ("attribute_map.json", lambda d: "[]"),
    "map-invalid-json": ("attribute_map.json", lambda d: "{"),
    "map-class-without-attributes": ("attribute_map.json", lambda d: _first_class(d, [])),
    "map-attribute-id-out-of-range": ("attribute_map.json", lambda d: _first_class(d, [99])),
    "manifest-anchors-int": ("manifest.json", lambda d: _rewrite(d, anchors=3)),
    "manifest-attribute-map-null": ("manifest.json", lambda d: _rewrite(d, attribute_map=None)),
}


class TestCorpusFileTypes:
    """An ill-typed attribute map, or manifest path to a shared file, is a
    CorpusError naming the file that holds it, and `aan eval` exits 2."""

    @pytest.mark.parametrize("name, edit", CORPUS_FILE_EDITS.values(), ids=CORPUS_FILE_EDITS)
    def test_rejected_naming_the_file(self, corpus_dir, tmp_path, capsys, name, edit):
        path = corpus_dir / name
        path.write_text(edit(json.loads(path.read_text())))
        manifest = corpus_dir / "manifest.json"
        with pytest.raises(CorpusError, match=re.escape(str(path))):
            read_manifest(manifest)
        code = main(["eval", "--manifest", str(manifest), "--scores", str(tmp_path)])
        assert code == 2
        assert str(path) in capsys.readouterr().err


class TestGenerator:
    def test_noiseless_single_attribute_reproduces_anchor(self):
        corpus = generate_synthetic_corpus(
            SynthSpec(video_count=6, max_frames=32, noise_sigma=0.0, seed=5)
        )
        base = corpus.anchors.anchors[:, 0, :]
        found = 0
        for fs, ls in zip(corpus.features, corpus.labels):
            dense = ls.densify(fs.frame_count)
            active = corpus.attribute_map.frame_attributes(dense)
            for t in range(fs.frame_count):
                idx = np.flatnonzero(active[t])
                if len(idx) == 1:
                    npt.assert_array_equal(fs.features[t], base[idx[0]])
                    found += 1
        assert found > 0

    def test_same_seed_is_bitwise_identical(self):
        spec = SynthSpec(video_count=5, max_frames=24, seed=11)
        a = generate_synthetic_corpus(spec)
        b = generate_synthetic_corpus(spec)
        assert a.splits == b.splits
        for fa, fb in zip(a.features, b.features):
            npt.assert_array_equal(fa.features, fb.features)
        for la, lb in zip(a.labels, b.labels):
            assert la.intervals == lb.intervals
        npt.assert_array_equal(a.anchors.anchors, b.anchors.anchors)

    def test_precondition_on_sizes(self):
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(SynthSpec(n_attributes=1))
        with pytest.raises(ValidationError):
            generate_synthetic_corpus(SynthSpec(n_classes=1))

    def test_planted_pair_rates_match_empirical_counts(self):
        corpus = generate_synthetic_corpus(SynthSpec(video_count=400, seed=7))
        frames_i = np.zeros(corpus.spec.n_classes)
        frames_ij = np.zeros((corpus.spec.n_classes, corpus.spec.n_classes))
        for fs, ls in zip(corpus.features, corpus.labels):
            dense = ls.densify(fs.frame_count).astype(np.int64)
            frames_i += dense.sum(axis=0)
            frames_ij += dense.T @ dense
        for (i, j), expected in corpus.planted.pair_rates.items():
            empirical = frames_ij[i, j] / frames_i[i]
            assert abs(empirical - expected) <= 0.05, (i, j, empirical, expected)

    def test_generic_layout_small_sizes(self):
        corpus = generate_synthetic_corpus(
            SynthSpec(n_attributes=3, n_classes=4, dim=8, video_count=4, max_frames=16, seed=1)
        )
        assert corpus.attribute_map.class_count == 4
        assert len(corpus.features) == 4
        assert corpus.planted.pair_rates  # pairs planted even in the fallback


class TestBatching:
    def _videos(self, lengths, dim=4, classes=2):
        rng = np.random.default_rng(0)
        out = []
        for i, t in enumerate(lengths):
            from aan.data import LoadedVideo
            out.append(LoadedVideo(
                video_id=f"v{i}",
                features=rng.standard_normal((t, dim)),
                labels=rng.integers(0, 2, (t, classes)).astype(float),
            ))
        return out

    def test_views_are_unpadded_crops_sharing_memory(self):
        videos = self._videos([3, 12, 8, 20, 5])
        batches = make_batches(videos, 2, max_frames=8, seed=2, epoch=1)
        views = [v for b in batches for v in b]
        assert [len(b) for b in batches] == [2, 2, 1]
        assert sorted(v.video_id for v in views) == [v.video_id for v in videos]
        source = {v.video_id: v for v in videos}
        for v in views:
            src = source[v.video_id]
            n = min(src.features.shape[0], 8)
            assert v.features.shape[0] == v.labels.shape[0] == n
            for view_array, src_array in ((v.features, src.features), (v.labels, src.labels)):
                assert np.shares_memory(view_array, src_array)

    def test_epoch_conserves_frames(self):
        videos = self._videos([3, 7, 5, 2])
        batches = make_batches(videos, 3, seed=1, epoch=4)
        total = sum(v.features.shape[0] for b in batches for v in b)
        assert total == 3 + 7 + 5 + 2
        seen = sorted(v.video_id for b in batches for v in b)
        assert seen == ["v0", "v1", "v2", "v3"]

    def test_train_crop_is_seeded(self):
        videos = self._videos([20])
        a = make_batches(videos, 1, max_frames=8, seed=3, epoch=2)
        b = make_batches(videos, 1, max_frames=8, seed=3, epoch=2)
        npt.assert_array_equal(a[0][0].features, b[0][0].features)
        assert a[0][0].features.shape[0] == 8

    def test_shuffle_changes_with_epoch(self):
        videos = self._videos([4] * 16)
        a = make_batches(videos, 4, seed=0, epoch=0)
        b = make_batches(videos, 4, seed=0, epoch=1)
        assert [[v.video_id for v in x] for x in a] != [[v.video_id for v in x] for x in b]


class TestLoadSplit:
    def test_loads_in_manifest_order(self, corpus_dir):
        index = read_manifest(corpus_dir / "manifest.json")
        train = load_split(index, "train")
        assert [v.video_id for v in train] == [e.video_id for e in index.split("train")]
        assert train[0].features.dtype == np.float64
        assert train[0].labels.shape[1] == index.class_count

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_labels_are_the_intervals_as_bool(self, corpus_dir, dtype):
        """`dtype` is the features' alone: labels hold one byte per frame and class."""
        index = read_manifest(corpus_dir / "manifest.json")
        videos = load_split(index, "train", dtype=dtype)
        for v, entry in zip(videos, index.split("train")):
            assert v.features.dtype == dtype and v.labels.dtype == bool
            want = np.zeros((entry.frame_count, index.class_count), bool)
            for c, start, end in entry.labels.intervals:
                want[start:end + 1, c] = True
            npt.assert_array_equal(v.labels, want)
        frames = sum(e.frame_count for e in index.split("train"))
        assert sum(v.labels.nbytes for v in videos) == frames * index.class_count
