"""The input generator is a pure function of its seed, in the program's format."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import corpus
from aan import data


def digest(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(corpus.SHAPES))
def test_same_seed_same_bytes(tmp_path, name):
    shape = corpus.SHAPES[name]
    corpus.write(corpus.generate(shape, 5), tmp_path / "a")
    corpus.write(corpus.generate(shape, 5), tmp_path / "b")
    corpus.write(corpus.generate(shape, 6), tmp_path / "c")
    a, b, c = (digest(tmp_path / x) for x in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_lengths_do_not_depend_on_the_seed():
    shape = corpus.SHAPES["eval-charades"]
    def lengths(seed):
        return sorted(f.shape[0] for _, split, f, _ in corpus.generate(shape, seed).videos
                      if split == "test")
    assert lengths(1) == lengths(2)
    short = np.mean(np.array(lengths(1)) < 41)
    assert 0.4 < short < 0.6


def test_program_reads_the_corpus(tmp_path):
    shape = corpus.SHAPES["eval-tsu"]
    generated = corpus.generate(shape, 3)
    index = data.read_manifest(corpus.write(generated, tmp_path))
    assert (index.class_count, index.dim) == (shape.n_classes, shape.dim)
    assert index.anchors.attribute_count == shape.n_attributes
    test = data.load_split(index, "test")
    want = [(f, iv) for _, split, f, iv in generated.videos if split == "test"]
    assert len(test) == len(want)
    for video, (features, intervals) in zip(test, want):
        np.testing.assert_array_equal(video.features, features.astype(np.float64))
        np.testing.assert_array_equal(
            video.labels, corpus.dense_labels(intervals, len(features), shape.n_classes))


def test_attribute_sets_are_distinct():
    for shape in corpus.SHAPES.values():
        sets = corpus.class_attribute_sets(shape.n_classes, shape.n_attributes)
        assert len(sets) == shape.n_classes
        assert len({tuple(s) for s in sets}) == shape.n_classes
