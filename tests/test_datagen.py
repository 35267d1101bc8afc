"""Generators, CSV round-trips and experiment splits."""

import csv
import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sslsq import (
    CapacityError,
    Dataset,
    DegenerateSplitError,
    InvalidInputError,
    ParseError,
    SchemaError,
    SyntheticKind,
    SyntheticSpec,
    generate,
    load_csv,
    sample_learning_curve_split,
    save_csv,
    split_for_local_optima,
)
from sslsq import datagen
from sslsq.cli import main
from sslsq.datagen import MAX_SEED, derive_rng

from conftest import rowwise_load_csv, rowwise_save_csv


class TestGenerate:
    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(seed=99)
        a, truth_a = generate(spec)
        b, truth_b = generate(spec)
        np.testing.assert_array_equal(a.labeled_features, b.labeled_features)
        np.testing.assert_array_equal(a.unlabeled_features, b.unlabeled_features)
        np.testing.assert_array_equal(truth_a, truth_b)

    def test_default_shape(self):
        data, truth = generate(SyntheticSpec(seed=5))
        assert (data.n_labeled, data.n_unlabeled, data.n_features) == (4, 396, 2)
        assert truth.shape == (396,)
        np.testing.assert_array_equal(data.labeled_features[:, -1], 1.0)

    def test_no_unlabeled(self):
        data, truth = generate(SyntheticSpec(unlabeled_total=0, seed=5))
        assert data.n_unlabeled == 0
        assert truth.size == 0

    def test_two_gaussian_2d_shape(self):
        spec = SyntheticSpec(kind=SyntheticKind.TWO_GAUSSIAN_2D, labeled_per_class=3,
                             unlabeled_total=10, class_separation=3.0, seed=1)
        data, _ = generate(spec)
        assert data.n_features == 3

    def test_class_means_separated(self):
        spec = SyntheticSpec(labeled_per_class=5000, unlabeled_total=0,
                             class_separation=4.0, noise_sd=1.0, seed=2)
        data, _ = generate(spec)
        x = data.labeled_features[:, 0]
        gap = x[data.labels == 1.0].mean() - x[data.labels == 0.0].mean()
        # Monte-Carlo error of the mean gap at n = 5000 per class.
        standard_error = 1.0 * np.sqrt(2.0 / 5000.0)
        assert abs(gap - 4.0) < 3.0 * standard_error

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            SyntheticSpec(labeled_per_class=0)
        with pytest.raises(InvalidInputError):
            SyntheticSpec(noise_sd=0.0)
        with pytest.raises(InvalidInputError):
            SyntheticSpec(kind="two-cluster-1d")

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
    @pytest.mark.parametrize("name", ["class_separation", "noise_sd"])
    def test_scales_must_be_positive_and_finite(self, name, value):
        # An infinite one used to pass, and generate then drew non-finite features.
        with pytest.raises(InvalidInputError, match=f"^{name} must be positive and finite$"):
            SyntheticSpec(**{name: value})

    @pytest.mark.parametrize("kwargs, message", [
        ({"noise_sd": 1e308}, "noise_sd 1e+308 overflows the noise draw"),
        ({"class_separation": 1.7e308, "noise_sd": 4e307},
         "class_separation 1.7e+308 with noise_sd 4e+307 overflows the draw"),
    ])
    def test_overflowing_draw_is_refused_by_name(self, kwargs, message):
        # Finite parameters whose draw overflows: no numpy warning, one
        # error that names them.
        spec = SyntheticSpec(**kwargs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                generate(spec)

    @pytest.mark.parametrize("kwargs, message", [
        ({"labeled_per_class": 2.5}, "labeled_per_class must be an integer, not 2.5"),
        ({"labeled_per_class": 2.0}, "labeled_per_class must be an integer, not 2.0"),
        ({"unlabeled_total": 3.7}, "unlabeled_total must be an integer, not 3.7"),
        ({"unlabeled_total": -1}, "unlabeled_total must be nonnegative"),
    ])
    def test_counts_must_be_integers(self, kwargs, message):
        # Refused when the spec is built, not with a bare TypeError from generate.
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            SyntheticSpec(**kwargs)


class TestCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        data, truth = generate(SyntheticSpec(labeled_per_class=3, unlabeled_total=7, seed=8))
        path = tmp_path / "data.csv"
        save_csv(path, data, unlabeled_truth=truth)
        loaded, loaded_truth = load_csv(path)
        np.testing.assert_array_equal(loaded.labeled_features, data.labeled_features)
        np.testing.assert_array_equal(loaded.labels, data.labels)
        np.testing.assert_array_equal(loaded.unlabeled_features, data.unlabeled_features)
        np.testing.assert_array_equal(loaded_truth, truth)

    def test_missing_labels_split_blocks(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("x0,label\n1.5,1\n2.5,0\n3.5,\n")
        data, truth = load_csv(path)
        assert (data.n_labeled, data.n_unlabeled) == (2, 1)
        assert truth is None
        np.testing.assert_array_equal(data.unlabeled_features, [[3.5, 1.0]])

    def test_no_intercept_option(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("x0,label\n1.5,1\n2.5,0\n")
        data, _ = load_csv(path, intercept=False)
        assert data.n_features == 1

    def test_parse_error_coordinates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,x2,label\n1,2,3,1\n4,5,abc,0\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 2
        assert excinfo.value.column == 3

    def test_label_outside_domain(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_non_numeric_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1,yes\n")
        with pytest.raises(SchemaError):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,target\n1,0\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(path)
        assert excinfo.value.row is None

    @pytest.mark.parametrize("content, message", [
        ("x0,label\n1.0,yes\n2.0,\n", "row 1: label 'yes' is neither 0, 1 nor empty"),
        ("x0,label,true_label\n1.0,,maybe\n2.0,0,0\n",
         "row 1: true_label 'maybe' is not a number"),
    ], ids=["label", "true_label"])
    def test_label_errors_name_their_row(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(SchemaError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == message
        assert (excinfo.value.row, excinfo.value.column) == (1, None)

    @pytest.mark.parametrize("content, name, column", [
        (b"x0,label,label\n1.0,0,0\n2.0,1,1\n3.0,,\n", "label", 3),
        (b"x0,label,true_label,true_label\n1.0,0,0,0\n2.0,,1,1\n", "true_label", 4),
        # Padded names, read through csv.reader: the first repeat is named.
        (b'"label",x0, true_label ,true_label,label\r\n0,1.0,0,0,0\r\n', "true_label", 4),
    ], ids=["label", "true_label", "padded-quoted-crlf"])
    def test_duplicate_label_column_is_schema_error(self, tmp_path, content, name, column):
        path = tmp_path / "dup.csv"
        path.write_bytes(content)
        with pytest.raises(SchemaError) as excinfo:
            load_csv(path)
        assert str(excinfo.value) == f"header, column {column}: duplicate column {name!r}"
        assert (excinfo.value.row, excinfo.value.column) == (None, column)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,label\n1,2,1\n3,0\n")
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert excinfo.value.row == 2

    def test_only_an_empty_label_is_missing(self, tmp_path):
        path = tmp_path / "na.csv"
        path.write_text("x0,label\n1,NA\n2,1\n")
        with pytest.raises(SchemaError) as excinfo:
            load_csv(path)
        assert str(excinfo.value).startswith("row 1: label 'NA' is neither 0, 1")

    def test_removed_dialect_options_are_gone(self, tmp_path):
        import sslsq
        import sslsq.datagen

        for module in (sslsq, sslsq.datagen):
            assert not hasattr(module, "CsvSchema")
            assert not hasattr(module, "zscore")
        assert {"CsvSchema", "zscore"}.isdisjoint(sslsq.datagen.__all__)
        path = tmp_path / "data.csv"
        path.write_text("x0,label\n1.0,0\n2.0,1\n")
        with pytest.raises(TypeError):
            load_csv(path, standardize=True)
        with pytest.raises(TypeError):
            load_csv(path, schema=None)
        with pytest.raises(TypeError):
            save_csv(tmp_path / "out.csv", load_csv(path)[0], schema=None)

    def test_save_rejects_non_constant_intercept(self, tmp_path):
        data = Dataset([[1.0, 2.0]], [1.0])
        with pytest.raises(InvalidInputError):
            save_csv(tmp_path / "x.csv", data, intercept=True)


class TestSaveCsv:
    """``save_csv`` keeps the bytes of the row-at-a-time ``csv.writer`` version."""

    def assert_saves_like_rowwise(self, tmp_path, data, truth, intercept):
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        save_csv(new, data, unlabeled_truth=truth, intercept=intercept)
        rowwise_save_csv(old, data, unlabeled_truth=truth, intercept=intercept)
        assert new.read_bytes() == old.read_bytes()
        loaded, loaded_truth = load_csv(new, intercept=intercept)
        for got, want in [(loaded.labeled_features, data.labeled_features),
                          (loaded.labels, data.labels),
                          (loaded.unlabeled_features, data.unlabeled_features)]:
            assert got.tobytes() == want.tobytes()
        if truth is None:
            assert loaded_truth is None
        else:
            np.testing.assert_array_equal(loaded_truth, truth)
        return new.read_bytes()

    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
    @pytest.mark.parametrize("intercept", [True, False], ids=["intercept", "no-intercept"])
    @pytest.mark.parametrize("kind", list(SyntheticKind), ids=lambda kind: kind.value)
    def test_generated_files_equal_the_rowwise_writer(self, tmp_path, kind, intercept,
                                                      with_truth):
        for seed in (0, 3, 7):
            for per_class in (1, 2, 25):
                for unlabeled in (0, 5, 396):
                    data, truth = generate(SyntheticSpec(
                        kind=kind, labeled_per_class=per_class, unlabeled_total=unlabeled,
                        seed=seed, intercept=intercept,
                    ))
                    self.assert_saves_like_rowwise(
                        tmp_path, data, truth if with_truth else None, intercept
                    )

    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
    def test_extreme_floats_equal_the_rowwise_writer(self, tmp_path, with_truth):
        extremes = [[1e300, -1e300, 1e-300, -0.0], [-0.0, 1e-300, -1e300, 1e300],
                    [5e-324, -5e-324, 0.1 + 0.2, 1.0 / 3.0]]
        data = Dataset(extremes[:2], [0.0, 1.0], extremes[2:])
        self.assert_saves_like_rowwise(
            tmp_path, data, [1.0] if with_truth else None, intercept=False
        )

    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no-truth"])
    def test_intercept_only_dataset_round_trips(self, tmp_path, with_truth):
        # With the intercept dropped, only the label column is left, and an
        # unlabeled row is a lone empty field: it is written quoted, since a
        # blank line would be no row at all.
        data = Dataset(np.ones((3, 1)), [0.0, 1.0, 0.0], np.ones((2, 1)))
        truth = [1.0, 0.0] if with_truth else None
        written = self.assert_saves_like_rowwise(tmp_path, data, truth, intercept=True)
        if with_truth:
            assert written == b"label,true_label\n0.0,0.0\n1.0,1.0\n0.0,0.0\n,1.0\n,0.0\n"
        else:
            assert written == b'label\n0.0\n1.0\n0.0\n""\n""\n'

    def test_no_feature_columns_has_no_intercept_to_drop(self, tmp_path):
        data = Dataset(np.zeros((2, 0)), [0.0, 1.0], np.zeros((1, 0)))
        path = tmp_path / "x.csv"
        with pytest.raises(InvalidInputError, match="no intercept column to drop"):
            save_csv(path, data)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, 0.5, -1.0, math.inf])
    def test_truth_outside_zero_one_is_refused(self, tmp_path, bad):
        data = Dataset([[1.0], [2.0]], [0.0, 1.0], [[3.0], [4.0]])
        path = tmp_path / "x.csv"
        with pytest.raises(InvalidInputError, match="truth entries must be exactly 0 or 1"):
            save_csv(path, data, unlabeled_truth=[1.0, bad], intercept=False)
        assert not path.exists()


# One field over csv's default 131,072-character field limit.
OVERLONG = b"1" * 140_000
PLAIN = b"x0,x1,label,true_label\n0.5,-1.25,0,0\n2.0,3.5,1,1\n-0.75,0.125,,0\n1.5,2.25,,1\n"

# (id, file bytes, load_csv kwargs)
LOADER_CASES = [
    ("plain", PLAIN, {}),
    ("crlf", PLAIN.replace(b"\n", b"\r\n"), {}),
    ("cr-only", PLAIN.replace(b"\n", b"\r"), {}),
    ("blank-line-mid-file", b"x0,label\n1.0,0\n\n2.0,1\n3.0,\n", {}),
    ("trailing-blank-lines", b"x0,label\n1.0,0\n2.0,1\n3.0,\n\n\n", {}),
    ("no-final-newline", PLAIN.rstrip(b"\n"), {}),
    ("quoted-fields", b'"x0","label"\n"1.0",0\n2.0,"1"\n"3.0",""\n', {}),
    ("bom-before-feature", b"\xef\xbb\xbfx0,label\n1.0,0\n2.0,1\n3.0,\n", {}),
    ("padded-fields", b"x0 , label\n 1.0 ,\t0\n2.0\t, 1 \n  3.0, \n", {}),
    ("control-padding", b"x0,label\n\x1f1.0\x1c,0\n2.0,1\n3.0,\n", {}),
    ("digit-underscores", b"x0,label\n1_0,0\n2_5.0_1,1\n3.0,\n", {}),
    ("nul-byte", b"x0,label\n1.0\x00,0\n2.0,1\n", {}),
    ("nul-byte-in-header", b"x\x000,label\n1.0,0\n2.0,1\n", {}),
    ("inf-feature", b"x0,label\n1.0,0\ninf,1\n", {}),
    ("nan-feature", b"x0,x1,label\n1.0,2.0,0\n3.0,nan,1\n", {}),
    ("nan-label", b"x0,label\n1.0,0\n2.0,nan\n", {}),
    ("inf-true-label", b"x0,label,true_label\n1.0,0,0\n2.0,,inf\n", {}),
    ("negative-zero-label", b"x0,label,true_label\n1.0,-0,0\n2.0,1.0,1\n3.0,,-0.0\n", {}),
    ("bad-label", b"x0,label\n1.0,0\n2.0,yes\n3.0,\n", {}),
    ("label-out-of-domain", b"x0,label\n1.0,0\n2.0,2\n", {}),
    ("bad-true-label", b"x0,label,true_label\n1.0,0,0\n2.0,,maybe\n", {}),
    ("bad-true-label-on-labeled-row", b"x0,label,true_label\n1.0,0,maybe\n2.0,,1\n", {}),
    ("ragged-after-bad-float", b"x0,x1,label\n1.0,2.0,0\n1.0,abc,1\n3.0,1\n", {}),
    ("two-errors", b"x0,label\n1.0,0\n2.0,7\n3.0,\nabc,1\n", {}),
    # Short then long: the field total is right and, shifted, every field parses.
    ("ragged-counts-cancel", b"x0,x1,label\n1.0,2.0,0\n3.0,1\n1,5.0,1,0\n", {}),
    ("short-line", b"x0,label\n1.0\n2.0,1\n", {}),
    ("short-last-line-without-newline", b"x0,x1,label\n1.25,-2.5,0\n3.0,4.0", {}),
    # Dialects the format no longer has: each header lacks a "label" field.
    ("semicolon-and-na", b"x0;label\n1.5;0\n2.5;NA\n3.5;1\n", {}),
    ("tab-delimiter", b"x0\tx1\tlabel\n1.0\t2.0\t0\n3.0\t4.0\t\n5.0\t6.0\t1\n", {}),
    ("non-ascii-delimiter", "x0§label\n1.0§0\n2.0§1\n3.0§\n".encode(), {}),
    ("headerless", b"1.0,2.0,1\n3.0,4.0,\n5.0,6.0,0\n", {}),
    ("no-intercept", b"x0,label\n1.5,1\n2.5,0\n3.5,\n", {"intercept": False}),
    ("labeled-only", b"x0,label,true_label\n1.0,0,0\n2.0,1,1\n", {}),
    ("unlabeled-only", b"x0,label\n1.0,\n2.0,\n", {}),
    ("missing-label-column", b"x0,target\n1.0,0\n", {}),
    ("header-only", b"x0,label\n", {}),
    ("empty-file", b"", {}),
    ("overlong-quoted-field", b'x0,label\n1.0,0\n"' + OVERLONG + b'",1\n3.0,\n', {}),
]


def _long_plain(last=b"1.0,2.0,,1", final_newline=True):
    """A plain file of 5,002 lines and over 64 KiB, ending in the row ``last``.

    The first 4,000 body rows are all labeled, and the next 1,000
    alternate between labeled and unlabeled rows.
    """
    lines = [b"x0,x1,label,true_label"]
    for i in range(5000):
        label = b"" if i >= 4000 and i % 2 else b"%d" % (i % 2)
        lines.append(b"%d.25,-%d.5,%s,%d" % (i, i, label, i % 2))
    lines.append(last)
    return b"\n".join(lines) + (b"\n" if final_newline else b"")


# (id, file bytes, error class or None); the loader's default chunk of
# 64 KiB ends inside the labeled rows, so the last row is in a later chunk.
LONG_PLAIN_CASES = [
    ("clean", _long_plain(), None),
    ("no-final-newline", _long_plain(final_newline=False), None),
    ("bad-feature-in-later-chunk", _long_plain(b"1.0,abc,,1"), ParseError),
    ("bad-label-in-later-chunk", _long_plain(b"1.0,2.0,yes,1"), SchemaError),
    ("bad-true-label-in-later-chunk", _long_plain(b"1.0,2.0,,maybe"), SchemaError),
]


def _bits(array):
    array = np.asarray(array)
    return array.dtype, array.shape, array.tobytes()


def assert_loads_like_rowwise(path, **load_kwargs):
    """Bit-equal arrays, or the same error class, message, row and column."""
    try:
        want, want_truth = rowwise_load_csv(path, **load_kwargs)
    except csv.Error as exc:
        # The reference lets the reader's own error escape (exit 1 in the
        # CLI); load_csv raises it as a ParseError at the record's row.
        with pytest.raises(ParseError) as excinfo:
            load_csv(path, **load_kwargs)
        assert str(excinfo.value).endswith(f": {exc}")
        return
    except Exception as exc:  # the reference's error is the expectation
        with pytest.raises(type(exc)) as excinfo:
            load_csv(path, **load_kwargs)
        assert str(excinfo.value) == str(exc)
        assert getattr(excinfo.value, "row", None) == getattr(exc, "row", None)
        assert getattr(excinfo.value, "column", None) == getattr(exc, "column", None)
        return
    data, truth = load_csv(path, **load_kwargs)
    assert _bits(data.labeled_features) == _bits(want.labeled_features)
    assert _bits(data.labels) == _bits(want.labels)
    assert _bits(data.unlabeled_features) == _bits(want.unlabeled_features)
    assert (truth is None) == (want_truth is None)
    if truth is not None:
        assert _bits(truth) == _bits(want_truth)


class TestColumnarLoad:
    """``load_csv`` against the row-by-row loader it replaced."""

    @pytest.mark.parametrize(
        "content, load_kwargs",
        [case[1:] for case in LOADER_CASES],
        ids=[case[0] for case in LOADER_CASES],
    )
    def test_matches_rowwise_loader(self, tmp_path, content, load_kwargs):
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        assert_loads_like_rowwise(path, **load_kwargs)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["plain", "crlf"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys, newline):
        # The row-by-row loader keeps the mark in the first header name, so
        # a file that starts with the label column is checked against the
        # same file without the mark: arrays and `sslsq fit` output alike.
        body = b"label,x0\n0,1.0\n1,2.0\n,3.0\n".replace(b"\n", newline)
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        assert_loads_like_rowwise(plain)
        (data, truth), (want, want_truth) = load_csv(marked), load_csv(plain)
        assert _bits(data.labeled_features) == _bits(want.labeled_features)
        assert _bits(data.labels) == _bits(want.labels)
        assert _bits(data.unlabeled_features) == _bits(want.unlabeled_features)
        assert truth is None and want_truth is None
        outputs = []
        for path in (marked, plain):
            assert main(["fit", "--data", str(path), "--method", "soft"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_large_plain_file_matches_rowwise_loader(self, tmp_path):
        data, truth = generate(SyntheticSpec(
            kind=SyntheticKind.TWO_GAUSSIAN_2D, labeled_per_class=5, unlabeled_total=2000, seed=4,
        ))
        path = tmp_path / "big.csv"
        save_csv(path, data, unlabeled_truth=truth)
        assert_loads_like_rowwise(path)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize(
        "content, load_kwargs",
        [case[1:] for case in LOADER_CASES],
        ids=[case[0] for case in LOADER_CASES],
    )
    def test_matches_rowwise_loader_in_small_chunks(
            self, monkeypatch, tmp_path, content, load_kwargs, chunk):
        # A chunk of a character or a few holds one line or two, so every
        # plain file spans many chunks.
        monkeypatch.setattr(datagen, "_CHUNK_CHARS", chunk)
        path = tmp_path / "data.csv"
        path.write_bytes(content)
        assert_loads_like_rowwise(path, **load_kwargs)

    @pytest.mark.parametrize("chunk", [7, 100])
    def test_large_plain_file_matches_rowwise_loader_in_small_chunks(
            self, monkeypatch, tmp_path, chunk):
        monkeypatch.setattr(datagen, "_CHUNK_CHARS", chunk)
        self.test_large_plain_file_matches_rowwise_loader(tmp_path)

    @pytest.mark.parametrize("chunk", [None, 1, 4096])
    @pytest.mark.parametrize(
        "content, error",
        [case[1:] for case in LONG_PLAIN_CASES],
        ids=[case[0] for case in LONG_PLAIN_CASES],
    )
    def test_plain_file_across_chunks(self, monkeypatch, tmp_path, content, error, chunk):
        # The loader's own chunk (None) ends before the first unlabeled row,
        # so its first chunk has none and the final row is in a later one.
        assert content.index(b",,") > datagen._CHUNK_CHARS
        if chunk is not None:
            monkeypatch.setattr(datagen, "_CHUNK_CHARS", chunk)
        path = tmp_path / "long.csv"
        path.write_bytes(content)
        if error is None:
            # A clean plain file is parsed a chunk at a time, never row by row.
            def no_rows(*args):
                raise AssertionError("a clean plain file went through the row loop")

            monkeypatch.setattr(datagen, "_rowwise", no_rows)
        assert_loads_like_rowwise(path)
        if error is not None:
            with pytest.raises(error) as excinfo:
                load_csv(path)
            assert excinfo.value.row == 5001

    def test_plain_load_memory_is_bounded(self, tmp_path):
        # Only the raw bytes and the decoded text are as large as the file,
        # and the fields are strings one chunk at a time: a 100k-row 2-D
        # file peaked at 3.0 times its size, and at 10.2 times split whole.
        data, truth = generate(SyntheticSpec(
            kind=SyntheticKind.TWO_GAUSSIAN_2D, unlabeled_total=100_000, seed=2,
        ))
        path = tmp_path / "huge.csv"
        save_csv(path, data, unlabeled_truth=truth)
        del data, truth
        tracemalloc.start()
        try:
            loaded, _ = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.n_unlabeled == 100_000
        assert peak < 4 * path.stat().st_size

    def test_loaded_dataset_holds_its_features_once(self, tmp_path):
        # The blocks are views of the extended design, so a loaded file
        # holds its features once: 3.23 MB here, where a dataset keeping its
        # two blocks beside their stack held 5.63 MB.
        data, truth = generate(SyntheticSpec(
            kind=SyntheticKind.TWO_GAUSSIAN_2D, unlabeled_total=100_000, seed=2,
        ))
        path = tmp_path / "huge.csv"
        save_csv(path, data, unlabeled_truth=truth)
        del data, truth
        tracemalloc.start()
        try:
            loaded, truth = load_csv(path)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loaded.extended_features.shape == (100_004, 3)
        assert held <= loaded.extended_features.nbytes + truth.nbytes + 64 * 1024

    @pytest.mark.parametrize("content, row, column", [
        (b"x0,label\n1.0,0\n\xff2.0,1\n3.0,\n", 2, 1),
        (b"x0,label\n1.0,0\n2.0,1\n3.0,\xc3\n", 3, 2),
        (b'x0,label\n"1.0",0\n"2,\xe9",1\n', 2, 1),
        (b"x\xff,label\n1.0,0\n", None, 1),
    ], ids=["feature", "label", "quoted-feature", "header"])
    def test_undecodable_byte_names_its_field(self, tmp_path, content, row, column):
        path = tmp_path / "latin1.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert (excinfo.value.row, excinfo.value.column) == (row, column)
        assert "not valid UTF-8" in str(excinfo.value)
        place = f"row {row}" if row else "header"
        assert str(excinfo.value).startswith(f"{place}, column {column}: byte 0x")


    @pytest.mark.parametrize("content, row, column", [
        (b'x0,label\n1.0,0\n"' + OVERLONG + b'",1\n', 2, None),
        (b'"x' + OVERLONG + b'",label\n1.0,0\n', None, None),
        # Whichever of a rejected record and a bad byte comes first is named.
        (b'x0,label\n"' + OVERLONG + b'",0\n\xff2.0,1\n', 1, None),
        (b'x0,label\n\xff1.0,0\n"' + OVERLONG + b'",1\n', 1, 1),
    ], ids=["body", "header", "record-before-byte", "byte-before-record"])
    def test_rejected_record_is_parse_error(self, tmp_path, content, row, column):
        path = tmp_path / "long.csv"
        path.write_bytes(content)
        with pytest.raises(ParseError) as excinfo:
            load_csv(path)
        assert (excinfo.value.row, excinfo.value.column) == (row, column)
        assert str(excinfo.value).startswith(f"row {row}" if row else "header")


def whole_file_layout(data, width):
    """``_plain_layout``'s rule on the whole file at once: every line holds
    ``width - 1`` commas, the last one with or without a newline."""
    if width < 2 or any(mark in data for mark in (b'"', b"\r", b"\0")):
        return False
    marks = re.sub(rb"[^,\n]", b"", data if data.endswith(b"\n") else data + b"\n")
    return marks == (b"," * (width - 1) + b"\n") * marks.count(b"\n")


# (id, file bytes, plain). Blocks of 5 bytes cut the lines of each short
# file; with 9-byte blocks the header "x0,label\n" is the first block. The
# long files span many blocks, and their bad line is in a late one.
PLAIN_LAYOUT_CASES = [
    ("line-across-blocks", b"x0,x1,label\n1.25,-2.5,0\n3.0,4.0,\n", True),
    ("short-line-in-second-block", b"x0,label\n1.0\n2.0,1\n", False),
    ("extra-comma-in-second-block", b"x0,label\n1.0,0\n2,0,1\n", False),
    ("no-final-newline", b"x0,x1,label\n1.25,-2.5,0\n3.0,4.0,", True),
    ("short-last-line-without-newline", b"x0,x1,label\n1.25,-2.5,0\n3.0,4.0", False),
    ("blank-last-line", b"x0,label\n1.0,0\n\n", False),
    ("header-only-without-newline", b"x0,label", True),
    ("quote-in-second-block", b'x0,label\n1.0,0\n"2.0",1\n', False),
    ("long", _long_plain(), True),
    ("long-without-final-newline", _long_plain(final_newline=False), True),
    ("long-extra-comma-late", _long_plain(b"1.0,2.0,,1,"), False),
]


class TestPlainLayout:
    """``_plain_layout`` checks a file a block at a time, as one pass over it would."""

    @pytest.mark.parametrize("chunk", [1, 2, 5, 9, 1 << 16])
    @pytest.mark.parametrize(
        "content, plain",
        [case[1:] for case in PLAIN_LAYOUT_CASES],
        ids=[case[0] for case in PLAIN_LAYOUT_CASES],
    )
    def test_blocks_give_the_whole_file_verdict(self, monkeypatch, content, plain, chunk):
        monkeypatch.setattr(datagen, "_CHUNK_CHARS", chunk)
        width = content.split(b"\n")[0].count(b",") + 1
        assert datagen._plain_layout(content, width) is plain
        assert whole_file_layout(content, width) is plain

    @pytest.mark.parametrize("final_newline", [True, False], ids=["newline", "no-newline"])
    def test_check_makes_no_file_sized_scratch(self, final_newline):
        # A 2.4 MB file, checked in 64 KiB blocks: a block, its marks and
        # the line pattern, about 0.2 MB, where the whole-file check made a
        # copy as long as the file.
        content = b"x0,label\n" + b"1.0,0\n" * 400_000
        if not final_newline:
            content = content[:-1]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plain = datagen._plain_layout(content, 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert plain is True
        assert peak < 4 * datagen._CHUNK_CHARS < len(content) // 8


class TestSplitForLocalOptima:
    def fully_labeled(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, 3))
        labels = (rng.random(n) < 0.5).astype(float)
        labels[:2] = [0.0, 1.0]
        return Dataset(features, labels)

    def test_default_counts(self):
        split = split_for_local_optima(self.fully_labeled(100), seed=4)
        assert split.test_indices.size == 20
        assert split.unlabeled_indices.size == 64
        assert split.train.n_labeled == 16

    def test_partition_is_exact(self):
        split = split_for_local_optima(self.fully_labeled(53), seed=4)
        merged = np.concatenate(
            [split.labeled_indices, split.unlabeled_indices, split.test_indices]
        )
        np.testing.assert_array_equal(np.sort(merged), np.arange(53))

    def test_truth_matches_source(self):
        data = self.fully_labeled(40)
        split = split_for_local_optima(data, seed=4)
        np.testing.assert_array_equal(
            split.unlabeled_truth, data.labels[split.unlabeled_indices]
        )

    def test_rejects_partially_labeled_input(self, rng):
        data = Dataset(rng.standard_normal((5, 2)), [0, 1, 0, 1, 1],
                       rng.standard_normal((2, 2)))
        with pytest.raises(InvalidInputError):
            split_for_local_optima(data)

    def test_deterministic(self):
        data = self.fully_labeled(60)
        a = split_for_local_optima(data, seed=11)
        b = split_for_local_optima(data, seed=11)
        np.testing.assert_array_equal(a.labeled_indices, b.labeled_indices)
        assert a.partition_hash == b.partition_hash

    def test_single_class_input_fails_after_resampling(self):
        features = np.arange(20.0).reshape(-1, 1)
        data = Dataset(features, np.ones(20))
        with pytest.raises(DegenerateSplitError):
            split_for_local_optima(data, seed=0)


class TestLearningCurveSplit:
    def pool(self, n=30):
        rng = np.random.default_rng(7)
        labels = (rng.random(n) < 0.5).astype(float)
        labels[:2] = [0.0, 1.0]
        return Dataset(rng.standard_normal((n, 2)), labels)

    def test_partition_sizes(self):
        split = sample_learning_curve_split(self.pool(30), 5, 10, seed=3)
        assert split.train.n_labeled == 5
        assert split.train.n_unlabeled == 10
        assert split.test_indices.size == 15
        assert split.has_test

    def test_empty_test_is_flagged(self):
        split = sample_learning_curve_split(self.pool(30), 20, 10, seed=3)
        assert not split.has_test

    def test_labeled_count_must_exceed_dimension(self):
        with pytest.raises(InvalidInputError):
            sample_learning_curve_split(self.pool(30), 2, 5, seed=3)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            sample_learning_curve_split(self.pool(30), 20, 11, seed=3)

    @pytest.mark.parametrize("labeled, unlabeled, message", [
        (6.5, 4, "labeled_count must be an integer, not 6.5"),
        (6.0, 4, "labeled_count must be an integer, not 6.0"),
        (6, 4.9, "unlabeled_count must be an integer, not 4.9"),
        (6, "4", "unlabeled_count must be an integer, not '4'"),
        (6, -1, "unlabeled counts must be nonnegative"),
    ])
    def test_counts_must_be_nonnegative_integers(self, labeled, unlabeled, message):
        # Never truncated: 6.5 labeled rows do not become 6.
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            sample_learning_curve_split(self.pool(30), labeled, unlabeled, seed=3)

    def test_numpy_integer_counts_are_accepted(self):
        a = sample_learning_curve_split(self.pool(30), np.int64(6), np.uint8(4), seed=5)
        b = sample_learning_curve_split(self.pool(30), 6, 4, seed=5)
        assert a.partition_hash == b.partition_hash

    def test_zero_unlabeled(self):
        split = sample_learning_curve_split(self.pool(30), 6, 0, seed=3)
        assert split.train.n_unlabeled == 0

    def test_deterministic(self):
        a = sample_learning_curve_split(self.pool(30), 6, 4, seed=5)
        b = sample_learning_curve_split(self.pool(30), 6, 4, seed=5)
        assert a.partition_hash == b.partition_hash

    @pytest.mark.parametrize("unlabeled", [0, 7, 24])
    def test_split_is_one_gathered_repeat(self, unlabeled):
        # The split, the stacked gather and the permutation each repeat
        # draws, taken apart by hand, agree to the bit; the stack holds no
        # test rows, so its test set is gathered from its order as the
        # learning curve gathers it. 24 leaves no test set.
        from sslsq.datagen import _gather_learning_curve_splits

        pool, labeled = self.pool(30), 6
        end = labeled + unlabeled
        stack = _gather_learning_curve_splits(
            pool, labeled, unlabeled, [derive_rng(8, r) for r in range(4)]
        )
        X, y = pool.labeled_features, pool.labels
        for r in range(4):
            split = sample_learning_curve_split(pool, labeled, unlabeled, derive_rng(8, r))
            order = derive_rng(8, r).permutation(30)
            parts = (order[:labeled], order[labeled:end], order[end:])
            digest = hashlib.sha256()
            for part in parts:
                digest.update(np.sort(part).astype(np.int64).tobytes() + b"|")
            assert split.partition_hash == stack.partition_hashes[r] == digest.hexdigest()[:16]
            pairs = [
                (split.labeled_indices, stack.order[r, :labeled], parts[0]),
                (split.unlabeled_indices, stack.order[r, labeled:end], parts[1]),
                (split.test_indices, stack.order[r, end:], parts[2]),
                (split.train.labeled_features, stack.design[r, :labeled], X[parts[0]]),
                (split.train.unlabeled_features, stack.design[r, labeled:], X[parts[1]]),
                (split.train.extended_features, stack.design[r], X[order[:end]]),
                (split.train.labels, stack.labels[r], y[parts[0]]),
                (split.unlabeled_truth, stack.truth[r], y[parts[1]]),
                (split.test_features, X[stack.order[r, end:]], X[parts[2]]),
                (split.test_labels, y[stack.order[r, end:]], y[parts[2]]),
            ]
            for arrays in pairs:
                assert len({(a.dtype, a.shape, a.tobytes()) for a in arrays}) == 1


class TestDeriveRng:
    def test_streams_are_stable_and_distinct(self):
        a = derive_rng(3, 1).standard_normal(4)
        b = derive_rng(3, 1).standard_normal(4)
        c = derive_rng(3, 2).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert derive_rng(gen) is gen

    def test_root_seed_must_fit_in_64_unsigned_bits(self):
        # The one seed rule, shared with SyntheticSpec; stream keys are
        # not root seeds.
        for seed in (0, MAX_SEED):
            derive_rng(seed, 1)
        for seed in (-1, MAX_SEED + 1):
            with pytest.raises(InvalidInputError, match="seed must fit in 64 unsigned bits"):
                derive_rng(seed, 1)
            with pytest.raises(InvalidInputError, match="seed must fit in 64 unsigned bits"):
                SyntheticSpec(seed=seed)

    @pytest.mark.parametrize("seed", [2.7, 2.0, "2", None])
    def test_root_seed_must_be_an_integer(self, seed):
        # Never truncated: seed 2.7 does not draw seed 2's stream.
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            derive_rng(seed, 1)
        with pytest.raises(InvalidInputError, match="seed must be an integer"):
            SyntheticSpec(seed=seed)

    @pytest.mark.parametrize("key, message", [
        (0.5, "stream key must be an integer"),
        (1.0, "stream key must be an integer"),
        ("1", "stream key must be an integer"),
        (-1, "stream key must be at least 0"),
    ])
    def test_stream_key_is_a_nonnegative_integer(self, key, message):
        with pytest.raises(InvalidInputError, match=message):
            derive_rng(1, 0, key)

    def test_integers_of_any_type_are_accepted(self):
        # Stream keys are not root seeds: a key of 2**64 names a stream too.
        expected = derive_rng(MAX_SEED, 3, 2**64).standard_normal(4)
        actual = derive_rng(np.uint64(MAX_SEED), np.int32(3), 2**64).standard_normal(4)
        np.testing.assert_array_equal(actual, expected)
        assert np.any(expected != derive_rng(MAX_SEED, 3, 0).standard_normal(4))
        assert SyntheticSpec(seed=np.uint64(MAX_SEED)).seed == MAX_SEED
