"""Synthetic problem generators, CSV ingestion and experiment splits.

Generators draw two Gaussian clusters around symmetric centers and hand
back the dataset together with the held-back true labels of the
unlabeled block; splitters partition fully labeled datasets into
labeled/unlabeled/test pieces without replacement. Everything is a pure
function of its inputs and a seed.

Dataset files have one format: comma-delimited UTF-8 with a header row,
raw feature columns, a ``label`` column (empty field = unlabeled) and,
optionally, a ``true_label`` column with the hidden ground truth. The
intercept is a load-time convention: it is appended as a trailing ones
column by the loader/generators and never stored in the file itself.

The one CSV writer, ``_write_columns``, lives here too: ``save_csv`` and
every report, trace and path file of the command line go through it.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import io
import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    DegenerateSplitError,
    DimensionError,
    InvalidInputError,
    ParseError,
    SchemaError,
)
from .model import Dataset

__all__ = [
    "Split",
    "SyntheticKind",
    "SyntheticSpec",
    "derive_rng",
    "generate",
    "load_csv",
    "sample_learning_curve_split",
    "save_csv",
    "split_for_local_optima",
]

LABEL_COLUMN = "label"
TRUE_LABEL_COLUMN = "true_label"
MAX_SEED = 2**64 - 1


def _check_seed(seed):
    """The one rule for a root seed: an integer in ``[0, MAX_SEED]``."""
    if not 0 <= int(seed) <= MAX_SEED:
        raise InvalidInputError("seed must fit in 64 unsigned bits")
    return int(seed)


def derive_rng(seed, *key):
    """Generator for stream ``key`` of the root ``seed``.

    Distinct keys give statistically independent streams, so each repeat
    can be seeded as ``derive_rng(seed, repeat_index)``. The root seed
    must lie in ``[0, MAX_SEED]``; a seed outside raises
    ``InvalidInputError``. Passing an existing Generator returns it
    unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    sequence = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(map(int, key)))
    return np.random.default_rng(sequence)


class SyntheticKind(enum.Enum):
    TWO_CLUSTER_1D = "two-cluster-1d"
    TWO_GAUSSIAN_2D = "two-gaussian-2d"


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic two-class problem.

    Class centers sit at ``-separation/2`` and ``+separation/2`` on the
    first axis with isotropic Gaussian noise. Defaults reproduce the
    standard small demonstration problem: 2 labeled points per class and
    396 unlabeled points.
    """

    kind: SyntheticKind = SyntheticKind.TWO_CLUSTER_1D
    labeled_per_class: int = 2
    unlabeled_total: int = 396
    class_separation: float = 4.0
    noise_sd: float = 1.0
    seed: int = 0
    intercept: bool = True

    def __post_init__(self):
        if not isinstance(self.kind, SyntheticKind):
            raise InvalidInputError(f"kind must be a SyntheticKind, got {self.kind!r}")
        if self.labeled_per_class < 1:
            raise InvalidInputError("labeled_per_class must be at least 1")
        if self.unlabeled_total < 0:
            raise InvalidInputError("unlabeled_total must be nonnegative")
        if not self.class_separation > 0.0:
            raise InvalidInputError("class_separation must be positive")
        if not self.noise_sd > 0.0:
            raise InvalidInputError("noise_sd must be positive")
        _check_seed(self.seed)


_KIND_DIMS = {SyntheticKind.TWO_CLUSTER_1D: 1, SyntheticKind.TWO_GAUSSIAN_2D: 2}


def generate(spec):
    """Draw a dataset from the spec; returns ``(dataset, unlabeled_truth)``.

    The true class of every unlabeled point is returned separately and is
    never part of the dataset itself, so solvers cannot see it.
    """
    dim = _KIND_DIMS[spec.kind]
    rng = derive_rng(spec.seed)
    offset = spec.class_separation / 2.0

    def draw(count, positive):
        center = np.zeros(dim)
        center[0] = offset if positive else -offset
        return center + spec.noise_sd * rng.standard_normal((count, dim))

    per_class = spec.labeled_per_class
    labeled = np.vstack([draw(per_class, False), draw(per_class, True)])
    labels = np.concatenate([np.zeros(per_class), np.ones(per_class)])
    n_positive = spec.unlabeled_total // 2
    n_negative = spec.unlabeled_total - n_positive
    unlabeled = np.vstack([draw(n_negative, False), draw(n_positive, True)])
    truth = np.concatenate([np.zeros(n_negative), np.ones(n_positive)])
    if spec.intercept:
        labeled = np.hstack([labeled, np.ones((labeled.shape[0], 1))])
        unlabeled = np.hstack([unlabeled, np.ones((unlabeled.shape[0], 1))])
    return Dataset(labeled, labels, unlabeled), truth


def _fmt(value):
    """Render a value for CSV/manifest output; floats round-trip exactly."""
    if type(value) is float:
        return "" if math.isnan(value) else repr(value)
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return ""
        return repr(value)
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


# Files are formatted and written this many rows at a time, so the text
# of one chunk, not of the whole file, is held in memory. On a 10k-row
# basin paths file (5 columns) a 256-row chunk peaked at 0.19 MB of
# formatted text against 0.75 MB at 1,024 rows, and wrote as fast: chunks
# of 128 to 4,096 rows all took 45-46 ms.
_CHUNK_ROWS = 256


def _fields(column):
    """A column's CSV fields, formatted in one pass by ``_fmt``'s rules."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        fields = list(map(repr, column.tolist()))
        for i in np.flatnonzero(np.isnan(column)).tolist():
            fields[i] = ""
        return fields
    if isinstance(column, np.ndarray) and column.dtype.kind in "biu":
        return list(map(str, column.tolist()))
    return list(map(_fmt, column))


def _write_columns(path, header, columns):
    """Write a CSV file given as equal-length columns, one per header name.

    A column is a float, integer or bool array, or a sequence of Python
    values rendered by ``_fmt``; a field reads the same in either form.
    Fields are never quoted, except that a one-column row whose field is
    empty is written as ``""``: a blank line would be no record at all.
    """
    rows = len(columns[0]) if columns else 0
    if any(len(column) != rows for column in columns):
        raise ValueError("report columns differ in length")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for start in range(0, rows, _CHUNK_ROWS):
            chunk = [_fields(column[start : start + _CHUNK_ROWS]) for column in columns]
            if len(chunk) == 1:
                chunk[0] = [field or '""' for field in chunk[0]]
            handle.write("\n".join(map(",".join, zip(*chunk))) + "\n")


def save_csv(path, data, unlabeled_truth=None, intercept=True):
    """Write a dataset (and optional hidden truth) to CSV.

    With ``intercept=True`` the trailing column must be constant ones and
    is dropped, matching the loader's convention of re-appending it.
    Every truth entry must be exactly 0 or 1, as the loader requires.
    """
    features = data.extended_features
    if intercept:
        if not features.shape[1]:
            raise InvalidInputError("no feature columns, so no intercept column to drop")
        if not np.all(features[:, -1] == 1.0):
            raise InvalidInputError("last column is not a constant intercept column")
        features = features[:, :-1]
    header = [f"x{i}" for i in range(features.shape[1])] + [LABEL_COLUMN]
    columns = [*features.T, np.concatenate([data.labels, np.full(data.n_unlabeled, math.nan)])]
    if unlabeled_truth is not None:
        unlabeled_truth = np.asarray(unlabeled_truth, dtype=float)
        if unlabeled_truth.shape != (data.n_unlabeled,):
            raise DimensionError(
                f"truth has shape {unlabeled_truth.shape}, expected ({data.n_unlabeled},)"
            )
        if np.any((unlabeled_truth != 0.0) & (unlabeled_truth != 1.0)):
            raise InvalidInputError("truth entries must be exactly 0 or 1")
        header.append(TRUE_LABEL_COLUMN)
        columns.append(np.concatenate([data.labels, unlabeled_truth]))
    _write_columns(path, header, columns)


def _parse_label(token, row_number):
    token = token.strip()
    if not token:
        return None
    try:
        value = float(token)
    except ValueError:
        raise SchemaError(
            f"row {row_number}: label {token!r} is neither 0, 1 nor empty", row=row_number
        ) from None
    if value not in (0.0, 1.0):
        raise SchemaError(
            f"row {row_number}: label value {value} outside {{0, 1}}", row=row_number
        )
    return value


def _parse_truth(token, row_number):
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        raise SchemaError(
            f"row {row_number}: true_label {token!r} is not a number", row=row_number
        ) from None
    if value not in (0.0, 1.0):
        raise SchemaError(
            f"row {row_number}: true_label value {value} outside {{0, 1}}", row=row_number
        )
    return value


def _place(row_number):
    return f"row {row_number}" if row_number else "header"


def _csv_rows(text, rows=None):
    """Append the ``csv.reader`` rows of ``text`` to ``rows`` and return them.

    A record the reader rejects, such as a field over its size limit, is
    a ``ParseError`` at that record's row; the rows before it are in
    ``rows`` by then.
    """
    rows = [] if rows is None else rows
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ParseError(f"{_place(len(rows))}: {exc}", row=len(rows) or None) from None
    return rows


def _decode(data):
    """The UTF-8 text of a file, without a leading byte-order mark.

    An undecodable byte is a ParseError at its field.
    """
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
    # Escaped, each undecodable byte becomes a lone surrogate, which no
    # valid text holds and strict encoding rejects. The first one in row
    # order is the first bad byte of the file, unless a record the reader
    # rejects comes before it.
    rows, error = [], ParseError(f"byte 0x{bad:02x} is not valid UTF-8")
    try:
        _csv_rows(data.decode("utf-8-sig", "surrogateescape"), rows)
    except ParseError as exc:
        error = exc
    for row_number, row in enumerate(rows):
        for column, field in enumerate(row, start=1):
            try:
                field.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(
                    f"{_place(row_number)}, column {column}: byte 0x{bad:02x} is not valid UTF-8",
                    row=row_number or None,
                    column=column,
                ) from None
    raise error


def _plain_layout(data, width):
    """Whether splitting lines at ``\\n`` and fields at commas reads as csv does.

    That holds when the file has no quote, carriage return or NUL byte and
    every line, the last one included, holds exactly ``width - 1`` commas
    (so, with ``width >= 2``, no line is blank). The check runs on the raw
    bytes, which no multi-byte UTF-8 sequence can fool: it drops every
    byte but commas and newlines, and the rest must be ``width - 1``
    commas and a newline, once per line.
    """
    if width < 2:
        return False
    if b'"' in data or b"\r" in data or b"\0" in data:
        return False
    if not data.endswith(b"\n"):
        data += b"\n"
    line = b"," * (width - 1) + b"\n"
    marks = data.translate(None, bytes(b for b in range(256) if b not in line))
    return marks == line * marks.count(b"\n")


def _columnar(columns, feature_indices, label_index, truth_index):
    """Parse body columns in bulk; ``None`` when any field fails a check.

    The checks are the row loop's, applied a column at a time: one
    ``float`` pass per feature column, one parse per distinct label and
    ``true_label`` token. A file that passes gives the loop's arrays.
    """
    label_tokens = columns[label_index]
    count = len(label_tokens)
    features = np.empty((count, len(feature_indices)))
    try:
        for j, column in enumerate(feature_indices):
            features[:, j] = np.fromiter(map(float, columns[column]), float, count=count)
        label_of = {token: _parse_label(token, 0) for token in set(label_tokens)}
    except (ValueError, SchemaError):
        return None
    if not np.isfinite(features).all():
        return None
    label_of = {token: math.nan if value is None else value for token, value in label_of.items()}
    labels = np.fromiter(map(label_of.__getitem__, label_tokens), float, count=count)
    if truth_index is None:
        return features, labels, None
    hidden = list(compress(columns[truth_index], np.isnan(labels).tolist()))
    try:
        truth_of = {token: _parse_truth(token, 0) for token in set(hidden)}
    except SchemaError:
        return None
    return features, labels, np.fromiter(map(truth_of.__getitem__, hidden), float, len(hidden))


def _rowwise(rows, width, feature_indices, label_index, truth_index):
    """Parse body rows one field at a time, raising at the first bad field in row order."""
    features = np.empty((len(rows), len(feature_indices)))
    labels = np.empty(len(rows))
    truth = []
    for row_number, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(
                f"row {row_number}: expected {width} fields, found {len(row)}",
                row=row_number,
            )
        for j, column in enumerate(feature_indices):
            token = row[column].strip()
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ParseError(
                    f"row {row_number}, column {column + 1}: "
                    f"cannot parse {token!r} as a finite number",
                    row=row_number,
                    column=column + 1,
                )
            features[row_number - 1, j] = value
        label = _parse_label(row[label_index], row_number)
        labels[row_number - 1] = math.nan if label is None else label
        if label is None and truth_index is not None:
            truth.append(_parse_truth(row[truth_index], row_number))
    return features, labels, (np.array(truth) if truth_index is not None else None)


def load_csv(path, intercept=True):
    """Read a dataset file; returns ``(dataset, unlabeled_truth_or_None)``.

    The file is comma-delimited UTF-8 with a header row naming a
    ``label`` column and, optionally, a ``true_label`` column; any other
    column is a feature. A leading UTF-8 byte-order mark is ignored. Rows with an empty label field become the
    unlabeled block (file order preserved within each block). When a
    ``true_label`` column is present its values for the unlabeled rows
    are returned as the hidden ground truth. A header that repeats
    ``label`` or ``true_label`` is a ``SchemaError`` at the repeat's
    column. An undecodable byte is a ``ParseError`` naming its row and
    column. Feature fields must be finite numbers in the grammar of
    Python's ``float()``, so surrounding whitespace and digit underscores
    (``1_0``) are accepted. ``intercept`` appends a trailing ones column.

    Files without quotes, carriage returns or NUL bytes whose lines all
    hold the header's field count are split in one pass; any other file
    is read with ``csv.reader``, and a record it rejects (a field over its
    size limit) is a ``ParseError`` at that record's row. Either way the
    fields are parsed a column at a time, and only a file with a bad field
    goes through the row loop that names the first error in row order.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    text = _decode(data)
    width = text.partition("\n")[0].count(",") + 1
    if _plain_layout(data, width):
        tokens = text.removesuffix("\n").replace("\n", ",").split(",")
        first, rows = tokens[:width], None
        columns = [tokens[width + column :: width] for column in range(width)]
        count = len(columns[0])
    else:
        rows = _csv_rows(text)
        if not rows:
            raise SchemaError(f"{path}: file is empty")
        first, width = rows[0], len(rows[0])
        rows = rows[1:]
        columns = list(zip(*rows)) if all(len(row) == width for row in rows) else None
        count = len(rows)

    header = [name.strip() for name in first]
    if LABEL_COLUMN not in header:
        raise SchemaError(f"{path}: missing label column {LABEL_COLUMN!r}")
    seen = set()
    for column, name in enumerate(header, start=1):
        if name in seen:
            raise SchemaError(f"header, column {column}: duplicate column {name!r}", column=column)
        if name in (LABEL_COLUMN, TRUE_LABEL_COLUMN):
            seen.add(name)
    label_index = header.index(LABEL_COLUMN)
    truth_index = header.index(TRUE_LABEL_COLUMN) if TRUE_LABEL_COLUMN in header else None
    feature_indices = [
        i for i in range(width) if i != label_index and (truth_index is None or i != truth_index)
    ]
    if not count:
        raise SchemaError(f"{path}: no data rows")

    parsed = None
    if columns is not None:
        parsed = _columnar(columns, feature_indices, label_index, truth_index)
    if parsed is None:
        if rows is None:
            rows = _csv_rows(text)[1:]
        parsed = _rowwise(rows, width, feature_indices, label_index, truth_index)
    features, labels, truth = parsed

    unlabeled = np.isnan(labels)
    if unlabeled.all():
        raise InvalidInputError(f"{path}: no labeled rows")
    labeled_block, unlabeled_block = features[~unlabeled], features[unlabeled]
    if intercept:
        labeled_block = np.hstack([labeled_block, np.ones((labeled_block.shape[0], 1))])
        unlabeled_block = np.hstack([unlabeled_block, np.ones((unlabeled_block.shape[0], 1))])

    return Dataset(labeled_block, labels[~unlabeled], unlabeled_block), truth


@dataclass(frozen=True)
class Split:
    """A labeled/unlabeled/test partition of a fully labeled dataset."""

    train: Dataset
    unlabeled_truth: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    labeled_indices: np.ndarray
    unlabeled_indices: np.ndarray
    test_indices: np.ndarray
    partition_hash: str

    @property
    def has_test(self):
        return self.test_labels.size > 0


def _hash_partition(*index_arrays):
    digest = hashlib.sha256()
    for indices in index_arrays:
        digest.update(np.asarray(indices, dtype=np.int64).tobytes())
        digest.update(b"|")
    return digest.hexdigest()[:16]


def _require_fully_labeled(data):
    if data.n_unlabeled != 0:
        raise InvalidInputError("expected a fully labeled dataset (no unlabeled block)")


def _build_split(data, labeled_idx, unlabeled_idx, test_idx):
    X = data.labeled_features
    y = data.labels
    train = Dataset(X[labeled_idx], y[labeled_idx], X[unlabeled_idx])
    # Index arrays stay in sampling order so they align with the rows of
    # the pieces; the hash uses sorted copies (partition identity only).
    return Split(
        train=train,
        unlabeled_truth=y[unlabeled_idx],
        test_features=X[test_idx],
        test_labels=y[test_idx],
        labeled_indices=np.asarray(labeled_idx),
        unlabeled_indices=np.asarray(unlabeled_idx),
        test_indices=np.asarray(test_idx),
        partition_hash=_hash_partition(
            np.sort(labeled_idx), np.sort(unlabeled_idx), np.sort(test_idx)
        ),
    )


# The local-minima protocol's split: this share of the rows is held out
# for testing, and this share of the rest has its labels hidden.
LOCAL_OPTIMA_TEST_FRACTION = 0.2
LOCAL_OPTIMA_UNLABEL_FRACTION = 0.8


def split_for_local_optima(data, seed=0):
    """Hold out a test fifth, then hide labels from four fifths of the rest.

    The fractions are ``LOCAL_OPTIMA_TEST_FRACTION`` and
    ``LOCAL_OPTIMA_UNLABEL_FRACTION``. Counts use floor rounding for the
    test and unlabeled parts; whatever remains stays labeled. Splits whose
    labeled part misses a class are resampled (up to 100 attempts) before
    giving up.
    """
    _require_fully_labeled(data)
    total = data.n_labeled
    n_test = int(np.floor(LOCAL_OPTIMA_TEST_FRACTION * total))
    remaining = total - n_test
    n_unlabeled = int(np.floor(LOCAL_OPTIMA_UNLABEL_FRACTION * remaining))
    n_labeled = remaining - n_unlabeled
    if n_labeled == 0:
        raise DegenerateSplitError("split leaves no labeled examples")

    rng = derive_rng(seed)
    for _ in range(100):
        order = rng.permutation(total)
        test_idx = order[:n_test]
        unlabeled_idx = order[n_test : n_test + n_unlabeled]
        labeled_idx = order[n_test + n_unlabeled :]
        if np.unique(data.labels[labeled_idx]).size == 2:
            return _build_split(data, labeled_idx, unlabeled_idx, test_idx)
    raise DegenerateSplitError(
        "could not draw a labeled part containing both classes in 100 attempts"
    )


def _check_learning_curve_counts(data, labeled_count, unlabeled_counts):
    """``labeled_count`` as an int; raises unless the pool supplies it with each unlabeled count.

    Counts are checked in order, so the first one the pool cannot supply
    is the one named.
    """
    _require_fully_labeled(data)
    labeled_count = int(labeled_count)
    if labeled_count <= data.n_features:
        raise InvalidInputError(
            f"labeled_count must exceed the feature count ({data.n_features}) "
            "for a well-defined supervised solve"
        )
    total = data.n_labeled
    for unlabeled_count in unlabeled_counts:
        if unlabeled_count < 0:
            raise InvalidInputError("unlabeled_count must be nonnegative")
        if labeled_count + unlabeled_count > total:
            raise CapacityError(
                f"requested {labeled_count} + {unlabeled_count} examples from {total}"
            )
    return labeled_count


class _SplitStack(NamedTuple):
    """Same-shape learning-curve splits of one pool, one row per repeat.

    Row r of ``order`` (R, n) is repeat r's permutation of the pool rows:
    the first L are labeled, the next U unlabeled and the remaining T are
    the test set. ``design`` (R, L + U, d) holds the labeled rows over the
    unlabeled ones, as a ``Dataset``'s extended design does; ``labels``
    (R, L) and ``truth`` (R, U) are the pool's labels at those rows. The
    test rows are not copied: a caller gathers them from ``order`` when it
    needs them.
    """

    order: np.ndarray
    design: np.ndarray
    labels: np.ndarray
    truth: np.ndarray
    partition_hashes: list[str]


def _gather_learning_curve_splits(data, labeled_count, unlabeled_count, seeds):
    """One learning-curve split per seed, gathered from the pool by index as stacks.

    The counts must have passed ``_check_learning_curve_counts``. Repeat r
    permutes the pool rows with ``derive_rng(seeds[r])``, and its partition
    hash is taken from sorted copies of its three index slices. The pool's
    rows were checked when it was loaded, so they are copied into the
    stacks and not checked again. Returns a ``_SplitStack``.
    """
    X, y = data.labeled_features, data.labels
    order = np.stack([derive_rng(seed).permutation(data.n_labeled) for seed in seeds])
    train_end = labeled_count + unlabeled_count
    labeled, unlabeled, test = np.split(order, [labeled_count, train_end], axis=1)
    parts = [np.sort(indices, axis=1) for indices in (labeled, unlabeled, test)]
    return _SplitStack(
        order=order,
        design=X[order[:, :train_end]],
        labels=y[labeled],
        truth=y[unlabeled],
        partition_hashes=[_hash_partition(*rows) for rows in zip(*parts)],
    )


def sample_learning_curve_split(data, labeled_count, unlabeled_count, seed=0):
    """Sample disjoint labeled/unlabeled/test parts without replacement.

    ``labeled_count`` must exceed the feature count so the supervised
    solve is well-defined; the test part is whatever remains and may be
    empty (flagged through ``Split.has_test``). The split cuts
    ``derive_rng(seed).permutation(n)`` at L and L + U, the permutation
    the learning curve's stacked gather draws for one repeat's seed, but
    it is built on its own, without the gather.
    """
    unlabeled_count = int(unlabeled_count)
    labeled_count = _check_learning_curve_counts(data, labeled_count, [unlabeled_count])
    order = derive_rng(seed).permutation(data.n_labeled)
    return _build_split(
        data, *np.split(order, [labeled_count, labeled_count + unlabeled_count])
    )
