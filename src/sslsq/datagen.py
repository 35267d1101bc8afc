"""Synthetic problem generators, CSV ingestion and experiment splits.

Generators draw two Gaussian clusters around symmetric centers and hand
back the dataset together with the held-back true labels of the
unlabeled block; splitters partition fully labeled datasets into
labeled/unlabeled/test pieces without replacement. Everything is a pure
function of its inputs and a seed.

Dataset files have one format: comma-delimited UTF-8 with a header row,
raw feature columns, a ``label`` column (empty field = unlabeled) and,
optionally, a ``true_label`` column with the hidden ground truth. The
intercept is a load-time convention: the loader and generators append one
trailing ones column to the whole feature matrix; files never store it.

The one CSV writer, ``_write_columns``, lives here too: ``save_csv`` and
every report, trace and path file of the command line go through it.
"""

from __future__ import annotations

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
from .model import Dataset, _check_binary, _check_count, _check_positive

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
    """The one rule for a root seed: an integer in ``[0, MAX_SEED]``, by ``_check_count``."""
    seed = _check_count(seed, "seed")
    if not 0 <= seed <= MAX_SEED:
        raise InvalidInputError("seed must fit in 64 unsigned bits")
    return seed


def derive_rng(seed, *key):
    """Generator for stream ``key`` of the root ``seed``.

    Distinct keys give statistically independent streams, so each repeat
    can be seeded as ``derive_rng(seed, repeat_index)``. The root seed
    must be an integer in ``[0, MAX_SEED]`` and each key a nonnegative
    integer; anything else, a float or a string included, raises
    ``InvalidInputError``. Passing an existing Generator returns it
    unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    key = tuple(_check_count(k, "stream key", minimum=0) for k in key)
    sequence = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=key)
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
    396 unlabeled points. The separation and the noise's standard
    deviation must be positive and finite.
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
        _check_count(self.labeled_per_class, "labeled_per_class", minimum=1)
        if _check_count(self.unlabeled_total, "unlabeled_total") < 0:
            raise InvalidInputError("unlabeled_total must be nonnegative")
        _check_positive(self.class_separation, "class_separation")
        _check_positive(self.noise_sd, "noise_sd")
        _check_seed(self.seed)


_KIND_DIMS = {SyntheticKind.TWO_CLUSTER_1D: 1, SyntheticKind.TWO_GAUSSIAN_2D: 2}


def generate(spec):
    """Draw a dataset from the spec; returns ``(dataset, unlabeled_truth)``.

    The true class of every unlabeled point is returned separately and is
    never part of the dataset itself, so solvers cannot see it. A draw
    that overflows raises ``InvalidInputError`` naming the spec's
    ``noise_sd`` (and ``class_separation`` when only their sum overflows).
    """
    dim = _KIND_DIMS[spec.kind]
    rng = derive_rng(spec.seed)
    offset = spec.class_separation / 2.0

    def draw(count, positive):
        center = np.zeros(dim)
        center[0] = offset if positive else -offset
        noise = spec.noise_sd * rng.standard_normal((count, dim))
        if not np.all(np.isfinite(noise)):
            raise InvalidInputError(f"noise_sd {spec.noise_sd!r} overflows the noise draw")
        return center + noise

    per_class = spec.labeled_per_class
    n_positive = spec.unlabeled_total // 2
    n_negative = spec.unlabeled_total - n_positive
    draws = [(per_class, False), (per_class, True), (n_negative, False), (n_positive, True)]
    with np.errstate(over="ignore"):
        features = np.vstack([draw(count, positive) for count, positive in draws])
    if not np.all(np.isfinite(features)):
        raise InvalidInputError(
            f"class_separation {spec.class_separation!r} with noise_sd {spec.noise_sd!r}"
            " overflows the draw"
        )
    if spec.intercept:
        features = np.hstack([features, np.ones((features.shape[0], 1))])
    labels = np.concatenate([np.zeros(per_class), np.ones(per_class)])
    truth = np.concatenate([np.zeros(n_negative), np.ones(n_positive)])
    return Dataset(features[: 2 * per_class], labels, features[2 * per_class :]), truth


def _fmt(value):
    """Render a value for CSV/manifest output; floats round-trip exactly."""
    # Most fields of a report are plain strings; a subclass takes ``str(value)`` below.
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "" if math.isnan(value) else repr(value)
    if isinstance(value, np.integer):
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
        _check_binary(unlabeled_truth, "truth entries")
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
    import csv

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


# A plain file's raw bytes are checked, and its body split and parsed,
# this many bytes or characters at a time, so no scratch as long as the
# file is made, and one chunk's fields, not the whole file's, are held as
# Python strings at once: about 60 bytes each. Loading a 200k-row 2-D file
# (8.8 MB) peaked at 21.6 MB traced this way against 89.0 MB split whole,
# and took no longer.
_CHUNK_CHARS = 1 << 16

# The deletion table of ``_plain_layout``: every byte but a comma and a newline.
_NOT_COMMA_OR_NEWLINE = bytes(b for b in range(256) if b not in b",\n")


def _plain_layout(data, width):
    """Whether splitting lines at ``\\n`` and fields at commas reads as csv does.

    That holds when the file has no quote, carriage return or NUL byte and
    every line, the last one included, holds exactly ``width - 1`` commas
    (so, with ``width >= 2``, no line is blank). The check runs on the raw
    bytes, which no multi-byte UTF-8 sequence can fool, a ``_CHUNK_CHARS``
    block at a time: it drops every byte but commas and newlines, and the
    rest must follow the line pattern of ``width - 1`` commas and a newline,
    each block from the place in a line where the one before it stopped.
    The file must stop at the end of a line, or just before its newline
    when it has no final one.
    """
    if width < 2:
        return False
    if b'"' in data or b"\r" in data or b"\0" in data:
        return False
    block = _CHUNK_CHARS
    # Long enough that a block's marks, from any place in a line, are a slice of it.
    pattern = (b"," * (width - 1) + b"\n") * (block // width + 2)
    place = 0
    for start in range(0, len(data), block):
        marks = data[start : start + block].translate(None, _NOT_COMMA_OR_NEWLINE)
        if not pattern.startswith(marks, place):
            return False
        place = (place + len(marks)) % width
    return place == (0 if data.endswith(b"\n") else width - 1)


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


def _plain_fields(lines, width):
    """The columns of fields of ``\\n``-separated lines that each hold ``width`` fields."""
    tokens = lines.replace("\n", ",").split(",")
    return [tokens[column::width] for column in range(width)]


def _plain_columnar(text, start, stop, width, feature_indices, label_index, truth_index):
    """``_columnar`` over the plain lines of ``text[start:stop]``, a chunk of lines at a time.

    A chunk runs ``_CHUNK_CHARS`` characters from its start and on to the
    end of that line. ``None`` when a chunk's fields fail a check; the
    checks are per field, so that is exactly when the whole body's would.
    The chunks' arrays are joined.
    """
    parts = []
    while start < stop:
        end = text.find("\n", start + _CHUNK_CHARS, stop)
        if end < 0:
            end = stop
        part = _columnar(
            _plain_fields(text[start:end], width), feature_indices, label_index, truth_index
        )
        if part is None:
            return None
        parts.append(part)
        start = end + 1
    features, labels, truth = zip(*parts)
    truth = None if truth_index is None else np.concatenate(truth)
    return np.concatenate(features), np.concatenate(labels), truth


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
    hold the header's field count are plain: the raw bytes are dropped once
    checked, and the body is split and parsed a chunk of lines (about 64
    KiB) at a time. Their transient memory is one chunk's fields as
    strings plus the decoded text and the output arrays. Any other file is
    read whole with ``csv.reader``, and a record it rejects (a field over
    its size limit) is a ``ParseError`` at that record's row. Either way
    the fields are parsed a column at a time, and only a file with a bad
    field goes through the row loop that names the first error in row
    order.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    text = _decode(data)
    header_end = text.find("\n")
    if header_end < 0:
        header_end = len(text)
    width = text.count(",", 0, header_end) + 1
    plain = _plain_layout(data, width)
    del data
    if plain:
        # The body is the lines after the header, without the final newline.
        first, rows = text[:header_end].split(","), None
        start, stop = header_end + 1, len(text) - text.endswith("\n")
        empty = start >= stop
    else:
        rows = _csv_rows(text)
        if not rows:
            raise SchemaError(f"{path}: file is empty")
        first, width = rows[0], len(rows[0])
        rows = rows[1:]
        empty = not rows

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
    if empty:
        raise SchemaError(f"{path}: no data rows")

    indices = feature_indices, label_index, truth_index
    if plain:
        parsed = _plain_columnar(text, start, stop, width, *indices)
    elif all(len(row) == width for row in rows):
        parsed = _columnar(list(zip(*rows)), *indices)
    else:
        parsed = None
    if parsed is None:
        if rows is None:
            rows = _csv_rows(text)[1:]
        parsed = _rowwise(rows, width, *indices)
    features, labels, truth = parsed
    del text, rows, parsed

    unlabeled = np.isnan(labels)
    if unlabeled.all():
        raise InvalidInputError(f"{path}: no labeled rows")
    if intercept:
        features = np.hstack([features, np.ones((features.shape[0], 1))])
    return Dataset(features[~unlabeled], labels[~unlabeled], features[unlabeled]), truth


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
    """The counts as ints; raises unless the pool supplies the labeled count with each unlabeled.

    All must be integers, the unlabeled ones nonnegative; then the first
    unlabeled count the pool cannot supply with the labeled one is named.
    """
    _require_fully_labeled(data)
    labeled_count = _check_count(labeled_count, "labeled_count")
    unlabeled_counts = [_check_count(u, "unlabeled_count") for u in unlabeled_counts]
    if any(u < 0 for u in unlabeled_counts):
        raise InvalidInputError("unlabeled counts must be nonnegative")
    if labeled_count <= data.n_features:
        raise InvalidInputError(
            f"labeled_count must exceed the feature count ({data.n_features}) "
            "for a well-defined supervised solve"
        )
    total = data.n_labeled
    for unlabeled_count in unlabeled_counts:
        if labeled_count + unlabeled_count > total:
            raise CapacityError(
                f"requested {labeled_count} + {unlabeled_count} examples from {total}"
            )
    return labeled_count, unlabeled_counts


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


def _gather_learning_curve_splits(data, labeled_count, unlabeled_count, rngs):
    """One learning-curve split per Generator, gathered from the pool by index as stacks.

    The counts must have passed ``_check_learning_curve_counts``. Repeat r
    permutes the pool rows with ``rngs[r].permutation``, and its partition
    hash is taken from sorted copies of its three index slices. The pool's
    rows were checked when it was loaded, so they are copied into the
    stacks and not checked again. Returns a ``_SplitStack``.
    """
    X, y = data.labeled_features, data.labels
    order = np.stack([rng.permutation(data.n_labeled) for rng in rngs])
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
    the learning curve's stacked gather draws from one repeat's
    Generator, but it is built on its own, without the gather.
    """
    labeled_count, (unlabeled_count,) = _check_learning_curve_counts(
        data, labeled_count, [unlabeled_count]
    )
    order = derive_rng(seed).permutation(data.n_labeled)
    return _build_split(
        data, *np.split(order, [labeled_count, labeled_count + unlabeled_count])
    )
