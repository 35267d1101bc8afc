"""Benchmark inputs, drawn from the run's seed with the benchmark's own code.

The generator is deliberately independent of ``sslsq.datagen`` so that a
change to the package cannot change what the benchmark feeds it. Every
file is a CSV in the package's documented schema: feature columns
``x0..``, a ``label`` column (empty field = unlabeled) and, for
semi-supervised files, a ``true_label`` column with the hidden truth.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

SEPARATION = 4.0
NOISE_SD = 1.0


@dataclass(frozen=True)
class InputSpec:
    """One input file: ``dim``-D two-class Gaussian data.

    ``labeled_per_class`` rows per class carry a label; ``unlabeled`` rows
    (half of each class, the extra one negative) carry only ``true_label``.
    With ``unlabeled == 0`` the file is fully labeled and the rows are
    shuffled so that class does not follow row order.
    """

    name: str
    dim: int
    labeled_per_class: int
    unlabeled: int = 0


def _draw(rng, count, dim, positive):
    center = np.zeros(dim)
    center[0] = SEPARATION / 2.0 if positive else -SEPARATION / 2.0
    return center + NOISE_SD * rng.standard_normal((count, dim))


def draw(spec, rng):
    """Return ``(features, labels, truth)``; ``labels`` is NaN where hidden."""
    per_class = spec.labeled_per_class
    n_pos = spec.unlabeled // 2
    n_neg = spec.unlabeled - n_pos
    features = np.vstack([
        _draw(rng, per_class, spec.dim, False),
        _draw(rng, per_class, spec.dim, True),
        _draw(rng, n_neg, spec.dim, False),
        _draw(rng, n_pos, spec.dim, True),
    ])
    truth = np.concatenate([
        np.zeros(per_class), np.ones(per_class), np.zeros(n_neg), np.ones(n_pos)
    ])
    labels = truth.copy()
    labels[2 * per_class:] = np.nan
    if spec.unlabeled == 0:
        order = rng.permutation(len(truth))
        features, labels, truth = features[order], labels[order], truth[order]
    return features, labels, truth


def write_csv(path, features, labels, truth=None):
    """Write rows in the package's CSV schema with round-trip float text."""
    dim = features.shape[1]
    header = [f"x{i}" for i in range(dim)] + ["label"]
    if truth is not None:
        header.append("true_label")
    lines = [",".join(header)]
    for i, row in enumerate(features):
        fields = [repr(float(v)) for v in row]
        fields.append("" if np.isnan(labels[i]) else repr(float(labels[i])))
        if truth is not None:
            fields.append(repr(float(truth[i])))
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def materialize(specs, seed, directory):
    """Write every spec under ``directory``; returns ``{name: (path, sha256)}``.

    Input ``k`` of the list is drawn from stream ``(seed, k)``, so the same
    seed always gives the same bytes.
    """
    written = {}
    for k, spec in enumerate(specs):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), k]))
        features, labels, truth = draw(spec, rng)
        path = directory / f"{spec.name}.csv"
        write_csv(path, features, labels, truth if spec.unlabeled else None)
        written[spec.name] = (path, sha256(path))
    return written
