"""Fit/transform encoders, dense feature-matrix assembly, and seeded
stratified splits.

Encoders are fitted on the training rows only and applied unchanged to
validation/test data, so no statistics leak across splits. Standardization
uses the population (1/n) standard deviation; zero-variance columns transform
to all-zeros. One-hot categories are the table labels that occur among the
training rows, in order of first appearance there; blocks map categories
unseen at fit time to all-zero vectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ColumnKind, Table, largest_remainder_counts
from .dataset import atomic_write, json_fits, load_json_artifact, read_floats, read_manifest, save_blob
from .errors import DataError, DimensionMismatch, EmptyInput, UnknownColumn
from .rng import SEEDS, make_rng


@dataclass(frozen=True)
class OneHotCodec:
    """Per-column category lists learned at fit time, first-appearance order.
    A category may appear once per column."""

    categories: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for col, cats in self.categories.items():
            if len(set(cats)) != len(cats):
                raise DataError(f"categories of column {col!r} repeat a category")

    def width(self, column: str) -> int:
        return len(self.categories[column])

    def to_dict(self) -> dict:
        return {col: list(cats) for col, cats in self.categories.items()}

    @classmethod
    def from_dict(cls, obj: dict) -> "OneHotCodec":
        return cls({col: tuple(cats) for col, cats in obj.items()})


@dataclass(frozen=True)
class Standardizer:
    """Per-column (mean, population std) pairs."""

    moments: dict[str, tuple[float, float]]

    def __post_init__(self):
        for col, (_, std) in self.moments.items():
            if std < 0:
                raise DataError(f"std of column {col!r} is negative")

    def to_dict(self) -> dict:
        return {col: {"mean": m, "std": s} for col, (m, s) in self.moments.items()}

    @classmethod
    def from_dict(cls, obj: dict) -> "Standardizer":
        return cls({col: (d["mean"], d["std"]) for col, d in obj.items()})


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense n x d design matrix with one label per column, e.g.
    "Start_Lat" or "City=Houston"."""

    values: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise DimensionMismatch("feature matrix must be 2-D")
        if self.values.shape[1] != len(self.column_labels):
            raise DimensionMismatch(
                f"{self.values.shape[1]} columns vs {len(self.column_labels)} labels"
            )
        if self.values.size and not np.isfinite(self.values).all():
            raise DataError("feature matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int

    def parts(self) -> dict[str, np.ndarray]:
        return {"train": self.train, "val": self.val, "test": self.test}


def fit_one_hot(table: Table, columns, rows=None) -> OneHotCodec:
    """Learn category lists from the given rows (default: all rows)."""
    idx = np.arange(table.n_rows) if rows is None else np.asarray(rows)
    categories = {}
    for name in columns:
        if name not in table.columns:
            raise UnknownColumn(name)
        if table.schema.kind_of(name) not in (ColumnKind.CATEGORICAL, ColumnKind.BOOLEAN):
            raise UnknownColumn(name)
        present, first = np.unique(table.columns[name][idx], return_index=True)
        if not len(present):
            raise DataError(f"no rows to fit one-hot codec for column {name!r}")
        categories[name] = tuple(table.labels[name][present[np.argsort(first)]].tolist())
    return OneHotCodec(categories)


def transform_one_hot(codec: OneHotCodec, table: Table, columns=None) -> tuple[np.ndarray, int]:
    """Encode columns as concatenated indicator blocks.

    Returns the binary block and the count of cells whose category was unseen
    at fit time (those rows get an all-zero vector in that block).
    """
    names = list(codec.categories) if columns is None else list(columns)
    for name in names:
        if name not in codec.categories:
            raise UnknownColumn(name)
    return _encode(table, names, codec, Standardizer({}))


def fit_standardizer(table: Table, columns, rows=None) -> Standardizer:
    """Learn per-column mean and population std from the given rows."""
    idx = np.arange(table.n_rows) if rows is None else np.asarray(rows)
    moments = {}
    for name in columns:
        if name not in table.columns or table.schema.kind_of(name) != ColumnKind.NUMERIC:
            raise UnknownColumn(name)
        values = np.asarray(table.columns[name][idx], dtype=np.float64)
        if values.size == 0:
            raise DataError(f"no rows to fit standardizer for column {name!r}")
        moments[name] = (float(values.mean()), float(values.std()))
    return Standardizer(moments)


def transform_standardize(standardizer: Standardizer, table: Table, columns=None) -> np.ndarray:
    """z = (x - mean) / std per column; zero-variance columns map to zeros."""
    names = list(standardizer.moments) if columns is None else list(columns)
    for name in names:
        if name not in standardizer.moments:
            raise UnknownColumn(name)
    return _encode(table, names, OneHotCodec({}), standardizer)[0]


def _encode(
    table: Table, names: list[str], codec: OneHotCodec, standardizer: Standardizer
) -> tuple[np.ndarray, int]:
    """The n x d encoding of ``names``, each fitted by ``standardizer`` or
    else by ``codec``, written column slice by column slice into one zeroed
    array, and the count of cells whose category was unseen at fit time.
    UnknownColumn for a column of another kind than its encoder takes."""
    for name in names:
        if not (table.schema.kind_of(name) == ColumnKind.NUMERIC if name in standardizer.moments
                else name in table.labels):
            raise UnknownColumn(name)
    widths = [1 if name in standardizer.moments else codec.width(name) for name in names]
    out = np.zeros((table.n_rows, sum(widths)))
    start = unseen = 0
    for name, k in zip(names, widths):
        if name in standardizer.moments:
            mean, std = standardizer.moments[name]
            if std > 0:
                out[:, start] = (np.asarray(table.columns[name], dtype=np.float64) - mean) / std
        else:
            # each table label's fitted index, or k for one unseen at fit time
            fitted = {c: i for i, c in enumerate(codec.categories[name])}
            lookup = np.array([fitted.get(label, k) for label in table.labels[name].tolist()], dtype=np.int64)
            codes = lookup[table.columns[name]]
            hit = np.flatnonzero(codes < k)
            out[hit, start + codes[hit]] = 1.0
            unseen += table.n_rows - len(hit)
        start += k
    return out, unseen


def assemble(
    table: Table,
    codec: OneHotCodec,
    standardizer: Standardizer,
    column_order=None,
) -> FeatureMatrix:
    """Build the design matrix in deterministic column order.

    Order is schema order restricted to fitted columns (or an explicit
    ``column_order``); each numeric column contributes one standardized
    column, each categorical column its full one-hot block.
    """
    if column_order is None:
        fitted = set(codec.categories) | set(standardizer.moments)
        column_order = [n for n in table.schema.names if n in fitted]
    labels: list[str] = []
    for name in column_order:
        if name in standardizer.moments:
            labels.append(name)
        elif name in codec.categories:
            labels.extend(f"{name}={c}" for c in codec.categories[name])
        else:
            raise DimensionMismatch(f"column {name!r} not fitted by codec or standardizer")
    return FeatureMatrix(_encode(table, list(column_order), codec, standardizer)[0], tuple(labels))


def stratified_allocate(labels, ratios, seed: int) -> list[np.ndarray]:
    """Partition row indices into len(ratios) parts, per class.

    Within each class the rows are shuffled by a seeded generator, then dealt
    out by largest-remainder rounding of count*ratio. Whenever a class has at
    least as many rows as there are parts, every part receives at least one of
    them (a row is taken from the largest allocation if needed).
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptyInput("no rows to split")
    ratios = np.asarray(ratios, dtype=np.float64)
    if (ratios <= 0).any() or abs(ratios.sum() - 1.0) > 1e-9:
        raise DataError(f"ratios must be positive and sum to 1, got {ratios.tolist()}")
    n_parts = len(ratios)
    rng = make_rng(seed)
    parts: list[list[np.ndarray]] = [[] for _ in range(n_parts)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        counts = largest_remainder_counts(len(idx), ratios)
        if len(idx) >= n_parts:
            while (counts == 0).any():
                counts[np.argmax(counts == 0)] += 1
                counts[np.argmax(counts)] -= 1
        offsets = np.concatenate([[0], np.cumsum(counts)])
        for p in range(n_parts):
            parts[p].append(idx[offsets[p]:offsets[p + 1]])
    return [np.sort(np.concatenate(chunks)) for chunks in parts]


def stratified_split(targets, ratios=(0.6, 0.2, 0.2), seed: int = 0) -> SplitIndices:
    """Seeded stratified train/val/test split (60:20:20 by default)."""
    if len(ratios) != 3:
        raise DataError("stratified_split takes exactly three ratios")
    train, val, test = stratified_allocate(targets, ratios, seed)
    return SplitIndices(train=train, val=val, test=test, seed=seed)


# -- file formats -------------------------------------------------------------
#
# A feature-matrix file's blob holds the n x d values, row-major.

FMX_FORMAT = "sevpred-fmx-1"


def save_feature_matrix(path: str | Path, fm: FeatureMatrix) -> None:
    manifest = {
        "format": FMX_FORMAT,
        "n": fm.n,
        "d": fm.d,
        "dtype": "float64",
        "byte_order": "little",
        "labels": list(fm.column_labels),
    }
    save_blob(path, manifest, [fm.values])


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        manifest = read_manifest(fh, path, FMX_FORMAT, "feature-matrix")
        if not (json_fits(manifest, {"n": int, "d": int, "labels": [str]})
                and manifest["n"] >= 0 and len(manifest["labels"]) == manifest["d"]
                and manifest.get("dtype") == "float64" and manifest.get("byte_order") == "little"):
            raise DataError(f"{path}: feature-matrix manifest needs int n >= 0, d string labels, "
                            "dtype float64 and byte_order little")
        n, d = manifest["n"], manifest["d"]
        values = read_floats(fh, path, n * d).reshape(n, d)
    return FeatureMatrix(values, tuple(manifest["labels"]))


def save_splits(path: str | Path, splits: SplitIndices) -> None:
    payload = {
        "seed": splits.seed,
        "train": splits.train.tolist(),
        "val": splits.val.tolist(),
        "test": splits.test.tolist(),
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_splits(path: str | Path) -> SplitIndices:
    payload = load_json_artifact(
        path, "splits", {"train": [int], "val": [int], "test": [int], "seed": SEEDS}
    )
    return SplitIndices(
        train=np.asarray(payload["train"], dtype=np.int64),
        val=np.asarray(payload["val"], dtype=np.int64),
        test=np.asarray(payload["test"], dtype=np.int64),
        seed=payload["seed"],
    )


def save_preprocessor(
    path: str | Path,
    codec: OneHotCodec,
    standardizer: Standardizer,
    column_order: list[str],
) -> None:
    payload = {
        "one_hot": codec.to_dict(),
        "standardizer": standardizer.to_dict(),
        "column_order": list(column_order),
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_preprocessor(path: str | Path) -> tuple[OneHotCodec, Standardizer, list[str]]:
    payload = load_json_artifact(path, "preprocessor", {
        "one_hot": {str: [str]},
        "standardizer": {str: {"mean": float, "std": float}},
        "column_order": [str],
    })
    try:
        codec = OneHotCodec.from_dict(payload["one_hot"])
    except DataError as exc:
        raise DataError(f"{path}: one_hot {exc}") from None
    try:
        standardizer = Standardizer.from_dict(payload["standardizer"])
    except DataError as exc:
        raise DataError(f"{path}: standardizer {exc}") from None
    return codec, standardizer, payload["column_order"]
