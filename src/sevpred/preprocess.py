"""Encoder fitting, feature-matrix assembly, and seeded stratified splits.

Encoders are fitted on the training rows only; ``assemble``, the one path
from a table to features, applies them unchanged to any rows, so no
statistics leak across splits. Standardization uses the population (1/n)
standard deviation; zero-variance columns transform to all-zeros. One-hot
categories are the table labels that occur among the training rows, in order
of first appearance there. An assembled matrix keeps each one-hot block as
one integer code per row, -1 for a category unseen at fit time (an all-zero
vector), and builds its dense rows only when a stage reads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .artifacts import atomic_write, json_fits, load_json_artifact, read_arrays, read_manifest, save_blob
from .dataset import ColumnKind, Table, largest_remainder_counts
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


BLOCK_KINDS = ("numeric", "one_hot")


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d design matrix with one label per column, e.g. "Start_Lat" or
    "City=Houston", held compactly: a float64 ``numeric`` block plus one
    int32 ``codes`` column per one-hot block, each the fitted category's index
    or -1 for a category unseen at fit time. ``blocks`` gives the column
    order as ``(kind, width)`` runs: a "numeric" run takes the next ``width``
    columns of ``numeric``, a "one_hot" run of width k is the next code
    column's indicator block. ``FeatureMatrix(values, labels)`` is a dense
    matrix: one numeric run and no codes.

    ``values`` is the dense n x d matrix, built once on first read (a dense
    matrix's is the ``numeric`` array itself); ``n`` and ``d`` never build it.
    """

    numeric: np.ndarray
    column_labels: tuple[str, ...]
    codes: np.ndarray | None = None
    blocks: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.numeric.ndim != 2:
            raise DimensionMismatch("feature matrix must be 2-D")
        if self.codes is None:
            object.__setattr__(self, "codes", np.empty((self.numeric.shape[0], 0), dtype=np.int32))
        if not self.blocks:
            object.__setattr__(self, "blocks", (("numeric", self.numeric.shape[1]),))
        if any(kind not in BLOCK_KINDS or width < 0 for kind, width in self.blocks):
            raise DataError(f"feature matrix blocks need a kind among {BLOCK_KINDS} and a width >= 0")
        one_hot = [width for kind, width in self.blocks if kind == "one_hot"]
        if self.codes.ndim != 2 or self.codes.shape != (self.numeric.shape[0], len(one_hot)):
            raise DimensionMismatch("feature matrix needs one code column per one-hot block, one per row")
        if self.numeric.shape[1] != self.d - sum(one_hot):
            raise DimensionMismatch(
                f"{self.numeric.shape[1]} numeric columns vs numeric blocks of width {self.d - sum(one_hot)}"
            )
        if self.d != len(self.column_labels):
            raise DimensionMismatch(f"{self.d} columns vs {len(self.column_labels)} labels")
        if self.numeric.size and not np.isfinite(self.numeric).all():
            raise DataError("feature matrix contains non-finite entries")
        if self.codes.size and ((self.codes < -1) | (self.codes >= np.asarray(one_hot))).any():
            raise DataError("feature matrix has a one-hot code outside [-1, block width)")

    @property
    def n(self) -> int:
        return self.numeric.shape[0]

    @property
    def d(self) -> int:
        return sum(width for _, width in self.blocks)

    @cached_property
    def values(self) -> np.ndarray:
        if not self.codes.shape[1]:
            return self.numeric
        out = np.zeros((self.n, self.d))
        start = num = code = 0
        for kind, width in self.blocks:
            if kind == "numeric":
                out[:, start:start + width] = self.numeric[:, num:num + width]
                num += width
            else:
                col = self.codes[:, code]
                hit = np.flatnonzero(col >= 0)
                out[hit, start + col[hit]] = 1.0
                code += 1
            start += width
        return out


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


def assemble(table: Table, codec: OneHotCodec, standardizer: Standardizer, column_order=None) -> FeatureMatrix:
    """Build the design matrix in deterministic column order, compactly:
    its dense ``values`` are built only when read.

    Order is schema order restricted to fitted columns (or an explicit
    ``column_order``). Each column is fitted by ``standardizer`` or else by
    ``codec``: a numeric column contributes one standardized column, a
    categorical column its full one-hot block, held as one code column whose
    -1 entries are categories unseen at fit time, so the unseen count is
    ``np.count_nonzero(fm.codes < 0)``. DimensionMismatch for a column
    neither encoder fitted; UnknownColumn for a column of another kind than
    its encoder takes.
    """
    if column_order is None:
        fitted = set(codec.categories) | set(standardizer.moments)
        column_order = [n for n in table.schema.names if n in fitted]
    for name in column_order:
        if name not in standardizer.moments and name not in codec.categories:
            raise DimensionMismatch(f"column {name!r} not fitted by codec or standardizer")
        if not (table.schema.kind_of(name) == ColumnKind.NUMERIC if name in standardizer.moments
                else name in table.labels):
            raise UnknownColumn(name)
    n_numeric = sum(name in standardizer.moments for name in column_order)
    numeric = np.zeros((table.n_rows, n_numeric))
    codes = np.empty((table.n_rows, len(column_order) - n_numeric), dtype=np.int32)
    labels: list[str] = []
    blocks = []
    i = j = 0
    for name in column_order:
        if name in standardizer.moments:
            mean, std = standardizer.moments[name]
            if std > 0:
                numeric[:, i] = (np.asarray(table.columns[name], dtype=np.float64) - mean) / std
            i += 1
            labels.append(name)
            blocks.append(("numeric", 1))
        else:
            # each table label's fitted index, or -1 for one unseen at fit time
            fitted = {c: k for k, c in enumerate(codec.categories[name])}
            lookup = np.array([fitted.get(label, -1) for label in table.labels[name].tolist()], dtype=np.int32)
            codes[:, j] = lookup[table.columns[name]]
            j += 1
            labels.extend(f"{name}={c}" for c in fitted)
            blocks.append(("one_hot", len(fitted)))
    return FeatureMatrix(numeric, tuple(labels), codes, tuple(blocks))


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
# A dense feature-matrix file's blob holds the n x d values, row-major. A
# compact file's manifest adds the ``blocks`` layout, and its blob holds the
# float64 numeric block, then the int32 codes, each row-major.

FMX_DENSE, FMX_COMPACT = "sevpred-fmx-1", "sevpred-fmx-2"


def save_feature_matrix(path: str | Path, fm: FeatureMatrix) -> None:
    """Write ``fm`` in the compact format if it has one-hot blocks, else in
    the dense one."""
    compact = bool(fm.codes.shape[1])
    manifest = {
        "format": FMX_COMPACT if compact else FMX_DENSE,
        "n": fm.n,
        "d": fm.d,
        "dtype": "float64",
        "byte_order": "little",
    }
    if compact:
        manifest["blocks"] = [{"kind": kind, "width": width} for kind, width in fm.blocks]
    manifest["labels"] = list(fm.column_labels)
    save_blob(path, manifest, [("<f8", fm.numeric), ("<i4", fm.codes)])


def load_feature_matrix(path: str | Path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        manifest = read_manifest(fh, path, (FMX_DENSE, FMX_COMPACT), "feature-matrix")
        if not (json_fits(manifest, {"n": int, "d": int, "labels": [str]})
                and manifest["n"] >= 0 and len(manifest["labels"]) == manifest["d"]
                and manifest.get("dtype") == "float64" and manifest.get("byte_order") == "little"):
            raise DataError(f"{path}: feature-matrix manifest needs int n >= 0, d string labels, "
                            "dtype float64 and byte_order little")
        n, d = manifest["n"], manifest["d"]
        if manifest["format"] == FMX_DENSE:
            blocks = (("numeric", d),)
        elif (json_fits(manifest, {"blocks": [{"kind": str, "width": int}]})
              and all(b["kind"] in BLOCK_KINDS and b["width"] >= 0 for b in manifest["blocks"])
              and sum(b["width"] for b in manifest["blocks"]) == d):
            blocks = tuple((b["kind"], b["width"]) for b in manifest["blocks"])
        else:
            raise DataError(f"{path}: feature-matrix blocks need a kind among {BLOCK_KINDS} "
                            "and widths >= 0 that sum to d")
        one_hot = [width for kind, width in blocks if kind == "one_hot"]
        width = d - sum(one_hot)
        numeric, codes = read_arrays(fh, path, [("<f8", n * width), ("<i4", n * len(one_hot))])
    try:
        return FeatureMatrix(numeric.reshape(n, width), tuple(manifest["labels"]),
                             codes.reshape(n, len(one_hot)), blocks)
    except DataError as exc:  # a non-finite value or a code outside its block
        raise DataError(f"{path}: {exc}") from None


def save_splits(path: str | Path, splits: SplitIndices) -> None:
    payload = {
        "seed": splits.seed,
        "train": splits.train.tolist(),
        "val": splits.val.tolist(),
        "test": splits.test.tolist(),
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))


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
        fh.write(json.dumps(payload))


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
