"""Schema-driven tabular data: CSV ingestion, imputation, summary statistics,
a synthetic imbalanced-data generator for desk-scale experiments, and the
table file (``save_table``/``load_table``), a keyed :mod:`sevpred.artifacts` file.

A :class:`Table` is column-oriented: numeric columns are float64 arrays,
categorical/boolean columns int64 codes into per-column ``str`` labels, the
target column an int64 array of labels in ``1..K``. A per-cell boolean mask
records missing values until :func:`impute` clears them. Tables are treated
as immutable after construction.
"""

from __future__ import annotations

import csv
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .artifacts import load_json_artifact, load_keyed, save_keyed
from .errors import (
    AllMissingColumn,
    DataError,
    EmptyFile,
    InvalidProportions,
    MissingColumn,
    TargetOutOfRange,
)
from .rng import make_rng


class ColumnKind(str, Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    BOOLEAN = "boolean"
    TARGET = "target"


@dataclass(frozen=True)
class SchemaSpec:
    """Ordered column declaration plus the target cardinality K.

    Exactly one column must have kind ``target``. Boolean columns are stored
    and later encoded exactly like categoricals; the kind exists so schema
    files stay self-describing.
    """

    columns: tuple[tuple[str, ColumnKind], ...]
    target_cardinality: int

    def __post_init__(self):
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise DataError("schema column names must be unique")
        targets = [name for name, kind in self.columns if kind == ColumnKind.TARGET]
        if len(targets) != 1:
            raise DataError(f"schema needs exactly one target column, got {targets}")
        if self.target_cardinality < 2:
            raise DataError("target_cardinality must be at least 2")

    @property
    def target(self) -> str:
        return next(n for n, k in self.columns if k == ColumnKind.TARGET)

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.columns]

    def kind_of(self, name: str) -> ColumnKind:
        for n, k in self.columns:
            if n == name:
                return k
        raise MissingColumn(name)

    def feature_names(self) -> list[str]:
        return [n for n, k in self.columns if k != ColumnKind.TARGET]


def schema_from_dict(obj: dict) -> SchemaSpec:
    cols = tuple(
        (c["name"], ColumnKind(c["kind"])) for c in obj["columns"]
    )
    return SchemaSpec(columns=cols, target_cardinality=int(obj["target_cardinality"]))


def schema_to_dict(schema: SchemaSpec) -> dict:
    return {
        "columns": [{"name": n, "kind": k.value} for n, k in schema.columns],
        "target_cardinality": schema.target_cardinality,
    }


def load_schema(path: str | Path) -> SchemaSpec:
    """Load a schema from the JSON file format used by the CLI; DataError
    naming the file if it does not parse, lacks a field or declares columns
    no schema may have."""
    obj = load_json_artifact(
        path, "schema", {"columns": [{"name": str, "kind": str}], "target_cardinality": int}
    )
    try:
        return schema_from_dict(obj)
    except (ValueError, DataError) as exc:  # ValueError: a kind ColumnKind lacks
        raise DataError(f"{path}: {exc}") from None


@dataclass
class Table:
    """Column store with schema, per-cell missing mask, and row count.

    Categorical/boolean columns hold int64 codes into ``labels[name]``, where
    a label may occur in no row; raw cells given without labels are coded by
    :func:`factorize` of their ``str``. ``n_dropped`` counts rows dropped at
    ingestion for a missing target.
    """

    schema: SchemaSpec
    columns: dict[str, np.ndarray]
    missing: dict[str, np.ndarray]
    n_rows: int
    n_dropped: int = 0
    labels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.columns, self.labels = dict(self.columns), dict(self.labels)
        for name, kind in self.schema.columns:
            if name not in self.columns:
                raise MissingColumn(name)
            if len(self.columns[name]) != self.n_rows:
                raise DataError(f"column {name!r} length != n_rows")
            if len(self.missing[name]) != self.n_rows:
                raise DataError(f"missing mask for {name!r} length != n_rows")
            if kind in (ColumnKind.CATEGORICAL, ColumnKind.BOOLEAN):
                if name not in self.labels:
                    self.columns[name], self.labels[name] = factorize(as_text(self.columns[name]))
                if ((self.columns[name] < 0) | (self.columns[name] >= len(self.labels[name]))).any():
                    raise DataError(f"column {name!r} has codes outside its labels")
        tgt = self.schema.target
        if self.missing[tgt].any():
            raise DataError("target column must have no missing cells")
        t = self.columns[tgt]
        # labels count through bincount, which takes only int64-castable ints
        if t.dtype.kind not in "iu" or not np.can_cast(t.dtype, np.int64):
            raise DataError(f"target column must hold integer labels, got dtype {t.dtype}")
        if self.n_rows:
            bad = (t < 1) | (t > self.schema.target_cardinality)
            if bad.any():
                row = int(np.flatnonzero(bad)[0])
                raise TargetOutOfRange(row, int(t[row]), self.schema.target_cardinality)

    @property
    def target(self) -> np.ndarray:
        return self.columns[self.schema.target]

    def has_missing(self) -> bool:
        return any(m.any() for m in self.missing.values())

    def select_rows(self, indices) -> "Table":
        """New table containing the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        cols = {n: v[idx] for n, v in self.columns.items()}
        miss = {n: v[idx] for n, v in self.missing.items()}
        return Table(self.schema, cols, miss, int(len(idx)), self.n_dropped, self.labels)


# str() of every cell, kept as Python strings (a numpy str array would drop
# trailing NULs and merge categories that differ only by them)
as_text = np.frompyfunc(str, 1, 1)


def factorize(values) -> tuple[np.ndarray, np.ndarray]:
    """The package's one rule for category identity and order: ``labels``
    holds the distinct values (by Python equality) in first-appearance order
    and int64 ``codes`` index them, so ``labels[codes]`` rebuilds the input."""
    values = np.asarray(values)
    cells = values.tolist()
    index = {v: i for i, v in enumerate(dict.fromkeys(cells))}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.int64, count=len(cells))
    return codes, np.fromiter(index, dtype=values.dtype, count=len(index))


INGEST_CHUNK = 1024  # CSV rows ingest_csv codes per step


def _parse_numeric(text: str) -> float:
    """A numeric cell's value, NaN if it is blank or does not parse."""
    try:
        return float(text)
    except ValueError:
        return np.nan


def _parse_target(text: str, cardinality: int) -> int:
    """A target cell's label in ``1..cardinality``; 0 if the cell is blank or
    does not parse (its row is dropped), -1 if it is a number outside that
    range."""
    try:
        value = float(text)  # float() strips the same whitespace str.strip() does
    except ValueError:
        return 0
    return int(value) if value.is_integer() and 1 <= value <= cardinality else -1


def _csv_chunks(fh, path: str | Path):
    """The header row of the CSV open as ``fh`` (None if the file is empty),
    then its data rows in lists of up to INGEST_CHUNK; DataError naming
    ``path`` where the text is not UTF-8 or the csv module refuses a row."""
    reader = csv.reader(fh)
    try:
        yield next(reader, None)
        # iter() keeps no reference to the chunk it last returned
        yield from iter(lambda: list(itertools.islice(reader, INGEST_CHUNK)), [])
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def ingest_csv(path: str | Path, schema: SchemaSpec, *, require_target: bool = True) -> Table:
    """Load an RFC-4180 CSV into a Table, parsing cells per schema kind.

    Unparseable or non-finite numeric cells are marked missing;
    categorical/boolean cells are taken verbatim (trimmed). A row shorter
    than the header reads blank past its end, and an empty line is skipped.
    A leading UTF-8 byte-order mark (Excel's "CSV UTF-8") is not text.
    Rows whose target cell is missing or unparseable are dropped and counted
    in ``Table.n_dropped``. A parseable target outside ``1..K`` raises
    :class:`TargetOutOfRange` with the row's index among the data lines.

    The header is checked before any row is read: DataError for a schema
    column it names twice, MissingColumn for one it lacks. The rows are read
    in one pass of INGEST_CHUNK-row chunks, so the first fault in line order
    is the one raised. Categorical/boolean cells become codes of their raw text
    as each chunk arrives; only the distinct raw labels are trimmed, at the
    end, and each distinct target text is parsed once per chunk. Memory is
    one chunk of cells plus the codes and values.

    With ``require_target=False`` the target column may be absent from the
    header and is never read when present: every data line is kept
    (``n_dropped`` is 0) with the placeholder label 1, as ``predict`` needs.
    """
    target_name, k = schema.target, schema.target_cardinality
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        chunks = _csv_chunks(fh, path)
        header = next(chunks)
        if header is None:
            raise EmptyFile(f"{path}: no header row")
        header = [h.strip() for h in header]
        positions: dict[str, int] = {}
        for name in schema.names:
            if header.count(name) > 1:
                raise DataError(f"{path}: the header names column {name!r} more than once")
            if name in header:
                positions[name] = header.index(name)
            elif name != target_name or require_target:
                raise MissingColumn(name)
        width = max(positions.values(), default=-1) + 1
        tpos = positions.get(target_name) if require_target else None
        # per categorical/boolean column: raw cell text -> code, in first-appearance order
        index = {name: defaultdict(itertools.count().__next__) for name, kind in schema.columns
                 if kind in (ColumnKind.CATEGORICAL, ColumnKind.BOOLEAN)}
        parts = {name: [np.empty(0, np.float64 if kind == ColumnKind.NUMERIC else np.int64)]
                 for name, kind in schema.columns}
        n_lines = n_dropped = 0
        for rows in chunks:
            kept = [row if len(row) >= width else row + [""] * (width - len(row)) for row in rows if row]
            columns = list(itertools.islice(zip(*kept), width)) if kept else [()] * width
            if tpos is None:
                target = np.ones(len(kept), dtype=np.int64)
            else:
                parsed = {text: _parse_target(text, k) for text in dict.fromkeys(columns[tpos])}
                target = np.fromiter(map(parsed.__getitem__, columns[tpos]), dtype=np.int64, count=len(kept))
                if (target < 0).any():
                    j = int(np.flatnonzero(target < 0)[0])
                    line = [i for i, row in enumerate(rows) if row][j]
                    raise TargetOutOfRange(n_lines + line, kept[j][tpos].strip(), k)
                if not target.all():
                    keep = (target > 0).tolist()
                    columns = [list(itertools.compress(col, keep)) for col in columns]
                    n_dropped += keep.count(False)
                    target = target[target > 0]
            n_lines += len(rows)
            for name, kind in schema.columns:
                if kind == ColumnKind.TARGET:
                    parts[name].append(target)
                elif kind == ColumnKind.NUMERIC:
                    cells = map(_parse_numeric, columns[positions[name]])
                    parts[name].append(np.fromiter(cells, dtype=np.float64, count=len(target)))
                else:
                    cells = map(index[name].__getitem__, columns[positions[name]])
                    parts[name].append(np.fromiter(cells, dtype=np.int64, count=len(target)))
            del rows, kept, columns  # this chunk's cells go before the next is read

    columns, labels = {}, {}
    for name, kind in schema.columns:
        columns[name] = np.concatenate(parts.pop(name))
        if name in index:
            # raw labels that trim to one text merge, in first-appearance order
            merged, labels[name] = factorize(np.array([text.strip() for text in index[name]], dtype=object))
            columns[name] = merged[columns[name]]
    return _ingested_table(schema, columns, labels, n_dropped)


def _ingested_table(schema: SchemaSpec, columns: dict, labels: dict, n_dropped: int) -> Table:
    """The Table of ingested ``columns``: a non-finite numeric cell (set to
    NaN here) and a categorical/boolean cell whose label is blank are
    missing; the target has no missing cell."""
    missing = {}
    for name, kind in schema.columns:
        values = columns[name]
        if kind == ColumnKind.NUMERIC:
            missing[name] = ~np.isfinite(values)
            values[missing[name]] = np.nan
        elif kind == ColumnKind.TARGET:
            missing[name] = np.zeros(len(values), dtype=bool)
        else:
            missing[name] = (labels[name] == "")[values]
    return Table(schema, columns, missing, len(columns[schema.target]), n_dropped, labels)


def write_csv(table: Table, path: str | Path) -> None:
    """Write a table back to CSV; missing cells become empty strings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for i in range(table.n_rows):
            row = []
            for name, kind in table.schema.columns:
                if table.missing[name][i]:
                    row.append("")
                elif kind == ColumnKind.NUMERIC:
                    row.append(repr(float(table.columns[name][i])))
                elif kind == ColumnKind.TARGET:
                    row.append(str(int(table.columns[name][i])))
                else:
                    row.append(table.labels[name][table.columns[name][i]])
            writer.writerow(row)


def impute(table: Table) -> Table:
    """Fill missing cells: numeric columns get the column median over the
    observed values, categorical columns get the literal category "Unknown".

    Raises :class:`AllMissingColumn` for a numeric column with no observed
    values. Returns a new table with an all-false missing mask.
    """
    columns: dict[str, np.ndarray] = {}
    missing: dict[str, np.ndarray] = {}
    labels = {name: factorize(np.append(v, "Unknown"))[1] for name, v in table.labels.items()}
    for name, kind in table.schema.columns:
        values = table.columns[name]
        mask = table.missing[name]
        if not mask.any():
            columns[name] = values
            missing[name] = np.zeros(table.n_rows, dtype=bool)
            continue
        if kind == ColumnKind.NUMERIC:
            observed = values[~mask]
            if observed.size == 0:
                raise AllMissingColumn(name)
            filled = values.copy()
            filled[mask] = np.median(observed)
        else:
            filled = values.copy()
            filled[mask] = labels[name].tolist().index("Unknown")
        columns[name] = filled
        missing[name] = np.zeros(table.n_rows, dtype=bool)
    return Table(table.schema, columns, missing, table.n_rows, table.n_dropped, labels)


def class_distribution(table: Table) -> np.ndarray:
    """Per-class target proportions, indexed 0..K-1 for labels 1..K."""
    if table.n_rows == 0:
        raise DataError("empty table has no class distribution")
    k = table.schema.target_cardinality
    counts = np.bincount(table.target, minlength=k + 1)[1:]
    return counts / table.n_rows


def summarize(table: Table) -> dict:
    """Plot-ready per-column summary (the `stats` CLI payload).

    Numeric columns report min/median/max over observed values; categorical
    columns report their top-10 category counts.
    """
    cols = {}
    for name, kind in table.schema.columns:
        mask = table.missing[name]
        entry: dict = {
            "kind": kind.value,
            "missing_rate": float(mask.mean()) if table.n_rows else 0.0,
        }
        values = table.columns[name][~mask]
        if kind == ColumnKind.NUMERIC:
            if values.size:
                entry.update(
                    min=float(np.min(values)),
                    median=float(np.median(values)),
                    max=float(np.max(values)),
                )
            else:
                entry.update(min=None, median=None, max=None)
        elif kind == ColumnKind.TARGET:
            entry["distribution"] = class_distribution(table).tolist() if table.n_rows else []
        else:
            counts = np.bincount(values, minlength=len(table.labels[name]))
            cats = table.labels[name][counts > 0]
            by_name = np.argsort(cats)  # Python string order breaks count ties
            counts = counts[counts > 0][by_name]
            top = np.argsort(counts)[::-1][:10]
            entry["top_categories"] = [[cats[by_name[i]], int(counts[i])] for i in top]
        cols[name] = entry
    return {
        "n_rows": table.n_rows,
        "n_dropped_missing_target": table.n_dropped,
        "class_distribution": class_distribution(table).tolist() if table.n_rows else [],
        "columns": cols,
    }


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic, class-imbalanced synthetic table.

    Class counts are the largest-remainder rounding of
    ``n_rows * class_proportions`` rather than a multinomial draw, so
    imbalance behavior is exactly reproducible. Numeric features are unit
    normals around per-class centroids scaled by ``class_shift``; categorical
    features draw from per-class category frequencies skewed by the same
    factor.
    """

    n_rows: int
    class_proportions: tuple[float, ...]
    n_numeric: int
    n_categorical: int
    class_shift: float = 1.0
    seed: int = 0
    n_categories: int = 5

    def __post_init__(self):
        p = np.asarray(self.class_proportions, dtype=np.float64)
        if p.ndim != 1 or len(p) < 2:
            raise InvalidProportions("need at least two class proportions")
        if (p <= 0).any():
            raise InvalidProportions("class proportions must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise InvalidProportions(f"class proportions sum to {p.sum()!r}, not 1")
        if self.n_rows < 1:
            raise DataError("n_rows must be positive")


def largest_remainder_counts(total: int, proportions: np.ndarray) -> np.ndarray:
    """Integer allocation of `total` by proportion: floors first, then the
    largest fractional remainders win the leftover seats (ties by index)."""
    quotas = np.asarray(proportions, dtype=np.float64) * total
    counts = np.floor(quotas).astype(np.int64)
    remainder = total - int(counts.sum())
    if remainder > 0:
        # stable sort keeps index order on remainder ties
        order = np.argsort(-(quotas - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def generate_synthetic(spec: SyntheticSpec) -> Table:
    """Deterministic synthetic table matching the spec's class proportions."""
    k = len(spec.class_proportions)
    counts = largest_remainder_counts(spec.n_rows, np.asarray(spec.class_proportions))
    rng = make_rng(spec.seed)

    labels = np.repeat(np.arange(1, k + 1), counts)
    centroids = spec.class_shift * rng.standard_normal((k, spec.n_numeric)) if spec.n_numeric else np.zeros((k, 0))
    numeric = centroids[labels - 1] + rng.standard_normal((spec.n_rows, spec.n_numeric))

    cat_columns = []
    for _ in range(spec.n_categorical):
        logits = spec.class_shift * rng.standard_normal((k, spec.n_categories))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        u = rng.random(spec.n_rows)
        draws = (cdf[labels - 1] < u[:, None]).sum(axis=1)
        cat_columns.append(draws)

    order = rng.permutation(spec.n_rows)
    labels = labels[order]
    numeric = numeric[order]
    cat_columns = [c[order] for c in cat_columns]

    columns: dict[str, np.ndarray] = {}
    schema_cols: list[tuple[str, ColumnKind]] = []
    for j in range(spec.n_numeric):
        name = f"num_{j}"
        schema_cols.append((name, ColumnKind.NUMERIC))
        columns[name] = numeric[:, j].copy()
    for j in range(spec.n_categorical):
        name = f"cat_{j}"
        schema_cols.append((name, ColumnKind.CATEGORICAL))
        columns[name] = np.array([f"k{v}" for v in cat_columns[j]], dtype=object)
    schema_cols.append(("severity", ColumnKind.TARGET))
    columns["severity"] = labels.astype(np.int64)

    schema = SchemaSpec(columns=tuple(schema_cols), target_cardinality=k)
    missing = {n: np.zeros(spec.n_rows, dtype=bool) for n in columns}
    return Table(schema, columns, missing, spec.n_rows)


def _table_sections(schema: SchemaSpec, n_rows: int) -> list[tuple[str, int]]:
    """A saved table's ``(dtype, count)`` sections, one per schema column:
    float64 values (NaN where missing), int64 target labels and, as
    ``features.fmx`` stores codes, int32 category codes."""
    dtypes = {ColumnKind.NUMERIC: "<f8", ColumnKind.TARGET: "<i8"}
    return [(dtypes.get(kind, "<i4"), n_rows) for _, kind in schema.columns]


def save_table(path: str | Path, table: Table, key: dict) -> None:
    """Write an ingested (not imputed) ``table`` under ``key`` with
    :func:`save_keyed`: the manifest holds ``n_rows``, ``n_dropped`` and each
    categorical column's labels, the data one section per column (see
    ``_table_sections``)."""
    fields = {
        "n_rows": table.n_rows,
        "n_dropped": table.n_dropped,
        "labels": {name: labels.tolist() for name, labels in table.labels.items()},
    }
    sections = _table_sections(table.schema, table.n_rows)
    save_keyed(path, key, fields, [(dtype, table.columns[name])
                                   for name, (dtype, _) in zip(table.schema.names, sections)])


def load_table(path: str | Path, schema: SchemaSpec, key: dict) -> Table:
    """The table :func:`save_table` wrote to ``path`` under ``key``, as
    ``ingest_csv`` returned it; DataError if :func:`load_keyed` refuses the
    file or it holds columns other than ``schema``'s."""
    shape = {"n_rows": range(2**63), "n_dropped": range(2**63), "labels": {str: [str]}}
    manifest, arrays = load_keyed(path, key, "table", shape, lambda m: _table_sections(schema, m["n_rows"]))
    categorical = [name for name, kind in schema.columns
                   if kind in (ColumnKind.CATEGORICAL, ColumnKind.BOOLEAN)]
    if list(manifest["labels"]) != categorical:
        raise DataError(f"{path}: not a table saved under this key")
    labels = {name: np.array(values, dtype=object) for name, values in manifest["labels"].items()}
    columns = {}
    for name in schema.names:
        a = arrays.pop(0)  # so each int32 section goes once it is widened
        columns[name] = a.astype(np.int64) if name in labels else a
    return _ingested_table(schema, columns, labels, manifest["n_dropped"])
