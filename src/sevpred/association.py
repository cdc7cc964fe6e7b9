"""Categorical association: contingency tables, chi-square, Cramer's V,
pairwise association matrices, and threshold-based feature selection.

Numeric columns take part through equal-frequency (quantile) binning, so one
measure covers every column-type pair. :func:`association_matrix` works on a
table's integer codes, renumbered once per column over the codes that occur,
and counts each pair with one ``bincount``; :func:`build_contingency` codes
loose arrays. Both reach V through one chi-square and one V helper. Plain
(uncorrected) V is the default; the small-sample bias correction sits behind
a flag. :func:`select_features` reads the target's row of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ColumnKind, Table, factorize
from .errors import DataError, LengthMismatch, MissingColumn

DEFAULT_BINS = 10
# the format of a saved association matrix; bump it whenever the bits
# association_matrix gives for an imputed ingested table can change (the
# imputation, the binning or the V arithmetic), so a matrix an older rule
# computed is never read back
MATRIX_FORMAT = "sevpred-assoc-1"


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-tabulated co-occurrence counts; rows and columns carry labels
    in first-appearance order of the source arrays."""

    counts: np.ndarray
    row_labels: tuple
    col_labels: tuple

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
            raise DataError("contingency counts must be a non-empty 2-D matrix")
        if (c < 0).any():
            raise DataError("contingency counts must be non-negative")
        if c.sum() < 1:
            raise DataError("contingency table must contain at least one observation")
        if len(self.row_labels) != c.shape[0] or len(self.col_labels) != c.shape[1]:
            raise DataError("label lists must match matrix dimensions")

    @property
    def n(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class AssociationMatrix:
    labels: tuple[str, ...]
    values: np.ndarray


@dataclass(frozen=True)
class SelectionReport:
    """Columns ranked by association with the target; ``selected`` keeps
    those at or above the threshold (target itself excluded)."""

    threshold: float
    ranked: tuple[tuple[str, float], ...]
    selected: tuple[str, ...]


def bin_numeric(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-frequency binning: edges at the i/n_bins empirical quantiles.

    Values equal to an edge go to the lower bin; empty bins (from duplicate
    edges under heavy ties) are collapsed so bin indices are consecutive.
    A constant column yields a single bin for every row; a NaN or infinite
    value is a DataError, since it has no quantile.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DataError("cannot bin an empty column")
    if n_bins < 2:
        raise DataError("n_bins must be at least 2")
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite))
        raise DataError(f"cannot bin the non-finite value {values[row]} at row {row}")
    qs = np.arange(1, n_bins) / n_bins
    edges = np.unique(np.quantile(values, qs))
    # count of edges strictly below each value = bin index; ties land low
    bins = np.searchsorted(edges, values, side="left")
    return _dense(bins)[0]


def _dense(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative int ``codes`` renumbered 0.. in value order over the
    values that occur, and each one's count, from one ``bincount``."""
    counts = np.bincount(codes)
    occurs = counts > 0
    return (np.cumsum(occurs) - 1)[codes], counts[occurs]


def build_contingency(a, b) -> ContingencyTable:
    """Count co-occurrences of two equal-length category arrays."""
    if len(a) != len(b):
        raise LengthMismatch(f"category arrays differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise DataError("cannot tabulate empty arrays")
    (ai, row_labels), (bi, col_labels) = factorize(a), factorize(b)
    r, c = len(row_labels), len(col_labels)
    counts = np.bincount(ai * c + bi, minlength=r * c).reshape(r, c)
    return ContingencyTable(counts, tuple(row_labels.tolist()), tuple(col_labels.tolist()))


def chi_square(table: ContingencyTable) -> float:
    """Pearson chi-square statistic; cells with zero expected count
    contribute nothing."""
    counts = np.asarray(table.counts, dtype=np.float64)
    return _chi_square(counts, counts.sum(axis=1), counts.sum(axis=0), counts.sum())


def _chi_square(counts, rows, cols, n) -> float:
    """Chi-square of ``counts`` from its float64 margins and total ``n``."""
    expected = np.outer(rows, cols)
    expected /= n
    terms = np.subtract(counts, expected)
    np.square(terms, out=terms)
    # a zero expected count lies in a zero margin, so its term stays (0 - 0)**2
    np.divide(terms, expected, out=terms, where=expected > 0)
    # canonical summation order: the statistic is bit-identical under row or
    # column permutation and transpose, so association matrices are exactly
    # symmetric and exactly reproducible from pairwise calls
    return float(np.sort(terms, axis=None).sum())


def cramers_v(table: ContingencyTable, bias_corrected: bool = False) -> float:
    """Cramer's V in [0, 1]; tables with a single row or column return 0.

    The bias-corrected form replaces chi2/n with
    max(0, chi2/n - (r-1)(c-1)/(n-1)) and shrinks r and c accordingly.
    """
    counts = np.asarray(table.counts, dtype=np.float64)
    return _cramers_v(counts, counts.sum(axis=1), counts.sum(axis=0), table.n, bias_corrected)


def _cramers_v(counts, rows, cols, n: int, bias_corrected: bool) -> float:
    """Cramer's V of ``counts`` from its float64 margins and total ``n``."""
    r, c = len(rows), len(cols)
    if min(r, c) <= 1:
        return 0.0
    phi2 = _chi_square(counts, rows, cols, n) / n
    if bias_corrected:
        if n <= 1:
            return 0.0
        phi2 = max(0.0, phi2 - (r - 1) * (c - 1) / (n - 1))
        r = r - (r - 1) ** 2 / (n - 1)
        c = c - (c - 1) ** 2 / (n - 1)
        denom = min(r, c) - 1
        if denom <= 0:
            return 0.0
    else:
        denom = min(r, c) - 1
    v = np.sqrt(phi2 / denom)
    return float(np.clip(v, 0.0, 1.0))


def _categorize(table: Table, name: str, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Column as dense codes over the values that occur and their float64
    counts, its margin in every pair; numeric columns are binned first. Table
    columns hold non-negative ints, so one ``bincount`` renumbers them."""
    values = table.columns[name]
    if table.schema.kind_of(name) == ColumnKind.NUMERIC:
        values = bin_numeric(values, n_bins)
    codes, counts = _dense(values)
    return codes, counts.astype(np.float64)


def association_matrix(
    table: Table, n_bins: int = DEFAULT_BINS, bias_corrected: bool = False
) -> AssociationMatrix:
    """Pairwise Cramer's V over all schema columns (target included).

    Requires an imputed table with rows. Diagonal forced to 1; the matrix is
    symmetric by construction since each pair is computed once, as one
    ``bincount`` of the two columns' codes and one chi-square.
    """
    if table.has_missing():
        raise DataError("association_matrix requires an imputed table")
    if table.n_rows == 0:
        raise DataError("association_matrix requires a table with rows")
    names = table.schema.names
    coded = [_categorize(table, name, n_bins) for name in names]
    values = np.eye(len(names))
    for i, (a, rows) in enumerate(coded):
        for j in range(i + 1, len(names)):
            b, cols = coded[j]
            r, c = len(rows), len(cols)
            counts = np.bincount(a * c + b, minlength=r * c).reshape(r, c)
            values[i, j] = values[j, i] = _cramers_v(counts, rows, cols, table.n_rows, bias_corrected)
    return AssociationMatrix(labels=tuple(names), values=values)


def select_features(matrix: AssociationMatrix, target: str, threshold: float) -> SelectionReport:
    """Rank the other columns by their V in ``target``'s row of ``matrix`` and
    keep those with V >= threshold. Ties keep matrix order (the sort is
    stable). MissingColumn if ``target`` is not one of the matrix's labels."""
    if target not in matrix.labels:
        raise MissingColumn(target)
    row = matrix.values[matrix.labels.index(target)]
    scored = [(name, float(v)) for name, v in zip(matrix.labels, row) if name != target]
    ranked = tuple(sorted(scored, key=lambda item: -item[1]))
    selected = tuple(name for name, v in ranked if v >= threshold)
    return SelectionReport(threshold=float(threshold), ranked=ranked, selected=selected)
