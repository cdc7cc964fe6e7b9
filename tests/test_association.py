from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpred import (
    ColumnKind,
    ContingencyTable,
    SyntheticSpec,
    association_matrix,
    bin_numeric,
    build_contingency,
    chi_square,
    cramers_v,
    generate_synthetic,
    ingest_csv,
    select_features,
    write_csv,
)
from sevpred.dataset import SchemaSpec, Table
from sevpred.errors import DataError, LengthMismatch, MissingColumn


# -- independent oracles -------------------------------------------------------

def quantile_oracle(values, q):
    """Sort-based linear-interpolation quantile, written independently."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return s[lo] * (1 - frac) + s[hi] * frac


def bin_oracle(values, n_bins):
    edges = sorted({quantile_oracle(values, i / n_bins) for i in range(1, n_bins)})
    raw = [sum(1 for e in edges if e < v) for v in values]
    used = sorted(set(raw))
    relabel = {b: i for i, b in enumerate(used)}
    return [relabel[b] for b in raw]


def chi_square_oracle(counts):
    """Cell-by-cell summation with explicit loops."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    total = 0.0
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            expected = counts[i].sum() * counts[:, j].sum() / n
            if expected > 0:
                total += (counts[i, j] - expected) ** 2 / expected
    return total


def cramers_v_oracle(counts):
    counts = np.asarray(counts, dtype=float)
    r, c = counts.shape
    if min(r, c) <= 1:
        return 0.0
    return min(1.0, np.sqrt(chi_square_oracle(counts) / (counts.sum() * (min(r, c) - 1))))


def make_table(counts):
    counts = np.asarray(counts)
    return ContingencyTable(
        counts,
        tuple(f"r{i}" for i in range(counts.shape[0])),
        tuple(f"c{j}" for j in range(counts.shape[1])),
    )


@st.composite
def coded_tables(draw):
    """An imputed table of code columns: one whose codes miss some labels,
    one single-level column over several labels, one free categorical, a
    tied numeric column and a target that lacks at least one class."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2, 5))
    classes = draw(st.lists(st.integers(1, k), min_size=1, max_size=k - 1, unique=True))
    columns = {"severity": np.array(draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n)))}
    labels = {}
    for name, n_labels, n_used in (("sparse", 6, 3), ("single", 4, 1), ("free", 5, 5)):
        used = draw(st.lists(st.integers(0, n_labels - 1), min_size=1, max_size=n_used, unique=True))
        columns[name] = np.array(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)),
                                 dtype=np.int64)
        labels[name] = np.array([f"{name}{i}" for i in range(n_labels)], dtype=object)
    columns["num"] = np.array(draw(st.lists(st.sampled_from([-1.5, 0.0, 2.0, 7.25]),
                                            min_size=n, max_size=n)), dtype=np.float64)
    kinds = [(name, ColumnKind.CATEGORICAL) for name in labels]
    schema = SchemaSpec((*kinds, ("num", ColumnKind.NUMERIC), ("severity", ColumnKind.TARGET)), k)
    missing = {name: np.zeros(n, dtype=bool) for name in columns}
    return Table(schema, columns, missing, n, labels=labels)


class TestBinNumeric:
    def test_median_split(self):
        assert bin_numeric(np.arange(1, 11), 2).tolist() == [0] * 5 + [1] * 5

    def test_constant_column_single_category(self):
        assert len(set(bin_numeric(np.array([5.0, 5.0, 5.0]), 4))) == 1

    def test_matches_sort_based_oracle(self):
        values = [3, 1, 4, 1, 5, 9, 2, 6]
        result = bin_numeric(np.asarray(values, dtype=float), 4)
        assert result.tolist() == bin_oracle(values, 4)
        # frozen from the oracle at build time
        assert result.tolist() == [1, 0, 2, 0, 2, 3, 1, 3]

    def test_random_columns_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            values = rng.normal(size=rng.integers(5, 60))
            n_bins = int(rng.integers(2, 8))
            assert bin_numeric(values, n_bins).tolist() == bin_oracle(values.tolist(), n_bins)

    def test_ties_go_low(self):
        # edge at 2.0; the tied value must land in the lower bin
        values = np.array([1.0, 2.0, 2.0, 3.0])
        bins = bin_numeric(values, 2)
        assert bins[1] == bins[0] or bins[1] < bins[3]

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            bin_numeric(np.array([]), 2)
        with pytest.raises(DataError):
            bin_numeric(np.array([1.0]), 1)


class TestNonFiniteValues:
    """A NaN or infinite value has no quantile: binning it is a DataError,
    where NaN once put every row in bin 0 and so gave V = 0 in every pair."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bin_numeric_rejects(self, bad):
        with pytest.raises(DataError, match="non-finite value .* at row 1"):
            bin_numeric([1.0, bad, 2.0, 3.0], 2)

    def test_unflagged_nan_in_a_table_is_a_data_error(self):
        table = generate_synthetic(SyntheticSpec(200, (0.5, 0.5), 2, 1, seed=3))
        values = table.columns["num_1"].copy()
        values[17] = np.nan  # its missing mask still says observed
        table = replace(table, columns={**table.columns, "num_1": values})
        assert not table.has_missing()
        with pytest.raises(DataError, match="non-finite"):
            association_matrix(table, n_bins=4)


class TestContingency:
    def test_counting(self):
        ct = build_contingency(["x", "x", "y"], ["p", "q", "p"])
        assert ct.counts.tolist() == [[1, 1], [1, 0]]
        assert ct.row_labels == ("x", "y")
        assert ct.col_labels == ("p", "q")

    def test_identity_pattern(self):
        ct = build_contingency(["x", "y"], ["x", "y"])
        assert ct.counts.tolist() == [[1, 0], [0, 1]]

    def test_conservation(self):
        table = generate_synthetic(SyntheticSpec(1000, (0.25, 0.25, 0.25, 0.25), 0, 2, seed=1))
        ct = build_contingency(table.columns["cat_0"], table.columns["cat_1"])
        assert ct.counts.sum() == 1000

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_contingency(["a"], ["b", "c"])

    def test_first_appearance_order(self):
        ct = build_contingency(["z", "a", "z", "m"], ["1", "1", "2", "3"])
        assert ct.row_labels == ("z", "a", "m")


class TestChiSquare:
    def test_perfect_independence(self):
        assert chi_square(make_table([[5, 5], [5, 5]])) == 0.0

    def test_hand_value(self):
        assert chi_square(make_table([[10, 20], [20, 10]])) == pytest.approx(20 / 3, abs=1e-9)

    def test_random_tables_match_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            counts = rng.integers(0, 40, size=(3, 4))
            if counts.sum() == 0:
                continue
            assert chi_square(make_table(counts)) == pytest.approx(
                chi_square_oracle(counts), abs=1e-10
            )


class TestCramersV:
    def test_perfect_association(self):
        assert cramers_v(make_table([[10, 0], [0, 10]])) == pytest.approx(1.0, abs=1e-12)

    def test_independence(self):
        assert cramers_v(make_table([[5, 5], [5, 5]])) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        expected = np.sqrt((20 / 3) / 60)
        assert cramers_v(make_table([[10, 20], [20, 10]])) == pytest.approx(expected, abs=1e-6)

    def test_single_row_or_column_is_zero(self):
        assert cramers_v(make_table([[3, 4, 5]])) == 0.0
        assert cramers_v(make_table([[3], [4]])) == 0.0

    def test_bias_corrected_shrinks(self):
        table = make_table([[12, 7], [5, 9]])
        assert cramers_v(table, bias_corrected=True) <= cramers_v(table)

    def test_bias_corrected_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(rng.integers(2, 5), rng.integers(2, 5)))
            if counts.sum() < 2:
                continue
            v = cramers_v(make_table(counts), bias_corrected=True)
            assert 0.0 <= v <= 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permutation_and_transpose_invariance(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 25, size=(rng.integers(2, 5), rng.integers(2, 5)))
        if counts.sum() == 0:
            counts[0, 0] = 1
        v = cramers_v(make_table(counts))
        rows = rng.permutation(counts.shape[0])
        cols = rng.permutation(counts.shape[1])
        assert cramers_v(make_table(counts[np.ix_(rows, cols)])) == pytest.approx(v, abs=1e-12)
        assert cramers_v(make_table(counts.T)) == pytest.approx(v, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_count_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 25, size=(3, 3))
        if counts.sum() == 0:
            counts[1, 1] = 2
        v = cramers_v(make_table(counts))
        assert cramers_v(make_table(counts * scale)) == pytest.approx(v, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_range_and_zero_iff_chi2_zero(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 20, size=(rng.integers(1, 5), rng.integers(1, 5)))
        if counts.sum() == 0:
            counts[0, 0] = 3
        table = make_table(counts)
        v = cramers_v(table)
        assert 0.0 <= v <= 1.0
        if min(counts.shape) > 1:
            assert (v == 0.0) == (chi_square(table) == pytest.approx(0.0, abs=1e-15))


class TestAssociationMatrix:
    def duplicated_column_table(self):
        table = generate_synthetic(SyntheticSpec(300, (0.3, 0.4, 0.3), 1, 2, seed=9))
        return replace(table, columns={**table.columns, "cat_1": table.columns["cat_0"].copy()},
                       labels={**table.labels, "cat_1": table.labels["cat_0"]})

    def test_duplicate_column_pair_is_one(self):
        table = self.duplicated_column_table()
        matrix = association_matrix(table, n_bins=4)
        i = matrix.labels.index("cat_0")
        j = matrix.labels.index("cat_1")
        assert matrix.values[i, j] == pytest.approx(1.0, abs=1e-12)

    def test_row_subset_matches_reingested_rows(self, small_table, tmp_path):
        # rows without cat_0's first category, so the subset no longer has it
        cat = small_table.columns["cat_0"]
        subset = small_table.select_rows(np.flatnonzero(cat != cat[0]))
        write_csv(subset, tmp_path / "subset.csv")
        back = ingest_csv(tmp_path / "subset.csv", small_table.schema)
        np.testing.assert_array_equal(association_matrix(subset, n_bins=5).values,
                                      association_matrix(back, n_bins=5).values)
        target = small_table.schema.target
        assert (select_features(association_matrix(subset, n_bins=5), target, 0.1)
                == select_features(association_matrix(back, n_bins=5), target, 0.1))

    def test_symmetric_and_unit_diagonal(self, small_table):
        matrix = association_matrix(small_table, n_bins=5)
        np.testing.assert_array_equal(matrix.values, matrix.values.T)
        np.testing.assert_allclose(np.diag(matrix.values), 1.0)
        assert ((matrix.values >= 0) & (matrix.values <= 1)).all()

    def test_independent_uniform_columns_near_zero(self):
        rng = np.random.default_rng(17)
        n = 100_000
        a = rng.integers(0, 6, size=n).astype(str)
        b = rng.integers(0, 6, size=n).astype(str)
        assert cramers_v(build_contingency(a, b)) < 0.05

    @pytest.mark.parametrize("bias_corrected", [False, True])
    def test_entries_match_pairwise_calls(self, small_table, bias_corrected):
        matrix = association_matrix(small_table, n_bins=5, bias_corrected=bias_corrected)
        schema = small_table.schema
        cells = {name: bin_numeric(small_table.columns[name], 5)
                 if schema.kind_of(name) == ColumnKind.NUMERIC else small_table.columns[name]
                 for name in matrix.labels}
        for i, a in enumerate(matrix.labels):
            for j, b in enumerate(matrix.labels):
                if i != j:
                    table = build_contingency(cells[a], cells[b])
                    assert matrix.values[i, j] == cramers_v(table, bias_corrected=bias_corrected)

    def test_builds_no_contingency_table(self, small_table, monkeypatch):
        def refuse(self):
            raise AssertionError("a ContingencyTable was built")

        monkeypatch.setattr(ContingencyTable, "__post_init__", refuse)
        association_matrix(small_table, n_bins=5)
        with pytest.raises(AssertionError):
            build_contingency(["a"], ["b"])  # the patch is live

    @given(coded_tables(), st.integers(2, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_entries_match_pairwise_calls_on_random_tables(self, table, n_bins, data):
        """Codes of unused labels, single-level columns and a target that
        lacks a class: every entry is the pairwise V of the cells, bit for
        bit, and recoding a column leaves the matrix bytes as they are."""
        schema = table.schema
        cells = {name: bin_numeric(table.columns[name], n_bins) if kind == ColumnKind.NUMERIC
                 else table.labels[name][table.columns[name]] if name in table.labels
                 else table.columns[name] for name, kind in schema.columns}
        # the same cells under a permutation of every categorical column's labels
        orders = {name: np.array(data.draw(st.permutations(range(len(labels)))))
                  for name, labels in table.labels.items()}
        recoded = {name: np.argsort(order)[table.columns[name]] for name, order in orders.items()}
        relabelled = {name: table.labels[name][order] for name, order in orders.items()}
        other = Table(schema, {**table.columns, **recoded}, table.missing, table.n_rows,
                      labels=relabelled)
        for name in relabelled:
            assert (relabelled[name][recoded[name]] == cells[name]).all()
        for bias_corrected in (False, True):
            matrix = association_matrix(table, n_bins=n_bins, bias_corrected=bias_corrected)
            for i, a in enumerate(matrix.labels):
                for j, b in enumerate(matrix.labels):
                    if i != j:
                        v = cramers_v(build_contingency(cells[a], cells[b]), bias_corrected=bias_corrected)
                        assert matrix.values[i, j] == v
            assert (association_matrix(other, n_bins=n_bins, bias_corrected=bias_corrected).values.tobytes()
                    == matrix.values.tobytes())


class TestSelectFeatures:
    def target_determined_table(self):
        table = generate_synthetic(SyntheticSpec(2000, (0.25, 0.3, 0.25, 0.2), 0, 1, seed=31))
        # one column fully determined by the target, one independent
        labels = {n: v for n, v in table.labels.items() if n != "cat_0"}
        cells = np.array([f"t{v}" for v in table.target], dtype=object)
        return replace(table, columns={**table.columns, "cat_0": cells}, labels=labels)

    def test_absent_target_is_missing_column(self, small_table):
        matrix = association_matrix(small_table, n_bins=4)
        with pytest.raises(MissingColumn, match="'absent'"):
            select_features(matrix, "absent", 0.2)

    def test_threshold_zero_selects_all(self, small_table):
        report = select_features(association_matrix(small_table, n_bins=4), "severity", 0.0)
        assert set(report.selected) == set(small_table.schema.feature_names())

    def test_threshold_one_selects_none(self, small_table):
        report = select_features(association_matrix(small_table, n_bins=4), "severity", 1.0)
        assert report.selected == ()

    def test_determined_column_selected(self):
        table = self.target_determined_table()
        rng = np.random.default_rng(5)
        table.columns["num_extra"] = rng.normal(size=table.n_rows)
        # splice an independent numeric column into the schema
        from sevpred.dataset import SchemaSpec, Table

        cols = (("cat_0", ColumnKind.CATEGORICAL), ("num_extra", ColumnKind.NUMERIC),
                ("severity", ColumnKind.TARGET))
        schema = SchemaSpec(cols, 4)
        table2 = Table(
            schema,
            {n: table.columns[n] for n, _ in cols},
            {n: np.zeros(table.n_rows, dtype=bool) for n, _ in cols},
            table.n_rows,
        )
        report = select_features(association_matrix(table2, n_bins=6), "severity", 0.2)
        assert report.selected == ("cat_0",)
        scores = dict(report.ranked)
        assert scores["cat_0"] > 0.99
        assert scores["num_extra"] < 0.1

    def test_ranked_descending(self, small_table):
        report = select_features(association_matrix(small_table, n_bins=4), "severity", 0.5)
        values = [v for _, v in report.ranked]
        assert values == sorted(values, reverse=True)
