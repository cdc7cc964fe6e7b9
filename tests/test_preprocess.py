import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpred import (
    FeatureMatrix,
    assemble,
    fit_one_hot,
    fit_standardizer,
    load_feature_matrix,
    save_feature_matrix,
    stratified_split,
)
from sevpred.dataset import ColumnKind, SchemaSpec, Table
from sevpred.errors import DataError, DimensionMismatch, EmptyInput, UnknownColumn
from sevpred.preprocess import (
    OneHotCodec,
    Standardizer,
    load_preprocessor,
    load_splits,
    save_preprocessor,
    save_splits,
    stratified_allocate,
)
from tests.conftest import traced_peak


def table_from(numeric=None, categorical=None, boolean=None, target=None):
    columns = {}
    schema_cols = []
    n = None
    for name, values in (numeric or {}).items():
        schema_cols.append((name, ColumnKind.NUMERIC))
        columns[name] = np.asarray(values, dtype=np.float64)
        n = len(values)
    for name, values in (categorical or {}).items():
        schema_cols.append((name, ColumnKind.CATEGORICAL))
        columns[name] = np.asarray(values, dtype=object)
        n = len(values)
    for name, values in (boolean or {}).items():
        schema_cols.append((name, ColumnKind.BOOLEAN))
        columns[name] = np.asarray(values, dtype=object)
        n = len(values)
    target = target if target is not None else [1] * n
    schema_cols.append(("y", ColumnKind.TARGET))
    columns["y"] = np.asarray(target, dtype=np.int64)
    schema = SchemaSpec(tuple(schema_cols), max(2, int(max(target))))
    missing = {name: np.zeros(len(columns[name]), dtype=bool) for name in columns}
    return Table(schema, columns, missing, len(columns["y"]))


class TestOneHot:
    def test_categories_learned_in_order(self):
        table = table_from(categorical={"c": ["A", "B", "A"]})
        codec = fit_one_hot(table, ["c"])
        assert codec.categories["c"] == ("A", "B")
        assert codec.width("c") == 2

    def test_boolean_as_two_categories(self):
        table = table_from(boolean={"b": ["true", "false"]})
        codec = fit_one_hot(table, ["b"])
        assert codec.categories["b"] == ("true", "false")
        assert codec.width("b") == 2

    def test_fit_on_subset_excludes_absent_category(self):
        table = table_from(categorical={"c": ["A", "B", "C"]})
        codec = fit_one_hot(table, ["c"], rows=[0, 1])
        assert "C" not in codec.categories["c"]

    def test_category_absent_from_selected_rows_gets_no_column(self):
        table = table_from(categorical={"c": ["A", "B", "C", "B"]}).select_rows([1, 2, 3])
        codec = fit_one_hot(table, ["c"])
        assert codec.categories["c"] == ("B", "C")
        assert assemble(table, codec, fit_standardizer(table, [])).column_labels == ("c=B", "c=C")

    def test_known_category_unit_vector(self):
        table = table_from(categorical={"c": ["A", "B"]})
        codec = fit_one_hot(table, ["c"])
        fm = assemble(table_from(categorical={"c": ["B"]}), codec, Standardizer({}))
        assert fm.values.tolist() == [[0.0, 1.0]]
        assert np.count_nonzero(fm.codes < 0) == 0

    def test_unseen_category_zero_vector(self):
        table = table_from(categorical={"c": ["A", "B"]})
        codec = fit_one_hot(table, ["c"])
        fm = assemble(table_from(categorical={"c": ["C", "A"]}), codec, Standardizer({}))
        assert fm.values.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert np.count_nonzero(fm.codes < 0) == 1

    def test_at_most_one_hot_per_block(self, small_table):
        codec = fit_one_hot(small_table, ["cat_0", "cat_1"])
        block = assemble(small_table, codec, Standardizer({}), ["cat_0", "cat_1"]).values
        w0 = codec.width("cat_0")
        assert (block[:, :w0].sum(axis=1) <= 1).all()
        assert (block[:, w0:].sum(axis=1) <= 1).all()

    def test_unknown_column(self, small_table):
        with pytest.raises(UnknownColumn):
            fit_one_hot(small_table, ["nope"])
        with pytest.raises(UnknownColumn):
            fit_one_hot(small_table, ["num_0"])  # numeric is not one-hot material


def reference_one_hot(categories, values):
    """Per-cell loop the one-hot blocks of ``assemble`` must reproduce."""
    index = {c: i for i, c in enumerate(categories)}
    block = np.zeros((len(values), len(categories)))
    unseen = 0
    for r, value in enumerate(values):
        j = index.get(str(value))
        if j is None:
            unseen += 1
        else:
            block[r, j] = 1.0
    return block, unseen


# a tiny alphabet, so repeats, integers whose str() equals a text ("1"), and
# categories that differ only by a trailing NUL all occur
cell_values = st.one_of(st.text(alphabet="a1\x00", max_size=2), st.integers(0, 2))


class TestOneHotMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(cell_values, min_size=1, max_size=40),
        new_values=st.lists(cell_values, min_size=1, max_size=40),
        data=st.data(),
    )
    def test_transform_matches_per_cell_loop(self, values, new_values, data):
        rows = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1, unique=True))
        codec = fit_one_hot(table_from(categorical={"c": values}), ["c"], rows=rows)
        fitted = np.asarray(values, dtype=object)[np.asarray(rows)]
        assert codec.categories["c"] == tuple(dict.fromkeys(str(v) for v in fitted))
        for cells in (values, new_values):
            fm = assemble(table_from(categorical={"c": cells}), codec, Standardizer({}))
            ref_block, ref_unseen = reference_one_hot(codec.categories["c"], cells)
            np.testing.assert_array_equal(fm.values, ref_block)
            assert np.count_nonzero(fm.codes < 0) == ref_unseen


class TestStandardizer:
    def test_negative_std_rejected(self):
        with pytest.raises(DataError):
            Standardizer({"x": (0.0, -1.0)})

    def test_hand_computed_population_std(self):
        table = table_from(numeric={"x": [1.0, 2.0, 3.0]})
        standardizer = fit_standardizer(table, ["x"])
        mean, std = standardizer.moments["x"]
        assert mean == pytest.approx(2.0)
        assert std == pytest.approx(0.8165, abs=1e-4)
        out = assemble(table, OneHotCodec({}), standardizer).values
        np.testing.assert_allclose(out[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_constant_column_zeros(self):
        table = table_from(numeric={"x": [5.0, 5.0]})
        standardizer = fit_standardizer(table, ["x"])
        out = assemble(table, OneHotCodec({}), standardizer).values
        np.testing.assert_array_equal(out, [[0.0], [0.0]])

    def test_fitting_data_has_zero_mean(self, small_table):
        standardizer = fit_standardizer(small_table, ["num_0", "num_1"])
        out = assemble(small_table, OneHotCodec({}), standardizer).values
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)

    def test_unknown_column(self, small_table):
        with pytest.raises(UnknownColumn):
            fit_standardizer(small_table, ["cat_0"])


class TestAssemble:
    def test_width_arithmetic(self):
        table = table_from(
            numeric={"x": [1.0, 2.0, 3.0]},
            categorical={"c": ["A", "B", "C"]},
        )
        fm = assemble(table, fit_one_hot(table, ["c"]), fit_standardizer(table, ["x"]))
        assert fm.d == 4
        assert fm.column_labels == ("x", "c=A", "c=B", "c=C")

    def test_empty_categorical_selection(self):
        table = table_from(numeric={"x": [1.0, 2.0], "z": [0.0, 1.0]})
        fm = assemble(table, fit_one_hot(table, []), fit_standardizer(table, ["x", "z"]))
        assert fm.d == 2

    def test_schema_order_is_deterministic(self, small_table):
        codec = fit_one_hot(small_table, ["cat_1", "cat_0"])
        standardizer = fit_standardizer(small_table, ["num_2", "num_0"])
        fm = assemble(small_table, codec, standardizer)
        # schema order: num_0, num_2, then cat blocks in schema order
        assert fm.column_labels[0] == "num_0"
        assert fm.column_labels[1] == "num_2"
        assert fm.column_labels[2].startswith("cat_0=")

    def test_no_nan_inf(self, small_table):
        codec = fit_one_hot(small_table, ["cat_0", "cat_1"])
        standardizer = fit_standardizer(small_table, ["num_0", "num_1", "num_2"])
        fm = assemble(small_table, codec, standardizer)
        assert np.isfinite(fm.values).all()

    def test_unfitted_column_rejected(self, small_table):
        codec = fit_one_hot(small_table, ["cat_0"])
        standardizer = fit_standardizer(small_table, ["num_0"])
        with pytest.raises(DimensionMismatch):
            assemble(small_table, codec, standardizer, ["num_0", "cat_1"])

    def test_column_of_another_kind_rejected(self, small_table):
        codec = fit_one_hot(small_table, ["cat_0"])
        standardizer = fit_standardizer(small_table, ["num_0"])
        for bad_codec, bad_standardizer in [
            (OneHotCodec({"num_1": ("1.0",)}), standardizer),
            (OneHotCodec({"severity": ("1",)}), standardizer),
            (codec, Standardizer({"cat_1": (0.0, 1.0)})),
        ]:
            with pytest.raises(UnknownColumn):
                assemble(small_table, bad_codec, bad_standardizer)

    def test_no_leakage_refit_on_train_reproduces(self, small_table):
        split = stratified_split(small_table.target, seed=3)
        cats, nums = ["cat_0", "cat_1"], ["num_0", "num_1", "num_2"]
        codec = fit_one_hot(small_table, cats, rows=split.train)
        standardizer = fit_standardizer(small_table, nums, rows=split.train)
        train_only = small_table.select_rows(split.train)
        codec2 = fit_one_hot(train_only, cats)
        standardizer2 = fit_standardizer(train_only, nums)
        assert codec == codec2
        assert standardizer == standardizer2
        fm1 = assemble(small_table, codec, standardizer)
        fm2 = assemble(small_table, codec2, standardizer2)
        np.testing.assert_array_equal(fm1.values, fm2.values)


class TestMemoryBudget:
    """The prep path holds the feature matrix once: ``assemble`` writes every
    column into one array, a save writes that array's own bytes and a load
    reads the file into one array. The slack over 1x is the finiteness mask
    (1/8 of the matrix) and per-column index arrays."""

    @pytest.fixture
    def matrix(self):
        rng = np.random.default_rng(0)
        n = 3000
        table = table_from(
            numeric={f"x{j}": rng.normal(size=n) for j in range(6)},
            categorical={f"c{j}": [f"v{v}" for v in rng.integers(0, 90, size=n)] for j in range(3)},
        )
        codec = fit_one_hot(table, ["c0", "c1", "c2"])
        standardizer = fit_standardizer(table, [f"x{j}" for j in range(6)])
        return table, codec, standardizer

    def test_assemble(self, matrix):
        table, codec, standardizer = matrix
        fm = assemble(table, codec, standardizer)
        assert fm.d > 250
        assert traced_peak(lambda: assemble(table, codec, standardizer)) <= 1.3 * fm.values.nbytes

    def test_save_feature_matrix(self, matrix, tmp_path):
        fm = assemble(*matrix)
        path = tmp_path / "f.fmx"
        assert traced_peak(lambda: save_feature_matrix(path, fm)) <= 0.1 * fm.values.nbytes
        np.testing.assert_array_equal(load_feature_matrix(path).values, fm.values)

    def test_load_feature_matrix(self, matrix, tmp_path):
        fm = assemble(*matrix)
        path = tmp_path / "f.fmx"
        save_feature_matrix(path, fm)
        assert traced_peak(lambda: load_feature_matrix(path)) <= 1.3 * fm.values.nbytes
        back = load_feature_matrix(path)
        np.testing.assert_array_equal(back.values, fm.values)
        assert back.values.flags.writeable


def reference_dense(table, codec, standardizer, column_order):
    """The design matrix built cell by cell: standardized numeric columns
    (+0.0 for a zero-variance one) and indicator blocks, side by side."""
    blocks = []
    for name in column_order:
        if name in standardizer.moments:
            mean, std = standardizer.moments[name]
            column = np.zeros(table.n_rows)
            if std > 0:
                column = (table.columns[name] - mean) / std
            blocks.append(column[:, None])
        else:
            cats = codec.categories[name]
            block = np.zeros((table.n_rows, len(cats)))
            for r, label in enumerate(table.labels[name][table.columns[name]].tolist()):
                if label in cats:
                    block[r, cats.index(label)] = 1.0
            blocks.append(block)
    return np.hstack(blocks)


def interleaved_table(kinds, cells):
    """A table whose schema interleaves the columns as ``kinds`` orders them."""
    schema = SchemaSpec(tuple((f"c{j}", kind) for j, kind in enumerate(kinds)) + (("y", ColumnKind.TARGET),), 2)
    n = len(cells[0])
    columns = {f"c{j}": np.asarray(col, dtype=np.float64 if kind == ColumnKind.NUMERIC else object)
               for j, (kind, col) in enumerate(zip(kinds, cells))}
    columns["y"] = np.ones(n, dtype=np.int64)
    return Table(schema, columns, {name: np.zeros(n, dtype=bool) for name in columns}, n)


@st.composite
def fitted_tables(draw):
    """Column kinds in random interleaved order, a fit table, the rows its
    encoders are fitted on, a second table of new cells (unseen categories
    and other values for a zero-variance column) and a column order."""
    kinds = draw(st.lists(st.sampled_from([ColumnKind.NUMERIC, ColumnKind.CATEGORICAL]), min_size=1, max_size=6))
    n, n_new = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    tables = []
    for rows in (n, n_new):
        cells = []
        for kind in kinds:
            if kind == ColumnKind.NUMERIC:
                cells.append(draw(st.lists(st.sampled_from([-2.5, 0.0, 1.0, 3.25, 1e6]), min_size=rows, max_size=rows)))
            else:
                cells.append(draw(st.lists(st.sampled_from("abcde"), min_size=rows, max_size=rows)))
        tables.append(interleaved_table(kinds, cells))
    fit_rows = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    order = draw(st.permutations([f"c{j}" for j in range(len(kinds))]))
    return kinds, tables, fit_rows, order


class TestCompactMatchesDense:
    """``assemble`` keeps one-hot blocks as codes; its dense ``values``, and
    those of its save/load round trip, are bit-identical to the cell-by-cell
    reference, on the fitted table and on a new one as ``predict`` sees."""

    @settings(max_examples=150, deadline=None)
    @given(case=fitted_tables(), zero_variance=st.booleans())
    def test_values_and_round_trip_bit_identical(self, tmp_path_factory, case, zero_variance):
        kinds, (table, new_table), fit_rows, order = case
        numeric = [f"c{j}" for j, kind in enumerate(kinds) if kind == ColumnKind.NUMERIC]
        categorical = [f"c{j}" for j, kind in enumerate(kinds) if kind == ColumnKind.CATEGORICAL]
        codec = fit_one_hot(table, categorical, rows=fit_rows)
        standardizer = fit_standardizer(table, numeric, rows=fit_rows)
        if zero_variance and numeric:
            standardizer = Standardizer({**standardizer.moments, numeric[0]: (1.0, 0.0)})
        path = tmp_path_factory.getbasetemp() / "equivalence.fmx"
        for t in (table, new_table):
            fm = assemble(t, codec, standardizer, order)
            expected = reference_dense(t, codec, standardizer, order)
            assert fm.codes.shape[1] == len(categorical)
            assert fm.values.shape == expected.shape
            assert fm.values.tobytes() == expected.tobytes()
            save_feature_matrix(path, fm)
            back = load_feature_matrix(path)
            # a matrix without one-hot blocks is saved dense: one numeric run
            assert back.column_labels == fm.column_labels
            assert back.blocks == (fm.blocks if categorical else (("numeric", fm.d),))
            assert back.values.tobytes() == expected.tobytes()


class TestCompactMemory:
    """At the paper's shape (2 numeric columns, then one-hot blocks of 2, 800,
    260 and 150 categories and 13 booleans: d = 1240) assembling and saving
    hold the numeric block and the codes, never the n x d matrix."""

    def test_assemble_and_save_peak(self, tmp_path):
        rng = np.random.default_rng(4)
        n = 4000
        cardinalities = [2, 800, 260, 150] + [2] * 13
        table = table_from(
            numeric={f"x{j}": rng.normal(size=n) for j in range(2)},
            categorical={f"c{j}": [f"v{v}" for v in rng.permutation(np.arange(n) % k)]
                         for j, k in enumerate(cardinalities)},
        )
        codec = fit_one_hot(table, [f"c{j}" for j in range(len(cardinalities))])
        standardizer = fit_standardizer(table, ["x0", "x1"])
        path = tmp_path / "f.fmx"
        peak = traced_peak(lambda: save_feature_matrix(path, assemble(table, codec, standardizer)))
        fm = load_feature_matrix(path)
        assert fm.d == 1240
        assert peak < 0.1 * fm.n * fm.d * 8
        np.testing.assert_array_equal(fm.values, assemble(table, codec, standardizer).values)


class TestStratifiedSplit:
    def test_exact_arithmetic_balanced(self):
        targets = np.array([1] * 50 + [2] * 50)
        split = stratified_split(targets, seed=1)
        assert len(split.train) == 60 and len(split.val) == 20 and len(split.test) == 20
        for part in (split.train, split.val, split.test):
            counts = np.bincount(targets[part], minlength=3)[1:]
            assert counts[0] == counts[1]

    def test_deterministic(self):
        targets = np.array([1, 2, 2, 1, 2, 1, 2, 2, 1, 2] * 10)
        a = stratified_split(targets, seed=42)
        b = stratified_split(targets, seed=42)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.test, b.test)

    def test_histograms_within_one_row(self):
        rng = np.random.default_rng(0)
        targets = rng.choice([1, 2, 3, 4], size=1000, p=[0.003, 0.71, 0.272, 0.015])
        targets[:4] = [1, 2, 3, 4]  # every class present
        split = stratified_split(targets, seed=7)
        counts = np.bincount(targets, minlength=5)[1:]
        for part, ratio in ((split.train, 0.6), (split.val, 0.2), (split.test, 0.2)):
            part_counts = np.bincount(targets[part], minlength=5)[1:]
            for c in range(4):
                assert abs(part_counts[c] - counts[c] * ratio) < 1.0 + 1e-9

    def test_disjoint_exhaustive(self):
        rng = np.random.default_rng(3)
        targets = rng.integers(1, 5, size=257)
        split = stratified_split(targets, seed=11)
        merged = np.concatenate([split.train, split.val, split.test])
        assert len(merged) == 257
        assert len(np.unique(merged)) == 257

    def test_small_class_present_everywhere(self):
        targets = np.array([1] * 3 + [2] * 97)
        split = stratified_split(targets, seed=2)
        for part in (split.train, split.val, split.test):
            assert (targets[part] == 1).sum() >= 1

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            stratified_split(np.array([]), seed=0)

    def test_bad_ratios(self):
        with pytest.raises(DataError):
            stratified_split(np.array([1, 2]), ratios=(0.5, 0.4, 0.2), seed=0)
        with pytest.raises(DataError, match="exactly three ratios"):
            stratified_split(np.array([1, 2]), ratios=(0.5, 0.5), seed=0)

    @given(st.integers(0, 2**32 - 1), st.integers(20, 300))
    @settings(max_examples=30, deadline=None)
    def test_property_disjoint_exhaustive(self, seed, n):
        rng = np.random.default_rng(seed)
        targets = rng.integers(1, 5, size=n)
        parts = stratified_allocate(targets, (0.6, 0.2, 0.2), seed)
        merged = np.concatenate(parts)
        assert len(merged) == n
        assert len(np.unique(merged)) == n


class TestFileFormats:
    def test_feature_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        fm = FeatureMatrix(rng.normal(size=(7, 3)), ("a", "b", "c"))
        path = tmp_path / "m.fmx"
        save_feature_matrix(path, fm)
        back = load_feature_matrix(path)
        np.testing.assert_array_equal(back.values, fm.values)
        assert back.column_labels == fm.column_labels

    def test_fmx_manifest_is_json_line(self, tmp_path):
        import json

        fm = FeatureMatrix(np.zeros((2, 2)), ("a", "b"))
        path = tmp_path / "m.fmx"
        save_feature_matrix(path, fm)
        with open(path, "rb") as fh:
            manifest = json.loads(fh.readline())
            blob = fh.read()
        assert manifest["n"] == 2 and manifest["d"] == 2
        assert manifest["byte_order"] == "little"
        assert len(blob) == 2 * 2 * 8

    def test_splits_round_trip(self, tmp_path):
        split = stratified_split(np.array([1, 2] * 20), seed=5)
        path = tmp_path / "splits.json"
        save_splits(path, split)
        back = load_splits(path)
        np.testing.assert_array_equal(back.train, split.train)
        np.testing.assert_array_equal(back.test, split.test)
        assert back.seed == split.seed

    def test_preprocessor_round_trip(self, tmp_path, small_table):
        codec = fit_one_hot(small_table, ["cat_0"])
        standardizer = fit_standardizer(small_table, ["num_0"])
        path = tmp_path / "prep.json"
        save_preprocessor(path, codec, standardizer, ["num_0", "cat_0"])
        codec2, standardizer2, order = load_preprocessor(path)
        assert codec2 == codec
        assert standardizer2 == standardizer
        assert order == ["num_0", "cat_0"]
