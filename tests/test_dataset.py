import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sevpred
from sevpred import cli, dataset
from sevpred import (
    ColumnKind,
    SchemaSpec,
    Standardizer,
    SyntheticSpec,
    Table,
    assemble,
    class_distribution,
    fit_one_hot,
    generate_synthetic,
    impute,
    ingest_csv,
    summarize,
    write_csv,
)
from sevpred.artifacts import json_fits
from sevpred.dataset import (
    factorize,
    largest_remainder_counts,
    load_schema,
    load_table,
    save_table,
    schema_to_dict,
)
from sevpred.errors import (
    AllMissingColumn,
    DataError,
    EmptyFile,
    InvalidProportions,
    MissingColumn,
    TargetOutOfRange,
)
from sevpred.rng import SEEDS
from tests.conftest import traced_peak

SCHEMA = SchemaSpec(
    columns=(
        ("Temperature", ColumnKind.NUMERIC),
        ("City", ColumnKind.CATEGORICAL),
        ("Signal", ColumnKind.BOOLEAN),
        ("Severity", ColumnKind.TARGET),
    ),
    target_cardinality=4,
)


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            SchemaSpec(
                columns=(("a", ColumnKind.NUMERIC), ("a", ColumnKind.TARGET)),
                target_cardinality=2,
            )

    def test_exactly_one_target(self):
        with pytest.raises(DataError):
            SchemaSpec(columns=(("a", ColumnKind.NUMERIC),), target_cardinality=2)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        import json

        path.write_text(json.dumps(schema_to_dict(SCHEMA)), encoding="utf-8")
        assert load_schema(path) == SCHEMA


class TestIngest:
    def test_direct_parse(self, tmp_path):
        path = write(
            tmp_path,
            "Temperature,City,Signal,Severity\n70.5,Austin,true,2\n65,Dallas,false,2\n80,Austin,true,3\n",
        )
        table = ingest_csv(path, SCHEMA)
        assert table.n_rows == 3
        assert table.target.tolist() == [2, 2, 3]
        assert table.labels["City"][table.columns["City"]].tolist() == ["Austin", "Dallas", "Austin"]

    def test_blank_target_row_dropped(self, tmp_path):
        path = write(
            tmp_path,
            "Temperature,City,Signal,Severity\n70,Austin,true,2\n65,Dallas,false,\n",
        )
        table = ingest_csv(path, SCHEMA)
        assert table.n_rows == 1
        assert table.n_dropped == 1

    def test_unparseable_numeric_marked_missing(self, tmp_path):
        path = write(
            tmp_path,
            "Temperature,City,Signal,Severity\nabc,Austin,true,2\n",
        )
        table = ingest_csv(path, SCHEMA)
        assert table.n_rows == 1
        assert table.missing["Temperature"][0]

    def test_utf8_bom_ingests_like_plain_file(self, tmp_path):
        path = write(tmp_path, "Temperature,City,Signal,Severity\n70.5,Austin,true,2\n,,false,3\n")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, table = ingest_csv(path, SCHEMA), ingest_csv(bom, SCHEMA)
        assert (table.n_rows, table.n_dropped) == (plain.n_rows, plain.n_dropped)
        for name in SCHEMA.names:
            np.testing.assert_array_equal(table.columns[name], plain.columns[name])
            np.testing.assert_array_equal(table.missing[name], plain.missing[name])
        assert table.labels.keys() == plain.labels.keys()
        for name in plain.labels:
            assert table.labels[name].tolist() == plain.labels[name].tolist()

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "Temperature,City,Severity\n70,Austin,2\n")
        with pytest.raises(MissingColumn):
            ingest_csv(path, SCHEMA)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptyFile):
            ingest_csv(path, SCHEMA)

    def test_target_out_of_range(self, tmp_path):
        path = write(tmp_path, "Temperature,City,Signal,Severity\n70,Austin,true,5\n")
        with pytest.raises(TargetOutOfRange):
            ingest_csv(path, SCHEMA)

    def test_extra_columns_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "ID,Temperature,City,Signal,Severity\nx1,70,Austin,true,2\n",
        )
        assert ingest_csv(path, SCHEMA).n_rows == 1

    def test_target_optional_mode(self, tmp_path):
        path = write(tmp_path, "Temperature,City,Signal\n70,Austin,true\n")
        table = ingest_csv(path, SCHEMA, require_target=False)
        assert table.n_rows == 1
        assert table.target.tolist() == [1]

    def test_target_optional_mode_ignores_present_target(self, tmp_path):
        path = write(tmp_path, "Temperature,City,Signal,Severity\n70,Austin,true,\n"
                     "71,Dallas,false,n/a\n72,Austin,true,9\n73,Waco,true,2\n")
        table = ingest_csv(path, SCHEMA, require_target=False)
        assert (table.n_rows, table.n_dropped) == (4, 0)
        assert table.target.tolist() == [1, 1, 1, 1]
        assert table.columns["Temperature"].tolist() == [70, 71, 72, 73]

    def test_round_trip_through_write_csv(self, tmp_path, small_table):
        imputed = impute(small_table)
        path = tmp_path / "round.csv"
        write_csv(imputed, path)
        back = ingest_csv(path, imputed.schema)
        assert back.n_rows == imputed.n_rows
        for name, kind in imputed.schema.columns:
            if kind == ColumnKind.NUMERIC:
                np.testing.assert_array_equal(back.columns[name], imputed.columns[name])
            else:
                assert back.columns[name].tolist() == imputed.columns[name].tolist()


def reference_ingest(path, schema, require_target=True):
    """Per-cell reading of the rules ``ingest_csv`` applies column by column:
    (columns, missing masks, n_rows, n_dropped) as lists."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    header = [h.strip() for h in header]
    target, k = schema.target, schema.target_cardinality
    labeled = require_target
    columns = {name: [] for name in schema.names}
    missing = {name: [] for name in schema.names}
    n_dropped = 0
    for i, row in enumerate(rows):
        if not row:
            continue

        def cell(name):
            j = header.index(name)
            return row[j].strip() if j < len(row) else ""

        label = 1
        if labeled:
            try:
                value = float(cell(target))
            except ValueError:
                n_dropped += 1
                continue
            if not value.is_integer() or not 1 <= value <= k:
                raise TargetOutOfRange(i, cell(target), k)
            label = int(value)
        for name, kind in schema.columns:
            if kind == ColumnKind.TARGET:
                columns[name].append(label)
                missing[name].append(False)
            elif kind == ColumnKind.NUMERIC:
                try:
                    x = float(cell(name))
                except ValueError:
                    x = math.nan
                columns[name].append(x if math.isfinite(x) else math.nan)
                missing[name].append(not math.isfinite(x))
            else:
                columns[name].append(cell(name))
                missing[name].append(not cell(name))
    return columns, missing, len(columns[target]), n_dropped


NUMERIC_CELLS = ["", " ", "1", " 2.5 ", "-0", "3e2", "nan", "inf", "-inf", "1e309", "1_000",
                 "abc", "\t4\u00a0", "0x10", "--1"]
TEXT_CELLS = ["", " ", "a", " a ", "A", "a,b", '"q"', "Unknown", "x\ny", "\u00e9"]
TARGET_CELLS = ["", " ", "1", "2", " 3 ", "4.0", "4", "x", "2_0", "nan", "5", "0", "1.5"]


class TestIngestProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        order=st.permutations(SCHEMA.names),
        labeled=st.booleans(),
        rows=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from(TARGET_CELLS),
                st.sampled_from(NUMERIC_CELLS),
                st.sampled_from(TEXT_CELLS),
                st.sampled_from(TEXT_CELLS),
            ),
            max_size=12,
        ),
    )
    def test_matches_per_cell_reference(self, order, labeled, rows):
        header = [name for name in order if labeled or name != "Severity"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for length, severity, temperature, city, signal in rows:
                    cells = {"Severity": severity, "Temperature": temperature,
                             "City": city, "Signal": signal}
                    writer.writerow([cells[name] for name in header][:length])
            try:
                expected = reference_ingest(path, SCHEMA, require_target=labeled)
            except TargetOutOfRange as exc:
                with pytest.raises(TargetOutOfRange) as raised:
                    ingest_csv(path, SCHEMA, require_target=labeled)
                assert raised.value.row == exc.row
                return
            table = ingest_csv(path, SCHEMA, require_target=labeled)
        columns, missing, n_rows, n_dropped = expected
        assert (table.n_rows, table.n_dropped) == (n_rows, n_dropped)
        for name, kind in SCHEMA.columns:
            dtype = {ColumnKind.NUMERIC: np.float64, ColumnKind.TARGET: np.int64}.get(kind, object)
            cells = table.labels[name][table.columns[name]] if name in table.labels else table.columns[name]
            assert cells.dtype == dtype
            if kind == ColumnKind.NUMERIC:
                np.testing.assert_array_equal(cells, np.array(columns[name]))
            else:
                assert cells.tolist() == columns[name]
            assert table.missing[name].dtype == bool
            assert table.missing[name].tolist() == missing[name]


# rows that put empty lines, short rows, dropped targets and out-of-range
# targets at the edges of chunks of 1, 2 and 3 rows
EDGE_ROWS = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 2, 4]),
        st.sampled_from(["", "x", "2", " 3 ", "5"]),
        st.sampled_from(NUMERIC_CELLS),
        st.sampled_from(TEXT_CELLS),
        st.sampled_from(TEXT_CELLS),
    ),
    max_size=12,
)


class TestIngestChunkEdges:
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(order=st.permutations(SCHEMA.names), labeled=st.booleans(), rows=EDGE_ROWS)
    def test_matches_per_cell_reference(self, chunk, order, labeled, rows):
        """TestIngestProperty's comparison, TargetOutOfRange.row included,
        with ingest reading the file in chunks of ``chunk`` rows."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "INGEST_CHUNK", chunk)
            TestIngestProperty.test_matches_per_cell_reference.hypothesis.inner_test(
                TestIngestProperty(), order, labeled, rows)


ACCIDENTS_SCHEMA = Path(sevpred.__file__).parent / "schemas" / "us_accidents.json"


def write_accidents_csv(path, n):
    """``n`` accidents-shaped rows under the shipped schema, 2% of the
    feature cells blank."""
    schema = load_schema(ACCIDENTS_SCHEMA)
    rng = np.random.default_rng(12)
    cells = {}
    for name, kind in schema.columns:
        if kind == ColumnKind.TARGET:
            column = rng.integers(1, 5, n).astype(str)
        elif kind == ColumnKind.NUMERIC:
            column = np.char.mod("%.6f", rng.normal(35.0, 5.0, n))
        elif kind == ColumnKind.CATEGORICAL:
            column = np.char.mod(f"{name}_%03d", rng.integers(0, 400, n))
        else:
            column = np.where(rng.random(n) < 0.05, "True", "False")
        cells[name] = column.astype(object)
        if kind != ColumnKind.TARGET:
            cells[name][rng.random(n) < 0.02] = ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(cells))
        writer.writerows(zip(*cells.values()))
    return path


class TestIngestMemory:
    """Ingest holds one chunk of cells besides the arrays it returns: on 20k
    accidents-shaped rows its traced peak stays under 3x the bytes of the
    table's codes, values and masks, where reading the whole file first
    peaked near 8x."""

    def test_peak_bounded_by_table_arrays(self, tmp_path):
        schema = load_schema(ACCIDENTS_SCHEMA)
        path = write_accidents_csv(tmp_path / "accidents.csv", 20_000)
        table = ingest_csv(path, schema)
        assert table.n_rows == 20_000
        nbytes = sum(a.nbytes for a in [*table.columns.values(), *table.missing.values()])
        assert traced_peak(lambda: ingest_csv(path, schema)) < 3 * nbytes

    def test_cache_hit_peak_at_most_ingest(self, tmp_path, monkeypatch):
        """A CLI stage that reads its table from table.cache peaks no higher
        than parsing the CSV: the CSV is hashed in blocks, never held."""
        path = write_accidents_csv(tmp_path / "accidents.csv", 20_000)
        settings = {"data": {"csv": str(path), "schema": str(ACCIDENTS_SCHEMA)}, "work_dir": str(tmp_path / "out")}
        cli._load_table(settings, cli.WorkDir(settings["work_dir"]), imputed=False)
        ingest_peak = traced_peak(lambda: ingest_csv(path, load_schema(ACCIDENTS_SCHEMA)))

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit parsed the CSV")

        monkeypatch.setattr(cli, "ingest_csv", refuse)
        assert traced_peak(lambda: cli._load_table(settings, cli.WorkDir(settings["work_dir"]), imputed=False)) \
            <= ingest_peak


class TestTableFile:
    """``load_table`` gives back what ``save_table`` saved from
    ``ingest_csv`` bit for bit, and refuses another key."""

    @settings(max_examples=100, deadline=None)
    @given(
        labeled=st.booleans(),
        rows=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from(["", "x", "1", " 3 ", "4.0"]),
                st.sampled_from(NUMERIC_CELLS),
                st.sampled_from(TEXT_CELLS + ["a\0", "\U0001f600"]),
                st.sampled_from(TEXT_CELLS),
            ),
            max_size=12,
        ),
    )
    def test_round_trip(self, labeled, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(SCHEMA.names)
                for length, severity, temperature, city, signal in rows:
                    writer.writerow([temperature, city, signal, severity][:length])
            table = ingest_csv(path, SCHEMA, require_target=labeled)
            key = {"csv": "any", "require_target": labeled}
            save_table(Path(tmp) / "table.cache", table, key)
            back = load_table(Path(tmp) / "table.cache", SCHEMA, key)
            with pytest.raises(DataError, match="key"):
                load_table(Path(tmp) / "table.cache", SCHEMA, {**key, "csv": "other"})
        assert (back.n_rows, back.n_dropped) == (table.n_rows, table.n_dropped)
        for name in SCHEMA.names:
            for got, want in ((back.columns[name], table.columns[name]), (back.missing[name], table.missing[name])):
                assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name
        assert back.labels.keys() == table.labels.keys()
        for name, labels in table.labels.items():
            assert (back.labels[name].dtype, back.labels[name].tolist()) == (labels.dtype, labels.tolist())


class TestImpute:
    def make_table(self, temp, temp_missing, city, city_missing):
        n = len(temp)
        return Table(
            schema=SCHEMA,
            columns={
                "Temperature": np.asarray(temp, dtype=np.float64),
                "City": np.asarray(city, dtype=object),
                "Signal": np.asarray(["true"] * n, dtype=object),
                "Severity": np.full(n, 2, dtype=np.int64),
            },
            missing={
                "Temperature": np.asarray(temp_missing),
                "City": np.asarray(city_missing),
                "Signal": np.zeros(n, dtype=bool),
                "Severity": np.zeros(n, dtype=bool),
            },
            n_rows=n,
        )

    def test_numeric_median(self):
        table = self.make_table([1, np.nan, 3], [False, True, False], ["A"] * 3, [False] * 3)
        assert impute(table).columns["Temperature"].tolist() == [1, 2, 3]

    def test_categorical_unknown(self):
        table = self.make_table([1, 2], [False, False], ["A", ""], [False, True])
        imputed = impute(table)
        assert imputed.labels["City"][imputed.columns["City"]].tolist() == ["A", "Unknown"]

    def test_fully_observed_identity(self):
        table = self.make_table([1, 2], [False, False], ["A", "B"], [False, False])
        out = impute(table)
        assert not out.has_missing()
        np.testing.assert_array_equal(out.columns["Temperature"], table.columns["Temperature"])

    def test_literal_unknown_and_blank_share_one_category(self):
        table = self.make_table([1, 2, 3], [False] * 3, ["Unknown", "", "A"], [False, True, False])
        imputed = impute(table)
        codec = fit_one_hot(imputed, ["City"])
        assert codec.categories["City"] == ("Unknown", "A")
        fm = assemble(imputed, codec, Standardizer({}))
        assert fm.values.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert np.count_nonzero(fm.codes < 0) == 0

    def test_all_missing_numeric_errors(self):
        table = self.make_table([np.nan, np.nan], [True, True], ["A", "B"], [False, False])
        with pytest.raises(AllMissingColumn):
            impute(table)

    def test_ingest_then_impute_clears_mask(self, tmp_path):
        path = write(
            tmp_path,
            "Temperature,City,Signal,Severity\n,N/A-city,,2\n70,Austin,true,3\n",
        )
        table = impute(ingest_csv(path, SCHEMA))
        assert not table.has_missing()
        assert all(len(table.columns[n]) == table.n_rows for n in table.schema.names)


class TestTable:
    def test_build_leaves_caller_columns_raw(self):
        city = np.asarray(["A", "B", "A"], dtype=object)
        columns = {
            "Temperature": np.zeros(3),
            "City": city,
            "Signal": np.asarray(["t"] * 3, dtype=object),
            "Severity": np.full(3, 2, dtype=np.int64),
        }
        Table(SCHEMA, columns, {n: np.zeros(3, dtype=bool) for n in SCHEMA.names}, 3)
        assert columns["City"] is city
        assert city.tolist() == ["A", "B", "A"]

    @pytest.mark.parametrize("target", [
        np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.5, 3.0]), np.array([1, 2, 3], dtype=np.uint64),
        np.array([True, True, True]), np.array([1, 2, 3], dtype=object),
    ])
    def test_non_integer_target_is_a_data_error(self, target):
        """Labels must be int64-castable integers: a float target once
        passed the 1..K check and ended class_distribution and
        association_matrix in a numpy TypeError."""
        columns = {
            "Temperature": np.zeros(3),
            "City": np.asarray(["A", "B", "A"], dtype=object),
            "Signal": np.asarray(["t"] * 3, dtype=object),
            "Severity": target,
        }
        with pytest.raises(DataError, match="integer labels"):
            Table(SCHEMA, columns, {n: np.zeros(3, dtype=bool) for n in SCHEMA.names}, 3)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint32])
    def test_integer_targets_count(self, dtype):
        columns = {
            "Temperature": np.zeros(3),
            "City": np.asarray(["A", "B", "A"], dtype=object),
            "Signal": np.asarray(["t"] * 3, dtype=object),
            "Severity": np.array([1, 2, 2], dtype=dtype),
        }
        table = Table(SCHEMA, columns, {n: np.zeros(3, dtype=bool) for n in SCHEMA.names}, 3)
        np.testing.assert_allclose(class_distribution(table), [1 / 3, 2 / 3, 0, 0])


class TestClassDistribution:
    def test_counting(self):
        table = Table(
            schema=SCHEMA,
            columns={
                "Temperature": np.zeros(4),
                "City": np.asarray(["A"] * 4, dtype=object),
                "Signal": np.asarray(["t"] * 4, dtype=object),
                "Severity": np.asarray([1, 2, 2, 2], dtype=np.int64),
            },
            missing={n: np.zeros(4, dtype=bool) for n in SCHEMA.names},
            n_rows=4,
        )
        np.testing.assert_allclose(class_distribution(table), [0.25, 0.75, 0, 0])

    def test_degenerate_single_class(self):
        table = Table(
            schema=SCHEMA,
            columns={
                "Temperature": np.zeros(3),
                "City": np.asarray(["A"] * 3, dtype=object),
                "Signal": np.asarray(["t"] * 3, dtype=object),
                "Severity": np.full(3, 3, dtype=np.int64),
            },
            missing={n: np.zeros(3, dtype=bool) for n in SCHEMA.names},
            n_rows=3,
        )
        np.testing.assert_allclose(class_distribution(table), [0, 0, 1, 0])

    def test_sums_to_one(self, small_table):
        assert abs(class_distribution(small_table).sum() - 1.0) < 1e-12


class TestSynthetic:
    PROPS = (0.003, 0.71, 0.272, 0.015)

    def test_largest_remainder_counts(self):
        counts = largest_remainder_counts(1000, np.asarray(self.PROPS))
        assert counts.tolist() == [3, 710, 272, 15]

    def test_class_counts_exact(self):
        spec = SyntheticSpec(1000, self.PROPS, 2, 1, seed=7)
        table = generate_synthetic(spec)
        counts = np.bincount(table.target, minlength=5)[1:]
        assert counts.tolist() == [3, 710, 272, 15]

    def test_deterministic(self):
        spec = SyntheticSpec(500, self.PROPS, 3, 2, seed=7)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for name in a.schema.names:
            np.testing.assert_array_equal(a.columns[name], b.columns[name])

    def test_seed_changes_output(self):
        base = dict(n_rows=500, class_proportions=self.PROPS, n_numeric=3, n_categorical=2)
        a = generate_synthetic(SyntheticSpec(**base, seed=7))
        b = generate_synthetic(SyntheticSpec(**base, seed=8))
        assert any(
            not np.array_equal(a.columns[n], b.columns[n]) for n in a.schema.names
        )

    def test_invalid_proportions(self):
        with pytest.raises(InvalidProportions):
            SyntheticSpec(100, (0.5, 0.6), 1, 1)
        with pytest.raises(InvalidProportions):
            SyntheticSpec(100, (1.0, 0.0), 1, 1)


class TestSummarize:
    def test_summary_shape(self, small_table):
        stats = summarize(small_table)
        assert stats["n_rows"] == small_table.n_rows
        assert set(stats["columns"]) == set(small_table.schema.names)
        num = stats["columns"]["num_0"]
        assert num["min"] <= num["median"] <= num["max"]
        cat = stats["columns"]["cat_0"]
        assert len(cat["top_categories"]) <= 10
        assert abs(sum(stats["class_distribution"]) - 1.0) < 1e-12

    def test_nul_suffixed_categories_stay_apart(self):
        # one-hot and association keep "a" and "a\x00" apart; so must stats.json
        schema = SchemaSpec((("City", ColumnKind.CATEGORICAL), ("Severity", ColumnKind.TARGET)), 2)
        table = Table(
            schema,
            {"City": np.array(["a", "a\x00", "a"], dtype=object), "Severity": np.ones(3, dtype=np.int64)},
            {"City": np.zeros(3, dtype=bool), "Severity": np.zeros(3, dtype=bool)},
            3,
        )
        assert summarize(table)["columns"]["City"]["top_categories"] == [["a", 2], ["a\x00", 1]]


class TestFactorize:
    def test_first_appearance_order_and_round_trip(self):
        values = np.array(["z", "a", "z", "m", "a"], dtype=object)
        codes, labels = factorize(values)
        assert codes.dtype == np.int64
        assert codes.tolist() == [0, 1, 0, 2, 1]
        assert labels.tolist() == ["z", "a", "m"]
        assert (labels[codes] == values).all()

    def test_integer_codes(self):
        codes, labels = factorize(np.array([3, 1, 3, 0]))
        assert codes.tolist() == [0, 1, 0, 2]
        assert labels.tolist() == [3, 1, 0]

    def test_empty_input(self):
        codes, labels = factorize(np.array([], dtype=object))
        assert codes.dtype == np.int64
        assert len(codes) == 0 and len(labels) == 0


class TestJsonFits:
    @pytest.mark.parametrize("value, shape", [
        (3, int), (3, float), (2.5, float), (True, bool), ("a", str),
        ([], [int]), ([1, 2], [int]), ({"a": ["x"], "b": []}, {str: [str]}),
        ({"mean": 0, "std": 1.5, "extra": None}, {"mean": float, "std": float}),
        (2**63 - 1, int), (-2**63, int), (2**63 - 1, float), (1.7e308, float),
        (None, (str, type(None))), ("a", (str, type(None))),
        (-2**63, SEEDS), (2**64 - 1, SEEDS), ({"seed": 2**63}, {"seed": SEEDS}),
    ])
    def test_fits(self, value, shape):
        assert json_fits(value, shape)

    @pytest.mark.parametrize("value, shape", [
        (True, int), (False, float), (2.5, int), ("1", int), (None, int),
        ("ab", [str]), ([1, "x"], [int]), ([[1]], [int]), ([], {str: [str]}),
        ({"a": 1}, {str: [str]}), ({"mean": 0}, {"mean": float, "std": float}),
        (2**63, int), (-2**63 - 1, int), (10**400, int), (10**400, float),
        (float("nan"), float), (float("inf"), float), (float("-inf"), float),
        ([0.5, float("nan")], [float]), ({"mean": float("inf"), "std": 1.0}, {"mean": float, "std": float}),
        (1, (str, type(None))), (True, (str, type(None))),
        (-2**63 - 1, SEEDS), (2**64, SEEDS), (True, SEEDS), (1.0, SEEDS), ("1", SEEDS), ([1], SEEDS),
    ])
    def test_does_not_fit(self, value, shape):
        assert not json_fits(value, shape)
