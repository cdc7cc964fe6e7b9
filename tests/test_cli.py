import collections
import contextlib
import copy
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpred import Dense, Dropout, FeatureMatrix, NetworkSpec, cli, encode, init_params, load_model, save_model
from sevpred.cli import DEFAULTS, main
from sevpred.preprocess import load_feature_matrix, save_feature_matrix
from sevpred.rng import derive_seed
from tests.conftest import make_small_table, strip_meta, write_workspace


def run(csv_workspace, *args):
    return main(["--config", str(csv_workspace / "config.json"), *args])


def run_cmd(csv_workspace, command, *args):
    return main([command, "--config", str(csv_workspace / "config.json"), *args])


def read_json(csv_workspace, name):
    with open(csv_workspace / "out" / name, encoding="utf-8") as fh:
        return json.load(fh)


class TestStats:
    def test_writes_summary(self, csv_workspace):
        assert run_cmd(csv_workspace, "stats") == 0
        stats = read_json(csv_workspace, "stats.json")
        assert stats["n_rows"] == 400
        assert "severity" in stats["columns"]
        assert "meta" in stats
        num = stats["columns"]["num_0"]
        assert {"kind", "missing_rate", "min", "median", "max"} <= set(num)

    @pytest.mark.parametrize("text", [
        '{"columns": [',
        '{"target_cardinality": 4}',
        '{"columns": [{"name": "severity", "kind": "weird"}], "target_cardinality": 4}',
        '{"columns": [{"name": "severity", "kind": "target"}], "target_cardinality": "x"}',
    ], ids=["unparseable", "no-columns", "unknown-kind", "string-cardinality"])
    def test_malformed_schema_exit_2(self, csv_workspace, capsys, text):
        (csv_workspace / "schema.json").write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert "schema.json" in err["error"]["message"]

    # one field a byte over the csv module's default limit; ingest must not
    # raise that limit, which is process-wide
    @pytest.mark.parametrize("extra", [b"1,k\xff\n", b"x" * 131073 + b"\n"],
                             ids=["not-utf8", "oversized-field"])
    def test_unreadable_csv_exit_2(self, csv_workspace, capsys, extra):
        path = csv_workspace / "data.csv"
        path.write_bytes(path.read_bytes() + extra)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert "data.csv" in err["error"]["message"]
        assert csv.field_size_limit() == 131072

    def test_header_checked_before_rows(self, csv_workspace, capsys):
        """A header without a schema column is reported before a row
        further down that is not UTF-8."""
        path = csv_workspace / "data.csv"
        header, rows = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header.replace(b"num_0", b"renamed") + b"\n" + rows * 4 + b"1,k\xff\n")
        assert len(rows) * 4 > 65536  # far past the first block a text read decodes
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "MissingColumn"

    def test_memory_error_exit_2(self, csv_workspace, capsys, monkeypatch):
        """An input or model too large for the machine ends in a JSON error."""
        def out_of_memory(table):
            raise MemoryError("Unable to allocate 40.0 GiB")

        monkeypatch.setattr("sevpred.cli.summarize", out_of_memory)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == {"type": "MemoryError", "message": "Unable to allocate 40.0 GiB", "stage": "stats"}


class TestAssociate:
    def test_matrix_csv_and_selection(self, csv_workspace):
        assert run_cmd(csv_workspace, "associate") == 0
        selection = read_json(csv_workspace, "selection.json")
        assert selection["threshold"] == 0.02
        assert [v for _, v in selection["ranked"]] == sorted(
            [v for _, v in selection["ranked"]], reverse=True
        )
        lines = (csv_workspace / "out" / "association_matrix.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == ""
        assert len(lines) == len(header)  # header + one row per label

    def test_each_column_categorized_once(self, csv_workspace, monkeypatch):
        import sevpred.association as association

        calls = []
        categorize = association._categorize

        def counted(table, name, n_bins):
            calls.append(name)
            return categorize(table, name, n_bins)

        monkeypatch.setattr(association, "_categorize", counted)
        assert run_cmd(csv_workspace, "associate") == 0
        schema = json.loads((csv_workspace / "schema.json").read_text(encoding="utf-8"))
        assert sorted(calls) == sorted(column["name"] for column in schema["columns"])

    def test_header_only_csv_exit_2(self, csv_workspace, capsys):
        """A CSV without rows is a DataError, not an all-zero matrix; with no
        numeric column in the schema, no binning can refuse it first."""
        schema = {"columns": [{"name": "cat_0", "kind": "categorical"},
                              {"name": "flag", "kind": "boolean"},
                              {"name": "severity", "kind": "target"}],
                  "target_cardinality": 4}
        (csv_workspace / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
        (csv_workspace / "data.csv").write_text("cat_0,flag,severity\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cmd(csv_workspace, "associate") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert not (csv_workspace / "out" / "association_matrix.csv").exists()


class TestPreprocessTrainChain:
    def test_full_chain_artifacts(self, csv_workspace):
        for cmd in ("associate", "preprocess", "train-ae", "train"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        out = csv_workspace / "out"
        for name in ("features.fmx", "splits.json", "preprocessor.json", "targets.json",
                     "autoencoder.model", "ae_history.json", "latent.fmx",
                     "classifier.model", "history.json", "test_metrics.json"):
            assert (out / name).exists(), name

        from sevpred.preprocess import load_feature_matrix

        latent = load_feature_matrix(out / "latent.fmx")
        assert latent.d == 4  # configured latent width

    def test_train_ae_rewrites_the_latent_code(self, csv_workspace, tmp_path):
        """A second train-ae leaves the code of the autoencoder it saved,
        not the first run's."""
        for cmd in ("associate", "preprocess", "train-ae"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        out = csv_workspace / "out"
        first = (out / "latent.fmx").read_bytes()
        assert run_cmd(csv_workspace, "train-ae", "--seed", "99") == 0
        spec, params, _ = load_model(out / "autoencoder.model")
        save_feature_matrix(tmp_path / "latent.fmx", encode(spec, params, load_feature_matrix(out / "features.fmx")))
        assert (out / "latent.fmx").read_bytes() == (tmp_path / "latent.fmx").read_bytes() != first

    def test_preprocess_removes_the_models_of_the_old_split(self, csv_workspace, capsys):
        """A new split and standardizer make every model and the latent code
        stale: later stages ask for the stage that remakes them."""
        for cmd in ("associate", "preprocess", "train-ae", "train"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        assert run_cmd(csv_workspace, "train", "--set", "use_encoder=true") == 0
        assert run_cmd(csv_workspace, "preprocess", "--seed", "99") == 0
        out = csv_workspace / "out"
        for name in ("autoencoder.model", "latent.fmx", "classifier.model", "classifier_encoded.model"):
            assert not (out / name).exists(), name
        for args, hint in [
            (("train", "--set", "use_encoder=true"), "latent.fmx; run `sevpred train-ae`"),
            (("predict",), "classifier.model; run `sevpred train`"),
            (("predict", "--set", "use_encoder=true"), "autoencoder.model; run `sevpred train-ae`"),
        ]:
            capsys.readouterr()
            assert run_cmd(csv_workspace, *args) == 2, args
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["error"]["type"] == "DataError" and hint in err["error"]["message"], args

    def test_train_ae_removes_the_stale_encoded_classifier(self, csv_workspace, capsys):
        """The encoded classifier was fit on the old latent code, so a new
        autoencoder removes it and predict asks for train."""
        for cmd in ("associate", "preprocess", "train-ae"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        assert run_cmd(csv_workspace, "train", "--set", "use_encoder=true") == 0
        assert run_cmd(csv_workspace, "train-ae", "--seed", "99") == 0
        assert not (csv_workspace / "out" / "classifier_encoded.model").exists()
        capsys.readouterr()
        assert run_cmd(csv_workspace, "predict", "--set", "use_encoder=true") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert "classifier_encoded.model; run `sevpred train`" in err["error"]["message"]

    def test_encode_stage_is_gone(self, csv_workspace, capsys):
        capsys.readouterr()
        assert run_cmd(csv_workspace, "encode") == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "UsageError" and "'encode'" in err["error"]["message"]

    def test_preprocess_prints_summary_without_labels(self, csv_workspace, capsys):
        assert run_cmd(csv_workspace, "associate") == 0
        capsys.readouterr()
        assert run_cmd(csv_workspace, "preprocess") == 0
        printed = json.loads(capsys.readouterr().out)
        assert "labels" not in printed
        assert printed["n_rows"] == 400 and "split_sizes" in printed
        assert len(read_json(csv_workspace, "targets.json")["labels"]) == 400

    def test_truncated_features_exit_2(self, csv_workspace, capsys):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        fmx = csv_workspace / "out" / "features.fmx"
        data = fmx.read_bytes()
        fmx.write_bytes(data[: len(data) - 5])
        capsys.readouterr()
        assert run_cmd(csv_workspace, "train") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"

    # n * d still matches the data section where the edit allows it, so the
    # manifest check, not the length check, has to catch the edit
    @pytest.mark.parametrize("edit", [
        lambda m: {"labels": 5},
        lambda m: {"n": -m["n"], "d": -m["d"]},
        lambda m: {"d": float(m["d"])},
        lambda m: {"n": "2"},
        lambda m: {"dtype": "float32"},
        lambda m: {"byte_order": "big"},
    ], ids=["labels-int", "negative-shape", "float-d", "string-n", "float32-dtype", "big-endian"])
    def test_malformed_fmx_manifest_exit_2(self, csv_workspace, capsys, edit):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        fmx = csv_workspace / "out" / "features.fmx"
        head, blob = fmx.read_bytes().split(b"\n", 1)
        manifest = json.loads(head)
        manifest.update(edit(manifest))
        fmx.write_bytes(json.dumps(manifest).encode("utf-8") + b"\n" + blob)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "train") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert "features.fmx" in err["error"]["message"]
        assert "2222" not in err["error"]["message"]

    # the last code column is the last one-hot block's, and its last row the
    # blob's last four bytes
    @pytest.mark.parametrize("edit", [
        lambda m, blob: (m["blocks"][0].update(width=m["blocks"][0]["width"] + 1), blob),
        lambda m, blob: (m["blocks"][-1].update(kind="sparse"), blob),
        lambda m, blob: (m["blocks"][0].update(width=-1), m["blocks"][1].update(width=m["blocks"][1]["width"] + 2),
                         blob),
        lambda m, blob: (m, blob[:-4] + np.int32(m["blocks"][-1]["width"]).tobytes()),
        lambda m, blob: (m, blob[:-4] + np.int32(-2).tobytes()),
    ], ids=["widths-over-d", "unknown-kind", "negative-width", "code-at-width", "code-below-minus-1"])
    def test_malformed_compact_fmx_exit_2(self, csv_workspace, capsys, edit):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        fmx = csv_workspace / "out" / "features.fmx"
        head, blob = fmx.read_bytes().split(b"\n", 1)
        manifest = json.loads(head)
        assert manifest["format"] == "sevpred-fmx-2" and manifest["blocks"][-1]["kind"] == "one_hot"
        blob = edit(manifest, blob)[-1]
        fmx.write_bytes(json.dumps(manifest).encode("utf-8") + b"\n" + blob)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "train") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert "features.fmx" in err["error"]["message"]

    def test_repeated_selected_column_exit_2(self, csv_workspace, capsys):
        assert run_cmd(csv_workspace, "associate") == 0
        path = csv_workspace / "out" / "selection.json"
        payload = json.loads(path.read_text())
        payload["selected"] = ["num_0", "cat_0", "num_0"]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cmd(csv_workspace, "preprocess") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert "selection.json" in err["error"]["message"] and "'num_0'" in err["error"]["message"]
        assert not (csv_workspace / "out" / "targets.json").exists()

    @pytest.mark.parametrize("corrupt", [lambda b: b[: len(b) // 2], lambda b: b"[]", lambda b: b"{}"],
                             ids=["halved", "not-an-object", "no-fields"])
    @pytest.mark.parametrize("name, command", [
        ("selection.json", "preprocess"),
        ("splits.json", "train"),
        ("targets.json", "train"),
        ("preprocessor.json", "predict"),
    ])
    def test_corrupt_json_artifact_exit_2(self, csv_workspace, capsys, name, command, corrupt):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        path = csv_workspace / "out" / name
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        assert run_cmd(csv_workspace, command) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert name in err["error"]["message"]

    @pytest.mark.parametrize("name, field, value, command", [
        ("splits.json", "train", "x", "train"),
        ("splits.json", "seed", None, "train"),
        ("targets.json", "labels", ["x"], "train"),
        ("targets.json", "target_cardinality", 4.0, "train"),
        ("preprocessor.json", "one_hot", [], "predict"),
        ("preprocessor.json", "standardizer", {"x": {"mean": "0", "std": 1.0}}, "predict"),
        ("preprocessor.json", "column_order", [1], "predict"),
        ("selection.json", "selected", "x", "preprocess"),
        ("preprocessor.json", "one_hot",
         {"cat_0": ["k4", "k3", "k0", "k1", "k2"], "cat_1": ["k0", "k0", "k3", "k4", "k1"]}, "predict"),
        pytest.param("splits.json", "train", [10**400], "train", id="splits.json-train-401-digits"),
        pytest.param("targets.json", "labels", [10**400], "train", id="targets.json-labels-401-digits"),
        pytest.param("preprocessor.json", "standardizer",
                     {f"num_{i}": {"mean": 0.0, "std": -1.0 if i == 0 else 1.0} for i in range(3)},
                     "predict", id="preprocessor.json-standardizer-negative-std"),
        pytest.param("preprocessor.json", "standardizer",
                     {f"num_{i}": {"mean": float("nan") if i == 0 else 0.0, "std": 1.0} for i in range(3)},
                     "predict", id="preprocessor.json-standardizer-nan-mean"),
    ])
    def test_wrong_typed_json_field_exit_2(self, csv_workspace, capsys, name, field, value, command):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        path = csv_workspace / "out" / name
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cmd(csv_workspace, command) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert name in err["error"]["message"] and field in err["error"]["message"]

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("spec"),
        lambda m: m["spec"].pop("layers"),
        lambda m: m["spec"]["layers"].__setitem__(0, "dense"),
        lambda m: m["spec"]["layers"][0].pop("fan_out"),
        lambda m: m["spec"]["layers"][0].update(fan_in="4"),
        lambda m: m["spec"]["layers"][1].update(type="pool"),
        lambda m: m["spec"].update(l2_penalty=[]),
    ], ids=["no-spec", "no-layers", "entry-not-object", "entry-lacks-field",
            "field-wrong-type", "unknown-type", "l2-wrong-type"])
    def test_malformed_model_spec_exit_2(self, csv_workspace, capsys, edit):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        path = csv_workspace / "bad.model"
        spec = NetworkSpec((Dense(4, 3, "relu"), Dropout(0.2), Dense(3, 2, "softmax")))
        save_model(path, spec, init_params(spec))
        line, blob = path.read_bytes().split(b"\n", 1)
        manifest = json.loads(line)
        edit(manifest)
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + blob)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "predict", "--set", f"predict.model={path}") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert str(path) in err["error"]["message"]

    @pytest.mark.parametrize("command", ["train", "train-ae", "grid"])
    @pytest.mark.parametrize("index", [99999, -1])
    def test_split_index_out_of_range_exit_2(self, csv_workspace, capsys, command, index):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        path = csv_workspace / "out" / "splits.json"
        payload = json.loads(path.read_text())
        payload["train"][0] = index
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cmd(csv_workspace, command) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError"
        assert "splits.json" in err["error"]["message"]

    def test_preprocess_requires_selection(self, csv_workspace):
        assert run_cmd(csv_workspace, "preprocess") == 2

    @pytest.mark.parametrize("command, args, code", [
        ("train", [], 2), ("grid", [], 2), ("cv", [], 2), ("train-ae", [], 2),
        ("predict", ["--set", "data.csv=missing.csv"], 1),
    ])
    def test_failing_stage_leaves_no_work_dir(self, csv_workspace, command, args, code):
        """A stage's first write makes the work dir, so one that fails
        before it leaves none behind."""
        work = csv_workspace / "new" / "out"
        assert run_cmd(csv_workspace, command, "--work-dir", str(work), *args) == code
        assert not (csv_workspace / "new").exists()

    def test_missing_data_path_is_config_error(self, csv_workspace, capsys):
        code = main([
            "stats", "--config", str(csv_workspace / "config.json"),
            "--set", "data.csv=does_not_exist.csv",
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "ConfigError"

    def test_bad_threshold_rejected(self, csv_workspace):
        assert main([
            "associate", "--config", str(csv_workspace / "config.json"),
            "--set", "association.threshold=1.5",
        ]) == 1

    def test_unknown_command_usage_error(self, csv_workspace):
        assert main(["frobnicate"]) == 1


class TestGridCommand:
    def test_grid_report_rows(self, csv_workspace):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        assert run_cmd(csv_workspace, "grid") == 0
        report = read_json(csv_workspace, "grid_report.json")
        assert report["n_cells"] == 2 == len(report["ranked"])
        csv_lines = (csv_workspace / "out" / "grid_report.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + 2 cells


class TestCvCommand:
    def test_cv_report_shape(self, csv_workspace):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        assert run_cmd(csv_workspace, "cv") == 0
        report = read_json(csv_workspace, "cv_report.json")
        assert len(report["folds"]) == 3
        assert {"mean_ber", "std_ber", "mean_accuracy", "std_accuracy"} <= set(report)


class TestPredict:
    def test_predictions_reproduce_test_confusion(self, csv_workspace):
        for cmd in ("associate", "preprocess", "train", "predict"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        out = csv_workspace / "out"
        rows = (out / "predictions.csv").read_text().splitlines()[1:]
        preds = np.array([int(r.split(",")[1]) for r in rows])
        targets = read_json(csv_workspace, "targets.json")
        splits = read_json(csv_workspace, "splits.json")
        saved = read_json(csv_workspace, "test_metrics.json")["test"]["confusion"]
        labels = np.array(targets["labels"])
        test_idx = np.array(splits["test"])
        k = targets["target_cardinality"]
        cm = np.zeros((k, k), dtype=int)
        for t, p in zip(labels[test_idx], preds[test_idx]):
            cm[t - 1, p - 1] += 1
        assert cm.tolist() == saved

    def test_predict_without_target_column(self, csv_workspace, tmp_path):
        for cmd in ("associate", "preprocess", "train"):
            assert run_cmd(csv_workspace, cmd) == 0
        # strip the severity column from a copy of the data
        src = (csv_workspace / "data.csv").read_text().splitlines()
        header = src[0].split(",")
        keep = [i for i, name in enumerate(header) if name != "severity"]
        stripped = "\n".join(
            ",".join(line.split(",")[i] for i in keep) for line in src
        )
        unlabeled = tmp_path / "new_data.csv"
        unlabeled.write_text(stripped + "\n")
        code = run_cmd(csv_workspace, "predict", "--set", f"data.csv={unlabeled}")
        assert code == 0
        rows = (csv_workspace / "out" / "predictions.csv").read_text().splitlines()[1:]
        assert len(rows) == 400

    def test_target_column_is_ignored(self, csv_workspace, tmp_path):
        """Blank, unparseable and out-of-range targets neither drop a line
        nor stop predict: the predictions equal those without the column."""
        for cmd in ("associate", "preprocess", "train"):
            assert run_cmd(csv_workspace, cmd) == 0
        with open(csv_workspace / "data.csv", encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))[:11]
        t = header.index("severity")
        for i, text in ((1, ""), (4, "n/a"), (7, "9")):
            rows[i][t] = text
        predictions = []
        for name, keep in (("labeled.csv", header), ("unlabeled.csv", [n for n in header if n != "severity"])):
            with open(tmp_path / name, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([[row[header.index(n)] for n in keep] for row in [header, *rows]])
            assert run_cmd(csv_workspace, "predict", "--set", f"data.csv={tmp_path / name}") == 0, name
            predictions.append((csv_workspace / "out" / "predictions.csv").read_text())
        assert len(predictions[0].splitlines()) == 11
        assert predictions[0] == predictions[1]

    def test_model_must_be_a_k_class_classifier(self, csv_workspace, capsys):
        for cmd in ("associate", "preprocess", "train-ae"):
            assert run_cmd(csv_workspace, cmd) == 0
        model = csv_workspace / "out" / "autoencoder.model"
        capsys.readouterr()
        assert run_cmd(csv_workspace, "predict", "--set", f"predict.model={model}") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "DataError" and str(model) in err["error"]["message"]
        assert not (csv_workspace / "out" / "predictions.csv").exists()

    def test_missing_model_override_exit_2_names_it(self, csv_workspace, capsys):
        """An override is the user's path, not a work-dir artifact: no
        `sevpred train` hint, but the OSError naming the path."""
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        model = csv_workspace / "nowhere.model"
        capsys.readouterr()
        assert run_cmd(csv_workspace, "predict", "--set", f"predict.model={model}") == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "FileNotFoundError" and str(model) in err["error"]["message"]


def work_files(work: Path) -> dict:
    """Every file in a work dir, JSON as its text without "meta" (keys in
    their written order), the rest as bytes; lineage.json aside, since it
    hashes files whose "meta" holds wall-clock time."""
    return {p.name: json.dumps(strip_meta(json.loads(p.read_bytes()))) if p.suffix == ".json" else p.read_bytes()
            for p in sorted(work.iterdir()) if p.name != "lineage.json"}


@pytest.fixture
def counted(monkeypatch):
    """``counted(*names)``: a Counter of the calls the CLI makes from then on
    to each library function named."""
    counts = collections.Counter()

    def count(*names):
        for name in names:
            def wrapper(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        return counts

    return count


WORK = ("train_classifier", "train_autoencoder", "ingest_csv", "association_matrix")


class TestPipeline:
    def test_pipeline_and_idempotence(self, csv_workspace, capsys, counted):
        """A second pipeline finds every stage's lineage record holding: it
        trains, parses and computes nothing, rewrites no file, and prints
        what the first printed, marked skipped."""
        out = csv_workspace / "out"
        assert run_cmd(csv_workspace, "pipeline") == 0
        first, files = capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()}
        counts = counted(*WORK)
        assert run_cmd(csv_workspace, "pipeline") == 0
        second = json.loads(capsys.readouterr().out)
        assert [counts[name] for name in WORK] == [0, 0, 0, 0]
        assert json.dumps(strip_meta(second)) == json.dumps(strip_meta(json.loads(first)))
        assert second["meta"]["skipped"] is True
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files
        models = [row["model"] for row in second["comparison"]]
        assert models == ["encoder+dnn", "dnn"]

    def test_changed_folds_reruns_only_the_cvs(self, csv_workspace, capsys, counted):
        """After a cv.folds edit, pipeline trains only the two CVs' fold
        models and rewrites only their reports and its own; what it leaves
        equals a fresh work dir's, modulo "meta"."""
        out = csv_workspace / "out"
        assert run_cmd(csv_workspace, "pipeline") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        counts = counted(*WORK)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "pipeline", "--set", "cv.folds=2") == 0
        warm = strip_meta(json.loads(capsys.readouterr().out))
        assert counts == {"train_classifier": 2 * 2}
        rerun = {"cv_report.json", "cv_report.csv", "cv_report_encoded.json", "cv_report_encoded.csv",
                 "pipeline_report.json", "lineage.json"}
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert {n: b for n, b in after.items() if n not in rerun} == {n: b for n, b in before.items() if n not in rerun}
        assert all(after[name] != before[name] for name in rerun)
        fresh = csv_workspace / "fresh"
        assert run_cmd(csv_workspace, "pipeline", "--set", "cv.folds=2", "--work-dir", str(fresh)) == 0
        assert strip_meta(json.loads(capsys.readouterr().out)) == warm
        assert work_files(out) == work_files(fresh)

    def test_use_encoder_runs_the_pipeline_variant(self, csv_workspace):
        """One use_encoder switch picks the latent input for train, cv and
        predict; the stages run one by one write what pipeline writes."""
        for cmd in ("associate", "preprocess", "train-ae"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        for cmd in ("train", "cv", "predict"):
            assert run_cmd(csv_workspace, cmd, "--set", "use_encoder=true") == 0, cmd
        golden = TestGoldenTrainingArtifacts
        root, out = str(csv_workspace), csv_workspace / "out"
        for name in (n for n in golden.WRITES["pipeline"] if "_encoded" in n):
            digest = golden._digest((out / name).read_bytes(), name.endswith(".json"), root)
            assert digest == golden.DIGESTS[f"pipeline:{name}"], name
        rows = (out / "predictions.csv").read_text().splitlines()[1:]
        assert len(rows) == 400

    def test_no_class_weights_flag(self, csv_workspace):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        assert run_cmd(csv_workspace, "train", "--no-class-weights") == 0
        history = read_json(csv_workspace, "history.json")
        assert history["config"]["use_class_weights"] is False


@pytest.fixture
def ingests(monkeypatch):
    """The CSV paths of the calls the CLI makes to ``ingest_csv``."""
    calls = []
    ingest = cli.ingest_csv

    def counted(path, *args, **kwargs):
        calls.append(path)
        return ingest(path, *args, **kwargs)

    monkeypatch.setattr(cli, "ingest_csv", counted)
    return calls


class TestTableCache:
    """A labeled stage reads ``data.csv``'s table back from ``table.cache``
    while the CSV's bytes and the schema are unchanged; ``predict`` parses
    its CSV directly and leaves the cache alone."""

    def test_second_associate_does_not_ingest(self, csv_workspace, ingests):
        assert run_cmd(csv_workspace, "associate") == 0
        assert len(ingests) == 1
        assert run_cmd(csv_workspace, "associate") == 0
        assert len(ingests) == 1

    def test_pipeline_ingests_once(self, csv_workspace, ingests):
        assert run_cmd(csv_workspace, "pipeline") == 0
        assert len(ingests) == 1

    def test_warm_and_cold_runs_match(self, messy_workspace, capsys, ingests):
        """Deleting table.cache before every stage changes no other artifact
        and no stdout; kept, it spares every labeled ingest but the first."""
        out = messy_workspace / "out"
        runs, counts = {}, {}
        for warm in (False, True):
            ingests.clear()
            printed = {}
            for stage in ("stats", "associate", "preprocess", "train", "predict"):
                if not warm:
                    (out / "table.cache").unlink(missing_ok=True)
                capsys.readouterr()
                assert run_cmd(messy_workspace, stage) == 0, stage
                printed[stage] = strip_meta(json.loads(capsys.readouterr().out))
            files = {p.name: strip_meta(json.loads(p.read_bytes())) if p.suffix == ".json" else p.read_bytes()
                     for p in out.iterdir()}
            kept = files.pop("table.cache", None)
            # the record hashes files whose "meta" holds wall-clock time
            files.pop("lineage.json")
            runs[warm], counts[warm] = (printed, files), len(ingests)
            shutil.rmtree(out)
        assert runs[False] == runs[True]
        assert kept is not None  # of the warm run, the last
        # predict reads the CSV without its target, past the cache
        assert counts == {False: 4, True: 2}

    def test_predict_between_labeled_stages_keeps_the_cache(self, csv_workspace, ingests):
        """The labeled table survives predict: the chain parses the CSV once
        for the labeled stages and once for predict."""
        for cmd in ("associate", "preprocess", "train", "predict", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        assert len(ingests) == 2

    def test_predict_on_another_csv_leaves_the_cache(self, csv_workspace, tmp_path):
        for cmd in ("associate", "preprocess", "train"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        cache = csv_workspace / "out" / "table.cache"
        before = cache.read_bytes()
        copy_path = tmp_path / "copy.csv"
        shutil.copyfile(csv_workspace / "data.csv", copy_path)
        assert run_cmd(csv_workspace, "predict", "--set", f"data.csv={copy_path}") == 0
        assert cache.read_bytes() == before

    @pytest.mark.parametrize("edit", ["csv-cell", "schema-kind"])
    def test_changed_input_reingests(self, csv_workspace, capsys, ingests, edit):
        """A one-cell edit of the CSV that keeps its length, or a schema
        edit, re-ingests: stats prints what it prints in a fresh work dir."""
        assert run_cmd(csv_workspace, "stats") == 0
        if edit == "csv-cell":
            path = csv_workspace / "data.csv"
            text = path.read_text(encoding="utf-8")
            at = text.index("\n") + 1
            at = next(i for i in range(at, len(text)) if text[i].isdigit())
            path.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:], encoding="utf-8")
        else:
            path = csv_workspace / "schema.json"
            path.write_text(path.read_text(encoding="utf-8").replace('"categorical"', '"boolean"', 1),
                            encoding="utf-8")
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats") == 0
        assert len(ingests) == 2
        warm = strip_meta(json.loads(capsys.readouterr().out))
        assert run_cmd(csv_workspace, "stats", "--work-dir", str(csv_workspace / "fresh")) == 0
        assert warm == strip_meta(json.loads(capsys.readouterr().out))
        if edit == "schema-kind":
            assert warm["columns"]["cat_0"]["kind"] == "boolean"

    def test_predict_reingests_without_the_target(self, csv_workspace, ingests):
        """The labeled table drops a blank-target line; predict, which reads
        the CSV without its target, scores it."""
        path = csv_workspace / "data.csv"
        header, first, rest = path.read_text(encoding="utf-8").split("\n", 2)
        assert header.endswith(",severity")
        path.write_text(f"{header}\n{first.rsplit(',', 1)[0]},\n{rest}", encoding="utf-8")
        for cmd in ("associate", "preprocess", "train"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        assert len(ingests) == 1
        assert read_json(csv_workspace, "targets.json")["n_dropped_missing_target"] == 1
        assert run_cmd(csv_workspace, "predict") == 0
        assert len(ingests) == 2
        rows = (csv_workspace / "out" / "predictions.csv").read_text().splitlines()[1:]
        assert len(rows) == 400


@pytest.fixture
def matrices(monkeypatch):
    """The tables the CLI passes to ``association_matrix``."""
    calls = []
    compute = cli.association_matrix

    def counted(table, *args, **kwargs):
        calls.append(table)
        return compute(table, *args, **kwargs)

    monkeypatch.setattr(cli, "association_matrix", counted)
    return calls


def associate_outputs(root, capsys, *args):
    """What ``associate`` prints and writes (without "meta"), run in ``root``'s
    work dir or the one ``--work-dir`` in ``args`` names."""
    capsys.readouterr()
    assert run_cmd(root, "associate", *args) == 0
    printed = strip_meta(json.loads(capsys.readouterr().out))
    work = Path(args[args.index("--work-dir") + 1]) if "--work-dir" in args else root / "out"
    selection = strip_meta(json.loads((work / "selection.json").read_bytes()))
    return printed, selection, (work / "association_matrix.csv").read_bytes()


class TestAssociationCache:
    """``associate`` writes its artifacts from ``association.cache`` while
    the CSV's bytes, the schema, ``n_bins`` and ``bias_corrected`` are
    unchanged; the threshold is not part of the key."""

    def test_second_associate_computes_nothing(self, csv_workspace, capsys, ingests, matrices, monkeypatch):
        first = associate_outputs(csv_workspace, capsys)
        assert (len(matrices), len(ingests)) == (1, 1)

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit read the table")

        monkeypatch.setattr(cli, "_load_table", refuse)
        monkeypatch.setattr(cli, "impute", refuse)
        assert associate_outputs(csv_workspace, capsys) == first
        assert (len(matrices), len(ingests)) == (1, 1)

    def test_threshold_change_matches_fresh_dir(self, csv_workspace, capsys, matrices):
        associate_outputs(csv_workspace, capsys)
        warm = associate_outputs(csv_workspace, capsys, "--set", "association.threshold=0.1")
        assert len(matrices) == 1
        fresh = associate_outputs(csv_workspace, capsys, "--set", "association.threshold=0.1",
                                  "--work-dir", str(csv_workspace / "fresh"))
        assert warm == fresh
        assert warm[1]["threshold"] == 0.1

    @pytest.mark.parametrize("edit", ["n_bins", "bias_corrected", "csv-cell", "schema-kind"])
    def test_changed_key_recomputes(self, csv_workspace, capsys, matrices, edit):
        """Each part of the key, changed alone, recomputes the matrix, and
        the outputs are what a fresh work dir gives."""
        associate_outputs(csv_workspace, capsys)
        args = ()
        if edit == "n_bins":
            args = ("--set", "association.n_bins=4")
        elif edit == "bias_corrected":
            args = ("--set", "association.bias_corrected=true")
        elif edit == "csv-cell":
            path = csv_workspace / "data.csv"
            text = path.read_text(encoding="utf-8")
            at = text.index("\n") + 1
            at = next(i for i in range(at, len(text)) if text[i].isdigit())
            path.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:], encoding="utf-8")
        else:
            path = csv_workspace / "schema.json"
            path.write_text(path.read_text(encoding="utf-8").replace('"categorical"', '"boolean"', 1),
                            encoding="utf-8")
        warm = associate_outputs(csv_workspace, capsys, *args)
        assert len(matrices) == 2
        fresh = associate_outputs(csv_workspace, capsys, *args, "--work-dir", str(csv_workspace / "fresh"))
        assert warm == fresh

    def test_cache_is_not_written_when_the_csv_changes_during_the_read(self, csv_workspace, capsys,
                                                                        monkeypatch):
        """A CSV rewritten while it is parsed no longer hashes to the key
        the stage computed, so neither cache keeps what was read."""
        ingest = cli.ingest_csv

        def rewriting(path, *args, **kwargs):
            table = ingest(path, *args, **kwargs)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")
            return table

        monkeypatch.setattr(cli, "ingest_csv", rewriting)
        associate_outputs(csv_workspace, capsys)
        out = csv_workspace / "out"
        assert not (out / "association.cache").exists()
        assert not (out / "table.cache").exists()


class TestConfigPlumbing:
    def test_set_leaves_defaults_unchanged(self, csv_workspace):
        snapshot = copy.deepcopy(DEFAULTS)
        assert run_cmd(
            csv_workspace, "stats",
            "--set", "association.threshold=0.9",
            "--set", "split.ratios=[0.5,0.25,0.25]",
            "--set", "use_encoder=true",
        ) == 0
        assert DEFAULTS == snapshot

    def test_set_override_nested(self, csv_workspace):
        assert run_cmd(csv_workspace, "stats", "--set", "work_dir=" + str(csv_workspace / "alt")) == 0
        assert (csv_workspace / "alt" / "stats.json").exists()

    def test_seed_flag_changes_split(self, csv_workspace):
        run_cmd(csv_workspace, "associate")
        assert run_cmd(csv_workspace, "preprocess") == 0
        splits_a = read_json(csv_workspace, "splits.json")
        assert main([
            "preprocess", "--config", str(csv_workspace / "config.json"), "--seed", "99",
        ]) == 0
        splits_b = read_json(csv_workspace, "splits.json")
        assert splits_a["train"] != splits_b["train"]

    def test_uint64_split_seed_reloads(self, csv_workspace):
        """derive_seed returns a uint64; master seed 6 puts the split seed at
        2**63 or more, and train must read back the splits.json holding it."""
        assert derive_seed(6, "split") >= 2**63
        for cmd in ("associate", "preprocess", "train"):
            assert run_cmd(csv_workspace, cmd, "--seed", "6") == 0
        assert read_json(csv_workspace, "splits.json")["seed"] == derive_seed(6, "split")

    @pytest.mark.parametrize("seed, code", [
        (-2**63, 0), (2**63, 0), (2**64 - 1, 0), (-2**63 - 1, 1), (2**64, 1),
    ])
    def test_seed_takes_int64_or_uint64(self, csv_workspace, capsys, seed, code):
        assert run_cmd(csv_workspace, "stats", "--seed", str(seed)) == code
        assert run_cmd(csv_workspace, "stats", "--set", f"seed={seed}") == code

    @pytest.mark.parametrize("expr", [
        'cv.folds="x"', "cv.folds=2.5", "classifier.use_class_weights=1",
        "association=3", 'grid.initial_neurons=["a"]', "classifer.epochs=3",
        "train.use_encoder=true", "cv.use_encoder=true", "predict.use_encoder=true",
        "predict.input=x.csv",
    ])
    def test_set_of_wrong_type_or_unknown_key_exits_1(self, csv_workspace, capsys, expr):
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats", "--set", expr) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "ConfigError"

    def test_int_for_float_and_string_for_null_accepted(self, csv_workspace):
        assert run_cmd(
            csv_workspace, "stats",
            "--set", "association.threshold=1", "--set", "predict.model=other.model",
        ) == 0

    def test_jobs_setting_exits_1(self, csv_workspace):
        assert run_cmd(csv_workspace, "stats", "--jobs", "2") == 1
        assert run_cmd(csv_workspace, "stats", "--set", "jobs=1") == 1
        path = csv_workspace / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**config, "jobs": 1}), encoding="utf-8")
        assert run_cmd(csv_workspace, "stats") == 1

    # the CSV is not UTF-8, so a check made after reading input would exit 2;
    # a repeated --config replaces the first
    @pytest.mark.parametrize("args", [
        ["--set", "grid.initial_neurons=[]"],
        ["--set", "grid.initial_dropout=[0.2,1.5]"],
        ["--set", "classifier.initial_neurons=2"],
        ["--set", "classifier.epochs=0"],
        ["--set", "classifier.initial_dropout=1.5"],
        ["--set", "classifier.learning_rate=0"],
        ["--set", "classifier.learning_rate=-1"],
        ["--set", "autoencoder.encoder_widths=[]"],
        ["--set", "autoencoder.batch_size=0"],
        ["--set", "autoencoder.learning_rate=-5"],
        ["--set", "association.n_bins=1"],
        ["--set", "association.n_bins=100001"],
        ["--set", "association.n_bins=4611686018427387904"],
        ["--set", "classifier.initial_neurons=4611686018427387904"],
        ["--set", "classifier.initial_neurons=100001"],
        ["--set", "autoencoder.encoder_widths=[4611686018427387904,4]"],
        ["--set", "autoencoder.encoder_widths=[100001,4]"],
        ["--set", "grid.initial_neurons=[4611686018427387904]"],
        ["--set", "grid.initial_neurons=[100001]"],
        ["--config", "list.json"],
        ["--set", "classifier.l2_penalty=NaN"],
        ["--set", "classifier.learning_rate=Infinity"],
        ["--set", "autoencoder.learning_rate=Infinity"],
        ["--set", "grid.l2_penalty=[NaN]"],
        ["--set", "split.ratios=[NaN,0.5,0.5]"],
        ["--set", "autoencoder.encoder_widths=[8,0]"],
        pytest.param(["--set", "classifier.learning_rate=1" + "0" * 400], id="learning_rate-401-digits"),
        pytest.param(["--set", "association.n_bins=1" + "0" * 400], id="n_bins-401-digits"),
        pytest.param(["--seed", "1" + "0" * 400], id="seed-flag-401-digits"),
        ["--config", "nan.json"],
        ["--config", "overflow.json"],
        ["--config", "not_utf8.json"],
        pytest.param(["--config", "."], id="config-is-a-directory"),
        ["--config", "missing.json"],
        # a later object lands on the scalar an earlier --set left
        pytest.param(["--set", "classifier=5", "--set", 'classifier={"epochs": 1}'], id="classifier-scalar-then-object"),
        pytest.param(["--set", "autoencoder=5", "--set", 'autoencoder={"epochs": 1}'], id="autoencoder-scalar-then-object"),
        pytest.param(["--set", "grid=5", "--set", 'grid={"initial_neurons": [8]}'], id="grid-scalar-then-object"),
        pytest.param(["--work-dir", ""], id="empty-work-dir"),
    ], ids=lambda args: args[-1])
    def test_bad_config_value_exits_1_before_input(self, csv_workspace, capsys, monkeypatch, args):
        (csv_workspace / "data.csv").write_bytes(b"\xff\n")
        (csv_workspace / "list.json").write_text("[1, 2]", encoding="utf-8")
        (csv_workspace / "not_utf8.json").write_bytes(b"\xff{}")
        # full configs that Python's json reads: NaN, and 1e309 as inf
        config = json.loads((csv_workspace / "config.json").read_text(encoding="utf-8"))
        nan = {**config, "classifier": {**config["classifier"], "l2_penalty": float("nan")}}
        (csv_workspace / "nan.json").write_text(json.dumps(nan), encoding="utf-8")
        overflow = {**config, "autoencoder": {**config["autoencoder"], "learning_rate": "big"}}
        (csv_workspace / "overflow.json").write_text(
            json.dumps(overflow).replace('"big"', "1e309"), encoding="utf-8")
        monkeypatch.chdir(csv_workspace)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats", *args) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["type"] == "ConfigError"

    def test_flags_are_set_shorthands(self, csv_workspace, capsys):
        """--no-class-weights takes the --set path: a scalar config section
        is an error under the flag as under --set."""
        path = csv_workspace / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**config, "classifier": 5}), encoding="utf-8")
        for flag in (["--no-class-weights"], ["--set", "classifier.use_class_weights=false"]):
            capsys.readouterr()
            assert run_cmd(csv_workspace, "stats", *flag) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err["error"]["type"] == "ConfigError"
            assert "classifier" in err["error"]["message"]

    def test_set_of_object_merges_into_section(self, csv_workspace):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0
        assert run_cmd(csv_workspace, "train", "--set", 'classifier={"epochs": 2}') == 0
        config = json.loads((csv_workspace / "config.json").read_text(encoding="utf-8"))
        assert read_json(csv_workspace, "history.json")["config"] == {**config["classifier"], "epochs": 2}
        assert run_cmd(csv_workspace, "stats", "--set", "autoencoder={}") == 0

    def test_readme_config_block_is_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULTS

    def test_unknown_key_in_config_file_exits_1(self, csv_workspace, capsys):
        path = csv_workspace / "config.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        config["classifier"]["epoch"] = 3
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        assert run_cmd(csv_workspace, "stats") == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "classifier.epoch" in err["error"]["message"]


@pytest.fixture
def messy_workspace(csv_workspace):
    """The workspace's CSV rewritten with the target column first and cells
    that exercise every ingest rule: blanks, padded cells, non-finite and
    unparseable numbers, quoted commas, short rows, empty lines and blank or
    unparseable targets."""
    path = csv_workspace / "data.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    order = [header.index("severity")] + [j for j, name in enumerate(header) if name != "severity"]
    header, rows = [header[j] for j in order], [[row[j] for j in order] for row in rows]
    rng = np.random.default_rng(11)
    odd = {"num": ["", " ", "nan", "inf", "-inf", "1e309", "1_000", "abc"],
           "cat": ["", " ", "a,b", '"q"', "k1 "]}
    out = []
    for i, row in enumerate(rows):
        for j in range(1, len(row)):
            u = rng.random()
            if u < 0.05:
                cells = odd["num" if header[j].startswith("num_") else "cat"]
                row[j] = cells[rng.integers(len(cells))]
            elif u < 0.1:
                row[j] = f"  {row[j]}\t"
        if i % 50 == 7:
            row[0] = ["", " ", "x", "2x"][i // 50 % 4]
        if i % 40 == 3:
            row = row[: 1 + i % 3]
        out.append(row)
        if i % 90 == 0:
            out.append([])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(out)
    return csv_workspace


class TestGoldenArtifacts:
    """Byte identity of the data-preparation artifacts at a fixed seed.

    The digests were captured from the per-cell ingest and the block-stacking
    assemble that preceded the columnar ingest and the single-buffer
    assemble; a change to any parsed cell, imputed value, selected feature,
    split or matrix entry fails here.

    "features.fmx" is the digest of the matrix saved densely (rebuilt from
    the compact file with ``FeatureMatrix(values, labels)``), which pins every
    matrix entry; "features.fmx compact" pins the bytes ``preprocess``
    writes."""

    DIGESTS = {
        "stats.json": "c4732ec8c884d95ca3288ec9c9195be1698d21eef438611579d6562f88a7a463",
        "selection.json": "d61cc61883d8b87dcdbfc384c703ee4212a758db16b537139457b1f70191bd3b",
        "targets.json": "f375931663041447450fa6cd55bf018ae757f4360c68e8bee294e5965373937b",
        "association_matrix.csv": "006f10dce91e4e174fa4a853c4c851aa6386f7da48c135688bfe3287eb0db83f",
        "features.fmx": "ac96750f2ed6b301cdba95c098f4282cb7fd98729a8de537f998be38608e70c4",
        "features.fmx compact": "2836b56e8d5eccc42ec4b9a569d23886cb3906656ee8316e0d6aee4d9cb69061",
        "splits.json": "d438f345f5f0a6bae5ba3745377dd3c782f65f0b2e0bfe62d9ed4c4766fe5dfd",
        "preprocessor.json": "81d726dbaa42cc6d1682aea1d6f0d840bb684de8594903c655999402da1aaf9f",
    }

    def test_stats_associate_preprocess_chain(self, messy_workspace, tmp_path):
        for cmd in ("stats", "associate", "preprocess"):
            assert run_cmd(messy_workspace, cmd) == 0, cmd
        out = messy_workspace / "out"
        compact = load_feature_matrix(out / "features.fmx")
        save_feature_matrix(tmp_path / "dense.fmx", FeatureMatrix(compact.values, compact.column_labels))
        digests = {}
        for name in self.DIGESTS:
            if name == "features.fmx":
                data = (tmp_path / "dense.fmx").read_bytes()
            else:
                data = (out / name.split()[0]).read_bytes()
            if name in ("stats.json", "selection.json", "targets.json"):
                data = json.dumps(strip_meta(json.loads(data)), sort_keys=True).encode()
            digests[name] = hashlib.sha256(data).hexdigest()
        assert digests == self.DIGESTS


class TestGoldenBiasCorrectedSelection:
    """Byte identity of ``selection.json`` (without "meta") under the
    bias-corrected V, with the target last (the plain workspace) and first
    (the messy one) in the CSV."""

    DIGESTS = {
        "csv_workspace": "d3374d42595b10bb8c125734f02c28a35c97967ebec689cc7f7beaabcb50c034",
        "messy_workspace": "6653498f9b498d9c1b6f392b224231093a9cae81ab0f3eda4746c7c8c2414a68",
    }

    @pytest.mark.parametrize("workspace", sorted(DIGESTS))
    def test_selection_digest(self, workspace, request):
        root = request.getfixturevalue(workspace)
        assert run_cmd(root, "associate", "--set", "association.bias_corrected=true") == 0
        data = json.dumps(strip_meta(read_json(root, "selection.json")), sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[workspace]


class TestGoldenTrainingArtifacts:
    """Byte identity, at a fixed seed, of what the training stages print and
    write on the small workspace config. JSON is compared with "meta"
    stripped and the workspace path replaced by a placeholder, keys in their
    written order; every other file is compared byte for byte. A change to a stage's config plumbing,
    seed labels or grid cells fails here."""

    WRITES = {
        "train-ae": ("autoencoder.model", "ae_history.json", "latent.fmx"),
        "train": ("classifier.model", "history.json", "test_metrics.json"),
        "grid": ("grid_report.json", "grid_report.csv"),
        "cv": ("cv_report.json", "cv_report.csv"),
        "predict": ("predictions.csv",),
        "pipeline": ("pipeline_report.json", "classifier_encoded.model", "history_encoded.json",
                     "test_metrics_encoded.json", "cv_report_encoded.json", "cv_report_encoded.csv"),
    }
    DIGESTS = {
        "cv:cv_report.csv": "e3b87d7fb64ee71e95b8f2640f2117497246bb31c0efd2f0df6ec07ac4f64002",
        "cv:cv_report.json": "707396a2e118596f8f28f747152bf9d4616080d7c932bbcc2223206926c71a73",
        "cv:stdout": "707396a2e118596f8f28f747152bf9d4616080d7c932bbcc2223206926c71a73",
        "grid:grid_report.csv": "2ea0e4b83e7b0213b411bae274420289a703b5e2e63f9e7cac58def67ac1210b",
        "grid:grid_report.json": "db0ebc459f5477d933a7ff220ebc7306d83778179511464fb64b9ad65a3ee201",
        "grid:stdout": "db0ebc459f5477d933a7ff220ebc7306d83778179511464fb64b9ad65a3ee201",
        "pipeline:classifier_encoded.model": "0147f9dd42870798841579ee2283d5608187ff66ee829ccbf3a9882503e2ab99",
        "pipeline:cv_report_encoded.csv": "230c6d13d7e3424f10c41d8bafadde72ef23ae3af30d7a947ef3d2b880273889",
        "pipeline:cv_report_encoded.json": "37f2dd71d17ec4db063a404fb3392e377ef97b143ab0c5dbd5cd31be697e9904",
        "pipeline:history_encoded.json": "e2c3c8d93380c064db1956d0c0c928a546f6e9eb9a177d4fcc33373c276e5157",
        "pipeline:pipeline_report.json": "f7a08b75c30c2378537dff4e106c5aa1e75be17098910910065dff2e75fe064b",
        "pipeline:stdout": "f7a08b75c30c2378537dff4e106c5aa1e75be17098910910065dff2e75fe064b",
        "pipeline:test_metrics_encoded.json": "427e0c4e101b965ba8f281619cc8633e00fbe7d9c88b9ed2e1254bbd41f9cb7a",
        "predict:predictions.csv": "4a2ca75b6e20eef2316ec530445d6fe7f473a170df57dd86d5d5edc81b99573a",
        "predict:stdout": "3983763ab7e6cf3dd69ece13ac0d19bbccdae622abcda1e1ea7785b4b24083cd",
        "train-ae:ae_history.json": "7bb3029d769f6d286ce793ccc547dc2f8a766070dc22243d32a526e1dc723cdf",
        "train-ae:autoencoder.model": "e06c169586f4a21fd0062d5ae224dd3a8e50117e61744f0a2c3aadbce8c1423f",
        "train-ae:latent.fmx": "9edde41aa86a77a3074b835e1d045ea7b7dbf925d099a976e12cc3bb81745288",
        "train-ae:stdout": "7bb3029d769f6d286ce793ccc547dc2f8a766070dc22243d32a526e1dc723cdf",
        "train:classifier.model": "acec892277ec5c37eadbd08a2b7cfc570cd995dab920a96ae4592a519f04938a",
        "train:history.json": "e67e0fb3df568b7b0e65f0a8b08e2516362d0c966eaa057f8e8707f730191f33",
        "train:stdout": "1d827100406d1a879fe18a646c73e25efd1dd76540012560ce042051cd3bc6dd",
        "train:test_metrics.json": "1d827100406d1a879fe18a646c73e25efd1dd76540012560ce042051cd3bc6dd",
    }

    @staticmethod
    def _digest(data: bytes, is_json: bool, root: str) -> str:
        if is_json:
            # key order is kept: it is part of what a stage prints
            text = json.dumps(strip_meta(json.loads(data)))
            data = text.replace(root, "<work>").encode()
        return hashlib.sha256(data).hexdigest()

    def test_training_stage_payloads_and_files(self, csv_workspace, capsys):
        for cmd in ("associate", "preprocess"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        root, out = str(csv_workspace), csv_workspace / "out"
        digests = {}
        for stage, names in self.WRITES.items():
            capsys.readouterr()
            assert run_cmd(csv_workspace, stage) == 0, stage
            printed = capsys.readouterr().out.encode()
            digests[f"{stage}:stdout"] = self._digest(printed, True, root)
            for name in names:
                data = (out / name).read_bytes()
                digests[f"{stage}:{name}"] = self._digest(data, name.endswith(".json"), root)
        assert digests == self.DIGESTS


def _leaves(node, prefix=""):
    """(dotted path, default) for every non-object value under ``node``."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


def _admitted(default) -> set:
    """The JSON kinds a leaf with this default takes."""
    if default is None:
        return {"null", "str"}
    if isinstance(default, bool):
        return {"bool"}
    if isinstance(default, float):
        return {"int", "float"}
    return {{int: "int", str: "str", list: "list"}[type(default)]}


JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10**6, 10**6),
    "float": st.floats(-1e6, 1e6).filter(lambda x: x != int(x)),
    "str": st.text(max_size=5),
    "list": st.lists(st.integers(0, 9), max_size=3),
    "object": st.dictionaries(st.sampled_from("ab"), st.integers(0, 9), max_size=2),
}


@st.composite
def _wrong_typed_leaf(draw):
    path, default = draw(st.sampled_from(list(_leaves(DEFAULTS))))
    kind = draw(st.sampled_from(sorted(set(JSON_KINDS) - _admitted(default))))
    return path, draw(JSON_KINDS[kind])


class TestSetTypeProperty:
    """Every leaf of DEFAULTS, set with --set to a JSON value of a type its
    default does not admit, exits 1 with a ConfigError and leaves DEFAULTS
    as it was."""

    @settings(max_examples=150, deadline=None)
    @given(case=_wrong_typed_leaf())
    def test_wrong_type_exits_1(self, case):
        path, value = case
        snapshot = copy.deepcopy(DEFAULTS)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["stats", "--set", f"{path}={json.dumps(value)}"])
        assert code == 1
        assert json.loads(err.getvalue().strip().splitlines()[-1])["error"]["type"] == "ConfigError"
        assert DEFAULTS == snapshot


# each artifact kind and a stage that reads it; predict loads the
# autoencoder before the classifier, which this workspace lacks
TRUNCATED_READS = {
    "features.fmx": ("train",),
    "classifier.model": ("predict",),
    "autoencoder.model": ("predict", "--set", "use_encoder=true"),
    "selection.json": ("preprocess",),
    "splits.json": ("train",),
    "targets.json": ("train",),
    "preprocessor.json": ("predict",),
}


@pytest.fixture(scope="module")
def trained_workspace(tmp_path_factory):
    """A workspace holding every artifact in TRUNCATED_READS."""
    root = write_workspace(tmp_path_factory.mktemp("trained"), make_small_table())
    with contextlib.redirect_stdout(io.StringIO()):
        for cmd in ("associate", "preprocess", "train-ae", "train"):
            assert run_cmd(root, cmd) == 0, cmd
    return root


class TestTruncationProperty:
    """Every artifact cut at any offset makes the stage that reads it exit 2
    with a JSON DataError. A JSON artifact is cut before its closing brace,
    since one that loses only its trailing newline is still whole."""

    @pytest.mark.parametrize("name", sorted(TRUNCATED_READS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cut_artifact_exits_2(self, trained_workspace, name, data):
        path = trained_workspace / "out" / name
        whole = path.read_bytes()
        end = len(whole.rstrip()) if name.endswith(".json") else len(whole)
        offset = data.draw(st.integers(0, end - 1), label="offset")
        err = io.StringIO()
        try:
            path.write_bytes(whole[:offset])
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cmd(trained_workspace, *TRUNCATED_READS[name])
        finally:
            path.write_bytes(whole)
        assert code == 2
        assert json.loads(err.getvalue().strip().splitlines()[-1])["error"]["type"] == "DataError"


@pytest.fixture(scope="module")
def cached_workspace(tmp_path_factory):
    """A workspace after ``stats``: the root, what stats printed and wrote
    (without "meta"), and the table.cache it left."""
    root = write_workspace(tmp_path_factory.mktemp("cached"), make_small_table())
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_cmd(root, "stats") == 0
    outputs = (strip_meta(json.loads(printed.getvalue())), strip_meta(read_json(root, "stats.json")))
    return root, outputs, (root / "out" / "table.cache").read_bytes()


class TestDamagedTableCache:
    """The opposite of TestTruncationProperty: table.cache is not an input
    but a copy of what ingest made of one, so a cut or corrupt cache is a
    miss, never an error. The next stage re-ingests data.csv, exits 0 with
    the same outputs and rewrites the cache whole."""

    @staticmethod
    def rerun_stats(root, damaged: bytes):
        path = root / "out" / "table.cache"
        path.write_bytes(damaged)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run_cmd(root, "stats") == 0
        return (strip_meta(json.loads(printed.getvalue())), strip_meta(read_json(root, "stats.json"))), path.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cut_cache_is_a_miss(self, cached_workspace, data):
        root, outputs, whole = cached_workspace
        offset = data.draw(st.integers(0, len(whole) - 1), label="offset")
        assert self.rerun_stats(root, whole[:offset]) == (outputs, whole)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_flipped_data_byte_is_a_miss(self, cached_workspace, data):
        root, outputs, whole = cached_workspace
        offset = data.draw(st.integers(whole.index(b"\n") + 1, len(whole) - 1), label="offset")
        damaged = bytearray(whole)
        damaged[offset] ^= data.draw(st.integers(1, 255), label="mask")
        assert self.rerun_stats(root, bytes(damaged)) == (outputs, whole)


@pytest.fixture(scope="module")
def associated_workspace(tmp_path_factory):
    """A workspace after ``associate``: the root, what associate printed and
    wrote (without "meta"), and the association.cache it left."""
    root = write_workspace(tmp_path_factory.mktemp("associated"), make_small_table())
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run_cmd(root, "associate") == 0
    out = root / "out"
    outputs = (strip_meta(json.loads(printed.getvalue())), strip_meta(read_json(root, "selection.json")),
               (out / "association_matrix.csv").read_bytes())
    return root, outputs, (out / "association.cache").read_bytes()


class TestDamagedAssociationCache:
    """association.cache, like table.cache, is a copy of what the stage
    made, not an input: a cut or corrupt cache is a miss, never an error.
    The next ``associate`` recomputes the matrix, exits 0 with the same
    outputs and rewrites the cache whole."""

    @staticmethod
    def rerun_associate(root, damaged: bytes):
        out = root / "out"
        path = out / "association.cache"
        path.write_bytes(damaged)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert run_cmd(root, "associate") == 0
        outputs = (strip_meta(json.loads(printed.getvalue())), strip_meta(read_json(root, "selection.json")),
                   (out / "association_matrix.csv").read_bytes())
        return outputs, path.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cut_cache_is_a_miss(self, associated_workspace, data):
        root, outputs, whole = associated_workspace
        offset = data.draw(st.integers(0, len(whole) - 1), label="offset")
        assert self.rerun_associate(root, whole[:offset]) == (outputs, whole)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_flipped_data_byte_is_a_miss(self, associated_workspace, data):
        root, outputs, whole = associated_workspace
        offset = data.draw(st.integers(whole.index(b"\n") + 1, len(whole) - 1), label="offset")
        damaged = bytearray(whole)
        damaged[offset] ^= data.draw(st.integers(1, 255), label="mask")
        assert self.rerun_associate(root, bytes(damaged)) == (outputs, whole)


# a valid value for every leaf of DEFAULTS, each unlike the workspace
# config's; work_dir is set per run
OTHER = {
    "data": {"csv": "elsewhere.csv", "schema": "elsewhere.json"},
    "work_dir": None,
    "seed": 6,
    "association": {"n_bins": 4, "threshold": 0.1, "bias_corrected": True},
    "split": {"ratios": [0.5, 0.25, 0.25]},
    "autoencoder": {"encoder_widths": [6, 3], "epochs": 2, "batch_size": 64, "learning_rate": 0.01},
    "classifier": {"initial_neurons": 16, "initial_dropout": 0.1, "batch_size": 64, "l2_penalty": 0.001,
                   "epochs": 2, "learning_rate": 0.01, "use_class_weights": False},
    "use_encoder": True,
    "grid": {"initial_neurons": [8], "initial_dropout": [0.3], "batch_size": [64], "l2_penalty": [0.01]},
    "cv": {"folds": 2},
    "predict": {"model": "elsewhere.model"},
}
# the stages whose artifacts each stage reads
NEEDS = {"preprocess": ("associate",), "train-ae": ("associate", "preprocess"),
         "train": ("associate", "preprocess"), "grid": ("associate", "preprocess"),
         "cv": ("associate", "preprocess"), "predict": ("associate", "preprocess", "train"),
         "pipeline": ("pipeline",)}
# the function each record belongs to: pipeline's own record is its comparison's
RECORDED = {**cli.STAGES, "pipeline": cli._compare}


class TestDeclaredSettings:
    """A stage's lineage record holds only the settings sections
    ``cli.READS`` declares for it, so nothing else may decide its outputs: a
    fresh run under a config that changes every leaf outside them gives what
    the workspace config gives, modulo "meta". Otherwise a skip could hide a
    setting the stage really reads."""

    @staticmethod
    def settings(root, config: str = "config.json") -> dict:
        config = json.loads((root / config).read_text(encoding="utf-8"))
        return cli._deep_merge(copy.deepcopy(DEFAULTS), config)

    def test_other_changes_every_leaf(self, csv_workspace):
        base = dict(_leaves(self.settings(csv_workspace)))
        other = dict(_leaves(OTHER))
        assert list(other) == list(base)
        assert [path for path in base if other[path] == base[path]] == []

    @pytest.mark.parametrize("stage", sorted(cli.READS))
    def test_undeclared_settings_change_nothing(self, csv_workspace, stage):
        root = csv_workspace
        base = self.settings(root)
        for cmd in NEEDS.get(stage, ()):
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cmd(root, cmd) == 0, cmd
        prepared = root / "prepared"
        if NEEDS.get(stage):
            (root / "out" / "lineage.json").unlink()  # so the stage runs rather than skips
            shutil.copytree(root / "out", prepared)
        other = {section: base[section] if section in cli.READS[stage] else OTHER[section] for section in base}
        if "work_dir" not in cli.READS[stage]:
            other["work_dir"] = str(root / "other")
        (root / "other.json").write_text(json.dumps(other), encoding="utf-8")

        results = []
        for config in ("config.json", "other.json"):
            cfg = self.settings(root, config)
            cli.validate(cfg)
            work = Path(cfg["work_dir"])
            shutil.rmtree(work, ignore_errors=True)
            if prepared.exists():
                shutil.copytree(prepared, work)
            payload = json.loads(json.dumps(RECORDED[stage](cfg)))
            results.append((strip_meta(payload), work_files(work)))
        assert results[0] == results[1]


@pytest.fixture(scope="module")
def recorded_workspace(tmp_path_factory):
    """A workspace after ``associate`` and ``preprocess``: the root, and
    what preprocess printed and left in the work dir (without "meta").
    lineage.json holds preprocess's record alone, so its length is the same
    after every run that rewrites it."""
    root = write_workspace(tmp_path_factory.mktemp("recorded"), make_small_table())
    printed = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cmd(root, "associate") == 0
    (root / "out" / "lineage.json").unlink()
    with contextlib.redirect_stdout(printed):
        assert run_cmd(root, "preprocess") == 0
    return root, (strip_meta(json.loads(printed.getvalue())), work_files(root / "out"))


def run_preprocess(root) -> tuple[int, dict | None]:
    """``preprocess``'s exit code, and on exit 0 what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        code = run_cmd(root, "preprocess")
    return code, json.loads(printed.getvalue()) if code == 0 else None


def flipped(data, whole: bytes, start: int = 0) -> bytes:
    offset = data.draw(st.integers(start, len(whole) - 1), label="offset")
    damaged = bytearray(whole)
    damaged[offset] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(damaged)


class TestDamagedLineage:
    """A stage runs, never skips, unless its lineage record holds, and a
    record that does not hold is never an error. ``preprocess``, damaged
    here, reads the CSV, the schema, selection.json and table.cache, whose
    key the CSV's hash and the schema decide, and writes four artifacts.
    Every example starts from a record that holds."""

    @staticmethod
    def damage(root, name: str, damaged: bytes | None) -> tuple[int, dict | None]:
        """``preprocess`` with ``name`` (under ``root``) overwritten by
        ``damaged``, or deleted for None, after a run that skips."""
        assert run_preprocess(root)[0] == 0
        assert run_preprocess(root)[1]["meta"]["skipped"] is True
        path = root / name
        if damaged is None:
            path.unlink()
        else:
            path.write_bytes(damaged)
        return run_preprocess(root)

    @staticmethod
    def assert_rerun_whole(root, outputs, result):
        """The stage ran, left its outputs as the first run did, and wrote a
        record that holds."""
        code, printed = result
        assert code == 0 and "skipped" not in printed["meta"]
        assert (strip_meta(printed), work_files(root / "out")) == outputs
        assert run_preprocess(root)[1]["meta"]["skipped"] is True

    @staticmethod
    def whole(root, name: str) -> bytes:
        """``name``'s bytes after a run that leaves a record that holds."""
        assert run_preprocess(root)[0] == 0
        return (root / name).read_bytes()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_cut_record_reruns(self, recorded_workspace, data):
        root, outputs = recorded_workspace
        whole = self.whole(root, "out/lineage.json")
        offset = data.draw(st.integers(0, len(whole) - 1), label="offset")
        self.assert_rerun_whole(root, outputs, self.damage(root, "out/lineage.json", whole[:offset]))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_flipped_record_byte_reruns(self, recorded_workspace, data):
        root, outputs = recorded_workspace
        damaged = flipped(data, self.whole(root, "out/lineage.json"))
        self.assert_rerun_whole(root, outputs, self.damage(root, "out/lineage.json", damaged))

    def test_deleted_record_reruns(self, recorded_workspace):
        root, outputs = recorded_workspace
        self.assert_rerun_whole(root, outputs, self.damage(root, "out/lineage.json", None))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_flipped_output_byte_reruns(self, recorded_workspace, data):
        root, outputs = recorded_workspace
        name = "out/" + data.draw(st.sampled_from(["features.fmx", "splits.json", "preprocessor.json",
                                                   "targets.json"]), label="output")
        damaged = flipped(data, self.whole(root, name))
        self.assert_rerun_whole(root, outputs, self.damage(root, name, damaged))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_flipped_input_byte_reruns(self, recorded_workspace, data):
        """An input flipped may fail the stage or change what it makes; it
        must not leave it skipped."""
        root, _ = recorded_workspace
        name = data.draw(st.sampled_from(["data.csv", "out/selection.json"]), label="input")
        whole = self.whole(root, name)
        try:
            code, printed = self.damage(root, name, flipped(data, whole))
        finally:
            (root / name).write_bytes(whole)
        assert code != 0 or "skipped" not in printed["meta"]

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_damaged_table_cache_still_skips(self, recorded_workspace, data):
        """A run would read the CSV in place of a damaged or deleted cache
        and make the same outputs, so a record that lists the cache as no
        output of its own still holds."""
        root, outputs = recorded_workspace
        assert run_preprocess(root)[0] == 0  # the cache now holds the CSV's table
        (root / "out" / "lineage.json").unlink()
        whole = self.whole(root, "out/table.cache")  # a cache hit: the record lists no cache
        damaged = data.draw(st.sampled_from([None, flipped(data, whole)]), label="damage")
        try:
            code, printed = self.damage(root, "out/table.cache", damaged)
        finally:
            (root / "out" / "table.cache").write_bytes(whole)
        assert code == 0 and printed["meta"]["skipped"] is True
        assert (strip_meta(printed), work_files(root / "out")) == outputs

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_failed_run_keeps_the_record(self, recorded_workspace, data):
        """A run that fails leaves the stage's earlier record as it was, and
        once the input is mended that record holds again."""
        root, _ = recorded_workspace
        whole = self.whole(root, "out/selection.json")
        lineage = (root / "out" / "lineage.json").read_bytes()
        offset = data.draw(st.integers(0, len(whole.rstrip()) - 1), label="offset")
        try:
            assert self.damage(root, "out/selection.json", whole[:offset]) == (2, None)
        finally:
            (root / "out" / "selection.json").write_bytes(whole)
        assert (root / "out" / "lineage.json").read_bytes() == lineage
        assert run_preprocess(root)[1]["meta"]["skipped"] is True


class TestLineageRecord:
    """What a lineage record holds besides the settings and the work-dir
    files: the environment and a predict.model override's bytes. A CSV
    rewritten while it is parsed leaves no record."""

    @pytest.mark.parametrize("change", ["threads", "package", "numpy"])
    def test_changed_environment_reruns(self, csv_workspace, capsys, monkeypatch, change):
        assert run_cmd(csv_workspace, "stats") == 0
        if change == "threads":
            monkeypatch.setenv("SEVPRED_TEST_NUM_THREADS", "3")
        elif change == "package":
            monkeypatch.setattr(cli, "_package_digest", lambda: "0" * 64)
        else:
            monkeypatch.setattr(np, "__version__", "0.0")
        capsys.readouterr()
        for skipped in (False, True):
            assert run_cmd(csv_workspace, "stats") == 0
            assert json.loads(capsys.readouterr().out)["meta"].get("skipped", False) is skipped

    def test_changed_model_override_reruns(self, csv_workspace, capsys):
        for cmd in ("associate", "preprocess", "train"):
            assert run_cmd(csv_workspace, cmd) == 0, cmd
        out, model = csv_workspace / "out", csv_workspace / "override.model"
        shutil.copyfile(out / "classifier.model", model)
        for skipped in (False, True):
            capsys.readouterr()
            assert run_cmd(csv_workspace, "predict", "--set", f"predict.model={model}") == 0
            assert json.loads(capsys.readouterr().out)["meta"].get("skipped", False) is skipped
        assert run_cmd(csv_workspace, "train", "--seed", "9") == 0
        shutil.copyfile(out / "classifier.model", model)
        capsys.readouterr()
        assert run_cmd(csv_workspace, "predict", "--set", f"predict.model={model}") == 0
        assert "skipped" not in json.loads(capsys.readouterr().out)["meta"]

    @pytest.mark.parametrize("stage", ["stats", "associate"])
    def test_csv_rewritten_mid_read_leaves_no_record(self, csv_workspace, monkeypatch, stage):
        ingest = cli.ingest_csv

        def rewriting(path, *args, **kwargs):
            table = ingest(path, *args, **kwargs)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n")
            return table

        monkeypatch.setattr(cli, "ingest_csv", rewriting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cmd(csv_workspace, stage) == 0
        assert not (csv_workspace / "out" / "lineage.json").exists()
