"""The benchmark workloads: ``prep_cli`` and ``train``.

Each workload generates its inputs in ``setup`` (timed as ``setup_s``),
does one unit of work per ``iterate`` call (timed as ``wall_s``), and
validates that unit's outputs in ``check``, outside the timed region.
``check`` returns the operations attempted and failed, a digest of the
deterministic payloads with ``"meta"`` stripped, and the workload's
user-facing figures.

``train`` runs two parts, ``train_wide`` then ``tune_small``, each in its
own ``bench.<part>`` span. Why these:

- ``prep_cli``: the CLI stages stats -> associate -> preprocess on an
  accidents-shaped CSV. dataset, association, preprocess and the CLI's
  artifact I/O do nearly all the work; neural does none. Each stage
  re-ingests the CSV, as a user running stages does. Settings go through a
  config file, because ``--set`` writes into the CLI's module-level defaults
  and would leak into the next in-process run.
- ``train_wide``: the classifier at the paper's widths (d ~ 1218 ->
  1218/609/304/4, batch 5000), predict on a held-out block, then the
  512 -> 256 autoencoder and encode. BLAS matmuls dominate; training and
  infer-mode forward both run. Data preparation happens only in setup.
- ``tune_small``: 10-fold cross-validation at the criterion-c4 shape (width
  64, batch 256) and a 54-cell grid at widths 32-128 and batches 128-512.
  Thousands of tiny steps, so per-call overhead in the engine and the
  fold/cell orchestration set the time, not matmul.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
from spans import LAYERS, Profile

N_CLASSES = 4


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


def _json_digest(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def _strip_meta(path: Path) -> bytes:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("meta", None)
    return _json_digest(payload)


class Checks:
    """Operations attempted and failed in one iteration."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


class Workload:
    name = ""

    def __init__(self, sp: dict, root: Path, work: Path, seed: int):
        self.sp = sp
        self.root = root
        self.work = work
        self.seed = seed

    def span(self, tracer, name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class PrepCli(Workload):
    name = "prep_cli"
    throughput = "rows_per_s"
    rows = 8000
    stages = ("stats", "associate", "preprocess")

    def setup(self) -> None:
        schema = json.loads(
            (self.root / "src" / "sevpred" / "schemas" / "us_accidents.json").read_text(encoding="utf-8")
        )
        self.work.mkdir(parents=True, exist_ok=True)
        inputs.write_accidents_csv(self.work / "accidents.csv", inputs.accidents(schema, self.rows, self.seed))
        (self.work / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
        self.out_dir = self.work / "out"
        config = {
            "data": {"csv": str(self.work / "accidents.csv"), "schema": str(self.work / "schema.json")},
            "work_dir": str(self.out_dir),
            "seed": self.seed,
            "association": {"n_bins": 10, "threshold": 0.05, "bias_corrected": False},
        }
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(config), encoding="utf-8")

    def iterate(self, tracer) -> dict:
        out = {"codes": {}, "stdout": {}, "stderr": {}}
        for stage in self.stages:
            stdout, stderr = io.StringIO(), io.StringIO()
            with self.span(tracer, f"cli.{stage}"), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                out["codes"][stage] = self.sp["cli"].main([stage, "--config", str(self.config)])
            out["stdout"][stage] = stdout.getvalue()
            out["stderr"][stage] = stderr.getvalue()
        return out

    def check(self, out: dict) -> tuple[Checks, str, dict]:
        checks = Checks()
        for stage in self.stages:
            code = out["codes"][stage]
            checks.op(f"{stage} exit", code == 0, f"exit {code}: {out['stderr'][stage].strip()}")
        work = self.out_dir
        digest = hashlib.sha256()
        try:
            stats = json.loads((work / "stats.json").read_text(encoding="utf-8"))
            checks.op("stats rows", stats["n_rows"] == self.rows, f"n_rows {stats['n_rows']}")

            with open(work / "association_matrix.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            labels = rows[0][1:]
            m = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
            ok = (m.shape == (len(labels), len(labels)) and np.array_equal(m, m.T)
                  and bool(np.all(np.diag(m) == 1.0)) and bool(np.all((m >= 0) & (m <= 1))))
            checks.op("association matrix", ok, "not symmetric with unit diagonal in [0, 1]")
            selection = json.loads((work / "selection.json").read_text(encoding="utf-8"))
            checks.op("selection", bool(selection["selected"]), "empty selection")

            with open(work / "features.fmx", "rb") as fh:
                manifest = json.loads(fh.readline())
            prep = json.loads((work / "preprocessor.json").read_text(encoding="utf-8"))
            width = len(prep["standardizer"]) + sum(len(c) for c in prep["one_hot"].values())
            checks.op("fmx width", manifest["d"] == width and manifest["n"] == self.rows,
                      f"fmx {manifest['n']}x{manifest['d']}, preprocessor width {width}")

            for name in ("stats.json", "selection.json", "targets.json"):
                digest.update(_strip_meta(work / name))
            for name in ("association_matrix.csv", "features.fmx", "splits.json", "preprocessor.json"):
                digest.update((work / name).read_bytes())
            facts = {
                "width": manifest["d"],
                "fmx_bytes": (work / "features.fmx").stat().st_size,
                "artifact_bytes": sum(p.stat().st_size for p in work.iterdir() if p.is_file()),
            }
        except (OSError, ValueError, KeyError) as exc:
            checks.op("artifacts readable", False, repr(exc))
            facts = {}
        facts.update(
            csv_rows=self.rows,
            stdout_bytes=sum(len(s.encode("utf-8")) for s in out["stdout"].values()),
            exit_nonzero=sum(code != 0 for code in out["codes"].values()),
        )
        return checks, digest.hexdigest(), facts

    def figures(self, wall: float, out: dict, facts: dict) -> dict:
        return {"rows_per_s": self.rows / wall}


class TrainWide(Workload):
    name = "train_wide"
    rows = 12000

    def setup(self) -> None:
        self.parts = None  # drop the previous set-up's arrays first
        dataset, preprocess = self.sp["dataset"], self.sp["preprocess"]
        schema_json = json.loads(
            (self.root / "src" / "sevpred" / "schemas" / "us_accidents.json").read_text(encoding="utf-8")
        )
        cells = inputs.accidents(schema_json, self.rows, self.seed)
        schema = dataset.schema_from_dict(schema_json)
        columns, missing = {}, {}
        for name, kind in schema.columns:
            blank = cells[name] == ""
            if kind == dataset.ColumnKind.NUMERIC:
                columns[name] = np.where(blank, "nan", cells[name]).astype(np.float64)
            elif kind == dataset.ColumnKind.TARGET:
                columns[name] = cells[name].astype(np.int64)
            else:
                columns[name] = cells[name]
            missing[name] = blank
        table = dataset.impute(dataset.Table(schema, columns, missing, self.rows))
        split = preprocess.stratified_split(table.target, seed=self.seed)
        numeric = [n for n, k in schema.columns if k == dataset.ColumnKind.NUMERIC]
        categorical = [n for n, k in schema.columns
                       if k in (dataset.ColumnKind.CATEGORICAL, dataset.ColumnKind.BOOLEAN)]
        features = preprocess.assemble(
            table,
            preprocess.fit_one_hot(table, categorical, rows=split.train),
            preprocess.fit_standardizer(table, numeric, rows=split.train),
        )
        x, y = features.values, table.target
        self.parts = {name: (x[idx], y[idx]) for name, idx in split.parts().items()}
        self.d = features.d

    def iterate(self, tracer) -> dict:
        models = self.sp["models"]
        (train_x, train_y), (val_x, val_y) = self.parts["train"], self.parts["val"]
        test_x = self.parts["test"][0]
        cfg = models.ClassifierConfig(
            initial_neurons=1218, initial_dropout=0.3, batch_size=5000, l2_penalty=1e-4,
            epochs=1, learning_rate=1e-3, use_class_weights=True, seed=self.seed,
        )
        weights = models.compute_class_weights(train_y, N_CLASSES)
        t0 = perf_counter()
        params, history = models.train_classifier(
            cfg, train_x, train_y, val_x, val_y, class_weights=weights, n_classes=N_CLASSES
        )
        t1 = perf_counter()
        preds = models.predict(params, models.build_classifier(cfg, self.d, N_CLASSES), test_x)
        t2 = perf_counter()
        ae_cfg = models.AutoencoderConfig(
            input_dim=self.d, encoder_widths=(512, 256), epochs=1, batch_size=1000, seed=self.seed,
        )
        ae_params, ae_history = models.train_autoencoder(ae_cfg, train_x, val_x)
        t3 = perf_counter()
        latent = models.encode(models.build_autoencoder(ae_cfg), ae_params, test_x)
        return {
            "history": history, "preds": preds, "ae_history": ae_history, "latent": latent.values,
            "train_s": (t1 - t0) + (t3 - t2), "predict_s": t2 - t1,
            "samples": (cfg.epochs + ae_cfg.epochs) * len(train_y),
        }

    def check(self, out: dict) -> tuple[Checks, str, dict]:
        checks = Checks()
        history, ae_history = out["history"], out["ae_history"]
        checks.op("classifier losses", _finite(history["train_loss"]) and _finite(history["val_ber"]),
                  "non-finite loss")
        preds, test_y = out["preds"], self.parts["test"][1]
        checks.op("predict", len(preds) == len(test_y) and bool(np.all((preds >= 1) & (preds <= N_CLASSES))),
                  "predictions outside 1..K")
        checks.op("autoencoder losses", _finite(ae_history["train_mse"]) and _finite(ae_history["val_mse"]),
                  "non-finite loss")
        latent = out["latent"]
        checks.op("encode", latent.shape == (len(test_y), 256) and _finite(latent), "bad latent matrix")
        digest = hashlib.sha256()
        digest.update(_json_digest([history, ae_history]))
        digest.update(np.ascontiguousarray(preds, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(latent, dtype="<f8").tobytes())
        return checks, digest.hexdigest(), {"width": self.d}


class TuneSmall(Workload):
    name = "tune_small"
    rows = 6000
    folds = 10
    cv_epochs = 2

    def setup(self) -> None:
        # the features are assembled as criterion c4 assembles them: one-hot
        # and standardizer fitted on all rows
        dataset, preprocess = self.sp["dataset"], self.sp["preprocess"]
        columns, labels = inputs.c4_columns(self.rows, self.seed)
        kinds = [(name, dataset.ColumnKind.NUMERIC if name.startswith("num_") else dataset.ColumnKind.CATEGORICAL)
                 for name in columns]
        schema = dataset.SchemaSpec(tuple(kinds) + (("severity", dataset.ColumnKind.TARGET),), N_CLASSES)
        columns["severity"] = labels
        table = dataset.Table(schema, columns, {n: np.zeros(self.rows, dtype=bool) for n in columns}, self.rows)
        numeric = [n for n, k in kinds if k == dataset.ColumnKind.NUMERIC]
        categorical = [n for n, k in kinds if k == dataset.ColumnKind.CATEGORICAL]
        features = preprocess.assemble(table, preprocess.fit_one_hot(table, categorical),
                                       preprocess.fit_standardizer(table, numeric))
        self.x, self.y = features.values, table.target
        split = preprocess.stratified_split(self.y, seed=self.seed)
        self.grid_parts = [(self.x[idx], self.y[idx]) for idx in (split.train, split.val)]

    def _runner(self, train_x, train_y, val_x, val_y, seed):
        models = self.sp["models"]
        cfg = models.ClassifierConfig(
            initial_neurons=64, initial_dropout=0.2, batch_size=256, l2_penalty=1e-4,
            epochs=self.cv_epochs, learning_rate=2e-3, use_class_weights=True, seed=seed,
        )
        params, history = models.train_classifier(
            cfg, train_x, train_y, val_x, val_y,
            class_weights=models.compute_class_weights(train_y, N_CLASSES), n_classes=N_CLASSES,
        )
        self._losses.extend(history["train_loss"])
        self._samples += cfg.epochs * len(train_y)
        spec = models.build_classifier(cfg, train_x.shape[1], N_CLASSES)
        return lambda x: models.predict(params, spec, x)

    def iterate(self, tracer) -> dict:
        evaluation, models = self.sp["evaluation"], self.sp["models"]
        self._losses, self._samples = [], 0
        t0 = perf_counter()
        cv = evaluation.cross_validate(self._runner, self.x, self.y, k=self.folds, seed=self.seed,
                                       n_classes=N_CLASSES)
        (train_x, train_y), (val_x, val_y) = self.grid_parts
        grid = evaluation.GridSpec(
            initial_neurons=(32, 64, 128), initial_dropout=(0.2, 0.3, 0.4),
            batch_size=(128, 256, 512), l2_penalty=(1e-3, 1e-4),
        )
        base = models.ClassifierConfig(epochs=1, learning_rate=2e-3, seed=self.seed)
        ranked = evaluation.grid_search(
            grid, train_x, train_y, val_x, val_y, base_config=base,
            class_weights=models.compute_class_weights(train_y, N_CLASSES),
            seed=self.seed, jobs=1, n_classes=N_CLASSES,
        )
        samples = self._samples + grid.size() * base.epochs * len(train_y)
        # training calls are nearly all of this part's time
        return {"cv": cv, "grid": ranked, "losses": self._losses, "samples": samples,
                "cells": grid.size(), "train_s": perf_counter() - t0}

    def check(self, out: dict) -> tuple[Checks, str, dict]:
        checks = Checks()
        cv, ranked = out["cv"], out["grid"]
        checks.op("cv losses", len(out["losses"]) == self.folds * self.cv_epochs and _finite(out["losses"]),
                  "non-finite or missing loss")
        checks.op("cv folds", len(cv.fold_reports) == self.folds and _finite([cv.mean_ber]),
                  f"{len(cv.fold_reports)} fold reports")
        keys = [(r.val_ber, -r.val_accuracy, r.index) for r in ranked]
        checks.op("grid rows", len(ranked) == out["cells"] == 54 and keys == sorted(keys)
                  and len({r.index for r in ranked}) == 54 and _finite([k[0] for k in keys]),
                  f"{len(ranked)} ranked rows")
        digest = hashlib.sha256(_json_digest([cv.to_dict(), [r.to_dict() for r in ranked]]))
        return checks, digest.hexdigest(), {"folds": self.folds, "cells": out["cells"]}



class Train(Workload):
    """Both training parts in one iteration: the paper-width path bound by
    BLAS and the small-width path bound by per-call overhead."""

    name = "train"
    throughput = "train_samples_per_s"

    def __init__(self, *args):
        super().__init__(*args)
        self.parts = (TrainWide(*args), TuneSmall(*args))

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def iterate(self, tracer) -> list[dict]:
        outs = []
        for part in self.parts:
            with self.span(tracer, f"bench.{part.name}"):
                outs.append(part.iterate(tracer))
        return outs

    def check(self, outs: list[dict]) -> tuple[Checks, str, dict]:
        checks, digest, facts = Checks(), hashlib.sha256(), {}
        for part, out in zip(self.parts, outs):
            part_checks, part_digest, part_facts = part.check(out)
            checks.attempted += part_checks.attempted
            checks.failures += part_checks.failures
            digest.update(part_digest.encode("ascii"))
            facts.update(part_facts)
        return checks, digest.hexdigest(), facts

    def figures(self, wall: float, outs: list[dict], facts: dict) -> dict:
        wide, small = outs
        report = self.sp["evaluation"].evaluate_predictions(wide["preds"], self.parts[0].parts["test"][1], N_CLASSES)
        return {
            "train_samples_per_s": (wide["samples"] + small["samples"]) / (wide["train_s"] + small["train_s"]),
            "predict_rows_per_s": len(wide["preds"]) / wide["predict_s"],
            "ber": report.ber,
            "cv_ber": small["cv"].mean_ber,
        }


WORKLOADS = {w.name: w for w in (PrepCli, Train)}


ENGINE = ("neural.forward_train", "neural.forward_infer", "neural.backward", "neural.adam_step",
          "neural.loss_weighted_ce", "neural.loss_mse", "neural.l2_term")
LOSSES = ("neural.loss_weighted_ce", "neural.loss_mse", "neural.l2_term")


def layer_metrics(p: Profile, facts: dict) -> dict[str, float]:
    """Per-layer figures of one traced iteration; zero where a layer is idle."""
    ingest_s = p.s("dataset.ingest_csv")
    pairs = p.calls["association.build_contingency"]
    training_s = p.s("models.train_classifier", "models.train_autoencoder")
    engine_s = sum(p.in_training[n] for n in ENGINE)
    data_losses = p.calls["neural.loss_weighted_ce"] + p.calls["neural.loss_mse"]
    folds, cells = facts.get("folds", 0), facts.get("cells", 0)
    m = {
        "dataset.ingest_csv.calls": p.calls["dataset.ingest_csv"],
        "dataset.ingest_csv.s": ingest_s,
        "dataset.ingest_csv.rows_per_s":
            facts.get("csv_rows", 0) * p.calls["dataset.ingest_csv"] / ingest_s if ingest_s else 0.0,
        "dataset.impute.s": p.s("dataset.impute"),
        "dataset.summarize.s": p.s("dataset.summarize"),
        "association.association_matrix.s": p.s("association.association_matrix"),
        "association.pairs": pairs,
        "association.pair_ms":
            1000.0 * p.s("association.association_matrix", "association.select_features") / pairs
            if pairs else 0.0,
        "association.select_features.s": p.s("association.select_features"),
        "preprocess.fit.s": p.s("preprocess.fit_one_hot", "preprocess.fit_standardizer"),
        "preprocess.assemble.s": p.s("preprocess.assemble"),
        "preprocess.stratified_split.s": p.s("preprocess.stratified_split", "preprocess.stratified_allocate"),
        "preprocess.fmx_io.s": p.s("preprocess.save_feature_matrix", "preprocess.load_feature_matrix"),
        "preprocess.fmx_bytes": facts.get("fmx_bytes", 0),
        "neural.forward_train.calls": p.calls["neural.forward_train"],
        "neural.forward_train.ms": p.mean_ms("neural.forward_train"),
        "neural.forward_infer.calls": p.calls["neural.forward_infer"],
        "neural.forward_infer.ms": p.mean_ms("neural.forward_infer"),
        "neural.backward.ms": p.mean_ms("neural.backward"),
        "neural.adam_step.ms": p.mean_ms("neural.adam_step"),
        "neural.loss.ms": 1000.0 * p.s(*LOSSES) / data_losses if data_losses else 0.0,
        "neural.step_share": engine_s / training_s if training_s else 0.0,
        "models.train_classifier.s": p.s("models.train_classifier"),
        "models.train_classifier.self_s": p.self_time["models.train_classifier"],
        "models.train_autoencoder.s": p.s("models.train_autoencoder"),
        "models.train_autoencoder.self_s": p.self_time["models.train_autoencoder"],
        "models.predict.s": p.s("models.predict") - p.in_training["models.predict"],
        "models.encode.s": p.s("models.encode"),
        "evaluation.cross_validate.s": p.s("evaluation.cross_validate"),
        "evaluation.cross_validate.self_s": p.self_time["evaluation.cross_validate"],
        "evaluation.fold.s": p.s("evaluation.cross_validate") / folds if folds else 0.0,
        "evaluation.grid_search.s": p.s("evaluation.grid_search"),
        "evaluation.grid_cell.s": p.s("evaluation.grid_search") / cells if cells else 0.0,
        "evaluation.confusion.calls": p.calls["evaluation.confusion"],
        "cli.stats.s": p.s("cli.stats"),
        "cli.associate.s": p.s("cli.associate"),
        "cli.preprocess.s": p.s("cli.preprocess"),
        "cli.artifact_bytes": facts.get("artifact_bytes", 0),
        "cli.stdout_bytes": facts.get("stdout_bytes", 0),
        "cli.exit_nonzero": facts.get("exit_nonzero", 0),
    }
    for layer in (*LAYERS, "bench"):
        self_s = p.layer_self(layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = self_s / p.wall
    for part in ("train_wide", "tune_small"):
        m[f"bench.{part}.s"] = p.s(f"bench.{part}")
    m["trace.spans"] = sum(p.calls.values())
    return m
