"""Command-line pipeline driver.

Stages exchange artifacts through files in the work directory, so the
workflow the evaluation harness implies (tune, cross-validate, ablate class
weights) can re-run any stage independently. All randomness flows from one
master seed via labeled derivation, making every report a deterministic
function of the config; wall-clock metadata lives under a separate "meta"
key so reports stay byte-comparable. A stage is skipped while its lineage
record in ``<work_dir>/lineage.json`` (what it read and wrote) still holds.

Exit codes: 0 success, 1 usage/config error, 2 data error (or an input or
model too large for this machine's memory), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import copy
import csv as csv_module
import datetime
import functools
import hashlib
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .association import AssociationMatrix, association_matrix, select_features
from .artifacts import atomic_write, file_sha256, json_fits, load_json_artifact, load_keyed, save_keyed
from .dataset import ColumnKind, SchemaSpec, Table, impute, ingest_csv, load_schema, load_table
from .dataset import save_table, summarize
from .errors import DataError, NumericError, PipelineError
from .evaluation import GridSpec, cross_validate, evaluate_predictions, grid_search
from .models import (
    AutoencoderConfig,
    ClassifierConfig,
    ClassWeights,
    build_autoencoder,
    build_classifier,
    compute_class_weights,
    encode,
    predict,
    train_autoencoder,
    train_classifier,
)
from .neural import load_model, save_model
from .preprocess import (
    FeatureMatrix,
    SplitIndices,
    assemble,
    fit_one_hot,
    fit_standardizer,
    load_feature_matrix,
    load_preprocessor,
    load_splits,
    save_feature_matrix,
    save_preprocessor,
    save_splits,
    stratified_split,
)
from .rng import SEEDS, derive_seed


def _settable(config, *skip: str) -> dict:
    """A library config's defaults as settings, tuples as lists; the seed
    derives from the master seed, so it is not one of them."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(config) if f.name not in ("seed", *skip)}


DEFAULTS: dict = {
    "data": {"csv": None, "schema": None},
    "work_dir": "sevpred_out",
    "seed": 7,
    "association": {"n_bins": 10, "threshold": 0.2, "bias_corrected": False},
    "split": {"ratios": [0.6, 0.2, 0.2]},
    "autoencoder": _settable(AutoencoderConfig, "input_dim", "hidden_activation"),
    "classifier": _settable(ClassifierConfig),
    "use_encoder": False,
    "grid": _settable(GridSpec),
    "cv": {"folds": 10},
    "predict": {"model": None},
}

# the most quantile bins per numeric column; bin_numeric sizes arrays by it
MAX_BINS = 100_000


class ConfigError(PipelineError):
    """Bad configuration or usage; maps to exit code 1."""


def _deep_merge(base: dict, override: dict, prefix: str = "") -> dict:
    """``base`` with ``override`` laid over it: an object merges into an
    object, any other value replaces. ConfigError, naming the dotted key, for
    an object that lands on a non-object."""
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and key in out:
            if not isinstance(out[key], dict):
                raise ConfigError(f"setting {prefix}{key} is not an object, so an object cannot merge into it")
            value = _deep_merge(out[key], value, f"{prefix}{key}.")
        out[key] = value
    return out


def _shape(default):
    """The ``json_fits`` shape a setting takes: its default's type, a list's
    first item's shape, and a string or null for a null default."""
    if isinstance(default, list):
        return [_shape(default[0])]
    return (str, type(None)) if default is None else type(default)


def _check_types(settings: dict, defaults: dict, prefix: str = "") -> None:
    """ConfigError for a key that DEFAULTS lacks or a value of another type."""
    for key, value in settings.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be an object, got {value!r}")
            _check_types(value, default, name + ".")
        elif not json_fits(value, SEEDS if name == "seed" else _shape(default)):
            raise ConfigError(f"{name} must match the type of its default {default!r}, got {value!r}")


def validate(settings: dict) -> None:
    """ConfigError unless ``settings`` (defaults <- config file <- --set and
    flags) have their defaults' types and build the library's configs, so a
    bad value exits 1 before any input is read."""
    _check_types(settings, DEFAULTS)
    threshold = settings["association"]["threshold"]
    if not (0.0 <= threshold <= 1.0):
        raise ConfigError(f"association.threshold must be in [0, 1], got {threshold}")
    ratios = settings["split"]["ratios"]
    if len(ratios) != 3 or any(r <= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split.ratios must be three positive values summing to 1, got {ratios}")
    if settings["cv"]["folds"] < 2:
        raise ConfigError("cv.folds must be at least 2")
    if not settings["work_dir"]:  # Path("") is the current directory
        raise ConfigError("work_dir must be a non-empty path")
    n_bins = settings["association"]["n_bins"]
    if not 2 <= n_bins <= MAX_BINS:
        raise ConfigError(f"association.n_bins must be in 2..{MAX_BINS}, got {n_bins}")
    base = _built("classifier", lambda: ClassifierConfig(**settings["classifier"], seed=0))
    _built("grid", lambda: [replace(base, **cell) for cell in GridSpec(**settings["grid"]).cells()])
    # the widest encoder width stands in for the data's width, which
    # stage_train_ae checks against the latent width
    ae = settings["autoencoder"]
    _built("autoencoder", lambda: AutoencoderConfig(**ae, input_dim=max(ae["encoder_widths"], default=0)))


def _built(section: str, build):
    """``build()``, with a DataError from a library config reported as a
    ConfigError in ``section``."""
    try:
        return build()
    except DataError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _data_paths(work: WorkDir) -> tuple[Path, Path]:
    csv_path, schema_path = work["data"]["csv"], work["data"]["schema"]
    if not csv_path or not schema_path:
        raise ConfigError("data.csv and data.schema must be set")
    csv_path, schema_path = Path(csv_path), Path(schema_path)
    for p in (csv_path, schema_path):
        if not p.exists():
            raise ConfigError(f"input path does not exist: {p}")
    return csv_path, schema_path


def _parse_set(expr: str) -> dict:
    """``--set a.b=v`` as the overlay ``{"a": {"b": v}}``."""
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return functools.reduce(lambda inner, name: {name: inner}, reversed(key.split(".")), value)


def build_config(args: argparse.Namespace) -> dict:
    """The validated settings: defaults <- config file <- --set <- flags, each
    source one overlay merged in that order. The flags are shorthands for
    --set."""
    overlays = []
    if args.config:
        path = Path(args.config)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except OSError as exc:  # missing, a directory, or unreadable
            raise ConfigError(f"config file {path}: {exc.strerror}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        overlays.append(file_cfg)
    overlays += [_parse_set(expr) for expr in args.set or []]
    if args.seed is not None:
        overlays.append({"seed": args.seed})
    if args.work_dir is not None:
        overlays.append({"work_dir": args.work_dir})
    if args.no_class_weights:
        overlays.append({"classifier": {"use_class_weights": False}})
    settings = copy.deepcopy(DEFAULTS)
    for overlay in overlays:
        settings = _deep_merge(settings, overlay)
    validate(settings)
    return settings


# -- the work dir and its artifacts ---------------------------------------------

MADE_BY = {  # artifact -> the stage that writes it, for the hint when it is missing
    "table.cache": "stats",
    "association.cache": "associate", "selection.json": "associate",
    "features.fmx": "preprocess", "splits.json": "preprocess", "targets.json": "preprocess",
    "preprocessor.json": "preprocess",
    "latent.fmx": "train-ae", "autoencoder.model": "train-ae",
    "classifier.model": "train", "classifier_encoded.model": "train",
    "cv_report.json": "cv", "cv_report_encoded.json": "cv",
}


# A keyed cache is keyed by the lineage inputs that decide what it holds (see
# WorkDir.key), and a read checks it against its own sha256, so it is no input
# of the stage that reads it. It is an output of the stage that writes it,
# which a damaged one re-runs.
KEYED_CACHES = ("table.cache", "association.cache")


class WorkDir:
    """One stage run's trace: the settings, the directory through which
    stages pass artifacts, and what the run read and wrote, for its lineage
    record. ``work[section]`` is ``settings[section]``, recorded as the input
    ``settings.<section>``: a body's control flow depends only on what it
    read, so while those reads and its other inputs are unchanged it would
    do the same again. ``read`` is a DataError naming the stage that makes a
    missing artifact, and records the artifact it hands out, a keyed cache
    aside; ``write`` makes the directory, so a stage that fails before its
    first write leaves none."""

    def __init__(self, settings: dict):
        self.settings = settings
        self.root = Path(settings["work_dir"])
        self.inputs: dict = {"environment": _environment()}  # input -> its _input value
        self.outputs: list[str] = []
        self.keyed = True  # false once the CSV no longer hashes as it did before it was parsed

    def note(self, name: str):
        """Input ``name`` as ``_input`` gives it, recorded the first time
        this run reads it, so a run hashes each input file once."""
        if name not in self.inputs:
            self.inputs[name] = _input(name, self)
        return self.inputs[name]

    def __getitem__(self, section: str):
        return self.note(f"settings.{section}")

    def read(self, name: str) -> Path:
        path = self.root / name
        if not path.exists():
            raise DataError(f"missing artifact {name}; run `sevpred {MADE_BY[name]}` first")
        if name not in KEYED_CACHES:
            self.note(name)
        return path

    def write(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.root / name

    def key(self, **settings) -> dict:
        """A keyed cache's key: the lineage inputs ``data.csv``,
        ``data.schema`` and ``environment``, then ``settings``."""
        return {name: self.note(name) for name in ("data.csv", "data.schema", "environment")} | settings


# -- lineage: a stage whose settings, inputs and outputs are unchanged is skipped

RECORD = {"inputs": dict, "outputs": {str: str}, "payload": {"meta": dict}}


@functools.cache
def _package_digest() -> str:
    """sha256 of this package's own source files, once per process."""
    package = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(f"{path.relative_to(package)}\0".encode("utf-8"))
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _environment() -> dict:
    """What besides its settings and inputs decides a stage's outputs: the
    package's code, numpy's version and the threads BLAS may use."""
    return {
        "package": _package_digest(),
        "numpy": np.__version__,
        "threads": {name: value for name, value in sorted(os.environ.items()) if name.endswith("_NUM_THREADS")},
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def _lineage(root: Path) -> dict:
    """The stage records in ``<root>/lineage.json``, a keyed file under the
    empty key: none if the file is absent or ``load_keyed`` refuses it, so a
    cut, edited or foreign file holds no record."""
    try:
        manifest, _ = load_keyed(root / "lineage.json", {}, "lineage", {"stages": {str: RECORD}}, lambda _: [])
    except (OSError, DataError):
        return {}
    return manifest["stages"]


def _input(name: str, work: WorkDir):
    """Input ``name`` of a lineage record as it is now: a settings section,
    the ``_environment`` this run took, or the sha256 of the CSV, the
    schema, a ``predict.model`` override or a work-dir file."""
    if name.startswith("settings."):
        return work.settings[name.removeprefix("settings.")]
    if name == "environment":
        return work.inputs[name]
    if name in ("data.csv", "data.schema", "predict.model"):
        section, field = name.split(".")
        return file_sha256(work.settings[section][field])
    return file_sha256(work.root / name)


def _holds(record: dict, work: WorkDir) -> bool:
    """Whether a stage's lineage ``record`` still holds: each input, then
    each output, is as it was, in canonical JSON (so ``1`` and ``1.0``
    differ); settings and environment first, so a changed one costs no hashing."""
    inputs = sorted(record["inputs"].items(), key=lambda item: not item[0].startswith(("settings.", "environment")))
    try:
        return all(json.dumps(_input(name, work), sort_keys=True) == json.dumps(value, sort_keys=True)
                   for name, value in [*inputs, *record["outputs"].items()])
    except (LookupError, OSError, ValueError, TypeError, PipelineError):  # gone or unreadable: the stage runs
        return False


def _suffix(settings: dict | WorkDir) -> str:
    """What the ``use_encoder`` variant adds to the names of its artifacts,
    seeds and lineage record."""
    return "_encoded" if settings["use_encoder"] else ""


def _recorded(stage: str):
    """The stage function ``body(work)`` as ``fn(settings)``, run under its
    lineage record in ``<work_dir>/lineage.json``: the run's inputs (the
    ``_environment`` and what ``body`` read through ``work.note``), the
    sha256 of every file it wrote, and the payload it printed.
    While the record holds, the stage does no work and writes nothing: it
    returns the stored payload with ``"skipped": true`` in its "meta". A
    record that does not hold, or none, is a normal run, never an error;
    only a run that succeeds, with the CSV still hashing as it did before it
    was parsed, rewrites the record. A file the run writes is an output, not
    an input: no stage derives a file from its own last copy.
    ``lineage.json`` is read once per run, so of two processes recording at
    once the last rename wins and the other's stage runs again next time.
    """
    def wrap(body):
        @functools.wraps(body)
        def run(settings: dict) -> dict:
            work = WorkDir(settings)
            # work_dir and use_encoder pick the record, so they are read unrecorded;
            # train and cv keep one set of outputs per variant, one record each
            name = stage + _suffix(settings) if stage in ("train", "cv") else stage
            stages = _lineage(work.root)
            record = stages.get(name)
            if record is not None and _holds(record, work):
                record["payload"]["meta"]["skipped"] = True
                return record["payload"]
            payload = body(work)
            if work.keyed:
                outputs = {output: file_sha256(work.root / output) for output in work.outputs}
                inputs = {i: value for i, value in work.inputs.items() if i not in outputs}
                stages[name] = {"inputs": inputs, "outputs": outputs, "payload": payload}
                save_keyed(work.root / "lineage.json", {}, {"stages": stages}, [])
            return payload

        return run

    return wrap


def _meta(stage: str) -> dict:
    return {
        "stage": stage,
        "tool_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _write_csv_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv_module.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _source(work: WorkDir) -> tuple[Path, SchemaSpec]:
    """``data.csv`` and its schema, whose sha256s ``work`` records as inputs
    the first time a run asks, so a second call hashes nothing. The schema
    is hashed before it is parsed, so one edited in between is recorded as
    its older bytes, and the next run runs again."""
    csv_path, schema_path = _data_paths(work)
    work.note("data.schema")
    schema = load_schema(schema_path)
    work.note("data.csv")
    return csv_path, schema


def _ingest(work: WorkDir, csv_path: Path, schema: SchemaSpec, require_target: bool = True) -> Table:
    """``ingest_csv``'s table of ``csv_path``, then the CSV hashed again:
    unless it still hashes as ``_source`` recorded, it was rewritten while
    it was parsed, and ``work.keyed`` turns false, so the stage keeps
    nothing it derives from the table and leaves no lineage record either."""
    table = ingest_csv(csv_path, schema, require_target=require_target)
    work.keyed &= file_sha256(csv_path) == work.inputs["data.csv"]
    return table


def _load_table(work: WorkDir, *, imputed: bool = True) -> Table:
    """The labeled table of ``data.csv`` under the schema, as ``stats``,
    ``associate`` and ``preprocess`` get it. ``work`` is the stage's trace,
    which records what was read.

    ``ingest_csv``'s result is kept in ``<work_dir>/table.cache`` under
    ``work.key()``, the lineage inputs that decide it: the sha256s of the
    CSV and the schema, and the environment, which holds the code of the
    ingest rules. A stage whose key matches reads the table back instead of
    parsing the CSV; a cache that is absent, cut, corrupt or keyed otherwise
    is a miss, never an error. A miss is written only if ``_ingest`` leaves
    ``work.keyed`` true (the work dir is not made before then).
    """
    csv_path, schema = _source(work)
    try:
        table = load_table(work.read("table.cache"), schema, work.key())
    except (OSError, DataError):
        table = _ingest(work, csv_path, schema)
        if work.keyed:
            save_table(work.write("table.cache"), table, work.key())
    return impute(table) if imputed else table


# -- stages ---------------------------------------------------------------------

@_recorded("stats")
def stage_stats(work: WorkDir) -> dict:
    table = _load_table(work, imputed=False)
    payload = summarize(table)
    payload["meta"] = _meta("stats")
    _write_json(work.write("stats.json"), payload)
    return payload


@_recorded("associate")
def stage_associate(work: WorkDir) -> dict:
    """Cramer's V over every schema column and the selection it implies.

    The matrix is kept in ``<work_dir>/association.cache`` under
    ``work.key`` of ``n_bins`` and ``bias_corrected``: those, the sha256s of
    the CSV and the schema, and the environment, which holds the code of the
    ingest, imputation and matrix rules. The threshold is not in the key. A
    stage whose key matches writes both artifacts from the kept matrix
    without reading the table; a cache that is absent, cut, corrupt or keyed
    otherwise is a miss, never an error. A miss computes the matrix from
    ``_load_table``'s table and keeps it only if that table is the keyed CSV's.
    """
    _, schema = _source(work)
    assoc_cfg = work["association"]
    key = work.key(n_bins=assoc_cfg["n_bins"], bias_corrected=assoc_cfg["bias_corrected"])
    n = len(schema.names)
    try:
        _, (values,) = load_keyed(work.read("association.cache"), key, "matrix", {}, lambda _: [("<f8", n * n)])
        matrix = AssociationMatrix(tuple(schema.names), values.reshape(n, n))
    except (OSError, DataError):
        table = _load_table(work)
        matrix = association_matrix(
            table, n_bins=assoc_cfg["n_bins"], bias_corrected=assoc_cfg["bias_corrected"]
        )
        if work.keyed:
            save_keyed(work.write("association.cache"), key, {}, [("<f8", matrix.values)])
    rows = [
        [label, *[repr(float(v)) for v in matrix.values[i]]]
        for i, label in enumerate(matrix.labels)
    ]
    _write_csv_rows(work.write("association_matrix.csv"), ["", *matrix.labels], rows)
    report = select_features(matrix, schema.target, assoc_cfg["threshold"])
    payload = {
        "threshold": report.threshold,
        "ranked": [[name, v] for name, v in report.ranked],
        "selected": list(report.selected),
        "meta": _meta("associate"),
    }
    _write_json(work.write("selection.json"), payload)
    return payload


@_recorded("preprocess")
def stage_preprocess(work: WorkDir) -> dict:
    table = _load_table(work)
    selection = work.read("selection.json")
    selected = load_json_artifact(selection, "selection", {"selected": [str]})["selected"]
    if not selected:
        raise DataError("feature selection is empty; lower association.threshold")
    repeated = [name for i, name in enumerate(selected) if name in selected[:i]]
    if repeated:
        raise DataError(f"{selection}: selected names column {repeated[0]!r} more than once")

    splits = stratified_split(
        table.target, tuple(work["split"]["ratios"]), seed=derive_seed(work["seed"], "split")
    )
    categorical = [
        n for n in selected
        if table.schema.kind_of(n) in (ColumnKind.CATEGORICAL, ColumnKind.BOOLEAN)
    ]
    numeric = [n for n in selected if table.schema.kind_of(n) == ColumnKind.NUMERIC]
    codec = fit_one_hot(table, categorical, rows=splits.train)
    standardizer = fit_standardizer(table, numeric, rows=splits.train)
    column_order = [n for n in table.schema.names if n in set(selected)]
    features = assemble(table, codec, standardizer, column_order)

    # every model and the latent code were fit on the old split and scaling
    for stale in ("autoencoder.model", "latent.fmx", "classifier.model", "classifier_encoded.model"):
        (work.root / stale).unlink(missing_ok=True)
    save_feature_matrix(work.write("features.fmx"), features)
    save_splits(work.write("splits.json"), splits)
    save_preprocessor(work.write("preprocessor.json"), codec, standardizer, column_order)
    payload = {
        "n_rows": table.n_rows,
        "n_dropped_missing_target": table.n_dropped,
        "width": features.d,
        "selected": list(selected),
        "split_sizes": {k: int(len(v)) for k, v in splits.parts().items()},
        "labels": table.target.tolist(),
        "target_cardinality": table.schema.target_cardinality,
        "meta": _meta("preprocess"),
    }
    _write_json(work.write("targets.json"), payload)
    # targets.json keeps the labels for later stages; the printed summary
    # stays small at any row count
    del payload["labels"]
    return payload


def _load_features(work: WorkDir, *, encoded: bool) -> tuple[FeatureMatrix, np.ndarray, int]:
    features = load_feature_matrix(work.read("latent.fmx" if encoded else "features.fmx"))
    targets = load_json_artifact(
        work.read("targets.json"), "targets", {"labels": [int], "target_cardinality": int}
    )
    labels = np.asarray(targets["labels"], dtype=np.int64)
    if len(labels) != features.n:
        raise DataError("targets.json row count does not match the feature matrix")
    return features, labels, targets["target_cardinality"]


def _load_splits(work: WorkDir, n_rows: int) -> SplitIndices:
    """The saved split; DataError if an index falls outside the feature
    matrix's ``n_rows`` rows, where a negative one would count from the end."""
    path = work.read("splits.json")
    splits = load_splits(path)
    for part, idx in splits.parts().items():
        if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
            raise DataError(f"{path}: {part} index outside [0, {n_rows})")
    return splits


@_recorded("train-ae")
def stage_train_ae(work: WorkDir) -> dict:
    features, _, _ = _load_features(work, encoded=False)
    splits = _load_splits(work, features.n)
    ae_cfg = work["autoencoder"]
    cfg = AutoencoderConfig(**ae_cfg, input_dim=features.d, seed=derive_seed(work["seed"], "train-ae"))
    params, history = train_autoencoder(cfg, features.values[splits.train], features.values[splits.val])
    spec = build_autoencoder(cfg)
    meta = {"kind": "autoencoder", "config": dict(ae_cfg), "seed": cfg.seed, "latent_dim": cfg.latent_dim}
    # the encoded classifier was fit on the old latent code
    (work.root / "classifier_encoded.model").unlink(missing_ok=True)
    save_model(work.write("autoencoder.model"), spec, params, meta)
    # the code comes from the autoencoder just saved, so the two never disagree
    save_feature_matrix(work.write("latent.fmx"), encode(spec, params, features))
    payload = {"history": history, "config": dict(ae_cfg), "seed": cfg.seed, "meta": _meta("train-ae")}
    _write_json(work.write("ae_history.json"), payload)
    return payload


def _classifier_config(work: WorkDir, seed: int) -> ClassifierConfig:
    return ClassifierConfig(**work["classifier"], seed=seed)


def _maybe_weights(work: WorkDir, labels: np.ndarray, k: int) -> ClassWeights | None:
    if not work["classifier"]["use_class_weights"]:
        return None
    return compute_class_weights(labels, k)


@_recorded("train")
def stage_train(work: WorkDir) -> dict:
    encoded, suffix = work["use_encoder"], _suffix(work)
    features, labels, k = _load_features(work, encoded=encoded)
    splits = _load_splits(work, features.n)

    cfg = _classifier_config(work, derive_seed(work["seed"], f"train{suffix}"))
    weights = _maybe_weights(work, labels[splits.train], k)
    params, history = train_classifier(
        cfg,
        features.values[splits.train], labels[splits.train],
        features.values[splits.val], labels[splits.val],
        class_weights=weights, n_classes=k,
    )
    spec = build_classifier(cfg, features.d, k)
    meta = {
        "kind": "classifier",
        "encoded_input": encoded,
        "config": dict(work["classifier"]),
        "seed": cfg.seed,
        "class_weights": None if weights is None else weights.w.tolist(),
    }
    save_model(work.write(f"classifier{suffix}.model"), spec, params, meta)

    preds = predict(params, spec, features.values[splits.test])
    report = evaluate_predictions(preds, labels[splits.test], k)
    _write_json(work.write(f"history{suffix}.json"), {
        "history": history, "config": dict(work["classifier"]),
        "seed": cfg.seed, "meta": _meta("train"),
    })
    payload = {"test": report.to_dict(), "encoded_input": encoded, "meta": _meta("train")}
    _write_json(work.write(f"test_metrics{suffix}.json"), payload)
    return payload


@_recorded("grid")
def stage_grid(work: WorkDir) -> dict:
    features, labels, k = _load_features(work, encoded=False)
    splits = _load_splits(work, features.n)
    grid = GridSpec(**work["grid"])
    base = _classifier_config(work, derive_seed(work["seed"], "grid-base"))
    weights = _maybe_weights(work, labels[splits.train], k)
    results = grid_search(
        grid,
        features.values[splits.train], labels[splits.train],
        features.values[splits.val], labels[splits.val],
        base_config=base, class_weights=weights,
        seed=derive_seed(work["seed"], "grid"), n_classes=k,
    )
    payload = {
        "grid": work["grid"],
        "n_cells": grid.size(),
        "ranked": [r.to_dict() for r in results],
        "meta": _meta("grid"),
    }
    _write_json(work.write("grid_report.json"), payload)
    header = ["rank", "cell", *(f.name for f in fields(grid)),
              "seed", "val_ber", "val_accuracy", "best_epoch"]
    rows = [
        [rank, r.index, *r.config.values(), r.seed, repr(r.val_ber), repr(r.val_accuracy), r.best_epoch]
        for rank, r in enumerate(results)
    ]
    _write_csv_rows(work.write("grid_report.csv"), header, rows)
    return payload


def _cv_runner(work: WorkDir, k: int):
    def runner(train_x, train_y, val_x, val_y, seed):
        cfg = _classifier_config(work, seed)
        params, _ = train_classifier(
            cfg, train_x, train_y, val_x, val_y,
            class_weights=_maybe_weights(work, train_y, k), n_classes=k,
        )
        spec = build_classifier(cfg, train_x.shape[1], k)
        return lambda x: predict(params, spec, x)

    return runner


@_recorded("cv")
def stage_cv(work: WorkDir) -> dict:
    encoded, suffix = work["use_encoder"], _suffix(work)
    features, labels, k = _load_features(work, encoded=encoded)
    result = cross_validate(
        _cv_runner(work, k),
        features.values, labels,
        k=work["cv"]["folds"],
        seed=derive_seed(work["seed"], f"cv{suffix}"),
        n_classes=k,
    )
    payload = {
        "encoded_input": encoded,
        "config": dict(work["classifier"]),
        **result.to_dict(),
        "meta": _meta("cv"),
    }
    _write_json(work.write(f"cv_report{suffix}.json"), payload)
    rows = [
        [i, repr(r.accuracy), repr(r.ber)] for i, r in enumerate(result.fold_reports)
    ]
    rows.append(["mean", repr(result.mean_accuracy), repr(result.mean_ber)])
    rows.append(["std", repr(result.std_accuracy), repr(result.std_ber)])
    _write_csv_rows(work.write(f"cv_report{suffix}.csv"), ["fold", "accuracy", "ber"], rows)
    return payload


@_recorded("predict")
def stage_predict(work: WorkDir) -> dict:
    # read directly: a table without its target would evict the labeled one
    table = impute(_ingest(work, *_source(work), require_target=False))
    codec, standardizer, column_order = load_preprocessor(work.read("preprocessor.json"))
    features = assemble(table, codec, standardizer, column_order)
    if work["use_encoder"]:
        ae_spec, ae_params, _ = load_model(work.read("autoencoder.model"))
        features = encode(ae_spec, ae_params, features)
    if work["predict"]["model"]:
        work.note("predict.model")
    model_path = Path(work["predict"]["model"] or work.read(f"classifier{_suffix(work)}.model"))
    spec, params, _ = load_model(model_path)
    last, k = spec.layers[-1], table.schema.target_cardinality
    if getattr(last, "activation", None) != "softmax" or last.fan_out != k:
        raise DataError(f"{model_path}: not a {k}-class classifier (a {k}-way softmax last layer)")
    preds = predict(params, spec, features)
    rows = [[i, int(label)] for i, label in enumerate(preds)]
    _write_csv_rows(work.write("predictions.csv"), ["row", "severity_pred"], rows)
    return {
        "n_rows": table.n_rows,
        "n_dropped_missing_target": table.n_dropped,
        "output": str(Path(work["work_dir"], "predictions.csv")),  # a setting read, so the record holds it
        "meta": _meta("predict"),
    }


def stage_pipeline(settings: dict) -> dict:
    """Full chain: associate -> preprocess -> train-ae (which writes the
    latent code) -> train x2 variants -> cv x2 variants, ending in a two-row
    comparison. Each stage, the comparison included, keeps its own lineage
    record, so a re-run redoes only the stages whose record no longer holds."""
    stage_associate(settings)
    stage_preprocess(settings)
    stage_train_ae(settings)
    for stage in (stage_train, stage_cv):
        for encoded in (False, True):
            stage({**settings, "use_encoder": encoded})
    return _compare(settings)


COMPARED = ("mean_ber", "std_ber", "mean_accuracy", "std_accuracy")


@_recorded("pipeline")
def _compare(work: WorkDir) -> dict:
    """``pipeline``'s report: the two variants' CV figures side by side."""
    def row(name: str, suffix: str) -> dict:
        path = work.read(f"cv_report{suffix}.json")
        report = load_json_artifact(path, "CV report", {field: float for field in COMPARED})
        return {"model": name, **{field: report[field] for field in COMPARED}}

    payload = {
        "comparison": [row("encoder+dnn", "_encoded"), row("dnn", "")],
        "class_weights_enabled": work["classifier"]["use_class_weights"],
        "meta": _meta("pipeline"),
    }
    _write_json(work.write("pipeline_report.json"), payload)
    return payload


STAGES = {
    "stats": stage_stats,
    "associate": stage_associate,
    "preprocess": stage_preprocess,
    "train-ae": stage_train_ae,
    "train": stage_train,
    "grid": stage_grid,
    "cv": stage_cv,
    "predict": stage_predict,
    "pipeline": stage_pipeline,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(json.dumps({"error": {"type": "UsageError", "message": message}}), file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sevpred", description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=sorted(STAGES), help="pipeline stage to run")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override any config scalar, e.g. --set association.threshold=0.1")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--work-dir", help="artifact directory override")
    parser.add_argument("--no-class-weights", action="store_true",
                        help="train without class weights (the ablation switch)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = STAGES[args.command](build_config(args))
        print(json.dumps(payload, indent=2))
        return 0
    except (PipelineError, OSError, MemoryError) as exc:  # MemoryError: too large for this machine
        error = {"type": type(exc).__name__, "message": str(exc), "stage": args.command}
        print(json.dumps({"error": error}), file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 3 if isinstance(exc, NumericError) else 2


if __name__ == "__main__":
    sys.exit(main())
