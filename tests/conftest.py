import hashlib
import json
import re
import tracemalloc

import pytest

from sevpred import SyntheticSpec, generate_synthetic, write_csv
from sevpred.artifacts import KEYED_FORMAT
from sevpred.dataset import schema_to_dict

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        name = report.nodeid.split("::")[-1]
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion."""
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    def criterion_number(name):
        match = re.match(r"test_c(\d+)", name)
        return int(match.group(1)) if match else 99
    for name in sorted(_ACCEPTANCE_RESULTS, key=criterion_number):
        outcome = _ACCEPTANCE_RESULTS[name]
        status = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{status}  criterion {criterion_number(name)}: {name}")


def make_small_table():
    spec = SyntheticSpec(
        n_rows=400,
        class_proportions=(0.1, 0.5, 0.3, 0.1),
        n_numeric=3,
        n_categorical=2,
        class_shift=1.0,
        seed=21,
    )
    return generate_synthetic(spec)


@pytest.fixture
def small_table():
    return make_small_table()


@pytest.fixture
def csv_workspace(tmp_path, small_table):
    """Synthetic CSV + schema file + config file; returns the directory."""
    return write_workspace(tmp_path, small_table)


def write_workspace(tmp_path, small_table):
    write_csv(small_table, tmp_path / "data.csv")
    with open(tmp_path / "schema.json", "w", encoding="utf-8") as fh:
        json.dump(schema_to_dict(small_table.schema), fh)
    config = {
        "data": {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")},
        "work_dir": str(tmp_path / "out"),
        "seed": 5,
        "association": {"n_bins": 6, "threshold": 0.02, "bias_corrected": False},
        "autoencoder": {"encoder_widths": [8, 4], "epochs": 4, "batch_size": 128, "learning_rate": 0.005},
        "classifier": {
            "initial_neurons": 24, "initial_dropout": 0.2, "batch_size": 128,
            "l2_penalty": 0.0001, "epochs": 3, "learning_rate": 0.003,
            "use_class_weights": True,
        },
        "grid": {
            "initial_neurons": [16, 24], "initial_dropout": [0.2],
            "batch_size": [128], "l2_penalty": [0.001],
        },
        "cv": {"folds": 3},
    }
    with open(tmp_path / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return tmp_path


def strip_meta(payload):
    """Drop wall-clock metadata so reports can be compared exactly."""
    if isinstance(payload, dict):
        return {k: strip_meta(v) for k, v in payload.items() if k != "meta"}
    if isinstance(payload, list):
        return [strip_meta(v) for v in payload]
    return payload


def traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs; tracemalloc sees numpy buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reseal(path, head: dict, data: bytes) -> None:
    """Write the keyed file ``path`` anew from its parsed head line ``head``,
    edited, and its ``data``, edited, under the sha256 that ``save_keyed``
    would give them, so the digest passes and a reader's later checks see
    the edit."""
    manifest = {name: value for name, value in head.items() if name not in ("format", "sha256")}
    body = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    sha256 = hashlib.sha256(body + data).hexdigest()
    path.write_bytes(f'{{"format":"{KEYED_FORMAT}","sha256":"{sha256}",'.encode("utf-8") + body[1:] + b"\n" + data)
