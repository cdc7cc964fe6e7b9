"""Driving the full pipeline through the command-line interface.

Creates a synthetic accident CSV plus schema and config files, then runs the
whole chain (associate -> preprocess -> train-ae, which also writes the
latent code -> train x2 -> cv x2) with one `pipeline` invocation and prints
the resulting two-row model comparison. Also scores the CSV with `predict`.

Run: python demos/07_cli_pipeline.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from sevpred import SyntheticSpec, generate_synthetic, write_csv
from sevpred.dataset import schema_to_dict

work = Path(tempfile.mkdtemp(prefix="sevpred_cli_demo_"))
table = generate_synthetic(
    SyntheticSpec(1500, (0.05, 0.6, 0.3, 0.05), n_numeric=5, n_categorical=2,
                  class_shift=0.9, seed=77)
)
write_csv(table, work / "data.csv")
(work / "schema.json").write_text(json.dumps(schema_to_dict(table.schema)))
config = {
    "data": {"csv": str(work / "data.csv"), "schema": str(work / "schema.json")},
    "work_dir": str(work / "out"),
    "seed": 11,
    "association": {"n_bins": 6, "threshold": 0.05, "bias_corrected": False},
    "autoencoder": {"encoder_widths": [8, 4], "epochs": 10, "batch_size": 128,
                    "learning_rate": 0.005},
    "classifier": {"initial_neurons": 32, "initial_dropout": 0.2, "batch_size": 128,
                   "l2_penalty": 0.0001, "epochs": 6, "learning_rate": 0.003,
                   "use_class_weights": True},
    "cv": {"folds": 4},
}
(work / "config.json").write_text(json.dumps(config, indent=2))


def cli(*args):
    cmd = [sys.executable, "-m", "sevpred.cli", *args, "--config", str(work / "config.json")]
    print("$ sevpred", " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr)
        raise SystemExit(proc.returncode)
    return proc.stdout


cli("stats")
cli("pipeline")
report = json.loads((work / "out" / "pipeline_report.json").read_text())
print("\nmodel comparison (cross-validated):")
print(f"{'model':14s} {'BER':>8s} {'sd':>7s} {'ACC':>8s} {'sd':>7s}")
for row in report["comparison"]:
    print(f"{row['model']:14s} {row['mean_ber']:8.4f} {row['std_ber']:7.4f} "
          f"{row['mean_accuracy']:8.4f} {row['std_accuracy']:7.4f}")

cli("predict")
predictions = (work / "out" / "predictions.csv").read_text().splitlines()
print(f"\npredict wrote {len(predictions) - 1} labels; first rows: {predictions[1:4]}")
print(f"\nartifacts in {work / 'out'}:")
for path in sorted((work / "out").iterdir()):
    print("  ", path.name)
