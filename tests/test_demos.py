"""Smoke test of the quick demos: each runs to completion against the
library as it stands, so a demo that drifts from the API fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_dataset_and_stats.py", "02_association_and_selection.py",
         "03_preprocessing_and_splits.py", "07_cli_pipeline.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "TMPDIR": str(tmp_path),
           "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
