"""Every function the benchmark's span tracer patches still resolves in the
library namespace it is patched in, so a rename cannot silently untrace it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(namespace, attr) for namespace, attrs in spans.TRACED.items() for attr in attrs]


@pytest.mark.parametrize("namespace, attribute", _traced())
def test_traced_name_resolves(namespace, attribute):
    module = importlib.import_module(f"sevpred.{namespace}")
    assert callable(getattr(module, attribute, None))
