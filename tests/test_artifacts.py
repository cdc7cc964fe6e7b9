import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import sevpred
from sevpred import Dense, Dropout, FeatureMatrix, NetworkSpec, init_params
from sevpred.artifacts import KEYED_FORMAT, atomic_write, load_keyed, save_keyed
from sevpred.cli import _write_json
from sevpred.errors import DataError
from sevpred.neural import load_model, save_model
from sevpred.preprocess import (
    OneHotCodec,
    Standardizer,
    load_feature_matrix,
    load_preprocessor,
    save_feature_matrix,
    save_preprocessor,
)


def write_fmx(path):
    fm = FeatureMatrix(np.arange(12, dtype=np.float64).reshape(4, 3), ("a", "b", "c"))
    save_feature_matrix(path, fm)


def write_compact_fmx(path):
    numeric = np.arange(8, dtype=np.float64).reshape(4, 2)
    codes = np.array([[0, 2], [1, -1], [-1, 0], [0, 1]], dtype=np.int32)
    blocks = (("numeric", 1), ("one_hot", 2), ("numeric", 1), ("one_hot", 3))
    fm = FeatureMatrix(numeric, ("a", "b=x", "b=y", "c", "d=x", "d=y", "d=z"), codes, blocks)
    save_feature_matrix(path, fm)


def write_model(path):
    spec = NetworkSpec((Dense(3, 5, "relu"), Dropout(0.1), Dense(5, 2, "softmax")))
    save_model(path, spec, init_params(spec, seed=3), {"kind": "test"})


FORMATS = {
    "fmx": (write_fmx, load_feature_matrix),
    "fmx-compact": (write_compact_fmx, load_feature_matrix),
    "model": (write_model, load_model),
}


class TestTruncatedArtifacts:
    @pytest.mark.parametrize("kind", sorted(FORMATS))
    @pytest.mark.parametrize("where", ["empty", "mid-manifest", "before-newline",
                                       "manifest-only", "mid-blob", "last-byte"])
    def test_truncation_is_data_error(self, tmp_path, kind, where):
        write, load = FORMATS[kind]
        path = tmp_path / f"artifact.{kind}"
        write(path)
        data = path.read_bytes()
        line_end = data.index(b"\n")
        cut = {
            "empty": 0,
            "mid-manifest": line_end // 2,
            "before-newline": line_end,
            "manifest-only": line_end + 1,
            "mid-blob": line_end + 1 + (len(data) - line_end - 1) // 2 + 3,  # off a float boundary
            "last-byte": len(data) - 1,
        }[where]
        path.write_bytes(data[:cut])
        with pytest.raises(DataError):
            load(path)

    @pytest.mark.parametrize("kind", sorted(FORMATS))
    def test_trailing_bytes_are_data_error(self, tmp_path, kind):
        write, load = FORMATS[kind]
        path = tmp_path / f"artifact.{kind}"
        write(path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(DataError):
            load(path)


KEY = {"data.csv": "0" * 64, "n_bins": 10}
FIELDS = {"labels": ["a", "\u00e9", ""]}
# a keyed file's sections: none, as lineage.json has, or two of two dtypes
SECTIONS = {
    "none": [],
    "two": [("<f8", np.array([[1.5, -0.0], [np.nan, 2.0]])), ("<i4", np.array([3, -1, 7]))],
}


def save_layout(path, layout: str) -> bytes:
    """Write the keyed file of ``layout`` to ``path``; its bytes."""
    save_keyed(path, KEY, FIELDS, SECTIONS[layout])
    return path.read_bytes()


def load_layout(path, layout: str, key: dict = KEY):
    return load_keyed(path, key, "test", {"labels": [str]},
                      lambda manifest: [(dtype, np.size(a)) for dtype, a in SECTIONS[layout]])


class TestKeyedFile:
    """``save_keyed``/``load_keyed``, the one layout of the work dir's
    keyed files: a read gives back the manifest and the sections bit for
    bit, and any other key, flipped byte or cut is a DataError."""

    @pytest.mark.parametrize("layout", sorted(SECTIONS))
    def test_round_trip(self, tmp_path, layout):
        save_layout(tmp_path / "file", layout)
        manifest, arrays = load_layout(tmp_path / "file", layout)
        assert manifest == {"key": KEY, **FIELDS}
        assert [(a.dtype, a.tobytes()) for a in arrays] == \
            [(np.dtype(dtype), np.asarray(a, dtype).tobytes()) for dtype, a in SECTIONS[layout]]

    def test_without_sections_is_one_json_text(self, tmp_path):
        """The head line is the whole file, and its sha256 is that of the
        manifest's compact JSON bytes."""
        whole = save_layout(tmp_path / "file", "none")
        body = json.dumps({"key": KEY, **FIELDS}, separators=(",", ":")).encode("utf-8")
        assert json.loads(whole) == {"format": KEYED_FORMAT, "sha256": hashlib.sha256(body).hexdigest(),
                                     "manifest": {"key": KEY, **FIELDS}}
        assert whole.endswith(body + b"}\n")

    @pytest.mark.parametrize("layout", sorted(SECTIONS))
    def test_other_key_is_data_error(self, tmp_path, layout):
        save_layout(tmp_path / "file", layout)
        for key in ({**KEY, "n_bins": 11}, {"data.csv": KEY["data.csv"]}, {}):
            with pytest.raises(DataError, match="key"):
                load_layout(tmp_path / "file", layout, key)

    @pytest.mark.parametrize("layout", sorted(SECTIONS))
    def test_every_flipped_byte_is_data_error(self, tmp_path, layout):
        path = tmp_path / "file"
        whole = save_layout(path, layout)
        for offset in range(len(whole)):
            for mask in (0x01, 0x20, 0xff):
                damaged = bytearray(whole)
                damaged[offset] ^= mask
                path.write_bytes(damaged)
                with pytest.raises(DataError):
                    load_layout(path, layout)

    @pytest.mark.parametrize("layout", sorted(SECTIONS))
    def test_every_cut_is_data_error(self, tmp_path, layout):
        """Every cut, down to the last byte alone: with no sections, the
        final newline."""
        path = tmp_path / "file"
        whole = save_layout(path, layout)
        for cut in range(len(whole)):
            path.write_bytes(whole[:cut])
            with pytest.raises(DataError):
                load_layout(path, layout)

    @pytest.mark.parametrize("layout", sorted(SECTIONS))
    def test_trailing_bytes_are_data_error(self, tmp_path, layout):
        path = tmp_path / "file"
        path.write_bytes(save_layout(path, layout) + b"\n")
        with pytest.raises(DataError):
            load_layout(path, layout)


class TestAtomicWrite:
    def test_failed_block_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "w", encoding="utf-8") as fh:
                fh.write("partial")
                raise RuntimeError("disk full")
        assert path.read_text() == "previous"
        assert list(tmp_path.iterdir()) == [path]

    def test_nested_writers_of_one_path_both_complete(self, tmp_path):
        """Two writers of one path each rename a whole file of their own;
        the last to complete leaves its bytes and no temporary remains."""
        path = tmp_path / "out.txt"
        with atomic_write(path, "w", encoding="utf-8") as outer:
            outer.write("outer")
            with atomic_write(path, "w", encoding="utf-8") as inner:
                inner.write("inner")
            assert path.read_text() == "inner"
        assert path.read_text() == "outer"
        assert list(tmp_path.iterdir()) == [path]

    def test_preprocessor_write_failing_midway(self, tmp_path):
        path = tmp_path / "preprocessor.json"
        codec = OneHotCodec({"c": ("a", "b")})
        standardizer = Standardizer({"x": (0.0, 1.0)})
        save_preprocessor(path, codec, standardizer, ["x", "c"])
        before = path.read_bytes()
        # json.dumps raises on the unserializable value inside atomic_write's
        # block, before a byte is written; the temporary sibling is removed
        # and the previous file stays in place
        bad = Standardizer({"x": (object(), 1.0)})
        with pytest.raises(TypeError):
            save_preprocessor(path, codec, bad, ["x", "c"])
        assert path.read_bytes() == before
        assert load_preprocessor(path)[0] == codec

    def test_report_write_failing_midway(self, tmp_path):
        path = tmp_path / "report.json"
        _write_json(path, {"ok": 1})
        with pytest.raises(TypeError):
            _write_json(path, {"ok": 2, "bad": object()})
        assert json.loads(path.read_text()) == {"ok": 1}


def package_imports(path: Path) -> set[str]:
    """The sevpred modules that the module at ``path`` imports from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sevpred."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("sevpred.")}
    return found


def test_file_layer_stays_apart_from_the_dataset():
    """artifacts.py imports only errors from the package, and the engine
    reads its model files without the dataset module."""
    imports = {path.stem: package_imports(path) for path in Path(sevpred.__file__).parent.glob("*.py")}
    assert imports["artifacts"] == {"errors"}
    assert "dataset" not in imports["neural"]
