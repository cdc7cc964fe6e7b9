"""The artifact file layer every pipeline stage writes and reads through.

Files are written atomically. Feature matrices, models and the work dir's
keyed caches share one layout: a JSON manifest line (UTF-8, newline
terminated), then a blob of little-endian typed sections. JSON artifacts are
checked against a ``json_fits`` shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Write to a temporary sibling and rename it over ``path`` once the block
    completes: a failed write leaves the previous file intact. ``mode`` is
    ``"w"`` or ``"wb"``. Each writer gets a sibling of its own, so concurrent
    writers of one path each complete and the last rename wins; the sibling
    is created exclusively ("x"), with the permissions ``open`` gives."""
    tmp = Path(f"{path}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_blob(path: str | Path, manifest: dict, sections) -> None:
    """Write the manifest line, then each ``(dtype, array)`` section's values
    row-major as that little-endian ``dtype``."""
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(manifest).encode("utf-8") + b"\n")
        for dtype, a in sections:
            # a byte view of the array itself, so the data is not copied
            fh.write(memoryview(np.ascontiguousarray(a, dtype=dtype).reshape(-1).view(np.uint8)))


def read_manifest(fh, path: str | Path, formats: tuple[str, ...], kind: str) -> dict:
    """The manifest line of the blob file open as ``fh``; DataError if it does
    not parse (a cut or corrupt file) or names none of ``formats``."""
    try:
        manifest = json.loads(fh.readline())
    except ValueError:
        raise DataError(f"{path}: unreadable {kind} manifest") from None
    if not isinstance(manifest, dict) or manifest.get("format") not in formats:
        raise DataError(f"{path}: not a {kind} file")
    return manifest


def json_fits(value, shape) -> bool:
    """Whether parsed JSON ``value`` has ``shape``: a Python type or tuple of
    types, ``[s]`` for a list of items of shape ``s``, ``{str: s}`` for an
    object whose values have shape ``s``, or ``{"name": s, ...}`` for an
    object with at least those fields, each of its shape, or a ``range`` for
    an int in it. A number must fit float64 arithmetic: an int lies in int64
    range and a float is finite; ``float`` accepts an int, and no number shape
    accepts a bool."""
    if isinstance(shape, range):
        return type(value) is int and value in shape
    if isinstance(shape, list):
        if shape[0] is str:  # one flat pass: json_fits(v, str) is isinstance(v, str)
            return isinstance(value, list) and all(isinstance(v, str) for v in value)
        return isinstance(value, list) and all(json_fits(v, shape[0]) for v in value)
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return False
        if str in shape:
            return all(json_fits(v, shape[str]) for v in value.values())
        return all(name in value and json_fits(value[name], s) for name, s in shape.items())
    if isinstance(value, bool):
        return shape is bool
    if isinstance(value, int):
        return shape in (int, float) and -2**63 <= value < 2**63
    if isinstance(value, float):
        return shape is float and math.isfinite(value)
    return isinstance(value, shape)


def load_json_artifact(path: str | Path, kind: str, fields: dict) -> dict:
    """A JSON artifact's top-level object; DataError if it does not parse (a
    cut or corrupt file), is not an object, lacks one of ``fields`` or has
    one whose value does not have its ``json_fits`` shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except ValueError:
        raise DataError(f"{path}: unreadable {kind} file") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: not a {kind} file")
    missing = [name for name in fields if name not in payload]
    if missing:
        raise DataError(f"{path}: {kind} file lacks {', '.join(missing)}")
    wrong = [name for name, shape in fields.items() if not json_fits(payload[name], shape)]
    if wrong:
        raise DataError(f"{path}: {kind} file has a malformed {', '.join(wrong)}")
    return payload


def read_arrays(fh, path: str | Path, sections) -> list[np.ndarray]:
    """The rest of the blob file open as ``fh``, read straight into one
    writable flat array per ``(dtype, count)`` section; DataError if its
    length differs from the sections' total (a cut or padded file)."""
    expected = sum(np.dtype(dtype).itemsize * count for dtype, count in sections)
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != expected:
        raise DataError(f"{path}: {size} data bytes where the manifest implies {expected}")
    arrays = [np.empty(count, dtype=dtype) for dtype, count in sections]
    if sum(fh.readinto(a.view(np.uint8)) for a in arrays) != size:
        raise DataError(f"{path}: data section changed while it was read")
    return arrays


def file_sha256(path: str | Path) -> str:
    """The hex sha256 of a file's bytes, read in 256 KiB blocks through one
    buffer, so memory stays flat at any file size."""
    digest, block = hashlib.sha256(), bytearray(1 << 18)
    with open(path, "rb") as fh:
        while n := fh.readinto(block):
            digest.update(memoryview(block)[:n])
    return digest.hexdigest()


def _keyed_digest(body: dict, arrays) -> str:
    """sha256 of a keyed file's manifest fields (all but its digest) and data."""
    digest = hashlib.sha256(json.dumps(body).encode("utf-8"))
    for a in arrays:
        digest.update(a.view(np.uint8))
    return digest.hexdigest()


def save_keyed(path: str | Path, fmt: str, key: dict, fields: dict, sections) -> None:
    """Write each ``(dtype, array)`` section under ``key``, the JSON of what
    decided the data: one manifest line with the format ``fmt``, the key,
    ``fields`` and a sha256 of all of those and the data, then the sections
    as in :func:`save_blob`. The work dir's caches are such files."""
    arrays = [np.ascontiguousarray(a, dtype=dtype).reshape(-1) for dtype, a in sections]
    manifest = {"format": fmt, "key": key, **fields}
    manifest["sha256"] = _keyed_digest(manifest, arrays)
    save_blob(path, manifest, [(a.dtype, a) for a in arrays])


def load_keyed(path: str | Path, fmt: str, key: dict, kind: str, shape: dict,
               sections) -> tuple[dict, list[np.ndarray]]:
    """The manifest (without its sha256) and flat arrays that
    :func:`save_keyed` wrote to ``path`` under ``key``; DataError if the
    file is cut or corrupt, names another format or key, has a field that
    does not fit the ``json_fits`` ``shape``, or fails its sha256.
    ``sections(manifest)`` gives the ``(dtype, count)`` sections."""
    with open(path, "rb") as fh:
        manifest = read_manifest(fh, path, (fmt,), kind)
        if not (manifest.get("key") == key and json_fits(manifest, {**shape, "sha256": str})):
            raise DataError(f"{path}: not a {kind} saved under this key")
        arrays = read_arrays(fh, path, sections(manifest))
    sha256 = manifest.pop("sha256")
    if _keyed_digest(manifest, arrays) != sha256:
        raise DataError(f"{path}: {kind} does not match its sha256")
    return manifest, arrays
