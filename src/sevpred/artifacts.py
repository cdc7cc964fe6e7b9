"""The artifact file layer every pipeline stage writes and reads through.

Files are written atomically. Every binary artifact (a feature matrix, a
model, a work-dir cache, ``lineage.json``) is a keyed file: one JSON head
line that holds the format name, a sha256 and the manifest's fields, then
the manifest's sections as little-endian typed values (see
:func:`save_keyed`). A reader takes nothing from a keyed file until its
layout, key, field shapes, length and sha256 check. JSON artifacts are
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
    """The rest of the file open as ``fh``, read straight into one writable
    flat array per ``(dtype, count)`` section; DataError if its length
    differs from the sections' total (a cut or padded file), checked before
    any array is allocated."""
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


# the layout of every keyed file: a head line that is one JSON object of this
# format name, the sha256, then the manifest's own fields, and after it the
# manifest's sections
KEYED_FORMAT = "sevpred-keyed-2"
_HEAD = f'{{"format":"{KEYED_FORMAT}","sha256":"'.encode("utf-8")
_FIRST_FIELD = len(_HEAD) + 64 + len('",')  # where the manifest's first field starts


def _head(sha256: bytes, body: bytes) -> bytes:
    """A keyed file's head line: the hex ``sha256``, then the fields of the
    manifest's JSON object ``body``."""
    return _HEAD + sha256 + b'",' + body[1:] + b"\n"


def _digest(body: bytes, arrays) -> bytes:
    """The hex sha256 of a keyed file's manifest bytes followed by its data."""
    digest = hashlib.sha256(body)
    for a in arrays:
        digest.update(a.view(np.uint8))
    return digest.hexdigest().encode("ascii")


def save_keyed(path: str | Path, key: dict, fields: dict, sections) -> None:
    """Write each ``(dtype, array)`` section, row-major, under ``key``, the
    JSON of what decided the data (``{}`` for an artifact that is its own
    input). The manifest is ``{"key": key, **fields}`` as compact JSON; the
    head line is ``{"format": KEYED_FORMAT, "sha256": ..., "key": key,
    **fields}``, the sha256 taken over the manifest's bytes, then the data.
    No field is named "format" or "sha256". With no sections the file is
    one JSON text."""
    arrays = [np.ascontiguousarray(a, dtype=dtype).reshape(-1) for dtype, a in sections]
    body = json.dumps({"key": key, **fields}, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(_head(_digest(body, arrays), body))
        for a in arrays:
            # a byte view of the array itself, so the data is not copied
            fh.write(memoryview(a.view(np.uint8)))


def load_keyed(path: str | Path, key: dict, kind: str, shape: dict, sections) -> tuple[dict, list[np.ndarray]]:
    """The manifest and flat arrays that :func:`save_keyed` wrote to
    ``path`` under ``key``; DataError, naming ``path``, if the file is cut,
    padded or corrupt, is of another layout or key, has a field that does not
    fit the ``json_fits`` ``shape``, or fails its sha256, taken over the bytes
    as they were read. ``sections(manifest)`` gives the ``(dtype, count)``
    sections; it may raise DataError for a manifest whose fields disagree."""
    with open(path, "rb") as fh:
        line = fh.readline()
        sha256, body = line[len(_HEAD):len(_HEAD) + 64], b"{" + line[_FIRST_FIELD:-1]
        if line != _head(sha256, body):
            raise DataError(f"{path}: not a keyed {kind} file")
        try:
            manifest = json.loads(body)
        except ValueError:
            raise DataError(f"{path}: unreadable {kind} manifest") from None
        if manifest.get("key") != key:
            raise DataError(f"{path}: not a {kind} saved under this key")
        if not json_fits(manifest, shape):
            raise DataError(f"{path}: malformed {kind} manifest")
        arrays = read_arrays(fh, path, sections(manifest))
    if _digest(body, arrays) != sha256:
        raise DataError(f"{path}: {kind} does not match its sha256")
    return manifest, arrays
