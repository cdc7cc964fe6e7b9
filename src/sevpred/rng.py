"""Deterministic seed derivation.

Every random decision in the pipeline flows from one master seed. Stage and
sub-task seeds are derived by hashing a text label together with the master
seed, so runs are reproducible across processes and platforms (unlike
Python's salted ``hash``).
"""

from __future__ import annotations

import hashlib

import numpy as np

SEEDS = range(-2**63, 2**64)
"""The seeds a run takes and records: any int64 or uint64, which covers every
:func:`derive_seed` value."""


def derive_seed(master: int, label: str) -> int:
    """Derive a 64-bit child seed from ``master`` and a stage label."""
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
