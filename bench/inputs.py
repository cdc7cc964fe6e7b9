"""Seeded input generators for the benchmark workloads.

Only numpy and the seed decide the inputs, so a change to the library can
never change what the benchmark feeds it.

``accidents`` builds an accidents-shaped table for the shipped
``us_accidents.json`` schema: two numeric columns, four categorical ones
(City, County and Airport_Code are high-cardinality) and thirteen booleans,
with a few percent of blank feature cells. The category counts are chosen so
the one-hot width over every feature lands near the paper's 1218 columns.

``c4_columns`` builds the raw table of acceptance criterion c4: eight
numeric columns and three categoricals of five levels each (one-hot width
23), with the paper's class imbalance.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

# the severity imbalance of the paper's data (criterion c4 uses the same)
PROPORTIONS = (0.005, 0.70, 0.27, 0.025)
N_CITIES, N_COUNTIES, N_AIRPORTS = 800, 260, 150
BLANK_RATE = 0.02
# share of rows whose airport is not the one serving their county
AIRPORT_NOISE = 0.1
BOOLEAN_RATES = {
    "Amenity": 0.012, "Bump": 0.004, "Crossing": 0.07, "Give_Way": 0.005,
    "Junction": 0.09, "No_Exit": 0.003, "Railway": 0.01, "Roundabout": 0.002,
    "Station": 0.02, "Stop": 0.03, "Traffic_Calming": 0.004,
    "Traffic_Signal": 0.15, "Turning_Loop": 0.0,
}


def class_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    """Shuffled 1-based labels whose class counts are the largest-remainder
    rounding of ``n * PROPORTIONS``."""
    quotas = np.asarray(PROPORTIONS) * n
    counts = np.floor(quotas).astype(np.int64)
    counts[np.argsort(-(quotas - counts), kind="stable")[: n - counts.sum()]] += 1
    labels = np.repeat(np.arange(1, len(PROPORTIONS) + 1), counts)
    return labels[rng.permutation(n)]


def _tilted_draw(rng, cls: np.ndarray, n_levels: int, tilt: float) -> np.ndarray:
    """Level index per row from a mildly Zipf-shaped base distribution whose
    log-odds each class perturbs by ``tilt`` standard normals."""
    logits = -np.log(np.arange(n_levels) + 30.0) + tilt * rng.standard_normal((len(PROPORTIONS), n_levels))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
    u = rng.random(len(cls))
    out = np.empty(len(cls), dtype=np.int64)
    for c in range(len(PROPORTIONS)):
        rows = cls == c
        out[rows] = np.searchsorted(cdf[c], u[rows])
    return np.minimum(out, n_levels - 1)


def accidents(schema: dict, n: int, seed: int) -> dict[str, np.ndarray]:
    """Column name -> cell strings ("" for a blank cell), in schema order.

    The target column is never blank, so every generated row survives
    ingestion.
    """
    rng = np.random.default_rng(seed)
    labels = class_labels(n, rng)
    cls = labels - 1
    shift = rng.standard_normal((len(PROPORTIONS), 2))
    lat = 31.0 + 0.5 * shift[cls, 0] + rng.normal(0.0, 1.5, n)
    lng = -97.0 + 0.5 * shift[cls, 1] + rng.normal(0.0, 1.5, n)

    city = _tilted_draw(rng, cls, N_CITIES, 0.6)
    county_of_city = rng.permutation(np.arange(N_CITIES) % N_COUNTIES)
    airport_of_county = rng.permutation(np.arange(N_COUNTIES) % N_AIRPORTS)
    county = county_of_city[city]
    airport = airport_of_county[county]
    stray = rng.random(n) < AIRPORT_NOISE
    airport[stray] = rng.integers(0, N_AIRPORTS, int(stray.sum()))
    right_side = rng.random(n) < np.array([0.95, 0.82, 0.7, 0.9])[cls]

    cells: dict[str, np.ndarray] = {
        "Severity": labels.astype(str),
        "Start_Lat": np.char.mod("%.6f", lat),
        "Start_Lng": np.char.mod("%.6f", lng),
        "Side": np.where(right_side, "R", "L"),
        "City": np.char.mod("City_%03d", city),
        "County": np.char.mod("County_%03d", county),
        "Airport_Code": np.char.mod("K%03d", airport),
    }
    for name, rate in BOOLEAN_RATES.items():
        p = rate * np.exp(0.8 * rng.standard_normal(len(PROPORTIONS)))[cls]
        cells[name] = np.where(rng.random(n) < p, "True", "False")

    names = [c["name"] for c in schema["columns"]]
    if set(names) != set(cells):
        raise ValueError(f"schema columns {sorted(names)} do not match the generator's")
    out = {}
    for col in schema["columns"]:
        values = cells[col["name"]].astype(object)
        if col["kind"] != "target":
            values[rng.random(n) < BLANK_RATE] = ""
        out[col["name"]] = values
    return out


def write_accidents_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*columns.values()))


def c4_columns(n: int, seed: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The raw table of criterion c4: eight numeric columns with
    class-shifted centroids (shift 0.4) and three five-level categoricals
    with class-skewed frequencies; returns (name -> values, labels)."""
    rng = np.random.default_rng(seed)
    labels = class_labels(n, rng)
    cls = labels - 1
    numeric = 0.4 * rng.standard_normal((len(PROPORTIONS), 8))[cls] + rng.standard_normal((n, 8))
    columns = {f"num_{j}": numeric[:, j].copy() for j in range(8)}
    for j in range(3):
        columns[f"cat_{j}"] = np.char.mod("k%d", _tilted_draw(rng, cls, 5, 0.4)).astype(object)
    return columns, labels
