"""Confusion-matrix metrics (accuracy, per-class recall, balanced error
rate), stratified k-fold cross-validation, and the hyperparameter grid
search.

BER is 1 minus the unweighted mean of per-class recalls, so a model that
ignores rare classes pays for it no matter how small they are. Classes with
zero true rows in an evaluation set are excluded from the mean and flagged,
which stratified folds make unreachable in normal runs but tiny desk-scale
sets can hit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ClassTooSmall, DataError, EmptyConfusion, LabelOutOfRange
from .preprocess import stratified_allocate
from .rng import derive_seed


@dataclass(frozen=True)
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns predicted classes.
    Class c (1-based) maps to index c-1."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DataError("confusion matrix must be square")
        if (c < 0).any():
            raise DataError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class_recall: tuple
    ber: float
    confusion: ConfusionMatrix
    unrepresented: tuple = ()

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_recall": [None if r is None else float(r) for r in self.per_class_recall],
            "ber": self.ber,
            "confusion": self.confusion.counts.tolist(),
            "unrepresented_classes": list(self.unrepresented),
        }


def confusion(preds, labels, n_classes: int) -> ConfusionMatrix:
    """Tally predictions against true labels (both 1-based)."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(preds) != len(labels):
        raise DataError(f"{len(preds)} predictions vs {len(labels)} labels")
    for name, arr in (("predictions", preds), ("labels", labels)):
        if arr.size and ((arr < 1) | (arr > n_classes)).any():
            raise LabelOutOfRange(f"{name} must lie in 1..{n_classes}")
    flat = np.bincount((labels - 1) * n_classes + (preds - 1), minlength=n_classes * n_classes)
    return ConfusionMatrix(flat.reshape(n_classes, n_classes).astype(np.int64))


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyConfusion("no evaluated rows")
    return float(np.trace(cm.counts) / cm.total)


def per_class_recall(cm: ConfusionMatrix) -> np.ndarray:
    """Diagonal over row totals; classes with no true rows give nan."""
    row_totals = cm.counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(row_totals > 0, np.diag(cm.counts) / row_totals, np.nan)


def ber(cm: ConfusionMatrix) -> float:
    """1 - mean(per-class recall) over the represented classes."""
    if cm.total == 0:
        raise EmptyConfusion("no evaluated rows")
    recalls = per_class_recall(cm)
    represented = ~np.isnan(recalls)
    if not represented.any():
        raise EmptyConfusion("no represented classes")
    return float(1.0 - recalls[represented].mean())


def metrics_from_confusion(cm: ConfusionMatrix) -> MetricsReport:
    recalls = per_class_recall(cm)
    unrepresented = tuple(int(c + 1) for c in np.flatnonzero(np.isnan(recalls)))
    return MetricsReport(
        accuracy=accuracy(cm),
        per_class_recall=tuple(None if np.isnan(r) else float(r) for r in recalls),
        ber=ber(cm),
        confusion=cm,
        unrepresented=unrepresented,
    )


def evaluate_predictions(preds, labels, n_classes: int) -> MetricsReport:
    return metrics_from_confusion(confusion(preds, labels, n_classes))


@dataclass(frozen=True)
class CVResult:
    fold_reports: tuple
    mean_accuracy: float
    std_accuracy: float
    mean_ber: float
    std_ber: float
    k: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "seed": self.seed,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "mean_ber": self.mean_ber,
            "std_ber": self.std_ber,
            "folds": [r.to_dict() for r in self.fold_reports],
        }


def stratified_folds(labels, k: int, seed: int) -> list[np.ndarray]:
    """Disjoint, exhaustive, class-proportional fold index sets.

    Every class must have at least k rows. Fold membership is a pure function
    of (labels, k, seed).
    """
    labels = np.asarray(labels)
    if k < 2:
        raise DataError("k must be at least 2")
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < k:
            raise ClassTooSmall(int(cls), int(count), k)
    return stratified_allocate(labels, np.full(k, 1.0 / k), seed)


def cross_validate(
    runner,
    features: np.ndarray,
    labels,
    k: int = 10,
    seed: int = 0,
    *,
    n_classes: int,
) -> CVResult:
    """Repeat the experiment k times on stratified folds.

    ``runner(train_x, train_y, val_x, val_y, seed)`` must return a prediction
    callable; it is retrained from scratch per fold. The non-evaluation rows
    of each fold are sub-split 75/25 into train/validation so runners can
    checkpoint, and per-fold seeds derive deterministically from the master
    seed.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    folds = stratified_folds(labels, k, derive_seed(seed, "folds"))
    reports = []
    for i, eval_idx in enumerate(folds):
        rest = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        sub = stratified_allocate(labels[rest], (0.75, 0.25), derive_seed(seed, f"fold{i}:subsplit"))
        train_idx, val_idx = rest[sub[0]], rest[sub[1]]
        predict_fn = runner(
            features[train_idx], labels[train_idx],
            features[val_idx], labels[val_idx],
            derive_seed(seed, f"fold{i}"),
        )
        preds = predict_fn(features[eval_idx])
        reports.append(evaluate_predictions(preds, labels[eval_idx], n_classes))
    accs = np.array([r.accuracy for r in reports])
    bers = np.array([r.ber for r in reports])
    return CVResult(
        fold_reports=tuple(reports),
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std(ddof=1)),
        mean_ber=float(bers.mean()),
        std_ber=float(bers.std(ddof=1)),
        k=k,
        seed=seed,
    )


@dataclass(frozen=True)
class GridSpec:
    """Candidate value lists; the search covers their Cartesian product in
    field order. The fields are the swept ``ClassifierConfig`` settings, and
    each default's items give the type its cells cast values to."""

    initial_neurons: tuple = (1218, 2436, 3654)
    initial_dropout: tuple = (0.2, 0.3, 0.4)
    batch_size: tuple = (2000, 5000, 10000)
    l2_penalty: tuple = (0.001, 0.0001)

    def __post_init__(self):
        for f in fields(self):
            values = tuple(getattr(self, f.name))
            if not values:
                raise DataError(f"grid list {f.name} must be non-empty")
            object.__setattr__(self, f.name, values)

    def size(self) -> int:
        return math.prod(len(getattr(self, f.name)) for f in fields(self))

    def cells(self) -> list[dict]:
        casts = {f.name: type(f.default[0]) for f in fields(self)}
        combos = itertools.product(*(getattr(self, name) for name in casts))
        return [{name: cast(v) for (name, cast), v in zip(casts.items(), combo)} for combo in combos]


@dataclass(frozen=True)
class GridCellResult:
    index: int
    config: dict
    seed: int
    val_ber: float
    val_accuracy: float
    best_epoch: int

    def to_dict(self) -> dict:
        return {
            "cell": self.index,
            "config": self.config,
            "seed": self.seed,
            "val_ber": self.val_ber,
            "val_accuracy": self.val_accuracy,
            "best_epoch": self.best_epoch,
        }


def grid_search(
    grid: GridSpec,
    train_x: np.ndarray,
    train_y,
    val_x: np.ndarray,
    val_y,
    base_config=None,
    class_weights=None,
    seed: int = 0,
    *,
    n_classes: int,
    jobs: int = 1,
) -> list[GridCellResult]:
    """Train one classifier per grid cell and rank by validation BER.

    Each cell gets a deterministic derived seed, so re-running the search
    reproduces the report bit for bit. Ranking breaks BER ties by validation
    accuracy (descending) then cell enumeration order. All cells are
    returned, not just the winner.

    ``jobs`` accepts only 1, which the benchmark harness still passes; any
    other value raises :class:`DataError`, as the search is serial. The
    parameter goes away once the benchmark stops passing it.
    """
    from .models import ClassifierConfig, train_classifier  # deferred: models imports this module

    if jobs != 1:
        raise DataError("grid_search runs serially")
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    base = base_config if base_config is not None else ClassifierConfig()
    results = []
    for i, cell in enumerate(grid.cells()):
        # seed derives from the cell's values, so duplicate cells train
        # identically and re-runs reproduce the report exactly
        cell_seed = derive_seed(seed, ":".join(["cell", *map(str, cell.values())]))
        cfg = replace(base, **cell, seed=cell_seed)
        _, history = train_classifier(
            cfg, train_x, train_y, val_x, val_y,
            class_weights=class_weights, n_classes=n_classes,
        )
        best = history["best_epoch"]
        results.append(GridCellResult(
            index=i,
            config=cell,
            seed=cell_seed,
            val_ber=history["val_ber"][best],
            val_accuracy=history["val_accuracy"][best],
            best_epoch=best,
        ))
    return sorted(results, key=lambda r: (r.val_ber, -r.val_accuracy, r.index))
