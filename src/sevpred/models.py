"""The two trained artifacts of the pipeline: a deep autoencoder whose
encoder half serves as a dimensionality reducer, and a class-weighted dense
severity classifier, plus the balanced-class-weight computation that makes
rare severity levels matter during training.

Both trainers are deterministic functions of (config, data): every random
choice derives from the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyInput, LabelOutOfRange, MissingClass, NonFiniteActivation, WidthMismatch
from .evaluation import confusion, accuracy, ber
from .neural import (
    Dense,
    Dropout,
    NetworkSpec,
    Parameters,
    adam_step,
    backward,
    forward,
    init_optimizer,
    init_params,
    l2_term,
    loss_mse,
    loss_weighted_ce,
)
from .preprocess import FeatureMatrix
from .rng import derive_seed, make_rng

# the widest hidden layer a config may ask for, far above the paper's 3654,
# so that validate rejects a huge width before anything is allocated
MAX_WIDTH = 100_000


@dataclass(frozen=True)
class ClassWeights:
    """Per-class loss multipliers w[c] = N / (K * n_c)."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if (w <= 0).any():
            raise DataError("class weights must be positive")
        object.__setattr__(self, "w", w)


def compute_class_weights(train_labels, n_classes: int) -> ClassWeights:
    """Balanced weights from training-split label counts.

    Satisfies sum_c w[c] * n_c = N: the weighted sample mass equals the
    unweighted mass. Raises :class:`MissingClass` if any class 1..K has no
    training rows.
    """
    labels = np.asarray(train_labels, dtype=np.int64)
    if labels.size == 0:
        raise DataError("no training labels")
    if ((labels < 1) | (labels > n_classes)).any():
        raise LabelOutOfRange(f"labels must lie in 1..{n_classes}")
    counts = np.bincount(labels, minlength=n_classes + 1)[1:]
    for c in range(n_classes):
        if counts[c] == 0:
            raise MissingClass(c + 1)
    return ClassWeights(len(labels) / (n_classes * counts))


def weights_from_proportions(proportions) -> ClassWeights:
    """Same formula expressed on class proportions instead of counts."""
    p = np.asarray(proportions, dtype=np.float64)
    if (p <= 0).any():
        raise DataError("proportions must be strictly positive")
    return ClassWeights(p.sum() / (len(p) * p))


# -- autoencoder ---------------------------------------------------------------

@dataclass(frozen=True)
class AutoencoderConfig:
    """Mirrored dense autoencoder: d -> encoder_widths -> reversed -> d.

    The last encoder width is the latent dimension. Hidden layers are relu,
    the reconstruction layer is linear, and the objective is mean squared
    error on the (standardized / one-hot) input itself.
    """

    input_dim: int
    encoder_widths: tuple = (512, 256)
    epochs: int = 200
    batch_size: int = 1000
    seed: int = 0
    learning_rate: float = 1e-3
    hidden_activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "encoder_widths", tuple(self.encoder_widths))
        if not self.encoder_widths or not all(1 <= w <= MAX_WIDTH for w in self.encoder_widths):
            raise DataError(f"encoder_widths must be non-empty widths in 1..{MAX_WIDTH}")
        if self.latent_dim > self.input_dim:
            raise DataError("latent dimension cannot exceed the input width")
        if self.epochs < 1 or self.batch_size < 1:
            raise DataError("epochs and batch_size must be positive")
        if not self.learning_rate > 0:
            raise DataError("learning_rate must be positive")

    @property
    def latent_dim(self) -> int:
        return int(self.encoder_widths[-1])


def build_autoencoder(cfg: AutoencoderConfig) -> NetworkSpec:
    widths = [cfg.input_dim, *cfg.encoder_widths]
    layers = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        layers.append(Dense(fan_in, fan_out, cfg.hidden_activation))
    mirror = widths[::-1]
    for i, (fan_in, fan_out) in enumerate(zip(mirror, mirror[1:])):
        last = i == len(mirror) - 2
        layers.append(Dense(fan_in, fan_out, "linear" if last else cfg.hidden_activation))
    return NetworkSpec(tuple(layers), l2_penalty=0.0)


def _feature_values(data) -> np.ndarray:
    if isinstance(data, FeatureMatrix):
        return data.values
    return np.asarray(data, dtype=np.float64)


def _run_epochs(spec, params, x, targets, weights, cfg, on_epoch):
    """Seeded-shuffle mini-batch training loop shared by both models; it
    updates ``params`` in place, on the loss ``spec``'s last layer decides,
    with ``cfg``'s epochs, batch size, seed and learning rate.

    ``targets`` is the label vector for classifiers, with class ``weights``,
    or None for autoencoders (whose target is the batch itself).
    ``on_epoch(epoch, train_loss)`` runs after each epoch. A
    ``NonFiniteActivation`` names its epoch and its batch or the epoch's
    validation pass; a non-finite batch loss raises it before that batch's
    step.
    """
    n = x.shape[0]
    state = init_optimizer(params, cfg.learning_rate)
    shuffle_rng = make_rng(derive_seed(cfg.seed, "shuffle"))
    for epoch in range(cfg.epochs):
        perm = shuffle_rng.permutation(n)
        batch_losses = []
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            xb = x[idx]
            tb = xb if targets is None else targets[idx]
            try:
                out, cache = forward(
                    spec, params, xb, mode="train",
                    dropout_seed=derive_seed(cfg.seed, f"dropout:{epoch}:{b}"),
                )
            except NonFiniteActivation as exc:
                raise NonFiniteActivation(f"{exc} in epoch {epoch}, batch {b}") from None
            if spec.classifies:
                data_loss = loss_weighted_ce(out, tb, weights)
            else:
                data_loss = loss_mse(out, tb)
            loss = data_loss + l2_term(spec, params)
            if not math.isfinite(loss):
                raise NonFiniteActivation(f"non-finite loss in epoch {epoch}, batch {b}")
            batch_losses.append(loss)
            # no name holds the gradient, so it is freed before the next batch
            adam_step(params, backward(spec, params, cache, tb, weights), state)
        try:
            on_epoch(epoch, float(np.mean(batch_losses)))
        except NonFiniteActivation as exc:
            raise NonFiniteActivation(f"{exc} in epoch {epoch}, validation") from None


def train_autoencoder(
    cfg: AutoencoderConfig, train: FeatureMatrix, val: FeatureMatrix
) -> tuple[Parameters, dict]:
    """Train the mirrored autoencoder; returns final parameters and the
    per-epoch train/val reconstruction-loss history. ``EmptyInput`` if
    either set has no rows, since neither loss has a mean then."""
    train_x = _feature_values(train)
    val_x = _feature_values(val)
    for name, x in (("train", train_x), ("val", val_x)):
        if x.shape[1] != cfg.input_dim:
            raise WidthMismatch(f"{name} width {x.shape[1]} != input_dim {cfg.input_dim}")
        if x.shape[0] == 0:
            raise EmptyInput(f"the {name} set has no rows to train an autoencoder on")
    spec = build_autoencoder(cfg)
    params = init_params(spec, derive_seed(cfg.seed, "init"))
    history = {"train_mse": [], "val_mse": []}

    def on_epoch(epoch, train_loss):
        recon, _ = forward(spec, params, val_x, mode="infer")
        history["train_mse"].append(train_loss)
        history["val_mse"].append(loss_mse(recon, val_x))

    _run_epochs(spec, params, train_x, None, None, cfg, on_epoch)
    return params, history


def encoder_spec(spec: NetworkSpec) -> NetworkSpec:
    """First half of a mirrored autoencoder's dense stack."""
    dense = spec.dense_layers()
    if len(dense) % 2 != 0:
        raise DataError("autoencoder spec must have an even dense-layer count")
    return NetworkSpec(tuple(dense[: len(dense) // 2]), l2_penalty=0.0)


def encode(spec: NetworkSpec, params: Parameters, data) -> FeatureMatrix:
    """Map features through the encoder half only (inference mode).

    Row-wise pure: encoding a row partition and stacking equals encoding the
    whole matrix.
    """
    enc = encoder_spec(spec)
    x = _feature_values(data)
    if x.shape[1] != enc.input_dim:
        raise WidthMismatch(f"data width {x.shape[1]} != encoder input {enc.input_dim}")
    # the encoder's layout is the first half of the autoencoder's
    enc_params = Parameters(params.flat[: enc.layout[-1][1]], enc.layout)
    out, _ = forward(enc, enc_params, x, mode="infer")
    return FeatureMatrix(out, tuple(f"latent_{i}" for i in range(out.shape[1])))


# -- classifier ---------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierConfig:
    """Halving-pyramid dense classifier with tapering dropout.

    ``initial_neurons`` sets the first hidden width; the next two hidden
    layers take half and a quarter of it (integer division). The first
    dropout uses ``initial_dropout``; the second tapers by 0.1 with a floor
    of 0.1.
    """

    initial_neurons: int = 1218
    initial_dropout: float = 0.3
    batch_size: int = 5000
    l2_penalty: float = 0.0001
    epochs: int = 50
    learning_rate: float = 1e-3
    use_class_weights: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 4 <= self.initial_neurons <= MAX_WIDTH:
            raise DataError(f"initial_neurons must be in 4..{MAX_WIDTH} for a halving pyramid")
        if not (0.0 <= self.initial_dropout < 1.0):
            raise DataError("initial_dropout must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 1:
            raise DataError("batch_size and epochs must be positive")
        if self.l2_penalty < 0:
            raise DataError("l2_penalty must be non-negative")
        if not self.learning_rate > 0:
            raise DataError("learning_rate must be positive")


def build_classifier(cfg: ClassifierConfig, input_dim: int, n_classes: int) -> NetworkSpec:
    n = cfg.initial_neurons
    second_dropout = max(cfg.initial_dropout - 0.1, 0.1)
    layers = (
        Dense(input_dim, n, "relu"),
        Dropout(cfg.initial_dropout),
        Dense(n, n // 2, "relu"),
        Dropout(second_dropout),
        Dense(n // 2, n // 4, "relu"),
        Dense(n // 4, n_classes, "softmax"),
    )
    return NetworkSpec(layers, l2_penalty=cfg.l2_penalty)


def train_classifier(
    cfg: ClassifierConfig,
    train_x,
    train_y,
    val_x,
    val_y,
    class_weights: ClassWeights | None = None,
    *,
    n_classes: int,
) -> tuple[Parameters, dict]:
    """Train with weighted cross-entropy, checkpointing the epoch with the
    lowest validation BER.

    With ``class_weights=None`` or ``use_class_weights=False`` the loss runs
    unweighted (the ablation configuration). History records per-epoch train
    loss, validation accuracy, and validation BER, plus ``best_epoch``.
    ``EmptyInput`` if either set has no rows, since neither the training
    loss nor the validation BER has a mean then.
    """
    train_x = _feature_values(train_x)
    val_x = _feature_values(val_x)
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if train_x.shape[1] != val_x.shape[1]:
        raise WidthMismatch(f"train width {train_x.shape[1]} != val width {val_x.shape[1]}")
    for name, x, y in (("train", train_x, train_y), ("val", val_x, val_y)):
        if x.shape[0] == 0:
            raise EmptyInput(f"the {name} set has no rows to train a classifier on")
        if ((y < 1) | (y > n_classes)).any():
            raise LabelOutOfRange(f"{name} labels must lie in 1..{n_classes}")

    if class_weights is not None and cfg.use_class_weights:
        weights = class_weights.w
        if len(weights) != n_classes:
            raise WidthMismatch(f"{len(weights)} class weights for {n_classes} classes")
    else:
        weights = np.ones(n_classes)

    spec = build_classifier(cfg, train_x.shape[1], n_classes)
    params = init_params(spec, derive_seed(cfg.seed, "init"))
    history = {"train_loss": [], "val_accuracy": [], "val_ber": [], "best_epoch": 0}
    best = {"ber": np.inf, "epoch": 0}
    # BER is finite, so epoch 0 improves on inf and fills this buffer
    checkpoint = np.empty_like(params.flat)

    def on_epoch(epoch, train_loss):
        preds = predict(params, spec, val_x)
        cm = confusion(preds, val_y, n_classes)
        val_ber = ber(cm)
        history["train_loss"].append(train_loss)
        history["val_accuracy"].append(accuracy(cm))
        history["val_ber"].append(val_ber)
        if val_ber < best["ber"]:
            best.update(ber=val_ber, epoch=epoch)
            checkpoint[:] = params.flat

    _run_epochs(spec, params, train_x, train_y, weights, cfg, on_epoch)
    history["best_epoch"] = best["epoch"]
    return Parameters(checkpoint, params.layout), history


def predict(params: Parameters, spec: NetworkSpec, features) -> np.ndarray:
    """Per-row argmax of the softmax output as 1-based labels; exact ties
    break toward the lower class index."""
    probs, _ = forward(spec, params, _feature_values(features), mode="infer")
    return np.argmax(probs, axis=1).astype(np.int64) + 1
