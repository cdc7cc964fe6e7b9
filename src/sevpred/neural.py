"""From-scratch dense-network engine on float64 numpy.

Forward/backward passes with relu/linear/softmax activations, inverted
dropout, L2 weight decay, class-weighted cross-entropy and mean-squared-error
losses, an adaptive-moment optimizer, and a finite-difference gradient
checker. No GPU, no mixed precision: desk-scale sizes keep 64-bit cheap and
make gradient checks meaningful. Weights and biases live in one flat buffer,
``Parameters.flat``, with per-layer views; the spec alone decides its layout
(``NetworkSpec.layout``), which gradients, the optimizer's moments and a
model file's blob share. The optimizer updates that buffer and its moments
in place, so a trainer that keeps a checkpoint copies it.
``backward`` consumes its forward cache: it writes each carried gradient into
the activation buffer that it is the gradient of, so a training step's
working set is the forward pass's activations.

Class labels are 1-based (severity 1..K) everywhere in the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import json_fits, read_arrays, read_manifest, save_blob
from .errors import (
    CacheMismatch,
    DataError,
    LabelOutOfRange,
    NonFiniteActivation,
    ShapeMismatch,
)
from .rng import make_rng

ACTIVATIONS = ("relu", "linear", "softmax")
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class Dense:
    fan_in: int
    fan_out: int
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise DataError(f"unknown activation {self.activation!r}")
        if self.fan_in < 1 or self.fan_out < 1:
            raise DataError("dense layer dimensions must be positive")


@dataclass(frozen=True)
class Dropout:
    rate: float

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise DataError(f"dropout rate must be in [0, 1), got {self.rate}")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple
    l2_penalty: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        dense = self.dense_layers()
        if not dense:
            raise DataError("a network needs at least one dense layer")
        for prev, nxt in zip(dense, dense[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ShapeMismatch(
                    f"dense chain broken: fan_out {prev.fan_out} feeds fan_in {nxt.fan_in}"
                )
        for layer in self.layers[:-1]:
            if isinstance(layer, Dense) and layer.activation == "softmax":
                raise DataError("softmax is only valid on the final layer")
        if not isinstance(self.layers[-1], Dense):
            raise DataError("the final layer must be dense")
        if self.l2_penalty < 0:
            raise DataError("l2_penalty must be non-negative")

    def dense_layers(self) -> list[Dense]:
        return [l for l in self.layers if isinstance(l, Dense)]

    @property
    def input_dim(self) -> int:
        return self.dense_layers()[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.dense_layers()[-1].fan_out

    @property
    def layout(self) -> tuple:
        """(start, stop, shape) of each dense layer's weight matrix and then
        its bias vector in one flat buffer, in model-file order; the last
        stop is the parameter count."""
        layout, start = [], 0
        for d in self.dense_layers():
            for shape in ((d.fan_in, d.fan_out), (d.fan_out,)):
                stop = start + math.prod(shape)
                layout.append((start, stop, shape))
                start = stop
        return tuple(layout)


class Parameters:
    """Per-dense-layer weight matrices (fan_in x fan_out) and bias vectors, as
    views into one float64 buffer ``flat`` through a spec's ``layout`` (W0,
    b0, W1, b1, ...): the buffer is viewed, not copied, so a write through
    either side shows in the other."""

    def __init__(self, flat: np.ndarray, layout: tuple):
        self.flat, self.layout = flat, layout
        views = [flat[start:stop].reshape(shape) for start, stop, shape in layout]
        self.weights, self.biases = views[0::2], views[1::2]


def init_params(spec: NetworkSpec, seed: int = 0) -> Parameters:
    """He-uniform for relu layers (limit sqrt(6/fan_in)), Glorot-uniform
    otherwise (limit sqrt(6/(fan_in+fan_out))); biases start at zero. Each
    weight matrix is drawn, in layer order, into its view of the one buffer
    this allocates."""
    rng = make_rng(seed)
    params = Parameters(np.zeros(spec.layout[-1][1]), spec.layout)
    for layer, w in zip(spec.dense_layers(), params.weights):
        if layer.activation == "relu":
            limit = np.sqrt(6.0 / layer.fan_in)
        else:
            limit = np.sqrt(6.0 / (layer.fan_in + layer.fan_out))
        # rng.uniform(-limit, limit)'s draw, low + (high - low) * u, made in place
        rng.random(out=w)
        w *= 2 * limit
        w -= limit
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


@dataclass
class ForwardCache:
    """Everything backward needs, one record per layer of a train-mode pass:
    a dense layer's ``(input, output)``, a dropout layer's ``(keep, scale)``,
    the bool mask actually drawn and 1/(1-rate), or ``(None, None)`` when the
    rate is 0. Infer mode records nothing. A dense layer's output buffer is
    the next dense layer's input (dropout scales it in place), or ``output``
    for the last one; backward reads its relu mask ``> 0`` and then writes
    the gradient with respect to it there. So one cache serves one
    ``backward``, which pops the records."""

    mode: str
    records: list = field(default_factory=list)
    output: np.ndarray | None = None
    n: int = 0


def forward(
    spec: NetworkSpec,
    params: Parameters,
    batch: np.ndarray,
    mode: str = "infer",
    dropout_seed: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network; in train mode dropout uses inverted scaling so
    inference is a pure matrix pipeline. Each layer works in place on arrays
    this call allocates, which a train-mode cache hands to ``backward`` to
    overwrite; the caller's batch is never written."""
    if mode not in ("train", "infer"):
        raise DataError(f"mode must be 'train' or 'infer', got {mode!r}")
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch("batch must be 2-D")
    if x.shape[1] != spec.input_dim:
        raise ShapeMismatch(f"batch width {x.shape[1]} != network input {spec.input_dim}")
    cache = ForwardCache(mode=mode, n=x.shape[0])
    train = mode == "train"
    rng = make_rng(dropout_seed) if train else None
    owned = False  # x is the caller's batch until a layer replaces it
    dense_idx = 0
    for layer in spec.layers:
        if isinstance(layer, Dense):
            x_in = x
            x = x_in @ params.weights[dense_idx]
            x += params.biases[dense_idx]
            if layer.activation == "relu":
                np.maximum(x, 0.0, out=x)
            elif layer.activation == "softmax":
                x = softmax(x)
            if x.size and not np.isfinite(x).all():
                raise NonFiniteActivation(f"non-finite activation after dense layer {dense_idx}")
            if train:
                cache.records.append((x_in, x))
            owned = True
            dense_idx += 1
        elif train and layer.rate > 0.0:
            # float64 uniforms keep the seeded stream; (x*1)*s == x*s and a
            # dropped unit keeps the sign of its zero, so this matches x*(keep*s)
            keep = rng.random(x.shape) >= layer.rate
            scale = 1.0 / (1.0 - layer.rate)
            if owned:
                x *= keep
            else:
                x, owned = x * keep, True
            x *= scale
            cache.records.append((keep, scale))
        elif train:
            cache.records.append((None, None))
    cache.output = x
    return x, cache


def loss_weighted_ce(probs: np.ndarray, labels: np.ndarray, class_weights: np.ndarray) -> float:
    """Mean of w[y_i] * (-log p_i[y_i]) with probabilities floored at 1e-12.

    The L2 penalty is the training loop's business, not this function's.
    With all weights equal to 1 this is exactly the unweighted cross-entropy.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or len(labels) != probs.shape[0]:
        raise ShapeMismatch("probs must be n x K with one label per row")
    if probs.size and np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6:
        raise DataError("probability rows must sum to 1")
    k = probs.shape[1]
    if labels.size and ((labels < 1) | (labels > k)).any():
        raise LabelOutOfRange(f"labels must lie in 1..{k}")
    w = np.asarray(class_weights, dtype=np.float64)
    picked = np.maximum(probs[np.arange(len(labels)), labels - 1], PROB_FLOOR)
    return float(np.mean(w[labels - 1] * -np.log(picked)))


def loss_mse(output: np.ndarray, target: np.ndarray) -> float:
    """Mean over all n*d elements of the squared difference."""
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise ShapeMismatch(f"shapes differ: {output.shape} vs {target.shape}")
    return float(np.mean((output - target) ** 2))


def l2_term(spec: NetworkSpec, params: Parameters) -> float:
    """penalty * sum(||W||^2) / 2 over dense weights; biases are exempt."""
    if spec.l2_penalty == 0.0:
        return 0.0
    return spec.l2_penalty * sum(float((w ** 2).sum()) for w in params.weights) / 2.0


def backward(
    spec: NetworkSpec,
    params: Parameters,
    cache: ForwardCache,
    loss_kind: str,
    labels_or_target,
    class_weights: np.ndarray | None = None,
) -> Parameters:
    """Exact gradients of (data loss + L2 term) for every weight and bias.

    The softmax + weighted-cross-entropy gradient is fused at the output:
    (probs - onehot(y)) scaled per row by w[y]/n. The call consumes ``cache``:
    it pops each record as it passes that layer, writes the loss gradient over
    ``cache.output`` and each carried gradient into the activation buffer it
    is the gradient of (a relu mask is read before its buffer is written), so
    one cache serves one backward and a second raises ``CacheMismatch``.
    Dropout and relu masks are applied in place to the carried gradient. The
    pass stops at the first dense layer, whose input is the caller's batch
    and is never written: nothing reads the gradient with respect to it.
    """
    if cache.mode != "train":
        raise CacheMismatch("backward needs a cache from a train-mode forward pass")
    if len(cache.records) != len(spec.layers):
        raise CacheMismatch("cache does not match the network spec, or an earlier backward consumed it")
    dense = spec.dense_layers()
    n = cache.n
    final = dense[-1]
    carry = cache.output  # becomes the final pre-activation gradient
    # taken before the loss gradient overwrites the output it is read from
    mask = carry > 0 if final.activation == "relu" else None

    if loss_kind == "weighted_ce":
        if final.activation != "softmax":
            raise CacheMismatch("weighted_ce requires a softmax output layer")
        labels = np.asarray(labels_or_target)
        k = final.fan_out
        if ((labels < 1) | (labels > k)).any():
            raise LabelOutOfRange(f"labels must lie in 1..{k}")
        w = np.ones(k) if class_weights is None else np.asarray(class_weights, dtype=np.float64)
        carry[np.arange(n), labels - 1] -= 1.0
        carry *= (w[labels - 1] / n)[:, None]
    elif loss_kind == "mse":
        if final.activation == "softmax":
            raise CacheMismatch("mse over a softmax output is not supported")
        target = np.asarray(labels_or_target, dtype=np.float64)
        if target.shape != carry.shape:
            raise ShapeMismatch("mse target shape differs from network output")
        np.subtract(carry, target, out=carry)
        carry *= 2.0
        carry /= carry.size
    else:
        raise DataError(f"unknown loss kind {loss_kind!r}")

    grads = Parameters(np.zeros(params.flat.size), params.layout)
    dense_idx = len(dense) - 1
    for layer in reversed(spec.layers):
        record = cache.records.pop()
        if isinstance(layer, Dropout):
            keep, scale = record
            if keep is not None:
                carry *= keep
                carry *= scale
            continue
        x_in, _ = record
        if mask is not None:
            carry *= mask
        # a softmax layer is final and fused above; linear passes carry through
        gw, gb = grads.weights[dense_idx], grads.biases[dense_idx]
        np.matmul(x_in.T, carry, out=gw)
        gw += spec.l2_penalty * params.weights[dense_idx]
        carry.sum(axis=0, out=gb)
        if dense_idx == 0:
            break
        dense_idx -= 1
        # x_in is the previous dense layer's (post-dropout) output: read its
        # relu mask, then overwrite it with the gradient with respect to it
        mask = x_in > 0 if dense[dense_idx].activation == "relu" else None
        carry = np.matmul(carry, params.weights[dense_idx + 1].T, out=x_in)
    return grads


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
ADAM_BLOCK = 1 << 15  # elements per adam_step block, 256 KiB of float64


@dataclass
class OptimizerState:
    """Adaptive-moment accumulators, flat and in ``Parameters.flat`` order;
    ``adam_step`` updates them in place."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    learning_rate: float = 1e-3


def init_optimizer(params: Parameters, learning_rate: float = 1e-3) -> OptimizerState:
    zeros = np.zeros_like(params.flat)
    return OptimizerState(m=zeros, v=zeros.copy(), learning_rate=learning_rate)


def adam_step(params: Parameters, grads: Parameters, state: OptimizerState) -> None:
    """One bias-corrected adaptive-moment update, written in place into
    ``params.flat``, ``state.m``, ``state.v`` and ``state.step``; a caller that
    keeps a checkpoint copies ``params.flat``."""
    state.step += 1
    t = state.step
    # elementwise, so block by block gives the same bits while a block's arrays
    # stay in cache; the golden trajectory digests pin this operation order
    for start in range(0, params.flat.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        flat, m, v, g = params.flat[block], state.m[block], state.v[block], grads.flat[block]
        scratch = (1 - BETA1) * g
        m *= BETA1
        m += scratch
        np.multiply(g, 1 - BETA2, out=scratch)
        scratch *= g
        v *= BETA2
        v += scratch
        np.divide(v, 1 - BETA2 ** t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        delta = m / (1 - BETA1 ** t)
        delta *= state.learning_rate
        delta /= scratch
        flat -= delta


def total_loss(
    spec: NetworkSpec,
    params: Parameters,
    batch: np.ndarray,
    loss_kind: str,
    labels_or_target,
    class_weights: np.ndarray | None = None,
    mode: str = "train",
    dropout_seed: int = 0,
) -> float:
    """Data loss plus L2 term, the quantity backward differentiates."""
    out, _ = forward(spec, params, batch, mode=mode, dropout_seed=dropout_seed)
    if loss_kind == "weighted_ce":
        k = spec.output_dim
        w = np.ones(k) if class_weights is None else np.asarray(class_weights, dtype=np.float64)
        data = loss_weighted_ce(out, labels_or_target, w)
    elif loss_kind == "mse":
        data = loss_mse(out, labels_or_target)
    else:
        raise DataError(f"unknown loss kind {loss_kind!r}")
    return data + l2_term(spec, params)


def gradient_check(
    spec: NetworkSpec,
    params: Parameters,
    batch: np.ndarray,
    loss_kind: str,
    labels_or_target,
    class_weights: np.ndarray | None = None,
    n_coords: int = 200,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients
    over a random sample of parameter coordinates (at least ``n_coords`` when
    the network has that many).

    Dropout masks are replayed from a fixed seed for every evaluation, so the
    check is valid even with active dropout layers; the relative error is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    dropout_seed = seed
    _, cache = forward(spec, params, batch, mode="train", dropout_seed=dropout_seed)
    analytic = backward(spec, params, cache, loss_kind, labels_or_target, class_weights)

    flat = params.flat
    rng = make_rng(seed)
    chosen = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)

    def loss_at() -> float:
        return total_loss(
            spec, params, batch, loss_kind, labels_or_target, class_weights,
            mode="train", dropout_seed=dropout_seed,
        )

    worst = 0.0
    for i in chosen:
        original = flat[i]
        flat[i] = original + step
        plus = loss_at()
        flat[i] = original - step
        minus = loss_at()
        flat[i] = original
        numeric = (plus - minus) / (2 * step)
        analytic_value = analytic.flat[i]
        rel = abs(analytic_value - numeric) / max(abs(analytic_value), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


# -- model files ---------------------------------------------------------------
#
# The manifest holds spec and meta; the blob is ``Parameters.flat``: each dense
# layer's weight matrix (row-major) then its bias vector, in layer order.

MODEL_FORMAT = "sevpred-model-1"


def spec_to_dict(spec: NetworkSpec) -> dict:
    layers = []
    for layer in spec.layers:
        if isinstance(layer, Dense):
            layers.append({
                "type": "dense", "fan_in": layer.fan_in,
                "fan_out": layer.fan_out, "activation": layer.activation,
            })
        else:
            layers.append({"type": "dropout", "rate": layer.rate})
    return {"layers": layers, "l2_penalty": spec.l2_penalty}


_LAYER_FIELDS = {
    "dense": (Dense, {"fan_in": int, "fan_out": int, "activation": str}),
    "dropout": (Dropout, {"rate": float}),
}


def spec_from_dict(obj) -> NetworkSpec:
    """The network ``spec_to_dict`` describes; DataError if ``obj`` lacks the
    layer list, or a layer entry is not an object with its type's fields."""
    if not json_fits(obj, {"layers": [{"type": str}]}):
        raise DataError("model spec lacks a list of layer objects with a type")
    layers: list = []
    for entry in obj["layers"]:
        layer_type, fields = _LAYER_FIELDS.get(entry["type"], (None, None))
        if layer_type is None or not json_fits(entry, fields):
            raise DataError(f"malformed model layer {entry!r}")
        layers.append(layer_type(*(entry[name] for name in fields)))
    l2_penalty = obj.get("l2_penalty", 0.0)
    if not json_fits(l2_penalty, float):
        raise DataError(f"malformed model l2_penalty {l2_penalty!r}")
    return NetworkSpec(tuple(layers), l2_penalty)


def save_model(path: str | Path, spec: NetworkSpec, params: Parameters, meta: dict | None = None) -> None:
    manifest = {"format": MODEL_FORMAT, "spec": spec_to_dict(spec), "meta": meta or {}}
    save_blob(path, manifest, [("<f8", params.flat)])


def load_model(path: str | Path) -> tuple[NetworkSpec, Parameters, dict]:
    with open(path, "rb") as fh:
        manifest = read_manifest(fh, path, (MODEL_FORMAT,), "model")
        try:
            spec = spec_from_dict(manifest.get("spec"))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        (flat,) = read_arrays(fh, path, [("<f8", spec.layout[-1][1])])
    return spec, Parameters(flat, spec.layout), manifest.get("meta", {})
