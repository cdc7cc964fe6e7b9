"""Acceptance suite: one test per criterion, each at its stated tolerance.

Desk-scale synthetic data substitutes for the full production corpus, so
directional and property criteria stand in for the full-scale reference
numbers. A terminal-summary hook in conftest prints one pass/fail line per
criterion after the run.
"""

import numpy as np
import pytest

from sevpred import (
    AutoencoderConfig,
    ClassifierConfig,
    ContingencyTable,
    FeatureMatrix,
    GridSpec,
    SyntheticSpec,
    assemble,
    build_autoencoder,
    build_classifier,
    compute_class_weights,
    confusion,
    cramers_v,
    cross_validate,
    encode,
    fit_one_hot,
    fit_standardizer,
    generate_synthetic,
    gradient_check,
    grid_search,
    predict,
    stratified_split,
    train_autoencoder,
    train_classifier,
    weights_from_proportions,
)
from sevpred.dataset import ColumnKind
from sevpred.evaluation import accuracy, ber, stratified_folds
from sevpred.neural import Dense, Dropout, NetworkSpec, init_params

REFERENCE_PROPORTIONS = [0.0033, 0.710, 0.272, 0.0143]
REFERENCE_WEIGHTS = [75.94, 0.35, 0.92, 17.49]


# -- criterion 1 ---------------------------------------------------------------

def test_c1_class_weight_reproduction():
    """Feeding the reference severity proportions reproduces the reference
    class weights within 1% relative."""
    from_props = weights_from_proportions(REFERENCE_PROPORTIONS)
    np.testing.assert_allclose(from_props.w, REFERENCE_WEIGHTS, rtol=0.01)

    # same check through the label-count route
    counts = (np.asarray(REFERENCE_PROPORTIONS) * 10_000).round().astype(int)
    labels = np.repeat([1, 2, 3, 4], counts)
    from_labels = compute_class_weights(labels, 4)
    np.testing.assert_allclose(from_labels.w, REFERENCE_WEIGHTS, rtol=0.01)


# -- criterion 2 ---------------------------------------------------------------

def brute_force_cramers_v(counts: np.ndarray) -> float:
    counts = np.asarray(counts, dtype=float)
    r, c = counts.shape
    if min(r, c) <= 1:
        return 0.0
    n = counts.sum()
    chi2 = 0.0
    for i in range(r):
        for j in range(c):
            expected = counts[i].sum() * counts[:, j].sum() / n
            if expected > 0:
                chi2 += (counts[i, j] - expected) ** 2 / expected
    return min(1.0, np.sqrt(chi2 / (n * (min(r, c) - 1))))


def as_table(counts) -> ContingencyTable:
    counts = np.asarray(counts)
    return ContingencyTable(
        counts,
        tuple(f"r{i}" for i in range(counts.shape[0])),
        tuple(f"c{j}" for j in range(counts.shape[1])),
    )


def test_c2_cramers_v_oracle_equivalence():
    """500 random tables match the brute-force oracle within 1e-10; perfect
    association gives exactly 1, exact independence exactly 0 (1e-12)."""
    rng = np.random.default_rng(314159)
    checked = 0
    while checked < 500:
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        counts = rng.integers(0, 10_000 // (r * c), size=(r, c))
        if counts.sum() < 1:
            continue
        assert abs(cramers_v(as_table(counts)) - brute_force_cramers_v(counts)) <= 1e-10
        checked += 1

    for k in range(2, 7):
        diag = np.diag(rng.integers(1, 50, size=k))
        assert cramers_v(as_table(diag)) == pytest.approx(1.0, abs=1e-12)

    for _ in range(20):
        a = rng.integers(1, 9, size=int(rng.integers(2, 5)))
        b = rng.integers(1, 9, size=int(rng.integers(2, 5)))
        independent = np.outer(a, b)
        assert cramers_v(as_table(independent)) == pytest.approx(0.0, abs=1e-12)


# -- criterion 3 ---------------------------------------------------------------

def random_network(rng, loss_kind):
    depth = int(rng.integers(1, 5))
    widths = [int(rng.integers(3, 10)) for _ in range(depth + 1)]
    layers = []
    for j in range(depth):
        last = j == depth - 1
        if last:
            act = "softmax" if loss_kind == "weighted_ce" else "linear"
        else:
            act = "relu" if rng.random() < 0.7 else "linear"
        layers.append(Dense(widths[j], widths[j + 1], act))
        if not last and rng.random() < 0.4:
            layers.append(Dropout(0.0))
    penalty = float(rng.choice([0.0, 1e-3, 1e-2]))
    return NetworkSpec(tuple(layers), l2_penalty=penalty)


def test_c3_gradient_correctness():
    """Max relative error < 1e-5 on 20 random network/loss configurations
    (up to 4 dense layers, both losses, class weights active), 64-bit.

    Biases are jittered off their zero init so the check runs at a generic
    point: stacked relu layers can zero a whole row, which would park the
    next pre-activation exactly on the relu kink where the loss is not
    differentiable and central differences disagree with any subgradient.
    """
    rng = np.random.default_rng(2718)
    for case in range(20):
        loss_kind = "weighted_ce" if case % 2 == 0 else "mse"
        spec = random_network(rng, loss_kind)
        params = init_params(spec, seed=int(rng.integers(0, 2**31)))
        for b in params.biases:
            b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
        x = rng.standard_normal((12, spec.input_dim))
        if loss_kind == "weighted_ce":
            k = spec.output_dim
            target = rng.integers(1, k + 1, size=12)
            weights = rng.uniform(0.25, 3.0, size=k)
        else:
            target = rng.standard_normal((12, spec.output_dim))
            weights = None
        err = gradient_check(
            spec, params, x, target, weights,
            n_coords=200, seed=int(rng.integers(0, 2**31)),
        )
        assert err < 1e-5, f"config {case} ({loss_kind}): max rel err {err:.2e}"


# -- criteria 4 + 5 (one paired run) --------------------------------------------

ABLATION_PROPORTIONS = (0.005, 0.70, 0.27, 0.025)


def ablation_features():
    spec = SyntheticSpec(
        n_rows=20_000, class_proportions=ABLATION_PROPORTIONS,
        n_numeric=8, n_categorical=3, class_shift=0.4, seed=1234,
    )
    table = generate_synthetic(spec)
    numeric = [n for n, k in table.schema.columns if k == ColumnKind.NUMERIC]
    categorical = [n for n, k in table.schema.columns if k == ColumnKind.CATEGORICAL]
    fm = assemble(table, fit_one_hot(table, categorical), fit_standardizer(table, numeric))
    return fm.values, table.target


def classifier_runner(weighted: bool):
    def runner(train_x, train_y, val_x, val_y, seed):
        cfg = ClassifierConfig(
            initial_neurons=64, initial_dropout=0.2, batch_size=256,
            l2_penalty=1e-4, epochs=12, learning_rate=2e-3,
            use_class_weights=weighted, seed=seed,
        )
        weights = compute_class_weights(train_y, 4) if weighted else None
        params, _ = train_classifier(cfg, train_x, train_y, val_x, val_y,
                                     class_weights=weights, n_classes=4)
        spec = build_classifier(cfg, train_x.shape[1], 4)
        return lambda x: predict(params, spec, x)

    return runner


@pytest.fixture(scope="module")
def ablation_cv_results():
    """10-fold CV of the weighted and unweighted classifier on the same
    imbalanced synthetic data; shared by criteria 4 and 5."""
    x, y = ablation_features()
    weighted = cross_validate(classifier_runner(True), x, y, k=10, seed=2024, n_classes=4)
    unweighted = cross_validate(classifier_runner(False), x, y, k=10, seed=2024, n_classes=4)
    return weighted, unweighted


def mean_minority_recall(result):
    return float(np.mean([r.per_class_recall[0] for r in result.fold_reports]))


def test_c4_class_weight_ablation_direction(ablation_cv_results):
    """Class weights cut CV mean BER by at least 0.10, rescue the rarest
    class (recall > 0.30) that the unweighted model ignores (< 0.05)."""
    weighted, unweighted = ablation_cv_results
    assert unweighted.mean_ber - weighted.mean_ber >= 0.10, (
        f"BER gap {unweighted.mean_ber - weighted.mean_ber:.4f}"
    )
    assert mean_minority_recall(unweighted) < 0.05
    assert mean_minority_recall(weighted) > 0.30


def test_c5_accuracy_ber_tradeoff_direction(ablation_cv_results):
    """Removing class weights buys overall accuracy at the cost of BER."""
    weighted, unweighted = ablation_cv_results
    assert unweighted.mean_accuracy > weighted.mean_accuracy


# -- criterion 6 ---------------------------------------------------------------

def test_c6_autoencoder_effectiveness():
    """A 64->32->8 autoencoder on intrinsic-dimension-8 data reaches
    validation reconstruction MSE < 25% of the input variance (R^2 > 0.75);
    encode output width is exactly 8."""
    rng = np.random.default_rng(42)
    n, d, intrinsic = 4000, 64, 8
    latent = rng.standard_normal((n, intrinsic))
    mixing = rng.standard_normal((intrinsic, d))
    x = latent @ mixing
    n_train, n_val = int(n * 0.6), int(n * 0.2)
    mean, std = x[:n_train].mean(axis=0), x[:n_train].std(axis=0)
    xs = (x - mean) / std
    labels = tuple(f"f{i}" for i in range(d))
    train = FeatureMatrix(xs[:n_train], labels)
    val = FeatureMatrix(xs[n_train:n_train + n_val], labels)

    cfg = AutoencoderConfig(input_dim=d, encoder_widths=(32, 8), epochs=100,
                            batch_size=256, seed=5, learning_rate=1e-3)
    params, history = train_autoencoder(cfg, train, val)

    variance = float(val.values.var())
    final_mse = history["val_mse"][-1]
    assert final_mse < 0.25 * variance, f"MSE {final_mse:.4f} vs variance {variance:.4f}"

    encoded = encode(build_autoencoder(cfg), params, val)
    assert encoded.d == 8


# -- criterion 7 ---------------------------------------------------------------

def test_c7_grid_completeness_and_determinism():
    """The reference grid lists produce exactly 54 deterministically ranked
    rows; re-running reproduces the report exactly (n=5000 reduced data)."""
    spec = SyntheticSpec(
        n_rows=5000, class_proportions=(0.05, 0.60, 0.30, 0.05),
        n_numeric=6, n_categorical=2, class_shift=0.8, seed=55,
    )
    table = generate_synthetic(spec)
    numeric = [n for n, k in table.schema.columns if k == ColumnKind.NUMERIC]
    categorical = [n for n, k in table.schema.columns if k == ColumnKind.CATEGORICAL]
    fm = assemble(table, fit_one_hot(table, categorical), fit_standardizer(table, numeric))
    split = stratified_split(table.target, seed=4)
    base = ClassifierConfig(epochs=1, learning_rate=1e-3, seed=0)
    weights = compute_class_weights(table.target[split.train], 4)
    grid = GridSpec()  # the full 3 x 3 x 3 x 2 lists
    assert grid.size() == 54

    def run():
        results = grid_search(
            grid,
            fm.values[split.train], table.target[split.train],
            fm.values[split.val], table.target[split.val],
            base_config=base, class_weights=weights, seed=99, n_classes=4,
        )
        return [r.to_dict() for r in results]

    first = run()
    assert len(first) == 54
    assert len({r["cell"] for r in first}) == 54
    keys = [(r["val_ber"], -r["val_accuracy"], r["cell"]) for r in first]
    assert keys == sorted(keys)

    second = run()
    assert first == second


# -- criterion 8 ---------------------------------------------------------------

def test_c8_split_and_cv_stratification():
    """100 random label vectors: splits and folds are disjoint, exhaustive,
    and class-proportional within 1 row per class per part."""
    rng = np.random.default_rng(808)
    k_folds = 5
    for trial in range(100):
        n_classes = int(rng.integers(2, 5))
        # guarantee each class has at least k_folds rows
        base = np.repeat(np.arange(1, n_classes + 1), k_folds)
        extra = rng.integers(1, n_classes + 1, size=int(rng.integers(20, 200)))
        labels = np.concatenate([base, extra])
        rng.shuffle(labels)
        n = len(labels)
        class_counts = np.bincount(labels, minlength=n_classes + 1)[1:]

        split = stratified_split(labels, seed=trial)
        parts = [(split.train, 0.6), (split.val, 0.2), (split.test, 0.2)]
        merged = np.concatenate([p for p, _ in parts])
        assert len(merged) == n and len(np.unique(merged)) == n
        for part, ratio in parts:
            got = np.bincount(labels[part], minlength=n_classes + 1)[1:]
            assert (np.abs(got - class_counts * ratio) <= 1.0 + 1e-9).all()

        folds = stratified_folds(labels, k_folds, seed=trial)
        merged = np.concatenate(folds)
        assert len(merged) == n and len(np.unique(merged)) == n
        for fold in folds:
            got = np.bincount(labels[fold], minlength=n_classes + 1)[1:]
            assert (np.abs(got - class_counts / k_folds) <= 1.0 + 1e-9).all()


# -- criterion 9 ---------------------------------------------------------------

def test_c9_metric_identities():
    """BER identities and exact accuracy = trace/total against a direct
    counting oracle on 200 random confusion matrices."""
    rng = np.random.default_rng(909)

    for k in range(2, 7):
        labels = np.arange(1, k + 1).repeat(3)
        assert ber(confusion(labels, labels, k)) == 0.0
        constant = np.full(len(labels), 2)
        assert ber(confusion(constant, labels, k)) == pytest.approx((k - 1) / k, abs=1e-15)

    for _ in range(200):
        n = int(rng.integers(1, 80))
        k = int(rng.integers(2, 6))
        preds = rng.integers(1, k + 1, size=n)
        labels = rng.integers(1, k + 1, size=n)
        cm = confusion(preds, labels, k)
        direct = sum(int(p == t) for p, t in zip(preds, labels)) / n
        assert accuracy(cm) == direct
        assert accuracy(cm) == np.trace(cm.counts) / cm.total
