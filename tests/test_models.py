import numpy as np
import pytest

from sevpred import (
    AutoencoderConfig,
    ClassifierConfig,
    ClassWeights,
    Dense,
    Dropout,
    FeatureMatrix,
    build_autoencoder,
    build_classifier,
    compute_class_weights,
    encode,
    predict,
    train_autoencoder,
    train_classifier,
    weights_from_proportions,
)
from sevpred.errors import (
    DataError,
    LabelOutOfRange,
    MissingClass,
    NonFiniteActivation,
    WidthMismatch,
)
from sevpred.evaluation import ber, confusion
from sevpred.neural import init_params


class TestClassWeights:
    def test_balanced_labels_give_unit_weights(self):
        labels = np.array([1, 2, 3, 4] * 25)
        np.testing.assert_allclose(compute_class_weights(labels, 4).w, 1.0)

    def test_hand_value(self):
        labels = np.array([1, 2, 2, 2])
        np.testing.assert_allclose(
            compute_class_weights(labels, 2).w, [2.0, 2 / 3], atol=1e-12
        )

    def test_matches_reference_severity_weights(self):
        weights = weights_from_proportions([0.0033, 0.710, 0.272, 0.0143])
        reference = np.array([75.94, 0.35, 0.92, 17.49])
        np.testing.assert_allclose(weights.w, reference, rtol=0.01)

    def test_weighted_mass_equals_unweighted(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(1, 5, size=1000)
        for c in range(1, 5):
            labels[c] = c  # ensure presence
        weights = compute_class_weights(labels, 4)
        counts = np.bincount(labels, minlength=5)[1:]
        assert (weights.w * counts).sum() == pytest.approx(len(labels), rel=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(MissingClass):
            compute_class_weights(np.array([1, 1, 2]), 3)

    def test_positive_weights_enforced(self):
        with pytest.raises(DataError):
            ClassWeights(np.array([1.0, 0.0]))


def feature_matrix(values):
    values = np.asarray(values, dtype=np.float64)
    return FeatureMatrix(values, tuple(f"f{i}" for i in range(values.shape[1])))


class TestAutoencoder:
    def test_committed_topology(self):
        cfg = AutoencoderConfig(input_dim=1218, encoder_widths=(512, 256), seed=0)
        spec = build_autoencoder(cfg)
        dense = spec.dense_layers()
        assert [(l.fan_in, l.fan_out, l.activation) for l in dense] == [
            (1218, 512, "relu"),
            (512, 256, "relu"),
            (256, 512, "relu"),
            (512, 1218, "linear"),
        ]

    def test_latent_cannot_exceed_input(self):
        with pytest.raises(DataError):
            AutoencoderConfig(input_dim=8, encoder_widths=(16,))

    @pytest.mark.parametrize("widths", [(), (4, 0), (-2,)])
    def test_widths_must_be_positive(self, widths):
        with pytest.raises(DataError):
            AutoencoderConfig(input_dim=8, encoder_widths=widths)

    def test_loss_decreases(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(200, 32)) @ rng.normal(size=(32, 32)) * 0.2
        cfg = AutoencoderConfig(input_dim=32, encoder_widths=(16, 8), epochs=50,
                                batch_size=50, seed=3, learning_rate=5e-3)
        _, history = train_autoencoder(cfg, feature_matrix(x[:150]), feature_matrix(x[150:]))
        assert history["train_mse"][-1] < 0.5 * history["train_mse"][0]

    def test_identity_sized_linear_ae_reaches_near_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 6))
        cfg = AutoencoderConfig(input_dim=6, encoder_widths=(6,), epochs=200,
                                batch_size=40, seed=1, learning_rate=1e-2,
                                hidden_activation="linear")
        _, history = train_autoencoder(cfg, feature_matrix(x[:90]), feature_matrix(x[90:]))
        assert history["val_mse"][-1] < 0.01

    def test_deterministic_history(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 10))
        cfg = AutoencoderConfig(input_dim=10, encoder_widths=(4,), epochs=5,
                                batch_size=32, seed=9)
        _, h1 = train_autoencoder(cfg, feature_matrix(x[:80]), feature_matrix(x[80:]))
        _, h2 = train_autoencoder(cfg, feature_matrix(x[:80]), feature_matrix(x[80:]))
        assert h1 == h2

    def test_monotone_trend(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 16)) @ rng.normal(size=(16, 16)) * 0.3
        cfg = AutoencoderConfig(input_dim=16, encoder_widths=(8, 4), epochs=40,
                                batch_size=64, seed=4, learning_rate=3e-3)
        _, history = train_autoencoder(cfg, feature_matrix(x[:240]), feature_matrix(x[240:]))
        train = np.asarray(history["train_mse"])
        decreasing = (np.diff(train) <= 0).mean()
        assert decreasing >= 0.9

    def test_overflow_names_epoch_and_batch(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 8))
        val = x[30:].copy()
        x[5, :] = 1e308
        cfg = AutoencoderConfig(input_dim=8, encoder_widths=(4,), epochs=2, batch_size=40)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteActivation, match=r"dense layer 0 in epoch 0, batch 0$"):
                train_autoencoder(cfg, feature_matrix(x[:30]), feature_matrix(val))

    def test_overflow_in_validation_names_the_epoch(self):
        # one 1e308 cell stays finite through the forward pass, but its
        # squared error overflows, so the batch stops before its step
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 8))
        val = x[30:].copy()
        x[5, 2] = 1e308
        cfg = AutoencoderConfig(input_dim=8, encoder_widths=(4,), epochs=2, batch_size=40)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteActivation, match=r"^non-finite loss in epoch 0, batch 0$"):
                train_autoencoder(cfg, feature_matrix(x[:30]), feature_matrix(val))

    def test_width_mismatch(self):
        cfg = AutoencoderConfig(input_dim=8, encoder_widths=(4,), epochs=1, batch_size=8)
        with pytest.raises(WidthMismatch):
            train_autoencoder(cfg, feature_matrix(np.zeros((4, 7))), feature_matrix(np.zeros((4, 8))))


class TestEncode:
    def trained(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(150, 12))
        cfg = AutoencoderConfig(input_dim=12, encoder_widths=(6, 3), epochs=3,
                                batch_size=50, seed=8)
        params, _ = train_autoencoder(cfg, feature_matrix(x[:100]), feature_matrix(x[100:]))
        return build_autoencoder(cfg), params, x

    def test_output_width_is_latent(self):
        spec, params, x = self.trained()
        latent = encode(spec, params, feature_matrix(x))
        assert latent.d == 3
        assert latent.column_labels == ("latent_0", "latent_1", "latent_2")

    def test_empty_input(self):
        spec, params, _ = self.trained()
        latent = encode(spec, params, np.zeros((0, 12)))
        assert latent.values.shape == (0, 3)

    def test_deterministic_and_rowwise_pure(self):
        spec, params, x = self.trained()
        whole = encode(spec, params, x).values
        again = encode(spec, params, x).values
        np.testing.assert_array_equal(whole, again)
        stacked = np.vstack([encode(spec, params, x[:40]).values,
                             encode(spec, params, x[40:]).values])
        np.testing.assert_array_equal(whole, stacked)

    def test_width_mismatch(self):
        spec, params, _ = self.trained()
        with pytest.raises(WidthMismatch):
            encode(spec, params, np.zeros((3, 11)))


class TestBuildClassifier:
    def test_committed_topology(self):
        cfg = ClassifierConfig(initial_neurons=1218, initial_dropout=0.3, seed=0)
        spec = build_classifier(cfg, 1218, 4)
        dense = spec.dense_layers()
        assert [l.fan_out for l in dense] == [1218, 609, 304, 4]
        dropouts = [l.rate for l in spec.layers if isinstance(l, Dropout)]
        assert dropouts[0] == pytest.approx(0.3)
        assert dropouts[1] == pytest.approx(0.2)

    def test_encoder_input_dimension(self):
        cfg = ClassifierConfig(initial_neurons=1218, initial_dropout=0.2, seed=0)
        spec = build_classifier(cfg, 256, 4)
        assert spec.dense_layers()[0].fan_in == 256

    def test_output_layer_width(self):
        cfg = ClassifierConfig(initial_neurons=64, seed=0)
        assert build_classifier(cfg, 10, 4).output_dim == 4

    def test_dropout_floor(self):
        cfg = ClassifierConfig(initial_neurons=64, initial_dropout=0.1, seed=0)
        spec = build_classifier(cfg, 10, 4)
        dropouts = [l.rate for l in spec.layers if isinstance(l, Dropout)]
        assert dropouts[1] == pytest.approx(0.1)


def separable_data(seed=0, n=600):
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 3, size=n)
    x = rng.normal(size=(n, 4)) + (y == 2)[:, None] * 4.0
    return x, y


class TestTrainClassifier:
    def test_separable_data_low_ber(self):
        x, y = separable_data()
        cfg = ClassifierConfig(initial_neurons=16, initial_dropout=0.1, batch_size=64,
                               l2_penalty=0.0, epochs=30, learning_rate=3e-3, seed=1)
        params, history = train_classifier(cfg, x[:400], y[:400], x[400:], y[400:],
                                           n_classes=2)
        assert min(history["val_ber"]) < 0.05

    def test_checkpoint_returns_best_epoch_params(self):
        x, y = separable_data(seed=3)
        cfg = ClassifierConfig(initial_neurons=8, initial_dropout=0.1, batch_size=64,
                               l2_penalty=0.0, epochs=8, learning_rate=3e-3, seed=2)
        params, history = train_classifier(cfg, x[:400], y[:400], x[400:], y[400:],
                                           n_classes=2)
        best = history["best_epoch"]
        assert history["val_ber"][best] == min(history["val_ber"])
        spec = build_classifier(cfg, 4, 2)
        preds = predict(params, spec, x[400:])
        assert ber(confusion(preds, y[400:], 2)) == history["val_ber"][best]

    def test_checkpoint_survives_later_epochs(self):
        # the best of 8 epochs is not the last, so the returned parameters
        # must be a copy taken then, not the buffer training went on updating
        rng = np.random.default_rng(3)
        x = rng.normal(size=(240, 12))
        y = 1 + (x[:, 0] > 0) + (x[:, 1] > 0.5)
        cfg = ClassifierConfig(initial_neurons=16, initial_dropout=0.3, batch_size=64,
                               l2_penalty=1e-3, epochs=8, seed=5)
        params, history = train_classifier(
            cfg, x[:160], y[:160], x[160:], y[160:], compute_class_weights(y[:160], 3), n_classes=3
        )
        best = history["best_epoch"]
        assert best == 5 and history["val_ber"][-1] != history["val_ber"][best]
        preds = predict(params, build_classifier(cfg, 12, 3), x[160:])
        assert ber(confusion(preds, y[160:], 3)) == history["val_ber"][best]

    def test_all_ones_weights_match_disabled_weights(self):
        x, y = separable_data(seed=5)
        base = dict(initial_neurons=8, initial_dropout=0.2, batch_size=64,
                    l2_penalty=1e-4, epochs=4, learning_rate=1e-3, seed=7)
        cfg_on = ClassifierConfig(**base, use_class_weights=True)
        cfg_off = ClassifierConfig(**base, use_class_weights=False)
        ones = ClassWeights(np.ones(2))
        p1, h1 = train_classifier(cfg_on, x[:400], y[:400], x[400:], y[400:], ones, n_classes=2)
        p2, h2 = train_classifier(cfg_off, x[:400], y[:400], x[400:], y[400:], ones, n_classes=2)
        assert h1 == h2
        np.testing.assert_array_equal(p1.flat, p2.flat)

    def test_deterministic_trajectory(self):
        x, y = separable_data(seed=8)
        cfg = ClassifierConfig(initial_neurons=8, initial_dropout=0.3, batch_size=128,
                               l2_penalty=1e-4, epochs=3, learning_rate=1e-3, seed=11)
        p1, h1 = train_classifier(cfg, x[:400], y[:400], x[400:], y[400:], n_classes=2)
        p2, h2 = train_classifier(cfg, x[:400], y[:400], x[400:], y[400:], n_classes=2)
        assert h1 == h2
        np.testing.assert_array_equal(p1.flat, p2.flat)

    def test_label_out_of_range(self):
        x, y = separable_data(seed=9)
        cfg = ClassifierConfig(initial_neurons=8, epochs=1, batch_size=64, seed=0)
        with pytest.raises(LabelOutOfRange):
            train_classifier(cfg, x[:400], y[:400], x[400:], y[400:], n_classes=1)

    def test_width_mismatch(self):
        x, y = separable_data(seed=10)
        cfg = ClassifierConfig(initial_neurons=8, epochs=1, batch_size=64, seed=0)
        with pytest.raises(WidthMismatch):
            train_classifier(cfg, x[:400], y[:400], x[400:, :3], y[400:], n_classes=2)
        y4 = 1 + np.arange(len(y)) % 4
        with pytest.raises(WidthMismatch, match="3 class weights for 4 classes"):
            train_classifier(cfg, x[:400], y4[:400], x[400:], y4[400:], ClassWeights(np.ones(3)), n_classes=4)

    def test_non_finite_validation_names_its_epoch(self):
        """One batch per epoch: the first step is finite, and the update it
        makes at a learning rate of 1e308 overflows the validation pass."""
        x, y = separable_data(seed=12)
        cfg = ClassifierConfig(initial_neurons=8, epochs=2, batch_size=400, learning_rate=1e308, seed=0)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteActivation, match="in epoch 0, validation$"):
            train_classifier(cfg, x[:400], y[:400], x[400:], y[400:], n_classes=2)


class TestPredict:
    def test_argmax_and_tie_break(self):
        # identity-ish network so we control the probabilities via logits
        spec = build_classifier(ClassifierConfig(initial_neurons=8, seed=0), 4, 4)
        params = init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        preds = predict(params, spec, x)
        assert preds.shape == (5,)
        assert ((preds >= 1) & (preds <= 4)).all()

    def test_exact_tie_prefers_lower_class(self):
        from sevpred.neural import Dense, NetworkSpec, Parameters

        spec = NetworkSpec((Dense(2, 2, "softmax"),))
        params = Parameters(np.zeros(6), spec.layout)
        preds = predict(params, spec, np.ones((3, 2)))
        assert preds.tolist() == [1, 1, 1]

    def test_empty_input(self):
        spec = build_classifier(ClassifierConfig(initial_neurons=8, seed=0), 4, 4)
        params = init_params(spec, seed=0)
        assert predict(params, spec, np.zeros((0, 4))).tolist() == []

    def test_monotone_logit_transform_invariance(self):
        from sevpred.neural import Dense, NetworkSpec, Parameters

        rng = np.random.default_rng(33)
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=4)
        x = rng.normal(size=(50, 6))
        spec = NetworkSpec((Dense(6, 4, "softmax"),))
        base = predict(Parameters(np.append(w, b), spec.layout), spec, x)
        scaled = predict(Parameters(np.append(w * 3.0, b * 3.0 + 1.5), spec.layout), spec, x)
        np.testing.assert_array_equal(base, scaled)
