import hashlib
import json

import numpy as np
import pytest

from sevpred import (
    AutoencoderConfig,
    ClassifierConfig,
    Dense,
    Dropout,
    NetworkSpec,
    Parameters,
    adam_step,
    backward,
    build_autoencoder,
    build_classifier,
    compute_class_weights,
    forward,
    gradient_check,
    init_optimizer,
    init_params,
    load_model,
    loss_mse,
    loss_weighted_ce,
    save_model,
    train_autoencoder,
    train_classifier,
)
from sevpred.errors import (
    CacheMismatch,
    DataError,
    LabelOutOfRange,
    NonFiniteActivation,
    ShapeMismatch,
)
from sevpred.neural import ADAM_BLOCK, OptimizerState, l2_term, softmax, total_loss
from tests.conftest import traced_peak


class TestSpecValidation:
    def test_chain_must_be_consistent(self):
        with pytest.raises(ShapeMismatch):
            NetworkSpec((Dense(4, 8), Dense(9, 2, "softmax")))

    def test_softmax_only_final(self):
        with pytest.raises(DataError):
            NetworkSpec((Dense(4, 8, "softmax"), Dense(8, 2, "linear")))

    def test_needs_dense_layer(self):
        with pytest.raises(DataError):
            NetworkSpec((Dropout(0.2),))

    def test_dropout_rate_range(self):
        with pytest.raises(DataError):
            Dropout(1.0)
        with pytest.raises(DataError):
            Dropout(-0.1)


class TestInit:
    def test_deterministic(self):
        spec = NetworkSpec((Dense(10, 6), Dense(6, 3, "softmax")))
        a = init_params(spec, seed=5)
        b = init_params(spec, seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_biases_zero(self):
        spec = NetworkSpec((Dense(10, 6), Dense(6, 3, "softmax")))
        params = init_params(spec, seed=1)
        for b in params.biases:
            assert (b == 0).all()

    def test_he_uniform_bound(self):
        spec = NetworkSpec((Dense(100, 100, "relu"),))
        params = init_params(spec, seed=2)
        assert np.abs(params.weights[0]).max() <= np.sqrt(6 / 100)

    def test_glorot_bound_for_linear(self):
        spec = NetworkSpec((Dense(50, 150, "linear"),))
        params = init_params(spec, seed=3)
        assert np.abs(params.weights[0]).max() <= np.sqrt(6 / 200)


class TestForward:
    def test_softmax_symmetry(self):
        spec = NetworkSpec((Dense(4, 4, "softmax"),))
        params = init_params(spec, seed=0)
        params.weights[0][:] = 0.0
        out, _ = forward(spec, params, np.ones((1, 4)))
        np.testing.assert_allclose(out, [[0.25, 0.25, 0.25, 0.25]])

    def test_dropout_identity_in_infer(self):
        # identity dense layers around the dropout, so infer output == input
        spec = NetworkSpec((Dense(3, 3, "linear"), Dropout(0.5), Dense(3, 3, "linear")))
        params = init_params(spec, seed=1)
        params.weights[0][:] = np.eye(3)
        params.weights[1][:] = np.eye(3)
        x = np.random.default_rng(0).normal(size=(5, 3))
        out, _ = forward(spec, params, x, mode="infer")
        np.testing.assert_array_equal(out, x)

    def test_relu_definition(self):
        spec = NetworkSpec((Dense(2, 2, "relu"),))
        params = init_params(spec, seed=0)
        params.weights[0][:] = np.eye(2)
        out, _ = forward(spec, params, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_width_mismatch(self):
        spec = NetworkSpec((Dense(4, 2, "linear"),))
        params = init_params(spec, seed=0)
        with pytest.raises(ShapeMismatch):
            forward(spec, params, np.zeros((3, 5)))

    def test_non_finite_detected(self):
        spec = NetworkSpec((Dense(2, 2, "linear"),))
        params = init_params(spec, seed=0)
        params.weights[0][0, 0] = np.inf
        with pytest.raises(NonFiniteActivation):
            forward(spec, params, np.ones((1, 2)))

    def test_softmax_rows_sum_to_one_even_for_huge_logits(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=1e4, size=(50, 6))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(probs).all()

    def test_inverted_dropout_preserves_expectation(self):
        # one big batch of identical rows = many seeded trials
        n = 100_000
        spec = NetworkSpec((Dense(4, 4, "linear"), Dropout(0.3), Dense(4, 4, "linear")))
        params = init_params(spec, seed=0)
        params.weights[0][:] = np.eye(4)
        params.weights[1][:] = np.eye(4)
        x = np.ones((n, 4))
        out, _ = forward(spec, params, x, mode="train", dropout_seed=123)
        np.testing.assert_allclose(out.mean(axis=0), 1.0, rtol=0.01)

    @pytest.mark.parametrize("mode", ["train", "infer"])
    @pytest.mark.parametrize("layers", [
        (Dense(6, 8, "relu"), Dropout(0.5), Dense(8, 3, "softmax")),
        (Dropout(0.5), Dense(6, 8, "linear"), Dropout(0.3), Dense(8, 6, "relu")),
    ], ids=["dense-first", "dropout-first"])
    def test_batch_left_untouched(self, layers, mode):
        spec = NetworkSpec(layers)
        x = np.random.default_rng(0).normal(size=(20, 6))
        before = x.tobytes()
        forward(spec, init_params(spec, seed=0), x, mode=mode, dropout_seed=1)
        assert x.tobytes() == before

    def test_infer_cache_has_no_records(self):
        spec = NetworkSpec((Dense(6, 8, "relu"), Dropout(0.5), Dense(8, 3, "softmax")))
        out, cache = forward(spec, init_params(spec, seed=0), np.ones((4, 6)), mode="infer")
        assert cache.records == []
        assert cache.output is out


class TestLosses:
    def test_perfect_prediction_zero_loss(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert loss_weighted_ce(probs, np.array([1]), np.ones(4)) == 0.0

    def test_uniform_probs_ln4(self):
        probs = np.full((3, 4), 0.25)
        value = loss_weighted_ce(probs, np.array([1, 2, 3]), np.ones(4))
        assert value == pytest.approx(np.log(4), abs=1e-6)

    def test_weighted_hand_value(self):
        probs = np.full((2, 2), 0.5)
        value = loss_weighted_ce(probs, np.array([1, 2]), np.array([2.0, 1.0]))
        assert value == pytest.approx(1.5 * np.log(2), abs=1e-6)

    def test_all_ones_weights_equal_unweighted(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(40, 4))
        probs = softmax(logits)
        labels = rng.integers(1, 5, size=40)
        weighted = loss_weighted_ce(probs, labels, np.ones(4))
        unweighted = float(np.mean(-np.log(probs[np.arange(40), labels - 1])))
        assert weighted == pytest.approx(unweighted, abs=1e-12)

    def test_label_out_of_range(self):
        probs = np.full((1, 4), 0.25)
        with pytest.raises(LabelOutOfRange):
            loss_weighted_ce(probs, np.array([5]), np.ones(4))

    def test_mse_values(self):
        assert loss_mse(np.array([[1.0, 1.0]]), np.array([[1.0, 1.0]])) == 0.0
        assert loss_mse(np.array([[0.0]]), np.array([[2.0]])) == 4.0
        assert loss_mse(np.array([[1.0, 1.0]]), np.array([[0.0, 2.0]])) == 1.0

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_mse(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("head", ["softmax", "linear"])
    def test_total_loss_follows_the_last_layer(self, head):
        """A softmax head's total loss is weighted cross-entropy plus the L2
        term, any other head's is mean squared error plus it, to the bit; the
        gradient check cannot tell, since both its sides read the same rule."""
        spec = NetworkSpec((Dense(5, 7, "relu"), Dropout(0.3), Dense(7, 3, head)), l2_penalty=0.01)
        params = init_params(spec, seed=2)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 5))
        out, _ = forward(spec, params, x, mode="train", dropout_seed=4)
        if head == "softmax":
            y, w = rng.integers(1, 4, size=9), np.array([0.5, 2.0, 1.5])
            expected = loss_weighted_ce(out, y, w) + l2_term(spec, params)
            assert total_loss(spec, params, x, y, w, dropout_seed=4) == expected
        else:
            t = rng.normal(size=(9, 3))
            expected = loss_mse(out, t) + l2_term(spec, params)
            assert total_loss(spec, params, x, t, dropout_seed=4) == expected


class TestBackward:
    def test_zero_weight_network_finite_gradients(self):
        spec = NetworkSpec((Dense(4, 4, "relu"), Dense(4, 3, "softmax")))
        params = init_params(spec, seed=0)
        for w in params.weights:
            w[:] = 0.0
        x = np.ones((6, 4))
        _, cache = forward(spec, params, x, mode="train")
        grads = backward(spec, params, cache, np.array([1, 2, 3, 1, 2, 3]))
        for g in grads.weights + grads.biases:
            assert np.isfinite(g).all()

    def test_zero_class_weights_leave_only_l2(self):
        spec = NetworkSpec((Dense(3, 5, "relu"), Dense(5, 2, "softmax")), l2_penalty=0.01)
        params = init_params(spec, seed=1)
        x = np.random.default_rng(1).normal(size=(8, 3))
        _, cache = forward(spec, params, x, mode="train")
        grads = backward(
            spec, params, cache, np.ones(8, dtype=int),
            class_weights=np.zeros(2),
        )
        for g, w in zip(grads.weights, params.weights):
            np.testing.assert_allclose(g, 0.01 * w, atol=1e-15)
        for g in grads.biases:
            np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_requires_train_cache(self):
        spec = NetworkSpec((Dense(2, 2, "softmax"),))
        params = init_params(spec, seed=0)
        _, cache = forward(spec, params, np.ones((1, 2)), mode="infer")
        with pytest.raises(CacheMismatch):
            backward(spec, params, cache, np.array([1]))

    def test_no_gradient_with_respect_to_the_batch(self):
        class NoTranspose(np.ndarray):
            @property
            def T(self):
                raise AssertionError("backward transposed the first layer's weights")

        spec = NetworkSpec((Dense(4, 6, "relu"), Dense(6, 3, "softmax")), l2_penalty=0.01)
        params = init_params(spec, seed=0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(8, 4)), rng.integers(1, 4, size=8)
        _, cache = forward(spec, params, x, mode="train")
        expected = backward(spec, params, cache, y).flat
        _, cache = forward(spec, params, x, mode="train")
        params.weights[0] = params.weights[0].view(NoTranspose)
        grads = backward(spec, params, cache, y)
        np.testing.assert_array_equal(grads.flat, expected)

    @pytest.mark.parametrize("layers,loss_kind", [
        ((Dense(6, 8, "relu"), Dropout(0.5), Dense(8, 3, "softmax")), "weighted_ce"),
        ((Dropout(0.5), Dense(6, 8, "linear"), Dropout(0.3), Dense(8, 6, "relu")), "mse"),
    ], ids=["dense-first", "dropout-first"])
    def test_consumed_cache_is_refused(self, layers, loss_kind):
        # backward writes its gradients into the cache's activations, so a
        # second pass over the same cache would read garbage
        spec = NetworkSpec(layers)
        params = init_params(spec, seed=0)
        x = np.random.default_rng(0).normal(size=(10, 6))
        target = np.array([1, 2, 3] * 3 + [1]) if loss_kind == "weighted_ce" else x
        _, cache = forward(spec, params, x, mode="train", dropout_seed=1)
        backward(spec, params, cache, target)
        with pytest.raises(CacheMismatch, match="consumed"):
            backward(spec, params, cache, target)

    def test_mse_target_batch_left_untouched(self):
        # an autoencoder's target is its own batch, the first layer's input
        spec = NetworkSpec((Dense(6, 8, "relu"), Dropout(0.5), Dense(8, 6, "linear")))
        x = np.random.default_rng(0).normal(size=(20, 6))
        before = x.tobytes()
        params = init_params(spec, seed=0)
        _, cache = forward(spec, params, x, mode="train", dropout_seed=1)
        backward(spec, params, cache, x)
        assert x.tobytes() == before


class TestGradientCheck:
    def test_linear_mse_is_essentially_exact(self):
        spec = NetworkSpec((Dense(6, 4, "linear"),))
        params = init_params(spec, seed=3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(10, 6))
        t = rng.normal(size=(10, 4))
        assert gradient_check(spec, params, x, t, seed=0) < 1e-7

    def test_three_layer_relu_weighted_ce(self):
        spec = NetworkSpec(
            (Dense(8, 16, "relu"), Dense(16, 8, "relu"), Dense(8, 4, "softmax")),
            l2_penalty=0.001,
        )
        params = init_params(spec, seed=4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 8))
        y = rng.integers(1, 5, size=16)
        w = np.array([2.0, 0.5, 1.0, 3.0])
        assert gradient_check(spec, params, x, y, w, seed=1) < 1e-5

    def test_active_dropout_with_replayed_masks(self):
        spec = NetworkSpec((Dense(5, 8, "relu"), Dropout(0.4), Dense(8, 5, "linear")))
        params = init_params(spec, seed=5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(12, 5))
        assert gradient_check(spec, params, x, x, seed=2) < 1e-5

    def test_leading_dropout_and_linear_hidden_layer(self):
        spec = NetworkSpec(
            (Dropout(0.3), Dense(6, 10, "linear"), Dropout(0.2), Dense(10, 8, "relu"),
             Dense(8, 3, "softmax")),
            l2_penalty=0.001,
        )
        params = init_params(spec, seed=7)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(14, 6))
        y = rng.integers(1, 4, size=14)
        assert gradient_check(spec, params, x, y, seed=3) < 1e-5

    def test_relu_output_layer_with_mse(self):
        # the output's relu mask must be read before the loss gradient is
        # written over the output
        spec = NetworkSpec((Dense(5, 8, "relu"), Dropout(0.3), Dense(8, 6, "relu")))
        params = init_params(spec, seed=8)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(12, 5))
        t = rng.normal(size=(12, 6))
        assert gradient_check(spec, params, x, t, seed=4) < 1e-5

    def test_corrupted_gradient_detected(self):
        spec = NetworkSpec((Dense(4, 6, "relu"), Dense(6, 3, "softmax")))
        params = init_params(spec, seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 4))
        y = rng.integers(1, 4, size=10)
        _, cache = forward(spec, params, x, mode="train", dropout_seed=9)
        grads = backward(spec, params, cache, y)

        # recompute the checker's comparison with a corrupted analytic gradient
        # at the middle entry of each weight matrix and bias vector
        corrupted = grads.flat * 1.01
        worst = 0.0
        h = 1e-5
        for start, stop, _ in params.layout:
            i = start + (stop - start) // 2
            original = params.flat[i]
            params.flat[i] = original + h
            plus = total_loss(spec, params, x, y, dropout_seed=9)
            params.flat[i] = original - h
            minus = total_loss(spec, params, x, y, dropout_seed=9)
            params.flat[i] = original
            numeric = (plus - minus) / (2 * h)
            bad = corrupted[i]
            worst = max(worst, abs(bad - numeric) / max(abs(bad), abs(numeric), 1e-8))
        assert worst > 1e-3


class TestMemoryBudget:
    """One pass of the classifier at width 300 on a 2000 x 300 batch allocates
    a small multiple of the batch: each layer keeps its output and a bool
    dropout mask, and infer mode keeps nothing once a layer is done. Backward
    consumes the cache: each carried gradient is written into the activation
    buffer it is the gradient of, so a step allocates no new carry."""

    @pytest.fixture
    def net(self):
        spec = build_classifier(ClassifierConfig(initial_neurons=300), input_dim=300, n_classes=4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2000, 300))
        return spec, init_params(spec, seed=0), x, rng.integers(1, 5, size=2000)

    def test_train_forward_and_backward(self, net):
        spec, params, x, y = net

        def step():
            _, cache = forward(spec, params, x, mode="train", dropout_seed=1)
            backward(spec, params, cache, y)

        assert traced_peak(step) <= 5 * x.nbytes

    def test_train_step_reuses_the_activations(self, net):
        spec, params, x, y = net

        def step():
            _, cache = forward(spec, params, x, mode="train", dropout_seed=1)
            backward(spec, params, cache, y)

        assert traced_peak(step) <= 3 * x.nbytes

    def test_autoencoder_step(self):
        spec = build_autoencoder(AutoencoderConfig(input_dim=1221, encoder_widths=(512, 256)))
        params = init_params(spec, seed=0)
        x = np.random.default_rng(0).normal(size=(1000, 1221))

        def step():
            _, cache = forward(spec, params, x, mode="train")
            backward(spec, params, cache, x)

        assert traced_peak(step) <= 4.2 * x.nbytes

    def test_train_classifier_run(self):
        # a whole run holds the flat parameters, the Adam moments and the
        # best-epoch checkpoint, but no gradient past its own step
        cfg = ClassifierConfig(initial_neurons=256, batch_size=100, epochs=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(800, 16))
        y = rng.integers(1, 5, size=800)
        params = init_params(build_classifier(cfg, 16, 4), seed=0)
        peak = traced_peak(lambda: train_classifier(cfg, x[:600], y[:600], x[600:], y[600:], n_classes=4))
        assert peak <= 7.3 * params.flat.nbytes

    def test_init_params(self):
        # the zeroed buffer alone: each weight matrix is drawn in its view,
        # not into an array of its own that a concatenation then copies
        spec = build_classifier(ClassifierConfig(initial_neurons=256), input_dim=256, n_classes=4)
        n_bytes = spec.layout[-1][1] * 8
        assert traced_peak(lambda: init_params(spec, seed=1)) <= 1.1 * n_bytes

    def test_infer_forward(self, net):
        spec, params, x, _ = net
        assert traced_peak(lambda: forward(spec, params, x, mode="infer")) <= 2 * x.nbytes

    def test_adam_step(self, net):
        # m, v and flat update in place; only a block's scratch buffer and
        # update are allocated, not full-size results (4x at most)
        _, params, _, _ = net
        grads = Parameters(np.ones_like(params.flat), params.layout)
        state = init_optimizer(params)
        assert traced_peak(lambda: adam_step(params, grads, state)) <= 2.5 * params.flat.nbytes


class TestAdam:
    """adam_step writes params.flat, state.m, state.v and state.step in place
    and returns nothing."""

    def make(self):
        spec = NetworkSpec((Dense(3, 2, "linear"),))
        params = init_params(spec, seed=7)
        state = init_optimizer(params, learning_rate=0.001)
        return params, state

    def test_zero_gradient_fixed_point(self):
        params, state = self.make()
        before = params.flat.copy()
        zero = Parameters(np.zeros_like(params.flat), params.layout)
        assert adam_step(params, zero, state) is None
        np.testing.assert_array_equal(params.flat, before)
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        params, state = self.make()
        before = params.weights[0].copy()
        rng = np.random.default_rng(8)
        # one layer: W0's draws, then b0's, fill the buffer in order
        grads = Parameters(rng.normal(size=params.flat.size), params.layout)
        adam_step(params, grads, state)
        # bias-corrected first step: delta = lr * g / (|g| + eps) ~ lr * sign(g)
        delta = params.weights[0] - before
        np.testing.assert_allclose(delta, -0.001 * np.sign(grads.weights[0]), rtol=1e-4)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            params, state = self.make()
            grads = Parameters(np.ones_like(params.flat), params.layout)
            adam_step(params, grads, state)
            adam_step(params, grads, state)
            np.testing.assert_array_equal(grads.flat, 1.0)  # the gradient is read, never written
            runs.append((params.flat, state))
        (flat_a, state_a), (flat_b, state_b) = runs
        np.testing.assert_array_equal(flat_a, flat_b)
        np.testing.assert_array_equal(state_a.m, state_b.m)
        np.testing.assert_array_equal(state_a.v, state_b.v)
        assert state_a.step == state_b.step == 2


    def test_blocks_match_whole_vector_update(self):
        # two full blocks and a partial one, against the update written out
        # over the whole vector in the same operation order
        rng = np.random.default_rng(9)
        n = 2 * ADAM_BLOCK + 123
        params = Parameters(rng.normal(size=n), NetworkSpec((Dense(n - 1, 1, "linear"),)).layout)
        grads = Parameters(rng.normal(size=n), params.layout)
        m0, v0, flat0 = rng.normal(size=n), rng.random(n), params.flat.copy()
        state = OptimizerState(m=m0.copy(), v=v0.copy(), step=3, learning_rate=0.01)
        adam_step(params, grads, state)
        g = grads.flat
        m = 0.9 * m0 + (1 - 0.9) * g
        v = 0.999 * v0 + ((1 - 0.999) * g) * g
        flat = flat0 - 0.01 * (m / (1 - 0.9 ** 4)) / (np.sqrt(v / (1 - 0.999 ** 4)) + 1e-8)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        np.testing.assert_array_equal(params.flat, flat)
        assert state.step == 4


class TestModelFile:
    def test_round_trip(self, tmp_path):
        spec = NetworkSpec(
            (Dense(5, 7, "relu"), Dropout(0.2), Dense(7, 3, "softmax")), l2_penalty=0.01
        )
        params = init_params(spec, seed=11)
        path = tmp_path / "net.model"
        save_model(path, spec, params, {"kind": "test"})
        spec2, params2, meta = load_model(path)
        assert spec2 == spec
        assert meta == {"kind": "test"}
        for a, b in zip(params.weights + params.biases, params2.weights + params2.biases):
            np.testing.assert_array_equal(a, b)

    def test_l2_term_formula(self):
        spec = NetworkSpec((Dense(2, 2, "linear"),), l2_penalty=0.5)
        params = init_params(spec, seed=0)
        params.weights[0][:] = [[1.0, 2.0], [3.0, 4.0]]
        params.biases[0][:] = [10.0, 10.0]  # biases are exempt
        assert l2_term(spec, params) == pytest.approx(0.5 * 30 / 2)

    def test_blob_is_the_flat_buffer(self, tmp_path):
        spec = NetworkSpec((Dense(4, 3, "relu"), Dense(3, 2, "softmax")))
        params = init_params(spec, seed=3)
        path = tmp_path / "net.model"
        save_model(path, spec, params)
        assert path.read_bytes().split(b"\n", 1)[1] == params.flat.tobytes()


class TestFlatParameters:
    def test_layer_views_share_the_flat_buffer(self):
        spec = NetworkSpec((Dense(3, 2, "relu"), Dense(2, 4, "softmax")))
        params = init_params(spec, seed=1)
        assert params.flat.size == 3 * 2 + 2 + 2 * 4 + 4
        params.weights[1][1, 3] = 5.0
        params.biases[0][1] = -2.0
        assert params.flat[3 * 2 + 2 + 1 * 4 + 3] == 5.0
        assert params.flat[3 * 2 + 1] == -2.0
        params.flat[-1] = 9.0
        assert params.biases[1][3] == 9.0

    def test_constructor_views_in_model_file_order(self):
        spec = NetworkSpec((Dense(2, 3, "relu"), Dense(3, 1, "softmax")))
        flat = np.arange(13.0)
        params = Parameters(flat, spec.layout)
        np.testing.assert_array_equal(params.weights[0], np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(params.biases[0], [6.0, 7.0, 8.0])
        np.testing.assert_array_equal(params.weights[1], [[9.0], [10.0], [11.0]])
        np.testing.assert_array_equal(params.biases[1], [12.0])
        flat[0] = 100.0  # the buffer is viewed, not copied
        assert params.weights[0][0, 0] == 100.0

    @pytest.mark.parametrize("spec", [
        NetworkSpec((Dense(1, 1, "linear"),)),
        NetworkSpec((Dense(5, 7, "relu"), Dropout(0.2), Dense(7, 3, "softmax"))),
        build_classifier(ClassifierConfig(initial_neurons=12), input_dim=9, n_classes=4),
        build_autoencoder(AutoencoderConfig(input_dim=10, encoder_widths=(6, 3))),
    ])
    def test_layout_tiles_the_flat_buffer(self, spec):
        """Each dense layer's weight and then bias view, back to back from
        0 to the end of ``flat``, each one exactly as long as its shape."""
        params = init_params(spec, seed=0)
        shapes = [s for d in spec.dense_layers() for s in ((d.fan_in, d.fan_out), (d.fan_out,))]
        assert [shape for _, _, shape in spec.layout] == shapes
        stops = [0] + [stop for _, stop, _ in spec.layout]
        assert [start for start, _, _ in spec.layout] == stops[:-1]
        assert stops[-1] == params.flat.size
        views = [v for pair in zip(params.weights, params.biases) for v in pair]
        for (start, stop, shape), view in zip(spec.layout, views, strict=True):
            assert view.shape == shape and view.size == stop - start
            view[...] = start  # a write through each view lands in its own slice
        np.testing.assert_array_equal(params.flat, np.repeat(stops[:-1], np.diff(stops)))


def _digest(params, history) -> str:
    # the bytes of every weight matrix and bias vector in order
    h = hashlib.sha256(np.asarray(params.flat, dtype="<f8").tobytes())
    h.update(json.dumps(history, sort_keys=True).encode())
    return h.hexdigest()


class TestGoldenTrajectory:
    """Float64 bit-identity of the engine at a fixed seed.

    The digests were captured from the per-layer engine that preceded the
    flat parameter buffer; a change that alters any bit of a trained
    parameter, a history value or the gradient-check result fails here.
    """

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(240, 12))
        y = 1 + (x[:, 0] > 0) + (x[:, 1] > 0.5)
        return x, y

    def test_classifier_with_dropout_and_l2(self, data):
        x, y = data
        cfg = ClassifierConfig(initial_neurons=16, initial_dropout=0.3, batch_size=64,
                               l2_penalty=1e-3, epochs=3, seed=5)
        params, history = train_classifier(
            cfg, x[:160], y[:160], x[160:], y[160:], compute_class_weights(y[:160], 3), n_classes=3
        )
        assert _digest(params, history) == (
            "f9889044f6edd8195c30e2d5a01baf2aa14469e70405aa17edefb3ea8b46af63"
        )

    def test_autoencoder(self, data):
        x, _ = data
        cfg = AutoencoderConfig(input_dim=12, encoder_widths=(8, 4), epochs=3, batch_size=64, seed=2)
        params, history = train_autoencoder(cfg, x[:160], x[160:])
        assert _digest(params, history) == (
            "b1d43ca1fc27fdf0418c644d2c29c9208a730403d4fc4e3a227c12cec3ddeb32"
        )

    def test_gradient_check_value(self, data):
        x, y = data
        spec = NetworkSpec(
            (Dense(12, 8, "relu"), Dropout(0.25), Dense(8, 3, "softmax")), l2_penalty=1e-2
        )
        err = gradient_check(spec, init_params(spec, seed=4), x[:30], y[:30],
                             n_coords=50, seed=1)
        assert err.hex() == "0x1.279c420771561p-25"
