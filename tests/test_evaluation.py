import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevpred import (
    ConfusionMatrix,
    GridSpec,
    accuracy,
    ber,
    confusion,
    cross_validate,
    grid_search,
    metrics_from_confusion,
    stratified_folds,
)
from sevpred.errors import ClassTooSmall, DataError, EmptyConfusion, LabelOutOfRange
from sevpred.models import ClassifierConfig


def accuracy_oracle(preds, labels):
    """Direct row counting, independent of the confusion-matrix path."""
    return sum(1 for p, t in zip(preds, labels) if p == t) / len(preds)


class TestConfusion:
    def test_identity(self):
        cm = confusion([1, 2, 3, 4], [1, 2, 3, 4], 4)
        np.testing.assert_array_equal(cm.counts, np.eye(4, dtype=int))

    def test_constant_predictor_column_mass(self):
        cm = confusion([2, 2, 2, 2], [1, 2, 3, 4], 4)
        assert cm.counts[:, 1].tolist() == [1, 1, 1, 1]
        assert cm.counts.sum() == cm.counts[:, 1].sum()

    def test_empty_input(self):
        cm = confusion([], [], 3)
        assert cm.counts.tolist() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            confusion([5], [1], 4)
        with pytest.raises(LabelOutOfRange):
            confusion([1], [0], 4)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="2 predictions vs 1 labels"):
            confusion([1, 2], [1], 2)


class TestBer:
    def test_perfect_predictor(self):
        assert ber(confusion([1, 2, 3, 4], [1, 2, 3, 4], 4)) == 0.0

    def test_constant_predictor(self):
        cm = confusion([2] * 8, [1, 1, 2, 2, 3, 3, 4, 4], 4)
        assert ber(cm) == pytest.approx(0.75)

    def test_unrepresented_class_excluded_with_flag(self):
        cm = confusion([1, 2], [1, 2], 4)
        report = metrics_from_confusion(cm)
        assert report.unrepresented == (3, 4)
        assert report.ber == 0.0
        assert report.per_class_recall[2] is None

    def test_empty_confusion_rejected(self):
        with pytest.raises(EmptyConfusion):
            ber(ConfusionMatrix(np.zeros((3, 3), dtype=int)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 9))
    @settings(max_examples=50, deadline=None)
    def test_row_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 12, size=(4, 4))
        counts[np.diag_indices(4)] += 1  # every class represented
        base = ber(ConfusionMatrix(counts))
        row = int(rng.integers(0, 4))
        scaled = counts.copy()
        scaled[row] *= scale
        assert ber(ConfusionMatrix(scaled)) == pytest.approx(base, abs=1e-12)

    def test_equal_row_totals_ber_is_one_minus_accuracy(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            row_total = int(rng.integers(5, 30))
            counts = np.zeros((k, k), dtype=int)
            for i in range(k):
                cuts = np.sort(rng.integers(0, row_total + 1, size=k - 1))
                parts = np.diff(np.concatenate([[0], cuts, [row_total]]))
                counts[i] = parts
            cm = ConfusionMatrix(counts)
            assert 1.0 - ber(cm) == pytest.approx(accuracy(cm), abs=1e-12)


class TestAccuracy:
    def test_trace_over_total(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 6))
            preds = rng.integers(1, k + 1, size=n)
            labels = rng.integers(1, k + 1, size=n)
            cm = confusion(preds, labels, k)
            assert accuracy(cm) == accuracy_oracle(preds, labels)
            assert accuracy(cm) == np.trace(cm.counts) / n


class TestFolds:
    def test_fold_sizes_and_stratification(self):
        labels = np.repeat([1, 2, 3, 4], [100, 500, 300, 100])
        folds = stratified_folds(labels, 10, seed=3)
        for fold in folds:
            assert len(fold) == 100
            counts = np.bincount(labels[fold], minlength=5)[1:]
            np.testing.assert_array_equal(counts, [10, 50, 30, 10])

    def test_disjoint_exhaustive(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(1, 4, size=229)
        folds = stratified_folds(labels, 5, seed=1)
        merged = np.concatenate(folds)
        assert len(merged) == 229
        assert len(np.unique(merged)) == 229

    def test_pure_function_of_inputs(self):
        labels = np.array([1, 2] * 30)
        a = stratified_folds(labels, 3, seed=9)
        b = stratified_folds(labels, 3, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_class_too_small(self):
        labels = np.array([1] * 3 + [2] * 50)
        with pytest.raises(ClassTooSmall):
            stratified_folds(labels, 5, seed=0)


def constant_runner(train_x, train_y, val_x, val_y, seed):
    return lambda x: np.full(len(x), 2, dtype=np.int64)


def nearest_mean_runner(train_x, train_y, val_x, val_y, seed):
    classes = np.unique(train_y)
    means = np.stack([train_x[train_y == c].mean(axis=0) for c in classes])

    def predict_fn(x):
        d = ((x[:, None, :] - means[None]) ** 2).sum(axis=2)
        return classes[np.argmin(d, axis=1)]

    return predict_fn


class TestCrossValidate:
    def balanced_data(self, n=400, seed=0):
        rng = np.random.default_rng(seed)
        y = np.repeat([1, 2], n // 2)
        x = rng.normal(size=(n, 3)) + (y == 2)[:, None] * 3.0
        return x, y

    def test_constant_runner_zero_sigma(self):
        x, y = self.balanced_data()
        result = cross_validate(constant_runner, x, y, k=10, seed=4, n_classes=2)
        assert result.std_ber == 0.0
        assert result.mean_ber == pytest.approx(0.5)

    def test_learner_beats_constant(self):
        x, y = self.balanced_data(seed=2)
        result = cross_validate(nearest_mean_runner, x, y, k=5, seed=4, n_classes=2)
        assert result.mean_ber < 0.1
        assert len(result.fold_reports) == 5

    def test_fold_membership_deterministic(self):
        x, y = self.balanced_data(seed=3)
        a = cross_validate(nearest_mean_runner, x, y, k=4, seed=7, n_classes=2)
        b = cross_validate(nearest_mean_runner, x, y, k=4, seed=7, n_classes=2)
        assert a.to_dict() == b.to_dict()

    def test_sigma_is_sample_std(self):
        x, y = self.balanced_data(seed=5)
        result = cross_validate(nearest_mean_runner, x, y, k=4, seed=1, n_classes=2)
        bers = [r.ber for r in result.fold_reports]
        assert result.std_ber == pytest.approx(np.std(bers, ddof=1))


class TestGridSearch:
    def data(self):
        rng = np.random.default_rng(6)
        y = rng.integers(1, 3, size=300)
        x = rng.normal(size=(300, 4)) + (y == 2)[:, None] * 2.5
        return x[:200], y[:200], x[200:], y[200:]

    def base(self):
        return ClassifierConfig(initial_neurons=8, epochs=2, batch_size=64,
                                learning_rate=3e-3, seed=0)

    def test_cell_enumeration_order_and_count(self):
        grid = GridSpec((16, 24), (0.1, 0.2), (32,), (0.001,))
        cells = grid.cells()
        assert len(cells) == grid.size() == 4
        assert cells[0] == {"initial_neurons": 16, "initial_dropout": 0.1,
                            "batch_size": 32, "l2_penalty": 0.001}
        assert cells[1]["initial_dropout"] == 0.2

    def test_reference_grid_is_54(self):
        assert GridSpec().size() == 54

    def test_single_cell(self):
        tx, ty, vx, vy = self.data()
        grid = GridSpec((8,), (0.1,), (64,), (0.001,))
        results = grid_search(grid, tx, ty, vx, vy, base_config=self.base(),
                              seed=3, n_classes=2)
        assert len(results) == 1
        assert results[0].index == 0

    def test_duplicate_cells_identical_metrics(self):
        tx, ty, vx, vy = self.data()
        grid = GridSpec((8, 8), (0.1,), (64,), (0.001,))
        results = grid_search(grid, tx, ty, vx, vy, base_config=self.base(),
                              seed=3, n_classes=2)
        by_index = sorted(results, key=lambda r: r.index)
        assert by_index[0].val_ber == by_index[1].val_ber
        assert by_index[0].val_accuracy == by_index[1].val_accuracy

    def test_result_count_matches_product(self):
        tx, ty, vx, vy = self.data()
        grid = GridSpec((8, 12), (0.1, 0.3), (64,), (0.001, 0.01))
        results = grid_search(grid, tx, ty, vx, vy, base_config=self.base(),
                              seed=5, n_classes=2)
        assert len(results) == 8

    def test_ranked_by_ber_then_accuracy_then_index(self):
        tx, ty, vx, vy = self.data()
        grid = GridSpec((8, 12), (0.1, 0.2), (64,), (0.001,))
        results = grid_search(grid, tx, ty, vx, vy, base_config=self.base(),
                              seed=5, n_classes=2)
        keys = [(r.val_ber, -r.val_accuracy, r.index) for r in results]
        assert keys == sorted(keys)

    def test_base_config_fields_reach_every_cell(self, monkeypatch):
        seen = []

        def fake_train(cfg, *args, **kwargs):
            seen.append(cfg)
            return None, {"best_epoch": 0, "val_ber": [0.5], "val_accuracy": [0.5]}

        monkeypatch.setattr("sevpred.models.train_classifier", fake_train)
        # every field off its default, so a field left at its default shows
        base = ClassifierConfig(initial_neurons=40, initial_dropout=0.25, batch_size=99,
                                l2_penalty=0.5, epochs=7, use_class_weights=False,
                                seed=123, learning_rate=0.02)
        assert all(getattr(base, f.name) != f.default for f in dataclasses.fields(base))
        grid = GridSpec((8, 12), (0.1,), (64,), (0.001,))
        tx, ty, vx, vy = self.data()
        results = grid_search(grid, tx, ty, vx, vy, base_config=base, seed=3, n_classes=2)
        assert len(seen) == grid.size()
        by_index = sorted(results, key=lambda r: r.index)
        for cfg, cell, result in zip(seen, grid.cells(), by_index):
            for f in dataclasses.fields(cfg):
                if f.name in cell:
                    assert getattr(cfg, f.name) == cell[f.name]
                elif f.name == "seed":
                    assert cfg.seed == result.seed
                else:
                    assert getattr(cfg, f.name) == getattr(base, f.name), f.name

    def test_parallel_jobs_rejected(self):
        tx, ty, vx, vy = self.data()
        grid = GridSpec((8,), (0.1,), (64,), (0.001,))
        with pytest.raises(DataError, match="serially"):
            grid_search(grid, tx, ty, vx, vy, base_config=self.base(), seed=9,
                        n_classes=2, jobs=2)

    def test_empty_grid_list_rejected(self):
        with pytest.raises(DataError):
            GridSpec((), (0.1,), (64,), (0.001,))
