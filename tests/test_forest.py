"""Regression forest: exact splits, determinism, importances."""

import numpy as np
import pytest

from smallpunch.errors import (
    BadConfig,
    LengthMismatch,
    ShapeMismatch,
    TooFewRows,
)
from smallpunch.forest import (
    ForestConfig,
    Leaf,
    Split,
    feature_importances,
    fit_forest,
    permutation_importances,
    predict_forest,
)


def _single_tree_cfg(**overrides):
    base = dict(n_trees=1, bootstrap=False, min_leaf=1, mtry=None, seed=0)
    base.update(overrides)
    return ForestConfig(**base)


def _brute_force_root(x, y):
    """Exhaustive best (feature, midpoint threshold) by summed squared error."""
    best = (np.inf, None, None)
    for j in range(x.shape[1]):
        values = np.unique(x[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            left = y[x[:, j] <= threshold]
            right = y[x[:, j] > threshold]
            sse = (np.sum((left - left.mean()) ** 2)
                   + np.sum((right - right.mean()) ** 2))
            if sse < best[0]:
                best = (sse, j, threshold)
    return best[1], best[2]


def test_step_data_splits_at_the_step():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    model = fit_forest(x, y, _single_tree_cfg(mtry=1))
    root = model.trees[0]
    assert isinstance(root, Split)
    assert root.feature == 0
    assert root.threshold == 1.5
    assert isinstance(root.left, Leaf) and root.left.value == 0.0
    assert isinstance(root.right, Leaf) and root.right.value == 10.0
    assert root.left.count == 2 and root.right.count == 2


def test_root_split_matches_exhaustive_search():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(24, 2))
    y = np.where(x[:, 1] > 0.3, 50.0, 10.0) + rng.normal(0.0, 0.5, 24)
    model = fit_forest(x, y, _single_tree_cfg(mtry=2))
    root = model.trees[0]
    feature, threshold = _brute_force_root(x, y)
    assert isinstance(root, Split)
    assert root.feature == feature
    assert root.threshold == pytest.approx(threshold, rel=1e-15)


def test_tied_splits_prefer_lower_feature_index():
    # both columns separate the targets perfectly; the tie must go to 0
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    model = fit_forest(x, y, _single_tree_cfg(mtry=2))
    root = model.trees[0]
    assert isinstance(root, Split)
    assert root.feature == 0
    assert root.threshold == 0.5


def test_threshold_value_routes_left():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    model = fit_forest(x, y, _single_tree_cfg(mtry=1))
    queries = np.array([[0.2], [2.9], [1.5]])
    assert np.array_equal(predict_forest(model, queries), [0.0, 10.0, 0.0])


def test_constant_targets_collapse_to_one_leaf():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 3))
    y = np.full(10, 42.0)
    model = fit_forest(x, y, ForestConfig(n_trees=5, seed=1))
    assert all(isinstance(t, Leaf) for t in model.trees)
    assert np.array_equal(predict_forest(model, x), np.full(10, 42.0))
    assert np.all(model.importances == 0.0)


def test_single_tree_memorizes_training_data():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 4))
    y = rng.uniform(100.0, 900.0, 20)
    model = fit_forest(x, y, _single_tree_cfg(mtry=4))
    assert np.allclose(predict_forest(model, x), y, atol=1e-12)


def test_predictions_stay_within_target_range():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(60, 5))
    y = rng.uniform(200.0, 800.0, 60)
    model = fit_forest(x, y, ForestConfig(n_trees=30, seed=2))
    queries = rng.normal(scale=10.0, size=(40, 5))
    pred = predict_forest(model, queries)
    assert np.all(pred >= y.min()) and np.all(pred <= y.max())


def test_forest_beats_predicting_the_mean():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, size=(80, 3))
    y = 100.0 * np.sin(x[:, 0]) + 20.0 * x[:, 1] + rng.normal(0.0, 1.0, 80)
    model = fit_forest(x, y, ForestConfig(n_trees=50, seed=3))
    train_rmse = float(np.sqrt(np.mean((predict_forest(model, x) - y) ** 2)))
    mean_rmse = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    assert train_rmse < mean_rmse


def test_same_seed_same_model_different_seed_differs():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 4))
    y = x[:, 0] * 50.0 + rng.normal(0.0, 5.0, 40)
    queries = rng.normal(size=(15, 4))
    a = predict_forest(fit_forest(x, y, ForestConfig(n_trees=20, seed=9)), queries)
    b = predict_forest(fit_forest(x, y, ForestConfig(n_trees=20, seed=9)), queries)
    c = predict_forest(fit_forest(x, y, ForestConfig(n_trees=20, seed=10)), queries)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_importances_concentrate_on_the_informative_feature():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(100, 4))
    y = 100.0 * x[:, 0] + rng.normal(0.0, 1.0, 100)
    model = fit_forest(x, y, ForestConfig(n_trees=40, mtry=4, seed=14))
    imp = feature_importances(model)
    assert imp.sum() == pytest.approx(1.0, abs=1e-8)
    assert imp[0] > 0.9


def test_permutation_importances_agree_with_impurity():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(100, 3))
    y = 80.0 * x[:, 1] + rng.normal(0.0, 1.0, 100)
    model = fit_forest(x, y, ForestConfig(n_trees=40, mtry=3, seed=16))
    increases = permutation_importances(model, x, y, seed=17)
    base = model.oob_rmse
    assert base is not None
    # breaking the informative feature hurts a lot; the noise features do not
    assert increases[1] > 10.0 * max(abs(increases[0]), abs(increases[2]), 1e-9)
    assert abs(increases[0]) < 0.05 * base + increases[1] * 0.05
    assert abs(increases[2]) < 0.05 * base + increases[1] * 0.05


def test_oob_rmse_present_with_bootstrap_absent_without():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(60, 3))
    y = 10.0 * x[:, 0] + rng.normal(0.0, 1.0, 60)
    with_bootstrap = fit_forest(x, y, ForestConfig(n_trees=50, seed=19))
    assert with_bootstrap.oob_rmse is not None and with_bootstrap.oob_rmse > 0.0
    without = fit_forest(x, y, ForestConfig(n_trees=5, bootstrap=False, seed=19))
    assert without.oob_rmse is None
    with pytest.raises(BadConfig):
        permutation_importances(without, x, y)


def test_config_validation():
    with pytest.raises(BadConfig):
        ForestConfig(n_trees=0)
    with pytest.raises(BadConfig):
        ForestConfig(min_leaf=0)
    with pytest.raises(BadConfig):
        ForestConfig(max_depth=0)
    with pytest.raises(BadConfig):
        ForestConfig(mtry=0)
    with pytest.raises(BadConfig):
        ForestConfig(seed=-1)


def test_fit_validation():
    x = np.zeros((4, 3))
    y = np.ones(4)
    with pytest.raises(BadConfig):
        fit_forest(x, y, ForestConfig(mtry=5))
    with pytest.raises(TooFewRows):
        fit_forest(np.zeros((1, 3)), np.ones(1))
    with pytest.raises(LengthMismatch):
        fit_forest(x, np.ones(3))


def test_predict_checks_width():
    x = np.arange(12.0).reshape(6, 2)
    model = fit_forest(x, np.arange(6.0) + 1.0, _single_tree_cfg())
    with pytest.raises(ShapeMismatch):
        predict_forest(model, np.zeros((2, 5)))


def test_max_depth_one_gives_a_stump():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(30, 2))
    y = np.where(x[:, 0] > 0.0, 10.0, 0.0)
    model = fit_forest(x, y, _single_tree_cfg(max_depth=1))
    root = model.trees[0]
    assert isinstance(root, Split)
    assert isinstance(root.left, Leaf) and isinstance(root.right, Leaf)
