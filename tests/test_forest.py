"""Regression forest: exact splits, determinism, importances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from smallpunch.curves import GridSpec, resample
from smallpunch.errors import (
    BadConfig,
    LengthMismatch,
    ShapeMismatch,
    TooFewRows,
)
from smallpunch.features import apply_standardizer, assemble, fit_standardizer
from smallpunch.forest import (
    ForestConfig,
    Leaf,
    Split,
    _tree_rng,
    feature_importances,
    fit_forest,
    permutation_importances,
    predict_forest,
)
from smallpunch.pca import fit_pca, transform
from smallpunch.synth import SynthConfig, generate


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


def test_tied_thresholds_prefer_the_lower_one():
    # cutting off either end row loses the same, to the bit
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 10.0, 10.0, 0.0])
    root = fit_forest(x, y, _single_tree_cfg(mtry=1, max_depth=1)).trees[0]
    assert isinstance(root, Split)
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


def test_equal_targets_whose_sums_round_stay_one_leaf():
    # 0.7 has no exact binary value: the sums round, the targets are equal
    rng = np.random.default_rng(4)
    x = rng.normal(size=(10, 3))
    model = fit_forest(x, np.full(10, 0.7), _single_tree_cfg(mtry=3))
    assert isinstance(model.trees[0], Leaf)


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
    for field, value in [("n_trees", 2.5), ("n_trees", True), ("min_leaf", True),
                         ("max_depth", 3.0), ("mtry", "2"), ("seed", 1.0),
                         ("bootstrap", "yes"), ("bootstrap", 1)]:
        with pytest.raises(BadConfig, match=field):
            ForestConfig(**{field: value})


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


def _walk(node, row):
    while isinstance(node, Split):
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


# values on a coarse grid, so that ties and rows equal to a threshold occur
_values = st.integers(-6, 6).map(lambda k: k / 4.0)


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(2, 24).flatmap(
        lambda n: st.integers(1, 4).flatmap(lambda p: arrays(float, (n, p), elements=_values))
    ),
    seed=st.integers(0, 2**16),
    min_leaf=st.integers(1, 3),
    max_depth=st.none() | st.integers(1, 4),
    data=st.data(),
)
def test_row_by_row_batch_and_permuted_predictions_agree(x, seed, min_leaf, max_depth, data):
    n, p = x.shape
    y = data.draw(arrays(float, n, elements=st.floats(100.0, 900.0)))
    model = fit_forest(x, y, ForestConfig(n_trees=4, min_leaf=min_leaf,
                                          max_depth=max_depth, seed=seed))
    queries = np.vstack([x, data.draw(arrays(float, (5, p), elements=_values))])
    batch = predict_forest(model, queries)

    # reference: each row walks each tree alone, summed in tree order from 0
    reference = []
    for row in queries:
        total = 0.0
        for tree in model.trees:
            total += _walk(tree, row)
        reference.append(total / len(model.trees))
    assert batch.tobytes() == np.array(reference).tobytes()

    alone = np.concatenate([predict_forest(model, queries[i:i + 1])
                            for i in range(len(queries))])
    assert alone.tobytes() == batch.tobytes()

    perm = np.random.default_rng(seed).permutation(len(queries))
    assert predict_forest(model, queries[perm]).tobytes() == batch[perm].tobytes()


def _tree_size(node, depth=0):
    """(node count, deepest leaf's depth) of a Split/Leaf tree."""
    if isinstance(node, Leaf):
        return 1, depth
    left, right = _tree_size(node.left, depth + 1), _tree_size(node.right, depth + 1)
    return 1 + left[0] + right[0], max(left[1], right[1])


def test_nested_trees_and_node_table_agree():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(70, 6))
    y = 30.0 * x[:, 0] + 10.0 * np.abs(x[:, 2]) + rng.normal(0.0, 1.0, 70)
    model = fit_forest(x, y, ForestConfig(n_trees=12, min_leaf=1, seed=22))
    sizes = [_tree_size(tree) for tree in model.trees]
    assert sum(count for count, _ in sizes) == model.table.feature.size
    assert max(depth for _, depth in sizes) == model.table.depth
    assert model.table.depth > 3


# --------------------------------------------------------------------------
# Reference grower: trees grown one node at a time, depth first, as fit_forest
# did before it grew every tree of a forest level by level.  Where no draw can
# change a tree (mtry = p, no bootstrap) both must grow the same trees.


def _reference_best_split(xs, ys, y_node, min_leaf):
    """Best (row of xs, threshold, variance reduction) of a node, or None."""
    m = y_node.size
    cy = np.cumsum(ys, axis=1)
    cy2 = np.cumsum(ys * ys, axis=1)

    # position j splits after sorted row j: j + 1 rows go left
    lo, hi = min_leaf - 1, m - min_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=float)
    n_right = m - n_left
    sum_left = cy[:, lo:hi]
    sum2_left = cy2[:, lo:hi]
    sum_right = cy[:, -1:] - sum_left
    sum2_right = cy2[:, -1:] - sum2_left
    loss = (
        sum2_left - sum_left * sum_left / n_left
        + sum2_right - sum_right * sum_right / n_right
    )
    valid = xs[:, lo + 1:hi + 1] != xs[:, lo:hi]
    if not valid.any():
        return None
    loss = np.where(valid, loss, np.inf)

    flat = int(np.argmin(loss))
    col, pos = divmod(flat, hi - lo)
    best_loss = float(loss[col, pos])

    sum_y = float(y_node.sum())
    sum_y2 = float(np.dot(y_node, y_node))
    parent_sse = sum_y2 - sum_y * sum_y / m
    if not (best_loss < parent_sse):
        return None
    threshold = float((xs[col, lo + pos] + xs[col, lo + pos + 1]) / 2.0)
    return col, threshold, parent_sse - best_loss


def _reference_grow(xt, yb, pos, order, depth, rng, cfg, mtry, importances):
    """Subtree of the bag rows at positions pos; row j of order sorts pos by column j."""
    y_node = yb[pos]
    m = pos.size
    if (
        m < 2 * cfg.min_leaf
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
        or np.all(y_node == y_node[0])
    ):
        return Leaf(value=float(y_node.mean()), count=int(m))

    feats = np.sort(rng.choice(xt.shape[0], size=mtry, replace=False))
    sorted_pos = order[feats]
    found = _reference_best_split(xt[feats[:, None], sorted_pos], yb[sorted_pos], y_node,
                                  cfg.min_leaf)
    if found is None:
        return Leaf(value=float(y_node.mean()), count=int(m))
    col, threshold, reduction = found
    feature = int(feats[col])
    importances[feature] += reduction

    # a stable filter keeps every row of order sorted, ties in position order
    goes_left = xt[feature] <= threshold
    ordered_left = goes_left[order]
    p = order.shape[0]
    left = _reference_grow(xt, yb, pos[goes_left[pos]], order[ordered_left].reshape(p, -1),
                           depth + 1, rng, cfg, mtry, importances)
    right = _reference_grow(xt, yb, pos[~goes_left[pos]], order[~ordered_left].reshape(p, -1),
                            depth + 1, rng, cfg, mtry, importances)
    return Split(feature=feature, threshold=threshold, left=left, right=right)


def _reference_tree(x, y, cfg, t):
    """Tree t of a forest fitted without bootstrap, grown by the reference."""
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")
    n, p = x.shape
    mtry = cfg.mtry if cfg.mtry is not None else math.ceil(p / 3)
    return _reference_grow(xt, y, np.arange(n), order, 0, _tree_rng(cfg.seed, t), cfg, mtry,
                           np.zeros(p))


def _assert_same_tree(got, want, path="root"):
    assert type(got) is type(want), path
    if isinstance(want, Leaf):
        assert got.count == want.count, path
        assert abs(got.value - want.value) <= 1e-12 * abs(want.value), path
        return
    assert (got.feature, got.threshold) == (want.feature, want.threshold), path
    _assert_same_tree(got.left, want.left, path + ".left")
    _assert_same_tree(got.right, want.right, path + ".right")


def _assert_grows_like_the_reference(x, y, **overrides):
    cfg = ForestConfig(**{"n_trees": 2, "mtry": x.shape[1], "bootstrap": False,
                          "seed": 0, **overrides})
    model = fit_forest(x, y, cfg)
    for t, tree in enumerate(model.trees):
        _assert_same_tree(tree, _reference_tree(x, y, cfg, t))


@pytest.fixture(scope="module")
def reference_design():
    """Standardized 152 columns of the reference set, their PCA scores, targets."""
    raw, _ = generate(SynthConfig(noise_sigma_N=5.0, seed=7))
    matrix, targets = assemble([resample(c, GridSpec()) for c in raw])
    prepared = apply_standardizer(fit_standardizer(matrix), matrix)
    return prepared.values, transform(fit_pca(prepared), prepared), targets.values


@pytest.mark.parametrize("design", ["columns", "scores"])
@pytest.mark.parametrize("min_leaf,max_depth", [(2, None), (1, None), (5, 4)])
def test_level_wise_growth_matches_the_reference_on_the_reference_set(
    reference_design, design, min_leaf, max_depth
):
    columns, scores, y = reference_design
    x = columns if design == "columns" else scores
    _assert_grows_like_the_reference(x, y, min_leaf=min_leaf, max_depth=max_depth)


@settings(max_examples=150, deadline=None)
@given(
    x=st.integers(2, 30).flatmap(
        lambda n: st.integers(1, 4).flatmap(lambda p: arrays(float, (n, p), elements=_values))
    ),
    min_leaf=st.integers(1, 3),
    max_depth=st.none() | st.integers(1, 5),
    data=st.data(),
)
def test_level_wise_growth_matches_the_reference_on_grid_data(x, min_leaf, max_depth, data):
    # Targets on a grid too, so every sum of targets and squares is exact.
    # With arbitrary floats a split whose gain is zero in exact arithmetic
    # (6 rows of 196.53, 196.53, 100 x 4 cut 3 | 3) is taken or refused by
    # the last bit of the parent's sum of squares, which the reference takes
    # from np.dot and growth from a segmented sum.
    y = data.draw(arrays(float, x.shape[0], elements=st.integers(400, 3600).map(lambda k: k / 4.0)))
    _assert_grows_like_the_reference(x, y, min_leaf=min_leaf, max_depth=max_depth)
