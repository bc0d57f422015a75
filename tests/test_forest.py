"""Regression forest: exact splits, determinism, importances."""

import gc
import json
import math
import re
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from smallpunch import forest, pipeline
from smallpunch.curves import GridSpec, resample
from smallpunch.errors import (
    BadConfig,
    InvalidModel,
    LengthMismatch,
    ShapeMismatch,
    TooFewRows,
)
from smallpunch.features import apply_standardizer, assemble, fit_standardizer, strengths
from smallpunch.forest import (
    ForestConfig,
    ForestModel,
    Leaf,
    Split,
    _NodeTable,
    _bootstrap_rows,
    _tree_rng,
    fit_forest,
    predict_forest,
)
from smallpunch.modelfile import load_model, record_from_doc, record_to_doc, save_model
from smallpunch.pca import fit_pca, transform
from smallpunch.synth import SynthConfig, generate

from conftest import cv_fold_models


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


# adjacent doubles whose midpoint rounds (ties to even) onto the upper one,
# and doubles whose sum overflows: either midpoint would send every row left
ROUNDING_PAIRS = [(1.0000000000000002, 1.0000000000000004), (1.7e308, 1.75e308),
                  (-1.75e308, -1.7e308)]


@pytest.mark.parametrize("lo,hi", ROUNDING_PAIRS, ids=["rounds-up", "overflows", "overflows-down"])
def test_a_midpoint_not_below_the_upper_value_splits_at_the_lower(lo, hi):
    x = np.ones((6, 2))
    x[:, 1] = [lo, hi] * 3
    y = np.array([500.0, 600.0] * 3)
    model = fit_forest(x, y, _single_tree_cfg(mtry=2))
    assert model.trees[0] == Split(1, lo, Leaf(500.0, 3), Leaf(600.0, 3))
    assert np.array_equal(predict_forest(model, x), y)
    _assert_grows_like_the_reference(x, y, min_leaf=1)
    mid = (lo + hi) / 2.0  # the case the rule is for
    assert not (math.isfinite(mid) and mid < hi)


def test_search_keys_widen_to_int64_where_int32_would_overflow():
    # a key is rank * 2**shift + position, shift the bits of the longest node
    assert forest._search_ranks(np.zeros((1, 32768))).dtype == np.int32
    assert forest._search_ranks(np.zeros((1, 32769))).dtype == np.int64
    x = np.arange(32769.0)[:, None]
    y = np.where(x[:, 0] > 20000.0, 10.0, 0.0)
    root = fit_forest(x, y, _single_tree_cfg(max_depth=1)).trees[0]
    assert isinstance(root, Split) and root.threshold == 20000.5


def test_int64_search_keys_grow_the_int32_trees(monkeypatch):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(60, 5)).round(1)
    y = 40.0 * x[:, 0] + rng.normal(0.0, 1.0, 60)
    cfg = ForestConfig(n_trees=6, seed=24)
    narrow = fit_forest(x, y, cfg)
    search_ranks = forest._search_ranks
    monkeypatch.setattr(forest, "_search_ranks", lambda xt: search_ranks(xt).astype(np.int64))
    wide = fit_forest(x, y, cfg)
    for column in fields(_NodeTable):
        want, got = getattr(narrow.table, column.name), getattr(wide.table, column.name)
        assert np.array_equal(got, want), column.name


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
    imp = model.importances
    assert imp.sum() == pytest.approx(1.0, abs=1e-8)
    assert imp[0] > 0.9


def test_oob_rmse_present_with_bootstrap_absent_without():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(60, 3))
    y = 10.0 * x[:, 0] + rng.normal(0.0, 1.0, 60)
    with_bootstrap = fit_forest(x, y, ForestConfig(n_trees=50, seed=19))
    assert with_bootstrap.oob_rmse is not None and with_bootstrap.oob_rmse > 0.0
    without = fit_forest(x, y, ForestConfig(n_trees=5, bootstrap=False, seed=19))
    assert without.oob_rmse is None


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


# leaf values with both zeros and magnitudes whose sums round
_leaf_values = st.sampled_from([0.0, -0.0, 1e16, -1e16, 0.1, -3.5]) | st.floats(-1e6, 1e6)


@settings(max_examples=80, deadline=None)
@given(values=st.integers(1, 6).flatmap(lambda t: st.integers(0, 5).flatmap(
    lambda n: arrays(float, (t, n), elements=_leaf_values))), data=st.data())
def test_tree_order_sums_match_the_loops_over_trees(values, data):
    out_of_bag = data.draw(arrays(bool, values.shape))
    total = np.zeros(values.shape[1])  # predict_forest's sum, tree by tree
    oob_sum = np.zeros(values.shape[1])  # the out-of-bag sum, tree by tree
    for row, oob in zip(values, out_of_bag):
        total += row
        oob_sum[oob] += row[oob]
    assert forest._tree_order_sum(values).tobytes() == total.tobytes()
    masked = np.where(out_of_bag, values, 0.0)
    assert forest._tree_order_sum(masked).tobytes() == oob_sum.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    x=st.integers(2, 16).flatmap(
        lambda n: st.integers(1, 3).flatmap(lambda p: arrays(float, (n, p), elements=_values))
    ),
    seed=st.integers(0, 2**16),
    n_trees=st.integers(1, 12),
    data=st.data(),
)
def test_oob_error_and_predictions_keep_the_bits_of_the_loops_over_trees(x, seed, n_trees,
                                                                        data):
    n = x.shape[0]
    y = data.draw(arrays(float, n, elements=st.sampled_from([0.0, -0.0, 2.5]) | _values))
    cfg = ForestConfig(n_trees=n_trees, min_leaf=1, seed=seed)
    model = fit_forest(x, y, cfg)
    values = model.table.tree_values(x)
    total, oob_sum, oob_count = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
    for row, bag in zip(values, forest._bags(cfg, n)[1]):
        total += row
        oob = np.ones(n, dtype=bool)
        oob[bag] = False
        oob_sum[oob] += row[oob]
        oob_count[oob] += 1
    assert predict_forest(model, x).tobytes() == (total / n_trees).tobytes()
    expected = (float(np.sqrt(np.mean((oob_sum / oob_count - y) ** 2)))
                if np.all(oob_count > 0) else None)
    assert model.oob_rmse == expected


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


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(2, 30).flatmap(
        lambda n: st.integers(1, 4).flatmap(lambda p: arrays(float, (n, p), elements=_values))
    ),
    seed=st.integers(0, 2**16),
    min_leaf=st.integers(1, 3),
    max_depth=st.none() | st.integers(1, 5),
    all_features=st.booleans(),
    bootstrap=st.booleans(),
    data=st.data(),
)
def test_grown_table_matches_the_table_built_from_its_trees(
    x, seed, min_leaf, max_depth, all_features, bootstrap, data
):
    """The table a saved forest loads into is the table growth emitted."""
    n, p = x.shape
    y = data.draw(arrays(float, n, elements=st.floats(100.0, 900.0)))
    cfg = ForestConfig(n_trees=3, min_leaf=min_leaf, max_depth=max_depth,
                       mtry=p if all_features else None, bootstrap=bootstrap, seed=seed)
    model = fit_forest(x, y, cfg)
    # the model block's round trip through JSON text, as save_model and load_model make it
    text = json.dumps(record_to_doc(model))
    loaded = record_from_doc(ForestModel, json.loads(text), "model")
    grown, built = model.table, loaded.table
    for column in fields(_NodeTable):
        want, got = getattr(grown, column.name), getattr(built, column.name)
        assert type(got) is type(want), column.name
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, column.name
            assert got.tobytes() == want.tobytes(), column.name
        else:
            assert got == want, column.name
    queries = np.vstack([x, data.draw(arrays(float, (5, p), elements=_values))])
    assert grown.tree_values(queries).tobytes() == built.tree_values(queries).tobytes()
    assert grown.feature.size == built.feature.size
    assert grown.depth == built.depth
    # every bag row ends in exactly one leaf
    assert int(grown.count.sum()) == int(built.count.sum()) == cfg.n_trees * n
    assert loaded.trees == model.trees


def _grown_arrays():
    """A small forest's width and the level-order arrays growth returned."""
    rng = np.random.default_rng(41)
    x = rng.normal(size=(30, 4)).round(1)
    y = x[:, 0] * 40.0 + rng.normal(0.0, 1.0, 30)
    model = fit_forest(x, y, ForestConfig(n_trees=2, seed=5))
    return model.n_features, [model.count, model.feature, model.threshold, model.value]


@settings(max_examples=50, deadline=None)
@given(
    x=st.integers(2, 30).flatmap(
        lambda n: st.integers(1, 4).flatmap(lambda p: arrays(float, (n, p), elements=_values))
    ),
    n_trees=st.integers(1, 4),
    max_depth=st.none() | st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_the_builder_counts_the_trees_and_keeps_the_grown_columns(x, n_trees, max_depth, seed):
    y = np.arange(x.shape[0], dtype=float) * 7.0 + x.sum(axis=1)
    cfg = ForestConfig(n_trees=n_trees, max_depth=max_depth, min_leaf=1, seed=seed)
    model = fit_forest(x, y, cfg)
    table, split = model.table, model.count == 0
    assert table.n_trees == n_trees
    assert table.count is model.count
    for full, column in ((table.feature[split], model.feature),
                         (table.threshold[split], model.threshold),
                         (table.value[~split], model.value)):
        assert full.dtype == column.dtype and full.tobytes() == column.tobytes()


def _swap_last_split_and_node(arrays):
    count = arrays[0]
    last = int(np.flatnonzero(count == 0)[-1])
    count[last], count[-1] = count[-1], 0


def _set(index, position, value):
    def change(arrays):
        arrays[index][position] = value
    return change


def _append(*pairs):
    def change(arrays):
        for index, value in pairs:
            arrays[index] = np.append(arrays[index], value).astype(arrays[index].dtype)
    return change


@pytest.mark.parametrize("change,match", [
    (_append((2, 1.0)), lambda s, n: f"{s} splits and {n} leaves, but {s} features, "
                                     f"{s + 1} thresholds and {n} values"),
    (lambda a: a.__setitem__(1, a[1][:-1]), lambda s, n: f"but {s - 1} features, {s} thr"),
    (_append((3, 500.0)), lambda s, n: f"{s} thresholds and {n + 1} values"),
    # every node a split: fewer nodes than a tree per split needs
    (_set(0, slice(None), 0), lambda s, n: f"{2 + 2 * s} nodes with {2 + 2 * s} splits "
                                           "make no tree"),
    (_swap_last_split_and_node, "split comes after its children, which level order puts"),
    (_set(0, -1, -1), "leaf count must be >= 1, got -1"),
    (_set(1, 0, 4), r"split feature outside \[0, 4\), got 4"),
    (_set(1, 0, -1), r"split feature outside \[0, 4\), got -1"),
    (_set(2, 0, np.inf), "threshold is not finite, got inf"),
    (_set(2, 0, np.nan), "threshold is not finite, got nan"),
    (_set(3, 0, -np.inf), "leaf value is not finite, got -inf"),
], ids=["threshold-longer", "feature-shorter", "value-longer", "no-tree",
        "split-after-children", "count-negative", "feature-too-large", "feature-negative",
        "threshold-inf", "threshold-nan", "value-inf"])
def test_the_builder_refuses_arrays_that_disagree(change, match):
    p, arrays = _grown_arrays()
    arrays = [a.copy() for a in arrays]
    splits, leaves = arrays[1].size, arrays[3].size
    assert splits >= 1
    change(arrays)
    if callable(match):
        match = re.escape(match(splits, leaves))
    with pytest.raises(InvalidModel, match=match):
        _NodeTable.from_level_order(p, *arrays)


def _refuse_trees(*args, **kwargs):
    raise AssertionError("nested trees were built")


def test_fit_predict_and_cv_never_build_the_trees(monkeypatch, tmp_path, reference_design):
    _, scores, y = reference_design
    monkeypatch.setattr(forest, "Leaf", _refuse_trees)
    monkeypatch.setattr(forest, "Split", _refuse_trees)
    model = fit_forest(scores, y, ForestConfig(n_trees=30, seed=3))
    predict_forest(model, scores)
    assert model.oob_rmse is not None
    assert "trees" not in vars(model)

    raw, _ = generate(SynthConfig(n_materials=3, curves_per_material=6, seed=5))
    curves = [resample(c, GridSpec()) for c in raw]
    kind = pipeline.ForestKind(config=ForestConfig(n_trees=4, seed=1))
    folds = cv_fold_models(monkeypatch, curves, kind, k=3)
    assert len(folds) == 3 and all("trees" not in vars(fold.model) for fold in folds)

    trained = pipeline.fit_pipeline(curves, kind)
    path = tmp_path / "model.json"
    save_model(path, trained, {})
    loaded, _ = load_model(path)
    pipeline.predict_pipeline(loaded, curves)
    assert "trees" not in vars(trained.model) and "trees" not in vars(loaded.model)


def test_trees_view_is_built_once_and_read_only():
    x = np.arange(12.0).reshape(6, 2)
    model = fit_forest(x, np.arange(6.0) + 1.0, ForestConfig(n_trees=3, seed=2))
    assert "trees" not in vars(model)
    trees = model.trees
    assert len(trees) == 3 and model.trees is trees
    with pytest.raises(AttributeError):
        model.trees = ()


def _draw_features_per_tree(rngs, tree, p, mtry):
    """Reference draws: each tree's level argsorted alone, its first mtry ascending."""
    trees, counts = np.unique(tree, return_counts=True)
    return np.concatenate([
        np.sort(np.argsort(rngs[t].random((c, p)), axis=1)[:, :mtry], axis=1)
        for t, c in zip(trees.tolist(), counts.tolist())
    ])


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([4, 152]),
    share=st.sampled_from(["one", "third", "all"]),
    nodes=st.lists(st.integers(0, 40), min_size=1, max_size=12).filter(any),
    seed=st.integers(0, 2**16),
)
def test_batched_feature_draws_match_per_tree_argsorts(p, share, nodes, seed):
    mtry = {"one": 1, "third": math.ceil(p / 3), "all": p}[share]
    tree = np.repeat(np.arange(len(nodes)), nodes)  # nodes[t] open nodes of tree t

    def draw(draw_features):
        return draw_features([_tree_rng(seed, t) for t in range(len(nodes))], tree, p, mtry)

    got, want = draw(forest._draw_features), draw(_draw_features_per_tree)
    assert got.dtype == want.dtype and got.shape == want.shape == (tree.size, mtry)
    assert np.array_equal(got, want)


class _StreamDraws:
    """Stands in for a tree's generator: random calls read on through the numbers u."""

    def __init__(self, u):
        self.u, self.at = np.ravel(u), 0

    def random(self, shape):
        size = math.prod(shape)
        self.at += size
        return self.u[self.at - size:self.at].reshape(shape).copy()


def test_feature_draws_with_a_tie_at_the_mtry_th_value_follow_the_argsort():
    u = {4: np.array([[0.5, 0.25, 0.25, 0.75], [0.1, 0.2, 0.3, 0.4]]),
         152: np.array([np.tile([0.3, 0.1, 0.2, 0.1], 38), np.linspace(1.0, 0.0, 152)])}
    # the first row ties at its mtry-th smallest value for mtry 1 and 51;
    # for 4 columns, mtry 2 and 3 take the tied pair whole
    for p, mtry in ((4, 1), (4, 2), (4, 3), (152, 51), (152, 1)):
        tree = np.array([0, 0])
        got = forest._draw_features([_StreamDraws(u[p])], tree, p, mtry)
        assert np.array_equal(got, _draw_features_per_tree([_StreamDraws(u[p])], tree, p, mtry))
    assert np.count_nonzero(u[152][0] <= 0.1) == 76  # ties 51 draws over 76 columns


def _draw_features_one_shot(rngs, tree, p, mtry):
    """The draw before blocks: every tree's level in one call, all nodes sorted at once."""
    trees, counts = np.unique(tree, return_counts=True)
    u = np.concatenate([rngs[t].random((c, p)) for t, c in zip(trees.tolist(), counts.tolist())])
    chosen = u <= np.sort(u, axis=1)[:, mtry - 1, None]
    for i in np.flatnonzero(chosen.sum(axis=1) != mtry).tolist():
        chosen[i] = False
        chosen[i, np.argsort(u[i])[:mtry]] = True
    # each row holds mtry chosen columns; flat positions, less the row's start
    return np.flatnonzero(chosen).reshape(-1, mtry) - p * np.arange(len(u))[:, None]


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([1, 3, 10, 152]),
    share=st.sampled_from(["one", "third", "all"]),
    nodes=st.lists(st.integers(0, 30), min_size=1, max_size=10).filter(any),
    block_nodes=st.sampled_from([None, 0, 1, 2, 3, 7, 40]),
    seed=st.integers(0, 2**16),
)
def test_blocked_feature_draws_match_the_one_shot_draw(p, share, nodes, block_nodes, seed):
    mtry = {"one": 1, "third": math.ceil(p / 3), "all": p}[share]
    tree = np.repeat(np.arange(len(nodes)), nodes)  # nodes[t] open nodes of tree t
    # a block of block_nodes nodes, or less than one node; blocks end inside trees
    block = forest._DRAW_BLOCK if block_nodes is None else block_nodes * p + p // 2

    def draw(draw_features):
        return draw_features([_tree_rng(seed, t) for t in range(len(nodes))], tree, p, mtry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest, "_DRAW_BLOCK", block)
        got = draw(forest._draw_features)
    want = draw(_draw_features_one_shot)
    assert got.dtype == want.dtype and got.shape == want.shape == (tree.size, mtry)
    assert np.array_equal(got, want)


def test_blocked_feature_draws_keep_a_tie_split_between_blocks(monkeypatch):
    # tree 0 has three nodes, tree 1 two; blocks of two nodes end inside tree 0
    # and between the trees.  Node 1 ties at its mtry-th smallest for mtry 1
    # and 2, and node 4's four numbers are equal
    u0 = np.array([[0.5, 0.1, 0.2, 0.9], [0.3, 0.3, 0.3, 0.7], [0.8, 0.6, 0.4, 0.2]])
    u1 = np.array([[0.25, 0.75, 0.5, 0.0], [0.6, 0.6, 0.6, 0.6]])
    tree = np.array([0, 0, 0, 1, 1])
    monkeypatch.setattr(forest, "_DRAW_BLOCK", 8)
    for mtry in (1, 2, 3):
        got = forest._draw_features([_StreamDraws(u0), _StreamDraws(u1)], tree, 4, mtry)
        want = _draw_features_one_shot([_StreamDraws(u0), _StreamDraws(u1)], tree, 4, mtry)
        assert np.array_equal(got, want)
    assert got.tolist() == [[0, 1, 2], [0, 1, 2], [1, 2, 3], [0, 2, 3], [0, 1, 2]]


def test_a_level_of_feature_draws_holds_one_block_of_uniforms_at_a_time():
    # 200 trees of 10 open nodes on 152 columns, mtry 51: the one-shot draw
    # held two 2,000 x 152 float matrices, 4.99 MB at its peak
    p, mtry, per_tree = 152, 51, 10
    tree = np.repeat(np.arange(200), per_tree)
    rngs = [_tree_rng(0, t) for t in range(200)]
    gc.collect()
    tracemalloc.start()
    try:
        feats = forest._draw_features(rngs, tree, p, mtry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, and per block the uniforms, their sorted copy and the
    # chosen positions, with room for what numpy holds besides
    assert peak <= feats.nbytes + 4 * 8 * forest._DRAW_BLOCK


# --------------------------------------------------------------------------
# Reference grower: trees grown one node at a time, depth first, on every row
# of a tree's bag, duplicates included, by the criterion fit_forest uses:
# positions ranked by sum_left**2 / n_left + sum_right**2 / n_right, the first
# highest over features then thresholds winning, and the improvement computed
# for the winner alone and taken where it exceeds the rounding bound.  Where no draw can change a tree (mtry = p) both must
# grow the same trees: on any targets without bootstrap, and with it where
# every sum of targets is exact.


def _reference_best_split(xs, ys, min_leaf):
    """Best (row of xs, threshold, improvement) of a node, or None."""
    m = ys.shape[1]
    cy = np.cumsum(ys, axis=1)

    # position j splits after sorted row j: j + 1 rows go left
    lo, hi = min_leaf - 1, m - min_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=float)
    n_right = m - n_left
    sum_left = cy[:, lo:hi]
    sum_right = cy[:, -1:] - sum_left
    score = sum_left * sum_left / n_left + sum_right * sum_right / n_right
    valid = xs[:, lo + 1:hi + 1] != xs[:, lo:hi]
    if not valid.any():
        return None
    score = np.where(valid, score, -np.inf)

    flat = int(np.argmax(score))
    col, pos = divmod(flat, hi - lo)
    total = cy[col, -1]
    improvement = float(score[col, pos] - total * total / m)
    # growth's gain test: more than the rounding a zero exact gain can show,
    # bounded by the node's row count (here its bag rows) and largest |y|
    y_max = float(np.abs(ys).max())
    if not improvement > 4.0 * np.finfo(float).eps * (m + 3.0) * (m * y_max) * y_max:
        return None
    below, above = xs[col, lo + pos], xs[col, lo + pos + 1]
    # scikit-learn's splitter rule: the lower value where the midpoint
    # rounds onto the upper one or overflows
    with np.errstate(over="ignore"):
        threshold = float((below + above) / 2.0)
    if not (math.isfinite(threshold) and threshold < above):
        threshold = float(below)
    return col, threshold, improvement


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
    found = _reference_best_split(xt[feats[:, None], sorted_pos], yb[sorted_pos], cfg.min_leaf)
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
    """Tree t of a forest, grown by the reference on the rows of its bag."""
    rng = _tree_rng(cfg.seed, t)
    n, p = x.shape
    bag = _bootstrap_rows(rng, n, cfg.bootstrap)
    xt = np.ascontiguousarray(x[bag].T)
    order = np.argsort(xt, axis=1, kind="stable")
    mtry = cfg.mtry if cfg.mtry is not None else math.ceil(p / 3)
    return _reference_grow(xt, y[bag], np.arange(n), order, 0, rng, cfg, mtry, np.zeros(p))


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
    """Standardized 77 columns of the reference set, their PCA scores, targets."""
    raw, _ = generate(SynthConfig(noise_sigma_N=5.0, seed=7))
    curves = [resample(c, GridSpec()) for c in raw]
    matrix = assemble(curves)
    prepared = apply_standardizer(fit_standardizer(matrix), matrix)
    return prepared, transform(fit_pca(prepared), prepared), strengths(curves)


@pytest.mark.parametrize("design", ["columns", "scores"])
@pytest.mark.parametrize("min_leaf,max_depth", [(2, None), (1, None), (5, 4)])
def test_level_wise_growth_matches_the_reference_on_the_reference_set(
    reference_design, design, min_leaf, max_depth
):
    columns, scores, y = reference_design
    x = columns if design == "columns" else scores
    _assert_grows_like_the_reference(x, y, min_leaf=min_leaf, max_depth=max_depth)


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(2, 30).flatmap(
        lambda n: st.integers(1, 4).flatmap(lambda p: arrays(float, (n, p), elements=_values))
    ),
    min_leaf=st.integers(1, 3),
    max_depth=st.none() | st.integers(1, 5),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_level_wise_growth_matches_the_reference_on_grid_data(
    x, min_leaf, max_depth, bootstrap, seed, data
):
    # Targets on a grid too, so every sum of targets is exact.  A tree grows
    # on its distinct bag rows weighted by their multiplicities, the
    # reference on the bag itself; with arbitrary floats 3 * y and y + y + y
    # can differ in the last bit, and so decide a near-tie differently.
    y = data.draw(arrays(float, x.shape[0], elements=st.integers(400, 3600).map(lambda k: k / 4.0)))
    _assert_grows_like_the_reference(x, y, min_leaf=min_leaf, max_depth=max_depth,
                                     bootstrap=bootstrap, seed=seed)


def _exact_gains(model, x, y, cfg):
    """Every split's drop in summed squared error, in exact rational arithmetic.

    Each tree's bag rows are routed down it, duplicates included; a split's
    gain is S_l**2 / n_l + S_r**2 / n_r - S**2 / n over the rows reaching it.
    """
    bags = forest._bags(cfg, x.shape[0])[1]
    gains = []

    def walk(node, rows):
        if isinstance(node, Leaf):
            return
        goes_left = x[rows, node.feature] <= node.threshold
        sums = [sum(map(Fraction, y[part].tolist()), Fraction(0))
                for part in (rows[goes_left], rows[~goes_left])]
        n_left = int(goes_left.sum())
        gains.append(sums[0] ** 2 / n_left + sums[1] ** 2 / (rows.size - n_left)
                     - (sums[0] + sums[1]) ** 2 / rows.size)
        walk(node.left, rows[goes_left])
        walk(node.right, rows[~goes_left])

    for tree, bag in zip(model.trees, bags):
        walk(tree, bag)
    return gains


def test_a_split_of_zero_exact_gain_is_never_taken():
    # a node of targets 100, 0.1, 0.1, 100 on the one drawn feature splits
    # 2 | 2 into halves of equal mean: the exact gain is zero, and the
    # computed one rounded above zero, so growth once made two leaves of
    # 50.05 that changed no prediction
    x = np.array([[0.0, 3.0], [1.0, 3.0], [1.0, 1.0], [2.0, 1.0], [0.0, 3.0], [2.0, 1.0]])
    y = np.array([100.0, 0.1, 0.1, 0.1, 0.1, 100.0])
    cfg = ForestConfig(n_trees=3, min_leaf=1, mtry=1, bootstrap=False, seed=59)
    model = fit_forest(x, y, cfg)
    assert all(gain > 0 for gain in _exact_gains(model, x, y, cfg))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 14),
    p=st.integers(1, 3),
    mtry=st.integers(1, 3),
    bootstrap=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_every_split_has_a_positive_exact_gain(n, p, mtry, bootstrap, seed, data):
    # few distinct targets and feature values make ties of equal means
    # common: every split grown must still reduce the exact squared error
    y = np.array(data.draw(st.lists(st.sampled_from([196.53, 100.0, 0.1, 37.7]),
                                    min_size=n, max_size=n)))
    x = np.array(data.draw(st.lists(st.lists(st.integers(0, 3).map(float), min_size=p,
                                             max_size=p), min_size=n, max_size=n)))
    cfg = ForestConfig(n_trees=3, min_leaf=1, mtry=min(mtry, p), bootstrap=bootstrap, seed=seed)
    model = fit_forest(x, y, cfg)
    assert all(gain > 0 for gain in _exact_gains(model, x, y, cfg))
