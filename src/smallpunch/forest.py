"""Random forest regression built from scratch on CART trees.

Variance-reduction regression trees with bootstrap resampling, per-node
feature subsampling and out-of-bag error.  Determinism is a hard contract:

* tree t draws from its own RNG stream seeded by (seed, t), so its bag
  can be rebuilt without growing the trees before it;
* within a tree the traversal order is fixed (node, then left subtree,
  then right subtree) and every RNG draw happens in that order;
* split ties are broken toward the lower feature index, then the lower
  threshold; candidate thresholds are midpoints between consecutive
  distinct sorted values.

The same bits in always produce the same model bits.  Trees are grown one
after another in one thread: growth is mostly Python-level work on small
arrays, so threads only contend for the interpreter lock and were slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    BadConfig,
    InvalidModel,
    LengthMismatch,
    NonFiniteValue,
    ShapeMismatch,
    TooFewRows,
)
from .features import FeatureMatrix, TargetVector
from .pca import _matrix_values
from .regress import _target_values


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters.

    mtry of None means ceil(p / 3) at fit time.  max_depth of None means
    unlimited.  bootstrap=False fits every tree on the rows as-is (no
    resampling), which disables out-of-bag error.
    """

    n_trees: int = 200
    max_depth: int | None = None
    min_leaf: int = 2
    mtry: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise BadConfig(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 1:
            raise BadConfig(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_leaf < 1:
            raise BadConfig(f"min_leaf must be >= 1, got {self.min_leaf}")
        if self.mtry is not None and self.mtry < 1:
            raise BadConfig(f"mtry must be >= 1 or None, got {self.mtry}")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Leaf:
    """Terminal node: mean target of the rows that reached it."""

    value: float
    count: int


@dataclass(frozen=True)
class Split:
    """Internal node: rows with x[feature] <= threshold go left."""

    feature: int
    threshold: float
    left: Union["Split", Leaf]
    right: Union["Split", Leaf]


TreeNode = Union[Split, Leaf]


@dataclass(frozen=True)
class ForestModel:
    """Fitted trees plus the diagnostics frozen at fit time.

    importances are normalized variance reductions per feature (summing to
    one when any split happened); oob_rmse is None when bootstrap was off
    or some row was never out of bag.
    """

    trees: tuple[TreeNode, ...]
    config: ForestConfig
    n_features: int
    importances: np.ndarray
    oob_rmse: float | None

    def __post_init__(self) -> None:
        imp = np.asarray(self.importances, dtype=float)
        object.__setattr__(self, "importances", imp)
        if not self.trees:
            raise InvalidModel("forest has no trees")
        if imp.shape != (self.n_features,):
            raise InvalidModel("importances must have one entry per feature")
        if np.any(imp < 0.0) or not np.all(np.isfinite(imp)):
            raise InvalidModel("importances must be finite and non-negative")
        total = float(imp.sum())
        if total != 0.0 and abs(total - 1.0) > 1e-8:
            raise InvalidModel(f"importances must sum to 1 or 0, got {total}")


def _best_split(
    x_node: np.ndarray, y_node: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (column, threshold, variance reduction) over the given columns.

    Scans every candidate position of every column at once.  The loss
    matrix is laid out feature-major so that np.argmin's first-occurrence
    rule implements the tie-break (lower feature, then lower threshold).
    Returns None when no valid split strictly reduces the summed squared
    error.
    """
    m = y_node.size
    order = np.argsort(x_node, axis=0, kind="stable")
    xs = np.take_along_axis(x_node, order, axis=0)
    ys = y_node[order]
    cy = np.cumsum(ys, axis=0)
    cy2 = np.cumsum(ys * ys, axis=0)

    n_left = np.arange(1, m, dtype=float)[:, None]
    n_right = m - n_left
    sum_left = cy[:-1]
    sum2_left = cy2[:-1]
    sum_right = cy[-1] - sum_left
    sum2_right = cy2[-1] - sum2_left
    loss = (
        sum2_left - sum_left * sum_left / n_left
        + sum2_right - sum_right * sum_right / n_right
    )
    valid = (
        (np.diff(xs, axis=0) != 0.0)
        & (n_left >= min_leaf)
        & (n_right >= min_leaf)
    )
    if not valid.any():
        return None
    loss = np.where(valid, loss, np.inf)

    loss_fm = loss.T  # feature-major: ties resolve to lower feature, lower threshold
    flat = int(np.argmin(loss_fm))
    col, pos = divmod(flat, m - 1)
    best_loss = float(loss_fm[col, pos])

    sum_y = float(y_node.sum())
    sum_y2 = float(np.dot(y_node, y_node))
    parent_sse = sum_y2 - sum_y * sum_y / m
    if not (best_loss < parent_sse):
        return None
    threshold = float((xs[pos, col] + xs[pos + 1, col]) / 2.0)
    return col, threshold, parent_sse - best_loss


def _grow(
    x: np.ndarray,
    y: np.ndarray,
    idx: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    cfg: ForestConfig,
    mtry: int,
    importances: np.ndarray,
) -> TreeNode:
    y_node = y[idx]
    m = idx.size
    if (
        m < 2 * cfg.min_leaf
        or (cfg.max_depth is not None and depth >= cfg.max_depth)
        or np.all(y_node == y_node[0])
    ):
        return Leaf(value=float(y_node.mean()), count=int(m))

    feats = np.sort(rng.choice(x.shape[1], size=mtry, replace=False))
    found = _best_split(x[np.ix_(idx, feats)], y_node, cfg.min_leaf)
    if found is None:
        return Leaf(value=float(y_node.mean()), count=int(m))
    col, threshold, reduction = found
    feature = int(feats[col])
    importances[feature] += reduction

    mask = x[idx, feature] <= threshold
    left = _grow(x, y, idx[mask], depth + 1, rng, cfg, mtry, importances)
    right = _grow(x, y, idx[~mask], depth + 1, rng, cfg, mtry, importances)
    return Split(feature=feature, threshold=threshold, left=left, right=right)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tree_index]))


def _bootstrap_rows(rng: np.random.Generator, n: int, bootstrap: bool) -> np.ndarray:
    if bootstrap:
        return rng.integers(0, n, size=n)
    return np.arange(n)


def _route(node: TreeNode, x: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    if isinstance(node, Leaf):
        out[idx] = node.value
        return
    mask = x[idx, node.feature] <= node.threshold
    _route(node.left, x, idx[mask], out)
    _route(node.right, x, idx[~mask], out)


def _tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    _route(node, x, np.arange(x.shape[0]), out)
    return out


def fit_forest(
    x: FeatureMatrix | np.ndarray,
    y: TargetVector | Sequence[float] | np.ndarray,
    cfg: ForestConfig = ForestConfig(),
) -> ForestModel:
    """Fit the forest, growing trees 0..n_trees-1 in order.

    Parameters
    ----------
    x : FeatureMatrix or ndarray
        n x p training features.
    y : TargetVector or sequence
        n targets.
    cfg : ForestConfig
        Hyperparameters; cfg.mtry=None resolves to ceil(p / 3).

    Raises
    ------
    TooFewRows
        n < 2.
    BadConfig
        mtry exceeds the feature count.
    """
    xv = _matrix_values(x)
    yv = _target_values(y)
    n, p = xv.shape
    if yv.size != n:
        raise LengthMismatch(f"{n} feature rows vs {yv.size} targets")
    if n < 2:
        raise TooFewRows(f"forest needs n >= 2 rows, got {n}")
    mtry = cfg.mtry if cfg.mtry is not None else math.ceil(p / 3)
    if mtry > p:
        raise BadConfig(f"mtry {mtry} exceeds feature count {p}")

    trees = []
    importances = np.zeros(p)
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n, dtype=int)
    for t in range(cfg.n_trees):
        rng = _tree_rng(cfg.seed, t)
        rows = _bootstrap_rows(rng, n, cfg.bootstrap)
        # summed per tree, then tree by tree: the order the importance bits need
        reductions = np.zeros(p)
        root = _grow(xv, yv, rows, 0, rng, cfg, mtry, reductions)
        trees.append(root)
        importances += reductions
        if cfg.bootstrap:
            oob = np.ones(n, dtype=bool)
            oob[rows] = False
            if oob.any():
                oob_sum[oob] += _tree_predict(root, xv[oob])
                oob_count[oob] += 1

    total = float(importances.sum())
    if total > 0.0:
        importances = importances / total

    oob_rmse: float | None = None
    if cfg.bootstrap and np.all(oob_count > 0):
        oob_pred = oob_sum / oob_count
        oob_rmse = float(np.sqrt(np.mean((oob_pred - yv) ** 2)))

    return ForestModel(
        trees=tuple(trees),
        config=cfg,
        n_features=p,
        importances=importances,
        oob_rmse=oob_rmse,
    )


def predict_forest(model: ForestModel, x: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Mean of the per-tree predictions, trees visited in fixed order."""
    xv = _matrix_values(x)
    if xv.shape[1] != model.n_features:
        raise ShapeMismatch(
            f"matrix has {xv.shape[1]} columns, model expects {model.n_features}"
        )
    out = np.zeros(xv.shape[0])
    for root in model.trees:
        out += _tree_predict(root, xv)
    return out / len(model.trees)


def feature_importances(model: ForestModel) -> np.ndarray:
    """Normalized variance-reduction importances recorded at fit time."""
    return model.importances.copy()


def permutation_importances(
    model: ForestModel,
    x: FeatureMatrix | np.ndarray,
    y: TargetVector | Sequence[float] | np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Out-of-bag RMSE increase per feature when that column is shuffled.

    A diagnostic cross-check on the impurity importances: shuffling a
    feature the forest never relies on leaves the out-of-bag error nearly
    unchanged.  x and y must be the original training data; the per-tree
    bag memberships are reconstructed from the config seed.

    Raises BadConfig when the model was fitted without bootstrap (there is
    no out-of-bag sample to score).
    """
    if not model.config.bootstrap:
        raise BadConfig("permutation importances need a bootstrap-fitted forest")
    xv = _matrix_values(x)
    yv = _target_values(y)
    n = xv.shape[0]
    if xv.shape[1] != model.n_features:
        raise ShapeMismatch(
            f"matrix has {xv.shape[1]} columns, model expects {model.n_features}"
        )
    if yv.size != n:
        raise LengthMismatch(f"{n} feature rows vs {yv.size} targets")

    oob_masks = []
    for t in range(model.config.n_trees):
        rng = _tree_rng(model.config.seed, t)
        rows = _bootstrap_rows(rng, n, True)
        in_bag = np.zeros(n, dtype=bool)
        in_bag[rows] = True
        oob_masks.append(~in_bag)

    def oob_rmse_for(matrix: np.ndarray) -> float:
        pred_sum = np.zeros(n)
        count = np.zeros(n, dtype=int)
        for root, oob in zip(model.trees, oob_masks):
            if oob.any():
                pred_sum[oob] += _tree_predict(root, matrix[oob])
                count[oob] += 1
        covered = count > 0
        if not covered.any():
            raise BadConfig("no row is ever out of bag; cannot score permutations")
        pred = pred_sum[covered] / count[covered]
        return float(np.sqrt(np.mean((pred - yv[covered]) ** 2)))

    base = oob_rmse_for(xv)
    increases = np.empty(model.n_features)
    for j in range(model.n_features):
        rng = np.random.default_rng(np.random.SeedSequence([seed, j]))
        shuffled = xv.copy()
        shuffled[:, j] = xv[rng.permutation(n), j]
        increases[j] = oob_rmse_for(shuffled) - base
    return increases
