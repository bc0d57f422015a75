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

Growth searches splits on presorted columns, as CART and SLIQ do: each
column of a tree's bag is stable-sorted once, and every split partitions
the sorted position lists of its node with a stable filter.  A stable
filter of a stable sort is the stable sort of the subset, ties included,
so each node sees the same values in the same order as a fresh stable
argsort of its own rows would give, and the cumulative sums have the
same bits.

Routing goes through a flat node table that ForestModel builds once, when
it is made (by fit_forest or by loading a model file): every tree's nodes
in preorder as parallel arrays, leaves pointing at themselves.  Each step
moves every (tree, row) pair down one level with numpy indexing, until all
pairs sit at leaves.  Each comparison is the same x <= threshold a
recursive walk makes, and per-tree leaf values are summed in tree order
from zeros, so predictions, out-of-bag error and permutation importances
keep their bits.  The table is also where a model's trees are validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import (
    BadConfig,
    InvalidModel,
    LengthMismatch,
    ShapeMismatch,
    TooFewRows,
)
from .features import FeatureMatrix, TargetVector
from .pca import _matrix_values
from .regress import _target_values


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
        for name in ("n_trees", "max_depth", "min_leaf", "mtry", "seed"):
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name in ("max_depth", "mtry"))):
                raise BadConfig(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.bootstrap, bool):
            raise BadConfig(f"bootstrap must be true or false, got {self.bootstrap!r}")
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
class _NodeTable:
    """Every node of a forest in preorder, tree after tree, as flat arrays.

    A leaf's left and right point at itself and its feature is 0, so a
    (tree, row) pair that has reached its leaf stays there; value is the
    leaf value (0.0 on splits).  roots holds each tree's first node and
    depth the deepest leaf, the number of steps that brings every pair to
    its leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def build(cls, trees: Sequence[TreeNode], n_features: int) -> _NodeTable:
        """Flatten the trees; raises InvalidModel on a node no fit can make."""
        nodes: list[tuple] = []  # (feature, threshold, left, right, value)
        depth = 0

        def add(node: TreeNode, d: int, t: int) -> int:
            nonlocal depth
            i = len(nodes)
            nodes.append(())
            if isinstance(node, Leaf):
                if not math.isfinite(node.value):
                    raise InvalidModel(f"tree {t}: leaf value {node.value!r} is not finite")
                if not (_is_int(node.count) and node.count >= 1):
                    raise InvalidModel(f"tree {t}: leaf count must be >= 1, got {node.count!r}")
                nodes[i] = (0, 0.0, i, i, node.value)
                depth = max(depth, d)
                return i
            if not (_is_int(node.feature) and 0 <= node.feature < n_features):
                raise InvalidModel(
                    f"tree {t}: split feature {node.feature!r} outside [0, {n_features})"
                )
            if not math.isfinite(node.threshold):
                raise InvalidModel(f"tree {t}: threshold {node.threshold!r} is not finite")
            left = add(node.left, d + 1, t)
            right = add(node.right, d + 1, t)
            nodes[i] = (node.feature, node.threshold, left, right, 0.0)
            return i

        roots = [add(tree, 0, t) for t, tree in enumerate(trees)]
        feature, threshold, left, right, value = zip(*nodes)
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value, dtype=float),
            roots=np.array(roots, dtype=np.intp),
            depth=depth,
        )

    def tree_values(self, x: np.ndarray) -> np.ndarray:
        """Leaf value of every tree (rows of the result) for every row of x."""
        rows = np.arange(x.shape[0])
        node = np.repeat(self.roots[:, None], x.shape[0], axis=1)
        for _ in range(self.depth):
            goes_left = x[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(goes_left, self.left[node], self.right[node])
        return self.value[node]


@dataclass(frozen=True)
class ForestModel:
    """Fitted trees plus the diagnostics frozen at fit time.

    importances are normalized variance reductions per feature (summing to
    one when any split happened); oob_rmse is None when bootstrap was off
    or some row was never out of bag.  The routing table is built from the
    trees, and checks them, when the model is made.
    """

    trees: tuple[TreeNode, ...]
    config: ForestConfig
    n_features: int
    importances: np.ndarray
    oob_rmse: float | None
    table: _NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        imp = np.asarray(self.importances, dtype=float)
        object.__setattr__(self, "importances", imp)
        if not self.trees:
            raise InvalidModel("forest has no trees")
        if len(self.trees) != self.config.n_trees:
            raise InvalidModel(
                f"forest has {len(self.trees)} trees, its config says {self.config.n_trees}"
            )
        if not _is_int(self.n_features):
            raise InvalidModel(f"n_features must be an integer, got {self.n_features!r}")
        if imp.shape != (self.n_features,):
            raise InvalidModel("importances must have one entry per feature")
        if np.any(imp < 0.0) or not np.all(np.isfinite(imp)):
            raise InvalidModel("importances must be finite and non-negative")
        total = float(imp.sum())
        if total != 0.0 and abs(total - 1.0) > 1e-8:
            raise InvalidModel(f"importances must sum to 1 or 0, got {total}")
        object.__setattr__(self, "table", _NodeTable.build(self.trees, self.n_features))


def _best_split(
    xs: np.ndarray, ys: np.ndarray, y_node: np.ndarray, min_leaf: int
) -> tuple[int, float, float] | None:
    """Best (row of xs, threshold, variance reduction) of a node.

    Row k of xs holds one candidate column's values at the node in stable
    sorted order, and row k of ys the targets in that order.  Candidate
    positions are those that leave min_leaf rows on each side.  The loss
    matrix is laid out feature-major so that np.argmin's first-occurrence
    rule implements the tie-break (lower feature, then lower threshold).
    Returns None when no valid split strictly reduces the summed squared
    error.
    """
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


def _grow(
    xt: np.ndarray,
    yb: np.ndarray,
    pos: np.ndarray,
    order: np.ndarray,
    depth: int,
    rng: np.random.Generator,
    cfg: ForestConfig,
    mtry: int,
    importances: np.ndarray,
) -> TreeNode:
    """Grow the subtree of the bag rows at positions pos (ascending).

    Row j of xt is column j of the bag (p x m0) and yb holds the bag's
    targets; row j of order lists pos sorted stably by column j.
    """
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
    found = _best_split(xt[feats[:, None], sorted_pos], yb[sorted_pos], y_node, cfg.min_leaf)
    if found is None:
        return Leaf(value=float(y_node.mean()), count=int(m))
    col, threshold, reduction = found
    feature = int(feats[col])
    importances[feature] += reduction

    # a stable filter keeps every row of order sorted, ties in position order
    goes_left = xt[feature] <= threshold
    ordered_left = goes_left[order]
    p = order.shape[0]
    left = _grow(xt, yb, pos[goes_left[pos]], order[ordered_left].reshape(p, -1),
                 depth + 1, rng, cfg, mtry, importances)
    right = _grow(xt, yb, pos[~goes_left[pos]], order[~ordered_left].reshape(p, -1),
                  depth + 1, rng, cfg, mtry, importances)
    return Split(feature=feature, threshold=threshold, left=left, right=right)


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tree_index]))


def _bootstrap_rows(rng: np.random.Generator, n: int, bootstrap: bool) -> np.ndarray:
    if bootstrap:
        return rng.integers(0, n, size=n)
    return np.arange(n)


def _oob_mask(rows: np.ndarray, n: int) -> np.ndarray:
    oob = np.ones(n, dtype=bool)
    oob[rows] = False
    return oob


def _oob_totals(
    table: _NodeTable, x: np.ndarray, oob_masks: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sum, in tree order, and count of out-of-bag tree predictions."""
    pred_sum = np.zeros(x.shape[0])
    count = np.zeros(x.shape[0], dtype=int)
    for values, oob in zip(table.tree_values(x), oob_masks):
        pred_sum[oob] += values[oob]
        count[oob] += 1
    return pred_sum, count


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
    oob_masks = []
    importances = np.zeros(p)
    for t in range(cfg.n_trees):
        rng = _tree_rng(cfg.seed, t)
        rows = _bootstrap_rows(rng, n, cfg.bootstrap)
        xt = np.ascontiguousarray(xv[rows].T)
        order = np.argsort(xt, axis=1, kind="stable")
        # summed per tree, then tree by tree: the order the importance bits need
        reductions = np.zeros(p)
        trees.append(_grow(xt, yv[rows], np.arange(n), order, 0, rng, cfg, mtry, reductions))
        importances += reductions
        oob_masks.append(_oob_mask(rows, n))

    total = float(importances.sum())
    if total > 0.0:
        importances = importances / total

    model = ForestModel(
        trees=tuple(trees),
        config=cfg,
        n_features=p,
        importances=importances,
        oob_rmse=None,
    )
    if cfg.bootstrap:
        oob_sum, oob_count = _oob_totals(model.table, xv, oob_masks)
        if np.all(oob_count > 0):
            oob_pred = oob_sum / oob_count
            # the out-of-bag error needs the routing table the model builds;
            # it is set here, once, before the model is handed out
            object.__setattr__(
                model, "oob_rmse", float(np.sqrt(np.mean((oob_pred - yv) ** 2)))
            )
    return model


def _check_width(model: ForestModel, xv: np.ndarray) -> None:
    if xv.shape[1] != model.n_features:
        raise ShapeMismatch(
            f"matrix has {xv.shape[1]} columns, model expects {model.n_features}"
        )


def predict_forest(model: ForestModel, x: FeatureMatrix | np.ndarray) -> np.ndarray:
    """Mean of the per-tree predictions, summed in fixed tree order."""
    xv = _matrix_values(x)
    _check_width(model, xv)
    out = np.zeros(xv.shape[0])
    for values in model.table.tree_values(xv):
        out += values
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
    _check_width(model, xv)
    if yv.size != n:
        raise LengthMismatch(f"{n} feature rows vs {yv.size} targets")

    oob_masks = [
        _oob_mask(_bootstrap_rows(_tree_rng(model.config.seed, t), n, True), n)
        for t in range(model.config.n_trees)
    ]

    def oob_rmse_for(matrix: np.ndarray) -> float:
        pred_sum, count = _oob_totals(model.table, matrix, oob_masks)
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
