"""Random forest regression built from scratch on CART trees.

Variance-reduction regression trees with bootstrap resampling, per-node
feature subsampling and out-of-bag error.  Determinism is a hard contract:

* tree t draws from its own RNG stream seeded by (seed, t); its bag is the
  stream's first draw, so it can be rebuilt without growing any tree;
* trees grow level by level (breadth first), all trees of a fit together.
  At each depth a tree draws the feature subsets of all its nodes that
  are searched at that depth in one call, nodes left to right: for each
  node, the first mtry of an argsort of p uniform numbers, ascending;
* split ties are broken toward the lower feature index, then the lower
  threshold; candidate thresholds are midpoints between consecutive
  distinct sorted values.

The same bits in always produce the same model bits.  Growth runs in one
thread.

Growth works on whole levels, as SLIQ does, so numpy calls scale with the
depth of the trees, not their node count.  The rows of every open node of
a level sit in one array, node after node, each node's rows in bag order;
a split reorders its rows stably, left rows first.  Leaf tests, feature
draws and split searches run for all open nodes of a level at once.  The
search takes blocks of (node, feature) candidates, padded to the longest
node of the block, and sorts each candidate's values by dense rank and
bag position, which orders them as a stable sort of the node's own values
would.  Each candidate has its own cumulative sums, so where no draw can
change a tree (mtry = p, no bootstrap) growth finds the splits a
depth-first grower with a stable argsort per node finds.  Only sums over a
whole node (leaf values and the error a split must beat) are added in
another order, so a leaf value may differ from such a grower's in the last
bits.

Routing goes through a flat node table that ForestModel builds once, when
it is made (by fit_forest or by loading a model file): every tree's nodes
in preorder as parallel arrays, leaves pointing at themselves.  Each step
moves every (tree, row) pair down one level with numpy indexing, until all
pairs sit at leaves.  Each comparison is the same x <= threshold a
recursive walk makes, and per-tree leaf values are summed in tree order
from zeros, so predictions, out-of-bag error and permutation importances
have the bits a per-row walk of the trees gives.  The table is also where
a model's trees are validated.
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


# elements of one padded split-search block: big enough that numpy's work
# outweighs its per-call cost, small enough to stay in cache
_BLOCK = 8192


def _dense_ranks(xt: np.ndarray) -> np.ndarray:
    """Rank of every value among the distinct values of its row of xt."""
    order = np.argsort(xt, axis=1)
    ordered = np.take_along_axis(xt, order, axis=1)
    steps = np.zeros(xt.shape, dtype=np.intp)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=steps[:, 1:])
    rank = np.empty_like(steps)
    np.put_along_axis(rank, order, steps, axis=1)
    return rank


def _search_rows(
    xt: np.ndarray,
    rank: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    start: np.ndarray,
    size: np.ndarray,
    feature: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best (loss, threshold) of each candidate: one node's rows by one feature.

    Candidate r is the segment rows[start[r]:start[r] + size[r]] of a node,
    in bag-position order, searched on column feature[r] of xt (p x n);
    rank is _dense_ranks(xt), y holds the targets of rows, and size is
    non-increasing.  Sorting the keys rank * 2**shift + position, which no
    two rows of a segment share, orders a segment as a stable sort of its
    values would: ties keep bag-position order, so each cumulative sum has
    the bits of a node's own stable sort.  Shorter segments are padded to
    the longest with keys that sort last.  Candidate positions leave
    min_leaf rows on each side and fall between distinct values; the first
    lowest loss wins, so the lower threshold wins a tie.  A candidate with
    no valid position has loss inf.
    """
    width = int(size[0])
    padded = int(size[-1]) < width
    shift = (width - 1).bit_length()
    k = np.arange(width)
    m = size[:, None]
    key = rank[feature[:, None], rows[start[:, None] + k]]
    key <<= shift
    key |= k
    if padded:
        key = np.where(k < m, key, rank.shape[1] << shift)
    key.sort(axis=1)
    at = start[:, None] + (key & ((1 << shift) - 1))
    key >>= shift
    ys = y[at]
    cy = np.cumsum(ys, axis=1)
    cy2 = np.cumsum(np.square(ys, out=ys), axis=1)

    # position j splits after sorted row j: j + 1 rows go left; the loss
    # sum2_left - sum_left * sum_left / n_left + sum2_right - sum_right *
    # sum_right / n_right is evaluated left to right, in place
    r = np.arange(size.size)
    lo, hi = min_leaf - 1, width - min_leaf
    n_left = np.arange(lo + 1, hi + 1, dtype=float)
    n_right = m - n_left
    sum_left = cy[:, lo:hi]
    sum2_left = cy2[:, lo:hi]
    sum_right = cy[r, size - 1][:, None] - sum_left
    loss = np.square(sum_left)
    loss /= n_left
    np.subtract(sum2_left, loss, out=loss)
    loss += cy2[r, size - 1][:, None] - sum2_left
    valid = key[:, lo + 1:hi + 1] != key[:, lo:hi]
    if padded:
        valid &= np.arange(lo, hi) < m - min_leaf
        # n_right >= min_leaf at every valid position; padding only needs no 0
        np.maximum(n_right, 1.0, out=n_right)
    np.square(sum_right, out=sum_right)
    sum_right /= n_right
    loss -= sum_right
    loss = np.where(valid, loss, np.inf)
    pos = np.argmin(loss, axis=1)
    left = rows[at[r, pos + lo]]
    right = rows[at[r, pos + lo + 1]]
    return loss[r, pos], (xt[feature, left] + xt[feature, right]) / 2.0


def _best_splits(
    xt: np.ndarray,
    rank: np.ndarray,
    rows: np.ndarray,
    y: np.ndarray,
    start: np.ndarray,
    size: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (loss, feature, threshold) of each node on its drawn features.

    Row i of feats lists node i's candidate features in ascending order.
    Nodes are searched largest first, whole nodes to a block of at most
    _BLOCK padded elements (or one node), so a block pads little.  Each
    node takes the first lowest loss over its features: the lower feature
    wins a tie.
    """
    n_nodes, mtry = feats.shape
    by_size = np.argsort(-size, kind="stable")
    # a padded segment may reach past the last node's rows
    rows = np.concatenate([rows, np.zeros(int(size.max()), dtype=rows.dtype)])
    loss = np.empty(n_nodes)
    feature = np.empty(n_nodes, dtype=np.intp)
    threshold = np.empty(n_nodes)
    lo = 0
    while lo < n_nodes:
        hi = min(n_nodes, lo + max(1, _BLOCK // (mtry * int(size[by_size[lo]]))))
        nodes = by_size[lo:hi]
        node_loss, node_threshold = (
            a.reshape(-1, mtry)
            for a in _search_rows(xt, rank, rows, y, np.repeat(start[nodes], mtry),
                                  np.repeat(size[nodes], mtry), feats[nodes].ravel(), min_leaf)
        )
        best = np.argmin(node_loss, axis=1)
        r = np.arange(nodes.size)
        loss[nodes] = node_loss[r, best]
        feature[nodes] = feats[nodes, best]
        threshold[nodes] = node_threshold[r, best]
        lo = hi
    return loss, feature, threshold


def _draw_features(
    rngs: Sequence[np.random.Generator], tree: np.ndarray, p: int, mtry: int
) -> np.ndarray:
    """mtry features per node, ascending; each tree draws its level at once.

    tree lists each node's tree, trees ascending and nodes left to right.
    """
    trees, counts = np.unique(tree, return_counts=True)
    return np.concatenate([
        np.sort(np.argsort(rngs[t].random((c, p)), axis=1)[:, :mtry], axis=1)
        for t, c in zip(trees.tolist(), counts.tolist())
    ])


def _grow_forest(
    xv: np.ndarray,
    yv: np.ndarray,
    bags: np.ndarray,
    rngs: Sequence[np.random.Generator],
    cfg: ForestConfig,
    mtry: int,
) -> tuple[list[TreeNode], np.ndarray]:
    """Grow every tree level by level; returns the trees and the reductions.

    Row t of bags is tree t's bag.  The open nodes of a level, tree after
    tree and left to right, hold their rows as consecutive segments of one
    array, each in bag-position order.  A level first closes as leaves the
    nodes with too few rows, at the depth limit or with equal targets, then
    searches the rest at once; a node whose best split does not strictly
    reduce the summed squared error becomes a leaf too.  Each split node's
    segment is reordered stably, left rows first, into the next level.
    """
    n_trees, n = bags.shape
    p = xv.shape[1]
    xt = np.ascontiguousarray(xv.T)
    rank = _dense_ranks(xt)
    reductions = np.zeros(p)
    rows = bags.ravel()
    tree = np.arange(n_trees)
    size = np.full(n_trees, n)
    depth = 0
    # per level and node: split feature (-1 on a leaf), threshold, leaf value,
    # row count and the id of the left child (the right one follows it)
    levels: list[tuple[np.ndarray, ...]] = []
    n_made = n_trees
    while tree.size:
        start = np.cumsum(size) - size
        y = yv[rows]
        sum_y = np.add.reduceat(y, start)
        closed = size < 2 * cfg.min_leaf
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            closed[:] = True
        closed |= np.minimum.reduceat(y, start) == np.maximum.reduceat(y, start)

        feature = np.full(tree.size, -1, dtype=np.intp)
        threshold = np.zeros(tree.size)
        open_ = np.flatnonzero(~closed)
        if open_.size:
            feats = _draw_features(rngs, tree[open_], p, mtry)
            loss, feat, thr = _best_splits(
                xt, rank, rows, y, start[open_], size[open_], feats, cfg.min_leaf
            )
            sum_open = sum_y[open_]
            parent_sse = np.add.reduceat(y * y, start)[open_] - sum_open * sum_open / size[open_]
            gain = loss < parent_sse
            splits = open_[gain]
            feature[splits] = feat[gain]
            threshold[splits] = thr[gain]
            np.add.at(reductions, feat[gain], parent_sse[gain] - loss[gain])

        is_split = feature >= 0
        left = np.full(tree.size, -1, dtype=np.intp)
        left[is_split] = n_made + 2 * np.arange(int(is_split.sum()))
        value = np.where(is_split, 0.0, sum_y / size)
        levels.append((feature, threshold, value, size, left))
        n_made += 2 * int(is_split.sum())

        node = np.repeat(np.arange(tree.size), size)
        keep = is_split[node]
        rows, node = rows[keep], node[keep]
        goes_left = xt[feature[node], rows] <= threshold[node]
        rows = rows[np.argsort(2 * node + ~goes_left, kind="stable")]
        n_left = np.bincount(node[goes_left], minlength=tree.size)[is_split]
        size = np.column_stack([n_left, size[is_split] - n_left]).ravel()
        tree = np.repeat(tree[is_split], 2)
        depth += 1

    feature, threshold, value, count, left = (
        np.concatenate(column).tolist() for column in zip(*levels)
    )
    built: list[TreeNode | None] = [None] * len(feature)
    for i in reversed(range(len(feature))):
        if feature[i] < 0:
            built[i] = Leaf(value=value[i], count=count[i])
        else:
            built[i] = Split(feature=feature[i], threshold=threshold[i],
                             left=built[left[i]], right=built[left[i] + 1])
    return built[:n_trees], reductions


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
    """Fit the forest, growing all n_trees trees together, level by level.

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

    rngs = [_tree_rng(cfg.seed, t) for t in range(cfg.n_trees)]
    bags = np.array([_bootstrap_rows(rng, n, cfg.bootstrap) for rng in rngs])
    trees, importances = _grow_forest(xv, yv, bags, rngs, cfg, mtry)
    oob_masks = [_oob_mask(rows, n) for rows in bags]

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
