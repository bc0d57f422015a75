"""Random forest regression built from scratch on CART trees.

Variance-reduction regression trees with bootstrap resampling, per-node
feature subsampling and out-of-bag error.  Determinism is a hard contract:

* tree t draws from its own RNG stream seeded by (seed, t); its bag is the
  stream's first draw (_bags gives both);
* trees grow level by level (breadth first), all trees of a fit together.
  At each depth a tree draws the feature subsets of all its nodes that
  are searched at that depth, nodes left to right, reading its stream in
  order: for each node, the first mtry of an argsort of p uniform numbers,
  ascending.  The subsets are picked in blocks of a bounded number of
  uniforms, with the bits that per-tree argsort gives;
* split ties are broken toward the lower feature index, then the lower
  threshold; candidate thresholds are midpoints between consecutive
  distinct sorted values, or the lower value where the midpoint rounds
  onto the upper one or overflows, as scikit-learn's splitter does.

The same bits in always produce the same model bits.  Growth runs in one
thread.  fit_forest and predict_forest take plain float arrays, n x p
features and n targets, and check them on entry with
features._matrix_values and features._target_values.

A tree grows on the distinct rows of its bag, each weighted by the number
of times the bag holds it, as scikit-learn's forest passes a bootstrap on
as per-row sample counts.  Every count a node is held to (the leaf test,
min_leaf, a leaf's count) is a summed weight, the number of bag rows, and
a leaf's value is its weighted mean target; in exact arithmetic the tree
is the one grown on the bag with its duplicates.

Growth works on whole levels, as SLIQ does, so numpy calls scale with the
depth of the trees, not their node count.  The rows of every open node of
a level sit in one array, node after node, each node's rows ascending; a
split reorders its rows stably, left rows first.  Leaf tests, feature
draws and split searches run for all open nodes of a level at once.  The
search takes blocks of nodes, padded to the longest node of the block, and
sorts each (node, feature) candidate's values by dense rank and row, which
orders them as a stable sort of the node's own values would.  It ranks a
candidate's positions by the proxy sum_left**2 / n_left + sum_right**2 /
n_right, as scikit-learn's proxy_impurity_improvement does: in exact
arithmetic the position of least summed squared error scores highest.
Only each node's winner gets its improvement, the drop in squared error,
which the gain test and the importances use.  Each candidate has its own
cumulative sums, so where no draw can change a tree (mtry = p) growth
finds the splits of a depth-first grower that runs on the bag itself
(tests/test_forest.py keeps one): for any targets without bootstrap, and
with it where a weighted sum has the bits of the repeated one.  Only sums
over a whole node (leaf values) are added in another order, so a leaf
value may differ from such a grower's in the last bits.

The fitted forest is a flat node table: every node of every tree as
parallel arrays in level order, roots first, each split's two children
side by side, leaves pointing at themselves; this module alone knows
that layout.  One builder, _NodeTable.from_level_order, makes and checks
every table from four level-order arrays: count per node, feature and
threshold per split and value per leaf.  They are ForestModel's fields:
growth returns them, the model file stores them, and a format 1 file's
nested trees are flattened into them (modelfile.UPGRADES).  So a loaded
forest's table is the fitted forest's table, array for array.  Nested
Split/Leaf trees exist only where a reader asks for them: model.trees
builds them straight from the table on first access and caches them;
fitting, predicting and the model file never do.  Routing moves every
(tree, row) pair down one level per step with numpy indexing, until all
pairs sit at leaves.  A step takes a pair from a split to its left child
when x <= threshold and to the next node, its right child, otherwise; a
leaf's threshold is +inf, so it keeps its pairs.  Per-tree leaf values
are summed in tree order from zeros, so predictions and the out-of-bag
error have the bits a per-row walk of the trees gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import (
    BadConfig,
    InvalidModel,
    LengthMismatch,
    TooFewRows,
)
from .features import _matrix_values, _target_values


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters.

    mtry of None means default_mtry(p) at fit time: a sixth of the p
    columns, rounded up, but at least 2 and never more than ceil(p / 3).
    A model file written before this default holds "mtry": null for
    ceil(p / 3); no prediction reads mtry.  max_depth of None means
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


def _refuse_any(bad: np.ndarray, nodes: np.ndarray, values: np.ndarray, what: str) -> None:
    """InvalidModel naming the first node where bad holds, and its value."""
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidModel(f"node {nodes[i]}: {what}, got {values[i].item()!r}")


@dataclass(frozen=True)
class _NodeTable:
    """Every node of a forest as flat arrays, in level order.

    The roots are 0..n_trees-1, then come the nodes of each deeper level,
    tree after tree and left to right, so a split's children sit at left
    and left + 1, after it.  A leaf's left points at itself, its threshold
    is +inf and its feature 0, so a (tree, row) pair that has reached its
    leaf stays there; value is the leaf value and count its bag rows
    (0.0 and 0 on splits).  depth is the deepest leaf's, the number of
    steps that brings every pair to its leaf.  from_level_order builds
    and checks every table.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    count: np.ndarray
    n_trees: int
    depth: int

    @classmethod
    def from_level_order(cls, n_features: int, count: np.ndarray, feature: np.ndarray,
                         threshold: np.ndarray, value: np.ndarray) -> _NodeTable:
        """The table of a forest given as four level-order arrays, checked whole.

        count holds every node's bag rows, 0 marking a split; feature and
        threshold hold every split's and value every leaf's, in node order.
        Level order fixes the rest: n_trees = count.size - 2 * splits, and
        the k-th split's children are nodes n_trees + 2k and n_trees + 2k + 1,
        after it.  Leaf counts are >= 1, split features in [0, n_features),
        thresholds and values finite.
        """
        split = count == 0
        splits, leaves = np.flatnonzero(split), np.flatnonzero(~split)
        n_trees = count.size - 2 * splits.size
        if n_trees < 1:
            raise InvalidModel(f"{count.size} nodes with {splits.size} splits make no tree")
        if not feature.size == threshold.size == splits.size or value.size != leaves.size:
            raise InvalidModel(
                f"{splits.size} splits and {leaves.size} leaves, but {feature.size} features, "
                f"{threshold.size} thresholds and {value.size} values"
            )
        left = np.arange(count.size, dtype=np.intp)
        left[splits] = n_trees + 2 * np.arange(splits.size)
        late = left[splits] <= splits
        if late.any():
            node = splits[np.argmax(late)]
            raise InvalidModel(f"node {node}: split comes after its children, which level "
                               f"order puts at nodes {left[node]} and {left[node] + 1}")
        _refuse_any(count[leaves] < 0, leaves, count[leaves], "leaf count must be >= 1")
        _refuse_any((feature < 0) | (feature >= n_features), splits, feature,
                    f"split feature outside [0, {n_features})")
        _refuse_any(~np.isfinite(threshold), splits, threshold, "threshold is not finite")
        _refuse_any(~np.isfinite(value), leaves, value, "leaf value is not finite")
        full_feature = np.zeros(count.size, dtype=np.intp)
        full_threshold = np.full(count.size, np.inf)
        full_value = np.zeros(count.size)
        full_feature[split], full_threshold[split], full_value[~split] = feature, threshold, value
        # level order ends on a deepest leaf: climb from it to its root
        depth, node = 0, count.size - 1
        while node >= n_trees:
            node = int(splits[(node - n_trees) // 2])
            depth += 1
        return cls(feature=full_feature, threshold=full_threshold, left=left,
                   value=full_value, count=count, n_trees=n_trees, depth=depth)

    def tree_values(self, x: np.ndarray) -> np.ndarray:
        """Leaf value of every tree (rows of the result) for every row of x."""
        rows = np.arange(x.shape[0])
        node = np.repeat(np.arange(self.n_trees)[:, None], x.shape[0], axis=1)
        for _ in range(self.depth):
            node = self.left[node] + (x[rows, self.feature[node]] > self.threshold[node])
        return self.value[node]


@dataclass(frozen=True)
class ForestModel:
    """A fitted forest's diagnostics and level-order arrays, and its node table.

    count, feature, threshold and value, annotated as the JSON lists the
    model file holds, are the arrays from which the constructor builds
    table, which routes every prediction.  trees is the same forest as
    nested Split/Leaf objects, built from the table on first access and
    cached.  importances are normalized variance reductions per feature
    (summing to one when any split happened); oob_rmse is None when
    bootstrap was off or some row was never out of bag.  The settings it
    grew with are its caller's: pipeline.ForestKind.config holds them.
    """

    n_features: int
    importances: np.ndarray
    oob_rmse: float | None
    count: list[int]
    feature: list[int]
    threshold: list[float]
    value: list[float]

    def __post_init__(self) -> None:
        for name, dtype in (("importances", float), ("count", np.intp), ("feature", np.intp),
                            ("threshold", float), ("value", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        imp = self.importances
        if imp.shape != (self.n_features,):
            raise InvalidModel("importances must have one entry per feature")
        if np.any(imp < 0.0) or not np.all(np.isfinite(imp)):
            raise InvalidModel("importances must be finite and non-negative")
        total = float(imp.sum())
        if total != 0.0 and abs(total - 1.0) > 1e-8:
            raise InvalidModel(f"importances must sum to 1 or 0, got {total}")
        if self.oob_rmse is not None and not 0.0 <= self.oob_rmse < math.inf:
            raise InvalidModel(f"oob_rmse must be finite and >= 0, got {self.oob_rmse!r}")
        object.__setattr__(self, "table", _NodeTable.from_level_order(
            self.n_features, self.count, self.feature, self.threshold, self.value))

    @cached_property
    def trees(self) -> tuple[TreeNode, ...]:
        t = self.table
        feature, threshold, left, value, count = (
            a.tolist() for a in (t.feature, t.threshold, t.left, t.value, t.count)
        )
        built: list = [None] * len(feature)
        # children follow their parent, so a backward pass meets them first
        for i in reversed(range(len(feature))):
            j = left[i]
            built[i] = (Leaf(value[i], count[i]) if j == i
                        else Split(feature[i], threshold[i], built[j], built[j + 1]))
        return tuple(built[:t.n_trees])


# elements of one padded split-search block: big enough that numpy's work
# outweighs its per-call cost, small enough to stay in cache
_BLOCK = 8192
# uniforms of one feature-draw block: bounds the draws and their sorted copy
_DRAW_BLOCK = 2**15


def _search_ranks(xt: np.ndarray) -> np.ndarray:
    """Dense rank of every value among the distinct values of its row of xt.

    A last column holds n, which ranks after every row of xt: the rank of
    the padding row n that _search_rows gives short segments.  The ranks
    are int32, which sorts faster, where every search key fits in it.
    """
    p, n = xt.shape
    order = np.argsort(xt, axis=1)
    ordered = np.take_along_axis(xt, order, axis=1)
    steps = np.zeros(xt.shape, dtype=np.intp)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, out=steps[:, 1:])
    fits = (n + 1) << (n - 1).bit_length() <= 2**31
    rank = np.full((p, n + 1), n, dtype=np.int32 if fits else np.int64)
    np.put_along_axis(rank[:, :n], order, steps, axis=1)
    return rank


def _search_rows(
    xt: np.ndarray,
    rank: np.ndarray,
    rows: np.ndarray,
    wy: np.ndarray,
    start: np.ndarray,
    size: np.ndarray,
    weight: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (improvement, feature, threshold) of each node of a block.

    Node i holds the distinct rows rows[start[i]:start[i] + size[i]],
    ascending, and is searched on the columns feats[i] of xt (p x n), in
    ascending order; size is non-increasing.  rank is _search_ranks(xt).
    wy holds each row's weight w and weighted target w * y as one complex
    number, so one cumulative sum, exact per component, adds both; weight
    is each node's summed weight.  rows and wy reach past the last node by
    the longest segment.

    Every (node, feature) candidate sorts the keys rank * 2**shift +
    position, which no two rows of a segment share: ties keep row order,
    as a stable sort of the node's own values would, so each cumulative sum
    has that sort's bits.  A shorter segment is padded to the longest with
    row n, whose rank sorts last.

    Position j splits after sorted row j.  It is valid between distinct
    values with a weight of at least min_leaf on each side, and it scores
    sum_left**2 / n_left + sum_right**2 / n_right, where n sums the weights
    and sum the weighted targets of a side.  Each node takes the first
    highest score over its candidates, features before positions: the
    lower feature, then the lower threshold, wins a tie.  Its improvement
    is score - sum**2 / weight, with sum the winning candidate's last
    cumulative sum: the drop in summed squared error the split gives, -inf
    when no position is valid.
    """
    nodes, mtry = feats.shape
    width = int(size[0])
    n = rank.shape[1] - 1
    shift = (width - 1).bit_length()
    k = np.arange(width)
    seg = rows[start[:, None] + k]
    if int(size[-1]) < width:
        seg = np.where(k < size[:, None], seg, n)
    key = rank.ravel().take(seg[:, None, :] + (n + 1) * feats[:, :, None])
    key <<= shift
    key |= k
    key.sort(axis=2)
    at = start[:, None, None] + (key & ((1 << shift) - 1))
    key >>= shift
    c = np.cumsum(wy.take(at), axis=2)

    # a padded candidate's positions from its last row on are never valid:
    # past it the keys are equal, at it the right side has no weight
    n_left = c.real[:, :, :-1]
    sum_left = c.imag[:, :, :-1]
    sum_all = c.imag[np.arange(nodes)[:, None], np.arange(mtry), (size - 1)[:, None]]
    n_right = weight[:, None, None] - n_left
    sum_right = sum_all[:, :, None] - sum_left
    invalid = key[:, :, 1:] == key[:, :, :-1]
    invalid |= n_left < min_leaf
    invalid |= n_right < min_leaf
    with np.errstate(divide="ignore", invalid="ignore"):
        score = np.square(sum_left)
        score /= n_left
        np.square(sum_right, out=sum_right)
        sum_right /= n_right
    score += sum_right
    np.copyto(score, -np.inf, where=invalid)

    best, pos = np.divmod(np.argmax(score.reshape(nodes, -1), axis=1), width - 1)
    r = np.arange(nodes)
    total = sum_all[r, best]
    feature = feats[r, best]
    lo, hi = xt[feature, rows[at[r, best, pos]]], xt[feature, rows[at[r, best, pos + 1]]]
    # a midpoint that rounds onto hi or overflows would send both sides left
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    threshold = np.where(np.isfinite(mid) & (mid < hi), mid, lo)
    return score[r, best, pos] - total * total / weight, feature, threshold


def _best_splits(
    xt: np.ndarray,
    rank: np.ndarray,
    rows: np.ndarray,
    wy: np.ndarray,
    start: np.ndarray,
    size: np.ndarray,
    weight: np.ndarray,
    feats: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (improvement, feature, threshold) of each node on its drawn features.

    Row i of feats lists node i's candidate features in ascending order.
    Nodes are searched largest first, whole nodes to a block of at most
    _BLOCK padded elements (or one node), so a block pads little; see
    _search_rows.
    """
    n_nodes, mtry = feats.shape
    by_size = np.argsort(-size, kind="stable")
    # a padded segment may reach past the last node's rows
    pad = int(size.max())
    rows = np.concatenate([rows, np.zeros(pad, dtype=rows.dtype)])
    wy = np.concatenate([wy, np.zeros(pad, dtype=wy.dtype)])
    improvement = np.empty(n_nodes)
    feature = np.empty(n_nodes, dtype=np.intp)
    threshold = np.empty(n_nodes)
    lo = 0
    while lo < n_nodes:
        hi = min(n_nodes, lo + max(1, _BLOCK // (mtry * int(size[by_size[lo]]))))
        nodes = by_size[lo:hi]
        improvement[nodes], feature[nodes], threshold[nodes] = _search_rows(
            xt, rank, rows, wy, start[nodes], size[nodes], weight[nodes], feats[nodes], min_leaf
        )
        lo = hi
    return improvement, feature, threshold


def _draw_features(
    rngs: Sequence[np.random.Generator], tree: np.ndarray, p: int, mtry: int
) -> np.ndarray:
    """mtry features per node, ascending; each tree reads its level in order.

    tree lists each node's tree, trees ascending and nodes left to right.
    Node i takes the columns of the mtry smallest of its p uniform numbers:
    those at most the mtry-th smallest, found by one sort per block of at
    most _DRAW_BLOCK uniforms (or one node).  A tree split between blocks
    reads on from its stream, so its nodes get the numbers of one draw.
    A node with a tie at that value takes the first mtry of its argsort,
    so every node gets the columns the argsort alone would give.
    """
    feats = np.empty((tree.size, mtry), dtype=np.intp)
    step = max(1, _DRAW_BLOCK // p)
    for lo in range(0, tree.size, step):
        trees, counts = np.unique(tree[lo:lo + step], return_counts=True)
        u = np.concatenate([rngs[t].random((c, p))
                            for t, c in zip(trees.tolist(), counts.tolist())])
        chosen = u <= np.sort(u, axis=1)[:, mtry - 1, None]
        for i in np.flatnonzero(chosen.sum(axis=1) != mtry).tolist():
            chosen[i] = False
            chosen[i, np.argsort(u[i])[:mtry]] = True
        # each row holds mtry chosen columns; flat positions, less the row's start
        np.subtract(np.flatnonzero(chosen).reshape(-1, mtry), p * np.arange(len(u))[:, None],
                    out=feats[lo:lo + len(u)])
    return feats


def _rounding_bound(weight: np.ndarray, y_max: np.ndarray) -> np.ndarray:
    """Bound on the rounding in a node's computed improvement, by its weight and max |y|.

    The improvement sum_left**2 / n_left + sum_right**2 / n_right -
    sum**2 / weight is formed from cumulative sums of at most m <= weight
    rounded products w * y, each partial sum off by at most (m + 1) u
    times the weighted |y| it adds, u = eps / 2.  Carried through the
    squares, quotients and sums, the computed improvement is off by at
    most (8 m + 18) u * weight * y_max**2; this bound is (4 weight + 12)
    eps * weight * y_max**2, at least that.  A split whose exact gain is
    zero has a computed improvement of rounding alone, never above it.
    The products are ordered so that none overflows while weight * y_max
    stays within the targets' bound (features._target_values).
    """
    return 4.0 * np.finfo(float).eps * (weight + 3.0) * (weight * y_max) * y_max


def _grow_forest(
    xv: np.ndarray,
    yv: np.ndarray,
    bags: np.ndarray,
    rngs: Sequence[np.random.Generator],
    cfg: ForestConfig,
    mtry: int,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Grow every tree level by level; returns the level-order columns and the reductions.

    Row t of bags is tree t's bag.  A tree grows on the distinct rows of its
    bag, ascending, each weighted by the number of times the bag holds it.
    The open nodes of a level, tree after tree and left to right, hold their
    rows and weights as consecutive segments of two arrays.  A level first
    closes as leaves the nodes whose summed weight is below 2 * min_leaf,
    those at the depth limit and those with equal targets, then searches
    the rest at once; a node whose best split does not reduce the summed
    squared error by more than its rounding can reach (_rounding_bound)
    becomes a leaf too, so no split of zero exact gain is ever taken.  A
    leaf's value is its weighted mean target and its count its summed
    weight, its bag rows.  Each split node's segment is reordered stably,
    left rows first, into the next level.  Level after level, the nodes go
    into the four level-order columns count, feature, threshold and value,
    a ForestModel's.
    """
    n_trees, n = bags.shape
    p = xv.shape[1]
    xt = np.ascontiguousarray(xv.T)
    rank = _search_ranks(xt)
    reductions = np.zeros(p)
    counts = np.bincount((bags + n * np.arange(n_trees)[:, None]).ravel(),
                         minlength=n_trees * n).reshape(n_trees, n)
    tree, rows = np.nonzero(counts)
    w = counts[tree, rows].astype(float)
    size = np.bincount(tree, minlength=n_trees)
    tree = np.arange(n_trees)
    depth = 0
    # the level-order columns count, feature, threshold and value, per level
    levels: list[tuple[np.ndarray, ...]] = []
    while tree.size:
        start = np.cumsum(size) - size
        y = yv[rows]
        wy = np.empty(rows.size, dtype=complex)
        wy.real, wy.imag = w, w * y
        totals = np.add.reduceat(wy, start)
        weight, sum_y = totals.real, totals.imag
        closed = weight < 2 * cfg.min_leaf
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            closed[:] = True
        low, high = np.minimum.reduceat(y, start), np.maximum.reduceat(y, start)
        closed |= low == high

        is_split = np.zeros(tree.size, dtype=bool)
        feature = np.zeros(tree.size, dtype=np.intp)
        threshold = np.full(tree.size, np.inf)
        open_ = np.flatnonzero(~closed)
        if open_.size:
            feats = _draw_features(rngs, tree[open_], p, mtry)
            improvement, feat, thr = _best_splits(
                xt, rank, rows, wy, start[open_], size[open_], weight[open_], feats, cfg.min_leaf
            )
            gain = improvement > _rounding_bound(weight[open_], np.maximum(-low, high)[open_])
            splits = open_[gain]
            is_split[splits] = True
            feature[splits] = feat[gain]
            threshold[splits] = thr[gain]
            np.add.at(reductions, feat[gain], improvement[gain])

        leaf = ~is_split
        count = np.where(is_split, 0.0, weight).astype(np.intp)
        levels.append((count, feature[is_split], threshold[is_split], sum_y[leaf] / weight[leaf]))

        node = np.repeat(np.arange(tree.size), size)
        keep = is_split[node]
        rows, w, node = rows[keep], w[keep], node[keep]
        goes_left = xt[feature[node], rows] <= threshold[node]
        order = np.argsort(2 * node + ~goes_left, kind="stable")
        rows, w = rows[order], w[order]
        n_left = np.bincount(node[goes_left], minlength=tree.size)[is_split]
        size = np.column_stack([n_left, size[is_split] - n_left]).ravel()
        tree = np.repeat(tree[is_split], 2)
        depth += 1

    return tuple(np.concatenate(column) for column in zip(*levels)), reductions


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tree_index]))


def _bootstrap_rows(rng: np.random.Generator, n: int, bootstrap: bool) -> np.ndarray:
    if bootstrap:
        return rng.integers(0, n, size=n)
    return np.arange(n)


def _bags(cfg: ForestConfig, n: int) -> tuple[list[np.random.Generator], np.ndarray]:
    """Each tree's RNG stream, and its bag of n rows (row t) drawn first from it."""
    rngs = [_tree_rng(cfg.seed, t) for t in range(cfg.n_trees)]
    return rngs, np.array([_bootstrap_rows(rng, n, cfg.bootstrap) for rng in rngs])


def default_mtry(p: int) -> int:
    """Features searched per split when ForestConfig.mtry is None.

    ceil(p / 6), at least 2, at most ceil(p / 3): neighbouring grid forces
    are near-copies, so a third of them mostly adds copies of the best
    column, while a forest on a few PCA scores (p <= 6) keeps ceil(p / 3).
    """
    return min(math.ceil(p / 3), max(2, math.ceil(p / 6)))


def fit_forest(x: np.ndarray, y: np.ndarray, cfg: ForestConfig = ForestConfig()) -> ForestModel:
    """Fit the forest, growing all n_trees trees together, level by level.

    Parameters
    ----------
    x : ndarray
        n x p finite training features.
    y : ndarray
        n finite targets.
    cfg : ForestConfig
        Hyperparameters; cfg.mtry=None resolves to default_mtry(p).

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
    mtry = cfg.mtry if cfg.mtry is not None else default_mtry(p)
    if mtry > p:
        raise BadConfig(f"mtry {mtry} exceeds feature count {p}")

    rngs, bags = _bags(cfg, n)
    columns, importances = _grow_forest(xv, yv, bags, rngs, cfg, mtry)

    oob_rmse = None
    if cfg.bootstrap:
        # each row's out-of-bag tree predictions, summed in tree order; an
        # in-bag tree adds 0.0, which leaves a sum begun at +0.0 unchanged
        oob = np.ones((cfg.n_trees, n), dtype=bool)
        oob[np.arange(cfg.n_trees)[:, None], bags] = False
        oob_count = oob.sum(axis=0)
        if np.all(oob_count > 0):
            table = _NodeTable.from_level_order(p, *columns)
            oob_sum = _tree_order_sum(np.where(oob, table.tree_values(xv), 0.0))
            oob_pred = oob_sum / oob_count
            oob_rmse = float(np.sqrt(np.mean((oob_pred - yv) ** 2)))

    total = float(importances.sum())
    if total > 0.0:
        importances = importances / total

    return ForestModel(p, importances, oob_rmse, *columns)


def _tree_order_sum(values: np.ndarray) -> np.ndarray:
    """Each column's sum of the rows of values, added in row order from +0.0.

    One cumulative sum down a leading zero row: the additions, and so the
    bits, of a loop that adds each tree's row to zeros in turn.
    """
    stacked = np.zeros((values.shape[0] + 1, values.shape[1]))
    stacked[1:] = values
    return np.cumsum(stacked, axis=0)[-1]


def predict_forest(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Mean of the per-tree predictions, summed in fixed tree order."""
    xv = _matrix_values(x, model.n_features)
    return _tree_order_sum(model.table.tree_values(xv)) / model.table.n_trees
