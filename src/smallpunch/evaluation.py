"""RMSE, seeded k-fold splitting and leakage-free cross-validation.

Every fold refits the whole pipeline (standardizer, PCA, model) on its
training rows only; held-out rows contribute nothing to any fitted
parameter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import UniformCurve
from .errors import BadConfig, BadK, EmptyInput, LengthMismatch, prefixed
from .features import strengths
from .pipeline import PipelineKind, fit_pipeline, predict_pipeline


def rmse(predictions: Sequence[float] | np.ndarray, truths: Sequence[float] | np.ndarray) -> float:
    """Root mean squared error between aligned vectors."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.ndim != 1 or t.ndim != 1 or p.size != t.size:
        raise LengthMismatch(f"prediction/truth shapes differ: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyInput("rmse of empty vectors")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Disjoint index folds covering range(n), sizes differing by at most 1.

    A seeded permutation of range(n) is split into k contiguous parts, the
    first n % k of them one row larger; each fold is returned sorted.
    """
    if not (2 <= k <= n):
        raise BadK(f"need 2 <= k <= n, got k={k}, n={n}")
    if seed < 0:
        raise BadConfig(f"seed must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(fold) for fold in np.array_split(perm, k)]


def group_kfold_split(material_ids: Sequence[str], k: int, seed: int) -> list[np.ndarray]:
    """Folds that keep all curves of one material together.

    Materials, taken in order of first appearance, are visited in a seeded
    order, and each goes with all its curves to the fold that holds fewest
    curves so far, ties to the lowest index.  Each fold lists its rows in
    ascending order.  Repeated tests of one material never straddle train
    and test, which removes the optimism that plain shuffling allows.
    """
    ids = list(material_ids)
    counts = Counter(ids)  # materials in order of first appearance, with their curve counts
    if not (2 <= k <= len(counts)):
        raise BadK(f"need 2 <= k <= number of materials, got k={k}, materials={len(counts)}")
    if seed < 0:
        raise BadConfig(f"seed must be >= 0, got {seed}")
    materials = list(counts)
    sizes = [0] * k
    fold_of: dict[str, int] = {}
    for pos in np.random.default_rng(seed).permutation(len(materials)):
        mid = materials[pos]
        fold_of[mid] = sizes.index(min(sizes))
        sizes[fold_of[mid]] += counts[mid]
    row_fold = np.array([fold_of[mid] for mid in ids])
    return [np.flatnonzero(row_fold == f) for f in range(k)]


@dataclass(frozen=True)
class CvReport:
    """Cross-validation outcome.

    k, mean_rmse and std_rmse (ddof=1) are the count, mean and standard
    deviation of fold_rmse.  per_sample holds one (row, truth, prediction)
    triple for every held-out row, in fold order.  The seed that drew the
    folds is the caller's argument to cross_validate.
    """

    fold_rmse: tuple[float, ...]
    per_sample: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise BadK(f"report needs k >= 2 folds, got {self.k}")

    @property
    def k(self) -> int:
        return len(self.fold_rmse)

    @property
    def mean_rmse(self) -> float:
        return float(np.mean(self.fold_rmse))

    @property
    def std_rmse(self) -> float:
        return float(np.std(self.fold_rmse, ddof=1))


def cross_validate(
    curves: Sequence[UniformCurve],
    kind: PipelineKind,
    k: int = 10,
    seed: int = 0,
    stratify_material: bool = False,
) -> CvReport:
    """Seeded k-fold cross-validation of one pipeline kind.

    Every fact a fold reads travels with its curves, each curve's v_i_mm
    included.  Errors raised while fitting or scoring a fold are re-raised
    with the fold index prepended.
    """
    curve_list = list(curves)
    n = len(curve_list)
    if stratify_material:
        folds = group_kfold_split([c.meta.material_id for c in curve_list], k, seed)
    else:
        folds = kfold_split(n, k, seed)
    truth_arr = strengths(curve_list)

    all_rows = np.arange(n)
    fold_rmse: list[float] = []
    per_sample: list[tuple[int, float, float]] = []
    for fi, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_rows, test_idx)
        with prefixed(f"fold {fi}"):
            trained = fit_pipeline([curve_list[i] for i in train_idx], kind)
            preds = predict_pipeline(trained, [curve_list[i] for i in test_idx])
        fold_truth = truth_arr[test_idx]
        fold_rmse.append(rmse(preds, fold_truth))
        per_sample.extend(
            (int(row), float(t), float(p)) for row, t, p in zip(test_idx, fold_truth, preds)
        )
    return CvReport(fold_rmse=tuple(fold_rmse), per_sample=tuple(per_sample))
