"""RMSE, seeded k-fold splitting and leakage-free cross-validation.

Every fold refits the whole pipeline (standardizer, PCA, model) on its
training rows only; held-out rows contribute nothing to any fitted
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import UniformCurve
from .errors import (
    BadConfig,
    BadK,
    EmptyInput,
    InvalidModel,
    LengthMismatch,
    PartialTargets,
    SmallPunchError,
)
from .pipeline import PipelineSpec, TrainedPipeline, fit_pipeline, predict_pipeline


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

    A seeded shuffle assigns rows; the first n % k folds take the extra row.
    Each fold is returned sorted ascending.
    """
    if not (2 <= k <= n):
        raise BadK(f"need 2 <= k <= n, got k={k}, n={n}")
    if seed < 0:
        raise BadConfig(f"seed must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(k, n // k, dtype=int)
    sizes[: n % k] += 1
    bounds = np.cumsum(sizes)[:-1]
    return [np.sort(fold) for fold in np.split(perm, bounds)]


def group_kfold_split(material_ids: Sequence[str], k: int, seed: int) -> list[np.ndarray]:
    """Folds that keep all curves of one material together.

    Materials are shuffled with the seed and assigned greedily to the
    currently smallest fold, so fold sizes stay balanced.  Repeated tests
    of one material never straddle train and test, which removes the
    optimism that plain shuffling allows.
    """
    ids = list(material_ids)
    n = len(ids)
    unique: list[str] = []
    seen: set[str] = set()
    for mid in ids:
        if mid not in seen:
            seen.add(mid)
            unique.append(mid)
    if not (2 <= k <= len(unique)):
        raise BadK(f"need 2 <= k <= number of materials, got k={k}, materials={len(unique)}")
    if seed < 0:
        raise BadConfig(f"seed must be >= 0, got {seed}")
    order = np.random.default_rng(seed).permutation(len(unique))
    fold_of: dict[str, int] = {}
    fold_sizes = [0] * k
    counts = {mid: ids.count(mid) for mid in unique}
    for pos in order:
        mid = unique[int(pos)]
        target = min(range(k), key=lambda f: fold_sizes[f])
        fold_of[mid] = target
        fold_sizes[target] += counts[mid]
    folds = [[] for _ in range(k)]
    for row, mid in enumerate(ids):
        folds[fold_of[mid]].append(row)
    if any(not f for f in folds):
        raise BadK(f"k={k} leaves an empty fold for {len(unique)} materials")
    return [np.asarray(f, dtype=int) for f in folds]


@dataclass(frozen=True)
class CvReport:
    """Cross-validation outcome.

    mean_rmse is the arithmetic mean of fold_rmse; std_rmse is their sample
    standard deviation (ddof=1).  per_sample holds one (row, truth,
    prediction) triple for every held-out row, in fold order.  fold_models
    is populated only when requested.
    """

    fold_rmse: tuple[float, ...]
    mean_rmse: float
    std_rmse: float
    k: int
    seed: int
    per_sample: tuple[tuple[int, float, float], ...]
    fold_models: tuple[TrainedPipeline, ...] | None = None

    def __post_init__(self) -> None:
        if self.k < 2 or len(self.fold_rmse) != self.k:
            raise BadK(f"report needs k >= 2 folds, got {len(self.fold_rmse)} for k={self.k}")
        if self.mean_rmse != float(np.mean(np.asarray(self.fold_rmse))):
            raise InvalidModel("mean_rmse must be the arithmetic mean of fold_rmse")


def cross_validate(
    curves: Sequence[UniformCurve],
    spec: PipelineSpec,
    k: int = 10,
    seed: int = 0,
    v_star: float | Sequence[float] | None = None,
    stratify_material: bool = False,
    collect_models: bool = False,
) -> CvReport:
    """Seeded k-fold cross-validation of one pipeline spec.

    Per-curve v_star sequences are subset per fold alongside the curves.
    Errors raised while fitting or scoring a fold are re-raised with the
    fold index prepended.
    """
    curve_list = list(curves)
    n = len(curve_list)
    truths = [c.meta.rm_MPa for c in curve_list]
    if any(t is None for t in truths):
        raise PartialTargets("cross-validation requires labeled curves")
    truth_arr = np.asarray(truths, dtype=float)

    if stratify_material:
        folds = group_kfold_split([c.meta.material_id for c in curve_list], k, seed)
    else:
        folds = kfold_split(n, k, seed)

    stars: np.ndarray | None = None
    if v_star is not None and not isinstance(v_star, (int, float, np.floating, np.integer)):
        stars = np.asarray(v_star, dtype=float)
        if stars.shape != (n,):
            raise LengthMismatch(f"{stars.size} v_star values for {n} curves")

    def star_subset(idx: np.ndarray):
        if stars is not None:
            return stars[idx]
        return v_star

    all_rows = np.arange(n)
    fold_rmse: list[float] = []
    per_sample: list[tuple[int, float, float]] = []
    models: list[TrainedPipeline] = []
    for fi, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(all_rows, test_idx)
        try:
            trained = fit_pipeline(
                [curve_list[i] for i in train_idx],
                spec,
                v_star=star_subset(train_idx),
            )
            preds = predict_pipeline(
                trained, [curve_list[i] for i in test_idx], v_star=star_subset(test_idx)
            )
        except SmallPunchError as exc:
            raise type(exc)(f"fold {fi}: {exc}") from exc
        fold_truth = truth_arr[test_idx]
        fold_rmse.append(rmse(preds, fold_truth))
        per_sample.extend(
            (int(row), float(t), float(p)) for row, t, p in zip(test_idx, fold_truth, preds)
        )
        if collect_models:
            models.append(trained)

    arr = np.asarray(fold_rmse)
    return CvReport(
        fold_rmse=tuple(fold_rmse),
        mean_rmse=float(np.mean(arr)),
        std_rmse=float(np.std(arr, ddof=1)),
        k=k,
        seed=seed,
        per_sample=tuple(per_sample),
        fold_models=tuple(models) if collect_models else None,
    )
