"""Metrics, fold construction and leakage-free cross-validation."""

import re
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallpunch.curves import GridSpec, MARKER_FIXED_V, RULE_POINT, resample
from smallpunch.errors import (
    BadConfig,
    BadK,
    EmptyInput,
    LengthMismatch,
    PartialTargets,
    SmallPunchError,
)
from smallpunch.evaluation import (
    CvReport,
    cross_validate,
    group_kfold_split,
    kfold_split,
    rmse,
)
from smallpunch.forest import ForestConfig
from smallpunch.pipeline import (
    EmpiricalKind,
    ForestKind,
    PcaLmKind,
)
from smallpunch.regress import MODE_INSTABILITY_FORCE
from smallpunch.synth import SynthConfig, generate

from conftest import cv_fold_models, make_meta, make_uniform, with_v_i


def _synth_uniform(cfg, grid=GridSpec()):
    raw, truth = generate(cfg)
    return [resample(c, grid) for c in raw], truth


def _random_labeled_curves(n, seed, rm=None):
    rng = np.random.default_rng(seed)
    grid = GridSpec()
    curves = []
    for i in range(n):
        label = rm if rm is not None else float(rng.uniform(300.0, 900.0))
        curves.append(
            make_uniform(
                rng.uniform(0.0, 100.0, grid.n_points),
                grid=grid,
                meta=make_meta(material=f"M{i % 4}", temperature=20.0 + i, rm=label),
            )
        )
    return curves


# -------------------------------------------------------------------- rmse

def test_rmse_hand_value():
    assert rmse([1.0, 2.0], [4.0, 6.0]) == pytest.approx(np.sqrt(12.5), rel=1e-15)
    assert rmse([5.0, 5.0], [5.0, 5.0]) == 0.0


def test_rmse_validation():
    with pytest.raises(LengthMismatch):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(EmptyInput):
        rmse([], [])


# ------------------------------------------------------------- kfold_split

def test_kfold_sizes_and_coverage():
    folds = kfold_split(7, 3, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [2, 2, 3]
    assert len(folds[0]) == 3  # the remainder goes to the first folds
    merged = np.concatenate(folds)
    assert sorted(merged.tolist()) == list(range(7))
    for fold in folds:
        assert np.all(np.diff(fold) > 0)  # sorted, disjoint within the fold


def test_kfold_deterministic_and_seed_sensitive():
    a = kfold_split(20, 4, seed=5)
    b = kfold_split(20, 4, seed=5)
    c = kfold_split(20, 4, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_rejects_bad_k():
    with pytest.raises(BadK):
        kfold_split(10, 1, seed=0)
    with pytest.raises(BadK):
        kfold_split(3, 4, seed=0)


# ------------------------------------------------------- group_kfold_split

def test_group_folds_keep_materials_together():
    ids = ["A", "A", "A", "B", "B", "C", "C", "C", "C", "D"]
    folds = group_kfold_split(ids, 2, seed=0)
    merged = np.concatenate(folds)
    assert sorted(merged.tolist()) == list(range(10))
    for fold in folds:
        materials = {ids[i] for i in fold}
        for i, mid in enumerate(ids):
            assert (i in set(fold.tolist())) == (mid in materials)


def test_group_folds_balance_sizes():
    ids = [f"M{i}" for i in range(8) for _ in range(3)]  # 8 materials x 3 rows
    folds = group_kfold_split(ids, 4, seed=1)
    assert sorted(len(f) for f in folds) == [6, 6, 6, 6]


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.sampled_from("ABCDEFGHIJ"), min_size=2, max_size=40).filter(
        lambda ids: len(set(ids)) >= 2),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_folds_are_non_empty_disjoint_covering_and_keep_materials_whole(ids, data, seed):
    k = data.draw(st.integers(2, len(set(ids))))
    folds = group_kfold_split(ids, k, seed)
    assert len(folds) == k and all(f.size for f in folds)
    assert sorted(np.concatenate(folds).tolist()) == list(range(len(ids)))
    fold_of = {}
    for fi, fold in enumerate(folds):
        for row in fold.tolist():
            assert fold_of.setdefault(ids[row], fi) == fi


def test_group_folds_reject_more_folds_than_materials():
    with pytest.raises(BadK):
        group_kfold_split(["A", "A", "B"], 3, seed=0)


def test_splitters_reject_negative_seed():
    with pytest.raises(BadConfig, match="seed must be >= 0"):
        kfold_split(10, 2, seed=-1)
    with pytest.raises(BadConfig, match="seed must be >= 0"):
        group_kfold_split(["A", "A", "B"], 2, seed=-1)


# The two splitters as they stood before np.array_split and the one-pass
# group draw, kept verbatim as the reference the current ones must match.

def _reference_kfold_split(n: int, k: int, seed: int) -> list[np.ndarray]:
    if not (2 <= k <= n):
        raise BadK(f"need 2 <= k <= n, got k={k}, n={n}")
    if seed < 0:
        raise BadConfig(f"seed must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(n)
    sizes = np.full(k, n // k, dtype=int)
    sizes[: n % k] += 1
    bounds = np.cumsum(sizes)[:-1]
    return [np.sort(fold) for fold in np.split(perm, bounds)]


def _reference_group_kfold_split(material_ids: Sequence[str], k: int, seed: int) -> list[np.ndarray]:
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
    return [np.asarray(f, dtype=int) for f in folds]


def _draw(split, *args):
    """The folds a splitter draws, as integer lists, or the class and text of its error."""
    try:
        folds = split(*args)
    except SmallPunchError as err:
        return type(err), str(err)
    assert all(fold.dtype.kind == "i" for fold in folds)
    return [fold.tolist() for fold in folds]


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 300), k=st.integers(-1, 41), seed=st.integers(-3, 2**64))
def test_kfold_split_draws_the_reference_folds(n, k, seed):
    assert _draw(kfold_split, n, k, seed) == _draw(_reference_kfold_split, n, k, seed)


@settings(max_examples=300, deadline=None)
@given(
    ids=st.integers(1, 30).flatmap(
        lambda m: st.lists(st.integers(0, m - 1).map("M{}".format), max_size=300)),
    k=st.integers(-1, 41),
    seed=st.integers(-3, 2**64),
)
def test_group_kfold_split_draws_the_reference_folds(ids, k, seed):
    assert _draw(group_kfold_split, ids, k, seed) == _draw(_reference_group_kfold_split, ids, k, seed)


# ---------------------------------------------------------------- CvReport

def test_report_needs_two_folds():
    with pytest.raises(BadK):
        CvReport(fold_rmse=(1.0,), per_sample=())
    report = CvReport(fold_rmse=(1.0, 2.0), per_sample=())
    assert (report.k, report.mean_rmse, report.std_rmse) == (2, 1.5, float(np.sqrt(0.5)))


# ----------------------------------------------------------- cross_validate

def test_noiseless_curves_give_vanishing_empirical_error():
    # the point rule on the 0.01 mm grid the planted v_i snaps to: F_i is read
    # at the knee itself, where an interval mean would average across it
    cfg = SynthConfig(n_materials=2, curves_per_material=6, noise_sigma_N=0.0,
                      seed=3)
    curves, truth = _synth_uniform(cfg, GridSpec(spacing_mm=0.01, n_points=151, rule=RULE_POINT))
    kind = EmpiricalKind(mode=MODE_INSTABILITY_FORCE, marker_strategy=MARKER_FIXED_V)
    report = cross_validate(with_v_i(curves, [rec.v_i_mm for rec in truth]), kind, k=3, seed=0)
    assert report.mean_rmse < 1e-6


def test_constant_target_is_reproduced_by_linear_pipeline():
    curves = _random_labeled_curves(18, seed=7, rm=600.0)
    report = cross_validate(curves, PcaLmKind(), k=3, seed=1)
    assert report.mean_rmse < 1e-8


def test_report_statistics_recompute():
    curves = _random_labeled_curves(15, seed=8)
    report = cross_validate(curves, PcaLmKind(), k=3, seed=2)
    arr = np.asarray(report.fold_rmse)
    assert report.mean_rmse == float(np.mean(arr))
    assert report.std_rmse == pytest.approx(float(np.std(arr, ddof=1)), rel=1e-15)
    assert report.k == 3


def test_per_sample_covers_every_row_once():
    curves = _random_labeled_curves(14, seed=9)
    report = cross_validate(curves, PcaLmKind(), k=4, seed=3)
    rows = sorted(r for r, _, _ in report.per_sample)
    assert rows == list(range(14))
    for row, truth, _ in report.per_sample:
        assert truth == curves[row].meta.rm_MPa


def test_held_out_rows_are_not_memorized():
    # a single unpruned tree memorizes its training rows exactly; held-out
    # error can only be zero if test rows leak into the fit
    curves = _random_labeled_curves(16, seed=10)
    kind = ForestKind(config=ForestConfig(n_trees=1, bootstrap=False,
                                          min_leaf=1, mtry=77, seed=0))
    report = cross_validate(curves, kind, k=4, seed=4)
    assert report.mean_rmse > 1.0


def test_each_fold_fits_its_own_pca(monkeypatch):
    cfg = SynthConfig(n_materials=4, curves_per_material=4, noise_sigma_N=5.0,
                      seed=11)
    curves, _ = _synth_uniform(cfg)
    m0, m1, *_ = cv_fold_models(monkeypatch, curves, PcaLmKind(), k=4, seed=5)
    assert not np.array_equal(m0.pca.mean, m1.pca.mean)


def test_stratified_cv_runs_and_differs_from_plain():
    cfg = SynthConfig(n_materials=4, curves_per_material=5, noise_sigma_N=5.0,
                      seed=4)
    curves, _ = _synth_uniform(cfg)
    kind = PcaLmKind()
    plain = cross_validate(curves, kind, k=4, seed=6)
    grouped = cross_validate(curves, kind, k=4, seed=6, stratify_material=True)
    assert np.isfinite(grouped.mean_rmse)
    assert grouped.fold_rmse != plain.fold_rmse


def test_fold_errors_carry_the_fold_index():
    curves = _random_labeled_curves(8, seed=12)
    zero = make_uniform(np.zeros(151), meta=make_meta(rm=500.0))
    curves.append(zero)
    kind = EmpiricalKind()
    with pytest.raises(SmallPunchError, match=r"fold \d+:"):
        cross_validate(curves, kind, k=3, seed=7)


def test_unlabeled_curves_are_rejected():
    curves = _random_labeled_curves(6, seed=13)
    curves.append(make_uniform(np.ones(151), meta=make_meta()))
    with pytest.raises(PartialTargets):
        cross_validate(curves, PcaLmKind(), k=3, seed=0)


def test_a_fixed_v_kind_without_v_star_refuses_a_curve_without_v_i():
    cfg = SynthConfig(n_materials=2, curves_per_material=3, seed=5)
    curves, truth = _synth_uniform(cfg)
    curves = with_v_i(curves[:-1], [rec.v_i_mm for rec in truth]) + curves[-1:]
    kind = EmpiricalKind(marker_strategy=MARKER_FIXED_V)
    with pytest.raises(BadConfig) as err:
        cross_validate(curves, kind, k=2, seed=0)
    assert type(err.value) is BadConfig
    assert re.fullmatch(r"fold \d: curve \d: material M01 has no v_i_mm for the fixed-v marker, "
                        r"whose kind holds no v_star", str(err.value))


def test_a_shared_v_star_reads_as_every_curve_carrying_it():
    cfg = SynthConfig(n_materials=2, curves_per_material=4, seed=5)
    curves, _ = _synth_uniform(cfg)
    shared = cross_validate(curves, EmpiricalKind(marker_strategy=MARKER_FIXED_V, v_star=0.5),
                            k=2, seed=0)
    each = cross_validate(with_v_i(curves, [0.5] * len(curves)),
                          EmpiricalKind(marker_strategy=MARKER_FIXED_V), k=2, seed=0)
    assert each == shared
