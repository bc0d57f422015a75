"""Metrics, fold construction and leakage-free cross-validation."""

import numpy as np
import pytest

from smallpunch.curves import GridSpec, MARKER_FIXED_V, resample
from smallpunch.errors import (
    BadConfig,
    BadK,
    EmptyInput,
    InvalidModel,
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
    PipelineSpec,
)
from smallpunch.regress import MODE_INSTABILITY_FORCE
from smallpunch.synth import SynthConfig, generate

from conftest import make_meta, make_uniform


def _synth_uniform(cfg):
    raw, truth = generate(cfg)
    grid = GridSpec()
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


def test_group_folds_reject_more_folds_than_materials():
    with pytest.raises(BadK):
        group_kfold_split(["A", "A", "B"], 3, seed=0)


def test_splitters_reject_negative_seed():
    with pytest.raises(BadConfig, match="seed must be >= 0"):
        kfold_split(10, 2, seed=-1)
    with pytest.raises(BadConfig, match="seed must be >= 0"):
        group_kfold_split(["A", "A", "B"], 2, seed=-1)


# ---------------------------------------------------------------- CvReport

def test_report_enforces_mean_identity():
    with pytest.raises(InvalidModel):
        CvReport(
            fold_rmse=(1.0, 2.0),
            mean_rmse=1.7,
            std_rmse=0.5,
            k=2,
            seed=0,
            per_sample=(),
        )
    with pytest.raises(BadK):
        CvReport(fold_rmse=(1.0,), mean_rmse=1.0, std_rmse=0.0, k=1,
                 seed=0, per_sample=())


# ----------------------------------------------------------- cross_validate

def test_noiseless_curves_give_vanishing_empirical_error():
    cfg = SynthConfig(n_materials=2, curves_per_material=6, noise_sigma_N=0.0,
                      seed=3)
    curves, truth = _synth_uniform(cfg)
    stars = [rec.v_i_mm for rec in truth.records]
    spec = PipelineSpec(EmpiricalKind(mode=MODE_INSTABILITY_FORCE,
                                      marker_strategy=MARKER_FIXED_V))
    report = cross_validate(curves, spec, k=3, seed=0, v_star=stars)
    assert report.mean_rmse < 1e-6


def test_constant_target_is_reproduced_by_linear_pipeline():
    curves = _random_labeled_curves(18, seed=7, rm=600.0)
    report = cross_validate(curves, PipelineSpec(PcaLmKind()), k=3, seed=1)
    assert report.mean_rmse < 1e-8


def test_report_statistics_recompute():
    curves = _random_labeled_curves(15, seed=8)
    report = cross_validate(curves, PipelineSpec(PcaLmKind()), k=3, seed=2)
    arr = np.asarray(report.fold_rmse)
    assert report.mean_rmse == float(np.mean(arr))
    assert report.std_rmse == pytest.approx(float(np.std(arr, ddof=1)), rel=1e-15)
    assert report.k == 3 and report.seed == 2


def test_per_sample_covers_every_row_once():
    curves = _random_labeled_curves(14, seed=9)
    report = cross_validate(curves, PipelineSpec(PcaLmKind()), k=4, seed=3)
    rows = sorted(r for r, _, _ in report.per_sample)
    assert rows == list(range(14))
    for row, truth, _ in report.per_sample:
        assert truth == curves[row].meta.rm_MPa


def test_held_out_rows_are_not_memorized():
    # a single unpruned tree memorizes its training rows exactly; held-out
    # error can only be zero if test rows leak into the fit
    curves = _random_labeled_curves(16, seed=10)
    kind = ForestKind(config=ForestConfig(n_trees=1, bootstrap=False,
                                          min_leaf=1, mtry=152, seed=0))
    report = cross_validate(curves, PipelineSpec(kind), k=4, seed=4)
    assert report.mean_rmse > 1.0


def test_each_fold_fits_its_own_pca():
    cfg = SynthConfig(n_materials=4, curves_per_material=4, noise_sigma_N=5.0,
                      seed=11)
    curves, _ = _synth_uniform(cfg)
    spec = PipelineSpec(PcaLmKind())
    report = cross_validate(curves, spec, k=4, seed=5, collect_models=True)
    m0, m1 = report.fold_models[0], report.fold_models[1]
    assert not np.array_equal(m0.pca.mean, m1.pca.mean)


def test_stratified_cv_runs_and_differs_from_plain():
    cfg = SynthConfig(n_materials=4, curves_per_material=5, noise_sigma_N=5.0,
                      seed=4)
    curves, _ = _synth_uniform(cfg)
    spec = PipelineSpec(PcaLmKind())
    plain = cross_validate(curves, spec, k=4, seed=6)
    grouped = cross_validate(curves, spec, k=4, seed=6, stratify_material=True)
    assert np.isfinite(grouped.mean_rmse)
    assert grouped.fold_rmse != plain.fold_rmse


def test_fold_errors_carry_the_fold_index():
    curves = _random_labeled_curves(8, seed=12)
    zero = make_uniform(np.zeros(151), meta=make_meta(rm=500.0))
    curves.append(zero)
    spec = PipelineSpec(EmpiricalKind())
    with pytest.raises(SmallPunchError, match=r"fold \d+:"):
        cross_validate(curves, spec, k=3, seed=7)


def test_unlabeled_curves_are_rejected():
    curves = _random_labeled_curves(6, seed=13)
    curves.append(make_uniform(np.ones(151), meta=make_meta()))
    with pytest.raises(PartialTargets):
        cross_validate(curves, PipelineSpec(PcaLmKind()), k=3, seed=0)


def test_v_star_sequence_must_match_length():
    cfg = SynthConfig(n_materials=2, curves_per_material=3, seed=5)
    curves, _ = _synth_uniform(cfg)
    spec = PipelineSpec(EmpiricalKind(marker_strategy=MARKER_FIXED_V))
    with pytest.raises(LengthMismatch):
        cross_validate(curves, spec, k=2, seed=0, v_star=[0.5, 0.5])
