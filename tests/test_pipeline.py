"""Pipeline wiring: family dispatch, preprocessing, grid contracts."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from smallpunch.cli import _kind_from_args, build_parser
from smallpunch.curves import GridSpec, MARKER_FIXED_V, resample
from smallpunch.errors import (
    BadConfig,
    EmptyTraining,
    InvalidMarkers,
    InvalidModel,
    MixedGrids,
)
from smallpunch.forest import ForestConfig, ForestModel
from smallpunch import pipeline
from smallpunch.pipeline import (
    EmpiricalKind,
    ForestKind,
    PcaLmKind,
    TrainedPipeline,
    fit_pipeline,
    predict_pipeline,
)
from smallpunch.regress import EmpiricalModel, LinearModel
from smallpunch.synth import SynthConfig, generate

from conftest import make_meta, make_uniform, with_v_i


@pytest.fixture(scope="module")
def dataset():
    raw, truth = generate(SynthConfig(n_materials=3, curves_per_material=6,
                                      noise_sigma_N=4.0, seed=60))
    grid = GridSpec()
    curves = [resample(c, grid) for c in raw]
    stars = [r.v_i_mm for r in truth]
    return curves, stars


def test_spec_names():
    assert EmpiricalKind().name == "empirical"
    assert PcaLmKind().name == "pca-lm"
    assert ForestKind().name == "rf"


@pytest.mark.parametrize("flags,kind", [
    (("--pipeline", "empirical", "--marker", "fixed-v"),
     EmpiricalKind(mode="instability-force", marker_strategy=MARKER_FIXED_V)),
    (("--pipeline", "empirical", "--marker", "fixed-v", "--v-star", "0.5"),
     EmpiricalKind(marker_strategy=MARKER_FIXED_V, v_star=0.5)),
    (("--pipeline", "empirical", "--mode", "max-force", "--marker", "max-slope"),
     EmpiricalKind(mode="max-force")),
    (("--pipeline", "pca-lm", "--variance-threshold", "0.9"), PcaLmKind(variance_threshold=0.9)),
    (("--pipeline", "rf", "--trees", "7", "--max-depth", "4", "--min-leaf", "3", "--mtry", "5",
      "--seed", "2", "--rf-input", "scores", "--variance-threshold", "0.9"),
     ForestKind(config=ForestConfig(n_trees=7, max_depth=4, min_leaf=3, mtry=5, seed=2),
                input="scores", variance_threshold=0.9)),
], ids=["empirical-fixed-v", "empirical-fixed-v-star", "empirical-max-force", "pca-lm", "rf"])
def test_each_kind_builds_itself_from_the_flags(flags, kind):
    # the command line fills each field from the flag of its name
    args = build_parser().parse_args(["train", "m.csv", *flags, "--out", "m.json"])
    assert _kind_from_args(args) == kind


@pytest.mark.parametrize("kind", [EmpiricalKind(), PcaLmKind(), ForestKind()],
                         ids=lambda kind: kind.name)
def test_with_no_family_flag_each_kind_takes_its_dataclass_defaults(kind):
    args = build_parser().parse_args(["cv", "m.csv", "--pipeline", kind.name, "--out", "o"])
    assert _kind_from_args(args) == kind


@pytest.mark.parametrize("kind", [EmpiricalKind(), PcaLmKind()])
def test_only_the_forest_reports_diagnostics(dataset, kind):
    curves, _ = dataset
    assert kind.diagnostics(fit_pipeline(curves, kind)) == []


def test_empirical_pipeline_trains_and_predicts(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, EmpiricalKind())
    assert isinstance(trained.model, EmpiricalModel)
    assert trained.standardizer is None and trained.pca is None
    preds = predict_pipeline(trained, curves)
    assert preds.shape == (len(curves),)
    assert np.all(np.isfinite(preds)) and np.all(preds > 0.0)


def test_pca_lm_pipeline_components(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PcaLmKind())
    assert isinstance(trained.model, LinearModel)
    assert trained.standardizer is not None and trained.pca is not None
    assert trained.model.coefficients.size == trained.pca.n_components
    assert float(np.sum(trained.pca.explained_ratio)) >= 0.99
    preds = predict_pipeline(trained, curves)
    truths = np.array([c.meta.rm_MPa for c in curves])
    # near-linear synthetic data: the linear pipeline fits it tightly
    assert np.sqrt(np.mean((preds - truths) ** 2)) < 30.0


def test_forest_pipeline_on_raw_and_scores(dataset):
    curves, _ = dataset
    raw = fit_pipeline(
        curves,
        ForestKind(config=ForestConfig(n_trees=10, seed=1)),
    )
    assert isinstance(raw.model, ForestModel)
    assert raw.pca is None
    assert raw.model.n_features == raw.grid.n_points + 1 == 77

    scores = fit_pipeline(
        curves,
        ForestKind(config=ForestConfig(n_trees=10, seed=1), input="scores"),
    )
    assert scores.pca is not None
    assert scores.model.n_features == scores.pca.n_components
    assert not np.array_equal(predict_pipeline(raw, curves),
                              predict_pipeline(scores, curves))


@pytest.mark.parametrize("kind", [PcaLmKind(), ForestKind(config=ForestConfig(n_trees=2)),
                                  ForestKind(config=ForestConfig(n_trees=2), input="scores")],
                         ids=["pca-lm", "rf", "rf-scores"])
def test_every_feature_family_standardizes(dataset, kind):
    curves, _ = dataset
    trained = fit_pipeline(curves, kind)
    assert trained.standardizer is not None
    assert trained.standardizer.means.size == curves[0].grid.n_points + 1
    # the kind is the whole spec, and none holds a switch that turns standardizing off
    assert [f.name for f in fields(TrainedPipeline)] == ["kind", "grid", "standardizer", "pca",
                                                         "model"]
    assert all("standardize" not in f.name for f in fields(kind))


def test_fixed_v_reads_the_kinds_v_star_else_each_curves_own(dataset):
    curves, stars = dataset
    kind = EmpiricalKind(marker_strategy=MARKER_FIXED_V)
    shared = fit_pipeline(curves, replace(kind, v_star=0.5))
    assert isinstance(shared.model, EmpiricalModel)
    carried = with_v_i(curves, stars)
    per_curve = fit_pipeline(carried, kind)
    assert per_curve.model.beta != shared.model.beta
    # a shared v_star wins over the curves' own, in fitting and predicting
    assert fit_pipeline(carried, replace(kind, v_star=0.5)) == shared
    assert (predict_pipeline(shared, carried).tobytes()
            == predict_pipeline(shared, curves).tobytes())
    with pytest.raises(BadConfig, match=r"^curve 0: material M00 has no v_i_mm"):
        fit_pipeline(curves, kind)
    with pytest.raises(BadConfig) as err:
        predict_pipeline(per_curve, carried[:-1] + curves[-1:])
    assert str(err.value) == ("curve 17: material M02 has no v_i_mm for the fixed-v marker, "
                              "whose kind holds no v_star")


@pytest.mark.parametrize("given, message", [
    ({"v_star": 0.5}, "only the fixed-v marker reads a v_star, got marker strategy 'max-slope'"),
    ({"marker_strategy": "fixed-v", "v_star": 0.0}, "v_star must be finite and > 0, got 0.0"),
    ({"marker_strategy": "fixed-v", "v_star": -1.0}, "v_star must be finite and > 0, got -1.0"),
    ({"marker_strategy": "fixed-v", "v_star": float("inf")},
     "v_star must be finite and > 0, got inf"),
    ({"marker_strategy": "fixed-v", "v_star": float("nan")},
     "v_star must be finite and > 0, got nan"),
], ids=["max-slope", "zero", "negative", "inf", "nan"])
def test_the_empirical_kind_refuses_a_v_star_it_cannot_read(given, message):
    with pytest.raises(BadConfig) as err:
        EmpiricalKind(**given)
    assert str(err.value) == message


def test_max_force_reads_no_instability_point():
    # the steepest rise comes after the force maximum, so max-slope's v_i
    # exceeds v_m; max-force reads F_m and v_m alone and fits anyway
    grid = GridSpec(spacing_mm=0.01, n_points=60)
    shape = np.concatenate([np.linspace(0.0, 100.0, 21), np.linspace(90.0, 10.0, 9),
                            np.linspace(20.0, 95.0, 6), np.full(24, 95.0)])
    curves = [make_uniform(scale * shape, grid, make_meta(rm=rm))
              for scale, rm in ((1.0, 500.0), (1.2, 610.0), (0.9, 440.0))]
    trained = fit_pipeline(curves, EmpiricalKind(mode="max-force"))
    f_m = np.array([100.0, 120.0, 90.0])
    want = trained.model.beta * f_m / (0.5 * 0.2)
    assert np.allclose(predict_pipeline(trained, curves), want, rtol=1e-12, atol=0.0)
    with pytest.raises(InvalidMarkers, match="v_i <= v_m"):
        fit_pipeline(curves, EmpiricalKind())


def test_unlabeled_training_set_is_rejected():
    curves = [
        make_uniform(np.arange(151.0) * (i + 1.0), meta=make_meta())
        for i in range(3)
    ]
    with pytest.raises(EmptyTraining):
        fit_pipeline(curves, EmpiricalKind())


def test_predicting_on_a_different_grid_is_refused(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, EmpiricalKind())
    other = make_uniform(np.arange(100.0), grid=GridSpec(n_points=100),
                         meta=make_meta(rm=500.0))
    with pytest.raises(MixedGrids) as err:
        predict_pipeline(trained, [other])
    assert str(err.value) == f"curve 0: grid {other.grid} differs from {trained.grid}"


def test_predicting_on_mixed_grids_is_refused_before_the_model_grid_is_compared(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, EmpiricalKind())
    other = make_uniform(np.arange(100.0), grid=GridSpec(n_points=100),
                         meta=make_meta(rm=500.0))
    with pytest.raises(MixedGrids, match="curve 1"):
        predict_pipeline(trained, [curves[0], other])


def test_kind_validation():
    with pytest.raises(BadConfig):
        EmpiricalKind(mode="nope")
    with pytest.raises(BadConfig):
        EmpiricalKind(marker_strategy="nope")
    # max-force reads no instability marker, so it takes none but max-slope
    with pytest.raises(BadConfig, match="max-force mode reads no instability marker"):
        EmpiricalKind(mode="max-force", marker_strategy=MARKER_FIXED_V)
    with pytest.raises(BadConfig):
        PcaLmKind(variance_threshold=0.0)
    with pytest.raises(BadConfig):
        ForestKind(input="pca")
    with pytest.raises(BadConfig):
        ForestKind(variance_threshold=2.0)


def test_refit_is_deterministic(dataset):
    curves, _ = dataset
    kind = ForestKind(config=ForestConfig(n_trees=12, seed=5))
    a = predict_pipeline(fit_pipeline(curves, kind), curves)
    b = predict_pipeline(fit_pipeline(curves, kind), curves)
    assert np.array_equal(a, b)


_FEATURE_KINDS = {"pca-lm": PcaLmKind(), "rf": ForestKind(config=ForestConfig(n_trees=3, seed=2)),
                  "rf-scores": ForestKind(config=ForestConfig(n_trees=3, seed=2), input="scores")}


@pytest.mark.parametrize("name", list(_FEATURE_KINDS))
def test_predicting_fits_nothing(dataset, monkeypatch, name):
    curves, _ = dataset
    trained = fit_pipeline(curves, _FEATURE_KINDS[name])
    want = predict_pipeline(trained, curves)

    def refuse(*args):
        raise AssertionError("predict_pipeline fitted a block")

    monkeypatch.setattr(pipeline, "fit_standardizer", refuse)
    monkeypatch.setattr(pipeline, "fit_pca", refuse)
    assert predict_pipeline(trained, curves).tobytes() == want.tobytes()


def test_a_trained_pipeline_refuses_blocks_its_family_does_not_hold(dataset):
    curves, _ = dataset
    fitted = {name: fit_pipeline(curves, kind)
              for name, kind in (("empirical", EmpiricalKind()), *_FEATURE_KINDS.items())}
    lin, raw, scores = fitted["pca-lm"], fitted["rf"], fitted["rf-scores"]
    cases = [
        (lambda: replace(raw, model=lin.model),
         "rf model must be of type ForestModel, got LinearModel"),
        (lambda: replace(fitted["empirical"], model=lin.model),
         "empirical model must be of type EmpiricalModel, got LinearModel"),
        (lambda: replace(lin, pca=None), "pca-lm model file lacks the PCA block"),
        (lambda: replace(raw, pca=scores.pca), "rf model file holds a stray PCA block"),
        (lambda: replace(fitted["empirical"], standardizer=lin.standardizer),
         "empirical model file holds a stray standardizer block"),
        (lambda: replace(scores, standardizer=None), "rf model file lacks the standardizer block"),
        # the settings name the tree count: 3 trees of this forest are not 4
        (lambda: replace(raw, kind=ForestKind(config=ForestConfig(n_trees=4))),
         f"{raw.model.count.size} nodes with {raw.model.feature.size} splits "
         "do not make 4 trees"),
        (lambda: replace(lin, model=LinearModel(0.0, np.ones(lin.pca.n_components + 1))),
         f"model block reads {lin.pca.n_components + 1} columns, "
         f"expected {lin.pca.n_components}"),
        (lambda: replace(raw, grid=GridSpec(n_points=75)),
         "standardizer block reads 77 columns, expected 76"),
    ]
    for build, message in cases:
        with pytest.raises(InvalidModel, match=re.escape(message) + "$"):
            build()
