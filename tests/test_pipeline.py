"""Pipeline wiring: family dispatch, preprocessing, grid contracts."""

import numpy as np
import pytest

from smallpunch.curves import GridSpec, MARKER_FIXED_V, resample
from smallpunch.errors import (
    BadConfig,
    EmptyTraining,
    GridMismatch,
    LengthMismatch,
)
from smallpunch.forest import ForestConfig, ForestModel
from smallpunch.pipeline import (
    EmpiricalKind,
    ForestKind,
    PcaLmKind,
    PipelineSpec,
    fit_pipeline,
    predict_pipeline,
)
from smallpunch.regress import EmpiricalModel, LinearModel
from smallpunch.synth import SynthConfig, generate

from conftest import make_meta, make_uniform


@pytest.fixture(scope="module")
def dataset():
    raw, truth = generate(SynthConfig(n_materials=3, curves_per_material=6,
                                      noise_sigma_N=4.0, seed=60))
    grid = GridSpec()
    curves = [resample(c, grid) for c in raw]
    stars = [r.v_i_mm for r in truth.records]
    return curves, stars


def test_spec_names():
    assert PipelineSpec(EmpiricalKind()).name == "empirical"
    assert PipelineSpec(PcaLmKind()).name == "pca-lm"
    assert PipelineSpec(ForestKind()).name == "rf"


def test_empirical_pipeline_trains_and_predicts(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(EmpiricalKind()))
    assert isinstance(trained.model, EmpiricalModel)
    assert trained.standardizer is None and trained.pca is None
    preds = predict_pipeline(trained, curves)
    assert preds.shape == (len(curves),)
    assert np.all(np.isfinite(preds)) and np.all(preds > 0.0)


def test_pca_lm_pipeline_components(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(PcaLmKind()))
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
        PipelineSpec(ForestKind(config=ForestConfig(n_trees=10, seed=1))),
    )
    assert isinstance(raw.model, ForestModel)
    assert raw.pca is None
    assert raw.model.n_features == 152

    scores = fit_pipeline(
        curves,
        PipelineSpec(ForestKind(config=ForestConfig(n_trees=10, seed=1),
                                input="scores")),
    )
    assert scores.pca is not None
    assert scores.model.n_features == scores.pca.n_components
    assert not np.array_equal(predict_pipeline(raw, curves),
                              predict_pipeline(scores, curves))


def test_no_standardize_flag_is_honored(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(PcaLmKind(), standardize=False))
    assert trained.standardizer is None
    assert trained.pca is not None


def test_fixed_v_scalar_broadcasts_and_sequence_must_match(dataset):
    curves, stars = dataset
    spec = PipelineSpec(EmpiricalKind(marker_strategy=MARKER_FIXED_V))
    scalar = fit_pipeline(curves, spec, v_star=0.5)
    assert isinstance(scalar.model, EmpiricalModel)
    per_curve = fit_pipeline(curves, spec, v_star=stars)
    assert per_curve.model.beta != scalar.model.beta
    with pytest.raises(LengthMismatch):
        fit_pipeline(curves, spec, v_star=stars[:-1])
    with pytest.raises(BadConfig):
        fit_pipeline(curves, spec)


def test_unlabeled_training_set_is_rejected():
    curves = [
        make_uniform(np.arange(151.0) * (i + 1.0), meta=make_meta())
        for i in range(3)
    ]
    with pytest.raises(EmptyTraining):
        fit_pipeline(curves, PipelineSpec(EmpiricalKind()))


def test_predicting_on_a_different_grid_is_refused(dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(EmpiricalKind()))
    other = make_uniform(np.arange(100.0), grid=GridSpec(n_points=100),
                         meta=make_meta(rm=500.0))
    with pytest.raises(GridMismatch, match="curve 0"):
        predict_pipeline(trained, [other])


def test_kind_validation():
    with pytest.raises(BadConfig):
        EmpiricalKind(mode="nope")
    with pytest.raises(BadConfig):
        EmpiricalKind(marker_strategy="nope")
    with pytest.raises(BadConfig):
        PcaLmKind(variance_threshold=0.0)
    with pytest.raises(BadConfig):
        ForestKind(input="pca")
    with pytest.raises(BadConfig):
        ForestKind(variance_threshold=2.0)


def test_refit_is_deterministic(dataset):
    curves, _ = dataset
    spec = PipelineSpec(ForestKind(config=ForestConfig(n_trees=12, seed=5)))
    a = predict_pipeline(fit_pipeline(curves, spec), curves)
    b = predict_pipeline(fit_pipeline(curves, spec), curves)
    assert np.array_equal(a, b)
