"""Empirical correlations and QR least squares."""

import numpy as np
import pytest

from smallpunch.curves import CurveMarkers
from smallpunch.errors import (
    BadConfig,
    EmptyTraining,
    InvalidModel,
    LengthMismatch,
    NonFiniteValue,
    NonPositiveFeature,
    RankDeficient,
    ShapeMismatch,
    TooFewRows,
    ZeroDenominator,
)
from smallpunch.regress import (
    MODE_INSTABILITY_FORCE,
    MODE_MAX_FORCE,
    EmpiricalModel,
    LinearModel,
    empirical_feature,
    fit_beta,
    fit_ols,
    predict_empirical,
    predict_linear,
)


def _markers(f_max=900.0, v_max=1.2, f_i=889.0, v_i=0.55):
    return CurveMarkers(
        f_max_N=[f_max],
        v_at_fmax_mm=[v_max],
        f_instability_N=[f_i],
        v_instability_mm=[v_i],
    )


# ------------------------------------------------------ empirical features

def test_instability_feature_is_force_over_thickness_squared():
    (x,) = empirical_feature(_markers(), h0_mm=0.5, mode=MODE_INSTABILITY_FORCE)
    assert x == pytest.approx(889.0 / 0.25, rel=1e-15)


def test_max_force_feature_is_force_over_thickness_times_displacement():
    (x,) = empirical_feature(_markers(), h0_mm=0.5, mode=MODE_MAX_FORCE)
    assert x == pytest.approx(900.0 / (0.5 * 1.2), rel=1e-15)


def test_prediction_is_beta_times_feature():
    model = EmpiricalModel(beta=0.3)
    (pred,) = predict_empirical(model, _markers(), h0_mm=0.5, mode=MODE_INSTABILITY_FORCE)
    assert pred == pytest.approx(0.3 * 889.0 / 0.25, rel=1e-15)
    assert pred == pytest.approx(1066.8, rel=1e-12)


def test_zero_thickness_is_rejected():
    with pytest.raises(ZeroDenominator):
        empirical_feature(_markers(), h0_mm=0.0, mode=MODE_INSTABILITY_FORCE)
    with pytest.raises(ZeroDenominator):
        empirical_feature(_markers(), h0_mm=0.0, mode=MODE_MAX_FORCE)


def test_unknown_mode_is_rejected():
    with pytest.raises(BadConfig):
        empirical_feature(_markers(), h0_mm=0.5, mode="nonsense")


def _two_curves(second):
    return CurveMarkers(f_max_N=[900.0, second], v_at_fmax_mm=[1.2, 0.5],
                        f_instability_N=[889.0, second], v_instability_mm=[0.55, 0.5])


@pytest.mark.parametrize("mode, message", [
    (MODE_INSTABILITY_FORCE, "curve 1: regressor 9.1e+307 / 0.25 overflows"),
    (MODE_MAX_FORCE, "curve 1: regressor 9.1e+307 / 0.25 overflows"),
])
def test_a_regressor_that_overflows_is_refused_naming_the_curve(mode, message):
    with np.errstate(all="raise"):
        with pytest.raises(NonFiniteValue) as err:
            empirical_feature(_two_curves(9.1e307), 0.5, mode)
        # a zero denominator of an earlier curve is its first fault
        with pytest.raises(ZeroDenominator):
            empirical_feature(_two_curves(9.1e307), [0.0, 0.5], mode)
    assert str(err.value) == message


def test_a_thickness_whose_square_overflows_is_refused_naming_the_curve():
    # h0^2 = inf made the regressor, and so the strength, 0.0
    with np.errstate(all="raise"):
        with pytest.raises(NonFiniteValue) as err:
            empirical_feature(_two_curves(400.0), [0.5, 1e200], MODE_INSTABILITY_FORCE)
    assert str(err.value) == "curve 1: regressor 400.0 / inf overflows"


def test_a_prediction_that_overflows_is_refused_naming_the_curve():
    markers = _two_curves(4e307)  # a regressor of 1.6e308
    with np.errstate(all="raise"):
        assert predict_empirical(EmpiricalModel(beta=1.0), markers, 0.5,
                                 MODE_INSTABILITY_FORCE).tolist() == [3556.0, 1.6e308]
        with pytest.raises(NonFiniteValue) as err:
            predict_empirical(EmpiricalModel(beta=1.5), markers, 0.5, MODE_INSTABILITY_FORCE)
    assert str(err.value) == "curve 1: prediction 1.5 * 1.6e+308 overflows"


# --------------------------------------------------------------- fit_beta

def test_fit_beta_exact_on_proportional_data():
    x = np.array([1000.0, 2000.0, 3000.0, 3500.0])
    model = fit_beta(x, 0.3 * x)
    assert model.beta == pytest.approx(0.3, rel=1e-15)


def test_fit_beta_matches_closed_form():
    rng = np.random.default_rng(11)
    x = rng.uniform(1000.0, 4000.0, 50)
    y = 0.3 * x + rng.normal(0.0, 20.0, 50)
    model = fit_beta(x, y)
    assert model.beta == pytest.approx(float(np.dot(x, y) / np.dot(x, x)),
                                       rel=1e-15)


def test_fit_beta_recovers_noisy_slope_within_one_percent():
    rng = np.random.default_rng(12)
    x = rng.uniform(1000.0, 4000.0, 200)
    y = 0.3 * x + rng.normal(0.0, 20.0, 200)
    model = fit_beta(x, y)
    assert abs(model.beta - 0.3) / 0.3 < 0.01


def test_fit_beta_agrees_with_grid_search():
    rng = np.random.default_rng(13)
    x = rng.uniform(1000.0, 4000.0, 120)
    y = 0.3 * x + rng.normal(0.0, 15.0, 120)
    model = fit_beta(x, y)
    grid = np.arange(0.27, 0.33 + 1e-12, 1e-4)
    sse = np.array([np.sum((y - b * x) ** 2) for b in grid])
    best = grid[int(np.argmin(sse))]
    assert abs(model.beta - best) <= 1e-4


def test_fit_beta_is_a_local_sse_minimum():
    rng = np.random.default_rng(14)
    x = rng.uniform(500.0, 5000.0, 80)
    y = 0.3 * x + rng.normal(0.0, 30.0, 80)
    beta = fit_beta(x, y).beta

    def sse(b):
        return float(np.sum((y - b * x) ** 2))

    assert sse(beta) <= sse(beta + 1e-6)
    assert sse(beta) <= sse(beta - 1e-6)


def test_fit_beta_rejects_empty_and_non_positive():
    with pytest.raises(EmptyTraining):
        fit_beta(np.array([]), np.array([]))
    with pytest.raises(NonPositiveFeature):
        fit_beta(np.array([100.0, 0.0]), np.array([30.0, 30.0]))
    with pytest.raises(LengthMismatch):
        fit_beta(np.array([100.0, 200.0]), np.array([30.0]))


@pytest.mark.parametrize("fit, x, error, message", [
    (fit_beta, np.ones((2, 1)), ShapeMismatch, "features must be one-dimensional"),
    (fit_beta, np.array([1.0, np.inf]), NonFiniteValue, "features contain non-finite values"),
    (fit_ols, np.ones((3, 1)), LengthMismatch, "3 design rows vs 2 targets"),
], ids=["beta-2d", "beta-inf", "ols-lengths"])
def test_fits_refuse_features_that_do_not_match_the_targets(fit, x, error, message):
    with pytest.raises(error) as err:
        fit(x, np.array([30.0, 40.0]))
    assert type(err.value) is error and str(err.value) == message


def test_empirical_model_validation():
    for beta in (-0.1, 0.0, float("inf"), float("nan")):
        with pytest.raises(InvalidModel):
            EmpiricalModel(beta=beta)
    # the correlation is the kind's, given at prediction
    with pytest.raises(BadConfig):
        predict_empirical(EmpiricalModel(beta=0.3), _markers(), h0_mm=0.5, mode="bogus")


# ----------------------------------------------------------------- fit_ols

def test_ols_recovers_planted_coefficients():
    rng = np.random.default_rng(21)
    design = rng.normal(size=(30, 4))
    truth = np.array([1.5, -3.0, 0.25, 4.0])
    y = 2.5 + design @ truth
    model = fit_ols(design, y)
    assert model.intercept == pytest.approx(2.5, abs=1e-8)
    assert np.allclose(model.coefficients, truth, atol=1e-8)


def test_ols_residuals_orthogonal_to_design():
    rng = np.random.default_rng(22)
    design = rng.normal(size=(40, 3))
    y = 1.0 + design @ np.array([2.0, -1.0, 0.5]) + rng.normal(0.0, 0.3, 40)
    model = fit_ols(design, y)
    residual = y - predict_linear(model, design)
    augmented = np.hstack([np.ones((40, 1)), design])
    assert np.max(np.abs(augmented.T @ residual)) <= 1e-8 * np.abs(y).max()


def test_ols_with_a_hundred_columns_matches_lstsq():
    # back substitution sums each row's dot product in numpy's order
    rng = np.random.default_rng(27)
    design = rng.normal(size=(160, 100))
    y = 3.0 + design @ rng.normal(size=100) + rng.normal(0.0, 0.5, 160)
    model = fit_ols(design, y)
    augmented = np.hstack([np.ones((160, 1)), design])
    want = np.linalg.lstsq(augmented, y, rcond=None)[0]
    assert model.intercept == pytest.approx(want[0], rel=1e-10, abs=1e-10)
    assert np.allclose(model.coefficients, want[1:], rtol=1e-10, atol=1e-10)


def test_ols_with_no_columns_fits_the_mean():
    y = np.array([3.0, 5.0, 10.0, 2.0, 11.5])
    model = fit_ols(np.zeros((5, 0)), y)
    assert model.coefficients.shape == (0,)
    assert model.intercept == pytest.approx(float(np.mean(y)), rel=1e-14)


def test_ols_fitted_values_invariant_to_column_rescaling():
    rng = np.random.default_rng(23)
    design = rng.normal(size=(25, 3))
    y = design @ np.array([1.0, 2.0, 3.0]) + rng.normal(0.0, 0.1, 25)
    base = predict_linear(fit_ols(design, y), design)
    scaled = design * np.array([1000.0, 0.001, 7.0])
    rescaled = predict_linear(fit_ols(scaled, y), scaled)
    assert np.allclose(base, rescaled, atol=1e-8 * np.abs(y).max())


def test_ols_rejects_duplicate_columns():
    rng = np.random.default_rng(24)
    col = rng.normal(size=(10, 1))
    with pytest.raises(RankDeficient):
        fit_ols(np.hstack([col, col]), rng.normal(size=10))


def test_ols_rejects_constant_column():
    # a constant column collides with the implicit intercept
    rng = np.random.default_rng(25)
    design = np.hstack([np.full((10, 1), 4.0), rng.normal(size=(10, 1))])
    with pytest.raises(RankDeficient):
        fit_ols(design, rng.normal(size=10))


def test_ols_needs_more_rows_than_columns():
    rng = np.random.default_rng(26)
    with pytest.raises(TooFewRows):
        fit_ols(rng.normal(size=(3, 3)), np.ones(3))


def test_predict_linear_checks_width():
    model = LinearModel(intercept=1.0, coefficients=np.array([2.0, 3.0]))
    assert np.allclose(predict_linear(model, np.array([[1.0, 1.0]])), [6.0])
    with pytest.raises(Exception):
        predict_linear(model, np.array([[1.0, 1.0, 1.0]]))


def test_predict_linear_rejects_a_non_finite_design():
    model = LinearModel(intercept=1.0, coefficients=np.array([2.0, 3.0]))
    with pytest.raises(NonFiniteValue):
        predict_linear(model, np.array([[1.0, 1.0], [np.nan, 1.0]]))
