"""Feature assembly and standardization."""

import numpy as np
import pytest

from smallpunch.errors import (
    EmptyInput,
    EmptyTraining,
    MixedGrids,
    NonFiniteValue,
    PartialTargets,
    ShapeMismatch,
    TooFewRows,
)
from smallpunch.curves import GridSpec
from smallpunch.evaluation import rmse
from smallpunch.features import (
    _MAX_TARGET_MASS,
    apply_standardizer,
    assemble,
    column_labels,
    fit_standardizer,
    strengths,
)
from smallpunch.forest import ForestConfig, fit_forest, predict_forest
from smallpunch.regress import fit_beta, fit_ols, predict_linear

from conftest import make_meta, make_uniform


def _matrix(values):
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------- assemble

def test_assemble_shape_and_labels(default_grid):
    rng = np.random.default_rng(0)
    curves = [
        make_uniform(rng.uniform(0, 100, 76), grid=default_grid,
                     meta=make_meta(temperature=float(t)))
        for t in (20.0, 150.0)
    ]
    matrix = assemble(curves)
    labels = column_labels(default_grid)
    assert matrix.shape == (2, 77) and len(labels) == 77
    assert labels[0] == "F@0.000mm"
    assert labels[75] == "F@1.500mm"
    assert labels[-1] == "temperature_C"
    assert np.array_equal(matrix[:, -1], [20.0, 150.0])


def test_assemble_temperature_span_matches_test_campaign(default_grid):
    # 23 tests spanning -177 to +331 C, like a ferritic-martensitic campaign
    temps = np.linspace(-177.0, 331.0, 23)
    rng = np.random.default_rng(1)
    curves = [
        make_uniform(rng.uniform(0, 100, 76), grid=default_grid,
                     meta=make_meta(material="P91", temperature=float(t)))
        for t in temps
    ]
    matrix = assemble(curves)
    col = matrix[:, -1]
    assert matrix.shape == (23, 77)
    assert col.min() == -177.0
    assert col.max() == 331.0


def test_strengths_reads_every_label_in_order(default_grid):
    curves = [
        make_uniform(np.arange(76.0), grid=default_grid, meta=make_meta(rm=500.0 + i))
        for i in range(3)
    ]
    assert np.array_equal(strengths(curves), [500.0, 501.0, 502.0])


def test_strengths_rejects_partial_targets(default_grid):
    curves = [
        make_uniform(np.arange(76.0), grid=default_grid, meta=make_meta(rm=500.0)),
        make_uniform(np.arange(76.0), grid=default_grid, meta=make_meta()),
    ]
    with pytest.raises(PartialTargets):
        strengths(curves)
    # assembling the matrix reads no labels
    assert assemble(curves).shape == (2, 77)


def test_strengths_rejects_unlabelled_curves(default_grid):
    curves = [make_uniform(np.arange(76.0), grid=default_grid, meta=make_meta())]
    with pytest.raises(EmptyTraining):
        strengths(curves)
    with pytest.raises(EmptyTraining):
        strengths([])


def test_assemble_rejects_mixed_grids():
    a = make_uniform(np.arange(76.0), grid=GridSpec())
    b = make_uniform(np.arange(100.0), grid=GridSpec(n_points=100))
    with pytest.raises(MixedGrids) as err:
        assemble([a, b])
    assert str(err.value) == f"curve 1: grid {b.grid} differs from {a.grid}"
    # a grid given is the one every curve must lie on, curve 0 too
    with pytest.raises(MixedGrids) as err:
        assemble([b, a], a.grid)
    assert str(err.value) == f"curve 0: grid {b.grid} differs from {a.grid}"


def test_assemble_rejects_empty():
    with pytest.raises(EmptyInput):
        assemble([])


def test_assemble_preserves_row_order(default_grid):
    rng = np.random.default_rng(2)
    forces = [rng.uniform(0, 10, 76) for _ in range(4)]
    curves = [make_uniform(f, grid=default_grid) for f in forces]
    matrix = assemble(curves)
    for i, f in enumerate(forces):
        assert np.array_equal(matrix[i, :76], f)


# ----------------------------------------------------------- standardizer

def test_standardizer_means_and_sample_std():
    m = _matrix([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    std = fit_standardizer(m)
    assert np.array_equal(std.means, [2.0, 5.0])
    assert std.scales[0] == pytest.approx(1.0, abs=1e-15)  # ddof=1 on [1,2,3]
    assert std.scales[1] == 1.0  # zero-variance column keeps scale 1


def test_standardized_columns_have_zero_mean_unit_std():
    rng = np.random.default_rng(5)
    m = _matrix(rng.normal(50.0, 7.0, size=(40, 6)))
    z = apply_standardizer(fit_standardizer(m), m)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_constant_column_maps_to_zero():
    m = _matrix([[1.0, 9.0], [2.0, 9.0], [4.0, 9.0]])
    z = apply_standardizer(fit_standardizer(m), m)
    assert np.all(z[:, 1] == 0.0)


def test_standardizer_round_trip():
    rng = np.random.default_rng(6)
    m = _matrix(rng.normal(0.0, 120.0, size=(10, 4)))
    std = fit_standardizer(m)
    z = apply_standardizer(std, m)
    back = z * std.scales + std.means
    assert np.allclose(back, m, atol=1e-12 * np.abs(m).max())


def test_standardizer_needs_two_rows():
    with pytest.raises(TooFewRows):
        fit_standardizer(_matrix([[1.0, 2.0]]))


def test_apply_rejects_width_mismatch():
    std = fit_standardizer(_matrix([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ShapeMismatch):
        apply_standardizer(std, _matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


def test_feature_matrix_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        fit_standardizer(_matrix([[1.0, np.inf], [2.0, 3.0]]))
    std = fit_standardizer(_matrix([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(NonFiniteValue):
        apply_standardizer(std, _matrix([[1.0, np.nan]]))
    with pytest.raises(ShapeMismatch):
        apply_standardizer(std, np.array([1.0, 2.0]))


@pytest.mark.parametrize("column,message", [
    # the sum overflows: the mean is inf, and so is the deviation from it
    ([1.7e308, 1.75e308] * 3, "mean inf, scale inf"),
    # the mean is finite, the squared deviations overflow
    ([1e300, -1e300] * 3, "mean 0.0, scale inf"),
], ids=["sum", "squares"])
def test_standardizer_refuses_finite_columns_that_overflow_naming_the_first(column, message):
    # an overflow warning fails the suite, so none may be raised
    m = np.ones((6, 4))
    m[:, 2] = column
    m[:, 3] = column
    with pytest.raises(NonFiniteValue, match=r"^column 2 too large to standardize without "
                       f"overflow: {message}$"):
        fit_standardizer(m)


# ------------------------------------------------------------ target size

# every fit that takes targets, with the prediction of its training rows;
# the design is one positive column, the row number plus one
_FITS = {
    "ols": lambda x, y: predict_linear(fit_ols(x, y), x),
    "beta": lambda x, y: fit_beta(x[:, 0], y).beta * x[:, 0],
    "forest": lambda x, y: predict_forest(fit_forest(x, y, ForestConfig(min_leaf=1)), x),
}


@pytest.mark.parametrize("fit", _FITS.values(), ids=_FITS.keys())
def test_fits_refuse_targets_whose_sums_would_overflow(fit):
    y = np.linspace(1e200, 1.7e200, 8)
    with pytest.raises(NonFiniteValue, match=r"^targets too large to fit without overflow: "
                       r"8 targets up to 1\.7e\+200 in magnitude, where n \* max\|y\| may be "
                       r"at most 1e\+150$"):
        fit(np.arange(1.0, 9.0)[:, None], y)


@pytest.mark.parametrize("fit", _FITS.values(), ids=_FITS.keys())
@pytest.mark.parametrize("y, error, message", [
    (np.ones((8, 1)), ShapeMismatch, "targets must be one-dimensional"),
    (np.r_[np.ones(7), np.nan], NonFiniteValue, "targets contain non-finite values"),
], ids=["2d", "nan"])
def test_fits_refuse_targets_that_are_not_a_finite_vector(fit, y, error, message):
    with pytest.raises(error) as err:
        fit(np.arange(1.0, 9.0)[:, None], y)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("fit", _FITS.values(), ids=_FITS.keys())
def test_fits_take_targets_at_the_bound_without_overflow(fit):
    # n * max|y| is the bound exactly; an overflow warning fails the suite
    y = np.linspace(0.2, 1.0, 8) * (_MAX_TARGET_MASS / 8)
    assert y.size * np.max(y) == _MAX_TARGET_MASS
    predictions = fit(np.arange(1.0, 9.0)[:, None], y)
    assert np.all(np.isfinite(predictions)) and np.isfinite(rmse(predictions, y))
