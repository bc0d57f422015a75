"""PCA: exact small cases, covariance oracle, invariants."""

import numpy as np
import pytest

from smallpunch.errors import (
    BadConfig,
    DegenerateData,
    NonFiniteValue,
    ShapeMismatch,
    TooFewRows,
)
from smallpunch.pca import PcaModel, fit_pca, transform


def _rank1_data():
    # rows t * (1, 2, 2) for t = 0..3; variance lives on one direction
    t = np.arange(4.0)
    return np.outer(t, np.array([1.0, 2.0, 2.0]))


def test_rank_one_data_keeps_one_component():
    model = fit_pca(_rank1_data(), threshold=0.99)
    assert model.n_components == 1
    assert model.explained_ratio[0] == pytest.approx(1.0, abs=1e-12)
    # unit direction of (1, 2, 2), sign fixed positive
    assert np.allclose(model.loadings[:, 0], np.array([1.0, 2.0, 2.0]) / 3.0,
                       atol=1e-12)


def test_rank_one_scores_are_projections():
    data = _rank1_data()
    model = fit_pca(data, threshold=0.99)
    scores = transform(model, data)
    # centered rows are (t - 1.5) * (1,2,2); projection onto unit dir is
    # (t - 1.5) * 3
    expected = (np.arange(4.0) - 1.5) * 3.0
    assert np.allclose(scores[:, 0], expected, atol=1e-12)


def test_rank_one_eigenvalue_matches_hand_value():
    # scores (t - 1.5) * 3 have sample variance 15
    model = fit_pca(_rank1_data(), threshold=0.99)
    assert model.eigenvalues[0] == pytest.approx(15.0, rel=1e-12)
    assert model.total_variance == pytest.approx(15.0, rel=1e-12)


def _two_axis_data():
    # covariance diag(8/3, 2/3); ratios 0.8 and 0.2
    return np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def test_component_count_grows_with_threshold():
    data = _two_axis_data()
    assert fit_pca(data, threshold=0.5).n_components == 1
    assert fit_pca(data, threshold=0.8).n_components == 1
    assert fit_pca(data, threshold=0.81).n_components == 2
    assert fit_pca(data, threshold=1.0).n_components == 2


def test_two_axis_eigenvalues_and_loadings():
    model = fit_pca(_two_axis_data(), threshold=1.0)
    assert np.allclose(model.eigenvalues, [8.0 / 3.0, 2.0 / 3.0], rtol=1e-12)
    assert np.allclose(model.explained_ratio, [0.8, 0.2], atol=1e-12)
    assert np.allclose(np.abs(model.loadings), np.eye(2), atol=1e-12)
    assert model.loadings[0, 0] > 0.0 and model.loadings[1, 1] > 0.0


@pytest.mark.parametrize("threshold,k", [(0.9, 2), (1.0, 4)])
def test_explained_ratio_has_the_bits_the_component_count_was_chosen_by(threshold, k):
    # the record derives the ratios from what it stores; they must be the
    # very fractions fit_pca compared with the threshold
    data = np.random.default_rng(42).normal(size=(10, 4)) * np.array([3.0, 1.0, 0.5, 0.2])
    model = fit_pca(data, threshold=threshold)
    _, singular, _ = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    eig = singular * singular / 9
    assert model.n_components == k
    assert model.explained_ratio.tobytes() == (eig / eig.sum())[:k].tobytes()


def test_eigenvalues_match_covariance_oracle():
    rng = np.random.default_rng(42)
    data = rng.normal(size=(10, 4)) * np.array([3.0, 1.0, 0.5, 0.2])
    model = fit_pca(data, threshold=1.0)
    oracle = np.linalg.eigvalsh(np.cov(data, rowvar=False, ddof=1))[::-1]
    assert np.allclose(model.eigenvalues, oracle, rtol=1e-8)


def test_loadings_diagonalize_sample_covariance():
    rng = np.random.default_rng(43)
    data = rng.normal(size=(12, 5))
    model = fit_pca(data, threshold=1.0)
    cov = np.cov(data, rowvar=False, ddof=1)
    projected = model.loadings.T @ cov @ model.loadings
    assert np.allclose(projected, np.diag(model.eigenvalues), atol=1e-10)


def test_loadings_are_orthonormal():
    rng = np.random.default_rng(44)
    data = rng.normal(size=(30, 8))
    model = fit_pca(data, threshold=0.99)
    gram = model.loadings.T @ model.loadings
    assert np.max(np.abs(gram - np.eye(model.n_components))) <= 1e-10


def test_total_variance_equals_sum_of_column_variances():
    rng = np.random.default_rng(45)
    data = rng.normal(size=(25, 6)) * np.arange(1, 7)
    model = fit_pca(data, threshold=0.99)
    per_column = np.var(data, axis=0, ddof=1).sum()
    assert abs(model.total_variance - per_column) <= 1e-10 * per_column


def test_scores_are_uncorrelated():
    rng = np.random.default_rng(46)
    data = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
    model = fit_pca(data, threshold=1.0)
    scores = transform(model, data)
    corr = np.corrcoef(scores, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 1e-8


def test_refit_is_bitwise_identical():
    rng = np.random.default_rng(47)
    data = rng.normal(size=(20, 7))
    a = fit_pca(data, threshold=0.95)
    b = fit_pca(data, threshold=0.95)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.loadings, b.loadings)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def _direct_svd_fit(data):
    """Eigenvalues and sign-fixed loadings, all kept, from np.linalg.svd of X_c itself."""
    _, svals, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    loadings = vt.T.copy()
    for j in range(loadings.shape[1]):
        col = loadings[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            loadings[:, j] = -col
    return svals * svals / (data.shape[0] - 1), loadings


def _tall_shapes():
    """n = floor(11p/6) - 1, floor(11p/6) and floor(11p/6) + 1 for several p, and 600 x 152."""
    for p in (1, 2, 5, 6, 10, 31, 64, 152):
        for n in (11 * p // 6 - 1, 11 * p // 6, 11 * p // 6 + 1):
            if n >= 2:
                yield n, p
    yield 600, 152


@pytest.mark.parametrize("n, p", list(_tall_shapes()))
def test_fit_keeps_the_bits_of_the_direct_svd_on_both_sides_of_the_qr_threshold(n, p):
    rng = np.random.default_rng(1000 * n + p)
    # columns of unequal scale and a shared trend, as resampled forces have
    data = (rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
            + np.outer(rng.normal(size=n), np.linspace(1.0, 3.0, p)))
    for scale in (1.0, 2.0**-470, 2.0**470):  # the last two are rescaled inside dgesdd
        x = data * scale
        eig, loadings = _direct_svd_fit(x)
        model = fit_pca(x, threshold=1.0)
        k = model.n_components
        assert model.eigenvalues.tobytes() == eig[:k].tobytes(), scale
        assert model.loadings.tobytes() == loadings[:, :k].tobytes(), scale


def test_only_a_tall_matrix_of_moderate_magnitude_is_factored_first(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def spy(a, mode="reduced"):
        calls.append(a.shape)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", spy)
    rng = np.random.default_rng(5)
    for p in (5, 31, 152):
        threshold = 11 * p // 6
        fit_pca(rng.normal(size=(threshold - 1, p)), threshold=1.0)
        fit_pca(rng.normal(size=(threshold - 1, p)) * 2.0**470, threshold=1.0)
        fit_pca(rng.normal(size=(threshold + 1, p)) * 2.0**470, threshold=1.0)
        assert calls == []
        fit_pca(rng.normal(size=(threshold, p)), threshold=1.0)
        assert calls == [(threshold, p)]
        calls.clear()


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(48)
    data = rng.normal(size=(15, 6))
    model = fit_pca(data, threshold=1.0)
    for j in range(model.n_components):
        col = model.loadings[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_full_rank_reconstruction_round_trip():
    rng = np.random.default_rng(49)
    data = rng.normal(size=(12, 4))
    model = fit_pca(data, threshold=1.0)
    back = transform(model, data) @ model.loadings.T + model.mean
    assert np.allclose(back, data, atol=1e-10)


def test_reconstruction_error_drops_as_k_grows():
    rng = np.random.default_rng(50)
    data = rng.normal(size=(30, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
    errors = []
    for threshold in (0.5, 0.9, 1.0):
        model = fit_pca(data, threshold=threshold)
        back = transform(model, data) @ model.loadings.T + model.mean
        errors.append(float(np.sum((back - data) ** 2)))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] == pytest.approx(0.0, abs=1e-18)


def test_needs_two_rows():
    with pytest.raises(TooFewRows):
        fit_pca(np.array([[1.0, 2.0, 3.0]]))


def test_identical_rows_are_degenerate():
    with pytest.raises(DegenerateData):
        fit_pca(np.tile([1.0, 2.0, 3.0], (5, 1)))


@pytest.mark.parametrize("n, p", [(40, 10), (10, 40)])
def test_data_whose_squared_singular_values_overflow_is_refused_without_a_warning(n, p):
    x = np.random.default_rng(n).normal(size=(n, p)) * 2.0**600
    with pytest.raises(NonFiniteValue) as err:
        fit_pca(x)
    assert str(err.value) == "the squared singular values overflow: total variance inf"


def test_finite_eigenvalues_whose_total_overflows_are_refused_without_a_warning(monkeypatch):
    # three eigenvalues of 1.69e308 each, whose sum no double holds
    def svd(a, full_matrices=True):
        return None, np.full(3, 1.3e154), np.eye(3)

    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(NonFiniteValue) as err:
        fit_pca(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]))
    assert str(err.value) == "the squared singular values overflow: total variance inf"


def test_threshold_must_be_in_unit_interval():
    data = _two_axis_data()
    with pytest.raises(BadConfig):
        fit_pca(data, threshold=0.0)
    with pytest.raises(BadConfig):
        fit_pca(data, threshold=1.2)


def test_transform_rejects_width_mismatch():
    model = fit_pca(_two_axis_data(), threshold=1.0)
    with pytest.raises(ShapeMismatch):
        transform(model, np.zeros((3, 5)))


def test_model_invariants_enforced():
    model = fit_pca(_two_axis_data(), threshold=1.0)
    with pytest.raises(Exception):
        PcaModel(
            mean=model.mean,
            loadings=model.loadings * 2.0,  # not orthonormal
            eigenvalues=model.eigenvalues,
            total_variance=model.total_variance,
        )
