"""Principal component analysis via singular value decomposition.

The centered data matrix is decomposed as X_c = U S V^T; eigenvalues of the
sample covariance are the squared singular values over (n - 1), and the
retained loadings are the leading right singular vectors.  The component
count is the smallest k whose cumulative explained-variance ratio reaches
the configured threshold (0.99 by default), so k is data dependent.
fit_pca and transform take a plain float array and check it on entry
with features._matrix_values, transform also for the width the model
needs.

A tall X_c, n >= floor(11p/6), is first reduced to the p x p R of its QR
factorization (Chan's R-SVD, 1982), so the unused n x p U is never formed.
dgesdd factors first at that same threshold and decomposes that same R, so
the bits are unchanged; below it, or where dgesdd would rescale a matrix of
extreme magnitude, QR-first changes them, and X_c is decomposed itself.

Sign convention: each loading column is flipped, if needed, so its
largest-magnitude entry is positive.  This removes the sign ambiguity of
the decomposition and makes refits on identical bits reproduce identical
model bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BadConfig, DegenerateData, InvalidModel, NonFiniteValue, ShapeMismatch,
                     TooFewRows)
from .features import _matrix_values

_ORTHO_TOL = 1e-10
# dgesdd rescales a matrix whose largest entry lies outside about
# [2**-459, 2**459]; R's largest lies within sqrt(n) of the data's
_QR_RANGE = (2.0**-400, 2.0**400)


@dataclass(frozen=True)
class PcaModel:
    """Centering mean, orthonormal loadings and the variance they explain.

    loadings is p x k with orthonormal columns; eigenvalues are the model
    covariance eigenvalues in non-increasing order; total_variance is the
    sum over all p sample column variances, so the retained eigenvalues sum
    to at most total_variance.
    """

    mean: np.ndarray
    loadings: np.ndarray
    eigenvalues: np.ndarray
    total_variance: float

    def __post_init__(self) -> None:
        for name in ("mean", "loadings", "eigenvalues"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        mean, load, eig = self.mean, self.loadings, self.eigenvalues
        if load.ndim != 2 or load.shape[0] != mean.size:
            raise ShapeMismatch("loadings must be p x k with p matching the mean")
        k = load.shape[1]
        if k < 1 or eig.shape != (k,):
            raise ShapeMismatch("eigenvalues must have one entry per component")
        gram = load.T @ load
        if np.max(np.abs(gram - np.eye(k))) > _ORTHO_TOL:
            raise InvalidModel("loading columns are not orthonormal")
        if np.any(np.diff(eig) > 0.0) or np.any(eig < 0.0):
            raise InvalidModel("eigenvalues must be non-negative and non-increasing")
        if not np.isfinite(self.total_variance):
            raise NonFiniteValue(f"total_variance must be finite, got {self.total_variance!r}")
        if not (self.total_variance > 0.0):
            raise DegenerateData("total variance must be positive")
        if float(self.explained_ratio.sum()) > 1.0 + 1e-10:
            raise InvalidModel("explained ratios exceed 1")

    @property
    def explained_ratio(self) -> np.ndarray:
        """Each component's fraction of total_variance, the division fit_pca makes."""
        return self.eigenvalues / self.total_variance

    @property
    def n_components(self) -> int:
        return int(self.loadings.shape[1])

    @property
    def n_features(self) -> int:
        return int(self.loadings.shape[0])


def fit_pca(x: np.ndarray, threshold: float = 0.99) -> PcaModel:
    """Fit a PCA keeping the fewest components that explain ``threshold``.

    Parameters
    ----------
    x : ndarray
        n x p finite data, n >= 2.
    threshold : float
        Cumulative explained-variance target in (0, 1].

    Raises
    ------
    TooFewRows
        n < 2.
    DegenerateData
        All rows identical (zero total variance).
    NonFiniteValue
        The eigenvalues or their total overflow.
    """
    if not (0.0 < threshold <= 1.0):
        raise BadConfig(f"variance threshold must be in (0, 1], got {threshold}")
    x = _matrix_values(x)
    n, p = x.shape
    if n < 2:
        raise TooFewRows(f"PCA needs n >= 2 rows, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    if n >= 11 * p // 6 and _QR_RANGE[0] <= np.max(np.abs(centered)) <= _QR_RANGE[1]:
        centered = np.linalg.qr(centered, mode="r")
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    with np.errstate(over="ignore"):  # an overflow is refused below, before any ratio
        eig = (svals * svals) / (n - 1)
        total = float(eig.sum())
    if not np.isfinite(total):  # an infinite eigenvalue makes the total infinite too
        raise NonFiniteValue(f"the squared singular values overflow: total variance {total}")
    if total == 0.0:
        raise DegenerateData("all rows identical: nothing to decompose")
    cum = np.cumsum(eig / total)
    # smallest k with cum[k-1] >= threshold; the epsilon forgives the last
    # cumulative entry rounding to just below 1.0
    k = int(np.searchsorted(cum, threshold - 1e-12)) + 1
    k = min(k, int(eig.size))

    loadings = vt[:k].T.copy()
    for j in range(k):
        col = loadings[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            loadings[:, j] = -col

    return PcaModel(mean=mean, loadings=loadings, eigenvalues=eig[:k].copy(),
                    total_variance=total)


def transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project rows onto the retained components: (x - mean) @ loadings."""
    return (_matrix_values(x, model.n_features) - model.mean) @ model.loadings
