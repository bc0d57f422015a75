"""Empirical strength correlations and ordinary least squares.

Two classical correlations map curve markers to tensile strength through a
single geometry/material factor beta:

    max-force          R_m = beta * F_m / (h_0 * v_m)
    instability-force  R_m = beta * F(v_i) / h_0^2

with F_m the force maximum, v_m its displacement, F(v_i) the force at the
onset of plastic instability and h_0 the initial specimen thickness.  beta
is fitted by least squares through the origin.  The regressors of a batch
of curves come from its markers in one pass, one value per curve; a
curve's regressor has the same bits in any batch as alone.

The linear model on PCA scores is fitted by QR with an explicit intercept
column and a hard rank check; rank deficiency is an error here, never a
silent pseudo-inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CurveMarkers, raise_first_failure
from .errors import (
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
from .features import _matrix_values, _target_values

MODE_MAX_FORCE = "max-force"
MODE_INSTABILITY_FORCE = "instability-force"
EMPIRICAL_MODES = (MODE_MAX_FORCE, MODE_INSTABILITY_FORCE)

# relative tolerance on the triangular-factor diagonal for rank detection
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class EmpiricalModel:
    """The fitted factor of a correlation; the pipeline's kind names the correlation."""

    beta: float

    def __post_init__(self) -> None:
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise InvalidModel(f"beta must be finite and > 0, got {self.beta}")


@dataclass(frozen=True)
class LinearModel:
    """Intercept plus one coefficient per design column."""

    intercept: float
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=float)
        object.__setattr__(self, "coefficients", coef)
        if coef.ndim != 1:
            raise ShapeMismatch("coefficients must be one-dimensional")
        if not (np.isfinite(self.intercept) and np.all(np.isfinite(coef))):
            raise NonFiniteValue("linear model parameters must be finite")

    @property
    def n_features(self) -> int:
        return int(self.coefficients.size)


def empirical_feature(
    markers: CurveMarkers, h0_mm: float | Sequence[float] | np.ndarray, mode: str
) -> np.ndarray:
    """The correlation regressor x of every curve, such that R_m = beta * x.

    max-force uses F_m / (h_0 * v_m); instability-force uses F_i / h_0^2.
    h0_mm holds each curve's thickness, in the markers' row order, or one
    thickness for all.  The first curve whose denominator is zero, or whose
    denominator or quotient overflows, raises.
    """
    h0 = np.broadcast_to(np.asarray(h0_mm, dtype=float), markers.f_max_N.shape)
    v_m = markers.v_at_fmax_mm
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if mode == MODE_MAX_FORCE:
            force, denom, zero = markers.f_max_N, h0 * v_m, "h0 * v_m is zero (h0={h0}, v_m={v_m})"
        elif mode == MODE_INSTABILITY_FORCE:
            force, denom, zero = markers.f_instability_N, h0 * h0, "h0^2 is zero (h0={h0})"
        else:
            raise BadConfig(f"unknown empirical mode: {mode!r}")
        x = force / denom
    raise_first_failure(x.size, [
        (denom == 0.0, lambda r: ZeroDenominator(zero.format(h0=h0[r], v_m=v_m[r]))),
        (~(np.isfinite(x) & np.isfinite(denom)), lambda r: NonFiniteValue(
            f"regressor {force[r]} / {denom[r]} overflows")),
    ])
    return x


def fit_beta(features: np.ndarray, targets: np.ndarray) -> EmpiricalModel:
    """Least-squares through the origin: beta = sum(x*y) / sum(x^2).

    Raises
    ------
    EmptyTraining
        No training pairs.
    NonPositiveFeature
        Any regressor <= 0; the correlations are only meaningful on
        positive features.
    """
    x = np.asarray(features, dtype=float)
    y = _target_values(targets)
    if x.ndim != 1:
        raise ShapeMismatch("features must be one-dimensional")
    if x.size != y.size:
        raise LengthMismatch(f"{x.size} features vs {y.size} targets")
    if x.size == 0:
        raise EmptyTraining("no training examples")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("features contain non-finite values")
    if np.any(x <= 0.0):
        raise NonPositiveFeature("empirical features must be strictly positive")
    beta = float(np.dot(x, y) / np.dot(x, x))
    return EmpiricalModel(beta=beta)


def predict_empirical(model: EmpiricalModel, markers: CurveMarkers,
                      h0_mm: float | Sequence[float] | np.ndarray, mode: str) -> np.ndarray:
    """Apply the correlation mode names, with the fitted beta, to every curve's markers;
    the first curve whose prediction overflows raises NonFiniteValue."""
    x = empirical_feature(markers, h0_mm, mode)
    with np.errstate(over="ignore"):
        predictions = model.beta * x
    raise_first_failure(x.size, [(~np.isfinite(predictions), lambda r: (
        NonFiniteValue(f"prediction {model.beta} * {x[r]} overflows")))])
    return predictions


def fit_ols(design: np.ndarray, targets: np.ndarray) -> LinearModel:
    """Ordinary least squares with intercept via QR factorization.

    The design matrix is augmented with a leading column of ones and
    factored A = QR; coefficients come from back substitution on R, last
    row first.  The rank is checked on R's diagonal, relative tolerance 1e-10.

    Raises
    ------
    TooFewRows
        n <= m for m design columns (the augmented system has m + 1
        parameters, so n > m is required).
    RankDeficient
        min |R_ii| < 1e-10 * max |R_ii|.
    """
    x = _matrix_values(design)
    y = _target_values(targets)
    n, m = x.shape
    if y.size != n:
        raise LengthMismatch(f"{n} design rows vs {y.size} targets")
    if n <= m:
        raise TooFewRows(f"need more rows than design columns, got n={n}, m={m}")
    if m == 0:
        # with no regressors the least-squares solution is the target mean;
        # computing it directly keeps constant targets exact, where the QR
        # path would round through sqrt(n)
        return LinearModel(intercept=float(np.mean(y)), coefficients=np.zeros(0))
    a = np.hstack([np.ones((n, 1)), x])
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diag(r))
    if diag.min() < _RANK_TOL * diag.max():
        raise RankDeficient(
            f"design is numerically rank deficient (diag ratio {diag.min():.3e}/{diag.max():.3e})"
        )
    qty = q.T @ y
    coef = np.empty(m + 1)
    for i in range(m, -1, -1):
        coef[i] = (qty[i] - r[i, i + 1:] @ coef[i + 1:]) / r[i, i]
    return LinearModel(intercept=float(coef[0]), coefficients=coef[1:].copy())


def predict_linear(model: LinearModel, design: np.ndarray) -> np.ndarray:
    """Evaluate intercept + design @ coefficients row-wise."""
    return model.intercept + _matrix_values(design, model.coefficients.size) @ model.coefficients
