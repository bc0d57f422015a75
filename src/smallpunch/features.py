"""Feature matrix assembly and column standardization.

Stages pass plain float arrays.  Each uniform curve becomes one row of the
design matrix: the grid forces in displacement order followed by the test
temperature.  The targets are the curves' measured strengths, one per row.
_matrix_values and _target_values are the one entry check for a design
matrix, its width included, and a target vector, its size bound included:
every function that takes one checks it there.

Standardization is column-wise z-scoring with the sample standard
deviation; constant columns keep scale 1 so they map to exactly zero
instead of dividing by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import GridSpec, UniformCurve, raise_first_failure
from .errors import (
    EmptyInput,
    EmptyTraining,
    MixedGrids,
    NonFiniteValue,
    PartialTargets,
    ShapeMismatch,
    TooFewRows,
)

TEMPERATURE_LABEL = "temperature_C"

# The largest n * max|y| that n targets y may reach, so that no fit
# overflows.  A forest side's weighted target sum is at most n * max|y|
# (its weights add up to at most n), so the squares its split search takes
# stay at most 1e300, below the largest double (1.8e308), and so does a
# tree's summed squared error, at most n * max|y|**2.  rmse's sum of n
# squared residuals, each at most (2 * max|y|)**2 for predictions within
# the targets' range, is at most 4 * (n * max|y|)**2 / n <= 2e300 for n >= 2.
_MAX_TARGET_MASS = 1e150


def _matrix_values(x: np.ndarray, columns: int | None = None) -> np.ndarray:
    """x as floats, checked to be 2-D, then finite, then columns wide (if not None)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatch("expected a two-dimensional matrix")
    if not np.all(np.isfinite(x)):
        raise NonFiniteValue("matrix contains non-finite values")
    if columns is not None and x.shape[1] != columns:
        raise ShapeMismatch(f"matrix has {x.shape[1]} columns, expected {columns}")
    return x


def _target_values(y: np.ndarray) -> np.ndarray:
    """y as floats, checked to be a finite one-dimensional vector small enough to fit."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ShapeMismatch("targets must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise NonFiniteValue("targets contain non-finite values")
    largest = float(np.max(np.abs(y), initial=0.0))
    if y.size * largest > _MAX_TARGET_MASS:
        raise NonFiniteValue(f"targets too large to fit without overflow: {y.size} targets "
                             f"up to {largest!r} in magnitude, where n * max|y| may be at "
                             f"most {_MAX_TARGET_MASS!r}")
    return y


@dataclass(frozen=True)
class Standardizer:
    """Per-column centering means and scaling factors."""

    means: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.means, dtype=float)
        s = np.asarray(self.scales, dtype=float)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "scales", s)
        if m.ndim != 1 or s.ndim != 1 or m.size != s.size:
            raise ShapeMismatch("means and scales must be 1-D of equal length")
        if not np.all(np.isfinite(m)) or not np.all(np.isfinite(s)):
            raise NonFiniteValue("standardizer parameters must be finite")
        if not np.all(s > 0.0):
            raise NonFiniteValue("standardizer scales must be > 0")

    @property
    def n_features(self) -> int:
        return int(self.means.size)


def assemble(curves: Sequence[UniformCurve], grid: GridSpec | None = None) -> np.ndarray:
    """Stack uniform curves into the n x (n_points + 1) feature matrix.

    Row i holds curve i's grid forces followed by its test temperature.
    Every curve must lie on grid, by default curve 0's; the first that
    does not is named.
    """
    if not curves:
        raise EmptyInput("no curves to assemble")
    grid = curves[0].grid if grid is None else grid
    raise_first_failure(len(curves), [([c.grid != grid for c in curves], lambda r: MixedGrids(
        f"grid {curves[r].grid} differs from {grid}"))])
    values = np.empty((len(curves), grid.n_points + 1))
    for i, c in enumerate(curves):
        values[i, :-1] = c.force_N
        values[i, -1] = c.meta.temperature_C
    return values


def column_labels(grid: GridSpec) -> tuple[str, ...]:
    """The assembled matrix's column names: ``F@<displacement>mm``, then temperature."""
    return tuple(f"F@{d:.3f}mm" for d in grid.displacements()) + (TEMPERATURE_LABEL,)


def strengths(curves: Sequence[UniformCurve]) -> np.ndarray:
    """The curves' rm_MPa, in order: the check that a training set is labelled.

    Raises
    ------
    EmptyTraining
        No curve carries rm_MPa.
    PartialTargets
        Some curves carry rm_MPa and some do not.
    """
    rm = [c.meta.rm_MPa for c in curves]
    labelled = sum(r is not None for r in rm)
    if labelled == 0:
        raise EmptyTraining("training requires labeled curves (rm_MPa set)")
    if labelled < len(rm):
        raise PartialTargets("either all curves or none must carry rm_MPa")
    return np.array(rm, dtype=float)


def fit_standardizer(x: np.ndarray) -> Standardizer:
    """Column means and sample standard deviations (ddof=1).

    Columns with zero deviation get scale 1, so constant features are
    centered to zero rather than producing NaN.  Finite values whose sums
    overflow are refused, naming the first such column.
    """
    x = _matrix_values(x)
    if x.shape[0] < 2:
        raise TooFewRows(f"standardizer needs n >= 2 rows, got {x.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        means = x.mean(axis=0)
        scales = x.std(axis=0, ddof=1)
    bad = ~(np.isfinite(means) & np.isfinite(scales))
    if bad.any():
        j = int(np.argmax(bad))
        raise NonFiniteValue(f"column {j} too large to standardize without overflow: mean "
                             f"{float(means[j])!r}, scale {float(scales[j])!r}")
    scales = np.where(scales == 0.0, 1.0, scales)
    return Standardizer(means=means, scales=scales)


def apply_standardizer(std: Standardizer, x: np.ndarray) -> np.ndarray:
    """Return (x - means) / scales."""
    return (_matrix_values(x, std.means.size) - std.means) / std.scales
