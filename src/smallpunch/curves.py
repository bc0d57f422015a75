"""Force-displacement curves: parsing, uniform resampling, marker extraction.

A small punch test records punch force versus central displacement at a
sampling distance of roughly one micrometre.  All modelling downstream works
on a fixed uniform displacement grid, plus two physical markers per curve:
the force maximum (F_m at v_m) and the force at the onset of plastic
instability (F_i at v_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import (
    AllZero,
    BadConfig,
    EmptyCurve,
    InvalidCurve,
    InvalidMarkers,
    InvalidSpecimen,
    MalformedRow,
    NonFiniteValue,
    TooShort,
)

CURVE_HEADER = ("displacement_um", "force_N")

MARKER_MAX_SLOPE = "max-slope"
MARKER_FIXED_V = "fixed-v"
MARKER_STRATEGIES = (MARKER_MAX_SLOPE, MARKER_FIXED_V)

# max-slope candidates start after this many grid points; the initial
# settling of the punch contact produces spurious steep differences there
_SLOPE_SKIP = 3


@dataclass(frozen=True)
class SpecimenMeta:
    """Identity, test temperature and geometry of one specimen.

    rm_MPa is the measured tensile strength when the specimen is labeled;
    prediction-only specimens leave it as None.
    """

    material_id: str
    temperature_C: float
    thickness_mm: float
    rm_MPa: float | None = None

    def __post_init__(self) -> None:
        if not self.material_id:
            raise InvalidSpecimen("material_id must be non-empty")
        if not (-273.15 <= self.temperature_C < 2000.0):
            raise InvalidSpecimen(
                f"temperature_C out of range [-273.15, 2000): {self.temperature_C}"
            )
        if not (self.thickness_mm > 0.0):
            raise InvalidSpecimen(f"thickness_mm must be > 0, got {self.thickness_mm}")
        if self.rm_MPa is not None and not (self.rm_MPa > 0.0):
            raise InvalidSpecimen(f"rm_MPa must be > 0 when present, got {self.rm_MPa}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform displacement grid.

    The default covers [0, 1.5] mm with 151 points, i.e. 10 um spacing.
    """

    start_mm: float = 0.0
    spacing_mm: float = 0.010
    n_points: int = 151

    def __post_init__(self) -> None:
        if not (self.spacing_mm > 0.0):
            raise BadConfig(f"grid spacing must be > 0, got {self.spacing_mm}")
        if int(self.n_points) != self.n_points or self.n_points < 1:
            raise BadConfig(f"grid n_points must be a positive integer, got {self.n_points}")
        if self.start_mm < 0.0:
            raise BadConfig(f"grid start must be >= 0, got {self.start_mm}")

    @property
    def end_mm(self) -> float:
        return self.start_mm + self.spacing_mm * (self.n_points - 1)

    def displacements(self) -> np.ndarray:
        """Grid displacement values in mm, length n_points."""
        return self.start_mm + self.spacing_mm * np.arange(self.n_points)


def _as_readonly_1d(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidCurve(f"{name} must be one-dimensional")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RawCurve:
    """As-recorded curve: strictly increasing displacement, finite forces."""

    displacement_mm: np.ndarray
    force_N: np.ndarray
    meta: SpecimenMeta

    def __post_init__(self) -> None:
        d = _as_readonly_1d(self.displacement_mm, "displacement_mm")
        f = _as_readonly_1d(self.force_N, "force_N")
        object.__setattr__(self, "displacement_mm", d)
        object.__setattr__(self, "force_N", f)
        if d.size != f.size:
            raise InvalidCurve("displacement and force must have equal length")
        if d.size < 2:
            raise EmptyCurve(f"curve needs at least 2 samples, got {d.size}")
        if not np.all(np.isfinite(d)):
            raise NonFiniteValue("non-finite displacement value")
        if not np.all(np.isfinite(f)):
            raise NonFiniteValue("non-finite force value")
        if d[0] < 0.0:
            raise InvalidCurve("displacement must be >= 0")
        if not np.all(np.diff(d) > 0.0):
            raise InvalidCurve("displacement must be strictly increasing")
        if f[0] < 0.0:
            raise InvalidCurve(f"first force sample must be >= 0, got {f[0]}")


@dataclass(frozen=True)
class UniformCurve:
    """Curve resampled onto a GridSpec.

    n_extrapolated counts grid points past the last raw displacement that
    were filled by constant extrapolation.
    """

    grid: GridSpec
    force_N: np.ndarray
    meta: SpecimenMeta
    n_extrapolated: int = 0

    def __post_init__(self) -> None:
        f = _as_readonly_1d(self.force_N, "force_N")
        object.__setattr__(self, "force_N", f)
        if f.size != self.grid.n_points:
            raise InvalidCurve(
                f"force length {f.size} does not match grid n_points {self.grid.n_points}"
            )
        if not np.all(np.isfinite(f)):
            raise NonFiniteValue("non-finite force value")
        if not (0 <= self.n_extrapolated <= self.grid.n_points):
            raise InvalidCurve(f"n_extrapolated out of range: {self.n_extrapolated}")


@dataclass(frozen=True)
class CurveMarkers:
    """Physical markers feeding the empirical correlations."""

    f_max_N: float
    v_at_fmax_mm: float
    f_instability_N: float
    v_instability_mm: float
    strategy: str

    def __post_init__(self) -> None:
        if not (self.f_instability_N > 0.0):
            raise InvalidMarkers(f"instability force must be > 0, got {self.f_instability_N}")
        if self.f_max_N < self.f_instability_N:
            raise InvalidMarkers(
                f"max force {self.f_max_N} below instability force {self.f_instability_N}"
            )
        if not (0.0 < self.v_instability_mm <= self.v_at_fmax_mm):
            raise InvalidMarkers(
                f"need 0 < v_i <= v_m, got v_i={self.v_instability_mm}, v_m={self.v_at_fmax_mm}"
            )
        if self.strategy not in MARKER_STRATEGIES:
            raise InvalidMarkers(f"unknown marker strategy: {self.strategy!r}")


def read_rows(text: str) -> list[tuple[int, list[str]]]:
    """Cells of every row of a comma-separated table, with 1-based line numbers.

    This is the one dialect of every table the package reads: blank lines
    and lines starting with ``#`` are skipped, each other line is split on
    commas and its cells are stripped.  There is no quoting: a cell that
    starts with a double quote raises MalformedRow naming its line.
    Callers check their own header, the first row returned.
    """
    rows = [
        (lineno, [c.strip() for c in line.split(",")])
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if '"' in text:  # one scan of the text spares the per-cell check on clean tables
        for lineno, cells in rows:
            if any(c.startswith('"') for c in cells):
                raise MalformedRow(f"row {lineno}: quoted cell; tables take no quoting")
    return rows


def parse_curve_csv(text: str | TextIO, meta: SpecimenMeta) -> RawCurve:
    """Parse a displacement/force table into a RawCurve.

    The table is two columns with header ``displacement_um,force_N`` in the
    dialect of read_rows; displacements are converted from um to mm.  Rows
    are sorted by displacement and exact duplicate abscissae are averaged,
    so the result does not depend on the input row order.

    Raises
    ------
    MalformedRow
        Wrong header, wrong column count or a non-numeric (or quoted) cell.
    NonFiniteValue
        A cell parses to NaN or infinity.
    EmptyCurve
        Fewer than two rows remain after duplicate collapse.
    """
    rows = read_rows(text if isinstance(text, str) else text.read())
    if rows and rows[0][1] != list(CURVE_HEADER):
        lineno, cells = rows[0]
        raise MalformedRow(
            f"row {lineno}: expected header '{','.join(CURVE_HEADER)}', got '{','.join(cells)}'"
        )
    disp_um: list[float] = []
    force: list[float] = []
    for lineno, cells in rows[1:]:
        if len(cells) != 2:
            raise MalformedRow(f"row {lineno}: expected 2 columns, got {len(cells)}")
        try:
            d = float(cells[0])
            f = float(cells[1])
        except ValueError:
            raise MalformedRow(f"row {lineno}: non-numeric cell") from None
        if not (math.isfinite(d) and math.isfinite(f)):
            raise NonFiniteValue(f"row {lineno}: non-finite value")
        disp_um.append(d)
        force.append(f)
    if len(disp_um) < 2:
        raise EmptyCurve(f"fewer than 2 data rows ({len(disp_um)})")

    d_um = np.asarray(disp_um)
    f_n = np.asarray(force)
    # lexsort on (force, displacement) makes duplicate averaging independent
    # of the original row order down to the bit
    order = np.lexsort((f_n, d_um))
    d_um = d_um[order]
    f_n = f_n[order]
    uniq, inverse, counts = np.unique(d_um, return_inverse=True, return_counts=True)
    sums = np.zeros(uniq.size)
    np.add.at(sums, inverse, f_n)
    if uniq.size < 2:
        raise EmptyCurve("fewer than 2 distinct displacements")
    return RawCurve(uniq / 1000.0, sums / counts, meta)


def resample(curve: RawCurve, grid: GridSpec) -> UniformCurve:
    """Piecewise-linear resampling of a raw curve onto a uniform grid.

    Grid points outside the raw displacement span are filled with the
    nearest end force (constant extrapolation); the count of points past
    the last raw displacement is flagged as n_extrapolated.
    """
    gx = grid.displacements()
    f = np.interp(gx, curve.displacement_mm, curve.force_N)
    n_extra = int(np.count_nonzero(gx > curve.displacement_mm[-1]))
    return UniformCurve(grid=grid, force_N=f, meta=curve.meta, n_extrapolated=n_extra)


def _moving_average5(f: np.ndarray) -> np.ndarray:
    """Centered moving average of window 5, truncated at the ends."""
    n = f.size
    idx = np.arange(n)
    lo = np.maximum(idx - 2, 0)
    hi = np.minimum(idx + 2, n - 1)
    csum = np.concatenate(([0.0], np.cumsum(f)))
    return (csum[hi + 1] - csum[lo]) / (hi - lo + 1)


def extract_markers(
    curve: UniformCurve,
    strategy: str = MARKER_MAX_SLOPE,
    v_star: float | None = None,
) -> CurveMarkers:
    """Locate the force maximum and the instability-onset force.

    F_m is the grid force maximum and v_m its first displacement.  For the
    instability point two strategies exist:

    ``max-slope`` (default)
        Smooth the forces with a centered moving average of window 5, take
        first differences, and pick the grid point of maximum difference
        after the initial 3 points.  F_i is the unsmoothed force there.
        This is a documented stand-in for a bending/membrane-transition
        detector; swap strategies rather than silently changing this one.
    ``fixed-v``
        v_i is the caller-supplied displacement ``v_star``; F_i is the
        piecewise-linear interpolated force at v_star.

    Raises
    ------
    TooShort
        Fewer than 5 grid points.
    AllZero
        The curve has no positive force.
    InvalidMarkers
        The located markers violate 0 < v_i <= v_m or 0 < F_i <= F_m.
    """
    f = curve.force_N
    n = f.size
    if n < 5:
        raise TooShort(f"need at least 5 grid points, got {n}")
    f_max = float(np.max(f))
    if f_max <= 0.0:
        raise AllZero("curve has no positive force")
    gx = curve.grid.displacements()
    v_m = float(gx[int(np.argmax(f))])

    if strategy == MARKER_MAX_SLOPE:
        diffs = np.diff(_moving_average5(f))
        # diffs[j-1] belongs to grid point j; restrict to j >= _SLOPE_SKIP
        j = _SLOPE_SKIP + int(np.argmax(diffs[_SLOPE_SKIP - 1:]))
        v_i = float(gx[j])
        f_i = float(f[j])
    elif strategy == MARKER_FIXED_V:
        if v_star is None:
            raise BadConfig("fixed-v marker strategy requires v_star")
        v_i = float(v_star)
        f_i = float(np.interp(v_i, gx, f))
    else:
        raise BadConfig(f"unknown marker strategy: {strategy!r}")

    return CurveMarkers(
        f_max_N=f_max,
        v_at_fmax_mm=v_m,
        f_instability_N=f_i,
        v_instability_mm=v_i,
        strategy=strategy,
    )
