"""Force-displacement curves: parsing, uniform resampling, marker extraction.

A small punch test records punch force versus central displacement at a
sampling distance of roughly one micrometre.  All modelling downstream works
on a fixed uniform displacement grid, plus two physical markers per curve:
the force maximum (F_m at v_m) and the force at the onset of plastic
instability (F_i at v_i).  Markers are extracted for a whole batch at once,
from the matrix of grid forces with one row per curve, in a few numpy
passes; a curve gets the same bits in any batch as alone.

Curve arrays are shared, not copied, and are to be treated as immutable.
One rule, in _as_readonly_1d, decides what a record keeps: a read-only
one-dimensional float64 ndarray that owns its data is kept as given, and
anything else is copied and the copy made read-only.  Code that makes a
curve array freezes it where it makes it, so no record copies it again.
The freeze is an agreement, not a guarantee: numpy lets an array's owner
make it writable again.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TextIO

import numpy as np

from .errors import (
    AllZero,
    BadConfig,
    EmptyCurve,
    GridOutsideCurve,
    InvalidCurve,
    InvalidMarkers,
    InvalidSpecimen,
    LengthMismatch,
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

# a grid has at most this many points: a recorded curve holds a few
# thousand samples, and a count beyond reach of memory is a bad flag or
# model file, refused before any grid array is made
MAX_GRID_POINTS = 1_000_000


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
        if not (0.0 < self.thickness_mm < math.inf):
            raise InvalidSpecimen(f"thickness_mm must be finite and > 0, got {self.thickness_mm}")
        if self.rm_MPa is not None and not (0.0 < self.rm_MPa < math.inf):
            raise InvalidSpecimen(f"rm_MPa must be finite and > 0 when present, got {self.rm_MPa}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform displacement grid.

    The default covers [0, 1.5] mm with 151 points, i.e. 10 um spacing;
    n_points may be at most MAX_GRID_POINTS.
    """

    start_mm: float = 0.0
    spacing_mm: float = 0.010
    n_points: int = 151

    def __post_init__(self) -> None:
        if not (0.0 < self.spacing_mm < math.inf):
            raise BadConfig(f"grid spacing must be finite and > 0, got {self.spacing_mm}")
        n = self.n_points
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise BadConfig(f"grid n_points must be a positive integer, got {n!r}")
        if n > MAX_GRID_POINTS:
            raise BadConfig(f"grid n_points must be at most {MAX_GRID_POINTS}, got {n}")
        if not (0.0 <= self.start_mm < math.inf):
            raise BadConfig(f"grid start must be finite and >= 0, got {self.start_mm}")
        if self.end_mm == math.inf:
            raise BadConfig(
                f"grid end overflows: start {self.start_mm}, spacing {self.spacing_mm}"
            )

    @property
    def end_mm(self) -> float:
        return self.start_mm + self.spacing_mm * (self.n_points - 1)

    def displacements(self) -> np.ndarray:
        """Grid displacement values in mm, length n_points."""
        return self.start_mm + self.spacing_mm * np.arange(self.n_points)


def frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, for an array its maker has just made and hands on."""
    arr.setflags(write=False)
    return arr


def _as_readonly_1d(values, name: str) -> np.ndarray:
    """The array a curve record keeps for values: the one rule of ownership.

    A read-only one-dimensional float64 ndarray that owns its data is kept
    as given, so one array frozen where it is made is shared by every
    record handed it.  Anything else is copied and the copy frozen: a
    writable array, a view of another buffer, a list, another dtype, or an
    object converted through ``__array__``, which may hand back a buffer
    of its own that must never be frozen in place.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidCurve(f"{name} must be one-dimensional")
    if arr is values and arr.base is None and not arr.flags.writeable:
        return arr
    return frozen(arr.copy())


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
    """Physical markers of a batch of curves, feeding the empirical correlations.

    Every field but strategy holds one value per curve, in the order of the
    force matrix's rows.  Each row is checked in the order below, and the
    first row that fails a check raises the first check it fails.
    """

    f_max_N: np.ndarray
    v_at_fmax_mm: np.ndarray
    f_instability_N: np.ndarray
    v_instability_mm: np.ndarray
    strategy: str

    def __post_init__(self) -> None:
        names = ("f_max_N", "v_at_fmax_mm", "f_instability_N", "v_instability_mm")
        f_m, v_m, f_i, v_i = (_as_readonly_1d(getattr(self, name), name) for name in names)
        for name, arr in zip(names, (f_m, v_m, f_i, v_i)):
            object.__setattr__(self, name, arr)
        if not (f_m.size == v_m.size == f_i.size == v_i.size):
            raise InvalidMarkers("marker arrays must have equal lengths")
        raise_first_failure(f_m.size, [
            (~(f_m > 0.0), lambda r: AllZero("curve has no positive force")),
            (~(f_i > 0.0),
             lambda r: InvalidMarkers(f"instability force must be > 0, got {f_i[r]}")),
            (f_m < f_i,
             lambda r: InvalidMarkers(f"max force {f_m[r]} below instability force {f_i[r]}")),
            (~((0.0 < v_i) & (v_i <= v_m)),
             lambda r: InvalidMarkers(f"need 0 < v_i <= v_m, got v_i={v_i[r]}, v_m={v_m[r]}")),
            (self.strategy not in MARKER_STRATEGIES,
             lambda r: InvalidMarkers(f"unknown marker strategy: {self.strategy!r}")),
        ])


def raise_first_failure(
    n_rows: int, checks: Sequence[tuple[Any, Callable[[int], Exception]]]
) -> None:
    """Raise the error of the first of n_rows rows that fails a check.

    Each check is (bad, error): bad is a boolean per row, or one boolean
    for every row, and error(r) builds row r's exception.  Checks are listed
    in the order one row's are made, so the failing row raises its first.
    """
    bad = np.array([np.broadcast_to(b, (n_rows,)) for b, _ in checks], dtype=bool)
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        r = int(failing[0])
        raise checks[int(np.argmax(bad[:, r]))][1](r)


def fmt(x: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def read_table(
    text: str, header: Sequence[str] | None = None
) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and data rows, with 1-based line numbers, of any table read.

    The one dialect: blank lines and lines starting with ``#`` are skipped,
    other lines are split on commas and their cells stripped, and no cell
    may start with a double quote, as there is no quoting.  The header is
    ``header`` exactly when given, else any names, each named once; every
    data row has as many cells.  Faults raise MalformedRow naming the row.
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
    if not rows:
        raise MalformedRow("missing header" if header is None
                           else f"missing header '{','.join(header)}'")
    lineno, names = rows[0]
    if header is not None and names != list(header):
        raise MalformedRow(f"row {lineno}: expected header '{','.join(header)}', "
                           f"got '{','.join(names)}'")
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise MalformedRow(f"row {lineno}: header names column '{twice[0]}' twice")
    for lineno, cells in rows[1:]:
        if len(cells) != len(names):
            raise MalformedRow(f"row {lineno}: expected {len(names)} columns, got {len(cells)}")
    return names, rows[1:]


def finite_cells(lineno: int, cells: Sequence[str]) -> list[float]:
    """Row lineno's cells as finite floats, else MalformedRow or NonFiniteValue."""
    try:
        values = [float(c) for c in cells]
    except ValueError:
        raise MalformedRow(f"row {lineno}: non-numeric cell") from None
    if not all(map(math.isfinite, values)):
        raise NonFiniteValue(f"row {lineno}: non-finite value")
    return values


def parse_curve_csv(text: str | TextIO, meta: SpecimenMeta) -> RawCurve:
    """Parse a displacement/force table into a RawCurve.

    The table is two columns with header ``displacement_um,force_N`` in the
    dialect of read_table; displacements are converted from um to mm.  Rows
    are sorted by displacement and exact duplicate abscissae are averaged,
    so the result does not depend on the input row order.

    A plain table, as write_curve_csv and recorders write it, is converted
    as a whole instead of row by row: it is ASCII, its first line is
    exactly the header, it has at least two data lines, every line holds
    exactly one comma, its breaks are ``\\n`` or CRLF, and it has no space
    or tab, no ``#``, no ``"``, no blank line and only finite cells.
    numpy's text reader (np.fromstring with ``sep=","``) converts its
    cells in one call with PyOS_string_to_double, the routine ``float``
    uses in the row walk, so the values carry the same bits.  When the
    displacements are already strictly increasing the sort and the
    averaging, which would leave them as they are, are skipped (``+ 0.0``
    stands in for the averaging's ``0.0 + f``, which turns a -0.0 force
    into +0.0).  Every other table, and every table that fails, goes
    through the row walk, which is the one source of the errors below and
    the reference the whole-table route must match bit for bit.

    Raises
    ------
    MalformedRow
        Missing or wrong header, wrong column count or a non-numeric (or
        quoted) cell.
    NonFiniteValue
        A cell parses to NaN or infinity.
    EmptyCurve
        Fewer than two rows remain after duplicate collapse.
    """
    text = text if isinstance(text, str) else text.read()
    columns = _plain_columns(text)
    if columns is None:
        return _parse_rows(text, meta)
    d_um, f_n = columns
    if np.all(d_um[1:] > d_um[:-1]):
        return RawCurve(frozen(d_um / 1000.0), frozen(f_n + 0.0), meta)
    return _collapse_duplicates(d_um, f_n, meta)


_PLAIN_HEADER = ",".join(CURVE_HEADER) + "\n"
# the bytes a decimal number is spelled with; a plain body holds only
# these, commas and newlines
_NUMBER_BYTES = b"0123456789+-.eE"


def _plain_columns(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Displacement and force columns of a plain table, else None.

    parse_curve_csv tells what makes a table plain.  Scans of the whole
    text check it, with no Python object made per line or per cell: the
    body may hold only the bytes of decimal numbers (digits, signs, points,
    exponent marks), commas and ``\\n`` breaks, CRLF breaks being read as
    ``\\n``, so no space, tab, ``#``, ``"`` or other break that splitlines
    knows gets through.  One np.fromstring call converts the cells, and the
    result is kept only if exactly two finite cells per line came back.

    None sends the table to the row walk, which parses it or names the
    line at fault.
    """
    text = text.replace("\r\n", "\n")
    if not (text.isascii() and text.startswith(_PLAIN_HEADER)):
        return None
    body = text[len(_PLAIN_HEADER):].removesuffix("\n")
    # deleting the number bytes leaves the separators: one comma on every
    # line and no blank line make them alternate comma, newline, ..., comma;
    # any other byte is left behind and breaks the alternation
    separators = body.encode("ascii").translate(None, _NUMBER_BYTES)
    n = (len(separators) + 1) // 2
    if n < 2 or separators != b",\n" * (n - 1) + b",":
        return None
    try:
        with warnings.catch_warnings():
            # numpy 1.x returns the cells read so far with this warning
            # where numpy 2.x raises ValueError
            warnings.simplefilter("error", DeprecationWarning)
            cells = np.fromstring(body.replace("\n", ","), dtype=float, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if cells.size != 2 * n or not np.all(np.isfinite(cells)):
        return None
    return cells[0::2], cells[1::2]


def _parse_rows(text: str, meta: SpecimenMeta) -> RawCurve:
    """The row walk: read_table, then each row converted in turn."""
    _, rows = read_table(text, CURVE_HEADER)
    values = [finite_cells(lineno, cells) for lineno, cells in rows]
    if len(values) < 2:
        raise EmptyCurve(f"fewer than 2 data rows ({len(values)})")
    d_um, f_n = np.array(values).T
    return _collapse_duplicates(d_um, f_n, meta)


def _collapse_duplicates(d_um: np.ndarray, f_n: np.ndarray, meta: SpecimenMeta) -> RawCurve:
    """Sort rows by displacement and average the forces of equal ones."""
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
    return RawCurve(frozen(uniq / 1000.0), frozen(sums / counts), meta)


def resample(curve: RawCurve, grid: GridSpec) -> UniformCurve:
    """Piecewise-linear resampling of a raw curve onto a uniform grid.

    Grid points outside the raw displacement span are filled with the
    nearest end force (constant extrapolation); the count of points past
    the last raw displacement is flagged as n_extrapolated.  A grid with
    no point inside that span raises GridOutsideCurve: every force would
    be an end force.
    """
    gx = grid.displacements()
    d = curve.displacement_mm
    if not np.any((gx >= d[0]) & (gx <= d[-1])):
        raise GridOutsideCurve(f"no grid point lies within the recorded displacements "
                               f"[{d[0]}, {d[-1]}] mm (grid {grid.start_mm} to {grid.end_mm} mm)")
    f = np.interp(gx, d, curve.force_N)
    n_extra = int(np.count_nonzero(gx > d[-1]))
    return UniformCurve(grid=grid, force_N=frozen(f), meta=curve.meta, n_extrapolated=n_extra)


def _moving_average5(f: np.ndarray) -> np.ndarray:
    """Centered moving average of window 5 along each row, truncated at the ends."""
    n = f.shape[1]
    idx = np.arange(n)
    lo = np.maximum(idx - 2, 0)
    hi = np.minimum(idx + 2, n - 1)
    csum = np.zeros((f.shape[0], n + 1))
    np.cumsum(f, axis=1, out=csum[:, 1:])
    return (csum[:, hi + 1] - csum[:, lo]) / (hi - lo + 1)


def _interp_rows(v: np.ndarray, gx: np.ndarray, f: np.ndarray) -> np.ndarray:
    """np.interp(v[r], gx, f[r]) for every row r, by np.interp's own arithmetic.

    The segment gx[j] <= v < gx[j + 1] gives slope * (v - gx[j]) + f[j];
    a v on a grid point gives that point's force, and a v at or beyond
    either end gives the end force.
    """
    last = gx.size - 1
    j = np.clip(np.searchsorted(gx, v, side="right") - 1, 0, last - 1)
    rows = np.arange(f.shape[0])
    f_j = f[rows, j]
    inside = np.clip(v, gx[0], gx[last])  # keeps infinite v out of the arithmetic
    f_v = (f[rows, j + 1] - f_j) / (gx[j + 1] - gx[j]) * (inside - gx[j]) + f_j
    f_v = np.where(v == gx[j], f_j, f_v)
    f_v = np.where(v <= gx[0], f[:, 0], f_v)
    return np.where(v >= gx[last], f[:, last], f_v)


def _v_star_rows(v_star, n_curves: int) -> np.ndarray:
    """The fixed-v displacement of every curve: one shared value or one each.

    The result is always a new array, never the caller's, as the markers
    freeze it.
    """
    if v_star is None:
        raise BadConfig("fixed-v marker strategy requires v_star")
    values = np.array(v_star, dtype=float)
    if values.ndim == 0:
        return np.full(n_curves, float(values))
    if values.shape != (n_curves,):
        raise LengthMismatch(f"{values.size} v_star values for {n_curves} curves")
    return values


def extract_markers(
    forces: np.ndarray,
    grid: GridSpec,
    strategy: str = MARKER_MAX_SLOPE,
    v_star: float | Sequence[float] | np.ndarray | None = None,
) -> CurveMarkers:
    """Locate the force maximum and the instability-onset force of every curve.

    forces is the N x n_points matrix of N curves on grid, one row per
    curve; a single curve is a batch of one.  A row's markers do not depend
    on the other rows, down to the bit, and match the per-curve reference
    kept in tests/test_markers_batch.py.  The first curve that fails raises
    its error (see CurveMarkers).

    F_m is the grid force maximum and v_m its first displacement.  For the
    instability point two strategies exist:

    ``max-slope`` (default)
        Smooth the forces with a centered moving average of window 5, take
        first differences, and pick the first grid point of maximum
        difference after the initial 3 points.  F_i is the unsmoothed force
        there.  This is a documented stand-in for a bending/membrane-
        transition detector; swap strategies rather than silently changing
        this one.
    ``fixed-v``
        v_i is the caller-supplied displacement ``v_star``, one value shared
        by every curve or one per curve; F_i is the piecewise-linear
        interpolated force at v_i, with the bits of ``np.interp``.

    Raises
    ------
    TooShort
        Fewer than 5 grid points.
    BadConfig
        An unknown strategy, or fixed-v without v_star.
    LengthMismatch
        A v_star sequence whose length is not the number of curves.
    AllZero
        A curve has no positive force.
    InvalidMarkers
        The located markers violate 0 < v_i <= v_m or 0 < F_i <= F_m.
    """
    f = np.asarray(forces, dtype=float)
    n = grid.n_points
    if f.ndim != 2 or f.shape[1] != n:
        raise InvalidCurve(f"forces must be an N x {n} matrix, got shape {f.shape}")
    if n < 5:
        raise TooShort(f"need at least 5 grid points, got {n}")
    gx = grid.displacements()

    if strategy == MARKER_MAX_SLOPE:
        diffs = np.diff(_moving_average5(f), axis=1)
        # diffs[:, j-1] belongs to grid point j; restrict to j >= _SLOPE_SKIP
        j = _SLOPE_SKIP + np.argmax(diffs[:, _SLOPE_SKIP - 1:], axis=1)
        v_i = gx[j]
        f_i = f[np.arange(f.shape[0]), j]
    elif strategy == MARKER_FIXED_V:
        v_i = _v_star_rows(v_star, f.shape[0])
        f_i = _interp_rows(v_i, gx, f)
    else:
        raise BadConfig(f"unknown marker strategy: {strategy!r}")

    return CurveMarkers(
        f_max_N=frozen(np.max(f, axis=1)),
        v_at_fmax_mm=frozen(gx[np.argmax(f, axis=1)]),
        f_instability_N=frozen(f_i),
        v_instability_mm=frozen(v_i),
        strategy=strategy,
    )
