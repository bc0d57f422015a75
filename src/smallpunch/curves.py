"""Force-displacement curves: parsing, uniform resampling, marker extraction.

A small punch test records punch force versus central displacement at a
sampling distance of roughly one micrometre.  All modelling downstream works
on a fixed uniform displacement grid, by default 76 points 20 um apart, each
holding the mean force over its cell, so every recorded row reaches the
model (GridSpec states the grid and its rule, resample applies them), plus
two physical markers per curve: the force maximum (F_m at v_m) and the
force at the onset of plastic instability (F_i at v_i).  Markers are
extracted for a whole batch at once, from the matrix of grid forces with
one row per curve, in a few numpy passes (the fixed-v force is
interpolated row by row); a curve gets the same bits in any batch as
alone.

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
from functools import cached_property
from typing import Any, Callable, Sequence

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
    prefixed,
)

CURVE_HEADER = ("displacement_um", "force_N")

MARKER_MAX_SLOPE = "max-slope"
MARKER_FIXED_V = "fixed-v"
MARKER_STRATEGIES = (MARKER_MAX_SLOPE, MARKER_FIXED_V)

RULE_INTERVAL_MEAN = "interval-mean"
RULE_POINT = "point"
GRID_RULES = (RULE_INTERVAL_MEAN, RULE_POINT)

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
    prediction-only specimens leave it as None.  v_i_mm, its instability-onset
    displacement when a truth table gives it, is what a fixed-v kind without
    a shared v_star reads.
    """

    material_id: str
    temperature_C: float
    thickness_mm: float
    rm_MPa: float | None = None
    v_i_mm: float | None = None

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
        if self.v_i_mm is not None and not (0.0 < self.v_i_mm < math.inf):
            raise InvalidSpecimen(f"v_i_mm must be finite and > 0 when present, got {self.v_i_mm}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform displacement grid and the rule that reads a curve onto it.

    The default covers [0, 1.5] mm with 76 points, i.e. 20 um spacing, and
    gives each point the mean force over its cell (RULE_INTERVAL_MEAN);
    RULE_POINT reads the curve at the point itself.  n_points may be at
    most MAX_GRID_POINTS.
    """

    start_mm: float = 0.0
    spacing_mm: float = 0.02
    n_points: int = 76
    rule: str = RULE_INTERVAL_MEAN

    def __post_init__(self) -> None:
        if self.rule not in GRID_RULES:
            raise BadConfig(f"grid rule must be one of {', '.join(GRID_RULES)}, got {self.rule!r}")
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

    @cached_property
    def _cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points; the n_points + 1 cell edges, point j's cell running
        from edge j to edge j + 1, [x - h/2, x + h/2]; and the half inverse
        of each cell's width.  Made once per grid, as resample reads them
        for every curve, and read-only."""
        edges = self.start_mm + self.spacing_mm * (np.arange(self.n_points + 1) - 0.5)
        return frozen(self.displacements()), frozen(edges), frozen(0.5 / np.diff(edges))


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

    n_extrapolated counts grid points past the last raw displacement (see
    resample).
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
        if not np.isfinite(f).all():
            raise NonFiniteValue("non-finite force value")
        if not (0 <= self.n_extrapolated <= self.grid.n_points):
            raise InvalidCurve(f"n_extrapolated out of range: {self.n_extrapolated}")


@dataclass(frozen=True)
class CurveMarkers:
    """Physical markers of a batch of curves, feeding the empirical correlations.

    Every field holds one value per curve, in the order of the force
    matrix's rows; the strategy that located them is the caller's.  Each
    row is checked in the order below, and the first row that fails a
    check raises the first check it fails, naming the row as ``curve r``.
    """

    f_max_N: np.ndarray
    v_at_fmax_mm: np.ndarray
    f_instability_N: np.ndarray
    v_instability_mm: np.ndarray

    def __post_init__(self) -> None:
        names = ("f_max_N", "v_at_fmax_mm", "f_instability_N", "v_instability_mm")
        f_m, v_m, f_i, v_i = (_as_readonly_1d(getattr(self, name), name) for name in names)
        for name, arr in zip(names, (f_m, v_m, f_i, v_i)):
            object.__setattr__(self, name, arr)
        if not (f_m.size == v_m.size == f_i.size == v_i.size):
            raise InvalidMarkers("marker arrays must have equal lengths")
        raise_first_failure(f_m.size, [
            (~(f_m > 0.0), lambda r: AllZero("no positive force")),
            (~(f_i > 0.0), lambda r: InvalidMarkers(
                f"instability force must be > 0, got {f_i[r]}")),
            (f_m < f_i, lambda r: InvalidMarkers(
                f"max force {f_m[r]} below instability force {f_i[r]}")),
            (~((0.0 < v_i) & (v_i <= v_m)), lambda r: InvalidMarkers(
                f"need 0 < v_i <= v_m, got v_i={v_i[r]}, v_m={v_m[r]}")),
        ])


def raise_first_failure(
    n_rows: int, checks: Sequence[tuple[Any, Callable[[int], Exception]]]
) -> None:
    """Raise the error of the first of n_rows rows that fails a check, named ``curve r``.

    Each check is (bad, error): bad is a boolean per row, or one boolean
    for every row, and error(r) builds row r's error, stating only the fault.
    Checks are listed in the order one row's are made, so a row raises its first.
    """
    bad = np.array([np.broadcast_to(b, (n_rows,)) for b, _ in checks], dtype=bool)
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        r = int(failing[0])
        with prefixed(f"curve {r}"):
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


def decimal_cell(cell: str) -> float:
    """float(cell) for a stripped cell of ASCII without '_', else ValueError.

    float also reads digits with underscores (1_0) and other scripts'
    digits (\u0661\u0662, \uff11\uff10); a table's numbers are ASCII decimals.
    """
    if not cell.isascii() or "_" in cell:
        raise ValueError(cell)
    return float(cell)


def finite_cells(lineno: int, cells: Sequence[str]) -> list[float]:
    """Row lineno's cells as finite floats, else MalformedRow or NonFiniteValue."""
    try:
        values = [decimal_cell(c) for c in cells]
    except ValueError:
        raise MalformedRow(f"row {lineno}: non-numeric cell") from None
    if not all(map(math.isfinite, values)):
        raise NonFiniteValue(f"row {lineno}: non-finite value")
    return values


def parse_curve_csv(text: str, meta: SpecimenMeta) -> RawCurve:
    """Parse a displacement/force table into a RawCurve.

    The table is two columns with header ``displacement_um,force_N`` in the
    dialect of read_table; displacements are converted from um to mm.  Rows
    are sorted by displacement and exact duplicate abscissae are averaged,
    so the result does not depend on the input row order.

    A plain table, as write_curve_csv and recorders write it, is converted
    as a whole instead of row by row: it is ASCII, its first line is
    exactly the header, it has at least two data lines, every line holds
    exactly one comma, its breaks are ``\\n`` or CRLF, and it has no space
    or tab, no ``#``, no ``"``, no blank line and only finite cells.  Two
    converters read a plain table, each to the bits ``float`` gives in the
    row walk.  A table whose cells are digits with at most a leading ``-``
    and one point, as write_curve_csv and synth write them, is read from
    its integer digits by _decimal_cells: one np.fromstring call reads the
    digits of every cell as a 64-bit integer, and one division by a power
    of ten in x87 long double, rounded to float64, gives float's double in
    every case but an exact tie it detects and hands to ``float``.  Any
    other plain table (an exponent, a ``+``, a cell of 19 significant
    digits or of more than 27 after its point, or a platform without x87
    long double) is read by numpy's float text reader (np.fromstring with
    ``sep=","``), which converts each cell with PyOS_string_to_double, the
    routine ``float`` uses.  Every other table, and every table that
    fails, goes through the row walk, which is the one source of the errors
    below and the reference the whole-table route must match bit for bit.
    Either route's columns become the curve in _collapse_duplicates.

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
    columns = _plain_columns(text)
    return _parse_rows(text, meta) if columns is None else _collapse_duplicates(*columns, meta)


_PLAIN_HEADER = ",".join(CURVE_HEADER) + "\n"
# the bytes a decimal number is spelled with; a plain body holds only
# these, commas and newlines
_NUMBER_BYTES = b"0123456789+-.eE"
# the bytes of the cells the integer route reads: digits, a leading minus
# and a point
_DECIMAL_BYTES = b"0123456789-."
_BREAK_TO_COMMA = bytes.maketrans(b"\n", b",")
# the integer route reads cells of at most 18 digits once leading zeros
# are dropped, and at most 27 of them after the point: an integer below
# 10**18 < 2**63 and every power of ten to 10**27 = 2**27 * 5**27, with
# 5**27 < 2**64, are exact in a 64-bit mantissa
_MAX_DIGITS_VALUE = 10 ** 18
_MAX_FRACTION_DIGITS = 27


def _long_double_divides_exactly() -> bool:
    """Whether np.longdouble is x87 extended precision, rounding to 64 bits.

    The integer route reads a quotient's 64-bit mantissa from the low word
    of each 16-byte value, and relies on divisions rounded to that width:
    1.5 and 1/3 must come out with the x87 layout, mantissa and exponent,
    and 1/3 rounded to 64 bits rather than to a double's 53.
    """
    if np.finfo(np.longdouble).nmant < 63 or np.dtype(np.longdouble).itemsize != 16:
        return False
    quotients = np.array([1.5, 1.0], dtype=np.longdouble) / np.array([1, 3], dtype=np.longdouble)
    words = quotients.view(np.uint64)
    mantissas = words[0::2].tolist()
    exponents = (words[1::2] & 0xFFFF).tolist()  # the other six bytes are padding
    return mantissas == [0xC000000000000000, 0xAAAAAAAAAAAAAAAB] and exponents == [0x3FFF, 0x3FFD]


_EXACT_LONG_DOUBLE = _long_double_divides_exactly()
# 10**k for k = 0 ... 27, each by one exact multiplication by ten
_POW10 = np.cumprod(np.array([1] + [10] * _MAX_FRACTION_DIGITS, dtype=np.longdouble))


def _plain_columns(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Displacement and force columns of a plain table, else None.

    parse_curve_csv tells what makes a table plain.  Scans of the whole
    text check it, with no Python object made per line or per cell: the
    body may hold only the bytes of decimal numbers (digits, signs, points,
    exponent marks), commas and ``\\n`` breaks, CRLF breaks being read as
    ``\\n``, so no space, tab, ``#``, ``"`` or other break that splitlines
    knows gets through.  Deleting the number bytes must leave one comma
    per line and the breaks between them.

    Cells of digits, a leading minus and at most one point, as synth and
    write_curve_csv write them, are read by _decimal_cells where
    np.longdouble is x87 extended precision.  Any other plain table (an
    exponent, a ``+``, a cell _decimal_cells refuses, or another platform)
    is read by _float_cells.  The result is kept only if exactly two cells
    per line came back.  None sends the table to the row walk, which
    parses it or names the line at fault.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if not (text.isascii() and text.startswith(_PLAIN_HEADER)):
        return None
    body = text[len(_PLAIN_HEADER):].removesuffix("\n").encode("ascii")
    n = _line_count(body.translate(None, _DECIMAL_BYTES))
    cells = _decimal_cells(body) if n and _EXACT_LONG_DOUBLE else None
    if cells is None:
        n = _line_count(body.translate(None, _NUMBER_BYTES))
        cells = _float_cells(body) if n else None
    if cells is None or cells.size != 2 * n:
        return None
    return cells[0::2], cells[1::2]


def _line_count(separators: bytes) -> int:
    """Lines of a body whose number bytes are deleted, if they make a table, else 0.

    One comma on every line and no blank line make the separators
    alternate comma, newline, ..., comma over at least two lines; any other
    byte is left behind and breaks the alternation.
    """
    n = (len(separators) + 1) // 2
    return n if n >= 2 and separators == b",\n" * (n - 1) + b"," else 0


def _read_cells(body: bytes, dtype) -> np.ndarray | None:
    """np.fromstring of the comma-separated cells, or None where it fails."""
    try:
        with warnings.catch_warnings():
            # numpy 1.x returns the cells read so far with this warning
            # where numpy 2.x raises ValueError
            warnings.simplefilter("error", DeprecationWarning)
            return np.fromstring(body, dtype=dtype, sep=",")
    except (ValueError, DeprecationWarning):
        return None


def _float_cells(body: bytes) -> np.ndarray | None:
    """Every cell of a plain body by numpy's float reader, if all are finite.

    np.fromstring converts each cell with PyOS_string_to_double, the
    routine ``float`` uses, so the values carry float's bits.
    """
    cells = _read_cells(body.translate(_BREAK_TO_COMMA), float)
    return cells if cells is not None and np.all(np.isfinite(cells)) else None


def _decimal_cells(body: bytes) -> np.ndarray | None:
    """Every cell of a body of digits, ``-``, ``.``, ``,`` and ``\\n``, with float's bits.

    Each cell must hold at least one digit, a ``-`` only as its first
    byte, at most one point, at most 27 digits after it, and digits whose
    value M, with point and sign deleted, is below 10**18; else None.  One
    np.fromstring call reads every M as an integer (strtoll saturates at
    2**63 - 1, which the bound refuses).  A cell with k digits after its
    point is M / 10**k: M and 10**k are exact in np.longdouble, so the one
    division rounds the exact quotient to 64 bits, and rounding that to
    53 bits gives the correctly rounded double, as float does, unless the
    64-bit quotient lies exactly halfway between two doubles (its low 11
    bits are 10000000000); such a cell is read by ``float``.  A cell with
    no point is M converted to float64, correctly rounded.  Cells that
    begin with ``-`` are negated last, so ``-0`` reads as -0.0.
    """
    raw = np.frombuffer(body, dtype=np.uint8)
    marks = np.flatnonzero(raw < 48)  # every ",", "\n", "-" and "."
    kind = raw[marks]
    ends = np.append(marks[kind <= 44], raw.size)  # "\n" is 10, "," 44
    starts = np.append(0, ends[:-1] + 1)
    minus = marks[kind == 45]
    points = marks[kind == 46]
    minus_cell = np.searchsorted(ends, minus)
    point_cell = np.searchsorted(ends, points)
    if np.any(starts[minus_cell] != minus) or np.any(np.diff(point_cell) < 1):
        return None
    k = ends[point_cell] - points - 1
    if k.max(initial=0) > _MAX_FRACTION_DIGITS:
        return None
    # a cell left with no digit stops the read short of one value per cell
    m = _read_cells(body.translate(_BREAK_TO_COMMA, b"-."), np.int64)
    if m is None or m.size != ends.size or m.max() >= _MAX_DIGITS_VALUE:
        return None
    quotient = m[point_cell].astype(np.longdouble) / _POW10[k]
    halfway = (quotient.view(np.uint64)[0::2] & 0x7FF) == 0x400
    cells = m.astype(float)
    cells[point_cell] = quotient.astype(float)
    cells[minus_cell] = -cells[minus_cell]
    for c in point_cell[halfway]:
        cells[c] = float(body[starts[c]:ends[c]])
    return cells


def _parse_rows(text: str, meta: SpecimenMeta) -> RawCurve:
    """The row walk: read_table, then each row converted in turn."""
    _, rows = read_table(text, CURVE_HEADER)
    values = [finite_cells(lineno, cells) for lineno, cells in rows]
    if len(values) < 2:
        raise EmptyCurve(f"fewer than 2 data rows ({len(values)})")
    d_um, f_n = np.array(values).T
    return _collapse_duplicates(d_um, f_n, meta)


def _collapse_duplicates(d_um: np.ndarray, f_n: np.ndarray, meta: SpecimenMeta) -> RawCurve:
    """The curve of parsed columns: rows sorted by displacement, equal ones' forces averaged.

    Displacements already strictly increasing skip the sort and the
    averaging, which would leave them as they are; ``+ 0.0`` stands in for
    the averaging's ``0.0 + f``, which turns a -0.0 force into +0.0.
    """
    if np.all(d_um[1:] > d_um[:-1]):
        return RawCurve(frozen(d_um / 1000.0), frozen(f_n + 0.0), meta)
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
    """A raw curve read onto a uniform grid by the grid's rule.

    Both rules read the piecewise-linear interpolant of the recorded rows.
    RULE_INTERVAL_MEAN gives grid point x the mean of the interpolant over
    its cell [x - h/2, x + h/2], so every recorded row reaches some point;
    RULE_POINT gives it the interpolant's value at x.  A mean comes in
    closed form from the trapezoid areas of the rows: those of the whole
    segments inside the cell, and at each cell edge e between rows d_k and
    d_k+1 the part trapezoid (e - d_k) * (f_k + f(e)) / 2, which holds the
    segment's quadratic term.  A cell that sticks out past the recorded
    span reads there the linear extension of the chord over its part
    inside the span, from the span's end to its edge inside it (or to the
    span's other end, where that is nearer): an affine curve's means are
    its values at the points, end cells included, and the extension's
    slope spans half a cell of rows, not the one end segment, whose noise
    it would multiply.  The cell edges are computed once per grid.

    A point whose cell lies wholly outside the span, under the interval
    rule, or that lies itself outside it, under the point rule, takes the
    nearest end force (constant extrapolation); the count of points past
    the last raw displacement is flagged as n_extrapolated.  A grid with
    no point inside that span raises GridOutsideCurve: every force would
    be an end force.  Forces whose trapezoid areas overflow (rows near the
    largest double) raise NonFiniteValue under the interval rule.
    """
    points, edges, half_inverse_width = grid._cells
    d, f = curve.displacement_mm, curve.force_N
    first, last = d[0].item(), d[-1].item()
    inside = int(points.searchsorted(last, "right"))
    if inside <= points.searchsorted(first):
        raise GridOutsideCurve(f"no grid point lies within the recorded displacements "
                               f"[{first}, {last}] mm (grid {grid.start_mm} to {grid.end_mm} mm)")
    if grid.rule == RULE_POINT:
        forces = np.interp(points, d, f)
    else:
        # edges at or before the first row, and before the last: the end
        # cells are lo - 1 and hi - 1, and those past them lie wholly outside
        lo, hi = int(edges.searchsorted(first, "right")), int(edges.searchsorted(last))
        forces = _interval_means(d, f, edges, half_inverse_width, lo, hi)
        forces[:max(lo - 1, 0)] = f[0]
        forces[hi:] = f[-1]
        if not np.isfinite(forces).all():
            raise NonFiniteValue("forces overflow the running area of their interval means")
    return UniformCurve(grid=grid, force_N=frozen(forces), meta=curve.meta,
                        n_extrapolated=grid.n_points - inside)


def _on_segments(xp: np.ndarray, fp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The piecewise-linear interpolant of rows (xp, fp) at x, the end segments extended.

    f(x) = f_k + lam * (f_k+1 - f_k), lam = (x - x_k) / (x_k+1 - x_k): no
    slope is formed, so a steep segment cannot overflow.
    """
    k = xp[1:-1].searchsorted(x, "right")
    f_k = fp[k]
    return f_k + (x - xp[k]) / (xp[k + 1] - xp[k]) * (fp[k + 1] - f_k)


def _interval_means(d: np.ndarray, f: np.ndarray, edges: np.ndarray,
                    half_inverse_width: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Mean of the rows' piecewise-linear interpolant over each cell between edges.

    Edge e reads segment k of the rows, d_k <= e < d_k+1, the first or last
    segment extended past the span.  Twice the area from d_k to e is the
    part trapezoid (e - d_k) * (f_k + f(e)), with f(e) = f_k + lam * (f_k+1
    - f_k) and lam = (e - d_k) / (d_k+1 - d_k): no slope is formed, so a
    steep segment cannot overflow.  Twice a cell's area is then the whole
    segments' trapezoids from one edge's segment to the next's, summed,
    plus the right edge's part trapezoid less the left edge's.

    The end cells, lo - 1 from edge lo - 1 <= d_0 and hi - 1 to edge hi > d_n
    (see resample), read past the span along the chord from the span's end
    to the curve at their inner edge, or at the span's other end where that
    is nearer: f(e) there is read on that chord, and the right edge's part
    trapezoid runs from d_n, after the last segment's whole one.  Overflow
    leaves inf or NaN in the means for the caller to refuse, and no warning.
    """
    k = d[1:-1].searchsorted(edges, "right")
    d_k, f_k = d[k], f[k]
    t = edges - d_k
    with np.errstate(over="ignore", invalid="ignore"):
        rise = t / (d[1:][k] - d_k) * (f[1:][k] - f_k)

        def on_chord(outer: int, end: int, inner: int) -> float:
            # f at edge outer on the chord from row end (0 or -1) to the
            # curve at edge inner, or at the other end row where that is nearer
            if d[0] <= edges[inner] <= d[-1]:
                x, f_x = edges[inner], f_k[inner] + rise[inner]
            else:
                x, f_x = d[-1 - end], f[-1 - end]
            return f[end] + (edges[outer] - d[end]) / (x - d[end]) * (f_x - f[end])

        part = t * (f_k + f_k + rise)
        if lo > 0 and edges[lo - 1] < d[0]:
            part[lo - 1] = t[lo - 1] * (f[0] + on_chord(lo - 1, 0, lo))
        if hi < edges.size and edges[hi] > d[-1]:
            part[hi] = ((d[-1] - d[-2]) * (f[-2] + f[-1])
                        + (edges[hi] - d[-1]) * (f[-1] + on_chord(hi, -1, hi - 1)))
        whole = np.add.reduceat((d[1:] - d[:-1]) * (f[1:] + f[:-1]), k)[:-1]
        whole[k[1:] == k[:-1]] = 0.0  # reduceat's sum of an empty run is its first value
        return (whole + part[1:] - part[:-1]) * half_inverse_width


def _moving_average5(f: np.ndarray) -> np.ndarray:
    """Centered moving average of window 5 along each row, truncated at the ends."""
    n = f.shape[1]
    idx = np.arange(n)
    lo = np.maximum(idx - 2, 0)
    hi = np.minimum(idx + 2, n - 1)
    csum = np.zeros((f.shape[0], n + 1))
    np.cumsum(f, axis=1, out=csum[:, 1:])
    return (csum[:, hi + 1] - csum[:, lo]) / (hi - lo + 1)


def _v_star_rows(v_star, n_curves: int) -> np.ndarray:
    """The fixed-v displacement of every curve: one shared value or one per curve.

    Any other shape, or a value that is not numbers, is refused.  The result
    is always a new array, never the caller's, as the markers freeze it.
    """
    if v_star is None:
        raise BadConfig("fixed-v marker strategy requires v_star")
    try:
        values = np.array(v_star, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"v_star must be numbers: {exc}") from None
    if values.ndim == 0:
        return np.full(n_curves, float(values))
    if values.ndim != 1:
        raise LengthMismatch(f"v_star of shape {values.shape} for {n_curves} curves")
    if values.size != n_curves:
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
    its error (see CurveMarkers), except that a max-slope row whose smoothing
    overflows is refused before any row's markers are checked.

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
        by every curve or a 1-D sequence of one per curve, nothing else;
        F_i is the piecewise-linear interpolated force at v_i, by
        ``np.interp`` on each row, or where its slope overflows, by
        _on_segments, which forms none.

    Raises
    ------
    TooShort
        Fewer than 5 grid points.
    NonFiniteValue
        max-slope on a curve whose force sums or slopes overflow, naming it.
    BadConfig
        An unknown strategy, or fixed-v without a numeric v_star.
    LengthMismatch
        A v_star that is neither one value nor one per curve, in 1-D.
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
        with np.errstate(over="ignore", invalid="ignore"):
            diffs = np.diff(_moving_average5(f), axis=1)
        raise_first_failure(f.shape[0], [(~np.all(np.isfinite(diffs), axis=1), lambda r: (
            NonFiniteValue("forces overflow the max-slope smoothing")))])
        # diffs[:, j-1] belongs to grid point j; restrict to j >= _SLOPE_SKIP
        j = _SLOPE_SKIP + np.argmax(diffs[:, _SLOPE_SKIP - 1:], axis=1)
        v_i = gx[j]
        f_i = f[np.arange(f.shape[0]), j]
    elif strategy == MARKER_FIXED_V:
        v_i = _v_star_rows(v_star, f.shape[0])
        f_i = np.array([np.interp(v, gx, row) for v, row in zip(v_i, f)])
        # np.interp forms the slope, which a rise near the largest double
        # overflows: such a row is read again without one
        for r in np.flatnonzero(~np.isfinite(f_i)):
            f_i[r] = _on_segments(gx, f[r], min(max(v_i[r], gx[0]), gx[-1]))
    else:
        raise BadConfig(f"unknown marker strategy: {strategy!r}")

    return CurveMarkers(
        f_max_N=frozen(np.max(f, axis=1)),
        v_at_fmax_mm=frozen(gx[np.argmax(f, axis=1)]),
        f_instability_N=frozen(f_i),
        v_instability_mm=frozen(v_i),
    )
