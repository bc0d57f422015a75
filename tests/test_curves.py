"""Curve parsing, resampling and marker extraction."""

import platform
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from smallpunch import curves as curves_module
from smallpunch.curves import (
    CurveMarkers,
    GridSpec,
    MARKER_FIXED_V,
    MARKER_MAX_SLOPE,
    GRID_RULES,
    MAX_GRID_POINTS,
    RULE_INTERVAL_MEAN,
    RULE_POINT,
    RawCurve,
    UniformCurve,
    _parse_rows,
    _plain_columns,
    extract_markers,
    finite_cells,
    parse_curve_csv,
    read_table,
    resample,
)
from smallpunch.dataio import write_curve_csv
from smallpunch.errors import (
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
    SmallPunchError,
    TooShort,
)
from smallpunch.pipeline import EmpiricalKind
from smallpunch.regress import MODE_MAX_FORCE
from smallpunch.synth import SynthConfig, generate

from conftest import interval_means_reference, make_meta, make_uniform


# ---------------------------------------------------------------- GridSpec

def test_default_grid_covers_1p5mm_with_76_points():
    g = GridSpec()
    d = g.displacements()
    assert g.rule == RULE_INTERVAL_MEAN
    assert d.shape == (76,)
    assert d[0] == 0.0
    assert d[-1] == pytest.approx(1.5, abs=1e-12)
    assert np.all(np.diff(d) > 0)


def test_grid_end_matches_start_plus_spacing():
    g = GridSpec(start_mm=0.0, spacing_mm=0.02, n_points=11)
    assert g.end_mm == pytest.approx(0.2, abs=1e-12)
    assert g.displacements()[-1] == g.end_mm


def test_grid_rejects_bad_values():
    with pytest.raises(BadConfig):
        GridSpec(spacing_mm=0.0)
    for n_points in (0, 151.0, True, MAX_GRID_POINTS + 1):
        with pytest.raises(BadConfig):
            GridSpec(n_points=n_points)
    assert GridSpec(n_points=MAX_GRID_POINTS).n_points == MAX_GRID_POINTS
    with pytest.raises(BadConfig):
        GridSpec(start_mm=-0.1)
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(BadConfig):
            GridSpec(start_mm=value)
        with pytest.raises(BadConfig):
            GridSpec(spacing_mm=value)
    with pytest.raises(BadConfig):
        GridSpec(spacing_mm=1e307)  # the end overflows to inf


# ------------------------------------------------------------- SpecimenMeta

def test_meta_validation():
    with pytest.raises(InvalidSpecimen):
        make_meta(thickness=0.0)
    with pytest.raises(InvalidSpecimen):
        make_meta(temperature=-300.0)
    with pytest.raises(InvalidSpecimen):
        make_meta(rm=-5.0)
    with pytest.raises(InvalidSpecimen):
        make_meta(material="")
    for value in (np.inf, np.nan):
        with pytest.raises(InvalidSpecimen):
            make_meta(thickness=value)
        with pytest.raises(InvalidSpecimen):
            make_meta(rm=value)
    for value in (0.0, -0.5, np.inf, np.nan):
        with pytest.raises(InvalidSpecimen, match="v_i_mm must be finite and > 0 when present"):
            replace(make_meta(), v_i_mm=value)
    assert replace(make_meta(), v_i_mm=0.5).v_i_mm == 0.5


# ----------------------------------------------------------------- parsing

def test_parse_converts_um_to_mm_and_keeps_forces():
    text = "displacement_um,force_N\n0,0\n10,12.5\n20,30.1\n"
    curve = parse_curve_csv(text, make_meta())
    assert np.allclose(curve.displacement_mm, [0.0, 0.010, 0.020], atol=1e-15)
    assert np.array_equal(curve.force_N, [0.0, 12.5, 30.1])


def test_parse_sorts_rows_by_displacement():
    text = "displacement_um,force_N\n20,30.0\n0,0\n10,12.0\n"
    curve = parse_curve_csv(text, make_meta())
    assert np.allclose(curve.displacement_mm, [0.0, 0.010, 0.020], atol=1e-15)
    assert np.array_equal(curve.force_N, [0.0, 12.0, 30.0])


def test_parse_averages_duplicate_abscissae():
    text = "displacement_um,force_N\n0,0\n10,10\n10,14\n20,20\n"
    curve = parse_curve_csv(text, make_meta())
    assert np.allclose(curve.displacement_mm, [0.0, 0.010, 0.020], atol=1e-15)
    assert np.array_equal(curve.force_N, [0.0, 12.0, 20.0])


def test_parse_rejects_bad_header():
    with pytest.raises(MalformedRow):
        parse_curve_csv("displacement_mm,force_N\n0,0\n10,1\n", make_meta())


def test_parse_rejects_wrong_column_count():
    with pytest.raises(MalformedRow) as err:
        parse_curve_csv("displacement_um,force_N\n0,0\n10,1,9\n", make_meta())
    assert "row 3" in str(err.value)


def test_parse_rejects_non_numeric_cell():
    with pytest.raises(MalformedRow) as err:
        parse_curve_csv("displacement_um,force_N\n0,0\nten,1\n", make_meta())
    assert "row 3" in str(err.value)


def test_parse_names_an_empty_file_a_missing_header():
    with pytest.raises(MalformedRow, match="missing header 'displacement_um,force_N'"):
        parse_curve_csv("# only a note\n\n", make_meta())


@pytest.mark.parametrize("text,error,message", [
    ("", MalformedRow, "missing header"),
    ("a,b,a\n1,2,3\n", MalformedRow, "row 1: header names column 'a' twice"),
    ("a,b\n1,2\n3\n", MalformedRow, "row 3: expected 2 columns, got 1"),
    ("a,b\n1,2\n\n3,4,5\n", MalformedRow, "row 4: expected 2 columns, got 3"),
], ids=["empty", "named-twice", "short-row", "long-row"])
def test_read_table_faults_name_the_row(text, error, message):
    with pytest.raises(error) as err:
        read_table(text)
    assert str(err.value) == message


def test_read_table_checks_an_exact_header():
    assert read_table("x,y\n1,2\n", ("x", "y")) == (["x", "y"], [(2, ["1", "2"])])
    with pytest.raises(MalformedRow, match="row 1: expected header 'x,y', got 'x,z'"):
        read_table("x,z\n1,2\n", ("x", "y"))


@pytest.mark.parametrize("cells,error,message", [
    (["1.5", "x"], MalformedRow, "row 7: non-numeric cell"),
    (["1.5", ""], MalformedRow, "row 7: non-numeric cell"),
    (["nan", "1"], NonFiniteValue, "row 7: non-finite value"),
    (["1", "-inf"], NonFiniteValue, "row 7: non-finite value"),
    # float reads these as 10, 12 and 10; a table's numbers are ASCII decimals
    (["1_0", "1"], MalformedRow, "row 7: non-numeric cell"),
    (["1", "\u0661\u0662"], MalformedRow, "row 7: non-numeric cell"),
    (["\uff11\uff10", "1"], MalformedRow, "row 7: non-numeric cell"),
])
def test_finite_cells_faults_name_the_row(cells, error, message):
    with pytest.raises(error) as err:
        finite_cells(7, cells)
    assert str(err.value) == message


def test_finite_cells_converts_with_float():
    assert finite_cells(2, ["1e3", "-0.5", "7"]) == [1000.0, -0.5, 7.0]
    assert finite_cells(2, ["+10", "1e1", ".5", "5."]) == [10.0, 10.0, 0.5, 5.0]


def test_parse_skips_comment_lines():
    plain = parse_curve_csv("displacement_um,force_N\n0,0\n10,12.5\n", make_meta())
    commented = parse_curve_csv(
        "# exported by the test rig\ndisplacement_um,force_N\n0,0\n"
        "  # mid-table note\n10,12.5\n", make_meta())
    assert np.array_equal(commented.displacement_mm, plain.displacement_mm)
    assert np.array_equal(commented.force_N, plain.force_N)


@pytest.mark.parametrize("text", [
    '"displacement_um","force_N"\n0,0\n10,1\n',
    'displacement_um,force_N\n0,0\n"10","1"\n',
])
def test_parse_rejects_quoted_cells(text):
    with pytest.raises(MalformedRow):
        parse_curve_csv(text, make_meta())


def test_parse_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        parse_curve_csv("displacement_um,force_N\n0,0\n10,nan\n", make_meta())
    with pytest.raises(NonFiniteValue):
        parse_curve_csv("displacement_um,force_N\n0,0\ninf,1\n", make_meta())


def test_parse_rejects_too_few_rows():
    with pytest.raises(EmptyCurve):
        parse_curve_csv("displacement_um,force_N\n10,1\n", make_meta())
    with pytest.raises(EmptyCurve):
        parse_curve_csv("displacement_um,force_N\n", make_meta())


def test_parse_then_resample_is_row_permutation_invariant():
    rng = np.random.default_rng(11)
    rows = [(i * 10, float(v)) for i, v in enumerate(rng.uniform(0, 50, 30))]
    rows += [(50, 7.0), (50, 9.0), (120, 3.0)]  # duplicates on purpose

    def build(order):
        body = "\n".join(f"{d},{f!r}" for d, f in order)
        return parse_curve_csv(f"displacement_um,force_N\n{body}\n", make_meta())

    grid = GridSpec(n_points=30)
    base = resample(build(rows), grid)
    for seed in range(3):
        perm = list(rng.permutation(len(rows)))
        shuffled = [rows[i] for i in perm]
        again = resample(build(shuffled), grid)
        assert np.array_equal(base.force_N, again.force_N)


# A grammar around the table dialect: the line breaks splitlines knows,
# padding that str.strip removes (float refuses "\x1f"), spellings float
# accepts or refuses, blank and comment lines, quotes, one or three cells,
# and displacements that are sorted, unsorted or repeated.  Two tables in
# three are plain apart from line breaks and values, most of them with
# every break "\n" or every break CRLF, so that the numpy route is taken
# often; in one plain table in four one cell is one that numpy reads
# otherwise than float.
_BREAKS = st.sampled_from(["\n"] * 4 + ["\r\n", "\r", "\x0c", "\x1e", "\x0b", "\u2028"])
_PADS = st.sampled_from([""] * 8 + [" ", "\t", "\x1f", "\xa0"])
_ODD_CELLS = st.sampled_from(["nan", "inf", "-inf", "1e400", "1_0", "\u0661", "-0.0",
                              "0x1", "", "ten", '"1"', "1#", " "])
# numpy reads a blank cell as -1.0 and skips padding; "1_0" is 10 to float
# alone, "nan(1)" nan to numpy alone; numpy reads "5-1" and "1e" in part
_NUMPY_ODD_CELLS = st.sampled_from([" ", "\t", " 5", "5 ", "\x0b5", "1_0", "nan(1)", "",
                                    "5-1", "1e", "-", "1e400"])


def _with_point(digits: str, k: int) -> str:
    """digits with a point before its last k (a leading point if k is all of them)."""
    return digits[:len(digits) - k] + "." + digits[len(digits) - k:]


# the integer route's edges: 16- to 18-digit decimals, integers of 18
# and 19 digits and past 2**64, and up to 30 digits after the point
_EDGE_NUMBERS = (
    st.builds(_with_point, st.integers(10**15, 10**18 - 1).map(str), st.integers(0, 16))
    | st.integers(10**17, 2**64 + 10**3).map(str)
    | st.builds(lambda m, zeros: "0." + "0" * zeros + str(m),
                st.integers(1, 10**17), st.integers(1, 12))
)
_NUMBERS = (st.integers(-2, 40).map(str)
            | st.floats(-1e3, 1e3).map(repr)
            | st.sampled_from(["0", "-0.0", "0.0", "5", "12.5", ".5", "1.", "-.5", "-0"])
            | st.tuples(st.sampled_from(["", "-"]), _EDGE_NUMBERS).map("".join))
_CELLS = st.tuples(_PADS, st.one_of(*[_NUMBERS] * 9, _ODD_CELLS), _PADS).map("".join)
_HEADERS = st.sampled_from(["displacement_um,force_N"] * 6 + [
    " displacement_um , force_N", "displacement_mm,force_N", '"displacement_um","force_N"',
    "displacement_um,force_N,x", "",
])
_EXTRA_LINES = st.sampled_from(["", "   ", "# note", "  # note", ",", "1,2,3", "4"])


@st.composite
def _curve_tables(draw):
    plain = draw(st.sampled_from([True, True, False]))
    n = draw(st.integers(2, 8) if plain else st.integers(0, 8))
    if draw(st.booleans()):  # strictly increasing, as recorders write them
        steps = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
        displacements = [str(sum(steps[:i + 1])) for i in range(n)]
    else:
        displacements = [str(d) for d in draw(st.lists(st.integers(0, 6), min_size=n,
                                                        max_size=n))]
    lines = ["displacement_um,force_N" if plain else draw(_HEADERS)]
    for d in displacements:
        cells = [d, draw(_NUMBERS if plain else _CELLS)]
        if not plain and draw(st.integers(0, 9)) == 0:
            cells[0] = draw(_CELLS)
        width = 2 if plain else draw(st.sampled_from([2] * 18 + [1, 3]))
        lines.append(",".join((cells + [draw(_CELLS)])[:width]))
    if plain and draw(st.sampled_from([False, False, False, True])):
        row = draw(st.integers(1, n))
        cells = lines[row].split(",")
        cells[draw(st.integers(0, 1))] = draw(_NUMPY_ODD_CELLS)
        lines[row] = ",".join(cells)
    for _ in range(0 if plain else draw(st.sampled_from([0] * 6 + [1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_EXTRA_LINES))
    # plain tables mostly break every line alike; None draws each break
    same = draw(st.sampled_from(["\n", "\n", "\r\n", None])) if plain else None
    breaks = [same or draw(_BREAKS) for _ in lines]
    tail = draw(st.sampled_from(["", "no break"] + ([] if plain else ["", "\n", "\n\n"])))
    text = "".join(line + br for line, br in zip(lines, breaks))
    return text.removesuffix(breaks[-1]) if tail == "no break" else text + tail


def _outcome(parse, text):
    try:
        curve = parse(text, make_meta())
    except SmallPunchError as exc:
        return type(exc), str(exc)
    return curve.displacement_mm.tobytes(), curve.force_N.tobytes()


@settings(max_examples=600, deadline=None)
@given(text=_curve_tables())
def test_whole_table_route_matches_the_row_walk(text):
    assert _outcome(parse_curve_csv, text) == _outcome(_parse_rows, text)


def test_the_grammar_takes_the_numpy_route_in_a_third_of_its_tables(monkeypatch):
    # a table may call np.fromstring twice, once per converter; it counts once
    reached = set()
    read = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *a, **k: reached.add(len(drawn)) or read(*a, **k))
    drawn = []

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(text=_curve_tables())
    def draw(text):
        drawn.append(text)
        _plain_columns(text)

    draw()
    assert len(reached) >= len(drawn) / 3


@pytest.mark.parametrize("text", [
    "displacement_um,force_N\n0,0\n0, \n",  # numpy reads the blank cell as -1.0
    "displacement_um,force_N\n0,0\n10,1_0\n",
    "displacement_um,force_N\n0,0\n10,nan(1)\n",
    "displacement_um,force_N\n0,0\n10,\n",
    "displacement_um,force_N\n0,0\n10,5-1\n",
    "displacement_um,force_N\r\n0,0\r\n10,1\r\r\n",
    *(f"displacement_um,force_N\n0,0\n10,{cell}\n"
      for cell in ["1.2.3", "--5", "5-", "-", ".", "-.", "1.-5"]),
])
def test_cells_numpy_reads_otherwise_take_the_row_walk(text):
    assert _plain_columns(text) is None
    assert _outcome(parse_curve_csv, text) == _outcome(_parse_rows, text)


def test_a_blank_cell_is_a_malformed_row():
    with pytest.raises(MalformedRow, match="row 3: non-numeric cell"):
        parse_curve_csv("displacement_um,force_N\n0,0\n0, \n", make_meta())


def test_a_partial_read_with_numpy_1x_warning_takes_the_row_walk(monkeypatch):
    # numpy 1.x returns the cells read before "5-1" and warns, where
    # numpy 2.x raises ValueError; the warning must not leak a partial read
    text = "displacement_um,force_N\n0,0\n1,5-1\n"

    def read_in_part(string, dtype, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data",
                      DeprecationWarning, stacklevel=2)
        return np.array([0.0, 0.0, 1.0, 5.0])

    monkeypatch.setattr(np, "fromstring", read_in_part)
    for action in ("ignore", "default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            assert _plain_columns(text) is None
            assert _outcome(parse_curve_csv, text) == _outcome(_parse_rows, text)
    assert _outcome(_parse_rows, text) == (MalformedRow, "row 3: non-numeric cell")


def _written_curves(tmp_path):
    raw, _ = generate(SynthConfig(n_materials=1, curves_per_material=3,
                                  noise_sigma_N=5.0, seed=3))
    for i, curve in enumerate(raw):
        path = tmp_path / f"{i}.csv"
        write_curve_csv(path, curve)
        yield path.read_text()


def test_written_curves_take_the_whole_table_route(tmp_path):
    for text in _written_curves(tmp_path):
        for copy in (text, text.replace("\n", "\r\n")):  # as written, and from Windows
            assert _plain_columns(copy) is not None
            assert _outcome(parse_curve_csv, copy) == _outcome(_parse_rows, text)


def _no_row_walk(text, meta):
    raise AssertionError("a plain table took the row walk")


def _no_float_cells(body):
    raise AssertionError("a table of decimal cells took numpy's float reader")


integer_route = pytest.mark.skipif(not curves_module._EXACT_LONG_DOUBLE,
                                   reason="np.longdouble is not x87 extended precision")


@integer_route
@pytest.mark.parametrize("cell", ["595.737078062178", "128.4103428755745", "1179.846138361925",
                                  "589.4191386201", "691.819506475531"])
def test_cells_halfway_in_long_double_read_to_floats_bits(cell, monkeypatch):
    # M / 10**k rounded to 64 bits lies halfway between two doubles, and
    # rounding that again to 53 bits misses float's double by one ulp
    digits, fraction = cell.split(".")
    quotient = np.longdouble(int(digits + fraction)) / curves_module._POW10[len(fraction)]
    assert float(quotient) != float(cell)
    text = f"displacement_um,force_N\n0,0\n1,{cell}\n2,-{cell}\n"
    monkeypatch.setattr(curves_module, "_parse_rows", _no_row_walk)
    monkeypatch.setattr(curves_module, "_float_cells", _no_float_cells)
    assert _plain_columns(text) is not None
    curve = parse_curve_csv(text, make_meta())
    assert curve.force_N.tobytes() == np.array([0.0, float(cell), -float(cell)]).tobytes()


@pytest.mark.parametrize("cell", [
    f"{1234.5678:e}", "1.5E2", "+12.5", "1234567890123456789",
    "18446744073709551617",  # 2**64 + 1, which would wrap to 1
    "0." + "0" * 27 + "5",  # 28 digits after the point
])
def test_plain_cells_the_integer_route_refuses_skip_the_row_walk(cell, monkeypatch):
    text = f"displacement_um,force_N\n0,0\n1,{cell}\n"
    body = text.split("\n", 1)[1].removesuffix("\n").encode()
    assert curves_module._decimal_cells(body) is None
    expected = _outcome(_parse_rows, text)
    monkeypatch.setattr(curves_module, "_parse_rows", _no_row_walk)
    assert _outcome(parse_curve_csv, text) == expected


@integer_route
def test_written_curves_take_the_integer_route(tmp_path, monkeypatch):
    texts = list(_written_curves(tmp_path))
    expected = [_outcome(_parse_rows, text) for text in texts]
    monkeypatch.setattr(curves_module, "_parse_rows", _no_row_walk)
    monkeypatch.setattr(curves_module, "_float_cells", _no_float_cells)
    assert [_outcome(parse_curve_csv, text) for text in texts] == expected


def test_written_curves_read_back_with_the_integer_route_off(tmp_path, monkeypatch):
    texts = list(_written_curves(tmp_path))
    expected = [_outcome(_parse_rows, text) for text in texts]
    monkeypatch.setattr(curves_module, "_EXACT_LONG_DOUBLE", False)
    monkeypatch.setattr(curves_module, "_decimal_cells", None)  # not to be called
    monkeypatch.setattr(curves_module, "_parse_rows", _no_row_walk)
    assert [_outcome(parse_curve_csv, text) for text in texts] == expected


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.machine() == "x86_64"),
                    reason="the x87 long double is known to be there on x86-64 Linux")
def test_the_integer_route_is_on_for_x86_64_linux():
    # the suite must not pass by bypassing the route it means to test
    assert curves_module._long_double_divides_exactly()
    assert curves_module._EXACT_LONG_DOUBLE


@pytest.mark.parametrize("text", [
    "displacement_um,force_N\n0,1,2\n3\n10,4\n",
    "displacement_um,force_N\n0,1\n2\n3,10,4\n",
    "displacement_um,force_N\n0\n1,2,3\n",
])
def test_rows_of_one_and_three_cells_are_not_re_paired(text):
    # four cells on two lines would pair up if commas were only counted
    with pytest.raises(MalformedRow) as err:
        parse_curve_csv(text, make_meta())
    assert (type(err.value), str(err.value)) == _outcome(_parse_rows, text)


@pytest.mark.parametrize("text", [
    "displacement_um,force_N\n0,-0.0\n10,-0.0\n20,5\n",  # sorted: whole-table route
    "displacement_um,force_N\n10,-0.0\n0,-0.0\n20,5\n",  # unsorted
    "displacement_um,force_N\n# note\n0,-0.0\n10,-0.0\n20,5\n",  # row walk
])
def test_negative_zero_force_reads_back_as_positive_zero(text):
    curve = parse_curve_csv(text, make_meta())
    assert np.array_equal(curve.force_N, [0.0, 0.0, 5.0])
    assert not np.any(np.signbit(curve.force_N))


# --------------------------------------------------------------- RawCurve

def test_raw_curve_validation():
    meta = make_meta()
    with pytest.raises(InvalidCurve):
        RawCurve(np.array([0.0, 0.1, 0.1]), np.array([0.0, 1.0, 2.0]), meta)
    with pytest.raises(InvalidCurve):
        RawCurve(np.array([-0.1, 0.1]), np.array([0.0, 1.0]), meta)
    with pytest.raises(InvalidCurve):
        RawCurve(np.array([0.0, 0.1]), np.array([-1.0, 1.0]), meta)
    with pytest.raises(EmptyCurve):
        RawCurve(np.array([0.0]), np.array([0.0]), meta)
    with pytest.raises(NonFiniteValue):
        RawCurve(np.array([0.0, 0.1]), np.array([0.0, np.nan]), meta)
    # negative interior forces are allowed, only the first sample is pinned
    RawCurve(np.array([0.0, 0.1, 0.2]), np.array([0.0, -1.0, 2.0]), meta)


# ---------------------------------------------------------------- ownership

def _frozen(values, dtype=float):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class _Provider:
    """Hands numpy its own frozen, owned buffer through __array__."""

    def __init__(self, values):
        self.buffer = _frozen(values)

    def __array__(self, dtype=None, copy=None):
        return self.buffer


def _record_arrays(record):
    return [v for v in vars(record).values() if isinstance(v, np.ndarray)]


def test_records_keep_a_given_frozen_owned_float64_array():
    d, f = _frozen([0.0, 0.1, 0.2]), _frozen([0.0, 2.0, 1.0])
    raw = RawCurve(d, f, make_meta())
    assert raw.displacement_mm is d and raw.force_N is f
    uni = UniformCurve(grid=GridSpec(n_points=3), force_N=f, meta=make_meta())
    assert uni.force_N is f
    given_markers = [_frozen([2.0]), _frozen([0.1]), _frozen([1.0]), _frozen([0.05])]
    markers = CurveMarkers(*given_markers)
    assert all(kept is given for kept, given in zip(_record_arrays(markers), given_markers))


def _writable(values):
    return np.array(values, dtype=float)


def _read_only_view(values):
    view = np.array(values, dtype=float)[:]
    view.setflags(write=False)
    return view


@pytest.mark.parametrize("make", [
    _writable, _read_only_view, list, _Provider,
    lambda values: _frozen(values, np.float32),
], ids=["writable", "read-only-view", "list", "__array__", "float32"])
def test_records_copy_every_array_they_do_not_own(make):
    d_values, f_values = [0.0, 0.5, 1.0], [1.0, 3.0, 2.0]
    d, f = make(d_values), make(f_values)
    records = [
        RawCurve(d, f, make_meta()),
        UniformCurve(grid=GridSpec(spacing_mm=0.5, n_points=3), force_N=f, meta=make_meta()),
        CurveMarkers(f, f, f, f),
    ]
    given = [np.asarray(a) for a in (d, f)]
    for record in records:
        for kept in _record_arrays(record):
            assert kept.dtype == np.float64 and kept.base is None
            assert not kept.flags.writeable
            assert not any(np.shares_memory(kept, a) for a in given)
    if make is _writable:
        d[:] = 7.0
        f[:] = 7.0
    assert records[0].displacement_mm.tolist() == d_values
    assert records[0].force_N.tolist() == f_values
    assert records[1].force_N.tolist() == f_values
    assert records[2].v_instability_mm.tolist() == f_values


def test_ingest_hands_records_arrays_they_keep(monkeypatch):
    """Parse, resample and markers freeze what they make: no record copies it."""
    copied = []
    rule = curves_module._as_readonly_1d

    def spy(values, name):
        kept = rule(values, name)
        if kept is not values:
            copied.append(name)
        return kept

    monkeypatch.setattr(curves_module, "_as_readonly_1d", spy)
    meta = make_meta()
    grid = GridSpec(n_points=20)
    parsed = [
        parse_curve_csv("displacement_um,force_N\n0,0\n100,5\n200,9\n", meta),
        parse_curve_csv("displacement_um,force_N\n200,9\n0,0\n100,5\n100,7\n", meta),
        parse_curve_csv("# row walk\ndisplacement_um,force_N\n0,0\n100,5\n200,9\n", meta),
    ]
    uniform = [resample(raw, grid) for raw in parsed]
    forces = np.array([curve.force_N for curve in uniform])
    extract_markers(forces, grid)
    extract_markers(forces, grid, MARKER_FIXED_V, v_star=0.05)
    extract_markers(forces, grid, MARKER_FIXED_V, v_star=[0.05, 0.1, 0.15])
    EmpiricalKind(mode=MODE_MAX_FORCE)._markers(uniform, forces)
    assert copied == []


def test_fixed_v_markers_never_freeze_the_callers_v_star():
    v_star = np.array([0.05, 0.1])
    markers = extract_markers(np.tile(np.arange(20.0), (2, 1)), GridSpec(n_points=20),
                              MARKER_FIXED_V, v_star=v_star)
    assert v_star.flags.writeable
    assert not np.shares_memory(markers.v_instability_mm, v_star)


# --------------------------------------------------------------- resample

@pytest.mark.parametrize("rule", GRID_RULES)
def test_resample_affine_curve_is_exact(rule):
    # each cell's mean of an affine curve is its value at the cell's point,
    # end cells included: they read the end segments' linear extension
    raw = RawCurve(np.array([0.0, 1.5]), np.array([0.0, 150.0]), make_meta())
    grid = GridSpec(rule=rule)
    uni = resample(raw, grid)
    assert np.allclose(uni.force_N, 100.0 * grid.displacements(), atol=1e-12)
    assert uni.n_extrapolated == 0


@pytest.mark.parametrize("rule", GRID_RULES)
def test_resample_affine_curve_of_many_rows_is_exact_to_its_end_cells(rule):
    # rows every micrometre, as synth writes them, over a span that ends
    # inside the first and the last cell
    d = np.arange(1, 1500) / 1000.0
    raw = RawCurve(d, 3.0 + 200.0 * d, make_meta())
    grid = GridSpec(rule=rule)
    uni = resample(raw, grid)
    want = 3.0 + 200.0 * grid.displacements()
    if rule == RULE_POINT:  # the end points lie outside the span: end forces
        want[[0, -1]] = raw.force_N[[0, -1]]
    assert np.allclose(uni.force_N, want, rtol=0.0, atol=1e-10)
    assert uni.n_extrapolated == 1


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(2, 40),
    start=st.floats(0.0, 1.0),
    span=st.floats(0.001, 2.0),
    spacing=st.sampled_from([0.005, 0.01, 0.02, 0.05, 0.3]),
    n_points=st.integers(1, 40),
    grid_start=st.floats(0.0, 1.0),
    data=st.data(),
)
def test_resample_matches_the_reference_loop_over_each_cell(rows, start, span, spacing,
                                                            n_points, grid_start, data):
    d = start + span * np.unique(np.r_[0.0, 1.0, np.array(data.draw(
        st.lists(st.floats(0.0, 1.0), min_size=rows - 2, max_size=rows - 2)))])
    assume(np.all(np.diff(d) > 1e-9 * span))
    f = np.array(data.draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=False),
                                    min_size=d.size, max_size=d.size)))
    f[0] = abs(f[0])  # a curve starts at a force >= 0
    grid = GridSpec(start_mm=grid_start, spacing_mm=spacing, n_points=n_points)
    raw = RawCurve(d, f, make_meta())
    try:
        got = resample(raw, grid)
    except GridOutsideCurve:
        assume(False)
    want = interval_means_reference(d, f, grid)
    scale = np.max(np.abs(f)) * max(1.0, spacing / np.min(np.diff(d)))
    assert np.allclose(got.force_N, want, rtol=0.0, atol=1e-9 * scale)


def test_resample_end_cells_carry_less_noise_than_one_row():
    # rows every micrometre from 0 to 1.5 mm, as synth writes them, under
    # noise of 5 N: half of each end cell lies outside the span and reads
    # the chord over its inside half, so the end cells carry less noise than
    # one row, the point rule's reading there (about 4 N against about 1 N
    # for an interior cell, as extrapolating from one side must); the end
    # segment's own extension multiplied a row's noise to about 19 N
    rng = np.random.default_rng(11)
    d = np.arange(1501) / 1000.0
    grid = GridSpec()
    affine = 100.0 + 300.0 * grid.displacements()
    errors = np.array([
        resample(RawCurve(d, 100.0 + 300.0 * d + rng.normal(0.0, 5.0, d.size), make_meta()),
                 grid).force_N - affine
        for _ in range(400)
    ])
    spread = errors.std(axis=0)
    assert np.all(spread[[0, -1]] < 5.0)
    assert np.all(spread[[0, -1]] < 5.0 * np.median(spread[1:-1]))


def test_resample_gives_a_point_with_rows_at_its_cell_edges_the_weighted_mean():
    # rows at x - h/2, x and x + h/2: the cell's two half trapezoids
    # average to (f- + 2 f0 + f+) / 4
    grid = GridSpec()
    x, h = grid.displacements()[10], grid.spacing_mm
    forces = np.array([1.0, 5.0, 2.0])
    raw = RawCurve(np.array([x - h / 2, x, x + h / 2]), forces, make_meta())
    uni = resample(raw, grid)
    assert uni.force_N[10] == pytest.approx((1.0 + 2 * 5.0 + 2.0) / 4, abs=1e-12)


def test_resample_takes_the_mean_of_every_row_in_a_cell():
    # a curve of noise at every row: each interior cell's mean is the rows'
    # trapezoid average over the cell, and the same bits come back alone and
    # among other curves
    rng = np.random.default_rng(5)
    d = np.arange(0, 1501) / 1000.0
    grid = GridSpec()
    curves = [RawCurve(d, rng.normal(100.0, 5.0, d.size), make_meta()) for _ in range(3)]
    means = [resample(c, grid).force_N for c in curves]
    h, f = grid.spacing_mm, curves[1].force_N
    for j in range(1, grid.n_points - 1):
        lo, hi = int(round((grid.displacements()[j] - h / 2) * 1000)), int(round(
            (grid.displacements()[j] + h / 2) * 1000))
        want = np.sum((f[lo:hi] + f[lo + 1:hi + 1]) / 2) / (hi - lo)
        assert means[1][j] == pytest.approx(want, rel=1e-12)
    assert resample(curves[1], grid).force_N.tobytes() == means[1].tobytes()


def test_a_grid_refuses_a_rule_it_does_not_know():
    with pytest.raises(BadConfig, match="grid rule must be one of interval-mean, point, "
                                        "got 'midpoint'"):
        GridSpec(rule="midpoint")


@pytest.mark.parametrize("forces", [
    [0.0, 1e308, 1e308, 1e308, 1e308],  # the running area passes the largest double
    [0.0, 1.7e308, -1.7e308, 0.0, 0.0],  # a segment's rise does
], ids=["area", "rise"])
def test_resample_refuses_forces_whose_interval_means_overflow(forces):
    raw = RawCurve(np.linspace(0.0, 1.5, 5), np.array(forces), make_meta())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="^forces overflow the running area of their "
                                                 "interval means$"):
            resample(raw, GridSpec())


# a rise of 1e308 N over 0.375 mm: np.interp's slope overflows, so under
# the point rule those points are read again with no slope formed, and
# every other point keeps np.interp's bits
def test_point_rule_reads_a_rise_whose_slope_overflows_without_one():
    d, f = np.array([0.0, 0.375, 1.5]), np.array([0.0, 1e308, 1e308])
    grid = GridSpec(rule=RULE_POINT)
    x = grid.displacements()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        interp = np.interp(x, d, f)
        uni = resample(RawCurve(d, f, make_meta()), grid)
    steep = ~np.isfinite(interp)
    assert steep.sum() == 18
    assert uni.force_N[~steep].tobytes() == interp[~steep].tobytes()
    assert uni.force_N[steep] == pytest.approx(x[steep] / 0.375 * 1e308, rel=1e-12)


def test_point_rule_refuses_a_rise_that_overflows_without_a_slope():
    raw = RawCurve(np.array([0.0, 0.375, 1.5]), np.array([0.0, 1.7e308, -1.7e308]),
                   make_meta())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue, match="^forces overflow the rise between their "
                                                 "rows$"):
            resample(raw, GridSpec(rule=RULE_POINT))


def test_resample_hand_checked_interpolation():
    raw = RawCurve(np.array([0.0, 0.02, 0.04]), np.array([0.0, 4.0, 6.0]), make_meta())
    uni = resample(raw, GridSpec(spacing_mm=0.01, n_points=5, rule=RULE_POINT))
    assert uni.force_N[1] == pytest.approx(2.0, abs=1e-12)  # midpoint of first segment
    assert uni.force_N[3] == pytest.approx(5.0, abs=1e-12)


def test_resample_constant_extrapolation_is_flagged():
    raw = RawCurve(np.array([0.0, 1.0]), np.array([0.0, 100.0]), make_meta())
    uni = resample(raw, GridSpec())
    beyond = uni.grid.displacements() > 1.0
    assert uni.n_extrapolated == int(beyond.sum()) == 25
    assert np.all(uni.force_N[beyond] == 100.0)


def test_resample_fills_before_first_sample_with_first_force():
    raw = RawCurve(np.array([0.05, 1.5]), np.array([5.0, 150.0]), make_meta())
    uni = resample(raw, GridSpec())
    # the cells of points 0, 0.02 and 0.04 mm end at or before 0.05 mm
    assert np.all(uni.force_N[:3] == 5.0)
    assert uni.n_extrapolated == 0


@pytest.mark.parametrize("grid", [
    GridSpec(start_mm=100.0),  # wholly past the curve
    GridSpec(start_mm=0.0, spacing_mm=0.01, n_points=3),  # wholly before it
    GridSpec(start_mm=0.0, spacing_mm=2.0, n_points=2),  # straddles it, no point inside
], ids=["after", "before", "straddling"])
def test_resample_refuses_a_grid_with_no_point_inside_the_curve(grid):
    raw = RawCurve(np.array([0.5, 1.5]), np.array([5.0, 150.0]), make_meta())
    with pytest.raises(GridOutsideCurve, match="no grid point lies within"):
        resample(raw, grid)


def test_resample_keeps_a_grid_with_one_point_inside_the_curve():
    raw = RawCurve(np.array([0.5, 1.5]), np.array([5.0, 150.0]), make_meta())
    uni = resample(raw, GridSpec(start_mm=1.5, spacing_mm=0.5, n_points=3))
    assert np.array_equal(uni.force_N, [150.0, 150.0, 150.0])
    assert uni.n_extrapolated == 2


def test_resample_idempotent_bitwise():
    # the point rule only: a cell's mean mixes in its neighbours' forces
    rng = np.random.default_rng(3)
    grid = GridSpec(spacing_mm=0.01, n_points=151, rule=RULE_POINT)
    uni = make_uniform(rng.uniform(0.0, 400.0, 151), grid=grid)
    # view the uniform curve as raw samples and resample onto the same grid
    raw = RawCurve(grid.displacements(), uni.force_N, uni.meta)
    again = resample(raw, grid)
    assert np.array_equal(again.force_N, uni.force_N)
    assert again.n_extrapolated == 0


# ---------------------------------------------------------------- markers

def test_markers_on_monotone_curve():
    uni = make_uniform(np.arange(151.0))
    m = extract_markers([uni.force_N], uni.grid)
    assert m.f_max_N.tolist() == [150.0]
    assert m.v_at_fmax_mm[0] == pytest.approx(1.5, abs=1e-12)
    assert 0.0 < m.v_instability_mm[0] <= m.v_at_fmax_mm[0]
    assert 0.0 < m.f_instability_N[0] <= m.f_max_N[0]


def test_markers_too_short_and_all_zero():
    with pytest.raises(TooShort):
        extract_markers([[0.0, 1.0, 2.0, 3.0]], GridSpec(n_points=4))
    with pytest.raises(AllZero):
        extract_markers([np.zeros(20)], GridSpec(n_points=20))


def _two_stage(knee_index: int, n: int = 151, peak: float = 500.0) -> np.ndarray:
    """Convex rise to the knee, then a flat plateau (steepest just before)."""
    g = GridSpec()
    v = g.displacements()
    v_k = v[knee_index]
    return peak * np.minimum(v / v_k, 1.0) ** 2


def _brute_force_max_slope(forces: np.ndarray, skip: int = 3) -> int:
    """Independent re-derivation: smoothing and argmax by direct loops."""
    n = forces.size
    smooth = np.array([forces[max(0, i - 2): min(n, i + 3)].mean() for i in range(n)])
    best_j, best_d = None, -np.inf
    for j in range(skip, n):
        d = smooth[j] - smooth[j - 1]
        if d > best_d:
            best_j, best_d = j, d
    return best_j


def test_max_slope_recovers_planted_knee_within_two_steps():
    for knee in (30, 50, 70):
        forces = _two_stage(knee)
        m = extract_markers([forces], GridSpec(), MARKER_MAX_SLOPE)
        j_hat = int(round(m.v_instability_mm[0] / GridSpec().spacing_mm))
        assert abs(j_hat - knee) <= 2, f"knee {knee}: detected {j_hat}"
        assert j_hat == _brute_force_max_slope(forces)
        assert m.f_instability_N[0] == forces[j_hat]  # unsmoothed force at the marker


def test_fixed_v_interpolates_between_grid_points():
    m = extract_markers([np.arange(151.0) * 2.0], GridSpec(spacing_mm=0.01, n_points=151),
                        MARKER_FIXED_V, v_star=0.015)
    assert m.v_instability_mm.tolist() == [0.015]
    assert m.f_instability_N[0] == pytest.approx(3.0, abs=1e-12)


def test_fixed_v_requires_v_star():
    with pytest.raises(BadConfig):
        extract_markers([np.arange(20.0)], GridSpec(n_points=20), MARKER_FIXED_V)


def test_a_0d_v_star_is_one_shared_value():
    forces, grid = np.tile(np.arange(20.0), (3, 1)), GridSpec(n_points=20)
    shared = extract_markers(forces, grid, MARKER_FIXED_V, 0.05)
    for v_star in (np.array(0.05), [0.05] * 3):
        got = extract_markers(forces, grid, MARKER_FIXED_V, v_star)
        assert got.v_instability_mm.tobytes() == shared.v_instability_mm.tobytes()
        assert got.f_instability_N.tobytes() == shared.f_instability_N.tobytes()


@pytest.mark.parametrize("v_star, error, message", [
    (np.full((1, 8), 0.5), LengthMismatch, "v_star of shape (1, 8) for 8 curves"),
    ([[0.5] * 8], LengthMismatch, "v_star of shape (1, 8) for 8 curves"),
    ([0.5, 0.5], LengthMismatch, "2 v_star values for 8 curves"),
    ("half", BadConfig, "v_star must be numbers"),
    ([0.5] * 7 + ["half"], BadConfig, "v_star must be numbers"),
    (object(), BadConfig, "v_star must be numbers"),
])
def test_a_v_star_that_is_not_one_value_or_one_per_curve_is_refused(v_star, error, message):
    with pytest.raises(error) as err:
        extract_markers(np.tile(np.arange(20.0), (8, 1)), GridSpec(n_points=20), MARKER_FIXED_V,
                        v_star)
    assert type(err.value) is error and str(err.value).startswith(message)


def test_max_slope_refuses_forces_that_overflow_the_smoothing_naming_the_curve():
    # forces summing past the largest double would pick a NaN slope's point
    grid, ramp = GridSpec(spacing_mm=0.01, n_points=20), np.arange(20.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteValue) as err:
            extract_markers(np.array([ramp, ramp * 5e306]), grid)
        assert str(err.value) == "curve 1: forces overflow the max-slope smoothing"
        # a sum of 9.5e307 keeps its markers, and fixed-v never smooths
        big = extract_markers(np.array([ramp, ramp * 5e305]), grid)
        assert big.f_max_N.tolist() == [19.0, 19 * 5e305]
        fixed = extract_markers(np.array([ramp, ramp * 5e306]), grid, MARKER_FIXED_V, 0.05)
        assert fixed.f_instability_N.tolist() == [5.0, 2.5e307]
        # on the default spacing v* lies between two points, whose rise of
        # 5e306 N over 0.02 mm is a slope past the largest double
        between = extract_markers(np.array([ramp, ramp * 5e306]), GridSpec(n_points=20),
                                  MARKER_FIXED_V, 0.05)
        assert between.f_instability_N[0] == 2.5
        assert between.f_instability_N[1] == pytest.approx(1.25e307, rel=1e-12)


def test_unknown_strategy_rejected():
    with pytest.raises(BadConfig):
        extract_markers([np.arange(20.0)], GridSpec(n_points=20), "slope-of-slopes")


def test_marker_scale_equivariance_exact_for_power_of_two():
    forces = _two_stage(40)
    base = extract_markers([forces], GridSpec())
    scaled = extract_markers([forces * 4.0], GridSpec())
    assert scaled.f_max_N == base.f_max_N * 4.0
    assert scaled.f_instability_N == base.f_instability_N * 4.0
    assert scaled.v_at_fmax_mm == base.v_at_fmax_mm
    assert scaled.v_instability_mm == base.v_instability_mm


def test_marker_scale_equivariance_general_factor():
    forces = _two_stage(55)
    for strategy, kwargs in ((MARKER_MAX_SLOPE, {}), (MARKER_FIXED_V, {"v_star": 0.42})):
        base = extract_markers([forces], GridSpec(), strategy, **kwargs)
        scaled = extract_markers([forces * 3.0], GridSpec(), strategy, **kwargs)
        assert scaled.f_max_N == pytest.approx(3.0 * base.f_max_N, rel=1e-12)
        assert scaled.f_instability_N == pytest.approx(3.0 * base.f_instability_N, rel=1e-12)
        assert scaled.v_at_fmax_mm == base.v_at_fmax_mm
        assert scaled.v_instability_mm == base.v_instability_mm


def test_marker_invariants_enforced():
    with pytest.raises(InvalidMarkers):
        CurveMarkers(f_max_N=[10.0], v_at_fmax_mm=[1.0], f_instability_N=[11.0],
                     v_instability_mm=[0.5])
    with pytest.raises(InvalidMarkers):
        CurveMarkers(f_max_N=[10.0], v_at_fmax_mm=[0.4], f_instability_N=[5.0],
                     v_instability_mm=[0.5])
    with pytest.raises(InvalidMarkers):
        CurveMarkers(f_max_N=[10.0], v_at_fmax_mm=[1.0], f_instability_N=[0.0],
                     v_instability_mm=[0.5])


@pytest.mark.parametrize("make, error, message", [
    (lambda: RawCurve(np.zeros((2, 2)), np.zeros(2), make_meta()), InvalidCurve,
     "displacement_mm must be one-dimensional"),
    (lambda: RawCurve(np.array([0.0, 0.1, 0.2]), np.array([0.0, 1.0]), make_meta()),
     InvalidCurve, "displacement and force must have equal length"),
    (lambda: RawCurve(np.array([0.0, np.inf]), np.array([0.0, 1.0]), make_meta()),
     NonFiniteValue, "non-finite displacement value"),
    (lambda: UniformCurve(GridSpec(n_points=5), np.array([0.0, 1.0, np.nan, 3.0, 4.0]),
                          make_meta()), NonFiniteValue, "non-finite force value"),
    (lambda: UniformCurve(GridSpec(n_points=5), np.ones(5), make_meta(), n_extrapolated=6),
     InvalidCurve, "n_extrapolated out of range: 6"),
    (lambda: UniformCurve(GridSpec(n_points=5), np.ones(5), make_meta(), n_extrapolated=-1),
     InvalidCurve, "n_extrapolated out of range: -1"),
    (lambda: CurveMarkers(f_max_N=[10.0, 9.0], v_at_fmax_mm=[1.0], f_instability_N=[5.0],
                          v_instability_mm=[0.5]), InvalidMarkers,
     "marker arrays must have equal lengths"),
], ids=["raw-2d", "raw-lengths", "raw-displacement-inf", "uniform-force-nan",
        "uniform-extrapolated-above", "uniform-extrapolated-below", "markers-lengths"])
def test_a_record_refuses_arrays_it_cannot_hold(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert type(err.value) is error and str(err.value) == message


def test_uniform_curve_length_must_match_grid():
    with pytest.raises(InvalidCurve):
        UniformCurve(grid=GridSpec(), force_N=np.zeros(150), meta=make_meta())
