"""Curve parsing, resampling and marker extraction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallpunch import curves as curves_module
from smallpunch.curves import (
    CurveMarkers,
    GridSpec,
    MARKER_FIXED_V,
    MARKER_MAX_SLOPE,
    MAX_GRID_POINTS,
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
    MalformedRow,
    NonFiniteValue,
    SmallPunchError,
    TooShort,
)
from smallpunch.pipeline import EmpiricalKind
from smallpunch.regress import MODE_MAX_FORCE
from smallpunch.synth import SynthConfig, generate

from conftest import make_meta, make_uniform


# ---------------------------------------------------------------- GridSpec

def test_default_grid_covers_1p5mm_with_151_points():
    g = GridSpec()
    d = g.displacements()
    assert d.shape == (151,)
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
])
def test_finite_cells_faults_name_the_row(cells, error, message):
    with pytest.raises(error) as err:
        finite_cells(7, cells)
    assert str(err.value) == message


def test_finite_cells_converts_with_float():
    assert finite_cells(2, ["1e3", "-0.5", "7"]) == [1000.0, -0.5, 7.0]


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
_NUMBERS = (st.integers(-2, 40).map(str)
            | st.floats(-1e3, 1e3).map(repr)
            | st.sampled_from(["0", "-0.0", "0.0", "5", "12.5"]))
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
    reached = []
    read = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *a, **k: reached.append(1) or read(*a, **k))
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


def test_written_curves_take_the_whole_table_route(tmp_path):
    raw, _ = generate(SynthConfig(n_materials=1, curves_per_material=3,
                                  noise_sigma_N=5.0, seed=3))
    for i, curve in enumerate(raw):
        path = tmp_path / f"{i}.csv"
        write_curve_csv(path, curve)
        text = path.read_text()
        for copy in (text, text.replace("\n", "\r\n")):  # as written, and from Windows
            assert _plain_columns(copy) is not None
            assert _outcome(parse_curve_csv, copy) == _outcome(_parse_rows, text)


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
    markers = CurveMarkers(*given_markers, strategy=MARKER_MAX_SLOPE)
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
        CurveMarkers(f, f, f, f, strategy=MARKER_MAX_SLOPE),
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
    forces = np.array([resample(raw, grid).force_N for raw in parsed])
    extract_markers(forces, grid)
    extract_markers(forces, grid, MARKER_FIXED_V, v_star=0.05)
    extract_markers(forces, grid, MARKER_FIXED_V, v_star=[0.05, 0.1, 0.15])
    EmpiricalKind(mode=MODE_MAX_FORCE)._markers(forces, grid, None)
    assert copied == []


def test_fixed_v_markers_never_freeze_the_callers_v_star():
    v_star = np.array([0.05, 0.1])
    markers = extract_markers(np.tile(np.arange(20.0), (2, 1)), GridSpec(n_points=20),
                              MARKER_FIXED_V, v_star=v_star)
    assert v_star.flags.writeable
    assert not np.shares_memory(markers.v_instability_mm, v_star)


# --------------------------------------------------------------- resample

def test_resample_affine_curve_is_exact():
    raw = RawCurve(np.array([0.0, 1.5]), np.array([0.0, 150.0]), make_meta())
    uni = resample(raw, GridSpec())
    assert np.allclose(uni.force_N, np.arange(151.0), atol=1e-12)
    assert uni.n_extrapolated == 0


def test_resample_hand_checked_interpolation():
    raw = RawCurve(np.array([0.0, 0.02, 0.04]), np.array([0.0, 4.0, 6.0]), make_meta())
    uni = resample(raw, GridSpec(n_points=5))
    assert uni.force_N[1] == pytest.approx(2.0, abs=1e-12)  # midpoint of first segment
    assert uni.force_N[3] == pytest.approx(5.0, abs=1e-12)


def test_resample_constant_extrapolation_is_flagged():
    raw = RawCurve(np.array([0.0, 1.0]), np.array([0.0, 100.0]), make_meta())
    uni = resample(raw, GridSpec())
    beyond = uni.grid.displacements() > 1.0
    assert uni.n_extrapolated == int(beyond.sum()) == 50
    assert np.all(uni.force_N[beyond] == 100.0)


def test_resample_fills_before_first_sample_with_first_force():
    raw = RawCurve(np.array([0.05, 1.5]), np.array([5.0, 150.0]), make_meta())
    uni = resample(raw, GridSpec())
    assert np.all(uni.force_N[:5] == 5.0)
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
    rng = np.random.default_rng(3)
    grid = GridSpec()
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
    m = extract_markers([np.arange(151.0) * 2.0], GridSpec(), MARKER_FIXED_V, v_star=0.015)
    assert m.v_instability_mm.tolist() == [0.015]
    assert m.f_instability_N[0] == pytest.approx(3.0, abs=1e-12)


def test_fixed_v_requires_v_star():
    with pytest.raises(BadConfig):
        extract_markers([np.arange(20.0)], GridSpec(n_points=20), MARKER_FIXED_V)


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
                     v_instability_mm=[0.5], strategy=MARKER_MAX_SLOPE)
    with pytest.raises(InvalidMarkers):
        CurveMarkers(f_max_N=[10.0], v_at_fmax_mm=[0.4], f_instability_N=[5.0],
                     v_instability_mm=[0.5], strategy=MARKER_MAX_SLOPE)
    with pytest.raises(InvalidMarkers):
        CurveMarkers(f_max_N=[10.0], v_at_fmax_mm=[1.0], f_instability_N=[0.0],
                     v_instability_mm=[0.5], strategy=MARKER_MAX_SLOPE)


def test_uniform_curve_length_must_match_grid():
    with pytest.raises(InvalidCurve):
        UniformCurve(grid=GridSpec(), force_N=np.zeros(150), meta=make_meta())
