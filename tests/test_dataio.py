"""File formats: round trips, strictness, stable hashing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smallpunch.curves import GridSpec, RawCurve, SpecimenMeta
from smallpunch.dataio import (
    fmt,
    load_curves,
    read_manifest,
    read_truth,
    sha256_of,
    write_curve_csv,
    write_manifest,
    write_truth,
)
from smallpunch.errors import InvalidSpecimen, MalformedRow
from smallpunch.synth import SynthConfig, SynthRecord, SynthTruth, generate

from conftest import make_meta


def test_fmt_round_trips_doubles():
    for x in (0.1, 1.0 / 3.0, 123456.789, 1e-12, 0.30000000000000004):
        assert float(fmt(x)) == x


def test_curve_csv_round_trip(tmp_path):
    rng = np.random.default_rng(40)
    disp = np.arange(0.0, 0.5, 0.001)
    force = np.abs(np.cumsum(rng.normal(5.0, 1.0, disp.size)))
    curve = RawCurve(displacement_mm=disp, force_N=force, meta=make_meta())
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)

    from smallpunch.curves import parse_curve_csv

    back = parse_curve_csv(path.read_text(), make_meta())
    assert np.allclose(back.displacement_mm, disp, rtol=1e-15, atol=1e-18)
    assert np.array_equal(back.force_N, force)


def test_curve_csv_integer_micrometres(tmp_path):
    curve = RawCurve(
        displacement_mm=np.array([0.0, 0.001, 0.0049999999999, 0.25]),
        force_N=np.array([0.0, 1.5, 1.75, 2.25]),
        meta=make_meta(),
    )
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "displacement_um,force_N"
    assert lines[1] == "0,0.0"
    assert lines[2] == "1,1.5"
    assert lines[3] == "5,1.75"  # 1e-10 um below 5, so written as 5, not truncated to 4
    assert lines[4] == "250,2.25"


def _reference_write_curve_csv(path, curve):
    """The row loop that write_curve_csv replaced, kept as its reference."""
    lines = [",".join(("displacement_um", "force_N"))]
    for d_mm, f_n in zip(curve.displacement_mm, curve.force_N):
        d_um = d_mm * 1000.0
        rounded = round(d_um)
        d_str = str(int(rounded)) if abs(d_um - rounded) < 1e-9 else fmt(d_um)
        lines.append(f"{d_str},{fmt(f_n)}")
    path.write_text("\n".join(lines) + "\n")


def _mm_for_um(um):
    """A displacement in mm that converts to exactly `um` micrometres, if any."""
    mm = um / 1000.0
    for cand in (mm, np.nextafter(mm, np.inf), np.nextafter(mm, -np.inf)):
        if cand * 1000.0 == um:
            return float(cand)
    return mm


_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_DISPLACEMENTS_MM = st.one_of(
    st.floats(min_value=0.0, max_value=1e305),
    st.just(-0.0),
    # within a few 1e-9 um of a whole micrometre, on either side
    st.builds(lambda k, e: (k + e) / 1000.0, st.integers(1, 10**6), st.floats(-3e-9, 3e-9)),
    st.builds(lambda k: _mm_for_um(k + 0.5), st.integers(0, 10**6)),
    st.floats(min_value=2.0**53 / 1000.0, max_value=1e305),
)
_FORCES_N = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-_SMALLEST_NORMAL, max_value=_SMALLEST_NORMAL),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)


@st.composite
def _raw_curves(draw):
    # unique=True also keeps -0.0 and 0.0 from both being drawn
    d = sorted(draw(st.lists(_DISPLACEMENTS_MM, min_size=2, max_size=20, unique=True)))
    f = draw(st.lists(_FORCES_N, min_size=len(d), max_size=len(d)))
    if f[0] < 0.0:
        f[0] = -f[0]
    return RawCurve(displacement_mm=np.array(d), force_N=np.array(f), meta=make_meta())


@settings(max_examples=500, deadline=None)
@given(curve=_raw_curves())
def test_curve_writer_matches_the_row_loop(tmp_path_factory, curve):
    out = tmp_path_factory.mktemp("curve")
    write_curve_csv(out / "columns.csv", curve)
    _reference_write_curve_csv(out / "rows.csv", curve)
    assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


def test_curve_writer_matches_the_row_loop_on_a_synth_set(tmp_path):
    curves, _ = generate(SynthConfig(n_materials=25, curves_per_material=24,
                                     noise_sigma_N=5.0, seed=7))
    for curve in curves:
        write_curve_csv(tmp_path / "columns.csv", curve)
        _reference_write_curve_csv(tmp_path / "rows.csv", curve)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_manifest_round_trip(tmp_path):
    entries = [
        ("a.csv", make_meta(material="P91", temperature=-150.0, rm=612.5)),
        ("b.csv", make_meta(material="S235", temperature=22.0)),  # unlabeled
    ]
    path = tmp_path / "manifest.csv"
    write_manifest(path, entries)
    back = read_manifest(path)
    assert back == entries
    assert back[1][1].rm_MPa is None


def test_manifest_errors_cite_file_and_row(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "file,material_id,temperature_C,thickness_mm,rm_MPa\n"
        "a.csv,P91,20.0,0.5,500.0\n"
        "b.csv,P91,hot,0.5,\n"
    )
    with pytest.raises(MalformedRow) as err:
        read_manifest(path)
    assert "row 3" in str(err.value)
    assert str(path) in str(err.value)


def test_manifest_meta_errors_cite_row(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "file,material_id,temperature_C,thickness_mm,rm_MPa\n"
        "a.csv,P91,20.0,-0.5,500.0\n"
    )
    with pytest.raises(InvalidSpecimen, match="row 2"):
        read_manifest(path)


@pytest.mark.parametrize("read,table", [
    (read_manifest, 'file,material_id,temperature_C,thickness_mm,rm_MPa\n'
                    'a.csv,P91,20.0,0.5,500.0\n"b.csv",P91,20.0,0.5,500.0\n'),
    (read_truth, 'file,rm_MPa,v_i_mm,f_i_N\na.csv,500.0,0.5,400.0\n'
                 'b.csv,"500.0",0.5,400.0\n'),
], ids=["manifest", "truth"])
def test_quoted_cell_is_a_malformed_row(tmp_path, read, table):
    path = tmp_path / "table.csv"
    path.write_text(table)
    with pytest.raises(MalformedRow, match="row 3: quoted cell") as err:
        read(path)
    assert str(path) in str(err.value)


def test_manifest_rejects_wrong_header(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("file,material,temp\na.csv,P91,20\n")
    with pytest.raises(MalformedRow, match="header"):
        read_manifest(path)


def test_manifest_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text(
        "# dataset exported 2026-08-14\n"
        "\n"
        "file,material_id,temperature_C,thickness_mm,rm_MPa\n"
        "a.csv,P91,20.0,0.5,500.0\n"
        "\n"
    )
    assert len(read_manifest(path)) == 1


def test_load_curves_resamples_and_names(tmp_path):
    cfg = SynthConfig(n_materials=1, curves_per_material=3, seed=41)
    curves, _ = generate(cfg)
    names = [f"c{i}.csv" for i in range(len(curves))]
    for name, curve in zip(names, curves):
        write_curve_csv(tmp_path / name, curve)
    write_manifest(tmp_path / "manifest.csv",
                   [(n, c.meta) for n, c in zip(names, curves)])
    got_names, uniform = load_curves(tmp_path / "manifest.csv", GridSpec())
    assert got_names == names
    assert all(u.force_N.size == 151 for u in uniform)
    assert uniform[0].meta == curves[0].meta


def test_str_paths_read_like_paths(tmp_path):
    curves, _ = generate(SynthConfig(n_materials=1, curves_per_material=2, seed=42))
    names = [f"c{i}.csv" for i in range(len(curves))]
    for name, curve in zip(names, curves):
        write_curve_csv(tmp_path / name, curve)
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, [(n, c.meta) for n, c in zip(names, curves)])
    assert read_manifest(str(manifest)) == read_manifest(manifest)
    (names_a, uniform_a), (names_b, uniform_b) = (
        load_curves(path, GridSpec()) for path in (manifest, str(manifest))
    )
    assert names_a == names_b
    assert all(np.array_equal(a.force_N, b.force_N) for a, b in zip(uniform_a, uniform_b))


def _write_set(directory, names):
    curves, _ = generate(SynthConfig(n_materials=1, curves_per_material=len(names), seed=43))
    for name, curve in zip(names, curves):
        (directory / name).parent.mkdir(parents=True, exist_ok=True)
        write_curve_csv(directory / name, curve)
    return curves


@pytest.mark.parametrize("name", [
    "../data/c0.csv", "sub/../../data/c0.csv", "..", "ABSOLUTE",
])
def test_manifest_paths_may_not_leave_its_directory(tmp_path, name):
    data = tmp_path / "data"
    data.mkdir()
    curves = _write_set(data, ["c0.csv"])
    if name == "ABSOLUTE":
        name = str(data / "c0.csv")
    manifest = data / "manifest.csv" if name.startswith("/") else tmp_path / "m" / "manifest.csv"
    manifest.parent.mkdir(exist_ok=True)
    write_manifest(manifest, [("c0.csv", curves[0].meta), (name, curves[0].meta)])
    with pytest.raises(MalformedRow, match="row 3: curve file .* outside") as err:
        load_curves(manifest, GridSpec())
    assert str(manifest) in str(err.value) and name in str(err.value)


def test_manifest_paths_may_name_subdirectories(tmp_path):
    names = ["sub/c0.csv", "sub/deeper/c1.csv", "sub/../c2.csv"]
    curves = _write_set(tmp_path, names)
    write_manifest(tmp_path / "manifest.csv", [(n, c.meta) for n, c in zip(names, curves)])
    got_names, uniform = load_curves(tmp_path / "manifest.csv", GridSpec())
    assert got_names == names and len(uniform) == 3


def test_load_curves_errors_cite_curve_file(tmp_path):
    (tmp_path / "bad.csv").write_text("displacement_um,force_N\n0,zero\n")
    write_manifest(tmp_path / "manifest.csv", [("bad.csv", make_meta())])
    with pytest.raises(MalformedRow, match="bad.csv"):
        load_curves(tmp_path / "manifest.csv", GridSpec())


def test_truth_round_trip(tmp_path):
    truth = SynthTruth(records=(
        SynthRecord("M00", 25.0, 512.3456789, 0.55, 426.9547),
        SynthRecord("M01", -100.0, 734.25, 0.31, 611.875),
    ))
    path = tmp_path / "truth.csv"
    write_truth(path, ["a.csv", "b.csv"], truth)
    back = read_truth(path)
    assert back["a.csv"] == (512.3456789, 0.55, 426.9547)
    assert back["b.csv"] == (734.25, 0.31, 611.875)


def test_write_is_byte_stable(tmp_path):
    cfg = SynthConfig(n_materials=1, curves_per_material=2, noise_sigma_N=2.0,
                      seed=42)
    curves, truth = generate(cfg)
    digests = []
    for attempt in ("one", "two"):
        d = tmp_path / attempt
        d.mkdir()
        write_curve_csv(d / "c0.csv", curves[0])
        write_manifest(d / "manifest.csv", [("c0.csv", curves[0].meta)])
        write_truth(d / "truth.csv", ["c0.csv"], truth)
        digests.append(tuple(sha256_of(d / f)
                             for f in ("c0.csv", "manifest.csv", "truth.csv")))
    assert digests[0] == digests[1]


def test_files_end_with_single_newline(tmp_path):
    write_manifest(tmp_path / "m.csv", [("a.csv", make_meta())])
    text = (tmp_path / "m.csv").read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert "\r" not in text
