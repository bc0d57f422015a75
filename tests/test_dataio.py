"""File formats: round trips, strictness, stable hashing."""

import numpy as np
import pytest

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
        displacement_mm=np.array([0.0, 0.001, 0.25]),
        force_N=np.array([0.0, 1.5, 2.25]),
        meta=make_meta(),
    )
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "displacement_um,force_N"
    assert lines[1] == "0,0.0"
    assert lines[2] == "1,1.5"
    assert lines[3] == "250,2.25"


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
