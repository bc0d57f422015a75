"""Command-line interface: exit codes, outputs, byte determinism."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import smallpunch
from smallpunch import cli
from smallpunch.cli import main
from smallpunch.curves import GridSpec, RawCurve, SpecimenMeta, UniformCurve, parse_curve_csv
from smallpunch.dataio import (fmt, load_curves, read_manifest, read_truth, sha256_of,
                               write_curve_csv, write_manifest)
from smallpunch.evaluation import cross_validate
from smallpunch.forest import Split
from smallpunch.modelfile import load_model
from smallpunch.pipeline import EmpiricalKind, PcaLmKind, predict_pipeline

from conftest import interval_means_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_dataset(tmp_path, capsys, name="data", sigma=4.0, seed=50,
                 materials=3, per_material=6):
    out = tmp_path / name
    code, _, err = run(
        capsys, "synth", "--materials", str(materials),
        "--per-material", str(per_material), "--noise-sigma", str(sigma),
        "--seed", str(seed), "--out", str(out),
    )
    assert code == 0, err
    return out


# ------------------------------------------------------------------- synth

def test_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    code, stdout, _ = run(capsys, "synth", "--materials", "2",
                          "--per-material", "3", "--seed", "5",
                          "--out", str(out))
    assert code == 0
    assert stdout.strip() == f"wrote 6 curves to {out} (seed 5)"
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "m00_c00.csv", "m00_c01.csv", "m00_c02.csv",
        "m01_c00.csv", "m01_c01.csv", "m01_c02.csv",
        "manifest.csv", "truth.csv",
    ]


def test_synth_rerun_is_byte_identical(tmp_path, capsys):
    a = make_dataset(tmp_path, capsys, name="a", sigma=3.0, seed=9,
                     materials=2, per_material=2)
    b = make_dataset(tmp_path, capsys, name="b", sigma=3.0, seed=9,
                     materials=2, per_material=2)
    for path_a in sorted(a.iterdir()):
        assert sha256_of(path_a) == sha256_of(b / path_a.name)


def test_synth_rejects_negative_noise(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--noise-sigma", "-1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error:" in err and "--noise-sigma" in err


@pytest.mark.parametrize("flags", [
    ("--rm-range", "400", "inf"),
    ("--noise-sigma", "nan"),
    ("--noise-sigma", "inf"),
    ("--temp-slope", "nan"),
])
def test_synth_rejects_non_finite_settings_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "x"
    code, _, err = run(capsys, "synth", *flags, "--out", str(out))
    assert code == 2
    assert "error:" in err and "must be finite" in err and flags[0] in err
    assert not out.exists()


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert main(["synth", "--materials", "2", "--per-material", "2",
                 "--out", str(out)]) == 0
    return out / "manifest.csv"


@pytest.mark.parametrize("argv,flag", [
    (("train", "--pipeline", "rf", "--trees", "0"), "--trees"),
    (("train", "--pipeline", "rf", "--min-leaf", "0"), "--min-leaf"),
    (("train", "--pipeline", "rf", "--max-depth", "0"), "--max-depth"),
    (("train", "--pipeline", "rf", "--mtry", "0"), "--mtry"),
    (("train", "--pipeline", "rf", "--variance-threshold", "0"), "--variance-threshold"),
    (("train", "--pipeline", "pca-lm", "--variance-threshold", "1.5"), "--variance-threshold"),
    (("synth", "--noise-sigma", "-1"), "--noise-sigma"),
    (("synth", "--materials", "0"), "--materials"),
    (("synth", "--per-material", "0"), "--per-material"),
    (("synth", "--beta", "0"), "--beta"),
    (("synth", "--h0", "0"), "--h0"),
    (("train", "--pipeline", "pca-lm", "--seed", "-1"), "--seed"),
    (("train", "--pipeline", "empirical", "--seed", "-1"), "--seed"),
    (("train", "--pipeline", "rf", "--seed", "-1"), "--seed"),
    (("train", "--pipeline", "pca-lm", "--grid-start", "inf"), "--grid-start"),
    (("train", "--pipeline", "pca-lm", "--grid-start", "nan"), "--grid-start"),
    (("train", "--pipeline", "pca-lm", "--grid-spacing", "inf"), "--grid-spacing"),
    (("train", "--pipeline", "pca-lm", "--grid-spacing", "nan"), "--grid-spacing"),
    (("train", "--pipeline", "rf", "--workers", "0"), "--workers"),
])
def test_out_of_range_flag_exits_2_naming_it(tmp_path, capsys, small_manifest,
                                            argv, flag):
    command, *flags = argv
    where = [str(small_manifest)] if command == "train" else []
    code, _, err = run(capsys, command, *where, *flags,
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert "error:" in err and flag in err


@pytest.mark.parametrize("argv,flag", [
    (("cv", "--pipeline", "rf", "--trees", "0"), "--trees"),
    (("cv", "--pipeline", "rf", "--mtry", "0"), "--mtry"),
    (("cv", "--pipeline", "rf", "--variance-threshold", "2"), "--variance-threshold"),
    (("cv", "--pipeline", "pca-lm", "--seed", "-1"), "--seed"),
    (("cv", "--pipeline", "empirical", "--marker", "fixed-v", "--v-star", "-1"), "--v-star"),
    (("cv", "--pipeline", "empirical", "--marker", "fixed-v"), "--v-star or --truth"),
    (("train", "--pipeline", "rf", "--seed", "-1"), "--seed"),
    (("train", "--pipeline", "empirical", "--seed", "-1"), "--seed"),
    (("train", "--pipeline", "empirical", "--marker", "fixed-v", "--v-star", "nan"),
     "--v-star"),
], ids=["cv-trees", "cv-mtry", "cv-variance-threshold", "cv-seed", "cv-v-star-negative",
        "cv-fixed-v-without-source", "train-rf-seed", "train-empirical-seed", "train-v-star-nan"])
def test_bad_flag_exits_2_before_any_curve_is_read(tmp_path, capsys, argv, flag):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    (data / "m01_c02.csv").write_text("displacement_um,force_N\n0,zero\n")
    command, *flags = argv
    code, _, err = run(capsys, command, str(data / "manifest.csv"), *flags,
                       "--out", str(tmp_path / "out"))
    assert code == 2 and flag in err
    assert "m01_c02.csv" not in err


def test_unknown_flag_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "synth", "--does-not-exist", "1",
                     "--out", str(tmp_path / "x"))
    assert code == 2


# ---------------------------------------------------------------------- cv

def test_cv_writes_reports_and_matches_library(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys)
    out = tmp_path / "cv"
    code, stdout, _ = run(capsys, "cv", str(data / "manifest.csv"),
                          "--pipeline", "pca-lm", "--k", "3", "--seed", "2",
                          "--out", str(out))
    assert code == 0
    for suffix in ("folds", "samples", "summary"):
        assert (out / f"pca-lm_{suffix}.csv").is_file()

    _, curves = load_curves(data / "manifest.csv", GridSpec())
    report = cross_validate(curves, PcaLmKind(), k=3, seed=2)
    expected = f"pca-lm,3,{fmt(report.mean_rmse)},{fmt(report.std_rmse)}"
    assert stdout.strip() == expected
    summary = (out / "pca-lm_summary.csv").read_text().splitlines()
    assert summary[0] == "pipeline,k,mean_rmse_MPa,std_rmse_MPa"
    assert summary[1] == expected


def test_cv_fixed_v_with_truth_reaches_the_error_of_the_noiseless_interval_means(tmp_path,
                                                                                  capsys):
    # at zero noise the error is that of the noiseless curves' interval
    # means, read by the reference loop over each cell: each cell's mean
    # averages the curve across its knee, so it is not zero; on the point
    # rule, tests/test_evaluation.py holds it at zero
    data = make_dataset(tmp_path, capsys, sigma=0.0, seed=13,
                        materials=2, per_material=6)
    out = tmp_path / "cv0"
    code, stdout, _ = run(capsys, "cv", str(data / "manifest.csv"),
                          "--pipeline", "empirical", "--marker", "fixed-v",
                          "--truth", str(data / "truth.csv"),
                          "--k", "3", "--out", str(out))
    assert code == 0
    mean = float(stdout.strip().split(",")[2])
    truth = read_truth(data / "truth.csv")
    grid = GridSpec()
    curves = []
    for name, meta in read_manifest(data / "manifest.csv"):
        raw = parse_curve_csv((data / name).read_text(), meta)
        curves.append(UniformCurve(grid, interval_means_reference(
            raw.displacement_mm, raw.force_N, grid), replace(meta, v_i_mm=truth[name][1])))
    want = cross_validate(curves, EmpiricalKind(marker_strategy="fixed-v"), k=3, seed=0)
    assert abs(mean - want.mean_rmse) < 1e-6


def test_cv_rejects_k_below_two(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    code, _, err = run(capsys, "cv", str(data / "manifest.csv"),
                       "--pipeline", "pca-lm", "--k", "1",
                       "--out", str(tmp_path / "cv"))
    assert code == 2 and "--k" in err


@pytest.mark.parametrize("pipeline", ["pca-lm", "empirical"])
@pytest.mark.parametrize("stratify", [(), ("--stratify-material",)])
def test_cv_negative_seed_exits_2(tmp_path, capsys, small_manifest, pipeline, stratify):
    code, _, err = run(capsys, "cv", str(small_manifest), "--pipeline", pipeline,
                       "--k", "2", "--seed", "-1", *stratify, "--out", str(tmp_path / "cv"))
    assert code == 2 and "seed must be >= 0" in err


def test_cv_fixed_v_without_source_exits_2(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    code, _, err = run(capsys, "cv", str(data / "manifest.csv"),
                       "--pipeline", "empirical", "--marker", "fixed-v",
                       "--k", "2", "--out", str(tmp_path / "cv"))
    assert code == 2 and "--v-star or --truth" in err


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("v_star", [(), ("--v-star", "1.6")], ids=["alone", "v-star"])
def test_max_force_refuses_another_marker_before_any_file_is_read(tmp_path, capsys, command,
                                                                   v_star):
    # max-force reads F_m and v_m alone, so it takes no marker but max-slope
    out = tmp_path / "out"
    code, _, err = run(capsys, command, str(tmp_path / "missing" / "manifest.csv"),
                       "--pipeline", "empirical", "--mode", "max-force", "--marker", "fixed-v",
                       *v_star, "--out", str(out))
    # the error names every flag that fills the kind
    named = "/".join(("--mode", "--marker", *v_star[:1]))
    assert (code, err) == (2, f"error: {named}: the max-force mode reads no instability "
                              "marker, got marker strategy 'fixed-v'\n")
    assert not out.exists()


def test_cv_stratified_runs(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=4, per_material=4)
    code, stdout, _ = run(capsys, "cv", str(data / "manifest.csv"),
                          "--pipeline", "empirical", "--k", "4",
                          "--stratify-material",
                          "--out", str(tmp_path / "cvs"))
    assert code == 0
    assert np.isfinite(float(stdout.strip().split(",")[2]))


@pytest.mark.parametrize("materials", [0, 1])
def test_cv_stratified_needs_two_materials(tmp_path, capsys, materials):
    manifest = make_dataset(tmp_path, capsys, materials=1, per_material=4) / "manifest.csv"
    if materials == 0:
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
    code, _, err = run(capsys, "cv", str(manifest), "--pipeline", "empirical",
                       "--k", "2", "--stratify-material", "--out", str(tmp_path / "cv"))
    assert code == 4 and f"materials={materials}" in err
    assert not (tmp_path / "cv").exists()


# ------------------------------------------------------------------- train

def test_train_each_family(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = make_dataset(tmp_path, capsys)
    manifest = data / "manifest.csv"

    for pipeline, extra in (
        ("empirical", []),
        ("pca-lm", []),
        ("rf", ["--trees", "10"]),
    ):
        model_path = tmp_path / f"{pipeline}.json"
        code, stdout, err = run(capsys, "train", str(manifest),
                                "--pipeline", pipeline, *extra,
                                "--out", str(model_path))
        assert code == 0, err
        lines = stdout.splitlines()
        assert lines[0].startswith("training_rmse_MPa=")
        assert lines[-1] == f"saved {model_path}"
        if pipeline == "pca-lm":
            assert lines[1].startswith("pca_components=")
            cum = float(lines[1].split("cumulative_explained_variance=")[1])
            assert cum >= 0.99

        trained, provenance = load_model(model_path)
        assert trained.kind.name == pipeline
        assert provenance["seed"] == 0
        assert provenance["created"] == "2023-11-14T22:13:20Z"
        assert provenance["manifest_sha256"] == sha256_of(manifest)


@pytest.mark.parametrize("rf_input", ["raw", "scores"])
def test_train_rf_reports_oob_error_and_top_importances_on_stderr(tmp_path, capsys, rf_input):
    manifest = make_dataset(tmp_path, capsys) / "manifest.csv"
    model_path = tmp_path / "rf.json"
    code, stdout, err = run(capsys, "train", str(manifest), "--pipeline", "rf", "--trees", "10",
                            "--rf-input", rf_input, "--out", str(model_path))
    assert code == 0, err
    assert [line.split("=")[0] for line in stdout.splitlines()] == (
        ["training_rmse_MPa", "saved " + str(model_path)] if rf_input == "raw"
        else ["training_rmse_MPa", "pca_components", "saved " + str(model_path)])
    model = load_model(model_path)[0].model
    oob, top = err.splitlines()
    assert oob == f"oob_rmse_MPa={fmt(model.oob_rmse)}"
    assert top.startswith("top_importances=")
    pairs = [item.rsplit(":", 1) for item in top.split("=", 1)[1].split(",")]
    shares = [float(share) for _, share in pairs]
    assert len(pairs) == min(5, model.n_features)
    assert shares == sorted(model.importances, reverse=True)[:5]
    labels = [label for label, _ in pairs]
    if rf_input == "raw":
        assert all(label.startswith("F@") or label == "temperature_C" for label in labels)
    else:
        assert all(label.startswith("pc") for label in labels)


@pytest.mark.parametrize("family", ["pca-lm", "empirical"])
def test_train_of_the_other_families_writes_nothing_to_stderr(tmp_path, capsys, family):
    manifest = make_dataset(tmp_path, capsys) / "manifest.csv"
    code, stdout, err = run(capsys, "train", str(manifest), "--pipeline", family,
                            "--out", str(tmp_path / "m.json"))
    assert code == 0 and stdout and err == ""


@pytest.mark.parametrize("module", ["smallpunch", "smallpunch.cli"])
def test_python_dash_m_runs_the_command_line(tmp_path, capsys, monkeypatch, module):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    manifest = make_dataset(tmp_path, capsys) / "manifest.csv"
    code, _, err = run(capsys, "train", str(manifest), "--pipeline", "pca-lm",
                       "--out", str(tmp_path / "in_process.json"))
    assert code == 0, err
    src = str(Path(smallpunch.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "via_m.json"
    done = python_m("train", str(manifest), "--pipeline", "pca-lm", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == (tmp_path / "in_process.json").read_bytes()
    assert python_m("train", str(manifest), "--no-such-flag").returncode == 2


def test_train_is_byte_deterministic_with_pinned_epoch(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = make_dataset(tmp_path, capsys, materials=2, per_material=4)
    outs = []
    for name in ("m1.json", "m2.json"):
        path = tmp_path / name
        code, _, _ = run(capsys, "train", str(data / "manifest.csv"),
                         "--pipeline", "rf", "--trees", "8",
                         "--workers", "3" if name == "m2.json" else "1",
                         "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


# int() also takes spaces, a plus sign, underscores and other scripts'
# digits, spellings `date +%s` never prints
@pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999",
                                   " 17", "17 ", "+17", "1_7", "\u0661\u0667", "17\n"])
def test_a_malformed_source_date_epoch_exits_2_before_any_file_is_read(tmp_path, capsys,
                                                                       monkeypatch, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    model_path = tmp_path / "model.json"
    code, _, err = run(capsys, "train", str(tmp_path / "missing.csv"), "--pipeline", "rf",
                       "--out", str(model_path))
    assert code == 2
    assert f"SOURCE_DATE_EPOCH must be whole seconds since 1970 that a date can hold, " \
           f"got {epoch!r}" in err
    assert not model_path.exists()


# an empty value means unset, and the clock gives the stamp
@pytest.mark.parametrize("epoch,created", [
    ("0", "1970-01-01T00:00:00Z"), ("1577836800", "2020-01-01T00:00:00Z"),
    ("-17", "1969-12-31T23:59:43Z"), ("", "1970-01-01T00:00:42Z")])
def test_a_source_date_epoch_of_ascii_digits_pins_the_stamp(tmp_path, capsys, monkeypatch,
                                                            epoch, created):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: 42.0))
    data = make_dataset(tmp_path, capsys, materials=2, per_material=4)
    model_path = tmp_path / "model.json"
    code, _, err = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "pca-lm",
                       "--out", str(model_path))
    assert code == 0, err
    assert load_model(model_path)[1]["created"] == created


@pytest.mark.parametrize("flags", [("rf", "--trees", "5"), ("pca-lm",), ("empirical",)],
                         ids=["rf", "pca-lm", "empirical"])
def test_train_refuses_targets_too_large_to_fit(tmp_path, capsys, flags):
    # finite strengths SpecimenMeta accepts, whose sums and squares overflow
    data = make_dataset(tmp_path, capsys, materials=2, per_material=4, sigma=5.0, seed=3)
    manifest = data / "manifest.csv"
    entries = read_manifest(manifest)
    huge = np.linspace(1e200, 1.7e200, len(entries)).tolist()
    write_manifest(manifest, [(name, replace(meta, rm_MPa=rm))
                              for (name, meta), rm in zip(entries, huge)])
    model_path = tmp_path / "model.json"
    code, out, err = run(capsys, "train", str(manifest), "--pipeline", *flags,
                         "--out", str(model_path))
    assert (code, out) == (4, "")
    assert err == ("error: targets too large to fit without overflow: 8 targets up to "
                   "1.7e+200 in magnitude, where n * max|y| may be at most 1e+150\n")
    assert not model_path.exists()


# the 151-point grid of 0.01 mm on which the curves below are written, one
# row at each point; cv and train read them on it through the grid flags
GRID_151 = GridSpec(spacing_mm=0.01, n_points=151)
GRID_151_FLAGS = ("--grid-spacing", "0.01", "--grid-points", "151")


def _column_75_alternating(tmp_path, lo, hi):
    """Six curves of unit force but for a row at 0.75 mm, which alternates lo and hi.

    Read on GRID_151, a row at each point, column 75's cell mean is
    (1 + 6 * force + 1) / 8, and columns 74 and 76 see an eighth of it.
    """
    entries = []
    for i in range(6):
        force = np.ones(GRID_151.n_points)
        force[75] = (lo, hi)[i % 2]
        meta = SpecimenMeta("M0", 20.0, 0.5, (500.0, 600.0)[i % 2])
        write_curve_csv(tmp_path / f"c{i}.csv", RawCurve(GRID_151.displacements(), force, meta))
        entries.append((f"c{i}.csv", meta))
    write_manifest(tmp_path / "manifest.csv", entries)
    return tmp_path / "manifest.csv"


# adjacent doubles whose midpoint rounds onto the upper one: growth once
# crashed at the next level, both sides sent left.  The forest sees them
# averaged into column 75's cell and standardized, so a split lies between;
# tests/test_forest.py holds the midpoint rule on adjacent doubles.
@pytest.mark.parametrize("lo,hi", [(1.0000000000000002, 1.0000000000000004)],
                         ids=["rounds-up"])
def test_train_splits_between_values_whose_midpoint_is_not_below_the_upper(tmp_path, capsys,
                                                                            lo, hi):
    manifest = _column_75_alternating(tmp_path, lo, hi)
    model_path = tmp_path / "model.json"
    code, _, err = run(capsys, "train", str(manifest), "--pipeline", "rf",
                       "--trees", "5", *GRID_151_FLAGS, "--out", str(model_path))
    assert code == 0, err
    trained = load_model(model_path)[0]
    column = np.unique([c.force_N[75] for c in load_curves(manifest, GRID_151)[1]])
    assert column.size == 2
    std = trained.standardizer
    low, high = (column - std.means[75]) / std.scales[75]
    assert any(isinstance(root, Split) and root.feature == 75 and low <= root.threshold < high
               for root in trained.model.trees)


def _smallpunch(*argv):
    """Run the command line in a new interpreter: its exit code, stdout and stderr."""
    src = str(Path(smallpunch.__file__).parents[1])
    done = subprocess.run([sys.executable, "-m", "smallpunch", *map(str, argv)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


# finite doubles whose sum overflows: the refusal names the column, and no
# numpy warning reaches stderr.  Rows of 8e307 N pass the interval means,
# column 75's six means then sum past the largest double, and column 74,
# an eighth of the rows, has finite means whose squared spread overflows.
@pytest.mark.parametrize("argv,mean", [
    (("train", "--pipeline", "rf", "--trees", "5"), "1.0312500000000003e+307"),
    (("train", "--pipeline", "pca-lm"), "1.0312500000000003e+307"),
    (("cv", "--pipeline", "pca-lm", "--k", "2"), "1.0208333333333335e+307"),  # fold 0's rows
], ids=["train-rf", "train-pca-lm", "cv-pca-lm"])
def test_standardizing_a_column_whose_sum_overflows_is_refused_naming_it(tmp_path, argv, mean):
    manifest = _column_75_alternating(tmp_path, 8e307, 8.5e307)
    out = tmp_path / "out"
    fold = "fold 0: " if argv[0] == "cv" else ""
    assert _smallpunch(argv[0], manifest, *argv[1:], *GRID_151_FLAGS, "--out", out) == (
        4, "", f"error: {fold}column 74 too large to standardize without overflow: "
               f"mean {mean}, scale inf\n")
    assert not out.exists()


# a row of 1.7e308 N: the interval means' running area passes the largest
# double, and loading refuses the curve, naming its file, with no warning
@pytest.mark.parametrize("command", ["cv", "predict"])
def test_a_curve_whose_running_area_overflows_is_refused_naming_its_file(tmp_path, capsys,
                                                                         command):
    (tmp_path / "big").mkdir()
    manifest = _column_75_alternating(tmp_path / "big", 1.7e308, 1.75e308)
    model = tmp_path / "m.json"
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    code, _, err = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "pca-lm",
                       "--out", str(model))
    assert code == 0, err
    flags = (("--model", model) if command == "predict"
             else ("--pipeline", "pca-lm", "--k", "2"))
    out = tmp_path / "out"
    assert _smallpunch(command, manifest, *flags, "--out", out) == (
        4, "", f"error: {manifest.parent / 'c0.csv'}: forces overflow the running area of "
               "their interval means\n")
    assert not out.exists()


def test_train_rejects_bad_threshold(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    code, _, err = run(capsys, "train", str(data / "manifest.csv"),
                       "--pipeline", "pca-lm", "--variance-threshold", "1.5",
                       "--out", str(tmp_path / "m.json"))
    assert code == 2 and "--variance-threshold" in err


# ----------------------------------------------------------------- predict

def test_predict_matches_library_predictions(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys)
    manifest = data / "manifest.csv"
    model_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", str(manifest), "--pipeline", "pca-lm",
                     "--out", str(model_path))
    assert code == 0

    pred_path = tmp_path / "pred.csv"
    code, stdout, _ = run(capsys, "predict", str(manifest),
                          "--model", str(model_path), "--out", str(pred_path))
    assert code == 0
    assert stdout.strip() == f"wrote 18 predictions to {pred_path}"

    trained, _ = load_model(model_path)
    names, curves = load_curves(manifest, trained.grid)
    expected = predict_pipeline(trained, curves)
    lines = pred_path.read_text().splitlines()
    assert lines[0] == "file,material_id,temperature_C,pred_rm_MPa"
    got = {ln.split(",")[0]: float(ln.split(",")[3]) for ln in lines[1:]}
    for name, value in zip(names, expected):
        assert got[name] == value  # repr round trip, bit for bit


@pytest.mark.parametrize("flag", ["--grid-start", "--grid-spacing", "--grid-points"])
def test_predict_takes_no_grid_flag(tmp_path, capsys, flag):
    # the grid is the model's: reading the missing model would exit 3, so
    # exit 2 shows the flag is refused before any file is read
    out = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", str(tmp_path / "missing.csv"), "--model",
                       str(tmp_path / "missing.json"), flag, "1", "--out", str(out))
    assert code == 2 and "unrecognized arguments" in err
    assert not out.exists()


def test_predict_unknown_model_version_exits_5(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    model_path = tmp_path / "model.json"
    run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
        "--out", str(model_path))
    doc = json.loads(model_path.read_text())
    doc["format_version"] = 8
    model_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"),
                       "--model", str(model_path),
                       "--out", str(tmp_path / "p.csv"))
    assert code == 5 and "format_version" in err


@pytest.mark.parametrize("edit", [
    lambda doc: doc["model"]["feature"].__setitem__(0, 999),
    lambda doc: doc["model"]["feature"].__setitem__(0, -1),
    lambda doc: doc["pipeline"]["config"].update(n_trees=3),
    lambda doc: doc["pipeline"]["config"].update(n_trees=2.5),
    lambda doc: doc["pipeline"]["config"].update(bootstrap="yes"),
    lambda doc: doc["pipeline"]["config"].update(min_leaf=True),
], ids=["feature-999", "feature-negative", "n_trees-mismatch", "n_trees-float",
        "bootstrap-string", "min_leaf-bool"])
def test_predict_with_corrupt_forest_exits_4(tmp_path, capsys, edit):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    model_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "rf",
                     "--trees", "4", "--out", str(model_path))
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert doc["model"]["feature"], "the forest must split"
    edit(doc)
    model_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"),
                       "--model", str(model_path), "--out", str(tmp_path / "p.csv"))
    assert code == 4 and str(model_path) in err
    assert not (tmp_path / "p.csv").exists()


# a pinned format 4 file with blocks that disagree in width, a stray key or
# a setting its family refuses is refused before any curve is read: the
# manifest does not exist
@pytest.mark.parametrize("name,edit,message", [
    ("pca-lm", lambda doc: doc["model"]["coefficients"].append(1.0),
     "model block reads 5 columns, expected 4"),
    ("pca-lm", lambda doc: [doc["standardizer"][key].append(1.0) for key in ("means", "scales")],
     "standardizer block reads 153 columns, expected 152"),
    ("rf-scores", lambda doc: doc["model"].update(n_features=152,
                                                  importances=[1.0 / 152] * 152),
     "model block reads 152 columns, expected 4"),
    ("rf", lambda doc: doc["grid"].update(end_mm=9.0), "unknown key 'end_mm' in the grid block"),
    ("rf", lambda doc: doc.update(extra=1), "unknown key 'extra' at the top level"),
    # max-force reads no instability marker
    ("empirical-max-force", lambda doc: doc["pipeline"].update(marker_strategy="fixed-v"),
     "the max-force mode reads no instability marker, got marker strategy 'fixed-v'"),
], ids=["coefficients-wide", "standardizer-wide", "n_features-wide", "grid-key", "top-key",
        "max-force-marker"])
def test_predict_with_disagreeing_or_stray_blocks_exits_4_before_reading_curves(
        tmp_path, capsys, name, edit, message):
    doc = json.loads((Path(__file__).parent / "data" / f"{name}_v4.json").read_text())
    edit(doc)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "predict", str(tmp_path / "absent.csv"),
                       "--model", str(model_path), "--out", str(tmp_path / "p.csv"))
    assert code == 4 and err.strip() == f"error: {model_path}: {message}"
    assert not (tmp_path / "p.csv").exists()


def test_predict_fixed_v_without_source_exits_2(tmp_path, capsys):
    # a model trained on each curve's v_i stores no v_star
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    model_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", str(data / "manifest.csv"),
                     "--pipeline", "empirical", "--marker", "fixed-v",
                     "--truth", str(data / "truth.csv"), "--out", str(model_path))
    assert code == 0
    code, _, err = run(capsys, "predict", str(tmp_path / "missing.csv"),
                       "--model", str(model_path),
                       "--out", str(tmp_path / "p.csv"))
    assert (code, err) == (2, "error: the fixed-v marker needs --v-star or --truth\n")


def test_predict_checks_a_given_v_star_before_any_curve_is_read(tmp_path, capsys):
    # an empty manifest still needs no v_i source; a given --v-star is
    # checked as soon as the model says it is used
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    model_path = tmp_path / "m.json"
    code, _, err = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
                       "--marker", "fixed-v", "--truth", str(data / "truth.csv"),
                       "--out", str(model_path))
    assert code == 0, err
    (data / "m01_c02.csv").write_text("displacement_um,force_N\n0,zero\n")
    out = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"), "--model", str(model_path),
                       "--v-star", "-1", "--out", str(out))
    assert (code, err) == (2, "error: --v-star: v_star must be finite and > 0, got -1.0\n")
    assert "m01_c02.csv" not in err
    assert not out.exists()


def _fixed_v_at_half(tmp_path, capsys):
    """The 2 x 4 synth set (seed 3, sigma 5 N) and a fixed-v model trained at --v-star 0.5."""
    data = make_dataset(tmp_path, capsys, sigma=5.0, seed=3, materials=2, per_material=4)
    model_path = tmp_path / "m.json"
    code, _, err = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
                       "--marker", "fixed-v", "--v-star", "0.5", "--out", str(model_path))
    assert code == 0, err
    return data, model_path


def test_a_fixed_v_model_stores_its_v_star_and_predicts_with_no_flag(tmp_path, capsys):
    data, model_path = _fixed_v_at_half(tmp_path, capsys)
    assert json.loads(model_path.read_text())["pipeline"] == {
        "family": "empirical", "mode": "instability-force", "marker_strategy": "fixed-v",
        "v_star": 0.5}
    out = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"), "--model",
                       str(model_path), "--out", str(out))
    assert code == 0, err
    assert out.read_text().splitlines()[1].split(",")[::3] == ["m00_c00.csv", "579.4992090532005"]


@pytest.mark.parametrize("flags", [("--v-star", "0.9"), ("--v-star", "0.5"),
                                   ("--truth", "TRUTH")], ids=["v-star", "same", "truth"])
def test_a_stored_v_star_refuses_another_v_i_before_any_curve_is_read(tmp_path, capsys, flags):
    # even the stored value itself: the model alone states its v_star
    data, model_path = _fixed_v_at_half(tmp_path, capsys)
    flags = [str(data / "truth.csv") if flag == "TRUTH" else flag for flag in flags]
    out = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", str(tmp_path / "missing.csv"), "--model",
                       str(model_path), *flags, "--out", str(out))
    assert (code, err) == (2, f"error: {flags[0]}: the model reads the v_star 0.5 it stores\n")
    assert not out.exists()


def test_a_model_without_v_star_predicts_at_the_v_i_it_is_given(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    manifest, truth = str(data / "manifest.csv"), str(data / "truth.csv")
    code, _, err = run(capsys, "train", manifest, "--pipeline", "empirical", "--marker",
                       "fixed-v", "--truth", truth, "--out", str(tmp_path / "m.json"))
    assert code == 0, err
    for name, flags in (("each", ("--truth", truth)), ("shared", ("--v-star", "0.5"))):
        code, _, err = run(capsys, "predict", manifest, "--model", str(tmp_path / "m.json"),
                           *flags, "--out", str(tmp_path / f"{name}.csv"))
        assert code == 0, err
    _, curves = load_curves(data / "manifest.csv", GridSpec())
    trained, _ = load_model(tmp_path / "m.json")
    assert trained.kind.v_star is None
    shared = predict_pipeline(replace(trained, kind=replace(trained.kind, v_star=0.5)), curves)
    assert [line.split(",")[-1] for line in (tmp_path / "shared.csv").read_text().splitlines()[1:]
            ] == [fmt(float(p)) for p in shared]
    assert (tmp_path / "each.csv").read_text() != (tmp_path / "shared.csv").read_text()


@pytest.mark.parametrize("flags,message", [
    (("--marker", "fixed-v", "--v-star", "1.4"),
     "curve 0: regressor 7.300000000000022e+307 / 0.25 overflows"),
    ((), "curve 0: forces overflow the max-slope smoothing"),
], ids=["fixed-v", "max-slope"])
def test_predicting_forces_that_overflow_exits_4_with_no_warning(tmp_path, capsys, flags,
                                                                 message):
    # forces of 1e307 and 8e307 N: an inf strength or a NaN-picked marker before
    data = make_dataset(tmp_path, capsys, sigma=5.0, seed=3, materials=2, per_material=4)
    model_path = tmp_path / "m.json"
    code, _, err = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
                       *flags, "--out", str(model_path))
    assert code == 0, err
    big = tmp_path / "big"
    big.mkdir()
    (big / "big.csv").write_text("displacement_um,force_N\n0,0\n100,50\n500,1e307\n1500,8e307\n")
    write_manifest(big / "manifest.csv", [("big.csv", SpecimenMeta("M9", 20.0, 0.5))])
    out = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "predict", str(big / "manifest.csv"), "--model",
                           str(model_path), "--out", str(out))
    assert (code, err) == (4, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("train", ("--pipeline", "empirical", "--marker", "fixed-v", "--v-star", "-1")),
    ("cv", ("--pipeline", "empirical", "--marker", "fixed-v", "--k", "2", "--v-star", "-1")),
    ("predict", ("--v-star", "nan")),
], ids=["train", "cv", "predict"])
def test_v_star_with_truth_exits_2_before_any_curve_is_read(tmp_path, capsys, command, flags):
    # two sources of v_i: neither may silently win, even a bad --v-star
    data = make_dataset(tmp_path, capsys, materials=3, per_material=4)
    truth = str(data / "truth.csv")
    model_path = tmp_path / "m.json"
    code, _, err = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
                       "--marker", "fixed-v", "--truth", truth, "--out", str(model_path))
    assert code == 0, err
    (data / "m01_c02.csv").write_text("displacement_um,force_N\n0,zero\n")
    model = ("--model", str(model_path)) if command == "predict" else ()
    out = tmp_path / "out"
    code, _, err = run(capsys, command, str(data / "manifest.csv"), *model, *flags,
                       "--truth", truth, "--out", str(out))
    assert code == 2 and "--v-star or --truth, not both" in err
    assert "m01_c02.csv" not in err
    assert not out.exists()


@pytest.mark.parametrize("pipeline", ["pca-lm", "rf"])
@pytest.mark.parametrize("command", ["cv", "train", "predict"])
@pytest.mark.parametrize("flags,named", [
    (("--truth", "/nonexistent.csv"), "--truth"),
    (("--v-star", "-3"), "--v-star"),
    (("--truth", "/nonexistent.csv", "--v-star", "-3"), "--truth and --v-star"),
], ids=["truth", "v-star", "both"])
def test_families_without_markers_refuse_v_i_flags_before_any_file_is_read(
        tmp_path, capsys, pipeline, command, flags, named):
    # the manifest does not exist: reading it would exit 3, not 2
    family = ("--pipeline", pipeline, *(("--trees", "5") if pipeline == "rf" else ()))
    model = ()
    if command == "predict":
        data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
        model_path = tmp_path / "m.json"
        code, _, err = run(capsys, "train", str(data / "manifest.csv"), *family,
                           "--out", str(model_path))
        assert code == 0, err
        family, model = (), ("--model", str(model_path))
    out = tmp_path / "out"
    code, _, err = run(capsys, command, str(tmp_path / "missing" / "manifest.csv"), *family,
                       *model, *flags, "--out", str(out))
    assert code == 2 and f"{named}: the {pipeline} family reads no such flag" in err, err
    assert not out.exists()


# every family flag with a value it takes, the flags each family reads, and
# the setting a family needs to read a flag: the empirical family reads v_i
# only with the fixed-v marker, the rf family its variance threshold only
# with PCA scores
FAMILY_FLAGS = {"--mode": ("max-force",), "--marker": ("max-slope",), "--v-star": ("0.5",),
                "--truth": ("truth.csv",), "--variance-threshold": ("0.9",),
                "--trees": ("5",), "--max-depth": ("3",),
                "--min-leaf": ("1",), "--mtry": ("2",), "--rf-input": ("scores",)}
FOREST_FLAGS = {"--trees", "--max-depth", "--min-leaf", "--mtry", "--rf-input"}
READS = {"empirical": {"--mode", "--marker", "--v-star", "--truth"},
         "pca-lm": {"--variance-threshold"},
         "rf": {"--variance-threshold", *FOREST_FLAGS}}
READS_ONLY_WITH = {("empirical", "--v-star"): ("--marker", "fixed-v"),
                   ("empirical", "--truth"): ("--marker", "fixed-v"),
                   ("rf", "--variance-threshold"): ("--rf-input", "scores")}


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("family,flag", [(family, flag) for family in READS
                                         for flag in FAMILY_FLAGS])
def test_each_family_refuses_the_flags_it_does_not_read_before_any_file_is_read(
        tmp_path, capsys, command, family, flag):
    # the manifest does not exist: reading it would exit 3, not 2
    needs = READS_ONLY_WITH.get((family, flag), ())
    out = tmp_path / "out"
    code, _, err = run(capsys, command, str(tmp_path / "missing" / "manifest.csv"),
                       "--pipeline", family, *needs, flag, *FAMILY_FLAGS[flag],
                       "--workers", "1", "--seed", "3", "--out", str(out))
    if flag in READS[family]:
        assert code == 3, err
    else:
        assert (code, err) == (2, f"error: {flag}: the {family} family reads no such flag\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("marker", [(), ("--marker", "max-slope")], ids=["none", "max-slope"])
@pytest.mark.parametrize("flags,named", [
    (("--v-star", "0.5"), "--v-star"),
    (("--truth", "truth.csv"), "--truth"),
    (("--v-star", "0.5", "--truth", "truth.csv"), "--truth and --v-star"),
], ids=["v-star", "truth", "both"])
def test_the_empirical_family_reads_v_i_flags_only_with_the_fixed_v_marker(
        tmp_path, capsys, command, marker, flags, named):
    code, _, err = run(capsys, command, str(tmp_path / "missing" / "manifest.csv"),
                       "--pipeline", "empirical", *marker, *flags, "--out", str(tmp_path / "out"))
    assert (code, err) == (2, f"error: {named}: the empirical family reads v_i only with "
                              "--marker fixed-v\n")


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("rf_input", [(), ("--rf-input", "raw")], ids=["none", "raw"])
def test_the_rf_family_reads_the_variance_threshold_only_with_pca_scores(
        tmp_path, capsys, command, rf_input):
    out = tmp_path / "out"
    code, _, err = run(capsys, command, str(tmp_path / "missing" / "manifest.csv"),
                       "--pipeline", "rf", *rf_input, "--variance-threshold", "0.5",
                       "--out", str(out))
    assert (code, err) == (2, "error: --variance-threshold: the rf family reads it only with "
                              "--rf-input scores\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "train"])
@pytest.mark.parametrize("pipeline", ["pca-lm", "rf"])
def test_standardizing_cannot_be_switched_off(tmp_path, capsys, command, pipeline):
    # every feature family standardizes; the flag that skipped it is gone
    out = tmp_path / "out"
    code, _, err = run(capsys, command, str(tmp_path / "missing" / "manifest.csv"),
                       "--pipeline", pipeline, "--no-standardize", "--out", str(out))
    assert code == 2 and "unrecognized arguments: --no-standardize" in err, err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--v-star", "0.5"), ("--truth", "truth.csv")],
                         ids=["v-star", "truth"])
@pytest.mark.parametrize("mode", ["instability-force", "max-force"])
def test_predict_refuses_v_i_flags_for_an_empirical_model_without_the_fixed_v_marker(
        tmp_path, capsys, small_manifest, flags, mode):
    model_path = tmp_path / "m.json"
    code, _, err = run(capsys, "train", str(small_manifest), "--pipeline", "empirical",
                       "--mode", mode, "--out", str(model_path))
    assert code == 0, err
    out = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", str(tmp_path / "missing.csv"), "--model",
                       str(model_path), *flags, "--out", str(out))
    assert (code, err) == (2, f"error: {flags[0]}: the empirical family reads v_i only with "
                              "--marker fixed-v\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["cv", "train", "predict"])
def test_non_finite_v_star_exits_2(tmp_path, capsys, command, value):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    manifest = str(data / "manifest.csv")
    fixed_v = ("--pipeline", "empirical", "--marker", "fixed-v")
    model_path = tmp_path / "model.json"
    if command == "predict":
        code, _, _ = run(capsys, "train", manifest, *fixed_v, "--v-star", "0.5",
                         "--out", str(model_path))
        assert code == 0
        argv = ("predict", manifest, "--model", str(model_path))
    elif command == "cv":
        argv = ("cv", manifest, *fixed_v, "--k", "2")
    else:
        argv = ("train", manifest, *fixed_v)
    out = tmp_path / "out"
    code, _, err = run(capsys, *argv, "--v-star", value, "--out", str(out))
    # the kind checks its v_star, and the error names the flags that fill it
    named = "--v-star" if command == "predict" else "--marker/--v-star"
    assert (code, err) == (2, f"error: {named}: v_star must be finite and > 0, got {value}\n")
    assert not out.exists()


@pytest.mark.parametrize("column", [1, 2, 3])
def test_non_finite_truth_cell_exits_4_naming_file_and_row(tmp_path, capsys, column):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    truth = data / "truth.csv"
    lines = truth.read_text().splitlines()
    cells = lines[2].split(",")
    cells[column] = "nan"
    lines[2] = ",".join(cells)
    truth.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "cv", str(data / "manifest.csv"), "--pipeline", "empirical",
                       "--marker", "fixed-v", "--truth", str(truth), "--k", "2",
                       "--out", str(tmp_path / "cv"))
    assert code == 4 and f"{truth}: row 3: non-finite value" in err


def test_a_truth_v_i_that_is_not_positive_exits_4_naming_the_truth_file(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    truth = data / "truth.csv"
    lines = truth.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = "0.0"
    truth.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
    code, _, err = run(capsys, "cv", str(data / "manifest.csv"), "--pipeline", "empirical",
                       "--marker", "fixed-v", "--truth", str(truth), "--k", "2",
                       "--out", str(tmp_path / "cv"))
    assert (code, err) == (4, f"error: --truth: {truth}: v_i_mm must be finite and > 0 when "
                              "present, got 0.0\n")


@pytest.mark.parametrize("command", ["cv", "train"])
def test_truth_without_a_row_for_a_curve_exits_2_naming_both(tmp_path, capsys, command):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    truth = data / "truth.csv"
    lines = truth.read_text().splitlines()
    truth.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    missing = lines[2].split(",")[0]
    k = ("--k", "2") if command == "cv" else ()
    out = tmp_path / "out"
    code, _, err = run(capsys, command, str(data / "manifest.csv"), "--pipeline", "empirical",
                       "--marker", "fixed-v", "--truth", str(truth), *k, "--out", str(out))
    assert code == 2
    assert f"--truth: {truth} has no row for curve file '{missing}'" in err
    assert not out.exists()


def test_dot_prefixed_manifest_rows_give_the_bytes_of_plain_ones(tmp_path, capsys, monkeypatch):
    # './m00_c00.csv' is the file truth.csv lists as 'm00_c00.csv'
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    header, *rows = (data / "manifest.csv").read_text().splitlines()
    (data / "dotted.csv").write_text("\n".join([header, *("./" + row for row in rows)]) + "\n")
    fixed_v = ("--pipeline", "empirical", "--marker", "fixed-v", "--truth", str(data / "truth.csv"))
    outputs = []
    for name in ("manifest", "dotted"):
        manifest, out = data / f"{name}.csv", tmp_path / name
        runs = [run(capsys, "cv", str(manifest), *fixed_v, "--k", "2", "--out", str(out / "cv")),
                run(capsys, "train", str(manifest), *fixed_v, "--out", str(out / "model.json")),
                run(capsys, "predict", str(manifest), "--model", str(out / "model.json"),
                    "--truth", str(data / "truth.csv"), "--out", str(out / "pred.csv"))]
        assert [code for code, _, _ in runs] == [0, 0, 0], runs
        model = json.loads((out / "model.json").read_text())
        # the model records the hash of the manifest it read, and nothing else differs
        assert model["provenance"].pop("manifest_sha256") == sha256_of(manifest)
        stdout = [text.replace(str(out), "OUT") for _, text, _ in runs]
        outputs.append((stdout, model, (out / "pred.csv").read_bytes(),
                        sorted((p.name, p.read_bytes()) for p in (out / "cv").iterdir())))
    assert outputs[0] == outputs[1]


def test_manifest_row_with_an_empty_file_name_exits_4(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    manifest = data / "manifest.csv"
    header, first, *rest = manifest.read_text().splitlines()
    manifest.write_text("\n".join([header, "," + first.split(",", 1)[1], *rest]) + "\n")
    out = tmp_path / "cv"
    code, _, err = run(capsys, "cv", str(manifest), "--pipeline", "pca-lm",
                       "--k", "2", "--out", str(out))
    assert code == 4
    assert f"{manifest}: row 2: empty file name" in err
    assert not out.exists()


def test_manifest_listing_a_curve_twice_exits_4(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    manifest = data / "manifest.csv"
    lines = manifest.read_text().splitlines()
    # the six curves again, one as ./m00_c00.csv: a curve could otherwise
    # sit in a fold's training rows and its held-out rows at once
    repeat = [lines[1].replace("m00_c00.csv", "./m00_c00.csv")] + lines[2:]
    manifest.write_text("\n".join(lines + repeat) + "\n")
    code, _, err = run(capsys, "cv", str(manifest), "--pipeline", "pca-lm",
                       "--k", "2", "--out", str(tmp_path / "cv"))
    assert code == 4
    assert f"{manifest}: row 8: file './m00_c00.csv' repeats row 2" in err
    assert not (tmp_path / "cv").exists()


@pytest.mark.parametrize("family", ["empirical", "pca-lm", "rf"])
def test_predict_ignores_which_rows_carry_rm(tmp_path, capsys, family):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    model_path = tmp_path / "model.json"
    assert run(capsys, "train", str(data / "manifest.csv"), "--pipeline", family,
               "--out", str(model_path))[0] == 0
    header, *rows = (data / "manifest.csv").read_text().splitlines()
    blank = [row.rsplit(",", 1)[0] + "," for row in rows]
    outputs = []
    for name, kept in (("mixed", rows[::2]), ("blank", [])):
        manifest = data / f"{name}.csv"
        lines = [row if row in kept else b for row, b in zip(rows, blank)]
        manifest.write_text("\n".join([header, *lines]) + "\n")
        pred_path = tmp_path / f"{name}_pred.csv"
        code, _, err = run(capsys, "predict", str(manifest), "--model", str(model_path),
                           "--out", str(pred_path))
        assert code == 0, err
        outputs.append(pred_path.read_bytes())
    assert outputs[0] == outputs[1]


def test_predict_empty_manifest_writes_header_only(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    model_path = tmp_path / "model.json"
    run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
        "--out", str(model_path))
    empty = tmp_path / "empty.csv"
    empty.write_text("file,material_id,temperature_C,thickness_mm,rm_MPa\n")
    pred_path = tmp_path / "p.csv"
    code, stdout, _ = run(capsys, "predict", str(empty),
                          "--model", str(model_path), "--out", str(pred_path))
    assert code == 0
    assert stdout.strip() == f"wrote 0 predictions to {pred_path}"
    assert pred_path.read_text() == "file,material_id,temperature_C,pred_rm_MPa\n"


def test_cv_refuses_a_grid_with_no_point_inside_a_curve(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    code, _, err = run(capsys, "cv", str(data / "manifest.csv"), "--pipeline", "pca-lm",
                       "--k", "2", "--grid-start", "1e5", "--out", str(tmp_path / "cv"))
    assert code == 4
    assert f"{data / 'm00_c00.csv'}: no grid point lies within the recorded displacements" in err
    assert not (tmp_path / "cv").exists()


def test_an_impossible_grid_exits_2_before_any_grid_array_is_made(tmp_path, capsys,
                                                                  monkeypatch):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)

    def no_array(grid):
        raise AssertionError(f"a {grid.n_points}-point grid array was made")

    monkeypatch.setattr(GridSpec, "displacements", no_array)
    code, _, err = run(capsys, "cv", str(data / "manifest.csv"), "--pipeline", "pca-lm",
                       "--k", "2", "--grid-points", "1000000000000",
                       "--out", str(tmp_path / "cv"))
    assert code == 2
    assert "--grid-points" in err and "at most 1000000, got 1000000000000" in err
    assert not (tmp_path / "cv").exists()


def _manifest_outside(tmp_path, data):
    """A manifest in a sibling directory naming data's curves by '../'."""
    lines = (data / "manifest.csv").read_text().splitlines()
    other = tmp_path / "other"
    other.mkdir()
    manifest = other / "manifest.csv"
    manifest.write_text("\n".join([lines[0]] + [f"../{data.name}/{ln}" for ln in lines[1:]])
                        + "\n")
    return manifest


def test_cv_refuses_manifest_paths_outside_its_directory(tmp_path, capsys):
    manifest = _manifest_outside(tmp_path, make_dataset(tmp_path, capsys))
    code, _, err = run(capsys, "cv", str(manifest), "--pipeline", "pca-lm",
                       "--k", "3", "--out", str(tmp_path / "cv"))
    assert code == 4
    assert f"{manifest}: row 2: curve file '../data/m00_c00.csv'" in err
    assert not (tmp_path / "cv").exists()


def test_predict_refuses_manifest_paths_outside_its_directory(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    model_path = tmp_path / "model.json"
    assert run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
               "--out", str(model_path))[0] == 0
    manifest = _manifest_outside(tmp_path, data)
    pred_path = tmp_path / "p.csv"
    code, _, err = run(capsys, "predict", str(manifest), "--model", str(model_path),
                       "--out", str(pred_path))
    assert code == 4
    assert f"{manifest}: row 2:" in err and "outside the manifest's directory" in err
    assert not pred_path.exists()


def test_missing_manifest_exits_3(tmp_path, capsys):
    code, _, err = run(capsys, "cv", str(tmp_path / "nope.csv"),
                       "--pipeline", "empirical", "--out", str(tmp_path / "o"))
    assert code == 3 and "error:" in err


def test_malformed_curve_data_exits_4(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("displacement_um,force_N\n0,zero\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "file,material_id,temperature_C,thickness_mm,rm_MPa\n"
        "bad.csv,P91,20.0,0.5,500.0\n"
    )
    code, _, err = run(capsys, "cv", str(manifest), "--pipeline", "empirical",
                       "--k", "2", "--out", str(tmp_path / "o"))
    assert code == 4 and "bad.csv" in err


def _spoil(path, offset, byte):
    """Overwrite one byte of a file with a byte that is not UTF-8 there."""
    data = bytearray(path.read_bytes())
    data[offset] = byte
    path.write_bytes(bytes(data))


def test_curve_file_that_is_not_utf8_exits_4_naming_it(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    _spoil(data / "m00_c01.csv", 30, 0xFF)
    code, _, err = run(capsys, "cv", str(data / "manifest.csv"), "--pipeline", "empirical",
                       "--k", "2", "--out", str(tmp_path / "cv"))
    assert code == 4 and f"{data / 'm00_c01.csv'}: not UTF-8 text" in err


def test_manifest_that_is_not_utf8_exits_4_naming_it(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    manifest = data / "manifest.csv"
    text = manifest.read_text()
    manifest.write_bytes(text.replace(",M", ",\xe9M", 1).encode("latin-1"))
    code, _, err = run(capsys, "cv", str(manifest), "--pipeline", "empirical",
                       "--k", "2", "--out", str(tmp_path / "cv"))
    assert code == 4 and f"{manifest}: not UTF-8 text" in err
    assert not (tmp_path / "cv").exists()


def test_tables_led_by_a_byte_order_mark_give_the_same_cv(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    marked = tmp_path / "marked"
    marked.mkdir()
    for path in data.iterdir():
        (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outputs = []
    for directory in (data, marked):
        out = tmp_path / f"cv_{directory.name}"
        code, stdout, err = run(capsys, "cv", str(directory / "manifest.csv"),
                                "--pipeline", "pca-lm", "--k", "2", "--out", str(out))
        assert code == 0, err
        outputs.append((stdout, sorted((p.name, p.read_bytes()) for p in out.iterdir())))
    assert outputs[0] == outputs[1]


def test_model_file_that_is_not_utf8_exits_4_naming_it(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    model_path = tmp_path / "model.json"
    assert run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
               "--out", str(model_path))[0] == 0
    _spoil(model_path, 0, 0xFF)
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"),
                       "--model", str(model_path), "--out", str(tmp_path / "p.csv"))
    assert code == 4 and f"{model_path}: not UTF-8 text" in err
    assert not (tmp_path / "p.csv").exists()


def test_utf8_material_ids_do_not_depend_on_the_locale(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    manifest = data / "manifest.csv"
    manifest.write_text(manifest.read_text().replace(",M", ",Stahl-\u00e4M"),
                        encoding="utf-8")
    src = str(Path(smallpunch.__file__).parents[1])
    outputs = []
    # ASCII text I/O unless a file names its encoding
    for env in ({"PYTHONUTF8": "1"},
                {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}):
        out = tmp_path / f"run{len(outputs)}"
        out.mkdir()
        for argv in (("train", str(manifest), "--pipeline", "pca-lm",
                      "--out", str(out / "model.json")),
                     ("predict", str(manifest), "--model", str(out / "model.json"),
                      "--out", str(out / "pred.csv"))):
            done = subprocess.run(
                [sys.executable, "-m", "smallpunch", *argv], capture_output=True,
                timeout=120, env={**os.environ, **env, "PYTHONPATH": src})
            assert done.returncode == 0, done.stderr
        outputs.append([(out / name).read_bytes() for name in ("model.json", "pred.csv")])
    assert outputs[0] == outputs[1]
    assert "Stahl-\u00e4M".encode("utf-8") in outputs[0][1]


# ------------------------------------------------------------------ report

def test_report_sorts_and_footers(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text(
        "row,true_MPa,pred_MPa\n"
        "0,700.0,690.0\n"
        "1,500.0,510.0\n"
        "2,600.0,600.0\n"
    )
    out = tmp_path / "report.csv"
    code, stdout, _ = run(capsys, "report", str(samples), "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "true_MPa,pred_MPa,abs_err_MPa"
    trues = [float(ln.split(",")[0]) for ln in lines[1:-1]]
    assert trues == sorted(trues) == [500.0, 600.0, 700.0]
    expected_rmse = float(np.sqrt((100.0 + 100.0 + 0.0) / 3.0))
    assert lines[-1] == f"# rmse_MPa={fmt(expected_rmse)}"
    assert stdout.strip() == lines[-1]


def test_report_accepts_alternate_column_names(tmp_path, capsys):
    samples = tmp_path / "joined.csv"
    samples.write_text(
        "file,rm_MPa,pred_rm_MPa\n"
        "a.csv,500.0,505.0\n"
        "b.csv,800.0,790.0\n"
    )
    code, stdout, _ = run(capsys, "report", str(samples),
                          "--out", str(tmp_path / "r.csv"))
    assert code == 0 and stdout.startswith("# rmse_MPa=")


def test_report_rejects_table_without_columns(tmp_path, capsys):
    samples = tmp_path / "pred.csv"
    samples.write_text("file,pred_rm_MPa\na.csv,505.0\n")
    code, _, err = run(capsys, "report", str(samples),
                       "--out", str(tmp_path / "r.csv"))
    assert code == 4 and "need one of columns" in err


def test_report_rejects_garbage(tmp_path, capsys):
    samples = tmp_path / "garbage.csv"
    samples.write_text("row,true_MPa,pred_MPa\n0,abc,1.0\n")
    code, _, err = run(capsys, "report", str(samples),
                       "--out", str(tmp_path / "r.csv"))
    assert code == 4 and "row 2" in err


def test_report_quoted_cell_names_the_file(tmp_path, capsys):
    samples = tmp_path / "quoted.csv"
    samples.write_text('row,true_MPa,pred_MPa\n0,"1.0",1.0\n')
    code, _, err = run(capsys, "report", str(samples),
                       "--out", str(tmp_path / "r.csv"))
    assert code == 4 and str(samples) in err and "quoted cell" in err


@pytest.mark.parametrize("table,message", [
    ("row,true_MPa,pred_MPa\n0,700.0,690.0\n1,nan,510.0\n", "row 3: non-finite value"),
    ("row,true_MPa,pred_MPa\n0,700.0,690.0\n1,500.0,inf\n", "row 3: non-finite value"),
    ("row,true_MPa,pred_MPa\n0,-inf,690.0\n", "row 2: non-finite value"),
    ("file,rm_MPa,pred_rm_MPa\na.csv,500.0,nan\n", "row 2: non-finite value"),
    ("row,true_MPa,pred_MPa,true_MPa\n0,700.0,690.0,1.0\n",
     "row 1: header names column 'true_MPa' twice"),
    ("row,true_MPa,pred_MPa\n0,700.0\n", "row 2: expected 3 columns, got 2"),
    ("# no table here\n", "missing header"),
    ("row,true_MPa,pred_MPa\n", "no data rows"),
], ids=["nan-true", "inf-pred", "minus-inf-true", "nan-alternate-names", "named-twice",
        "short-row", "empty", "header-only"])
def test_report_refuses_non_finite_and_ambiguous_tables(tmp_path, capsys, table, message):
    samples = tmp_path / "samples.csv"
    samples.write_text(table)
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "report", str(samples), "--out", str(out))
    assert code == 4 and f"{samples}: {message}" in err
    assert stdout == "" and not out.exists()
