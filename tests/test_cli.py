"""Command-line interface: exit codes, outputs, byte determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallpunch
from smallpunch.cli import main
from smallpunch.curves import GridSpec, resample
from smallpunch.dataio import fmt, load_curves, sha256_of
from smallpunch.evaluation import cross_validate
from smallpunch.modelfile import load_model
from smallpunch.pipeline import PcaLmKind, PipelineSpec, predict_pipeline
from smallpunch.synth import SynthConfig, generate


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
])
def test_out_of_range_flag_exits_2_naming_it(tmp_path, capsys, small_manifest,
                                            argv, flag):
    command, *flags = argv
    where = [str(small_manifest)] if command == "train" else []
    code, _, err = run(capsys, command, *where, *flags,
                       "--out", str(tmp_path / "out"))
    assert code == 2
    assert "error:" in err and flag in err


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
    report = cross_validate(curves, PipelineSpec(PcaLmKind()), k=3, seed=2)
    expected = f"pca-lm,3,{fmt(report.mean_rmse)},{fmt(report.std_rmse)}"
    assert stdout.strip() == expected
    summary = (out / "pca-lm_summary.csv").read_text().splitlines()
    assert summary[0] == "pipeline,k,mean_rmse_MPa,std_rmse_MPa"
    assert summary[1] == expected


def test_cv_fixed_v_with_truth_reaches_zero_error(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, sigma=0.0, seed=13,
                        materials=2, per_material=6)
    out = tmp_path / "cv0"
    code, stdout, _ = run(capsys, "cv", str(data / "manifest.csv"),
                          "--pipeline", "empirical", "--marker", "fixed-v",
                          "--truth", str(data / "truth.csv"),
                          "--k", "3", "--out", str(out))
    assert code == 0
    mean = float(stdout.strip().split(",")[2])
    assert mean < 1e-6


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


def test_cv_stratified_runs(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=4, per_material=4)
    code, stdout, _ = run(capsys, "cv", str(data / "manifest.csv"),
                          "--pipeline", "empirical", "--k", "4",
                          "--stratify-material",
                          "--out", str(tmp_path / "cvs"))
    assert code == 0
    assert np.isfinite(float(stdout.strip().split(",")[2]))


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
        assert trained.spec.name == pipeline
        assert provenance["seed"] == 0
        assert provenance["created"] == "2023-11-14T22:13:20Z"
        assert provenance["manifest_sha256"] == sha256_of(manifest)


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


def test_predict_grid_mismatch_exits_5(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    model_path = tmp_path / "model.json"
    run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
        "--out", str(model_path))
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"),
                       "--model", str(model_path), "--grid-points", "99",
                       "--out", str(tmp_path / "p.csv"))
    assert code == 5 and "grid" in err.lower()


def test_predict_unknown_model_version_exits_5(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=2)
    model_path = tmp_path / "model.json"
    run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "empirical",
        "--out", str(model_path))
    doc = json.loads(model_path.read_text())
    doc["format_version"] = 7
    model_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"),
                       "--model", str(model_path),
                       "--out", str(tmp_path / "p.csv"))
    assert code == 5 and "format_version" in err


@pytest.mark.parametrize("edit", [
    lambda doc: doc["model"]["trees"][0].update(feature=999),
    lambda doc: doc["model"]["trees"][0].update(feature=-1),
    lambda doc: doc["pipeline"]["forest"].update(n_trees=3),
    lambda doc: doc["pipeline"]["forest"].update(n_trees=2.5),
    lambda doc: doc["pipeline"]["forest"].update(bootstrap="yes"),
    lambda doc: doc["pipeline"]["forest"].update(min_leaf=True),
], ids=["feature-999", "feature-negative", "n_trees-mismatch", "n_trees-float",
        "bootstrap-string", "min_leaf-bool"])
def test_predict_with_corrupt_forest_exits_4(tmp_path, capsys, edit):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    model_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", str(data / "manifest.csv"), "--pipeline", "rf",
                     "--trees", "4", "--out", str(model_path))
    assert code == 0
    doc = json.loads(model_path.read_text())
    assert "feature" in doc["model"]["trees"][0], "the first tree must split"
    edit(doc)
    model_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"),
                       "--model", str(model_path), "--out", str(tmp_path / "p.csv"))
    assert code == 4 and str(model_path) in err
    assert not (tmp_path / "p.csv").exists()


def test_predict_fixed_v_without_source_exits_2(tmp_path, capsys):
    data = make_dataset(tmp_path, capsys, materials=2, per_material=3)
    model_path = tmp_path / "model.json"
    code, _, _ = run(capsys, "train", str(data / "manifest.csv"),
                     "--pipeline", "empirical", "--marker", "fixed-v",
                     "--v-star", "0.5", "--out", str(model_path))
    assert code == 0
    code, _, err = run(capsys, "predict", str(data / "manifest.csv"),
                       "--model", str(model_path),
                       "--out", str(tmp_path / "p.csv"))
    assert code == 2 and "--v-star or --truth" in err


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
