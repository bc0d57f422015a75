"""Model persistence: exact round trips and version/shape rejection."""

import json

import numpy as np
import pytest

from smallpunch.curves import GridSpec, MARKER_FIXED_V, resample
from smallpunch.errors import ModelFileError, UnsupportedVersion
from smallpunch.forest import ForestConfig
from smallpunch.modelfile import FORMAT_VERSION, load_model, save_model
from smallpunch.pipeline import (
    EmpiricalKind,
    ForestKind,
    PcaLmKind,
    PipelineSpec,
    fit_pipeline,
    predict_pipeline,
)
from smallpunch.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def dataset():
    raw, truth = generate(SynthConfig(n_materials=3, curves_per_material=6,
                                      noise_sigma_N=4.0, seed=50))
    grid = GridSpec()
    curves = [resample(c, grid) for c in raw]
    stars = [r.v_i_mm for r in truth.records]
    return curves, stars


def _specs():
    return [
        (PipelineSpec(EmpiricalKind()), False),
        (PipelineSpec(EmpiricalKind(marker_strategy=MARKER_FIXED_V)), True),
        (PipelineSpec(PcaLmKind()), False),
        (PipelineSpec(ForestKind(config=ForestConfig(n_trees=8, seed=3))), False),
        (PipelineSpec(ForestKind(config=ForestConfig(n_trees=6, seed=4),
                                 input="scores")), False),
    ]


@pytest.mark.parametrize("spec,needs_stars", _specs(),
                         ids=[s.name + ("-fixed" if f else "")
                              for s, f in _specs()])
def test_round_trip_preserves_predictions(tmp_path, dataset, spec, needs_stars):
    curves, stars = dataset
    v_star = stars if needs_stars else None
    trained = fit_pipeline(curves, spec, v_star=v_star)
    before = predict_pipeline(trained, curves, v_star=v_star)

    path = tmp_path / "model.json"
    save_model(path, trained, {"note": "round trip"})
    loaded, provenance = load_model(path)
    after = predict_pipeline(loaded, curves, v_star=v_star)

    assert np.array_equal(np.asarray(before), np.asarray(after))
    assert provenance == {"note": "round trip"}
    assert loaded.spec == trained.spec
    assert loaded.grid == trained.grid


def test_saved_file_is_valid_json_with_version(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(PcaLmKind()))
    path = tmp_path / "model.json"
    save_model(path, trained, {})
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["pipeline"]["family"] == "pca-lm"
    assert doc["model"]["type"] == "linear"


def test_save_is_byte_deterministic(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(PcaLmKind()))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, trained, {"seed": 1})
    save_model(b, trained, {"seed": 1})
    assert a.read_bytes() == b.read_bytes()


def test_str_paths_save_and_load_like_paths(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(PcaLmKind()))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, trained, {"seed": 1})
    save_model(str(b), trained, {"seed": 1})
    assert a.read_bytes() == b.read_bytes()
    loaded, provenance = load_model(str(b))
    assert provenance == {"seed": 1}
    assert np.array_equal(predict_pipeline(loaded, curves), predict_pipeline(trained, curves))


def test_unknown_version_is_refused(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(EmpiricalKind()))
    path = tmp_path / "model.json"
    save_model(path, trained, {})
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion, match="99"):
        load_model(path)


def test_corrupt_json_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelFileError, match="JSON"):
        load_model(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFileError):
        load_model(path)


def test_family_model_mismatch_is_refused(tmp_path, dataset):
    curves, _ = dataset
    emp = fit_pipeline(curves, PipelineSpec(EmpiricalKind()))
    lin = fit_pipeline(curves, PipelineSpec(PcaLmKind()))
    a, b = tmp_path / "emp.json", tmp_path / "lin.json"
    save_model(a, emp, {})
    save_model(b, lin, {})
    doc = json.loads(a.read_text())
    doc["model"] = json.loads(b.read_text())["model"]
    a.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match="expects"):
        load_model(a)


def test_missing_block_is_refused(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PipelineSpec(PcaLmKind()))
    path = tmp_path / "model.json"
    save_model(path, trained, {})
    doc = json.loads(path.read_text())
    del doc["grid"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match="grid"):
        load_model(path)


def test_stripped_pca_block_is_refused(tmp_path, dataset):
    curves, _ = dataset
    scores = ForestKind(config=ForestConfig(n_trees=2, seed=1), input="scores")
    for kind in (PcaLmKind(), scores):
        trained = fit_pipeline(curves, PipelineSpec(kind))
        path = tmp_path / "model.json"
        save_model(path, trained, {})
        doc = json.loads(path.read_text())
        doc["pca"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="PCA"):
            load_model(path)


def _leftmost_leaf(node):
    while "value" not in node:
        node = node["left"]
    return node


def _root_split(doc):
    root = doc["model"]["trees"][0]
    assert "feature" in root, "the fixture's first tree must split"
    return root


@pytest.fixture(scope="module")
def trained_by_family(dataset):
    curves, _ = dataset
    kinds = (EmpiricalKind(), PcaLmKind(), ForestKind(config=ForestConfig(n_trees=2, seed=1)))
    return {k.name: fit_pipeline(curves, PipelineSpec(k)) for k in kinds}


@pytest.mark.parametrize("family,block,key,value", [
    ("empirical", lambda d: d["model"], "beta", "x"),
    ("empirical", lambda d: d["pipeline"], "mode", "bogus"),
    ("empirical", lambda d: d["model"], "mode", "bogus"),
    ("pca-lm", lambda d: d["grid"], "n_points", "x"),
    ("pca-lm", lambda d: d["standardizer"], "means", "x"),
    ("rf", lambda d: d["pipeline"]["forest"], "n_trees", "x"),
    ("rf", lambda d: _leftmost_leaf(d["model"]["trees"][0]), "value", "x"),
    ("empirical", lambda d: d, "pipeline", []),
    ("empirical", lambda d: d, "model", "x"),
    ("rf", _root_split, "feature", 999),
    ("rf", _root_split, "feature", -1),
    ("rf", _root_split, "feature", 1.5),
    ("rf", _root_split, "threshold", float("inf")),
    ("rf", _root_split, "threshold", 10**400),
    ("rf", lambda d: _leftmost_leaf(d["model"]["trees"][0]), "value", float("nan")),
    ("rf", lambda d: _leftmost_leaf(d["model"]["trees"][0]), "count", 0),
    ("rf", lambda d: d["pipeline"]["forest"], "n_trees", 3),
    ("rf", lambda d: d["pipeline"]["forest"], "n_trees", 2.5),
    ("rf", lambda d: d["pipeline"]["forest"], "bootstrap", "yes"),
    ("rf", lambda d: d["pipeline"]["forest"], "min_leaf", True),
    ("rf", lambda d: d["pipeline"]["forest"], "max_depth", 4.0),
    ("pca-lm", lambda d: d["pipeline"], "standardize", "no"),
    ("pca-lm", lambda d: d["pipeline"], "standardize", 1),
    ("rf", _root_split, "threshold", True),
    ("rf", _root_split, "threshold", "1.5"),
    ("rf", lambda d: _leftmost_leaf(d["model"]["trees"][0]), "value", True),
    ("rf", lambda d: d["model"], "oob_rmse", True),
    # the fixture's forests have 152 columns: int() would have read these as 152
    ("rf", lambda d: d["model"], "n_features", 152.9),
    ("rf", lambda d: d["model"], "n_features", "152"),
], ids=["beta", "pipeline-mode", "model-mode", "grid-n_points", "standardizer-means",
        "forest-n_trees", "leaf-value", "pipeline-block", "model-block",
        "split-feature-999", "split-feature-negative", "split-feature-float",
        "split-threshold-inf", "split-threshold-overflow", "leaf-value-nan", "leaf-count-0", "forest-n_trees-mismatch",
        "forest-n_trees-float", "forest-bootstrap-string", "forest-min_leaf-bool",
        "forest-max_depth-float", "standardize-string", "standardize-int",
        "split-threshold-bool", "split-threshold-string", "leaf-value-bool", "oob_rmse-bool",
        "n_features-float", "n_features-string"])
def test_malformed_field_is_a_model_file_error(tmp_path, trained_by_family,
                                               family, block, key, value):
    path = tmp_path / "model.json"
    save_model(path, trained_by_family[family], {})
    doc = json.loads(path.read_text())
    block(doc)[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError) as err:
        load_model(path)
    # exactly ModelFileError (exit 4), not a BadConfig (exit 2) or a bare ValueError
    assert type(err.value) is ModelFileError
    assert str(err.value).count(str(path)) == 1


def test_forest_trees_survive_re_save(tmp_path, dataset):
    curves, _ = dataset
    spec = PipelineSpec(ForestKind(config=ForestConfig(n_trees=5, seed=7)))
    trained = fit_pipeline(curves, spec)
    first = tmp_path / "first.json"
    save_model(first, trained, {})
    loaded, _ = load_model(first)
    second = tmp_path / "second.json"
    save_model(second, loaded, {})
    assert first.read_bytes() == second.read_bytes()
