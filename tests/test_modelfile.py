"""Model persistence: exact round trips and version/shape rejection."""

import copy
import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from smallpunch.curves import GridSpec, MARKER_FIXED_V, RULE_INTERVAL_MEAN, RULE_POINT, resample
from smallpunch.errors import ModelFileError, UnsupportedVersion
from smallpunch.forest import ForestConfig, ForestModel
from smallpunch.modelfile import FORMAT_VERSION, UPGRADES, load_model, save_model
from smallpunch.pipeline import (
    EmpiricalKind,
    ForestKind,
    PcaLmKind,
    fit_pipeline,
    predict_pipeline,
)
from smallpunch.regress import LinearModel
from smallpunch.synth import SynthConfig, generate

from conftest import with_v_i


@pytest.fixture(scope="module")
def dataset():
    raw, truth = generate(SynthConfig(n_materials=3, curves_per_material=6,
                                      noise_sigma_N=4.0, seed=50))
    grid = GridSpec()
    curves = [resample(c, grid) for c in raw]
    stars = [r.v_i_mm for r in truth]
    return curves, stars


def _kinds():
    return [
        EmpiricalKind(),
        EmpiricalKind(marker_strategy=MARKER_FIXED_V),
        EmpiricalKind(marker_strategy=MARKER_FIXED_V, v_star=0.5),
        PcaLmKind(),
        ForestKind(config=ForestConfig(n_trees=8, seed=3)),
        ForestKind(config=ForestConfig(n_trees=6, seed=4), input="scores"),
    ]


def _kind_id(kind):
    fixed = "-fixed" if kind.marker_strategy == MARKER_FIXED_V else ""
    return kind.name + fixed + ("-v-star" if fixed and kind.v_star is not None else "")


@pytest.mark.parametrize("kind", _kinds(), ids=_kind_id)
def test_round_trip_preserves_predictions(tmp_path, dataset, kind):
    curves, stars = dataset
    # each curve carries its v_i, which only a fixed-v kind without v_star reads
    curves = with_v_i(curves, stars)
    trained = fit_pipeline(curves, kind)
    before = predict_pipeline(trained, curves)

    path = tmp_path / "model.json"
    save_model(path, trained, {"note": "round trip"})
    loaded, provenance = load_model(path)
    after = predict_pipeline(loaded, curves)

    assert np.array_equal(np.asarray(before), np.asarray(after))
    assert provenance == {"note": "round trip"}
    assert loaded.kind == trained.kind
    assert loaded.grid == trained.grid


def test_saved_file_is_valid_json_with_version(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PcaLmKind())
    path = tmp_path / "model.json"
    save_model(path, trained, {})
    doc = json.loads(path.read_text())
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["pipeline"]["family"] == "pca-lm"
    assert list(doc["model"]) == [f.name for f in fields(LinearModel)]


def test_every_block_is_its_records_fields_in_declaration_order(tmp_path, dataset):
    curves, _ = dataset
    kind = ForestKind(config=ForestConfig(n_trees=2, seed=1))
    trained = fit_pipeline(curves, kind)
    path = tmp_path / "model.json"
    save_model(path, trained, {})
    doc = json.loads(path.read_text())
    assert list(doc) == ["format_version", "pipeline", "grid", "standardizer", "pca", "model",
                         "provenance"]
    assert list(doc["pipeline"]) == ["family", "input", "variance_threshold", "config"]
    assert list(doc["pipeline"]["config"]) == [f.name for f in fields(ForestConfig)]
    assert list(doc["model"]) == [f.name for f in fields(ForestModel)] == [
        "n_features", "importances", "oob_rmse", "count", "feature", "threshold", "value"]


def test_save_is_byte_deterministic(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PcaLmKind())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, trained, {"seed": 1})
    save_model(b, trained, {"seed": 1})
    assert a.read_bytes() == b.read_bytes()


def test_str_paths_save_and_load_like_paths(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PcaLmKind())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(a, trained, {"seed": 1})
    save_model(str(b), trained, {"seed": 1})
    assert a.read_bytes() == b.read_bytes()
    loaded, provenance = load_model(str(b))
    assert provenance == {"seed": 1}
    assert np.array_equal(predict_pipeline(loaded, curves), predict_pipeline(trained, curves))


def test_unknown_version_is_refused(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, EmpiricalKind())
    path = tmp_path / "model.json"
    save_model(path, trained, {})
    doc = json.loads(path.read_text())
    # true, 2.0, 3.0, 4.0, 5.0, 6.0 and 7.0 compare equal to versions it reads
    for version in (99, True, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, "2", None):
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        message = f"format_version {version!r} (this build reads 1, 2, 3, 4, 5, 6 and 7)"
        with pytest.raises(UnsupportedVersion, match=re.escape(message)):
            load_model(path)


def test_corrupt_json_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{not json")
    with pytest.raises(ModelFileError, match="JSON"):
        load_model(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFileError):
        load_model(path)
    # nested as deeply as a 3,000-level tree: deeper than the parser recurses
    path.write_text('{"trees": ' + '{"left": ' * 3000 + "1" + "}" * 3001)
    with pytest.raises(ModelFileError, match="nested too deeply") as err:
        load_model(path)
    assert type(err.value) is ModelFileError and str(path) in str(err.value)


def test_family_model_mismatch_is_refused(tmp_path, dataset):
    curves, _ = dataset
    emp = fit_pipeline(curves, EmpiricalKind())
    lin = fit_pipeline(curves, PcaLmKind())
    a, b = tmp_path / "emp.json", tmp_path / "lin.json"
    save_model(a, emp, {})
    save_model(b, lin, {})
    doc = json.loads(a.read_text())
    doc["model"] = json.loads(b.read_text())["model"]
    # the family's model record reads the block: a linear one has no beta
    _assert_refused(a, doc, re.escape("missing field 'beta'"))


def test_missing_block_is_refused(tmp_path, dataset):
    curves, _ = dataset
    trained = fit_pipeline(curves, PcaLmKind())
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
        trained = fit_pipeline(curves, kind)
        path = tmp_path / "model.json"
        save_model(path, trained, {})
        doc = json.loads(path.read_text())
        doc["pca"] = None
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFileError, match="PCA"):
            load_model(path)


QUOTED = object()  # a value that replaces the stored number with its decimal string
DELETE = object()  # a value that removes its key instead


def _model_array(name):
    """The block holding a format 2 forest's per-node or per-split array."""
    def block(doc):
        array = doc["model"][name]
        assert array, f"the fixture's forest must have a {name} entry"
        return array
    return block


@pytest.fixture(scope="module")
def trained_by_family(dataset):
    curves, _ = dataset
    kinds = (EmpiricalKind(), PcaLmKind(), ForestKind(config=ForestConfig(n_trees=2, seed=1)))
    return {k.name: fit_pipeline(curves, k) for k in kinds}


@pytest.mark.parametrize("family,block,key,value", [
    ("empirical", lambda d: d["model"], "beta", "x"),
    ("empirical", lambda d: d["pipeline"], "mode", "bogus"),
    ("pca-lm", lambda d: d["grid"], "n_points", "x"),
    ("pca-lm", lambda d: d["standardizer"], "means", "x"),
    ("rf", lambda d: d["pipeline"]["config"], "n_trees", "x"),
    ("rf", _model_array("value"), 0, "x"),
    ("empirical", lambda d: d, "pipeline", []),
    ("empirical", lambda d: d, "model", "x"),
    ("rf", _model_array("feature"), 0, 999),
    ("rf", _model_array("feature"), 0, -1),
    ("rf", _model_array("feature"), 0, 1.5),
    ("rf", _model_array("threshold"), 0, float("inf")),
    ("rf", _model_array("threshold"), 0, 10**400),
    ("rf", _model_array("value"), 0, float("nan")),
    # level order ends on a leaf; a count of 0 makes it a split, one too many
    ("rf", _model_array("count"), -1, 0),
    ("rf", _model_array("count"), -1, 2**64),
    ("rf", lambda d: d["pipeline"]["config"], "n_trees", 3),
    ("rf", lambda d: d["pipeline"]["config"], "n_trees", 2.5),
    ("rf", lambda d: d["pipeline"]["config"], "bootstrap", "yes"),
    ("rf", lambda d: d["pipeline"]["config"], "min_leaf", True),
    ("rf", lambda d: d["pipeline"]["config"], "max_depth", 4.0),
    ("rf", _model_array("threshold"), 0, True),
    ("rf", _model_array("threshold"), 0, "1.5"),
    ("rf", _model_array("value"), 0, True),
    ("rf", lambda d: d["model"], "oob_rmse", True),
    # json reads NaN and Infinity, which the records refuse
    ("rf", lambda d: d["model"], "oob_rmse", float("nan")),
    ("rf", lambda d: d["model"], "oob_rmse", float("inf")),
    ("rf", lambda d: d["model"], "oob_rmse", -3.0),
    ("pca-lm", lambda d: d["pca"], "total_variance", float("inf")),
    # provenance is saved again as it was read, so it must be an object
    ("pca-lm", lambda d: d, "provenance", 5),
    ("pca-lm", lambda d: d, "provenance", None),
    # the fixture's forests have 152 columns: int() would have read these as 152
    ("rf", lambda d: d["model"], "n_features", 152.9),
    ("rf", lambda d: d["model"], "n_features", "152"),
    ("rf", lambda d: d["model"], "n_features", 151),
    ("rf", lambda d: d["model"], "importances", [1.0]),
    # numpy and comparisons would read true as 1 and false as 0
    ("pca-lm", lambda d: d["model"], "intercept", True),
    ("pca-lm", lambda d: d["model"]["coefficients"], 0, False),
    ("pca-lm", lambda d: d["standardizer"]["scales"], 0, True),
    ("pca-lm", lambda d: d["pca"]["mean"], 0, True),
    ("pca-lm", lambda d: d["pca"]["loadings"][0], 0, True),
    ("pca-lm", lambda d: d["pca"], "total_variance", True),
    ("pca-lm", lambda d: d["pipeline"], "variance_threshold", True),
    ("empirical", lambda d: d["model"], "beta", True),
    ("pca-lm", lambda d: d["grid"], "start_mm", True),
    ("pca-lm", lambda d: d["grid"], "spacing_mm", True),
    ("pca-lm", lambda d: d["grid"], "n_points", True),
    ("pca-lm", lambda d: d["grid"], "n_points", 151.0),
    ("rf", lambda d: d["pipeline"], "variance_threshold", True),
    # the fixture's forest never splits on column 0, the force at 0 mm
    ("rf", lambda d: d["model"]["importances"], 0, False),
    # json reads and writes NaN and Infinity
    ("pca-lm", lambda d: d["grid"], "start_mm", float("inf")),
    ("pca-lm", lambda d: d["grid"], "spacing_mm", float("nan")),
    ("pca-lm", lambda d: d["grid"], "n_points", 10**12),
    # each constructor check of a stored record; a slice key drops the last entry
    ("pca-lm", lambda d: d["standardizer"]["scales"], 0, 0.0),
    ("pca-lm", lambda d: d["standardizer"]["means"], 0, float("inf")),
    ("pca-lm", lambda d: d["standardizer"]["means"], slice(-1, None), []),
    # the fixture's PCA keeps three components
    ("pca-lm", lambda d: d["pca"], "eigenvalues", [1.0, 2.0, 3.0]),
    ("pca-lm", lambda d: d["pca"], "total_variance", 0.0),
    ("pca-lm", lambda d: d["pca"]["loadings"], slice(-1, None), []),
    ("pca-lm", lambda d: d["pca"]["eigenvalues"], slice(-1, None), []),
    ("pca-lm", lambda d: d["model"], "intercept", float("inf")),
    ("pca-lm", lambda d: d["model"], "coefficients", [[3.0, -40.0, 1.0]]),
    ("rf", lambda d: d["model"], "importances", [0.5 / 152] * 152),
    ("rf", lambda d: d["model"]["importances"], 0, -0.5),
    ("pca-lm", lambda d: d["pipeline"], "family", "bogus"),
    ("pca-lm", lambda d: d, "standardizer", None),
    # a quoted number is a string: numpy would read one in an array as its number
    ("pca-lm", lambda d: d["standardizer"]["means"], 0, QUOTED),
    ("pca-lm", lambda d: d["standardizer"]["scales"], 0, QUOTED),
    ("pca-lm", lambda d: d["pca"]["mean"], 0, QUOTED),
    ("pca-lm", lambda d: d["pca"]["loadings"][0], 0, QUOTED),
    ("pca-lm", lambda d: d["model"]["coefficients"], 0, QUOTED),
    ("rf", lambda d: d["model"]["importances"], 0, QUOTED),
    ("pca-lm", lambda d: d["pca"], "total_variance", QUOTED),
    ("pca-lm", lambda d: d["model"], "intercept", QUOTED),
    ("empirical", lambda d: d["model"], "beta", QUOTED),
    ("pca-lm", lambda d: d["grid"], "start_mm", QUOTED),
    ("rf", lambda d: d["model"], "oob_rmse", QUOTED),
    # a block of the wrong JSON type is refused before anything indexes it
    ("pca-lm", lambda d: d, "grid", []),
    ("pca-lm", lambda d: d, "model", [1]),
    ("pca-lm", lambda d: d, "pca", "x"),
    ("pca-lm", lambda d: d, "pipeline", 3),
    ("pca-lm", lambda d: d, "standardizer", [1.0]),
    ("rf", lambda d: d["pipeline"], "config", []),
    # a list of lists with rows of different lengths; a slice key drops an entry
    ("pca-lm", lambda d: d["pca"]["loadings"][0], slice(-1, None), []),
    ("pca-lm", lambda d: d["standardizer"], "means", [[1.0], [2.0, 3.0]]),
], ids=["beta", "pipeline-mode", "grid-n_points", "standardizer-means",
        "forest-n_trees", "leaf-value", "pipeline-block", "model-block",
        "split-feature-999", "split-feature-negative", "split-feature-float",
        "split-threshold-inf", "split-threshold-overflow", "leaf-value-nan", "leaf-count-0",
        "leaf-count-overflow", "forest-n_trees-mismatch",
        "forest-n_trees-float", "forest-bootstrap-string", "forest-min_leaf-bool",
        "forest-max_depth-float",
        "split-threshold-bool", "split-threshold-string", "leaf-value-bool", "oob_rmse-bool",
        "oob_rmse-nan", "oob_rmse-inf", "oob_rmse-negative", "pca-total_variance-inf",
        "provenance-int", "provenance-null", "n_features-float", "n_features-string", "n_features-mismatch", "importances-length",
        "intercept-bool", "coefficient-bool",
        "standardizer-scale-bool", "pca-mean-bool", "pca-loading-bool",
        "pca-total_variance-bool", "variance_threshold-bool", "beta-bool", "grid-start-bool",
        "grid-spacing-bool", "grid-n_points-bool", "grid-n_points-float",
        "rf-variance_threshold-bool", "importance-bool", "grid-start-inf",
        "grid-spacing-nan", "grid-n_points-huge", "standardizer-scale-zero",
        "standardizer-mean-inf", "standardizer-means-short", "pca-eigenvalues-increasing",
        "pca-total_variance-zero",
        "pca-loadings-short", "pca-eigenvalues-short", "intercept-inf", "coefficients-nested",
        "importances-sum-half", "importance-negative", "pipeline-family-bogus",
        "standardizer-missing", "standardizer-mean-quoted", "standardizer-scale-quoted",
        "pca-mean-quoted", "pca-loading-quoted", "coefficient-quoted", "importance-quoted",
        "pca-total_variance-quoted", "intercept-quoted",
        "beta-quoted", "grid-start-quoted", "oob_rmse-quoted", "grid-block-list",
        "model-block-list", "pca-block-string", "pipeline-block-int", "standardizer-block-list",
        "config-block-list", "pca-loadings-ragged", "standardizer-means-ragged"])
def test_malformed_field_is_a_model_file_error(tmp_path, trained_by_family,
                                               family, block, key, value):
    path = tmp_path / "model.json"
    save_model(path, trained_by_family[family], {})
    doc = json.loads(path.read_text())
    block(doc)[key] = str(block(doc)[key]) if value is QUOTED else value
    _assert_refused(path, doc)


def _stray(block, family):
    """Give the file the block that a fixture of another family stores."""
    def change(doc, saved):
        doc[block] = saved[family][block]
    return change


def _widen(block, *arrays):
    """Give the block's arrays one more entry: a zero row for a list of lists."""
    def change(doc, saved):
        for name in arrays:
            array = doc[block][name]
            array.append([0.0] * len(array[0]) if type(array[0]) is list else 1.0)
    return change


def _add(key, value, *path):
    """Add key to the block path names, the top level if it names none."""
    def change(doc, saved):
        block = doc
        for name in path:
            block = block[name]
        block[key] = value
    return change


def _forest_reads(n):
    """Make the forest read n columns, each of equal importance."""
    def change(doc, saved):
        doc["model"].update(n_features=n, importances=[1.0 / n] * n)
    return change


# A file's blocks must agree with each other: a PCA block is stored exactly
# when the family projects on PCA scores, and a standardizer exactly when
# the family models the feature matrix.  The standardizer and the PCA read
# the grid's points and the temperature, the model the PCA's components or
# those columns.  Every block holds its record's fields and no other key, and
# the file holds its seven blocks and no other.  The fixtures' PCA and the
# pinned pca-lm and rf-scores files' PCA keep four components.
@pytest.mark.parametrize("family,change,match", [
    ("rf", _stray("pca", "pca-lm"), "rf model file holds a stray PCA block"),
    ("empirical", _stray("standardizer", "pca-lm"),
     "empirical model file holds a stray standardizer block"),
    ("empirical", _stray("pca", "pca-lm"), "empirical model file holds a stray PCA block"),
    ("rf", _stray("standardizer", "empirical"), "rf model file lacks the standardizer block"),
    # the explained ratios, eigenvalues / total_variance, may not sum above 1
    ("pca-lm", lambda doc, saved: doc["pca"].__setitem__(
        "total_variance", sum(doc["pca"]["eigenvalues"]) / 2), "explained ratios exceed 1"),
    ("pca-lm_v4", _widen("model", "coefficients"), "model block reads 5 columns, expected 4"),
    ("pca-lm_v4", _widen("standardizer", "means", "scales"),
     "standardizer block reads 153 columns, expected 152"),
    ("rf-scores_v4", _forest_reads(152), "model block reads 152 columns, expected 4"),
    ("pca-lm", _widen("pca", "mean", "loadings"), "PCA block reads 78 columns, expected 77"),
    ("rf", _forest_reads(78), "model block reads 78 columns, expected 77"),
    ("rf", _add("type", "linear", "model"), "unknown key 'type' in the model block"),
    ("rf", _add("forest", {"n_trees": 3}, "pipeline"),
     "unknown key 'forest' in the pipeline block"),
    ("rf", _add("end_mm", 9.0, "grid"), "unknown key 'end_mm' in the grid block"),
    ("rf", _add("trees", 2, "pipeline", "config"), "unknown key 'trees' in the config block"),
    ("pca-lm", _add("explained_ratio", [0.5], "pca"),
     "unknown key 'explained_ratio' in the pca block"),
    ("pca-lm", _add("standardize", True, "pipeline"),
     "unknown key 'standardize' in the pipeline block"),
    ("pca-lm", _add("n", 1, "standardizer"), "unknown key 'n' in the standardizer block"),
    ("empirical", _add("extra", {}), "unknown key 'extra' at the top level"),
], ids=["rf-raw-with-pca", "empirical-with-standardizer", "empirical-with-pca",
        "rf-without-standardizer", "pca-eigenvalues-above-total_variance",
        "pca-lm-v4-coefficients-wide", "pca-lm-v4-standardizer-wide",
        "rf-scores-v4-n_features-wide", "pca-lm-pca-wide", "rf-n_features-wide",
        "model-type", "pipeline-forest", "grid-end_mm", "config-trees", "pca-explained_ratio",
        "pipeline-standardize", "standardizer-key", "top-level-key"])
def test_contradictory_or_incomplete_file_is_a_model_file_error(tmp_path, trained_by_family,
                                                                family, change, match):
    saved = {f"{name}_v4": json.loads((DATA / f"{name}_v4.json").read_text(encoding="utf-8"))
             for name in ("pca-lm", "rf-scores")}
    for name, trained in trained_by_family.items():
        save_model(tmp_path / "model.json", trained, {})
        saved[name] = json.loads((tmp_path / "model.json").read_text())
    doc = saved[family]
    change(doc, saved)
    _assert_refused(tmp_path / "model.json", doc, re.escape(match))


@pytest.mark.parametrize("field,block,key", [
    ("intercept", lambda d: d["model"], "intercept"),
    ("means", lambda d: d["standardizer"]["means"], 0),
], ids=["scalar", "array-entry"])
def test_quoted_number_error_names_the_field_and_the_value(tmp_path, trained_by_family,
                                                            field, block, key):
    path = tmp_path / "model.json"
    save_model(path, trained_by_family["pca-lm"], {})
    doc = json.loads(path.read_text())
    quoted = str(block(doc)[key])
    block(doc)[key] = quoted
    _assert_refused(path, doc, re.escape(f"{field} must be a number, got {quoted!r}"))


@pytest.mark.parametrize("family,block,key,value,message", [
    ("pca-lm", lambda d: d, "grid", [], "grid must be an object, got []"),
    ("pca-lm", lambda d: d, "pipeline", 3, "pipeline must be an object, got 3"),
    ("pca-lm", lambda d: d, "pca", "x", "pca must be an object, got 'x'"),
    ("rf", lambda d: d["pipeline"], "config", [], "config must be an object, got []"),
    # the fixture's PCA keeps four components
    ("pca-lm", lambda d: d["pca"]["loadings"][0], slice(-1, None), [],
     "loadings must have rows of one length, got 3 and 4"),
    ("pca-lm", lambda d: d["standardizer"], "means", [[1.0], [2.0, 3.0]],
     "means must have rows of one length, got 1 and 2"),
], ids=["grid-block", "pipeline-block", "pca-block", "config-block", "loadings-ragged",
        "means-ragged"])
def test_wrong_block_type_or_ragged_array_error_names_it(tmp_path, trained_by_family,
                                                         family, block, key, value, message):
    path = tmp_path / "model.json"
    save_model(path, trained_by_family[family], {})
    doc = json.loads(path.read_text())
    block(doc)[key] = value
    # the message is the whole error: no text of Python's or numpy's follows
    _assert_refused(path, doc, re.escape(f"{path}: {message}") + "$")


DATA = Path(__file__).parent / "data"


# Format 2 stored four facts twice: the PCA block's threshold and
# explained_ratio, and an empirical model's mode and marker_strategy.  Its
# upgrade to format 3 refuses a file whose two copies of a fact disagree
# before it drops the copies; the pinned format 2 files are the documents.
@pytest.mark.parametrize("name,block,key,value,message", [
    ("empirical", lambda d: d["model"], "mode", "bogus",
     "model mode 'bogus' contradicts pipeline 'instability-force'"),
    ("empirical", lambda d: d["model"], "mode", "max-force",
     "model mode 'max-force' contradicts pipeline 'instability-force'"),
    # the markers the kind picks are the ones the model's beta was fitted on
    ("empirical", lambda d: d["pipeline"], "marker_strategy", "fixed-v",
     "model marker_strategy 'max-slope' contradicts pipeline 'fixed-v'"),
    ("empirical", lambda d: d["model"], "marker_strategy", "fixed-v",
     "model marker_strategy 'fixed-v' contradicts pipeline 'max-slope'"),
    ("empirical", lambda d: d["model"], "mode", DELETE, "missing field 'mode'"),
    ("pca-lm", lambda d: d["pca"], "threshold", 0.5,
     "pca threshold 0.5 contradicts pipeline variance_threshold 0.99"),
    ("pca-lm", lambda d: d["pipeline"], "variance_threshold", 0.5,
     "pca threshold 0.99 contradicts pipeline variance_threshold 0.5"),
    ("pca-lm", lambda d: d["pca"], "threshold", 0.0,
     "pca threshold 0.0 contradicts pipeline variance_threshold 0.99"),
    # true would compare equal to a variance_threshold of 1.0
    ("pca-lm", lambda d: d["pca"], "threshold", True, "threshold must be a number, got True"),
    ("pca-lm", lambda d: d["pca"], "threshold", QUOTED, "threshold must be a number, got '0.99'"),
    ("pca-lm", lambda d: d["pca"], "threshold", DELETE, "missing field 'threshold'"),
], ids=["model-mode", "model-mode-contradicts-pipeline", "empirical-pipeline-marker-fixed-v",
        "empirical-model-marker-fixed-v", "model-mode-missing",
        "pca-threshold-contradicts-pipeline", "pipeline-variance_threshold-contradicts-pca",
        "pca-threshold-zero", "pca-threshold-bool", "pca-threshold-quoted",
        "pca-threshold-missing"])
def test_format_2_copies_that_disagree_are_refused(tmp_path, name, block, key, value, message):
    doc = json.loads((DATA / f"{name}_v2.json").read_text(encoding="utf-8"))
    if value is DELETE:
        del block(doc)[key]
    else:
        block(doc)[key] = str(block(doc)[key]) if value is QUOTED else value
    _assert_refused(tmp_path / "model.json", doc, re.escape(message))


# Format 3 stored pipeline.standardize, which format 4 drops: a feature
# family saved with false gets the identity standardizer, so such a file
# must hold none.  The pinned format 3 files are the documents.
@pytest.mark.parametrize("name,block,key,value,message", [
    ("pca-lm", lambda d: d["pipeline"], "standardize", "no",
     "standardize must be true or false, got 'no'"),
    ("pca-lm", lambda d: d["pipeline"], "standardize", 1,
     "standardize must be true or false, got 1"),
    ("empirical", lambda d: d["pipeline"], "standardize", None,
     "standardize must be true or false, got None"),
    ("pca-lm", lambda d: d["pipeline"], "standardize", DELETE, "missing field 'standardize'"),
    ("rf", lambda d: d["pipeline"], "standardize", DELETE, "missing field 'standardize'"),
    ("pca-lm", lambda d: d["pipeline"], "standardize", False,
     "pca-lm model file with standardize=false holds a stray standardizer block"),
    ("rf", lambda d: d["pipeline"], "standardize", False,
     "rf model file with standardize=false holds a stray standardizer block"),
    # the identity standardizer's width is the grid's, checked before it is built
    ("pca-lm-no-standardize", lambda d: d["grid"], "n_points", 10**12,
     "grid n_points must be at most"),
    ("pca-lm-no-standardize", lambda d: d["grid"], "n_points", True,
     "n_points must be an integer, got True"),
    ("rf-scores-no-standardize", lambda d: d, "grid", DELETE, "missing field 'grid'"),
], ids=["standardize-string", "standardize-int", "empirical-standardize-null",
        "pca-lm-standardize-missing", "rf-standardize-missing",
        "pca-lm-standardize-false-with-standardizer",
        "rf-standardize-false-with-standardizer", "no-standardize-grid-n_points-huge",
        "no-standardize-grid-n_points-bool", "no-standardize-grid-missing"])
def test_format_3_standardize_setting_is_checked_before_it_is_dropped(tmp_path, name, block,
                                                                      key, value, message):
    doc = json.loads((DATA / f"{name}_v3.json").read_text(encoding="utf-8"))
    if value is DELETE:
        del block(doc)[key]
    else:
        block(doc)[key] = value
    _assert_refused(tmp_path / "model.json", doc, re.escape(message))


# Format 4 stored model.type, which restated pipeline.family, and an rf
# file's forest settings under pipeline.forest.  Its upgrade to format 5
# refuses a type that contradicts the family before it drops the type,
# and moves the forest block to config, the field that holds it.  The
# pinned format 4 files are the documents.
@pytest.mark.parametrize("name,block,key,value,message", [
    ("empirical", lambda d: d["model"], "type", "linear",
     "pipeline family 'empirical' expects a empirical model, got 'linear'"),
    ("pca-lm", lambda d: d["model"], "type", "forest",
     "pipeline family 'pca-lm' expects a linear model, got 'forest'"),
    ("rf", lambda d: d["model"], "type", None,
     "pipeline family 'rf' expects a forest model, got None"),
    ("rf", lambda d: d["model"], "type", DELETE, "missing field 'type'"),
    # an unknown family is refused as such, whatever its model's type
    ("pca-lm", lambda d: d["pipeline"], "family", "bogus", "unknown pipeline family: 'bogus'"),
    ("rf", lambda d: d["pipeline"], "family", ["rf"], "unknown pipeline family: ['rf']"),
    ("rf", lambda d: d["pipeline"], "forest", [], "forest must be an object, got []"),
    ("rf-scores", lambda d: d["pipeline"], "forest", DELETE, "missing field 'forest'"),
    ("rf", lambda d: d["pipeline"]["forest"], "n_trees", 11,
     "124 nodes with 57 splits do not make 11 trees"),
    ("rf-scores", lambda d: d["pipeline"]["forest"], "bootstrap", "yes",
     "bootstrap must be true or false, got 'yes'"),
    # format 4 has no config key, so the forest block must not replace one
    ("rf", lambda d: d["pipeline"], "config", {"n_trees": "bogus"},
     "unknown key 'config' in the pipeline block"),
], ids=["empirical-type-linear", "pca-lm-type-forest", "rf-type-null", "rf-type-missing",
        "family-bogus", "family-list", "forest-block-list", "forest-block-missing",
        "forest-n_trees-mismatch", "forest-bootstrap-string", "config-key"])
def test_format_4_type_and_forest_block_are_checked_before_they_go(tmp_path, name, block, key,
                                                                   value, message):
    doc = json.loads((DATA / f"{name}_v4.json").read_text(encoding="utf-8"))
    if value is DELETE:
        del block(doc)[key]
    else:
        block(doc)[key] = value
    _assert_refused(tmp_path / "model.json", doc, re.escape(message))


# Format 5 stored no v_star: its fixed-v models took each v_i from the
# command line.  Its upgrade to format 6 stores a null v_star in an
# empirical pipeline, and refuses a format 5 block that already holds the
# key, which would otherwise be overwritten unseen.
@pytest.mark.parametrize("name,value", [("empirical-fixed-v", 0.5), ("empirical", None),
                                        ("pca-lm", 0.5)])
def test_a_format_5_file_holds_no_v_star(tmp_path, name, value):
    doc = json.loads((DATA / f"{name}_v5.json").read_text(encoding="utf-8"))
    doc["pipeline"]["v_star"] = value
    _assert_refused(tmp_path / "model.json", doc,
                    re.escape("unknown key 'v_star' in the pipeline block"))


# Format 6 stored no grid rule: its models were fitted on forces read at the
# grid points.  Its upgrade to format 7 gives the grid block the point rule,
# and refuses a format 6 block that already holds the key, which would
# otherwise be overwritten unseen.
@pytest.mark.parametrize("name", ["empirical", "pca-lm", "rf"])
def test_a_format_6_file_reads_its_grid_by_the_point_rule(tmp_path, name):
    doc = json.loads((DATA / f"{name}_v6.json").read_text(encoding="utf-8"))
    assert UPGRADES[6](doc)["grid"] == {**doc["grid"], "rule": RULE_POINT}
    assert load_model(DATA / f"{name}_v6.json")[0].grid == GridSpec(
        spacing_mm=0.01, n_points=151, rule=RULE_POINT)
    for value in (RULE_POINT, RULE_INTERVAL_MEAN):
        doc["grid"]["rule"] = value
        _assert_refused(tmp_path / "model.json", doc,
                        re.escape("unknown key 'rule' in the grid block"))


@pytest.mark.parametrize("value,message", [
    ("midpoint", "grid rule must be one of interval-mean, point, got 'midpoint'"),
    (1, "rule must be a string, got 1"),
    (DELETE, "missing field 'rule'"),
])
def test_a_format_7_grid_rule_is_one_the_build_knows(tmp_path, trained_by_family, value,
                                                      message):
    path = tmp_path / "model.json"
    save_model(path, trained_by_family["pca-lm"], {})
    doc = json.loads(path.read_text())
    assert doc["grid"]["rule"] == RULE_INTERVAL_MEAN
    if value is DELETE:
        del doc["grid"]["rule"]
    else:
        doc["grid"]["rule"] = value
    _assert_refused(path, doc, re.escape(message))


@pytest.mark.parametrize("marker,value,message", [
    ("fixed-v", "0.5", "v_star must be a number, got '0.5'"),
    ("fixed-v", True, "v_star must be a number, got True"),
    ("fixed-v", float("nan"), "v_star must be finite and > 0, got nan"),
    ("fixed-v", float("inf"), "v_star must be finite and > 0, got inf"),
    ("fixed-v", -0.5, "v_star must be finite and > 0, got -0.5"),
    ("fixed-v", 0, "v_star must be finite and > 0, got 0"),
    ("max-slope", 0.5, "only the fixed-v marker reads a v_star, got marker strategy 'max-slope'"),
    ("fixed-v", DELETE, "missing field 'v_star'"),
], ids=["string", "bool", "nan", "inf", "negative", "zero", "max-slope", "missing"])
def test_a_stored_v_star_is_checked(tmp_path, trained_by_family, marker, value, message):
    path = tmp_path / "model.json"
    save_model(path, trained_by_family["empirical"], {})
    doc = json.loads(path.read_text())
    doc["pipeline"]["marker_strategy"] = marker
    if value is DELETE:
        del doc["pipeline"]["v_star"]
    else:
        doc["pipeline"]["v_star"] = value
    _assert_refused(path, doc, re.escape(message))


@pytest.mark.parametrize("name", ["pca-lm-no-standardize", "rf-scores-no-standardize"])
def test_a_format_3_file_saved_without_standardizing_gets_the_identity(name):
    trained, _ = load_model(DATA / f"{name}_v3.json")
    width = trained.grid.n_points + 1
    assert trained.standardizer.means.tobytes() == np.zeros(width).tobytes()
    assert trained.standardizer.scales.tobytes() == np.ones(width).tobytes()


def _assert_refused(path, doc, match=None):
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFileError, match=match) as err:
        load_model(path)
    # exactly ModelFileError (exit 4), not a BadConfig (exit 2) or a bare ValueError
    assert type(err.value) is ModelFileError
    assert str(err.value).count(str(path)) == 1


# A format 1 forest nests its trees.  Its upgrade only flattens them into
# the level-order arrays of format 2 and 3, whose checks then refuse them.
V1_FILE = DATA / "rf_10_trees_v1.json"


def _v1_root(doc):
    return doc["model"]["trees"][0]


def _v1_leaf(doc):
    node = _v1_root(doc)
    while "value" not in node:
        node = node["left"]
    return node


def _v1_trees(doc):
    return doc["model"]["trees"]


@pytest.mark.parametrize("block,key,value", [
    (_v1_root, "feature", 999),
    (_v1_root, "feature", -1),
    (_v1_root, "feature", 1.5),
    (_v1_root, "feature", True),
    (_v1_root, "threshold", float("inf")),
    (_v1_root, "threshold", 10**400),
    (_v1_root, "threshold", True),
    (_v1_root, "threshold", "1.5"),
    (_v1_leaf, "value", float("nan")),
    (_v1_leaf, "value", True),
    (_v1_leaf, "value", "x"),
    (_v1_leaf, "count", 0),
    (_v1_leaf, "count", 2**64),
    (lambda d: d["model"], "n_features", 152.9),
    (lambda d: d["model"], "importances", [1.0]),
    (lambda d: d["model"], "trees", []),
    (lambda d: d["pipeline"]["forest"], "n_trees", 11),
    # a leaf without a count, a split without a right child
    (_v1_leaf, "count", DELETE),
    (_v1_root, "right", DELETE),
    (_v1_trees, 0, 7),
    (lambda d: d["model"], "trees", {"value": 500.0, "count": 3}),
], ids=["split-feature-999", "split-feature-negative", "split-feature-float",
        "split-feature-bool", "split-threshold-inf", "split-threshold-overflow",
        "split-threshold-bool", "split-threshold-string", "leaf-value-nan", "leaf-value-bool",
        "leaf-value-string", "leaf-count-0", "leaf-count-overflow", "n_features-float",
        "importances-length", "no-trees", "n_trees-mismatch", "leaf-without-count",
        "split-without-right", "node-number", "trees-not-a-list"])
def test_malformed_v1_forest_is_a_model_file_error(tmp_path, block, key, value):
    doc = json.loads(V1_FILE.read_text())
    if value is DELETE:
        del block(doc)[key]
    else:
        block(doc)[key] = value
    _assert_refused(tmp_path / "model.json", doc)


def _split_after_children(model):
    """Swap the last split with the last node, a leaf: counts stay consistent."""
    count = model["count"]
    last = max(i for i, c in enumerate(count) if c == 0)
    count[last], count[-1] = count[-1], 0


@pytest.mark.parametrize("change,match", [
    (lambda m: m["threshold"].append(1.0), "thresholds"),
    (lambda m: m["feature"].pop(), "features"),
    (lambda m: m["value"].append(500.0), "values"),
    # one leaf more: n_trees + 2 * splits nodes no longer
    (lambda m: (m["count"].append(1), m["value"].append(500.0)), "do not make 2 trees"),
    (_split_after_children, "after its children"),
    (lambda m: m["count"].__setitem__(-1, -1), "leaf count"),
    (lambda m: m.__setitem__("count", 5), "count must be a list, got 5"),
    (lambda m: m["feature"].__setitem__(0, True), "feature must be an integer, got True"),
    (lambda m: m["value"].__setitem__(0, None), "value must be a number, got None"),
], ids=["threshold-longer", "feature-shorter", "value-longer", "node-count",
        "split-after-children", "count-negative", "count-not-a-list", "feature-bool",
        "value-null"])
def test_malformed_v2_forest_is_a_model_file_error(tmp_path, trained_by_family, change, match):
    path = tmp_path / "model.json"
    save_model(path, trained_by_family["rf"], {})
    doc = json.loads(path.read_text())
    change(doc["model"])
    _assert_refused(path, doc, match)


def test_forest_block_is_read_by_its_files_version(tmp_path):
    # format 1 nests a forest's trees; format 2 and later store level-order arrays
    path = tmp_path / "model.json"
    doc = json.loads((DATA / "rf_v4.json").read_text(encoding="utf-8"))
    doc["format_version"] = 1
    _assert_refused(path, doc, "missing field 'trees'")
    doc = json.loads(V1_FILE.read_text())
    doc["format_version"] = 2
    _assert_refused(path, doc, "missing field 'count'")


def test_a_format_1_file_without_a_forest_reads_as_its_format_2_self(tmp_path, dataset):
    # only a forest changed between formats 1 and 2
    doc = json.loads((DATA / "pca-lm_v2.json").read_text(encoding="utf-8"))
    v1 = {**doc, "format_version": 1}
    assert UPGRADES[1](v1) == v1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(v1), encoding="utf-8")
    trained = load_model(DATA / "pca-lm_v2.json")[0]
    raw, _ = generate(SynthConfig(n_materials=3, curves_per_material=6, noise_sigma_N=4.0,
                                  seed=50))
    curves = [resample(c, trained.grid) for c in raw]
    want = predict_pipeline(trained, curves)
    assert predict_pipeline(load_model(path)[0], curves).tobytes() == want.tobytes()


@pytest.mark.parametrize("path", sorted(DATA.glob("*_v[123456].json")), ids=lambda p: p.name)
def test_an_older_file_upgrades_to_the_document_its_model_saves(tmp_path, path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    before = copy.deepcopy(doc)
    upgraded = doc
    for version in range(doc["format_version"], FORMAT_VERSION):
        upgraded = UPGRADES[version](upgraded)
    assert doc == before  # each step is pure
    trained, provenance = load_model(path)
    save_model(tmp_path / "model.json", trained, provenance)
    saved = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
    assert {**upgraded, "format_version": FORMAT_VERSION} == saved


def test_forest_trees_survive_re_save(tmp_path, dataset):
    curves, _ = dataset
    kind = ForestKind(config=ForestConfig(n_trees=5, seed=7))
    trained = fit_pipeline(curves, kind)
    first = tmp_path / "first.json"
    save_model(first, trained, {})
    loaded, _ = load_model(first)
    second = tmp_path / "second.json"
    save_model(second, loaded, {})
    assert first.read_bytes() == second.read_bytes()
