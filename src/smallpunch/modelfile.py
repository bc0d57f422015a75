"""Versioned JSON container for trained pipelines.

JSON keeps the file human-inspectable; floats are serialized by repr so a
saved model predicts bit-identically after reload.  Files declare
format_version and loading refuses versions it does not know instead of
guessing.  This module alone knows the layout: the pipeline block is the
family and its kind's fields, and every other block but provenance is a
record's fields, each written by record_to_doc and read by
record_from_doc, which refuses any other key; json_value checks each
stored value's JSON type.

Format 7 is written; it stores each fact once.  An older file's document
is upgraded one version at a time by the pure steps of UPGRADES, so the
records read format 7's layout alone.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .curves import RULE_POINT, GridSpec
from .errors import InvalidModel, ModelFileError, UnsupportedVersion
from .features import Standardizer
from .pca import PcaModel
from .pipeline import KINDS, TrainedPipeline

FORMAT_VERSION = 7
# the top-level keys, in the order save_model writes them
_BLOCKS = ("format_version", "pipeline", "grid", "standardizer", "pca", "model", "provenance")


def record_to_doc(rec: Any) -> dict[str, Any]:
    """A frozen dataclass's fields as a JSON-ready dict, ndarrays as lists.

    Keys follow declaration order, which is the model file's layout: a
    reordered, renamed or added field needs a new format and its upgrade
    step.  A field holding a record is written as that record's block.
    """
    doc = {}
    for f in fields(rec):
        value = getattr(rec, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif is_dataclass(value):
            value = record_to_doc(value)
        doc[f.name] = value
    return doc


def record_from_doc(cls: type, doc: dict[str, Any], block: str) -> Any:
    """Rebuild cls from doc, the block named block; cls's constructor validates.

    Each value must first have the JSON type its field declares
    (json_value); a field whose default is a record is read from that
    record's block.  A key that is no field of cls is refused, after the
    fields are read.
    """
    values = {
        f.name: record_from_doc(type(f.default), json_value(doc[f.name], "dict", f.name), f.name)
        if is_dataclass(f.default) else json_value(doc[f.name], f.type, f.name)
        for f in fields(cls)}
    _refuse_unknown(doc, values, f"in the {block} block")
    return cls(**values)


def _refuse_unknown(doc: dict[str, Any], known: Any, where: str) -> None:
    """Refuse the first key of doc that is not in known, naming it and where it is."""
    for key in doc:
        if key not in known:
            raise InvalidModel(f"unknown key {key!r} {where}")


# The JSON types a value other than an array may hold, by its declared
# type, and their name in an error; a float field also takes an integer
# such as 1, and a dict is a model-file block.
_SCALARS = {
    "float": ({int, float}, "a number"),
    "int": ({int}, "an integer"),
    "bool": ({bool}, "true or false"),
    "str": ({str}, "a string"),
    "dict": ({dict}, "an object"),
}
# An array's entry type and dtype; only an np.ndarray may be a list of lists.
_ARRAYS = {"np.ndarray": ("float", float), "list[float]": ("float", float),
           "list[int]": ("int", np.intp)}


def json_value(value: Any, declared: str, what: str) -> Any:
    """value if it has the JSON type declared names, arrays read as ndarrays.

    declared is a field's annotation as written, or "dict" for a block: a
    key of _SCALARS or _ARRAYS, "| None" allowing null.  type(), not isinstance, is compared,
    so true and false are never numbers.  A list of lists must have rows
    of one length.  An integer too large for an array's dtype raises
    OverflowError.
    """
    if value is None and declared.endswith(" | None"):
        return None
    declared = declared.removesuffix(" | None")
    if declared in _SCALARS:
        allowed, noun = _SCALARS[declared]
        if type(value) not in allowed:
            raise InvalidModel(f"{what} must be {noun}, got {value!r}")
        return value
    if type(value) is not list:
        raise InvalidModel(f"{what} must be a list, got {value!r}")
    entry, dtype = _ARRAYS[declared]
    if declared == "np.ndarray" and value and type(value[0]) is list:
        for row in value:
            json_value(row, "list[float]", what)
            if len(row) != len(value[0]):
                raise InvalidModel(f"{what} must have rows of one length, "
                                   f"got {len(value[0])} and {len(row)}")
    elif not set(map(type, value)) <= _SCALARS[entry][0]:
        for item in value:  # raises at the first entry of the wrong type
            json_value(item, entry, what)
    return np.array(value, dtype=dtype)


def _forest_level_order(doc: dict[str, Any]) -> dict[str, Any]:
    """Format 1 to 2: a forest's nested trees become count, feature, threshold and value.

    One first-in-first-out walk, seeded with every root, appends each
    split's left and then right child to the queue: level order, as growth
    numbers the nodes.  A node holding "value" is a leaf; the values are
    left for the forest's reader to check, as a format 2 file's are.
    """
    model = json_value(doc["model"], "dict", "model")
    if model.get("type") != "forest":
        return doc
    trees = model["trees"]
    if not isinstance(trees, list):
        raise InvalidModel(f"trees must be a list, got {type(trees).__name__}")
    count, feature, threshold, value = [], [], [], []
    queue = list(trees)
    # the loop visits the children it appends, as a list iterator does
    for node in queue:
        if not isinstance(node, dict):
            raise InvalidModel(f"tree node must be an object, got {node!r}")
        if "value" in node:
            count.append(node["count"])
            value.append(node["value"])
        else:
            count.append(0)
            feature.append(node["feature"])
            threshold.append(node["threshold"])
            queue += (node["left"], node["right"])
    rest = {key: v for key, v in model.items() if key != "trees"}
    return {**doc, "model": {**rest, "count": count, "feature": feature,
                             "threshold": threshold, "value": value}}


def _facts_once(doc: dict[str, Any]) -> dict[str, Any]:
    """Format 2 to 3: drop each fact's second copy, refusing a copy that disagrees.

    A PCA block repeated the pipeline's variance_threshold and stored
    explained_ratio, which PcaModel derives (dropped unread); an empirical
    model block repeated the pipeline's mode and marker_strategy.
    """
    pipeline, model = (json_value(doc[key], "dict", key) for key in ("pipeline", "model"))
    pca = json_value(doc["pca"], "dict | None", "pca")
    if pca is not None:
        threshold = json_value(pca["threshold"], "float", "threshold")
        # an empirical pipeline has none; its PCA block is refused as stray
        setting = pipeline.get("variance_threshold", threshold)
        if threshold != setting:
            raise InvalidModel(f"pca threshold {threshold!r} contradicts pipeline "
                               f"variance_threshold {setting!r}")
        pca = {k: v for k, v in pca.items() if k not in ("threshold", "explained_ratio")}
    if pipeline.get("family") == model.get("type") == "empirical":
        for name in ("mode", "marker_strategy"):
            if model[name] != pipeline[name]:
                raise InvalidModel(f"model {name} {model[name]!r} contradicts pipeline "
                                   f"{pipeline[name]!r}")
        model = {k: v for k, v in model.items() if k not in ("mode", "marker_strategy")}
    return {**doc, "pca": pca, "model": model}


def _always_standardized(doc: dict[str, Any]) -> dict[str, Any]:
    """Format 3 to 4: drop pipeline.standardize; false gives a feature family
    the identity standardizer, whose (x - 0.0) / 1.0 is x bit for bit."""
    pipeline = json_value(doc["pipeline"], "dict", "pipeline")
    family, standardize = pipeline.get("family"), pipeline["standardize"]
    doc = {**doc, "pipeline": {k: v for k, v in pipeline.items() if k != "standardize"}}
    if json_value(standardize, "bool", "standardize") or family not in ("pca-lm", "rf"):
        return doc
    if doc["standardizer"] is not None:
        raise InvalidModel(f"{family} model file with standardize=false holds a stray "
                           "standardizer block")
    grid = {**json_value(doc["grid"], "dict", "grid"), "rule": RULE_POINT}  # as format 7 reads it
    width = record_from_doc(GridSpec, grid, "grid").n_points + 1
    return {**doc, "standardizer": {"means": [0.0] * width, "scales": [1.0] * width}}


def _family_is_the_type(doc: dict[str, Any]) -> dict[str, Any]:
    """Format 4 to 5: drop model.type, refusing one the family contradicts,
    and store an rf pipeline's forest block under config, the field it fills."""
    pipeline, model = (json_value(doc[key], "dict", key) for key in ("pipeline", "model"))
    family, actual = pipeline.get("family"), model["type"]
    # == takes any JSON value, where a dict lookup fails on a list; load_model
    # refuses an unknown family
    for name, expected in (("empirical", "empirical"), ("pca-lm", "linear"), ("rf", "forest")):
        if family == name and actual != expected:
            raise InvalidModel(f"pipeline family {family!r} expects a {expected} model, "
                               f"got {actual!r}")
    if family == "rf":
        # format 4 has no config key, and the forest block would replace one unseen
        if "config" in pipeline:
            raise InvalidModel("unknown key 'config' in the pipeline block")
        rest = {k: v for k, v in pipeline.items() if k != "forest"}
        pipeline = {**rest, "config": json_value(pipeline["forest"], "dict", "forest")}
    return {**doc, "pipeline": pipeline,
            "model": {k: v for k, v in model.items() if k != "type"}}


def _v_star_stored(doc: dict[str, Any]) -> dict[str, Any]:
    """Format 5 to 6: an empirical pipeline stores v_star, null in every older file,
    whose fixed-v models took v_i from the command line."""
    pipeline = json_value(doc["pipeline"], "dict", "pipeline")
    if "v_star" in pipeline:  # format 5 has none, and one would be overwritten unseen
        raise InvalidModel("unknown key 'v_star' in the pipeline block")
    empirical = pipeline.get("family") == "empirical"
    return {**doc, "pipeline": {**pipeline, "v_star": None}} if empirical else doc


def _grid_rule_stored(doc: dict[str, Any]) -> dict[str, Any]:
    """Format 6 to 7: the grid block stores its rule, point sampling in every
    older file, whose model was fitted on forces read at the grid points."""
    grid = json_value(doc["grid"], "dict", "grid")
    if "rule" in grid:  # format 6 has none, and one would be overwritten unseen
        raise InvalidModel("unknown key 'rule' in the grid block")
    return {**doc, "grid": {**grid, "rule": RULE_POINT}}


# UPGRADES[n] turns a format n document into a format n + 1 document
UPGRADES = {1: _forest_level_order, 2: _facts_once, 3: _always_standardized,
            4: _family_is_the_type, 5: _v_star_stored, 6: _grid_rule_stored}
READ_VERSIONS = (*UPGRADES, FORMAT_VERSION)


def save_model(path: Path | str, trained: TrainedPipeline, provenance: dict[str, Any]) -> None:
    """Write a trained pipeline with its provenance block."""
    path = Path(path)
    kind, std, pca = trained.kind, trained.standardizer, trained.pca
    doc = {
        "format_version": FORMAT_VERSION,
        "pipeline": {"family": kind.name, **record_to_doc(kind)},
        "grid": record_to_doc(trained.grid),
        "standardizer": None if std is None else record_to_doc(std),
        "pca": None if pca is None else record_to_doc(pca),
        "model": record_to_doc(trained.model),
        "provenance": dict(provenance),
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_model(path: Path | str) -> tuple[TrainedPipeline, dict[str, Any]]:
    """Read a model file back; refuses unknown format versions.

    Raises
    ------
    UnsupportedVersion
        format_version is not one this code reads.
    ModelFileError
        A block is missing, malformed or holds an unknown key, or the
        stored components do not match the declared pipeline family or
        each other (TrainedPipeline's constructor refuses those).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelFileError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: top level must be an object")
    version = doc.get("format_version")
    # true would compare equal to 1 and 2.0 to 2
    if type(version) is not int or version not in READ_VERSIONS:
        *earlier, last = READ_VERSIONS
        raise UnsupportedVersion(
            f"{path}: unknown model format_version {version!r} "
            f"(this build reads {', '.join(map(str, earlier))} and {last})"
        )
    try:
        for step in range(version, FORMAT_VERSION):
            doc = UPGRADES[step](doc)
        kind_doc, grid_doc, model_doc = (json_value(doc[key], "dict", key)
                                         for key in ("pipeline", "grid", "model"))
        std_doc, pca_doc = (json_value(doc[key], "dict | None", key)
                            for key in ("standardizer", "pca"))
        family = kind_doc["family"]
        if not isinstance(family, str) or family not in KINDS:
            raise ModelFileError(f"unknown pipeline family: {family!r}")
        kind = record_from_doc(KINDS[family],
                               {k: v for k, v in kind_doc.items() if k != "family"}, "pipeline")
        trained = TrainedPipeline(
            kind, record_from_doc(GridSpec, grid_doc, "grid"),
            None if std_doc is None else record_from_doc(Standardizer, std_doc, "standardizer"),
            None if pca_doc is None else record_from_doc(PcaModel, pca_doc, "pca"),
            record_from_doc(kind.model_class, model_doc, "model"))
        provenance = json_value(doc.get("provenance", {}), "dict", "provenance")
        _refuse_unknown(doc, _BLOCKS, "at the top level")
    except KeyError as exc:
        raise ModelFileError(f"{path}: missing field {exc}") from None
    # json_value and the constructors reject malformed values and blocks
    # with SmallPunchError (a ValueError); TypeError catches a wrong JSON
    # type no check names, and an integer too large for a float raises
    # OverflowError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"{path}: {exc}") from None
    return trained, provenance
