"""Versioned JSON container for trained pipelines.

JSON keeps the file human-inspectable; floats are serialized by repr so a
saved model predicts bit-identically after reload.  Files declare
format_version and loading refuses versions it does not know instead of
guessing.  The family's own blocks, its settings under "pipeline" and its
parameters under "model", are laid out by its kind class in pipeline.py.
The grid, standardizer and PCA blocks are their records' fields in
declaration order (pipeline.record_to_doc), so reordering such a field
changes the file format and needs a format_version bump.

Format 2 is written.  It differs from format 1 only in a forest's model
block: format 1 nests each tree as split and leaf objects, format 2 stores
the forest's node table as flat arrays in level order.  Both are read: a
format 1 forest is flattened into format 2's arrays, which one builder
checks and builds the node table from (forest._NodeTable.from_level_order).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .curves import GridSpec
from .errors import ModelFileError, UnsupportedVersion
from .features import Standardizer
from .pca import PcaModel
from .pipeline import (KINDS, PipelineSpec, TrainedPipeline, json_value, record_from_doc,
                       record_to_doc)

FORMAT_VERSION = 2
READ_VERSIONS = (1, 2)


def save_model(path: Path | str, trained: TrainedPipeline, provenance: dict[str, Any]) -> None:
    """Write a trained pipeline with its provenance block."""
    path = Path(path)
    kind, std, pca = trained.spec.kind, trained.standardizer, trained.pca
    doc = {
        "format_version": FORMAT_VERSION,
        "pipeline": {
            "family": kind.name,
            "standardize": trained.spec.standardize,
            **kind.to_doc(),
        },
        "grid": record_to_doc(trained.grid),
        "standardizer": None if std is None else record_to_doc(std),
        "pca": None if pca is None else record_to_doc(pca),
        "model": {"type": kind.model_type, **kind.model_to_doc(trained.model)},
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
        A block is missing or malformed, or the stored components do not
        match the declared pipeline family.
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
        raise UnsupportedVersion(
            f"{path}: unknown model format_version {version!r} "
            f"(this build reads {' and '.join(map(str, READ_VERSIONS))})"
        )
    try:
        spec_doc, grid_doc, model_doc = (json_value(doc[key], "dict", key)
                                         for key in ("pipeline", "grid", "model"))
        std_doc, pca_doc = (json_value(doc[key], "dict | None", key)
                            for key in ("standardizer", "pca"))
        family = spec_doc["family"]
        if not isinstance(family, str) or family not in KINDS:
            raise ModelFileError(f"unknown pipeline family: {family!r}")
        kind = KINDS[family].from_doc(spec_doc)
        spec = PipelineSpec(kind=kind, standardize=spec_doc["standardize"])
        grid = record_from_doc(GridSpec, grid_doc)
        standardizer = None if std_doc is None else record_from_doc(Standardizer, std_doc)
        pca = None if pca_doc is None else record_from_doc(PcaModel, pca_doc)
        actual = model_doc["type"]
        if actual != kind.model_type:
            raise ModelFileError(
                f"pipeline family {family!r} expects a {kind.model_type} model, got {actual!r}"
            )
        model = kind.model_from_doc(model_doc, version)
        provenance = doc.get("provenance", {})
    except KeyError as exc:
        raise ModelFileError(f"{path}: missing field {exc}") from None
    # json_value and the constructors reject malformed values and blocks
    # with SmallPunchError (a ValueError); TypeError catches a wrong JSON
    # type no check names, and an integer too large for a float raises
    # OverflowError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"{path}: {exc}") from None

    # each block is stored exactly when the family uses it; the empirical
    # family never fits a standardizer, whatever the flag says
    blocks = (("PCA", pca, kind.uses_pca),
              ("standardizer", standardizer, spec.standardize and kind.uses_features))
    for block, stored, used in blocks:
        if (stored is not None) != used:
            state = "lacks the" if stored is None else "holds a stray"
            raise ModelFileError(f"{path}: {family} model file with standardize="
                                 f"{json.dumps(spec.standardize)} {state} {block} block")
    if pca is not None and pca.threshold != kind.variance_threshold:
        raise ModelFileError(f"{path}: pca threshold {pca.threshold!r} contradicts pipeline "
                             f"variance_threshold {kind.variance_threshold!r}")

    trained = TrainedPipeline(
        spec=spec, grid=grid, standardizer=standardizer, pca=pca, model=model
    )
    return trained, provenance
