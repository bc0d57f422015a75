"""Versioned JSON container for trained pipelines.

JSON keeps the file human-inspectable; floats are serialized by repr so a
saved model predicts bit-identically after reload.  Files declare
format_version and loading refuses versions it does not know instead of
guessing.  The family's own blocks, its settings under "pipeline" and its
parameters under "model", are laid out by its kind class in pipeline.py.
The grid, standardizer and PCA blocks are their records' fields in
declaration order (pipeline.record_to_doc), so reordering such a field
changes the file format and needs a format_version bump.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .curves import GridSpec
from .errors import ModelFileError, UnsupportedVersion
from .features import Standardizer
from .pca import PcaModel
from .pipeline import KINDS, PipelineSpec, TrainedPipeline, record_from_doc, record_to_doc

FORMAT_VERSION = 1


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
    path.write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path: Path | str) -> tuple[TrainedPipeline, dict[str, Any]]:
    """Read a model file back; refuses unknown format versions.

    Raises
    ------
    UnsupportedVersion
        format_version is not one this code writes.
    ModelFileError
        A block is missing or malformed, or the stored components do not
        match the declared pipeline family.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{path}: unknown model format_version {version!r} (this build reads {FORMAT_VERSION})"
        )
    try:
        spec_doc = doc["pipeline"]
        family = spec_doc["family"]
        if not isinstance(family, str) or family not in KINDS:
            raise ModelFileError(f"unknown pipeline family: {family!r}")
        kind = KINDS[family].from_doc(spec_doc)
        spec = PipelineSpec(kind=kind, standardize=spec_doc.get("standardize", True))
        grid = record_from_doc(GridSpec, doc["grid"])
        std_doc, pca_doc = doc["standardizer"], doc["pca"]
        standardizer = None if std_doc is None else record_from_doc(Standardizer, std_doc)
        pca = None if pca_doc is None else record_from_doc(PcaModel, pca_doc)
        model_doc = doc["model"]
        actual = model_doc["type"]
        if actual != kind.model_type:
            raise ModelFileError(
                f"pipeline family {family!r} expects a {kind.model_type} model, got {actual!r}"
            )
        model = kind.model_from_doc(model_doc)
        provenance = doc.get("provenance", {})
    except KeyError as exc:
        raise ModelFileError(f"{path}: missing field {exc}") from None
    # constructors reject malformed values with SmallPunchError (a
    # ValueError); a value or block of the wrong JSON type raises TypeError,
    # and an integer too large for a float raises OverflowError
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFileError(f"{path}: {exc}") from None

    if kind.uses_pca and pca is None:
        raise ModelFileError(f"{path}: {family} model file lacks the PCA block")
    # the empirical family works on raw markers and never fits a standardizer,
    # whatever the flag says
    if spec.standardize and standardizer is None and kind.uses_features:
        raise ModelFileError(f"{path}: standardize=true but no standardizer stored")

    trained = TrainedPipeline(
        spec=spec, grid=grid, standardizer=standardizer, pca=pca, model=model
    )
    return trained, provenance
