"""Versioned JSON container for trained pipelines.

JSON keeps the file human-inspectable; floats are serialized by repr so a
saved model predicts bit-identically after reload.  Files declare
format_version and loading refuses versions it does not know instead of
guessing.  The family's own blocks, its settings under "pipeline" and its
parameters under "model", are laid out by its kind class in pipeline.py.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .curves import GridSpec
from .errors import ModelFileError, UnsupportedVersion
from .features import Standardizer
from .pca import PcaModel
from .pipeline import KINDS, PipelineSpec, TrainedPipeline

FORMAT_VERSION = 1


def save_model(path: Path, trained: TrainedPipeline, provenance: dict[str, Any]) -> None:
    """Write a trained pipeline with its provenance block."""
    kind = trained.spec.kind
    doc = {
        "format_version": FORMAT_VERSION,
        "pipeline": {
            "family": kind.name,
            "standardize": trained.spec.standardize,
            **kind.to_doc(),
        },
        "grid": {
            "start_mm": trained.grid.start_mm,
            "spacing_mm": trained.grid.spacing_mm,
            "n_points": trained.grid.n_points,
        },
        "standardizer": None
        if trained.standardizer is None
        else {
            "means": trained.standardizer.means.tolist(),
            "scales": trained.standardizer.scales.tolist(),
        },
        "pca": None
        if trained.pca is None
        else {
            "mean": trained.pca.mean.tolist(),
            "loadings": trained.pca.loadings.tolist(),
            "eigenvalues": trained.pca.eigenvalues.tolist(),
            "explained_ratio": trained.pca.explained_ratio.tolist(),
            "threshold": trained.pca.threshold,
            "total_variance": trained.pca.total_variance,
        },
        "model": {"type": kind.model_type, **kind.model_to_doc(trained.model)},
        "provenance": dict(provenance),
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path: Path) -> tuple[TrainedPipeline, dict[str, Any]]:
    """Read a model file back; refuses unknown format versions.

    Raises
    ------
    UnsupportedVersion
        format_version is not one this code writes.
    ModelFileError
        The stored components do not match the declared pipeline family.
    """
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
        family = spec_doc.get("family")
        if not isinstance(family, str) or family not in KINDS:
            raise ModelFileError(f"{path}: unknown pipeline family: {family!r}")
        kind = KINDS[family].from_doc(spec_doc)
        spec = PipelineSpec(kind=kind, standardize=bool(spec_doc.get("standardize", True)))
        grid_doc = doc["grid"]
        grid = GridSpec(
            start_mm=float(grid_doc["start_mm"]),
            spacing_mm=float(grid_doc["spacing_mm"]),
            n_points=int(grid_doc["n_points"]),
        )
        std_doc = doc["standardizer"]
        standardizer = None
        if std_doc is not None:
            standardizer = Standardizer(
                means=np.asarray(std_doc["means"], dtype=float),
                scales=np.asarray(std_doc["scales"], dtype=float),
            )
        pca_doc = doc["pca"]
        pca = None
        if pca_doc is not None:
            pca = PcaModel(
                mean=np.asarray(pca_doc["mean"], dtype=float),
                loadings=np.asarray(pca_doc["loadings"], dtype=float),
                eigenvalues=np.asarray(pca_doc["eigenvalues"], dtype=float),
                explained_ratio=np.asarray(pca_doc["explained_ratio"], dtype=float),
                threshold=float(pca_doc["threshold"]),
                total_variance=float(pca_doc["total_variance"]),
            )
        model_doc = doc["model"]
        actual = model_doc.get("type")
        if actual != kind.model_type:
            raise ModelFileError(
                f"{path}: pipeline family {family!r} expects a {kind.model_type} model,"
                f" got {actual!r}"
            )
        model = kind.model_from_doc(model_doc)
        provenance = doc.get("provenance", {})
    except KeyError as exc:
        raise ModelFileError(f"{path}: missing field {exc}") from None

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
