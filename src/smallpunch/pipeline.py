"""End-to-end pipelines from uniform curves to strength predictions.

A PipelineSpec picks one of three model families and the preprocessing
applied before it:

* empirical: curve markers -> single-factor correlation;
* pca-lm: standardized features -> PCA scores -> linear model;
* rf: standardized features (raw columns or PCA scores) -> forest.

Everything that depends on the family lives on its kind class here: the
family name, fitting and predicting, and the family's part of the model
file.  KINDS finds a kind class by family name.  record_to_doc and
record_from_doc write and read every model-file block that is a record's
fields as they stand.

fit_pipeline touches only the curves it is given, which is what makes the
cross-validation in evaluation.py leakage-free: every fold refits the
standardizer, the PCA and the model on training rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Sequence, Union

import numpy as np

from .curves import (
    GridSpec,
    MARKER_FIXED_V,
    MARKER_MAX_SLOPE,
    MARKER_STRATEGIES,
    UniformCurve,
    extract_markers,
)
from .errors import BadConfig, EmptyTraining, GridMismatch, LengthMismatch
from .features import Standardizer, apply_standardizer, assemble, fit_standardizer
from .forest import ForestConfig, ForestModel, Leaf, Split, TreeNode, fit_forest, predict_forest
from .pca import PcaModel, fit_pca, transform
from .regress import (
    EmpiricalModel,
    LinearModel,
    MODE_INSTABILITY_FORCE,
    EMPIRICAL_MODES,
    empirical_feature,
    fit_beta,
    fit_ols,
    predict_empirical,
    predict_linear,
)

FOREST_INPUT_RAW = "raw"
FOREST_INPUT_SCORES = "scores"

# Every kind class provides: name (the family) and model_type (the model
# file's "type"); marker_strategy, None for families without markers;
# uses_features and uses_pca, which preprocessing the family fits;
# fit -> Fitted and predict; to_doc/from_doc for its "pipeline" settings
# and model_to_doc/model_from_doc for its "model" parameters.
Fitted = tuple[Standardizer | None, PcaModel | None, Any]


def record_to_doc(rec: Any) -> dict[str, Any]:
    """A frozen dataclass's fields as a JSON-ready dict, ndarrays as lists.

    Keys follow declaration order, which is the model file's layout: a
    reordered, renamed or added field needs a format_version bump.
    """
    doc = {}
    for f in fields(rec):
        value = getattr(rec, f.name)
        doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def record_from_doc(cls: type, doc: dict[str, Any]) -> Any:
    """Rebuild cls from its fields' keys in doc; cls's constructor validates."""
    return cls(**{f.name: doc[f.name] for f in fields(cls)})


class _RecordBlocks:
    """Model-file blocks that are the kind's and its model's own fields.

    Subclasses set model_class, the record their fit returns.
    """

    model_class: ClassVar[type]
    to_doc = record_to_doc
    from_doc = classmethod(record_from_doc)
    model_to_doc = staticmethod(record_to_doc)

    def model_from_doc(self, doc: dict[str, Any]):
        return record_from_doc(self.model_class, doc)


@dataclass(frozen=True)
class EmpiricalKind(_RecordBlocks):
    """Marker-based correlation family."""

    name: ClassVar[str] = "empirical"
    model_type: ClassVar[str] = "empirical"
    model_class: ClassVar[type] = EmpiricalModel
    uses_features: ClassVar[bool] = False
    uses_pca: ClassVar[bool] = False

    mode: str = MODE_INSTABILITY_FORCE
    marker_strategy: str = MARKER_MAX_SLOPE

    def __post_init__(self) -> None:
        if self.mode not in EMPIRICAL_MODES:
            raise BadConfig(f"unknown empirical mode: {self.mode!r}")
        if self.marker_strategy not in MARKER_STRATEGIES:
            raise BadConfig(f"unknown marker strategy: {self.marker_strategy!r}")

    def _markers(self, curves: list[UniformCurve], v_star):
        stars = _broadcast_v_star(v_star, len(curves), self.marker_strategy)
        for c, vs in zip(curves, stars):
            yield c, extract_markers(c, self.marker_strategy, vs)

    def fit(self, curves, matrix, targets, standardize, v_star) -> Fitted:
        feats = [
            empirical_feature(markers, c.meta.thickness_mm, self.mode)
            for c, markers in self._markers(curves, v_star)
        ]
        model = fit_beta(feats, targets, mode=self.mode, marker_strategy=self.marker_strategy)
        return None, None, model

    def predict(self, trained: TrainedPipeline, curves, v_star) -> np.ndarray:
        return np.asarray([
            predict_empirical(trained.model, markers, c.meta.thickness_mm)
            for c, markers in self._markers(curves, v_star)
        ])


class _FeatureKind:
    """Fit and predict shared by the families that model the feature matrix.

    Subclasses define variance_threshold, uses_pca, _fit_model and
    _predict_model.
    """

    uses_features = True
    marker_strategy = None

    def __post_init__(self) -> None:
        if not (0.0 < self.variance_threshold <= 1.0):
            raise BadConfig(
                f"variance_threshold must be in (0, 1], got {self.variance_threshold}"
            )

    def fit(self, curves, matrix, targets, standardize, v_star) -> Fitted:
        std = fit_standardizer(matrix) if standardize else None
        prepared = apply_standardizer(std, matrix) if std is not None else matrix
        pca = fit_pca(prepared, self.variance_threshold) if self.uses_pca else None
        design = transform(pca, prepared) if self.uses_pca else prepared.values
        return std, pca, self._fit_model(design, targets)

    def predict(self, trained: TrainedPipeline, curves, v_star) -> np.ndarray:
        matrix, _ = assemble(curves)
        std = trained.standardizer
        prepared = apply_standardizer(std, matrix) if std is not None else matrix
        design = transform(trained.pca, prepared) if self.uses_pca else prepared.values
        return self._predict_model(trained.model, design)


@dataclass(frozen=True)
class PcaLmKind(_RecordBlocks, _FeatureKind):
    """PCA scores into a linear model."""

    name: ClassVar[str] = "pca-lm"
    model_type: ClassVar[str] = "linear"
    model_class: ClassVar[type] = LinearModel
    uses_pca: ClassVar[bool] = True

    variance_threshold: float = 0.99

    @staticmethod
    def _fit_model(design, targets) -> LinearModel:
        return fit_ols(design, targets)

    @staticmethod
    def _predict_model(model: LinearModel, design) -> np.ndarray:
        return predict_linear(model, design)


@dataclass(frozen=True)
class ForestKind(_FeatureKind):
    """Random forest on raw standardized columns or on PCA scores."""

    name: ClassVar[str] = "rf"
    model_type: ClassVar[str] = "forest"

    config: ForestConfig = ForestConfig()
    input: str = FOREST_INPUT_RAW
    variance_threshold: float = 0.99

    def __post_init__(self) -> None:
        if self.input not in (FOREST_INPUT_RAW, FOREST_INPUT_SCORES):
            raise BadConfig(f"forest input must be 'raw' or 'scores', got {self.input!r}")
        super().__post_init__()

    @property
    def uses_pca(self) -> bool:
        return self.input == FOREST_INPUT_SCORES

    def _fit_model(self, design, targets) -> ForestModel:
        return fit_forest(design, targets, self.config)

    @staticmethod
    def _predict_model(model: ForestModel, design) -> np.ndarray:
        return predict_forest(model, design)

    # The v1 layout puts the config last, under "forest", and the trees
    # after the model's diagnostics, so these blocks are written by hand.
    def to_doc(self) -> dict[str, Any]:
        return {
            "input": self.input,
            "variance_threshold": self.variance_threshold,
            "forest": record_to_doc(self.config),
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> ForestKind:
        return cls(
            config=record_from_doc(ForestConfig, doc["forest"]),
            input=doc["input"],
            variance_threshold=doc["variance_threshold"],
        )

    @staticmethod
    def model_to_doc(model: ForestModel) -> dict[str, Any]:
        return {
            "n_features": model.n_features,
            "importances": model.importances.tolist(),
            "oob_rmse": model.oob_rmse,
            "trees": [_tree_to_doc(t) for t in model.trees],
        }

    def model_from_doc(self, doc: dict[str, Any]) -> ForestModel:
        return ForestModel(
            trees=tuple(_tree_from_doc(t) for t in doc["trees"]),
            config=self.config,
            n_features=int(doc["n_features"]),
            importances=np.asarray(doc["importances"], dtype=float),
            oob_rmse=None if doc["oob_rmse"] is None else float(doc["oob_rmse"]),
        )


def _tree_to_doc(node: TreeNode) -> dict[str, Any]:
    if isinstance(node, Leaf):
        return {"value": node.value, "count": node.count}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_doc(node.left),
        "right": _tree_to_doc(node.right),
    }


def _tree_from_doc(doc: dict[str, Any]) -> TreeNode:
    if "value" in doc:
        return Leaf(value=float(doc["value"]), count=int(doc["count"]))
    return Split(
        feature=int(doc["feature"]),
        threshold=float(doc["threshold"]),
        left=_tree_from_doc(doc["left"]),
        right=_tree_from_doc(doc["right"]),
    )


PipelineKind = Union[EmpiricalKind, PcaLmKind, ForestKind]

KINDS: dict[str, type] = {k.name: k for k in (EmpiricalKind, PcaLmKind, ForestKind)}


@dataclass(frozen=True)
class PipelineSpec:
    """Model family plus the standardize-before-modelling switch."""

    kind: PipelineKind
    standardize: bool = True

    @property
    def name(self) -> str:
        return self.kind.name


@dataclass(frozen=True)
class TrainedPipeline:
    """Everything needed to turn new uniform curves into predictions."""

    spec: PipelineSpec
    grid: GridSpec
    standardizer: Standardizer | None
    pca: PcaModel | None
    model: EmpiricalModel | LinearModel | ForestModel


def _broadcast_v_star(
    v_star: float | Sequence[float] | None,
    n: int,
    strategy: str,
) -> list[float | None]:
    """Normalize the fixed-v displacement input to one value per curve."""
    if strategy != MARKER_FIXED_V:
        return [None] * n
    if v_star is None:
        raise BadConfig("fixed-v marker strategy requires v_star")
    if isinstance(v_star, (int, float, np.floating, np.integer)):
        return [float(v_star)] * n
    values = [float(v) for v in v_star]
    if len(values) != n:
        raise LengthMismatch(f"{len(values)} v_star values for {n} curves")
    return values


def fit_pipeline(
    curves: Sequence[UniformCurve],
    spec: PipelineSpec,
    v_star: float | Sequence[float] | None = None,
) -> TrainedPipeline:
    """Fit one pipeline on labeled curves.

    v_star feeds the fixed-v marker strategy: a scalar is shared by every
    curve, a sequence is matched to the curves one-to-one.
    """
    curve_list = list(curves)
    matrix, targets = assemble(curve_list)
    if targets is None:
        raise EmptyTraining("training requires labeled curves (rm_MPa set)")
    std, pca, model = spec.kind.fit(curve_list, matrix, targets, spec.standardize, v_star)
    return TrainedPipeline(spec, curve_list[0].grid, std, pca, model)


def predict_pipeline(
    trained: TrainedPipeline,
    curves: Sequence[UniformCurve],
    v_star: float | Sequence[float] | None = None,
) -> np.ndarray:
    """Predict strengths for curves resampled on the pipeline's grid."""
    curve_list = list(curves)
    for i, c in enumerate(curve_list):
        if c.grid != trained.grid:
            raise GridMismatch(f"curve {i} grid {c.grid} differs from model grid {trained.grid}")
    return trained.spec.kind.predict(trained, curve_list, v_star)
