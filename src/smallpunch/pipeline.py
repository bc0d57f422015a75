"""End-to-end pipelines from uniform curves to strength predictions.

A PipelineSpec picks one of three model families and the preprocessing
applied before it:

* empirical: curve markers -> single-factor correlation;
* pca-lm: standardized features -> PCA scores -> linear model;
* rf: standardized features (raw columns or PCA scores) -> forest.

Everything that depends on the family lives on its kind class here: the
family name, building the kind from the command line's flags, fitting and
predicting, train's diagnostics and the family's part of the model file.
KINDS finds a kind class by family name, so the command line names none.
record_to_doc and record_from_doc write and read every model-file block
that is a record's fields as they stand; json_value is the one check that
a model-file value has the JSON type its field declares.

fit_pipeline touches only the curves it is given, which is what makes the
cross-validation in evaluation.py leakage-free: every fold refits the
standardizer, the PCA and the model on training rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Sequence, Union

import numpy as np

from .curves import (
    CurveMarkers,
    GridSpec,
    MARKER_MAX_SLOPE,
    MARKER_STRATEGIES,
    UniformCurve,
    extract_markers,
    fmt,
    frozen,
)
from .errors import BadConfig, GridMismatch, InvalidModel, prefixed
from .features import (Standardizer, apply_standardizer, assemble, column_labels,
                       fit_standardizer, strengths)
from .forest import ForestConfig, ForestModel, _NodeTable, fit_forest, predict_forest
from .pca import PcaModel, fit_pca, transform
from .regress import (
    EmpiricalModel,
    LinearModel,
    MODE_INSTABILITY_FORCE,
    MODE_MAX_FORCE,
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
# flags, the dests of the command line's family flags the family reads,
# each the name of the field it fills; from_flags, the kind those flags
# name, every flag not given left at its field's default; fit -> Fitted and
# predict, both given the curves and their assembled matrix; diagnostics,
# the lines train prints to stderr; to_doc/from_doc for its "pipeline"
# settings and model_to_doc/model_from_doc for its "model" parameters.
# A kind reads only the current format's layout: modelfile.py upgrades an
# older file's document before any kind sees it.
Fitted = tuple[Standardizer | None, PcaModel | None, Any]


def record_to_doc(rec: Any) -> dict[str, Any]:
    """A frozen dataclass's fields as a JSON-ready dict, ndarrays as lists.

    Keys follow declaration order, which is the model file's layout: a
    reordered, renamed or added field needs a new format and its upgrade
    step in modelfile.py.
    """
    doc = {}
    for f in fields(rec):
        value = getattr(rec, f.name)
        doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


def record_from_doc(cls: type, doc: dict[str, Any], **built: Any) -> Any:
    """Rebuild cls from its fields' keys in doc; cls's constructor validates.

    Each value must first have the JSON type its field declares (json_value).
    built holds the fields the caller has already made, records of their own.
    """
    return cls(**built, **{f.name: json_value(doc[f.name], f.type, f.name)
                           for f in fields(cls) if f.name not in built})


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


def fields_given(cls: type, args: Any) -> dict[str, Any]:
    """The flags given in args, an argparse namespace, that fill a field of cls.

    A flag not given is absent from args, so its field keeps the default
    cls states.
    """
    return {f.name: getattr(args, f.name) for f in fields(cls) if f.name in args}


class _RecordBlocks:
    """Model-file blocks that are the kind's and its model's own fields.

    Subclasses set model_class, the record their fit returns, and report no diagnostics.
    """

    model_class: ClassVar[type]
    to_doc = record_to_doc
    from_doc = classmethod(record_from_doc)
    model_to_doc = staticmethod(record_to_doc)

    def model_from_doc(self, doc: dict[str, Any]):
        return record_from_doc(self.model_class, doc)

    def diagnostics(self, trained: TrainedPipeline) -> list[str]:
        return []


@dataclass(frozen=True)
class EmpiricalKind(_RecordBlocks):
    """Marker-based correlation family.

    The max-force correlation reads F_m and v_m alone, so that mode ignores
    the marker strategy: it records max-slope, the default, needs no v_star
    and neither locates nor checks an instability point.
    """

    name: ClassVar[str] = "empirical"
    model_type: ClassVar[str] = "empirical"
    model_class: ClassVar[type] = EmpiricalModel
    uses_features: ClassVar[bool] = False
    uses_pca: ClassVar[bool] = False

    # --v-star and --truth give the fixed-v marker's v_i, not a field
    flags: ClassVar[tuple[str, ...]] = ("mode", "marker_strategy", "truth", "v_star")

    mode: str = MODE_INSTABILITY_FORCE
    marker_strategy: str = MARKER_MAX_SLOPE

    def __post_init__(self) -> None:
        if self.mode not in EMPIRICAL_MODES:
            raise BadConfig(f"unknown empirical mode: {self.mode!r}")
        if self.marker_strategy not in MARKER_STRATEGIES:
            raise BadConfig(f"unknown marker strategy: {self.marker_strategy!r}")
        if self.mode == MODE_MAX_FORCE:
            object.__setattr__(self, "marker_strategy", MARKER_MAX_SLOPE)

    @classmethod
    def from_flags(cls, args: Any) -> EmpiricalKind:
        return cls(**fields_given(cls, args))

    def _markers(self, forces: np.ndarray, grid: GridSpec, v_star) -> CurveMarkers:
        if self.mode != MODE_MAX_FORCE:
            return extract_markers(forces, grid, self.marker_strategy, v_star)
        # the instability point sits at the maximum, where every check on it
        # holds: only F_m > 0 and v_m > 0 are checked
        f_m = frozen(np.max(forces, axis=1))
        v_m = frozen(grid.displacements()[np.argmax(forces, axis=1)])
        return CurveMarkers(f_max_N=f_m, v_at_fmax_mm=v_m, f_instability_N=f_m,
                            v_instability_mm=v_m)

    # the matrix's last column is the temperature; the rest are the forces
    def fit(self, curves, matrix, targets, v_star) -> Fitted:
        markers = self._markers(matrix[:, :-1], curves[0].grid, v_star)
        feats = empirical_feature(markers, _thicknesses(curves), self.mode)
        return None, None, fit_beta(feats, targets)

    def predict(self, trained: TrainedPipeline, curves, matrix, v_star) -> np.ndarray:
        markers = self._markers(matrix[:, :-1], trained.grid, v_star)
        return predict_empirical(trained.model, markers, _thicknesses(curves), self.mode)


def _thicknesses(curves: list[UniformCurve]) -> np.ndarray:
    return np.array([c.meta.thickness_mm for c in curves], dtype=float)


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

    def fit(self, curves, matrix, targets, v_star) -> Fitted:
        std = fit_standardizer(matrix)
        pca, design = self._design(matrix, std, None)
        return std, pca, self._fit_model(design, targets)

    def predict(self, trained: TrainedPipeline, curves, matrix, v_star) -> np.ndarray:
        _, design = self._design(matrix, trained.standardizer, trained.pca)
        return self._predict_model(trained.model, design)

    def _design(self, matrix, std, pca) -> tuple[PcaModel | None, np.ndarray]:
        """The PCA, fitted here if pca is None, and the design the model sees:
        the standardized rows, or their PCA scores if the family uses PCA."""
        prepared = apply_standardizer(std, matrix)
        if not self.uses_pca:
            return None, prepared
        if pca is None:
            pca = fit_pca(prepared, self.variance_threshold)
        return pca, transform(pca, prepared)


@dataclass(frozen=True)
class PcaLmKind(_RecordBlocks, _FeatureKind):
    """PCA scores into a linear model."""

    name: ClassVar[str] = "pca-lm"
    model_type: ClassVar[str] = "linear"
    model_class: ClassVar[type] = LinearModel
    uses_pca: ClassVar[bool] = True
    flags: ClassVar[tuple[str, ...]] = ("variance_threshold",)

    variance_threshold: float = 0.99

    @classmethod
    def from_flags(cls, args: Any) -> PcaLmKind:
        with prefixed("--variance-threshold"):
            return cls(**fields_given(cls, args))

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
    flags: ClassVar[tuple[str, ...]] = ("n_trees", "max_depth", "min_leaf", "mtry", "input",
                                        "variance_threshold")

    config: ForestConfig = ForestConfig()
    input: str = FOREST_INPUT_RAW
    variance_threshold: float = 0.99

    def __post_init__(self) -> None:
        if self.input not in (FOREST_INPUT_RAW, FOREST_INPUT_SCORES):
            raise BadConfig(f"forest input must be 'raw' or 'scores', got {self.input!r}")
        super().__post_init__()

    @classmethod
    def from_flags(cls, args: Any) -> ForestKind:
        # the command's --seed seeds the forest
        with prefixed("--trees/--max-depth/--min-leaf/--mtry/--seed"):
            config = ForestConfig(**fields_given(ForestConfig, args))
        with prefixed("--rf-input/--variance-threshold"):
            return cls(config=config, **fields_given(cls, args))

    @property
    def uses_pca(self) -> bool:
        return self.input == FOREST_INPUT_SCORES

    def _fit_model(self, design, targets) -> ForestModel:
        return fit_forest(design, targets, self.config)

    @staticmethod
    def _predict_model(model: ForestModel, design) -> np.ndarray:
        return predict_forest(model, design)

    @staticmethod
    def diagnostics(trained: TrainedPipeline) -> list[str]:
        """The out-of-bag RMSE and the five largest importances, with their labels."""
        model = trained.model
        oob = "none" if model.oob_rmse is None else fmt(model.oob_rmse)
        labels = ([f"pc{j + 1}" for j in range(model.n_features)] if trained.pca is not None
                  else column_labels(trained.grid))
        top = np.argsort(-model.importances, kind="stable")[:5]
        shares = ",".join(f"{labels[j]}:{fmt(model.importances[j])}" for j in top)
        return [f"oob_rmse_MPa={oob}", f"top_importances={shares}"]

    # The model file puts the config last, under "forest", and the node
    # table after the model's diagnostics, so these blocks are written by hand.
    def to_doc(self) -> dict[str, Any]:
        return {
            "input": self.input,
            "variance_threshold": self.variance_threshold,
            "forest": record_to_doc(self.config),
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> ForestKind:
        forest = json_value(doc["forest"], "dict", "forest")
        return record_from_doc(cls, doc, config=record_from_doc(ForestConfig, forest))

    # A forest's model block is its node table in level order: the four
    # arrays of forest._NodeTable.level_order, from which the forest module
    # builds and checks the table again.
    @staticmethod
    def model_to_doc(model: ForestModel) -> dict[str, Any]:
        count, feature, threshold, value = model.table.level_order()
        return {
            "n_features": model.n_features,
            "importances": model.importances.tolist(),
            "oob_rmse": model.oob_rmse,
            "count": count.tolist(),
            "feature": feature.tolist(),
            "threshold": threshold.tolist(),
            "value": value.tolist(),
        }

    def model_from_doc(self, doc: dict[str, Any]) -> ForestModel:
        n_features = json_value(doc["n_features"], "int", "n_features")
        return ForestModel(
            table=_NodeTable.from_level_order(
                self.config.n_trees, n_features, json_value(doc["count"], "list[int]", "count"),
                json_value(doc["feature"], "list[int]", "split feature"),
                json_value(doc["threshold"], "list[float]", "split threshold"),
                json_value(doc["value"], "list[float]", "leaf value")),
            n_features=n_features,
            importances=json_value(doc["importances"], "np.ndarray", "importances"),
            oob_rmse=json_value(doc["oob_rmse"], "float | None", "oob_rmse"),
        )


PipelineKind = Union[EmpiricalKind, PcaLmKind, ForestKind]

KINDS: dict[str, type] = {k.name: k for k in (EmpiricalKind, PcaLmKind, ForestKind)}


@dataclass(frozen=True)
class PipelineSpec:
    """A model family: its kind, which holds the family's settings."""

    kind: PipelineKind

    @classmethod
    def from_flags(cls, args: Any) -> PipelineSpec:
        """The pipeline cv's and train's flags name: --pipeline's kind built from them."""
        return cls(KINDS[args.pipeline].from_flags(args))

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
    matrix = assemble(curve_list)
    targets = strengths(curve_list)
    std, pca, model = spec.kind.fit(curve_list, matrix, targets, v_star)
    return TrainedPipeline(spec, curve_list[0].grid, std, pca, model)


def predict_pipeline(
    trained: TrainedPipeline,
    curves: Sequence[UniformCurve],
    v_star: float | Sequence[float] | None = None,
) -> np.ndarray:
    """Predict strengths for curves resampled on the pipeline's grid."""
    curve_list = list(curves)
    matrix = assemble(curve_list)  # every curve on the first one's grid
    if curve_list[0].grid != trained.grid:
        raise GridMismatch(f"curve 0 grid {curve_list[0].grid} differs from model grid "
                           f"{trained.grid}")
    return trained.spec.kind.predict(trained, curve_list, matrix, v_star)
