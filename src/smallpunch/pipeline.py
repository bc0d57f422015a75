"""End-to-end pipelines from uniform curves to strength predictions.

A kind picks one of three model families and the preprocessing applied
before it, and holds the family's settings:

* empirical: curve markers -> single-factor correlation;
* pca-lm: standardized features -> PCA scores -> linear model;
* rf: standardized features (raw columns or PCA scores) -> forest.

Everything that depends on the family lives on its kind class here: the
family name, fitting and predicting, train's diagnostics and the record
its fit returns.  KINDS finds a kind class by family name, so the command
line names none.  A kind and its model are records: modelfile.py writes
and reads each as its fields, and the command line fills a kind's fields
from the flags of the same names, so no kind holds model-file or
command-line code.

fit_pipeline touches only the curves it is given, which is what makes the
cross-validation in evaluation.py leakage-free: every fold refits the
standardizer, the PCA and the model on training rows alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, ClassVar, Sequence, Union

import numpy as np

from .curves import (
    CurveMarkers,
    GridSpec,
    MARKER_FIXED_V,
    MARKER_MAX_SLOPE,
    MARKER_STRATEGIES,
    UniformCurve,
    extract_markers,
    fmt,
    frozen,
    raise_first_failure,
)
from .errors import BadConfig, InvalidModel
from .features import (Standardizer, apply_standardizer, assemble, column_labels,
                       fit_standardizer, strengths)
from .forest import ForestConfig, ForestModel, fit_forest, predict_forest
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

# Every kind class provides: name (the family); model_class, the record
# its fit returns; marker_strategy, None for families without markers;
# uses_features and uses_pca, which preprocessing the family fits; its
# dataclass fields, the family's settings, each stating its one default;
# fit -> Fitted and predict, both given the curves and their assembled
# matrix; diagnostics, the lines train prints to stderr; check_model, which
# refuses a model that contradicts the kind's settings (TrainedPipeline
# calls it).
Fitted = tuple[Standardizer | None, PcaModel | None, Any]


class _Kind:
    """What a kind does unless it says otherwise."""

    def diagnostics(self, trained: TrainedPipeline) -> list[str]:
        return []

    def check_model(self, model: Any) -> None:
        """Refuse a model that contradicts the kind's settings; none does here."""


@dataclass(frozen=True)
class EmpiricalKind(_Kind):
    """Marker-based correlation family.

    The max-force correlation reads F_m and v_m alone, so that mode takes
    no marker strategy but max-slope, the default, and refuses any other:
    it needs no v_star and neither locates nor checks an instability point.
    The fixed-v marker alone reads v_star, the v_i shared by every curve;
    without one it reads each curve's own meta.v_i_mm.
    """

    name: ClassVar[str] = "empirical"
    model_class: ClassVar[type] = EmpiricalModel
    uses_features: ClassVar[bool] = False
    uses_pca: ClassVar[bool] = False

    mode: str = MODE_INSTABILITY_FORCE
    marker_strategy: str = MARKER_MAX_SLOPE
    v_star: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in EMPIRICAL_MODES:
            raise BadConfig(f"unknown empirical mode: {self.mode!r}")
        if self.marker_strategy not in MARKER_STRATEGIES:
            raise BadConfig(f"unknown marker strategy: {self.marker_strategy!r}")
        if self.mode == MODE_MAX_FORCE and self.marker_strategy != MARKER_MAX_SLOPE:
            raise BadConfig(f"the {MODE_MAX_FORCE} mode reads no instability marker, "
                            f"got marker strategy {self.marker_strategy!r}")
        if self.v_star is not None and self.marker_strategy != MARKER_FIXED_V:
            raise BadConfig(f"only the {MARKER_FIXED_V} marker reads a v_star, "
                            f"got marker strategy {self.marker_strategy!r}")
        if self.v_star is not None and not (0.0 < self.v_star < math.inf):
            raise BadConfig(f"v_star must be finite and > 0, got {self.v_star}")

    def _markers(self, curves: list[UniformCurve], forces: np.ndarray) -> CurveMarkers:
        grid = curves[0].grid
        if self.mode != MODE_MAX_FORCE:
            v_i = [c.meta.v_i_mm for c in curves] if self.v_star is None else self.v_star
            if self.marker_strategy == MARKER_FIXED_V and self.v_star is None:
                raise_first_failure(len(v_i), [([v is None for v in v_i], lambda r: BadConfig(
                    f"material {curves[r].meta.material_id} has no v_i_mm for the "
                    f"{MARKER_FIXED_V} marker, whose kind holds no v_star"))])
            return extract_markers(forces, grid, self.marker_strategy, v_i)
        # the instability point sits at the maximum, where every check on it
        # holds: only F_m > 0 and v_m > 0 are checked
        f_m = frozen(np.max(forces, axis=1))
        v_m = frozen(grid.displacements()[np.argmax(forces, axis=1)])
        return CurveMarkers(f_max_N=f_m, v_at_fmax_mm=v_m, f_instability_N=f_m,
                            v_instability_mm=v_m)

    # the matrix's last column is the temperature; the rest are the forces
    def fit(self, curves, matrix, targets) -> Fitted:
        markers = self._markers(curves, matrix[:, :-1])
        feats = empirical_feature(markers, [c.meta.thickness_mm for c in curves], self.mode)
        return None, None, fit_beta(feats, targets)

    def predict(self, trained: TrainedPipeline, curves, matrix) -> np.ndarray:
        markers, h0 = self._markers(curves, matrix[:, :-1]), [c.meta.thickness_mm for c in curves]
        return predict_empirical(trained.model, markers, h0, self.mode)


class _FeatureKind(_Kind):
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

    # the model sees the standardized rows, or their PCA scores if the family uses PCA
    def fit(self, curves, matrix, targets) -> Fitted:
        std = fit_standardizer(matrix)
        rows = apply_standardizer(std, matrix)
        pca = fit_pca(rows, self.variance_threshold) if self.uses_pca else None
        return std, pca, self._fit_model(rows if pca is None else transform(pca, rows), targets)

    def predict(self, trained: TrainedPipeline, curves, matrix) -> np.ndarray:
        rows, pca = apply_standardizer(trained.standardizer, matrix), trained.pca
        return self._predict_model(trained.model, rows if pca is None else transform(pca, rows))


@dataclass(frozen=True)
class PcaLmKind(_FeatureKind):
    """PCA scores into a linear model."""

    name: ClassVar[str] = "pca-lm"
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
    model_class: ClassVar[type] = ForestModel

    input: str = FOREST_INPUT_RAW
    variance_threshold: float = 0.99
    config: ForestConfig = ForestConfig()

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

    def check_model(self, model: ForestModel) -> None:
        """Refuse a forest whose tree count is not the config's."""
        if model.table.n_trees != self.config.n_trees:
            raise InvalidModel(f"{model.count.size} nodes with {model.feature.size} splits "
                               f"do not make {self.config.n_trees} trees")


PipelineKind = Union[EmpiricalKind, PcaLmKind, ForestKind]

KINDS: dict[str, type] = {k.name: k for k in (EmpiricalKind, PcaLmKind, ForestKind)}


def PipelineSpec(kind: PipelineKind) -> PipelineKind:
    """The benchmark's name for a kind, the whole pipeline spec; the package never calls it."""
    return kind


@dataclass(frozen=True)
class TrainedPipeline:
    """Everything needed to turn new uniform curves into predictions; the
    constructor refuses blocks that contradict the family or each other."""

    kind: PipelineKind
    grid: GridSpec
    standardizer: Standardizer | None
    pca: PcaModel | None
    model: EmpiricalModel | LinearModel | ForestModel

    def __post_init__(self) -> None:
        kind = self.kind
        if not isinstance(self.model, kind.model_class):
            raise InvalidModel(f"{kind.name} model must be of type "
                               f"{kind.model_class.__name__}, got {type(self.model).__name__}")
        kind.check_model(self.model)
        # each block is stored exactly when the family uses it
        for block, stored, used in (("PCA", self.pca, kind.uses_pca),
                                    ("standardizer", self.standardizer, kind.uses_features)):
            if (stored is not None) != used:
                state = "lacks the" if stored is None else "holds a stray"
                raise InvalidModel(f"{kind.name} model file {state} {block} block")
        if kind.uses_features:
            # the standardizer and the PCA read the grid's forces and the
            # temperature, the model the PCA scores if any, else those columns
            width = self.grid.n_points + 1
            scores = width if self.pca is None else self.pca.n_components
            for block, record, expected in (("standardizer", self.standardizer, width),
                                            ("PCA", self.pca, width),
                                            ("model", self.model, scores)):
                if record is not None and record.n_features != expected:
                    raise InvalidModel(f"{block} block reads {record.n_features} columns, "
                                       f"expected {expected}")


def fit_pipeline(curves: Sequence[UniformCurve], kind: PipelineKind) -> TrainedPipeline:
    """Fit one pipeline on labeled curves."""
    curve_list = list(curves)
    matrix = assemble(curve_list)
    targets = strengths(curve_list)
    std, pca, model = kind.fit(curve_list, matrix, targets)
    return TrainedPipeline(kind, curve_list[0].grid, std, pca, model)


def predict_pipeline(trained: TrainedPipeline, curves: Sequence[UniformCurve]) -> np.ndarray:
    """Predict strengths for curves resampled on the pipeline's grid."""
    curve_list = list(curves)
    matrix = assemble(curve_list, trained.grid)
    return trained.kind.predict(trained, curve_list, matrix)
