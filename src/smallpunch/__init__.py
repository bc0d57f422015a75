"""Tensile strength prediction from small-punch-test force-displacement curves.

The package covers the full chain: curve parsing and uniform resampling,
marker extraction, feature assembly, PCA, an empirical single-factor
correlation, a linear model on PCA scores, a from-scratch random forest,
leakage-free cross-validation, a synthetic-data oracle and a CLI.
"""

from .curves import (
    CurveMarkers,
    GridSpec,
    MARKER_FIXED_V,
    MARKER_MAX_SLOPE,
    RULE_INTERVAL_MEAN,
    RULE_POINT,
    RawCurve,
    SpecimenMeta,
    UniformCurve,
    extract_markers,
    parse_curve_csv,
    resample,
)
from .errors import SmallPunchError
from .evaluation import CvReport, cross_validate, group_kfold_split, kfold_split, rmse
from .features import (
    Standardizer,
    apply_standardizer,
    assemble,
    column_labels,
    fit_standardizer,
    strengths,
)
from .forest import ForestConfig, ForestModel, fit_forest, predict_forest
from .modelfile import load_model, save_model
from .pca import PcaModel, fit_pca, transform
from .pipeline import (
    EmpiricalKind,
    ForestKind,
    PcaLmKind,
    TrainedPipeline,
    fit_pipeline,
    predict_pipeline,
)
from .regress import (
    EmpiricalModel,
    LinearModel,
    MODE_INSTABILITY_FORCE,
    MODE_MAX_FORCE,
    empirical_feature,
    fit_beta,
    fit_ols,
    predict_empirical,
    predict_linear,
)
from .synth import SynthConfig, SynthRecord, generate

__version__ = "0.1.0"

__all__ = [
    "CurveMarkers",
    "CvReport",
    "EmpiricalKind",
    "EmpiricalModel",
    "ForestConfig",
    "ForestKind",
    "ForestModel",
    "GridSpec",
    "RULE_INTERVAL_MEAN",
    "RULE_POINT",
    "LinearModel",
    "MARKER_FIXED_V",
    "MARKER_MAX_SLOPE",
    "MODE_INSTABILITY_FORCE",
    "MODE_MAX_FORCE",
    "PcaLmKind",
    "PcaModel",
    "RawCurve",
    "SmallPunchError",
    "SpecimenMeta",
    "Standardizer",
    "SynthConfig",
    "SynthRecord",
    "TrainedPipeline",
    "UniformCurve",
    "apply_standardizer",
    "assemble",
    "column_labels",
    "cross_validate",
    "empirical_feature",
    "extract_markers",
    "fit_beta",
    "fit_forest",
    "fit_ols",
    "fit_pca",
    "fit_pipeline",
    "fit_standardizer",
    "generate",
    "group_kfold_split",
    "kfold_split",
    "load_model",
    "parse_curve_csv",
    "predict_empirical",
    "predict_forest",
    "predict_linear",
    "predict_pipeline",
    "resample",
    "rmse",
    "save_model",
    "strengths",
    "transform",
]
