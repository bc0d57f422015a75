"""Command-line interface.

Subcommands: synth, cv, train, predict, report.  Exit codes follow one
taxonomy everywhere: 0 success, 2 bad flags, 3 I/O failure, 4 data
validation failure, 5 compatibility failure (model format version or grid
mismatch).  Every seeded subcommand writes byte-identical outputs when
rerun with the same inputs and seed; `train` additionally honors
SOURCE_DATE_EPOCH for the provenance timestamp so saved model files can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import dataio
from .curves import GridSpec, MARKER_FIXED_V, MARKER_MAX_SLOPE, MARKER_STRATEGIES
from .errors import BadConfig, GridMismatch, SmallPunchError, UnsupportedVersion
from .evaluation import cross_validate, rmse
from .forest import ForestConfig
from .modelfile import load_model, save_model
from .pipeline import (
    EmpiricalKind,
    ForestKind,
    FOREST_INPUT_RAW,
    FOREST_INPUT_SCORES,
    KINDS,
    PcaLmKind,
    PipelineSpec,
    fit_pipeline,
    predict_pipeline,
)
from .regress import EMPIRICAL_MODES, MODE_INSTABILITY_FORCE
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_COMPAT = 5


def _timestamp() -> str:
    """UTC creation stamp; SOURCE_DATE_EPOCH pins it for reproducible builds."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        dt = datetime.now(tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _flagged(flags: str, make, **kwargs):
    """make(**kwargs), naming the flags behind any BadConfig it raises."""
    try:
        return make(**kwargs)
    except BadConfig as exc:
        raise BadConfig(f"{flags}: {exc}") from exc


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid-start", type=float, default=None,
                        help="grid start displacement in mm (default 0.0)")
    parser.add_argument("--grid-spacing", type=float, default=None,
                        help="grid spacing in mm (default 0.010)")
    parser.add_argument("--grid-points", type=int, default=None,
                        help="number of grid points (default 151)")


def _grid_from_args(args: argparse.Namespace, default: GridSpec = GridSpec()) -> GridSpec:
    start = default.start_mm if args.grid_start is None else args.grid_start
    spacing = default.spacing_mm if args.grid_spacing is None else args.grid_spacing
    points = default.n_points if args.grid_points is None else args.grid_points
    return _flagged("--grid-start/--grid-spacing/--grid-points", GridSpec,
                    start_mm=start, spacing_mm=spacing, n_points=points)


def _grid_flags_given(args: argparse.Namespace) -> bool:
    return any(v is not None for v in (args.grid_start, args.grid_spacing, args.grid_points))


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pipeline", choices=tuple(KINDS), required=True,
                        help="model family to fit")
    parser.add_argument("--mode", choices=EMPIRICAL_MODES, default=MODE_INSTABILITY_FORCE,
                        help="empirical correlation variant")
    parser.add_argument("--marker", choices=MARKER_STRATEGIES, default=MARKER_MAX_SLOPE,
                        help="instability marker strategy for the empirical pipeline")
    parser.add_argument("--v-star", type=float, default=None,
                        help="shared displacement in mm for the fixed-v marker strategy")
    parser.add_argument("--truth", type=Path, default=None,
                        help="truth CSV supplying per-file v_i for the fixed-v strategy")
    parser.add_argument("--variance-threshold", type=float, default=0.99,
                        help="PCA cumulative explained-variance target")
    parser.add_argument("--no-standardize", action="store_true",
                        help="skip column standardization before PCA/forest")
    parser.add_argument("--trees", type=int, default=200, help="forest size")
    parser.add_argument("--max-depth", type=int, default=None,
                        help="forest depth cap (default unlimited)")
    parser.add_argument("--min-leaf", type=int, default=2,
                        help="minimum samples per forest leaf")
    parser.add_argument("--mtry", type=int, default=None,
                        help="features tried per split (default ceil(p/3))")
    parser.add_argument("--rf-input", choices=(FOREST_INPUT_RAW, FOREST_INPUT_SCORES),
                        default=FOREST_INPUT_RAW,
                        help="feed the forest raw standardized columns or PCA scores")
    parser.add_argument("--workers", type=int, default=1,
                        help="has no effect; forests are grown in one thread")


def _spec_from_args(args: argparse.Namespace) -> PipelineSpec:
    if args.workers < 1:
        raise BadConfig("--workers must be >= 1")
    if args.pipeline == EmpiricalKind.name:
        kind = EmpiricalKind(mode=args.mode, marker_strategy=args.marker)
    elif args.pipeline == PcaLmKind.name:
        kind = _flagged("--variance-threshold", PcaLmKind,
                        variance_threshold=args.variance_threshold)
    else:
        config = _flagged(
            "--trees/--max-depth/--min-leaf/--mtry/--seed", ForestConfig,
            n_trees=args.trees, max_depth=args.max_depth, min_leaf=args.min_leaf,
            mtry=args.mtry, bootstrap=True, seed=args.seed,
        )
        kind = _flagged("--rf-input/--variance-threshold", ForestKind, config=config,
                        input=args.rf_input, variance_threshold=args.variance_threshold)
    return PipelineSpec(kind=kind, standardize=not args.no_standardize)


def _v_star_for(args: argparse.Namespace, names: list[str], strategy: str | None):
    """Resolve the fixed-v displacement source for the marker strategy in use."""
    if strategy != MARKER_FIXED_V:
        return None
    if args.truth is not None:
        table = dataio.read_truth(args.truth)
        stars = []
        for name in names:
            if name not in table:
                raise BadConfig(f"--truth: {args.truth} has no row for curve file '{name}'")
            stars.append(table[name][1])
        return stars
    if args.v_star is not None:
        if args.v_star <= 0.0:
            raise BadConfig("--v-star must be > 0")
        return args.v_star
    raise BadConfig("the fixed-v marker needs --v-star or --truth")


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _flagged(
        "--materials/--per-material/--beta/--h0/--noise-sigma/--rm-range/"
        "--vi-range/--vi-step/--temp-range/--temp-slope/--seed",
        SynthConfig,
        n_materials=args.materials,
        curves_per_material=args.per_material,
        beta_true=args.beta,
        h0_mm=args.h0,
        rm_range_MPa=tuple(args.rm_range),
        v_i_range_mm=tuple(args.vi_range),
        noise_sigma_N=args.noise_sigma,
        temp_range_C=tuple(args.temp_range),
        temp_slope_MPa_per_C=args.temp_slope,
        seed=args.seed,
        v_i_step_mm=args.vi_step,
    )
    curves, truth = generate(cfg)

    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    names: list[str] = []
    per_material_count: dict[str, int] = {}
    entries = []
    for curve in curves:
        mid = curve.meta.material_id
        idx = per_material_count.get(mid, 0)
        per_material_count[mid] = idx + 1
        name = f"{mid.lower()}_c{idx:02d}.csv"
        dataio.write_curve_csv(outdir / name, curve)
        names.append(name)
        entries.append((name, curve.meta))
    dataio.write_manifest(outdir / "manifest.csv", entries)
    dataio.write_truth(outdir / "truth.csv", names, truth)
    print(f"wrote {len(curves)} curves to {outdir} (seed {cfg.seed})")
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise BadConfig("--k must be >= 2")
    grid = _grid_from_args(args)
    names, curves = dataio.load_curves(args.manifest, grid)
    spec = _spec_from_args(args)
    v_star = _v_star_for(args, names, spec.kind.marker_strategy)
    report = cross_validate(
        curves,
        spec,
        k=args.k,
        seed=args.seed,
        v_star=v_star,
        stratify_material=args.stratify_material,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    prefix = args.pipeline
    dataio.write_fold_csv(args.out / f"{prefix}_folds.csv", report)
    dataio.write_samples_csv(args.out / f"{prefix}_samples.csv", report)
    dataio.write_summary_csv(args.out / f"{prefix}_summary.csv", prefix, report)
    print(f"{prefix},{report.k},{dataio.fmt(report.mean_rmse)},{dataio.fmt(report.std_rmse)}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    grid = _grid_from_args(args)
    names, curves = dataio.load_curves(args.manifest, grid)
    spec = _spec_from_args(args)
    # the forest checks its own seed; every family records it in the model file
    if args.seed < 0:
        raise BadConfig(f"--seed: seed must be >= 0, got {args.seed}")
    v_star = _v_star_for(args, names, spec.kind.marker_strategy)
    trained = fit_pipeline(curves, spec, v_star=v_star)
    preds = predict_pipeline(trained, curves, v_star=v_star)
    truths = np.array([c.meta.rm_MPa for c in curves], dtype=float)
    train_rmse = rmse(preds, truths)

    provenance = {
        "seed": args.seed,
        "created": _timestamp(),
        "manifest_sha256": dataio.sha256_of(args.manifest),
    }
    save_model(args.out, trained, provenance)

    print(f"training_rmse_MPa={dataio.fmt(train_rmse)}")
    if trained.pca is not None:
        cum = float(np.sum(trained.pca.explained_ratio))
        print(
            f"pca_components={trained.pca.n_components} "
            f"cumulative_explained_variance={dataio.fmt(cum)}"
        )
    print(f"saved {args.out}")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    trained, _ = load_model(args.model)
    if _grid_flags_given(args):
        requested = _grid_from_args(args, default=trained.grid)
        if requested != trained.grid:
            raise GridMismatch(
                f"requested grid {requested} does not match model grid {trained.grid}"
            )
    entries = dataio.read_manifest(args.manifest)
    if not entries:
        dataio.write_predictions(args.out, [])
        print(f"wrote 0 predictions to {args.out}")
        return EXIT_OK
    names, curves = dataio.load_curves(args.manifest, trained.grid)
    v_star = _v_star_for(args, names, trained.spec.kind.marker_strategy)
    preds = predict_pipeline(trained, curves, v_star=v_star)
    rows = [(name, curve.meta, float(p)) for name, curve, p in zip(names, curves, preds)]
    dataio.write_predictions(args.out, rows)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    rows = dataio.read_table(args.samples)
    if not rows:
        raise SmallPunchError(f"{args.samples}: empty table")
    header = rows[0][1]

    def col(candidates: tuple[str, ...]) -> int:
        for name in candidates:
            if name in header:
                return header.index(name)
        raise SmallPunchError(
            f"{args.samples}: need one of columns {candidates}, got {header}"
        )

    true_col = col(("true_MPa", "rm_MPa"))
    pred_col = col(("pred_MPa", "pred_rm_MPa"))
    pairs: list[tuple[float, float]] = []
    for lineno, cells in rows[1:]:
        if len(cells) != len(header):
            raise SmallPunchError(
                f"{args.samples}: row {lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        try:
            pairs.append((float(cells[true_col]), float(cells[pred_col])))
        except ValueError:
            raise SmallPunchError(f"{args.samples}: row {lineno}: non-numeric cell") from None
    if not pairs:
        raise SmallPunchError(f"{args.samples}: no data rows")

    pairs.sort(key=lambda tp: tp[0])
    err = rmse([p for _, p in pairs], [t for t, _ in pairs])
    out_lines = ["true_MPa,pred_MPa,abs_err_MPa"]
    for t, p in pairs:
        out_lines.append(f"{dataio.fmt(t)},{dataio.fmt(p)},{dataio.fmt(abs(p - t))}")
    out_lines.append(f"# rmse_MPa={dataio.fmt(err)}")
    args.out.write_text("\n".join(out_lines) + "\n")
    print(f"# rmse_MPa={dataio.fmt(err)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallpunch",
        description="Tensile strength prediction from small-punch-test curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset with planted truth")
    p_synth.add_argument("--materials", type=int, default=5)
    p_synth.add_argument("--per-material", type=int, default=24)
    p_synth.add_argument("--beta", type=float, default=0.3)
    p_synth.add_argument("--h0", type=float, default=0.5)
    p_synth.add_argument("--noise-sigma", type=float, default=0.0,
                         help="force noise standard deviation in N")
    p_synth.add_argument("--rm-range", type=float, nargs=2, default=(400.0, 1100.0),
                         metavar=("LO", "HI"))
    p_synth.add_argument("--vi-range", type=float, nargs=2, default=(0.3, 0.7),
                         metavar=("LO", "HI"))
    p_synth.add_argument("--vi-step", type=float, default=0.010,
                         help="planted v_i snaps to this step so it lies on the grid")
    p_synth.add_argument("--temp-range", type=float, nargs=2, default=(-150.0, 330.0),
                         metavar=("LO", "HI"))
    p_synth.add_argument("--temp-slope", type=float, default=-0.4,
                         help="strength change per degree C (<= 0)")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", type=Path, required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_cv = sub.add_parser("cv", help="cross-validate one pipeline on a labeled dataset")
    p_cv.add_argument("manifest", type=Path)
    _add_pipeline_flags(p_cv)
    _add_grid_flags(p_cv)
    p_cv.add_argument("--k", type=int, default=10)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--stratify-material", action="store_true",
                      help="keep each material's curves inside one fold")
    p_cv.add_argument("--out", type=Path, required=True, help="output directory")
    p_cv.set_defaults(func=cmd_cv)

    p_train = sub.add_parser("train", help="fit one pipeline and save a model file")
    p_train.add_argument("manifest", type=Path)
    _add_pipeline_flags(p_train)
    _add_grid_flags(p_train)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", type=Path, required=True, help="model file path")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict strengths with a saved model")
    p_pred.add_argument("manifest", type=Path)
    p_pred.add_argument("--model", type=Path, required=True)
    _add_grid_flags(p_pred)
    p_pred.add_argument("--v-star", type=float, default=None,
                        help="shared v_i for fixed-v empirical models")
    p_pred.add_argument("--truth", type=Path, default=None,
                        help="truth CSV supplying per-file v_i for fixed-v empirical models")
    p_pred.add_argument("--out", type=Path, required=True, help="predictions CSV path")
    p_pred.set_defaults(func=cmd_predict)

    p_rep = sub.add_parser("report", help="sorted error table from a samples CSV")
    p_rep.add_argument("samples", type=Path)
    p_rep.add_argument("--out", type=Path, required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (UnsupportedVersion, GridMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPAT
    except BadConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SmallPunchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
