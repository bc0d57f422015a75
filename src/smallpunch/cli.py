"""Command-line interface.

Subcommands: synth, cv, train, predict, report.  Exit codes follow one
taxonomy everywhere: 0 success, 2 bad flags, 3 I/O failure, 4 data
validation failure, 5 a model format version this build cannot read.
Every seeded subcommand writes byte-identical outputs when rerun with the
same inputs and seed; `train` additionally honors SOURCE_DATE_EPOCH for
the provenance timestamp so saved model files can be reproduced exactly.

No family is named here: --pipeline names a kind in KINDS, each family
flag fills the field of that kind its dest names (fields_given), and the
kind gives the diagnostics train prints; --truth instead gives each curve
its v_i_mm.  This module alone knows the flags: no kind or record names one.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from dataclasses import fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from . import dataio
from .curves import GridSpec, MARKER_FIXED_V, MARKER_STRATEGIES
from .errors import BadConfig, SmallPunchError, UnsupportedVersion, prefixed
from .evaluation import cross_validate, rmse
from .features import strengths
from .modelfile import load_model, save_model
from .pipeline import (
    FOREST_INPUT_RAW,
    FOREST_INPUT_SCORES,
    KINDS,
    PipelineKind,
    fit_pipeline,
    predict_pipeline,
)
from .regress import EMPIRICAL_MODES
from .synth import SynthConfig, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_COMPAT = 5


def _timestamp() -> str:
    """UTC creation stamp; SOURCE_DATE_EPOCH pins it for reproducible builds."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        # ASCII digits as `date +%s` prints them; int() also takes spaces,
        # a plus sign, underscores and other scripts' digits
        if epoch and not re.fullmatch(r"-?[0-9]+", epoch):
            raise ValueError(epoch)
        dt = datetime.fromtimestamp(int(epoch) if epoch else time.time(), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise BadConfig(f"SOURCE_DATE_EPOCH must be whole seconds since 1970 that a date "
                        f"can hold, got {epoch!r}") from None
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def _name_flags(parser: argparse.ArgumentParser, actions: list[argparse.Action]) -> None:
    """Give args the option of each flag by its dest, the field the flag fills."""
    named = parser.get_default("flag_names") or {}
    parser.set_defaults(flag_names={**named, **{a.dest: a.option_strings[0] for a in actions}})


def fields_given(record: Any, args: argparse.Namespace) -> Any:
    """record with each field a flag given in args fills set to that flag's value.

    A flag left out is absent from args (argument_default is SUPPRESS), so
    its field keeps record's value.  A field holding a record is filled
    the same way, as modelfile.record_from_doc reads its block.  An error
    names the flags given for record's own fields.
    """
    values = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if is_dataclass(value):
            values[f.name] = fields_given(value, args)
        elif f.name in args:
            value = getattr(args, f.name)
            values[f.name] = tuple(value) if isinstance(value, list) else value
    with prefixed("/".join(args.flag_names[name] for name in values if name in args.flag_names)):
        return replace(record, **values)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The grid flags; the parser's argument_default is SUPPRESS, as for the family flags.

    Each dest is the GridSpec field it fills, whose default GridSpec alone states.
    """
    _name_flags(parser, [
        parser.add_argument("--grid-start", dest="start_mm", type=float,
                            help="grid start displacement in mm"),
        parser.add_argument("--grid-spacing", dest="spacing_mm", type=float,
                            help="grid spacing in mm"),
        parser.add_argument("--grid-points", dest="n_points", type=int,
                            help="number of grid points"),
    ])


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """--pipeline, the family flags and --workers, each flag left out of args unless given.

    The parser's argument_default is SUPPRESS: a family flag's dest is the
    field it fills, whose dataclass alone states its default.
    """
    parser.add_argument("--pipeline", choices=tuple(KINDS), required=True,
                        help="model family to fit")
    empirical = parser.add_argument_group("empirical family")
    features = parser.add_argument_group("pca-lm and rf families")
    forest = parser.add_argument_group("rf family")
    _name_flags(parser, [
        empirical.add_argument("--mode", choices=EMPIRICAL_MODES,
                               help="empirical correlation variant"),
        empirical.add_argument("--marker", dest="marker_strategy", choices=MARKER_STRATEGIES,
                               help="instability marker strategy"),
        empirical.add_argument("--v-star", type=float,
                               help="shared displacement in mm for the fixed-v marker"),
        empirical.add_argument("--truth", type=Path,
                               help="truth CSV supplying per-file v_i for the fixed-v marker"),
        features.add_argument("--variance-threshold", type=float,
                              help="PCA cumulative explained-variance target"),
        forest.add_argument("--trees", dest="n_trees", type=int, help="forest size"),
        forest.add_argument("--max-depth", type=int,
                            help="forest depth cap (default unlimited)"),
        forest.add_argument("--min-leaf", type=int, help="minimum samples per forest leaf"),
        forest.add_argument("--mtry", type=int,
                            help="features tried per split (default ceil(p/3))"),
        forest.add_argument("--rf-input", dest="input",
                            choices=(FOREST_INPUT_RAW, FOREST_INPUT_SCORES),
                            help="feed the forest raw standardized columns or PCA scores"),
    ])
    parser.add_argument("--workers", type=int,
                        help="has no effect; forests are grown in one thread")


def _reads(kind: PipelineKind | type) -> set[str]:
    """The family's fields and its records' fields, and with a v_star field
    each curve's v_i from --truth: the dests of the family flags it reads."""
    read = set()
    for f in fields(kind):
        read |= {g.name for g in fields(f.default)} if is_dataclass(f.default) else {f.name}
    return read | ({"truth"} if "v_star" in read else set())


def _refuse_unread(args: argparse.Namespace, kind: PipelineKind | type) -> None:
    """Exit 2 naming each family flag given that kind's family does not read.

    The empirical family reads --v-star or --truth only with the fixed-v
    marker, and the family that takes --rf-input reads --variance-threshold
    only with PCA scores.  Each setting is the flag's if given, else the kind's.
    """
    reads, family = _reads(kind), set().union(*map(_reads, KINDS.values()))
    given = {d: o for d, o in args.flag_names.items() if d in args and d in family}
    fixed_v = getattr(args, "marker_strategy", kind.marker_strategy) == MARKER_FIXED_V
    scores = getattr(args, "input", getattr(kind, "input", None)) == FOREST_INPUT_SCORES
    for unread, why in (
        ([o for d, o in given.items() if d not in reads], "reads no such flag"),
        ([o for d, o in given.items() if d in ("truth", "v_star") and not fixed_v],
         f"reads v_i only with --marker {MARKER_FIXED_V}"),
        ([o for d, o in given.items() if d == "variance_threshold" and "input" in reads
          and not scores], f"reads it only with --rf-input {FOREST_INPUT_SCORES}"),
    ):
        if unread:
            raise BadConfig(f"{' and '.join(sorted(unread))}: the {kind.name} family {why}")
    if "truth" in args and "v_star" in args:
        raise BadConfig("the fixed-v marker takes --v-star or --truth, not both")


def _kind_from_args(args: argparse.Namespace) -> PipelineKind:
    """The kind the flags of cv and train name, after every flag its family leaves unread."""
    if "workers" in args and args.workers < 1:
        raise BadConfig("--workers must be >= 1")
    if args.seed < 0:
        raise BadConfig(f"--seed: seed must be >= 0, got {args.seed}")
    _refuse_unread(args, KINDS[args.pipeline])
    return fields_given(KINDS[args.pipeline](), args)


def _curves(args: argparse.Namespace, kind: PipelineKind, grid: GridSpec):
    """The manifest's curve names and curves, each given its v_i_mm from --truth's row.

    A fixed-v kind reads its v_star when set, else each curve's v_i: it
    needs one of them, checked before any file is read.  The flags that
    would give it both are refused before it is built.
    """
    truth = getattr(args, "truth", None)
    if kind.marker_strategy == MARKER_FIXED_V and truth is None and kind.v_star is None:
        raise BadConfig("the fixed-v marker needs --v-star or --truth")
    names, curves = dataio.load_curves(args.manifest, grid)
    if truth is None:
        return names, curves
    table = dataio.read_truth(truth)
    rows = [table.get(dataio.file_identity(name)) for name in names]
    if None in rows:
        raise BadConfig(f"--truth: {truth} has no row for curve file '{names[rows.index(None)]}'")
    with prefixed(f"--truth: {truth}"):
        return names, [replace(c, meta=replace(c.meta, v_i_mm=row[1]))
                       for c, row in zip(curves, rows)]


def _labelled_inputs(args: argparse.Namespace):
    """cv's and train's kind and curves; every flag is checked before a file is read."""
    grid = fields_given(GridSpec(), args)
    kind = _kind_from_args(args)
    return kind, _curves(args, kind, grid)[1]


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = fields_given(SynthConfig(), args)
    curves, records = generate(cfg)

    outdir = args.out
    outdir.mkdir(parents=True, exist_ok=True)
    # generate lists each material's curves together
    names = [f"{c.meta.material_id.lower()}_c{i % cfg.curves_per_material:02d}.csv"
             for i, c in enumerate(curves)]
    for name, curve in zip(names, curves):
        dataio.write_curve_csv(outdir / name, curve)
    dataio.write_manifest(outdir / "manifest.csv", [(n, c.meta) for n, c in zip(names, curves)])
    dataio.write_truth(outdir / "truth.csv", names, records)
    print(f"wrote {len(curves)} curves to {outdir} (seed {cfg.seed})")
    return EXIT_OK


def cmd_cv(args: argparse.Namespace) -> int:
    if args.k < 2:
        raise BadConfig("--k must be >= 2")
    kind, curves = _labelled_inputs(args)
    report = cross_validate(curves, kind, k=args.k, seed=args.seed,
                            stratify_material=args.stratify_material)
    args.out.mkdir(parents=True, exist_ok=True)
    prefix = args.pipeline
    dataio.write_fold_csv(args.out / f"{prefix}_folds.csv", report)
    dataio.write_samples_csv(args.out / f"{prefix}_samples.csv", report)
    dataio.write_summary_csv(args.out / f"{prefix}_summary.csv", prefix, report)
    print(f"{prefix},{report.k},{dataio.fmt(report.mean_rmse)},{dataio.fmt(report.std_rmse)}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    created = _timestamp()  # a malformed SOURCE_DATE_EPOCH is refused before any file is read
    kind, curves = _labelled_inputs(args)
    trained = fit_pipeline(curves, kind)
    preds = predict_pipeline(trained, curves)
    train_rmse = rmse(preds, strengths(curves))

    provenance = {
        "seed": args.seed,
        "created": created,
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
    for line in kind.diagnostics(trained):
        print(line, file=sys.stderr)
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    trained, _ = load_model(args.model)
    # the model states the grid and any v_star; a v_i flag fills a fixed-v
    # kind storing none, all before any curve is read
    _refuse_unread(args, trained.kind)
    kind = fields_given(trained.kind, args)
    given = [option for dest, option in args.flag_names.items() if dest in args]
    if given and trained.kind.v_star is not None:
        raise BadConfig(f"{given[0]}: the model reads the v_star {trained.kind.v_star} it stores")
    names, curves = _curves(args, kind, trained.grid)
    rows = []
    if curves:  # an empty manifest gets a header-only table
        preds = predict_pipeline(replace(trained, kind=kind), curves)
        rows = [(dataio.file_identity(name), curve.meta, float(p))
                for name, curve, p in zip(names, curves, preds)]
    dataio.write_predictions(args.out, rows)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    pairs = sorted(dataio.read_samples(args.samples), key=lambda tp: tp[0])
    err = rmse([p for _, p in pairs], [t for t, _ in pairs])
    dataio.write_report(args.out, pairs, err)
    print(f"# rmse_MPa={dataio.fmt(err)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smallpunch",
        description="Tensile strength prediction from small-punch-test curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset with planted truth",
                             argument_default=argparse.SUPPRESS)
    _name_flags(p_synth, [
        p_synth.add_argument("--materials", type=int, dest="n_materials"),
        p_synth.add_argument("--per-material", type=int, dest="curves_per_material"),
        p_synth.add_argument("--beta", type=float, dest="beta_true"),
        p_synth.add_argument("--h0", type=float, dest="h0_mm"),
        p_synth.add_argument("--noise-sigma", type=float, dest="noise_sigma_N",
                             help="force noise standard deviation in N"),
        p_synth.add_argument("--rm-range", type=float, nargs=2, dest="rm_range_MPa",
                             metavar=("LO", "HI")),
        p_synth.add_argument("--vi-range", type=float, nargs=2, dest="v_i_range_mm",
                             metavar=("LO", "HI")),
        p_synth.add_argument("--vi-step", type=float, dest="v_i_step_mm",
                             help="planted v_i snaps to this step so it lies on the grid"),
        p_synth.add_argument("--temp-range", type=float, nargs=2, dest="temp_range_C",
                             metavar=("LO", "HI")),
        p_synth.add_argument("--temp-slope", type=float, dest="temp_slope_MPa_per_C",
                             help="strength change per degree C (<= 0)"),
        p_synth.add_argument("--seed", type=int),
    ])
    p_synth.add_argument("--out", type=Path, required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_cv = sub.add_parser("cv", help="cross-validate one pipeline on a labeled dataset",
                          argument_default=argparse.SUPPRESS)
    p_cv.add_argument("manifest", type=Path)
    _add_pipeline_flags(p_cv)
    _add_grid_flags(p_cv)
    p_cv.add_argument("--k", type=int, default=10)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--stratify-material", action="store_true", default=False,
                      help="keep each material's curves inside one fold")
    p_cv.add_argument("--out", type=Path, required=True, help="output directory")
    p_cv.set_defaults(func=cmd_cv)

    p_train = sub.add_parser("train", help="fit one pipeline and save a model file",
                             argument_default=argparse.SUPPRESS)
    p_train.add_argument("manifest", type=Path)
    _add_pipeline_flags(p_train)
    _add_grid_flags(p_train)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--out", type=Path, required=True, help="model file path")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict strengths with a saved model",
                            argument_default=argparse.SUPPRESS)
    p_pred.add_argument("manifest", type=Path)
    p_pred.add_argument("--model", type=Path, required=True)
    _name_flags(p_pred, [
        p_pred.add_argument("--v-star", type=float,
                            help="shared v_i for fixed-v models that store none"),
        p_pred.add_argument("--truth", type=Path,
                            help="truth CSV of per-file v_i for fixed-v models storing no v_star"),
    ])
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
    except UnsupportedVersion as exc:
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
