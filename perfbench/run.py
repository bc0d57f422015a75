"""Run one workload of the smallpunch benchmark and print its metrics.

    python3 perfbench/run.py --workload rf-cv --seed 7 --seconds 20 --trace 0

Run it from the root of a source tree; it imports the package from
``src/``.  The seed makes the dataset (``smallpunch synth --seed``).  With
``--trace 0`` it reports the end-to-end metrics, measured with tracing
off; with ``--trace 1`` it reports per-layer metrics from one traced
set-up and pass.  Every metric is printed on its own line, and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record, with the machine description, goes to
``.perfbench/runs/`` and traced spans next to it.  The exit code is 0 when
every command succeeded and every output check held, 1 when one did not,
and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import benchlib  # noqa: E402  (sits next to this file)

# `train` stamps the model file with the current time unless this is set;
# pinned, model files repeat byte for byte.
SOURCE_DATE_EPOCH = "1577836800"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "smallpunch" / "__init__.py").is_file():
        print(f"error: no smallpunch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    benchlib.pin_threads()
    os.environ["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import smallpunch  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = benchlib.environment(ROOT)
    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    run = workloads.Run(workload, args.seed)
    printed: dict[str, tuple[float, str]] = {}
    try:
        if args.trace:
            ref, untraced_s, traced_s = workloads.trace(run)
            metrics = workloads.per_layer(run, untraced_s, traced_s)
            wall = metrics["trace.wall_s"][0]
            run.ledger.record(
                abs(metrics["trace.self_sum_s"][0] - wall) <= 1e-9 * max(wall, 1.0),
                "trace: self times do not add up to the traced wall time",
            )
        else:
            ref = workloads.measure(run, args.seconds)
            metrics = workloads.end_to_end(run, import_s)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_MB"] = (peak_kib / 1024.0, "MB")
            printed.update(workloads.unbounded(run))
            printed.update(workloads.wall(run, import_s))
        # Keyed by the program and the benchmark, so either change starts afresh.
        key = f"{env['src_sha256'][:16]}-{benchlib.tree_digest(HERE)[:16]}"
        cache = state / "digests" / f"{workload.name}-seed{args.seed}-{key}.json"
        run.check_against_earlier_runs(cache, {**ref.digests, **run.outputs})
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    ledger = run.ledger
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "probe_reference_ms": benchlib.PROBE_REFERENCE_MS,
        "probes_ms": dict(sorted(run.probes.items())),
        "rounds": run.rounds,
        "samples_s": dict(sorted(run.times.items())),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ratio": ledger.failed_ratio,
        "failures": ledger.failures,
        "quality": run.quality,
        "unbounded": {name: {"value": v, "unit": u} for name, (v, u) in printed.items()},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    runs = state / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(runs / f"{stem}-spans.jsonl", "w") as fh:
            for span in run.tracer.spans:
                fh.write(json.dumps(span.__dict__) + "\n")

    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} rounds={run.rounds} "
          f"env={json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print("# measured, not bounded:")
    for name, (value, unit) in printed.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(f"{'failed_ratio':28s} {ledger.failed_ratio:>16.6g} ratio "
          f"({ledger.failed} of {ledger.attempted})")
    for key in ("cv", "cv_alt"):
        print(f"{'rmse_' + key + '_MPa':28s} {run.quality[key]:>16.6g} MPa")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
