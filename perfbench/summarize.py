"""Summarise recorded runs: median and quartiles of each metric per workload.

    python3 perfbench/summarize.py [--out FILE]

Reads every record ``perfbench/run.py`` left in ``.perfbench/runs/`` and
prints, for each workload and metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread (distance
between the quartiles as a share of the median), with the number of runs.
With ``--out`` the table, each run's result in the form the benchmark
prints it, and the machine description are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    table: dict = {}
    for rec in records:
        key = f"{rec['workload']} trace={rec['trace']}"
        for name, metric in {**rec["metrics"], **rec["unbounded"]}.items():
            entry = table.setdefault(key, {}).setdefault(
                name, {"unit": metric["unit"], "seeds": [], "values": []}
            )
            entry["seeds"].append(rec["seed"])
            entry["values"].append(metric["value"])
    for metrics in table.values():
        for entry in metrics.values():
            values = entry["values"]
            entry["runs"] = len(values)
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["quartiles"] = [q1, q3]
                entry["spread"] = (q3 - q1) / entry["median"] if entry["median"] else None
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    paths = sorted((ROOT / ".perfbench" / "runs").glob("*-trace[01].json"))
    if not paths:
        print("no recorded runs in .perfbench/runs/", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text()) for p in paths]
    table = summarize(records)
    for key, metrics in sorted(table.items()):
        print(key)
        for name, e in metrics.items():
            spread = e.get("spread")
            print(f"  {name:28s} {e['median']:>14.6g} {e['unit']:6s} runs={e['runs']:<3d}"
                  + ("" if spread is None else f" spread={spread:.3f}"))
    if args.out is not None:
        env = {json.dumps(r["environment"], sort_keys=True) for r in records}
        failed = sum(r["failed"] for r in records)
        args.out.write_text(json.dumps({
            "environments": [json.loads(e) for e in sorted(env)],
            "runs": len(records),
            "failed": failed,
            "attempted": sum(r["attempted"] for r in records),
            "metrics": table,
            "results": [
                {
                    "workload": r["workload"], "seed": r["seed"], "trace": r["trace"],
                    "correct": r["failed"] == 0, "attempted": r["attempted"],
                    "failed": r["failed"], "metrics": r["metrics"],
                    "unbounded": r["unbounded"], "quality": r["quality"],
                }
                for r in records
            ],
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
