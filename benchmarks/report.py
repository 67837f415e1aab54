"""Run every workload once and print all their metrics in one table.

    python3 benchmarks/report.py [--seed 1] [--seconds 30] [--trace 0|1]

Each workload runs in its own ``run.py`` process.  With ``--trace 0`` the
table holds every end-to-end metric plus ``error_rate`` (failed over
attempted ops); with ``--trace 1`` every per-layer metric.  Units are in the
second column.  Exits non-zero if a run fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    columns, ok = {}, True
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(f"{name}: run failed\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        column = {k: v["value"] for k, v in result["metrics"].items()}
        column["error_rate"] = result["failed"] / result["attempted"]
        column["correct"] = result["correct"]
        columns[name] = column

    declared = spec["per_layer" if args.trace else "end_to_end"]
    rows = [(m["name"], m["unit"]) for m in declared]
    if not args.trace:
        rows.append(("error_rate", "ratio"))
    rows.append(("correct", "bool"))
    width = max(len(r[0]) for r in rows)
    print(f"{'metric':<{width}}  {'unit':<13}" + "".join(f"{n:>14}" for n in names))
    for metric, unit in rows:
        cells = "".join(f"{columns[n][metric]:>14.6g}" if metric != "correct" else f"{columns[n][metric]!s:>14}"
                        for n in names)
        print(f"{metric:<{width}}  {unit:<13}{cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
