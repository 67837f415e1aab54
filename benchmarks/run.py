"""hypergen benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload expand --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``hypergen`` is imported from ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` every public function of hypergen is wrapped in a span
(see ``tracer.py``); the run reports per-layer metrics and the tracing
overhead, measured by running each op again untraced right after.  Each op's output is
checked against values computed without hypergen (``reference.py``),
outside the timed interval.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it print each
metric by name with its unit, and the input properties of the run.  Spans
and a full report go to ``.bench_build/benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "benchmarks"

import mpmath  # noqa: F401  (float reference values; fail at once if it is missing)
import tracer as tracing
from workloads import OK, WORKLOADS, WRONG

SETUP_SAMPLES = 31
_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
t = time.perf_counter()
import hypergen
print(time.perf_counter() - t)
"""


def import_seconds() -> float:
    """Time to ``import hypergen`` in a fresh isolated interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE.format(src=str(SRC))],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def run_largest(workload, hg) -> None:
    """Run the workload's largest ops once, untimed and unchecked.

    They run before the measured ops, so that the run's peak RSS is at
    least theirs whatever sizes the seed drew.  Memory that the measured
    ops leave behind still raises the peak once it outgrows theirs.
    """
    for op in workload.largest(hg):
        try:
            workload.run(hg, op)
        except Exception:  # the measured ops count failures; these only size memory
            pass


def peak_rss_mb() -> float:
    """Peak RSS of this run so far: its own, or that of its largest child.

    The children are the ``verify`` pool's workers and the import probes.
    VmHWM is read rather than ``ru_maxrss``, which keeps the size of the
    process that started this one across ``exec``.
    """
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def timed(workload, hg, op):
    """(seconds, result, exception) of one op."""
    t0 = time.perf_counter()
    try:
        result, error = workload.run(hg, op), None
    except Exception as exc:  # a failed op is data: it is counted, not fatal
        result, error = None, exc
    return time.perf_counter() - t0, result, error


def measure(workload, hg, seconds: float, tracer=None, after_op=None):
    """Whole blocks of ops until their measured time reaches ``seconds``.

    At least ``workload.min_blocks`` blocks run, however short ``seconds``.

    Returns the ops and one (seconds, verdict, untraced seconds) per op.
    When tracing, each op runs traced and then once more untraced, right
    after, so that the overhead is measured on the same work at nearly the
    same moment; only the traced run counts towards ``seconds``.
    ``after_op(share)`` is called after each op with the share of
    ``seconds`` measured so far.
    """
    ops, records, busy, blocks = [], [], 0.0, 0
    while blocks < workload.min_blocks or busy < seconds:
        blocks += 1
        for op in workload.block(hg):
            if tracer is not None:
                tracer.install()
            elapsed, result, error = timed(workload, hg, op)
            untraced = None
            if tracer is not None:
                tracer.uninstall()
                tracer.collect_workers()
                if isinstance(result, tuple):
                    tracer.count("cli.stdout_bytes", len(result[1].encode()))
                untraced = timed(workload, hg, op)[0]
            try:
                verdict = workload.check(op, result, error)
            except (ValueError, KeyError, TypeError, AttributeError):  # malformed output
                verdict = WRONG
            ops.append(op)
            records.append((elapsed, verdict, untraced))
            busy += elapsed
            if after_op is not None:
                after_op(min(1.0, busy / seconds) if seconds > 0 else 1.0)
    return ops, records


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def failure_summary(ops, records) -> dict[str, int]:
    """Failed ops by kind and verdict; a replayed op counts once."""
    first = {}
    for op, (_, verdict, _) in zip(ops, records):
        if verdict != OK:
            first.setdefault(id(op), f"{op.kind}: {verdict}")
    return dict(sorted(Counter(first.values()).items()))


def main(argv=None, workloads=WORKLOADS) -> int:
    """Run one workload; ``workloads`` maps names to workload factories."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypergen" / "__init__.py").is_file():
        print(f"error: no hypergen sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("HYPERGEN_N_MAX", None)  # the verify grid's bound is an input

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import hypergen
    import hypergen.cli  # noqa: F401  (workloads call hypergen.cli.main)

    workload = workloads[args.workload](random.Random(args.seed))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer, setup = None, []
    if args.trace:
        tracer = tracing.Tracer(hypergen, OUT / f"workers-{os.getpid()}")

    def sample_setup(share: float) -> None:
        """Import timings spread over the run, so they see the host the ops saw."""
        while len(setup) < SETUP_SAMPLES * share:
            setup.append(import_seconds())

    after_op = None
    if tracer is None:
        run_largest(workload, hypergen)
        after_op = sample_setup
    ops, records = measure(workload, hypergen, args.seconds, tracer=tracer, after_op=after_op)

    latencies = [r[0] for r in records]
    busy = sum(latencies)
    # An op that a workload replays is attempted once, and failed if any run of it failed.
    verdicts: dict[int, bool] = {}
    for op, (_, verdict, _) in zip(ops, records):
        verdicts[id(op)] = verdicts.get(id(op), False) or verdict != OK
    attempted = len(verdicts)
    failed = sum(verdicts.values())
    correct = all(r[1] != WRONG for r in records)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(records) / busy,
            "triples_per_s": sum(op.triples for op in ops) / busy,
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "success_rate": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = spec["end_to_end"]
    else:
        metrics = tracer.layer_metrics(len(records))
        metrics["trace.overhead_ratio"] = busy / sum(r[2] for r in records)
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv.gz")
        tracer.out_dir.rmdir()
        declared = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 3
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "op_runs": len(records),
        "error_rate": failed / attempted,
        "measured_s": busy,
        "inputs": workload.profile(ops),
        "failures": failure_summary(ops, records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if tracer is not None:
        report["spans_kept"] = len(tracer.spans) // 5
        report["spans_dropped"] = tracer.dropped
    (OUT / f"report-{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(records)} runs of {attempted} ops"
          f" in {busy:.2f} s measured (closed loop, 1 client), {failed} ops failed")
    print(f"inputs {json.dumps(report['inputs'])}")
    if report["failures"]:
        print(f"failures {json.dumps(report['failures'])}")
    print(f"error_rate {report['error_rate']:.6g} ratio")
    for name, m in report["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
