"""Tiny-size self-check of the benchmark, so that it cannot rot unnoticed.

    python3 benchmarks/selfcheck.py

Runs every workload at tiny sizes through ``run.main``, untraced and traced,
and checks that each run is correct with no failed op, that the metrics it
prints are exactly those BENCHMARK.json registers, that a longer ``sweep``
run attempts the same ops as a shorter one, that the tracer saw the
layers each workload drives (pool workers included) and restored hypergen
afterwards, and that the reference values agree with plain enumeration.
Takes about ten seconds; exits non-zero on the first problem.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
from fractions import Fraction

import reference as ref
import run
from workloads import Expand, Sweep, Verify

TINY = {
    "expand": functools.partial(Expand, n_range=(20, 60)),
    "sweep": functools.partial(Sweep, n_range=(10, 40)),
    "verify": functools.partial(Verify, m_range=(3, 5)),
}

# Layers each workload must reach, by its per-layer call counts.
DRIVES = {
    "expand": ("core", "hyp2f1", "distribution", "cli"),
    "sweep": ("core", "hyp2f1", "distribution", "moments"),
    "verify": ("core", "hyp2f1", "distribution", "moments", "oracle", "verify", "cli"),
}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def check_reference() -> None:
    for N, K, n in ((0, 0, 0), (7, 3, 5), (12, 9, 4), (30, 15, 15)):
        den = math.comb(N, n)
        masses = [Fraction(math.comb(K, k) * math.comb(N - K, n - k), den) for k in range(n + 1)]
        lo, nums = ref.mass_numerators(N, K, n)
        expect([Fraction(c, den) for c in nums] == masses[lo : lo + len(nums)], f"masses {N, K, n}")
        expect(sum(masses) == 1 and all(m == 0 for m in masses[:lo] + masses[lo + len(nums) :]), "support")
        reduced = [(m.numerator, m.denominator) for m in masses[lo : lo + len(nums)]]
        expect(ref.reduced_masses(N, K, n) == (lo, reduced), f"reduced masses {N, K, n}")
        z = Fraction(-3, 2)
        expect(ref.pgf_value(N, K, n, z) == sum(m * z**k for k, m in enumerate(masses)), "pgf value")
        floats = ref.FloatReference(N, K, n)
        want = sum(float(m) * math.exp(0.7 * k) for k, m in enumerate(masses))
        expect(abs(floats.mgf(0.7) - want) <= 1e-12 * want, "mgf reference")


def run_tiny(name: str, trace: int, seconds: float = 0) -> dict:
    out = io.StringIO()
    argv = ["--workload", name, "--seed", "11", "--seconds", str(seconds), "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, workloads=TINY)
    expect(code == 0, f"{name} trace={trace} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main() -> int:
    check_reference()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(TINY), "workload names")
    sys.path.insert(0, str(run.SRC))
    import hypergen.cli

    original_main = hypergen.cli.main
    for name in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tiny(name, trace)
            what = f"{name} trace={trace}"
            expect(result["correct"] and result["attempted"] >= 1, f"{what}: not correct")
            expect(result["failed"] == 0, f"{what}: {result['failed']} failed ops at tiny sizes")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == declared, f"{what}: metrics differ from BENCHMARK.json")
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace:
                for layer in DRIVES[name]:
                    expect(values[f"{layer}.calls"] > 0, f"{what}: no spans in {layer}")
                expect(values["trace.overhead_ratio"] > 0, f"{what}: overhead")
                if name == "verify":
                    expect(0 < values["verify.pool_utilisation"] <= 1, "pool workers' spans")
            else:
                expect(all(v > 0 for v in values.values()), f"{what}: a zero end-to-end metric")
    plan = Sweep.block_size * Sweep.min_blocks * 14
    longer = run_tiny("sweep", 0, seconds=1)
    expect(longer["attempted"] == plan, f"sweep attempted {longer['attempted']} ops, not its plan's {plan}")
    expect(hypergen.cli.main is original_main, "tracer left hypergen patched")
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
