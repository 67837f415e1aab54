"""The three workloads: seeded inputs, one op each, and the check of its output.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned and its output has been checked.  Runs stop only
at the end of a block of ops.

Op cost grows steeply with N, so a plain random draw would let a few large
ops decide a run's figures.  (N, K, n) therefore come from a randomly
shifted Kronecker sequence (:class:`Kronecker`): each point is uniform on
its own, so N is log-uniform and K and n uniform, but any run of points
covers the space evenly.  Runs with different seeds then see the same
spread of sizes, and their figures differ by the program and the machine
rather than by the luck of the draw.  On a cost model (digits of C(N,n)
times the degree) the interquartile spread of a run's total cost across
seeds is about 1% for ``expand`` and 3% for ``sweep``, against 13-15% for
independent draws.

An op's verdict is :data:`OK`, :data:`WRONG` (an exact output differs from
the reference) or another string naming how the op failed: it raised,
exited non-zero, or returned a float outside the stated tolerance.  Every
verdict but ``OK`` counts as a failed op; only ``WRONG`` makes a run
incorrect, because exact values are promised with zero tolerance while the
float layer's shortfalls are open defects the run counts.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

OK = "ok"
WRONG = "wrong output"
OUTSIDE_TOLERANCE = "outside tolerance"

Z_VALUES = tuple(Fraction(v) for v in ("-2", "-1", "-1/2", "1/2", "1", "2"))


class Kronecker:
    """Points ``frac(shift + i * alpha)`` in [0, 1)^d with a seeded shift.

    ``alpha_j = phi^-j`` where ``phi`` solves ``x^(d+1) = x + 1``, the
    generalised golden ratio, whose sequence is evenly spread for every
    prefix length.
    """

    def __init__(self, rng, dims: int):
        phi = 2.0
        for _ in range(60):
            phi = (1 + phi) ** (1 / (dims + 1))
        self.alpha = [phi ** -(j + 1) for j in range(dims)]
        self.point = [rng.random() for _ in range(dims)]

    def __next__(self) -> list[float]:
        """The next point, folded by the tent map ``u -> 1 - |2u - 1|``.

        The fold keeps each coordinate uniform and makes the cost, which is
        not periodic in N, periodic over the unit cube, where Kronecker
        points integrate best.
        """
        self.point = [(x + a) % 1.0 for x, a in zip(self.point, self.alpha)]
        return [1 - abs(2 * x - 1) for x in self.point]


def stratified(rng, size: int) -> list[float]:
    """``size`` points in [0, 1), one in each slice of width 1/size, shuffled."""
    slots = list(range(size))
    rng.shuffle(slots)
    return [(s + rng.random()) / size for s in slots]


def log_uniform(lo: int, hi: int, u: float) -> int:
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def inner(N: int, u: float) -> int:
    """An integer uniform over 1..N-1 (K or n), from u in [0, 1)."""
    return 1 + int(u * (N - 1))


def failure(result, error) -> str | None:
    """How an op failed to produce a result, or None if it produced one."""
    if error is not None:
        return f"raised {type(error).__name__}"
    if isinstance(result, tuple) and result[0] != 0:
        return f"exit {result[0]}"
    return None


def verdict(right: bool) -> str:
    return OK if right else WRONG


def run_cli(hg, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hg.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@dataclass
class Op:
    kind: str
    N: int
    K: int
    n: int
    arg: object = None
    params: object = None  # the HypergeomParams a sweep session shares
    triples: int = 1


def quartiles(values) -> list:
    """Min, quartiles and max of ``values``."""
    v = sorted(values)
    return [v[0], *(v[round(q * (len(v) - 1))] for q in (0.25, 0.5, 0.75)), v[-1]]


class Workload:
    min_blocks = 1  # a run makes at least this many blocks, whatever --seconds says

    def profile(self, ops: list[Op]) -> dict:
        """Input properties behind a run's figures."""
        seen: set[tuple] = set()
        reused = thm_a = 0
        for op in ops:
            key = (op.N, op.K, op.n)
            reused += key in seen
            seen.add(key)
            thm_a += op.n <= op.N - op.K
        return {
            "N_min_q1_median_q3_max": quartiles(op.N for op in ops),
            "thm_a_share": thm_a / len(ops),
            "thm_b_share": 1 - thm_a / len(ops),
            "param_reuse_share": reused / len(ops),
        }


class Expand(Workload):
    """``pgf N K n --format json`` and ``eval N K n --at z --kind pgf`` via ``cli.main``.

    Every op has fresh params: N log-uniform over ``n_range``, K and n
    uniform.  Ops alternate between ``pgf`` and ``eval``; z cycles through
    :data:`Z_VALUES` from a seeded start.  Most of the time goes to the
    2F1 recurrence, bignum Fractions in ``core`` and rendering in ``cli``,
    and no two ops share work.  With |z| <= 2 and denominators <= 2 every
    output at N <= 8000 stays below Python's 4300-digit int->str limit.
    """

    name = "expand"
    block_size = 16

    def __init__(self, rng, n_range=(500, 8000)):
        self.n_range = n_range
        self.points = Kronecker(rng, 3)
        self.z_start = rng.randrange(len(Z_VALUES))
        self.made = 0

    def block(self, hg) -> list[Op]:
        ops = []
        for _ in range(self.block_size):
            uN, uK, un = next(self.points)
            N = log_uniform(*self.n_range, uN)
            kind = ("pgf", "eval")[self.made % 2]
            z = Z_VALUES[(self.z_start + self.made // 2) % len(Z_VALUES)]
            ops.append(Op(kind, N, inner(N, uK), inner(N, un), arg=z))
            self.made += 1
        return ops

    def largest(self, hg) -> list[Op]:
        N = self.n_range[1]
        return [Op("pgf", N, N // 2, N // 2)]

    def run(self, hg, op: Op):
        if op.kind == "pgf":
            argv = ["pgf", str(op.N), str(op.K), str(op.n), "--format", "json"]
        else:
            argv = ["eval", str(op.N), str(op.K), str(op.n), f"--at={op.arg}", "--kind", "pgf"]
        return run_cli(hg, argv)

    def check(self, op: Op, result, error) -> str:
        failed = failure(result, error)
        if failed:
            return failed
        out = result[1]
        if op.kind == "pgf":
            return verdict(out.endswith("\n") and ref.check_pgf_json(op.N, op.K, op.n, out[:-1]))
        return verdict(out == f"{ref.pgf_value(op.N, op.K, op.n, op.arg)}\n")


class Sweep(Workload):
    """Library sessions: many calls on one parameter set.

    Each session draws params (N log-uniform over ``n_range``, K and n
    uniform) and makes 14 calls in seeded order: ``mgf_eval``, ``cf_eval``
    and ``cgf_eval`` at four t, one from each quarter of ``[-T_MAX, T_MAX]``;
    ``raw_moments(p, R)`` with R in 2..6; ``factorial_moment(p, r)`` with r
    in 1..4.  13 of the 14 calls reuse params already seen, and every float
    call rebuilds the exact polynomial today, so a cache or a faster float
    layer shows here and not on ``expand``.

    A run's sessions are a fixed plan of ``min_blocks`` blocks drawn from
    the seed; once it has run in full, the plan is replayed until the time
    is up.  A run therefore attempts the same ops, and fails the same ones,
    whatever the speed of the host: ``attempted`` and ``failed`` count the
    plan's distinct ops, and the float layer's failures do not vary with
    how many ops the time allowed.
    """

    name = "sweep"
    block_size = 4  # sessions per block
    min_blocks = 24  # blocks in the plan: 96 sessions, 1344 calls
    T_MAX = 4.0

    def __init__(self, rng, n_range=(100, 3000)):
        self.rng = rng
        self.n_range = n_range
        self.points = Kronecker(rng, 3)
        self.plan: list[list[Op]] = []
        self.made = 0
        self._reference = (None, None)  # a session's calls are checked one after another
        self._checked: dict[int, tuple] = {}  # id(op) -> (outcome, verdict) of its last check

    def block(self, hg) -> list[Op]:
        if len(self.plan) == self.min_blocks:
            ops = self.plan[self.made % self.min_blocks]
        else:
            ops = self._new_block(hg)
            self.plan.append(ops)
        self.made += 1
        return ops

    def _new_block(self, hg) -> list[Op]:
        rng = self.rng
        ops = []
        for _ in range(self.block_size):
            uN, uK, un = next(self.points)
            N = log_uniform(*self.n_range, uN)
            K, n = inner(N, uK), inner(N, un)
            p = hg.make_params(N, K, n)
            calls = [
                Op(kind, N, K, n, arg=self.T_MAX * (2 * u - 1), params=p, triples=0)
                for u in stratified(rng, 4)
                for kind in ("mgf", "cf", "cgf")
            ]
            calls.append(Op("raw", N, K, n, arg=rng.randint(2, 6), params=p, triples=0))
            calls.append(Op("fact", N, K, n, arg=rng.randint(1, 4), params=p, triples=0))
            rng.shuffle(calls)
            calls[0].triples = 1  # a session counts its triple once
            ops.extend(calls)
        return ops

    def largest(self, hg) -> list[Op]:
        N, K = self.n_range[1], self.n_range[1] // 2
        p = hg.make_params(N, K, K)
        return [Op("mgf", N, K, K, arg=1.0, params=p), Op("raw", N, K, K, arg=6, params=p)]

    def _floats(self, op: Op) -> ref.FloatReference:
        """The float reference of the op's params; only the latest is kept."""
        key, floats = self._reference
        if key != (op.N, op.K, op.n):
            floats = ref.FloatReference(op.N, op.K, op.n)
            self._reference = ((op.N, op.K, op.n), floats)
        return floats

    def run(self, hg, op: Op):
        p = op.params
        if op.kind == "mgf":
            return hg.mgf_eval(p, op.arg)
        if op.kind == "cf":
            return hg.cf_eval(p, op.arg)
        if op.kind == "cgf":
            return hg.cgf_eval(p, op.arg)
        if op.kind == "raw":
            return hg.raw_moments(p, op.arg)
        return hg.factorial_moment(p, op.arg)

    def check(self, op: Op, result, error) -> str:
        """The op's verdict; a replayed op with the same outcome keeps its last one."""
        outcome = (result, type(error))
        last = self._checked.get(id(op))
        if last is not None and last[0] == outcome:
            return last[1]
        found = self._check(op, result, error)
        self._checked[id(op)] = (outcome, found)
        return found

    def _check(self, op: Op, result, error) -> str:
        if op.kind in ("mgf", "cf", "cgf"):
            if ref.float_ok(op.kind, self._floats(op), op.arg, result, error):
                return OK
            return failure(result, error) or OUTSIDE_TOLERANCE
        failed = failure(result, error)
        if failed:
            return failed
        if op.kind == "raw":
            return verdict(list(result) == ref.raw_moments(op.N, op.K, op.n, op.arg))
        return verdict(result == ref.factorial_moment(op.N, op.K, op.n, op.arg))


def grid_triples(m: int) -> int:
    return sum((N + 1) ** 2 for N in range(m + 1))


class Verify(Workload):
    """``verify --n-max m --jobs 2`` via ``cli.main``.

    A block holds every m of ``m_range`` once, in seeded order.  Small exact
    numbers: the time goes to the oracle, per-call overhead, the rewrite
    branches and the process pool, where one task per N leaves the largest
    N dominant.
    """

    name = "verify"
    jobs = 2

    def __init__(self, rng, m_range=(10, 18)):
        self.rng = rng
        self.m_range = m_range

    def block(self, hg) -> list[Op]:
        ms = list(range(self.m_range[0], self.m_range[1] + 1))
        self.rng.shuffle(ms)
        return [Op("verify", m, 0, 0, arg=m, triples=grid_triples(m)) for m in ms]

    def largest(self, hg) -> list[Op]:
        m = self.m_range[1]
        return [Op("verify", m, 0, 0, arg=m, triples=grid_triples(m))]

    def run(self, hg, op: Op):
        return run_cli(hg, ["verify", "--n-max", str(op.arg), "--jobs", str(self.jobs)])

    def check(self, op: Op, result, error) -> str:
        if error is not None or result[0] == 2:  # exit 1 means the grid found failures
            return failure(result, error)
        rc, out, _ = result
        return verdict(rc == 0 and out == f"checked {op.triples} triples, 0 failures\n")

    def profile(self, ops: list[Op]) -> dict:
        """Shares are over the triples the grids checked, N over the n-max values."""
        total = thm_a = reused = 0
        reach = -1
        for op in ops:
            total += op.triples
            reused += grid_triples(min(op.arg, reach)) if reach >= 0 else 0
            reach = max(reach, op.arg)
            thm_a += sum(1 for N in range(op.arg + 1) for K in range(N + 1) for n in range(N - K + 1))
        return {
            "n_max_min_q1_median_q3_max": quartiles(op.arg for op in ops),
            "thm_a_share": thm_a / total,
            "thm_b_share": 1 - thm_a / total,
            "param_reuse_share": reused / total,
        }


WORKLOADS = {w.name: w for w in (Expand, Sweep, Verify)}
