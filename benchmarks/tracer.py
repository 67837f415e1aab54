"""Span tracing of hypergen from outside the package.

:class:`Tracer` wraps every public function of each ``hypergen`` module (and
the public methods of the classes defined there) in a function that records
a span: name, start, end and parent.  A layer is one module, so a span's
layer is the module that defines the wrapped function.  Names that other
modules imported with ``from .x import y`` are rebound too, so a call through
``distribution.series_coefficients`` is traced like one through
``hyp2f1.series_coefficients``.

Self time is a span's duration minus the time its child spans cover.  Within
one process children run one after another, so that is the sum of their
durations; it is worked out as each span closes, which keeps memory flat
however many spans a run makes.  The span records themselves are kept in
memory up to :data:`KEEP_SPANS` per process and written out at the end.

``hypergen verify --jobs J`` checks populations in a ``ProcessPoolExecutor``.
Its workers are forked from the traced process, so they run the wrapped
functions too.  Each worker writes its spans and totals to a file after
every task; :meth:`Tracer.collect_workers` merges them back.  A worker task
span's parent is the ``oracle_grid_check`` span that started the pool, and
the union of the task spans' intervals is taken off that span's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import pickle
import time
from array import array
from pathlib import Path

LAYERS = ("core", "hyp2f1", "distribution", "moments", "oracle", "verify", "cli")

#: Span records kept per run, pool workers included; spans past this are
#: still timed and counted, but their records are dropped to bound memory.
KEEP_SPANS = 200_000

COUNTERS = (
    "core.coeffs_built",
    "core.max_coeff_bits",
    "hyp2f1.series_terms",
    "distribution.expansions",
    "moments.stirling_cells",
    "oracle.pmf_terms",
    "verify.triples",
    "cli.stdout_bytes",
)

_clock = time.perf_counter_ns  # CLOCK_MONOTONIC: comparable across processes


def _public_callables(module):
    """(owner, attribute, function) for each public function and method."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and not name.startswith("_"):
            yield module, name, value
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            for attr, member in vars(value).items():
                public = not attr.startswith("_") or attr in ("__call__", "__post_init__")
                if inspect.isfunction(member) and public:
                    yield value, attr, member


class Tracer:
    """Records spans around hypergen's public functions while installed."""

    def __init__(self, package, out_dir: Path):
        self.out_dir = Path(out_dir)  # where pool workers leave their spans
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.is_worker = False
        self.root_parent = 0
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.stack: list[list[int]] = []  # [span id, name index, start, child ns]
        self._next_id = 0
        self.keep_room = KEEP_SPANS
        self._plan = self._wrap_package(package)
        self._reset_totals()

    def _reset_totals(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.failures = [0] * n
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.expansion_keys: set[tuple] = set()
        self.pool_spans: list[tuple[int, int, int, int]] = []  # id, start, end, jobs
        self.task_spans: list[tuple[int, int, int]] = []  # parent, start, end
        self.spans = array("q")  # flattened (id, parent, name index, start, end)
        self.dropped = 0

    # -- installation -------------------------------------------------------

    def _wrap_package(self, package) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to rewrite."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        plan = []
        wrapped: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for owner, attr, fn in _public_callables(module):
                qual = f"{layer}.{fn.__qualname__}"
                wrapper = self._wrap(fn, self._name_index(qual, layer), _HOOKS.get(qual))
                if owner is module:
                    wrapped[id(fn)] = wrapper
                else:
                    plan.append((owner, attr, fn, wrapper))
        task = modules[LAYERS.index("verify")]._check_population
        wrapped[id(task)] = self._wrap_task(task, self._name_index("verify._check_population", "verify"))
        # Module-level names: the originals, the names other modules imported,
        # and the package's re-exports.
        for module in [package, *modules]:
            for attr, value in vars(module).items():
                if id(value) in wrapped:
                    plan.append((module, attr, value, wrapped[id(value)]))
        return plan

    def install(self) -> None:
        """Route every traced name through its span-recording wrapper."""
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original functions; recorded totals are kept."""
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    def _name_index(self, qual: str, layer: str) -> int:
        self.names.append(qual)
        self.layer_of.append(layer)
        return len(self.names) - 1

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, idx: int, hook):
        stack = self.stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [tracer._new_id(), idx, _clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, _clock(), failed=True)
                raise
            end = _clock()
            tracer._close(frame, end, failed=False)
            if hook is not None:
                h0 = _clock()
                hook(tracer, frame, end, args, kwargs, result)
                if stack:  # bookkeeping is tracer time, not the caller's
                    stack[-1][3] += _clock() - h0
            return result

        return traced

    def _wrap_task(self, fn, idx: int):
        """Wrap the pool task so that a forked worker reports its spans."""
        traced = self._wrap(fn, idx, None)
        tracer = self

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._become_worker()
            if not tracer.is_worker:
                return traced(*args, **kwargs)
            start = _clock()
            try:
                return traced(*args, **kwargs)
            finally:
                tracer.task_spans.append((tracer.root_parent, start, _clock()))
                tracer._dump_worker()

        return task

    def _new_id(self) -> int:
        self._next_id += 1
        return (self.pid << 32) | self._next_id

    def _close(self, frame, end: int, failed: bool) -> None:
        self.stack.pop()
        span_id, idx, start, child = frame
        duration = end - start
        self.calls[idx] += 1
        self.self_ns[idx] += duration - child
        if failed:
            self.failures[idx] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        else:
            parent_id = self.root_parent
        if self.keep_room > 0:
            self.keep_room -= 1
            self.spans.extend((span_id, parent_id, idx, start, end))
        else:
            self.dropped += 1

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    # -- pool workers -----------------------------------------------------------

    def _become_worker(self) -> None:
        # keep_room is inherited: a worker keeps at most what the run had left
        self.root_parent = self.stack[-1][0] if self.stack else 0
        self.stack.clear()
        self.pid = os.getpid()
        self.is_worker = True
        self._next_id = 0
        self._reset_totals()

    def _dump_worker(self) -> None:
        path = self.out_dir / f"worker-{self.pid}-{self._next_id}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(self._totals(), fh)
        self._reset_totals()

    def _totals(self) -> dict:
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "failures": self.failures,
            "counters": self.counters,
            "expansion_keys": self.expansion_keys,
            "task_spans": self.task_spans,
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def collect_workers(self) -> None:
        """Merge every file the pool workers left into this tracer."""
        for path in sorted(self.out_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                data = pickle.load(fh)  # written by this module's own workers
            path.unlink()
            for i in range(len(self.names)):
                self.calls[i] += data["calls"][i]
                self.self_ns[i] += data["self_ns"][i]
                self.failures[i] += data["failures"][i]
            for key, value in data["counters"].items():
                if key == "core.max_coeff_bits":
                    self.counters[key] = max(self.counters[key], value)
                else:
                    self.counters[key] += value
            self.expansion_keys |= data["expansion_keys"]
            self.task_spans.extend(data["task_spans"])
            arrived = len(data["spans"]) // 5
            take = min(arrived, self.keep_room)
            self.keep_room -= take
            self.spans.extend(data["spans"][: 5 * take])
            self.dropped += data["dropped"] + arrived - take

    def _pool_time(self) -> tuple[int, int, int]:
        """(time workers covered, worker busy time, jobs x wall) over all pools."""
        covered = busy = capacity = 0
        for span_id, start, end, jobs in self.pool_spans:
            intervals = sorted((s, e) for parent, s, e in self.task_spans if parent == span_id)
            busy += sum(e - s for s, e in intervals)
            capacity += jobs * (end - start)
            reach = start
            for s, e in intervals:
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
        return covered, busy, capacity

    # -- results ------------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer totals divided by the number of op runs the run made."""
        covered, busy, capacity = self._pool_time()
        out: dict[str, float] = {}
        for layer in LAYERS:
            idx = [i for i, name in enumerate(self.layer_of) if name == layer]
            self_ns = sum(self.self_ns[i] for i in idx)
            if layer == "verify":  # the pool span waited while its workers ran
                self_ns -= covered
            out[f"{layer}.calls"] = sum(self.calls[i] for i in idx) / ops
            out[f"{layer}.self_ms"] = self_ns / 1e6 / ops
            out[f"{layer}.failures"] = sum(self.failures[i] for i in idx) / ops
        for key, value in self.counters.items():
            out[key] = value if key == "core.max_coeff_bits" else value / ops
        expansions = self.counters["distribution.expansions"]
        out["distribution.distinct_expansion_ratio"] = (
            len(self.expansion_keys) / expansions if expansions else 0.0
        )
        out["verify.pool_utilisation"] = busy / capacity if capacity else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """Write the kept span records as gzip TSV: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# kept={len(self.spans) // 5} dropped={self.dropped}\n")
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            rec = self.spans
            for i in range(0, len(rec), 5):
                fh.write(f"{rec[i]}\t{rec[i + 1]}\t{self.names[rec[i + 2]]}\t{rec[i + 3]}\t{rec[i + 4]}\n")


# -- counters recorded at span boundaries -----------------------------------------


def _coeffs_built(tr, frame, end, args, kwargs, result):
    coeffs = args[0].coeffs
    tr.counters["core.coeffs_built"] += len(coeffs)
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
    if bits > tr.counters["core.max_coeff_bits"]:
        tr.counters["core.max_coeff_bits"] = bits


def _series_terms(tr, frame, end, args, kwargs, result):
    tr.counters["hyp2f1.series_terms"] += args[0].termination_index


def _expansion(tr, frame, end, args, kwargs, result):
    p, which = args[0], args[1]
    tr.counters["distribution.expansions"] += 1
    tr.expansion_keys.add((p.N, p.K, p.n, which.value))


def _stirling_cells(tr, frame, end, args, kwargs, result):
    rows = args[0] + 1
    tr.counters["moments.stirling_cells"] += rows * (rows + 1) // 2


def _oracle_pgf_terms(tr, frame, end, args, kwargs, result):
    tr.counters["oracle.pmf_terms"] += args[0].support_hi + 1


def _oracle_moment_terms(tr, frame, end, args, kwargs, result):
    p = args[0]
    tr.counters["oracle.pmf_terms"] += p.support_hi - p.support_lo + 1


def _triple(tr, frame, end, args, kwargs, result):
    tr.counters["verify.triples"] += 1


def _grid(tr, frame, end, args, kwargs, result):
    jobs = kwargs.get("jobs", 1)
    if jobs > 1:
        tr.pool_spans.append((frame[0], frame[2], end, jobs))


_HOOKS = {
    "core.PgfPolynomial.__post_init__": _coeffs_built,
    "hyp2f1.eval_terminating_2f1": _series_terms,
    "hyp2f1.eval_terminating_2f1_float": _series_terms,
    "hyp2f1.series_coefficients": _series_terms,
    "distribution.branch_polynomial": _expansion,
    "moments.stirling2_triangle": _stirling_cells,
    "oracle.oracle_pgf": _oracle_pgf_terms,
    "oracle.oracle_factorial_moment": _oracle_moment_terms,
    "verify.check_triple": _triple,
    "verify.oracle_grid_check": _grid,
}
