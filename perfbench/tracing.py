"""In-memory span tracing for the benchmark, installed from outside the library.

Wrappers are set on the module attributes that robustbo's callers resolve
(``robustbo.gp.cross_matrix``, ``robustbo.algorithms.rcgp_fit``, ...), so the
library itself is unchanged and the traced run executes the same code as the
untraced one.  Every wrapper records a span (name, start, end, parent span,
step id) and any counters of work done at that boundary.  ``instrumented``
restores every attribute it replaced, also when the traced code raises.
"""

from __future__ import annotations

import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# Spans opened outside any BO step (set-up, trace I/O) carry this step id.
NO_STEP = 0


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics,
    the same rule as ``numpy.percentile``'s default."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


class Tracer:
    """Spans kept in parallel lists, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.steps: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.step_id = NO_STEP
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.steps.append(self.step_id)
        self.ends.append(math.nan)
        self._open.append(i)
        self.starts.append(self.clock())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def layer_table(self) -> dict:
        """{span name: {"calls", "self_s", "total_s"}} summed over all spans
        of that name; total_s includes the time of child spans."""
        table = {}
        own_times = self_times(self.starts, self.ends, self.parents)
        for name, s, e, own in zip(self.names, self.starts, self.ends, own_times):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += e - s
        return table

    def write_spans(self, path) -> None:
        """Dump every span as CSV: id, parent, step, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id,parent,step,name,start,end\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{self.steps[i]},{name},"
                         f"{self.starts[i]!r},{self.ends[i]!r}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    each child clipped to its parent's interval."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s), min(b, e)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(e - s - covered)
    return out


def _span_wrapper(tracer: Tracer, name: str, fn, counter=None):
    def wrapper(*args, **kwargs):
        i = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, out)
            return out
        finally:
            tracer.end(i)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(tracer: Tracer, key: str, fn):
    # Counted before the call, so attempts that raise are counted too.
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


# -- counters of work done at a layer boundary ------------------------------


def _cross_elements(tracer, args, out):
    tracer.count("kernels.cross_matrix.elements", out.size)


def _solve_flops(tracer, args, out):
    chol, b = args[0], args[1]
    n = chol[0].shape[0]
    k = 1 if b.ndim == 1 else b.shape[1]
    tracer.count("kernels.solve_cho.flops_computed", 2 * n * n * k)


def _predict_points(layer):
    key = f"{layer}.points"

    def counter(tracer, args, out):
        tracer.count(key, out[0].shape[0])

    return counter


def _rcgp_fit_outcome(tracer, args, out):
    n_in = len(args[1])
    tracer.count("rcgp.rcgp_fit.points_dropped", n_in - out.y.shape[0])
    tracer.count("rcgp.rcgp_fit.points_downweighted", int((out.corrections.jw != 1.0).sum()))


def _corrupted(tracer, args, out):
    tracer.count("adversary.corrupt.corrupted", int(out[1]))


def _trace_bytes(tracer, args, out):
    tracer.count("bench.write_trace.bytes", os.path.getsize(args[0]))


def layer_targets():
    """(owner, attribute, span name, counter) for every wrapped layer.

    Each function is wrapped in every module that binds it and calls it, so
    calls are seen whichever module makes them; a wrapper holds the original
    function, so a call is never counted twice.
    """
    from robustbo import algorithms, bench, gp, kernels, rcgp

    return [
        (kernels, "cross_matrix", "kernels.cross_matrix", _cross_elements),
        (gp, "cross_matrix", "kernels.cross_matrix", _cross_elements),
        (rcgp, "cross_matrix", "kernels.cross_matrix", _cross_elements),
        (kernels, "gram_matrix", "kernels.gram_matrix", None),
        (gp, "gram_matrix", "kernels.gram_matrix", None),
        (rcgp, "gram_matrix", "kernels.gram_matrix", None),
        (algorithms, "gram_matrix", "kernels.gram_matrix", None),
        (kernels, "jittered_cho_factor", "kernels.jittered_cho_factor", None),
        (gp, "jittered_cho_factor", "kernels.jittered_cho_factor", None),
        (rcgp, "jittered_cho_factor", "kernels.jittered_cho_factor", None),
        (algorithms, "jittered_cho_factor", "kernels.jittered_cho_factor", None),
        (kernels, "solve_cho", "kernels.solve_cho", _solve_flops),
        (gp, "solve_cho", "kernels.solve_cho", _solve_flops),
        (rcgp, "solve_cho", "kernels.solve_cho", _solve_flops),
        (algorithms, "solve_cho", "kernels.solve_cho", _solve_flops),
        (algorithms, "info_gain", "kernels.info_gain", None),
        (gp.GpPosterior, "predict", "gp.predict", _predict_points("gp.predict")),
        (rcgp.RcgpPosterior, "predict", "rcgp.predict", _predict_points("rcgp.predict")),
        (algorithms, "gp_fit", "gp.gp_fit", None),
        (rcgp, "gp_fit", "gp.gp_fit", None),
        (algorithms, "rcgp_fit", "rcgp.rcgp_fit", _rcgp_fit_outcome),
        (rcgp, "build_corrections", "weights.build_corrections", None),
        (algorithms, "build_corrections", "weights.build_corrections", None),
        (algorithms, "maximize_acquisition", "algorithms.maximize_acquisition", None),
        (algorithms, "corrupt", "adversary.corrupt", _corrupted),
        (algorithms, "observe", "objectives.observe", None),
        (bench, "optimum_on_grid", "bench.optimum_on_grid", None),
        (bench, "write_trace", "bench.write_trace", _trace_bytes),
        (bench, "read_traces", "bench.read_traces", None),
        (bench, "aggregate", "bench.aggregate", None),
    ]


class StepLog:
    """Durations of the BO steps, and when the first one started."""

    def __init__(self):
        self.durations: list[float] = []
        self.first_start: float | None = None  # time.monotonic()


@contextmanager
def instrumented(steps: StepLog, tracer: Tracer | None = None):
    """Time every BO step from outside, and with a tracer also wrap the layers.

    ``robustbo.bench.run_loop`` -- the name ``run_experiment`` resolves -- is
    replaced by a loop of ``run_loop(state, 1)`` calls, each timed into
    ``steps`` and, when traced, recorded as an ``algorithms.step`` span with
    its own step id.  Every replaced attribute is restored on exit.
    """
    from robustbo import algorithms, bench, kernels

    run_one = algorithms.run_loop

    def timed_run_loop(state, n_iterations):
        if steps.first_start is None:
            steps.first_start = time.monotonic()
        for _ in range(n_iterations):
            if tracer is None:
                t0 = time.perf_counter()
                run_one(state, 1)
                steps.durations.append(time.perf_counter() - t0)
            else:
                tracer.step_id = len(steps.durations) + 1
                i = tracer.begin("algorithms.step")
                try:
                    run_one(state, 1)
                finally:
                    tracer.end(i)
                steps.durations.append(tracer.ends[i] - tracer.starts[i])
                tracer.step_id = NO_STEP
        return state.records

    replaced = [(bench, "run_loop", timed_run_loop)]
    if tracer is not None:
        replaced += [
            (owner, attr, _span_wrapper(tracer, name, getattr(owner, attr), counter))
            for owner, attr, name, counter in layer_targets()
        ]
        replaced.append((kernels, "cho_factor",
                         _count_wrapper(tracer, "kernels.jittered_cho_factor.attempts", kernels.cho_factor)))
    saved = []
    try:
        for owner, attr, new in replaced:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
