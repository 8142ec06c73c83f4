"""One benchmark episode, run in a fresh interpreter by run.py.

An episode is what a user of ``robustbo run`` followed by ``robustbo
aggregate`` waits for: import the library, load and validate the generated
config, run every (algorithm, seed) cell through ``bench.run_experiment``
(which writes the traces), read the traces back and aggregate them.  The
timings and, after the timed part, the facts run.py checks are written to a
JSON file.

Usage: python3 episode.py ROOT CONFIG OUT_DIR RESULT SPAWN_TIME TRACE
"""

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

import tracing


def main(argv) -> None:
    root, config_path, out_dir, result_path, spawn_time, trace = argv
    spawn_time = float(spawn_time)
    sys.path.insert(0, f"{root}/src")
    from robustbo import bench

    out_dir = Path(out_dir)
    tracer = tracing.Tracer() if trace == "1" else None
    steps = tracing.StepLog()
    with tracing.instrumented(steps, tracer):
        cfg = bench.load_config(config_path)
        bench.run_experiment(cfg, out_dir)
        results = bench.read_traces(out_dir)
        bench.write_aggregate(out_dir / "aggregate.csv", bench.aggregate(results))
    end = time.monotonic()

    metadata = json.loads((out_dir / "metadata.json").read_text())
    facts = trace_facts(cfg, results, out_dir)
    result = {
        "setup_s": steps.first_start - spawn_time,
        "wall_s": end - spawn_time,
        "step_s": steps.durations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cells": len(cfg.algorithms) * len(cfg.seeds),
        "failures": metadata["failures"],
        **facts,
        "env": environment(),
    }
    if tracer is not None:
        if tracer.open_spans:
            raise RuntimeError("spans left open after the traced run")
        result["layers"] = tracer.layer_table()
        result["counts"] = dict(tracer.counts)
        tracer.write_spans(out_dir / "spans.csv")
    Path(result_path).write_text(json.dumps(result))


def trace_facts(cfg, results, out_dir) -> dict:
    """What run.py checks: file digests, finiteness, domain, regret, queries."""
    from robustbo.objectives import make_objective

    bounds = make_objective(cfg.objective, cfg.noise_var).bounds
    nonfinite = out_of_domain = 0
    final_regret, queries = {}, {}
    for (algorithm, seed), rows in results.items():
        xs = []
        for row in rows:
            nonfinite += sum(not math.isfinite(float(v)) for v in row.values())
            x = [float(row[f"x{j}"]) for j in range(bounds.shape[0])]
            out_of_domain += any(not lo <= v <= hi for v, (lo, hi) in zip(x, bounds))
            xs.append(x)
        final_regret[f"{algorithm}/{seed}"] = rows[-1]["cum_regret"]
        queries[f"{algorithm}/{seed}"] = hashlib.sha256(repr(xs).encode()).hexdigest()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}
    return {
        "digests": digests,
        "nonfinite": nonfinite,
        "out_of_domain": out_of_domain,
        "final_regret": final_regret,
        "queries": queries,
    }


def environment() -> dict:
    """Interpreter, numpy/scipy, the BLAS libraries loaded and their threads."""
    import numpy
    import scipy

    blas = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        blas[os.path.basename(path)] = threads
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "nproc": os.cpu_count(),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
