"""One workload in one process: set up, time whole passes, check, report.

Started by run.py as ``child.py MODE WORKLOAD SEED SECONDS [overhead]``, with
the thread and path environment run.py sets.  MODE is ``setup`` (exit once
ready), ``run`` (timed passes) or ``trace`` (one traced pass, each op also
run untraced when ``overhead`` is given).  Prints ``READY`` once set up and
one ``RESULT <json>`` line at the end.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_header(workload: str, seed: int, mode: str) -> dict:
    """Versions and settings that a figure of this run depends on."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
    }


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def peak_rss_mb() -> float:
    """High-water resident memory of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_passes(wl, cases: list, inputs: list, seconds: float) -> dict:
    """Whole passes over the inputs until ``seconds`` would be exceeded.

    At least enough passes run to give ``wl.min_ops`` samples.  Outputs of
    the first pass are kept for checking; later passes are only compared
    with it where the workload asks for that.
    """
    min_passes = math.ceil(wl.min_ops / len(inputs))
    latencies: list[float] = []
    first: list | None = None
    problems: list[str] = []
    failed = passes = 0
    wall = 0.0
    while True:
        outputs = []
        pass_start = perf_counter()
        for args in inputs:
            start = perf_counter()
            try:
                out = wl.run(args)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
                failed += 1
            latencies.append(perf_counter() - start)
            outputs.append(out)
        wall += perf_counter() - pass_start
        passes += 1
        if first is None:
            first = outputs
        else:
            problems += wl.repeat_problems(cases, first, outputs)
        if passes >= min_passes and wall * (passes + 1) / passes > seconds:
            break
    latencies.sort()
    return {
        "outputs": first,
        "problems": problems,
        "attempted": len(latencies),
        "failed": failed,
        "passes": passes,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * nearest_rank(latencies, wl.tail_q),
        "throughput_ops_s": (len(latencies) - failed) / wall,
    }


def traced_pass(wl, tracer, inputs: list, want_overhead: bool) -> tuple[list, int, dict]:
    """One traced pass; returns (outputs, failed operations, overhead metric).

    With ``want_overhead`` each operation also runs untraced right before or
    after its traced run, alternating, so the machine's drift cancels out of
    the ratio of the two summed times.
    """
    outputs: list = []
    failed = 0
    elapsed = {True: 0.0, False: 0.0}
    for op, args in enumerate(inputs):
        tracer.op = op
        order = ((op % 2 == 1), (op % 2 == 0)) if want_overhead else (True,)
        for traced in order:
            start = perf_counter()
            try:
                out = wl.traced_run(tracer, args) if traced else wl.run(args)
            except Exception as exc:  # counted like a failure in a timed pass
                out = exc
                failed += 1
            elapsed[traced] += perf_counter() - start
            if traced:
                outputs.append(out)
    layers = {}
    if want_overhead:
        layers["trace.overhead_pct"] = 100.0 * (elapsed[True] / elapsed[False] - 1.0)
    return outputs, failed, layers


def failures(outputs: list) -> list[str]:
    return [f"{type(o).__name__}: {o}" for o in outputs if isinstance(o, Exception)]


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    want_overhead = argv[4:] == ["overhead"]
    wl = WORKLOADS[name]
    cases = wl.cases(seed)
    inputs = wl.prepare(ROOT, cases)
    wl.warm(inputs)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    if mode == "run":
        timed = timed_passes(wl, cases, inputs, seconds)
        rss = peak_rss_mb()
        header = run_header(name, seed, mode)
        outputs = timed.pop("outputs")
        result = {
            **timed,
            "peak_rss_mb": rss,
            "tail_q": wl.tail_q,
            "problems": timed["problems"] + wl.check(cases, outputs),
            "errors": failures(outputs),
        }
    else:
        from spans import Tracer

        tracer = Tracer(wl.trace_targets)
        outputs, failed, layers = traced_pass(wl, tracer, inputs, want_overhead)
        result = {
            "attempted": len(inputs) * (2 if want_overhead else 1),
            "failed": failed,
            "layers": {**layers, **wl.layers(tracer, cases, outputs)},
            "problems": wl.check(cases, outputs),
            "errors": failures(outputs),
        }
        header = run_header(name, seed, mode)
        tracer.dump(TRACE_DIR / f"trace-{name}.jsonl", header)

    result["header"] = header
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
