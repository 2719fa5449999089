"""Benchmark of trapshift: end-to-end metrics of four workloads, traced layers.

    python3 trapbench/run.py --workload closed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; trapshift is taken from its ``src/`` through
PYTHONPATH.  Each workload runs in child processes whose environment pins
OpenBLAS, OpenMP and MKL to one thread.  With ``--trace 0`` the workload is
set up SETUP_REPEATS times (each in a fresh child; ``setup_s`` is the median)
and the last child times whole passes over the seeded cases.  With
``--trace 1`` every workload runs one traced pass, so every per-layer metric
is reported; in the named workload each op also runs untraced, and the
difference is the tracing overhead.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
#: Seconds a child may take after it is ready; a whole run must end within 180 s.
CHILD_TIMEOUT = 150


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_child(mode: str, workload: str, seed: int, seconds: int, *extra: str) -> subprocess.Popen:
    argv = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed), str(seconds), *extra]
    return subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)


def wait_ready(proc: subprocess.Popen) -> float:
    """Block until the child reports ready; returns the perf_counter at that moment."""
    for line in proc.stdout:
        if line.strip() == "READY":
            return perf_counter()
    proc.wait()
    raise ChildFailed(f"child exited with code {proc.returncode} before it was ready")


def finish(proc: subprocess.Popen) -> dict | None:
    """Wait for the child; return its RESULT object, or None if it printed none."""
    try:
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"child did not finish within {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    return None


def untraced(workload: str, seed: int, seconds: int) -> tuple[dict, dict[str, float]]:
    setups = []
    for k in range(SETUP_REPEATS):
        mode = "run" if k == SETUP_REPEATS - 1 else "setup"
        start = perf_counter()
        proc = start_child(mode, workload, seed, seconds)
        setups.append(wait_ready(proc) - start)
        result = finish(proc)
    values = {key: result[key] for key in ("latency_p50_ms", "latency_tail_ms", "throughput_ops_s", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    return result, values


def traced(workload: str, seed: int, seconds: int) -> tuple[dict, dict[str, float]]:
    """Every workload's layers; the named one also measures the tracing overhead."""
    merged: dict = {"attempted": 0, "failed": 0, "problems": [], "errors": []}
    values: dict[str, float] = {}
    for name in WORKLOADS:
        extra = ("overhead",) if name == workload else ()
        result = finish(start_child("trace", name, seed, seconds, *extra))
        for key in ("attempted", "failed", "problems", "errors"):
            merged[key] += result[key]
        merged.setdefault("header", result["header"])
        values.update(result["layers"])
    return merged, values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "trapshift" / "__init__.py").is_file():
        print(f"error: no trapshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        run = traced if args.trace else untraced
        result, values = run(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    for line in result["problems"][:20] + result["errors"][:20]:
        print(f"{args.workload}: {line}", file=sys.stderr)

    print("# header " + json.dumps(result["header"]))
    if not args.trace:
        print(f"# {result['attempted']} ops in {result['passes']} passes; tail is p{100 * result['tail_q']:g}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
