"""Fresh-process benchmark of two checkouts, parent against change.

Each command line runs as ``python <command>`` in a new child of each
checkout, with ``PYTHONPATH=<checkout>/src``, ``OPENBLAS_NUM_THREADS=1`` and
``PYTHONDONTWRITEBYTECODE=1``, stdout and stderr to /dev/null.  A run records
the wall time from spawn to exit and the child's ``ru_maxrss`` from
``os.wait4``; runs alternate the side that goes first.  ``--trapbench
WORKLOAD:SEED`` adds ``--runs`` alternating pairs of ``trapbench/run.py``
(each checkout's own, ``--trace 0``, for the change's ``BENCHMARK.json``
``run_seconds``), scored against that file's bounds.  Before anything runs,
each checkout's ``src/trapshift/__pycache__`` is removed, so neither side
starts from bytecode the other lacks.

    python3 scripts/bench_fresh.py --parent ../parent --change . --label cli_stdlib \\
        --runs 11 --trapbench cli:11 -- "-c 'import trapshift.cli'" "-m trapshift.cli --version"

The result is written to a new ``BENCH_<label>.json`` in the current
directory; an existing file is never overwritten.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

SIDES = ("parent", "change")


def child_env(checkout: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return env


def quartiles(runs: list[float]) -> tuple[float, float]:
    """First and third quartile by the exclusive method (one run: itself twice)."""
    if len(runs) < 2:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return q1, q3


def summary(runs: list[float]) -> dict:
    """Median, quartiles and every run, in run order."""
    return {
        "median": round(statistics.median(runs), 4),
        "quartiles": [round(q, 4) for q in quartiles(runs)],
        "runs": [round(r, 4) for r in runs],
    }


def order(k: int) -> tuple[str, str]:
    """Even runs take the parent first, odd runs the change."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def fresh_run(checkout: Path, command: str) -> tuple[float, float, int]:
    """(wall ms, max RSS MB, exit code) of one ``python <command>`` child."""
    argv = [sys.executable, *shlex.split(command)]
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=checkout, env=child_env(checkout), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return 1e3 * wall, usage.ru_maxrss / 1024, proc.returncode


def fresh_process(checkouts: dict[str, Path], commands: list[str], runs: int) -> dict:
    cases = {}
    for command in commands:
        samples = {side: [] for side in SIDES}
        for k in range(runs):
            for side in order(k):
                samples[side].append(fresh_run(checkouts[side], command))
        cases[command] = {
            side: {
                "wall_ms": summary([s[0] for s in samples[side]]),
                "maxrss_mb": summary([s[1] for s in samples[side]]),
                "exit": sorted({s[2] for s in samples[side]}),
            }
            for side in SIDES
        }
    return {
        "method": (
            "each command as a fresh child 'python <command>' (PYTHONPATH=<checkout>/src, stdout and stderr "
            "to /dev/null), wall time from spawn to exit and the child's ru_maxrss from wait4; runs alternate "
            "parent/change (even runs parent first)"
        ),
        "runs": runs,
        "cases": cases,
    }


def trapbench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "trapbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=child_env(checkout), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The change's relative worsening of the median, against the bound and the
    parent's own spread (IQR over median); unresolved when that spread exceeds
    the bound and not every change run beats every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = statistics.median(parent), statistics.median(change)
    worse_by = sign * (c - p) / p
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / p
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    clean = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if worse_by > bound:
        word = "worse than bound"
    elif spread > bound and not clean:
        word = "unresolved"
    else:
        word = "within bound"
    return {
        "change_worse_by": round(worse_by, 4),
        "bound": bound,
        "parent_spread": round(spread, 4),
        "change_wins": f"{wins} of {len(parent)}",
        "verdict": word,
    }


def end_to_end(checkouts: dict[str, Path], targets: list[str], pairs: int) -> dict:
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    workloads = {}
    for target in targets:
        workload, seed = target.split(":")
        results = {side: [] for side in SIDES}
        for k in range(pairs):
            for side in order(k):
                results[side].append(trapbench_run(checkouts[side], workload, int(seed), seconds))
        values = {
            side: {m["name"]: [r["metrics"][m["name"]]["value"] for r in results[side]] for m in metrics}
            for side in SIDES
        }
        workloads[f"{workload} seed {seed}"] = {
            "pairs": pairs,
            "all_correct": all(r["correct"] for side in SIDES for r in results[side]),
            "failed_ops": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
            "attempted_ops": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
            **{side: {name: summary(v) for name, v in values[side].items()} for side in SIDES},
            "vs_bound": {
                m["name"]: verdict(values["parent"][m["name"]], values["change"][m["name"]], m["better"], m["bound"])
                for m in metrics
            },
        }
    return {
        "command": f"python3 trapbench/run.py --workload W --seed S --seconds {seconds} --trace 0 (last line of stdout)",
        "order": "even pairs ran the parent first, odd pairs the change first",
        "workloads": workloads,
    }


def host() -> str:
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"no {package}")
    return ", ".join([
        f"{os.cpu_count()}-core {platform.machine()} host",
        f"Python {platform.python_version()}",
        *versions,
        "OPENBLAS_NUM_THREADS=1, PYTHONDONTWRITEBYTECODE=1",
    ])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument(
        "--runs", type=int, default=11, help="runs per command and side, and trapbench pairs per workload (default 11)"
    )
    parser.add_argument("--trapbench", action="append", default=[], metavar="WORKLOAD:SEED")
    parser.add_argument("commands", nargs="*", help="arguments of python, one command line each")
    args = parser.parse_args(argv)
    if not (args.commands or args.trapbench):
        parser.error("give a command line or --trapbench")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    out = Path(f"BENCH_{args.label}.json")
    if out.exists():
        parser.error(f"{out} exists; each run writes a new file")
    for target in args.trapbench:
        workload, _, seed = target.partition(":")
        if not (workload and seed.isdigit()):
            parser.error(f"--trapbench takes WORKLOAD:SEED, got {target!r}")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "src" / "trapshift" / "__init__.py").is_file():
            parser.error(f"no trapshift sources under {checkout / 'src'}")
        shutil.rmtree(checkout / "src" / "trapshift" / "__pycache__", ignore_errors=True)

    data = {"label": args.label, "host": host()}
    if args.commands:
        data["fresh_process"] = fresh_process(checkouts, args.commands, args.runs)
    if args.trapbench:
        data["end_to_end"] = end_to_end(checkouts, args.trapbench, args.runs)
    out.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
