#!/usr/bin/env python3
"""Pipeline benchmark for ptzkit: seeded workloads through the public CLI.

Run from the root of a checkout; ``ptzkit`` is imported from ``src/`` there:

    python3 perfbench/run.py --workload selftrain --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller report,
environment included, goes to ``.perfbench_out/``.  See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads, so the numbers measure the program
# and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
OUT_DIR = ROOT / ".perfbench_out"
# Input set-up repeats until both limits are met (at most SETUP_MAX_REPEATS
# times), and the median is reported, so a short set-up is not read from one
# sample.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 25


def cpu_seconds() -> float:
    """CPU time of this process, all its threads, and its reaped children.

    On a shared virtual machine the host takes the CPU away in bursts (steal
    time, a third of the time in one sample on the 2-CPU virtual machine of
    perfbench/README.md); CPU time leaves those bursts out,
    where wall time counts them.  The operations run on one thread, so
    otherwise the two agree.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def set_up(workload, workdir: Path, seed: int) -> tuple[float, dict]:
    """Import time plus the median of several input set-ups, in CPU seconds;
    the last set-up's inputs.

    ``ptzkit`` is imported once: importing it again leaves memory behind,
    which would show in ``peak_rss_mb``.
    """
    start = cpu_seconds()
    importlib.import_module("ptzkit.cli")
    import_s = cpu_seconds() - start
    times = []
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
    ):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = cpu_seconds()
        inputs = workload.setup(workdir, seed)
        times.append(cpu_seconds() - start)
    inputs["out"].mkdir(parents=True, exist_ok=True)
    return import_s + statistics.median(times), inputs


def timed_ops(workload, inputs: dict, seconds: float, tracer: Tracer | None) -> dict:
    """Whole rounds of operations until the next round would pass ``seconds``.

    A round is one untraced operation, followed by one traced operation when
    a tracer is given.  Returns each operation's CPU and wall seconds, by
    mode, and the number that failed.
    """
    times = {key: [] for key in ("cpu_untraced", "cpu_traced", "wall_untraced", "wall_traced")}
    failed = 0
    modes = ("untraced", "traced") if tracer is not None else ("untraced",)
    start = time.perf_counter()
    rounds = 0
    while True:
        for mode in modes:
            gc.collect()  # garbage of the previous operation is freed untimed
            if mode == "traced":
                tracer.install()
            wall, cpu = time.perf_counter(), cpu_seconds()
            try:
                rc = workload.run(inputs)
            finally:
                times[f"cpu_{mode}"].append(cpu_seconds() - cpu)
                times[f"wall_{mode}"].append(time.perf_counter() - wall)
                if mode == "traced":
                    tracer.uninstall()
            failed += rc != 0
        rounds += 1
        spent = time.perf_counter() - start
        if spent + spent / rounds > seconds:
            return {**times, "failed": failed}


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import ptzkit

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }
    if hasattr(ptzkit, "kernel_backend"):
        env["kernel_backend"] = ptzkit.kernel_backend
    return env


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS_DIR))
    try:
        setup_s, inputs = set_up(workload, workdir / "run", seed)
        tracer = Tracer() if trace else None
        times = timed_ops(workload, inputs, seconds, tracer)
        quality, details, problems = workload.evaluate(inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cpu_s = statistics.median(times["cpu_untraced"])
    if trace:
        metrics = tracer.metrics(len(times["cpu_traced"]))
        metrics["trace.overhead_s"] = (statistics.median(times["cpu_traced"]) - cpu_s, "s")
        metrics["run.wall_s"] = (statistics.median(times["wall_untraced"]), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cpu_s": (cpu_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "quality": (quality, "1"),
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "correct": not problems,
        "problems": problems,
        "attempted": len(times["cpu_untraced"]) + len(times["cpu_traced"]),
        "failed": times["failed"],
        "op_seconds": times,
        "absent": tracer.absent if trace else [],
        "details": details,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long the timed part runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ptzkit" / "__init__.py").is_file():
        print(f"perfbench: no ptzkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for key, value in result["environment"].items():
        print(f"# {key}: {value}")
    for problem in result["problems"]:
        print(f"# CHECK FAILED: {problem}")
    if result["absent"]:
        print(f"# absent: {', '.join(result['absent'])}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    summary = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
