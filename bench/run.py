#!/usr/bin/env python3
"""Benchmark of bellshrink's command-line workloads, end to end and per layer.

    python3 bench/run.py --workload sim-grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One run writes the workload's inputs from the seed, warms up,
then runs whole rounds of the workload's CLI calls back to back in this one
process (closed loop, one client, ``--threads 1``) until ``--seconds`` have
passed, and checks the outputs.  The last line printed is one JSON object:

* ``--trace 0``: end-to-end metrics ``setup_s`` (median of three fresh
  interpreters that import, write inputs and warm up), ``wall_s`` (median
  round time) and ``peak_rss_mb``;
* ``--trace 1``: per-layer metrics from spans recorded around the public
  functions of each module (see ``tracer.py``); counts are those of the
  first timed round, times are medians over rounds.

BLAS runs on one thread.  Work files live under ``.bench_work/`` in the
checkout and are removed at exit.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("sim-grid", "bootstrap", "theory", "fit-large"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", dest="setup_only", metavar="DIR",
                    help=argparse.SUPPRESS)  # one set-up sample, then exit
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def _import_program():
    if not (SRC / "bellshrink" / "__init__.py").is_file():
        raise SystemExit(f"error: no bellshrink sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import bellshrink.cli
    import workloads

    if Path(bellshrink.cli.__file__).resolve().parent != SRC / "bellshrink":
        raise SystemExit(f"error: imported bellshrink from {bellshrink.cli.__file__}, not {SRC}")
    return bellshrink.cli, workloads


def _call(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def set_up(name: str, seed: int, workdir: Path):
    """Import the program, write the inputs and run the warm-up round."""
    cli, workloads = _import_program()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](workdir, seed)
    for argv in workload.warmup:
        code, _, err = _call(cli, argv)
        if code != 0:
            raise SystemExit(f"error: warm-up {argv[0]} exited {code}: {err.strip()}")
    return cli, workloads, workload


def run_round(cli, workloads, workload):
    """One round: every operation of the workload.  Returns its wall time,
    its outputs, the number of failed operations and their messages."""
    stdout, errors = [], []
    start = time.perf_counter()
    for argv in workload.ops:
        code, out, err = _call(cli, argv)
        stdout.append(out)
        if code != 0:
            errors.append(f"{argv[0]} exited {code}: {err.strip()}")
    wall = time.perf_counter() - start
    files = {p.name: p.read_bytes() for p in workload.outputs if p.exists()}
    return wall, workloads.RoundOutput(files=files, stdout=stdout), errors


def run_checks(workloads, workload, output) -> list[str]:
    failures = []
    for name, check in workload.checks():
        try:
            check(output)
        except (workloads.CheckFailed, KeyError, ValueError, IndexError) as exc:
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    return failures


def measure_setup(args, workdir: Path) -> float:
    """Median wall time of fresh interpreters that only set up."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir / f"setup{i}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up sample failed: {proc.stderr.strip()}")
    return statistics.median(samples)


def measure(args, workdir: Path) -> dict:
    cli, workloads, workload = set_up(args.workload, args.seed, workdir)
    import tracer as tracing

    setup_s = None if args.trace else measure_setup(args, workdir)
    tracer = tracing.Tracer() if args.trace else None
    walls, layers, problems = [], [], []
    first = None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is not None:
            tracer.reset()
            with tracer:
                wall, output, errors = run_round(cli, workloads, workload)
            layers.append(tracer.summary())
        else:
            wall, output, errors = run_round(cli, workloads, workload)
        walls.append(wall)
        attempted += len(workload.ops)
        failed += len(errors)
        problems += errors
        if first is None:
            first = output
        elif output != first:
            problems.append(f"round {len(walls)} output differs from round 1")
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += run_checks(workloads, workload, first)
    if tracer is not None:
        _, untraced, errors = run_round(cli, workloads, workload)
        problems += errors
        if untraced != first:
            problems.append("traced output differs from an untraced round")
        # The first round fills log_bell's cache of large Bell numbers (a miss
        # calls lambert_w0), so only the rounds after it must agree.
        for metric in tracing.LAYER_METRICS:
            if tracing.LAYER_METRICS[metric][0] in ("calls", "count") and any(
                    layer[metric] != layers[-1][metric] for layer in layers[1:]):
                problems.append(f"{metric} differs between rounds after the first")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} rounds of {len(workload.ops)} operations; round wall s "
          + " ".join(f"{w:.4f}" for w in walls))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    if tracer is not None:
        metrics = {}
        for metric, (kind, _) in tracing.LAYER_METRICS.items():
            if kind in ("calls", "count"):
                metrics[metric] = {"value": layers[0][metric], "unit": "count"}
            else:
                metrics[metric] = {"value": statistics.median(l[metric] for l in layers),
                                   "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.setup_only:
        set_up(args.workload, args.seed, Path(args.setup_only))
        return 0
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
