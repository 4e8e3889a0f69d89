#!/usr/bin/env python3
"""Layered benchmark for oddgraceful: generate, verify and search.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload union-large --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all      # each workload in its own process

The program is imported from ``src/`` of the checkout and driven in-process
through its public entry ``oddgraceful.cli.main``; outputs go to files under
``.perfbench_out/``. A run repeats whole rounds of its workload's operations
(see workloads.py) until the next round would end after ``--seconds``, and
the independent checker (checker.py, in its own process) judges every
operation of every round. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
With ``--trace 1`` rounds alternate untraced and traced; the metrics are the
per-layer ones of the traced rounds (tracing.py) plus the tracing overhead,
and the spans are written to ``.perfbench_out/spans-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SETUP_PROBES = 9


def import_program():
    """Import ``oddgraceful`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "oddgraceful" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'oddgraceful'}")
    sys.path.insert(0, str(src))
    import oddgraceful
    import oddgraceful.cli

    if Path(oddgraceful.__file__).resolve().parent != src / "oddgraceful":
        raise SystemExit(f"perfbench: imported oddgraceful from {oddgraceful.__file__}")
    return oddgraceful


def setup_probe(workload: str, seed: int) -> float:
    """Time from starting a fresh process to the point of its first timed command.

    The probe imports the program and builds the workload's inputs, then
    reports ready and exits without running a command.
    """
    start = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True,
    )
    line = probe.stdout.readline()
    seconds = time.perf_counter() - start
    probe.stdout.close()
    if probe.wait() != 0 or line.strip() != "ready":
        raise SystemExit("perfbench: set-up probe failed")
    return seconds


class Checker:
    """The independent checker, kept in its own process for the whole run."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "checker.py"), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def check(self, jobs: list[dict]) -> list[tuple[str, str]]:
        self.process.stdin.write(json.dumps(jobs) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the checker stopped")
        return json.loads(line)

    def close(self) -> None:
        self.process.stdin.close()
        self.process.stdout.close()
        if self.process.wait(timeout=60) != 0:
            raise SystemExit("perfbench: the checker failed")


def run_round(main, ops: list[dict], tracer=None) -> list[dict]:
    """Run every operation once; return exit code, output and time of each."""
    results = []
    for op in ops:
        if op["out"] is not None:
            op["out"].unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = main(op["argv"]) if tracer is None else tracer.command(main, op["argv"])
            except Exception as exc:  # an uncaught exception fails the operation
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        results.append({"rc": rc, "stdout": stdout.getvalue(), "error": error,
                        "seconds": seconds})
    return results


def judge(checker: Checker, ops: list[dict], results: list[dict]) -> list[tuple[str, str]]:
    """Verdict per operation: ok, failed (crashed or no verdict) or wrong."""
    pending = [i for i, r in enumerate(results) if r["error"] is None]
    jobs = [dict(ops[i]["job"], rc=results[i]["rc"], stdout=results[i]["stdout"])
            for i in pending]
    verdicts = [("failed", r["error"]) for r in results]
    for i, verdict in zip(pending, checker.check(jobs)):
        verdicts[i] = tuple(verdict)
    return verdicts


def measure(args, package, ops: list[dict]) -> dict:
    import tracing

    main = package.cli.main
    tracer = tracing.Tracer(package) if args.trace else None
    checker = Checker()
    rounds = []  # (traced, results, first span index, last span index)
    verdicts = []
    setups = []  # one probe after each round spreads them over the run
    began = time.perf_counter()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            first = len(tracer.spans) if tracer else 0
            round_start = time.perf_counter()
            if traced:
                with tracer.installed():
                    results = run_round(main, ops, tracer)
            else:
                results = run_round(main, ops)
            rounds.append((traced, results, first, len(tracer.spans) if tracer else 0))
            verdicts += judge(checker, ops, results)
            if tracer is None:
                setups.append(setup_probe(args.workload, args.seed))
            now = time.perf_counter()
            enough = tracer is None or len(rounds) >= 2
            if enough and now - began + (now - round_start) > args.seconds:
                break
    finally:
        checker.close()

    bad = [(ops[i % len(ops)]["argv"], v) for i, v in enumerate(verdicts) if v[0] != "ok"]
    for argv, (status, why) in bad[:20]:
        print(f"perfbench: {status}: {' '.join(argv)}: {why}", file=sys.stderr)
    summary = {
        "correct": not any(status == "wrong" for _, (status, _) in bad),
        "attempted": len(verdicts),
        "failed": len(bad),
    }
    untraced = [results for traced, results, _, _ in rounds if not traced]
    if tracer is None:
        metrics = end_to_end(untraced)
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))
        metrics["setup_s"] = (statistics.median(setups), "s")
    else:
        per_round = [tracing.layer_metrics(tracer.spans[a:b]) for t, _, a, b in rounds if t]
        traced_s = median_round(r for t, r, _, _ in rounds if t)
        untraced_s = median_round(untraced)
        metrics = tracing.median_metrics(per_round)
        metrics["trace.overhead_pct"] = 100 * (traced_s / untraced_s - 1)
        metrics = {name: (value, tracing.unit(name)) for name, value in metrics.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "untraced_round_s": untraced_s, "traced_round_s": traced_s})
        print_shares(metrics)
    summary["metrics"] = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
    return summary


def median_per_op(rounds) -> list[float]:
    """Each operation's median time over the rounds."""
    return [statistics.median(times)
            for times in zip(*([r["seconds"] for r in rs] for rs in rounds))]


def median_round(rounds) -> float:
    return math.fsum(median_per_op(rounds))


def end_to_end(rounds: list[list[dict]]) -> dict:
    """round_s, cmd_geomean_ms and peak_rss_mb of the untraced rounds."""
    per_op = median_per_op(rounds)
    geomean = math.exp(statistics.fmean(math.log(s) for s in per_op))
    return {
        "round_s": (math.fsum(per_op), "s"),
        "cmd_geomean_ms": (geomean * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def print_shares(metrics: dict) -> None:
    """Each layer's share of the traced command time, for reading by eye (stderr)."""
    total = sum(metrics[f"cli.{c}.wall_s"][0] for c in ("generate", "verify", "search"))
    print(f"traced commands: {total:.3f} s per round", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if name.endswith(("busy_s", "self_s")) and value:
            print(f"  {name:55s} {value:10.4f} s {100 * value / total:6.2f} %",
                  file=sys.stderr)


def run_all(args) -> int:
    """Run each workload in its own process, one after the other."""
    status = 0
    lines = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        last = done.stdout.strip().splitlines()[-1:] or ["null"]
        lines[workload] = json.loads(last[0])
        print(f"{workload}: {last[0]}", file=sys.stderr)
    print(json.dumps(lines))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    package = import_program()
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    ops = workloads.build(args.workload, args.seed, workdir)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import checker

    checker.self_test()
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        summary = measure(args, package, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
