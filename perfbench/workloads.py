"""The three workloads: each turns a seed into one round of CLI operations.

An operation is one ``oddgraceful`` command line, the file it writes (removed
before each run of it) and the job the checker receives once its exit code
and standard output are known. A run repeats the same round; the seed only
chooses the round.
"""

from __future__ import annotations

import random
from pathlib import Path

# (target q, method, format) of the union-large slots: per-edge work at
# q = 6e3 .. 1.2e4 in every layer (over 98 % of each command), and the JSON
# documents go on to ``verify``. Small enough for a dozen or more rounds in
# a run, so each operation's median has enough samples on a shared machine.
LARGE_SLOTS = (
    (12_000, "closed", "json"),
    (12_000, "algorithmic", "json"),
    (6_000, "closed", "csv"),
    (6_000, "algorithmic", "dot"),
)

# union-sweep draws this many instances per round, one from each stratum of
# the in-range (and below-bound) domain sorted by q.
SWEEP_IN_RANGE = 40
SWEEP_FORCED = 10

# search-suite: odd cycles exhaust, the rest must be found. Below-bound
# unions (n < min_in_range_n(m)) and C4+C4 have stored certificates.
SEARCH_SPECS = (
    "C7", "C9", "P10",
    "C4+P3", "C6+P3", "C8+P7",
    "C4+P2", "C6+P2", "C8+P3", "C8+P4", "C8+P5", "C10+P5", "C12+P4",
    "C4+C4",
)
# specs whose certificate comes from the construction (in range) or the oracle
CERTIFIED_BY_CONSTRUCTION = ("C4+P3", "C6+P3", "C8+P7")
CERTIFIED_BY_SEARCH = ("C4+P2", "C6+P2", "C8+P3", "C8+P4", "C8+P5", "C10+P5", "C12+P4", "C4+C4")

WORKLOADS = ("union-large", "union-sweep", "search-suite")


def min_in_range_n(m: int) -> int:
    """The paper's bound for C_m + P_n: n >= m - 1 if m/2 is even, else m - 3."""
    return m - 1 if (m // 2) % 2 == 0 else m - 3


def _generate(m, n, method, fmt, out: Path, *, force=False, **cross) -> dict:
    argv = ["generate", "--spec", f"C{m}+P{n}", "--method", method, "--format", fmt,
            "--out", str(out)]
    if force:
        argv.append("--force")
    job = {"kind": "generate", "m": m, "n": n, "format": fmt, "path": str(out),
           "in_range": not force, **cross}
    return {"argv": argv, "out": out, "job": job}


def _verify(m, n, document: Path) -> dict:
    job = {"kind": "verify", "m": m, "n": n, "path": str(document)}
    return {"argv": ["verify", "--input", str(document)], "out": None, "job": job}


def union_large(rng: random.Random, workdir: Path) -> list[dict]:
    cycles = rng.sample(range(8, 42, 2), len(LARGE_SLOTS))
    ops = []
    for slot, ((target, method, fmt), m) in enumerate(zip(LARGE_SLOTS, cycles)):
        n = target + rng.randrange(100) - m + 1
        out = workdir / f"large{slot}.{fmt}"
        ops.append(_generate(m, n, method, fmt, out))
        if fmt == "json":
            ops.append(_verify(m, n, out))
    return ops


def _stratified(rng: random.Random, domain: list[tuple[int, int]], k: int):
    """One instance from each of k equal strata of the domain sorted by q."""
    domain = sorted(domain, key=lambda mn: (mn[0] + mn[1], mn[0]))
    bounds = [len(domain) * i // k for i in range(k + 1)]
    return [domain[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def union_sweep(rng: random.Random, workdir: Path) -> list[dict]:
    cycles = range(4, 42, 2)
    in_range = [(m, n) for m in cycles for n in range(min_in_range_n(m), 201)]
    below = [(m, n) for m in cycles for n in range(1, min_in_range_n(m))]
    instances = [(mn, False) for mn in _stratified(rng, in_range, SWEEP_IN_RANGE)]
    instances += [(mn, True) for mn in _stratified(rng, below, SWEEP_FORCED)]
    rng.shuffle(instances)
    ops = []
    for i, ((m, n), force) in enumerate(instances):
        closed = workdir / f"sweep{i}.closed.json"
        ops.append(_generate(m, n, "closed", "json", closed, force=force))
        ops.append(_generate(m, n, "algorithmic", "json", workdir / f"sweep{i}.alg.json",
                             force=force, same_bytes_as=str(closed)))
        # each text format from each method on alternate instances
        methods = ("closed", "algorithmic")[:: 1 if i % 2 else -1]
        for fmt, method in zip(("csv", "dot"), methods):
            ops.append(_generate(m, n, method, fmt, workdir / f"sweep{i}.{fmt}",
                                 force=force, same_labels_as=str(closed)))
        ops.append(_verify(m, n, closed))
    return ops


def search_suite(rng: random.Random, workdir: Path) -> list[dict]:
    specs = list(SEARCH_SPECS)
    rng.shuffle(specs)
    return [
        {"argv": ["search", "--spec", spec], "out": None,
         "job": {"kind": "search", "spec": spec}}
        for spec in specs
    ]


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    make = {"union-large": union_large, "union-sweep": union_sweep,
            "search-suite": search_suite}[workload]
    return make(random.Random(seed), workdir)
