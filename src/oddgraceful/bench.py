"""Timing harness for the construction routines.

Both construction routes do constant work per vertex, so construction time
should scale linearly with the edge count q. The harness times bare
construction calls (no topology building, no I/O), discards one warm-up
repetition, and reports a least-squares fit of log(time) against log(q)
over the per-q median times: a slope near 1 means linear scaling. Per-sample
rows are still emitted so any other fit can be recomputed from the CSV.

A sample is a ``(q, method, nanoseconds)`` row, with the method named as in
:data:`~oddgraceful.construction.METHODS`.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Iterable, Sequence

from .construction import METHODS, ConstructionParams, min_path_length, validate_params
from .errors import PathTooShortError


def params_for_q(q: int, m: int = 8) -> ConstructionParams:
    """Realize q as m + n - 1 at fixed cycle length; errors name the constraint."""
    required = min_path_length(m)
    n = q - m + 1
    if n < required:
        raise PathTooShortError(
            f"q={q} is not realizable with m={m}: need n >= {required}, so q >= {m + required - 1}",
            required=required,
        )
    return validate_params(m, n)


def run_bench(
    q_values: Sequence[int],
    repetitions: int,
    m: int = 8,
) -> list[tuple[int, str, int]]:
    """Time every construction method at each q; returns the sample rows."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if not q_values:
        raise ValueError("need at least one q value")
    # validate everything up front so a bad q fails before any timing
    params_by_q = {q: params_for_q(q, m) for q in q_values}
    samples: list[tuple[int, str, int]] = []
    for q in q_values:
        params = params_by_q[q]
        for method, construct in METHODS.items():
            for repetition in range(1 + repetitions):  # the first is a warm-up
                gc.collect()
                start = time.perf_counter_ns()
                labeling = construct(params)
                elapsed = time.perf_counter_ns() - start
                del labeling
                if repetition:
                    samples.append((q, method, max(elapsed, 1)))
    return samples


def fit(samples: Iterable[tuple[int, str, int]], method: str) -> tuple[float, float, int]:
    """Log-log least-squares fit over the per-q median times of one method.

    Returns (slope, r_squared, q_points). Both figures are NaN below two q
    values; flat times give slope 0.0, and r_squared NaN as nothing varies.
    """
    by_q: dict[int, list[int]] = {}
    for q, name, nanoseconds in samples:
        if name == method:
            by_q.setdefault(q, []).append(nanoseconds)
    xs = [math.log(q) for q in sorted(by_q)]
    ys = [math.log(statistics.median(by_q[q])) for q in sorted(by_q)]
    if len(xs) < 2:
        return math.nan, math.nan, len(xs)
    if len(set(ys)) == 1:
        return 0.0, math.nan, len(xs)
    correlation = statistics.correlation(xs, ys)
    return statistics.linear_regression(xs, ys).slope, correlation * correlation, len(xs)


def bench_csv(samples: Sequence[tuple[int, str, int]]) -> str:
    """Per-sample CSV rows followed by one fit comment line per method."""
    lines = ["q,method,nanoseconds"]
    lines.extend(f"{q},{method},{nanoseconds}" for q, method, nanoseconds in samples)
    for method in METHODS:
        slope, r_squared, q_points = fit(samples, method)
        lines.append(
            f"# method={method} slope={slope:.4f} r_squared={r_squared:.4f}"
            f" q_points={q_points}"
        )
    return "\n".join(lines) + "\n"
