"""Timing harness for the construction routines.

Both construction routes do constant work per vertex, so construction time
should scale linearly with the edge count q. The harness times bare
construction calls (no topology building, no I/O), discards one warm-up
repetition, and reports a least-squares fit of log(time) against log(q)
over the per-q median times: a slope near 1 means linear scaling. Per-sample
rows are still emitted so any other fit can be recomputed from the CSV.
"""

from __future__ import annotations

import enum
import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .construction import (
    ConstructionParams,
    algorithmic_labeling,
    closed_form_labeling,
    min_path_length,
    validate_params,
)
from .errors import PathTooShortError


class Method(enum.Enum):
    CLOSED_FORM = "closed"
    ALGORITHMIC = "algorithmic"

    def construct(self, params: ConstructionParams):
        if self is Method.CLOSED_FORM:
            return closed_form_labeling(params)
        return algorithmic_labeling(params)


@dataclass(frozen=True)
class BenchSample:
    q: int
    method: Method
    construction_time_ns: int

    def __post_init__(self):
        if self.q < 3:
            raise ValueError(f"q must be at least 3, got {self.q}")
        if self.construction_time_ns <= 0:
            raise ValueError("construction_time_ns must be positive")


@dataclass(frozen=True)
class BenchSummary:
    method: Method
    slope: float
    r_squared: float
    q_points: int


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
) -> tuple[list[BenchSample], list[BenchSummary]]:
    """Time both construction methods at each q; returns samples and fits."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be at least 1, got {repetitions}")
    if not q_values:
        raise ValueError("need at least one q value")
    # validate everything up front so a bad q fails before any timing
    params_by_q = {q: params_for_q(q, m) for q in q_values}
    samples: list[BenchSample] = []
    for q in q_values:
        params = params_by_q[q]
        for method in Method:
            for repetition in range(1 + repetitions):  # the first is a warm-up
                gc.collect()
                start = time.perf_counter_ns()
                labeling = method.construct(params)
                elapsed = time.perf_counter_ns() - start
                del labeling
                if repetition:
                    samples.append(
                        BenchSample(
                            q=q, method=method, construction_time_ns=max(elapsed, 1)
                        )
                    )
    summaries = [summarize(samples, method) for method in Method]
    return samples, summaries


def summarize(samples: Iterable[BenchSample], method: Method) -> BenchSummary:
    """Log-log least-squares fit over the per-q median times of one method."""
    by_q: dict[int, list[int]] = {}
    for sample in samples:
        if sample.method is method:
            by_q.setdefault(sample.q, []).append(sample.construction_time_ns)
    points = [(q, statistics.median(times)) for q, times in sorted(by_q.items())]
    if len(points) < 2:
        return BenchSummary(
            method=method, slope=float("nan"), r_squared=float("nan"), q_points=len(points)
        )
    xs = [math.log(q) for q, _ in points]
    ys = [math.log(t) for _, t in points]
    fit = statistics.linear_regression(xs, ys)
    correlation = statistics.correlation(xs, ys)
    return BenchSummary(
        method=method,
        slope=fit.slope,
        r_squared=correlation * correlation,
        q_points=len(points),
    )


def bench_csv(samples: Iterable[BenchSample], summaries: Iterable[BenchSummary]) -> str:
    """Per-sample CSV rows followed by one summary comment line per method."""
    lines = ["q,method,nanoseconds"]
    lines.extend(
        f"{s.q},{s.method.value},{s.construction_time_ns}" for s in samples
    )
    lines.extend(
        f"# method={s.method.value} slope={s.slope:.4f} r_squared={s.r_squared:.4f}"
        f" q_points={s.q_points}"
        for s in summaries
    )
    return "\n".join(lines) + "\n"
