"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
on passing runs too). The sweep covers every even cycle length 4..40 with
every in-range path length up to 200.
"""

import random
from contextlib import contextmanager

import pytest

from bruteforce import brute_force_has_labeling
from oddgraceful import (
    PathTooShortError,
    SearchStatus,
    build_union_graph,
    closed_form_labeling,
    exhaustive_search,
    validate_params,
    verify_odd_graceful,
)
from oddgraceful.bench import fit, run_bench
from oddgraceful.construction import (
    cycle_pass,
    force_params,
    init_markers,
    min_path_length,
    path_pass,
)
from oddgraceful.graphs import build_free_graph
from oddgraceful.verification import (
    DuplicateVertexLabel,
    EdgeLabelEven,
    complement_labeling,
    edge_labels,
)

SWEEP_MS = range(4, 42, 2)
MAX_N = 200


def sweep_domain():
    for m in SWEEP_MS:
        for n in range(min_path_length(m), MAX_N + 1):
            yield m, n


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


@pytest.fixture(scope="session")
def sweep():
    """One pass over the full sweep, shared by criteria 1, 2, and 4."""
    instances = 0
    verify_failures = []
    route_mismatches = []
    marker_failures = []
    for m, n in sweep_domain():
        instances += 1
        params = validate_params(m, n)
        topology = build_union_graph(m, n)
        closed = closed_form_labeling(params)

        report = verify_odd_graceful(topology, closed)
        if not report.is_odd_graceful:
            verify_failures.append((m, n, report.violations))

        markers = init_markers(params)
        cycle_labels, cycle_edges = cycle_pass(params, markers)
        path_labels, path_edges = path_pass(params, markers)
        merged = cycle_labels + path_labels
        closed_edges = edge_labels(topology, closed)
        if merged != closed:
            route_mismatches.append((m, n, "vertex labels"))
        if cycle_edges + path_edges != closed_edges:
            route_mismatches.append((m, n, "edge labels"))

        q = params.q
        if closed[m - 1] != 2 * q - 2 * m + 3:
            marker_failures.append((m, n, "active"))
        if closed_edges[m - 2] != 2 * q - 3 * m + 5:
            marker_failures.append((m, n, "double-jump"))

    return {
        "instances": instances,
        "verify_failures": verify_failures,
        "route_mismatches": route_mismatches,
        "marker_failures": marker_failures,
    }


def test_c1_constructor_validity_sweep(sweep):
    with criterion(1, "constructor validity sweep"):
        assert sweep["instances"] > 3000
        assert sweep["verify_failures"] == []


def test_c2_route_equivalence(sweep):
    with criterion(2, "route equivalence"):
        assert sweep["route_mismatches"] == []


# Printed specializations for the small cycle lengths, transcribed literally.


def printed_cycle_labels(m, q):
    if m == 4:
        return [0, 2 * q - 1, 2, 2 * q - 5]
    if m == 8:
        return [0, 2 * q - 1, 2, 2 * q - 3, 4, 2 * q - 5, 6, 2 * q - 13]
    if m == 10:
        return [0, 2 * q - 1, 2, 2 * q - 3, 4, 2 * q - 5, 6, 2 * q - 7, 8, 2 * q - 17]
    raise ValueError(m)


def printed_path_labels(m, q, n):
    values = []
    for i in range(1, n + 1):
        if m == 4:
            values.append(i if i % 2 else 2 * q - i - 6)
        elif m == 8:
            if i % 2:
                values.append(i)
            elif i == 2:
                values.append(2 * q - 14)
            else:
                values.append(2 * q - i - 14)
        elif m == 10:
            if i in (1, 3):
                values.append(i)
            elif i % 2:
                values.append(i + 2)
            else:
                values.append(2 * q - i - 16)
        else:
            raise ValueError(m)
    return values


def printed_cycle_edge_labels(m, q):
    if m == 4:
        return [2 * q - 1, 2 * q - 3, 2 * q - 7, 2 * q - 5]
    if m == 8:
        return [2 * q - (2 * i - 1) for i in range(1, 7)] + [2 * q - 19, 2 * q - 13]
    if m == 10:
        return [2 * q - (2 * i - 1) for i in range(1, 9)] + [2 * q - 25, 2 * q - 17]
    raise ValueError(m)


def printed_path_edge_labels(m, q, n):
    values = []
    for i in range(1, n):
        if m == 4:
            values.append(2 * q - 2 * i - 7)
        elif m == 8:
            values.append({1: 2 * q - 15, 2: 2 * q - 17}.get(i, 2 * q - 2 * i - 15))
        elif m == 10:
            values.append(
                {1: 2 * q - 19, 2: 2 * q - 21, 3: 2 * q - 23}.get(i, 2 * q - 2 * i - 19)
            )
        else:
            raise ValueError(m)
    return values


def test_c3_theorem_specializations():
    with criterion(3, "specializations for m in {4, 6, 8, 10}"):
        cases = {4: (3, 5, 10), 8: (7, 9, 12), 10: (7, 10, 13)}
        for m, ns in cases.items():
            for n in ns:
                params = validate_params(m, n)
                q = params.q
                topology = build_union_graph(m, n)
                labeling = closed_form_labeling(params)
                general = list(labeling)
                printed = printed_cycle_labels(m, q) + printed_path_labels(m, q, n)
                assert general == printed, (m, n)
                induced = list(edge_labels(topology, labeling))
                expected = printed_cycle_edge_labels(m, q) + printed_path_edge_labels(m, q, n)
                assert induced == expected, (m, n)

        # m = 6: the published even-index path formula (2q - 12 + i) ascends
        # instead of descending. The general rule agrees with it at i = 2 but
        # diverges for i >= 4; only the general rule survives verification.
        for n in (3, 6, 9):
            params = validate_params(6, n)
            q = params.q
            topology = build_union_graph(6, n)
            general = closed_form_labeling(params)
            assert [general[i - 1] for i in range(1, 7)] == [
                0, 2 * q - 1, 2, 2 * q - 3, 4, 2 * q - 9,
            ]
            assert general[6] == 1
            assert general[7] == 2 * q - 10
            for i in range(3, n + 1, 2):
                assert general[6 + i - 1] == i + 2
            assert verify_odd_graceful(topology, general).is_odd_graceful

            published = list(general)
            for i in range(2, n + 1, 2):
                published[6 + i - 1] = 2 * q - 12 + i
            report = verify_odd_graceful(topology, tuple(published))
            if n >= 4:
                assert not report.is_odd_graceful, n
            else:
                # no even index beyond 2 exists, so the formulas coincide
                assert report.is_odd_graceful


def test_c4_marker_claims(sweep):
    with criterion(4, "active vertex and double-jump edge values"):
        assert sweep["marker_failures"] == []


def test_c5_boundary_sharpness():
    with criterion(5, "boundary sharpness at m = 8, 10"):
        for m in (8, 10):
            with pytest.raises(PathTooShortError) as excinfo:
                validate_params(m, 6)
            assert excinfo.value.required == 7

        topology = build_union_graph(10, 6)
        forced = closed_form_labeling(force_params(10, 6))
        report = verify_odd_graceful(topology, forced)
        assert not report.is_odd_graceful
        duplicates = [v for v in report.violations if isinstance(v, DuplicateVertexLabel)]
        assert any(v.label == 8 for v in duplicates)

        passing = build_union_graph(10, 7)
        labeling = closed_form_labeling(validate_params(10, 7))
        assert verify_odd_graceful(passing, labeling).is_odd_graceful


def cycle_only(length):
    return build_free_graph([(i, i + 1) for i in range(1, length)] + [(length, 1)])


def test_c6_oracle_nonexistence_and_existence():
    with criterion(6, "oracle verdicts on small cycles and a union"):
        for length in (3, 5, 7):
            outcome = exhaustive_search(cycle_only(length))
            assert outcome.status is SearchStatus.EXHAUSTED_NONE, length

        for topology in (cycle_only(4), cycle_only(6), build_union_graph(4, 3)):
            outcome = exhaustive_search(topology)
            assert outcome.status is SearchStatus.FOUND
            assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful

        # plain enumeration agrees at the sizes where it is feasible
        for length, expected in ((3, False), (4, True), (5, False)):
            assert brute_force_has_labeling(cycle_only(length)) is expected


def test_c7_oracle_constructor_agreement():
    with criterion(7, "constructor and oracle agree on C4+P3 and C6+P3"):
        for m, n in ((4, 3), (6, 3)):
            topology = build_union_graph(m, n)
            constructed = closed_form_labeling(validate_params(m, n))
            assert verify_odd_graceful(topology, constructed).is_odd_graceful
            outcome = exhaustive_search(topology)
            assert outcome.status is SearchStatus.FOUND
            assert verify_odd_graceful(topology, outcome.labeling).is_odd_graceful


def test_c8_linear_runtime():
    with criterion(8, "construction time scales linearly in q"):
        q_values = [1_000, 10_000, 100_000, 1_000_000]
        samples = run_bench(q_values, repetitions=3, m=8)
        slope, r_squared, _ = fit(samples, "algorithmic")
        print(f"  algorithmic: slope={slope:.4f} r_squared={r_squared:.4f}")
        closed_slope, closed_r_squared, _ = fit(samples, "closed")
        print(f"  closed form: slope={closed_slope:.4f} r_squared={closed_r_squared:.4f}")
        assert 0.85 <= slope <= 1.15
        assert r_squared >= 0.95


def test_c9_verifier_properties():
    with criterion(9, "complement closure and corruption detection"):
        rng = random.Random(20250810)
        domain = [(m, n) for m, n in sweep_domain()]

        for _ in range(1000):
            m, n = rng.choice(domain)
            topology = build_union_graph(m, n)
            labeling = closed_form_labeling(validate_params(m, n))
            assert verify_odd_graceful(topology, labeling).is_odd_graceful
            mirrored = complement_labeling(topology, labeling)
            assert verify_odd_graceful(topology, mirrored).is_odd_graceful

        for _ in range(100):
            m, n = rng.choice(domain)
            topology = build_union_graph(m, n)
            labeling = list(closed_form_labeling(validate_params(m, n)))
            victim, donor = rng.sample(range(len(topology.names)), 2)
            labeling[victim] = labeling[donor]
            report = verify_odd_graceful(topology, tuple(labeling))
            assert not report.is_odd_graceful
            assert any(isinstance(v, DuplicateVertexLabel) for v in report.violations)

        for _ in range(100):
            m, n = rng.choice(domain)
            topology = build_union_graph(m, n)
            labeling = list(closed_form_labeling(validate_params(m, n)))
            victim = rng.choice(range(len(topology.names)))
            # +-1 stays in range and flips the parity of every incident edge
            labeling[victim] += 1 if labeling[victim] < 2 * topology.q - 1 else -1
            report = verify_odd_graceful(topology, tuple(labeling))
            assert not report.is_odd_graceful
            assert any(isinstance(v, EdgeLabelEven) for v in report.violations)
