"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time

import pytest

from kscolor.certificate import (
    Certificate,
    load_bundled_certificate,
    verify_certificate,
)
from kscolor.ffproj import enumerate_projections, reduce_set_mod_p, restricted_ks_search, search_ba_coloring
from kscolor.orthograph import build_graph
from kscolor.solver import (
    cnf_bruteforce_satisfiable,
    export_cnf,
    solve,
    solve_bruteforce,
)
from kscolor.vectors import (
    VectorSet,
    apply_matrix,
    build_Q,
    build_Qn,
    canonicalize,
    enumerate_S,
    is_well_signed,
    norm_sq,
)

from oracles import signed_permutations

EXPECTED_PART_SIZES = (3, 6, 4, 12, 24, 12, 24)


def _report(name, elapsed, limit):
    status = "PASS" if elapsed <= limit else f"SLOW ({elapsed:.1f}s > {limit}s)"
    print(f"{status} {name}: {elapsed:.2f}s")
    assert elapsed <= limit, f"{name} exceeded time budget"


@pytest.fixture(scope="module")
def q_set():
    return build_Q()


@pytest.fixture(scope="module")
def q_graph(q_set):
    return build_graph(q_set)


def test_criterion_1_construction_exactness():
    start = time.perf_counter()
    q = build_Q()
    parts = tuple(len(build_Qn(n)) for n in (1, 2, 3, 6, 21, 33, 77))
    assert len(q) == 85
    assert parts == EXPECTED_PART_SIZES
    _report("criterion 1 (85-vector construction, parts 3/6/4/12/24/12/24)",
            time.perf_counter() - start, 1.0)


def test_criterion_2_main_theorem(q_graph):
    start = time.perf_counter()
    assert not solve(q_graph, wlog=True).satisfiable
    _report("criterion 2a (Q uncolorable, symmetry shortcut)",
            time.perf_counter() - start, 10.0)
    start = time.perf_counter()
    assert not solve(q_graph).satisfiable
    _report("criterion 2b (Q uncolorable, plain search)",
            time.perf_counter() - start, 600.0)


def test_criterion_3_certificate_replay(q_graph):
    start = time.perf_counter()
    cert = load_bundled_certificate()
    assert verify_certificate(q_graph, cert).valid

    # Mutating any single step must flip the verdict: flip every color,
    # corrupt every context, break every witness.
    import dataclasses

    from kscolor.certificate import Contradiction, Propagate, WlogFix

    mutated = 0
    for i, step in enumerate(cert.steps):
        variants = []
        if isinstance(step, WlogFix):
            variants.append(dataclasses.replace(step, color=1 - step.color))
            alt_vertex, g = step.alternatives[0]
            variants.append(
                dataclasses.replace(step, alternatives=((alt_vertex, (g[2], g[1], g[0])),))
            )
        elif isinstance(step, Propagate):
            variants.append(dataclasses.replace(step, color=1 - step.color))
            variants.append(
                dataclasses.replace(step, context=((1, 2, 3),) + step.context[1:])
            )
        else:
            variants.append(Contradiction(vertex=(1, 0, 0)))
        for bad in variants:
            steps = cert.steps[:i] + (bad,) + cert.steps[i + 1 :]
            assert not verify_certificate(q_graph, Certificate(steps)).valid
            mutated += 1
    assert mutated >= len(cert.steps)
    _report(f"criterion 3 (certificate valid; {mutated} single-step mutations invalid)",
            time.perf_counter() - start, 1.0)


def test_criterion_4_superset_uncolorable(q_set):
    start = time.perf_counter()
    s = enumerate_S(462, 8)
    assert set(q_set) <= set(s)
    assert not solve(build_graph(s)).satisfiable
    _report(f"criterion 4 (S(462) slice, {len(s)} vectors, superset of Q, UNSAT)",
            time.perf_counter() - start, 300.0)


def test_criterion_5_colorable_slices():
    start = time.perf_counter()
    for n in (1, 5, 7, 35):
        g = build_graph(enumerate_S(n, 15))
        assert solve(g).satisfiable, f"S({n}) at height 15 should be colorable"
    _report("criterion 5 (S(N) slices colorable for N in {1,5,7,35}, H=15)",
            time.perf_counter() - start, 300.0)


def test_criterion_6_finite_field_corollary():
    start = time.perf_counter()
    verdicts = {}
    for p in (2, 3, 5, 7):
        verdicts[p] = search_ba_coloring(enumerate_projections(p)).satisfiable
    assert verdicts == {2: True, 3: True, 5: False, 7: False}
    _report("criterion 6 (projection algebras: SAT for p=2,3; UNSAT for p=5,7)",
            time.perf_counter() - start, 300.0)


def test_criterion_6_extended_suite():
    start = time.perf_counter()
    for p in (11, 13):
        assert not search_ba_coloring(enumerate_projections(p)).satisfiable
    _report("criterion 6 extended (UNSAT for p=11,13)",
            time.perf_counter() - start, 300.0)


def test_criterion_7_reduction_path(q_set):
    start = time.perf_counter()
    reduced = reduce_set_mod_p(q_set, 5)
    assert not restricted_ks_search(reduced.projections, 5).satisfiable
    _report(f"criterion 7 (Q mod 5 -> {len(reduced.projections)} projections, UNSAT)",
            time.perf_counter() - start, 60.0)


def test_criterion_8_oracle_equivalence(q_set):
    start = time.perf_counter()
    rng = random.Random(462)
    pools = [q_set.vectors, enumerate_S(462, 8).vectors]
    checked = 0
    while checked < 200:
        pool = pools[checked % 2]
        subset = VectorSet.from_iterable(rng.sample(pool, rng.randint(1, 18)))
        g = build_graph(subset)
        verdict = solve(g).satisfiable
        assert solve_bruteforce(g).satisfiable == verdict
        assert cnf_bruteforce_satisfiable(export_cnf(g)) == verdict
        checked += 1
    _report("criterion 8 (200 random subsets: solve == brute force == CNF)",
            time.perf_counter() - start, 600.0)


def test_criterion_9_normalization_properties():
    start = time.perf_counter()
    rng = random.Random(85)
    mats = signed_permutations()
    for _ in range(10_000):
        v = (rng.randint(-100, 100), rng.randint(-100, 100), rng.randint(-100, 100))
        if v == (0, 0, 0):
            continue
        w = canonicalize(v)
        assert canonicalize(w) == w
        neg = (-v[0], -v[1], -v[2])
        assert is_well_signed(v) != is_well_signed(neg)
        for g in mats:
            assert norm_sq(apply_matrix(g, v)) == norm_sq(v)
    _report("criterion 9 (10,000 random vectors: normalization laws)",
            time.perf_counter() - start, 10.0)
