import random
import time
from itertools import product

import pytest

from kscolor import ffproj, orthograph, vectors
from kscolor.ffproj import (
    IDENTITY,
    ZERO,
    ProjAlgebra,
    enumerate_projections,
    format_projections,
    parse_projections,
    project_mod_p,
    reduce_set_mod_p,
    restricted_ks_search,
    search_ba_coloring,
)
from kscolor.orthograph import build_graph
from kscolor.solver import SolveStats, solve_cnf
from kscolor.vectors import MILLER_RABIN_BOUND, build_Q, build_Qn, is_prime, norm_sq

# ---------------------------------------------------------------------------
# Matrix oracles: 3x3 matrices over F_p, row-major, by plain arithmetic.
# They are independent of the package's route through lines mod p.


def mat_mul(a, b, p):
    return tuple(
        sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) % p
        for i in range(3)
        for j in range(3)
    )


def mat_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def mat_sub(a, b, p):
    return tuple((x - y) % p for x, y in zip(a, b))


def mat_rank(a, p):
    rows = [list(a[0:3]), list(a[3:6]), list(a[6:9])]
    rank = 0
    col = 0
    while col < 3 and rank < 3:
        pivot = next((r for r in range(rank, 3) if rows[r][col] % p != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(3):
            if r != rank and rows[r][col] % p != 0:
                factor = rows[r][col]
                rows[r] = [(x - factor * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def is_projection(a, p):
    symmetric = a[1] == a[3] and a[2] == a[6] and a[5] == a[7]
    return symmetric and mat_mul(a, a, p) == a


def commute(a, b, p):
    return mat_mul(a, b, p) == mat_mul(b, a, p)


def scan_projections(p):
    """Every symmetric idempotent, by scanning all p^6 symmetric matrices."""
    found = []
    for a, b, c, d, e, f in product(range(p), repeat=6):
        m = (a, d, e, d, b, f, e, f, c)
        if mat_mul(m, m, p) == m:
            found.append(m)
    return tuple(sorted(found))


def clause_encoding(algebra):
    """Two-valued homomorphism laws as CNF: 0 -> 0, I -> 1, and for every
    commuting pair the meet maps to the product and the join to the Boolean
    sum of the images (which subsumes the complement law via (e, I - e))."""
    p = algebra.p
    projs = algebra.projections
    index = {m: i for i, m in enumerate(projs)}
    clauses = {(-(index[ZERO] + 1),), (index[IDENTITY] + 1,)}
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            a, b = projs[i], projs[j]
            ab = mat_mul(a, b, p)
            if ab != mat_mul(b, a, p):
                continue
            vi, vj = i + 1, j + 1
            vg = index[ab] + 1
            vh = index[mat_sub(mat_add(a, b, p), ab, p)] + 1
            clauses.add(tuple(sorted((-vg, vi))))
            clauses.add(tuple(sorted((-vg, vj))))
            clauses.add(tuple(sorted((vg, -vi, -vj))))
            clauses.add(tuple(sorted((vh, -vi))))
            clauses.add(tuple(sorted((vh, -vj))))
            clauses.add(tuple(sorted((-vh, vi, vj))))
    return len(projs), sorted(clauses)


# Total projection counts, first derived from the exhaustive symmetric-matrix
# scan and cross-checked against the non-isotropic line count below.
PROJ_COUNTS = {2: 10, 3: 20, 5: 52, 7: 100}


def _nonisotropic_line_count(p):
    """Independent oracle: lines of F_p^3 with nonzero self-inner-product."""
    lines = set()
    for v in product(range(p), repeat=3):
        if v == (0, 0, 0):
            continue
        if (v[0] ** 2 + v[1] ** 2 + v[2] ** 2) % p == 0:
            continue
        line = frozenset(
            tuple((s * x) % p for x in v) for s in range(1, p)
        )
        lines.add(line)
    return len(lines)


@pytest.fixture(scope="module")
def algebras():
    return {p: enumerate_projections(p) for p in (2, 3, 5, 7)}


def test_enumeration_contains_diagonals(algebras):
    a2 = algebras[2]
    diag100 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
    for m in (ZERO, IDENTITY, diag100):
        assert m in a2.projections


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projection_counts(algebras, p):
    assert len(algebras[p]) == PROJ_COUNTS[p]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_enumeration_matches_exhaustive_scan(algebras, p):
    assert algebras[p].projections == scan_projections(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank1_count_matches_line_count(algebras, p):
    ranks = algebras[p].rank_counts()
    oracle: dict[int, int] = {}
    for m in algebras[p].projections:
        oracle[mat_rank(m, p)] = oracle.get(mat_rank(m, p), 0) + 1
    assert ranks == oracle
    lines = _nonisotropic_line_count(p)
    assert ranks.get(1, 0) == lines
    # rank 2 elements are the complements of rank 1 elements
    assert ranks.get(2, 0) == lines
    assert ranks.get(0) == 1 and ranks.get(3) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_all_are_projections_and_complement_closed(algebras, p):
    a = algebras[p]
    members = set(a.projections)
    for e in a.projections:
        assert is_projection(e, p)
        comp = mat_sub(IDENTITY, e, p)
        assert comp in members
        assert mat_mul(e, comp, p) == ZERO


def test_is_prime_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 5000) if is_prime(n)] == [
        n for n in range(-3, 5000) if trial_division(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the bases 2 .. 31
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_is_prime_large_prime_is_fast():
    start = time.perf_counter()
    assert is_prime(10**15 + 37)
    assert time.perf_counter() - start < 1.0


def test_is_prime_refuses_beyond_its_bound():
    assert not is_prime(MILLER_RABIN_BOUND - 1)  # divisible by 5
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(10**25 + 13)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_projections(4)
    with pytest.raises(ValueError):
        enumerate_projections(103)


#: Each entry point that takes a modulus, called with a valid input otherwise.
TAKES_A_MODULUS = {
    "build_graph": lambda p: build_graph(build_Qn(1), p),
    "project_mod_p": lambda p: project_mod_p((1, 0, 0), p),
    "enumerate_projections": enumerate_projections,
    "reduce_set_mod_p": lambda p: reduce_set_mod_p(build_Qn(1), p),
    "restricted_ks_search": lambda p: restricted_ks_search([(1, 0, 0, 0, 0, 0, 0, 0, 0)], p),
}


@pytest.mark.parametrize("entry", sorted(TAKES_A_MODULUS))
@pytest.mark.parametrize("p", [-5, 0, 1, 4, 9, 25])
def test_entry_points_refuse_a_modulus_that_is_not_prime(entry, p):
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        TAKES_A_MODULUS[entry](p)


@pytest.fixture
def prime_tests(monkeypatch):
    """The arguments of every is_prime call, wherever a module holds it."""
    calls = []
    real = vectors.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    for mod in (vectors, orthograph):
        monkeypatch.setattr(mod, "is_prime", counting)
    return calls


def test_reduction_tests_the_prime_once_per_entry_point(prime_tests):
    # reduce_set_mod_p, restricted_ks_search and build_graph: 3 vectors or 85
    counts = []
    for s in (build_Qn(1), build_Q()):
        prime_tests.clear()
        restricted_ks_search(reduce_set_mod_p(s, 13).projections, 13)
        counts.append(len(prime_tests))
    assert counts == [3, 3]


def test_enumeration_tests_the_prime_once(prime_tests):
    counts = []
    for p in (5, 13):
        prime_tests.clear()
        enumerate_projections(p).rank_counts()
        counts.append(len(prime_tests))
    assert counts == [1, 1]


def _check_homomorphism(a: ProjAlgebra, model):
    p = a.p
    index = {m: i for i, m in enumerate(a.projections)}
    assert model[index[ZERO]] == 0 and model[index[IDENTITY]] == 1
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            e, f = a.projections[i], a.projections[j]
            if not commute(e, f, p):
                continue
            meet = mat_mul(e, f, p)
            join = tuple((e[k] + f[k] - meet[k]) % p for k in range(9))
            assert model[index[meet]] == model[i] * model[j]
            assert model[index[join]] == model[i] + model[j] - model[i] * model[j]


@pytest.mark.parametrize("p", [2, 3])
def test_ba_coloring_exists_for_small_primes(algebras, p):
    result = search_ba_coloring(algebras[p])
    assert result.satisfiable
    _check_homomorphism(algebras[p], result.coloring)


def test_ba_coloring_absent_mod_five(algebras):
    assert not search_ba_coloring(algebras[5]).satisfiable


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_ba_coloring_matches_clause_oracle(algebras, p):
    algebra = algebras[p] if p in algebras else enumerate_projections(p)
    model = solve_cnf(*clause_encoding(algebra))
    result = search_ba_coloring(algebra)
    assert result.satisfiable == (model is not None)
    if result.satisfiable:
        _check_homomorphism(algebra, result.coloring)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_algebra_path_keeps_its_lines(monkeypatch, p):
    # the algebra is built from its lines; only outside input is mapped back
    def refuse(m, p):
        raise AssertionError("the algebra path mapped a matrix back to its line")

    monkeypatch.setattr(ffproj, "_line_of", refuse)
    algebra = enumerate_projections(p)
    assert algebra.rank_counts() == {0: 1, 1: p * p, 2: p * p, 3: 1}
    result = search_ba_coloring(algebra)
    assert result.satisfiable == (p < 5)
    if result.satisfiable:
        _check_homomorphism(algebra, result.coloring)


def test_ba_coloring_reports_search_stats(algebras):
    stats = search_ba_coloring(algebras[5]).stats
    assert stats.nodes > 0 and stats.propagations > 0


def test_project_mod_p_diag():
    for p in (2, 3, 5, 7, 11):
        assert project_mod_p((1, 0, 0), p) == (1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_project_mod_p_example():
    # q(-3,8,2) = 77 = 2 mod 5, inverse 3
    v = (-3, 8, 2)
    expected = tuple((3 * v[i] * v[j]) % 5 for i in range(3) for j in range(3))
    m = project_mod_p(v, 5)
    assert m == expected
    assert is_projection(m, 5)
    assert mat_rank(m, 5) == 1
    assert sum(m[i * 4] for i in range(3)) % 5 == 1  # trace of a rank-1 projection


def test_project_mod_p_rejects_divisible_norm():
    with pytest.raises(ValueError):
        project_mod_p((1, 1, 0), 2)
    with pytest.raises(ValueError):
        project_mod_p((1, 0, 0), 4)


def test_orthogonal_vectors_give_orthogonal_projections():
    rng = random.Random(3)
    q = build_Q().vectors
    pairs_checked = 0
    while pairs_checked < 50:
        u, v = rng.sample(q, 2)
        if (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) != 0:
            continue
        for p in (5, 13):
            if norm_sq(u) % p == 0 or norm_sq(v) % p == 0:
                continue
            pu, pv = project_mod_p(u, p), project_mod_p(v, p)
            assert mat_mul(pu, pv, p) == ZERO
            assert mat_mul(pv, pu, p) == ZERO
        pairs_checked += 1


def test_reduce_basis_mod_seven():
    reduced = reduce_set_mod_p(build_Qn(1), 7)
    assert set(reduced.projections) == {
        (1, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 1),
    }
    assert not reduced.collided


def test_reduce_Q_mod_five_collides():
    reduced = reduce_set_mod_p(build_Q(), 5)
    # 85 vectors land on the 25 non-isotropic lines of F_5
    assert len(reduced.projections) == 25
    assert reduced.collided


def test_reduce_Q_mod_seven_rejected():
    with pytest.raises(ValueError, match="7 divides"):
        reduce_set_mod_p(build_Q(), 7)


def test_restricted_search_Q_mod_five_unsat():
    reduced = reduce_set_mod_p(build_Q(), 5)
    assert not restricted_ks_search(reduced.projections, 5).satisfiable


# The paper's set mod p: the search's (nodes, propagations, max depth).
@pytest.mark.parametrize("p, stats", [(5, SolveStats(10, 97, 2)), (13, SolveStats(12, 202, 4))])
def test_restricted_search_stats_of_Q_mod_p(p, stats):
    result = restricted_ks_search(reduce_set_mod_p(build_Q(), p).projections, p)
    assert (result.satisfiable, result.stats) == (False, stats)


def test_reduction_mod_a_large_prime_tests_primality_once():
    # |u.v| <= 77 < p on Q, so orthogonality mod p is orthogonality over Z
    p = 1000000000039
    start = time.perf_counter()
    reduced = reduce_set_mod_p(build_Q(), p)
    result = restricted_ks_search(reduced.projections, p)
    elapsed = time.perf_counter() - start
    assert len(reduced.projections) == 85 and not reduced.collided
    assert not result.satisfiable
    assert elapsed < 5.0, f"{elapsed:.1f} s"


def test_restricted_search_basis_mod_eleven_sat():
    reduced = reduce_set_mod_p(build_Qn(1), 11)
    result = restricted_ks_search(reduced.projections, 11)
    assert result.satisfiable
    assert sum(result.coloring) == 1


def test_restricted_search_empty():
    assert restricted_ks_search([], 5).satisfiable


@pytest.mark.parametrize("p", [None, 4])
def test_restricted_search_checks_the_prime_of_an_empty_family(p):
    with pytest.raises(ValueError):
        restricted_ks_search([], p)


def test_restricted_search_colors_each_input():
    # the coloring follows the input order, duplicates included
    reduced = reduce_set_mod_p(build_Qn(1), 11)
    projs = list(reversed(reduced.projections)) + [reduced.projections[0]]
    result = restricted_ks_search(projs, 11)
    assert result.satisfiable and sum(result.coloring[:3]) == 1
    assert result.coloring[3] == result.coloring[2]


def test_restricted_search_rejects_non_rank1():
    with pytest.raises(ValueError):
        restricted_ks_search([IDENTITY], 5)
    e = project_mod_p((1, 1, 0), 5)
    for m in (ZERO, mat_sub(IDENTITY, e, 5), (2, 0, 0, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="not a rank-1 projection"):
            restricted_ks_search([e, m], 5)


def test_ba_coloring_restricts_to_rank1_coloring(algebras):
    # a homomorphism of the full algebra stays consistent on any rank-1 family
    for p in (2, 3):
        a = algebras[p]
        result = search_ba_coloring(a)
        rank1 = [m for m in a.projections if mat_rank(m, p) == 1]
        index = {m: i for i, m in enumerate(a.projections)}
        sub_coloring = [result.coloring[index[m]] for m in rank1]
        for i in range(len(rank1)):
            for j in range(i + 1, len(rank1)):
                if mat_mul(rank1[i], rank1[j], p) == ZERO:
                    assert sub_coloring[i] + sub_coloring[j] <= 1


def test_bezout_check():
    assert 31 * 5 - 2 * 77 == 1
    assert (-2 * 77) % 5 == 1  # the 5I term vanishes mod 5


def test_projection_file_round_trip(algebras):
    a = algebras[3]
    text = format_projections(3, a.projections)
    p, mats = parse_projections(text)
    assert p == 3 and mats == a.projections
    with pytest.raises(ValueError):
        parse_projections("1 2 3\n")
    with pytest.raises(ValueError, match=r"^line 2: expected header 'p <prime>'$"):
        parse_projections("# projections\np x\n")
    with pytest.raises(ValueError, match=r"^line 2: expected nine integers$"):
        parse_projections("p 3\n1 0 0 0 0 0 0 0 y\n")


@pytest.mark.parametrize("header, message", [
    ("p 4", "4 is not prime"),
    ("p 1", "1 is not prime"),
    ("p -5", "-5 is not prime"),
    ("p 10000000000000000000000013", "cannot decide whether 10000000000000000000000013 is prime"),
])
def test_projection_file_refuses_a_modulus_that_is_not_prime(header, message):
    with pytest.raises(ValueError, match=rf"^line 2: {message}"):
        parse_projections(f"# projections\n{header}\n1 0 0 0 0 0 0 0 0\n")


def test_projection_file_tests_its_prime_once(prime_tests):
    text = format_projections(5, enumerate_projections(5).projections)
    prime_tests.clear()
    p, mats = parse_projections(text)
    assert p == 5 and len(mats) == 52
    assert prime_tests == [5]
