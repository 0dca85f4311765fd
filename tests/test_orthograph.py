import gc
import hashlib
import os
import random
import resource
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from functools import partial
from itertools import combinations, product
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import kscolor
from kscolor import orthograph
from kscolor.orthograph import (
    MASK_BYTES_LIMIT,
    GraphStats,
    _sieve_primes,
    build_graph,
    graph_stats,
    to_dot,
)
from kscolor.vectors import (
    VectorSet,
    apply_matrix,
    build_Q,
    build_Qn,
    canonicalize,
    enumerate_S,
    norm_sq,
)

from oracles import dot, primes_past, signed_permutations

# Regression constants for the 85-vector set, first derived with the cubic
# oracle below.
Q_EDGES = 180
Q_TRIPLES = 40
Q_BARE_EDGES = 60


def _oracle(vecs, p=None):
    """Exhaustive pairwise/triple dot-product scan, over Z or mod p."""

    def orth(u, v):
        return dot(u, v) % p == 0 if p else dot(u, v) == 0

    edges = {
        (i, j)
        for i, j in combinations(range(len(vecs)), 2)
        if orth(vecs[i], vecs[j])
    }
    triples = {
        (i, j, k)
        for i, j, k in combinations(range(len(vecs)), 3)
        if orth(vecs[i], vecs[j]) and orth(vecs[i], vecs[k]) and orth(vecs[j], vecs[k])
    }
    return edges, triples


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _line_family(p):
    """The non-isotropic lines of F_p^3, first nonzero entry 1."""
    return VectorSet(tuple(
        v
        for v in product(range(p), repeat=3)
        if v != (0, 0, 0) and next(x for x in v if x) == 1 and dot(v, v) % p
    ))


def test_basis_triple_graph():
    g = build_graph(build_Qn(1))
    assert len(g.edges) == 3
    assert g.triples == ((0, 1, 2),)
    assert graph_stats(g) == GraphStats(3, 3, 1, 0)


def test_empty_graph():
    g = build_graph(VectorSet(()))
    assert graph_stats(g) == GraphStats(0, 0, 0, 0)


def test_build_graph_refuses_masks_beyond_the_limit_before_any_work():
    # stand-ins holding n entries and no vectors: the guard reads only their
    # length, and a stand-in it lets through fails at its first vector
    with pytest.raises(ValueError) as exc:
        build_graph(SimpleNamespace(vectors=range(92_682)))
    assert str(exc.value) == ("a graph of 92682 vertices needs about 512 MiB of masks, "
                              "beyond the 512 MiB limit")
    with pytest.raises(TypeError):
        build_graph(SimpleNamespace(vectors=range(92_681)))
    with pytest.raises(ValueError, match="a graph of 10000000 vertices "):
        build_graph(SimpleNamespace(vectors=range(10**7)), 5)


def test_the_largest_measured_slice_passes_the_mask_limit():
    # S(30030)|H=100 built in 5.2 s with a 749 MB peak on a 2-vCPU host
    n = len(enumerate_S(30030, 100))
    assert n == 75_337 and n * n // 16 <= MASK_BYTES_LIMIT


def test_build_peak_is_below_twice_the_mask_estimate():
    # MASK_BYTES_LIMIT's check takes the masks as n^2/16 bytes; n-bit masks
    # take n^2/8 on their own (a traced peak of 2.2 times n^2/16 here)
    s = enumerate_S(6006, 40)
    n = len(s)
    gc.collect()
    tracemalloc.start()
    try:
        build_graph(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 8089 and peak < n * n // 8


def test_no_orthogonality():
    g = build_graph(VectorSet.from_iterable([(1, 0, 0), (1, 1, 0)]))
    assert g.edges == () and g.triples == ()


def test_Q_graph_matches_oracle_and_regression_constants():
    g = build_graph(build_Q())
    edges, triples = _oracle(g.vectors)
    assert set(g.edges) == edges
    assert set(g.triples) == triples
    st = graph_stats(g)
    assert st == GraphStats(85, Q_EDGES, Q_TRIPLES, Q_BARE_EDGES)


@pytest.mark.parametrize("n_divisor,height", [(2, 2), (6, 3), (30, 2)])
def test_slices_match_oracle(n_divisor, height):
    g = build_graph(enumerate_S(n_divisor, height))
    edges, triples = _oracle(g.vectors)
    assert set(g.edges) == edges
    assert set(g.triples) == triples


entry = st.integers(-10**6, 10**6)
nonzero_vec = st.tuples(entry, entry, entry).filter(lambda v: v != (0, 0, 0))


@settings(deadline=None)
@given(st.lists(st.tuples(nonzero_vec, nonzero_vec), min_size=1, max_size=10))
def test_random_sets_match_oracle(pairs):
    # u, w, c = u x w and u x c: c is orthogonal to u and w, and u, c, u x c
    # are mutually orthogonal, so the sets have edges and triples
    vecs = set()
    for u, w in pairs:
        c = _cross(u, w)
        vecs.update([u, w] if c == (0, 0, 0) else [u, w, c, _cross(u, c)])
    g = build_graph(VectorSet.from_iterable(vecs))
    edges, triples = _oracle(g.vectors)
    assert list(g.edges) == sorted(edges)
    assert list(g.triples) == sorted(triples)


def test_unreduced_slice_mod_p_matches_oracle():
    s = enumerate_S(462, 3)
    g = build_graph(s, 5)
    edges, triples = _oracle(s.vectors, 5)
    assert edges and triples
    assert list(g.edges) == sorted(edges)
    assert list(g.triples) == sorted(triples)


def test_Q_mod_a_large_prime_matches_oracle():
    # p + 1 is far above the 85 lines that occur, which are tested
    # against each other instead of listing the lines orthogonal to each
    p = 1000000000039
    g = build_graph(build_Q(), p)
    edges, triples = _oracle(g.vectors, p)
    assert list(g.edges) == sorted(edges)
    assert list(g.triples) == sorted(triples)
    assert graph_stats(g) == GraphStats(85, Q_EDGES, Q_TRIPLES, Q_BARE_EDGES)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_F_p_build_scales_with_the_lines_that_occur_not_with_p():
    # A table of p^2 + p + 1 lines, or one walk over the p + 1 lines of a
    # perp, cannot finish for this p.  The build runs in a child under a
    # deadline and a 1 GiB address space, so such a table fails this test
    # fast instead of hanging the suite or filling memory.
    code = ("from kscolor.orthograph import build_graph; from kscolor.vectors import build_Q; "
            "print(len(build_graph(build_Q(), 1000000000039).edges))")
    env = {**os.environ, "PYTHONPATH": str(Path(kscolor.__file__).resolve().parent.parent)}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                           timeout=10, preexec_fn=_cap_address_space)
    assert (child.returncode, child.stdout) == (0, f"{Q_EDGES}\n"), child.stderr


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# the isotropic residue triples (v.v = 0 mod p) of each small prime
ISOTROPIC = {
    p: [v for v in product(range(p), repeat=3) if v != (0, 0, 0) and dot(v, v) % p == 0]
    for p in SMALL_PRIMES
}
small = st.integers(-20, 20)


@st.composite
def unreduced_sets(draw):
    """A prime p and integer vectors on a few lines mod p, at least one of
    them isotropic, each line holding at least two vertices."""
    p = draw(st.sampled_from(SMALL_PRIMES))
    bases = draw(st.lists(st.tuples(small, small, small), max_size=4))
    bases += draw(st.lists(st.sampled_from(ISOTROPIC[p]), min_size=1, max_size=3))
    vecs = []
    for u in bases:
        if all(x % p == 0 for x in u):
            continue
        # k u + p w lies on the line of u mod p; u is parallel to at most
        # one of the axes w = e2, e3, so two of these are distinct lines over Z
        extra = draw(st.lists(st.tuples(st.integers(1, p - 1), st.tuples(small, small, small)),
                              max_size=2))
        for k, w in [(1, (0, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))] + extra:
            vecs.append(tuple(k * x + p * y for x, y in zip(u, w)))
    return p, vecs


@settings(deadline=None)
@given(unreduced_sets())
def test_unreduced_sets_mod_small_primes_match_oracle(case):
    p, vecs = case
    s = VectorSet.from_iterable(vecs)
    n = len(s)
    assert any(dot(v, v) % p == 0 for v in s.vectors)
    assert any(all(x % p == 0 for x in _cross(s.vectors[i], s.vectors[j]))
               for i, j in combinations(range(n), 2))  # two vertices on one line
    g = build_graph(s, p)
    edges, triples = _oracle(s.vectors, p)
    assert list(g.edges) == sorted(edges)
    assert list(g.triples) == sorted(triples)


def test_slice_graph_matches_pair_scan():
    # the triples (i, j, k) are the edges (i, j) whose canonical cross
    # product is a vertex k > j
    s = enumerate_S(462, 16)
    vecs = s.vectors
    assert len(vecs) == 1081
    g = build_graph(s)
    edges = [
        (i, j)
        for i, j in combinations(range(len(vecs)), 2)
        if dot(vecs[i], vecs[j]) == 0
    ]
    index = {v: k for k, v in enumerate(vecs)}
    triples = []
    for i, j in edges:
        k = index.get(canonicalize(_cross(vecs[i], vecs[j])))
        if k is not None and k > j:
            triples.append((i, j, k))
    assert list(g.edges) == edges
    assert list(g.triples) == sorted(triples)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_graph_mod_p_matches_oracle(p):
    family = _line_family(p)
    lines = family.vectors
    g = build_graph(family, p)
    n = len(lines)
    orth = {
        (i, j) for i, j in combinations(range(n), 2) if dot(lines[i], lines[j]) % p == 0
    }
    assert set(g.edges) == orth and list(g.edges) == sorted(orth)
    assert list(g.triples) == sorted(
        (i, j, k)
        for i, j, k in combinations(range(n), 3)
        if {(i, j), (i, k), (j, k)} <= orth
    )
    # every orthogonal pair of non-isotropic lines completes to a triple
    assert graph_stats(g).bare_edges == 0 and 3 * len(g.triples) == len(g.edges)


# sha256 of repr((edges, triples)), taken while the triples were still
# found by intersecting Python sets: pins both lists and their order.
GRAPH_PINS = [
    pytest.param(partial(enumerate_S, 462, 8), None,
                 "76c71baebd1f33411d2e97d00e3903fcce5da380d6a0244b015d615236409ee7", id="S(462)|H=8"),
    pytest.param(partial(enumerate_S, 462, 16), None,
                 "7858f4368fcd69f4ff70a52a988d794c5c5d32eb44429fb3a373cb6678133a1b", id="S(462)|H=16"),
    pytest.param(partial(enumerate_S, 462, 24), None,
                 "3b35636ee5471f3e052410d77faaeec274e4676216bcee390afecee3495987a9", id="S(462)|H=24"),
    pytest.param(partial(enumerate_S, 35, 30), None,
                 "4c68dad4056e3003f1833cfd8747ed02552624aab46d38f609ffaa197e378d52", id="S(35)|H=30"),
    pytest.param(partial(enumerate_S, 35, 50), None,
                 "8ff6ee11cb0d65af6e86dce1fedb994e9370de5b5b1b935b55bd24f22d3609e2", id="S(35)|H=50"),
    pytest.param(partial(enumerate_S, 455, 30), None,
                 "0b773b51d872e3a7cfef0fac76560f7601d7503a7da36a56e3ffa28e6aebc8af", id="S(455)|H=30"),
    pytest.param(partial(enumerate_S, 455, 10), None,
                 "9fbb708a3aa8c1454a5910d8d557122b504ad023edd1d6019fcdc3c343f4cd44", id="S(455)|H=10"),
    pytest.param(build_Q, None,
                 "178e1405e0a63c783254102eda1cbf7792b6675492d3a5bc406a44c068ae1145", id="Q"),
    pytest.param(partial(_line_family, 31), 31,
                 "74fdc5eb78f6f7cd657383a4f2517eca67a281b9aee3a6e1aea5c3c0b5826687", id="F_31"),
    pytest.param(partial(_line_family, 61), 61,
                 "965551339ef8e983c2872391df6371029cc0a60f68c95d7d1013d75216846a8b", id="F_61"),
    pytest.param(partial(_line_family, 101), 101,
                 "e10b95d5eac8e7a37f4f07b23682f7696d068f8ae79f2d85b91d50e0ef4427ff", id="F_101"),
    pytest.param(partial(enumerate_S, 462, 3), 5,
                 "a1c5ca4e29a90689b3346ecab89a25f38f65eded4cf02c5b2a82d46f5acc296f", id="S(462)|H=3 mod 5"),
    pytest.param(build_Q, 1000000000039,
                 "178e1405e0a63c783254102eda1cbf7792b6675492d3a5bc406a44c068ae1145",
                 id="Q mod 1000000000039"),
]


@pytest.mark.parametrize("build_set, p, sha", GRAPH_PINS)
def test_graph_pinned(build_set, p, sha):
    g = build_graph(build_set(), p)
    assert hashlib.sha256(repr((g.edges, g.triples)).encode()).hexdigest() == sha


def _recording_sieve(monkeypatch):
    """The primes `orthograph._sieve` is called with from now on, in order."""
    sieve, sieved = orthograph._sieve, []

    def recording_sieve(vecs, q):
        sieved.append(q)
        return sieve(vecs, q)

    monkeypatch.setattr(orthograph, "_sieve", recording_sieve)
    return sieved


# Pairs whose dot product is nonzero but divisible by a run of primes with
# product at most the largest norm M, so a sieve through that run calls them
# orthogonal.  The first four are divisible by the smallest primes as far as
# the last one a run from 2 needs: 30030 = 2*3*5*7*11*13 with
# M = 30030^2 + 1 needs primes to 29, 30030 with M = 89234 needs 17,
# 223092870 = 2*3*...*23 with M = 543462974 needs 29, and 2310 = 2*3*5*7*11
# with norms 2313 and 2309 needs 13.  Alone, two vertices cost the same pass
# mod every prime, so they sieve through the one prime above M.  The last
# pair, found by a search over entries up to 9, joins Q: dot product 60 and
# norms 59 and 62, below Q's M = 77, so the run the set takes, 3, 5, 7, is
# one prime past 3 * 5, which divides 60; a run one prime short of it calls
# them orthogonal.
@pytest.mark.parametrize("u, v, others", [
    pytest.param((1, 0, 0), (30030, 1, 0), (), id="u0-v0"),
    pytest.param((101, 1, 1), (297, 32, 1), (), id="u1-v1"),
    pytest.param((10007, 1, 1), (22293, 6818, 1), (), id="u2-v2"),
    pytest.param((8, 32, 35), (8, 33, 34), (), id="u3-v3"),
    pytest.param((1, 3, 7), (2, 3, 7), build_Q().vectors, id="next to Q"),
])
def test_sieve_is_exact_where_small_primes_are_not(u, v, others, monkeypatch):
    assert dot(u, v) in (60, 2310, 30030, 223092870)
    s = VectorSet.from_iterable([u, v, *others])
    sieved = _recording_sieve(monkeypatch)
    g = build_graph(s)
    assert dot(u, v) % prod(sieved[:-1]) == 0
    assert prod(sieved) > max(map(norm_sq, s.vectors))
    i, j = sorted([s.vectors.index(u), s.vectors.index(v)])
    assert (i, j) not in g.edges
    assert set(g.edges) == _oracle(s.vectors)[0]


def test_norms_past_what_is_prime_decides_still_sieve_exactly(monkeypatch):
    # M = 10^26 + 1 is past half of MILLER_RABIN_BOUND, so no prime above it
    # is sought, and the three vertices, whose passes all cost the same, take
    # the run from 2 that passes M
    u, v, w = (1, 0, 10**13), (1, 10**13, 0), (0, 1, 0)
    s = VectorSet.from_iterable([u, v, w])
    sieved = _recording_sieve(monkeypatch)
    g = build_graph(s)
    run, product = [], 1
    for q in primes_past(100):
        if product > 10**26 + 1:
            break
        run.append(q)
        product *= q
    assert sieved == run
    edges, triples = _oracle(s.vectors)
    assert list(g.edges) == sorted(edges) and len(edges) == 1 and g.triples == ()


# The primes each set is sieved through: of the runs of consecutive primes
# whose product passes the set's largest norm M, the one whose passes
# `_pass_cost` estimates to cost least.  S(462)|H=24 (2173 vertices,
# M = 1458) takes 11, 13, 17: three passes over its vertices and 9 684 perp
# visits, estimated at 29 241 visits in all, against five passes and 2 311
# visits, 34 906, for 2, 3, 5, 7, 11.  S(462)|H=8 and S(35)|H=30 (445 and
# 483 vertices) keep the smallest primes: there a pass saved costs less than
# the perp visits of larger primes.  Over F_p the sieve is p alone.
@pytest.mark.parametrize("build_set, p, primes", [
    pytest.param(build_Q, None, [3, 5, 7], id="Q"),
    pytest.param(partial(enumerate_S, 462, 8), None, [2, 3, 5, 7], id="S(462)|H=8"),
    pytest.param(partial(enumerate_S, 462, 16), None, [7, 11, 13], id="S(462)|H=16"),
    pytest.param(partial(enumerate_S, 462, 24), None, [11, 13, 17], id="S(462)|H=24"),
    pytest.param(partial(enumerate_S, 35, 30), None, [2, 3, 5, 7, 11], id="S(35)|H=30"),
    pytest.param(partial(enumerate_S, 455, 30), None, [5, 7, 11, 13], id="S(455)|H=30"),
    pytest.param(partial(enumerate_S, 35, 50), None, [5, 7, 11, 13], id="S(35)|H=50"),
    pytest.param(partial(enumerate_S, 455, 10), None, [5, 7, 11], id="S(455)|H=10"),
    pytest.param(partial(_line_family, 13), 13, [13], id="F_13"),
])
def test_sieve_passes_stop_at_the_largest_norm(build_set, p, primes, monkeypatch):
    s = build_set()
    sieved = _recording_sieve(monkeypatch)
    build_graph(s, p)
    assert sieved == primes


def test_sieve_primes_match_trial_division():
    primes = [q for q in range(2, 30) if all(q % d for d in range(2, q))]
    for bound in range(10**5 + 1):
        expected, product = [], 1
        for q in primes:
            if product > bound:
                break
            expected.append(q)
            product *= q
        assert _sieve_primes(bound) == expected, bound
    # from other starts: the run changes only where the bound reaches the
    # product of a shorter run, so each side of each such product is checked
    primes = primes_past(10**5)
    for start in [*range(2, 200), 99_990]:
        run = [q for q in primes if q >= start]
        assert _sieve_primes(0, start) == []
        for k in range(len(run) - 1):
            product = prod(run[:k + 1])
            assert _sieve_primes(product - 1, start) == run[:k + 1], (start, product)
            assert _sieve_primes(product, start) == run[:k + 2], (start, product)
            if product > 10**5:
                break


# A sieve pass mod q over n vertices as the rule prices it, in perp visits:
# three per vertex, and for each of the at most min(n, q^2 + q + 1) lines
# that occur, the q + 1 points of its perp or, when fewer lines occur, each
# line.
def _estimate(q, n):
    lines = min(n, q * q + q + 1)
    return 3 * n + lines * min(q + 1, lines)


@pytest.fixture(scope="module")
def runs_to_a_hundred_thousand():
    """The primes past 10^5, and every product <= 10^5 of a run of them."""
    primes = primes_past(10**5)
    products = set()
    for i in range(len(primes)):
        product = 1
        for q in primes[i:]:
            product *= q
            if product > 10**5:
                break
            products.add(product)
    return primes, sorted(products)


# two vertices, whose passes all cost the same; 40, whose cheapest run is
# the one prime above the bound from 2 310 up; S(462)|H=24's size
@pytest.mark.parametrize("n", [2, 40, 2173])
def test_sieve_run_is_the_cheapest_past_every_bound(n, runs_to_a_hundred_thousand):
    primes, products = runs_to_a_hundred_thousand
    index = {q: i for i, q in enumerate(primes)}
    cost = [_estimate(q, n) for q in primes]
    # a run costs at least its first pass, and above a bound the first prime
    # is the cheapest run of one
    assert cost == sorted(cost)
    assert orthograph._cheapest_run(0, n) == []
    # every run passes each bound from one product to just below the next,
    # or none of them: the cheapest run, the earliest on a tie, is checked at
    # both ends
    for low, high in zip([1, *products], [*products, 10**5 + 1]):
        k = bisect_right(primes, low)
        least = (cost[k], k)  # the cheapest run of one prime
        for i in range(k):  # the runs of two or more primes from primes[i]
            if cost[i] + cost[i + 1] > least[0]:
                break
            j, product = i, 1
            while product <= low:
                product *= primes[j]
                j += 1
            least = min(least, (sum(cost[i:j]), i))
        for bound in {low, high - 1}:
            run = orthograph._cheapest_run(bound, n)
            i = index[run[0]]
            assert run == primes[i:i + len(run)] and prod(run) > bound, (n, bound)
            assert (sum(cost[i:i + len(run)]), i) == least, (n, bound)


def test_triples_are_edge_closed():
    g = build_graph(build_Q())
    edge_set = set(g.edges)
    for i, j, k in g.triples:
        assert (i, j) in edge_set and (i, k) in edge_set and (j, k) in edge_set


def test_contexts_of():
    g1 = build_graph(build_Qn(1))
    assert g1.contexts_of(0) == [(0, 1, 2)]

    g2 = build_graph(VectorSet.from_iterable([(1, 0, 0), (0, 1, 0)]))
    assert g2.contexts_of(0) == []

    gq = build_graph(build_Q())
    i = gq.vectors.index((-3, 8, 2))
    contexts = gq.contexts_of(i)
    target = {(4, 1, 2), (2, 2, -5), (-3, 8, 2)}
    assert any({gq.vectors[v] for v in t} == target for t in contexts)
    with pytest.raises(IndexError):
        gq.contexts_of(len(gq))


def test_relabeling_gives_isomorphic_stats():
    rng = random.Random(11)
    base = enumerate_S(6, 3)
    base_stats = graph_stats(build_graph(base))
    for g in rng.sample(signed_permutations(), 8):
        mapped = VectorSet.from_iterable(canonicalize(apply_matrix(g, v)) for v in base)
        assert graph_stats(build_graph(mapped)) == base_stats


def test_dot_export():
    g = build_graph(build_Qn(1))
    text = to_dot(g)
    assert text.startswith("graph")
    assert 'label="1,0,0"' in text
    assert text.count(" -- ") == 3
