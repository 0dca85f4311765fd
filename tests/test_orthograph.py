import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from kscolor.orthograph import GraphStats, build_graph, graph_stats, to_dot
from kscolor.vectors import (
    VectorSet,
    apply_symmetry,
    build_Q,
    build_Qn,
    canonicalize,
    dot,
    enumerate_S,
    signed_permutations,
)

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


def test_basis_triple_graph():
    g = build_graph(build_Qn(1))
    assert len(g.edges) == 3
    assert g.triples == ((0, 1, 2),)
    assert graph_stats(g) == GraphStats(3, 3, 1, 0)


def test_empty_graph():
    g = build_graph(VectorSet(()))
    assert graph_stats(g) == GraphStats(0, 0, 0, 0)


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_graph_mod_p_matches_oracle(p):
    # representatives of the non-isotropic lines of F_p^3
    lines = [
        v
        for v in product(range(p), repeat=3)
        if v != (0, 0, 0) and next(x for x in v if x) == 1 and dot(v, v) % p
    ]
    g = build_graph(VectorSet(tuple(lines)), p)
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
    i = gq.vector_set.index_of((-3, 8, 2))
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
        mapped = VectorSet.from_iterable(apply_symmetry(g, v) for v in base)
        assert graph_stats(build_graph(mapped)) == base_stats


def test_dot_export():
    g = build_graph(build_Qn(1))
    text = to_dot(g)
    assert text.startswith("graph")
    assert 'label="1,0,0"' in text
    assert text.count(" -- ") == 3
