import random
from itertools import combinations, product

import pytest

from kscolor.orthograph import GraphStats, build_graph, graph_stats, to_dot
from kscolor.vectors import (
    VectorSet,
    apply_symmetry,
    build_Q,
    build_Qn,
    dot,
    enumerate_S,
    signed_permutations,
)

# Regression constants for the 85-vector set, first derived with the cubic
# oracle below.
Q_EDGES = 180
Q_TRIPLES = 40
Q_BARE_EDGES = 60


def _oracle(vecs):
    """Exhaustive pairwise/triple dot-product scan."""
    edges = {
        (i, j)
        for i, j in combinations(range(len(vecs)), 2)
        if dot(vecs[i], vecs[j]) == 0
    }
    triples = {
        (i, j, k)
        for i, j, k in combinations(range(len(vecs)), 3)
        if dot(vecs[i], vecs[j]) == 0
        and dot(vecs[i], vecs[k]) == 0
        and dot(vecs[j], vecs[k]) == 0
    }
    return edges, triples


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


@pytest.mark.parametrize("p", [2, 3, 5, 7])
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
