import dataclasses
import gc
import hashlib
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from kscolor.certificate import BASIS_WLOG, Certificate, verify_certificate
from kscolor.orthograph import build_graph, graph_stats
from kscolor import ffproj, solver
from kscolor.solver import (
    CnfFormula,
    SolveResult,
    SolveStats,
    cnf_bruteforce_satisfiable,
    export_cnf,
    format_coloring,
    parse_coloring,
    solve,
    solve_bruteforce,
    solve_cnf,
    to_dimacs,
    verify_coloring,
)
from kscolor.vectors import (
    VectorSet,
    apply_matrix,
    build_Q,
    build_Qn,
    canonicalize,
    enumerate_S,
)

from oracles import signed_permutations


def _graph_of(*blocks):
    vecs = []
    for n in blocks:
        vecs.extend(build_Qn(n).vectors)
    return build_graph(VectorSet.from_iterable(vecs))


def test_verify_coloring_basis():
    g = build_graph(build_Qn(1))
    one_hot = tuple(1 if v == (1, 0, 0) else 0 for v in g.vectors)
    assert verify_coloring(g, one_hot)
    assert not verify_coloring(g, (0, 0, 0))
    with pytest.raises(ValueError):
        verify_coloring(g, (1, 0))
    with pytest.raises(ValueError):
        verify_coloring(g, (2, 0, 0))


def test_verify_coloring_edge_violation():
    g = _graph_of(1, 2)
    coloring = tuple(1 if v in ((1, 0, 0), (0, 1, 1)) else 0 for v in g.vectors)
    assert not verify_coloring(g, coloring)  # orthogonal pair both colored 1


def test_solve_empty():
    g = build_graph(VectorSet(()))
    r = solve(g)
    assert r.satisfiable and r.coloring == ()


def test_solve_rejects_a_wrong_coloring(monkeypatch):
    # the check must not be an assert, which python -O strips
    g = build_graph(build_Qn(1))
    wrong = SolveResult(True, (1, 1, 1), SolveStats())
    monkeypatch.setattr(solver._Search, "run", lambda self, fixed=(): wrong)
    with pytest.raises(RuntimeError, match="violates"):
        solve(g)


def test_solve_stats_are_frozen():
    g = build_graph(build_Q())
    for result in (solve(g), solve_bruteforce(build_graph(build_Qn(1)))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.stats.nodes = 0


def test_deep_search_leaves_the_recursion_limit_alone(monkeypatch):
    # Both searches must run without process-global state: a limit restored
    # by another thread would cut short a search deeper than the default.
    def refuse(limit):
        raise RuntimeError("search changed the interpreter's recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = build_graph(enumerate_S(35, 50))
    r = solve(g)
    assert r.satisfiable
    assert (r.stats.nodes, r.stats.propagations, r.stats.max_depth) == (488, 583, 488)
    cnf = export_cnf(g)
    model = solve_cnf(cnf.num_vars, cnf.clauses)
    assert model is not None and verify_coloring(g, model)


def test_solve_Q_unsat():
    r = solve(build_graph(build_Q()))
    assert not r.satisfiable
    assert r.stats.nodes > 0


def test_solve_Q_unsat_with_wlog():
    r = solve(build_graph(build_Q()), wlog=True)
    assert not r.satisfiable


def test_wlog_rejected_for_asymmetric_set():
    s = VectorSet.from_iterable([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        solve(build_graph(s), wlog=True)


BASIS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
#: x<->y and x<->z: the witnesses of the certificate's `wlog` step
SWAPS = [((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, 0), (1, 0, 0))]
#: the six coordinate permutations: the signed permutations with no minus sign
COORDINATE_PERMUTATIONS = [g for g in signed_permutations() if min(map(min, g)) == 0]


@settings(max_examples=150, deadline=None)
# the positive octant's seven lines: moved by sign changes, yet the step replays
@example(kind="coordinate", basis=True, vecs=[(1, 1, 0), (1, 1, 1)])
@given(kind=st.sampled_from(["signed", "coordinate", "asymmetric"]), basis=st.booleans(),
       vecs=st.lists(st.tuples(*[st.integers(-3, 3)] * 3).filter(any), max_size=4))
def test_wlog_admits_exactly_where_the_basis_wlog_step_replays(kind, basis, vecs):
    group = {"signed": signed_permutations(), "coordinate": COORDINATE_PERMUTATIONS,
             "asymmetric": [((1, 0, 0), (0, 1, 0), (0, 0, 1))]}[kind]
    lines = {canonicalize(apply_matrix(h, v)) for h in group for v in vecs + (BASIS if basis else [])}
    g = build_graph(VectorSet.from_iterable(lines))
    fixed = {canonicalize(apply_matrix(h, v)) for h in SWAPS for v in lines} == lines
    replays = verify_certificate(g, Certificate((BASIS_WLOG,))).failed_step is None
    assert replays == (set(BASIS) <= lines and fixed)
    if replays:
        r = solve(g, wlog=True)
        assert r.satisfiable == solve(g).satisfiable
        assert not r.satisfiable or r.coloring[g.vectors.index((1, 0, 0))] == 1
    else:
        with pytest.raises(ValueError, match="^symmetry shortcut needs a "):
            solve(g, wlog=True)


def test_solve_small_sat():
    g = _graph_of(1, 2)
    r = solve(g)
    assert r.satisfiable
    assert verify_coloring(g, r.coloring)


def test_bruteforce_examples():
    g1 = build_graph(build_Qn(1))
    r = solve_bruteforce(g1)
    assert r.satisfiable
    # lexicographically least satisfying coloring of the basis triple
    assert r.coloring == (0, 0, 1)

    g13 = _graph_of(1, 2, 3)
    assert solve_bruteforce(g13).satisfiable == solve(g13).satisfiable


def test_bruteforce_guard():
    g = build_graph(enumerate_S(462, 3))
    assert len(g) > 25
    with pytest.raises(ValueError):
        solve_bruteforce(g)


def test_bruteforce_coloring_is_lex_least():
    g = _graph_of(1)
    r = solve_bruteforce(g)
    # no smaller tuple satisfies the constraints
    for m in range(int("".join(map(str, r.coloring)), 2)):
        coloring = tuple((m >> (2 - i)) & 1 for i in range(3))
        assert not verify_coloring(g, coloring)


def test_solve_agrees_with_bruteforce_on_random_subsets():
    rng = random.Random(42)
    q = build_Q().vectors
    for _ in range(40):
        size = rng.randint(1, 16)
        subset = VectorSet.from_iterable(rng.sample(q, size))
        g = build_graph(subset)
        assert solve(g).satisfiable == solve_bruteforce(g).satisfiable


def test_monotonicity_on_sampled_chains():
    rng = random.Random(5)
    base = enumerate_S(30, 3).vectors
    for _ in range(15):
        big = rng.sample(base, rng.randint(6, 14))
        small = rng.sample(big, rng.randint(1, len(big)))
        g_big = build_graph(VectorSet.from_iterable(big))
        g_small = build_graph(VectorSet.from_iterable(small))
        if solve(g_big).satisfiable:
            assert solve(g_small).satisfiable


def test_verdict_invariant_under_relabeling():
    rng = random.Random(9)
    q = build_Q().vectors
    for _ in range(10):
        subset = VectorSet.from_iterable(rng.sample(q, rng.randint(4, 12)))
        verdict = solve(build_graph(subset)).satisfiable
        g = rng.choice(signed_permutations())
        mapped = VectorSet.from_iterable(canonicalize(apply_matrix(g, v)) for v in subset)
        assert solve(build_graph(mapped)).satisfiable == verdict


# ---------------------------------------------------------------------------
# Decision order


def _line_family(p):
    """The non-isotropic lines of F_p^3, first nonzero entry 1."""
    lines = {(1, y, z) for y in range(p) for z in range(p)}
    lines |= {(0, 1, z) for z in range(p)} | {(0, 0, 1)}
    return VectorSet(tuple(sorted(v for v in lines if sum(x * x for x in v) % p)))


def _rescan_pick(assign, triples):
    """Oracle: the unassigned vertex in the most triples holding no 1,
    ties to the lowest index, rescored from scratch."""
    score = [0] * len(assign)
    for t in triples:
        if 1 not in (assign[w] for w in t):
            for w in t:
                score[w] += 1
    free = [v for v, c in enumerate(assign) if c is None]
    return max(free, key=lambda v: (score[v], -v), default=None)


@pytest.fixture()
def checked_solve(monkeypatch):
    """solve(g, wlog), asserting at every decision that the static order
    picks what the rescan oracle picks; returns the result and the count of
    decisions checked."""
    static_pick = solver._Search._pick

    def run(g, wlog=False):
        picks = []

        def pick(search):
            v = static_pick(search)
            assert v == _rescan_pick(search.assign, g.triples)
            picks.append(v)
            return v

        monkeypatch.setattr(solver._Search, "_pick", pick)
        return solve(g, wlog=wlog), len(picks)

    return run


def test_static_order_matches_rescan_on_paper_sets(checked_solve):
    q = build_graph(build_Q())
    graphs = [
        (q, False),
        (q, True),
        (build_graph(enumerate_S(462, 8)), False),
        (build_graph(enumerate_S(35, 30)), False),
        (build_graph(enumerate_S(462, 3), 5), False),
    ]
    graphs += [(build_graph(_line_family(p), p), False) for p in (2, 3, 5, 7, 11, 13)]
    for g, wlog in graphs:
        result, picks = checked_solve(g, wlog)
        assert 2 * picks >= result.stats.nodes > 0  # each pick tries 1, then 0


def test_static_order_matches_rescan_on_random_subsets(checked_solve):
    rng = random.Random(2003)
    q = build_Q().vectors
    checked = 0
    for _ in range(60):
        subset = VectorSet.from_iterable(rng.sample(q, rng.randint(1, 85)))
        checked += checked_solve(build_graph(subset))[1]
    assert checked > 60


def test_search_sets_only_unassigned_vertices(monkeypatch):
    # _set has no branch for an assigned vertex: the start vertex is set on
    # an empty assignment and every decision comes from _pick
    plain_set = solver._Search._set
    calls = []

    def checked_set(search, v, c):
        if search.assign[v] is not None:  # not an assert, which python -O strips
            raise AssertionError(f"vertex {v} set while assigned")
        calls.append(v)
        return plain_set(search, v, c)

    monkeypatch.setattr(solver._Search, "_set", checked_set)
    q = build_graph(build_Q())
    for g, wlog in [(q, False), (q, True), (build_graph(enumerate_S(462, 8)), False),
                    (build_graph(enumerate_S(35, 30)), False)]:
        solve(g, wlog=wlog)
    assert not ffproj.search_ba_coloring(ffproj.enumerate_projections(13)).satisfiable
    reduced = ffproj.reduce_set_mod_p(build_Q(), 13)
    assert not ffproj.restricted_ks_search(reduced.projections, 13).satisfiable
    assert len(calls) > 100


@pytest.mark.parametrize("p, stats", [(31, (10, 1058, 2)), (61, (20, 4020, 8))])
def test_line_family_search_stats(p, stats):
    r = solve(build_graph(_line_family(p), p))
    assert not r.satisfiable
    assert (r.stats.nodes, r.stats.propagations, r.stats.max_depth) == stats


# The paper's set: the search's (nodes, propagations, max depth), with and
# without `wlog`.
@pytest.mark.parametrize("wlog, stats", [(False, SolveStats(20, 299, 4)), (True, SolveStats(6, 103, 2))])
def test_Q_search_stats(wlog, stats):
    result = solve(build_graph(build_Q()), wlog=wlog)
    assert (result.satisfiable, result.stats) == (False, stats)


# (N, H) -> (nodes, propagations, max depth) and sha256 of the
# format_coloring text of `solve(..., wlog=True)` on SAT slices, taken when
# `wlog` still fixed all three basis vectors.
WLOG_SLICE_SOLVES = {
    (35, 30): ((242, 240, 242), "2f0e92f830b1db0941c62f88321148c5b9ccec1023de87aff3b7292a20c7e13d"),
    (455, 10): ((119, 111, 119), "766c5d7b48165eb76d736e8ad9ade5254979c1f32736084672372c23de07da8b"),
}


@pytest.mark.parametrize("n_divisor,height", sorted(WLOG_SLICE_SOLVES))
def test_wlog_slice_solve_pinned(n_divisor, height):
    g = build_graph(enumerate_S(n_divisor, height))
    r = solve(g, wlog=True)
    assert r.satisfiable
    st = r.stats
    sha = hashlib.sha256(format_coloring(g.vectors, r.coloring).encode()).hexdigest()
    assert ((st.nodes, st.propagations, st.max_depth), sha) == WLOG_SLICE_SOLVES[n_divisor, height]


def _build_and_solve_s(s, p=None):
    """The least of five build_graph times and of five solve times, each
    taken after a garbage collection, so a collection or a busy host's pause
    does not land in every sample of one side."""
    build_s = solve_s = float("inf")
    for _ in range(5):
        gc.collect()
        t0 = time.perf_counter()
        g = build_graph(s, p)
        build_s = min(build_s, time.perf_counter() - t0)
        gc.collect()
        t0 = time.perf_counter()
        solve(g)
        solve_s = min(solve_s, time.perf_counter() - t0)
    return build_s, solve_s


def test_search_is_cheaper_than_its_graph():
    # A rescan of every vertex's triples at each decision made the F_61
    # search 2.5 times as slow as building its graph; a ratio, not a time,
    # so the bound holds on any host.
    build_s, solve_s = _build_and_solve_s(_line_family(61), 61)
    assert solve_s < build_s / 2


def test_solve_is_cheaper_than_its_graph_on_a_deep_sat_slice():
    # Walking the decision order from its start at every decision made the
    # search of S(35)|H=50 (depth 488) cost about as much as its graph; a
    # ratio, not a time, so the bound holds on any host.
    build_s, solve_s = _build_and_solve_s(enumerate_S(35, 50))
    assert solve_s < build_s / 2


class _CountingList(list):
    """A list that counts the items read from it by index."""
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_decisions_read_the_order_about_once_per_vertex(monkeypatch):
    # The deterministic side of the ratio test above: a walk that resumes
    # from its cursor reads each position about once, plus at most two reads
    # per decision; restarting from the start of the order at every
    # decision reads it 344 937 times.
    searches = []
    init = solver._Search.__init__

    def counting_init(self, *args):
        init(self, *args)
        self.order = _CountingList(self.order)
        searches.append(self)

    monkeypatch.setattr(solver._Search, "__init__", counting_init)
    g = build_graph(enumerate_S(35, 50))
    st = solve(g).stats
    (search,) = searches
    assert search.order.reads <= len(g) + 2 * (st.nodes + 1)


# (N, H) -> verdict, (nodes, propagations, max depth), sha256 of the
# format_coloring text, taken while each decision still walked the order
# from its start: the benchmark's six rungs and S(455)|H=10.
SLICE_SOLVES = {
    (462, 8): ("UNSAT", (20, 1430, 4), None),
    (462, 16): ("UNSAT", (20, 1918, 4), None),
    (462, 24): ("UNSAT", (20, 3167, 4), None),
    (35, 30): ("SAT", (246, 237, 246),
               "5666591e2cb603e031cab51795b54b6fa10bfaee8cc79cfcf013ff0ad09fd122"),
    (35, 50): ("SAT", (488, 583, 488),
               "1ccbacd41934806a90fa8d6477e5288618b87274452fe8702ce36d71e9eafbb2"),
    (455, 30): ("SAT", (469, 554, 469),
                "581c3b52fb9b5d635651beb1dff3a9db6382b81dfcd908e1f69865ddb179778a"),
    (455, 10): ("SAT", (118, 113, 118),
                "e0e6fee4424542dae5525c14fe17ad896f2056c103ddc3202c9786d5a4a48fb0"),
}


@pytest.mark.parametrize("n_divisor,height", sorted(SLICE_SOLVES))
def test_slice_solve_pinned(n_divisor, height):
    g = build_graph(enumerate_S(n_divisor, height))
    r = solve(g)
    st = r.stats
    sha = None
    if r.satisfiable:
        sha = hashlib.sha256(format_coloring(g.vectors, r.coloring).encode()).hexdigest()
    assert (r.verdict, (st.nodes, st.propagations, st.max_depth), sha) == SLICE_SOLVES[n_divisor, height]


# ---------------------------------------------------------------------------
# CNF


def test_export_cnf_basis():
    cnf = export_cnf(build_graph(build_Qn(1)))
    assert cnf.num_vars == 3
    assert len(cnf.clauses) == 4
    assert (1, 2, 3) in cnf.clauses


def test_export_cnf_empty():
    cnf = export_cnf(build_graph(VectorSet(())))
    assert cnf.num_vars == 0 and cnf.clauses == ()


def test_export_cnf_clause_count_matches_stats():
    g = build_graph(build_Q())
    st = graph_stats(g)
    cnf = export_cnf(g)
    assert len(cnf.clauses) == st.edges + st.triples


def test_cnf_satisfiability_agrees_with_solve():
    rng = random.Random(17)
    q = build_Q().vectors
    for _ in range(25):
        subset = VectorSet.from_iterable(rng.sample(q, rng.randint(1, 14)))
        g = build_graph(subset)
        cnf = export_cnf(g)
        assert cnf_bruteforce_satisfiable(cnf) == solve(g).satisfiable
        assert (solve_cnf(cnf.num_vars, cnf.clauses) is not None) == solve(g).satisfiable


def test_cnf_bruteforce_guard():
    with pytest.raises(ValueError):
        cnf_bruteforce_satisfiable(CnfFormula(21, ((1,),)))


def test_dimacs_format():
    g = build_graph(build_Qn(1))
    text = to_dimacs(export_cnf(g), g.vectors)
    lines = text.splitlines()
    assert lines[0] == "c vertex 1 = 0 0 1"
    assert "p cnf 3 4" in lines
    assert all(line.endswith(" 0") for line in lines if line[0] not in "cp")


def test_solve_cnf_basic():
    assert solve_cnf(2, [(1,), (-1, 2)]) == (1, 1)
    assert solve_cnf(1, [(1,), (-1,)]) is None
    assert solve_cnf(0, []) == ()
    assert solve_cnf(1, [()]) is None


def test_coloring_file_round_trip():
    g = _graph_of(1, 2)
    r = solve(g)
    text = format_coloring(g.vectors, r.coloring)
    assert parse_coloring(text, g.vectors) == r.coloring
    with pytest.raises(ValueError):
        parse_coloring(text, g.vectors + ((9, 9, 1),))
    with pytest.raises(ValueError, match=r"^line 2: expected 'x y z <0\|1>'$"):
        parse_coloring("1 0 0 1\n1 0 z 1\n", g.vectors)


def test_coloring_file_refuses_a_second_color_and_a_foreign_vector():
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(ValueError, match=r"^line 2: vector \(1, 0, 0\) is colored twice$"):
        parse_coloring("1 0 0 1\n1 0 0 0\n0 1 0 0\n0 0 1 1\n", basis)
    with pytest.raises(ValueError, match=r"^line 3: vector \(0, 1, 0\) is colored twice$"):
        parse_coloring("0 1 0 0\n# same color again\n0 1 0 0\n1 0 0 1\n0 0 1 0\n", basis)
    with pytest.raises(ValueError, match=r"^line 4: vector \(9, 9, 1\) is not in the set$"):
        parse_coloring("1 0 0 1\n0 1 0 0\n0 0 1 0\n9 9 1 0\n", basis)
    assert parse_coloring("0 0 1 0\n1 0 0 1\n0 1 0 0\n", basis) == (1, 0, 0)
