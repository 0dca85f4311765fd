import hashlib
import math
import os
import random
import re
import subprocess
import sys
import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

import kscolor
from kscolor.orthograph import build_graph
from kscolor.vectors import (
    Q_BLOCK_NORMS,
    SYMMETRY_GENERATORS,
    VectorSet,
    apply_matrix,
    build_Q,
    build_Qn,
    canonicalize,
    enumerate_S,
    format_vector_set,
    is_signed_permutation,
    is_well_signed,
    norm_sq,
    parse_vector_set,
)
from kscolor import vectors

from oracles import dot, radical, signed_permutations

nonzero_vec = st.tuples(
    st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100)
).filter(lambda v: v != (0, 0, 0))


def test_norm_sq():
    assert norm_sq((1, 0, 0)) == 1
    assert norm_sq((-3, 8, 2)) == 77
    assert norm_sq((2, 2, -5)) == 33


def test_well_signed_cases():
    assert is_well_signed((1, 0, 0))
    assert is_well_signed((0, 1, -1))
    assert is_well_signed((1, -1, 1))
    assert is_well_signed((1, 1, 1))  # three positive also qualifies
    assert not is_well_signed((-1, 0, 0))
    assert not is_well_signed((0, -1, 1))
    assert not is_well_signed((-1, 1, -1))


def test_well_signed_rejects_zero():
    with pytest.raises(ValueError):
        is_well_signed((0, 0, 0))


def test_canonicalize_examples():
    assert canonicalize((-2, 0, 0)) == (1, 0, 0)
    assert canonicalize((0, -1, 1)) == (0, 1, -1)
    assert canonicalize((-1, 1, -1)) == (1, -1, 1)
    with pytest.raises(ValueError):
        canonicalize((0, 0, 0))


@given(nonzero_vec)
def test_canonicalize_idempotent(v):
    w = canonicalize(v)
    assert canonicalize(w) == w
    assert math.gcd(*w) == 1 and is_well_signed(w)


@given(nonzero_vec, st.integers(-7, 7).filter(lambda k: k != 0))
def test_canonicalize_constant_on_lines(v, k):
    kv = (k * v[0], k * v[1], k * v[2])
    assert canonicalize(kv) == canonicalize(v)
    neg = (-v[0], -v[1], -v[2])
    assert canonicalize(neg) == canonicalize(v)


@given(nonzero_vec)
def test_exactly_one_sign_is_well_signed(v):
    neg = (-v[0], -v[1], -v[2])
    assert is_well_signed(v) != is_well_signed(neg)


def _is_well_signed_oracle(v):
    """The list-based definition that `is_well_signed` replaced."""
    if v == (0, 0, 0):
        raise ValueError("the zero vector is neither well-signed nor its negation")
    nonzero = [e for e in v if e != 0]
    if len(nonzero) < 3:
        return nonzero[0] > 0
    return sum(e > 0 for e in nonzero) >= 2


def _canonicalize_oracle(v):
    """The definition that `canonicalize` replaced: divide, then flip."""
    if v == (0, 0, 0):
        raise ValueError("cannot canonicalize the zero vector")
    g = math.gcd(*v)
    w = (v[0] // g, v[1] // g, v[2] // g)
    if _is_well_signed_oracle(w):
        return w
    return (-w[0], -w[1], -w[2])


big_entry = st.one_of(st.integers(-10**12, 10**12), st.sampled_from((0, 1, -1)))


@given(st.tuples(big_entry, big_entry, big_entry), st.booleans())
def test_canonical_form_matches_the_list_based_definitions(v, as_list):
    # equal magnitudes and zeros are drawn often, so ties and every sign
    # pattern with one, two or three nonzero entries occur
    arg = list(v) if as_list else v
    if v == (0, 0, 0):
        for f in (is_well_signed, canonicalize):
            with pytest.raises(ValueError, match="zero vector"):
                f(arg)
        return
    assert is_well_signed(arg) == _is_well_signed_oracle(v)
    w = canonicalize(arg)
    assert type(w) is tuple and w == _canonicalize_oracle(v)


@pytest.mark.parametrize("zero", [(0, 0, 0), [0, 0, 0]])
def test_zero_vector_is_refused(zero):
    with pytest.raises(ValueError, match="zero vector"):
        is_well_signed(zero)
    with pytest.raises(ValueError, match="zero vector"):
        canonicalize(zero)


def test_radical():
    assert radical(462) == 462
    assert radical(12) == 6
    assert radical(1) == 1
    assert radical(77**2) == 77
    with pytest.raises(ValueError):
        radical(0)


def _radical_oracle(n):
    return math.prod(p for p in range(2, n + 1) if n % p == 0 and is_prime_naive(p))


def is_prime_naive(n):
    return n >= 2 and all(n % d for d in range(2, n))


@pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 49, 77, 128, 462, 500])
def test_radical_against_oracle(n):
    assert radical(n) == _radical_oracle(n)


def test_radical_keeps_no_memo():
    # a process-wide memo would only grow, and nothing needs it: neither the
    # oracle nor the package's factoring keeps one
    for f in (radical, vectors._prime_factors, vectors._slice_rule):
        assert not hasattr(f, "cache_info")


# ---------------------------------------------------------------------------
# Named constructions

EXPECTED_SIZES = {1: 3, 2: 6, 3: 4, 6: 12, 21: 24, 33: 12, 77: 24}


@pytest.mark.parametrize("n", Q_BLOCK_NORMS)
def test_block_sizes_and_invariants(n):
    block = build_Qn(n)
    assert len(block) == EXPECTED_SIZES[n]
    for v in block:
        assert norm_sq(v) == n
        assert math.gcd(*v) == 1 and is_well_signed(v)


def _block_oracle(n):
    """Block n built apart from build_Qn: the well-signed members of the
    multiset's signed permutations, or the primitive well-signed points of
    norm n in the cube of half-width isqrt(n)."""
    multisets = {33: (2, 2, 5), 77: (2, 3, 8)}
    if n in multisets:
        vecs = {
            tuple(s * e for s, e in zip(signs, perm))
            for perm in permutations(multisets[n])
            for signs in product((1, -1), repeat=3)
        }
        return sorted(v for v in vecs if is_well_signed(v))
    b = math.isqrt(n)
    return sorted(
        v
        for v in product(range(-b, b + 1), repeat=3)
        if norm_sq(v) == n and math.gcd(*v) == 1 and is_well_signed(v)
    )


@pytest.mark.parametrize("n", Q_BLOCK_NORMS)
def test_block_against_oracle(n):
    assert build_Qn(n) == VectorSet(tuple(_block_oracle(n)), name=f"Q_{n}")


def test_block_explicit_small_sets():
    assert build_Qn(1).vectors == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert set(build_Qn(2)) == {
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1),
    }
    assert set(build_Qn(3)) == {(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)}


def test_block_multiset_exclusions():
    assert canonicalize((4, 5, 6)) not in build_Qn(77)
    assert (1, 4, 4) not in build_Qn(33)
    assert all(sorted(map(abs, v)) == [2, 2, 5] for v in build_Qn(33))
    assert all(sorted(map(abs, v)) == [2, 3, 8] for v in build_Qn(77))


def test_unsupported_block():
    with pytest.raises(ValueError):
        build_Qn(5)


def test_build_Q():
    q = build_Q()
    assert len(q) == 85
    for v in [(-3, 8, 2), (2, 2, -5), (4, 1, 2), (2, 1, -1), (-1, 2, 1)]:
        assert v in q
    # the seven parts are pairwise disjoint (distinct norms) and partition Q
    assert sum(EXPECTED_SIZES.values()) == 85
    by_norm = {}
    for v in q:
        by_norm.setdefault(norm_sq(v), []).append(v)
    assert {n: len(vs) for n, vs in by_norm.items()} == EXPECTED_SIZES


def test_Q_pinned():
    # sha256 of format_vector_set(build_Q()), taken when Q was still merged
    # from seven block sets, 33 and 77 built by signed permutations
    text = format_vector_set(build_Q())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "0f549fd6f2e78d4c52b9e22fe46d76ab43710617fd05a996a768dd81bbef3196"


def test_Q_invariant_under_signed_permutations():
    q = set(build_Q())
    for g in signed_permutations():
        assert {canonicalize(apply_matrix(g, v)) for v in q} == q
    assert build_Q().is_symmetry_invariant()


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def test_symmetry_generators_generate_all_signed_permutations():
    group = set(SYMMETRY_GENERATORS)
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in SYMMETRY_GENERATORS:
            gh = _mat_mul(g, h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    assert group == set(signed_permutations())


def test_symmetry_invariance_detects_each_generator():
    # each set is fixed by two of the generators and moved by the third
    xy_plane = VectorSet.from_iterable([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0)])
    assert not xy_plane.is_symmetry_invariant()  # moved by the 3-cycle
    diagonal = VectorSet.from_iterable([(1, 1, 1)])
    assert not diagonal.is_symmetry_invariant()  # moved by negating x
    cyclic = VectorSet.from_iterable(
        (s * a, t * b, u * c)
        for a, b, c in [(1, 2, 3), (3, 1, 2), (2, 3, 1)]
        for s, t, u in product((1, -1), repeat=3)
    )
    assert not cyclic.is_symmetry_invariant()  # moved by swapping x and y
    for s, moved_by in ((xy_plane, 1), (diagonal, 2), (cyclic, 0)):
        for n, g in enumerate(SYMMETRY_GENERATORS):
            image = {canonicalize(apply_matrix(g, v)) for v in s}
            assert (image == set(s)) == (n != moved_by)
    assert build_Qn(1).is_symmetry_invariant()


def test_is_signed_permutation():
    assert all(is_signed_permutation(g) for g in signed_permutations())
    rows = list(product((-1, 0, 1), repeat=3))
    assert sum(is_signed_permutation(g) for g in product(rows, repeat=3)) == 48
    for g in (((0, 0, 0, 1), (1, 0, 0), (0, 1, 0)),  # a row of four
              ((1, 0, 0), (1, 0, 0), (0, 0, 1)),  # a repeated column
              ((2, 0, 0), (0, 1, 0), (0, 0, 1)),  # an entry 2
              ((0, 0, 0), (0, 1, 0), (0, 0, 1)),  # a zero row
              ((1, 0, 0), (0, 1, 0))):  # two rows
        assert not is_signed_permutation(g)


def test_apply_symmetry():
    rz = ((1, 0, 0), (0, 1, 0), (0, 0, -1))
    assert canonicalize(apply_matrix(rz, (1, 0, 1))) == (1, 0, -1)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert canonicalize(apply_matrix(ident, (2, 1, -1))) == (2, 1, -1)
    swap_xy = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    assert canonicalize(apply_matrix(swap_xy, (2, 1, -1))) == (1, 2, -1)


def test_symmetries_preserve_norm_and_orthogonality():
    rng = random.Random(7)
    mats = signed_permutations()
    assert len(mats) == 48 and len(set(mats)) == 48
    for _ in range(200):
        v = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0, 0) or w == (0, 0, 0):
            continue
        g = mats[rng.randrange(48)]
        assert norm_sq(apply_matrix(g, v)) == norm_sq(v)
        assert (dot(v, w) == 0) == (dot(apply_matrix(g, v), apply_matrix(g, w)) == 0)


# ---------------------------------------------------------------------------
# Height-bounded slices


def _enumerate_S_oracle(n_divisor, height):
    """Naive triple loop, entirely independent of enumerate_S internals."""
    out = set()
    for v in product(range(-height, height + 1), repeat=3):
        if v == (0, 0, 0):
            continue
        if n_divisor % radical(norm_sq(v)):
            continue
        out.add(canonicalize(v))
    # keep only lines whose canonical representative fits the height bound
    return {v for v in out if max(abs(e) for e in v) <= height}


def test_enumerate_S_trivial():
    assert set(enumerate_S(1, 10)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_enumerate_S_height_one():
    expected = {
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1),
        (1, -1, 0), (1, 0, -1), (0, 1, -1),
    }
    s = enumerate_S(2, 1)
    assert set(s) == expected
    assert set(s) == _enumerate_S_oracle(2, 1)


# H = 12 reaches the ends x = 0 and x = y of the norm scan, and (y, z) with
# no admissible norm in [y^2 + z^2, 2y^2 + z^2]
@pytest.mark.parametrize(
    "n_divisor,height", [(2, 3), (6, 4), (30, 3), (462, 4), (35, 6), (455, 5), (1, 4),
                         (1, 12), (2, 12), (6, 12), (35, 12), (462, 12)]
)
def test_enumerate_S_against_oracle(n_divisor, height):
    assert enumerate_S(n_divisor, height).vectors == tuple(sorted(_enumerate_S_oracle(n_divisor, height)))


@settings(deadline=None)
@given(
    st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), unique=True).map(math.prod),
    st.integers(1, 8),
)
def test_enumerate_S_matches_oracle(n_divisor, height):
    # n_divisor ranges over the squarefree divisors of 30030; the heights
    # reach entries of +-H in every coordinate, x = 0 and repeated entries,
    # and the order is compared as well as the lines
    assert enumerate_S(n_divisor, height).vectors == tuple(sorted(_enumerate_S_oracle(n_divisor, height)))


# sha256 of format_vector_set(enumerate_S(N, H)), taken when the slices were
# still built by scanning the whole (2H+1)^3 cube: the benchmark's six rungs,
# S(455)|H=10 and four H=15 slices.
SLICE_SHA256 = {
    (462, 8): "03d838d05f86c34124da25b6d69329f5023d17eba82669099e6b6163960667db",
    (462, 16): "4bbef3a5d126b5313556e3c170c50c7a3c2348b262c14f664e43555a747ad084",
    (462, 24): "cf64b152c806eb5a428881b31f28058c6014451e9d0416fb8040b3831c6b83b1",
    (35, 30): "59bef02ac19451b338659359ed72681bc0f303933412ff1881841c4d159a6bcb",
    (35, 50): "5cf333a454fb1093ac4fd7b2c6165b49c52d916ac7578dc602a5af32f88db5fb",
    (455, 30): "b309ab8fffb4aa052ab50dfc1d9c2e6d7a1ab5e391eb56ecbf839d99c2de15b9",
    (455, 10): "fb83474fbfea82ea2f575efbff7da9cad2ada611fefd44306f6edad2106c5b2c",
    (1, 15): "9522d9ab14cef42d29c4614c0ee06d1e064ea0d6f7ada441609232bc2d958eb3",
    (5, 15): "90620547a0541f59d7d01998eaeb528c928c5a32690c63130e6a00a01f211cb7",
    (7, 15): "d52f10adb6bcdf06f9aabecb6ef2e1421af0d4a378cf7cd4ae0328e4d04f39b1",
    (35, 15): "aaef97819f47371e060e995042a1d840b06af2bc59af00f427393b936197dab8",
}


@pytest.mark.parametrize("n_divisor,height", sorted(SLICE_SHA256))
def test_enumerate_S_pinned(n_divisor, height):
    text = format_vector_set(enumerate_S(n_divisor, height))
    assert hashlib.sha256(text.encode()).hexdigest() == SLICE_SHA256[n_divisor, height]


def test_enumerate_S_is_cheaper_than_its_graph():
    # Scanning the (2H+1)^3 cube made S(35)|H=50 about 20 times as slow to
    # list as its graph is to build; a ratio, not a time, so the bound holds
    # on any host.
    enum_s = graph_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        s = enumerate_S(35, 50)
        t1 = time.perf_counter()
        build_graph(s)
        t2 = time.perf_counter()
        enum_s, graph_s = min(enum_s, t1 - t0), min(graph_s, t2 - t1)
    assert enum_s < 3 * graph_s


def test_enumerate_S_contains_Q():
    s = set(enumerate_S(462, 8))
    for v in build_Q():
        assert max(abs(e) for e in v) <= 8
        assert norm_sq(v) in {1, 2, 3, 6, 21, 33, 77}
        assert v in s


def test_enumerate_S_monotone_in_divisor():
    assert set(enumerate_S(6, 5)) <= set(enumerate_S(30, 5))
    assert set(enumerate_S(2, 5)) <= set(enumerate_S(462, 5))


def test_enumerate_S_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_S(4, 5)
    with pytest.raises(ValueError):
        enumerate_S(6, 0)
    with pytest.raises(ValueError, match=r"^H must be <= 1000, got 1001$"):
        enumerate_S(6, 1001)


def test_enumerate_S_refuses_a_huge_height_before_scanning():
    # in a fresh interpreter under a short timeout: the scan of H = 10^9
    # would take about 5 * 10^17 (y, z) probes
    code = "from kscolor.vectors import enumerate_S\nenumerate_S(1, 10**9)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kscolor.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=10)
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == "ValueError: H must be <= 1000, got 1000000000"


# ---------------------------------------------------------------------------
# Set construction and files


def test_vector_set_merges_collinear():
    s = VectorSet.from_iterable([(2, 0, 0), (-1, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert s.vectors == ((0, 1, 0), (1, 0, 0))


def test_vector_set_order_is_sorted():
    s = build_Q()
    assert list(s.vectors) == sorted(s.vectors)


def test_vector_set_rejects_duplicates_and_non_canonical():
    # a duplicated vertex used to slip through the raw constructor
    with pytest.raises(ValueError, match="strictly increasing"):
        VectorSet(((0, 0, 1), (0, 0, 1)))
    with pytest.raises(ValueError, match="canonical"):
        VectorSet(((2, 0, 0), (0, 0, 1), (0, 0, 1)))
    with pytest.raises(ValueError, match="strictly increasing"):
        VectorSet(((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="canonical"):
        VectorSet(((-1, 0, 0),))
    with pytest.raises(ValueError):
        VectorSet(((0, 0, 0),))


def test_vector_set_takes_only_canonical_tuples():
    # the check is canonicalize(v) == v without building a tuple per vector
    for bad in ([1, 0, 0], (2, 4, 6), (1, 2), (-1, 2, 3, 4)):
        with pytest.raises(ValueError):
            VectorSet((bad,))
    assert VectorSet(((-1, 2, 3),)).vectors == ((-1, 2, 3),)


def test_vector_set_refuses_a_list_of_vectors():
    # a list left the set unhashable and unequal to the same set as a tuple
    with pytest.raises(TypeError, match=r"^vectors must be a tuple, got list$"):
        VectorSet([(1, 0, 0)])


@pytest.mark.parametrize("bad", [(), (1,), (0, 1), (1, 0, 0, 0)])
def test_vector_set_refuses_a_vector_of_the_wrong_length(bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))} is not in canonical form$"):
        VectorSet(((0, 0, 1), bad))


@pytest.mark.parametrize("bad", [(1.0, 0, 0), (0, 1, 0.5), ("1", 0, 0)])
def test_vector_set_refuses_a_non_int_entry(bad):
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))} is not in canonical form$"):
        VectorSet((bad,))


def test_vector_set_membership():
    s = build_Q()
    assert all(v in s for v in s)
    assert (2, 0, 0) not in s and (0, 0, 0) not in s and (9, 9, 9) not in s
    assert (1, 0, 0) not in VectorSet(())


def test_file_round_trip_bit_exact():
    s = enumerate_S(30, 4)
    text = format_vector_set(s)
    again = parse_vector_set(text)
    assert again == s
    assert format_vector_set(again) == text


def test_parse_reports_line_number():
    with pytest.raises(ValueError, match="line 3"):
        parse_vector_set("# name: x\n1 0 0\n1 0\n")


def test_parse_refuses_a_count_its_vector_lines_disagree_with():
    text = format_vector_set(build_Qn(1))  # "# vectors: 3"
    truncated = text[: text.rindex("1 0 0")]  # drop the last line
    with pytest.raises(ValueError, match="header says 3 vectors, the file has 2"):
        parse_vector_set(truncated)
    with pytest.raises(ValueError, match="header says 3 vectors, the file has 4"):
        parse_vector_set(text + "1 1 1\n")
    assert len(parse_vector_set("1 0 0\n0 1 0\n")) == 2  # no header, no check


@pytest.mark.parametrize("header", ["N: 4x", "H: eight", "vectors: 3.0", "vectors:"])
def test_parse_reports_a_non_integer_header_with_its_line(header):
    with pytest.raises(ValueError, match="line 2: expected an integer after"):
        parse_vector_set(f"# name: x\n# {header}\n1 0 0\n")


@pytest.mark.parametrize("text, message", [
    ("# N: 4\n# H: -3\n1 0 0\n", "N must be a positive squarefree integer, got 4"),
    ("# N: 0\n1 0 0\n", "N must be a positive squarefree integer, got 0"),
    ("# N: 12\n1 0 0\n", "N must be a positive squarefree integer, got 12"),
    ("# N: 2\n1 1 1\n", r"the norm 3 of \(1, 1, 1\) has a prime that does not divide N = 2"),
    ("# N: 462\n# H: 1\n1 2 3\n", "an entry of absolute value 3 exceeds H = 1"),
    ("# H: 0\n1 0 0\n", "H must be >= 1, got 0"),
    ("# H: -3\n", "H must be >= 1, got -3"),
    ("# N: 2\n# H: 0\n1 1 1\n", r"the norm 3 of \(1, 1, 1\) has a prime that does not divide N = 2"),
], ids=["N=4,H=-3", "N=0", "N=12", "norm 3, N=2", "entry 3, H=1", "H=0", "H=-3", "norm 3, N=2, H=0"])
def test_parse_refuses_slice_headers_the_vectors_break(text, message):
    with pytest.raises(ValueError, match=message):
        parse_vector_set(text)


@pytest.mark.parametrize("n, h, message", [
    (12, 1, "N must be a positive squarefree integer, got 12"),
    (0, 1, "N must be a positive squarefree integer, got 0"),
    (-6, 1, "N must be a positive squarefree integer, got -6"),
    (6, 0, "H must be >= 1, got 0"),
    (1000003 * 1000033, 1, "cannot factor N: trial division to 1000000 leaves 1000036000099, "
                           "which is not a prime below 3317044064679887385961981"),
], ids=["N=12", "N=0", "N=-6", "H=0", "unfactorable N"])
def test_a_slice_and_a_file_header_share_one_rule(n, h, message):
    with pytest.raises(ValueError) as built:
        enumerate_S(n, h)
    with pytest.raises(ValueError) as read:
        parse_vector_set(f"# N: {n}\n# H: {h}\n1 0 0\n")
    assert str(built.value) == str(read.value) == message


def test_a_file_header_N_is_taken_exactly_when_squarefree():
    for n in range(1, 200):
        text = f"# N: {n}\n1 0 0\n"
        if radical(n) == n:
            assert parse_vector_set(text).n_divisor == n
        else:
            with pytest.raises(ValueError, match=f"^N must be a positive squarefree integer, got {n}$"):
                parse_vector_set(text)


def test_parse_checks_the_height_of_each_line_not_of_its_spelling():
    s = parse_vector_set("# N: 1\n# H: 1\n2 0 0\n")  # the line of (1,0,0)
    assert (s.vectors, s.n_divisor, s.height) == (((1, 0, 0),), 1, 1)
    assert parse_vector_set("# N: 3\n# H: 1\n-1 -1 -1\n").vectors == ((1, 1, 1),)
