import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kscolor import certificate
from kscolor.certificate import (
    Certificate,
    Contradiction,
    Propagate,
    WlogFix,
    format_certificate,
    load_bundled_certificate,
    parse_certificate,
    verify_certificate,
)
from kscolor.orthograph import build_graph
from kscolor.solver import solve
from kscolor.vectors import VectorSet, build_Q, build_Qn, enumerate_S

from oracles import signed_permutations

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def q_graph():
    return build_graph(build_Q())


@pytest.fixture(scope="module")
def bundled():
    return load_bundled_certificate()


def test_bundled_certificate_is_valid(q_graph, bundled):
    assert verify_certificate(q_graph, bundled).valid


def test_bundled_round_trips_through_text(bundled):
    text = format_certificate(bundled)
    assert parse_certificate(text) == bundled


def test_empty_certificate_invalid(q_graph):
    result = verify_certificate(q_graph, Certificate(()))
    assert not result.valid
    assert result.reason == "no contradiction reached"


def test_truncated_certificate_invalid(q_graph, bundled):
    truncated = Certificate(bundled.steps[:-1])
    result = verify_certificate(q_graph, truncated)
    assert not result.valid
    assert result.reason == "no contradiction reached"


def _replace_step(cert, index, step):
    steps = list(cert.steps)
    steps[index] = step
    return Certificate(tuple(steps))


def test_non_orthogonal_context_invalid(q_graph, bundled):
    # corrupt the edge {(2,1,-1),(-3,8,2)} into a non-orthogonal pair
    idx = next(
        i
        for i, s in enumerate(bundled.steps)
        if isinstance(s, Propagate) and set(s.context) == {(2, 1, -1), (-3, 8, 2)}
    )
    bad = dataclasses.replace(bundled.steps[idx], context=((2, 1, -1), (4, 1, 2)))
    result = verify_certificate(q_graph, _replace_step(bundled, idx, bad))
    assert not result.valid
    assert result.failed_step == idx


def test_flipped_color_invalid(q_graph, bundled):
    idx = next(i for i, s in enumerate(bundled.steps) if isinstance(s, Propagate))
    step = bundled.steps[idx]
    bad = dataclasses.replace(step, color=1 - step.color)
    result = verify_certificate(q_graph, _replace_step(bundled, idx, bad))
    assert not result.valid
    assert result.failed_step == idx


def test_corrupted_witness_invalid(q_graph, bundled):
    idx = next(
        i
        for i, s in enumerate(bundled.steps)
        if isinstance(s, WlogFix) and len(s.alternatives) == 1
    )
    step = bundled.steps[idx]
    alt_vertex, _ = step.alternatives[0]
    wrong = ((0, 1, 0), (1, 0, 0), (0, 0, 1))  # maps neither the vertex nor colors right
    bad = dataclasses.replace(step, alternatives=((alt_vertex, wrong),))
    result = verify_certificate(q_graph, _replace_step(bundled, idx, bad))
    assert not result.valid
    assert result.failed_step == idx


def _mutations(step):
    """Corrupted variants of one step: flipped colors, broken witnesses,
    dropped alternatives, swapped-in wrong vertices."""
    if isinstance(step, WlogFix):
        yield dataclasses.replace(step, color=1 - step.color)
        alt_vertex, g = step.alternatives[0]
        broken = (g[2], g[1], g[0])  # wrong permutation, same entries
        yield dataclasses.replace(step, alternatives=((alt_vertex, broken),))
        yield dataclasses.replace(step, alternatives=())
    elif isinstance(step, Propagate):
        yield dataclasses.replace(step, color=1 - step.color)
        wrong = ((1, 2, 3),) + step.context[1:]
        yield dataclasses.replace(step, context=wrong)
    else:
        yield Contradiction(vertex=(1, 0, 0))


@pytest.mark.parametrize("index", range(18))
def test_every_single_step_mutation_is_caught(q_graph, bundled, index):
    for mutant in _mutations(bundled.steps[index]):
        cert = _replace_step(bundled, index, mutant)
        assert not verify_certificate(q_graph, cert).valid


def test_unknown_vertex_invalid(q_graph, bundled):
    bad = Certificate(
        (Propagate(((9, 9, 1), (1, 0, 0)), (1, 0, 0), 0),) + bundled.steps
    )
    result = verify_certificate(q_graph, bad)
    assert not result.valid
    assert result.failed_step == 0


def test_wlog_needs_vertex_set_closure(bundled):
    # on a non-invariant graph the very first witness fails the onto check
    partial = build_graph(
        VectorSet.from_iterable(list(build_Qn(1)) + list(build_Qn(2)) + [(1, 2, 3)])
    )
    result = verify_certificate(partial, Certificate(bundled.steps[:1]))
    assert not result.valid
    assert "onto" in result.reason


WLOG_ALL_ZERO = (
    "wlog 1 0 0 -> 0\nwlog 0 1 0 -> 0\nwlog 0 0 1 -> 0\n"
    "contradiction context 1 0 0 , 0 1 0 , 0 0 1\n"
)
WLOG_TWO_ONES = "wlog 1 0 0 -> 1\nwlog 0 1 0 -> 1\ncontradiction context 1 0 0 , 0 1 0\n"


@pytest.mark.parametrize("case", ["basis all zero", "S(455) two ones", "bundled no alternatives"])
def test_wlog_must_cover_a_context(bundled, case):
    # a wlog step is sound only when some vertex of {vertex} + alternatives
    # must take its color; without that rule all three would replay Valid
    if case == "basis all zero":
        g, cert = build_graph(build_Qn(1)), parse_certificate(WLOG_ALL_ZERO)
    elif case == "S(455) two ones":
        g, cert = build_graph(enumerate_S(455, 10)), parse_certificate(WLOG_TWO_ONES)
    else:
        g = build_graph(build_Q())
        cert = _replace_step(bundled, 0, dataclasses.replace(bundled.steps[0], alternatives=()))
    if case != "bundled no alternatives":
        assert solve(g).satisfiable
    result = verify_certificate(g, cert)
    assert not result.valid
    assert result.failed_step == 0
    assert "cover no context" in result.reason


def test_wlog_zero_on_an_edge_is_accepted():
    # one end of the edge {(1,0,0), (0,1,0)} is 0, and a swap carries it onto (1,0,0)
    cert = parse_certificate(
        "wlog 1 0 0 -> 0 alt 0 1 0 via 0 1 0 1 0 0 0 0 1\n"
        "wlog 0 1 0 -> 0 alt 0 0 1 via 1 0 0 0 0 1 0 1 0\n"
        "propagate 1 0 0 , 0 1 0 , 0 0 1 => 0 0 1 -> 1\n"
    )
    result = verify_certificate(build_graph(build_Qn(1)), cert)
    assert result.reason == "no contradiction reached"


def test_colors_other_than_zero_and_one_are_refused():
    # with a third color, a triple holding 0, 0, 2 would count as violated on a SAT set
    steps = (
        "wlog 1 0 0 -> 0 alt 0 1 0 via 0 1 0 1 0 0 0 0 1\n"
        "wlog 0 1 0 -> 0 alt 0 0 1 via 1 0 0 0 0 1 0 1 0\n"
        "propagate 1 0 0 , 0 1 0 , 0 0 1 => 0 0 1 -> {}\n"
        "contradiction context 1 0 0 , 0 1 0 , 0 0 1\n"
    )
    with pytest.raises(ValueError, match="line 3: expected color 0 or 1"):
        parse_certificate(steps.format(2))
    with pytest.raises(ValueError, match="line 1: expected color 0 or 1"):
        parse_certificate("wlog 1 0 0 -> 2\n")
    cert = parse_certificate(steps.format(1))
    bad = _replace_step(cert, 2, dataclasses.replace(cert.steps[2], color=2))
    result = verify_certificate(build_graph(build_Qn(1)), bad)
    assert not result.valid and result.failed_step == 2
    bad = _replace_step(cert, 0, dataclasses.replace(cert.steps[0], color=2))
    result = verify_certificate(build_graph(build_Qn(1)), bad)
    assert not result.valid and result.failed_step == 0


def test_contradiction_not_forced(q_graph):
    cert = Certificate((Contradiction(vertex=(-3, 8, 2)),))
    result = verify_certificate(q_graph, cert)
    assert not result.valid


def test_basis_wlog_is_the_bundled_first_step(bundled):
    assert certificate.BASIS_WLOG == bundled.steps[0]


BASIS_WLOG = "wlog 1 0 0 -> 1 alt 0 1 0 via 0 1 0 1 0 0 0 0 1 alt 0 0 1 via 0 0 1 0 1 0 1 0 0\n"
BASIS_ZEROS = ("propagate 1 0 0 , 0 1 0 , 0 0 1 => 0 1 0 -> 0\n"
               "propagate 1 0 0 , 0 1 0 , 0 0 1 => 0 0 1 -> 0\n")


@pytest.mark.parametrize("tail, reason", [
    (BASIS_ZEROS + "contradiction vertex 0 1 0\n", "vertex (0, 1, 0) is not forced to both colors"),
    ("contradiction context 1 0 0 , 0 1 0 , 0 0 1\n", "cited context is not fully assigned"),
    (BASIS_ZEROS + "contradiction context 1 0 0 , 0 1 0 , 0 0 1\n", "cited context is not violated"),
    (BASIS_ZEROS, "no contradiction reached"),
])
def test_contradiction_must_hold(tail, reason):
    result = verify_certificate(build_graph(build_Qn(1)), parse_certificate(BASIS_WLOG + tail))
    assert (result.valid, result.reason) == (False, reason)


def test_format_refuses_what_is_not_a_step():
    with pytest.raises(TypeError, match="not a certificate step"):
        format_certificate(Certificate(((1, 0, 0),)))


def test_context_contradiction_form():
    g = build_graph(build_Qn(1))
    cert = parse_certificate(
        "propagate 1 0 0 , 0 1 0 , 0 0 1 => 1 0 0 -> 1\n"  # not forced
    )
    result = verify_certificate(g, cert)
    assert not result.valid and result.failed_step == 0


WLOG_FORM = "expected 'wlog X Y Z -> C [alt X' Y' Z' via G11 G12 G13 G21 G22 G23 G31 G32 G33]...'"
PROPAGATE_FORM = "expected 'propagate X1 Y1 Z1 , X2 Y2 Z2 [ , X3 Y3 Z3 ] => X Y Z -> C'"
MALFORMED = [
    ("wlog 1 0 0 1", WLOG_FORM),  # missing '->'
    ("propagate 1 0 0 , 0 1 0 => 0 1 0 0", PROPAGATE_FORM),
    ("wlog 1 0 0 -> 1 alt 0 1 0 via 0 1 0 1 0 0 0 0", WLOG_FORM),  # short alt group
    ("propagate 1 0 0 , 0 1 0 , 0 0 1 , 1 1 0 => 1 0 0 -> 0", "context must have 2 or 3 vectors"),
    ("contradiction context 1 0 0", "context must have 2 or 3 vectors"),
    ("wlog 1 0 0 -> 1 extra", WLOG_FORM),  # trailing token
    ("wlog 1 0 0 -> 1 alt 0 1 0 by 0 1 0 1 0 0 0 0 1", WLOG_FORM),
    ("wlog 1 0 0 -> 1 also 0 1 0 via 0 1 0 1 0 0 0 0 1", WLOG_FORM),
    ("propagate 1 0 0 0 0 1 0 => 0 1 0 -> 0", "context must have 2 or 3 vectors"),  # no comma
    ("propagate 1 0 0 , 0 1 0 => 0 1 0 -> 0 0", PROPAGATE_FORM),
    ("contradiction vertex 1 0 0 0", "expected 'contradiction vertex X Y Z'"),
    ("propagate 1 0 x , 0 1 0 => 0 1 0 -> 0", "expected integer, got 'x'"),
    ("wlog 1 0 0 -> 1 alt 0 1 0 via 0 1 0 1 0 0 0 0 y", "expected integer, got 'y'"),
    ("contradiction vertex 1 0.5 0", "expected integer, got '0.5'"),
    ("propagate 1 0 0 , 0 1 0 => 0 1 0 -> +1", "expected color 0 or 1, got '+1'"),
]


def test_parse_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_certificate("wlog 1 0 -> 1")
    with pytest.raises(ValueError, match="unknown step kind"):
        parse_certificate("frobnicate 1 0 0")
    with pytest.raises(ValueError, match="vertex' or 'context"):
        parse_certificate("contradiction 1 0 0")
    for line, message in MALFORMED:
        with pytest.raises(ValueError) as exc:
            parse_certificate(line)
        assert str(exc.value) == f"line 1: {message}"


def test_parse_error_forms_are_the_readme_forms():
    block = README.read_text(encoding="utf-8").split("**Certificate**", 1)[1]
    for form in certificate._FORMS.values():
        assert form in block


def test_parse_takes_integers_as_int_does():
    assert parse_certificate("contradiction vertex +1 0 -0\n") == Certificate(
        (Contradiction(vertex=(1, 0, 0)),))


_vectors = st.tuples(*[st.integers(-9, 9)] * 3)
_contexts = st.lists(_vectors, min_size=2, max_size=3).map(tuple)
_colors = st.sampled_from([0, 1])
_steps = st.one_of(
    st.builds(WlogFix, _vectors, _colors, st.lists(
        st.tuples(_vectors, st.sampled_from(signed_permutations())), max_size=2).map(tuple)),
    st.builds(Propagate, _contexts, _vectors, _colors),
    st.builds(lambda v: Contradiction(vertex=v), _vectors),
    st.builds(lambda c: Contradiction(context=c), _contexts),
)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_steps, max_size=4), data=st.data())
def test_text_round_trip(steps, data):
    cert = Certificate(tuple(steps))
    text = format_certificate(cert)
    assert parse_certificate(text) == cert
    # any run of blanks around a line and between tokens; a comma may hug its neighbours
    blanks, spaced = st.sampled_from([" ", "  ", "\t", " \t"]), []
    for line in text.splitlines():
        words = line.split(" ")
        spaced.append(data.draw(blanks) + "".join(
            a + data.draw(st.sampled_from(["", " "]) if "," in (a, b) else blanks)
            for a, b in zip(words, words[1:])) + words[-1] + data.draw(blanks))
    assert parse_certificate("\n".join(spaced)) == cert


def test_parse_ignores_comments_and_blanks(bundled):
    text = "# header\n\n" + format_certificate(bundled) + "\n# trailer\n"
    assert parse_certificate(text) == bundled
