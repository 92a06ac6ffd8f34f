"""Subgroup closure, Hadamard checking, rank/kernel oracles, file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2z4q8.algebra import AmbientSpace, BinaryWord, gray, inverse, mul, render_element
from z2z4q8.code import (
    BinaryCode,
    ClosureSizeError,
    ParseError,
    Span,
    closure,
    export_binary,
    generators_text,
    gf2_basis,
    gf2_rank,
    is_hadamard,
    kernel_bruteforce,
    kernel_by_swappers,
    log2_order,
    rank_by_span_group,
    rank_gf2,
    rank_kernel_report,
    read_generators,
)
from z2z4q8.construct import BaseHadamardSpec, base_hadamard
from z2z4q8.reference import REFERENCE_FAMILY_B, build_reference_code


@pytest.fixture(scope="module")
def sample_codes():
    """Small Hadamard code groups across all three base kinds."""
    groups = [
        base_hadamard(BaseHadamardSpec(4, 0, False)),  # binary only, m=3
        base_hadamard(BaseHadamardSpec(2, 1, True)),  # quaternary, m=3
        base_hadamard(BaseHadamardSpec(2, 1, False)),  # mixed, m=3
        base_hadamard(BaseHadamardSpec(1, 2, True)),  # quaternary, m=4
        build_reference_code(REFERENCE_FAMILY_B.codes[2]),  # nonabelian, m=5
    ]
    return groups


### Closure ##################################################################


def test_closure_single_q8_component():
    space = AmbientSpace(0, 0, 1)
    group = closure([space.element(q8=("a",)), space.element(q8=("b",))], space)
    assert len(group) == 8
    assert group.log2_order == 3


def test_closure_is_sorted_canonically():
    space = AmbientSpace(0, 1, 0)
    group = closure([space.element(z4=(1,))], space)
    assert [render_element(x) for x in group.elements] == sorted(
        render_element(x) for x in group.elements)


def test_closure_respects_cap():
    space = AmbientSpace(0, 0, 2)
    gens = [space.element(q8=("a", "1")), space.element(q8=("1", "a")),
            space.element(q8=("b", "1")), space.element(q8=("1", "b"))]
    with pytest.raises(ClosureSizeError):
        closure(gens, space, cap=16)


def test_closure_rejects_mixed_spaces():
    with pytest.raises(ValueError):
        closure([AmbientSpace(0, 0, 1).element(q8=("a",)),
                 AmbientSpace(0, 1, 0).element(z4=(1,))])


def _worklist_closure(generators, space):
    """Reference enumerator: multiply every reached element by every generator."""
    seen = {space.identity()}
    work = [space.identity()]
    while work:
        x = work.pop()
        for g in generators:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                work.append(y)
    return seen


SPAN_SPACES = [AmbientSpace(0, 0, 2), AmbientSpace(0, 0, 3),
               AmbientSpace(1, 1, 2), AmbientSpace(2, 2, 1)]


@st.composite
def _generator_lists(draw, spaces=SPAN_SPACES, max_size=5):
    space = draw(st.sampled_from(spaces))
    element = st.builds(
        lambda z2, z4, q8: space.element(z2=z2, z4=z4, q8=q8),
        st.tuples(*[st.integers(0, 1)] * space.k1),
        st.tuples(*[st.integers(0, 3)] * space.k2),
        st.tuples(*[st.integers(0, 7)] * space.k3))
    return space, draw(st.lists(element, max_size=max_size))


@settings(max_examples=300, deadline=None)
@given(_generator_lists(), st.integers(1, 600))
def test_span_matches_worklist_closure(case, cap):
    space, gens = case
    expected_gens, reached = [], {space.identity()}
    for g in gens:
        if g not in reached:
            expected_gens.append(g)
            reached = _worklist_closure(expected_gens, space)
    if len(reached) > cap:
        with pytest.raises(ClosureSizeError):
            Span(space, gens, cap)
        return
    span = Span(space, gens, cap)
    assert span.members == reached
    assert len(span) == len(reached)  # no element listed twice
    assert len(span) & (len(span) - 1) == 0
    assert span.generators == expected_gens


def test_span_extends_by_non_normalizing_elements():
    space = AmbientSpace(0, 0, 2)
    for first, second in ((("a", "b"), ("b", "1")), (("a", "a"), ("b", "a"))):
        h, g = space.element(q8=first), space.element(q8=second)
        span = Span(space, [h])
        assert mul(mul(g, h), inverse(g)) not in span  # g does not normalize <h>
        twin = span.copy()
        twin.add(g)
        assert len(span) == 4 and g not in span
        assert twin.members == _worklist_closure([h, g], space)
        assert len(twin) == 16 and twin.generators == [h, g]
    # There the product set <h><g> has only 8 elements: extending a span by
    # the powers of g alone is wrong when g does not normalize it.
    assert len({mul(x, y) for x in Span(space, [h]).elements
                for y in Span(space, [g]).elements}) == 8


@settings(max_examples=400, deadline=None)
@given(_generator_lists(SPAN_SPACES + [AmbientSpace(0, 3, 2)], max_size=6))
def test_log2_order_matches_span(case):
    space, gens = case
    assert 1 << log2_order(gens) == len(Span(space, gens))


def test_codegroup_membership(sample_codes):
    group = sample_codes[0]
    assert group.elements[0] in group
    outsider = group.space.element(z2=(1,) + (0,) * (group.space.k1 - 1))
    in_group = outsider in group
    assert isinstance(in_group, bool)


### Hadamard oracle ##########################################################


def test_sample_codes_are_hadamard(sample_codes):
    for group in sample_codes:
        verdict = is_hadamard(BinaryCode.from_group(group))
        assert verdict, verdict.diagnosis


def test_hadamard_rejects_wrong_size():
    code = BinaryCode(4, [BinaryWord(4, 0), BinaryWord(4, 0b1111)])
    verdict = is_hadamard(code)
    assert not verdict and "size" in verdict.diagnosis


def test_hadamard_rejects_bad_weight():
    words = [BinaryWord(4, w) for w in
             (0b0000, 0b1111, 0b0011, 0b1100, 0b0101, 0b1010, 0b0001, 0b1110)]
    verdict = is_hadamard(BinaryCode(4, words))
    assert not verdict and "weight" in verdict.diagnosis


def test_hadamard_requires_all_ones():
    words = [BinaryWord(2, 0b00), BinaryWord(2, 0b01), BinaryWord(2, 0b10),
             BinaryWord(2, 0b11)]
    ok = is_hadamard(BinaryCode(2, words))
    assert ok  # length 2: the trivial Hadamard code
    missing = BinaryCode(4, [BinaryWord(4, w) for w in
                             (0, 0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100, 0b0111)])
    assert not is_hadamard(missing)


def test_weight_and_distance_helpers():
    w1, w2 = BinaryWord(6, 0b110100), BinaryWord(6, 0b101001)
    assert w1.weight() == 3
    assert (w1 ^ w2).weight() == 4
    assert (w1 ^ w1).weight() == 0


### GF(2) helpers ############################################################


def test_gf2_rank_known_matrix():
    rows = [0b1100, 0b0110, 0b1010, 0b0001]
    assert gf2_rank(rows) == 3
    assert gf2_rank([]) == 0
    assert gf2_rank([0]) == 0


def test_gf2_basis_spans_input():
    rows = [0b1100, 0b0110, 0b1010, 0b0011]
    basis = gf2_basis(rows)
    assert len(basis) == gf2_rank(rows)
    span = {0}
    for b in basis:
        span |= {s ^ b for s in span}
    assert all(r in span for r in rows)


### Rank and kernel: two independent routes ##################################


def test_rank_oracles_agree(sample_codes):
    for group in sample_codes:
        code = BinaryCode.from_group(group)
        assert rank_gf2(code) == rank_by_span_group(group)


def test_kernel_oracles_agree(sample_codes):
    for group in sample_codes:
        code = BinaryCode.from_group(group)
        assert set(kernel_bruteforce(code)) == set(kernel_by_swappers(group))


def test_linear_code_has_full_kernel():
    group = base_hadamard(BaseHadamardSpec(4, 0, False))  # binary, m=3
    report = rank_kernel_report(group)
    assert report.k == report.r == 4  # m+1 for a linear Hadamard code


def test_rank_kernel_report_nonlinear():
    group = build_reference_code(REFERENCE_FAMILY_B.codes[2])
    report = rank_kernel_report(group)
    assert (report.k, report.r) == (3, 8)


def test_kernel_words_translate_code(sample_codes):
    for group in sample_codes[:3]:
        code = BinaryCode.from_group(group)
        for z in kernel_by_swappers(group):
            translated = {w ^ z.bits for w in code.word_ints}
            assert translated == set(code.word_ints)


### File formats #############################################################


def test_generator_file_roundtrip(sample_codes):
    for group in sample_codes:
        text = generators_text(group)
        space, gens = read_generators(text)
        assert space == group.space
        assert tuple(gens) == tuple(group.generators)


def test_generator_file_rejects_bad_header():
    with pytest.raises(ParseError):
        read_generators("not a header\n")
    with pytest.raises(ParseError):
        read_generators("space 1 2\n")
    with pytest.raises(ParseError):
        read_generators("")
    with pytest.raises(ParseError):
        read_generators("space 1 0 0\n")  # no generators


def test_generator_file_rejects_bad_line():
    with pytest.raises(ParseError):
        read_generators("space 0 0 1\n |  | qq\n")


def test_export_binary_shape(sample_codes):
    group = sample_codes[1]
    text = export_binary(BinaryCode.from_group(group))
    lines = text.strip().split("\n")
    n = group.space.n
    assert len(lines) == 2 * n
    assert all(len(line) == n and set(line) <= {"0", "1"} for line in lines)
    assert lines == sorted(lines)


def test_gray_injective_on_groups(sample_codes):
    for group in sample_codes:
        code = BinaryCode.from_group(group)
        assert len(code) == len(group)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3))
def test_z4_gray_distance_matches_lee_distance(x, y):
    space = AmbientSpace(0, 1, 0)
    gx, gy = gray(space.element(z4=(x,))), gray(space.element(z4=(y,)))
    lee = min((x - y) % 4, (y - x) % 4)
    assert (gx ^ gy).weight() == lee
