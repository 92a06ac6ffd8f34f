"""Subgroup closure, Hadamard checking, rank/kernel oracles, file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from z2z4q8.algebra import AmbientSpace, BinaryWord, gray, render_element
from z2z4q8.code import (
    BinaryCode,
    ClosureSizeError,
    ParseError,
    closure,
    export_binary,
    generators_text,
    gf2_basis,
    gf2_rank,
    is_hadamard,
    kernel_bruteforce,
    kernel_by_swappers,
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
