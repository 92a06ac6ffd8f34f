"""Subgroup closure, Hadamard checking, rank/kernel oracles, file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_code import DiminoSpan, hadamard_diagnosis, kernel_by_translation

import z2z4q8.code
from z2z4q8.algebra import AmbientSpace, gray, inverse, mul, render_element, sort_key
from z2z4q8.code import (
    BinaryCode,
    ClosureSizeError,
    CodeGroup,
    OracleMismatch,
    ParseError,
    closure,
    export_binary,
    generators_text,
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


def _elements(space):
    return st.builds(
        lambda z2, z4, q8: space.element(z2=z2, z4=z4, q8=q8),
        st.tuples(*[st.integers(0, 1)] * space.k1),
        st.tuples(*[st.integers(0, 3)] * space.k2),
        st.tuples(*[st.integers(0, 7)] * space.k3))


@st.composite
def _generator_lists(draw, spaces=SPAN_SPACES, max_size=5):
    space = draw(st.sampled_from(spaces))
    return space, draw(st.lists(_elements(space), max_size=max_size))


@settings(max_examples=300, deadline=None)
@given(_generator_lists(), st.integers(1, 600))
def test_span_matches_worklist_closure(case, cap):
    space, gens = case
    reached = _worklist_closure(gens, space)
    if len(reached) > cap:
        with pytest.raises(ClosureSizeError):
            closure(gens, space, cap)
        return
    assert set(closure(gens, space, cap).elements) == reached
    span = CodeGroup(space, gens)
    assert span.members == reached
    assert len(span) == len(reached)
    assert len(span) & (len(span) - 1) == 0
    assert span.generators == tuple(gens)  # every element added, spanned or not


@settings(max_examples=300, deadline=None)
@given(_generator_lists(max_size=4), st.data())
def test_span_agrees_with_dimino_reference(case, data):
    space, gens = case
    g = data.draw(_elements(space))
    span, ref = CodeGroup(space, gens), DiminoSpan(space, gens)
    assert span.generators == tuple(gens)
    probes = data.draw(st.lists(st.sampled_from(ref.elements) | _elements(space),
                                min_size=1, max_size=8))
    assert [x in span for x in probes] == [x in ref for x in probes]
    listed, size = span.members, len(span)
    twin = span.copy()
    twin.add(g)
    assert len(span) == size and span.members == listed
    span.add(g)  # span was listed before this add
    ref.add(g)
    for grown in (span, twin):
        assert grown.members == ref.members
        assert len(grown) == len(ref)
        assert grown.generators == tuple(gens) + (g,)


def test_span_extends_by_non_normalizing_elements():
    space = AmbientSpace(0, 0, 2)
    for first, second in ((("a", "b"), ("b", "1")), (("a", "a"), ("b", "a"))):
        h, g = space.element(q8=first), space.element(q8=second)
        span = CodeGroup(space, [h])
        assert mul(mul(g, h), inverse(g)) not in span  # g does not normalize <h>
        twin = span.copy()
        twin.add(g)
        assert len(span) == 4 and g not in span
        assert twin.members == _worklist_closure([h, g], space)
        assert len(twin) == 16 and twin.generators == (h, g)
    # There the product set <h><g> has only 8 elements: extending a span by
    # the powers of g alone is wrong when g does not normalize it.
    assert len({mul(x, y) for x in CodeGroup(space, [h]).members
                for y in CodeGroup(space, [g]).members}) == 8


@settings(max_examples=400, deadline=None)
@given(_generator_lists(SPAN_SPACES + [AmbientSpace(0, 3, 2)], max_size=6))
def test_log2_order_matches_span(case):
    space, gens = case
    assert 1 << log2_order(gens) == len(DiminoSpan(space, gens))


@settings(max_examples=200, deadline=None)
@given(_generator_lists(max_size=3), st.data())
def test_listings_follow_add(case, data):
    # members, elements and gray_image listed before an add are listed again
    # after it, whether the add grew the group or not.
    space, gens = case
    group, ref = CodeGroup(space, gens), DiminoSpan(space, gens)
    for _ in range(3):
        g = data.draw(st.sampled_from(ref.elements) | _elements(space))
        assert group.members and group.elements and group.gray_image
        group.add(g)
        ref.add(g)
        assert group.members == ref.members
        assert group.elements == tuple(sorted(ref.members, key=sort_key))
        assert group.gray_image.words == tuple(sorted(gray(x) for x in ref.members))


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
        assert verdict, verdict.detail


def test_hadamard_rejects_wrong_size():
    code = BinaryCode(4, [0, 0b1111])
    verdict = is_hadamard(code)
    assert not verdict and "size" in verdict.detail


def test_hadamard_rejects_bad_weight():
    words = [0b0000, 0b1111, 0b0011, 0b1100, 0b0101, 0b1010, 0b0001, 0b1110]
    verdict = is_hadamard(BinaryCode(4, words))
    assert not verdict and "weight" in verdict.detail


def test_hadamard_requires_all_ones():
    ok = is_hadamard(BinaryCode(2, [0b00, 0b01, 0b10, 0b11]))
    assert ok  # length 2: the trivial Hadamard code
    missing = BinaryCode(4, [0, 0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100, 0b0111])
    assert not is_hadamard(missing)


def test_weight_and_distance_helpers():
    # Words are packed ints, first bit most significant: a weight is a
    # popcount, a distance the popcount of an XOR, and BinaryCode keeps the
    # words sorted and refuses one longer than n bits.
    w1, w2 = 0b110100, 0b101001
    assert w1.bit_count() == 3
    assert (w1 ^ w2).bit_count() == 4
    assert (w1 ^ w1).bit_count() == 0
    code = BinaryCode(6, [w1, 0, w2])
    assert code.words == (0, w2, w1) and len(code) == 3
    assert w1 in code and w1 ^ w2 not in code
    with pytest.raises(ValueError, match="word length mismatch"):
        BinaryCode(5, [0, w1])


### Kernel cosets and the pairwise clause ###################################


def _span(basis):
    words = {0}
    for b in basis:
        words |= {w ^ b for w in words}
    return words


# The extended Hamming code [8, 4, 4], a linear Hadamard code of length 8,
# with the complementary pair 00001111, 11110000 swapped for 00010111,
# 11101000: still 16 words with 0, the all-ones word and weights 0, 4, 8.
HAMMING_8 = _span([0b11110000, 0b11001100, 0b10101010, 0b11111111])
SWAPPED_8 = sorted(HAMMING_8 - {0b00001111, 0b11110000} | {0b00010111, 0b11101000})


def test_pair_diagnosis_names_the_first_bad_pair():
    code = BinaryCode(8, SWAPPED_8)
    assert code.kernel_cosets == ((0, 255), (0, 23, 51, 60, 85, 90, 102, 105))
    verdict = is_hadamard(code)
    # 00010111 and 00110011, the first bad pair in word order, are at
    # distance 2; later pairs such as 00010111, 11001100 are at distance 6.
    assert not verdict
    assert verdict.detail == "pair at distance 2 (allowed 4, 8)"
    assert verdict.detail == hadamard_diagnosis(8, SWAPPED_8)
    assert is_hadamard(BinaryCode(8, sorted(HAMMING_8)))
    assert BinaryCode(8, sorted(HAMMING_8)).kernel_cosets == (tuple(sorted(HAMMING_8)), (0,))


class _CountingSet(frozenset):
    probes = 0

    def __contains__(self, item):
        type(self).probes += 1
        return frozenset.__contains__(self, item)


def test_kernel_cosets_tests_each_failed_coset_once(monkeypatch):
    # K = all words below 16 comes first in word order, so it is found
    # before any other word is tried.  Accepting its four basis words probes
    # |C| + |C|/2 + |C|/4 + |C|/8 = 2(|C| - |reps|) representatives; each of
    # the three other cosets is then tried once, at most |reps| probes each.
    # Trying every word of a failed coset again would take 48 tries.
    reps = (0, 16, 32, 64)
    code = BinaryCode(8, sorted(k | r for k in range(16) for r in reps))
    monkeypatch.setattr(_CountingSet, "probes", 0)
    code.members = _CountingSet(code.members)
    kernel, got_reps = code.kernel_cosets
    assert kernel == tuple(range(16)) and got_reps == reps
    assert _CountingSet.probes <= 2 * (len(code) - len(reps)) + (len(reps) - 1) * len(reps)


HALF_WEIGHT = {n: [w for w in range(1 << n) if w.bit_count() == n // 2] for n in (4, 8, 16)}


@st.composite
def _word_sets(draw):
    """Sets with 0 of 2n words of length n (or about 2n) of weight n/2:
    unions of cosets of a random subspace, then perhaps a word swapped for
    another, so that the set is no union of cosets, or one word of any
    weight added."""
    n = draw(st.sampled_from(sorted(HALF_WEIGHT)))
    full = (1 << n) - 1
    half = HALF_WEIGHT[n]
    word = st.sampled_from(half)
    basis = draw(st.lists(word, max_size=2)) + [full] * draw(st.booleans())
    kernel = _span(basis)
    words = set(kernel)
    shuffled = draw(st.randoms(use_true_random=False)).sample(half, min(4 * n, len(half)))
    for r in [full] * draw(st.booleans()) + shuffled:
        if len(words) < 2 * n:
            words |= {r ^ k for k in kernel}
    if draw(st.booleans()):
        swap_in = draw(word)
        if swap_in not in words:
            words.discard(draw(st.sampled_from(sorted(words - {0}))))
            words.add(swap_in)
    if draw(st.integers(0, 9)) == 0:
        words.add(draw(st.integers(0, full)))
    return n, sorted(words)


@settings(max_examples=400, deadline=None)
@given(_word_sets())
def test_binary_checks_match_pairwise_references(case):
    n, words = case
    code = BinaryCode(n, words)
    kernel, reps = code.kernel_cosets
    assert kernel == kernel_bruteforce(code)
    assert list(kernel) == kernel_by_translation(words)
    # C is the disjoint union of the cosets r + K, r the least word of each.
    assert len(reps) * len(kernel) == len(words)
    assert {r ^ z for r in reps for z in kernel} == set(words)
    assert all(r == min(r ^ z for z in kernel) for r in reps)
    verdict = is_hadamard(code)
    assert verdict.detail == hadamard_diagnosis(n, words)
    assert verdict.ok == (verdict.detail == "")


def test_rank_kernel_report_checks_the_cosets(monkeypatch):
    group = build_reference_code(REFERENCE_FAMILY_B.codes[2])
    code = group.gray_image
    kernel, reps = code.kernel_cosets
    code.__dict__["kernel_cosets"] = (kernel, reps[:-1])
    with pytest.raises(OracleMismatch, match="kernel cosets do not rebuild the code"):
        rank_kernel_report(group)
    code.__dict__["kernel_cosets"] = (kernel, reps)
    assert rank_kernel_report(group).k == 3
    by_swappers = z2z4q8.code.kernel_by_swappers
    monkeypatch.setattr(z2z4q8.code, "kernel_by_swappers",
                        lambda group: by_swappers(group)[:-1])
    with pytest.raises(OracleMismatch, match="kernel oracles disagree"):
        rank_kernel_report(group)


### GF(2) helpers ############################################################


def test_gf2_rank_known_matrix():
    rows = [0b1100, 0b0110, 0b1010, 0b0001]
    assert gf2_rank(rows) == 3
    assert gf2_rank([]) == 0
    assert gf2_rank([0]) == 0


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
            translated = {w ^ z for w in code.words}
            assert translated == set(code.words)


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
    assert (gx ^ gy).bit_count() == lee
