"""Acceptance suite: one test per acceptance criterion, in order.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Construction cost for the shared corpus is recorded by the
session fixture and charged to the criterion that owns it (reference
families to criteria 3-4, the coverage sweep to criterion 6), so the time
budgets asserted here include the real build work.
"""

import random
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from reference_algebra import same_elements
from reference_code import DiminoSpan, hadamard_diagnosis, kernel_by_translation

from z2z4q8.algebra import (
    AmbientSpace,
    commutator,
    gray,
    mul,
    square,
    swapper,
)
from z2z4q8.code import (
    BinaryCode,
    closure,
    generators_text,
    is_hadamard,
    kernel_bruteforce,
    kernel_by_swappers,
    rank_by_span_group,
    rank_gf2,
)
from z2z4q8.construct import (
    ConstructionError,
    all_allowable_pairs,
    allowable_pairs,
    construct_for,
    shape_parameter_range,
)
from z2z4q8.reference import (
    REFERENCE_FAMILY_A,
    REFERENCE_FAMILY_B,
    build_reference_code,
)
from z2z4q8.structure import (
    SHAPE_LABELS,
    SHAPES,
    allowable_cases,
    is_normal_subgroup,
    measure,
    standardize,
    verify_duplication,
    verify_table3,
)

SWEEP_RANGE = range(3, 8)  # lengths 8 .. 128
SCALE_PAIRS = ((9, 9), (7, 10), (5, 10))  # the m = 8 benchmark pairs
# Benchmark goldens: the generator file of every sweep code, read only here.
GOLDEN_GENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens" / "gens"


### Shared corpus ############################################################


@dataclass
class Corpus:
    """Everything the acceptance criteria construct, built once."""

    sweep: dict  # (m, k, r) -> (group, report)
    sweep_failures: list  # (m, k, r, message)
    sweep_seconds: float
    family_a: list  # (reference, group, report)
    family_a_seconds: float
    family_b: list
    family_b_seconds: float

    def all_codes(self):
        for key, (group, report) in sorted(self.sweep.items()):
            yield f"sweep m={key[0]} k={key[1]} r={key[2]}", group, report
        for ref, group, report in self.family_a + self.family_b:
            yield f"reference {ref.name}", group, report


@pytest.fixture(scope="session")
def corpus():
    t0 = time.monotonic()
    sweep, failures = {}, []
    for m in SWEEP_RANGE:
        for k, r in sorted(all_allowable_pairs(m)):
            try:
                sweep[(m, k, r)] = construct_for(m, k, r)
            except ConstructionError as exc:
                failures.append((m, k, r, str(exc)))
    sweep_seconds = time.monotonic() - t0

    def build_family(family):
        start = time.monotonic()
        rows = [(ref, group, standardize(group))
                for ref in family.codes
                for group in [build_reference_code(ref)]]
        return rows, time.monotonic() - start

    family_a, family_a_seconds = build_family(REFERENCE_FAMILY_A)
    family_b, family_b_seconds = build_family(REFERENCE_FAMILY_B)
    return Corpus(sweep, failures, sweep_seconds,
                  family_a, family_a_seconds, family_b, family_b_seconds)


### Criterion 1: Gray images and class tables ################################

GRAY_Q8 = {"1": "0000", "a": "0101", "a2": "1111", "a3": "1010",
           "b": "0110", "ab": "1100", "a2b": "1001", "a3b": "0011"}
GRAY_Z4 = {0: "00", 1: "01", 2: "11", 3: "10"}
SWAPPER_Z4 = ((0, 0), (0, 2))
COMMUTATOR_Z4 = ((0, 0), (0, 0))
SWAPPER_Q8 = ((0, 0, 0, 0), (0, 2, 2, 0), (0, 0, 2, 2), (0, 2, 0, 2))
COMMUTATOR_Q8 = ((0, 0, 0, 0), (0, 0, 2, 2), (0, 2, 0, 2), (0, 2, 2, 0))

Z4_SPACE = AmbientSpace(0, 1, 0)
Q8_SPACE = AmbientSpace(0, 0, 1)


def test_criterion_1_gray_images_and_class_tables_exact():
    t0 = time.monotonic()
    for name, bits in GRAY_Q8.items():
        assert f"{gray(Q8_SPACE.element(q8=(name,))):04b}" == bits
    for v, bits in GRAY_Z4.items():
        assert f"{gray(Z4_SPACE.element(z4=(v,))):02b}" == bits
    for x in range(4):
        for y in range(4):
            a, b = Z4_SPACE.element(z4=(x,)), Z4_SPACE.element(z4=(y,))
            assert swapper(a, b).z4[0] == SWAPPER_Z4[x % 2][y % 2]
            assert commutator(a, b).z4[0] == COMMUTATOR_Z4[x % 2][y % 2]
    for x in range(8):
        for y in range(8):
            a, b = Q8_SPACE.element(q8=(x,)), Q8_SPACE.element(q8=(y,))
            row, col = (x % 2) + 2 * (x >= 4), (y % 2) + 2 * (y >= 4)
            assert swapper(a, b).q8[0] == SWAPPER_Q8[row][col]
            assert commutator(a, b).q8[0] == COMMUTATOR_Q8[row][col]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: 12 Gray images and 96 table cells exact "
          f"({elapsed:.3f}s)")


### Criterion 2: the seven swapper/commutator identities #####################


def _assert_seven_identities(a, b, c):
    space = a.space
    e, u = space.identity(), space.all_ones()
    ab = mul(a, b)
    assert commutator(a, b) == commutator(b, a)                          # 1
    assert swapper(ab, c) == mul(swapper(a, c), swapper(b, c))           # 2
    assert swapper(c, ab) == mul(swapper(c, a), swapper(c, b))           # 2
    assert commutator(ab, c) == mul(commutator(a, c), commutator(b, c))  # 3
    assert mul(swapper(a, b), swapper(b, a)) == commutator(a, b)         # 4
    assert swapper(a, a) == square(a)                                    # 5
    if square(a) == e:                                                   # 6
        assert commutator(a, b) == e
        assert swapper(a, b) == e and swapper(b, a) == e
    if square(a) == u and commutator(a, b) == e:                         # 7
        assert swapper(a, b) == square(b) and swapper(b, a) == square(b)


def test_criterion_2_seven_identities_exhaustive_and_random():
    for space, size in ((Z4_SPACE, 4), (Q8_SPACE, 8)):
        values = [space.element(z4=(v,)) if size == 4 else space.element(q8=(v,))
                  for v in range(size)]
        for a in values:
            for b in values:
                for c in values:
                    _assert_seven_identities(a, b, c)
    rng = random.Random(20260823)
    mixed = AmbientSpace(2, 2, 2)

    def draw():
        return mixed.element(
            z2=(rng.randrange(2), rng.randrange(2)),
            z4=(rng.randrange(4), rng.randrange(4)),
            q8=(rng.randrange(8), rng.randrange(8)))

    for _ in range(10_000):
        _assert_seven_identities(draw(), draw(), draw())
    print("criterion 2 PASS: identities hold on 576 exhaustive one-component "
          "triples and 10000 random mixed triples")


### Criterion 3: six length-128 reference codes ##############################


def test_criterion_3_reference_family_a_exact(corpus):
    t0 = time.monotonic()
    expected = [(6, 9), (5, 11), (4, 12), (4, 11), (4, 10), (4, 9)]
    got = []
    for ref, group, report in corpus.family_a:
        assert is_hadamard(BinaryCode.from_group(group))
        assert report.shape == "2"
        assert (report.profile.sigma, report.profile.tau) == (4, 3)
        mes = measure(group, report)
        assert (mes.k, mes.r) == (ref.expected_k, ref.expected_r)
        assert mes.case == ref.expected_case
        got.append((mes.k, mes.r))
    assert got == expected
    elapsed = corpus.family_a_seconds + time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 3 PASS: six codes in Q8^32 give (k,r) {expected}, "
          f"all Hadamard, shape 2, sigma=4, tau=3 ({elapsed:.2f}s)")


### Criterion 4: three length-32 reference codes #############################


def test_criterion_4_reference_family_b_exact(corpus):
    t0 = time.monotonic()
    expected = [(4, 7), (3, 9), (3, 8)]
    got = []
    for ref, group, report in corpus.family_b:
        assert is_hadamard(BinaryCode.from_group(group))
        assert report.shape == "3"
        assert (report.profile.sigma, report.profile.tau) == (3, 2)
        mes = measure(group, report)
        assert (mes.k, mes.r) == (ref.expected_k, ref.expected_r)
        got.append((mes.k, mes.r))
    assert got == expected
    elapsed = corpus.family_b_seconds + time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 4 PASS: three codes in Z4^4 Q8^6 give (k,r) {expected}, "
          f"shape 3, sigma=3, tau=2 ({elapsed:.2f}s)")


### Criterion 5: rank/kernel oracle equivalence ##############################


def test_criterion_5_oracle_equivalence_on_all_codes(corpus):
    t0 = time.monotonic()
    count = 0
    for label, group, _ in corpus.all_codes():
        code = BinaryCode.from_group(group)
        assert set(kernel_by_swappers(group)) == set(kernel_bruteforce(code)), label
        assert rank_by_span_group(group) == rank_gf2(code), label
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 5 PASS: kernel and rank oracles agree on {count} codes "
          f"({elapsed:.2f}s)")


def _rank_by_enumeration(group):
    """Reference for rank_by_span_group: list all 2^r elements of the span
    group and take log2 of their number."""
    swappers = tuple(swapper(gi, gj)
                     for i, gi in enumerate(group.generators)
                     for gj in group.generators[i + 1:])
    return len(DiminoSpan(group.space, group.generators + swappers)).bit_length() - 1


def test_rank_by_span_group_matches_enumeration(corpus):
    checked = 0
    for label, group, _ in corpus.all_codes():
        r = rank_gf2(group.gray_image)
        if r <= 14:
            assert rank_by_span_group(group) == _rank_by_enumeration(group) == r, label
            checked += 1
    assert checked == len(list(corpus.all_codes())) == 36


def _swap_one_word(words, n):
    """The sorted words with the largest one of weight n/2 swapped for a
    word of weight n/2 outside the set (one 1 moved onto a 0)."""
    members = set(words)
    w = max(x for x in words if x.bit_count() == n // 2)
    ones = [b for b in range(n) if w >> b & 1]
    zeros = [b for b in range(n) if not w >> b & 1]
    x = next(y for i in ones for j in zeros
             if (y := w ^ (1 << i) ^ (1 << j)) not in members)
    return sorted(members - {w} | {x})


def test_binary_checks_match_pairwise_references(corpus):
    codes = [(label, group) for label, group, _ in corpus.all_codes()]
    codes += [(f"scale m=8 k={k} r={r}", construct_for(8, k, r)[0])
              for k, r in SCALE_PAIRS]
    assert len(codes) == 39
    for label, group in codes:
        code = group.gray_image
        words = list(code.words)
        assert list(kernel_bruteforce(code)) == kernel_by_translation(words), label
        assert is_hadamard(code) and hadamard_diagnosis(code.n, words) == "", label
        swapped = _swap_one_word(words, code.n)
        verdict = is_hadamard(BinaryCode(code.n, swapped))
        assert not verdict, label
        assert verdict.detail == hadamard_diagnosis(code.n, swapped), label


### Criterion 6: coverage sweep over every shape and allowable pair ##########


def _case_4c_pairs(m):
    """All (k, r) values printed for the open-ended case-4c rank ranges."""
    pairs = set()
    for shape, row in SHAPES.items():
        for sigma, tau in shape_parameter_range(m, shape):
            tau_bar = tau - 1 if row.u_square else tau
            cases = allowable_cases(m, sigma, tau, tau_bar, row.upsilon)
            if "4c" in cases:
                k, ranks = cases["4c"]
                pairs.update((k, r) for r in ranks)
    return pairs


def test_criterion_6_coverage_sweep_all_shapes(corpus):
    t0 = time.monotonic()
    measured = {}
    for m in SWEEP_RANGE:
        seen = set()
        for shape in SHAPE_LABELS:
            for sigma, tau in shape_parameter_range(m, shape):
                seen.update(allowable_pairs(m, shape, sigma, tau))
        # The per-shape union is exactly the advertised table for this length.
        assert seen == set(all_allowable_pairs(m))
        for k, r in sorted(seen):
            if (m, k, r) in corpus.sweep:
                group, report = corpus.sweep[(m, k, r)]
                # measure() re-derives (k, r) from the oracles and raises
                # unless the matched case formula agrees.
                mes = measure(group, report)
                assert (mes.k, mes.r) == (k, r)
                measured[(m, k, r)] = mes.case
                golden = GOLDEN_GENS / f"m{m}-k{k}-r{r}.gens"
                assert generators_text(group) == golden.read_text(), golden.name
    # Anything that failed to build must lie in a case-4c printed range;
    # those are reported here rather than silently skipped.
    for m, k, r, message in corpus.sweep_failures:
        assert (k, r) in _case_4c_pairs(m), \
            f"non-4c pair m={m} (k,r)=({k},{r}) failed: {message}"
        print(f"unreachable case-4c range value: m={m} k={k} r={r}: {message}")
    elapsed = corpus.sweep_seconds + time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 6 PASS: {len(measured)} (m,k,r) targets constructed, "
          f"re-measured exactly and byte-identical to their golden generator "
          f"files, {len(corpus.sweep_failures)} case-4c range values reported "
          f"unreachable ({elapsed:.2f}s)")


### Criterion 7: structural invariants on every code #########################


def test_criterion_7_structural_invariants(corpus):
    count = 0
    for label, group, report in corpus.all_codes():
        quotient = len(group) // len(report.abelian_max)
        assert quotient in (1, 2, 4), label
        assert quotient == 2 ** report.profile.upsilon, label
        assert is_normal_subgroup(group, report.abelian_max), label
        assert verify_table3(report, group.space), label
        assert verify_duplication(report), label
        count += 1
    print(f"criterion 7 PASS: abelian-quotient size, normality, parameter "
          f"table, and duplication hold on {count} codes")


### Criterion 8: standardization round-trip ##################################


def test_criterion_8_standardization_roundtrip(corpus):
    count = 0
    for label, group, report in corpus.all_codes():
        regen = closure(report.std_gens.all_generators(), group.space)
        assert same_elements(regen, group), label
        assert standardize(regen).shape == report.shape, label
        count += 1
    print(f"criterion 8 PASS: standard generators regenerate all {count} "
          f"codes with unchanged shape labels")
