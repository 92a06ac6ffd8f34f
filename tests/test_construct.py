"""Construction pipeline: base codes, lifts, dials, planner, target scan."""

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_algebra import same_elements
from reference_construct import lift_elementwise

import z2z4q8.construct as construct
from z2z4q8.algebra import order, square
from z2z4q8.code import BinaryCode, closure, generators_text, is_hadamard
from z2z4q8.construct import (
    BaseHadamardSpec,
    ConstructionError,
    ConstructionPlan,
    NotAllowableError,
    all_allowable_pairs,
    allowable_pairs,
    base_hadamard,
    build_from_plan,
    build_s_generators,
    construct_for,
    lift_to_A,
    make_plan,
)
from z2z4q8.structure import SHAPE_LABELS, SHAPES, measure, shape_parameter_range

GOLDENS = Path(__file__).parent / "goldens"


### Base codes ###############################################################


@pytest.mark.parametrize("gamma,delta,usq", [
    (1, 1, True), (0, 2, True), (2, 1, True), (1, 2, True),
    (1, 1, False), (2, 1, False), (2, 2, False),
    (3, 0, False), (5, 0, False),
])
def test_base_hadamard_valid_types(gamma, delta, usq):
    spec = BaseHadamardSpec(gamma, delta, usq)
    group = base_hadamard(spec)
    assert len(group) == 2 ** (gamma + 2 * delta)
    assert group.space.n == 2 ** spec.m
    assert is_hadamard(BinaryCode.from_group(group))
    has_u_square = any(
        order(c) == 4 and square(c) == group.space.all_ones()
        for c in group.elements)
    assert has_u_square == usq


def test_base_hadamard_type_counts_mixed():
    group = base_hadamard(BaseHadamardSpec(2, 2, False))
    # 2^gamma 4^delta with sigma = gamma + delta: binary block 2^(sigma-1),
    # quaternary block (2^delta - 1) * 2^(sigma-2).
    assert (group.space.k1, group.space.k2) == (8, 12)


def test_base_hadamard_type_counts_quaternary():
    group = base_hadamard(BaseHadamardSpec(2, 2, True))
    assert (group.space.k1, group.space.k2) == (0, 16)


@pytest.mark.parametrize("gamma,delta,usq", [
    (0, 0, False), (0, 0, True), (2, 0, True), (0, 1, False), (-1, 1, True),
])
def test_base_hadamard_invalid_specs(gamma, delta, usq):
    with pytest.raises(ConstructionError):
        BaseHadamardSpec(gamma, delta, usq)


def test_binary_only_base_is_first_order_reed_muller():
    group = base_hadamard(BaseHadamardSpec(4, 0, False))
    code = BinaryCode.from_group(group)
    assert code.n == 8 and len(code) == 16
    from z2z4q8.code import rank_gf2
    assert rank_gf2(code) == 4  # m + 1 = 4: linear


### Lifting ##################################################################


def test_chi_maps():
    # Lifts act entrywise: chi1 sends a binary 0, 1 to 0, 2 in Z4, chi2 sends
    # a quaternary x to a^x in Q8, and chi3 duplicates a coordinate.
    chi1 = {0: 0, 1: 2}
    chi2 = {0: "1", 1: "a", 2: "a2", 3: "a3"}
    mixed = base_hadamard(BaseHadamardSpec(2, 1, False))
    for c, image in zip(mixed.generators, lift_to_A(mixed, "3").generators):
        assert image == image.space.element(
            z4=[chi1[x] for x in c.z2], q8=[chi2[x] for x in c.z4])
    quaternary = base_hadamard(BaseHadamardSpec(1, 2, True))
    for c, image in zip(quaternary.generators, lift_to_A(quaternary, "5").generators):
        assert image == image.space.element(q8=[v for x in c.z4 for v in (chi2[x], chi2[x])])


def test_lift_shapes_and_sizes():
    quaternary = base_hadamard(BaseHadamardSpec(1, 2, True))
    mixed = base_hadamard(BaseHadamardSpec(2, 1, False))
    for base, shape, expected_space in [
        (quaternary, "2", (0, 0, 8)),
        (quaternary, "4*", (0, 8, 4)),
        (quaternary, "5", (0, 0, 16)),
        (mixed, "3", (0, 4, 2)),
        (mixed, "4", (8, 0, 2)),
    ]:
        lifted = lift_to_A(base, shape)
        sp = lifted.space
        assert (sp.k1, sp.k2, sp.k3) == expected_space
        assert len(lifted) == len(base)
        assert len(set(lifted.elements)) == len(base)


def test_lift_rejects_wrong_base_kind():
    quaternary = base_hadamard(BaseHadamardSpec(1, 2, True))
    mixed = base_hadamard(BaseHadamardSpec(2, 1, False))
    for base, shape in [(quaternary, "3"), (quaternary, "4"),
                        (mixed, "2"), (mixed, "4*"), (mixed, "5"),
                        (mixed, "1")]:
        with pytest.raises(ConstructionError):
            lift_to_A(base, shape)


def test_lift_preserves_group_structure():
    base = base_hadamard(BaseHadamardSpec(1, 2, True))
    lifted = lift_to_A(base, "2")
    regen = closure(lifted.generators, lifted.space)
    assert same_elements(regen, lifted)


def _lift_cases():
    """Every base a lifted window of m = 3..10 builds, and the shape-4 and
    4* fixture bases of test_structure."""
    for m in range(3, 11):
        for shape in ("2", "3", "5"):
            for sigma, tau in shape_parameter_range(m, shape):
                yield BaseHadamardSpec(sigma - tau, tau, SHAPES[shape].u_square), shape
    yield BaseHadamardSpec(2, 1, False), "4"
    yield BaseHadamardSpec(0, 2, True), "4*"


def test_lift_matches_elementwise_reference():
    cases = list(_lift_cases())
    assert len(cases) == 52
    for spec, shape in cases:
        base = base_hadamard(spec)
        lifted = lift_to_A(base, shape)
        space, gens, mapped = lift_elementwise(base, shape)
        assert lifted.space == space, (spec, shape)
        assert lifted.generators == gens, (spec, shape)
        assert lifted.members == mapped, (spec, shape)


def test_plan_and_build_share_one_abelian_part(monkeypatch):
    built = []
    real = construct.base_hadamard
    monkeypatch.setattr(construct, "base_hadamard",
                        lambda spec: built.append(spec) or real(spec))
    shape, sigma, tau = all_allowable_pairs(5)[(3, 8)]
    assert shape == "2"
    construct._abelian_part.cache_clear()
    first, _ = construct_for(5, 3, 8)
    second, _ = construct_for(5, 3, 8)
    assert len(built) == 1 and first.elements == second.elements
    construct._abelian_part.cache_clear()
    built.clear()
    build_from_plan(make_plan(5, shape, sigma, tau, 3, 8))
    assert len(built) == 1


### Allowable pairs ##########################################################


def test_allowable_pairs_frozen_family_a_parameters():
    assert allowable_pairs(7, "2", 4, 3) == {
        (6, 9), (5, 11), (4, 9), (4, 10), (4, 11), (4, 12)}


def test_allowable_pairs_frozen_family_b_parameters():
    assert allowable_pairs(5, "3", 3, 2) == {(4, 7), (3, 8), (3, 9)}


def test_allowable_pairs_abelian():
    assert allowable_pairs(7, "1", 8, 0) == {(8, 8)}
    assert allowable_pairs(7, "1", 7, 1) == {(8, 8)}
    assert allowable_pairs(7, "1", 6, 2) == {(6, 9)}
    assert allowable_pairs(7, "1*", 7, 1) == {(8, 8)}
    assert allowable_pairs(7, "1*", 6, 2) == {(8, 8)}
    assert allowable_pairs(7, "1*", 5, 3) == {(6, 9)}


def test_allowable_pairs_shape5():
    assert allowable_pairs(5, "5", 2, 2) == {(6, 6), (4, 7), (2, 8)}
    assert allowable_pairs(7, "5", 4, 2) == {(8, 8), (6, 9), (4, 10)}


def test_allowable_pairs_tau1_small_length_is_linear_only():
    assert allowable_pairs(3, "2", 2, 1) == {(4, 4)}
    assert allowable_pairs(4, "2", 3, 1) == {(5, 5), (3, 6)}


def test_allowable_pairs_drops_intermediate_kernel_at_sigma_eq_tau():
    # sigma == tau: every torsion element is a square, so the middle kernel
    # value is unreachable.
    pairs = allowable_pairs(6, "2", 3, 3)
    assert pairs == {(5, 8), (3, 8), (3, 9), (3, 10), (3, 11)}
    assert (4, 10) not in pairs
    # One length up the middle value exists.
    assert (5, 11) in allowable_pairs(7, "2", 4, 3)


def test_allowable_pairs_golden():
    # goldens/allowable_pairs.txt: the sorted pairs of every (sigma, tau)
    # window of every shape label at lengths 8 .. 4096.
    lines = []
    for m in range(3, 13):
        for shape in SHAPE_LABELS:
            for sigma, tau in shape_parameter_range(m, shape):
                pairs = sorted(allowable_pairs(m, shape, sigma, tau))
                lines.append(f"m={m} shape={shape} sigma={sigma} tau={tau}: "
                             + " ".join(f"{k},{r}" for k, r in pairs))
    assert lines == (GOLDENS / "allowable_pairs.txt").read_text().splitlines()


def test_allowable_pairs_rejects_bad_parameters():
    with pytest.raises(ConstructionError):
        allowable_pairs(7, "2", 5, 3)  # sigma must be m - tau
    with pytest.raises(ConstructionError):
        allowable_pairs(7, "4", 6, 1)  # shape 4 needs even m
    with pytest.raises(ConstructionError):
        allowable_pairs(4, "5", 1, 2)  # shape 5 needs sigma >= 2
    with pytest.raises(ConstructionError):
        allowable_pairs(5, "3", 2, 3)  # tau window
    with pytest.raises(ConstructionError):
        allowable_pairs(5, "9", 3, 2)


def test_all_allowable_pairs_m3_is_linear_only():
    assert set(all_allowable_pairs(3)) == {(4, 4)}


def test_all_allowable_pairs_m5():
    table = all_allowable_pairs(5)
    assert set(table) == {(6, 6), (4, 7), (3, 8), (3, 9), (2, 8)}
    assert table[(6, 6)][0] == "1"
    assert table[(3, 9)][0] == "3"
    assert table[(2, 8)][0] == "5"


### Plans ####################################################################


def test_plan_roundtrip():
    plan = make_plan(7, "2", 4, 3, 4, 11)
    assert plan.dial  # a rank dial is present


def test_plan_rejects_unallowable_target():
    with pytest.raises(ConstructionError):
        ConstructionPlan(m=7, shape="2", sigma=4, tau=3, target_k=7, target_r=9)


def test_build_s_generators_validates_dial():
    plan = make_plan(5, "3", 3, 2, 3, 9)
    a_group = lift_to_A(base_hadamard(BaseHadamardSpec(1, 2, False)), "3")
    bad = ConstructionPlan(m=5, shape="3", sigma=3, tau=2, target_k=3,
                           target_r=9, dial=(99,))
    with pytest.raises(ConstructionError):
        build_s_generators(a_group, bad)
    good = build_s_generators(a_group, plan)
    assert len(good) == 1


### Direct builds of every recipe ############################################

DIRECT_ROUTES = [
    # (m, shape, sigma, tau, k, r, expected_case)
    (4, "1", 3, 2, 3, 6, "1c"),
    (5, "1*", 3, 3, 4, 7, "1b"),
    (6, "2", 5, 1, 7, 7, "2a"),
    (6, "2", 5, 1, 5, 8, "2b"),
    (6, "2", 4, 2, 7, 7, "3a"),
    (6, "2", 4, 2, 5, 8, "3b"),
    (6, "2", 4, 2, 4, 9, "3c"),
    (6, "2", 3, 3, 5, 8, "4a"),
    (7, "2", 4, 3, 5, 11, "4b"),
    (6, "2", 3, 3, 3, 9, "4c"),
    (6, "3", 4, 2, 5, 8, "4a"),
    (6, "3", 4, 2, 4, 9, "4c"),
    (5, "5", 2, 2, 6, 6, "5a"),
    (5, "5", 2, 2, 4, 7, "5b"),
    (5, "5", 2, 2, 2, 8, "5c"),
]


@pytest.mark.parametrize("m,shape,sigma,tau,k,r,case", DIRECT_ROUTES)
def test_direct_route(m, shape, sigma, tau, k, r, case):
    plan = make_plan(m, shape, sigma, tau, k, r)
    group, report = build_from_plan(plan)
    assert report.shape == shape
    assert (report.profile.sigma, report.profile.tau) == (sigma, tau)
    mes = measure(group, report)
    assert (mes.k, mes.r, mes.case) == (k, r, case)
    assert is_hadamard(BinaryCode.from_group(group))


def test_build_from_plan_rejects_wrong_dial():
    plan = ConstructionPlan(m=5, shape="3", sigma=3, tau=2, target_k=3,
                            target_r=8, dial=(0, 1, 2, 3, 4, 5))
    with pytest.raises(ConstructionError):
        build_from_plan(plan)


### construct_for ############################################################


def test_construct_for_linear():
    group, report = construct_for(4, 5, 5)
    assert report.shape == "1"
    mes = measure(group, report)
    assert (mes.k, mes.r) == (5, 5)


def test_construct_for_prefers_abelian_when_possible():
    group, report = construct_for(5, 4, 7)
    assert report.shape == "1"  # also reachable via shapes 3 and 5


def test_construct_for_reference_targets():
    for m, k, r in [(7, 4, 12), (5, 4, 7), (5, 3, 8), (5, 3, 9)]:
        group, report = construct_for(m, k, r)
        mes = measure(group, report)
        assert (mes.k, mes.r) == (k, r)


def test_construct_for_rejects_with_nearest_pairs():
    with pytest.raises(NotAllowableError) as exc:
        construct_for(4, 4, 9)
    assert exc.value.nearest
    assert all(pair in all_allowable_pairs(4) for pair in exc.value.nearest)


def test_construct_for_rejects_forbidden_kernel_gap():
    # kernel dimension m is never achievable for a nonlinear code
    with pytest.raises(NotAllowableError):
        construct_for(5, 5, 7)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 5), st.integers(1, 7), st.integers(1, 9))
def test_construct_for_total_behavior(m, k, r):
    """Any request either raises the allowability error or round-trips."""
    try:
        group, report = construct_for(m, k, r)
    except NotAllowableError:
        assert (k, r) not in all_allowable_pairs(m)
    else:
        mes = measure(group, report)
        assert (mes.k, mes.r) == (k, r)


@pytest.mark.xfail(strict=True, raises=ConstructionError,
                   reason="known gap: at m=8 the shape-2 (sigma=4, tau=4) dials with one "
                          "ab-type value per component class reach only (4,13..16) and "
                          "(6,12), not the case-4c pair (4,12)")
def test_construct_for_m8_k4_r12_gap():
    assert all_allowable_pairs(8)[(4, 12)] == ("2", 4, 4)
    group, report = construct_for(8, 4, 12)
    mes = measure(group, report)
    assert (mes.k, mes.r) == (4, 12)


@pytest.mark.xfail(strict=True, raises=ConstructionError,
                   reason="known gap: the case-4c bottom rank base + C(tau-1, 2) at "
                          "tau >= 4 is measured one too high, as at m=8 (4,12)")
@pytest.mark.parametrize("m, k, r, sigma, tau",
                         [(9, 5, 13, 5, 4), (10, 5, 17, 5, 5), (10, 6, 14, 6, 4)])
def test_construct_for_case_4c_bottom_gaps(m, k, r, sigma, tau):
    assert all_allowable_pairs(m)[(k, r)] == ("2", sigma, tau)
    construct_for(m, k, r)


def test_construct_for_m8_top_rank():
    # The top rank at m = 8: its span group has 2^16 elements.
    group, report = construct_for(8, 4, 16)
    mes = measure(group, report)
    assert (mes.k, mes.r) == (4, 16)


def test_construct_for_m10_linear():
    # Length 1024, 2048 codewords, all in the kernel: the Hadamard check
    # and the binary kernel see one coset and no pairs.
    group, report = construct_for(10, 11, 11)
    assert report.shape == "1"
    mes = measure(group, report)
    assert (mes.k, mes.r) == (11, 11)
    assert group.gray_image.kernel_cosets[1] == (0,)


def test_construct_for_m8_m9_generator_files_pinned():
    # goldens/sweep_m8_m9.txt: shape, case and the sha256 of the generator
    # file of every pair construct_for builds at m = 8..9.  The two case-4c
    # gaps pinned by the xfails above are left out.
    gaps = {(8, 4, 12), (9, 5, 13)}
    lines = []
    for m in (8, 9):
        for k, r in sorted(all_allowable_pairs(m)):
            if (m, k, r) in gaps:
                continue
            group, report = construct_for(m, k, r)
            digest = hashlib.sha256(generators_text(group).encode()).hexdigest()
            lines.append(f"m={m} k={k} r={r} shape={report.shape} "
                         f"case={measure(group, report).case} sha256={digest}")
    assert lines == (GOLDENS / "sweep_m8_m9.txt").read_text().splitlines()
