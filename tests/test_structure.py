"""Structural analysis: classification, standardization, measurement,
parameter-table and duplication verification.

Golden expectations come from the two bundled reference families and from
hand-built length-16 codes covering the two shapes that the constructor
never emits on its own.
"""

import re
from dataclasses import replace

import pytest
from reference_algebra import same_elements

import z2z4q8.structure
from z2z4q8.algebra import AmbientSpace, commutator, inverse, mul, order
from z2z4q8.code import BinaryCode, closure, is_hadamard, rank_kernel_report
from z2z4q8.construct import (
    BaseHadamardSpec,
    all_allowable_pairs,
    base_hadamard,
    construct_for,
    lift_to_A,
)
from z2z4q8.reference import (
    REFERENCE_FAMILY_A,
    REFERENCE_FAMILY_B,
    build_reference_code,
)
from z2z4q8.structure import (
    SHAPE_LABELS,
    CheckResult,
    CodeProfile,
    StructureError,
    center,
    classify_shape,
    is_normal_subgroup,
    measure,
    render_report,
    shape_parameter_range,
    standardize,
    torsion,
    verify_duplication,
    verify_table3,
)


@pytest.fixture(scope="module")
def family_b_reports():
    out = []
    for ref in REFERENCE_FAMILY_B.codes:
        group = build_reference_code(ref)
        report = standardize(group)
        out.append((ref, group, report))
    return out


def _manual_code(base_spec, shape, **s1_parts):
    a_group = lift_to_A(base_hadamard(base_spec), shape)
    s1 = a_group.space.element(**s1_parts)
    return closure(tuple(a_group.generators) + (s1,), a_group.space)


@pytest.fixture(scope="module")
def shape4_codes():
    """Length-16 codes classifying as shape 4 (linear and nonlinear)."""
    spec = BaseHadamardSpec(2, 1, False)
    alternating = (1, 0, 1, 0, 1, 0, 1, 0)
    return {
        "linear": _manual_code(spec, "4", z2=alternating, q8=("b", "b")),
        "nonlinear": _manual_code(spec, "4", z2=alternating, q8=("b", "ab")),
    }


@pytest.fixture(scope="module")
def shape4star_codes():
    """Length-16 codes classifying as shape 4*."""
    spec = BaseHadamardSpec(0, 2, True)
    return {
        "linear": _manual_code(spec, "4*", z4=(0, 2, 0, 2), q8=("b", "b")),
        "nonlinear": _manual_code(spec, "4*", z4=(0, 2, 0, 2), q8=("b", "ab")),
    }


### Subgroup operators #######################################################


def test_torsion_and_center_single_q8():
    space = AmbientSpace(0, 0, 1)
    q8 = closure([space.element(q8=("a",)), space.element(q8=("b",))], space)
    t = torsion(q8)
    z = center(q8)
    assert {x.q8[0] for x in t.elements} == {0, 2}
    assert same_elements(t, z)


def test_torsion_and_center_generators_are_bases():
    # A CodeGroup keeps every generator it is given; torsion and center add
    # only elements not yet spanned, so on these codes each generator doubles
    # the order.
    groups = [construct_for(m, k, r)[0] for m in range(3, 8)
              for k, r in sorted(all_allowable_pairs(m))]
    groups += [build_reference_code(ref)
               for family in (REFERENCE_FAMILY_A, REFERENCE_FAMILY_B) for ref in family.codes]
    assert len(groups) == 27 + 9
    for group in groups:
        for sub in (torsion(group), center(group)):
            assert len(sub.generators) == sub.log2_order


def test_standardize_scans_torsion_and_center_once(monkeypatch):
    calls = []
    for name in ("torsion", "center"):
        scan = getattr(z2z4q8.structure, name)
        monkeypatch.setattr(z2z4q8.structure, name,
                            lambda group, scan=scan: calls.append(scan.__name__) or scan(group))
    group = build_reference_code(REFERENCE_FAMILY_B.codes[2])
    report = standardize(group)
    assert sorted(calls) == ["center", "torsion"]
    assert report.shape == classify_shape(group)


def _layer_sizes(group):
    """(sigma, delta, rho): log2 of |T|, |Z/T| and |C/Z|."""
    sigma, z = torsion(group).log2_order, center(group).log2_order
    return sigma, z - sigma, group.log2_order - z


def test_layer_sizes_on_q8():
    # For Q8 itself the center equals the torsion subgroup, so delta = 0.
    space = AmbientSpace(0, 0, 1)
    q8 = closure([space.element(q8=("a",)), space.element(q8=("b",))], space)
    assert _layer_sizes(q8) == (1, 0, 2)


def test_layer_sizes_abelian():
    space = AmbientSpace(2, 1, 0)
    group = closure([space.element(z2=(1, 0), z4=(0,)),
                     space.element(z2=(0, 1), z4=(0,)),
                     space.element(z2=(0, 0), z4=(1,))], space)
    assert _layer_sizes(group) == (3, 1, 0)


def test_is_normal_subgroup():
    space = AmbientSpace(0, 1, 1)
    group = closure([space.element(z4=(1,), q8=("b",)),
                     space.element(z4=(0,), q8=("a",))], space)
    sub_normal = closure([space.element(z4=(0,), q8=("a",))], space)
    sub_skew = closure([space.element(z4=(1,), q8=("b",))], space)
    assert is_normal_subgroup(group, sub_normal)
    assert not is_normal_subgroup(group, sub_skew)


### Classification ###########################################################


def test_classify_abelian_shapes():
    space = AmbientSpace(2, 0, 0)
    binary = closure([space.element(z2=(1, 0)), space.element(z2=(0, 1))], space)
    assert classify_shape(binary) == "1"
    z4sp = AmbientSpace(0, 1, 0)
    quaternary = closure([z4sp.element(z4=(1,))], z4sp)
    assert classify_shape(quaternary) == "1*"
    mixed_sp = AmbientSpace(2, 1, 0)
    mixed = closure([mixed_sp.element(z2=(1, 1), z4=(2,)),
                     mixed_sp.element(z2=(0, 1), z4=(1,))], mixed_sp)
    assert classify_shape(mixed) == "1"


def test_classify_families(family_b_reports):
    for _, group, _ in family_b_reports:
        assert classify_shape(group) == "3"


def test_classify_manual_shapes(shape4_codes, shape4star_codes):
    for group in shape4_codes.values():
        assert classify_shape(group) == "4"
    for group in shape4star_codes.values():
        assert classify_shape(group) == "4*"


def test_classify_rejects_large_center_quotient():
    space = AmbientSpace(0, 2, 1)
    group = closure([space.element(z4=(1, 0), q8=("1",)),
                     space.element(z4=(0, 1), q8=("1",)),
                     space.element(z4=(0, 0), q8=("a",)),
                     space.element(z4=(0, 0), q8=("b",))], space)
    with pytest.raises(StructureError):
        classify_shape(group)


### Standardization and measurement: golden families #########################


def test_family_b_profiles(family_b_reports):
    fam = REFERENCE_FAMILY_B
    for ref, group, report in family_b_reports:
        assert report.shape == fam.shape
        assert report.profile.m == fam.m
        assert report.profile.sigma == fam.sigma
        assert report.profile.tau == fam.tau
        assert report.profile.upsilon == 1
        assert report.profile.tau_bar == 2


def test_family_b_measurements(family_b_reports):
    for ref, group, report in family_b_reports:
        mes = measure(group, report)
        assert (mes.k, mes.r, mes.case) == (
            ref.expected_k, ref.expected_r, ref.expected_case)


def test_family_a_single_code():
    # One family-A code as a unit test; the full six live in the acceptance run.
    ref = REFERENCE_FAMILY_A.codes[0]
    group = build_reference_code(ref)
    assert len(group) == 256
    report = standardize(group)
    assert report.shape == "2"
    assert (report.profile.sigma, report.profile.tau) == (4, 3)
    assert report.torsion.log2_order == 4
    mes = measure(group, report)
    assert (mes.k, mes.r, mes.case) == (6, 9, "4a")


def test_family_a_torsion_regenerated():
    # Only one torsion row is listed explicitly; the rest must close up.
    ref = REFERENCE_FAMILY_A.codes[0]
    group = build_reference_code(ref)
    assert torsion(group).log2_order == 4


### Manual shape-4 / shape-4* instances ######################################


def test_shape4_measurements(shape4_codes):
    expectations = {"linear": (5, 5, "2a"), "nonlinear": (3, 6, "2b")}
    for tag, group in shape4_codes.items():
        assert is_hadamard(BinaryCode.from_group(group))
        report = standardize(group)
        assert report.shape == "4"
        assert (report.profile.sigma, report.profile.tau) == (3, 1)
        mes = measure(group, report)
        assert (mes.k, mes.r, mes.case) == expectations[tag]
        assert verify_table3(report, group.space)
        assert verify_duplication(report)


def test_shape4star_measurements(shape4star_codes):
    expectations = {"linear": (5, 5, "3a"), "nonlinear": (3, 6, "3b")}
    for tag, group in shape4star_codes.items():
        assert is_hadamard(BinaryCode.from_group(group))
        report = standardize(group)
        assert report.shape == "4*"
        assert (report.profile.sigma, report.profile.tau) == (2, 2)
        assert report.profile.delta == 1
        mes = measure(group, report)
        assert (mes.k, mes.r, mes.case) == expectations[tag]
        assert verify_table3(report, group.space)
        assert verify_duplication(report)


@pytest.mark.parametrize("profile,message", [
    pytest.param(CodeProfile(m=3, sigma=2, tau=1, tau_bar=1, upsilon=1, delta=0, rho=2),
                 "case 2b is not allowed for profile CodeProfile(m=3, sigma=2, tau=1,",
                 id="2b-needs-m-above-3"),
    pytest.param(CodeProfile(m=5, sigma=4, tau=1, tau_bar=1, upsilon=1, delta=0, rho=2),
                 "case mismatch: tag 2b predicts k=4, r in [7,7], measured k=3, r=6",
                 id="2b-predicts-another-pair"),
])
def test_measure_rejects_case_the_profile_does_not_predict(shape4_codes, profile, message):
    group = shape4_codes["nonlinear"]
    report = replace(standardize(group), profile=profile)
    with pytest.raises(StructureError, match=re.escape(message)):
        measure(group, report)


### Report structure and invariants ##########################################


def test_standard_generators_satisfy_relations(family_b_reports):
    for _, group, report in family_b_reports:
        u = group.space.all_ones()
        rs = report.std_gens.r
        assert all(order(r) == 4 for r in rs)
        for i, r1 in enumerate(rs):
            for r2 in rs[i + 1:]:
                assert commutator(r1, r2) == group.space.identity()
        s1 = report.std_gens.s[0]
        assert commutator(rs[0], s1) != group.space.identity()


def test_standardize_regenerates_group(family_b_reports):
    for _, group, report in family_b_reports:
        regen = closure(report.std_gens.all_generators(), group.space)
        assert same_elements(regen, group)
        assert standardize(regen).shape == report.shape


def test_abelian_part_properties(family_b_reports):
    for _, group, report in family_b_reports:
        a_group = report.abelian_max
        assert 2 * len(a_group) == len(group)  # upsilon = 1
        assert is_normal_subgroup(group, a_group)
        for x in a_group.elements:
            assert x in group


def test_profile_arithmetic(family_b_reports):
    for _, _, report in family_b_reports:
        p = report.profile
        assert p.sigma + p.delta + p.rho - 1 == p.m
        assert p.m + 1 == p.sigma + p.tau + p.upsilon
        assert p.upsilon in (0, 1, 2)


def test_measure_matches_oracles(family_b_reports):
    for _, group, report in family_b_reports:
        rk = rank_kernel_report(group)
        mes = measure(group, report)
        assert (mes.k, mes.r) == (rk.k, rk.r)


@pytest.fixture(scope="module")
def validation_codes(family_b_reports, shape4_codes, shape4star_codes):
    """(group, report) of one valid code per shape the doctored reports need."""
    _, group_b, report_b = family_b_reports[0]
    shape5 = construct_for(5, 2, 8)
    groups = {"4": shape4_codes["linear"], "4*": shape4star_codes["nonlinear"]}
    return {"B": (group_b, report_b), "5": shape5,
            **{label: (g, standardize(g)) for label, g in groups.items()}}


def _std(report, **fields):
    return replace(report, std_gens=replace(report.std_gens, **fields))


def _swap_s(report):
    s1, s2 = report.std_gens.s
    return _std(report, s=(s2, s1))


def _s2_times_r2(report):
    # (s2 r2)^2 = r2^2 != u, but [s1, s2 r2] = [s1, r2] = r2^2 != e.
    (_, r2), (s1, s2) = report.std_gens.r, report.std_gens.s
    return _std(report, s=(s1, mul(s2, r2)))


def _s1_times_y1(report):
    # Shape 4*: r1 = y1 c1 with y1 central and y1^2 c1^2 = u, so s1 y1
    # squares to u while [r1, s1 y1] = [c1, s1] = c1^2.
    (r1, c1), (s1,) = report.std_gens.r, report.std_gens.s
    return _std(report, s=(mul(s1, mul(r1, inverse(c1))),))


def _abelian_without_last_x(report):
    std = report.std_gens
    return replace(report, abelian_max=closure(std.x[:-1] + std.r + std.s))


def _abelian_with_r1_s1(report):
    # Shape 5: T with r1 and s1 has the index and normality of an abelian
    # part and contains T, but [r1, s1] = u.
    (r1, _), (s1, _) = report.std_gens.r, report.std_gens.s
    return replace(report, abelian_max=closure(report.torsion.generators + (r1, s1)))


@pytest.mark.parametrize("code, doctor, message", [
    pytest.param("B", lambda rep: _std(rep, x=rep.std_gens.x[:-1]),
                 "x generators do not span the torsion subgroup", id="x-drop-last"),
    pytest.param("B", lambda rep: _std(rep, s=()),
                 "standard generators span a different group", id="no-s"),
    pytest.param("B", lambda rep: _std(rep, r=rep.std_gens.r + rep.std_gens.s),
                 "r generators do not commute", id="s1-among-r"),
    pytest.param("5", lambda rep: _std(rep, r=rep.std_gens.r[::-1]),
                 "u is spanned by r squares but r1^2 != u", id="r-swapped"),
    pytest.param("5", lambda rep: _std(rep, r=rep.std_gens.r[:1] + rep.std_gens.r),
                 "u is spanned by the squares of r2..r_tau", id="r1-repeated"),
    pytest.param("5", _swap_s, "upsilon=2 requires s1^2 = u != s2^2", id="s-swapped"),
    pytest.param("5", _s2_times_r2, "upsilon=2 requires commuting s1, s2", id="s2-times-r2"),
    pytest.param("4*", _s1_times_y1, "r1^2 = s1^2 = u requires [r1, s1] = u",
                 id="s1-times-y1"),
    pytest.param("B", lambda rep: replace(rep, abelian_max=rep.torsion),
                 "abelian part has the wrong index", id="abelian-is-torsion"),
    pytest.param("4", _abelian_without_last_x,
                 "abelian part does not contain the torsion subgroup", id="abelian-misses-x"),
    pytest.param("5", _abelian_with_r1_s1, "abelian part is not abelian",
                 id="abelian-holds-r1-s1"),
])
def test_validate_report_names_the_failed_clause(validation_codes, code, doctor, message):
    group, report = validation_codes[code]
    z2z4q8.structure._validate_report(group, report)  # the report as built is valid
    with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
        z2z4q8.structure._validate_report(group, doctor(report))


### Verification helpers #####################################################


def test_verify_table3_wrong_space(family_b_reports):
    _, _, report = family_b_reports[0]
    wrong = AmbientSpace(0, 0, 32)
    assert not verify_table3(report, wrong)


def test_verify_table3_existence_window(family_b_reports):
    # Shape-2 counts match Q8^8 at sigma=2, tau=3, but tau > m // 2 = 2.
    _, _, report = family_b_reports[0]
    profile = CodeProfile(m=5, sigma=2, tau=3, tau_bar=2, upsilon=1, delta=0, rho=4)
    check = verify_table3(replace(report, shape="2", profile=profile),
                          AmbientSpace(0, 0, 8))
    assert not check
    assert check.detail == "shape 2 existence condition fails at m=5, sigma=2, tau=3"


# (sigma, tau) windows per label, in SHAPE_LABELS order, at m = 3 .. 10.
PARAMETER_RANGES = {
    3: ([(4, 0), (3, 1)], [(3, 1), (2, 2)], [(2, 1)], [(2, 1)], [], [], []),
    4: ([(5, 0), (4, 1), (3, 2)], [(4, 1), (3, 2)], [(3, 1), (2, 2)], [(3, 1)],
        [(3, 1)], [(2, 2)], []),
    5: ([(6, 0), (5, 1), (4, 2)], [(5, 1), (4, 2), (3, 3)], [(4, 1), (3, 2)],
        [(4, 1), (3, 2)], [], [], [(2, 2)]),
    6: ([(7, 0), (6, 1), (5, 2), (4, 3)], [(6, 1), (5, 2), (4, 3)],
        [(5, 1), (4, 2), (3, 3)], [(5, 1), (4, 2)], [(5, 1)], [(4, 2)], [(3, 2)]),
    7: ([(8, 0), (7, 1), (6, 2), (5, 3)], [(7, 1), (6, 2), (5, 3), (4, 4)],
        [(6, 1), (5, 2), (4, 3)], [(6, 1), (5, 2), (4, 3)], [], [], [(4, 2)]),
    8: ([(9, 0), (8, 1), (7, 2), (6, 3), (5, 4)], [(8, 1), (7, 2), (6, 3), (5, 4)],
        [(7, 1), (6, 2), (5, 3), (4, 4)], [(7, 1), (6, 2), (5, 3)], [(7, 1)],
        [(6, 2)], [(5, 2)]),
    9: ([(10, 0), (9, 1), (8, 2), (7, 3), (6, 4)],
        [(9, 1), (8, 2), (7, 3), (6, 4), (5, 5)], [(8, 1), (7, 2), (6, 3), (5, 4)],
        [(8, 1), (7, 2), (6, 3), (5, 4)], [], [], [(6, 2)]),
    10: ([(11, 0), (10, 1), (9, 2), (8, 3), (7, 4), (6, 5)],
         [(10, 1), (9, 2), (8, 3), (7, 4), (6, 5)],
         [(9, 1), (8, 2), (7, 3), (6, 4), (5, 5)], [(9, 1), (8, 2), (7, 3), (6, 4)],
         [(9, 1)], [(8, 2)], [(7, 2)]),
}


def test_shape_parameter_range_golden():
    assert SHAPE_LABELS == ("1", "1*", "2", "3", "4", "4*", "5")
    for m, ranges in PARAMETER_RANGES.items():
        for shape, expected in zip(SHAPE_LABELS, ranges):
            assert shape_parameter_range(m, shape) == expected, (m, shape)
    with pytest.raises(StructureError):
        shape_parameter_range(5, "9")


def test_verify_duplication_family_b(family_b_reports):
    for _, _, report in family_b_reports:
        check = verify_duplication(report)
        assert check, check.detail


def test_verify_duplication_names_unpaired_columns(family_b_reports):
    # Columns 0 and 1 pair up and column 2 is left over, on the binary side
    # (upsilon = 1) and on the Q8 side (upsilon = 2).
    binary = AmbientSpace(3, 0, 0)
    a_binary = closure([binary.element(z2=(1, 1, 0)), binary.element(z2=(0, 0, 1))])
    report = replace(family_b_reports[0][2], abelian_max=a_binary)
    assert verify_duplication(report) == CheckResult(
        False, "columns [2] have no duplicate partner")
    quaternion = AmbientSpace(0, 0, 3)
    a_q8 = closure([quaternion.element(q8=("a", "a", "1")),
                    quaternion.element(q8=("1", "1", "a"))])
    _, report = construct_for(5, 2, 8)
    assert report.profile.upsilon == 2
    assert verify_duplication(replace(report, abelian_max=a_q8)) == CheckResult(
        False, "Q8 columns [2] have no duplicate partner")


def test_check_result_is_falsy_with_detail():
    bad = CheckResult(False, "because")
    good = CheckResult(True)
    assert not bad and bad.detail == "because"
    assert good and not good.detail


def test_render_report_golden(family_b_reports):
    ref, group, report = family_b_reports[0]
    mes = measure(group, report)
    text = render_report(report, mes)
    assert text == (
        "shape=3\nm=5\nsigma=3\ntau=2\ntau_bar=2\nupsilon=1\ndelta=0\nrho=3\n"
        "k=4\nr=7\ncase=4a\n")
    assert render_report(report).endswith("rho=3\n")


def test_measure_rejects_non_power_groups():
    # A group that is not a Hadamard-code subgroup: standardization refuses.
    space = AmbientSpace(0, 2, 1)
    group = closure([space.element(z4=(1, 0), q8=("1",)),
                     space.element(z4=(0, 1), q8=("1",)),
                     space.element(z4=(0, 0), q8=("a",)),
                     space.element(z4=(0, 0), q8=("b",))], space)
    with pytest.raises(StructureError):
        standardize(group)
