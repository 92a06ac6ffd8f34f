"""Structural analysis of Hadamard-type subgroups of Z2^k1 x Z4^k2 x Q8^k3.

A group C analyzed here is layered as T(C) <= Z(C) <= A(C) <= C, where T is
the subgroup of elements of order at most two, Z the center, and A a maximal
abelian normal subgroup.  From that chain the group is classified into one of
seven shape labels, rewritten into a standard generating family
(x_1..x_sigma; r_1..r_tau; s_1..s_upsilon), and measured: the rank and kernel
dimension of its binary Gray image follow from swapper membership tests on the
standard generators.  Each subgroup is a CodeGroup grown from generators: T
and Z on an irredundant greedy choice of their elements in canonical order,
A as the span the witness search grew from Z (the group itself when it is
abelian).  The report keeps T, A, the profile, the shape and the standard
generators; Z is used inside standardize and the R part of case 4a is built
where that case is tested.  CheckResult is defined in the code module and
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .algebra import (
    AmbientSpace,
    GroupElement,
    commutator,
    gray,
    inverse,
    mul,
    order,
    square,
    swapper,
)
from .code import BinaryCode, CheckResult, CodeGroup, is_hadamard, rank_kernel_report

__all__ = [
    "StructureError",
    "CheckResult",
    "CodeProfile",
    "StandardGenerators",
    "StructureReport",
    "MeasureResult",
    "ShapeRow",
    "SHAPES",
    "SHAPE_LABELS",
    "shape_parameter_range",
    "allowable_cases",
    "torsion",
    "center",
    "classify_shape",
    "standardize",
    "measure",
    "verify_table3",
    "verify_duplication",
    "is_normal_subgroup",
    "render_report",
]


class StructureError(ValueError):
    """A group does not admit the structure these routines rely on."""


### Parameter table ##########################################################


def _pow2(e: int) -> int:
    return 2 ** e if e >= 0 else 0


@dataclass(frozen=True)
class ShapeRow:
    """One row of the paper's parameter table (Table 3) for a shape label.

    upsilon is log2 of the index of the abelian part A in the group.  taus(m)
    is the existence window: the tau values a code of length 2^m can have;
    sigma then follows from m + 1 = sigma + tau + upsilon.  counts(sigma, tau)
    gives the ambient component counts (k1, k2, k3).  u_square says whether
    an order-four element of the abelian part squares to the all-ones element
    u; it holds exactly when tau_bar = tau - 1.  Every shape starts from an
    abelian base code of type 2^(sigma-tau) 4^tau with the same flag (shapes
    1 and 1* are that base).
    """

    upsilon: int
    taus: Callable[[int], range]
    counts: Callable[[int, int], tuple[int, int, int]]
    u_square: bool


SHAPES: MappingProxyType[str, ShapeRow] = MappingProxyType({
    "1": ShapeRow(0, lambda m: range(0, m // 2 + 1),
                  lambda s, t: (_pow2(s - 1), (2 ** t - 1) * _pow2(s - 2), 0), False),
    "1*": ShapeRow(0, lambda m: range(1, (m + 1) // 2 + 1),
                   lambda s, t: (0, _pow2(s + t - 2), 0), True),
    "2": ShapeRow(1, lambda m: range(1, m // 2 + 1),
                  lambda s, t: (0, 0, _pow2(s + t - 2)), True),
    "3": ShapeRow(1, lambda m: range(1, (m - 1) // 2 + 1),
                  lambda s, t: (0, _pow2(s - 1), (2 ** t - 1) * _pow2(s - 2)), False),
    "4": ShapeRow(1, lambda m: range(1, 2) if m % 2 == 0 else range(0),
                  lambda s, t: (_pow2(s), 0, _pow2(s - 2)), False),
    "4*": ShapeRow(1, lambda m: range(2, 3) if m % 2 == 0 else range(0),
                   lambda s, t: (0, _pow2(s), _pow2(s - 1)), True),
    "5": ShapeRow(2, lambda m: range(2, 3) if m >= 5 else range(0),
                  lambda s, t: (0, 0, _pow2(s + 1)), True),
})
SHAPE_LABELS = tuple(SHAPES)


def shape_parameter_range(m: int, shape: str) -> list[tuple[int, int]]:
    """(sigma, tau) combinations passing the existence window at length 2^m."""
    row = SHAPES.get(shape)
    if row is None:
        raise StructureError(f"unknown shape {shape}")
    return [(m + 1 - tau - row.upsilon, tau) for tau in row.taus(m)]


### Subgroup scans ###########################################################


def torsion(group: CodeGroup) -> CodeGroup:
    """Subgroup of all elements of order at most two."""
    elems = [c for c in group.elements if order(c) <= 2]
    return _subgroup(group.space, elems, "order-two elements do not form a subgroup")


def center(group: CodeGroup) -> CodeGroup:
    """Subgroup of elements commuting with the whole group."""
    ident = group.space.identity()
    cen = [c for c in group.elements
           if all(commutator(c, g) == ident for g in group.generators)]
    return _subgroup(group.space, cen, "centralizer scan did not close into a subgroup")


def _subgroup(space: AmbientSpace, elems: list[GroupElement], failure: str) -> CodeGroup:
    """The subgroup grown from elems, if they form one.  An element already
    spanned is skipped, so the generators are an irredundant greedy choice,
    and a lookup costs less than a reduction."""
    group = CodeGroup(space)
    for c in elems:
        if c not in group:
            group.add(c)
    if len(group) != len(elems):
        raise StructureError(failure)
    return group


### Shape classification #####################################################


def classify_shape(group: CodeGroup) -> str:
    """Label the group 1, 1*, 2, 3, 4, 4* or 5.

    Decision procedure: abelian groups are 1* when the order-two all-ones
    element u is the square of an order-four element, else 1.  Non-abelian
    groups with a central element of order four (delta = 1) are 4*.  With
    delta = 0: a pair z1, z2 with z1^2 = z2^2 = [z1, z2] = u means shape 2,
    upgraded to 5 when a second pair shares a square equal to its commutator
    outside {e, u}; otherwise shape 3 when u is a square at all, else 4.
    """
    return _classify(group, torsion(group), center(group))


def _classify(group: CodeGroup, t_group: CodeGroup, z_group: CodeGroup) -> str:
    u = group.space.all_ones()
    if len(z_group) == len(group):
        has_u_square = any(order(c) == 4 and square(c) == u for c in group.elements)
        return "1*" if has_u_square else "1"
    delta = z_group.log2_order - t_group.log2_order
    if delta == 1:
        return "4*"
    if delta != 0:
        raise StructureError(
            f"unclassifiable: center exceeds torsion by 2^{delta}, expected factor 1 or 2")
    # Order-four elements bucketed by their square (never e).
    by_square: dict[GroupElement, list[GroupElement]] = {}
    for c in group.elements:
        if order(c) == 4:
            by_square.setdefault(square(c), []).append(c)
    u_squares = by_square.pop(u, [])
    pair_uu = any(commutator(z1, z2) == u for z1, z2 in combinations(u_squares, 2))
    if pair_uu:
        if any(commutator(z3, z4) == sq for sq, bucket in by_square.items()
               for z3, z4 in combinations(bucket, 2)):
            return "5"
        return "2"
    if u_squares:
        return "3"
    return "4"


### Profile and report types #################################################


@dataclass(frozen=True)
class CodeProfile:
    """Logarithmic sizes of the quotient chain for a group of order 2^(m+1)."""

    m: int
    sigma: int
    tau: int
    tau_bar: int
    upsilon: int
    delta: int
    rho: int

    def __post_init__(self) -> None:
        if self.m + 1 != self.sigma + self.tau + self.upsilon:
            raise StructureError(
                f"profile violates m+1 = sigma+tau+upsilon: {self}")
        if self.upsilon not in (0, 1, 2):
            raise StructureError(f"upsilon must be 0, 1 or 2, got {self.upsilon}")
        if self.sigma + self.delta + self.rho - 1 != self.m:
            raise StructureError(
                f"profile violates sigma+delta+rho-1 = m: {self}")
        if self.tau_bar not in (self.tau, self.tau - 1):
            raise StructureError(f"tau_bar must be tau or tau-1: {self}")


@dataclass(frozen=True)
class StandardGenerators:
    """Standard generating family: torsion basis x, order-four abelian part r,
    outside witnesses s."""

    x: tuple[GroupElement, ...]
    r: tuple[GroupElement, ...]
    s: tuple[GroupElement, ...]

    def all_generators(self) -> tuple[GroupElement, ...]:
        return self.x + self.r + self.s


@dataclass(frozen=True)
class StructureReport:
    """What standardize found: the torsion subgroup T, the abelian part A,
    the profile, the shape label and the standard generating family."""

    torsion: CodeGroup
    abelian_max: CodeGroup
    profile: CodeProfile
    shape: str
    std_gens: StandardGenerators


@dataclass(frozen=True)
class MeasureResult:
    k: int
    r: int
    case: str


### Standardization ##########################################################


def _abelian_extensions(group: CodeGroup, base: CodeGroup, picks: int, avoid_u_square: bool
                        ) -> Iterator[tuple[tuple[GroupElement, ...], CodeGroup]]:
    """Depth-first scan over commuting order-four extensions of base.

    Yields (chosen, span) for every way (in canonical scan order) of
    enlarging base by `picks` pairwise-commuting order-four elements,
    optionally refusing any choice whose squares would span the all-ones
    element u.
    """
    space = group.space
    ident = space.identity()
    u = space.all_ones()
    elems = group.elements

    def rec(chosen: list[GroupElement], span: CodeGroup, sq_span: CodeGroup, start: int):
        if len(chosen) == picks:
            yield tuple(chosen), span
            return
        for i in range(start, len(elems)):
            c = elems[i]
            if order(c) != 4 or c in span:
                continue
            if any(commutator(c, d) != ident for d in chosen):
                continue
            new_sq = sq_span.copy()
            new_sq.add(square(c))
            if avoid_u_square and u in new_sq:
                continue
            new_span = span.copy()
            new_span.add(c)
            yield from rec(chosen + [c], new_span, new_sq, i + 1)

    yield from rec([], base, CodeGroup(space), 0)


def _first(candidates: Iterable[GroupElement], cond) -> GroupElement | None:
    for c in candidates:
        if cond(c):
            return c
    return None


def _greedy_square_independent(pool: Sequence[GroupElement], space: AmbientSpace,
                               count: int, seeded: Iterable[GroupElement]) -> list[GroupElement]:
    """Pick `count` order-four elements whose squares are independent of the
    seeded torsion span (and of each other)."""
    sq_span = CodeGroup(space, seeded)
    picked: list[GroupElement] = []
    for c in pool:
        if len(picked) == count:
            break
        if order(c) == 4 and square(c) not in sq_span:
            picked.append(c)
            sq_span.add(square(c))
    if len(picked) != count:
        raise StructureError(
            f"could not select {count} order-four generators with independent squares")
    return picked


def standardize(group: CodeGroup) -> StructureReport:
    """Rewrite the group on a standard generating family and profile it."""
    space = group.space
    ident = space.identity()
    u = space.all_ones()
    if u not in group:
        raise StructureError("the order-two all-ones element is missing from the group")
    t_group = torsion(group)
    z_group = center(group)
    sigma = t_group.log2_order
    m = group.log2_order - 1
    delta = z_group.log2_order - sigma
    rho = m + 1 - sigma - delta
    shape = _classify(group, t_group, z_group)
    upsilon = SHAPES[shape].upsilon
    tau = m + 1 - sigma - upsilon

    if upsilon == 0:
        order4 = [c for c in group.elements if order(c) == 4]
        rs: list[GroupElement] = []
        if shape == "1*":
            r1 = _first(order4, lambda c: square(c) == u)
            if r1 is None:
                raise StructureError("no order-four element squares to u")
            rs.append(r1)
        rs.extend(_greedy_square_independent(
            order4, space, tau - len(rs), [square(c) for c in rs]))
        a_group = group
        ss: tuple[GroupElement, ...] = ()
    else:
        picks = tau - delta
        if picks < 0:
            raise StructureError(f"impossible layer sizes: tau={tau}, delta={delta}")
        found = None
        for chosen, a_group in _abelian_extensions(
                group, z_group, picks, avoid_u_square=not SHAPES[shape].u_square):
            a_sorted = [c for c in group.elements if c in a_group]
            outside = [c for c in group.elements if c not in a_group]
            if shape == "2":
                found = _witness_shape2(a_sorted, outside, u, tau)
            elif shape == "3":
                found = _witness_shape3(a_sorted, outside, u, tau)
            elif shape == "4":
                found = _witness_shape4(a_sorted, outside, u, tau)
            elif shape == "4*":
                found = _witness_shape4star(z_group, chosen, outside, ident, u, tau)
            else:
                found = _witness_shape5(chosen, a_group, outside, ident, u, tau)
            if found is not None:
                break
        if found is None:
            raise StructureError(
                f"no standard generating family found for shape {shape}")
        rs, ss = found

    tau_bar = tau - 1 if rs and square(rs[0]) == u else tau
    profile = CodeProfile(m=m, sigma=sigma, tau=tau, tau_bar=tau_bar,
                          upsilon=upsilon, delta=delta, rho=rho)
    std = StandardGenerators(x=t_group.generators, r=tuple(rs), s=tuple(ss))
    report = StructureReport(torsion=t_group, abelian_max=a_group, profile=profile,
                             shape=shape, std_gens=std)
    _validate_report(group, report)
    return report


def _witness_shape2(a_sorted, outside, u, tau):
    for r1 in a_sorted:
        if order(r1) != 4 or square(r1) != u:
            continue
        s1 = _first(outside, lambda c: square(c) == u and commutator(r1, c) == u)
        if s1 is None:
            continue
        rest = _greedy_square_independent(a_sorted, r1.space, tau - 1, [u])
        return [r1] + rest, (s1,)
    return None


def _witness_shape3(a_sorted, outside, u, tau):
    s1 = _first(outside, lambda c: square(c) == u)
    if s1 is None:
        return None
    rs = _greedy_square_independent(a_sorted, s1.space, tau, [])
    return rs, (s1,)


def _witness_shape4(a_sorted, outside, u, tau):
    if tau != 1:
        raise StructureError(f"shape 4 needs tau = 1, got {tau}")
    for r1 in a_sorted:
        sq = square(r1)
        if order(r1) != 4 or sq == u:
            continue
        s1 = _first(outside, lambda c: square(c) == sq and commutator(r1, c) == sq)
        if s1 is not None:
            return [r1], (s1,)
    return None


def _witness_shape4star(z_group, chosen, outside, ident, u, tau):
    if tau != 2 or len(chosen) != 1:
        raise StructureError(f"shape 4* needs tau = 2, got tau={tau}")
    y1 = _first(z_group.elements, lambda c: order(c) == 4)
    if y1 is None:
        raise StructureError("no central order-four element in a shape-4* group")
    c1 = chosen[0]
    t = square(c1)
    if t in (ident, u) or mul(square(y1), t) != u:
        return None
    s1 = _first(outside, lambda c: square(c) == t and commutator(c1, c) == t)
    if s1 is None:
        return None
    r1 = mul(y1, c1)
    if square(r1) != u:
        raise StructureError("central times picked generator fails to square to u")
    return [r1, c1], (s1,)


def _witness_shape5(chosen, a_group, outside, ident, u, tau):
    if tau != 2 or len(chosen) != 2:
        raise StructureError(f"shape 5 needs tau = 2, got tau={tau}")
    v, w = chosen
    cands = [v, w, mul(v, w)]
    r1 = _first(cands, lambda c: square(c) == u)
    r2 = _first(cands, lambda c: square(c) not in (ident, u))
    if r1 is None or r2 is None:
        return None
    r2sq = square(r2)
    s1 = _first(outside, lambda c: square(c) == u and commutator(r1, c) == u
                and commutator(r2, c) == r2sq)
    if s1 is None:
        return None
    extended = a_group.copy()
    extended.add(s1)
    s2 = _first(outside, lambda c: c not in extended and square(c) == r2sq
                and commutator(s1, c) == ident and commutator(r1, c) == r2sq
                and commutator(r2, c) == r2sq)
    if s2 is None:
        return None
    return [r1, r2], (s1, s2)


def is_normal_subgroup(group: CodeGroup, sub: CodeGroup) -> bool:
    """Conjugation test over generators of both groups."""
    for g in group.generators:
        gi = inverse(g)
        for h in sub.generators:
            if mul(mul(g, h), gi) not in sub:
                return False
    return True


def _validate_report(group: CodeGroup, report: StructureReport) -> None:
    space = group.space
    ident = space.identity()
    u = space.all_ones()
    std = report.std_gens
    prof = report.profile

    span = CodeGroup(space, std.x)
    if len(span) != len(report.torsion) or any(c not in report.torsion for c in std.x):
        raise StructureError("x generators do not span the torsion subgroup")
    for c in std.r + std.s:
        span.add(c)
    if len(span) != len(group) or any(c not in group for c in std.all_generators()):
        raise StructureError("standard generators span a different group")
    for r1, r2 in combinations(std.r, 2):
        if commutator(r1, r2) != ident:
            raise StructureError("r generators do not commute")
    if u in CodeGroup(space, [square(c) for c in std.r]):
        if not std.r or square(std.r[0]) != u:
            raise StructureError("u is spanned by r squares but r1^2 != u")
        if u in CodeGroup(space, [square(c) for c in std.r[1:]]):
            raise StructureError("u is spanned by the squares of r2..r_tau")
    if prof.upsilon == 2:
        s1, s2 = std.s
        if square(s1) != u or square(s2) == u:
            raise StructureError("upsilon=2 requires s1^2 = u != s2^2")
        if commutator(s1, s2) != ident:
            raise StructureError("upsilon=2 requires commuting s1, s2")
    if std.r and std.s and square(std.r[0]) == u and square(std.s[0]) == u:
        if commutator(std.r[0], std.s[0]) != u:
            raise StructureError("r1^2 = s1^2 = u requires [r1, s1] = u")
    a_grp = report.abelian_max
    if len(a_grp) * 2 ** prof.upsilon != len(group):
        raise StructureError("abelian part has the wrong index")
    if any(x not in a_grp for x in report.torsion.generators):
        raise StructureError("abelian part does not contain the torsion subgroup")
    if not is_normal_subgroup(group, a_grp):
        raise StructureError("abelian part is not normal")
    if any(commutator(a, b) != ident for a, b in combinations(a_grp.generators, 2)):
        raise StructureError("abelian part is not abelian")


### Measurement ##############################################################


def allowable_cases(m: int, sigma: int, tau: int, tau_bar: int,
                    upsilon: int) -> dict[str, tuple[int, range]]:
    """The paper's rank and kernel theorem: every measurement case a profile
    allows, mapped to its kernel dimension k and its range of ranks r.

    Cases 1a-1c are the abelian codes, 2a-2b, 3a-3c and 4a-4c the codes with
    an index-two abelian part (tau = 1; tau = 2 with tau_bar = 1; tau_bar >= 2)
    and 5a-5c those with an index-four one.  Case 2b needs m > 3 and case 4b
    sigma > tau; only case 4c spans more than one rank.  A profile no case
    fits gets an empty map.
    """
    def exact(k: int, r: int) -> tuple[int, range]:
        return k, range(r, r + 1)

    if upsilon == 0:
        if tau_bar <= 1:
            return {"1a": exact(sigma + tau, sigma + tau)}
        if tau_bar == tau - 1:
            return {"1b": exact(sigma + 1, sigma + tau + comb(tau - 1, 2))}
        return {"1c": exact(sigma, sigma + tau + comb(tau, 2))}
    if upsilon == 1 and tau == 1:
        cases = {"2a": exact(sigma + 2, sigma + 2)}
        if m > 3:
            cases["2b"] = exact(sigma, sigma + 3)
        return cases
    if upsilon == 1 and tau == 2 and tau_bar == 1:
        return {"3a": exact(sigma + 3, sigma + 3), "3b": exact(sigma + 1, sigma + 4),
                "3c": exact(sigma, sigma + 5)}
    if upsilon == 1 and tau >= 2 and tau_bar >= 2:
        base = sigma + tau + 1
        cases = {"4a": exact(sigma + 1 + tau - tau_bar, base + comb(tau_bar, 2))}
        if tau_bar == tau - 1:
            if sigma > tau:
                cases["4b"] = exact(sigma + 1, base + comb(tau, 2))
            cases["4c"] = sigma, range(base + comb(tau - 1, 2), base + comb(tau, 2) + 2)
        else:
            cases["4c"] = sigma, range(base + comb(tau, 2) + 1, base + comb(tau + 1, 2) + 1)
        return cases
    if upsilon == 2:
        return {"5a": exact(sigma + 4, sigma + 4), "5b": exact(sigma + 2, sigma + 5),
                "5c": exact(sigma, sigma + 6)}
    return {}


def _match_case(group: CodeGroup, report: StructureReport,
                cases: dict[str, tuple[int, range]]) -> str:
    """Case tag of the group: the table's family for its profile, and within
    the family the member picked by swapper membership of the standard
    generators."""
    if not cases:
        raise StructureError(f"no measurement case matches profile {report.profile}")
    prof = report.profile
    rs, ss = report.std_gens.r, report.std_gens.s
    first = next(iter(cases))
    family = first[0]
    if family == "1":
        return first  # an abelian profile allows exactly one case
    if family == "2":
        return "2a" if swapper(ss[0], rs[0]) in group else "2b"
    if family == "3":
        s1, (r1, r2) = ss[0], rs
        inside = sum(swapper(s1, c) in group for c in (r1, r2, mul(r1, r2)))
        tag = {3: "3a", 1: "3b", 0: "3c"}.get(inside)
        if tag is None:
            raise StructureError(f"impossible swapper membership count {inside} at tau=2")
        return tag
    if family == "4":
        # R: the abelian part, or the span of x, r2..r_tau when r1^2 = u.
        s1 = ss[0]
        a_grp = report.abelian_max
        r_part = (a_grp if prof.tau_bar == prof.tau
                  else CodeGroup(group.space, report.std_gens.x + rs[1:]))
        if any(all(swapper(mul(b, s1), a) in group for a in a_grp.generators)
               for b in r_part.members):
            return "4a"
        if prof.tau_bar == prof.tau - 1 and swapper(s1, rs[0]) in group:
            return "4b"
        return "4c"
    (r1, r2), (s1, s2) = rs, ss
    inside = sum(t in group for t in
                 (swapper(r2, s2), swapper(mul(r1, r2), mul(s1, s2))))
    return ("5c", "5b", "5a")[inside]


def measure(group: CodeGroup, report: StructureReport) -> MeasureResult:
    """Kernel dimension and rank of the Gray image, with the matched case tag.

    The pair is computed by the independent oracles of the code module; the
    matched case's predicted value (or range, for tag 4c) from
    allowable_cases is then asserted, so a witness-selection bug here
    surfaces as a loud mismatch error.  The report is the one standardize
    gave for the group.
    """
    rk = rank_kernel_report(group)
    prof = report.profile
    cases = allowable_cases(prof.m, prof.sigma, prof.tau, prof.tau_bar, prof.upsilon)
    tag = _match_case(group, report, cases)
    if tag not in cases:
        raise StructureError(f"case {tag} is not allowed for profile {prof}")
    exp_k, ranks = cases[tag]
    if rk.k != exp_k or rk.r not in ranks:
        raise StructureError(
            f"case mismatch: tag {tag} predicts k={exp_k}, r in [{ranks[0]},{ranks[-1]}], "
            f"measured k={rk.k}, r={rk.r}")
    return MeasureResult(k=rk.k, r=rk.r, case=tag)


### Parameter table and duplication checks ###################################


def verify_table3(report: StructureReport, space: AmbientSpace) -> CheckResult:
    """Check ambient component counts and the existence window for the shape."""
    prof = report.profile
    m, sigma, tau = prof.m, prof.sigma, prof.tau
    shape = report.shape
    if space.n != 2 ** m:
        return CheckResult(False, f"binary length {space.n} != 2^{m}")
    expect = SHAPES[shape].counts(sigma, tau)
    exists = (sigma, tau) in shape_parameter_range(m, shape)
    actual = (space.k1, space.k2, space.k3)
    if actual != expect:
        return CheckResult(False,
                           f"shape {shape} expects (k1,k2,k3)={expect}, ambient has {actual}")
    if not exists:
        return CheckResult(False,
                           f"shape {shape} existence condition fails at m={m}, sigma={sigma}, tau={tau}")
    return CheckResult(True)


def _binary_columns(n: int, words: Sequence[int]) -> list[int]:
    """Column patterns of packed words of length n, first column first, each
    packed as an integer with word i at bit i."""
    cols = []
    for shift in range(n - 1, -1, -1):
        pattern = 0
        for i, w in enumerate(words):
            pattern |= (w >> shift & 1) << i
        cols.append(pattern)
    return cols


def _pair_columns(cols: Iterable[Hashable]) -> tuple[list[int], list[int]]:
    """Pair equal columns in order: the index of each column that opens a
    pair (or stays unpaired), and the sorted indices left without a partner."""
    unpaired: dict[Hashable, int] = {}
    keep: list[int] = []
    for j, pattern in enumerate(cols):
        if pattern in unpaired:
            del unpaired[pattern]
        else:
            unpaired[pattern] = j
            keep.append(j)
    return keep, sorted(unpaired.values())


def verify_duplication(report: StructureReport) -> CheckResult:
    """Check that the abelian part is a doubled (upsilon=1) or quadrupled
    (upsilon=2) image of a shorter Hadamard code of the abelian alphabets."""
    prof = report.profile
    if prof.upsilon == 0:
        return CheckResult(True, "no duplication expected at upsilon=0")
    a_grp = report.abelian_max
    space = a_grp.space
    if prof.upsilon == 1:
        n = space.n
        words = [gray(c) for c in a_grp.members]
        keep, leftover = _pair_columns(_binary_columns(n, words))
        if leftover:
            return CheckResult(False, f"columns {leftover} have no duplicate partner")
        half = len(keep)
        halved = [sum((w >> (n - 1 - j) & 1) << (half - 1 - i) for i, j in enumerate(keep))
                  for w in words]
        verdict = is_hadamard(BinaryCode(half, halved))
        if not verdict:
            return CheckResult(False, f"halved image not Hadamard: {verdict.detail}")
        return CheckResult(True)
    # upsilon == 2: quaternion columns pair up and collapse to a Z4 code.
    if space.k1 or space.k2:
        return CheckResult(False, "quadruplication expects a pure Q8 ambient")
    rows = [c.q8 for c in a_grp.members]
    keep, leftover = _pair_columns(zip(*rows))
    if leftover:
        return CheckResult(False, f"Q8 columns {leftover} have no duplicate partner")
    if any(any(row[j] > 3 for j in keep) for row in rows):
        return CheckResult(False, "abelian part has entries outside the a-cycle")
    z4_space = AmbientSpace(0, len(keep), 0)
    z4_words = [gray(z4_space.element(z4=tuple(row[j] for j in keep))) for row in rows]
    quarter = BinaryCode(2 * len(keep), z4_words)
    verdict = is_hadamard(quarter)
    if not verdict:
        return CheckResult(False, f"quartered image not Hadamard: {verdict.detail}")
    return CheckResult(True)


### Rendering ################################################################


def render_report(report: StructureReport, measured: MeasureResult | None = None) -> str:
    """Stable key=value lines for golden-file comparison."""
    prof = report.profile
    lines = [
        f"shape={report.shape}",
        f"m={prof.m}",
        f"sigma={prof.sigma}",
        f"tau={prof.tau}",
        f"tau_bar={prof.tau_bar}",
        f"upsilon={prof.upsilon}",
        f"delta={prof.delta}",
        f"rho={prof.rho}",
    ]
    if measured is not None:
        lines += [f"k={measured.k}", f"r={measured.r}", f"case={measured.case}"]
    return "\n".join(lines) + "\n"
