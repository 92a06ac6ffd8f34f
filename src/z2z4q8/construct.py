"""Constructions of Hadamard codes over the Z2/Z4/Q8 alphabets.

The pipeline is: build a short abelian Hadamard base code (binary, quaternary,
or mixed), lift its generators componentwise into a larger alphabet and close
them to form the abelian part A, then append one or two outside generators
whose component pattern (the "dial") steers the rank and kernel dimension of
the result.  make_plan turns a target (m, k, r) into such a recipe and
build_from_plan builds and verifies it; construct_for is that pair after
looking up the preferred shape for (k, r).  Both read one cached abelian part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from .algebra import AmbientSpace, GroupElement, order, square
from .code import CodeGroup, closure, is_hadamard
from .structure import (
    SHAPES,
    StructureReport,
    allowable_cases,
    measure,
    shape_parameter_range,
    standardize,
)

__all__ = [
    "ConstructionError",
    "NotAllowableError",
    "BaseHadamardSpec",
    "ConstructionPlan",
    "base_hadamard",
    "lift_to_A",
    "build_s_generators",
    "allowable_pairs",
    "shape_parameter_range",
    "all_allowable_pairs",
    "construct_for",
    "build_from_plan",
]

class ConstructionError(ValueError):
    """A construction request cannot be satisfied."""


class NotAllowableError(ConstructionError):
    """The requested (k, r) pair is not achievable at this length."""

    def __init__(self, message: str, nearest: tuple[tuple[int, int], ...] = ()):
        super().__init__(message)
        self.nearest = nearest


### Base Hadamard codes ######################################################


@dataclass(frozen=True)
class BaseHadamardSpec:
    """Shape of an abelian base code of type 2^gamma 4^delta.

    contains_u_square selects the purely quaternary family (some generator
    squares to the all-twos element); otherwise the code mixes a binary block
    with the quaternary one (or is purely binary when delta = 0).
    """

    gamma: int
    delta: int
    contains_u_square: bool

    def __post_init__(self) -> None:
        if self.gamma < 0 or self.delta < 0 or self.gamma + self.delta < 1:
            raise ConstructionError(f"invalid base type 2^{self.gamma} 4^{self.delta}")
        if self.contains_u_square and self.delta < 1:
            raise ConstructionError("a u-square needs an order-four generator")
        if not self.contains_u_square and self.gamma < 1:
            raise ConstructionError(
                "a base without u-squares needs at least one binary direction")

    @property
    def m(self) -> int:
        return self.gamma + 2 * self.delta - 1


def _mixed_radix(index: int, radices: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for base in radices:
        out.append(index % base)
        index //= base
    return tuple(out)


def base_hadamard(spec: BaseHadamardSpec) -> CodeGroup:
    """Abelian Hadamard code of type 2^gamma 4^delta, columns enumerating all
    value tuples in mixed-radix order (least significant coordinate first).

    The Gray image is checked against the Hadamard oracle before returning.
    """
    gamma, delta = spec.gamma, spec.delta
    if spec.contains_u_square:
        k2 = 4 ** (delta - 1) * 2 ** gamma
        radices = (4,) * (delta - 1) + (2,) * gamma
        cols = [_mixed_radix(i, radices) for i in range(k2)]
        space = AmbientSpace(0, k2, 0)
        gens = [space.element(z4=(1,) * k2)]
        for i in range(delta - 1):
            gens.append(space.element(z4=tuple(col[i] for col in cols)))
        for j in range(gamma):
            gens.append(space.element(z4=tuple(2 * col[delta - 1 + j] for col in cols)))
    else:  # at delta = 0 no quaternary column survives: a binary code
        k1 = 2 ** (gamma - 1 + delta)
        tcols = [_mixed_radix(i, (2,) * (gamma - 1 + delta)) for i in range(k1)]
        radices = (4,) * delta + (2,) * (gamma - 1)
        qcols = []
        for i in range(4 ** delta * 2 ** (gamma - 1)):
            col = _mixed_radix(i, radices)
            v, w = col[:delta], col[delta:]
            if not any(x % 2 for x in v):
                continue
            neg = tuple((-x) % 4 for x in v) + w
            neg_index = sum(c * prod(radices[:j]) for j, c in enumerate(neg))
            if neg_index < i:
                continue
            qcols.append(col)
        k2 = len(qcols)
        space = AmbientSpace(k1, k2, 0)
        gens = []
        for i in range(delta):
            gens.append(space.element(
                z2=tuple(col[gamma - 1 + i] for col in tcols),
                z4=tuple(col[i] for col in qcols)))
        gens.append(space.element(z2=(1,) * k1, z4=(2,) * k2))
        for j in range(gamma - 1):
            gens.append(space.element(
                z2=tuple(col[j] for col in tcols),
                z4=tuple(2 * col[delta + j] for col in qcols)))
    group = closure(gens, space)
    if len(group) != 2 ** (gamma + 2 * delta):
        raise ConstructionError(
            f"base of type 2^{gamma} 4^{delta} closed into {len(group)} elements")
    verdict = is_hadamard(group.gray_image)
    if not verdict:
        raise ConstructionError(f"base code is not Hadamard: {verdict.detail}")
    return group


### Lifting homomorphisms ####################################################


def _lift_blocks(c: GroupElement, shape: str, half: tuple[int, ...]
                 ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Entrywise image (z2, z4, q8) of a base element under the paper's maps:
    chi1 sends a binary x to 2x in Z4, chi2 sends a quaternary x to a^x in Q8
    (whose Q8 index is x itself), and chi3 duplicates a coordinate.  Shape 4*
    doubles the quaternary columns listed in half and sends the rest to Q8."""
    z2, z4 = c.z2, c.z4
    if shape == "2":
        return (), (), z4
    if shape == "3":
        return (), tuple(2 * x for x in z2), z4
    if shape == "4":
        return tuple(v for x in z2 for v in (x, x)), (), z4
    if shape == "4*":
        doubled = tuple(v for j in half for v in (z4[j], z4[j]))
        return (), doubled, tuple(z4[j] for j in range(len(z4)) if j not in half)
    return (), (), tuple(v for x in z4 for v in (x, x))  # shape 5


def lift_to_A(base: CodeGroup, shape: str) -> CodeGroup:
    """Image of an abelian base code under the shape's lift.

    Only the generators are mapped: the lift is a homomorphism, so the
    subgroup their images generate is the image, in a target space read off
    the lifted block lengths.  It has the base's order exactly when the lift
    is injective."""
    row = SHAPES.get(shape)
    if row is None or row.upsilon == 0:
        raise ConstructionError(f"shape {shape} has no lift")
    space = base.space
    u = space.all_ones()
    has_u_square = any(order(c) == 4 and square(c) == u for c in base.elements)
    if row.u_square:
        if space.k1 or not has_u_square:
            raise ConstructionError(f"shape {shape} lifts a quaternary base with a u-square")
    elif not space.k1 or has_u_square:
        raise ConstructionError(f"shape {shape} lifts a mixed base without u-squares")

    half: tuple[int, ...] = ()
    if shape == "4*":
        half = tuple(j for j, x in enumerate(base.generators[1].z4) if x % 2)
        if len(half) * 2 != space.k2:
            raise ConstructionError("second order-four row is not odd on half the columns")
    blocks = [_lift_blocks(g, shape, half) for g in base.generators]
    target = AmbientSpace(*(len(block) for block in blocks[0]))
    lifted = closure([target.element(*b) for b in blocks], target)
    if len(lifted) != len(base):
        raise ConstructionError("lift failed to stay injective")
    return lifted


### Allowable (k, r) pairs ###################################################


def _shape_cases(m: int, shape: str, sigma: int, tau: int) -> dict[str, tuple[int, range]]:
    """allowable_cases for a shape's parameters, after the existence window."""
    row = SHAPES.get(shape)
    if row is None or (sigma, tau) not in shape_parameter_range(m, shape):
        raise ConstructionError(
            f"no shape-{shape} code exists with m={m}, sigma={sigma}, tau={tau}")
    tau_bar = tau - 1 if row.u_square else tau
    return allowable_cases(m, sigma, tau, tau_bar, row.upsilon)


def allowable_pairs(m: int, shape: str, sigma: int, tau: int) -> set[tuple[int, int]]:
    """All (kernel dimension, rank) pairs achievable at these parameters."""
    return {(k, r) for k, ranks in _shape_cases(m, shape, sigma, tau).values()
            for r in ranks}


def _target_case(m: int, shape: str, sigma: int, tau: int,
                 target_k: int, target_r: int) -> tuple[str, range]:
    """Case tag and rank range of the case offering (target_k, target_r)."""
    for tag, (k, ranks) in _shape_cases(m, shape, sigma, tau).items():
        if k == target_k and target_r in ranks:
            return tag, ranks
    raise ConstructionError(
        f"({target_k},{target_r}) is not allowable for "
        f"shape {shape} at m={m}, sigma={sigma}, tau={tau}")


def all_allowable_pairs(m: int) -> dict[tuple[int, int], tuple[str, int, int]]:
    """Every allowable pair at length 2^m, mapped to the first
    (shape, sigma, tau) offering it in preference order."""
    table: dict[tuple[int, int], tuple[str, int, int]] = {}
    for shape in CONSTRUCTIBLE_SHAPES:
        for sigma, tau in shape_parameter_range(m, shape):
            for pair in sorted(allowable_pairs(m, shape, sigma, tau)):
                table.setdefault(pair, (shape, sigma, tau))
    return table


### Plans ####################################################################


@dataclass(frozen=True)
class ConstructionPlan:
    """Deterministic recipe for one code: parameters plus the dial (the Q8
    component indices of the outside generators that receive ab-type values)."""

    m: int
    shape: str
    sigma: int
    tau: int
    target_k: int
    target_r: int
    dial: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _target_case(self.m, self.shape, self.sigma, self.tau,
                     self.target_k, self.target_r)


### Outside generators #######################################################

_B, _AB, _ONE, _A2 = 4, 5, 0, 2  # Q8 value indices used by the recipes

# The shapes with a recipe, in construct_for's order of preference; shapes 4
# and 4* are classified but never constructed.
CONSTRUCTIBLE_SHAPES = ("1", "1*", "2", "3", "5")


def _r_generators(a_group: CodeGroup, tau: int) -> tuple[GroupElement, ...]:
    rs = a_group.generators[:tau]
    if any(order(c) != 4 for c in rs):
        raise ConstructionError("lifted generators are not ordered order-four first")
    return rs


def _order4_components(c: GroupElement) -> frozenset[int]:
    return frozenset(j for j, x in enumerate(c.q8) if x in (1, 3))


def build_s_generators(a_group: CodeGroup, plan: ConstructionPlan) -> list[GroupElement]:
    """Outside generators filling the plan's dial.

    The dial lists the Q8 components that take ab-type values; every other Q8
    component of an outside generator takes the b value, except the alternating
    (1, a2) blocks of the two shape-5 generators.
    """
    space = a_group.space
    shape = plan.shape
    if SHAPES[shape].upsilon == 0:
        return []
    k3 = space.k3
    bad = [j for j in plan.dial if not 0 <= j < k3]
    if bad:
        raise ConstructionError(f"dial components {bad} outside the Q8 block")
    dial = frozenset(plan.dial)
    if shape in ("2", "3"):
        q8 = tuple(_AB if j in dial else _B for j in range(k3))
        return [space.element(z4=(1,) * space.k2, q8=q8)]
    if shape != "5":
        raise ConstructionError(f"no outside-generator recipe for shape {shape}")
    r2 = _r_generators(a_group, plan.tau)[1]
    mset = _order4_components(r2)
    comp = frozenset(range(k3)) - mset
    for block in (mset, comp):
        if any(j ^ 1 not in block for j in block):
            raise ConstructionError("shape-5 blocks are not aligned to duplicated pairs")
    if len(dial & mset) > 1 or len(dial & comp) > 1:
        raise ConstructionError("shape-5 dial flips at most one component per block")

    def blocked(free: frozenset[int]) -> GroupElement:
        values = []
        for j in range(k3):
            if j in free:
                values.append(_AB if j in dial else _B)
            else:
                values.append(_ONE if j % 2 == 0 else _A2)
        return space.element(q8=tuple(values))

    return [blocked(comp), blocked(mset)]


### Planner ##################################################################


def _base_spec_for(shape: str, sigma: int, tau: int) -> BaseHadamardSpec:
    if shape not in CONSTRUCTIBLE_SHAPES:
        raise ConstructionError(f"shape {shape} is classified, not constructed")
    return BaseHadamardSpec(sigma - tau, tau, SHAPES[shape].u_square)


def _component_classes(rs: tuple[GroupElement, ...], k3: int,
                       skip_first: bool) -> dict[frozenset[int], list[int]]:
    """Group Q8 components by which outside-the-first (or all) r generators
    have an order-four entry there.  Keys use 1-based generator numbers."""
    start = 2 if skip_first else 1
    supports = {i: _order4_components(c)
                for i, c in enumerate(rs, 1) if i >= start}
    classes: dict[frozenset[int], list[int]] = {}
    for j in range(k3):
        sig = frozenset(i for i, sup in supports.items() if j in sup)
        classes.setdefault(sig, []).append(j)
    return classes


def _plan_dial(shape: str, tau: int, tag: str, ranks: range, target_r: int,
               a_group: CodeGroup) -> tuple[int, ...]:
    """Derive the ab-component set realizing case `tag` at rank target_r."""
    if tag.endswith("a"):
        return ()  # case a of every family takes no ab-type entries
    k3 = a_group.space.k3
    rs = _r_generators(a_group, tau)
    if tag == "2b":
        return tuple(range(1, k3))
    if tag in ("3b", "3c"):
        o2 = _order4_components(rs[1])
        outside = [j for j in range(k3) if j not in o2]
        keep = set(o2) | {outside[0]} if tag == "3b" else {min(o2), outside[0]}
        return tuple(j for j in range(k3) if j not in keep)
    if tag in ("5b", "5c"):
        mset = sorted(_order4_components(rs[1]))
        comp = sorted(set(range(k3)) - set(mset))
        return (comp[0],) if tag == "5b" else (comp[0], mset[0])
    if tag == "4b":
        torsion_sorted = [c for c in a_group.elements if order(c) <= 2]
        sq_span = {square(c) for c in a_group.elements}
        x = next((c for c in torsion_sorted if c not in sq_span), None)
        if x is None:
            raise ConstructionError(
                "every torsion element is a square; this rank needs sigma > tau")
        return tuple(j for j, val in enumerate(x.q8) if val == _A2)
    # Case 4c, a rank dial: one ab per surviving component class, each level
    # below the top of the range banning one more r generator.
    classes = _component_classes(rs, k3, skip_first=(shape == "2"))
    if shape == "3":
        classes.pop(frozenset(), None)
    if len(classes) != (2 ** (tau - 1) if shape == "2" else 2 ** tau - 1):
        raise ConstructionError("component classes do not split as expected")
    level = ranks[-1] - target_r
    if shape == "2" and level == tau:
        return tuple(classes[frozenset()])
    first = 2 if shape == "2" else 1
    banned = set(range(first, first + level))
    return tuple(sorted(min(members) for sig, members in classes.items()
                        if not sig & banned))


@cache
def _abelian_part(shape: str, sigma: int, tau: int) -> CodeGroup:
    """The base code, lifted for the non-abelian shapes: what the planner
    reads to place the dial and what the builder extends.  Cached, so a
    plan and its build share one abelian part."""
    base = base_hadamard(_base_spec_for(shape, sigma, tau))
    return base if SHAPES[shape].upsilon == 0 else lift_to_A(base, shape)


def make_plan(m: int, shape: str, sigma: int, tau: int,
              target_k: int, target_r: int) -> ConstructionPlan:
    """Plan with the dial filled in, read off the abelian part once the
    target is known to be allowable (shapes 1 and 1* take no dial)."""
    tag, ranks = _target_case(m, shape, sigma, tau, target_k, target_r)
    dial: tuple[int, ...] = ()
    if SHAPES[shape].upsilon:
        dial = _plan_dial(shape, tau, tag, ranks, target_r,
                          _abelian_part(shape, sigma, tau))
    return ConstructionPlan(m=m, shape=shape, sigma=sigma, tau=tau,
                            target_k=target_k, target_r=target_r, dial=dial)


def build_from_plan(plan: ConstructionPlan) -> tuple[CodeGroup, StructureReport]:
    """Run base -> lift -> outside generators and verify the outcome."""
    a_group = _abelian_part(plan.shape, plan.sigma, plan.tau)
    if SHAPES[plan.shape].upsilon == 0:
        group = a_group  # the base code, which base_hadamard checked
    else:
        s_gens = build_s_generators(a_group, plan)
        group = closure(tuple(a_group.generators) + tuple(s_gens), a_group.space)
        verdict = is_hadamard(group.gray_image)
        if not verdict:
            raise ConstructionError(f"construction is not Hadamard: {verdict.detail}")
    report = standardize(group)
    if report.shape != plan.shape:
        raise ConstructionError(
            f"plan wanted shape {plan.shape}, construction classifies as {report.shape}")
    measured = measure(group, report)
    if (measured.k, measured.r) != (plan.target_k, plan.target_r):
        raise ConstructionError(
            f"plan ({plan.target_k},{plan.target_r}) built ({measured.k},{measured.r})")
    return group, report


def construct_for(m: int, target_k: int, target_r: int) -> tuple[CodeGroup, StructureReport]:
    """Emit a Hadamard code of length 2^m with the requested kernel dimension
    and rank, choosing the first shape admitting the pair in preference order."""
    table = all_allowable_pairs(m)
    if (target_k, target_r) in table:
        shape, sigma, tau = table[(target_k, target_r)]
        return build_from_plan(make_plan(m, shape, sigma, tau, target_k, target_r))
    nearest = tuple(sorted(table,
                           key=lambda p: (abs(p[0] - target_k) + abs(p[1] - target_r), p))[:5])
    raise NotAllowableError(
        f"(k,r)=({target_k},{target_r}) is not allowable at length 2^{m}; "
        f"nearest pairs: {', '.join(str(p) for p in nearest)}", nearest)
