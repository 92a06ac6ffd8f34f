"""Subgroups, Gray-image codes, Hadamard checks, rank and kernel.

A subgroup is a CodeGroup, built from its generators alone and held as
echelon bases: one of it modulo the Frattini subgroup and one of its part
inside that subgroup.  Its order comes from those bases and its elements are
listed only when first asked, so closure refuses an oversized group before
listing it, and log2_order sizes the span group behind the group-side rank
oracle, 2^r elements, without listing it.

Rank and kernel are each computed by two independent routes (plain GF(2)
linear algebra on the binary codewords vs. group-theoretic criteria via
swappers); rank_kernel_report cross-checks them on every code it measures
and returns the pair (r, k) alone.  Checks return a CheckResult: the verdict
and the first failed clause.
Binary words are packed ints, as algebra.gray returns them; GF(2)
elimination works directly on those ints.  A binary code is split once into
the cosets of its kernel (BinaryCode.kernel_cosets); the binary kernel oracle
and the Hadamard check's pairwise clause both read that split, so no scan
over all pairs of codewords runs unless the pairwise clause fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .algebra import (
    AmbientSpace,
    GroupElement,
    commutator,
    frattini_coordinate,
    frattini_image,
    gray,
    mul,
    parse_element,
    render_element,
    sort_key,
    square,
    swapper,
)

__all__ = [
    "CodeGroup",
    "BinaryCode",
    "CheckResult",
    "RankKernelReport",
    "ClosureSizeError",
    "OracleMismatch",
    "ParseError",
    "closure",
    "log2_order",
    "size_check",
    "is_hadamard",
    "kernel_bruteforce",
    "kernel_by_swappers",
    "rank_gf2",
    "rank_by_span_group",
    "rank_kernel_report",
    "gf2_rank",
    "read_generators",
    "export_binary",
]

DEFAULT_CLOSURE_CAP = 1 << 20


class ClosureSizeError(RuntimeError):
    """Closure grew past the configured cap (wrong generators, most likely)."""


class OracleMismatch(RuntimeError):
    """Two independent oracles for the same invariant disagree."""


class ParseError(ValueError):
    """Malformed generator file."""


### GF(2) linear algebra on packed ints ######################################


def gf2_rank(rows: Iterable[int]) -> int:
    """Rank of the span of the given packed rows."""
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


### Subgroups ################################################################


class CodeGroup:
    """A subgroup H of an ambient space, given by its generators and held as
    echelon bases.

    The ambient group has class 2 and its Frattini subgroup Phi is central
    and elementary abelian (see algebra), so |H| = |H Phi / Phi| * |H cap Phi|.
    add(g) reduces g modulo Phi against an echelon basis B of reduced added
    elements, which lie in H and give the first factor.  Collecting any word
    in B leaves a product of distinct members of B times squares and
    commutators of members, all in Phi; with the residues of elements that
    reduced into Phi these span H cap Phi, the second factor.  So each element
    of H is one product of a subset of B with a subset of a GF(2) basis of
    H cap Phi.  The order comes from the bases; `members`, `elements` (sorted
    by sort_key, the reference order of every greedy scan elsewhere) and
    `gray_image` are listed on first use.  add extends a listed `members` by
    the basis elements it inserts and drops the other two.  `generators` is
    every added element, in order.
    """

    def __init__(self, space: AmbientSpace, generators: Iterable[GroupElement] = ()) -> None:
        self.space = space
        self.generators: tuple[GroupElement, ...] = ()
        self._quotient: dict[int, tuple[int, GroupElement]] = {}  # B, images mod Phi
        self._phi: dict[int, tuple[int, GroupElement]] = {}  # H cap Phi, coordinates
        for g in generators:
            self.add(g)

    def add(self, g: GroupElement) -> None:
        if g.space != self.space:
            raise ValueError("generators live in different ambient spaces")
        self.generators += (g,)
        new, b = _insert(self._quotient, frattini_image(g), g)
        if new:
            inserted = [b]
            rows = [square(b)] + [commutator(c, b) for _, c in self._quotient.values()]
        else:
            inserted, rows = [], [b]
        for x in rows:
            added, y = _insert(self._phi, frattini_coordinate(x), x)
            if added:
                inserted.append(y)
        if not inserted:
            return
        cached = self.__dict__
        cached.pop("elements", None)
        cached.pop("gray_image", None)
        if "members" in cached:
            # Reordering the factors of a subset product changes it by
            # commutators, which H cap Phi holds; so the grown H is the old
            # listing times the subset products of the inserted elements.
            listing = list(cached["members"])
            for x in inserted:
                listing += [mul(y, x) for y in listing]
            cached["members"] = frozenset(listing)

    @cached_property
    def members(self) -> frozenset[GroupElement]:
        listing = [self.space.identity()]
        for _, x in (*self._phi.values(), *self._quotient.values()):
            listing += [mul(y, x) for y in listing]
        return frozenset(listing)

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        return tuple(sorted(self.members, key=sort_key))

    @cached_property
    def gray_image(self) -> "BinaryCode":
        """The Gray image, built on first use and shared by every check."""
        return BinaryCode.from_group(self)

    def copy(self) -> "CodeGroup":
        """A twin to grow apart; it shares the listings, which add replaces
        rather than changes."""
        twin = CodeGroup(self.space)
        twin.__dict__.update(self.__dict__, _quotient=dict(self._quotient),
                             _phi=dict(self._phi))
        return twin

    def __contains__(self, x: GroupElement) -> bool:
        return x in self.members

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return 1 << self.log2_order

    @property
    def log2_order(self) -> int:
        return len(self._quotient) + len(self._phi)


def _insert(basis: dict[int, tuple[int, GroupElement]], image: int,
            x: GroupElement) -> tuple[bool, GroupElement]:
    """Reduce x, packed as image, against an echelon basis {leading bit:
    (image, member)} and add it unless it reduces to image 0.  Returns
    whether it was added and the reduced x."""
    while image:
        pivot = image.bit_length()
        if pivot not in basis:
            basis[pivot] = (image, x)
            return True, x
        b_image, b = basis[pivot]
        x = mul(x, b)
        image ^= b_image
    return False, x


def closure(
    generators: Sequence[GroupElement],
    space: AmbientSpace | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> CodeGroup:
    """Subgroup generated by the given elements.  Its order comes from the
    bases, so a group above the cap is refused before any element is listed."""
    if space is None:
        if not generators:
            raise ValueError("need at least one generator or an explicit space")
        space = generators[0].space
    group = CodeGroup(space, generators)
    if len(group) > cap:
        raise ClosureSizeError(f"closure exceeded cap of {cap} elements")
    return group


def log2_order(generators: Iterable[GroupElement]) -> int:
    """log2 of the order of the subgroup the elements generate, found from
    its bases without listing it."""
    generators = tuple(generators)
    return CodeGroup(generators[0].space, generators).log2_order if generators else 0


### Binary codes #############################################################


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the first failed clause (empty when ok)."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class BinaryCode:
    """Gray image of a CodeGroup (or any explicit word set): the words of
    length n as sorted packed ints, first bit most significant."""

    def __init__(self, n: int, words: Iterable[int]) -> None:
        self.n = n
        self.words = tuple(sorted(words))
        self.members = frozenset(self.words)
        if self.words and (self.words[0] < 0 or self.words[-1] >> n):
            raise ValueError("word length mismatch")

    @classmethod
    def from_group(cls, group: CodeGroup) -> "BinaryCode":
        code = cls(group.space.n, map(gray, group.members))
        if len(code.members) != len(code):
            raise ValueError("Gray map is not injective on this subgroup")
        return code

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: int) -> bool:
        return w in self.members

    @cached_property
    def kernel_cosets(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(kernel, reps): the words z of C with C + z = C, and one word of
        each coset of that kernel K in C, both as sorted packed ints.  C is
        the disjoint union of the r + K, each r being its coset's least word.

        The words are taken in order, each reduced against an echelon basis
        of the kernel K' found so far (reps then holds the reduced words of
        C, one per coset of K').  A word that reduces to 0 lies in K'; one
        that reduces to a coset already known to fail lies outside K, since
        K' is a subgroup of K.  Any other z is in K iff z + r is in C for
        every r in reps: C is a union of cosets of K', so those words decide
        C + z = C.  An accepted z joins the basis and merges the cosets of
        reps in pairs.  Without 0 in C no word of C is in K (z + z = 0);
        then every word represents itself.
        """
        members = self.members
        if 0 not in members:
            return (), tuple(sorted(members))
        basis: list[int] = []  # distinct leading bits, descending
        reps = set(members)
        failed: set[int] = set()
        for z in self.words:
            for b in basis:
                z = min(z, z ^ b)
            if not z or z in failed:
                continue
            if all(z ^ r in members for r in reps):
                basis.append(z)
                basis.sort(reverse=True)
                reps = {min(r, r ^ z) for r in reps}
                failed = {min(f, f ^ z) for f in failed}
            else:
                failed.add(z)
        kernel = [0]
        for b in basis:
            kernel += [w ^ b for w in kernel]
        return tuple(sorted(kernel)), tuple(sorted(reps))


def size_check(n: int, size: int) -> CheckResult:
    """The first clause of is_hadamard: length n needs 2n codewords."""
    if size != 2 * n:
        return CheckResult(False, f"size: expected {2 * n} codewords, got {size}")
    return CheckResult(True)


def is_hadamard(code: BinaryCode) -> CheckResult:
    """Full Hadamard-code check with a named first-failure diagnosis.

    Both the weight-distribution clause and the pairwise-distance clause are
    verified; they are equivalent for group codes but we do not rely on that.
    The pairwise clause is decided on the kernel cosets C = U (r_i + K): two
    words of one coset differ by a nonzero kernel word, a codeword whose
    weight the weight clause has checked, and two words of cosets i != j
    differ by a word of r_i + r_j + K.  That is |reps|^2 / 2 * |K| weights
    instead of |C|^2 / 2 distances, and none for a linear code.  On a
    failure (or repeated words) the ordered pairwise scan names the first
    bad pair.
    """
    n = code.n
    half = n // 2
    full = (1 << n) - 1
    size = size_check(n, len(code))
    if not size:
        return size
    if 0 not in code:
        return CheckResult(False, "all-zeros word missing")
    if full not in code:
        return CheckResult(False, "all-ones word missing")
    for bits in code.words:
        w = bits.bit_count()
        if w not in (0, half, n):
            return CheckResult(False, f"word of weight {w} (allowed 0, {half}, {n})")
    if len(code.members) != len(code) or not _cosets_apart(code):
        return _pairwise_scan(code)
    return CheckResult(True)


def _cosets_apart(code: BinaryCode) -> bool:
    """Whether every word of r_i + r_j + K, over pairs of distinct coset
    representatives, has weight n/2 or n."""
    kernel, reps = code.kernel_cosets
    n = code.n
    half = n // 2
    for i, ri in enumerate(reps):
        for rj in reps[i + 1 :]:
            d = ri ^ rj
            for z in kernel:
                w = (d ^ z).bit_count()
                if w != half and w != n:
                    return False
    return True


def _pairwise_scan(code: BinaryCode) -> CheckResult:
    """The pairwise clause pair by pair, in word order: names the first pair
    at a distance other than n/2 or n."""
    n = code.n
    half = n // 2
    words = code.words
    for i, wi in enumerate(words):
        for wj in words[i + 1 :]:
            d = (wi ^ wj).bit_count()
            if d != half and d != n:
                return CheckResult(False, f"pair at distance {d} (allowed {half}, {n})")
    return CheckResult(True)


### Kernel: two independent routes ###########################################


def kernel_bruteforce(code: BinaryCode) -> tuple[int, ...]:
    """All z in C with C + z = C, in word order, from the binary words alone
    (BinaryCode.kernel_cosets).

    Searching inside C is enough: 0 is in C, so any kernel word is in C.
    """
    return code.kernel_cosets[0]


def kernel_by_swappers(group: CodeGroup) -> tuple[int, ...]:
    """Kernel via the group criterion: gray(c) is a kernel word iff every
    swapper (c : y), y in the group, stays inside the group.  Checking the
    generators suffices because swappers are multiplicative in each slot."""
    kernel = [
        gray(c)
        for c in group.elements
        if all(swapper(c, g) in group for g in group.generators)
    ]
    return tuple(sorted(kernel))


### Rank: two independent routes #############################################


def rank_gf2(code: BinaryCode) -> int:
    """Dimension of the GF(2) span of the codewords."""
    return gf2_rank(code.words)


def rank_by_span_group(group: CodeGroup) -> int:
    """log2 of the subgroup generated by the code group and all pairwise
    swappers of its generators; its Gray image is the linear span."""
    extra = [
        swapper(gi, gj)
        for i, gi in enumerate(group.generators)
        for gj in group.generators[i + 1 :]
    ]
    return log2_order(group.generators + tuple(extra))


@dataclass(frozen=True)
class RankKernelReport:
    r: int
    k: int


def rank_kernel_report(group: CodeGroup) -> RankKernelReport:
    """Compute rank and kernel by both routes and cross-check them."""
    code = group.gray_image
    if kernel_bruteforce(code) != kernel_by_swappers(group):
        raise OracleMismatch("kernel oracles disagree")
    kernel, reps = code.kernel_cosets  # is_hadamard trusts these cosets
    k = gf2_rank(kernel)
    rebuilt = {r ^ z for r in reps for z in kernel}
    if len(reps) << k != len(code) or rebuilt != code.members:
        raise OracleMismatch("kernel cosets do not rebuild the code")
    r = rank_gf2(code)
    r2 = rank_by_span_group(group)
    if r != r2:
        raise OracleMismatch(f"rank oracles disagree: {r} vs {r2}")
    return RankKernelReport(r=r, k=k)


### File formats #############################################################


def generators_text(group: CodeGroup) -> str:
    """Header `space k1 k2 k3`, then one generator per line."""
    sp = group.space
    lines = [f"space {sp.k1} {sp.k2} {sp.k3}", *map(render_element, group.generators)]
    return "\n".join(lines) + "\n"


def read_generators(text: str) -> tuple[AmbientSpace, list[GroupElement]]:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty generator file")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "space":
        raise ParseError(f"bad header {lines[0]!r}; expected 'space k1 k2 k3'")
    try:
        k1, k2, k3 = (int(tok) for tok in head[1:])
        space = AmbientSpace(k1, k2, k3)
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}") from None
    gens = []
    for ln in lines[1:]:
        try:
            gens.append(parse_element(ln, space))
        except ValueError as exc:
            raise ParseError(f"bad generator line {ln!r}: {exc}") from None
    if not gens:
        raise ParseError("no generators in file")
    return space, gens


def export_binary(code: BinaryCode) -> str:
    """One codeword per line as 0/1 characters, rows sorted lexicographically
    (a word of length 0 is an empty line)."""
    n = code.n
    return "\n".join(f"{w:0{n}b}" if n else "" for w in code.words) + "\n"
