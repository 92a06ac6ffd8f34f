"""Subgroup enumeration, Gray-image codes, Hadamard checks, rank and kernel.

Every subgroup the package lists is enumerated coset by coset (Span,
Dimino's algorithm): the code group itself and the subgroups the structure
module scans.  Orders alone come from log2_order, which enumerates nothing:
it works modulo the Frattini subgroup, so the span group behind the
group-side rank oracle, 2^r elements, is never listed.

Rank and kernel are each computed by two independent routes (plain GF(2)
linear algebra on the binary codewords vs. group-theoretic criteria via
swappers); rank_kernel_report cross-checks them on every code it measures
and returns the pair (r, k) alone.  Checks return a CheckResult: the verdict
and the first failed clause.
Binary words are packed ints (see algebra.BinaryWord); GF(2) elimination
works directly on those ints.  A binary code is split once into the cosets
of its kernel (BinaryCode.kernel_cosets); the binary kernel oracle and the
Hadamard check's pairwise clause both read that split, so no scan over all
pairs of codewords runs unless the pairwise clause fails.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TextIO

from .algebra import (
    AmbientSpace,
    BinaryWord,
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
    "Span",
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
    "gf2_basis",
    "write_generators",
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


def gf2_basis(rows: Iterable[int]) -> list[int]:
    """Canonical (reduced echelon) basis of the span, descending pivots."""
    pivots: dict[int, int] = {}  # pivot bit length -> row
    for row in rows:
        while row:
            h = row.bit_length()
            if h not in pivots:
                pivots[h] = row
                break
            row ^= pivots[h]
    # back-substitute to make the basis canonical
    for h in sorted(pivots):
        for h2 in sorted(pivots):
            if h2 > h and (pivots[h2] >> (h - 1)) & 1:
                pivots[h2] ^= pivots[h]
    return [pivots[h] for h in sorted(pivots, reverse=True)]


### Subgroup enumeration ####################################################


class CodeGroup:
    """A subgroup of an ambient space, fully enumerated.

    Elements are ordered lexicographically on their canonical text form;
    that order is the reference order for every greedy scan elsewhere.
    """

    def __init__(
        self,
        space: AmbientSpace,
        generators: Sequence[GroupElement],
        elements: Sequence[GroupElement],
    ) -> None:
        self.space = space
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._member_set = frozenset(self.elements)

    def __contains__(self, x: GroupElement) -> bool:
        return x in self._member_set

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def log2_order(self) -> int:
        return len(self.elements).bit_length() - 1

    def same_elements(self, other: "CodeGroup") -> bool:
        return self._member_set == other._member_set

    @cached_property
    def gray_image(self) -> "BinaryCode":
        """The Gray image, built on first use and shared by every check."""
        return BinaryCode.from_group(self)


class Span:
    """A subgroup grown one generator at a time, enumerated coset by coset.

    add(g) is one step of Dimino's algorithm (Butler, Fundamental Algorithms
    for Permutation Groups, ch. 6): with H the span so far, it multiplies
    each coset representative (the identity first) by every generator and
    appends the right coset H*y of each product y not yet spanned.  Right
    cosets partition the span, so g need not normalize H.  `generators`
    lists, in order, the added elements that were not yet spanned.
    """

    def __init__(self, space: AmbientSpace, elements: Iterable[GroupElement] = (),
                 cap: int = DEFAULT_CLOSURE_CAP) -> None:
        self.space = space
        self.cap = cap
        self.elements: list[GroupElement] = [space.identity()]
        self.members: set[GroupElement] = set(self.elements)
        self.generators: list[GroupElement] = []
        for g in elements:
            self.add(g)

    def add(self, g: GroupElement) -> None:
        if g in self.members:
            return
        if g.space != self.space:
            raise ValueError("generators live in different ambient spaces")
        self.generators.append(g)
        old = self.elements[:]
        reps = old[:1]  # the identity represents H itself
        for rep in reps:
            for s in self.generators:
                y = mul(rep, s)
                if y in self.members:
                    continue
                if len(self.elements) + len(old) > self.cap:
                    raise ClosureSizeError(f"closure exceeded cap of {self.cap} elements")
                coset = [mul(h, y) for h in old]
                self.elements.extend(coset)
                self.members.update(coset)
                reps.append(y)

    def copy(self) -> "Span":
        twin = Span(self.space, cap=self.cap)
        twin.elements = self.elements[:]
        twin.members = set(self.members)
        twin.generators = self.generators[:]
        return twin

    def __contains__(self, x: GroupElement) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.elements)


def closure(
    generators: Sequence[GroupElement],
    space: AmbientSpace | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> CodeGroup:
    """Subgroup generated by the given elements, in canonical order.

    The order is found first, by log2_order, so a group above the cap is
    refused before any element is listed."""
    if space is None:
        if not generators:
            raise ValueError("need at least one generator or an explicit space")
        space = generators[0].space
    if 1 << log2_order(generators) > cap:
        raise ClosureSizeError(f"closure exceeded cap of {cap} elements")
    span = Span(space, generators, cap)
    return CodeGroup(space, generators, sorted(span.elements, key=sort_key))


def log2_order(generators: Iterable[GroupElement]) -> int:
    """log2 of the order of the subgroup H the elements generate, found
    without listing H.

    The ambient group has class 2 and its Frattini subgroup Phi is central
    and elementary abelian (see algebra), so |H| = |H Phi / Phi| * |H cap Phi|.
    Each generator is reduced modulo Phi against an echelon basis B whose
    members are the reduced products, so B lies in H and gives the first
    factor.  Collecting any word in B leaves a product of distinct members
    of B times squares and commutators of members, all in Phi; so H cap Phi
    is spanned by those and the residues of generators that reduced into
    Phi, and its dimension is one GF(2) rank.
    """
    basis: dict[int, tuple[int, GroupElement]] = {}  # pivot -> (image, member)
    rows: list[int] = []
    for g in generators:
        image = frattini_image(g)
        while image:
            pivot = image.bit_length()
            if pivot not in basis:
                basis[pivot] = (image, g)
                break
            b_image, b = basis[pivot]
            g = mul(g, b)
            image ^= b_image
        else:
            rows.append(frattini_coordinate(g))
    members = [b for _, b in basis.values()]
    rows += [frattini_coordinate(square(b)) for b in members]
    rows += [frattini_coordinate(commutator(b, c))
             for i, b in enumerate(members) for c in members[i + 1:]]
    return len(members) + gf2_rank(rows)


### Binary codes #############################################################


@dataclass(frozen=True)
class CheckResult:
    """Boolean verdict plus the first failed clause (empty when ok)."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


class BinaryCode:
    """Gray image of a CodeGroup (or any explicit word set)."""

    def __init__(self, n: int, words: Iterable[BinaryWord]) -> None:
        self.n = n
        self.words = tuple(sorted(words))
        self.word_ints = tuple(w.bits for w in self.words)
        self._int_set = frozenset(self.word_ints)
        for w in self.words:
            if w.n != n:
                raise ValueError("word length mismatch")

    @classmethod
    def from_group(cls, group: CodeGroup) -> "BinaryCode":
        words = [gray(x) for x in group.elements]
        if len(set(words)) != len(words):
            raise ValueError("Gray map is not injective on this subgroup")
        return cls(group.space.n, words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: BinaryWord) -> bool:
        return w.bits in self._int_set and w.n == self.n

    def contains_bits(self, bits: int) -> bool:
        return bits in self._int_set

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
        members = self._int_set
        if 0 not in members:
            return (), tuple(sorted(members))
        basis: list[int] = []  # distinct leading bits, descending
        reps = set(members)
        failed: set[int] = set()
        for z in self.word_ints:
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
    if not code.contains_bits(0):
        return CheckResult(False, "all-zeros word missing")
    if not code.contains_bits(full):
        return CheckResult(False, "all-ones word missing")
    for bits in code.word_ints:
        w = bits.bit_count()
        if w not in (0, half, n):
            return CheckResult(False, f"word of weight {w} (allowed 0, {half}, {n})")
    if len(code._int_set) != len(code.word_ints) or not _cosets_apart(code):
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
    ints = code.word_ints
    for i, wi in enumerate(ints):
        for wj in ints[i + 1 :]:
            d = (wi ^ wj).bit_count()
            if d != half and d != n:
                return CheckResult(False, f"pair at distance {d} (allowed {half}, {n})")
    return CheckResult(True)


### Kernel: two independent routes ###########################################


def kernel_bruteforce(code: BinaryCode) -> tuple[BinaryWord, ...]:
    """All z in C with C + z = C, in word order, from the binary words alone
    (BinaryCode.kernel_cosets).

    Searching inside C is enough: 0 is in C, so any kernel word is in C.
    """
    return tuple(BinaryWord(code.n, z) for z in code.kernel_cosets[0])


def kernel_by_swappers(group: CodeGroup) -> tuple[BinaryWord, ...]:
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
    return gf2_rank(code.word_ints)


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
    if len(reps) << k != len(code) or rebuilt != code._int_set:
        raise OracleMismatch("kernel cosets do not rebuild the code")
    r = rank_gf2(code)
    r2 = rank_by_span_group(group)
    if r != r2:
        raise OracleMismatch(f"rank oracles disagree: {r} vs {r2}")
    return RankKernelReport(r=r, k=k)


### File formats #############################################################


def write_generators(group: CodeGroup, out: TextIO) -> None:
    """Header `space k1 k2 k3`, then one generator per line."""
    sp = group.space
    out.write(f"space {sp.k1} {sp.k2} {sp.k3}\n")
    for g in group.generators:
        out.write(render_element(g) + "\n")


def generators_text(group: CodeGroup) -> str:
    buf = io.StringIO()
    write_generators(group, buf)
    return buf.getvalue()


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
    """One codeword per line as 0/1 characters, rows sorted lexicographically."""
    return "\n".join(str(w) for w in code.words) + "\n"
