"""Subgroup closures, Gray-image codes, Hadamard checks, rank and kernel.

Rank and kernel are each computed by two independent routes (plain GF(2)
linear algebra on the binary codewords vs. group-theoretic criteria via
swappers) so that the test suite can cross-check them on every code.
Binary words are packed ints (see algebra.BinaryWord); GF(2) elimination
works directly on those ints.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, TextIO

from .algebra import (
    AmbientSpace,
    BinaryWord,
    GroupElement,
    gray,
    mul,
    parse_element,
    render_element,
    swapper,
)

__all__ = [
    "CodeGroup",
    "BinaryCode",
    "HadamardCheck",
    "RankKernelReport",
    "ClosureSizeError",
    "ParseError",
    "closure",
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


### Group closure ############################################################


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


def closure(
    generators: Sequence[GroupElement],
    space: AmbientSpace | None = None,
    cap: int = DEFAULT_CLOSURE_CAP,
) -> CodeGroup:
    """Subgroup generated by the given elements (worklist closure).

    Inverses come for free: every element here has order dividing 4.
    """
    if space is None:
        if not generators:
            raise ValueError("need at least one generator or an explicit space")
        space = generators[0].space
    for g in generators:
        if g.space != space:
            raise ValueError("generators live in different ambient spaces")
    identity = space.identity()
    seen: set[GroupElement] = {identity}
    work = [identity]
    while work:
        x = work.pop()
        for g in generators:
            y = mul(x, g)
            if y not in seen:
                if len(seen) >= cap:
                    raise ClosureSizeError(f"closure exceeded cap of {cap} elements")
                seen.add(y)
                work.append(y)
    ordered = sorted(seen, key=render_element)
    size = len(ordered)
    if size & (size - 1):
        raise AssertionError(f"subgroup order {size} is not a power of two")
    return CodeGroup(space, generators, ordered)


### Binary codes #############################################################


@dataclass(frozen=True)
class HadamardCheck:
    ok: bool
    diagnosis: str = ""

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


def is_hadamard(code: BinaryCode) -> HadamardCheck:
    """Full Hadamard-code check with a named first-failure diagnosis.

    Both the weight-distribution clause and the pairwise-distance clause are
    verified; they are equivalent for group codes but we do not rely on that.
    """
    n = code.n
    half = n // 2
    full = (1 << n) - 1
    if len(code) != 2 * n:
        return HadamardCheck(False, f"size: expected {2 * n} codewords, got {len(code)}")
    if not code.contains_bits(0):
        return HadamardCheck(False, "all-zeros word missing")
    if not code.contains_bits(full):
        return HadamardCheck(False, "all-ones word missing")
    for bits in code.word_ints:
        w = bin(bits).count("1")
        if w not in (0, half, n):
            return HadamardCheck(False, f"word of weight {w} (allowed 0, {half}, {n})")
    ints = code.word_ints
    for i, wi in enumerate(ints):
        for wj in ints[i + 1 :]:
            d = bin(wi ^ wj).count("1")
            if d != half and d != n:
                return HadamardCheck(False, f"pair at distance {d} (allowed {half}, {n})")
    return HadamardCheck(True)


### Kernel: two independent routes ###########################################


def kernel_bruteforce(code: BinaryCode) -> tuple[BinaryWord, ...]:
    """All z in C with C + z = C, by direct translation testing.

    Searching inside C is enough: 0 is in C, so any kernel word is in C.
    """
    ints = code.word_ints
    members = code._int_set
    kernel = [z for z in ints if all((w ^ z) in members for w in ints)]
    return tuple(BinaryWord(code.n, z) for z in kernel)


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


def rank_by_span_group(group: CodeGroup, cap: int = DEFAULT_CLOSURE_CAP) -> int:
    """log2 of the subgroup generated by the code group and all pairwise
    swappers of its generators; its Gray image is the linear span."""
    extra = [
        swapper(gi, gj)
        for i, gi in enumerate(group.generators)
        for gj in group.generators[i + 1 :]
    ]
    span = closure(tuple(group.generators) + tuple(extra), space=group.space, cap=cap)
    return span.log2_order


@dataclass(frozen=True)
class RankKernelReport:
    r: int
    k: int
    kernel_words: tuple[BinaryWord, ...]  # canonical GF(2) basis of the kernel
    span_dimension_check: int

    def consistent(self) -> bool:
        return self.r == self.span_dimension_check and self.k <= self.r


def rank_kernel_report(group: CodeGroup) -> RankKernelReport:
    """Compute rank and kernel by both routes and cross-check them."""
    code = BinaryCode.from_group(group)
    kernel_set = kernel_bruteforce(code)
    kernel_other = kernel_by_swappers(group)
    if kernel_set != kernel_other:
        raise AssertionError("kernel oracles disagree")
    basis = gf2_basis(w.bits for w in kernel_set)
    k = len(basis)
    if 1 << k != len(kernel_set):
        raise AssertionError("kernel is not a linear subspace")
    r = rank_gf2(code)
    r2 = rank_by_span_group(group)
    if r != r2:
        raise AssertionError(f"rank oracles disagree: {r} vs {r2}")
    report = RankKernelReport(
        r=r,
        k=k,
        kernel_words=tuple(BinaryWord(code.n, b) for b in basis),
        span_dimension_check=r2,
    )
    if not report.consistent():
        raise AssertionError("inconsistent rank/kernel report")
    return report


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
