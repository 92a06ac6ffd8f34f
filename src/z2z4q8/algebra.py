"""Component arithmetic for the ambient groups Z2^k1 x Z4^k2 x Q8^k3.

Q8 elements are kept in the canonical form a^i b^j (0 <= i <= 3, j in {0,1})
and encoded as the index i + 4j, so the eight elements in index order are

    1, a, a2, a3, b, ab, a2b, a3b.

All component-level operations (products, inverses, commutators, swappers,
Gray images) are table lookups; the tables are generated once, below, from
the defining relations b*a*b^-1 = a^-1 and b^2 = a^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Q8_NAMES",
    "AmbientSpace",
    "GroupElement",
    "BinaryWord",
    "mul",
    "inverse",
    "square",
    "order",
    "gray",
    "commutator",
    "swapper",
    "frattini_image",
    "frattini_coordinate",
    "m_set",
    "render_element",
    "parse_element",
]

Q8_NAMES = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")
Q8_INDEX = {name: idx for idx, name in enumerate(Q8_NAMES)}


def _q8_reduce(i: int, j: int) -> int:
    return (i % 4) + 4 * (j % 2)


def _q8_mul_raw(x: int, y: int) -> int:
    # (a^i b^j)(a^k b^l), pushing a^k through b via b a = a^-1 b.
    i, j = x % 4, x // 4
    k, l = y % 4, y // 4
    if j == 0:
        return _q8_reduce(i + k, l)
    if l == 0:
        return _q8_reduce(i - k, 1)
    return _q8_reduce(i - k + 2, 0)  # b^2 = a^2


Q8_MUL = tuple(tuple(_q8_mul_raw(x, y) for y in range(8)) for x in range(8))
Q8_INV = tuple(next(y for y in range(8) if Q8_MUL[x][y] == 0) for x in range(8))
Q8_SQ = tuple(Q8_MUL[x][x] for x in range(8))
Q8_ORD = tuple(1 if x == 0 else (2 if Q8_SQ[x] == 0 else 4) for x in range(8))

# Gray images: Z2 is the identity, Z4 uses the usual reflected code, and the
# Q8 images (in index order 1,a,a2,a3,b,ab,a2b,a3b) are the fixed length-4
# words below.  Note the Q8 image set is exactly the even-weight code of
# length 4, which is what makes the swapper well defined componentwise.
GRAY_Z4 = ((0, 0), (0, 1), (1, 1), (1, 0))
GRAY_Q8 = (
    (0, 0, 0, 0),
    (0, 1, 0, 1),
    (1, 1, 1, 1),
    (1, 0, 1, 0),
    (0, 1, 1, 0),
    (1, 1, 0, 0),
    (1, 0, 0, 1),
    (0, 0, 1, 1),
)

_GRAY_Z4_INV = {bits: v for v, bits in enumerate(GRAY_Z4)}
_GRAY_Q8_INV = {bits: x for x, bits in enumerate(GRAY_Q8)}


def _swap_z4(x: int, y: int) -> int:
    img = tuple(p ^ q for p, q in zip(GRAY_Z4[x], GRAY_Z4[y]))
    return (_GRAY_Z4_INV[img] - (x + y)) % 4


def _swap_q8(x: int, y: int) -> int:
    img = tuple(p ^ q for p, q in zip(GRAY_Q8[x], GRAY_Q8[y]))
    return Q8_MUL[_GRAY_Q8_INV[img]][Q8_INV[Q8_MUL[x][y]]]


def _comm_q8(x: int, y: int) -> int:
    # [x,y] with x y = [x,y] y x
    return Q8_MUL[Q8_MUL[x][y]][Q8_INV[Q8_MUL[y][x]]]


SWAP_Z4 = tuple(tuple(_swap_z4(x, y) for y in range(4)) for x in range(4))
SWAP_Q8 = tuple(tuple(_swap_q8(x, y) for y in range(8)) for x in range(8))
COMM_Q8 = tuple(tuple(_comm_q8(x, y) for y in range(8)) for x in range(8))

# The Frattini subgroup Phi = G^2 of G = Z2^k1 x Z4^k2 x Q8^k3 is
# 1^k1 x {0,2}^k2 x {1,a2}^k3: elementary abelian, central, and it holds
# every commutator, so G has class 2.  G/Phi is GF(2)^(k1+k2+2k3) and Phi is
# GF(2)^(k2+k3); frattini_image and frattini_coordinate pack those vectors
# into ints.  Modulo Phi, a Z2 entry v is v, a Z4 entry v is v & 1, and a Q8
# entry a^i b^j is the pair (i & 1, j).  In Phi, the Z4 entries 0, 2 and the
# Q8 entries 1, a2 (indices 0, 2) are the bits 0, 1.
Q8_MOD_PHI = tuple(((x & 1) << 1) | (x >> 2) for x in range(8))
PHI_BIT = {0: 0, 2: 1}


@dataclass(frozen=True)
class AmbientSpace:
    """Direct product Z2^k1 x Z4^k2 x Q8^k3 with the fixed block order."""

    k1: int
    k2: int
    k3: int

    def __post_init__(self) -> None:
        if self.k1 < 0 or self.k2 < 0 or self.k3 < 0:
            raise ValueError("component counts must be non-negative")

    @property
    def n(self) -> int:
        """Binary length of the Gray image."""
        return self.k1 + 2 * self.k2 + 4 * self.k3

    @property
    def num_components(self) -> int:
        return self.k1 + self.k2 + self.k3

    def identity(self) -> GroupElement:
        return GroupElement(self, (0,) * self.k1, (0,) * self.k2, (0,) * self.k3)

    def all_ones(self) -> GroupElement:
        """The central involution u = (1,...,1, 2,...,2, a2,...,a2)."""
        return GroupElement(self, (1,) * self.k1, (2,) * self.k2, (2,) * self.k3)

    def element(
        self,
        z2: Iterable[int] = (),
        z4: Iterable[int] = (),
        q8: Iterable[int | str] = (),
    ) -> GroupElement:
        q8_idx = tuple(Q8_INDEX[c] if isinstance(c, str) else c for c in q8)
        return GroupElement(self, tuple(z2), tuple(z4), q8_idx)


@dataclass(frozen=True)
class GroupElement:
    """One vector of the ambient group; blocks stored as int tuples."""

    space: AmbientSpace
    z2: tuple[int, ...]
    z4: tuple[int, ...]
    q8: tuple[int, ...]

    def __post_init__(self) -> None:
        sp = self.space
        if (len(self.z2), len(self.z4), len(self.q8)) != (sp.k1, sp.k2, sp.k3):
            raise ValueError("block lengths do not match the ambient space")
        if any(v not in (0, 1) for v in self.z2):
            raise ValueError("Z2 entries must be 0 or 1")
        if any(not 0 <= v <= 3 for v in self.z4):
            raise ValueError("Z4 entries must be in 0..3")
        if any(not 0 <= v <= 7 for v in self.q8):
            raise ValueError("Q8 entries must be in 0..7")


@dataclass(frozen=True, order=True)
class BinaryWord:
    """Length-n bit vector, packed into an int with the first bit most
    significant (so integer order equals lexicographic order on the 0/1
    string)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits out of range for length")

    def __xor__(self, other: BinaryWord) -> BinaryWord:
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BinaryWord(self.n, self.bits ^ other.bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b") if self.n else ""

    @staticmethod
    def from_bits(bits: Iterable[int]) -> BinaryWord:
        acc = 0
        count = 0
        for bit in bits:
            acc = (acc << 1) | (bit & 1)
            count += 1
        return BinaryWord(count, acc)

    def bit(self, pos: int) -> int:
        return (self.bits >> (self.n - 1 - pos)) & 1


def _check_same_space(x: GroupElement, y: GroupElement) -> None:
    if x.space != y.space:
        raise ValueError("elements live in different ambient spaces")


def mul(x: GroupElement, y: GroupElement) -> GroupElement:
    """Componentwise product."""
    _check_same_space(x, y)
    return GroupElement(
        x.space,
        tuple((p + q) & 1 for p, q in zip(x.z2, y.z2)),
        tuple((p + q) & 3 for p, q in zip(x.z4, y.z4)),
        tuple(Q8_MUL[p][q] for p, q in zip(x.q8, y.q8)),
    )


def inverse(x: GroupElement) -> GroupElement:
    return GroupElement(
        x.space,
        x.z2,
        tuple((-v) & 3 for v in x.z4),
        tuple(Q8_INV[v] for v in x.q8),
    )


def square(x: GroupElement) -> GroupElement:
    return GroupElement(
        x.space,
        (0,) * x.space.k1,
        tuple((2 * v) & 3 for v in x.z4),
        tuple(Q8_SQ[v] for v in x.q8),
    )


def order(x: GroupElement) -> int:
    """Element order; always 1, 2 or 4 here."""
    if any(v in (1, 3) for v in x.z4) or any(Q8_ORD[v] == 4 for v in x.q8):
        return 4
    if any(x.z2) or any(x.z4) or any(x.q8):
        return 2
    return 1


def gray(x: GroupElement) -> BinaryWord:
    """Concatenated Gray image: identity on Z2, reflected code on Z4, and
    the fixed length-4 words on Q8."""
    bits: list[int] = list(x.z2)
    for v in x.z4:
        bits.extend(GRAY_Z4[v])
    for v in x.q8:
        bits.extend(GRAY_Q8[v])
    return BinaryWord.from_bits(bits)


def commutator(x: GroupElement, y: GroupElement) -> GroupElement:
    """[x,y] with x*y = [x,y]*y*x; trivial outside the Q8 block."""
    _check_same_space(x, y)
    return GroupElement(
        x.space,
        (0,) * x.space.k1,
        (0,) * x.space.k2,
        tuple(COMM_Q8[p][q] for p, q in zip(x.q8, y.q8)),
    )


def swapper(x: GroupElement, y: GroupElement) -> GroupElement:
    """(x:y) with gray((x:y)*x*y) = gray(x) xor gray(y)."""
    _check_same_space(x, y)
    return GroupElement(
        x.space,
        (0,) * x.space.k1,
        tuple(SWAP_Z4[p][q] for p, q in zip(x.z4, y.z4)),
        tuple(SWAP_Q8[p][q] for p, q in zip(x.q8, y.q8)),
    )


def frattini_image(x: GroupElement) -> int:
    """x modulo Phi, packed: one bit per Z2 or Z4 entry, two per Q8 entry."""
    acc = 0
    for v in x.z2:
        acc = (acc << 1) | v
    for v in x.z4:
        acc = (acc << 1) | (v & 1)
    for v in x.q8:
        acc = (acc << 2) | Q8_MOD_PHI[v]
    return acc


def frattini_coordinate(x: GroupElement) -> int:
    """Coordinates of x in Phi, packed: one bit per Z4 or Q8 entry.  x must
    lie in Phi; its Z2 block is not read, and any other entry outside Phi
    raises KeyError."""
    acc = 0
    for v in x.z4 + x.q8:
        acc = (acc << 1) | PHI_BIT[v]
    return acc


def m_set(x: GroupElement) -> set[int]:
    """0-based indices of the components carrying an order-two entry.

    Only defined for elements of order at most two; raises on order-4 input.
    """
    if order(x) == 4:
        raise ValueError("m_set is undefined for elements of order four")
    out: set[int] = set()
    k1, k2 = x.space.k1, x.space.k2
    for idx, v in enumerate(x.z2):
        if v == 1:
            out.add(idx)
    for idx, v in enumerate(x.z4):
        if v == 2:
            out.add(k1 + idx)
    for idx, v in enumerate(x.q8):
        if v == 2:
            out.add(k1 + k2 + idx)
    return out


def render_element(x: GroupElement) -> str:
    """Canonical text form: three space-separated blocks joined by ' | '."""
    parts = (
        " ".join(str(v) for v in x.z2),
        " ".join(str(v) for v in x.z4),
        " ".join(Q8_NAMES[v] for v in x.q8),
    )
    return " | ".join(parts).strip()


def parse_element(text: str, space: AmbientSpace) -> GroupElement:
    """Inverse of render_element for the given space."""
    chunks = text.split("|")
    if len(chunks) != 3:
        raise ValueError(f"expected 3 blocks separated by '|', got {len(chunks)}")
    z2 = tuple(int(tok) for tok in chunks[0].split())
    z4 = tuple(int(tok) for tok in chunks[1].split())
    try:
        q8 = tuple(Q8_INDEX[tok] for tok in chunks[2].split())
    except KeyError as exc:
        raise ValueError(f"unknown Q8 entry {exc.args[0]!r}") from None
    return GroupElement(space, z2, z4, q8)


def elements_of(space: AmbientSpace) -> Iterator[GroupElement]:
    """All |space| elements, in mixed-radix order (first component fastest)."""
    from itertools import product as iproduct

    ranges = [(0, 1)] * space.k1 + [(0, 1, 2, 3)] * space.k2 + [tuple(range(8))] * space.k3
    k1, k2 = space.k1, space.k2
    for combo in iproduct(*[range(len(r)) for r in reversed(ranges)]):
        vals = tuple(reversed(combo))
        yield GroupElement(
            space,
            vals[:k1],
            vals[k1 : k1 + k2],
            vals[k1 + k2 :],
        )
