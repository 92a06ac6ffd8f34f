"""Component arithmetic for the ambient groups Z2^k1 x Z4^k2 x Q8^k3.

Q8 elements are kept in the canonical form a^i b^j (0 <= i <= 3, j in {0,1})
and named by the index i + 4j, so the eight elements in index order are

    1, a, a2, a3, b, ab, a2b, a3b.

An element is stored bit-sliced (Biham, "A fast new DES implementation in
software", FSE 1997): each block is a few integer bit-planes holding one bit
per component, component 0 in the most significant place of its block.

    Z2  v          one plane   z2p = v
    Z4  v          two planes  lo, hi with v = lo + 2 hi
    Q8  a^i b^j    three planes i0, i1, j with i = i0 + 2 i1

Every component operation then acts on a whole block at once through integer
XOR and AND.  From the relations b a b^-1 = a^-1 and b^2 = a^2, writing
(i0, i1, j) * (k0, k1, l):

    Q8 product   i0' = i0^k0, i1' = i1^k1^(j&k0)^(i0&k0)^(j&l), j' = j^l
    Z4 product   lo' = lo^lo2, hi' = hi^hi2^(lo&lo2)
    commutator   Q8 i1 = (xi0&yj)^(xj&yi0); trivial elsewhere
    swapper      Z4 hi = xlo&ylo; Q8 i1 = (xi0&yi0)^(xi0&yj)^(xj&yj)

Entries are validated only where they enter the package: the public
GroupElement(space, z2, z4, q8) constructor, AmbientSpace.element and
parse_element.  Every operation builds its result with the unchecked _make.
The z2/z4/q8 properties decode the planes back into entry tuples for the
few readers that work entry by entry (lifts, text, duplication checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "Q8_NAMES",
    "AmbientSpace",
    "GroupElement",
    "mul",
    "inverse",
    "square",
    "order",
    "gray",
    "commutator",
    "swapper",
    "frattini_image",
    "frattini_coordinate",
    "sort_key",
    "render_element",
    "parse_element",
]

Q8_NAMES = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")
Q8_INDEX = {name: idx for idx, name in enumerate(Q8_NAMES)}


def _spread(plane: int, step: int) -> int:
    """Move bit t of plane to bit step*t (step 2, 3 or 4): its binary digits
    read in base 2^step."""
    return int(format(plane, "b"), 1 << step)


# Entry value -> its binary digits, per block alphabet size.
_DIGITS = {size: {v: format(v, f"0{size.bit_length() - 1}b") for v in range(size)}
           for size in (2, 4, 8)}


def _planes(values: tuple, size: int, message: str) -> list[int]:
    """Bit-planes of entries from range(size), low bit first, the first entry
    in the top bit of each plane."""
    try:
        digits = "".join([_DIGITS[size][v] for v in values])
    except (KeyError, TypeError):
        raise ValueError(message) from None
    width = size.bit_length() - 1
    return [int(digits[width - 1 - b::width] or "0", 2) for b in range(width)]


def _entries(planes: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Inverse of _planes for a block of k components."""
    if not k:
        return ()
    hexed = 0
    for b, plane in enumerate(planes):
        hexed |= _spread(plane, 4) << b
    return tuple(map(int, format(hexed, f"0{k}x")))


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

    def identity(self) -> GroupElement:
        return _make(self, 0, 0, 0, 0, 0, 0)

    def all_ones(self) -> GroupElement:
        """The central involution u = (1,...,1, 2,...,2, a2,...,a2)."""
        return _make(self, (1 << self.k1) - 1, 0, (1 << self.k2) - 1,
                     0, (1 << self.k3) - 1, 0)

    def element(
        self,
        z2: Iterable[int] = (),
        z4: Iterable[int] = (),
        q8: Iterable[int | str] = (),
    ) -> GroupElement:
        try:
            q8_idx = [Q8_INDEX[c] if isinstance(c, str) else c for c in q8]
        except KeyError as exc:
            raise ValueError(f"unknown Q8 entry {exc.args[0]!r}") from None
        return GroupElement(self, z2, z4, q8_idx)


class GroupElement:
    """One vector of the ambient group, stored as bit-planes (see above).

    GroupElement(space, z2, z4, q8) takes the three blocks as entry
    sequences and checks them; instances are immutable by convention and
    hash by their planes, the hash computed once.
    """

    __slots__ = ("space", "z2p", "lo", "hi", "i0", "i1", "j", "_hash")

    def __init__(self, space: AmbientSpace, z2: Iterable[int],
                 z4: Iterable[int], q8: Iterable[int]) -> None:
        z2, z4, q8 = tuple(z2), tuple(z4), tuple(q8)
        if (len(z2), len(z4), len(q8)) != (space.k1, space.k2, space.k3):
            raise ValueError("block lengths do not match the ambient space")
        self.space = space
        (self.z2p,) = _planes(z2, 2, "Z2 entries must be 0 or 1")
        self.lo, self.hi = _planes(z4, 4, "Z4 entries must be in 0..3")
        self.i0, self.i1, self.j = _planes(q8, 8, "Q8 entries must be in 0..7")
        self._hash = None

    @property
    def z2(self) -> tuple[int, ...]:
        return _entries((self.z2p,), self.space.k1)

    @property
    def z4(self) -> tuple[int, ...]:
        return _entries((self.lo, self.hi), self.space.k2)

    @property
    def q8(self) -> tuple[int, ...]:
        """Q8 indices i + 4j."""
        return _entries((self.i0, self.i1, self.j), self.space.k3)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GroupElement:
            return NotImplemented
        return (self.i1 == other.i1 and self.hi == other.hi and self.z2p == other.z2p
                and self.i0 == other.i0 and self.j == other.j and self.lo == other.lo
                and (self.space is other.space or self.space == other.space))

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.z2p, self.lo, self.hi, self.i0, self.i1, self.j))
        return h

    def __repr__(self) -> str:
        return f"GroupElement({self.space!r}, {self.z2!r}, {self.z4!r}, {self.q8!r})"


_new = object.__new__


def _make(space: AmbientSpace, z2p: int, lo: int, hi: int,
          i0: int, i1: int, j: int) -> GroupElement:
    """Element from planes, unchecked: the operations' result constructor."""
    x = _new(GroupElement)
    x.space = space
    x.z2p = z2p
    x.lo = lo
    x.hi = hi
    x.i0 = i0
    x.i1 = i1
    x.j = j
    x._hash = None
    return x


def _same_space(x: GroupElement, y: GroupElement) -> AmbientSpace:
    space = x.space
    if space is not y.space and space != y.space:
        raise ValueError("elements live in different ambient spaces")
    return space


def mul(x: GroupElement, y: GroupElement) -> GroupElement:
    """Componentwise product."""
    space = _same_space(x, y)
    xlo, xi0, xj, yi0, yj = x.lo, x.i0, x.j, y.i0, y.j
    return _make(space, x.z2p ^ y.z2p, xlo ^ y.lo, x.hi ^ y.hi ^ (xlo & y.lo),
                 xi0 ^ yi0, x.i1 ^ y.i1 ^ ((xj ^ xi0) & yi0) ^ (xj & yj), xj ^ yj)


def inverse(x: GroupElement) -> GroupElement:
    # -v in Z4 flips hi where lo is set; a^-i flips i1 where i0 is set, and
    # every a^i b is its own inverse times a2.
    return _make(x.space, x.z2p, x.lo, x.hi ^ x.lo, x.i0, x.i1 ^ (x.i0 | x.j), x.j)


def square(x: GroupElement) -> GroupElement:
    # 2v in Z4 is 2 exactly where v is odd; an order-four Q8 entry squares to a2.
    return _make(x.space, 0, 0, x.lo, 0, x.i0 | x.j, 0)


def order(x: GroupElement) -> int:
    """Element order; always 1, 2 or 4 here."""
    if x.lo or x.i0 or x.j:
        return 4
    if x.z2p or x.hi or x.i1:
        return 2
    return 1


def gray(x: GroupElement) -> int:
    """Concatenated Gray image, packed into an int of x.space.n bits with
    the first bit most significant (so integer order is the lexicographic
    order of the 0/1 strings): identity on Z2, the reflected code
    v -> (hi, hi^lo) on Z4, and on Q8 the fixed length-4 words

        1 0000, a 0101, a2 1111, a3 1010, b 0110, ab 1100, a2b 1001, a3b 0011,

    whose image set is the even-weight code of length 4 (which is what makes
    the swapper well defined componentwise).  Each bit of a component's word
    is an XOR/AND formula of its plane bits, evaluated for every component
    at once after _spread has moved the planes' bits to their places."""
    space = x.space
    hi, lo = _spread(x.hi, 2), _spread(x.lo, 2)
    word = (x.z2p << 2 * space.k2) | (hi << 1) | (hi ^ lo)
    i0, i1, j = _spread(x.i0, 4), _spread(x.i1, 4), _spread(x.j, 4)
    ij = i0 & j
    return ((word << 4 * space.k3) | ((i1 ^ ij) << 3) | ((i0 ^ i1 ^ j ^ ij) << 2)
            | ((i1 ^ j ^ ij) << 1) | (i0 ^ i1 ^ ij))


def commutator(x: GroupElement, y: GroupElement) -> GroupElement:
    """[x,y] with x*y = [x,y]*y*x; trivial outside the Q8 block."""
    space = _same_space(x, y)
    return _make(space, 0, 0, 0, 0, (x.i0 & y.j) ^ (x.j & y.i0), 0)


def swapper(x: GroupElement, y: GroupElement) -> GroupElement:
    """(x:y) with gray((x:y)*x*y) = gray(x) xor gray(y)."""
    space = _same_space(x, y)
    xi0, xj, yj = x.i0, x.j, y.j
    return _make(space, 0, 0, x.lo & y.lo, 0, (xi0 & (y.i0 ^ yj)) ^ (xj & yj), 0)


# The Frattini subgroup Phi = G^2 of G = Z2^k1 x Z4^k2 x Q8^k3 is
# 1^k1 x {0,2}^k2 x {1,a2}^k3: elementary abelian, central, and it holds
# every commutator, so G has class 2.  G/Phi is GF(2)^(k1+k2+2k3) and Phi is
# GF(2)^(k2+k3); frattini_image and frattini_coordinate pack those vectors
# into ints.  Modulo Phi, a Z2 entry is its z2p bit, a Z4 entry its lo bit
# and a Q8 entry a^i b^j the pair (i0, j).  In Phi, a Z4 entry 0 or 2 and a
# Q8 entry 1 or a2 is its hi or i1 bit.


def frattini_image(x: GroupElement) -> int:
    """x modulo Phi, packed: one bit per Z2 or Z4 entry, two per Q8 entry."""
    k3 = x.space.k3
    return ((((x.z2p << x.space.k2) | x.lo) << 2 * k3)
            | (_spread(x.i0, 2) << 1) | _spread(x.j, 2))


def frattini_coordinate(x: GroupElement) -> int:
    """Coordinates of x in Phi, packed: one bit per Z4 or Q8 entry.  x must
    lie in Phi; its Z2 block is not read, and any other entry outside Phi
    raises KeyError."""
    if x.lo or x.i0 or x.j:
        raise KeyError("entry outside the Frattini subgroup")
    return (x.hi << x.space.k3) | x.i1


def sort_key(x: GroupElement) -> int:
    """Integer key ordering the elements of one space exactly as their
    render_element strings: the Z2 digits, the Z4 digits, then each Q8
    entry's rank in sorted(Q8_NAMES) = 1 a a2 a2b a3 a3b ab b, as 1, 2 and
    3-bit fields.  (In the text a shorter name sorts before every name it
    prefixes, because ' ' and the end of the string sort before 1-3, a, b.)"""
    k2, k3 = x.space.k2, x.space.k3
    lo, hi, i0, i1, j = x.lo, x.hi, x.i0, x.i1, x.j
    both, i1j = i0 & i1, i1 & j
    key = (x.z2p << 2 * k2) | (_spread(hi, 2) << 1) | _spread(lo, 2)
    return ((key << 3 * k3) | (_spread(j ^ both ^ i1j, 3) << 2)
            | (_spread(i1 ^ j ^ both ^ i1j, 3) << 1) | _spread(i0 ^ j ^ both, 3))


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
    z2 = [int(tok) for tok in chunks[0].split()]
    z4 = [int(tok) for tok in chunks[1].split()]
    return space.element(z2, z4, chunks[2].split())

