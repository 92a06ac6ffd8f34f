"""Entrywise, table-driven reference for the ambient group arithmetic.

This is the slow path the package's bit-sliced arithmetic replaced, kept
here as the oracle the fast path is cross-checked against.  An element is a
triple of entry tuples (z2, z4, q8), Q8 entries being the indices i + 4j of
a^i b^j; every component operation is a lookup in a table generated once
from the defining relations b*a*b^-1 = a^-1 and b^2 = a^2.
"""

from itertools import product

from z2z4q8.algebra import GroupElement

Q8_NAMES = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")


def _q8_reduce(i, j):
    return (i % 4) + 4 * (j % 2)


def _q8_mul_raw(x, y):
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

# Gray images: Z2 is the identity, Z4 the reflected code, Q8 (in index order)
# the fixed length-4 words below, the even-weight code of length 4.
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


def _swap_z4(x, y):
    img = tuple(p ^ q for p, q in zip(GRAY_Z4[x], GRAY_Z4[y]))
    return (_GRAY_Z4_INV[img] - (x + y)) % 4


def _swap_q8(x, y):
    img = tuple(p ^ q for p, q in zip(GRAY_Q8[x], GRAY_Q8[y]))
    return Q8_MUL[_GRAY_Q8_INV[img]][Q8_INV[Q8_MUL[x][y]]]


def _comm_q8(x, y):
    # [x,y] with x y = [x,y] y x
    return Q8_MUL[Q8_MUL[x][y]][Q8_INV[Q8_MUL[y][x]]]


SWAP_Z4 = tuple(tuple(_swap_z4(x, y) for y in range(4)) for x in range(4))
SWAP_Q8 = tuple(tuple(_swap_q8(x, y) for y in range(8)) for x in range(8))
COMM_Q8 = tuple(tuple(_comm_q8(x, y) for y in range(8)) for x in range(8))

# Modulo Phi a Q8 entry a^i b^j is the pair (i & 1, j); in Phi the Z4
# entries 0, 2 and the Q8 entries 1, a2 are the bits 0, 1.
Q8_MOD_PHI = tuple(((x & 1) << 1) | (x >> 2) for x in range(8))
PHI_BIT = {0: 0, 2: 1}


def entries(x):
    """The (z2, z4, q8) triple of a package element."""
    return x.z2, x.z4, x.q8


def mul(x, y):
    return (tuple((p + q) & 1 for p, q in zip(x[0], y[0])),
            tuple((p + q) & 3 for p, q in zip(x[1], y[1])),
            tuple(Q8_MUL[p][q] for p, q in zip(x[2], y[2])))


def inverse(x):
    return x[0], tuple((-v) & 3 for v in x[1]), tuple(Q8_INV[v] for v in x[2])


def square(x):
    return ((0,) * len(x[0]), tuple((2 * v) & 3 for v in x[1]),
            tuple(Q8_SQ[v] for v in x[2]))


def order(x):
    if any(v in (1, 3) for v in x[1]) or any(Q8_ORD[v] == 4 for v in x[2]):
        return 4
    if any(x[0]) or any(x[1]) or any(x[2]):
        return 2
    return 1


def commutator(x, y):
    return ((0,) * len(x[0]), (0,) * len(x[1]),
            tuple(COMM_Q8[p][q] for p, q in zip(x[2], y[2])))


def swapper(x, y):
    return ((0,) * len(x[0]), tuple(SWAP_Z4[p][q] for p, q in zip(x[1], y[1])),
            tuple(SWAP_Q8[p][q] for p, q in zip(x[2], y[2])))


def gray(x):
    """The Gray image as a 0/1 string."""
    bits = list(x[0])
    for v in x[1]:
        bits.extend(GRAY_Z4[v])
    for v in x[2]:
        bits.extend(GRAY_Q8[v])
    return "".join(str(b) for b in bits)


def frattini_image(x):
    acc = 0
    for v in x[0]:
        acc = (acc << 1) | v
    for v in x[1]:
        acc = (acc << 1) | (v & 1)
    for v in x[2]:
        acc = (acc << 2) | Q8_MOD_PHI[v]
    return acc


def frattini_coordinate(x):
    """Raises KeyError outside Phi, like the package."""
    acc = 0
    for v in x[1] + x[2]:
        acc = (acc << 1) | PHI_BIT[v]
    return acc


def render(x):
    parts = (" ".join(str(v) for v in x[0]), " ".join(str(v) for v in x[1]),
             " ".join(Q8_NAMES[v] for v in x[2]))
    return " | ".join(parts).strip()


### Helpers over package elements, used by tests only ########################


def elements_of(space):
    """All |space| package elements, in mixed-radix order (first component
    fastest)."""
    ranges = [range(2)] * space.k1 + [range(4)] * space.k2 + [range(8)] * space.k3
    k1, k2 = space.k1, space.k2
    for combo in product(*reversed(ranges)):
        vals = combo[::-1]
        yield GroupElement(space, vals[:k1], vals[k1:k1 + k2], vals[k1 + k2:])


def m_set(x):
    """0-based indices of the components of a package element that carry an
    order-two entry.  Only defined for elements of order at most two; raises
    ValueError on order-four input."""
    z2, z4, q8 = entries(x)
    if order((z2, z4, q8)) == 4:
        raise ValueError("m_set is undefined for elements of order four")
    return {t for t, v in enumerate(z2 + z4 + q8) if v}


def same_elements(a, b):
    """Whether two CodeGroups hold the same elements."""
    return set(a.elements) == set(b.elements)
