"""Component arithmetic: Gray images, swapper/commutator tables, identities.

Expected values are frozen literals derived independently of the library
(by hand from the published value tables), so a regression in the arithmetic
cannot hide behind a regression in the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_algebra import Q8_MUL, elements_of, m_set
from z2z4q8.algebra import (
    AmbientSpace,
    commutator,
    frattini_coordinate,
    frattini_image,
    gray,
    inverse,
    mul,
    order,
    parse_element,
    render_element,
    square,
    swapper,
)

Q8_NAMES = ("1", "a", "a2", "a3", "b", "ab", "a2b", "a3b")

# Frozen Gray images, one binary string per alphabet value.
GRAY_Q8_EXPECTED = {
    "1": "0000",
    "a": "0101",
    "a2": "1111",
    "a3": "1010",
    "b": "0110",
    "ab": "1100",
    "a2b": "1001",
    "a3b": "0011",
}
GRAY_Z4_EXPECTED = {0: "00", 1: "01", 2: "11", 3: "10"}

# Frozen swapper/commutator class tables.  Rows index the first argument's
# class, columns the second's; classes pair each value with its u-multiple:
# Z4 classes {0,2},{1,3}; Q8 classes {1,a2},{a,a3},{b,a2b},{ab,a3b}.
# Entries are the resulting torsion value (0 or 2 in both alphabets).
SWAPPER_Z4_CLASSES = ((0, 0), (0, 2))
SWAPPER_Q8_CLASSES = (
    (0, 0, 0, 0),
    (0, 2, 2, 0),
    (0, 0, 2, 2),
    (0, 2, 0, 2),
)
COMMUTATOR_Z4_CLASSES = ((0, 0), (0, 0))
COMMUTATOR_Q8_CLASSES = (
    (0, 0, 0, 0),
    (0, 0, 2, 2),
    (0, 2, 0, 2),
    (0, 2, 2, 0),
)

Z4_SPACE = AmbientSpace(0, 1, 0)
Q8_SPACE = AmbientSpace(0, 0, 1)
MIXED_SPACE = AmbientSpace(2, 2, 2)


def _z4_class(v: int) -> int:
    return v % 2


def _q8_class(idx: int) -> int:
    return (idx % 2) + 2 * (idx >= 4)


def _q8(name: str):
    return Q8_SPACE.element(q8=(name,))


def _z4(v: int):
    return Z4_SPACE.element(z4=(v,))


### Gray map #################################################################


def test_q8_gray_images_exact():
    for name, bits in GRAY_Q8_EXPECTED.items():
        assert f"{gray(_q8(name)):04b}" == bits


def test_z4_gray_images_exact():
    for v, bits in GRAY_Z4_EXPECTED.items():
        assert f"{gray(_z4(v)):02b}" == bits


def test_z2_gray_is_identity():
    space = AmbientSpace(3, 0, 0)
    for bits in range(8):
        x = space.element(z2=((bits >> 2) & 1, (bits >> 1) & 1, bits & 1))
        assert gray(x) == bits


def test_gray_of_identity_and_u():
    for space in (Z4_SPACE, Q8_SPACE, MIXED_SPACE):
        assert gray(space.identity()) == 0
        assert gray(space.all_ones()) == (1 << space.n) - 1


### Swapper and commutator tables ############################################


def test_swapper_table_z4_every_cell():
    for x in range(4):
        for y in range(4):
            expected = SWAPPER_Z4_CLASSES[_z4_class(x)][_z4_class(y)]
            assert swapper(_z4(x), _z4(y)).z4 == (expected,)


def test_swapper_table_q8_every_cell():
    for xi, xn in enumerate(Q8_NAMES):
        for yi, yn in enumerate(Q8_NAMES):
            expected = SWAPPER_Q8_CLASSES[_q8_class(xi)][_q8_class(yi)]
            assert swapper(_q8(xn), _q8(yn)).q8 == (expected,), (xn, yn)


def test_commutator_table_z4_every_cell():
    for x in range(4):
        for y in range(4):
            expected = COMMUTATOR_Z4_CLASSES[_z4_class(x)][_z4_class(y)]
            assert commutator(_z4(x), _z4(y)).z4 == (expected,)


def test_commutator_table_q8_every_cell():
    for xi, xn in enumerate(Q8_NAMES):
        for yi, yn in enumerate(Q8_NAMES):
            expected = COMMUTATOR_Q8_CLASSES[_q8_class(xi)][_q8_class(yi)]
            assert commutator(_q8(xn), _q8(yn)).q8 == (expected,), (xn, yn)


def test_swapper_is_asymmetric_somewhere():
    a, b = _q8("a"), _q8("b")
    assert swapper(a, b) != swapper(b, a)


def test_swapper_defining_equation():
    # The swapper is defined by Gray(swapper(x,y) * x * y) = Gray(x) ^ Gray(y).
    for x in elements_of(AmbientSpace(0, 1, 1)):
        for y in elements_of(x.space):
            lhs = gray(mul(mul(swapper(x, y), x), y))
            assert lhs == gray(x) ^ gray(y)


def test_commutator_defining_equation():
    # x*y = commutator(x,y) * y * x, exhaustively on one Q8 component.
    for x in elements_of(Q8_SPACE):
        for y in elements_of(Q8_SPACE):
            assert mul(x, y) == mul(mul(commutator(x, y), y), x)


### Group arithmetic #########################################################


def test_q8_presentation_relations():
    one, a, b = 0, 1, 4
    a2 = Q8_MUL[a][a]
    assert Q8_MUL[a2][a2] == one  # a^4 = 1
    assert Q8_MUL[b][b] == a2  # b^2 = a^2
    # b a b^-1 = a^-1
    b_inv = next(c for c in range(8) if Q8_MUL[b][c] == one)
    a_inv = next(c for c in range(8) if Q8_MUL[a][c] == one)
    assert Q8_MUL[Q8_MUL[b][a]][b_inv] == a_inv


def test_q8_is_associative_and_closed():
    for x in range(8):
        for y in range(8):
            assert 0 <= Q8_MUL[x][y] < 8
            for z in range(8):
                assert Q8_MUL[Q8_MUL[x][y]][z] == Q8_MUL[x][Q8_MUL[y][z]]


def test_orders_single_components():
    assert order(_q8("1")) == 1
    assert order(_q8("a2")) == 2
    for name in ("a", "a3", "b", "ab", "a2b", "a3b"):
        assert order(_q8(name)) == 4
    assert [order(_z4(v)) for v in range(4)] == [1, 4, 2, 4]


def test_inverse_and_square():
    for x in elements_of(AmbientSpace(1, 1, 1)):
        assert mul(x, inverse(x)) == x.space.identity()
        assert square(x) == mul(x, x)
        assert order(square(x)) <= 2


def test_u_is_central_involution():
    space = AmbientSpace(1, 1, 1)
    u = space.all_ones()
    assert order(u) == 2
    for x in elements_of(space):
        assert mul(x, u) == mul(u, x)


### The seven-identity suite #################################################


def assert_seven_identities(a, b, c):
    space = a.space
    e = space.identity()
    u = space.all_ones()
    # 1: commutators are symmetric
    assert commutator(a, b) == commutator(b, a)
    # 2: swappers are bilinear
    assert swapper(mul(a, b), c) == mul(swapper(a, c), swapper(b, c))
    assert swapper(c, mul(a, b)) == mul(swapper(c, a), swapper(c, b))
    # 3: commutators are bilinear
    assert commutator(mul(a, b), c) == mul(commutator(a, c), commutator(b, c))
    # 4: the two swappers of a pair multiply to the commutator
    assert mul(swapper(a, b), swapper(b, a)) == commutator(a, b)
    # 5: self-swapper is the square
    assert swapper(a, a) == square(a)
    # 6: involutions swap and commute with everything
    if square(a) == e:
        assert commutator(a, b) == e
        assert swapper(a, b) == e
        assert swapper(b, a) == e
    # 7: elements squaring to u swap commuting partners to their square
    if square(a) == u and commutator(a, b) == e:
        assert swapper(a, b) == square(b)
        assert swapper(b, a) == square(b)


def test_identities_exhaustive_z4():
    elems = list(elements_of(Z4_SPACE))
    for a in elems:
        for b in elems:
            for c in elems:
                assert_seven_identities(a, b, c)


def test_identities_exhaustive_q8():
    elems = list(elements_of(Q8_SPACE))
    for a in elems:
        for b in elems:
            for c in elems:
                assert_seven_identities(a, b, c)


def _mixed_elements(space):
    return st.builds(
        lambda z2, z4, q8: space.element(z2=z2, z4=z4, q8=q8),
        st.tuples(*[st.integers(0, 1)] * space.k1),
        st.tuples(*[st.integers(0, 3)] * space.k2),
        st.tuples(*[st.integers(0, 7)] * space.k3),
    )


@settings(max_examples=300, deadline=None)
@given(
    _mixed_elements(MIXED_SPACE),
    _mixed_elements(MIXED_SPACE),
    _mixed_elements(MIXED_SPACE),
)
def test_identities_random_mixed(a, b, c):
    assert_seven_identities(a, b, c)


@settings(max_examples=200, deadline=None)
@given(_mixed_elements(MIXED_SPACE), _mixed_elements(MIXED_SPACE))
def test_swapper_lands_in_torsion(a, b):
    assert order(swapper(a, b)) <= 2
    assert order(commutator(a, b)) <= 2


@settings(max_examples=200, deadline=None)
@given(_mixed_elements(MIXED_SPACE), _mixed_elements(MIXED_SPACE))
def test_gray_additivity_defect_is_the_swapper(a, b):
    assert gray(mul(mul(swapper(a, b), a), b)) == gray(a) ^ gray(b)


### Frattini quotient ########################################################

# Q8 value -> its image modulo Phi, the pair (i & 1, j) of a^i b^j.
Q8_MOD_PHI_EXPECTED = {"1": (0, 0), "a": (1, 0), "a2": (0, 0), "a3": (1, 0),
                       "b": (0, 1), "ab": (1, 1), "a2b": (0, 1), "a3b": (1, 1)}


def test_frattini_encodings_exact():
    for name, (i, j) in Q8_MOD_PHI_EXPECTED.items():
        assert frattini_image(_q8(name)) == 2 * i + j, name
    assert [frattini_image(_z4(v)) for v in range(4)] == [0, 1, 0, 1]
    z2 = AmbientSpace(1, 0, 0)
    assert [frattini_image(z2.element(z2=(v,))) for v in (0, 1)] == [0, 1]
    assert [frattini_coordinate(x) for x in (_q8("1"), _q8("a2"), _z4(0), _z4(2))] \
        == [0, 1, 0, 1]
    for x in (_q8("a"), _q8("b"), _z4(1), _z4(3)):
        with pytest.raises(KeyError):
            frattini_coordinate(x)
    # Packing order: Z2 block, Z4 block, then two bits per Q8 entry.
    x = MIXED_SPACE.element(z2=(1, 0), z4=(0, 3), q8=("a2", "b"))
    assert frattini_image(x) == 0b10_01_00_01
    assert frattini_coordinate(square(x)) == 0b01_01  # Z4 (0, 2), Q8 (1, a2)


@settings(max_examples=200, deadline=None)
@given(_mixed_elements(MIXED_SPACE), _mixed_elements(MIXED_SPACE),
       _mixed_elements(MIXED_SPACE))
def test_frattini_class_two_facts(a, b, c):
    # Modulo Phi the group is GF(2)^n: the image is a homomorphism and
    # kills squares and commutators.
    assert frattini_image(mul(a, b)) == frattini_image(a) ^ frattini_image(b)
    assert frattini_image(square(a)) == 0 == frattini_image(commutator(a, b))
    # Phi is central and elementary abelian, with coordinates added as bits.
    for z in (square(a), commutator(a, b)):
        assert mul(z, c) == mul(c, z) and square(z) == MIXED_SPACE.identity()
    assert frattini_coordinate(mul(square(a), commutator(b, c))) \
        == frattini_coordinate(square(a)) ^ frattini_coordinate(commutator(b, c))


### M-sets, rendering, words #################################################


def test_m_set_printed_example():
    space = AmbientSpace(0, 0, 6)
    x = space.element(q8=("1", "a2", "a2", "1", "1", "a2"))
    assert m_set(x) == {1, 2, 5}


def test_m_set_rejects_order_four():
    with pytest.raises(ValueError):
        m_set(_q8("a"))


def test_m_set_mixed_offsets():
    space = AmbientSpace(2, 2, 2)
    x = space.element(z2=(1, 0), z4=(0, 2), q8=("a2", "1"))
    assert m_set(x) == {0, 3, 4}


@settings(max_examples=200, deadline=None)
@given(_mixed_elements(MIXED_SPACE))
def test_render_parse_roundtrip(x):
    assert parse_element(render_element(x), MIXED_SPACE) == x


def test_binary_word_basics():
    # A Gray word is an int of space.n bits, the first bit most significant,
    # so the order of the ints is the lexicographic order of the 0/1 strings.
    space = AmbientSpace(1, 1, 1)
    w = gray(space.element(z2=(1,), z4=(3,), q8=("b",)))
    assert f"{w:0{space.n}b}" == "1" + "10" + "0110"
    assert w.bit_count() == 4
    assert [w >> (space.n - 1 - pos) & 1 for pos in range(3)] == [1, 1, 0]
    assert w ^ gray(space.all_ones()) == 0b0011001
    words = [gray(_q8(name)) for name in Q8_NAMES]
    assert [f"{v:04b}" for v in sorted(words)] == sorted(GRAY_Q8_EXPECTED.values())


def test_parse_element_rejects_malformed():
    with pytest.raises(ValueError):
        parse_element("1 2 3", MIXED_SPACE)
    with pytest.raises(ValueError):
        parse_element(" | | zz", AmbientSpace(0, 0, 1))
