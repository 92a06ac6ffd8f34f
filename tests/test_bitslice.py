"""The bit-sliced arithmetic against the entrywise reference it replaced.

Every operation of z2z4q8.algebra is compared with the table-driven version
in reference_algebra: exhaustively on Z2 Z4 Q8 and Q8^2, and by a Hypothesis
property on mixed spaces up to Z2^2 Z4^3 Q8^4.  The boundaries that take
entries (the GroupElement constructor, AmbientSpace.element,
parse_element and the generator-file reader) must still refuse bad ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_algebra as ref
from z2z4q8.algebra import (
    AmbientSpace,
    GroupElement,
    commutator,
    elements_of,
    frattini_coordinate,
    frattini_image,
    gray,
    inverse,
    mul,
    order,
    parse_element,
    render_element,
    sort_key,
    square,
    swapper,
)
from z2z4q8.cli import EXIT_PARSE, main

EXHAUSTIVE_SPACES = [AmbientSpace(1, 1, 1), AmbientSpace(0, 0, 2)]


def _coordinate_or_none(fn, x):
    try:
        return fn(x)
    except KeyError:
        return None


def assert_unary_matches(x):
    e = ref.entries(x)
    assert GroupElement(x.space, *e) == x
    assert ref.entries(inverse(x)) == ref.inverse(e)
    assert ref.entries(square(x)) == ref.square(e)
    assert order(x) == ref.order(e)
    assert str(gray(x)) == ref.gray(e)
    assert frattini_image(x) == ref.frattini_image(e)
    assert (_coordinate_or_none(frattini_coordinate, x)
            == _coordinate_or_none(ref.frattini_coordinate, e))
    text = render_element(x)
    assert text == ref.render(e)
    assert parse_element(text, x.space) == x


def assert_binary_matches(x, y):
    ex, ey = ref.entries(x), ref.entries(y)
    assert ref.entries(mul(x, y)) == ref.mul(ex, ey)
    assert ref.entries(commutator(x, y)) == ref.commutator(ex, ey)
    assert ref.entries(swapper(x, y)) == ref.swapper(ex, ey)
    assert (x == y) == (ex == ey)
    if x == y:
        assert hash(x) == hash(y)
    # The sort key orders exactly as the canonical text does.
    tx, ty = render_element(x), render_element(y)
    assert (sort_key(x) < sort_key(y)) == (tx < ty)
    assert (sort_key(x) == sort_key(y)) == (tx == ty)


@pytest.mark.parametrize("space", EXHAUSTIVE_SPACES, ids=str)
def test_fast_path_matches_reference_exhaustively(space):
    elems = list(elements_of(space))
    assert len(elems) == 64
    for x in elems:
        assert_unary_matches(x)
        for y in elems:
            assert_binary_matches(x, y)
    assert sorted(elems, key=sort_key) == sorted(elems, key=render_element)


@st.composite
def _element_pairs(draw):
    space = AmbientSpace(draw(st.integers(0, 2)), draw(st.integers(0, 3)),
                         draw(st.integers(0, 4)))
    element = st.builds(
        lambda z2, z4, q8: GroupElement(space, z2, z4, q8),
        st.tuples(*[st.integers(0, 1)] * space.k1),
        st.tuples(*[st.integers(0, 3)] * space.k2),
        st.tuples(*[st.integers(0, 7)] * space.k3))
    return draw(element), draw(element)


@settings(max_examples=500, deadline=None)
@given(_element_pairs())
def test_fast_path_matches_reference_on_mixed_spaces(pair):
    x, y = pair
    assert_unary_matches(x)
    assert_unary_matches(y)
    assert_binary_matches(x, y)
    assert_binary_matches(y, x)


def test_elements_of_different_spaces_differ():
    # Both identities have all-zero planes.
    assert AmbientSpace(0, 1, 0).identity() != AmbientSpace(0, 0, 1).identity()
    with pytest.raises(ValueError):
        mul(AmbientSpace(0, 1, 0).identity(), AmbientSpace(0, 0, 1).identity())


MIXED = AmbientSpace(1, 1, 1)


@pytest.mark.parametrize("blocks", [
    ((2,), (0,), (0,)),
    ((0,), (4,), (0,)),
    ((0,), (-1,), (0,)),
    ((0,), (1.5,), (0,)),
    ((0,), ("a",), (0,)),
    ((0,), (0,), (8,)),
    ((0,), (0,), ("a",)),
    ((0, 0), (0,), (0,)),
    ((0,), (), (0,)),
])
def test_constructor_refuses_bad_entries(blocks):
    with pytest.raises(ValueError):
        GroupElement(MIXED, *blocks)


def test_element_refuses_bad_entries():
    for kwargs in ({"z2": (3,)}, {"z4": (7,)}, {"q8": (9,)}, {"q8": ("c",)},
                   {"q8": ("a", "a")}):
        with pytest.raises(ValueError):
            MIXED.element(**{"z2": (0,), "z4": (0,), "q8": (0,), **kwargs})


@pytest.mark.parametrize("text", ["2 | 0 | 1", "0 | 4 | 1", "0 | x | 1",
                                  "0 | 0 | c", "0 | 0 | 1 a", "0 | 0", "0 0 | 0 | 1"])
def test_parse_element_refuses_bad_text(text):
    with pytest.raises(ValueError):
        parse_element(text, MIXED)


@pytest.mark.parametrize("line", ["2 | 0 | 1", "0 | 4 | 1", "0 | 0 | c", "0 | 0"])
def test_malformed_generator_file_exits_4(tmp_path, capsys, line):
    path = tmp_path / "bad.gens"
    path.write_text(f"space 1 1 1\n{line}\n")
    for command in ("classify", "measure", "verify", "export"):
        assert main([command, "--in", str(path)]) == EXIT_PARSE, command
        assert "bad generator line" in capsys.readouterr().err
