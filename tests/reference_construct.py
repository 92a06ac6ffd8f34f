"""The element-by-element lift that construct.lift_to_A replaced.

Kept as the oracle lift_to_A is cross-checked against: every element of the
base code is mapped entrywise into a target space chosen per shape and the
images are checked to be distinct.  lift_to_A maps only the generators and
closes them.
"""

from z2z4q8.algebra import AmbientSpace


def _lift_element(c, shape, target, half):
    z2, z4 = c.z2, c.z4
    if shape == "2":
        return target.element(q8=z4)
    if shape == "3":
        return target.element(z4=tuple(2 * x for x in z2), q8=z4)
    if shape == "4":
        return target.element(z2=tuple(v for x in z2 for v in (x, x)), q8=z4)
    if shape == "4*":
        doubled = tuple(v for j in half for v in (z4[j], z4[j]))
        q8 = tuple(z4[j] for j in range(len(z4)) if j not in half)
        return target.element(z4=doubled, q8=q8)
    if shape == "5":
        return target.element(q8=tuple(v for x in z4 for v in (x, x)))
    raise ValueError(f"no lift defined for shape {shape}")


def lift_elementwise(base, shape):
    """(target space, images of the generators, set of images of every base
    element), the target space chosen per shape."""
    space = base.space
    half = ()
    if shape == "2":
        target = AmbientSpace(0, 0, space.k2)
    elif shape == "3":
        target = AmbientSpace(0, space.k1, space.k2)
    elif shape == "4":
        target = AmbientSpace(2 * space.k1, 0, space.k2)
    elif shape == "4*":
        half = tuple(j for j, x in enumerate(base.generators[1].z4) if x % 2)
        target = AmbientSpace(0, 2 * len(half), space.k2 - len(half))
    else:
        target = AmbientSpace(0, 0, 2 * space.k2)
    mapped = {_lift_element(c, shape, target, half) for c in base.elements}
    if len(mapped) != len(base):
        raise ValueError("lift failed to stay injective")
    gens = tuple(_lift_element(g, shape, target, half) for g in base.generators)
    return target, gens, mapped
