from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathz import SparseVector, TreeSide, TreeVertex, cyclic, geom_edge
from wreathz.vectors import GeomEdge, LampCoord, _accumulate

Z2 = cyclic(2)


def vx(level, lamps=(), side=TreeSide.PLUS):
    return TreeVertex(Z2, side, level, tuple(sorted(lamps)))


def test_unit_charge_on_both_orientations_has_norm_one():
    # one vertex-keyed coordinate carries its edge's charge in both orientations
    v = SparseVector([(vx(1), 1)])
    assert v.norm_squared() == 1 and type(v.norm_squared()) is int
    assert v.dump_lines() == ["oe T+ [0 | ] -> T+ [1 | ]\t1", "oe T+ [1 | ] -> T+ [0 | ]\t-1"]
    assert (-v).dump_lines() == ["oe T+ [0 | ] -> T+ [1 | ]\t-1", "oe T+ [1 | ] -> T+ [0 | ]\t1"]


def test_inner_product_with_zero():
    v = SparseVector([(vx(1), Fraction(3, 2))])
    assert SparseVector().ip(v) == 0
    assert v.ip(SparseVector()) == 0


def test_geometric_edge_uses_standard_convention():
    minus = TreeSide.MINUS
    e = geom_edge(vx(1), vx(0))
    assert SparseVector([(e, 1)]).norm_squared() == 1
    # either order gives the key of the outer endpoint: the upper one on T+
    # and the lower one on T-
    assert e == geom_edge(vx(0), vx(1)) == GeomEdge(vx(1))
    assert geom_edge(vx(1, side=minus), vx(0, side=minus)) == GeomEdge(vx(0, side=minus))
    # same edge, different coordinate class: orthogonal
    cocycle_key = vx(1)
    assert e != cocycle_key
    assert SparseVector([(e, 1)]).ip(SparseVector([(cocycle_key, 1)])) == 0


def test_edge_constructors_validate_adjacency():
    for side in TreeSide:
        with pytest.raises(ValueError, match="adjacent"):
            geom_edge(vx(0, side=side), vx(2, side=side))
        with pytest.raises(ValueError, match="adjacent"):
            geom_edge(vx(0, side=side), vx(0, side=side))
        with pytest.raises(ValueError, match="same tree"):
            geom_edge(vx(1, side=side), TreeVertex(cyclic(3), side, 0, ()))
    with pytest.raises(ValueError, match="same tree"):
        geom_edge(vx(0), vx(1, side=TreeSide.MINUS))


def test_edges_reject_non_adjacent_endpoints_on_both_trees():
    minus = TreeSide.MINUS
    # levels one apart, endpoints far apart: the tails disagree off the step
    pairs = [
        (vx(0), vx(1, [(-5, 1)])),  # distance 11
        (vx(0, [(-1, 1)]), vx(1)),  # distance 3
        (vx(0, [(5, 1)], side=minus), vx(1, side=minus)),  # distance 9
        (vx(0, side=minus), vx(1, [(2, 1)], side=minus)),  # distance 3
    ]
    for lo, hi in pairs:
        for u, v in ((lo, hi), (hi, lo)):
            with pytest.raises(ValueError, match="adjacent"):
                geom_edge(u, v)
    # the tail entry at the lower level belongs to the plus tree's upper end
    # and to the minus tree's lower end
    assert geom_edge(vx(0), vx(1, [(0, 1)])) == GeomEdge(vx(1, [(0, 1)]))
    assert geom_edge(vx(0, [(1, 1)], side=minus), vx(1, side=minus)) == GeomEdge(vx(0, [(1, 1)], side=minus))


def test_vector_arithmetic_prunes_zeros():
    e = vx(1)
    v = SparseVector([(e, 2)])
    w = SparseVector([(e, -2), (LampCoord(0, 1), Fraction(1, 3))])
    total = v + w
    assert dict(total.items()) == {LampCoord(0, 1): Fraction(1, 3)}
    assert total - total == SparseVector()
    assert -total + total == SparseVector()


# a few keys of each class, so drawn entries repeat keys often
KEYS = [LampCoord(i, c) for i in (-1, 0, 2) for c in (0, 1)]
for outer in (vx(1), vx(0, [(-1, 1)]), vx(-1, side=TreeSide.MINUS)):
    KEYS += [GeomEdge(outer), outer]
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 0.5, -0.5)),
)


@st.composite
def vector_entries(draw):
    """Entries with distinct or repeated keys, some followed later by the
    cancelling value, and zero values of every scalar type."""
    entry = st.tuples(st.sampled_from(KEYS), SCALARS)
    if draw(st.booleans()):
        entries = draw(st.lists(entry, max_size=len(KEYS), unique_by=lambda e: e[0]))
    else:
        entries = draw(st.lists(entry, max_size=12))
    for key, value in draw(st.lists(st.sampled_from(entries), max_size=3)) if entries else ():
        entries.insert(draw(st.integers(0, len(entries))), (key, -value))
    return entries


def typed_items(mapping_items):
    return [(key, value, type(value)) for key, value in mapping_items]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(vector_entries())
def test_vector_build_equals_the_accumulated_entries(entries):
    # the one-dict build against the per-entry accumulation, from a list
    # and from a generator: same order, same values, same value types
    want = typed_items(_accumulate({}, entries).items())
    assert typed_items(SparseVector(entries).items()) == want
    assert typed_items(SparseVector(e for e in entries).items()) == want


def test_mixed_class_inner_product():
    v = SparseVector([(vx(1), 2), (LampCoord(1, 0), 3)])
    # 2 * 2 + 3 * 3
    assert v.norm_squared() == 13
    assert v.ip(SparseVector([(LampCoord(1, 0), 1)])) == 3


def test_dump_is_deterministic_and_ordered():
    a, b = vx(0), vx(1)
    items = [
        (LampCoord(2, 1), 0.5),
        (b, 1),
        (geom_edge(a, b), Fraction(7, 2)),
        (LampCoord(-1, 0), 2),
    ]
    v = SparseVector(items)
    w = SparseVector(items[::-1])
    lines = v.dump_lines()
    assert lines == w.dump_lines()
    assert lines[0].startswith("ge ") and lines[1].startswith("oe ") and lines[2].startswith("oe ")
    assert lines[3] == "lamp -1 : 0\t2"
    assert lines[4] == "lamp 2 : 1\t0.500000000000"
    assert "7/2" in lines[0]

