from fractions import Fraction

import pytest

from wreathz import SparseVector, TreeSide, TreeVertex, cyclic, geom_edge
from wreathz.vectors import GeomEdge, LampCoord, SignedEdge

Z2 = cyclic(2)


def vx(level, lamps=(), side=TreeSide.PLUS):
    return TreeVertex(Z2, side, level, tuple(sorted(lamps)))


def test_unit_charge_on_both_orientations_has_norm_one():
    # one signed coordinate carries the charge in both orientations
    v = SparseVector.single(SignedEdge(vx(1)), 1)
    assert v.norm_squared() == 1 and type(v.norm_squared()) is int
    assert v.dump_lines() == ["oe T+ [0 | ] -> T+ [1 | ]\t1", "oe T+ [1 | ] -> T+ [0 | ]\t-1"]
    assert (-v).dump_lines() == ["oe T+ [0 | ] -> T+ [1 | ]\t-1", "oe T+ [1 | ] -> T+ [0 | ]\t1"]


def test_inner_product_with_zero():
    v = SparseVector([(SignedEdge(vx(1)), Fraction(3, 2))])
    assert SparseVector().ip(v) == 0
    assert v.ip(SparseVector()) == 0


def test_geometric_edge_uses_standard_convention():
    minus = TreeSide.MINUS
    e = geom_edge(vx(1), vx(0))
    assert SparseVector.single(e, 1).norm_squared() == 1
    # either order gives the key of the outer endpoint: the upper one on T+
    # and the lower one on T-
    assert e == geom_edge(vx(0), vx(1)) == GeomEdge(vx(1))
    assert geom_edge(vx(1, side=minus), vx(0, side=minus)) == GeomEdge(vx(0, side=minus))
    # same edge, different coordinate class: orthogonal
    signed = SignedEdge(vx(1))
    assert e != signed
    assert SparseVector.single(e, 1).ip(SparseVector.single(signed, 1)) == 0


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
    e = SignedEdge(vx(1))
    v = SparseVector([(e, 2)])
    w = SparseVector([(e, -2), (LampCoord(0, 1), Fraction(1, 3))])
    total = v + w
    assert total.get(e) == 0
    assert len(total) == 1
    assert total - total == SparseVector()
    assert -total + total == SparseVector()
    assert (total * 3).get(LampCoord(0, 1)) == 1
    assert (0 * total) == SparseVector()


def test_mixed_class_inner_product():
    v = SparseVector([(SignedEdge(vx(1)), 2), (LampCoord(1, 0), 3)])
    # 2 * 2 + 3 * 3
    assert v.norm_squared() == 13
    assert v.ip(SparseVector.single(LampCoord(1, 0), 1)) == 3


def test_dump_is_deterministic_and_ordered():
    a, b = vx(0), vx(1)
    items = [
        (LampCoord(2, 1), 0.5),
        (SignedEdge(b), 1),
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

