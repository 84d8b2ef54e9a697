import pickle
import random
from dataclasses import FrozenInstanceError, fields
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathz import (
    INTEGERS,
    GeomEdge,
    SparseVector,
    TreeSide,
    TreeVertex,
    WreathElement,
    act,
    base_vertex,
    cyclic,
    dist,
    dist_from_base,
    format_vertex,
    geodesic,
    geodesic_halves,
    geom_edge,
    vertex_of,
)
from wreathz.trees import _descent, meet_level, spine_step, truncated_neighbors
from wreathz.verify import random_element, random_stabilizer_element

Z2 = cyclic(2)
PLUS, MINUS = TreeSide.PLUS, TreeSide.MINUS


def representative(v):
    """The canonical group element mapping the base vertex to v."""
    return WreathElement(v.spec, v.tail, v.level)


def el(spec, lamps, shift):
    return WreathElement.of(spec, lamps, shift)


def vx(spec, side, level, lamps=()):
    return TreeVertex(spec, side, level, tuple(sorted(lamps)))


def test_vertex_of_examples():
    assert vertex_of(el(Z2, {}, 3), PLUS) == vx(Z2, PLUS, 3)
    assert vertex_of(el(Z2, {-1: 1}, 0), PLUS) == vx(Z2, PLUS, 0, [(-1, 1)])
    assert vertex_of(el(Z2, {-1: 1}, 0), MINUS) == vx(Z2, MINUS, 0)


def test_vertex_tail_side_constraint():
    with pytest.raises(ValueError, match="strictly below"):
        TreeVertex(Z2, PLUS, 0, ((0, 1),))
    with pytest.raises(ValueError, match="strictly above"):
        TreeVertex(Z2, MINUS, 0, ((0, 1),))


def test_act_examples():
    base = base_vertex(Z2, PLUS)
    assert act(WreathElement.identity(Z2), base) == base
    assert act(el(Z2, {}, 1), base) == vx(Z2, PLUS, 1)
    assert act(el(Z2, {0: 1}, 0), base) == base  # the lamp lies in the stabilizer


@st.composite
def actions(draw):
    """(g, v) with v's tail values in the value-radius-2 ball, g's lamps on
    both sides of the image level (the level position included) and, when v
    has a tail, some of g's lamps cancelling shifted tail entries."""
    spec = draw(st.sampled_from((Z2, cyclic(3), cyclic(5), INTEGERS)))
    values = [w for w in spec.ball(VALUE_RADIUS) if w]
    side = draw(st.sampled_from(list(TreeSide)))
    level, shift = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    far = range(level - 8, level) if side is PLUS else range(level + 1, level + 9)
    tail = draw(st.dictionaries(st.sampled_from(far), st.sampled_from(values), max_size=6))
    new = level + shift
    lamps = draw(st.dictionaries(st.integers(new - 8, new - 1), st.sampled_from(values), min_size=1, max_size=4))
    lamps |= draw(st.dictionaries(st.integers(new, new + 8), st.sampled_from(values), min_size=1, max_size=4))
    if tail:
        for pos in draw(st.sets(st.sampled_from(sorted(tail)), min_size=1)):
            lamps[pos + shift] = spec.inv(tail[pos])
    g = WreathElement.of(spec, lamps, shift)
    return g, TreeVertex(spec, side, level, tuple(sorted(tail.items())))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(actions())
def test_act_matches_coset_composition(case):
    # the direct action against the composition it replaces
    g, v = case
    assert act(g, v) == vertex_of(g * representative(v), v.side)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(actions(), st.data())
def test_act_moves_each_edge_with_its_outer_vertex(case, data):
    # the edge permutation acts on an edge key's outer vertex alone
    g, v = case
    values = [w for w in v.spec.ball(VALUE_RADIUS) if w]
    neighbors = truncated_neighbors(values, v.side is PLUS)((v.level, v.tail))
    u = TreeVertex(v.spec, v.side, *data.draw(st.sampled_from(neighbors)))
    assert geom_edge(act(g, u), act(g, v)) == GeomEdge(act(g, geom_edge(u, v).outer))


def test_act_spec_check():
    # an equal spec built separately is accepted; a different one raises
    v = base_vertex(cyclic(3), PLUS)
    assert act(el(cyclic(3), {-1: 1}, 1), v) == vx(cyclic(3), PLUS, 1, [(-1, 1)])
    with pytest.raises(ValueError, match="mismatched group specs"):
        act(el(cyclic(5), {-1: 1}, 1), v)
    with pytest.raises(ValueError, match="mismatched group specs"):
        act(el(INTEGERS, {}, 0), base_vertex(Z2, MINUS))


def test_vertex_hash_ignores_spec_and_side_but_equality_does_not():
    tail = ((-1, 1),)
    pairs = [
        (TreeVertex(Z2, PLUS, 0, ()), TreeVertex(Z2, MINUS, 0, ())),
        (TreeVertex(cyclic(3), PLUS, 0, tail), TreeVertex(cyclic(5), PLUS, 0, tail)),
    ]
    for a, b in pairs:
        assert hash(a) == hash(b) and a != b
        assert len({a, b}) == 2
        assert {a: 1, b: 2}[a] == 1
        # the same collision as cocycle coordinates, which these vertices key
        vec = SparseVector([(a, 1), (b, 2)])
        assert len(list(vec.items())) == 2
        assert vec.norm_squared() == 5


def test_equal_vertices_hash_equal():
    x = el(cyclic(3), {-2: 1, 4: 2}, 1)
    built = [
        TreeVertex(cyclic(3), PLUS, 1, ((-2, 1),)),
        TreeVertex(cyclic(3), TreeSide("plus"), 1, tuple([(-2, 1)])),
        vertex_of(x, PLUS),
        act(x, base_vertex(cyclic(3), PLUS)),
    ]
    assert len(set(built)) == 1
    assert len({hash(v) for v in built}) == 1
    assert TreeSide("plus") is PLUS and TreeSide("minus") is MINUS
    assert {PLUS: 1, MINUS: 2}[TreeSide("minus")] == 2


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(actions())
def test_slotted_vertex_and_edges_are_frozen_and_structural(case):
    _, v = case
    twin = TreeVertex(v.spec, TreeSide(v.side.value), int(str(v.level)), tuple(list(v.tail)))
    assert twin == v and len({twin, v}) == 1
    # the stored hash is today's tuple hash
    assert hash(twin) == hash(v) == hash((v.level, v.tail))
    # the stored hash takes no part in repr or ==
    assert [f.name for f in fields(v) if f.compare or f.repr] == ["spec", "side", "level", "tail"]
    assert repr(v) == f"TreeVertex(spec={v.spec!r}, side={v.side!r}, level={v.level!r}, tail={v.tail!r})"
    assert GeomEdge(v) == GeomEdge(twin) and hash(GeomEdge(v)) == hash(GeomEdge(twin))
    assert repr(GeomEdge(v)) == f"GeomEdge(outer={v!r})"
    # the weighted and the cocycle key of one edge are distinct keys
    assert GeomEdge(v) != v and v != GeomEdge(v) and len({GeomEdge(v), v}) == 2
    for key, names in ((v, ("spec", "side", "level", "tail")), (GeomEdge(v), ("outer",))):
        assert not hasattr(key, "__dict__")
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(key, name, getattr(key, name))
        back = pickle.loads(pickle.dumps(key))
        assert type(back) is type(key) and back == key and hash(back) == hash(key)


def test_geodesic_examples():
    base = base_vertex(Z2, PLUS)
    target = vx(Z2, PLUS, 0, [(-1, 1)])
    assert geodesic(base, target) == [base, vx(Z2, PLUS, -1), target]
    assert geodesic(target, target) == [target]
    spine = vx(Z2, PLUS, 2)
    assert geodesic(base, spine) == [base, vx(Z2, PLUS, 1), spine]


def test_dist_examples():
    v = vx(Z2, PLUS, 2)
    assert dist(v, v) == 0
    assert dist(base_vertex(Z2, PLUS), vertex_of(el(Z2, {-1: 1}, 0), PLUS)) == 2
    assert dist(base_vertex(Z2, MINUS), vertex_of(el(Z2, {1: 1}, -1), MINUS)) == 3


def test_dist_rejects_mixed_trees():
    with pytest.raises(ValueError, match="different trees"):
        dist(base_vertex(Z2, PLUS), base_vertex(Z2, MINUS))
    with pytest.raises(ValueError, match="mismatched"):
        dist(base_vertex(Z2, PLUS), base_vertex(cyclic(3), PLUS))


def test_dist_from_base_examples():
    x = el(Z2, {}, -5)
    assert dist_from_base(x, PLUS) == 5 == dist_from_base(x, MINUS)
    x = el(Z2, {-1: 1, 1: 1}, 0)
    assert dist_from_base(x, PLUS) == 2 == dist_from_base(x, MINUS)
    x = el(Z2, {0: 1}, 4)
    assert dist_from_base(x, PLUS) == 4 == dist_from_base(x, MINUS)


def test_closed_form_matches_meet_rule():
    rng = random.Random(11)
    for spec in (Z2, cyclic(3), INTEGERS):
        for _ in range(400):
            x = random_element(spec, rng)
            for side in TreeSide:
                b = base_vertex(spec, side)
                assert dist_from_base(x, side) == dist(b, vertex_of(x, side))


def test_seeded_random_elements_keep_their_stream():
    # the suites' seeds reproduce their old random streams only while these
    # draws stay the same
    rng = random.Random(11)
    drawn = [str(random_element(spec, rng)) for spec in (cyclic(3), INTEGERS, cyclic(5)) * 2]
    assert drawn == [
        "(2@3;-2)",
        "(1@-3,-2@-2,2@0,-2@3;4)",
        "(1@-3,2@-2,2@1;3)",
        "(1@-3,1@-1,1@1,1@3;2)",
        "(1@-3,-2@-2,-1@0,2@2;2)",
        "(3@-1,3@0,4@1,2@3;-3)",
    ]
    drawn = [str(random_stabilizer_element(INTEGERS, side, rng)) for side in TreeSide]
    assert drawn == ["(2@0,-1@2,-1@3;0)", "(2@-1,2@0;0)"]


def test_coset_form_well_defined():
    rng = random.Random(12)
    for _ in range(300):
        x = random_element(Z2, rng)
        for side in TreeSide:
            stab = random_stabilizer_element(Z2, side, rng)
            assert vertex_of(x * stab, side) == vertex_of(x, side)


def test_action_is_isometric_homomorphism():
    rng = random.Random(13)
    spec = cyclic(3)
    for _ in range(300):
        g, h = random_element(spec, rng), random_element(spec, rng)
        side = rng.choice(list(TreeSide))
        u = vertex_of(random_element(spec, rng), side)
        v = vertex_of(random_element(spec, rng), side)
        assert dist(act(g, u), act(g, v)) == dist(u, v)
        assert act(g * h, u) == act(g, act(h, u))
        assert act(g.inverse(), act(g, u)) == u


def test_representative_maps_base_to_vertex():
    rng = random.Random(14)
    for _ in range(200):
        side = rng.choice(list(TreeSide))
        v = vertex_of(random_element(Z2, rng), side)
        assert act(representative(v), base_vertex(Z2, side)) == v


def test_geodesic_structure_random():
    rng = random.Random(15)
    for spec in (Z2, INTEGERS):
        for _ in range(200):
            side = rng.choice(list(TreeSide))
            u = vertex_of(random_element(spec, rng), side)
            v = vertex_of(random_element(spec, rng), side)
            path = geodesic(u, v)
            assert path[0] == u and path[-1] == v
            assert len(path) == dist(u, v) + 1
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert abs(a.level - b.level) == 1
                assert dist(a, b) == 1


def test_lower_bounds_from_support():
    rng = random.Random(16)
    for _ in range(300):
        x = random_element(INTEGERS, rng)
        dp, dm = dist_from_base(x, PLUS), dist_from_base(x, MINUS)
        assert dp >= abs(x.shift) and dm >= abs(x.shift)
        if x.lamps:
            assert dp >= -x.lamps[0][0]
            assert dm >= x.lamps[-1][0]


def test_neighbors_shape():
    values = [v for v in cyclic(3).ball(1) if v]
    for side in TreeSide:
        v = vertex_of(el(cyclic(3), {0: 1, 2: 2}, 1), side)
        raw = truncated_neighbors(values, side is TreeSide.PLUS)((v.level, v.tail))
        nbs = [TreeVertex(v.spec, side, level, tail) for level, tail in raw]
        assert len(nbs) == len(values) + 2  # one spine-ward, |values|+1 outward
        assert len(set(nbs)) == len(nbs)
        for nb in nbs:
            assert dist(v, nb) == 1


VALUE_RADIUS = 2


@st.composite
def truncated_vertices(draw):
    """A vertex of either tree whose tail values lie in the value-radius-2
    truncation, with the nonzero values of that truncation."""
    spec = draw(st.sampled_from((Z2, cyclic(3), cyclic(5), INTEGERS)))
    values = tuple(w for w in spec.ball(VALUE_RADIUS) if w)
    side = draw(st.sampled_from(list(TreeSide)))
    level = draw(st.integers(-6, 6))
    far = range(level - 8, level) if side is PLUS else range(level + 1, level + 9)
    tail = draw(st.dictionaries(st.sampled_from(far), st.sampled_from(values), max_size=6))
    return TreeVertex(spec, side, level, tuple(sorted(tail.items()))), values


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(truncated_vertices())
def test_raw_neighbors_step_back_through_spine_step(case):
    v, values = case
    plus = v.side is PLUS
    spine_ward, *outward = truncated_neighbors(values, plus)((v.level, v.tail))
    assert spine_ward == spine_step(v.level, v.tail, plus)
    assert len(outward) == len(values) + 1
    for level, tail in outward:
        assert spine_step(level, tail, plus) == (v.level, v.tail)
    # every pair is a tree edge, so both edge classes accept it
    for level, tail in (spine_ward, *outward):
        nb = TreeVertex(v.spec, v.side, level, tail)
        assert dist(v, nb) == 1
        geom_edge(v, nb)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(truncated_vertices(), st.integers(0, 10))
def test_descent_iterates_spine_step(case, steps):
    v, _ = case
    plus = v.side is PLUS
    want = [v]
    level, tail = v.level, v.tail
    for _ in range(steps):
        level, tail = spine_step(level, tail, plus)
        want.append(TreeVertex(v.spec, v.side, level, tail))
    target = v.level - steps if plus else v.level + steps
    # the walk stops above the target level: the vertex there is not an edge key
    assert _descent(v, target) == want[:-1]
    assert _descent(v, v.level) == []
    assert [dist(v, w) for w in want] == list(range(steps + 1))


@st.composite
def vertex_pairs(draw):
    """Two vertices of one tree over Z/2, Z/3 or Z, cosets of elements that
    share most lamps, so the meet falls at, between or below both."""
    spec = draw(st.sampled_from((Z2, cyclic(3), INTEGERS)))
    values = [w for w in spec.ball(VALUE_RADIUS) if w]
    side = draw(st.sampled_from(list(TreeSide)))
    shared = draw(st.dictionaries(st.integers(-6, 6), st.sampled_from(values), max_size=8))
    own = st.dictionaries(st.integers(-6, 6), st.sampled_from(values), max_size=2)
    return [vertex_of(WreathElement.of(spec, shared | draw(own), draw(st.integers(-7, 7))), side) for _ in range(2)]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(vertex_pairs())
def test_geodesic_halves_are_the_outer_ends_of_its_edges(pair):
    # checked against the independent two-vertex boundary builder
    u, v = pair
    down, up = geodesic_halves(u, v)
    path = geodesic(u, v)
    assert [geom_edge(a, b).outer for a, b in pairwise(path)] == down + up[::-1]
    assert path[len(down)].level == meet_level(u, v) and len(down) + len(up) == dist(u, v)
    assert geodesic_halves(v, u) == (up, down)


def test_meet_level_symmetric():
    rng = random.Random(17)
    for _ in range(200):
        side = rng.choice(list(TreeSide))
        u = vertex_of(random_element(Z2, rng), side)
        v = vertex_of(random_element(Z2, rng), side)
        assert meet_level(u, v) == meet_level(v, u)


def reference_meet_level(u, v):
    """The first difference of the tails as a dict/set union, the formula
    `meet_level` replaced."""
    du, dv = dict(u.tail), dict(v.tail)
    diffs = [p for p in du.keys() | dv.keys() if du.get(p) != dv.get(p)]
    if u.side is PLUS:
        k = min(u.level, v.level)
        return min(k, min(diffs)) if diffs else k
    k = max(u.level, v.level)
    return max(k, max(diffs)) if diffs else k


@st.composite
def tail_pairs(draw):
    """Two vertices of one tree whose tails are equal, one a prefix of the
    other from the spine end, disjoint, or different in value at one shared
    position; the levels fall anywhere around the tails."""
    kind = draw(st.sampled_from(("equal", "prefix", "disjoint", "value")))
    specs = (Z2, cyclic(3), INTEGERS) if kind != "value" else (cyclic(3), INTEGERS)
    spec = draw(st.sampled_from(specs))
    values = st.sampled_from([w for w in spec.ball(VALUE_RADIUS) if w])
    side = draw(st.sampled_from(list(TreeSide)))
    plus = side is PLUS
    levels = [draw(st.integers(-6, 6)) for _ in range(2)]

    def room(level):
        return range(level - 10, level) if plus else range(level + 1, level + 11)

    shared_room = room(min(levels) if plus else max(levels))
    least = kind in ("prefix", "value")
    shared = draw(st.dictionaries(st.sampled_from(shared_room), values, min_size=least, max_size=6))
    tails = [dict(shared), dict(shared)]

    def beyond(i, parity=None):
        """Positions of vertex i's room past the shared entries, away from
        the spine end, of one parity if given."""
        past = [p for p in room(levels[i]) if not shared or (p > max(shared) if plus else p < min(shared))]
        return [p for p in past if parity is None or p % 2 == parity]

    if kind == "prefix":
        # the shorter tail keeps the entries nearest the spine end; the
        # longer one may go on past the shorter vertex's level
        ordered = sorted(shared.items(), reverse=not plus)
        tails[0] = dict(ordered[: draw(st.integers(0, len(ordered)))])
        if beyond(1):
            tails[1] |= draw(st.dictionaries(st.sampled_from(beyond(1)), values, max_size=3))
    elif kind == "disjoint":
        # disjoint past the shared entries, which may be none
        for i in (0, 1):
            if beyond(i, i):
                tails[i] |= draw(st.dictionaries(st.sampled_from(beyond(i, i)), values, max_size=5))
    elif kind == "value":
        pos = draw(st.sampled_from(sorted(shared)))
        tails[1][pos] = draw(values.filter(lambda w: w != shared[pos]))
    pair = [TreeVertex(spec, side, level, tuple(sorted(tail.items()))) for level, tail in zip(levels, tails)]
    return pair[:: draw(st.sampled_from((1, -1)))]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(tail_pairs())
def test_meet_level_equals_the_dict_formula(pair):
    u, v = pair
    assert meet_level(u, v) == meet_level(v, u) == reference_meet_level(u, v)


def test_format_vertex():
    assert format_vertex(vx(Z2, PLUS, 3)) == "T+ [3 | ]"
    assert format_vertex(vx(Z2, PLUS, 0, [(-1, 1)])) == "T+ [0 | 1@-1]"
    assert format_vertex(vx(Z2, MINUS, -1, [(1, 1), (2, 1)])) == "T- [-1 | 1@1,1@2]"
