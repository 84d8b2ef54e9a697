"""Coset models of the two Bass-Serre trees attached to H wr Z.

A vertex of the plus tree is a coset determined by an integer level n and
the lamp values strictly below n; the minus tree mirrors this with the
values strictly above n.  Dropping the entry adjacent to the level steps one
edge toward the contracting spine direction (level - 1 on the plus side,
level + 1 on the minus side), and the unique geodesic between two vertices
descends both to their meet and is read off from tail restrictions alone.

Both trees are (|H| + 1)-regular and infinite; only geodesic vertices are
ever materialized.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field

from .basegroups import GroupSpec
from .wreath import LampConfig, WreathElement, canonical_lamps


class TreeSide(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    def __str__(self) -> str:
        return "T+" if self is TreeSide.PLUS else "T-"


@dataclass(frozen=True, slots=True)
class TreeVertex:
    """Canonical coset form: a level and the tail on one side of it.

    The hash covers `(level, tail)` only: it skips the Python-level hashes
    of `spec` and `side`, and it is computed once, when the vertex is built.
    Equality still compares them, so vertices of the two trees or of two
    base groups with the same level and tail collide yet stay distinct keys.
    """

    spec: GroupSpec
    side: TreeSide
    level: int
    tail: LampConfig
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, spec: GroupSpec, side: TreeSide, level: int, tail: LampConfig):
        if tail:
            if side is TreeSide.PLUS and tail[-1][0] >= level:
                raise ValueError("plus-side tail must lie strictly below the level")
            if side is TreeSide.MINUS and tail[0][0] <= level:
                raise ValueError("minus-side tail must lie strictly above the level")
        # Store through the slot descriptors, as WreathElement does: the
        # generated frozen __init__ goes through object.__setattr__.
        _set_spec(self, spec)
        _set_side(self, side)
        _set_level(self, level)
        _set_tail(self, tail)
        _set_hash(self, hash((level, tail)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_vertex(self)


_set_spec = TreeVertex.spec.__set__
_set_side = TreeVertex.side.__set__
_set_level = TreeVertex.level.__set__
_set_tail = TreeVertex.tail.__set__
_set_hash = TreeVertex._hash.__set__


def base_vertex(spec: GroupSpec, side: TreeSide) -> TreeVertex:
    """The base point: level 0, empty tail."""
    return TreeVertex(spec, side, 0, ())


def _restrict(lamps: LampConfig, side: TreeSide, level: int) -> LampConfig:
    """The entries of `lamps` strictly on the tail side of level (below it on
    T+, above it on T-): a slice, as the positions are sorted."""
    if side is TreeSide.PLUS:
        return lamps[: bisect_left(lamps, (level,))]
    return lamps[bisect_left(lamps, (level + 1,)) :]


def vertex_of(x: WreathElement, side: TreeSide) -> TreeVertex:
    """Canonical form of the coset of x: the lamp entries on the level's far
    side are absorbed by the vertex stabilizer."""
    return TreeVertex(x.spec, side, x.shift, _restrict(x.lamps, side, x.shift))


def act(g: WreathElement, v: TreeVertex) -> TreeVertex:
    """Left action on cosets; a tree automorphism.

    This is `vertex_of(g * WreathElement(v.spec, v.tail, v.level), v.side)`
    built directly (that element maps the base vertex to v): the image sits
    at level v.level + g.shift, and its tail is g's lamps strictly on the
    tail side of that level (`_restrict`) times v's tail shifted by g.shift
    (every shifted entry already lies on that side), spliced by
    `canonical_lamps`.  With no tail to splice, g's lamps are the tail.
    """
    spec = v.spec
    # `is` first: GroupSpec equality is Python code.
    if g.spec is not spec and g.spec != spec:
        raise ValueError(f"mismatched group specs: {g.spec} vs {spec}")
    n = g.shift
    level = v.level + n
    own = _restrict(g.lamps, v.side, level)
    if v.tail:
        own = canonical_lamps(spec, v.tail, n, dict(own))
    return TreeVertex(spec, v.side, level, own)


def meet_level(u: TreeVertex, v: TreeVertex) -> int:
    """Level of the meet: the deepest common restriction of the two vertices.

    On the plus side this is min(level_u, level_v, first position where the
    tails disagree); the minus side mirrors with max and last position.
    Raises ValueError for vertices of different trees or base groups.
    """
    if u.side is not v.side:
        raise ValueError(f"vertices lie in different trees: {u.side.value} vs {v.side.value}")
    if u.spec != v.spec:
        raise ValueError(f"mismatched group specs: {u.spec} vs {v.spec}")
    # Entries agree up to the first mismatch counted from the spine end (the
    # low end on T+, the high end on T-); that mismatch, or else the first
    # entry of the longer tail past the shorter one, is the first difference.
    a, b = u.tail, v.tail
    if len(a) > len(b):
        a, b = b, a
    if u.side is TreeSide.PLUS:
        k = min(u.level, v.level)
        for x, y in zip(a, b):
            if x != y:
                return min(k, x[0], y[0])
        return min(k, b[len(a)][0]) if len(b) > len(a) else k
    k = max(u.level, v.level)
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return max(k, x[0], y[0])
    return max(k, b[-len(a) - 1][0]) if len(b) > len(a) else k


def dist(u: TreeVertex, v: TreeVertex) -> int:
    """Tree distance, without materializing the geodesic."""
    k = meet_level(u, v)
    return abs(u.level - k) + abs(v.level - k)


def spine_step(level: int, tail: LampConfig, plus: bool) -> tuple[int, LampConfig]:
    """The raw (level, tail) neighbour one edge toward the spine: level - 1 on
    the plus side, level + 1 on the minus side, with the tail entry at the
    new level dropped.  That entry sits at the tail's end nearest the level,
    so the step is O(1)."""
    if plus:
        level -= 1
        return level, tail[:-1] if tail and tail[-1][0] == level else tail
    level += 1
    return level, tail[1:] if tail and tail[0][0] == level else tail


def truncated_neighbors(values, plus_side: bool):
    """Tree adjacency on raw (level, tail) pairs, truncated to the given
    non-identity lamp values: a vertex's spine-ward vertex (`spine_step`)
    and one outward branch per optional value at the level position."""

    def neighbors(vert: tuple) -> list[tuple]:
        n, tail = vert
        out = [spine_step(n, tail, plus_side)]
        if plus_side:
            out.append((n + 1, tail))
            for value in values:
                out.append((n + 1, tail + ((n, value),)))
        else:
            out.append((n - 1, tail))
            for value in values:
                out.append((n - 1, ((n, value),) + tail))
        return out

    return neighbors


def _descent(v: TreeVertex, target_level: int) -> list[TreeVertex]:
    """Vertices from v down to target_level, without the vertex there:
    `spine_step` iterated, each tail a slice of v's, cut where the level
    passes its entries.  Each is the outer end of the edge it steps down."""
    if v.level == target_level:
        return []
    spec, side, tail = v.spec, v.side, v.tail
    out = [v]
    if side is TreeSide.PLUS:
        i = len(tail)
        for level in range(v.level - 1, target_level, -1):
            if i and tail[i - 1][0] == level:
                i -= 1
            out.append(TreeVertex(spec, side, level, tail[:i]))
    else:
        i, end = 0, len(tail)
        for level in range(v.level + 1, target_level):
            if i < end and tail[i][0] == level:
                i += 1
            out.append(TreeVertex(spec, side, level, tail[i:]))
    return out


def geodesic_halves(u: TreeVertex, v: TreeVertex) -> tuple[list[TreeVertex], list[TreeVertex]]:
    """The geodesic from u to v as (down, up): the descents of u and of v to
    their meet, without it.  A descent vertex is the outer end of the edge it
    steps down (upper on T+, lower on T-), so `down` and `up` are the
    geodesic's edge keys."""
    k = meet_level(u, v)
    return _descent(u, k), _descent(v, k)


def geodesic(u: TreeVertex, v: TreeVertex) -> list[TreeVertex]:
    """The unique geodesic from u to v: u descends to the meet, then climbs
    to v along the reversed descent of v."""
    k = meet_level(u, v)
    meet = TreeVertex(u.spec, u.side, k, _restrict(u.tail, u.side, k))
    return [*_descent(u, k), meet, *reversed(_descent(v, k))]


def dist_from_base(x: WreathElement, side: TreeSide) -> int:
    """Closed-form distance from the base vertex to the coset of x.

    With empty lamps this is |n|.  Otherwise, writing m and M for the support
    extremes: on the plus side |n| unless n > m and m < 0, in which case
    n - 2m; on the minus side |n| unless n < M and M > 0, in which case
    2M - n.
    """
    n = x.shift
    if not x.lamps:
        return abs(n)
    if side is TreeSide.PLUS:
        m = x.lamps[0][0]
        return abs(n) if (n <= m or m >= 0) else n - 2 * m
    m = x.lamps[-1][0]
    return abs(n) if (n >= m or m <= 0) else 2 * m - n


def format_vertex(v: TreeVertex) -> str:
    """Vertex literal `T+ [n | v1@p1,...]`; an empty tail leaves the slot blank."""
    body = ",".join(f"{value}@{pos}" for pos, value in v.tail)
    return f"{v.side} [{v.level} | {body}]"
