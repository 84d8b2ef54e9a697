"""Sparse vectors over tagged coordinate keys with the standard inner product.

Coordinates come in three classes: geometric tree edges (the weighted path
embedding), tree vertices (the cocycle embedding) and (lamp index, base
coordinate) pairs.  A vertex keys the edge it is the outer end of, and its
value is the charge carried from that edge's lower to its upper endpoint;
the reverse orientation carries the negative, so it is printed as two
oriented halves but counted once, and a unit charge has norm 1.  The classes
are orthogonal, so one vector type covers the whole direct sum.

Values may be exact ints or Fractions (cocycle identities are checked
exactly) or floats (the weighted path and simplex embeddings have irrational
weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Union

from .trees import TreeSide, TreeVertex, format_vertex, spine_step


@dataclass(frozen=True, slots=True)
class GeomEdge:
    """Unoriented tree edge keyed by its outer endpoint, whose `spine_step` is
    the other one: the upper end on the plus tree, the lower end on the minus
    tree.  Every vertex is the outer end of exactly one edge, so the edge
    hashes as that vertex (whose hash is stored) but differs from it as a key."""

    outer: TreeVertex

    def __init__(self, outer: TreeVertex):
        _set_outer(self, outer)

    def __hash__(self) -> int:
        return self.outer._hash


_set_outer = GeomEdge.outer.__set__


def geom_edge(u: TreeVertex, v: TreeVertex) -> GeomEdge:
    """The edge between two adjacent vertices of one tree; raises ValueError
    for vertices of different trees or base groups, or not adjacent."""
    if u.side is not v.side or u.spec != v.spec:
        raise ValueError("edge endpoints must lie in the same tree")
    plus = u.side is TreeSide.PLUS
    for outer, inner in ((u, v), (v, u)):
        if spine_step(outer.level, outer.tail, plus) == (inner.level, inner.tail):
            return GeomEdge(outer)
    raise ValueError("edge endpoints must be adjacent")


@dataclass(frozen=True, slots=True)
class LampCoord:
    """Coordinate `coord` of the lamp-index-`index` copy of the base space."""

    index: int
    coord: int

    def __init__(self, index: int, coord: int):
        _set_index(self, index)
        _set_coord(self, coord)


_set_index = LampCoord.index.__set__
_set_coord = LampCoord.coord.__set__


CoordKey = Union[TreeVertex, GeomEdge, LampCoord]

Scalar = Union[int, Fraction, float]


def _oriented(src: TreeVertex, dst: TreeVertex) -> tuple[tuple, str]:
    return (
        (1, src.side.value, src.level, src.tail, dst.level, dst.tail),
        f"oe {format_vertex(src)} -> {format_vertex(dst)}",
    )


def _key_rows(key: CoordKey) -> list[tuple[tuple, str, int]]:
    """(sort key, literal, sign) of each printed row of a coordinate.  An
    edge's endpoints lo and hi, by level, come from its outer vertex through
    `spine_step`.  A vertex key prints as its edge's two oriented halves:
    lo -> hi with the value and hi -> lo with its negative."""
    if isinstance(key, LampCoord):
        return [((2, key.index, key.coord), f"lamp {key.index} : {key.coord}", 1)]
    signed = isinstance(key, TreeVertex)
    v = key if signed else key.outer
    plus = v.side is TreeSide.PLUS
    inner = TreeVertex(v.spec, v.side, *spine_step(v.level, v.tail, plus))
    lo, hi = (inner, v) if plus else (v, inner)
    if signed:
        return [(*_oriented(lo, hi), 1), (*_oriented(hi, lo), -1)]
    sort_key = (0, lo.side.value, lo.level, lo.tail, hi.level, hi.tail)
    return [(sort_key, f"ge {format_vertex(lo)} -- {format_vertex(hi)}", 1)]


def format_value(value: Scalar) -> str:
    if isinstance(value, Rational):
        return str(value)
    return f"{value:.12f}"


def _accumulate(acc: dict[CoordKey, Scalar], entries: Iterable[tuple[CoordKey, Scalar]]) -> dict:
    """Add the entries into acc, dropping coordinates that sum to zero."""
    for key, value in entries:
        v = acc.get(key, 0) + value
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


class SparseVector:
    """Immutable finitely supported vector keyed by CoordKey."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[tuple[CoordKey, Scalar]] = ()):
        # Callers almost always pass distinct keys and nonzero values: then
        # one dict build is exactly what _accumulate would return.
        entries = list(entries)
        acc = dict(entries)
        if len(acc) != len(entries) or not all(acc.values()):
            acc = _accumulate({}, entries)
        self._entries = acc

    def items(self) -> Iterator[tuple[CoordKey, Scalar]]:
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = SparseVector()
        out._entries = _accumulate(dict(self._entries), other._entries.items())
        return out

    def __neg__(self) -> "SparseVector":
        out = SparseVector()
        out._entries = {k: -v for k, v in self._entries.items()}
        return out

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + (-other)

    def ip(self, other: "SparseVector") -> Scalar:
        """The standard inner product, summed over the smaller support."""
        a, b = self._entries, other._entries
        if len(b) < len(a):
            a, b = b, a
        return sum(value * w for key, value in a.items() if (w := b.get(key)) is not None)

    def norm_squared(self) -> Scalar:
        return self.ip(self)

    def norm(self) -> float:
        return float(self.norm_squared()) ** 0.5

    def dump_lines(self) -> list[str]:
        """`key<TAB>value` lines, deterministically ordered: one per
        coordinate, two per vertex key (its edge's oriented halves)."""
        rows = sorted(
            (
                (sort_key, literal, value if sign > 0 else -value)
                for key, value in self._entries.items()
                for sort_key, literal, sign in _key_rows(key)
            ),
            key=lambda row: row[0],
        )
        return [f"{literal}\t{format_value(value)}" for _, literal, value in rows]

    def __repr__(self) -> str:
        return f"SparseVector({len(self._entries)} coords)"


def _add_in_place(vec: SparseVector, entries: Iterable[tuple[CoordKey, Scalar]]) -> SparseVector:
    """vec + SparseVector(entries), added into vec itself: for a vector no one else holds."""
    _accumulate(vec._entries, entries)
    return vec
