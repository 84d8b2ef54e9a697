"""Explicit Hilbert-space embeddings of the wreath product and its trees.

Three building blocks:

* a power-weighted path embedding of each tree (strong lower distortion
  exponent, not equivariant): a vertex maps to the sum of k^eps charges on
  the consecutive geometric edges of its geodesic to the base vertex, k
  counted from the moving vertex;
* the edge-cocycle embedding (exactly sqrt of the tree distance, fully
  equivariant): a signed unit charge on each geodesic edge, one coordinate
  per geometric edge, keyed by the edge's outer vertex;
* per-lamp embeddings of the base group: the integers on a line, or a finite
  cyclic group on the vertices of a rescaled simplex.

The assembled map places the two tree images and the lamp images in one
orthogonal direct sum keyed by coordinate class, and the whole group acts on
that sum by affine isometries when the equivariant pieces are selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .basegroups import GroupSpec
from .trees import TreeSide, TreeVertex, act, base_vertex, dist, dist_from_base, geodesic_halves, vertex_of
from .vectors import GeomEdge, LampCoord, SparseVector, _add_in_place
from .wreath import WreathElement

H_IDENTITY_LINE = "identity-line"
H_DIRAC_SIMPLEX = "dirac-simplex"


@dataclass(frozen=True)
class TreeMode:
    """Tree embedding selector: `cocycle`, or `guka` with a weight exponent."""

    kind: str
    eps: Fraction | None = None

    @classmethod
    def cocycle(cls) -> "TreeMode":
        return cls("cocycle")

    @classmethod
    def guka(cls, eps) -> "TreeMode":
        eps = Fraction(eps)
        if not 0 < eps <= Fraction(1, 2):
            raise ValueError(f"weight exponent must lie in (0, 1/2], got {eps}")
        return cls("guka", eps)

    @classmethod
    def parse(cls, text: str) -> "TreeMode":
        if text == "cocycle":
            return cls.cocycle()
        if text.startswith("guka:"):
            try:
                eps = Fraction(text[len("guka:"):])
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad weight exponent in tree mode {text!r}") from None
            return cls.guka(eps)
        raise ValueError(f"unknown tree mode {text!r} (expected 'cocycle' or 'guka:EPS')")

    def __str__(self) -> str:
        return self.kind if self.kind == "cocycle" else f"guka:{self.eps}"


def lamp_mode(spec: GroupSpec) -> str:
    """The one lamp embedding each base group has: the simplex for Z/k, the
    line for Z.  Every lamp kernel below follows from `spec.is_finite`."""
    return H_DIRAC_SIMPLEX if spec.is_finite else H_IDENTITY_LINE


def validate_h_mode(spec: GroupSpec, h_mode: str):
    """Reject a lamp embedding mode other than `lamp_mode(spec)`.  The entry
    points that still take a mode (`sigma`, `gamma_action_on_sum`, and
    `sample_pairs`, the two sampler audits and `properness_cross_check`
    elsewhere) call this once and read the mode no further."""
    if h_mode != lamp_mode(spec):
        raise ValueError(f"{spec} takes the {lamp_mode(spec)} lamp embedding, not {h_mode!r}")


def weighted_tree_embed(v: TreeVertex, base: TreeVertex, eps) -> SparseVector:
    """Sum of k^eps charges on the geodesic edges from v to base, k = 1 at
    the edge adjacent to v.  Weights are irrational, so values are floats."""
    eps = TreeMode.guka(eps).eps
    down, up = geodesic_halves(v, base)
    e = float(eps)
    return SparseVector((GeomEdge(w), float(k) ** e) for k, w in enumerate(down + up[::-1], 1))


def cocycle(x: TreeVertex, y: TreeVertex) -> SparseVector:
    """Unit charge along the geodesic from x to y: +1 on each edge it climbs,
    -1 on each edge it descends (x's half descends on T+, climbs on T-).

    Satisfies the chain rule c(x,y) + c(y,z) = c(x,z) and |c(x,y)|^2 = d(x,y),
    both exactly.
    """
    return SparseVector(_cocycle_items(x, y))


def _cocycle_items(x: TreeVertex, y: TreeVertex) -> list:
    """The items of `cocycle(x, y)`, each keyed by its edge's outer vertex."""
    down, up = geodesic_halves(x, y)
    s = 1 if x.side is TreeSide.PLUS else -1
    items = [(w, -s) for w in down]
    items += [(w, s) for w in reversed(up)]
    return items


def iota(v: TreeVertex, base: TreeVertex) -> SparseVector:
    """Cocycle embedding of a tree vertex: distances map to their square roots."""
    return cocycle(base, v)


def lamp_displacement(spec: GroupSpec, value: int) -> int:
    """The exact norm of a lamp block (`_lamp_items`) at any index: |value|
    on the line, diam * [value != identity] on the simplex."""
    if not spec.is_finite:
        return abs(value)
    return spec.diameter if value else 0


def _lamp_items(spec: GroupSpec, index: int, value: int) -> list:
    """The (key, value) items of a lamp block of the assembled map: the base
    embedding recentred so the identity maps to zero (off-support lamps
    contribute nothing), keyed at the lamp's own index."""
    if not value:
        return []
    if not spec.is_finite:
        return [(LampCoord(index, 0), value)]
    scale = spec.diameter / math.sqrt(2)
    return [(LampCoord(index, value), scale), (LampCoord(index, 0), -scale)]


def _sigma_items(x: WreathElement, tree_mode: TreeMode) -> list:
    """The items of `sigma(x)`: the plus, then the minus tree component, then
    one recentred base embedding per lit lamp."""
    items = []
    for side in (TreeSide.PLUS, TreeSide.MINUS):
        base, v = base_vertex(x.spec, side), vertex_of(x, side)
        if tree_mode.kind == "cocycle":
            items += _cocycle_items(base, v)
        else:
            items += weighted_tree_embed(v, base, tree_mode.eps).items()
    for pos, value in x.lamps:
        items += _lamp_items(x.spec, pos, value)
    return items


def sigma(x: WreathElement, tree_mode: TreeMode, h_mode: str) -> SparseVector:
    """The assembled embedding: both tree components plus one recentred base
    embedding per lit lamp, all orthogonal, so their items go into one
    vector build."""
    validate_h_mode(x.spec, h_mode)
    return SparseVector(_sigma_items(x, tree_mode))


# Per weight exponent e2, the prefix sums of float(k) ** e2 over k >= 1, grown
# on demand: entry d is what sum(float(k) ** e2 for k in range(1, d + 1))
# returns, 0 (an int) included, because the table adds in order and so does
# CPython 3.11's float `sum` (3.12+ compensates `sum`, which would differ).
_WEIGHT_SUMS: dict[float, list] = {}


def identity_distance_squared(x: WreathElement, tree_mode: TreeMode):
    """|sigma(x) - sigma(identity)|^2 without materializing vectors.

    Exact integer for the cocycle tree mode, whose lamp blocks have integer
    squared norms; float as soon as weighted trees enter.
    """
    dp = dist_from_base(x, TreeSide.PLUS)
    dm = dist_from_base(x, TreeSide.MINUS)
    if tree_mode.kind == "cocycle":
        total = dp + dm
    else:
        e2 = 2.0 * float(tree_mode.eps)
        sums = _WEIGHT_SUMS.setdefault(e2, [0])
        while len(sums) <= max(dp, dm):
            sums.append(sums[-1] + float(len(sums)) ** e2)
        total = sums[dp]
        total += sums[dm]
    # lamp_displacement(value)^2 summed inline: this runs once per sample.
    if x.spec.is_finite:
        total += x.spec.diameter ** 2 * len(x.lamps)
    else:
        total += sum(v * v for _, v in x.lamps)
    return total


@dataclass(frozen=True)
class AffineMap:
    """Affine isometry xi -> pi(g) xi + t of one tree's edge space.

    The linear part moves the cocycle's vertex keys of the map's tree
    through the vertex action of `element` (identity on every other key);
    the translation, the cocycle from the base vertex to its image, is added
    in place into the vector the linear part has just built.
    """

    element: WreathElement
    base: TreeVertex
    translation: SparseVector

    def apply_linear(self, vec: SparseVector) -> SparseVector:
        g, side = self.element, self.base.side
        items = []
        for key, value in vec.items():
            # act shifts every level by g.shift and commutes with spine_step
            if isinstance(key, TreeVertex) and key.side is side:
                key = act(g, key)
            items.append((key, value))
        return SparseVector(items)

    def apply(self, vec: SparseVector) -> SparseVector:
        return _add_in_place(self.apply_linear(vec), self.translation.items())

    __call__ = apply

    def compose(self, other: "AffineMap") -> "AffineMap":
        """Composition self after other; matches affine_alpha(self.g * other.g)."""
        if self.base != other.base:
            raise ValueError("affine maps must share a base vertex to compose")
        return AffineMap(self.element * other.element, self.base, self.apply(other.translation))


def affine_alpha(g: WreathElement, base: TreeVertex) -> AffineMap:
    """The affine action attached to the cocycle embedding based at `base`:
    alpha(g) xi = pi(g) xi + c(base, g base).  A group homomorphism into the
    affine isometries, making iota equivariant."""
    return AffineMap(g, base, cocycle(base, act(g, base)))


def gamma_action_on_sum(g: WreathElement, vec: SparseVector, h_mode: str) -> SparseVector:
    """The full affine action on the direct sum, under which the assembled
    cocycle embedding is equivariant: g . sigma(x) = sigma(g x).

    The linear part permutes each tree's vertex keys through the vertex
    action and the lamp blocks through index translation plus the base
    group's own action on its coordinates; sigma(g)'s items are added in
    place.  Weighted-tree coordinates have no equivariant action: rejected.
    """
    validate_h_mode(g.spec, h_mode)
    spec, n = g.spec, g.shift
    lamps = dict(g.lamps)
    simplex = spec.is_finite
    items = []
    for key, value in vec.items():
        if isinstance(key, TreeVertex):
            key = act(g, key)
        elif isinstance(key, LampCoord):
            target = key.index + n
            coord = spec.mul(lamps.get(target, 0), key.coord) if simplex else key.coord
            key = LampCoord(target, coord)
        else:
            raise ValueError("weighted-tree coordinates have no equivariant action")
        items.append((key, value))
    return _add_in_place(SparseVector(items), _sigma_items(g, TreeMode.cocycle()))


# Terms summed exactly by _weighted_step_bound; the rest is bounded above.
_STEP_BOUND_TERMS = 10_000


@lru_cache(maxsize=None)
def _weighted_step_bound(eps: Fraction) -> float:
    """How far one edge step moves the weighted path embedding, at most,
    rounded up to 4 decimals.

    Stepping from v to the neighbour one edge farther from the base adds a
    unit charge and raises the weight of the old edge k steps from v from
    k^eps to (k+1)^eps, so the step has norm at most
    sqrt(1 + sum_{k>=1} ((k+1)^eps - k^eps)^2).
    The series converges for eps < 1/2.  Terms k >= N are at most
    eps^2 k^(2 eps - 2) (mean value theorem), whose sum is at most
    eps^2 (N^(2 eps - 2) + N^(2 eps - 1) / (1 - 2 eps)).
    """
    if eps >= Fraction(1, 2):
        raise ValueError(f"no finite Lipschitz constant for guka:{eps}: the step series diverges at 1/2")
    e, n = float(eps), _STEP_BOUND_TERMS
    head = sum(((k + 1) ** e - k**e) ** 2 for k in range(1, n))
    tail = e * e * (n ** (2 * e - 2) + n ** (2 * e - 1) / (1 - 2 * e))
    return math.ceil(math.sqrt(1 + head + tail) * 10_000) / 10_000


def lipschitz_constants(spec: GroupSpec, tree_mode: TreeMode) -> tuple[float, float, float]:
    """Per-component Lipschitz constants (plus tree, minus tree, lamps).

    A generator moves each tree vertex by at most one edge.  Cocycle trees
    move sqrt(d) <= d per unit, so 1; the weighted path embedding moves by
    `_weighted_step_bound` per edge.  Lamp images of v and v + g lie
    `lamp_displacement(g)` apart, so a lamp generator moves the lamp blocks
    by the largest displacement of a generator value.
    """
    c_tree = 1.0 if tree_mode.kind == "cocycle" else _weighted_step_bound(tree_mode.eps)
    c_lamp = float(max(lamp_displacement(spec, v) for v in spec.generator_values()))
    return (c_tree, c_tree, c_lamp)
