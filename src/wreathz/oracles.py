"""Brute-force ground truth: Cayley BFS, truncated tree BFS, properness counts.

Everything here is deliberately independent of the closed forms it checks:
word lengths come from layer-by-layer expansion over the standard
generators, tree distances from a layered search using only adjacency,
and properness counts from filtering a finite candidate family by the exact
product metric.  Every search stores through one layer step, `_grow`, under
an element budget (default 10^7, overridable via the WREATHZ_ELEMENT_BUDGET
environment variable).  It is a hard cap: a search fails loudly instead of
storing one element more.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from operator import floordiv, itemgetter, mod, sub

from .basegroups import GroupSpec
from .embeddings import lamp_displacement, lamp_mode, validate_h_mode
from .trees import TreeSide, TreeVertex, dist_from_base, truncated_neighbors
from .wreath import WreathElement

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "WREATHZ_ELEMENT_BUDGET"

# Memory: a batch tree search holds its shared ball for the whole batch, at
# about 200 B a vertex, so the ball stops growing before it passes this size.
_SHARED_BALL_CAP = 200_000

_value = itemgetter(1)


class BudgetError(RuntimeError):
    """An oracle search outgrew its element budget."""


def element_budget(budget: int | None = None) -> int:
    """The explicit budget, else the environment override, else the default;
    a budget below 1 is a usage error, not an exhausted search."""
    if budget is None:
        raw = os.environ.get(BUDGET_ENV_VAR)
        budget = int(raw) if raw else DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"element budget must be >= 1, got {budget}")
    return budget


def _grow(seen: dict, frontier: list, depth: int, neighbors, budget: int, held: int = 0) -> list:
    """One breadth-first layer: store each unseen neighbour of the frontier at
    `depth`, in discovery order, and return them.  The store that would take
    len(seen) + held (what the other side of a search stores) past the
    budget raises instead."""
    cap = budget - held
    grown = []
    for vert in frontier:
        for nb in neighbors(vert):
            if nb not in seen:
                if len(seen) >= cap:
                    raise BudgetError(f"({budget + 1} > {budget})")
                seen[nb] = depth
                grown.append(nb)
    return grown


class _Ball:
    """A Cayley BFS's int-coded result (the codes are described at
    `cayley_bfs`): `{code: length}` and the lamps of each configuration,
    `{cfg: lamps}`.  `len` and `values()` read the codes' dict; iteration
    and `items()` decode each element as it is read, in discovery order."""

    def __init__(self, spec: GroupSpec, radius: int, raw: dict[int, int], lamps_of: dict):
        self._spec = spec
        self._radius = radius
        self._raw = raw
        self._lamps_of = lamps_of

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self):
        raw, width = self._raw, 2 * self._radius + 1
        lamps = map(self._lamps_of.__getitem__, map(floordiv, raw, repeat(width)))
        shifts = map(sub, map(mod, raw, repeat(width)), repeat(self._radius))
        return map(WreathElement, repeat(self._spec), lamps, shifts)

    def values(self):
        return self._raw.values()

    def items(self):
        return zip(self, self._raw.values())


def cayley_bfs(spec: GroupSpec, radius_cap: int, budget: int | None = None) -> _Ball:
    """Exact word length of every element in the ball of the given radius,
    by breadth-first expansion over the standard generators.  The budget
    caps the number of stored elements: storing one more raises.

    The search keys each element by one int, its code cfg*W + (n + R), with
    R the radius, W = 2R + 1 and n the shift; cfg is the sum of
    digit(v)*B^zig(p) over the lamps (p, v), with B the order on Z/k and W
    on Z, where a Z value v is stored as v mod B, and zig(p) = 2p for p >= 0,
    -2p - 1 for p < 0: the places follow the positions the search reaches,
    so a search the budget cuts off keeps small codes at any R.  A shift
    move is code +- 1; a lamp move reads the digit under the cursor and
    changes only it.  The lamps of a configuration are spliced once, from
    its parent's, when its cfg first appears.  The result is a `_Ball` over
    the codes, in discovery order: its elements are decoded as they are
    iterated, so reading only `len` or `values()` builds none."""
    if radius_cap < 0:
        raise ValueError(f"radius must be >= 0, got {radius_cap}")
    budget = element_budget(budget)
    r = radius_cap
    width = 2 * r + 1
    base = spec.order or width
    # The window: only elements at depth <= R - 1 are expanded, so there
    # |n| <= R - 1 and n +- 1 stays in [-R, R]: no shift spills into the next
    # cfg.  A lamp sits where the cursor has been, inside [-(R - 1), R - 1].
    # A Z value is at most R - 1 in absolute value before a move and at most
    # R after it, so v mod (2R + 1) stays unique, and a move only replaces
    # one digit in 0..B-1 by another: no digit carries.
    top = base - 1 if spec.order else r  # a digit e above top holds the Z value e - B
    place = {}  # n + R -> the code of digit 1 at position n, for each cursor position reached
    steps = spec.generator_values()
    lamps_of = {0: ()}

    def neighbors(code: int) -> list[int]:
        m = code % width
        at = place[m]
        d = code // at % base
        nxt = [code + 1, code - 1]
        for g in steps:
            e = (d + g) % base
            nb = code + (e - d) * at
            cfg = nb // width
            if cfg not in lamps_of:
                # first sight of this configuration: splice the new lamp into
                # the parent's lamps (a nonzero d means a lamp sits at n)
                lamps = lamps_of[code // width]
                n = m - r
                i = bisect_left(lamps, (n,))
                rest = lamps[i + 1 :] if d else lamps[i:]
                lamps_of[cfg] = lamps[:i] + ((n, e if e <= top else e - base),) + rest if e else lamps[:i] + rest
            nxt.append(nb)
        return nxt

    found = {r: 0}  # the identity: no lamps, shift 0
    frontier = list(found)
    for layer in range(1, r + 1):
        # the frontier's cursors lie in [-(layer - 1), layer - 1]: place the
        # two new positions, digit zig(n) = 2n for n >= 0, -2n - 1 for n < 0
        for n in (layer - 1, 1 - layer):
            place[r + n] = width * base ** (2 * n if n >= 0 else -2 * n - 1)
        try:
            frontier = _grow(found, frontier, layer, neighbors, budget)
        except BudgetError as err:
            raise BudgetError(f"Cayley ball outgrew the element budget {err} at radius {layer}") from None
    return _Ball(spec, r, found, lamps_of)


def ball_sizes(lengths: _Ball, radius: int) -> list[int]:
    """Cumulative ball sizes for radii 0..radius from a `cayley_bfs` result,
    counting each layer once."""
    layers = Counter(lengths.values())
    return list(accumulate(layers[r] for r in range(radius + 1)))


def tree_bfs_dist(u: TreeVertex, v: TreeVertex, value_radius: int, budget: int | None = None) -> int:
    """Distance from u to v in the truncated tree: `tree_bfs_dists` for one
    target, which is bidirectional breadth-first search."""
    return tree_bfs_dists(u, [v], value_radius, budget)[0]


def tree_bfs_dists(
    u: TreeVertex, targets: list[TreeVertex], value_radius: int, budget: int | None = None
) -> list[int]:
    """Distance from u to each target in the tree truncated to lamp values of
    base word length at most value_radius (an isometric subtree: the results
    are exact when all tails fit, checked here), by breadth-first search.

    A ball around u is shared across the targets; each target outside it
    grows its own ball until a new layer of either meets the other.  Both are
    complete balls, disjoint one layer before, so the distance is the sum of
    their radii.  The shared ball grows while its frontier is at most `left`
    (targets to do) times the target's and, with more than one left, its
    next layer stays under `_SHARED_BALL_CAP`.  The budget caps the shared
    ball and the current target's ball together."""
    if value_radius < 0:
        raise ValueError(f"value_radius must be >= 0, got {value_radius}")
    values = tuple(filter(None, u.spec.ball(value_radius)))
    allowed = set(values)
    for v in (u, *targets):
        if v.side is not u.side or v.spec != u.spec:
            raise ValueError("tree BFS needs two vertices of the same tree")
        if not allowed.issuperset(map(_value, v.tail)):
            raise ValueError("tail value outside the truncation ball; raise value_radius")
    budget = element_budget(budget)
    neighbors = truncated_neighbors(values, u.side is TreeSide.PLUS)
    ball = {(u.level, u.tail): 0}
    ball_frontier, radius, dists = list(ball), 0, []
    try:
        for left, v in zip(range(len(targets), 0, -1), targets):
            key = (v.level, v.tail)
            d = ball.get(key)
            side, frontier, depth = {key: 0}, [key], 0
            while d is None:
                if len(ball_frontier) <= left * len(frontier) and (
                    left == 1 or len(ball) + len(ball_frontier) * (1 + len(values)) < _SHARED_BALL_CAP
                ):
                    radius += 1
                    ball_frontier = _grow(ball, ball_frontier, radius, neighbors, budget, len(side))
                    met = not side.keys().isdisjoint(ball_frontier)
                else:
                    depth += 1
                    frontier = _grow(side, frontier, depth, neighbors, budget, len(ball))
                    met = not ball.keys().isdisjoint(frontier)
                if met:
                    d = radius + depth
            dists.append(d)
    except BudgetError as err:
        raise BudgetError(f"tree search outgrew the element budget {err}") from None
    return dists


def _factor_costs_pth(spec: GroupSpec, values, p: int) -> dict[int, int]:
    """lamp_displacement(value)^p for each of the values: the per-call table
    the properness filters read lamp costs from."""
    return {v: lamp_displacement(spec, v) ** p for v in values}


def _distance_pth(x: WreathElement, p: int, costs: dict[int, int]) -> int:
    """product_distance_pth with lamp costs from a `_factor_costs_pth` table."""
    total = dist_from_base(x, TreeSide.PLUS) ** p + dist_from_base(x, TreeSide.MINUS) ** p
    return total + sum(map(costs.__getitem__, map(_value, x.lamps)))


def product_distance_pth(x: WreathElement, p: int) -> int:
    """d(z, x.z)^p in the product of the two trees (graph metric) and the
    lamp factors, for the orbit of the canonical base point z."""
    return _distance_pth(x, p, _factor_costs_pth(x.spec, map(_value, x.lamps), p))


@dataclass(frozen=True)
class PropernessReport:
    """Exact count of group elements moving the base point at most `radius`;
    `candidate_count` is the size of the finiteness box (shift and support
    within [-r, r], values in `value_ball`), not what the search stores.
    `h_mode` is the label `lamp_mode` gives the group."""

    group: str
    radius: Fraction
    p: int
    h_mode: str
    count: int
    candidate_count: int
    shift_bound: int
    support_bound: int
    value_ball: tuple[int, ...]

    def lines(self) -> list[str]:
        return [
            f"group={self.group}",
            f"radius={self.radius}",
            f"p={self.p}",
            f"h_mode={self.h_mode}",
            f"count={self.count}",
            f"candidates={self.candidate_count}",
            f"shift_bound={self.shift_bound}",
            f"support_bound={self.support_bound}",
            "value_ball={%s}" % ",".join(map(str, self.value_ball)),
        ]


def properness_search_radius(spec: GroupSpec, radius: Fraction, p: int) -> int:
    """A word-length bound covering every element that moves the base point
    at most `radius`: maximize d+ + d- + sum of lamp displacements over the
    feasible component combinations (word length never exceeds d+ + d- plus
    the lamp lengths, a lamp's length never exceeds its displacement, and a
    support inside [-d+, d-] holds at most d+ + d- + 1 lamps).  One bounded
    knapsack over the 2r + 1 lamp positions keeps each round's row: rows[k][c]
    is the max total of at most k lamps with sum(size^p) <= c, for every
    budget c <= floor(R^p)."""
    r = int(radius)
    budget = int(Fraction(radius) ** p)
    sizes = sorted({lamp_displacement(spec, v) for v in _value_ball(spec, radius)})
    rows = [[0] * (budget + 1)]
    for _ in range(2 * r + 1):
        best = rows[-1]
        nxt = best[:]
        for c in range(budget + 1):
            for size in sizes:
                cost = c + size**p
                if cost > budget:
                    break
                if best[c] + size > nxt[cost]:
                    nxt[cost] = best[c] + size
        rows.append(nxt)
    # rows start at zeros and each round maxes nondecreasing terms, so each
    # row is nondecreasing in c: rows[k][rem] is already the max over budgets <= rem
    pairs = [(dp, dm) for dp in range(r + 1) for dm in range(r + 1) if dp**p + dm**p <= budget]
    return max(dp + dm + rows[dp + dm + 1][budget - dp**p - dm**p] for dp, dm in pairs)


def _value_ball(spec: GroupSpec, radius: Fraction) -> tuple[int, ...]:
    return tuple(v for v in spec.ball(int(radius)) if v and lamp_displacement(spec, v) <= radius)


def _properness(spec: GroupSpec, radius, p: int, budget: int | None):
    """Validate the inputs and filter the candidate family once.  Returns
    (report, limit, members): the report, the integer bound on
    d(z, gamma z)^p and the set of candidates within it: each shift in
    [-r, r] with each lamp configuration grown through `_grow`, one more lamp
    at position q = -r..r a layer, while lamp cost plus the tree distance the
    support forces, (-lo)_+^p + (hi)_+^p, stays within the limit.  A support
    lies inside [-d+, d-], so no prefix of a member's lamps is pruned."""
    if p < 1 or int(p) != p:
        raise ValueError(f"the exponent must be an integer >= 1, got {p}")
    p = int(p)
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # An integer D is at most R^p = a^p / b^p exactly when b^p * D <= a^p,
    # that is when D <= a^p // b^p.
    limit = radius.numerator**p // radius.denominator**p
    value_ball = _value_ball(spec, radius)
    costs = _factor_costs_pth(spec, value_ball, p)
    budget = element_budget(budget)
    r = int(radius)
    positions = range(-r, r + 1)  # also the shifts

    def with_lamp_at(q: int, lamps: tuple) -> list[tuple]:
        lo = lamps[0][0] if lamps else q
        room = limit - max(0, -lo) ** p - max(0, q) ** p - sum(map(costs.__getitem__, map(_value, lamps)))
        return [lamps + ((q, v),) for v, cost in costs.items() if cost <= room]

    configs = {(): 0}
    for q in positions:
        try:
            _grow(configs, list(configs), q, partial(with_lamp_at, q), budget)
        except BudgetError as err:
            raise BudgetError(f"properness search outgrew the element budget {err} at lamp position {q}") from None
    candidates = (WreathElement(spec, lamps, n) for lamps in configs for n in positions)
    members = {x for x in candidates if _distance_pth(x, p, costs) <= limit}
    box = (len(value_ball) + 1) ** (2 * r + 1) * (2 * r + 1)
    report = PropernessReport(str(spec), radius, p, lamp_mode(spec), len(members), box, r, r, value_ball)
    return report, limit, members


def properness_check(spec: GroupSpec, radius, p: int, budget: int | None = None) -> PropernessReport:
    """Count the elements with d(z, gamma z) <= radius exactly, by filtering
    the finite candidate family of the finiteness argument.

    Exactness needs an integer exponent; the two trees always carry the
    graph metric.
    """
    return _properness(spec, radius, p, budget)[0]


def properness_cross_check(
    spec: GroupSpec, radius, p: int, h_mode: str, budget: int | None = None
) -> tuple[PropernessReport, int, bool]:
    """Two-sided count: the candidate-family filter against an exhaustive
    scan of the Cayley ball whose radius provably covers every solution.
    Returns (report, ball-scan count, sets agree)."""
    validate_h_mode(spec, h_mode)
    report, limit, members = _properness(spec, radius, p, budget)
    scan_radius = properness_search_radius(spec, report.radius, report.p)
    ball = cayley_bfs(spec, scan_radius, budget)
    costs = _factor_costs_pth(spec, spec.ball(scan_radius), report.p)
    from_ball = {x for x in ball if _distance_pth(x, report.p, costs) <= limit}
    return report, len(from_ball), members == from_ball
