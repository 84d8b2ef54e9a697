"""The four closed-loop workloads.

A workload is a stream of rounds.  Round `r` is a list of ops built only from
`(seed, r)` with the benchmark's own generators, so a round holds the same
inputs in every run, traced or not.  Every round of a workload has the same
op mix, which keeps the latency distribution and the ops/s figure steady
from run to run.  An op is `(kind, fn)`; `fn()` runs the library call, checks
the result against an independent witness and returns `(ok, output)`.
`canon(kind, output)` renders an output for the run's digest.

Ops reach the library through module attributes (`lab.trees.dist`, ...), so
the tracer's rebinding sees the benchmark's own calls.
"""

from __future__ import annotations

import importlib
import random
from functools import partial
from itertools import accumulate, product
from types import SimpleNamespace

LAB_MODULES = ("basegroups", "wreath", "trees", "vectors", "embeddings", "oracles", "compression")


def load_lab() -> SimpleNamespace:
    """The currently importable wreathz modules, by short name."""
    return SimpleNamespace(**{n: importlib.import_module(f"wreathz.{n}") for n in LAB_MODULES})


def random_element(lab, spec, rng: random.Random, reach: int, shift_reach: int, values, density=0.4):
    """Lamps at each position of [-reach, reach] with the given probability,
    values drawn from `values`, shift uniform on [-shift_reach, shift_reach]."""
    lamps = tuple((p, rng.choice(values)) for p in range(-reach, reach + 1) if rng.random() < density)
    return lab.wreath.WreathElement(spec, lamps, rng.randint(-shift_reach, shift_reach))


class Workload:
    name: str
    # Traced seconds per round on the reference machine (see NOTES.md); sizes
    # the traced phase to a fixed round count so its counters repeat exactly.
    traced_round_s: float

    def __init__(self, lab: SimpleNamespace, seed: int):
        self.lab = lab
        self.seed = seed

    def rng(self, *key) -> random.Random:
        return random.Random("/".join(map(str, (self.name, self.seed, *key))))

    def round(self, r: int) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """Seed-independent ops run during set-up."""
        raise NotImplementedError

    def canon(self, kind: str, output) -> str:
        return repr(output)


class Sampler(Workload):
    """`wreathz compress` / the sigma-audits suite: seeded distortion blocks
    at scale 1000, alternating Z/2 wr Z (cocycle trees, simplex lamps) with
    Z wr Z (guka:1/4 trees, line lamps); each round ends with one envelope fit
    per configuration and its 0.45 exponent guard."""

    name = "sampler"
    traced_round_s = 1.5
    SCALE = 1000
    BLOCK = 100
    BLOCKS = 20  # per configuration and round: 2000 samples feed each fit
    MIN_EXPONENT = 0.45

    def __init__(self, lab, seed):
        super().__init__(lab, seed)
        b, e = lab.basegroups, lab.embeddings
        self.configs = (
            ("Z/2-cocycle", b.cyclic(2), e.TreeMode.cocycle(), e.H_DIRAC_SIMPLEX),
            ("Z-guka", b.INTEGERS, e.TreeMode.parse("guka:1/4"), e.H_IDENTITY_LINE),
        )

    def _ops(self, rng: random.Random, blocks: int) -> list:
        pools = {cfg[0]: [] for cfg in self.configs}
        ops = []
        for _ in range(blocks):
            for cfg in self.configs:
                ops.append((f"block:{cfg[0]}", partial(self._block, cfg, rng.getrandbits(31), pools[cfg[0]])))
        for cfg in self.configs:
            ops.append((f"fit:{cfg[0]}", partial(self._fit, pools[cfg[0]])))
        return ops

    def round(self, r):
        return self._ops(self.rng(r), self.BLOCKS)

    def warmup(self):
        # Blocks only: 200 samples are too few for the exponent guard.
        return self._ops(random.Random("sampler-warmup"), 2)[:-2]

    def _block(self, cfg, seed, pool):
        _, spec, tree_mode, h_mode = cfg
        c = self.lab.compression
        samples = c.sample_pairs(spec, tree_mode, h_mode, self.SCALE, self.BLOCK, seed)
        lipschitz = c.audit_lipschitz(samples, spec, tree_mode, h_mode)
        gap = c.audit_injectivity_gap(samples, spec, tree_mode, h_mode)
        pool.extend(samples)
        return len(samples) == self.BLOCK and not lipschitz and not gap, samples

    def _fit(self, pool):
        fit = self.lab.compression.fit_envelope(pool)
        return fit.exponent >= self.MIN_EXPONENT, fit.exponent

    def canon(self, kind, output):
        if kind.startswith("fit:"):
            return repr(output)
        return ";".join(f"{s.word_length},{s.embedded_dist!r},{s.tree_mode},{s.h_mode}" for s in output)


def _closed_tree_distance(n: int, lo, hi, plus: bool) -> int:
    """Distance from the base vertex for shift n and support extremes lo, hi.
    Only used to sort generated inputs into distance classes."""
    if lo is None:
        return abs(n)
    if plus:
        return n - 2 * lo if (n > lo and lo < 0) else abs(n)
    return 2 * hi - n if (n < hi and hi > 0) else abs(n)


class TreeOracle(Workload):
    """The tree-distances suite: one element on one tree per op, checking
    closed form = geodesic length - 1 = dist = truncated tree BFS.

    Z/2 ops walk seeded permutations of the exhaustive criterion-02 family
    (every lamp pattern on [-3, 3], |shift| <= 4, value radius 1).  Z-lamp ops
    use fresh seeded elements (density 0.4 on [-3, 3], values in [-2, 2],
    |shift| <= 4, value radius 2).  BFS cost grows exponentially with the
    distance, so each round takes the Z-lamp ops in fixed per-distance quotas
    matching that generator's distance distribution; a round's cost then no
    longer depends on how many far elements the seed happened to draw.
    """

    name = "tree-oracle"
    traced_round_s = 0.15
    REACH = 3
    SHIFT_REACH = 4
    DENSITY = 0.4
    Z2_PER_ROUND = 120
    Z_PER_ROUND = 60  # 30 per tree

    def __init__(self, lab, seed):
        super().__init__(lab, seed)
        b, w, t = lab.basegroups, lab.wreath, lab.trees
        self.z2, self.z = b.cyclic(2), b.INTEGERS
        self.sides = (t.TreeSide.PLUS, t.TreeSide.MINUS)
        positions = range(-self.REACH, self.REACH + 1)
        self.family = [
            (w.WreathElement(self.z2, tuple((p, 1) for p, lit in zip(positions, pattern) if lit), n), side)
            for pattern in product((0, 1), repeat=len(positions))
            for n in range(-self.SHIFT_REACH, self.SHIFT_REACH + 1)
            for side in self.sides
        ]
        self._passes: dict[int, list[int]] = {}
        self.quota = self._distance_quota(self.Z_PER_ROUND // 2)

    def _distance_quota(self, per_side: int) -> dict[int, int]:
        """Largest-remainder rounding of per_side * P(distance) for one tree
        (both trees have the same distribution, by reflection)."""
        positions = range(-self.REACH, self.REACH + 1)
        shifts = range(-self.SHIFT_REACH, self.SHIFT_REACH + 1)
        prob: dict[int, float] = {}
        for pattern in product((0, 1), repeat=len(positions)):
            lit = [p for p, on in zip(positions, pattern) if on]
            weight = self.DENSITY ** len(lit) * (1 - self.DENSITY) ** (len(positions) - len(lit))
            lo, hi = (lit[0], lit[-1]) if lit else (None, None)
            for n in shifts:
                d = _closed_tree_distance(n, lo, hi, True)
                prob[d] = prob.get(d, 0.0) + weight / len(shifts)
        exact = {d: per_side * p for d, p in prob.items()}
        quota = {d: int(x) for d, x in exact.items()}
        short = per_side - sum(quota.values())
        for d in sorted(exact, key=lambda d: (quota[d] - exact[d], d))[:short]:
            quota[d] += 1
        return quota

    def _z2_op(self, index: int):
        """Index into the endless stream of seeded family permutations."""
        n, pos = divmod(index, len(self.family))
        if n not in self._passes:
            order = list(range(len(self.family)))
            self.rng("pass", n).shuffle(order)
            self._passes = {n: order}
        return self.family[self._passes[n][pos]]

    def _z_ops(self, rng: random.Random) -> list:
        remaining = {side: dict(self.quota) for side in self.sides}
        todo = sum(sum(q.values()) for q in remaining.values())
        ops = []
        while todo:
            x = random_element(self.lab, self.z, rng, self.REACH, self.SHIFT_REACH, (-2, -1, 1, 2), self.DENSITY)
            lo, hi = (x.lamps[0][0], x.lamps[-1][0]) if x.lamps else (None, None)
            for side in self.sides:
                d = _closed_tree_distance(x.shift, lo, hi, side is self.sides[0])
                if remaining[side].get(d, 0):
                    remaining[side][d] -= 1
                    todo -= 1
                    ops.append(("Z", partial(self._check, x, side, 2)))
        return ops

    def round(self, r):
        start = r * self.Z2_PER_ROUND
        ops = [("Z/2", partial(self._check, *self._z2_op(start + i), 1)) for i in range(self.Z2_PER_ROUND)]
        rng = self.rng("round", r)
        ops += self._z_ops(rng)
        rng.shuffle(ops)
        return ops

    def warmup(self):
        rng = random.Random("tree-oracle-warmup")
        ops = [("Z/2", partial(self._check, *rng.choice(self.family), 1)) for _ in range(40)]
        return ops + self._z_ops(rng)[:20]

    def _check(self, x, side, value_radius):
        t, o = self.lab.trees, self.lab.oracles
        closed = t.dist_from_base(x, side)
        base = t.base_vertex(x.spec, side)
        v = t.vertex_of(x, side)
        path = t.geodesic(base, v)
        bfs = o.tree_bfs_dist(base, v, value_radius)
        ok = path[0] == base and path[-1] == v and closed == len(path) - 1 == t.dist(base, v) == bfs
        return ok, bfs


class ExactEmbed(Workload):
    """The cocycle-identities and equivariance suites, exact throughout:
    chain rule, norm identity and antisymmetry on vertex triples of both
    trees; the affine_alpha homomorphism law on a probe vector; and
    gamma_action_on_sum(g, sigma(x)) == sigma(g x).  Elements of Z/2 wr Z
    (simplex lamps) and Z wr Z (line lamps) have support and shift within
    [-10, 10], so the vectors carry tens of coordinates."""

    name = "exact-embed"
    traced_round_s = 0.09
    REACH = 10

    def __init__(self, lab, seed):
        super().__init__(lab, seed)
        b, e = lab.basegroups, lab.embeddings
        self.groups = (
            ("Z/2", b.cyclic(2), e.H_DIRAC_SIMPLEX, (1,)),
            ("Z", b.INTEGERS, e.H_IDENTITY_LINE, (-2, -1, 1, 2)),
        )

    def _ops(self, rng: random.Random) -> list:
        ops = []
        for label, spec, h_mode, values in self.groups:

            def draw():
                return random_element(self.lab, spec, rng, self.REACH, self.REACH, values)

            for side in self.lab.trees.TreeSide:
                ops.append((f"cocycle:{label}", partial(self._cocycle, side, draw(), draw(), draw())))
                ops.append((f"affine:{label}", partial(self._affine, side, draw(), draw(), draw())))
            for _ in range(2):
                ops.append((f"equivariance:{label}", partial(self._equivariance, h_mode, draw(), draw())))
        rng.shuffle(ops)
        return ops

    def round(self, r):
        return self._ops(self.rng(r))

    def warmup(self):
        return self._ops(random.Random("exact-embed-warmup"))

    def _cocycle(self, side, a, b, c):
        t, e = self.lab.trees, self.lab.embeddings
        x, y, z = (t.vertex_of(g, side) for g in (a, b, c))
        cxy, cyz, cxz = e.cocycle(x, y), e.cocycle(y, z), e.cocycle(x, z)
        ok = cxy + cyz == cxz and cxy.norm_squared() == t.dist(x, y) and not (cxy + e.cocycle(y, x))
        return ok, (cxy, cyz, cxz)

    def _affine(self, side, g, h, x):
        t, e = self.lab.trees, self.lab.embeddings
        base = t.base_vertex(g.spec, side)
        composed = e.affine_alpha(g, base).compose(e.affine_alpha(h, base))
        direct = e.affine_alpha(g * h, base)
        probe = e.iota(t.vertex_of(x, side), base)
        moved = composed(probe)
        return composed.translation == direct.translation and moved == direct(probe), (direct.translation, moved)

    def _equivariance(self, h_mode, g, x):
        e = self.lab.embeddings
        tree_mode = e.TreeMode.cocycle()
        target = e.sigma(g * x, tree_mode, h_mode)
        return e.gamma_action_on_sum(g, e.sigma(x, tree_mode, h_mode), h_mode) == target, (target,)

    def canon(self, kind, output):
        return "\n".join(line for vec in output for line in vec.dump_lines())


class Ball(Workload):
    """The word-length-oracle and properness suites: Cayley balls of Z/2 wr Z
    and Z/3 wr Z up to ~10^5 elements, every BFS length checked against
    WreathElement.word_length, and properness_cross_check on Z/2 (simplex
    lamps) for p in {1, 2}, R in 1..4.  Ball inputs are parameters, so the
    seed only orders each round."""

    name = "ball"
    traced_round_s = 5.5
    # 23 ops a round.  With an odd count the median op is one radius class,
    # and Z/3 radius 8 is left out because it costs about as much as
    # properness p=2, R=3: with both, the median would fall between two
    # near-equal classes and jump from run to run.
    Z2_RADII = (6, 8, 10, 12, 14, 16, 18)  # radius 18: 85,806 elements
    Z3_RADII = (5, 6, 7, 9, 10, 11, 12, 13)  # radius 13: 90,877 elements
    PROPERNESS = tuple((p, r) for p in (1, 2) for r in (1, 2, 3, 4))

    def __init__(self, lab, seed):
        super().__init__(lab, seed)
        b = lab.basegroups
        self.z2, self.z3 = b.cyclic(2), b.cyclic(3)

    def round(self, r):
        ops = [("cayley:Z/2", partial(self._ball, self.z2, radius)) for radius in self.Z2_RADII]
        ops += [("cayley:Z/3", partial(self._ball, self.z3, radius)) for radius in self.Z3_RADII]
        ops += [("properness", partial(self._properness, p, radius)) for p, radius in self.PROPERNESS]
        self.rng(r).shuffle(ops)
        return ops

    def warmup(self):
        return [
            ("cayley:Z/2", partial(self._ball, self.z2, 10)),
            ("cayley:Z/3", partial(self._ball, self.z3, 8)),
            ("properness", partial(self._properness, 2, 3)),
        ]

    def _ball(self, spec, radius):
        lengths = self.lab.oracles.cayley_bfs(spec, radius)
        ok = all(x.word_length() == d for x, d in lengths.items())
        layers = [0] * (radius + 1)
        for d in lengths.values():
            layers[d] += 1
        return ok, (str(spec), radius, list(accumulate(layers)))

    def _properness(self, p, radius):
        e = self.lab.embeddings
        report, scanned, agree = self.lab.oracles.properness_cross_check(self.z2, radius, p, e.H_DIRAC_SIMPLEX)
        return agree and report.count == scanned, (p, radius, report.count, scanned)


WORKLOADS = {w.name: w for w in (Sampler, TreeOracle, ExactEmbed, Ball)}
