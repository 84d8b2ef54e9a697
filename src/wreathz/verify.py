"""Named invariant suites behind the CLI `verify` subcommand.

Each suite re-derives one family of library claims from scratch (exhaustive
enumeration, independent BFS, seeded random sampling) and reports pass/fail
with a one-line detail.  The suites are the library's self-test, and the
pytest acceptance gate is a thin call into them at its own seeds, so every
invariant has one implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .basegroups import INTEGERS, GroupSpec, cyclic
from .compression import (
    audit_injectivity_gap,
    audit_lipschitz,
    bounds,
    fit_envelope,
    sample_pairs,
)
from .embeddings import (
    H_DIRAC_SIMPLEX,
    TreeMode,
    affine_alpha,
    cocycle,
    gamma_action_on_sum,
    iota,
    lipschitz_constants,
    sigma,
    weighted_tree_embed,
)
from .oracles import ball_sizes, cayley_bfs, properness_check, properness_cross_check, tree_bfs_dists
from .trees import (
    TreeSide,
    TreeVertex,
    act,
    base_vertex,
    dist,
    dist_from_base,
    geodesic,
    truncated_neighbors,
    vertex_of,
)
from .verifyconfig import VerifyConfig
from .wreath import WreathElement, format_element, parse_element, travel_length

Z2_BALL_SIZES = [1, 4, 10, 22, 44, 84, 155, 278, 490]
Z3_BALL_SIZES = [1, 5, 15, 41, 99, 229, 515]

# Smallest acceptable lower-envelope exponent of sampled sigma distortion
# (the exact value is 1/2).
ENVELOPE_EXPONENT_FLOOR = 0.45

# (predicate on (n, m, M), travel length over that region)
TRAVEL_TABLE = [
    (lambda n, m, M: n >= 0 and m >= 0 and M > n, lambda n, m, M: 2 * M - n),
    (lambda n, m, M: n >= 0 and m >= 0 and M <= n, lambda n, m, M: n),
    (lambda n, m, M: n >= 0 and m < 0 and M > n, lambda n, m, M: 2 * M - 2 * m - n),
    (lambda n, m, M: n >= 0 and m < 0 and M <= n, lambda n, m, M: n - 2 * m),
    (lambda n, m, M: n < 0 and m < n and M <= 0, lambda n, m, M: n - 2 * m),
    (lambda n, m, M: n < 0 and m >= n and M <= 0, lambda n, m, M: -n),
    (lambda n, m, M: n < 0 and m < n and M > 0, lambda n, m, M: 2 * M - 2 * m + n),
    (lambda n, m, M: n < 0 and m >= n and M > 0, lambda n, m, M: 2 * M - n),
]


def table_row_index(n: int, m: int, M: int) -> int:
    for i, (pred, _) in enumerate(TRAVEL_TABLE):
        if pred(n, m, M):
            return i
    raise AssertionError(f"({n}, {m}, {M}) matches no region")


def sample_table_row(row: int, rng: random.Random) -> tuple[int, int, int]:
    """A random (n, m, M) triple inside one region of the travel table."""
    n = rng.randint(0, 20) if row < 4 else -rng.randint(1, 20)
    if row == 0:
        M = n + rng.randint(1, 20)
        m = rng.randint(0, M)
    elif row == 1:
        M = rng.randint(0, n)
        m = rng.randint(0, M)
    elif row == 2:
        m = -rng.randint(1, 20)
        M = n + rng.randint(1, 20)
    elif row == 3:
        m = -rng.randint(1, 20)
        M = rng.randint(m, n)
    elif row == 4:
        m = n - rng.randint(1, 20)
        M = rng.randint(m, 0)
    elif row == 5:
        m = rng.randint(n, 0)
        M = rng.randint(m, 0)
    elif row == 6:
        m = n - rng.randint(1, 20)
        M = rng.randint(1, 20)
    else:
        m = rng.randint(n, 3)
        M = max(m, 0) + rng.randint(1, 20)
    assert m <= M and TRAVEL_TABLE[row][0](n, m, M)
    return n, m, M


# Bounds of the suites' seeded random elements.
RANDOM_MAX_POS = 3
RANDOM_MAX_SHIFT = 4
RANDOM_VALUE_RADIUS = 2
RANDOM_DENSITY = 0.4


def random_element(spec: GroupSpec, rng: random.Random) -> WreathElement:
    """Seeded random element with bounded support, shift and lamp values."""
    values = [v for v in spec.ball(RANDOM_VALUE_RADIUS) if v]
    positions = range(-RANDOM_MAX_POS, RANDOM_MAX_POS + 1)
    lamps = tuple((p, rng.choice(values)) for p in positions if rng.random() < RANDOM_DENSITY)
    return WreathElement(spec, lamps, rng.randint(-RANDOM_MAX_SHIFT, RANDOM_MAX_SHIFT))


def random_stabilizer_element(spec: GroupSpec, side: TreeSide, rng: random.Random) -> WreathElement:
    """Random element of the base-vertex stabilizer: lamps only on the
    absorbed side of level 0 (up to RANDOM_MAX_POS away), shift 0."""
    positions = range(0, RANDOM_MAX_POS + 1) if side is TreeSide.PLUS else range(-RANDOM_MAX_POS, 1)
    values = [v for v in spec.ball(RANDOM_VALUE_RADIUS) if v]
    lamps = [(p, rng.choice(values)) for p in positions if rng.random() < 0.5]
    return WreathElement(spec, tuple(lamps), 0)


# --- suites ----------------------------------------------------------------


def check_base_groups(cfg: VerifyConfig):
    issues = []
    for spec in (INTEGERS, cyclic(2), cyclic(5), cyclic(7)):
        ball = spec.ball(6)
        for a in ball:
            if spec.word_length(a) != spec.word_length(spec.inv(a)):
                issues.append(f"{spec}: |{a}| != |{a}^-1|")
            for b in ball:
                if spec.word_length(spec.mul(a, b)) > spec.word_length(a) + spec.word_length(b):
                    issues.append(f"{spec}: triangle fails at ({a}, {b})")
    for radius in range(9):
        if len(INTEGERS.ball(radius)) != 2 * radius + 1:
            issues.append(f"Z ball {radius} size off")
        for k in (2, 3, 7):
            if len(cyclic(k).ball(radius)) != min(k, 2 * radius + 1):
                issues.append(f"Z/{k} ball {radius} size off")
    if cyclic(7).ball(2) != [0, 1, 2, 5, 6]:
        issues.append("Z/7 radius-2 ball wrong")
    return not issues, issues[0] if issues else "word metric + balls on Z, Z/2, Z/5, Z/7"


def check_wreath_axioms(cfg: VerifyConfig):
    rng = random.Random(cfg.seed)
    for spec in (cyclic(3), INTEGERS):
        e = WreathElement.identity(spec)
        for _ in range((cfg.triples + 1) // 2):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
            z = random_element(spec, rng)
            if (x * y) * z != x * (y * z):
                return False, f"associativity fails on {spec}"
            if x * x.inverse() != e or x.inverse() * x != e:
                return False, f"inverses fail on {spec}"
            if e * x != x or x * e != x:
                return False, f"identity fails on {spec}"
            if x.word_length() != x.inverse().word_length():
                return False, f"length symmetry fails at {x}"
    return True, f"{cfg.triples} random triples on Z/3 wr Z and Z wr Z, exact"


def check_word_length_oracle(cfg: VerifyConfig):
    for spec, radius, frozen in ((cyclic(2), 8, Z2_BALL_SIZES), (cyclic(3), 6, Z3_BALL_SIZES)):
        lengths = cayley_bfs(spec, radius)
        bad = next((x for x, d in lengths.items() if x.word_length() != d), None)
        if bad is not None:
            return False, f"{spec}: formula != BFS at {format_element(bad)}"
        sizes = ball_sizes(lengths, radius)
        if sizes != frozen:
            return False, f"{spec}: ball sizes {sizes} != frozen {frozen}"
    return True, f"formula = BFS on {Z2_BALL_SIZES[-1]} + {Z3_BALL_SIZES[-1]} elements"


def check_travel_table(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 1)
    spec = cyclic(2)
    for row, (pred, formula) in enumerate(TRAVEL_TABLE):
        for _ in range(20):
            n, m, M = sample_table_row(row, rng)
            if travel_length(n, m, M) != formula(n, m, M):
                return False, f"row {row + 1} fails at (n={n}, m={m}, M={M})"
            lamps = ((m, 1),) if m == M else ((m, 1), (M, 1))
            x = WreathElement(spec, lamps, n)
            if not _travel_sandwiched(x, *(dist_from_base(x, side) for side in TreeSide), set()):
                return False, f"row {row + 1} sandwich fails at (n={n}, m={m}, M={M})"
    return True, "8 regions x 20 seeded triples, exact, sandwich included"


def _travel_sandwiched(x: WreathElement, dp: int, dm: int, rows_hit: set[int]) -> bool:
    """max(dp, dm) <= travel length <= dp + dm, given x's two tree distances
    from the base vertices; records the travel-table region of an element
    with lamps."""
    if not x.lamps:
        return True
    lo, hi = x.lamps[0][0], x.lamps[-1][0]
    rows_hit.add(table_row_index(x.shift, lo, hi))
    return max(dp, dm) <= travel_length(x.shift, lo, hi) <= dp + dm


def check_length_sandwich(cfg: VerifyConfig):
    spec = cyclic(2)
    lengths = cayley_bfs(spec, 8)
    rows_hit = set()
    for x, d in lengths.items():
        cost = spec.lamp_cost(x.lamps)
        dp = dist_from_base(x, TreeSide.PLUS)
        dm = dist_from_base(x, TreeSide.MINUS)
        if not (max(dp, dm) + cost <= d <= dp + dm + cost):
            return False, f"length sandwich fails at {format_element(x)}"
        if not _travel_sandwiched(x, dp, dm, rows_hit):
            return False, f"travel sandwich fails at {format_element(x)}"
    if rows_hit != set(range(8)):
        return False, f"only table regions {sorted(rows_hit)} exercised"
    return True, f"both sandwiches on all {len(lengths)} elements of the radius-8 ball"


def check_tree_distances(cfg: VerifyConfig):
    def exhaustive(spec):
        values = [v for v in spec.ball(1) if v]
        for combo in product([0] + values, repeat=7):
            lamps = tuple((p, v) for p, v in zip(range(-3, 4), combo) if v)
            for n in range(-4, 5):
                yield WreathElement(spec, lamps, n)

    rng = random.Random(cfg.seed + 2)
    families = (
        ("Z/2", cyclic(2), list(exhaustive(cyclic(2))), 1),
        ("Z/3", cyclic(3), list(exhaustive(cyclic(3))), 1),
        ("Z-lamp", INTEGERS, [random_element(INTEGERS, rng) for _ in range(cfg.random_tree_checks)], 2),
    )
    rows_hit = set()
    for label, spec, family, value_radius in families:
        bases = {side: base_vertex(spec, side) for side in TreeSide}
        vertices = {side: [vertex_of(x, side) for x in family] for side in TreeSide}
        bfs = {side: tree_bfs_dists(bases[side], vertices[side], value_radius) for side in TreeSide}
        for i, x in enumerate(family):
            closed = [dist_from_base(x, side) for side in TreeSide]
            for side, d in zip(TreeSide, closed):
                base, v = bases[side], vertices[side][i]
                path = geodesic(base, v)
                if not (path[0] == base and path[-1] == v and d == len(path) - 1 == dist(base, v) == bfs[side][i]):
                    return False, f"{label} triple fails at {format_element(x)}"
            if not _travel_sandwiched(x, *closed, rows_hit):
                return False, f"{label} travel sandwich fails at {format_element(x)}"
    if rows_hit != set(range(8)):
        return False, f"only table regions {sorted(rows_hit)} exercised"
    checked = sum(len(family) for _, _, family, _ in families)
    return True, (
        f"closed form = geodesic = BFS on both trees and travel sandwich on {checked} "
        f"elements (exhaustive Z/2 + Z/3, {cfg.random_tree_checks} random Z-lamp), "
        f"all 8 table regions hit"
    )


def check_tree_action(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 3)
    spec = cyclic(3)
    for _ in range(cfg.triples):
        g = random_element(spec, rng)
        h = random_element(spec, rng)
        x = random_element(spec, rng)
        side = rng.choice(list(TreeSide))
        u = vertex_of(random_element(spec, rng), side)
        v = vertex_of(random_element(spec, rng), side)
        if dist(act(g, u), act(g, v)) != dist(u, v):
            return False, "action is not an isometry"
        if act(g * h, u) != act(g, act(h, u)):
            return False, "action is not a homomorphism"
        stab = random_stabilizer_element(spec, side, rng)
        if vertex_of(x * stab, side) != vertex_of(x, side):
            return False, f"coset form not well-defined at {format_element(x)}"
        dp = dist_from_base(x, TreeSide.PLUS)
        dm = dist_from_base(x, TreeSide.MINUS)
        if abs(x.shift) > min(dp, dm):
            return False, "distance below the shift bound"
        if x.lamps and (dp < -x.lamps[0][0] or dm < x.lamps[-1][0]):
            return False, "distance below the support bound"
        path = geodesic(u, v)
        for a, b in zip(path, path[1:]):
            if dist(a, b) != 1 or abs(a.level - b.level) != 1:
                return False, "geodesic steps are not edges"
    return True, f"isometry, well-definedness, lower bounds on {cfg.triples} seeded cases"


def check_cocycle_identities(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 4)
    spec = cyclic(2)
    for side in TreeSide:
        for _ in range(cfg.triples):
            x, y, z = (
                vertex_of(random_element(spec, rng), side) for _ in range(3)
            )
            if cocycle(x, y) + cocycle(y, z) != cocycle(x, z):
                return False, f"chain rule fails on {side}"
            if cocycle(x, y).norm_squared() != dist(x, y):
                return False, f"norm identity fails on {side}"
            if cocycle(x, y) + cocycle(y, x):
                return False, f"antisymmetry fails on {side}"
    return True, f"chain rule + exact norms on {cfg.triples} triples per side"


def check_equivariance(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 5)
    spec = cyclic(2)
    tree_mode = TreeMode.cocycle()
    base = base_vertex(spec, TreeSide.PLUS)
    for _ in range(cfg.triples):
        g = random_element(spec, rng)
        h = random_element(spec, rng)
        x = random_element(spec, rng)
        composed = affine_alpha(g, base).compose(affine_alpha(h, base))
        direct = affine_alpha(g * h, base)
        probe = iota(vertex_of(x, TreeSide.PLUS), base)
        if composed.translation != direct.translation or composed(probe) != direct(probe):
            return False, "affine maps are not a homomorphism"
        v = vertex_of(h, TreeSide.PLUS)
        if affine_alpha(g, base)(iota(v, base)) != iota(act(g, v), base):
            return False, "tree embedding is not equivariant"
        if gamma_action_on_sum(g, sigma(x, tree_mode, H_DIRAC_SIMPLEX), H_DIRAC_SIMPLEX) != sigma(
            g * x, tree_mode, H_DIRAC_SIMPLEX
        ):
            return False, f"assembled map not equivariant at g={format_element(g)}"
    for _ in range(100):
        g = random_element(spec, rng)
        a = sigma(random_element(spec, rng), tree_mode, H_DIRAC_SIMPLEX)
        b = sigma(random_element(spec, rng), tree_mode, H_DIRAC_SIMPLEX)
        moved = gamma_action_on_sum(g, a, H_DIRAC_SIMPLEX) - gamma_action_on_sum(
            g, b, H_DIRAC_SIMPLEX
        )
        if abs(moved.norm() - (a - b).norm()) > 1e-9:
            return False, "action is not isometric"
    return True, f"homomorphism + equivariance on {cfg.triples} seeded cases, exact"


def check_weighted_embedding(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 6)
    spec = cyclic(2)
    base = base_vertex(spec, TreeSide.PLUS)
    quarter = Fraction(1, 4)
    lipschitz = lipschitz_constants(spec, TreeMode.guka(quarter), H_DIRAC_SIMPLEX)[0]
    worst_step = 0.0
    fitted_lower = {quarter: float("inf"), Fraction(1, 2): float("inf")}
    pairs = 0
    while pairs < 150:
        lamps = tuple(sorted({(rng.randint(-60, 60), 1) for _ in range(rng.randint(0, 4))}))
        x = WreathElement(spec, lamps, rng.randint(-90, 90))
        u = vertex_of(x, TreeSide.PLUS)
        d = dist(base, u)
        if not 1 <= d <= 200:
            continue
        pairs += 1
        nb = TreeVertex(spec, TreeSide.PLUS, *rng.choice(truncated_neighbors((1,), True)((u.level, u.tail))))
        step = weighted_tree_embed(u, base, quarter) - weighted_tree_embed(nb, base, quarter)
        worst_step = max(worst_step, step.norm())
        for eps in fitted_lower:
            gap = weighted_tree_embed(u, base, eps).norm()  # the base embeds at 0
            fitted_lower[eps] = min(fitted_lower[eps], gap / d ** (0.5 + float(eps)))
    if worst_step > lipschitz:
        return False, f"edge step {worst_step:.4f} exceeds the Lipschitz constant {lipschitz}"
    if min(fitted_lower.values()) <= 0:
        return False, "no positive lower constant"
    return True, (
        f"{pairs} random edges at eps 1/4: steps <= {worst_step:.4f} <= Lipschitz {lipschitz}; "
        f"lower constants from the base at d <= 200 {min(fitted_lower.values()):.3f} > 0"
    )


def check_sigma_audits(cfg: VerifyConfig):
    spec = cyclic(2)
    tree_mode = TreeMode.cocycle()
    samples = sample_pairs(spec, tree_mode, H_DIRAC_SIMPLEX, cfg.scale, cfg.samples, cfg.seed)
    lip = audit_lipschitz(samples, spec, tree_mode, H_DIRAC_SIMPLEX)
    gap = audit_injectivity_gap(samples, spec, tree_mode, H_DIRAC_SIMPLEX)
    if lip or gap:
        return False, f"{len(lip)} Lipschitz and {len(gap)} separation violations"
    try:
        fit = fit_envelope(samples)
    except ValueError as err:  # too few samples to fit
        return False, str(err)
    if fit.exponent < ENVELOPE_EXPONENT_FLOOR:
        return False, f"envelope exponent {fit.exponent:.4f} below {ENVELOPE_EXPONENT_FLOOR}"
    return True, (
        f"{cfg.samples} samples at scale {cfg.scale}: zero violations, "
        f"envelope exponent {fit.exponent:.4f}"
    )


def check_bound_calculator(cfg: VerifyConfig):
    if bounds(1).non_equivariant_lower != Fraction(1, 2):
        return False, "plain lower bound at 1 is off"
    if bounds(Fraction(1, 2)).equivariant_lower != Fraction(1, 4):
        return False, "equivariant lower bound at 1/2 is off"
    if bounds(1).upper_reference != Fraction(3, 4):
        return False, "upper reference is off"
    prev = bounds(0)
    for i in range(1001):
        t = Fraction(i, 1000)
        b = bounds(t)
        if (
            b.non_equivariant_lower < prev.non_equivariant_lower
            or b.equivariant_lower < prev.equivariant_lower
        ):
            return False, f"bounds not monotone at {t}"
        takes_linear = t - Fraction(1, 2) >= t / (2 * t + 1)
        if takes_linear != (float(t) >= b.crossover - 1e-12):
            return False, f"equivariant branches do not flip at the crossover (t = {t})"
        prev = b
    return True, (
        "bounds(1) -> 1/2 with 3/4 reference, bounds(1/2) -> 1/4 equivariant; "
        "monotone, branch flip at (1+sqrt 5)/4 within 1e-12 on a 1001-point rational grid"
    )


def check_properness(cfg: VerifyConfig):
    spec = cyclic(2)
    if properness_check(spec, 0, 1, H_DIRAC_SIMPLEX).count != 1:
        return False, "radius 0 should only fix the identity"
    counts = {}
    for p in (1, 2):
        prev = 1
        for radius in (1, 2, 3, 4):
            report, cross, agree = properness_cross_check(spec, radius, p, H_DIRAC_SIMPLEX)
            if not agree or report.count != cross:
                return False, f"cross-check disagrees at p={p}, R={radius}"
            if report.count < prev:
                return False, f"counts not monotone at p={p}, R={radius}"
            prev = report.count
            counts[(p, radius)] = report.count
    return True, "filter = ball scan for p in {1,2}, R in 1..4; counts " + str(
        [counts[(p, r)] for p in (1, 2) for r in (1, 2, 3, 4)]
    )


def check_determinism(cfg: VerifyConfig):
    spec = cyclic(2)
    tree_mode = TreeMode.cocycle()
    a = sample_pairs(spec, tree_mode, H_DIRAC_SIMPLEX, 100, 2000, cfg.seed)
    b = sample_pairs(spec, tree_mode, H_DIRAC_SIMPLEX, 100, 2000, cfg.seed)
    if a != b:
        return False, "same seed produced different samples"
    if fit_envelope(a) != fit_envelope(b):
        return False, "same samples produced different fits"
    return True, "bit-identical samples and fit under a fixed seed"


def check_literal_roundtrip(cfg: VerifyConfig):
    rng = random.Random(cfg.seed + 7)
    for spec in (cyclic(2), cyclic(5), INTEGERS):
        for _ in range(200):
            x = random_element(spec, rng)
            if parse_element(spec, format_element(x)) != x:
                return False, f"round-trip fails for {format_element(x)}"
    return True, "print -> parse identity on 600 random elements"


SUITES = [
    ("base-groups", check_base_groups),
    ("wreath-axioms", check_wreath_axioms),
    ("word-length-oracle", check_word_length_oracle),
    ("travel-table", check_travel_table),
    ("length-sandwich", check_length_sandwich),
    ("tree-distances", check_tree_distances),
    ("tree-action", check_tree_action),
    ("cocycle-identities", check_cocycle_identities),
    ("equivariance", check_equivariance),
    ("weighted-embedding", check_weighted_embedding),
    ("sigma-audits", check_sigma_audits),
    ("bound-calculator", check_bound_calculator),
    ("properness", check_properness),
    ("determinism", check_determinism),
    ("literal-roundtrip", check_literal_roundtrip),
]


def run_suites(cfg: VerifyConfig | None = None, names: list[str] | None = None):
    """Run the selected suites; yields (name, ok, detail)."""
    cfg = cfg or VerifyConfig()
    known = dict(SUITES)
    if names:
        missing = [n for n in names if n not in known]
        if missing:
            raise ValueError(f"unknown suite(s): {', '.join(missing)}")
        todo = [(n, known[n]) for n in names]
    else:
        todo = SUITES
    for name, fn in todo:
        ok, detail = fn(cfg)
        yield name, ok, detail
