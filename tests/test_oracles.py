import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathz import (
    INTEGERS,
    BudgetError,
    TreeSide,
    WreathElement,
    ball_sizes,
    base_vertex,
    cayley_bfs,
    cyclic,
    dist,
    lamp_mode,
    properness_check,
    properness_cross_check,
    tree_bfs_dist,
    tree_bfs_dists,
    vertex_of,
)
from wreathz import oracles
from wreathz.embeddings import lamp_displacement
from wreathz.oracles import (
    _factor_costs_pth,
    _properness,
    product_distance_pth,
    properness_search_radius,
)
from wreathz.verify import Z2_BALL_SIZES, random_element

Z2 = cyclic(2)


def reference_cayley_bfs(spec, radius_cap):
    """The original expansion: rebuild each lamp-generator neighbour through
    a dict of the whole configuration and a sort."""
    lamp_values = spec.generator_values()
    start = ((), 0)
    found = {start: 0}
    frontier = [start]
    for layer in range(1, radius_cap + 1):
        grown = []
        for lamps, n in frontier:
            nxt = [(lamps, n + 1), (lamps, n - 1)]
            for g in lamp_values:
                acc = dict(lamps)
                v = spec.mul(acc.get(n, 0), g)
                if v:
                    acc[n] = v
                else:
                    del acc[n]
                nxt.append((tuple(sorted(acc.items())), n))
            for el in nxt:
                if el not in found:
                    found[el] = layer
                    grown.append(el)
        frontier = grown
    return {WreathElement(spec, lamps, n): d for (lamps, n), d in found.items()}


def el(spec, lamps, shift):
    return WreathElement.of(spec, lamps, shift)


def small_element(spec, rng, max_pos, max_shift):
    """Positions -max_pos..max_pos each lit with probability 0.4 by a value
    of word length at most 2, shift in -max_shift..max_shift."""
    values = [v for v in spec.ball(2) if v]
    lamps = tuple((pos, rng.choice(values)) for pos in range(-max_pos, max_pos + 1) if rng.random() < 0.4)
    return WreathElement(spec, lamps, rng.randint(-max_shift, max_shift))


def test_bfs_radius_zero():
    assert dict(cayley_bfs(Z2, 0).items()) == {WreathElement.identity(Z2): 0}


def test_bfs_small_ball_sizes_frozen():
    lengths = cayley_bfs(Z2, 2)
    sizes = [sum(1 for d in lengths.values() if d <= r) for r in range(3)]
    assert sizes == Z2_BALL_SIZES[:3]  # [1, 4, 10]


def test_bfs_finds_conjugated_lamp():
    lengths = dict(cayley_bfs(Z2, 3).items())
    assert lengths[el(Z2, {1: 1}, 0)] == 3  # s a s^-1


def test_bfs_agrees_with_formula_radius_5():
    for spec, radius in ((Z2, 5), (cyclic(3), 4), (INTEGERS, 4)):
        for x, d in cayley_bfs(spec, radius).items():
            assert x.word_length() == d


@pytest.mark.parametrize(
    "spec, radius_cap",
    [(Z2, 10), (cyclic(3), 8), (cyclic(5), 6), (INTEGERS, 6)],
    ids=["Z/2", "Z/3", "Z/5", "Z"],
)
def test_bfs_equals_reference_expansion(spec, radius_cap):
    for radius in range(radius_cap + 1):
        got = list(cayley_bfs(spec, radius).items())
        want = reference_cayley_bfs(spec, radius)
        assert dict(got) == want
        # same discovery order too
        assert got == list(want.items())


def test_ball_is_read_only():
    ball = cayley_bfs(Z2, 4)
    with pytest.raises(TypeError):
        ball[WreathElement.identity(Z2)] = 1
    lengths = dict(ball.items())
    assert lengths[el(Z2, {1: 1}, 0)] == 3
    # past the radius, an equal-looking element of Z/3 wr Z, a raw key
    for y in (el(Z2, {}, 5), el(cyclic(3), {1: 1}, 0), ((), 0)):
        assert y not in lengths


@pytest.mark.parametrize(
    "spec, lamps, shift",
    [
        (Z2, ((1, 3),), 0),  # a Z/k value outside 1..k-1; 3 = 1 mod 2
        (Z2, ((1, 0),), 0),  # the identity value
        (cyclic(3), ((0, -1),), 0),  # -1 = 2 mod 3
        (cyclic(10**12), ((0, 10**12 + 1),), 0),  # a huge order costs the search nothing
        (INTEGERS, ((0, 5),), 0),  # |v| > R; 5 = -4 mod 9
        (INTEGERS, ((0, 10),), 0),  # 10 = 1 mod 9
        (Z2, ((0, 1), (0, 1)), 0),  # a position twice
        (Z2, ((1, 1), (0, 1)), 1),  # positions out of order
        (Z2, ((5, 1),), 0),  # lamp positions outside [-R, R]
        (Z2, ((-5, 1),), 0),
        (Z2, ((-4, 1),), -5),  # shifts outside [-R, R]; -5 spills into the lamp digits
        (Z2, (), 5),
    ],
)
def test_ball_lookup_rejects_elements_outside_the_encoding(spec, lamps, shift):
    # no element of the radius-4 ball equals any of these pairs: decoding
    # never yields a non-canonical element, though most of them, encoded
    # naively (v mod B, no range checks), share a code with a ball element
    x = WreathElement(spec, lamps, shift)
    assert x not in set(cayley_bfs(spec, 4))


def test_ball_views_agree_in_discovery_order():
    ball = cayley_bfs(cyclic(3), 4)
    want = reference_cayley_bfs(cyclic(3), 4)
    assert list(ball) == list(want)
    assert list(ball.values()) == list(want.values())
    assert list(ball.items()) == list(zip(ball, ball.values())) == list(want.items())
    assert list(ball) == list(ball)  # iterating again builds equal elements
    assert len(ball) == len(want)


def test_bfs_budget_is_a_hard_cap():
    # the radius-40 ball is far larger than the budget
    with pytest.raises(BudgetError, match=r"\(1001 > 1000\)"):
        cayley_bfs(Z2, 40, budget=1000)
    sizes = [len(cayley_bfs(Z2, r)) for r in range(7)]
    # a budget equal to the ball size succeeds, one less fails on the spot
    assert len(cayley_bfs(Z2, 6, budget=sizes[6])) == sizes[6]
    with pytest.raises(BudgetError, match=rf"\({sizes[6]} > {sizes[6] - 1}\) at radius 6"):
        cayley_bfs(Z2, 6, budget=sizes[6] - 1)


@pytest.mark.parametrize("spec", [Z2, INTEGERS], ids=["Z/2", "Z"])
def test_budget_cut_search_does_not_grow_with_the_radius(spec):
    # the budget stops both searches at the same layer, with the same
    # elements stored, so neither the radius nor its codes may cost memory
    def peak(radius):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError) as err:
                cayley_bfs(spec, radius, budget=2000)
            return str(err.value), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    near, near_peak = peak(30)
    far, far_peak = peak(5000)
    assert far == near
    assert far_peak < 1.5 * near_peak


def test_bfs_budget_guard():
    with pytest.raises(BudgetError):
        cayley_bfs(Z2, 8, budget=100)
    # a budget below 1 or a negative radius is a usage error, not a search
    with pytest.raises(ValueError, match="budget must be >= 1"):
        cayley_bfs(Z2, 2, budget=0)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        cayley_bfs(Z2, -3)


def test_budget_env_var(monkeypatch):
    monkeypatch.setenv("WREATHZ_ELEMENT_BUDGET", "50")
    with pytest.raises(BudgetError):
        cayley_bfs(Z2, 8)
    cayley_bfs(Z2, 3)  # under the reduced budget
    monkeypatch.setenv("WREATHZ_ELEMENT_BUDGET", "-1")
    with pytest.raises(ValueError, match="budget must be >= 1"):
        cayley_bfs(Z2, 3)
    monkeypatch.delenv("WREATHZ_ELEMENT_BUDGET")
    cayley_bfs(Z2, 8)


def test_ball_sizes():
    sizes = ball_sizes(cayley_bfs(Z2, 4), 4)
    assert sizes == Z2_BALL_SIZES[:5]
    assert all(a <= b for a, b in zip(sizes, sizes[1:]))


def test_ball_sizes_keep_the_radius_filter_in_order():
    lengths = cayley_bfs(Z2, 8)
    sizes = ball_sizes(lengths, 8)
    assert sizes == Z2_BALL_SIZES
    for r, size in enumerate(sizes):
        assert size == sum(1 for d in lengths.values() if d <= r)


def test_tree_bfs_examples():
    b_plus = base_vertex(Z2, TreeSide.PLUS)
    assert tree_bfs_dist(b_plus, b_plus, 1) == 0
    target = vertex_of(el(Z2, {-1: 1}, 0), TreeSide.PLUS)
    assert tree_bfs_dist(b_plus, target, 1) == 2
    b_minus = base_vertex(Z2, TreeSide.MINUS)
    target = vertex_of(el(Z2, {1: 1}, -1), TreeSide.MINUS)
    assert tree_bfs_dist(b_minus, target, 1) == 3


def test_tree_bfs_validates_inputs():
    b = base_vertex(INTEGERS, TreeSide.PLUS)
    deep = vertex_of(el(INTEGERS, {0: 5}, 1), TreeSide.PLUS)
    with pytest.raises(ValueError, match="truncation"):
        tree_bfs_dist(b, deep, 2)
    with pytest.raises(ValueError, match="same tree"):
        tree_bfs_dist(b, base_vertex(INTEGERS, TreeSide.MINUS), 2)


def test_tree_bfs_budget_guard():
    b = base_vertex(INTEGERS, TreeSide.PLUS)
    far = vertex_of(el(INTEGERS, {-3: 2, 2: -2}, 4), TreeSide.PLUS)
    with pytest.raises(BudgetError, match=r"\(11 > 10\)"):
        tree_bfs_dist(b, far, 2, budget=10)


def test_tree_bfs_budget_is_a_hard_cap_on_the_final_layer():
    # distance 2: one layer from each end, 3 + 3 new vertices on top of the
    # two endpoints.  The meeting layer itself must fit in the budget.
    b = base_vertex(Z2, TreeSide.PLUS)
    target = vertex_of(el(Z2, {-1: 1}, 0), TreeSide.PLUS)
    assert tree_bfs_dist(b, target, 1, budget=8) == 2
    with pytest.raises(BudgetError, match=r"\(8 > 7\)"):
        tree_bfs_dist(b, target, 1, budget=7)
    # the two endpoints are stored too
    with pytest.raises(BudgetError, match=r"\(2 > 1\)"):
        tree_bfs_dist(b, target, 1, budget=1)


def test_tree_bfs_budget_threshold_is_sharp():
    # every budget below the search's stored count fails, reporting one more
    # than the budget; every budget from that count on gives the distance
    b = base_vertex(INTEGERS, TreeSide.MINUS)
    target = vertex_of(el(INTEGERS, {-1: 1, 2: -2}, -2), TreeSide.MINUS)
    outcomes = []
    for budget in range(1, 400):
        try:
            outcomes.append(tree_bfs_dist(b, target, 2, budget=budget))
        except BudgetError as err:
            assert f"({budget + 1} > {budget})" in str(err)
            outcomes.append(None)
    need = outcomes.index(dist(b, target)) + 1
    assert 2 < need < 400
    assert outcomes[: need - 1] == [None] * (need - 1)
    assert set(outcomes[need - 1 :]) == {dist(b, target)}


def test_tree_bfs_budget_counts_every_stored_vertex():
    # base to a neighbour on Z/2: both start balls (2 vertices), then the
    # base's whole first layer (3 vertices) is stored before the hit counts
    b = base_vertex(Z2, TreeSide.PLUS)
    v = vertex_of(el(Z2, {}, 1), TreeSide.PLUS)
    assert tree_bfs_dist(b, v, 1, budget=5) == 1
    with pytest.raises(BudgetError, match=r"\(5 > 4\)"):
        tree_bfs_dist(b, v, 1, budget=4)


def test_tree_bfs_rejects_negative_value_radius():
    b = base_vertex(Z2, TreeSide.PLUS)
    with pytest.raises(ValueError, match="value_radius must be >= 0"):
        tree_bfs_dist(b, b, -1)
    with pytest.raises(ValueError, match="value_radius"):
        tree_bfs_dist(b, vertex_of(el(Z2, {}, 2), TreeSide.PLUS), -1)


def test_tree_bfs_matches_dist_random():
    rng = random.Random(31)
    for spec, vrad in ((Z2, 1), (cyclic(3), 1), (INTEGERS, 2)):
        for _ in range(150):
            side = rng.choice(list(TreeSide))
            u = vertex_of(random_element(spec, rng), side)
            v = vertex_of(random_element(spec, rng), side)
            assert tree_bfs_dist(u, v, vrad) == dist(u, v)


# (base group, value radius) pairs the batch tree search is checked on
TREE_SPECS = ((Z2, 1), (cyclic(3), 1), (cyclic(5), 2), (INTEGERS, 2))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    st.sampled_from(TREE_SPECS),
    st.sampled_from(list(TreeSide)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
)
def test_tree_bfs_dists_match_dist(case, side, seed, count):
    # the source is a random vertex, usually off the base; the targets
    # include the source itself and a repeat
    spec, vrad = case
    rng = random.Random(seed)
    u, *targets = (vertex_of(small_element(spec, rng, 2, 3), side) for _ in range(count + 1))
    targets += [u, targets[0]]
    rng.shuffle(targets)
    assert tree_bfs_dists(u, targets, vrad) == [dist(u, t) for t in targets]


def test_tree_bfs_dist_is_the_one_target_batch():
    rng = random.Random(37)
    for spec, vrad in TREE_SPECS:
        for _ in range(20):
            side = rng.choice(list(TreeSide))
            u, v = (vertex_of(small_element(spec, rng, 2, 3), side) for _ in range(2))
            assert tree_bfs_dist(u, v, vrad) == tree_bfs_dists(u, [v], vrad)[0] == dist(u, v)


def test_tree_bfs_dists_budget_counts_the_shared_ball():
    # three targets let the shared ball grow first: its first layer fits
    # beside the first target, its second does not
    b = base_vertex(Z2, TreeSide.PLUS)
    targets = [vertex_of(el(Z2, {-2: 1, 1: 1}, 3), TreeSide.PLUS)] * 3
    with pytest.raises(BudgetError, match=r"\(6 > 5\)"):
        tree_bfs_dists(b, targets, 1, budget=5)
    # as for one target, every budget below the peak fails and every budget
    # from it on gives the distances
    outcomes = []
    for budget in range(1, 200):
        try:
            outcomes.append(tree_bfs_dists(b, targets, 1, budget=budget))
        except BudgetError as err:
            assert f"({budget + 1} > {budget})" in str(err)
            outcomes.append(None)
    need = outcomes.index([dist(b, targets[0])] * 3) + 1
    assert 6 < need < 200
    assert outcomes[need - 1 :] == [outcomes[need - 1]] * (200 - need)
    assert outcomes[: need - 1] == [None] * (need - 1)


def test_tree_bfs_dists_shared_ball_stops_at_the_vertex_cap(monkeypatch):
    # with the cap lowered, the shared ball stops short of it and the
    # targets grow their own balls, so the batch fits a budget that a
    # shared ball grown without the cap would outgrow
    monkeypatch.setattr(oracles, "_SHARED_BALL_CAP", 1000)
    rng = random.Random(41)
    b = base_vertex(Z2, TreeSide.PLUS)
    targets = [vertex_of(small_element(Z2, rng, 5, 6), TreeSide.PLUS) for _ in range(300)]
    assert tree_bfs_dists(b, targets, 1, budget=2000) == [dist(b, t) for t in targets]


def test_budget_is_validated_before_any_early_return():
    b = base_vertex(Z2, TreeSide.PLUS)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        tree_bfs_dist(b, b, 1, budget=0)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        tree_bfs_dists(b, [], 1, budget=0)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        cayley_bfs(Z2, 0, budget=0)


def test_factor_cost():
    # the properness filters' lamp costs: lamp_displacement(value)^p
    assert _factor_costs_pth(INTEGERS, (-3, 2), 1) == {-3: 3, 2: 2}
    assert _factor_costs_pth(INTEGERS, (-3, 2), 2) == {-3: 9, 2: 4}
    assert _factor_costs_pth(Z2, (1,), 2) == {1: 1}
    assert _factor_costs_pth(cyclic(7), (0, 2, 6), 1) == {0: 0, 2: 3, 6: 3}
    assert _factor_costs_pth(cyclic(7), (0, 2), 2) == {0: 0, 2: 9}


def test_properness_radius_zero_counts_identity_only():
    report = properness_check(Z2, 0, 1)
    assert report.count == 1
    assert report.value_ball == ()


def test_properness_counts_frozen():
    got = {
        (p, r): properness_check(Z2, r, p).count
        for p in (1, 2)
        for r in (1, 2, 3, 4)
    }
    assert [got[(1, r)] for r in (1, 2, 3, 4)] == [2, 4, 10, 16]
    assert [got[(2, r)] for r in (1, 2, 3, 4)] == [2, 10, 22, 48]
    # within reach only by pruning on the distances the support forces
    assert properness_check(Z2, 10, 1).count == 297
    assert properness_check(INTEGERS, 4, 3).count == 2407


def test_properness_budget_is_a_hard_cap():
    # Z/2, R = 10, p = 1 stores 509 lamp configurations, the empty one included
    assert properness_check(Z2, 10, 1, budget=509).count == 297
    with pytest.raises(BudgetError, match=r"properness search .* \(509 > 508\)"):
        properness_check(Z2, 10, 1, budget=508)
    with pytest.raises(BudgetError, match=r"\(2 > 1\)"):
        properness_check(Z2, 1, 1, budget=1)


def test_properness_monotone_in_radius():
    for p in (1, 2):
        counts = [properness_check(Z2, r, p).count for r in range(5)]
        assert counts == sorted(counts)


def test_properness_cross_check_agrees():
    for p in (1, 2):
        for radius in (1, 2, 3):
            report, cross, agree = properness_cross_check(Z2, radius, p, lamp_mode(Z2))
            assert agree and report.count == cross


def test_properness_integer_lamps():
    # identity, and the two unit lamps at the origin
    report = properness_check(INTEGERS, 1, 1)
    assert report.count == 3
    report, cross, agree = properness_cross_check(INTEGERS, 2, 1, lamp_mode(INTEGERS))
    assert agree and report.count == cross


def test_properness_validates_exponent():
    with pytest.raises(ValueError, match="integer"):
        properness_check(Z2, 2, 1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        properness_check(Z2, -1, 1)


def test_properness_filter_is_inside_superset():
    report = properness_check(Z2, 3, 1)
    assert report.count <= report.candidate_count
    assert report.shift_bound == report.support_bound == 3


def test_search_radius_covers_solutions():
    # every element within metric radius R must fit in the scan radius
    for p in (1, 2):
        for radius in (1, 2, 3, 4):
            scan = properness_search_radius(Z2, radius, p)
            for combo in product([0, 1], repeat=5):
                lamps = tuple((q, v) for q, v in zip(range(-2, 3), combo) if v)
                for n in range(-3, 4):
                    x = WreathElement(Z2, lamps, n)
                    if product_distance_pth(x, p) <= radius**p:
                        assert x.word_length() <= scan


def reference_search_radius(spec, radius, p):
    """The scan radius with one bounded knapsack per feasible (d+, d-), each
    over the d+ + d- + 1 lamp positions of [-d+, d-] with that pair's
    remaining budget and read through `max`."""
    r = int(radius)
    rp = Fraction(radius) ** p
    values = [v for v in spec.ball(r) if v and lamp_displacement(spec, v) <= radius]
    sizes = sorted({lamp_displacement(spec, v) for v in values})
    best = r
    for dp in range(r + 1):
        for dm in range(r + 1):
            rem = rp - dp**p - dm**p
            if rem < 0:
                continue
            budget = int(rem)
            table = [0] * (budget + 1)
            for _ in range(dp + dm + 1):
                nxt = table[:]
                for c in range(budget + 1):
                    for size in sizes:
                        if c + size**p <= budget:
                            nxt[c + size**p] = max(nxt[c + size**p], table[c] + size)
                table = nxt
            best = max(best, dp + dm + max(table))
    return best


@pytest.mark.parametrize(
    "spec",
    [pytest.param(spec, id=f"{spec}-{lamp_mode(spec)}") for spec in (INTEGERS, *map(cyclic, (2, 3, 4, 5, 6, 7, 9)))],
)
def test_search_radius_equals_the_per_pair_knapsack(spec):
    for a, b, p in product(range(9), (1, 2, 3, 5), (1, 2, 3)):
        radius = Fraction(a, b)
        got = properness_search_radius(spec, radius, p)
        assert got == reference_search_radius(spec, radius, p), (radius, p)


def test_search_radius_counts_only_the_lamps_a_support_can_hold():
    # a support inside [-d+, d-] holds at most d+ + d- + 1 lamps, which
    # takes both below the 12 that all 2r + 1 lamp positions would give
    assert properness_search_radius(Z2, 4, 2) == 9
    assert properness_search_radius(INTEGERS, 4, 2) == 10


@pytest.mark.parametrize(
    "spec, radii",
    [
        (Z2, ("0", "1", "2", "5/2", "7/3", "3")),
        (cyclic(3), ("0", "1", "2", "5/2", "7/3", "3")),
        (INTEGERS, ("0", "1", "2", "5/2", "7/3")),
    ],
    ids=["Z/2", "Z/3", "Z"],
)
def test_integer_filter_matches_fraction_filter(spec, radii):
    # Reference: the whole candidate box (shift, support and values within
    # [-r, r], no pruning) filtered by comparing against a Fraction.
    for text in radii:
        radius = Fraction(text)
        r = int(radius)
        values = [v for v in spec.ball(r) if v]
        box = [
            WreathElement(spec, tuple((q, v) for q, v in zip(range(-r, r + 1), combo) if v), n)
            for combo in product([0, *values], repeat=2 * r + 1)
            for n in range(-r, r + 1)
        ]
        for p in (1, 2, 3):
            want = {x for x in box if product_distance_pth(x, p) <= radius**p}
            report, limit, members = _properness(spec, radius, p, None)
            assert members == want and report.count == len(want), (text, p)
            assert limit == int(radius**p), (text, p)
            report, scanned, agree = properness_cross_check(spec, radius, p, lamp_mode(spec))
            assert agree and report.count == scanned == len(want)
