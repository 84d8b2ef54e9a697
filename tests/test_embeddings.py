import math
import random
from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathz import (
    INTEGERS,
    DistortionSample,
    SignedEdge,
    SparseVector,
    TreeMode,
    TreeSide,
    TreeVertex,
    WreathElement,
    act,
    affine_alpha,
    base_vertex,
    cocycle,
    cyclic,
    dist,
    dist_from_base,
    embedded_distance,
    gamma_action_on_sum,
    geodesic,
    geom_edge,
    iota,
    lamp_mode,
    properness_cross_check,
    sample_pairs,
    sigma,
    vertex_of,
    weighted_tree_embed,
)
from wreathz.compression import audit_injectivity_gap, audit_lipschitz
from wreathz.embeddings import (
    _tree_component,
    identity_distance_squared,
    lamp_component,
    lamp_displacement,
    lipschitz_constants,
    validate_h_mode,
)
from wreathz.verify import random_element

Z2 = cyclic(2)
PLUS = TreeSide.PLUS
COCYCLE = TreeMode.cocycle()


def el(spec, lamps, shift):
    return WreathElement.of(spec, lamps, shift)


def vx(level, lamps=(), side=PLUS, spec=Z2):
    return TreeVertex(spec, side, level, tuple(sorted(lamps)))


BASE = base_vertex(Z2, PLUS)


# --- tree mode parsing -------------------------------------------------------


def test_tree_mode_parse_and_format():
    assert TreeMode.parse("cocycle") == COCYCLE
    assert TreeMode.parse("guka:1/4") == TreeMode.guka(Fraction(1, 4))
    assert str(TreeMode.parse("guka:0.25")) == "guka:1/4"
    with pytest.raises(ValueError):
        TreeMode.parse("guka:0.75")
    with pytest.raises(ValueError):
        TreeMode.parse("spectral")
    with pytest.raises(ValueError):
        TreeMode.guka(0)


# --- weighted path embedding -------------------------------------------------


def test_weighted_embed_base_is_zero():
    assert weighted_tree_embed(BASE, BASE, Fraction(1, 4)) == SparseVector()


@pytest.mark.parametrize("eps", [0, "3/4", -1])
def test_weighted_embed_rejects_exponents_outside_the_range(eps):
    with pytest.raises(ValueError, match=rf"^weight exponent must lie in \(0, 1/2\], got {eps}$"):
        weighted_tree_embed(BASE, BASE, eps)


def test_weighted_embed_unit_distance():
    v = vx(1)
    vec = weighted_tree_embed(v, BASE, Fraction(1, 4))
    assert len(vec) == 1
    assert vec.norm() == pytest.approx(1.0, abs=1e-12)


def test_weighted_embed_distance_two_half_exponent():
    v = vx(2)
    vec = weighted_tree_embed(v, BASE, Fraction(1, 2))
    assert vec.norm_squared() == pytest.approx(3.0, abs=1e-9)  # 1 + 2


def test_weighted_embed_indexes_from_moving_vertex():
    # the edge adjacent to v carries weight 1, the one at the base sqrt(2)
    v = vx(2)
    vec = weighted_tree_embed(v, BASE, Fraction(1, 2))
    near_v = [val for key, val in vec.items() if key.outer.level == 2]
    near_base = [val for key, val in vec.items() if key.outer.level == 1]
    assert near_v == [1.0]
    assert near_base == [pytest.approx(math.sqrt(2))]


# --- cocycle and iota ---------------------------------------------------------


def test_cocycle_examples():
    x = vx(0, [(-1, 1)])
    assert cocycle(x, x) == SparseVector()
    y = vx(-1)
    assert cocycle(x, y).norm_squared() == 1
    assert cocycle(x, y) + cocycle(y, x) == SparseVector()


def test_cocycle_identities_random():
    rng = random.Random(21)
    for side in TreeSide:
        for _ in range(200):
            x, y, z = (vertex_of(random_element(Z2, rng), side) for _ in range(3))
            assert cocycle(x, y) + cocycle(y, z) == cocycle(x, z)
            assert cocycle(x, y).norm_squared() == dist(x, y)


@st.composite
def tree_pairs(draw):
    """Two vertices of one tree over Z/2, Z/3 or Z, cosets of elements that
    share most lamps, so the meet falls at, between or below both."""
    spec = draw(st.sampled_from((Z2, cyclic(3), INTEGERS)))
    values = [w for w in spec.ball(2) if w]
    side = draw(st.sampled_from(list(TreeSide)))
    shared = draw(st.dictionaries(st.integers(-6, 6), st.sampled_from(values), max_size=8))
    own = st.dictionaries(st.integers(-6, 6), st.sampled_from(values), max_size=2)
    return [vertex_of(el(spec, shared | draw(own), draw(st.integers(-7, 7))), side) for _ in range(2)]


def reference_cocycle(x, y):
    """The per-step rule: walk the geodesic and charge each step +1 up a
    level, -1 down, on the edge keyed by the step's outer vertex (its upper
    end on T+, its lower end on T-)."""
    plus = x.side is PLUS
    items = []
    for a, b in pairwise(geodesic(x, y)):
        up = a.level < b.level
        items.append((SignedEdge(b if up is plus else a), 1 if up else -1))
    return SparseVector(items)


def reference_weighted_embed(v, base, eps):
    """Weight k^eps on the k-th geodesic step from v, each step's edge built
    from its two vertices."""
    path = geodesic(v, base)
    return SparseVector((geom_edge(a, b), float(k) ** float(eps)) for k, (a, b) in enumerate(pairwise(path), 1))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(tree_pairs())
def test_cocycle_equals_the_per_step_reference(pair):
    x, y = pair
    assert list(cocycle(x, y).items()) == list(reference_cocycle(x, y).items())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tree_pairs(), st.sampled_from((Fraction(1, 4), Fraction(1, 2))))
def test_weighted_embed_equals_the_per_step_reference(pair, eps):
    # the same keys, weights and order, so float sums come out bit-identical
    v, base = pair
    got = list(weighted_tree_embed(v, base, eps).items())
    assert got == list(reference_weighted_embed(v, base, eps).items())


def test_iota_examples():
    assert iota(BASE, BASE) == SparseVector()
    far = vx(4)
    assert dist(BASE, far) == 4
    assert iota(far, BASE).norm() == pytest.approx(2.0, abs=1e-12)
    # two branches at distance 1 from the base, mutual distance 2
    u, v = vx(1), vx(1, [(0, 1)])
    assert dist(u, v) == 2
    diff = iota(u, BASE) - iota(v, BASE)
    assert diff.norm_squared() == 2


def test_iota_distance_is_sqrt_of_tree_distance():
    rng = random.Random(22)
    for side in TreeSide:
        b = base_vertex(Z2, side)
        for _ in range(200):
            x = vertex_of(random_element(Z2, rng), side)
            y = vertex_of(random_element(Z2, rng), side)
            assert (iota(x, b) - iota(y, b)).norm_squared() == dist(x, y)


# --- affine action on one tree ------------------------------------------------


def test_alpha_identity():
    alpha = affine_alpha(WreathElement.identity(Z2), BASE)
    probe = iota(vx(1, [(0, 1)]), BASE)
    assert alpha.translation == SparseVector()
    assert alpha(probe) == probe


def test_alpha_moves_iota():
    rng = random.Random(23)
    for _ in range(200):
        g = random_element(Z2, rng)
        v = vertex_of(random_element(Z2, rng), PLUS)
        assert affine_alpha(g, BASE)(iota(v, BASE)) == iota(act(g, v), BASE)


def test_alpha_is_homomorphism_and_invertible():
    rng = random.Random(24)
    for _ in range(100):
        g, h = random_element(Z2, rng), random_element(Z2, rng)
        probe = iota(vertex_of(random_element(Z2, rng), PLUS), BASE)
        lhs = affine_alpha(g, BASE).compose(affine_alpha(h, BASE))
        rhs = affine_alpha(g * h, BASE)
        assert lhs.translation == rhs.translation
        assert lhs(probe) == rhs(probe)
        back = affine_alpha(g.inverse(), BASE)(affine_alpha(g, BASE)(probe))
        assert back == probe


def test_alpha_compose_requires_matching_base():
    g = el(Z2, {}, 1)
    with pytest.raises(ValueError, match="base"):
        affine_alpha(g, BASE).compose(affine_alpha(g, base_vertex(Z2, TreeSide.MINUS)))


# --- base group embeddings ------------------------------------------------------


def test_identity_line_examples():
    # a lamp value n embeds at n on the line, so distances are |a - b|
    assert lamp_component(INTEGERS, 0, 0) == SparseVector()
    for a in range(-4, 5):
        for b in range(-4, 5):
            d = lamp_component(INTEGERS, 0, a) - lamp_component(INTEGERS, 0, b)
            assert d.norm_squared() == (a - b) ** 2


def test_dirac_simplex_example():
    d = lamp_component(Z2, 0, 0) - lamp_component(Z2, 0, 1)
    assert d.norm() == pytest.approx(1.0, abs=1e-12)  # diam = 1


def test_simplex_distances_are_diameter_times_indicator():
    z7 = cyclic(7)
    for s in range(7):
        for t in range(7):
            d = (lamp_component(z7, 0, s) - lamp_component(z7, 0, t)).norm()
            assert d == pytest.approx(0.0 if s == t else 3.0, abs=1e-12)


def test_lamp_displacement_is_the_norm_of_the_lamp_block():
    cases = [(INTEGERS, range(-6, 7))] + [(cyclic(k), range(k)) for k in (2, 3, 5, 8)]
    for spec, values in cases:
        for value in values:
            block = lamp_component(spec, 4, value)
            want = lamp_displacement(spec, value)
            assert block.norm() == pytest.approx(want, abs=1e-12)


@st.composite
def pinned_elements(draw):
    spec = draw(st.sampled_from((Z2, cyclic(5), INTEGERS)))
    values = st.integers(0, spec.order - 1) if spec.is_finite else st.integers(-40, 40)
    lamps = draw(st.dictionaries(st.integers(-20, 20), values, max_size=8))
    return WreathElement.of(spec, lamps, draw(st.integers(-25, 25)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(pinned_elements())
def test_identity_distance_squared_sums_lamp_displacements(x):
    # the sampler's inline lamp sums are lamp_displacement squared, exactly
    lamps = sum(lamp_displacement(x.spec, v) ** 2 for _, v in x.lamps)
    want = dist_from_base(x, PLUS) + dist_from_base(x, TreeSide.MINUS) + lamps
    got = identity_distance_squared(x, COCYCLE)
    assert got == want and type(got) is int


def test_lamp_mode_follows_the_group():
    assert [lamp_mode(spec) for spec in (Z2, cyclic(7), INTEGERS)] == ["dirac-simplex"] * 2 + ["identity-line"]


def test_h_embed_mode_mismatch():
    with pytest.raises(ValueError, match="^Z/2 takes the dirac-simplex lamp embedding, not 'identity-line'$"):
        validate_h_mode(Z2, lamp_mode(INTEGERS))
    with pytest.raises(ValueError, match="^Z takes the identity-line lamp embedding, not 'dirac-simplex'$"):
        validate_h_mode(INTEGERS, lamp_mode(Z2))
    with pytest.raises(ValueError, match="^Z/2 takes the dirac-simplex lamp embedding, not 'fourier'$"):
        validate_h_mode(Z2, "fourier")
    with pytest.raises(ValueError, match="^Z/2 takes the dirac-simplex lamp embedding, not 'identity-line'$"):
        sigma(el(Z2, {0: 1}, 0), COCYCLE, lamp_mode(INTEGERS))


# The entry points that still take a lamp mode, each called with valid other
# arguments; each must reject every mode but lamp_mode(spec), before any work.
MODE_ENTRY_POINTS = {
    "sample_pairs": lambda spec, mode: sample_pairs(spec, COCYCLE, mode, 5, 3, 1),
    "audit_lipschitz": lambda spec, mode: audit_lipschitz([], spec, COCYCLE, mode),
    "audit_injectivity_gap": lambda spec, mode: audit_injectivity_gap([], spec, COCYCLE, mode),
    "sigma": lambda spec, mode: sigma(el(spec, {0: 1}, 1), COCYCLE, mode),
    "gamma_action_on_sum": lambda spec, mode: gamma_action_on_sum(el(spec, {0: 1}, 1), SparseVector(), mode),
    "properness_cross_check": lambda spec, mode: properness_cross_check(spec, 1, 1, mode),
}


@pytest.mark.parametrize("entry", MODE_ENTRY_POINTS)
@pytest.mark.parametrize("spec", (Z2, INTEGERS), ids=str)
def test_mode_entry_points_reject_a_mode_the_group_does_not_take(entry, spec):
    call = MODE_ENTRY_POINTS[entry]
    call(spec, lamp_mode(spec))
    other = lamp_mode(INTEGERS if spec.is_finite else Z2)
    for mode in (other, "fourier"):
        with pytest.raises(ValueError, match=f"^{spec} takes the {lamp_mode(spec)} lamp embedding, not '{mode}'$"):
            call(spec, mode)


# --- assembled embedding ---------------------------------------------------------


def test_sigma_of_identity_is_zero():
    assert sigma(WreathElement.identity(Z2), COCYCLE, lamp_mode(Z2)) == SparseVector()


def test_sigma_pure_shift():
    v = sigma(el(Z2, {}, 2), COCYCLE, lamp_mode(Z2))
    assert v.norm_squared() == 4  # 2 + 2 from the two trees
    assert v.norm() == pytest.approx(2.0, abs=1e-12)


def test_sigma_single_lamp_at_origin():
    v = sigma(el(Z2, {0: 1}, 0), COCYCLE, lamp_mode(Z2))
    assert v.norm_squared() == pytest.approx(1.0, abs=1e-12)  # 0 + 0 + 1


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(pinned_elements(), st.sampled_from((COCYCLE, TreeMode.guka(Fraction(1, 4)))))
def test_sigma_equals_the_sum_of_its_components(x, tree_mode):
    # the one-pass build against the vector sum of its blocks, in both lamp
    # modes: same items in the same order, so the same bytes and norm
    want = _tree_component(x, PLUS, tree_mode) + _tree_component(x, TreeSide.MINUS, tree_mode)
    for pos, value in x.lamps:
        want = want + lamp_component(x.spec, pos, value)
    got = sigma(x, tree_mode, lamp_mode(x.spec))
    assert list(got.items()) == list(want.items())
    assert got.dump_lines() == want.dump_lines()
    norm = got.norm_squared()
    assert norm == want.norm_squared() and type(norm) is type(want.norm_squared())


def test_identity_distance_squared_matches_vectors():
    rng = random.Random(25)
    modes = [
        (Z2, COCYCLE),
        (Z2, TreeMode.guka(Fraction(1, 4))),
        (INTEGERS, COCYCLE),
        (INTEGERS, TreeMode.guka(Fraction(1, 2))),
    ]
    for spec, tree_mode in modes:
        e = WreathElement.identity(spec)
        for _ in range(60):
            x = random_element(spec, rng)
            fast = identity_distance_squared(x, tree_mode)
            slow = embedded_distance(x, e, tree_mode) ** 2
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


# --- the action on the direct sum -------------------------------------------------


def test_gamma_action_identity():
    x = sigma(el(Z2, {0: 1, 2: 1}, -1), COCYCLE, lamp_mode(Z2))
    assert gamma_action_on_sum(WreathElement.identity(Z2), x, lamp_mode(Z2)) == x


def test_gamma_action_equivariance_simplex_exact():
    rng = random.Random(26)
    for _ in range(300):
        g = random_element(Z2, rng)
        x = random_element(Z2, rng)
        lhs = gamma_action_on_sum(g, sigma(x, COCYCLE, lamp_mode(Z2)), lamp_mode(Z2))
        assert lhs == sigma(g * x, COCYCLE, lamp_mode(Z2))


def test_gamma_action_equivariance_line_exact():
    rng = random.Random(27)
    for _ in range(300):
        g = random_element(INTEGERS, rng)
        x = random_element(INTEGERS, rng)
        lhs = gamma_action_on_sum(g, sigma(x, COCYCLE, lamp_mode(INTEGERS)), lamp_mode(INTEGERS))
        assert lhs == sigma(g * x, COCYCLE, lamp_mode(INTEGERS))


def test_gamma_action_is_isometric():
    rng = random.Random(28)
    for _ in range(100):
        g = random_element(Z2, rng)
        a = sigma(random_element(Z2, rng), COCYCLE, lamp_mode(Z2))
        b = sigma(random_element(Z2, rng), COCYCLE, lamp_mode(Z2))
        lhs = (gamma_action_on_sum(g, a, lamp_mode(Z2)) - gamma_action_on_sum(g, b, lamp_mode(Z2))).norm()
        assert lhs == pytest.approx((a - b).norm(), rel=1e-9, abs=1e-9)


def test_gamma_action_is_an_action():
    rng = random.Random(30)
    for spec in (Z2, cyclic(3), INTEGERS):
        mode = lamp_mode(spec)
        for _ in range(50):
            g, h = random_element(spec, rng), random_element(spec, rng)
            # a sum of two images is not itself an image of sigma
            probe = sigma(random_element(spec, rng), COCYCLE, mode) + sigma(random_element(spec, rng), COCYCLE, mode)
            one_step = gamma_action_on_sum(g * h, probe, mode)
            two_step = gamma_action_on_sum(g, gamma_action_on_sum(h, probe, mode), mode)
            assert one_step == two_step


def test_gamma_action_rejects_weighted_mode():
    x = el(Z2, {0: 1}, 0)
    weighted = sigma(el(Z2, {0: 1}, 2), TreeMode.guka(Fraction(1, 4)), lamp_mode(Z2))
    with pytest.raises(ValueError, match="no equivariant action"):
        gamma_action_on_sum(x, weighted, lamp_mode(Z2))


# --- audit constants ----------------------------------------------------------------


def test_lipschitz_constants_and_gap():
    assert lipschitz_constants(Z2, COCYCLE) == (1.0, 1.0, 1.0)
    assert lipschitz_constants(cyclic(7), COCYCLE) == (1.0, 1.0, 3.0)
    assert lipschitz_constants(INTEGERS, TreeMode.guka(Fraction(1, 4))) == (
        1.0602,
        1.0602,
        1.0,
    )
    assert lipschitz_constants(Z2, TreeMode.guka(Fraction(2, 5))) == (1.341, 1.341, 1.0)
    with pytest.raises(ValueError, match="diverges"):
        lipschitz_constants(INTEGERS, TreeMode.guka(Fraction(1, 2)))


def test_weighted_step_bound_covers_the_edge_steps():
    # stepping outward from distance d moves the image by the partial sum
    # sqrt(1 + sum_{k<=d} ((k+1)^eps - k^eps)^2), which rises to the bound
    for eps in (Fraction(1, 4), Fraction(2, 5)):
        c = lipschitz_constants(Z2, TreeMode.guka(eps))[0]
        images = [weighted_tree_embed(vx(d), BASE, eps) for d in range(150)]
        steps = [(b - a).norm() for a, b in zip(images, images[1:])]
        assert steps == sorted(steps)
        assert steps[-1] <= c


def test_sigma_lipschitz_and_gap_small_sample():
    rng = random.Random(29)
    c = sum(lipschitz_constants(Z2, COCYCLE))
    samples = []
    for _ in range(200):
        x, y = random_element(Z2, rng), random_element(Z2, rng)
        d = embedded_distance(x, y, COCYCLE)
        word = (x.inverse() * y).word_length()
        assert d <= c * word + 1e-12
        samples.append(DistortionSample(word, d, "cocycle", lamp_mode(Z2)))
    assert sum(s.word_length >= 1 for s in samples) > 150
    assert audit_injectivity_gap(samples, Z2, COCYCLE, lamp_mode(Z2)) == []
