import math
import random
from fractions import Fraction

import pytest

from wreathz import (
    INTEGERS,
    DistortionSample,
    TreeMode,
    bounds,
    cyclic,
    fit_envelope,
    lamp_mode,
    sample_pairs,
)
from wreathz.compression import (
    EQUIVARIANT_CROSSOVER,
    UPPER_REFERENCE,
    _random_word,
    audit_injectivity_gap,
    audit_lipschitz,
)
from wreathz import embeddings
from wreathz.embeddings import identity_distance_squared, lamp_displacement
from wreathz.trees import TreeSide, base_vertex, dist, vertex_of
from wreathz.wreath import WreathElement

from conftest import embedded_distance

Z2 = cyclic(2)
COCYCLE = TreeMode.cocycle()


def reference_random_word(spec, rng, length):
    """The per-step sampler the bulk draw must reproduce: one
    `rng.randrange(moves)` per move, applied to a lamp dictionary."""
    lamp_values = spec.generator_values()
    moves = len(lamp_values) + 2
    lamps: dict[int, int] = {}
    n = 0
    for _ in range(length):
        g = rng.randrange(moves)
        if g == 0:
            n += 1
        elif g == 1:
            n -= 1
        else:
            v = spec.mul(lamps.get(n, 0), lamp_values[g - 2])
            if v:
                lamps[n] = v
            else:
                del lamps[n]
    return WreathElement(spec, tuple(sorted(lamps.items())), n)


def reference_distance_squared(x, tree_mode):
    """|sigma(x)|^2 from the tree distances to the base vertices: d+ + d- in
    cocycle mode, else each tree's weights float(k) ** (2 eps), k = 1..d,
    added one at a time, the plain sequential sum."""
    ds = [dist(vertex_of(x, side), base_vertex(x.spec, side)) for side in (TreeSide.PLUS, TreeSide.MINUS)]
    if tree_mode.kind == "cocycle":
        total = sum(ds)
    else:
        e2 = 2.0 * float(tree_mode.eps)
        sides = []
        for d in ds:
            side = 0
            for k in range(1, d + 1):
                side += float(k) ** e2
            sides.append(side)
        total = sides[0] + sides[1]
    return total + sum(lamp_displacement(x.spec, v) ** 2 for _, v in x.lamps)


def reference_sample_pairs(spec, tree_mode, scale, count, seed):
    out = []
    for i in range(count):
        rng = random.Random(f"{seed}/{i}")
        y = reference_random_word(spec, rng, rng.randrange(scale + 1))
        dist = math.sqrt(reference_distance_squared(y, tree_mode))
        out.append(DistortionSample(y.word_length(), dist, str(tree_mode), lamp_mode(spec)))
    return out


class CountingRandom(random.Random):
    """Random that counts its bulk draws (getrandbits wider than one word)."""

    bulk_draws = 0

    def getrandbits(self, k):
        if k > 32:
            self.bulk_draws += 1
        return super().getrandbits(k)


SAMPLER_GROUPS = (Z2, cyclic(3), INTEGERS)  # 3, 4 and 4 moves


GUKA_QUARTER = TreeMode.guka(Fraction(1, 4))


@pytest.mark.parametrize(
    "spec, tree_mode",
    [pytest.param(spec, COCYCLE, id=f"{spec}-{lamp_mode(spec)}") for spec in SAMPLER_GROUPS]
    + [
        pytest.param(spec, tree_mode, id=f"{spec}-{tree_mode}-{lamp_mode(spec)}")
        for spec, tree_mode in (
            (INTEGERS, GUKA_QUARTER),
            (Z2, TreeMode.guka(Fraction(2, 5))),
            (INTEGERS, TreeMode.guka(Fraction(1, 2))),
        )
    ],
)
@pytest.mark.parametrize("scale", [0, 1, 3, 1000])
def test_sample_pairs_equal_per_step_reference(spec, tree_mode, scale):
    got = sample_pairs(spec, tree_mode, lamp_mode(spec), scale, 1000, 977)
    assert got == reference_sample_pairs(spec, tree_mode, scale, 1000, 977)


def test_guka_distance_past_the_first_weight_table(monkeypatch):
    # a fresh table: the first call sizes it, the second must grow it
    monkeypatch.setattr(embeddings, "_WEIGHT_SUMS", {})
    near = WreathElement(INTEGERS, ((0, 1),), 3)
    far = WreathElement(INTEGERS, ((-40, 2), (700, -1)), -90)
    for tree_mode in (GUKA_QUARTER, TreeMode.guka(Fraction(1, 2))):
        for x in (near, far, near):
            assert identity_distance_squared(x, tree_mode) == reference_distance_squared(x, tree_mode)
    # entry 0 is the int 0, as the old empty float sum was
    assert type(identity_distance_squared(WreathElement.identity(INTEGERS), GUKA_QUARTER)) is int


@pytest.mark.parametrize("spec", [*SAMPLER_GROUPS, cyclic(4), cyclic(5)], ids=str)
def test_random_word_equals_reference_across_refills(spec):
    assert _random_word(spec, CountingRandom(1), 0) == WreathElement.identity(spec)
    refilled = 0
    for i in range(150):
        length = 900 + i
        rng, ref_rng = CountingRandom(f"w/{i}"), random.Random(f"w/{i}")
        assert _random_word(spec, rng, length) == reference_random_word(spec, ref_rng, length)
        refilled += rng.bulk_draws > 1
    # the first bulk draw falls short often enough that the refill path runs
    assert refilled >= 10


class ConstantRandom(random.Random):
    """Random whose every 32-bit output is `word`, so every move a walk
    draws is the one `word`'s top bits decode to."""

    def __init__(self, word):
        super().__init__(0)
        self.word = word

    def getrandbits(self, k):
        words = -(-k // 32)
        return int.from_bytes(self.word.to_bytes(4, "little") * words, "little") >> (32 * words - k)


@pytest.mark.parametrize("word, shift", [(0x40000000, -1000), (0x00000000, 1000)])
def test_one_sided_walk_leaves_the_signed_byte_range(word, shift):
    # three moves keep the top two bits: 01 is move 1 (left), 00 move 0 (right);
    # the signed bytes hold steps, the positions pass -128 and 127
    assert ConstantRandom(word).randrange(3) == (shift < 0)
    assert _random_word(Z2, ConstantRandom(word), 1000) == WreathElement(Z2, (), shift)
    assert reference_random_word(Z2, ConstantRandom(word), 1000) == WreathElement(Z2, (), shift)


@pytest.mark.parametrize(
    "spec", [pytest.param(spec, id=f"{spec}-{lamp_mode(spec)}") for spec in (*SAMPLER_GROUPS, cyclic(5))]
)
def test_squared_distance_bounds_word_length_exactly(spec):
    # ||sigma(x)||^2 >= |x| in every mode, compared before any square root:
    # an exact int in cocycle mode, a float against an int in guka mode
    guka = [TreeMode.guka(Fraction(e)) for e in ("1/4", "2/5", "1/2")]
    for i in range(300):
        rng = random.Random(f"audit/{i}")
        x = _random_word(spec, rng, rng.randrange(401))
        wl = x.word_length()
        exact = identity_distance_squared(x, COCYCLE)
        assert type(exact) is int and exact >= wl
        for tree_mode in guka:
            assert identity_distance_squared(x, tree_mode) >= wl


def test_single_zero_length_sample():
    samples = sample_pairs(Z2, COCYCLE, lamp_mode(Z2), 0, 1, 5)
    assert samples == [DistortionSample(0, 0.0, "cocycle", "dirac-simplex")]


def test_sampling_is_deterministic():
    a = sample_pairs(Z2, COCYCLE, lamp_mode(Z2), 120, 500, 17)
    b = sample_pairs(Z2, COCYCLE, lamp_mode(Z2), 120, 500, 17)
    assert a == b
    c = sample_pairs(Z2, COCYCLE, lamp_mode(Z2), 120, 500, 18)
    assert a != c


def test_samples_zero_iff_identity():
    for s in sample_pairs(Z2, COCYCLE, lamp_mode(Z2), 60, 800, 23):
        assert (s.word_length == 0) == (s.embedded_dist == 0.0)


def test_sample_distances_match_vector_route():
    samples = sample_pairs(Z2, COCYCLE, lamp_mode(Z2), 12, 40, 3)
    # rebuild the words with the same seeds and compare against the full vectors
    e = WreathElement.identity(Z2)
    for i, s in enumerate(samples):
        rng = random.Random(f"3/{i}")
        y = _random_word(Z2, rng, rng.randrange(13))
        assert y.word_length() == s.word_length
        assert embedded_distance(y, e, COCYCLE) == pytest.approx(
            s.embedded_dist, rel=1e-9, abs=1e-9
        )


def test_audits_pass_on_seeded_runs():
    for spec in (Z2, INTEGERS):
        samples = sample_pairs(spec, COCYCLE, lamp_mode(spec), 150, 2000, 41)
        assert audit_lipschitz(samples, spec, COCYCLE, lamp_mode(spec)) == []
        assert audit_injectivity_gap(samples, spec, COCYCLE, lamp_mode(spec)) == []


def test_count_validation():
    with pytest.raises(ValueError):
        sample_pairs(Z2, COCYCLE, lamp_mode(Z2), 10, 0, 1)
    with pytest.raises(ValueError, match="scale must be >= 0"):
        sample_pairs(Z2, COCYCLE, lamp_mode(Z2), -1, 5, 1)


def fake(wl, d):
    return DistortionSample(wl, d, "cocycle", lamp_mode(Z2))


def test_fit_exact_square_root_law():
    samples = [fake(wl, math.sqrt(wl)) for wl in range(1, 400)]
    fit = fit_envelope(samples)
    assert fit.exponent == pytest.approx(0.5, abs=1e-9)
    assert fit.lower_constant == pytest.approx(1.0, rel=1e-9)
    assert fit.length_range == (1, 399)


def test_fit_uses_lower_envelope():
    # a noisy cloud above an exact power law must not drag the fit upward
    samples = []
    for wl in range(1, 300):
        samples.append(fake(wl, math.sqrt(wl)))
        samples.append(fake(wl, 10 * wl))
    fit = fit_envelope(samples)
    assert fit.exponent == pytest.approx(0.5, abs=1e-9)


def test_fit_exponent_is_clamped():
    steep = [fake(wl, wl**3 / 1000) for wl in range(1, 100)]
    assert fit_envelope(steep).exponent == 1.0
    shrinking = [fake(wl, 1 / wl) for wl in range(1, 100)]
    assert fit_envelope(shrinking).exponent == 0.0


def test_fit_geometric_buckets():
    samples = [fake(wl, math.sqrt(wl)) for wl in range(1, 1000)]
    fit = fit_envelope(samples, buckets=12)
    assert fit.exponent == pytest.approx(0.5, abs=0.01)
    assert "12 geometric bins" in fit.method


def test_fit_rejects_degenerate_input():
    with pytest.raises(ValueError, match="degenerate"):
        fit_envelope([fake(7, 2.0), fake(7, 3.0)])
    with pytest.raises(ValueError, match="no nonzero"):
        fit_envelope([fake(0, 0.0)])
    with pytest.raises(ValueError, match="buckets must be >= 0"):
        fit_envelope([fake(wl, math.sqrt(wl)) for wl in range(1, 50)], buckets=-2)


def test_spine_samples_give_exponent_half():
    # pure shifts: tree distance n on both sides, embedded distance sqrt(2n)
    samples = [fake(n, math.sqrt(2 * n)) for n in range(1, 200)]
    assert fit_envelope(samples).exponent == pytest.approx(0.5, abs=1e-9)


def test_bounds_examples():
    assert bounds(1).non_equivariant_lower == Fraction(1, 2)
    assert bounds(1).upper_reference == Fraction(3, 4)
    assert bounds(Fraction(1, 2)).equivariant_lower == Fraction(1, 4)
    b0 = bounds(0)
    assert b0.non_equivariant_lower == 0 and b0.equivariant_lower == 0


def test_bounds_validation():
    with pytest.raises(ValueError):
        bounds(Fraction(5, 4))
    with pytest.raises(ValueError):
        bounds(-1)


def test_bounds_monotone_on_grid():
    prev = bounds(0)
    for i in range(1, 101):
        b = bounds(Fraction(i, 100))
        assert b.non_equivariant_lower >= prev.non_equivariant_lower
        assert b.equivariant_lower >= prev.equivariant_lower
        prev = b


def test_equivariant_crossover():
    assert EQUIVARIANT_CROSSOVER == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-15)
    # exact branch comparison flips precisely at the crossover
    for i in range(0, 101):
        t = Fraction(i, 100)
        takes_linear = t - Fraction(1, 2) >= t / (2 * t + 1)
        assert takes_linear == (float(t) >= EQUIVARIANT_CROSSOVER - 1e-12)
    assert UPPER_REFERENCE == Fraction(3, 4)


def test_bounds_in_unit_interval():
    for i in range(0, 101):
        b = bounds(Fraction(i, 100))
        assert 0 <= b.non_equivariant_lower <= 1
        assert 0 <= b.equivariant_lower <= 1
        assert b.non_equivariant_lower <= b.base_compression or b.base_compression == 0
