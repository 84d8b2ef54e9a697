"""Distortion sampling, lower-envelope exponent fits, and bound calculators.

The empirical side measures how the assembled embedding distorts word
lengths: one endpoint is pinned at the identity, the other is a seeded
random generator word whose exact length comes from the closed formula.
Compression is a worst-pair notion, so the exponent estimate regresses the
log-log *lower envelope* (minimum embedded distance per length bucket)
rather than the cloud.

The analytic side evaluates the exact lower-bound formulas for the
compression of the wreath product in terms of the base group's compression,
together with the 3/4 upper reference for integer shifts.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, repeat
from operator import mod
from typing import Sequence

from .basegroups import GroupSpec
from .embeddings import (
    TreeMode,
    identity_distance_squared,
    lamp_mode,
    lipschitz_constants,
    validate_h_mode,
)
from .wreath import WreathElement


@dataclass(frozen=True)
class DistortionSample:
    """One (exact word length, embedded distance) measurement."""

    word_length: int
    embedded_dist: float
    tree_mode: str
    h_mode: str


@lru_cache(maxsize=None)
def _move_tables(moves: int) -> tuple[bytes, bytes]:
    """`bytes.translate` arguments turning the top byte of a 32-bit MT19937
    output into a `randrange(moves)` attempt: the table keeps the top
    k = moves.bit_length() bits, and the delete set lists the bytes whose
    top k bits are >= moves, which `randrange` rejects and redraws.  Needs
    k <= 8; a GroupSpec has at most four moves."""
    k = moves.bit_length()
    table = bytes(b >> (8 - k) for b in range(256))
    return table, bytes(b for b in range(256) if table[b] >= moves)


@lru_cache(maxsize=None)
def _move_mask(move: int) -> bytes:
    """`bytes.translate` table sending `move` to 1 and every other byte to 0."""
    return bytes(b == move for b in range(256))


# `bytes.translate` table of each move's step as a signed byte: 0 steps right
# (1), 1 steps left (0xFF, i.e. -1), lamp moves stay (0)
_SHIFT_STEP = bytes((1, 0xFF)) + bytes(254)


def _draw_moves(rng: random.Random, moves: int, length: int) -> bytes:
    """The next `length` values `rng.randrange(moves)` would return, drawn in
    bulk.  Each `randrange` attempt consumes one 32-bit output, so the top
    bytes of `getrandbits(32 * m)` (little-endian words, oldest first) are
    m consecutive attempts; rejected attempts are deleted in order.  The
    generator ends up past the last accepted move (overdrawn), so callers
    must not draw from it afterwards."""
    table, reject = _move_tables(moves)
    # an attempt is accepted with probability moves / 2**k; the 16 spare
    # attempts keep refills uncommon without drawing much more than needed
    per_move = (1 << moves.bit_length()) / moves
    drawn = b""
    while len(drawn) < length:
        m = int((length - len(drawn)) * per_move) + 16
        drawn += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(table, reject)
    return drawn[:length]


def _random_word(spec: GroupSpec, rng: random.Random, length: int) -> WreathElement:
    """The product of `length` uniform generator moves drawn from `rng`.

    Move j is the j-th value `rng.randrange(moves)` would return: 0 shifts
    right, 1 shifts left, and 2 + i multiplies the lamp at the current
    position by `spec.generator_values()[i]`.  The moves are drawn in bulk,
    which leaves `rng` overdrawn.  The walk relies on H being abelian and on
    the generator values being 1 and -1 (mod k): a lamp's final value is then
    its position's count of move 2 minus its count of move 3.
    """
    lamp_values = spec.generator_values()
    moves = _draw_moves(rng, len(lamp_values) + 2, length)
    # positions[j] is the lamplighter's position before move j; the signed
    # bytes are steps, the ints accumulated from them may leave [-128, 127]
    positions = list(accumulate(memoryview(moves.translate(_SHIFT_STEP)).cast("b"), initial=0))
    tally = Counter(compress(positions, moves.translate(_move_mask(2))))
    if len(lamp_values) == 2:
        tally.subtract(Counter(compress(positions, moves.translate(_move_mask(3)))))
    # counts are values on Z already; on Z/k one C-level `mod` per lamp
    # normalizes them without a `spec.normalize` call each
    values = tally.values()
    if spec.order:
        values = map(mod, values, repeat(spec.order))
    # a list, not a generator: tuple() of a generator resizes its result,
    # and in a long run such tuples pile up on CPython's tuple free lists
    lamps = [(pos, v) for pos, v in zip(tally, values) if v]
    lamps.sort()
    return WreathElement(spec, tuple(lamps), positions[-1])


def sample_pairs(
    spec: GroupSpec,
    tree_mode: TreeMode,
    h_mode: str,
    scale: int,
    count: int,
    seed: int,
) -> list[DistortionSample]:
    """Measure `count` seeded samples against the identity.

    Each sample draws a generator word of uniform length in [0, scale],
    recomputes its exact word length from the closed formula, and takes the
    embedded distance through the component norms.  Per-index string seeding
    keeps the output bit-identical for a fixed seed regardless of evaluation
    order.

    Stream contract: sample i seeds `random.Random(f"{seed}/{i}")`, draws
    its length with `randrange(scale + 1)`, and its word's moves are the
    values `randrange(moves)` would return next from that generator.  The
    bulk draw reproduces exactly that stream, so sample lists match those of
    the earlier one-`randrange`-per-step sampler.
    """
    validate_h_mode(spec, h_mode)
    if count < 1:
        raise ValueError("need at least one sample")
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    out = []
    tm, hm = str(tree_mode), lamp_mode(spec)
    for i in range(count):
        rng = random.Random(f"{seed}/{i}")
        y = _random_word(spec, rng, rng.randrange(scale + 1))
        dist = math.sqrt(identity_distance_squared(y, tree_mode))
        out.append(DistortionSample(y.word_length(), dist, tm, hm))
    return out


def audit_lipschitz(
    samples: Sequence[DistortionSample], spec: GroupSpec, tree_mode: TreeMode, h_mode: str
) -> list[DistortionSample]:
    """Samples violating the upper line dist <= (C+ + C- + C) * word length."""
    validate_h_mode(spec, h_mode)
    c = sum(lipschitz_constants(spec, tree_mode))
    return [s for s in samples if s.embedded_dist > c * s.word_length]


def audit_injectivity_gap(
    samples: Sequence[DistortionSample], spec: GroupSpec, tree_mode: TreeMode, h_mode: str
) -> list[DistortionSample]:
    """Samples violating the uniform separation of distinct elements: in every
    mode, a non-identity element lands at least 1 from the identity.  It moves
    a lamp, by a `lamp_displacement` >= 1, or its nonzero shift moves both
    base vertices, and distinct vertices of either tree embed at least 1
    apart (the edge next to the farther one keeps an uncancelled charge)."""
    validate_h_mode(spec, h_mode)
    return [s for s in samples if s.word_length >= 1 and s.embedded_dist < 1]


@dataclass(frozen=True)
class EnvelopeFit:
    """Log-log least-squares fit through the lower envelope."""

    exponent: float
    lower_constant: float
    sample_count: int
    length_range: tuple[int, int]
    method: str


def _usable(samples: Sequence[DistortionSample]) -> list[DistortionSample]:
    """The samples a log-log fit can use: positive length and distance."""
    usable = [s for s in samples if s.word_length >= 1 and s.embedded_dist > 0]
    if not usable:
        raise ValueError("no nonzero samples to fit")
    return usable


def lower_envelope(samples: Sequence[DistortionSample], buckets: int = 0) -> list[tuple[int, float]]:
    """The (word length, distance) of the minimal usable sample in each
    bucket, sorted by length.

    With buckets == 0 every distinct word length is its own bucket;
    otherwise lengths are merged into that many geometric bins, each
    represented by the length of its minimal sample.
    """
    if buckets < 0:
        raise ValueError(f"buckets must be >= 0, got {buckets}")
    usable = _usable(samples)
    max_len = max(s.word_length for s in usable)
    envelope: dict[int, tuple[float, int]] = {}
    for s in usable:
        if buckets > 0:
            key = min(
                buckets - 1,
                int(buckets * math.log(s.word_length) / math.log(max_len + 1)),
            )
        else:
            key = s.word_length
        cand = (s.embedded_dist, s.word_length)
        if key not in envelope or cand < envelope[key]:
            envelope[key] = cand
    return sorted({(wl, d) for d, wl in envelope.values()})


def fit_envelope(samples: Sequence[DistortionSample], buckets: int = 0) -> EnvelopeFit:
    """Fit dist ~ D * length^alpha through the `lower_envelope` points.

    The exponent is the least-squares slope in log-log coordinates, clamped
    to [0, 1].
    """
    points = lower_envelope(samples, buckets)
    lengths = [s.word_length for s in _usable(samples)]
    xs = [math.log(wl) for wl, _ in points]
    ys = [math.log(d) for _, d in points]
    if len(points) < 2 or max(xs) == min(xs):
        raise ValueError(f"degenerate envelope: {len(points)} usable bucket(s)")
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    alpha = min(1.0, max(0.0, slope))
    lower = math.exp(ybar - slope * xbar)
    method = "log-log least squares on the lower envelope, " + (
        f"{buckets} geometric bins" if buckets > 0 else "one bucket per length"
    )
    return EnvelopeFit(
        exponent=alpha,
        lower_constant=lower,
        sample_count=len(lengths),
        length_range=(min(lengths), max(lengths)),
        method=method,
    )


UPPER_REFERENCE = Fraction(3, 4)
EQUIVARIANT_CROSSOVER = (1 + math.sqrt(5)) / 4


@dataclass(frozen=True)
class BoundSet:
    """Derived compression bounds for the wreath product, from the base
    group's compression exponent."""

    base_compression: Fraction
    non_equivariant_lower: Fraction
    equivariant_lower: Fraction
    upper_reference: Fraction
    crossover: float


def bounds(r_h) -> BoundSet:
    """Exact bound formulas: t/(t+1) for the plain compression and
    max(t - 1/2, t/(2t+1)) for the equivariant one; the two equivariant
    branches trade places exactly at (1 + sqrt 5)/4."""
    t = Fraction(r_h)
    if not 0 <= t <= 1:
        raise ValueError(f"compression exponents live in [0, 1], got {t}")
    return BoundSet(
        base_compression=t,
        non_equivariant_lower=t / (t + 1),
        equivariant_lower=max(t - Fraction(1, 2), t / (2 * t + 1)),
        upper_reference=UPPER_REFERENCE,
        crossover=EQUIVARIANT_CROSSOVER,
    )
