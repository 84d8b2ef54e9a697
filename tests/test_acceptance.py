"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Every criterion but the two sampling ones is a call into the `wreathz verify`
suite that owns its invariant, so each invariant has one implementation.
Suite j seeds its RNG with `cfg.seed + j`; each criterion passes the config
seed that reproduces its own random stream, `Random(SEED + k)`. The audit
and envelope criteria share one 10^5-sample run (`distortion_run`).
"""

import time

from wreathz import TreeMode, cyclic, fit_envelope, lamp_mode
from wreathz.compression import audit_injectivity_gap, audit_lipschitz
from wreathz.verify import (
    ENVELOPE_EXPONENT_FLOOR,
    VerifyConfig,
    check_bound_calculator,
    check_cocycle_identities,
    check_equivariance,
    check_length_sandwich,
    check_properness,
    check_tree_distances,
    check_travel_table,
    check_word_length_oracle,
)

Z2 = cyclic(2)
COCYCLE = TreeMode.cocycle()
SEED = 424242


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def gate(num: int, suite, seed: int = SEED):
    report(num, *suite(VerifyConfig(seed=seed)))


def test_criterion_01_word_length_formula_vs_bfs():
    start = time.perf_counter()
    ok, detail = check_word_length_oracle(VerifyConfig(seed=SEED))
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 120, f"{detail} in {elapsed:.1f}s (target < 120s)")


def test_criterion_02_tree_distance_triple_agreement():
    # Random(SEED) draws the 10^4 Z-lamp elements; the suite's element loop
    # also runs the travel sandwich and the all-regions check.
    gate(2, check_tree_distances, SEED - 2)


def test_criterion_03_travel_table_and_sandwich():
    # Random(SEED + 3) draws the 8 x 20 (n, m, M) triples.
    gate(3, check_travel_table, SEED + 2)


def test_criterion_04_word_length_sandwich():
    gate(4, check_length_sandwich)


def test_criterion_05_cocycle_identities():
    # Random(SEED + 5) draws the vertex triples.
    gate(5, check_cocycle_identities, SEED + 1)


def test_criterion_06_equivariance():
    # Random(SEED + 6) draws g, h and the probe element.
    gate(6, check_equivariance, SEED + 1)


def test_criterion_07_properness_counts():
    gate(7, check_properness)


def test_criterion_08_lipschitz_and_gap_audits(distortion_run):
    samples = distortion_run.samples
    lip = audit_lipschitz(samples, Z2, COCYCLE, lamp_mode(Z2))
    gap = audit_injectivity_gap(samples, Z2, COCYCLE, lamp_mode(Z2))
    report(
        8,
        not lip and not gap,
        f"{len(samples)} seeded samples at scale 1000: "
        f"{len(lip)} Lipschitz violations, {len(gap)} separation violations",
    )


def test_criterion_09_bound_calculator():
    gate(9, check_bound_calculator)


def test_criterion_10_envelope_guard(distortion_run):
    start = time.perf_counter()
    fit = fit_envelope(distortion_run.samples)
    elapsed = distortion_run.seconds + (time.perf_counter() - start)
    ok = fit.exponent >= ENVELOPE_EXPONENT_FLOOR and elapsed < 300
    report(
        10,
        ok,
        f"lower-envelope exponent {fit.exponent:.4f} >= {ENVELOPE_EXPONENT_FLOOR} on "
        f"{fit.sample_count} nonzero samples, lengths {fit.length_range}; "
        f"pipeline {elapsed:.1f}s (target < 300s)",
    )
