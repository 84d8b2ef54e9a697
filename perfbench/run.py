"""Closed-loop benchmark of the wreathz lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.  One
process, one caller: an op starts only when the previous one has finished.

--trace 0 runs the workload's rounds until S seconds of round time have
passed and reports the end-to-end metrics.  --trace 1 runs a fixed number
of rounds (about S seconds' worth on the reference machine) with every layer
wrapped by the tracer, then the same rounds again untraced, and reports the
per-layer metrics.  Timings are scaled to a reference interpreter speed that
a calibration kernel measures between stretches of ops (see NOTES.md); the
raw figures go to the record.  Every op checks its own result; a mismatch or
an exception counts as a failed op and the run goes on.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it is a JSON run record (machine, seed, op
counts, digest).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# On a shared host the interpreter's speed drifts by tens of percent from
# minute to minute, so every timing is scaled to the reference speed at which
# calibration_kernel takes CALIBRATION_REF_S: its median on the reference
# machine in NOTES.md.  The kernel runs before and after each stretch of
# about CALIBRATE_EVERY_S of ops; raw wall-clock figures go to the run record.
CALIBRATION_REF_S = 0.0035
CALIBRATE_EVERY_S = 0.25
# Tail percentile: the highest of these with at least TAIL_BEYOND ops above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
MAX_REPORTED_ERRORS = 5


def calibration_kernel() -> int:
    """Fixed pure-Python integer loop, independent of wreathz."""
    total = 0
    for i in range(40_000):
        total += i * i
    return total


def calibrate() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two kernel readings to the
    reference speed."""
    return CALIBRATION_REF_S / ((before + after) / 2)


@dataclass
class Phase:
    """What one pass over a run of rounds produced.  `latencies` and `wall`
    are at the reference speed; `raw_latencies` and `raw_wall` are
    wall-clock."""

    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    raw_wall: float = 0.0
    kinds: Counter = field(default_factory=Counter)
    failed: int = 0
    rounds: int = 0
    first_round: list = field(default_factory=list)  # (kind, ok, output) of round 0
    errors: list[str] = field(default_factory=list)


def run_op(kind, fn, phase: Phase, keep: list | None) -> float:
    """Run one op and record its check; returns its wall-clock latency."""
    start = time.perf_counter()
    try:
        ok, output = fn()
    except Exception:  # an op that raises is a failed op, not a failed run
        ok, output = False, None
        if len(phase.errors) < MAX_REPORTED_ERRORS:
            phase.errors.append(traceback.format_exc())
    elapsed = time.perf_counter() - start
    phase.kinds[kind] += 1
    if not ok:
        phase.failed += 1
        if output is not None and len(phase.errors) < MAX_REPORTED_ERRORS:
            phase.errors.append(f"{kind}: check failed")
    if keep is not None:
        keep.append((kind, ok, output))
    return elapsed


def run_ops(ops, phase: Phase, keep: list | None):
    """Run ops back to back in stretches of about CALIBRATE_EVERY_S, each
    bracketed by calibration readings."""
    before = calibrate()
    pending: list[float] = []
    start = time.perf_counter()
    for i, (kind, fn) in enumerate(ops):
        pending.append(run_op(kind, fn, phase, keep))
        wall = time.perf_counter() - start
        if wall >= CALIBRATE_EVERY_S or i == len(ops) - 1:
            after = calibrate()
            scale = speed_scale(before, after)
            phase.raw_latencies += pending
            phase.latencies += [x * scale for x in pending]
            phase.raw_wall += wall
            phase.wall += wall * scale
            before, pending = after, []
            start = time.perf_counter()


def run_rounds(workload, done, tracer=None) -> Phase:
    """Rounds 0, 1, ... until done(rounds, wall-clock seconds).  A round's
    inputs are built before its clock starts; only the ops are timed and
    traced."""
    phase = Phase()
    while True:
        ops = workload.round(phase.rounds)
        keep = phase.first_round if phase.rounds == 0 else None
        if tracer is not None:
            tracer.recording = True
        run_ops(ops, phase, keep)
        if tracer is not None:
            tracer.recording = False
        phase.rounds += 1
        if done(phase.rounds, phase.raw_wall):
            return phase


def digest(workload, phase: Phase) -> str:
    """sha256 over round 0's canonical outputs, identical in every run of a seed."""
    h = hashlib.sha256()
    for kind, ok, output in phase.first_round:
        text = workload.canon(kind, output) if ok else "FAILED"
        h.update(f"{kind}\t{text}\n".encode())
    return h.hexdigest()


def fresh_lab():
    """Import wreathz from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "wreathz" or n.startswith("wreathz.")]:
        del sys.modules[name]
    from perfbench.workloads import load_lab

    lab = load_lab()
    where = Path(importlib.import_module("wreathz").__file__).resolve().parent
    if where != SRC / "wreathz":
        raise SystemExit(f"perfbench: imported wreathz from {where}, expected {SRC / 'wreathz'}")
    return lab


def set_up(workload_cls, seed: int):
    """Import, build the inputs and run the warm-up ops; repeated so that the
    reported set-up time is a median.  The last repetition's workload runs."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        lab = fresh_lab()
        workload = workload_cls(lab, seed)
        warm = Phase()
        for kind, fn in workload.warmup():
            run_op(kind, fn, warm, None)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * speed_scale(before, calibrate()))
    return workload, times, raw, warm


def nearest_rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile q among n values, in integer
    arithmetic (0.999 * 10000 is not exactly 9990 in floating point)."""
    return -(-round(q * 10) * n // 1000)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND ops beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = nearest_rank(q, n)
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return 50.0, ordered[nearest_rank(50.0, n) - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def declared_units(key: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def report(metrics: dict[str, float], key: str) -> dict:
    units = declared_units(key)
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args, WORKLOADS[args.workload]


def main(argv=None) -> int:
    if not (SRC / "wreathz" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} is not a wreathz checkout (need src/wreathz and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    # A budget left in the shell would change what the oracles are allowed to do.
    os.environ.pop("WREATHZ_ELEMENT_BUDGET", None)
    args, workload_cls = parse_args(argv)

    workload, setup_times, raw_setup_times, warm = set_up(workload_cls, args.seed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, **machine()}
    failed_checks = warm.failed
    errors = list(warm.errors)

    if args.trace:
        from perfbench.tracer import Tracer

        rounds = max(1, round(args.seconds / workload.traced_round_s))
        tracer = Tracer()
        tracer.install()
        try:
            phase = run_rounds(workload, lambda r, wall: r >= rounds, tracer)
        finally:
            tracer.uninstall()
        replay = run_rounds(workload, lambda r, wall: r >= rounds)
        traced_digest, untraced_digest = digest(workload, phase), digest(workload, replay)
        layer_metrics = tracer.metrics(phase.raw_wall, phase.wall / phase.raw_wall, phase.wall / replay.wall)
        metrics = report(layer_metrics, "per_layer")
        failed_checks += replay.failed + (traced_digest != untraced_digest)
        errors += replay.errors
        record.update(
            rounds=phase.rounds,
            traced_wall_s=phase.wall,
            untraced_wall_s=replay.wall,
            raw_traced_wall_s=phase.raw_wall,
            raw_untraced_wall_s=replay.raw_wall,
            output_digest=traced_digest,
            untraced_digest=untraced_digest,
        )
    else:
        phase = run_rounds(workload, lambda r, wall: wall >= args.seconds)
        q, tail_value = tail(phase.latencies)
        metrics = report(
            {
                "throughput_ops_s": len(phase.latencies) / phase.wall,
                "op_p50_ms": 1e3 * statistics.median(phase.latencies),
                "op_tail_ms": 1e3 * tail_value,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            },
            "end_to_end",
        )
        _, raw_tail = tail(phase.raw_latencies)
        record.update(
            rounds=phase.rounds,
            wall_s=phase.wall,
            tail_percentile=q,
            tail_ops_beyond=len(phase.latencies) - nearest_rank(q, len(phase.latencies)),
            setup_s_each=setup_times,
            raw_wall_s=phase.raw_wall,
            raw_throughput_ops_s=len(phase.raw_latencies) / phase.raw_wall,
            raw_op_p50_ms=1e3 * statistics.median(phase.raw_latencies),
            raw_op_tail_ms=1e3 * raw_tail,
            raw_setup_s=statistics.median(raw_setup_times),
            output_digest=digest(workload, phase),
        )

    attempted = len(phase.latencies)
    record.update(
        ops=attempted,
        ops_by_kind=dict(sorted(phase.kinds.items())),
        failed=phase.failed,
        error_rate=phase.failed / attempted,
    )
    for text in errors + phase.errors:
        print(text, file=sys.stderr)
    print(json.dumps({"record": record}))
    result = {
        "correct": phase.failed == 0 and failed_checks == 0,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
