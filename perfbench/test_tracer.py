"""Tests for the benchmark's tracer, digests and tail percentile."""

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run
from perfbench.tracer import LAYERS, Tracer, wreathz_modules
from perfbench.workloads import ExactEmbed, Sampler, TreeOracle, load_lab


def snapshot() -> dict:
    """Every name bound in every wreathz module and in every class they define."""
    snap = {}
    for name, mod in wreathz_modules().items():
        snap[name] = dict(vars(mod))
        for attr, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == name:
                snap[f"{name}:{attr}"] = dict(vars(obj))
    return snap


def one_traced_round(workload, tracer):
    tracer.install()
    try:
        return run.run_rounds(workload, lambda rounds, wall: rounds >= 1, tracer)
    finally:
        tracer.uninstall()


def test_uninstall_restores_every_wrapped_name():
    lab = load_lab()
    before = snapshot()
    dist, mul = lab.trees.dist, lab.wreath.WreathElement.__dict__["__mul__"]
    tracer = Tracer()
    tracer.install()
    try:
        # Installed: a name imported into another module is the same wrapper.
        assert lab.trees.dist is not dist
        assert lab.embeddings.dist is lab.trees.dist
        assert lab.wreath.WreathElement.__dict__["__mul__"] is not mul
    finally:
        tracer.uninstall()
    phase = one_traced_round(ExactEmbed(lab, 3), tracer)
    assert phase.failed == 0 and tracer.stats["wreath.WreathElement.__mul__"].calls > 0
    after = snapshot()
    assert before.keys() == after.keys()
    for key, names in before.items():
        assert names.keys() == after[key].keys(), key
        changed = [n for n, obj in names.items() if after[key][n] is not obj]
        assert not changed, (key, changed)


def test_self_time_within_inclusive_and_traced_wall():
    spans = []
    tracer = Tracer(spans)
    phase = one_traced_round(ExactEmbed(load_lab(), 4), tracer)
    assert spans
    nested = 0
    for key, inclusive, own in spans:
        assert 0.0 <= own <= inclusive, key
        nested += own < inclusive
    assert nested, "exact-embed spans should have children"
    metrics = tracer.metrics(phase.raw_wall)
    assert sum(metrics[f"{layer}.self_s"] for layer in LAYERS) <= phase.raw_wall
    assert sum(metrics[f"{layer}.self_share"] for layer in LAYERS) <= 1.0


@pytest.mark.parametrize("workload_cls", [Sampler, TreeOracle, ExactEmbed])
def test_traced_and_untraced_runs_give_identical_digests(workload_cls):
    workload = workload_cls(load_lab(), 7)
    traced = one_traced_round(workload, Tracer())
    plain = run.run_rounds(workload, lambda rounds, wall: rounds >= 1)
    assert traced.failed == plain.failed == 0
    assert run.digest(workload, traced) == run.digest(workload, plain)


@pytest.mark.parametrize(
    "count, percentile", [(19, 50.0), (20, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)]
)
def test_tail_is_highest_percentile_with_ten_ops_beyond(count, percentile):
    latencies = [float(i) for i in range(count)]
    q, value = run.tail(latencies)
    assert q == percentile
    if count >= 20:
        assert sum(x > value for x in latencies) >= run.TAIL_BEYOND


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ball", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
