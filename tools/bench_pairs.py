"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 6101 6102 ... --out BENCH_<n>.json

For each seed, `perfbench/run.py --workload NAME --seed S --seconds T
--trace 0` runs once in each checkout; the side that runs first alternates
from pair to pair, so drift of the host's speed does not favour one side.
Each checkout runs its own `perfbench/run.py` and `src/`.

The output file holds, per workload: every run's metrics, output digest and
op counts, and per end-to-end metric each side's median and quartiles, the
number of pairs the change wins (ties count for neither side) and the
median's relative change against the metric's bound in BENCHMARK.json.
Every entry names each side's code: its commit, a sha256 of its `src/*.py`
files and their line count, so a PR's net `src/` lines come from the file.
Running the script again with another workload adds that workload to the
same file; running it with a workload already there replaces that entry.

    python3 tools/bench_pairs.py --parent DIR --change DIR --name NAME \
        --command "SHELL COMMAND" --pairs 5 --out BENCH_<n>.json

times one shell command instead, run from the root of each checkout, in
the same alternating pairs. Its entry under the `commands` key holds every
run's wall time, peak RSS (of the command and its children), exit code and
last output line, and for wall time and peak RSS each side's median and
quartiles, the change's wins and the median's relative change.
Every run, of either mode, gets PYTHONDONTWRITEBYTECODE=1 and a
PYTHONPYCACHEPREFIX naming a new empty directory, so no `__pycache__` in
either checkout is read and both sides compile every module from source
alike; each entry records the first under `env` and the second, whose
value is a temporary path, in words under `env_note`.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def src_record(checkout: Path) -> dict:
    """sha256 over the paths and bytes of the checkout's `src/*.py` files,
    naming the code a run measured independently of any commit, and their
    total line count (newlines, as `wc -l` counts them)."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted((checkout / "src").rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(checkout)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": h.hexdigest(), "src_lines": lines}


# The environment every run gets (see the module docstring), besides a
# PYTHONPYCACHEPREFIX that `main` sets to a new empty directory.
RUN_ENV = {"PYTHONDONTWRITEBYTECODE": "1"}
ENV_NOTE = "PYTHONPYCACHEPREFIX named a new empty directory for each invocation"


def git_head(checkout: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One untraced benchmark run; its last two stdout lines are the run
    record and the result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {cmd} in {checkout} failed ({proc.returncode}):\n{proc.stderr}")
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "output_digest": record["output_digest"],
        "tail_percentile": record["tail_percentile"],
    }


def time_command(checkout: Path, command: str, env: dict) -> dict:
    """One run of a shell command from the checkout's root: wall time, peak
    RSS of the command and its children, exit code and last output line."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(command, shell=True, cwd=checkout, stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
    return {
        "metrics": {"wall_s": seconds, "peak_rss_mb": usage.ru_maxrss / 1024},
        "returncode": proc.returncode,
        "last_line": lines[-1] if lines else "",
    }


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the change's wins and the relative
    change of the median (positive = worse) against the metric's bound."""
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(parent, change))
        losses = sum((c < b) if higher else (c > b) for b, c in zip(parent, change))
        ps, cs = summarize(parent), summarize(change)
        worse = (ps["median"] - cs["median"]) if higher else (cs["median"] - ps["median"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": ps,
            "change": cs,
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(pairs),
            "median_gap": abs(cs["median"] - ps["median"]),
            "relative_worsening": worse / ps["median"] if ps["median"] else None,
        }
    return out


# The command mode's metrics, in the shape of BENCHMARK.json's end_to_end
# entries; a command has no bound of its own.
COMMAND_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": None},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": None},
]


def run_pairs(
    sides: dict, key: str, labels: list, run, out: Path, doc: dict, entry: dict, metrics: list[dict]
) -> None:
    """Run `run(checkout, label)` once per side for each label, recorded
    under `key`, alternating which side goes first; rewrite `out` after
    every pair, so an interrupted set keeps its runs."""
    pairs = entry["pairs"] = []
    for i, label in enumerate(labels):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {key: label, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], label)
        pairs.append(pair)
        print(f"{key} {label} ({order[0]} first): " + ", ".join(
            f"{name} {pair['parent']['metrics'][name]:.4g} -> {pair['change']['metrics'][name]:.4g}"
            for name in pair["parent"]["metrics"]
        ), flush=True)
        entry["summary"] = compare(pairs, metrics)
        if "output_digest" in pair["parent"]:
            pair["same_digest"] = pair["parent"]["output_digest"] == pair["change"]["output_digest"]
            entry["failed_ops"] = {side: sum(pr[side]["failed"] for pr in pairs) for side in sides}
            entry["digests_identical"] = all(pr["same_digest"] for pr in pairs)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in entry["summary"].items():
        print(
            f"{name}: median {s['parent']['median']:.4g} [{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]"
            f" -> {s['change']['median']:.4g} [{s['change']['q1']:.4g}, {s['change']['q3']:.4g}],"
            f" change wins {s['change_wins']}/{s['pairs']}"
        )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--change", required=True, type=Path, help="checkout of the change")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="benchmark workload to run")
    mode.add_argument("--command", help="shell command to time instead")
    p.add_argument("--seeds", type=int, nargs="+", help="one pair per seed (--workload)")
    p.add_argument("--name", help="entry name under `commands` (--command)")
    p.add_argument("--pairs", type=int, help="number of pairs (--command)")
    p.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write or extend")
    args = p.parse_args(argv)
    if args.workload and not args.seeds:
        p.error("--workload needs --seeds")
    if args.command and not (args.name and args.pairs and args.pairs >= 1):
        p.error("--command needs --name and --pairs >= 1")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-pycache-") as cache:
        return measure(p, args, {**os.environ, **RUN_ENV, "PYTHONPYCACHEPREFIX": cache})


def measure(p: argparse.ArgumentParser, args: argparse.Namespace, env: dict) -> int:
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            p.error(f"--{side} {checkout} has no perfbench/run.py")
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {"workloads": {}}
    checkouts = {
        side: {"git_head": git_head(checkout), **src_record(checkout)}
        for side, checkout in sides.items()
    }

    if args.command:
        entry = doc.setdefault("commands", {})[args.name] = {
            "command": args.command, "sides": checkouts, "env": RUN_ENV, "env_note": ENV_NOTE,
        }
        run_pairs(sides, "run", list(range(1, args.pairs + 1)), lambda checkout, _: time_command(checkout, args.command, env),
                  args.out, doc, entry, COMMAND_METRICS)
        return 0
    entry = doc["workloads"][args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S --seconds {seconds} --trace 0",
        "sides": checkouts,
        "env": RUN_ENV,
        "env_note": ENV_NOTE,
    }
    run_pairs(sides, "seed", args.seeds, lambda checkout, seed: run_once(checkout, args.workload, seed, seconds, env),
              args.out, doc, entry, bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
