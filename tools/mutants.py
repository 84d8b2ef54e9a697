"""Re-run the recorded mutation checks: every listed mutant must be killed.

    python3 tools/mutants.py

Each entry names a file under the repository root, an exact text in it, the
text that replaces it and the tests that must catch the change.  For each
mutant the script copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory, applies the replacement there (an old text that is
missing or not unique is an error, so an entry cannot go stale unnoticed),
runs the selected tests with pytest and expects them to fail.  Before any
mutant, the union of all selections runs once on an unmutated copy and must
pass, so a test that fails anyway cannot count as a kill.

Prints one line per mutant (`killed`, `SURVIVED` or `ERROR`); exits 0 when
every mutant is killed, 1 when one survives, 2 on a stale entry, a test
selection that collects nothing or a failing unmutated tree.  Standard
library only; not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_ACT_TEST = ("tests/test_trees.py::test_act_matches_coset_composition",)
_SPLICE_TESTS = (*_ACT_TEST, "tests/test_wreath.py::test_of_and_product_match_a_per_position_reference")
_SAMPLER_REFERENCE = "tests/test_compression.py::test_sample_pairs_equal_per_step_reference"
_CAYLEY_REFERENCE = "tests/test_oracles.py::test_bfs_equals_reference_expansion"
_PROPERNESS_COUNTS = "tests/test_oracles.py::test_properness_counts_frozen"
_PROPERNESS_FILTER = "tests/test_oracles.py::test_integer_filter_matches_fraction_filter"
_CLI_CORPUS = ("tests/test_cli_golden.py::test_cli_output_matches_golden_corpus",)

MUTANTS = (
    Mutant(
        "act-plus-filter-includes-level",
        "src/wreathz/trees.py",
        "lamps[: bisect_left(lamps, (level,))]",
        "lamps[: bisect_left(lamps, (level + 1,))]",
        _ACT_TEST,
    ),
    Mutant(
        "act-minus-slice-includes-level",
        "src/wreathz/trees.py",
        "lamps[bisect_left(lamps, (level + 1,)) :]",
        "lamps[bisect_left(lamps, (level,)) :]",
        _ACT_TEST,
    ),
    Mutant(
        "meet-level-ignores-longer-tail",
        "src/wreathz/trees.py",
        "        return min(k, b[len(a)][0]) if len(b) > len(a) else k\n",
        "        return k\n",
        ("tests/test_trees.py::test_meet_level_equals_the_dict_formula",),
    ),
    Mutant(
        "vector-build-keeps-zero-values",
        "src/wreathz/vectors.py",
        "if len(acc) != len(entries) or not all(acc.values()):",
        "if len(acc) != len(entries):",
        ("tests/test_vectors.py::test_vector_build_equals_the_accumulated_entries",),
    ),
    Mutant(
        "vertex-minus-tail-check-off-by-one",
        "src/wreathz/trees.py",
        "tail[0][0] <= level",
        "tail[0][0] < level",
        ("tests/test_trees.py::test_vertex_tail_side_constraint",),
    ),
    Mutant(
        "vertex-hash-drops-tail",
        "src/wreathz/trees.py",
        "_set_hash(self, hash((level, tail)))",
        "_set_hash(self, hash((level, tail[:1])))",
        ("tests/test_trees.py::test_slotted_vertex_and_edges_are_frozen_and_structural",),
    ),
    Mutant(
        "act-keeps-identity-values",
        "src/wreathz/wreath.py",
        "        if v:\n            acc[q] = v\n        else:\n            acc.pop(q, None)\n",
        "        acc[q] = v\n",
        _SPLICE_TESTS,
    ),
    Mutant(
        "act-tail-not-shifted",
        "src/wreathz/wreath.py",
        "        q = pos + shift\n",
        "        q = pos\n",
        _SPLICE_TESTS,
    ),
    Mutant(
        "canonical-lamps-skips-modulus",
        "src/wreathz/wreath.py",
        "            v %= order\n",
        "            pass\n",
        _SPLICE_TESTS,
    ),
    Mutant(
        "cocycle-down-charge-flipped-on-minus",
        "src/wreathz/embeddings.py",
        "    items = [(w, -s) for w in down]\n",
        "    items = [(w, -1) for w in down]\n",
        (
            "tests/test_embeddings.py::test_cocycle_identities_random",
            "tests/test_embeddings.py::test_cocycle_equals_the_per_step_reference",
        ),
    ),
    Mutant(
        "descent-minus-drops-tail-entry-late",
        "src/wreathz/trees.py",
        "            if i < end and tail[i][0] == level:\n",
        "            if i < end and tail[i][0] == level - 1:\n",
        (
            "tests/test_trees.py::test_descent_iterates_spine_step",
            "tests/test_embeddings.py::test_cocycle_equals_the_per_step_reference",
        ),
    ),
    Mutant(
        "geodesic-meet-keeps-unrestricted-tail",
        "src/wreathz/trees.py",
        "TreeVertex(u.spec, u.side, k, _restrict(u.tail, u.side, k))",
        "TreeVertex(u.spec, u.side, k, u.tail)",
        ("tests/test_trees.py::test_geodesic_halves_are_the_outer_ends_of_its_edges",),
    ),
    Mutant(
        "descent-keeps-the-vertex-at-the-target",
        "src/wreathz/trees.py",
        "    if v.level == target_level:\n        return []\n",
        "",
        ("tests/test_trees.py::test_descent_iterates_spine_step",),
    ),
    Mutant(
        "in-place-translation-keeps-zero-sum",
        "src/wreathz/vectors.py",
        "    _accumulate(vec._entries, entries)\n",
        "    acc = vec._entries\n    acc.update([(key, acc.get(key, 0) + value) for key, value in entries])\n",
        (
            "tests/test_embeddings.py::test_alpha_is_homomorphism_and_invertible",
            "tests/test_embeddings.py::test_generators_act_exactly_on_whole_balls",
        ),
    ),
    Mutant(
        "weighted-halves-not-reversed",
        "src/wreathz/embeddings.py",
        "enumerate(down + up[::-1], 1)",
        "enumerate(down + up, 1)",
        (
            "tests/test_embeddings.py::test_weighted_embed_equals_the_per_step_reference",
            "tests/test_golden.py::test_embedding_output_matches_golden_file",
        ),
    ),
    Mutant(
        "geom-edge-swaps-outer-and-inner",
        "src/wreathz/vectors.py",
        "            return GeomEdge(outer)\n",
        "            return GeomEdge(inner)\n",
        (
            "tests/test_vectors.py::test_geometric_edge_uses_standard_convention",
            "tests/test_trees.py::test_geodesic_halves_are_the_outer_ends_of_its_edges",
        ),
    ),
    Mutant(
        "sampler-left-step-byte",
        "src/wreathz/compression.py",
        "_SHIFT_STEP = bytes((1, 0xFF))",
        "_SHIFT_STEP = bytes((1, 0xFE))",
        ("tests/test_compression.py::test_one_sided_walk_leaves_the_signed_byte_range", _SAMPLER_REFERENCE),
    ),
    Mutant(
        "sampler-tally-without-subtract",
        "src/wreathz/compression.py",
        "        tally.subtract(Counter(compress(positions, moves.translate(_move_mask(3)))))\n",
        "        pass\n",
        ("tests/test_compression.py::test_random_word_equals_reference_across_refills", _SAMPLER_REFERENCE),
    ),
    Mutant(
        "lamp-simplex-scale-halved",
        "src/wreathz/embeddings.py",
        "spec.diameter / math.sqrt(2)",
        "spec.diameter / 2",
        # the expected lamp blocks are written from their definition, so
        # they do not move with `_lamp_items`
        ("tests/test_embeddings.py::test_sigma_equals_the_sum_of_its_components",),
    ),
    Mutant(
        "weights-read-at-d-minus-1",
        "src/wreathz/embeddings.py",
        "        total = sums[dp]\n        total += sums[dm]\n",
        "        total = sums[dp - 1]\n        total += sums[dm - 1]\n",
        ("tests/test_compression.py::test_guka_distance_past_the_first_weight_table", _SAMPLER_REFERENCE),
    ),
    Mutant(
        "weights-never-regrown",
        "src/wreathz/embeddings.py",
        "        while len(sums) <= max(dp, dm):\n",
        "        while len(sums) <= dp:\n",
        ("tests/test_compression.py::test_guka_distance_past_the_first_weight_table", _SAMPLER_REFERENCE),
    ),
    Mutant(
        "cayley-cursor-off-by-one",
        "src/wreathz/oracles.py",
        "                n = m - r\n",
        "                n = m - r + 1\n",
        (_CAYLEY_REFERENCE,),
    ),
    Mutant(
        "cayley-splice-keeps-old-lamp",
        "src/wreathz/oracles.py",
        "rest = lamps[i + 1 :] if d else lamps[i:]",
        "rest = lamps[i:]",
        (_CAYLEY_REFERENCE,),
    ),
    Mutant(
        "cayley-zig-folds-negative-positions",
        "src/wreathz/oracles.py",
        "2 * n if n >= 0 else -2 * n - 1",
        "2 * n if n >= 0 else -2 * n",
        (_CAYLEY_REFERENCE,),
    ),
    Mutant(
        "cayley-z-top-digit-read-negative",
        "src/wreathz/oracles.py",
        "e if e <= top else e - base",
        "e if e < top else e - base",
        (_CAYLEY_REFERENCE,),
    ),
    Mutant(
        "ball-iteration-shift-plus-one",
        "src/wreathz/oracles.py",
        "repeat(width)), repeat(self._radius))",
        "repeat(width)), repeat(self._radius - 1))",
        ("tests/test_oracles.py::test_ball_views_agree_in_discovery_order", _CAYLEY_REFERENCE),
    ),
    Mutant(
        "ball-sizes-one-radius-short",
        "src/wreathz/oracles.py",
        "range(lengths._radius + 1)",
        "range(lengths._radius)",
        (
            "tests/test_oracles.py::test_ball_sizes",
            "tests/test_oracles.py::test_ball_sizes_keep_the_radius_filter_in_order",
        ),
    ),
    Mutant(
        "properness-filter-strict",
        "src/wreathz/oracles.py",
        "members = {x for x in candidates if _distance_pth(x, p, costs) <= limit}",
        "members = {x for x in candidates if _distance_pth(x, p, costs) < limit}",
        (_PROPERNESS_COUNTS, _PROPERNESS_FILTER),
    ),
    Mutant(
        "search-radius-one-lamp-position-short",
        "src/wreathz/oracles.py",
        "rows[dp + dm + 1][budget - dp**p - dm**p]",
        "rows[dp + dm][budget - dp**p - dm**p]",
        # the scan radius still has slack over the members' word lengths, so
        # the cross-checks pass under this; the reference and the pins do not
        (
            "tests/test_oracles.py::test_search_radius_equals_the_per_pair_knapsack",
            "tests/test_oracles.py::test_search_radius_counts_only_the_lamps_a_support_can_hold",
        ),
    ),
    Mutant(
        "properness-prune-top-lamp-one-step-further",
        "src/wreathz/oracles.py",
        "max(0, q) ** p",
        "max(0, q + 1) ** p",
        (_PROPERNESS_COUNTS, _PROPERNESS_FILTER),
    ),
    Mutant(
        "properness-prune-ignores-low-support",
        "src/wreathz/oracles.py",
        "max(0, -lo) ** p",
        "0",
        # an under-pruning search finds the same members; only the stored count shows it
        ("tests/test_oracles.py::test_properness_budget_is_a_hard_cap",),
    ),
    Mutant(
        "element-parser-takes-any-digit",
        "src/wreathz/wreath.py",
        'while "0" <= self.peek() <= "9":',
        "while self.peek().isdigit():",
        (
            "tests/test_wreath.py::test_parse_errors_carry_position",
            "tests/test_wreath.py::test_parsers_raise_only_parse_errors",
        ),
    ),
    Mutant(
        "group-parser-takes-any-digit",
        "src/wreathz/basegroups.py",
        "if not (digits.isascii() and digits.isdigit()):",
        "if not digits.isdigit():",
        (
            "tests/test_basegroups.py::test_parse_group",
            "tests/test_wreath.py::test_parsers_raise_only_parse_errors",
        ),
    ),
    Mutant(
        "audit-lipschitz-skips-mode-check",
        "src/wreathz/compression.py",
        "    validate_h_mode(spec, h_mode)\n    c = sum(lipschitz_constants(spec, tree_mode))\n",
        "    c = sum(lipschitz_constants(spec, tree_mode))\n",
        ("tests/test_embeddings.py::test_mode_entry_points_reject_a_mode_the_group_does_not_take",),
    ),
    Mutant(
        "fraction-malformed-literal-unnamed",
        "src/wreathz/cli.py",
        '    except ValueError:\n        raise ValueError(f"invalid {what} {text!r}") from None\n',
        "",
        _CLI_CORPUS,
    ),
    Mutant(
        "properness-report-candidates-plus-one",
        "src/wreathz/oracles.py",
        'f"candidates={self.candidate_count}"',
        'f"candidates={self.candidate_count + 1}"',
        _CLI_CORPUS,
    ),
    Mutant(
        "properness-report-label-always-simplex",
        "src/wreathz/oracles.py",
        "PropernessReport(str(spec), radius, p, lamp_mode(spec),",
        'PropernessReport(str(spec), radius, p, "dirac-simplex",',
        _CLI_CORPUS,
    ),
)


def copy_tree(dest: Path):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def apply(root: Path, mutant: Mutant):
    path = root / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        print(f"mutants: {mutant.name}: old text found {found} times in {mutant.path}, expected once", file=sys.stderr)
        raise SystemExit(2)
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tests(root: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="wreathz-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        clean.mkdir()
        copy_tree(clean)
        selection = sorted({t for m in MUTANTS for t in m.tests})
        code = run_tests(clean, selection)
        if code != 0:
            print(f"mutants: the unmutated tree fails its selections (pytest exit {code})", file=sys.stderr)
            return 2
        survived = errors = 0
        for i, mutant in enumerate(MUTANTS):
            root = Path(tmp) / f"m{i}"
            root.mkdir()
            copy_tree(root)
            apply(root, mutant)
            start = time.perf_counter()
            code = run_tests(root, mutant.tests)
            seconds = time.perf_counter() - start
            # pytest exits 1 when a test failed; 0 means every test passed,
            # anything else (no tests collected, usage error) is a bad entry
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            survived += code == 0
            errors += code not in (0, 1)
            print(f"{status:<8} {mutant.name} ({seconds:.1f}s)", flush=True)
            shutil.rmtree(root)
    print(f"{len(MUTANTS) - survived - errors}/{len(MUTANTS)} mutants killed")
    return 1 if survived else 2 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
