"""Byte-for-byte gate on embedding output.

`golden_text()` renders `wreathz embed` for 28 seeded literals over Z/2,
Z/3, Z/5 and Z, each in the cocycle tree mode and in guka:1/4 or guka:1/2
(taking turns), followed by the `dump_lines()` of seeded cocycles, composed
`affine_alpha` maps and `gamma_action_on_sum(g, sigma(x))`.  The test compares it with
tests/golden/embed.txt.  Only when an output change is intended, regenerate
the file with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import random
from pathlib import Path

from wreathz import (
    INTEGERS,
    TreeMode,
    TreeSide,
    WreathElement,
    affine_alpha,
    base_vertex,
    cocycle,
    cyclic,
    format_element,
    format_vertex,
    gamma_action_on_sum,
    iota,
    lamp_mode,
    parse_group,
    sigma,
    vertex_of,
)
from wreathz.cli import main

GOLDEN = Path(__file__).parent / "golden" / "embed.txt"
EMBED_GROUPS = ("Z/2", "Z/3", "Z/5", "Z")
WEIGHTED_MODES = ("guka:1/4", "guka:1/2")
VECTOR_GROUPS = (cyclic(2), cyclic(3), INTEGERS)


def _small_element(spec, rng):
    """Positions -2..2 each lit with probability 0.4 by a value of word
    length at most 2, shift in -3..3; the draws the golden file was made from."""
    values = [v for v in spec.ball(2) if v]
    lamps = tuple((pos, rng.choice(values)) for pos in range(-2, 3) if rng.random() < 0.4)
    return WreathElement(spec, lamps, rng.randint(-3, 3))


def _embed_lines() -> list[str]:
    lines = []
    for group in EMBED_GROUPS:
        rng = random.Random(f"golden-embed-{group}")
        for i in range(7):
            literal = format_element(_small_element(parse_group(group), rng))
            for mode in ("cocycle", WEIGHTED_MODES[i % 2]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["embed", "--group", group, "--tree-mode", mode, literal])
                lines.append(f"## embed --group {group} --tree-mode {mode} {literal} -> {code}")
                lines.extend(out.getvalue().splitlines())
    return lines


def _vector_lines() -> list[str]:
    lines = []
    cocycle_mode = TreeMode.cocycle()
    for spec in VECTOR_GROUPS:
        h_mode = lamp_mode(spec)
        rng = random.Random(f"golden-vectors-{spec}")
        for side in TreeSide:
            base = base_vertex(spec, side)
            for _ in range(2):
                x, y = (vertex_of(_small_element(spec, rng), side) for _ in range(2))
                lines.append(f"## cocycle {format_vertex(x)} -> {format_vertex(y)}")
                lines.extend(cocycle(x, y).dump_lines())
                g, h, p = (_small_element(spec, rng) for _ in range(3))
                composed = affine_alpha(g, base).compose(affine_alpha(h, base))
                names = f"{format_element(g)} {format_element(h)}"
                lines.append(f"## affine_alpha {side} {spec} {names} translation")
                lines.extend(composed.translation.dump_lines())
                lines.append(f"## affine_alpha {side} {spec} {names} on iota {format_element(p)}")
                lines.extend(composed(iota(vertex_of(p, side), base)).dump_lines())
        for _ in range(3):
            g, x = (_small_element(spec, rng) for _ in range(2))
            moved = gamma_action_on_sum(g, sigma(x, cocycle_mode, h_mode), h_mode)
            lines.append(f"## gamma_action_on_sum {spec} {h_mode} {format_element(g)} {format_element(x)}")
            lines.extend(moved.dump_lines())
    return lines


def golden_text() -> str:
    return "\n".join(_embed_lines() + _vector_lines()) + "\n"


def test_embedding_output_matches_golden_file():
    assert golden_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
