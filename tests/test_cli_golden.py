"""Byte-for-byte gate on the CLI: exit codes, stdout and stderr.

`corpus_text()` replays every command of `commands()` through `cli.main`:
`properness` in text and csv on Z/2, Z/3, Z/7 and Z over a grid of radii
and exponents, `compress` in all three emits under both tree modes, `ball`,
`length`, `tree-dist`, `bounds`, fast `verify` suites, and the usage
(exit 2) and budget (exit 3) errors.  Each command renders as its `$ `
line, its `exit` line, its stdout lines after `1| ` and its stderr lines
after `2| `.  The test compares the text with tests/golden/cli.txt.  Only
when an output change is intended, regenerate the file with
`PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import os
import shlex
from pathlib import Path

from wreathz.cli import main
from wreathz.oracles import BUDGET_ENV_VAR

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
GROUPS = ("Z/2", "Z/3", "Z/7", "Z")
ELEMENTS = ("(;0)", "(;5)", "(1@1;0)", "(1@-1,1@1;0)", "(1@-2,1@2;-1)")


def commands() -> list[list[str]]:
    cmds = []
    for group in GROUPS:
        for radius in ("0", "1", "2", "5/2", "3"):
            for p in ("1", "2", "3"):
                for fmt in ("text", "csv"):
                    cmds.append(["properness", "--group", group, "--radius", radius, "--p", p, "--format", fmt])
    for group in ("Z/2", "Z/3", "Z"):
        for tree_mode in ("cocycle", "guka:1/4"):
            base = ["compress", "--group", group, "--tree-mode", tree_mode, "--scale", "40", "--seed", "7"]
            cmds.append([*base, "--count", "60", "--emit", "fit"])
            cmds.append([*base, "--count", "8", "--emit", "samples"])
            cmds.append([*base, "--count", "60", "--emit", "envelope", "--buckets", "4"])
    for group in ("Z/2", "Z/3", "Z"):
        for radius in ("0", "1", "6"):
            cmds.append(["ball", "--group", group, "--radius", radius])
        cmds.append(["ball", "--group", group, "--radius", "3", "--format", "text"])
        for element in ELEMENTS:
            cmds.append(["length", "--group", group, element])
            cmds.append(["tree-dist", "--group", group, "--side", "plus", element])
            cmds.append(["tree-dist", "--group", group, "--side", "minus", "--show-vertex", element])
    for value in ("0", "1/3", "1/2", "3/4", "1"):
        cmds.append(["bounds", value])
    fast = {"--triples": "20", "--tree-checks": "20", "--samples": "300", "--scale": "60"}
    suites = ("base-groups", "travel-table", "equivariance", "weighted-embedding", "sigma-audits", "properness")
    for suite in suites:
        cmds.append(["verify", "--suite", suite, *(s for kv in fast.items() for s in kv)])
    cmds += [
        # usage errors: exit 2
        ["length", "--group", "Z/2", "(1@;0)"],
        ["length", "--group", "Q", "(;0)"],
        ["tree-dist", "--group", "Z/2", "--side", "plus", "(1@0;"],
        ["embed", "--group", "Z/2", "--tree-mode", "guka:3/4", "(;1)"],
        ["embed", "--group", "Z/2", "--tree-mode", "fourier", "(;1)"],
        ["ball", "--group", "Z/2", "--radius", "-1"],
        ["ball", "--group", "Z/2", "--radius", "2", "--budget", "0"],
        ["properness", "--group", "Z/2", "--radius", "-1"],
        ["properness", "--group", "Z/2", "--radius", "1", "--p", "0"],
        ["properness", "--group", "Z/2", "--radius", "1/0"],
        ["properness", "--group", "Z/2", "--radius", "abc"],
        ["compress", "--group", "Z/2", "--count", "0"],
        ["compress", "--group", "Z/2", "--count", "5", "--scale", "-1"],
        ["compress", "--group", "Z/2", "--count", "5", "--buckets", "-1"],
        ["compress", "--group", "Z/2", "--count", "1", "--scale", "0"],
        ["bounds", "1/0"],
        ["bounds", "2"],
        ["bounds", "x"],
        ["verify", "--suite", "no-such-suite"],
        ["verify", "--suite", "base-groups", "--triples", "0"],
        # budget errors: exit 3
        ["ball", "--group", "Z/2", "--radius", "9", "--budget", "50"],
        ["ball", "--group", "Z", "--radius", "4", "--budget", "100"],
        ["properness", "--group", "Z/2", "--radius", "10", "--budget", "508"],
        ["properness", "--group", "Z", "--radius", "3", "--p", "2", "--budget", "40"],
    ]
    return cmds


def _output_lines(prefix: str, text: str) -> list[str]:
    lines = [prefix + line for line in text.splitlines()]
    if text and not text.endswith("\n"):
        lines.append(prefix + "\\ no newline at end")
    return lines


def corpus_text() -> str:
    lines = []
    for argv in commands():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines += [f"$ {shlex.join(argv)}", f"exit {code}"]
        lines += _output_lines("1| ", out.getvalue()) + _output_lines("2| ", err.getvalue())
    return "\n".join(lines) + "\n"


def test_cli_output_matches_golden_corpus(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert corpus_text().splitlines() == GOLDEN.read_text().splitlines()


if __name__ == "__main__":
    os.environ.pop(BUDGET_ENV_VAR, None)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(corpus_text())
