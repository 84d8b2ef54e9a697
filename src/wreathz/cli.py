"""Command-line interface: lengths, tree distances, embeddings, oracle scans
and the invariant suites.

Exit codes: 0 success, 1 verification failure, 2 parse or usage error
(with a caret under the offending literal position), 3 oracle element
budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from fractions import Fraction

from .basegroups import ParseError, parse_group
from .compression import bounds, fit_envelope, lower_envelope, sample_pairs
from .embeddings import TreeMode, lamp_mode, sigma
from .oracles import BudgetError, ball_sizes, cayley_bfs, properness_check
from .trees import TreeSide, dist_from_base, format_vertex, vertex_of
from .vectors import format_value
from .verifyconfig import VerifyConfig
from .wreath import parse_element


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathz",
        description="Exact computation in wreath products H wr Z: word lengths, "
        "tree distances, Hilbert-space embeddings, oracles and distortion scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(p):
        p.add_argument("--group", required=True, help="base group literal: Z or Z/k")

    p = sub.add_parser("length", help="word length of an element")
    add_group(p)
    p.add_argument("element", help="element literal, e.g. '(1@-1,1@1;0)' or '(;5)'")

    p = sub.add_parser("tree-dist", help="tree distance from the base vertex")
    add_group(p)
    p.add_argument("--side", required=True, choices=[s.value for s in TreeSide])
    p.add_argument("--show-vertex", action="store_true", help="also print the coset form")
    p.add_argument("element")

    p = sub.add_parser("embed", help="dump the embedded vector of an element")
    add_group(p)
    p.add_argument("--tree-mode", default="cocycle", help="cocycle or guka:EPS")
    p.add_argument("element")

    p = sub.add_parser("ball", help="cumulative Cayley ball sizes")
    add_group(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", default="csv", choices=("csv", "text"))

    p = sub.add_parser("properness", help="exact orbit count in the product space")
    add_group(p)
    p.add_argument("--radius", required=True, help="metric radius (integer or fraction)")
    p.add_argument("--p", type=int, default=1, help="product metric exponent")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", default="text", choices=("text", "csv"))

    p = sub.add_parser("compress", help="distortion sampling and envelope fit")
    add_group(p)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scale", type=int, default=1000)
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--tree-mode", default="cocycle", help="cocycle or guka:EPS")
    p.add_argument("--buckets", type=int, default=0)
    p.add_argument("--emit", default="fit", choices=("fit", "samples", "envelope"))

    p = sub.add_parser("bounds", help="compression bound calculator")
    p.add_argument("base_compression", help="base-group compression in [0,1], e.g. 1 or 1/2")

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--suite", action="append", help="run only the named suite (repeatable)")
    # one option per VerifyConfig field, named by its metadata; an omitted
    # count takes its default when the suites run
    for f in fields(VerifyConfig):
        flag = f.metadata["flag"]
        p.add_argument(flag, type=int, dest=f.name, metavar=flag[2:].upper().replace("-", "_"))

    return parser


def _fraction(text: str, what: str) -> Fraction:
    """Fraction(text), naming the argument when its denominator is zero."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {what} {text!r}") from None


def _cmd_length(args) -> int:
    spec = parse_group(args.group)
    x = parse_element(spec, args.element)
    print(x.word_length())
    return 0


def _cmd_tree_dist(args) -> int:
    spec = parse_group(args.group)
    x = parse_element(spec, args.element)
    side = TreeSide(args.side)
    if args.show_vertex:
        print(format_vertex(vertex_of(x, side)))
    print(dist_from_base(x, side))
    return 0


def _cmd_embed(args) -> int:
    spec = parse_group(args.group)
    x = parse_element(spec, args.element)
    tree_mode = TreeMode.parse(args.tree_mode)
    vec = sigma(x, tree_mode, lamp_mode(spec))
    for line in vec.dump_lines():
        print(line)
    print(f"norm2\t{format_value(vec.norm_squared())}")
    print(f"norm\t{vec.norm():.12f}")
    return 0


def _cmd_ball(args) -> int:
    spec = parse_group(args.group)
    sizes = enumerate(ball_sizes(cayley_bfs(spec, args.radius, args.budget), args.radius))
    if args.format == "csv":
        print("radius,count")
        for r, count in sizes:
            print(f"{r},{count}")
    else:
        for r, count in sizes:
            print(f"radius {r}: {count} elements")
    return 0


def _cmd_properness(args) -> int:
    spec = parse_group(args.group)
    radius = _fraction(args.radius, "radius")
    report = properness_check(spec, radius, args.p, budget=args.budget)
    if args.format == "csv":
        print("key,value")
        for line in report.lines():
            print(line.replace("=", ",", 1))
    else:
        for line in report.lines():
            print(line)
    return 0


def _cmd_compress(args) -> int:
    # checked before sampling, which `--emit samples` never buckets
    if args.buckets < 0:
        raise ValueError(f"buckets must be >= 0, got {args.buckets}")
    spec = parse_group(args.group)
    tree_mode = TreeMode.parse(args.tree_mode)
    samples = sample_pairs(spec, tree_mode, lamp_mode(spec), args.scale, args.count, args.seed)
    if args.emit == "samples":
        print("wordLength,embeddedDist")
        for s in samples:
            print(f"{s.word_length},{s.embedded_dist:.12f}")
        return 0
    if args.emit == "envelope":
        print("bucket,minDist")
        for wl, d in lower_envelope(samples, args.buckets):
            print(f"{wl},{d:.12f}")
        return 0
    fit = fit_envelope(samples, args.buckets)
    print(f"exponent={fit.exponent:.12f}")
    print(f"lower_constant={fit.lower_constant:.12f}")
    print(f"samples={fit.sample_count}")
    print(f"length_min={fit.length_range[0]}")
    print(f"length_max={fit.length_range[1]}")
    print(f"method={fit.method}")
    return 0


def _cmd_bounds(args) -> int:
    b = bounds(_fraction(args.base_compression, "base compression"))
    print(f"base_compression={b.base_compression}")
    print(f"non_equivariant_lower={b.non_equivariant_lower}")
    print(f"equivariant_lower={b.equivariant_lower}")
    print(f"upper_reference={b.upper_reference}")
    print(f"crossover={b.crossover:.12f}")
    return 0


def _cmd_verify(args) -> int:
    # imported here: the suites' module is the slowest import, and only verify needs it
    from .verify import run_suites

    given = {f.name: getattr(args, f.name) for f in fields(VerifyConfig)}
    cfg = VerifyConfig(**{name: value for name, value in given.items() if value is not None})
    passed = failed = 0
    for name, ok, detail in run_suites(cfg, args.suite):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if ok:
            passed += 1
        else:
            failed += 1
    print(f"passed {passed}/{passed + failed} suites")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "length": _cmd_length,
    "tree-dist": _cmd_tree_dist,
    "embed": _cmd_embed,
    "ball": _cmd_ball,
    "properness": _cmd_properness,
    "compress": _cmd_compress,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as err:
        print(f"parse error: {err.caret_message()}", file=sys.stderr)
        return 2
    except BudgetError as err:
        print(f"budget error: {err}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
