import os
import subprocess
import sys
from pathlib import Path

import pytest

import wreathz
from wreathz import TreeMode, cyclic, lamp_mode, parse_element, sample_pairs, verify
from wreathz.cli import main
from wreathz.compression import lower_envelope


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_package_all_names_resolve_once():
    # a stale entry would break only `from wreathz import *`
    assert len(set(wreathz.__all__)) == len(wreathz.__all__)
    assert [name for name in wreathz.__all__ if not hasattr(wreathz, name)] == []


def test_length_examples(capsys):
    code, out, _ = run(capsys, "length", "--group", "Z/2", "(;5)")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "length", "--group", "Z/2", "(1@1;0)")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run(capsys, "length", "--group", "Z/2", "(1@-1,1@1;0)")
    assert code == 0 and out.strip() == "6"


def test_tree_dist_example(capsys):
    code, out, _ = run(capsys, "tree-dist", "--group", "Z/2", "--side", "plus", "(1@-1;0)")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(
        capsys, "tree-dist", "--group", "Z/2", "--side", "minus", "--show-vertex", "(1@1;-1)"
    )
    assert code == 0
    assert out.splitlines() == ["T- [-1 | 1@1]", "3"]


def test_parse_error_gives_caret_and_exit_2(capsys):
    code, _, err = run(capsys, "length", "--group", "Z/2", "(1@;0)")
    assert code == 2
    assert "parse error" in err and "^" in err
    code, _, err = run(capsys, "length", "--group", "Q", "(;0)")
    assert code == 2


def test_budget_error_gives_exit_3(capsys):
    code, _, err = run(capsys, "ball", "--group", "Z/2", "--radius", "9", "--budget", "50")
    assert code == 3
    assert "budget" in err
    argv = ("properness", "--group", "Z/2", "--radius", "10", "--budget")
    code, out, err = run(capsys, *argv, "508")
    assert code == 3 and out == ""
    assert err.startswith("budget error: properness search") and "(509 > 508)" in err
    code, out, _ = run(capsys, *argv, "509")
    assert code == 0 and "count=297" in out.splitlines()


def test_bad_oracle_inputs_are_usage_errors(capsys, monkeypatch):
    for argv in (
        ("ball", "--group", "Z/2", "--radius", "-3"),
        ("ball", "--group", "Z/2", "--radius", "3", "--budget", "-1"),
        ("properness", "--group", "Z/2", "--radius", "2", "--budget", "-1"),
        ("properness", "--group", "Z/2", "--radius", "2", "--budget", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and ">= " in err
    monkeypatch.setenv("WREATHZ_ELEMENT_BUDGET", "-1")
    code, _, err = run(capsys, "ball", "--group", "Z/2", "--radius", "3")
    assert code == 2 and "budget must be >= 1" in err


def test_bad_sampler_inputs_are_usage_errors(capsys, monkeypatch):
    base = ["compress", "--group", "Z/2", "--count", "50", "--scale"]
    code, out, err = run(capsys, *base, "-1")
    assert (code, out) == (2, "")
    assert "scale must be >= 0" in err
    # a bad bucket count is rejected before any sampling, whatever is emitted
    monkeypatch.setattr("wreathz.cli.sample_pairs", lambda *args: pytest.fail("sampled before the check"))
    for emit in ("fit", "samples", "envelope"):
        code, out, err = run(capsys, *base, "40", "--buckets", "-2", "--emit", emit)
        assert (code, out) == (2, "")
        assert "buckets must be >= 0" in err


def test_ball_csv(capsys):
    code, out, _ = run(capsys, "ball", "--group", "Z/2", "--radius", "3")
    assert code == 0
    assert out.splitlines() == ["radius,count", "0,1", "1,4", "2,10", "3,22"]
    code, out, _ = run(capsys, "ball", "--group", "Z/2", "--radius", "1", "--format", "text")
    assert "radius 1: 4 elements" in out


def test_embed_dump_rational_mode(capsys):
    code, out, _ = run(capsys, "embed", "--group", "Z", "(2@0;0)")
    assert code == 0
    lines = out.splitlines()
    assert lines[-2] == "norm2\t4"  # single integer lamp of size 2, exact
    assert lines[-1] == "norm\t2.000000000000"
    assert any(line.startswith("lamp 0 : 0\t2") for line in lines)


def test_embed_dump_contains_vertex_literals(capsys):
    code, out, _ = run(capsys, "embed", "--group", "Z/2", "(;1)")
    assert code == 0
    assert "oe T+ [0 | ] -> T+ [1 | ]" in out
    assert "norm2\t2" in out


def test_embed_weighted_mode(capsys):
    code, out, _ = run(
        capsys, "embed", "--group", "Z/2", "--tree-mode", "guka:1/2", "(;2)"
    )
    assert code == 0
    assert "norm2\t6.0000000000" in out  # (1 + 2) per tree
    code, _, err = run(capsys, "embed", "--group", "Z/2", "--tree-mode", "guka:2", "(;1)")
    assert code == 2


def test_properness_report(capsys):
    code, out, _ = run(
        capsys, "properness", "--group", "Z/2", "--radius", "2", "--p", "2"
    )
    assert code == 0
    assert "count=10" in out
    assert "group=Z/2" in out
    assert "value_ball={1}" in out
    code, out, _ = run(
        capsys,
        "properness", "--group", "Z/2", "--radius", "2", "--p", "1", "--format", "csv",
    )
    assert out.splitlines()[0] == "key,value"
    assert "count,4" in out


def test_properness_on_a_huge_cyclic_order(capsys):
    code, out, _ = run(capsys, "properness", "--group", "Z/1000000000", "--radius", "1")
    assert code == 0
    assert "value_ball={}" in out


def test_compress_fit_and_samples(capsys):
    args = ["compress", "--group", "Z/2", "--seed", "5", "--scale", "60", "--count", "400"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    fit = dict(line.split("=", 1) for line in out.splitlines())
    assert 0.0 <= float(fit["exponent"]) <= 1.0
    assert int(fit["samples"]) <= 400

    code, out2, _ = run(capsys, *args, "--emit", "samples")
    lines = out2.splitlines()
    assert lines[0] == "wordLength,embeddedDist" and len(lines) == 401
    code, out3, _ = run(capsys, *args)
    assert out3 == out  # deterministic under the same seed

    code, out4, _ = run(capsys, *args, "--emit", "envelope")
    assert out4.splitlines()[0] == "bucket,minDist"
    samples = sample_pairs(cyclic(2), TreeMode.cocycle(), lamp_mode(cyclic(2)), 60, 400, 5)
    points = lower_envelope(samples)
    assert out4.splitlines()[1:] == [f"{wl},{d:.12f}" for wl, d in points]


def test_compress_envelope_honours_buckets(capsys):
    args = ["compress", "--group", "Z/2", "--count", "200", "--scale", "50", "--emit", "envelope"]
    code, per_length, _ = run(capsys, *args)
    assert code == 0
    code, out, _ = run(capsys, *args, "--buckets", "3")
    assert code == 0 and out != per_length
    samples = sample_pairs(cyclic(2), TreeMode.cocycle(), lamp_mode(cyclic(2)), 50, 200, 1)
    assert out.splitlines() == ["bucket,minDist"] + [f"{wl},{d:.12f}" for wl, d in lower_envelope(samples, 3)]


def test_compress_envelope_of_one_sample(capsys):
    # the envelope needs no fit, so one usable sample prints one row
    code, out, err = run(capsys, "compress", "--group", "Z/2", "--count", "1", "--scale", "50", "--emit", "envelope")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "1/2")
    assert code == 0
    assert "equivariant_lower=1/4" in out
    assert "upper_reference=3/4" in out
    code, _, err = run(capsys, "bounds", "3/2")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "1/0"), "error: zero denominator in base compression '1/0'\n"),
        (("properness", "--group", "Z/2", "--radius", "1/0"), "error: zero denominator in radius '1/0'\n"),
        (("bounds", "x"), "error: invalid base compression 'x'\n"),
        (("properness", "--group", "Z/2", "--radius", "abc"), "error: invalid radius 'abc'\n"),
        (
            ("embed", "--group", "Z/2", "--tree-mode", "guka:1/0", "(;1)"),
            "error: bad weight exponent in tree mode 'guka:1/0'\n",
        ),
        (
            ("embed", "--group", "Z/2", "--tree-mode", "guka:abc", "(;1)"),
            "error: bad weight exponent in tree mode 'guka:abc'\n",
        ),
    ],
    ids=("bounds", "properness", "bounds-malformed", "properness-malformed", "tree-mode", "tree-mode-malformed"),
)
def test_zero_denominator_names_the_literal(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


# Every suite no acceptance criterion calls; wreath-axioms has its own test.
@pytest.mark.parametrize(
    "suite_args",
    [
        ("base-groups",),
        ("tree-action",),
        ("weighted-embedding",),
        ("determinism",),
        ("literal-roundtrip",),
        ("sigma-audits", "--samples", "2000"),
    ],
    ids=lambda suite_args: suite_args[0],
)
def test_verify_single_suite(capsys, suite_args):
    code, out, _ = run(capsys, "verify", "--suite", *suite_args)
    assert code == 0
    assert out.splitlines()[0].startswith(f"PASS {suite_args[0]}")
    assert "passed 1/1 suites" in out


def test_verify_unknown_suite_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "no-such-suite")
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--triples", "-5"),
        ("--triples", "0"),
        ("--tree-checks", "0"),
        ("--tree-checks", "-3"),
        ("--samples", "0"),
        ("--scale", "-1"),
    ],
)
def test_verify_rejects_bad_counts_before_any_suite(capsys, flag, value):
    code, out, err = run(capsys, "verify", flag, value)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"({flag}) must be >= " in err


def test_only_verify_imports_the_suites_module():
    # the parser builds the verify options from VerifyConfig, which lives apart from the suites
    code = "import sys; from wreathz.cli import main; main(['length', '--group', 'Z', '(;1)']); "
    code += "print('wreathz.verify' in sys.modules)"
    src = str(Path(wreathz.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == ["1", "False"]


@pytest.mark.parametrize(
    "flag, value, detail",
    [
        ("--samples", "1", "degenerate envelope: 1 usable bucket(s)"),
        ("--scale", "0", "no nonzero samples to fit"),
        ("--scale", "1", "degenerate envelope: 1 usable bucket(s)"),
    ],
)
def test_verify_reports_a_degenerate_fit_as_a_failed_suite(capsys, flag, value, detail):
    # too few samples to fit fails the suite; the run goes on to its summary.
    # 200 samples keep the --scale cases short; a case's own --samples comes last and wins
    code, out, err = run(
        capsys, "verify", "--suite", "base-groups", "--suite", "sigma-audits", "--samples", "200", flag, value
    )
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("PASS base-groups: ")
    assert lines[1:] == [f"FAIL sigma-audits: {detail}", "passed 1/2 suites"]


def test_verify_wreath_axioms_runs_at_least_one_round(capsys, monkeypatch):
    drawn = []

    def counting(spec, rng, *args, **kwargs):
        drawn.append(spec)
        return random_element(spec, rng, *args, **kwargs)

    random_element = verify.random_element
    monkeypatch.setattr(verify, "random_element", counting)
    code, out, _ = run(capsys, "verify", "--suite", "wreath-axioms", "--triples", "1")
    assert code == 0 and out.startswith("PASS wreath-axioms")
    assert len(drawn) == 6  # one round: a triple on each of Z/3 and Z


def test_printed_literals_reparse(capsys):
    spec = cyclic(2)
    for literal in ["(;5)", "(1@-1,1@1;0)", "(1@2;-3)"]:
        x = parse_element(spec, literal)
        assert str(x) == literal
        assert parse_element(spec, str(x)) == x
