"""End-to-end checks of the command line interface via main(argv)."""

import functools
import hashlib
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

from conftest import (
    GAME_D_IMAGE,
    GAME_RESULT,
    GAME_SCRIPT,
    GAME_START,
    a_kills_j_draws,
    drop_constant_term,
)
from subdivalg import cli
from subdivalg.algebra import CountTable
from subdivalg.groebner import generate_basis, ideal_generator, normal_form
from subdivalg.poly import TPoly, parse_poly, parse_tpoly
from subdivalg.rewrite import derive_seed, random_xpoly
from subdivalg.series import random_tpoly


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_reduce_forkless_golden(capsys):
    code, out, err = run(
        capsys, "reduce", "--n", "3", "--mode", "forkless", "x[1,3]*x[1,2]"
    )
    assert code == 0
    assert err == ""
    assert out == ["x[1,2]*x[2,3] - x[1,3]*x[2,3] - b*x[1,3] - a"]


def test_reduce_path_game_memory_bound(capsys):
    # The trace keeps the moves, so the n=8 path game (2,855 steps) builds
    # no polynomial per step: a copy per step holds 8.8M term entries.
    path = "*".join(f"x[{i},{i + 1}]" for i in range(1, 8))
    tracemalloc.start()
    try:
        code = cli.main(["reduce", "--n", "8", "--mode", "pathless", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out.encode()
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == (
        "79def15c511a31315d97082ae253b39b40669f9fffa3ca3b67e78c25462d336a"
    )
    assert peak < 32 * 2**20, peak


def test_reduce_forkless_kills_generator(capsys):
    generator = "x[1,2]*x[2,3] - x[1,3]*x[1,2] - x[1,3]*x[2,3] - b*x[1,3] - a"
    code, out, _ = run(capsys, "reduce", "--n", "3", "--mode", "forkless", generator)
    assert code == 0
    assert out == ["0"]


def test_reduce_script_reproduces_game(capsys, tmp_path):
    script = tmp_path / "game.txt"
    script.write_text(GAME_SCRIPT, encoding="utf-8")
    code, out, _ = run(
        capsys,
        "reduce", "--n", "4", "--mode", "pathless",
        "--strategy", "script", "--script-file", str(script),
        "--beta", "1", "--alpha", "0",
        GAME_START,
    )
    assert code == 0
    assert out == [GAME_RESULT]


def test_reduce_script_with_trace_and_d_image(capsys, tmp_path):
    script = tmp_path / "game.txt"
    script.write_text(GAME_SCRIPT, encoding="utf-8")
    code, out, _ = run(
        capsys,
        "reduce", "--n", "4", "--mode", "pathless",
        "--strategy", "script", "--script-file", str(script),
        "--beta", "1", "--alpha", "0", "--trace", "--d-image",
        GAME_START,
    )
    assert code == 0
    assert len(out) == 7  # five steps, the result, its image
    assert all(line.startswith("m=") for line in out[:5])
    assert out[5] == GAME_RESULT
    assert out[6] == f"d-image: {GAME_D_IMAGE}"


def test_reduce_formats_each_result_once(capsys, monkeypatch):
    """`reduce --d-image` turns one XPoly and one TPoly into text, in both
    output formats, and forkless mode likewise: each through the writer
    `text`, which `str` calls too."""
    from subdivalg.poly import XPoly

    formatted = []
    for cls in (XPoly, TPoly):
        original = cls.text

        def counted(self, factors=None, original=original):
            formatted.append(type(self).__name__)
            return original(self, factors)

        monkeypatch.setattr(cls, "text", counted)
    pathless = ["--mode", "pathless", "--strategy", "random", "--beta", "1/3"]
    for options in (pathless, [*pathless, "--json"], [*pathless, "--trace"], ["--mode", "forkless"]):
        formatted.clear()
        code, out, _ = run(
            capsys, "reduce", "--n", "4", "--d-image", *options,
            "x[1,2]*x[2,3]*x[3,4] + x[1,3]*x[1,2]",
        )
        assert code == 0 and out
        assert sorted(formatted) == ["TPoly", "XPoly"], options


def test_rational_reduce_writes_from_the_integral_point(capsys, monkeypatch):
    """At (1/3, 2/5) `reduce --d-image` divides nothing back before it
    writes, in either mode, with or without --json: the only `unscaled`
    calls are the normal form's own at the integral point, whose factors
    are None, and the game steps on ints only.  Its result and d-image are
    the texts of the library's reductions at (b, a): the game played there
    on Fractions, and the normal form divided back by `unscaled`."""
    from subdivalg import groebner, poly, rewrite

    beta, alpha = Fraction(1, 3), Fraction(2, 5)
    text = "3/2*x[1,2]*x[2,3]*x[3,4] - 5/4*a*x[1,3]*x[1,2] + 2/3*b*x[1,4]*x[2,4] - 7"
    p = parse_poly(text, 4).substitute(beta, alpha)
    expected = {
        "pathless": rewrite.reduce_pathless(p, rewrite.RandomStrategy(3), beta, alpha)[0],
        "forkless": normal_form(p, generate_basis(4, beta, alpha)),
    }
    assert not hasattr(rewrite, "unscaled")
    calls = []
    for module in (poly, groebner):
        real = module.unscaled

        def counted(r, factors, real=real):
            if factors is not None:
                calls.append(factors)
            return real(r, factors)

        monkeypatch.setattr(module, "unscaled", counted)
    # Each game step: whether its terms are ints and its point is (5, 90).
    stepped = []
    real_step = rewrite.pathless_step

    def step(terms, *rest):
        stepped.append(all(type(c) is int for c in terms.values()) and rest[2:] == (5, 90))
        return real_step(terms, *rest)

    monkeypatch.setattr(rewrite, "pathless_step", step)
    for mode, options in (("pathless", ["--strategy", "random", "--seed", "3"]), ("forkless", [])):
        result = expected[mode]
        assert any(type(c) is not int for c in result.terms.values())
        for as_json in (False, True):
            stepped.clear()
            code, out, _ = run(
                capsys, "reduce", "--n", "4", "--mode", mode, *options, "--d-image",
                "--beta", "1/3", "--alpha", "2/5", *(["--json"] if as_json else []), text,
            )
            assert code == 0 and calls == [], (mode, as_json)
            assert all(stepped) and bool(stepped) == (mode == "pathless"), (mode, as_json)
            if as_json:
                payload = json.loads(out[0])
                out = [payload["result"], "d-image: " + payload["d_image"]]
            assert out[-2:] == [str(result), f"d-image: {poly.d_image(result)}"], (mode, as_json)


# Alternating commands, with argparse errors (exit 2), --help (exit 0), a
# --seed rejection and a flag the sweep does not read between good calls.
PARSER_SEQUENCE = (
    ("reduce", "--n", "3", "--mode", "forkless", "x[1,3]*x[1,2]"),
    ("count", "--n", "4", "forkless", "--max-degree", "3"),
    ("reduce", "--n", "3", "--mode", "bogus", "x[1,2]"),
    ("reduce", "--n", "4", "--mode", "pathless", "--strategy", "random", "--seed", "4", GAME_START),
    ("reduce", "--n", "3", "--mode", "forkless", "--seed", "3", "x[1,2]"),
    ("verify", "--n", "3", "groebner", "--beta", "1/2"),
    (),
    ("basis", "--n", "3", "forkless", "--degree", "2", "--json"),
    ("verify", "--n", "3", "symmetry", "--trials", "5"),
    ("d-image", "--n", "3", "--alpha", "2", "x[1,2]*x[2,3] + a"),
    ("count", "--n", "0", "forkless", "--max-degree", "3"),
    ("reduce", "--help"),
    ("reduce", "--n", "4", "--mode", "pathless", "--trace", GAME_START),
)


def test_shared_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    shared = [run(capsys, *argv) for argv in PARSER_SEQUENCE]
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 0]
    # main with a new parser on every call, as before the parser was shared
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in PARSER_SEQUENCE]
    assert shared == fresh


def test_handlers_are_looked_up_per_call(capsys, monkeypatch):
    assert run(capsys, "count", "--n", "3", "forkless", "--max-degree", "1")[0] == 0
    seen = []

    def fake_count(args):
        seen.append((args.n, args.max_degree))
        print("replaced")
        return 7

    monkeypatch.setattr(cli, "cmd_count", fake_count)
    assert run(capsys, "count", "--n", "5", "forkless", "--max-degree", "2") == (7, ["replaced"], "")
    assert seen == [(5, 2)]
    monkeypatch.undo()
    assert run(capsys, "count", "--n", "3", "forkless", "--max-degree", "1")[1] == ["0,1", "1,3"]


def test_reduce_random_prints_seed(capsys):
    code, out, _ = run(
        capsys,
        "reduce", "--n", "3", "--mode", "pathless",
        "--strategy", "random", "--seed", "9",
        "x[1,2]*x[2,3]",
    )
    assert code == 0
    assert out[0] == "seed: 9"
    assert len(out) == 2


def test_reduce_default_strategy_is_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "reduce", "--n", "3", "--mode", "pathless", "x[1,2]*x[2,3]"
    )
    code2, out2, _ = run(
        capsys,
        "reduce", "--n", "3", "--mode", "pathless", "--strategy", "first",
        "x[1,2]*x[2,3]",
    )
    assert code1 == code2 == 0
    assert out1 == out2 == ["x[1,2]*x[1,3] + x[1,3]*x[2,3] + b*x[1,3] + a"]


def test_reduce_json_round_trip(capsys, tmp_path):
    script = tmp_path / "game.txt"
    script.write_text(GAME_SCRIPT, encoding="utf-8")
    code, out, _ = run(
        capsys,
        "reduce", "--n", "4", "--mode", "pathless",
        "--strategy", "script", "--script-file", str(script),
        "--beta", "1", "--alpha", "0", "--trace", "--d-image", "--json",
        GAME_START,
    )
    assert code == 0
    assert len(out) == 1
    payload = json.loads(out[0])
    assert payload["command"] == "reduce"
    assert payload["mode"] == "pathless"
    assert payload["n"] == 4
    assert payload["result"] == GAME_RESULT
    assert payload["d_image"] == GAME_D_IMAGE
    assert len(payload["trace"]) == 5
    assert json.dumps(payload, sort_keys=True) == out[0]


def test_reduce_usage_errors(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "reduce", "--n", "3", "--mode", "forkless", "--trace", "x[1,2]",
    )
    assert (code, out) == (2, [])
    assert err == "error: --strategy, --script-file, and --trace apply to pathless mode only\n"

    code, out, err = run(
        capsys,
        "reduce", "--n", "3", "--mode", "pathless", "--strategy", "script",
        "x[1,2]",
    )
    assert (code, out) == (2, [])
    assert err == "error: --strategy script needs --script-file\n"

    missing = tmp_path / "absent.txt"
    code, _, err = run(
        capsys,
        "reduce", "--n", "3", "--mode", "pathless", "--strategy", "script",
        "--script-file", str(missing), "x[1,2]",
    )
    assert code == 2
    assert err.startswith("error:")


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "reduce", "--n", "3", "--mode", "forkless", "x[1,2] +")
    assert code == 2
    assert err.startswith("error:")


def test_bad_parameter_value(capsys):
    code, _, err = run(
        capsys, "reduce", "--n", "3", "--mode", "forkless", "--beta", "x", "x[1,2]"
    )
    assert code == 2
    assert "expected 'sym' or a rational" in err


def test_bad_verify_choice(capsys):
    code, _, err = run(capsys, "verify", "--n", "3", "bogus")
    assert code == 2
    assert "invalid choice" in err


def test_verify_rejects_flags_the_sweep_does_not_read(capsys):
    code, out, err = run(
        capsys, "verify", "--n", "3", "e-inverse", "--max-deg", "6", "--max-terms", "9"
    )
    assert code == 2
    assert out == []
    assert err == "error: verify e-inverse does not read --max-deg, --max-terms\n"
    code, out, err = run(capsys, "verify", "--n", "3", "groebner", "--trials", "4")
    assert code == 2
    assert out == []
    assert err == "error: verify groebner does not read --trials\n"


def test_verify_rejects_seed_where_no_sweep_draws(capsys):
    for which in ("groebner", "ed-ba"):
        code, out, err = run(capsys, "verify", "--n", "3", which, "--seed", "5")
        assert code == 2
        assert out == []
        assert err == f"error: verify {which} does not read --seed\n"
    code, out, _ = run(capsys, "verify", "--n", "3", "a-kills-j", "--samples", "2")
    assert code == 0
    assert out[0] == "seed: 0"
    code, out, _ = run(
        capsys, "reduce", "--n", "3", "--mode", "pathless", "--strategy", "random", "x[1,2]"
    )
    assert code == 0
    assert out[0] == "seed: 0"


def test_seed_only_where_a_random_choice_reads_it(capsys):
    for command in (
        ("count", "--n", "3", "forkless", "--max-degree", "2"),
        ("basis", "--n", "3", "forkless", "--degree", "2"),
        ("d-image", "--n", "3", "x[1,2]"),
    ):
        code, out, err = run(capsys, *command, "--seed", "5")
        assert code == 2
        assert out == []
        assert "unrecognized arguments: --seed 5" in err
    for flags, chosen in (
        (("--mode", "forkless"), "--mode forkless"),
        (("--mode", "pathless"), "--strategy first"),
        (("--mode", "pathless", "--strategy", "last"), "--strategy last"),
    ):
        code, out, err = run(capsys, "reduce", "--n", "3", *flags, "--seed", "5", "x[1,2]*x[2,3]")
        assert (code, out) == (2, [])
        assert err == f"error: reduce {chosen} does not read --seed\n"
    code, out, _ = run(
        capsys, "reduce", "--n", "3", "--mode", "pathless", "--strategy", "random", "--seed", "5", "x[1,2]"
    )
    assert (code, out) == (0, ["seed: 5", "x[1,2]"])


def test_flags_a_command_does_not_read_are_rejected(capsys):
    for command in (
        ("count", "--n", "3", "forkless", "--max-degree", "2"),
        ("basis", "--n", "3", "forkless", "--degree", "2"),
    ):
        for flag in ("--beta", "--alpha"):
            code, out, err = run(capsys, *command, flag, "2")
            assert (code, out) == (2, [])
            assert f"unrecognized arguments: {flag} 2" in err
    for flags, chosen in (
        ((), "--strategy first"),
        (("--strategy", "last"), "--strategy last"),
        (("--strategy", "random"), "--strategy random"),
    ):
        code, out, err = run(
            capsys, "reduce", "--n", "3", "--mode", "pathless", *flags,
            "--script-file", "unread.txt", "x[1,2]*x[2,3]",
        )
        assert (code, out) == (2, [])
        assert err == f"error: reduce {chosen} does not read --script-file\n"


def test_missing_n_flag(capsys):
    code, _, err = run(capsys, "count", "forkless", "--max-degree", "2")
    assert code == 2


def test_out_of_range_sizes_exit_2(capsys):
    for argv, flag, least in (
        (("verify", "--n", "0", "ed-ba"), "--n", 1),
        (("verify", "--n", "-1", "groebner"), "--n", 1),
        (("reduce", "--n", "0", "--mode", "forkless", "1"), "--n", 1),
        (("d-image", "--n", "0", "1"), "--n", 1),
        (("verify", "--n", "4", "symmetry", "--samples", "-1"), "--samples", 0),
        (("verify", "--n", "3", "t-unique", "--max-deg", "-1"), "--max-deg", 0),
        (("verify", "--n", "3", "t-unique", "--max-terms", "0"), "--max-terms", 1),
        (("verify", "--n", "3", "t-unique", "--trials", "-1"), "--trials", 0),
        (("verify", "--n", "3", "ed-ba", "--w-order", "-1"), "--w-order", 0),
        (("verify", "--n", "3", "ed-ba", "--max-degree", "-1"), "--max-degree", 0),
        (("count", "--n", "3", "forkless", "--max-degree", "-1", "--check-gf"), "--max-degree", 0),
        (("basis", "--n", "3", "forkless", "--degree", "-1"), "--degree", 0),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, []), argv
        assert err.startswith("usage:"), argv
        assert f"argument {flag}: expected an integer >= {least}" in err, argv
    code, out, err = run(capsys, "basis", "--n", "3", "forkless", "--degree", "two")
    assert (code, out) == (2, [])
    assert "argument --degree: invalid integer value: 'two'" in err
    code, out, _ = run(capsys, "verify", "--n", "1", "ed-ba", "--max-degree", "0", "--w-order", "0")
    assert (code, out[-1]) == (0, "verify ed-ba: PASS")
    code, out, _ = run(capsys, "verify", "--n", "3", "t-unique", "--trials", "0", "--max-terms", "1")
    assert (code, out[-1]) == (0, "verify t-unique: PASS")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert any("reduce" in line for line in out)


def test_verify_groebner(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "groebner")
    assert code == 0
    assert out[0] == "basis elements: 4"
    assert out[-1] == "verify groebner: PASS"


def test_verify_t_unique(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "3", "t-unique", "--trials", "5", "--strategies", "3",
    )
    assert code == 0
    assert out[0] == "seed: 0"
    assert out[1] == "trials checked: 5 with 3 strategies"
    assert out[-1] == "verify t-unique: PASS"


def test_verify_t_unique_needs_two_strategies(capsys):
    for trials in ("0", "1"):
        code, out, err = run(
            capsys, "verify", "--n", "3", "t-unique", "--trials", trials, "--strategies", "1"
        )
        assert code == 2
        assert out == []
        assert err == "error: need at least two strategies to compare\n"


def test_verify_a_kills_j(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "a-kills-j", "--samples", "5")
    assert code == 0
    assert out[-1] == "verify a-kills-j: PASS"


def test_verify_ed_ba(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "3", "ed-ba", "--max-degree", "2", "--w-order", "3",
    )
    assert code == 0
    assert out[0].startswith("pathless monomials checked:")
    assert out[-1] == "verify ed-ba: PASS"


def test_verify_symmetry(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "symmetry", "--samples", "2")
    assert code == 0
    assert out[-1] == "verify symmetry: PASS"


def test_verify_e_inverse(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "e-inverse", "--samples", "10")
    assert code == 0
    assert out[1] == "samples checked: 10"
    assert out[-1] == "verify e-inverse: PASS"


def test_verify_e_inverse_failures_replay(capsys, monkeypatch):
    from subdivalg import series

    original = series.g_map

    def broken_g_map(n, beta_c):
        g = original(n, beta_c)
        return lambda p: g(p) + TPoly.one(n)

    monkeypatch.setattr(series, "g_map", broken_g_map)
    code, out, _ = run(capsys, "verify", "--n", "3", "e-inverse", "--samples", "4", "--seed", "9")
    assert code == 1
    assert out[:2] == ["seed: 9", "samples checked: 4"]
    failures = out[2:-1]
    assert len(failures) == 4
    for index, line in enumerate(failures):
        seed = derive_seed(9, index)
        prefix = f"failure: sample {index} seed {seed} input "
        assert line.startswith(prefix)
        replayed = random_tpoly(3, 3, 4, random.Random(seed))
        assert line[len(prefix):] == str(replayed)
    assert out[-1] == "verify e-inverse: FAIL"


RATIONAL = ("--beta", "1/3", "--alpha", "2/5")


def test_verify_e_inverse_failures_at_a_rational_point_carry_the_input(capsys, monkeypatch):
    """The sweep checks each input rescaled at the integral point; its
    failure lines print the input drawn at (b, a)."""
    from subdivalg import series

    original = series.g_map
    monkeypatch.setattr(series, "g_map", lambda n, beta_c: lambda p: original(n, beta_c)(p) + TPoly.one(n))
    code, out, _ = run(capsys, "verify", "--n", "3", "e-inverse", "--samples", "4", "--seed", "9", *RATIONAL)
    assert code == 1
    failures = out[2:-1]
    assert len(failures) == 4
    for index, line in enumerate(failures):
        seed = derive_seed(9, index)
        prefix = f"failure: sample {index} seed {seed} input "
        assert line.startswith(prefix)
        drawn = random_tpoly(3, 3, 4, random.Random(seed)).substitute(Fraction(1, 3), Fraction(2, 5))
        assert parse_tpoly(line[len(prefix):], 3) == drawn
        assert line[len(prefix):] == str(drawn)
    assert out[-1] == "verify e-inverse: FAIL"


def broken_a_map(monkeypatch):
    """Make the sweep's fraction map add 1 to every image it returns."""
    from subdivalg import series
    from subdivalg.series import QPoly, QRatFrac

    real_a_map = series.a_map

    def a_map(n, beta=None, alpha=None):
        fraction_of = real_a_map(n, beta, alpha)
        return lambda p: fraction_of(p) + QRatFrac(QPoly.one(p.n))

    monkeypatch.setattr(series, "a_map", a_map)


def test_verify_a_kills_j_failures_at_a_rational_point_carry_the_polynomial(capsys, monkeypatch):
    """The sweep maps each polynomial rescaled at the integral point; its
    failure lines print the polynomial drawn at (b, a)."""
    broken_a_map(monkeypatch)
    code, out, _ = run(
        capsys, "verify", "--n", "3", "a-kills-j", "--samples", "3", "--seed", "4", *RATIONAL
    )
    assert code == 1
    assert out[:2] == ["seed: 4", "generators checked: 1, random products checked: 3"]
    draws = a_kills_j_draws(3, 3, 4, Fraction(1, 3), Fraction(2, 5))
    assert len(out) == 3 + len(draws)
    basis = generate_basis(3, Fraction(1, 3), Fraction(2, 5))
    for line, (label, drawn) in zip(out[2:-1], draws):
        prefix = f"failure: {label}: "
        assert line.startswith(prefix)
        assert parse_poly(line[len(prefix):], 3) == drawn
        assert normal_form(drawn, basis).is_zero()
    assert any(type(c) is Fraction for _, p in draws for c in p.terms.values())
    assert out[-1] == "verify a-kills-j: FAIL"


def test_cli_import_loads_no_dataclasses():
    """Set-up stays light: importing the CLI and building its parser, in a
    fresh process, imports neither dataclasses nor inspect."""
    code = (
        "import sys, subdivalg.cli\n"
        "subdivalg.cli.build_parser()\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "[]\n"


def test_verify_specialized_parameters(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "3", "groebner", "--beta", "1", "--alpha", "0",
    )
    assert code == 0
    assert out[-1] == "verify groebner: PASS"


def test_verify_failure_exit_code(capsys, monkeypatch):
    # The rule of (1, 2, 3) loses its -a.  Its overlaps with (1, 2, 4) and
    # (1, 3, 4) fail, and so does theirs, whose reduction steps by
    # (1, 2, 3); no other overlap does.
    drop_constant_term(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n", "4", "groebner")
    assert code == 1
    assert out == [
        "basis elements: 4",
        "failure: pair (1, 2, 3) (1, 2, 4)",
        "failure: pair (1, 2, 3) (1, 3, 4)",
        "failure: pair (1, 2, 4) (1, 3, 4)",
        "verify groebner: FAIL",
    ]


def test_verify_t_unique_failures_replay(capsys, monkeypatch):
    from subdivalg import rewrite

    original = rewrite.d_image
    calls = itertools.count()
    # Every other d-image is shifted by 1, so strategy 1 of 3 disagrees in every trial.
    monkeypatch.setattr(
        rewrite, "d_image", lambda p: original(p) + TPoly.one(p.n) if next(calls) % 2 else original(p)
    )
    code, out, _ = run(
        capsys,
        "verify", "--n", "4", "t-unique", "--trials", "3", "--strategies", "3",
        "--max-deg", "3", "--max-terms", "2", "--seed", "8",
    )
    assert code == 1
    assert out[:2] == ["seed: 8", "trials checked: 3 with 3 strategies"]
    failures = out[2:-1]
    assert len(failures) == 3
    pattern = re.compile(
        r"failure: trial (\d+) seed (\d+) input (.+); "
        r"strategy 0 image (.+); strategy 1 image (.+)"
    )
    for trial, line in enumerate(failures):
        match = pattern.fullmatch(line)
        assert match, line
        assert int(match[1]) == trial
        seed = int(match[2])
        assert seed == derive_seed(8, trial)
        assert match[3] == str(random_xpoly(4, 3, 2, random.Random(seed)))
        assert match[4] != match[5]
    assert out[-1] == "verify t-unique: FAIL"


def test_verify_a_kills_j_failures_carry_the_polynomial(capsys, monkeypatch):
    from subdivalg import series

    original = series.a_map(3)  # built before the map is broken
    broken_a_map(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n", "3", "a-kills-j", "--samples", "3", "--seed", "4")
    assert code == 1
    assert out[:2] == ["seed: 4", "generators checked: 1, random products checked: 3"]
    assert out[2] == f"failure: generator (1, 2, 3): {ideal_generator(1, 2, 3, 3)}"
    basis = generate_basis(3)
    for index, line in enumerate(out[3:-1]):
        prefix = f"failure: product {index} over generator (1, 2, 3): "
        assert line.startswith(prefix)
        product = parse_poly(line[len(prefix):], 3)
        assert normal_form(product, basis).is_zero()
        assert original(product).is_zero()
    assert len(out) == 7
    assert out[-1] == "verify a-kills-j: FAIL"


VERIFY_SMALL = {
    "groebner": [],
    "t-unique": ["--trials", "2", "--strategies", "2"],
    "a-kills-j": ["--samples", "2"],
    "ed-ba": ["--max-degree", "1", "--w-order", "2"],
    "symmetry": ["--samples", "1"],
    "e-inverse": ["--samples", "2"],
}


def test_verify_json_payload(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "groebner", "--json", "--beta", "1/3")
    assert code == 0
    payload = json.loads(out[0])
    assert payload["ok"] is True
    assert payload["which"] == "groebner"
    assert payload["params"] == {"n": 4, "elements": 4, "beta": "1/3", "alpha": None}
    assert payload["counts"] == {"pairs": 7}
    assert payload["checked"] == 7
    assert payload["failures"] == []
    assert json.dumps(payload, sort_keys=True) == out[0]


def test_verify_json_schema_is_shared(capsys):
    keys = {"command", "which", "n", "ok", "params", "counts", "checked", "failures", "elapsed_s"}
    for which, extra in VERIFY_SMALL.items():
        code, out, _ = run(capsys, "verify", "--n", "3", which, "--json", "--beta", "1/3", *extra)
        assert code == 0
        payload = json.loads(out[0])
        assert set(payload) == keys, which
        assert payload["command"] == "verify" and payload["which"] == which
        assert payload["checked"] == sum(payload["counts"].values())
        assert payload["elapsed_s"] >= 0
        assert payload["params"]["beta"] == "1/3"
        assert payload["params"]["alpha"] is None


def test_count_golden(capsys):
    code, out, _ = run(
        capsys, "count", "--n", "4", "forkless", "--max-degree", "3", "--check-gf"
    )
    assert code == 0
    assert out == ["0,1", "1,6", "2,17", "3,34", "generating function agrees"]


def test_count_small_tables(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "forkless", "--max-degree", "4")
    assert code == 0
    assert out == ["0,1", "1,1", "2,1", "3,1", "4,1"]

    code, out, _ = run(capsys, "count", "--n", "3", "forkless", "--max-degree", "2")
    assert code == 0
    assert out == ["0,1", "1,3", "2,5"]


def test_count_mismatch_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "gf_coeffs", lambda n, d: CountTable(n, tuple(range(d + 1)))
    )
    code, out, _ = run(
        capsys, "count", "--n", "3", "forkless", "--max-degree", "2", "--check-gf"
    )
    assert code == 1
    assert out[-1].startswith("generating function disagrees")


def test_step_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "normal_form", functools.partial(normal_form, max_steps=1))
    code, out, err = run(
        capsys, "reduce", "--n", "3", "--mode", "forkless", "x[1,3]*x[1,2]^2"
    )
    assert code == 2
    assert out == []
    assert err.startswith("error: normal form did not terminate within 1 steps")


def test_count_json(capsys):
    code, out, _ = run(
        capsys, "count", "--n", "4", "forkless", "--max-degree", "3",
        "--check-gf", "--json",
    )
    assert code == 0
    payload = json.loads(out[0])
    assert payload["counts"] == [1, 6, 17, 34]
    assert payload["gf_match"] is True


def test_basis_golden(capsys):
    code, out, _ = run(capsys, "basis", "--n", "3", "forkless", "--degree", "2")
    assert code == 0
    assert out == [
        "x[1,2]^2",
        "x[1,2]*x[2,3]",
        "x[1,3]^2",
        "x[1,3]*x[2,3]",
        "x[2,3]^2",
    ]


def test_basis_edge_cases(capsys):
    code, out, _ = run(capsys, "basis", "--n", "2", "forkless", "--degree", "3")
    assert code == 0
    assert out == ["x[1,2]^3"]

    code, out, _ = run(capsys, "basis", "--n", "3", "forkless", "--degree", "0")
    assert code == 0
    assert out == ["1"]


def test_d_image_command(capsys):
    code, out, _ = run(capsys, "d-image", "--n", "4", "x[1,2]*x[2,3]*x[3,4]")
    assert code == 0
    assert out == ["t[1]*t[2]*t[3]"]


def test_d_image_json(capsys):
    code, out, _ = run(capsys, "d-image", "--n", "4", "--json", GAME_RESULT)
    assert code == 0
    payload = json.loads(out[0])
    assert payload["result"] == GAME_D_IMAGE


def readme_examples() -> list:
    """(argv, output lines) of each `$ subdivalg ...` example in README.md:
    the command, joined over backslash continuations, and the lines after
    it up to a blank line, the next command or the end of its block."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples, index = [], 0
    while index < len(lines):
        line = lines[index]
        index += 1
        if not line.startswith("$ subdivalg "):
            continue
        command = line[len("$ subdivalg ") :]
        while command.endswith("\\"):
            command = command[:-1] + lines[index]
            index += 1
        output = []
        while index < len(lines) and lines[index] and not lines[index].startswith(("$", "```")):
            output.append(lines[index])
            index += 1
        examples.append((shlex.split(command), output))
    return examples


def test_readme_examples_print_what_they_show(capsys):
    examples = readme_examples()
    assert len(examples) == 6
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, expected, ""), argv
