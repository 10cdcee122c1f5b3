"""Command line front end.

Commands:
    reduce   play the pathless game or take the forkless normal form
    verify   run one of the built-in verification sweeps
    count    forkless monomial counts per degree (optionally checked
             against the generating function)
    basis    list the forkless monomials of one degree
    d-image  print the image of a polynomial under t[i] <- x[i,j]

Exit codes: 0 success or verified, 1 verification failure or count
mismatch, 2 usage or parse error, or a reduction that hit its step
limit.  Parameters b and a stay symbolic unless --beta/--alpha give
rational values.  Only commands that draw random choices take --seed
(default 0), and they always print the seed they used.  A flag that the
command, mode or sweep does not read is an error.

`build_parser()` builds the parser once per process and returns that one
shared instance on every call, `main` included; callers must not mutate
it.  `main` looks each `cmd_*` handler up in this module when it runs,
so a handler replaced at run time takes effect on the next call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache
from typing import Optional

from .algebra import count_forkless, enumerate_forkless, gf_coeffs, verify_symmetry
from .groebner import buchberger_check, generate_basis, normal_form
from .poly import PolyParseError, d_image, format_monomial, parse_poly, rescaled
from .rewrite import (
    FirstByOrder,
    LastByOrder,
    RandomStrategy,
    ResourceLimitError,
    RewriteError,
    format_trace,
    parse_script,
    reduce_pathless,
    verify_t_unique,
)
from .ring import integral_point
from .series import ed_ba_sweep, verify_a_kills_j, verify_e_left_inverse


def param_value(text: str) -> Optional[Fraction]:
    if text == "sym":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected 'sym' or a rational like 1, -2, 1/3; got {text!r}"
        ) from None


def at_least(least: int):
    """An argparse type for integers >= least; any other value exits 2."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {value}")
        return value

    return integer


COUNT = at_least(0)
POSITIVE = at_least(1)


def _common_flags(sub: argparse.ArgumentParser, params: bool = True):
    sub.add_argument("--n", type=POSITIVE, required=True, help="ambient size n")
    if params:
        sub.add_argument("--beta", type=param_value, default=None, metavar="RAT|sym")
        sub.add_argument("--alpha", type=param_value, default=None, metavar="RAT|sym")
    sub.add_argument("--json", action="store_true", dest="as_json")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subdivalg", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    reduce_p = commands.add_parser("reduce", help="reduce a polynomial")
    _common_flags(reduce_p)
    reduce_p.add_argument("--mode", choices=["pathless", "forkless"], required=True)
    reduce_p.add_argument("--strategy", choices=["first", "last", "random", "script"])
    # None when absent, so that a --seed nothing reads is an error.
    reduce_p.add_argument("--seed", type=int)
    reduce_p.add_argument("--script-file", dest="script_file")
    reduce_p.add_argument("--trace", action="store_true")
    reduce_p.add_argument("--d-image", action="store_true", dest="with_d_image")
    reduce_p.add_argument("poly")

    verify_p = commands.add_parser("verify", help="run a verification sweep")
    _common_flags(verify_p)
    verify_p.add_argument(
        "which",
        choices=list(SWEEPS),
    )
    for dest, (_, kind) in SWEEP_FLAGS.items():
        verify_p.add_argument(_flag(dest), type=kind, dest=dest)

    count_p = commands.add_parser("count", help="count forkless monomials per degree")
    _common_flags(count_p, params=False)
    count_p.add_argument("what", choices=["forkless"])
    count_p.add_argument("--max-degree", type=COUNT, required=True, dest="max_degree")
    count_p.add_argument("--check-gf", action="store_true", dest="check_gf")

    basis_p = commands.add_parser("basis", help="list forkless monomials of one degree")
    _common_flags(basis_p, params=False)
    basis_p.add_argument("what", choices=["forkless"])
    basis_p.add_argument("--degree", type=COUNT, required=True)

    d_image_p = commands.add_parser("d-image", help="print d_image of a polynomial")
    _common_flags(d_image_p)
    d_image_p.add_argument("poly")

    return parser


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
    elif text_lines:
        print("\n".join(text_lines))


# The strategies of `reduce --strategy` that read no flag of their own.
ORDER_STRATEGIES = {"first": FirstByOrder(), "last": LastByOrder()}


def cmd_reduce(args) -> int:
    pathless = args.mode == "pathless"
    name = args.strategy or "first"
    chosen = f"--strategy {name}" if pathless else "--mode forkless"
    if args.seed is not None and (args.mode, args.strategy) != ("pathless", "random"):
        raise ValueError(f"reduce {chosen} does not read --seed")
    if not pathless and (args.strategy or args.script_file or args.trace):
        raise ValueError("--strategy, --script-file, and --trace apply to pathless mode only")
    if pathless and args.script_file is not None and name != "script":
        raise ValueError(f"reduce {chosen} does not read --script-file")
    if name == "script" and not args.script_file:
        raise ValueError("--strategy script needs --script-file")
    p = parse_poly(args.poly, args.n).substitute(args.beta, args.alpha)
    # Either reduction runs on the rescaled input at the integral point and
    # makes the moves it makes on p.  The result stays there, so its d-image
    # merges ints, and both are divided back by the factors only as they
    # are written.
    scale, beta_at, alpha_at = integral_point(args.beta, args.alpha)
    q, factors = rescaled(p, scale)
    payload: dict = {"command": "reduce", "mode": args.mode, "n": args.n}
    lines: list = []
    if not pathless:
        result = normal_form(q, generate_basis(args.n, beta_at, alpha_at))
    else:
        if name == "random":
            seed = 0 if args.seed is None else args.seed
            strategy = RandomStrategy(seed)
            payload["seed"] = seed
            lines.append(f"seed: {seed}")
        elif name == "script":
            with open(args.script_file, encoding="utf-8") as handle:
                strategy = parse_script(handle.read(), args.n)
        else:
            strategy = ORDER_STRATEGIES[name]
        result, trace = reduce_pathless(q, strategy, beta_at, alpha_at)
        if args.trace:
            payload["trace"] = format_trace(trace).splitlines()
            lines.extend(payload["trace"])
    text = result.text(factors)
    payload["result"] = text
    lines.append(text)
    if args.with_d_image:
        image = d_image(result).text(factors)
        payload["d_image"] = image
        lines.append(f"d-image: {image}")
    _emit(args, payload, lines)
    return 0


# Sweep name -> (sweep, the parsed flags passed to it by name, header template).
# The template is filled from the report's params and counts and `checked`;
# a sweep that reads --seed prints it first.  Lambdas look their callees up
# in this module on each call, so run-time wrappers of them see every call.
SWEEPS = {
    "groebner": (
        lambda n, beta, alpha: buchberger_check(generate_basis(n, beta, alpha)),
        ("n", "beta", "alpha"),
        "basis elements: {elements}",
    ),
    "t-unique": (
        verify_t_unique,
        ("n", "trials", "strategies", "seed", "max_deg", "max_terms", "beta", "alpha"),
        "trials checked: {checked} with {strategies} strategies",
    ),
    "a-kills-j": (
        verify_a_kills_j,
        ("n", "samples", "seed", "beta", "alpha"),
        "generators checked: {generators}, random products checked: {products}",
    ),
    "ed-ba": (
        ed_ba_sweep,
        ("n", "max_degree", "w_order", "beta", "alpha"),
        "pathless monomials checked: {checked} (degree <= {max_degree}, order {w_order})",
    ),
    "symmetry": (
        verify_symmetry,
        ("n", "seed", "samples", "beta", "alpha"),
        "permutations sampled: {samples}",
    ),
    "e-inverse": (
        verify_e_left_inverse,
        ("n", "samples", "seed", "beta", "alpha"),
        "samples checked: {checked}",
    ),
}


# The flags of `verify` that only some sweeps read, with their defaults and
# types.  They parse to None when absent, so that a given flag the chosen
# sweep does not read is an error rather than silently ignored.
SWEEP_FLAGS = {
    "seed": (0, int),
    "trials": (100, COUNT),
    "strategies": (5, int),
    "samples": (50, COUNT),
    "max_deg": (4, COUNT),
    "max_terms": (5, POSITIVE),
    "w_order": (4, COUNT),
    "max_degree": (3, COUNT),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def cmd_verify(args) -> int:
    sweep, flags, header = SWEEPS[args.which]
    unread = [_flag(d) for d in SWEEP_FLAGS if getattr(args, d) is not None and d not in flags]
    if unread:
        raise ValueError(f"verify {args.which} does not read {', '.join(unread)}")
    for dest, (default, _) in SWEEP_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    start = time.perf_counter()
    report = sweep(**{flag: getattr(args, flag) for flag in flags})
    elapsed = time.perf_counter() - start
    lines = [f"seed: {args.seed}"] if "seed" in flags else []
    lines.append(header.format_map({**report.params, **report.counts, "checked": report.checked}))
    lines.extend(f"failure: {f}" for f in report.failures)
    lines.append(f"verify {args.which}: {'PASS' if report.ok else 'FAIL'}")
    payload = {
        "command": "verify",
        "which": args.which,
        "n": args.n,
        "ok": report.ok,
        "params": report.params,
        "counts": report.counts,
        "checked": report.checked,
        "failures": report.failures,
        "elapsed_s": elapsed,
    }
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def cmd_count(args) -> int:
    table = count_forkless(args.n, args.max_degree)
    payload: dict = {
        "command": "count",
        "n": args.n,
        "counts": list(table.counts),
    }
    lines = table.to_csv().splitlines()
    if args.check_gf:
        expected = gf_coeffs(args.n, args.max_degree)
        payload["gf_coeffs"] = list(expected.counts)
        payload["gf_match"] = expected.counts == table.counts
        if expected.counts != table.counts:
            lines.append(f"generating function disagrees: {expected.counts}")
            _emit(args, payload, lines)
            return 1
        lines.append("generating function agrees")
    _emit(args, payload, lines)
    return 0


def cmd_basis(args) -> int:
    monomials = enumerate_forkless(args.n, args.degree)
    rendered = [format_monomial(m) for m in monomials]
    payload = {
        "command": "basis",
        "n": args.n,
        "degree": args.degree,
        "monomials": rendered,
    }
    _emit(args, payload, rendered)
    return 0


def cmd_d_image(args) -> int:
    # d_image keeps each term's degree: the image of the cleared input,
    # written divided by the factors that cleared it.
    q, factors = rescaled(parse_poly(args.poly, args.n).substitute(args.beta, args.alpha), 1)
    image = d_image(q).text(factors)
    _emit(args, {"command": "d-image", "n": args.n, "result": image}, [image])
    return 0


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (PolyParseError, RewriteError, ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
