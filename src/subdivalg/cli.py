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
rational values.  Commands that draw random samples take --seed
(default 0) and always print the seed they used.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import Optional

from .algebra import count_forkless, enumerate_forkless, gf_coeffs, verify_symmetry
from .groebner import buchberger_check, generate_basis, normal_form
from .poly import PolyParseError, d_image, format_monomial, parse_poly
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


def _common_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int, required=True, help="ambient size n")
    sub.add_argument("--beta", type=param_value, default=None, metavar="RAT|sym")
    sub.add_argument("--alpha", type=param_value, default=None, metavar="RAT|sym")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true", dest="as_json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subdivalg", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    reduce_p = commands.add_parser("reduce", help="reduce a polynomial")
    _common_flags(reduce_p)
    reduce_p.add_argument("--mode", choices=["pathless", "forkless"], required=True)
    reduce_p.add_argument("--strategy", choices=["first", "last", "random", "script"])
    reduce_p.add_argument("--script-file", dest="script_file")
    reduce_p.add_argument("--trace", action="store_true")
    reduce_p.add_argument("--d-image", action="store_true", dest="with_d_image")
    reduce_p.add_argument("poly")
    reduce_p.set_defaults(func=cmd_reduce)

    verify_p = commands.add_parser("verify", help="run a verification sweep")
    _common_flags(verify_p)
    verify_p.add_argument(
        "which",
        choices=["groebner", "t-unique", "a-kills-j", "ed-ba", "symmetry", "e-inverse"],
    )
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--strategies", type=int, default=5)
    verify_p.add_argument("--samples", type=int, default=50)
    verify_p.add_argument("--max-deg", type=int, default=4, dest="max_deg")
    verify_p.add_argument("--max-terms", type=int, default=5, dest="max_terms")
    verify_p.add_argument("--w-order", type=int, default=4, dest="w_order")
    verify_p.add_argument("--max-degree", type=int, default=3, dest="max_degree")
    verify_p.set_defaults(func=cmd_verify)

    count_p = commands.add_parser("count", help="count forkless monomials per degree")
    _common_flags(count_p)
    count_p.add_argument("what", choices=["forkless"])
    count_p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    count_p.add_argument("--check-gf", action="store_true", dest="check_gf")
    count_p.set_defaults(func=cmd_count)

    basis_p = commands.add_parser("basis", help="list forkless monomials of one degree")
    _common_flags(basis_p)
    basis_p.add_argument("what", choices=["forkless"])
    basis_p.add_argument("--degree", type=int, required=True)
    basis_p.set_defaults(func=cmd_basis)

    d_image_p = commands.add_parser("d-image", help="print d_image of a polynomial")
    _common_flags(d_image_p)
    d_image_p.add_argument("poly")
    d_image_p.set_defaults(func=cmd_d_image)

    return parser


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_reduce(args) -> int:
    p = parse_poly(args.poly, args.n).substitute(args.beta, args.alpha)
    payload: dict = {"command": "reduce", "mode": args.mode, "n": args.n}
    lines: list = []
    if args.mode == "forkless":
        if args.strategy or args.script_file or args.trace:
            print("--strategy, --script-file, and --trace apply to pathless mode only", file=sys.stderr)
            return 2
        basis = generate_basis(args.n, args.beta, args.alpha)
        result = normal_form(p, basis)
        trace = None
    else:
        strategy_name = args.strategy or "first"
        if strategy_name == "first":
            strategy = FirstByOrder()
        elif strategy_name == "last":
            strategy = LastByOrder()
        elif strategy_name == "random":
            strategy = RandomStrategy(args.seed)
            payload["seed"] = args.seed
            lines.append(f"seed: {args.seed}")
        else:
            if not args.script_file:
                print("--strategy script needs --script-file", file=sys.stderr)
                return 2
            with open(args.script_file, encoding="utf-8") as handle:
                strategy = parse_script(handle.read(), args.n)
        result, trace = reduce_pathless(p, strategy, args.beta, args.alpha)
    if args.trace and trace is not None:
        trace_text = format_trace(trace)
        payload["trace"] = trace_text.splitlines()
        if trace_text:
            lines.extend(trace_text.splitlines())
    payload["result"] = str(result)
    lines.append(str(result))
    if args.with_d_image:
        image = str(d_image(result))
        payload["d_image"] = image
        lines.append(f"d-image: {image}")
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    payload: dict = {"command": "verify", "which": args.which, "n": args.n}
    lines: list = []
    if args.which == "groebner":
        basis = generate_basis(args.n, args.beta, args.alpha)
        ok = buchberger_check(basis)
        payload["elements"] = len(basis)
        lines.append(f"basis elements: {len(basis)}")
    elif args.which == "t-unique":
        report = verify_t_unique(
            args.n, args.trials, args.strategies, args.seed,
            args.max_deg, args.max_terms, args.beta, args.alpha,
        )
        ok = report.ok
        payload.update(asdict(report))
        lines.append(f"seed: {args.seed}")
        lines.append(f"trials checked: {report.checked} with {args.strategies} strategies")
        lines.extend(f"counterexample: {f}" for f in payload["failures"])
    elif args.which == "a-kills-j":
        report = verify_a_kills_j(args.n, args.samples, args.seed, args.beta, args.alpha)
        ok = report.ok
        payload.update(asdict(report))
        lines.append(f"seed: {args.seed}")
        lines.append(
            f"generators checked: {report.generators_checked}, "
            f"random products checked: {report.products_checked}"
        )
        lines.extend(f"failure: {f}" for f in report.failures)
    elif args.which == "ed-ba":
        report = ed_ba_sweep(args.n, args.max_degree, args.w_order, args.beta, args.alpha)
        ok = report.ok
        payload.update(asdict(report))
        lines.append(
            f"pathless monomials checked: {report.checked} "
            f"(degree <= {args.max_degree}, order {args.w_order})"
        )
        lines.extend(f"failure: {f}" for f in report.failures)
    elif args.which == "symmetry":
        report = verify_symmetry(args.n, args.seed, args.samples, args.beta, args.alpha)
        ok = report.ok
        payload.update(asdict(report))
        lines.append(f"seed: {args.seed}")
        lines.append(f"permutations sampled: {args.samples}")
        lines.extend(f"failure: {f}" for f in report.failures)
    else:
        report = verify_e_left_inverse(
            args.n, args.samples, args.seed, beta=args.beta, alpha=args.alpha
        )
        ok = report.ok
        payload.update(asdict(report))
        lines.append(f"seed: {args.seed}")
        lines.append(f"samples checked: {report.checked}")
        lines.extend(f"failure: {f}" for f in report.failures)
    payload["ok"] = ok
    lines.append(f"verify {args.which}: {'PASS' if ok else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if ok else 1


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
    p = parse_poly(args.poly, args.n).substitute(args.beta, args.alpha)
    image = str(d_image(p))
    _emit(args, {"command": "d-image", "n": args.n, "result": image}, [image])
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (PolyParseError, RewriteError, ResourceLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
