"""Output checks that do not call the engine under test.

Each check reads the captured stdout of a job as text and returns None
when it is right, or a one-line reason when it is not.  Results are read
with a parser of the canonical text written here, not with subdivalg's.
The cross-job checks rest on the mathematics, not on the code:

* a pathless result of the game has a d-image that depends only on the
  coset of the input, so an input and a companion in the same coset,
  reduced under different strategies, print the same d-image;
* the forkless normal form is unique on a coset, so an input and its
  companion print the same result;
* a replay of a trace reproduces the game that wrote it.
"""

from __future__ import annotations

import re
from fractions import Fraction

_SEP = re.compile(r" ([+-]) ")
_PAIR = re.compile(r"x\[(\d+),(\d+)\]")
_TRACE_LINE = re.compile(r"m=\S+ t=\(\d+,\d+,\d+\)")


def parse_terms(text: str) -> dict:
    """Canonical polynomial text -> {(b_deg, a_deg, ((var, exp), ...)): Fraction}."""
    if text == "0":
        return {}
    parts = _SEP.split(text)
    first = parts[0]
    signed = [(-1, first[1:]) if first.startswith("-") else (1, first)]
    signed += [(1 if s == "+" else -1, t) for s, t in zip(parts[1::2], parts[2::2])]
    out: dict = {}
    for sign, term in signed:
        coeff = Fraction(sign)
        deg_b = deg_a = 0
        variables: dict = {}
        for factor in term.split("*"):
            base, _, exp = factor.partition("^")
            e = int(exp) if exp else 1
            if base == "b":
                deg_b += e
            elif base == "a":
                deg_a += e
            elif base[:2] in ("x[", "t["):
                variables[base] = variables.get(base, 0) + e
            else:
                coeff *= Fraction(base)
        key = (deg_b, deg_a, tuple(sorted(variables.items())))
        total = out.get(key, 0) + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def _pairs(variables: tuple) -> list:
    out = []
    for var, _ in variables:
        match = _PAIR.fullmatch(var)
        if not match:
            raise ValueError(f"not an x-variable: {var}")
        out.append((int(match[1]), int(match[2])))
    return out


def has_path(variables: tuple) -> bool:
    pairs = _pairs(variables)
    ends = {j for _, j in pairs}
    return any(i in ends for i, _ in pairs)


def has_fork(variables: tuple) -> bool:
    rows = [i for i, _ in _pairs(variables)]
    return len(rows) != len(set(rows))


def d_image_of(terms: dict) -> dict:
    """Independent d-image: x[i,j] -> t[i] on parsed terms."""
    out: dict = {}
    for (deg_b, deg_a, variables), coeff in terms.items():
        t_exps: dict = {}
        for (i, _), (_, e) in zip(_pairs(variables), variables):
            t_exps[f"t[{i}]"] = t_exps.get(f"t[{i}]", 0) + e
        key = (deg_b, deg_a, tuple(sorted(t_exps.items())))
        total = out.get(key, 0) + coeff
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def forkless_counts(n: int, max_degree: int) -> list:
    """Forkless monomials per degree, by rows: row i is empty or puts an
    exponent e >= 1 on one of its n - i columns."""
    counts = [1] + [0] * max_degree
    for row in range(1, n):
        width = n - row
        counts = [
            c + width * sum(counts[:d]) for d, c in enumerate(counts)
        ]
    return counts


def check_pathless(job, out: str) -> str | None:
    lines = out.splitlines()
    if "--strategy" in job.argv and job.argv[job.argv.index("--strategy") + 1] == "random":
        seed = job.argv[job.argv.index("--seed") + 1]
        if not lines or lines[0] != f"seed: {seed}":
            return "random game does not print its seed first"
        lines = lines[1:]
    if len(lines) < 2 or not lines[-1].startswith("d-image: "):
        return "missing result or d-image line"
    trace, result, image = lines[:-2], lines[-2], lines[-1][len("d-image: "):]
    if not trace or not all(_TRACE_LINE.fullmatch(line) for line in trace):
        return "trace is empty or malformed"
    terms = parse_terms(result)
    if any(has_path(variables) for _, _, variables in terms):
        return "result is not pathless"
    if d_image_of(terms) != parse_terms(image):
        return "printed d-image is not the d-image of the result"
    return None


def check_pathless_companion(job, out: str, lead_out: str) -> str | None:
    return check_pathless(job, out) or (
        None if out.splitlines()[-1] == lead_out.splitlines()[-1]
        else "d-image differs from the input in the same coset"
    )


def check_replay(job, out: str, lead_out: str) -> str | None:
    expected = "".join(
        line for line in lead_out.splitlines(keepends=True) if not line.startswith("seed: ")
    )
    return None if out == expected else "replay does not reproduce the game"


def check_forkless(job, out: str) -> str | None:
    lines = out.splitlines()
    if len(lines) != 1:
        return "expected one result line"
    if any(has_fork(variables) for _, _, variables in parse_terms(lines[0])):
        return "result is not forkless"
    return None


def check_forkless_companion(job, out: str, lead_out: str) -> str | None:
    return check_forkless(job, out) or (
        None if out == lead_out else "normal form differs from the input in the same coset"
    )


def check_verify(job, out: str) -> str | None:
    which = job.argv[3]
    lines = out.splitlines()
    return None if lines and lines[-1] == f"verify {which}: PASS" else "verify did not PASS"


def check_count(job, out: str) -> str | None:
    n = int(job.argv[job.argv.index("--n") + 1])
    max_degree = int(job.argv[job.argv.index("--max-degree") + 1])
    lines = out.splitlines()
    if not lines or lines[-1] != "generating function agrees":
        return "generating function check missing"
    expected = [f"{d},{c}" for d, c in enumerate(forkless_counts(n, max_degree))]
    return None if lines[:-1] == expected else "counts are wrong"


def check_basis(job, out: str) -> str | None:
    n = int(job.argv[job.argv.index("--n") + 1])
    degree = int(job.argv[job.argv.index("--degree") + 1])
    lines = out.splitlines()
    if len(lines) != forkless_counts(n, degree)[degree] or len(set(lines)) != len(lines):
        return "wrong number of forkless monomials"
    for line in lines:
        terms = parse_terms(line)
        if len(terms) != 1:
            return f"not a monomial: {line}"
        (deg_b, deg_a, variables), coeff = next(iter(terms.items()))
        if coeff != 1 or deg_b or deg_a or has_fork(variables):
            return f"not a forkless monomial: {line}"
        if sum(e for _, e in variables) != degree or any(j > n for _, j in _pairs(variables)):
            return f"wrong degree or range: {line}"
    return None


SINGLE = {
    "pathless": check_pathless,
    "forkless": check_forkless,
    "verify": check_verify,
    "count": check_count,
    "basis": check_basis,
}
AGAINST_LEAD = {
    "pathless_companion": check_pathless_companion,
    "replay": check_replay,
    "forkless_companion": check_forkless_companion,
}


def check(job, rc: int, out: str, lead_out: str | None) -> str | None:
    """None when the job's exit code and output are right, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        if job.check in AGAINST_LEAD:
            return AGAINST_LEAD[job.check](job, out, lead_out or "")
        return SINGLE[job.check](job, out)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc}"
