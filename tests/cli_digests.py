"""The command line's byte-identity check: each row of DIGESTS runs one
`subdivalg` command in a fresh interpreter under a time limit, and passes
when the command exits 0 and the sha256 of its stdout is the recorded one.
Then a random pathless game at n=11 is replayed from its own trace (see
`check_replay`).

    PYTHONPATH=src python3 [-O] tests/cli_digests.py

Under -O each command runs under -O too.  Every row runs, one line each
with its seconds; a mismatch prints the actual digest, so a new row can be
recorded from this script's own output.  The exit code is 1 if any row or
the replay failed, timed out or exited non-zero.  The time limits catch a
slow engine as well as a hung one, and a digest pins every byte a change
must keep.
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"

PATH8 = "x[1,2]*x[2,3]*x[3,4]*x[4,5]*x[5,6]*x[6,7]*x[7,8]"
PATH9 = PATH8 + "*x[8,9]"
GAME7 = "x[1,2]*x[2,3]*x[3,4]*x[4,5]*x[5,6]*x[6,7]"
FORK6 = "x[1,2]^2*x[1,3]^2*x[1,4]^2*x[1,5]^2*x[1,6]^2"
FORK6_MIXED = FORK6 + " - 3*x[1,2]*x[1,3]*x[1,4]*x[2,5]*x[2,6]*x[3,4]"
FORK6_FRACTIONS = "5/4*" + FORK6 + " - 7/3*b*x[1,2]*x[1,3]*x[1,4]*x[2,5]*x[2,6]*x[3,4]"
D_IMAGE6_FRACTIONS = (
    FORK6_FRACTIONS + " + 3/2*a*x[2,3]*x[2,4] - 1/2*x[2,4]^2 + 5/2*a*x[3,5] - 3*b*x[4,6]"
    " + 2/3*x[2,5] - 2/3*x[2,6] - 1/6"
)
ED_BA6 = "verify --n 6 ed-ba --max-degree 4 --w-order 4".split()
A_KILLS_J7 = "verify --n 7 a-kills-j --samples 200".split()

# (name, time limit in s, sha256 of stdout, argv after "subdivalg")
DIGESTS = [
    # The path game at n=8; digest from the engine that rescanned every term on each step.
    ("path8", 120, "79def15c511a31315d97082ae253b39b40669f9fffa3ca3b67e78c25462d336a",
     "reduce --n 8 --mode pathless".split() + [PATH8]),
    # A fork-rich normal form at n=7; digest from the engine that built a polynomial per step.
    ("forkless7", 30, "6724efca4957f9c9189a3b34930ceaa33eb5eb3f84f08e19b479f9e965e8325f",
     "reduce --n 7 --mode forkless".split()
     + ["x[1,2]^2*x[1,3]^2*x[1,4]^2*x[1,5]^2*x[1,6]^2*x[1,7]^2"]),
    # The square e.d = b.a; digest from the sweep that expanded each monomial with Fractions.
    ("edba6", 30, "1fb913eec4bb2d5eab52cb333d04643c6e5c725f806d648742f9dd25e7d8ff9c", ED_BA6),
    # int/Fraction normalisation; digest from the arithmetic that re-normalised every result.
    ("edba6rat", 30, "43e62d90c321d66b90f9ac787faf91476dc9ec44a637d7fc498bd45027c4ec94",
     "verify --n 6 ed-ba --max-degree 3 --w-order 3 --beta 1/3 --alpha 2".split()),
    # The integral point at the largest size; the output names no parameter: the symbolic digest.
    ("edba6rat4", 30, "1fb913eec4bb2d5eab52cb333d04643c6e5c725f806d648742f9dd25e7d8ff9c",
     ED_BA6 + "--beta 1/3 --alpha 2/5".split()),
    # Trace and d-image text with a Fraction; digest from the formatter that built factor lists.
    ("game7trace", 30, "05038ced1e59779dfc428cddf92af15a1ed241fbcd05087c6f9ba71e4cf0a3da",
     "reduce --n 7 --mode pathless --strategy random --seed 3 --trace --d-image --beta 1/3".split()
     + ["3/2*" + GAME7]),
    # A sign slip in the specialised basis; digest from the basis built by polynomial arithmetic.
    ("forkless6rat", 30, "b93a16aaeabf6e2b24123fb4988784cf8f8e5eaadb0eb6ae2006b2a44635a1bb",
     "reduce --n 6 --mode forkless --beta 2/3 --alpha 3/2".split() + [FORK6_FRACTIONS]),
    # Plain int coefficients print as Coeffs did; digest from the engine that wrapped every one.
    ("game7int", 30, "8aa7980b854b0eb24c2e2257a6c45ab1ab6d8e2afc5910c99b777568560cfaf1",
     "reduce --n 7 --mode pathless --strategy last --trace --d-image --beta -3 --alpha 2".split()
     + ["2*" + GAME7 + " - 5*x[1,3]*x[3,5]*x[5,7]"]),
    # Each of ~3,000 draws shows; digest from the engine that walked the reducible monomials.
    ("random8trace", 60, "a5e8a3d3340ff751e8d038a5acb8777a65a645f5ce7dbf374904dde2e95f4a57",
     "reduce --n 8 --mode pathless --strategy random --seed 1 --trace".split() + [PATH8]),
    # A wrong step monomial or s-polynomial; digest from s-polynomials built by arithmetic.
    ("groebner12rat", 60, "b44ade7621b4b21086899b1435b7697bd075600d82696b81266be444544d6ea7",
     "verify --n 12 groebner --beta 1/3 --alpha -2".split()),
    # Both symbols left, so every overlap reduces through Coeff; the rational row's digest.
    ("groebner12sym", 30, "b44ade7621b4b21086899b1435b7697bd075600d82696b81266be444544d6ea7",
     "verify --n 12 groebner".split()),
    # Zero-coefficient terms that must drop at an overlap; the rational row's digest.
    ("groebner12zero", 30, "b44ade7621b4b21086899b1435b7697bd075600d82696b81266be444544d6ea7",
     "verify --n 12 groebner --beta 0 --alpha 0".split()),
    # A step at b=a=0 writes coefficient 0; digest from the engine with one kernel per reduction.
    ("game7zero", 30, "aa0b470e4045eacee4742d66859106e5121d132198429c47aa4f08c08320e363",
     "reduce --n 7 --mode pathless --strategy random --seed 2 --trace --d-image".split()
     + "--beta 0 --alpha 0".split() + [GAME7 + " + 2*x[1,3]*x[3,5]*x[5,7]"]),
    # A step at b=a=0 writes coefficient 0; digest from the engine with one kernel per reduction.
    ("forkless6zero", 30, "293321c038272c4576b0d20b8b54383eada10e59792a1f1d9870db98fc54d01a",
     "reduce --n 6 --mode forkless --beta 0 --alpha 0".split() + [FORK6_MIXED]),
    # The sign of -b in the shared tail; digest from the engine that negated each stored element.
    ("forkless6int", 30, "0e763f073475106b2b24810edff176a4087c5b4d5e82b0df281fee3767386acf",
     "reduce --n 6 --mode forkless --beta -3 --alpha 2".split() + [FORK6_MIXED]),
    # The e left inverse; digest from the ring map that copied the running total per term.
    ("einverse7rat", 30, "f321bdef19830ca697371eb970b2b0e2bf17a2656b18275e6f612a025e81150c",
     "verify --n 7 e-inverse --samples 2000 --beta 1/3 --alpha -2".split()),
    # Ints substituted at an integer point; the rational row's digest, from Fraction powers.
    ("einverse7int", 30, "f321bdef19830ca697371eb970b2b0e2bf17a2656b18275e6f612a025e81150c",
     "verify --n 7 e-inverse --samples 2000 --beta 3 --alpha -2".split()),
    # Kept mass groups at an integer point; the symbolic digest, from series grouped per product.
    ("edba6int", 30, "1fb913eec4bb2d5eab52cb333d04643c6e5c725f806d648742f9dd25e7d8ff9c",
     ED_BA6 + "--beta -3 --alpha 2".split()),
    # A killing J; digest from the fraction sum that lifted the numerator on every add.
    ("akillsj7rat", 30, "4ffd030252a13d77a06f6922d1ee3a5b59f9a5af95ad1bd57fcf46145108ca3e",
     A_KILLS_J7 + "--beta 1/3 --alpha -2".split()),
    # Flat keys, a number beside a symbol; the symbolic digest, checked against Coeff pairs.
    ("edba6b", 30, "1fb913eec4bb2d5eab52cb333d04643c6e5c725f806d648742f9dd25e7d8ff9c",
     ED_BA6 + "--beta 2".split()),
    # Flat keys, both parameters symbolic; the rational row's digest, checked against Coeff pairs.
    ("akillsj7", 30, "4ffd030252a13d77a06f6922d1ee3a5b59f9a5af95ad1bd57fcf46145108ca3e",
     A_KILLS_J7),
    # Flat keys led by the symbol b alone; the symbolic square's digest.
    ("edba6a", 30, "1fb913eec4bb2d5eab52cb333d04643c6e5c725f806d648742f9dd25e7d8ff9c",
     ED_BA6 + "--alpha 2".split()),
    # Flat keys led by the symbol a alone; the symbolic killing J's digest.
    ("akillsj7b", 30, "4ffd030252a13d77a06f6922d1ee3a5b59f9a5af95ad1bd57fcf46145108ca3e",
     A_KILLS_J7 + "--beta 2".split()),
    # Flat keys led by the symbol b alone; the symbolic killing J's digest.
    ("akillsj7a", 30, "4ffd030252a13d77a06f6922d1ee3a5b59f9a5af95ad1bd57fcf46145108ca3e",
     A_KILLS_J7 + "--alpha 2".split()),
    # Merges that cancel b; digest from the arithmetic that kept such a sum as a constant Coeff.
    ("game6cancel", 30, "c3d38d92905ff5b4c0a84c3e74fa28d0c4bb7ac6e613635d4278b65cca35504e",
     "reduce --n 6 --mode pathless --strategy random --seed 2 --trace --d-image --alpha 2".split()
     + ["x[1,2]*x[2,3]*x[3,4]*x[4,5]*x[5,6] + x[1,3]*x[3,4]*x[4,5]*x[5,6]"
        " - b*x[1,3]*x[3,4]*x[4,5]*x[5,6] - a*x[1,3]*x[3,5]*x[5,6]"]),
    # A rescaling factor per degree at L=15; digest from the engine that multiplied Fractions.
    ("game7mixed", 30, "ab95955c45de6f89c0ff726beeb0eb4763d656a20b86748d40b389618fc18e45",
     "reduce --n 7 --mode pathless --strategy random --seed 5 --trace --d-image --beta 1/3".split()
     + ["--alpha=-2/5", "3/2*" + GAME7 + " - 5/4*x[1,3]*x[3,5]*x[5,7]"
        " + 2/3*x[2,4]*x[4,6] - 7/2*x[1,2]*x[2,7]"]),
    # Fractions cleared, one inside a Coeff; digest from the engine that multiplied Fractions.
    ("forkless6sym", 30, "27aae4974ff186d6c85d80436471d46714f9bf541c062e816c95a57625bb3915",
     "reduce --n 6 --mode forkless".split() + [FORK6_FRACTIONS]),
    # L = 1 with b a Fraction, which the tail keeps; digest from the basis with an integral twin.
    ("forkless6half", 30, "909e10d6a854d2051d21848e2096519d7fa6da069a0ee28cbd01b28630bcfd15",
     "reduce --n 6 --mode forkless --beta 1/2".split() + [FORK6_FRACTIONS]),
    # L = 1 with a a Fraction, which the tail keeps; digest from the basis with an integral twin.
    ("forkless6alpha", 30, "a147a01b8d539473ca4d350e9e194009432796f0b8ca88925be6c0d7db5accd7",
     "reduce --n 6 --mode forkless --alpha 2/3".split() + [FORK6_FRACTIONS]),
    # 2,120 fraction images on one map at n=10; digest from the map built anew for each image.
    ("akillsj10", 30, "2f5a74fb556613787f5ce5986f8b5affda37c7e9d03b9d9f0a3d3202dd9fc575",
     "verify --n 10 a-kills-j --samples 2000 --seed 2".split()),
    # Shared content at the integral point; digest from the map built anew for each image.
    ("akillsj7rat2000", 30, "1577087f17dc3e7c4da736bb23f003da46ca396bf5b63ec8e0f91630e3b87f97",
     "verify --n 7 a-kills-j --samples 2000 --seed 4 --beta 1/3 --alpha 2/5".split()),
    # 14,594 steps: a trace that keeps a polynomial per step does not fit in memory.
    ("path9", 30, "1eb1e5a2ea49676f4e7103f8cb820eaa80328c42f1c51f4dfb52d6315f05e10e",
     "reduce --n 9 --mode pathless".split() + [PATH9]),
    # Values that merge, cancel and reach 1; digest from the d-image merged over Fractions.
    ("dimage6rat", 30, "56edd92e231da67de74102deccf9c2a75699bdd4bbfa270538bf3e51d094f0c1",
     "d-image --n 6 --beta 1/3 --alpha 2/5".split() + [D_IMAGE6_FRACTIONS]),
    # Both texts at L = 15 in JSON; digest from the result divided back before it was written.
    ("forkless6ratjson", 30, "1031608f9533d18344c5a67f6b0e93760b5fe5c09abde9f802d05ba3459d869b",
     "reduce --n 6 --mode forkless --json --d-image --beta 1/3 --alpha 2/5".split()
     + [FORK6_FRACTIONS]),
]


# The replayed game: two-digit indices and an exponent >= 10 in its trace.
GAME11 = "reduce --n 11 --mode pathless --trace --d-image --beta 1/3 --alpha 2".split()
GAME11_INPUT = "2*x[1,2]^10*x[2,10]*x[10,11] - b*x[3,10]^2*x[10,11] + 1/2*x[4,9]*x[9,11]*x[1,4]"
GAME11_RANDOM = GAME11 + "--strategy random --seed 4".split() + [GAME11_INPUT]
# The random game's stdout; digest from the engine that scanned a rational input twice.
GAME11_DIGEST = "dced1ef584ddef2947b06f45952a9da5e9a5cdcc2697dce8166719884b7d41b7"


def run(argv: list, limit: int) -> tuple:
    """Run `subdivalg argv` under limit seconds: (stdout, None) when it
    exits 0, else (None, why not)."""
    optimize = ["-O"] if sys.flags.optimize else []
    command = [sys.executable, *optimize, "-m", "subdivalg.cli", *argv]
    try:
        done = subprocess.run(
            command, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, timeout=limit
        )
    except subprocess.TimeoutExpired:
        return None, f"no exit within {limit} s"
    if done.returncode:
        error = done.stderr.decode(errors="replace").strip().rpartition("\n")[2]
        return None, f"exit code {done.returncode} {error}"
    return done.stdout, None


def digest_error(out: bytes, digest: str) -> Optional[str]:
    actual = hashlib.sha256(out).hexdigest()
    return None if actual == digest else f"sha256 {actual}"


def report(name: str, start: float, error: Optional[str]) -> tuple:
    head = f"{name} {time.perf_counter() - start:.2f} s"
    return error is None, (f"ok   {head}" if error is None else f"FAIL {head}: {error}")


def check(name: str, limit: int, digest: str, argv: list) -> tuple:
    """Run one row; returns (passed, the row's report line)."""
    start = time.perf_counter()
    out, error = run(argv, limit)
    return report(name, start, error or digest_error(out, digest))


def split_trace(out: bytes) -> tuple:
    """(script, expected) of a game's stdout: its m= lines, and the text a
    replay of them prints, every line but the seed line."""
    lines = out.decode().splitlines(keepends=True)
    script = "".join(line for line in lines if line.startswith("m="))
    return script, "".join(line for line in lines if not line.startswith("seed: ")).encode()


def replay_error(script: str, expected: bytes) -> Optional[str]:
    """Why GAME11 replayed from script with --strategy script does not
    print expected; None when it does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game11.script"
        path.write_text(script, encoding="utf-8")
        argv = GAME11 + ["--strategy", "script", "--script-file", str(path), GAME11_INPUT]
        out, error = run(argv, 30)
    if error is None and out != expected:
        error = "the replay's stdout differs from the game's without its seed line"
    return error


def check_replay() -> tuple:
    """The random game at n=11 prints the recorded digest, its trace holds
    a two-digit index and an exponent >= 10, and its m= lines, fed back as
    a script, print the same text once the seed line is dropped, so a
    trace reader that misreads such a line fails it.  Returns (passed,
    report line)."""
    start = time.perf_counter()
    out, error = run(GAME11_RANDOM, 30)
    error = error or digest_error(out, GAME11_DIGEST)
    if error is None:
        script, expected = split_trace(out)
        if not re.search(r"x\[[0-9]*,1[01]\]", script) or not re.search(r"\^1[0-9]", script):
            error = "the trace has no two-digit index or no exponent >= 10"
        else:
            error = replay_error(script, expected)
    return report("replay11", start, error)


def main() -> int:
    failed = 0
    for row in DIGESTS:
        passed, line = check(*row)
        print(line, flush=True)
        failed += not passed
    print(f"{len(DIGESTS) - failed} of {len(DIGESTS)} rows passed", flush=True)
    passed, line = check_replay()
    print(line)
    return 1 if failed or not passed else 0


if __name__ == "__main__":
    sys.exit(main())
