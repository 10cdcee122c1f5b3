"""Record the golden `verify` output in tests/data/verify_golden.json.

Each entry is one `subdivalg verify` command line, run through cli.main,
with its exit code and full text stdout.  The cases cover all six sweeps,
each with b and a symbolic, at b=1 a=0, and at b=1/3 a=2, at sizes that
run in well under a second.  tests/test_verify_golden.py checks every
entry byte for byte.  The file pins today's output: re-record it only when
a change of output is intended.

    PYTHONPATH=src python3 tests/record_verify_golden.py [OUT]
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from subdivalg import cli

SWEEP_ARGS = [
    ["--n", "4", "groebner"],
    ["--n", "4", "t-unique", "--trials", "12", "--strategies", "3",
     "--max-deg", "4", "--max-terms", "3", "--seed", "3"],
    ["--n", "4", "a-kills-j", "--samples", "6", "--seed", "5"],
    ["--n", "3", "ed-ba", "--max-degree", "3", "--w-order", "3"],
    ["--n", "4", "symmetry", "--samples", "2", "--seed", "7"],
    ["--n", "4", "e-inverse", "--samples", "20", "--seed", "11"],
]
PARAMS = [[], ["--beta", "1", "--alpha", "0"], ["--beta", "1/3", "--alpha", "2"]]
DEFAULT_OUT = Path(__file__).resolve().parent / "data" / "verify_golden.json"


def run(argv: list) -> tuple:
    """Exit code and captured stdout of cli.main(argv)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def record() -> list:
    entries = []
    for sweep in SWEEP_ARGS:
        for params in PARAMS:
            argv = ["verify", *sweep, *params]
            code, stdout = run(argv)
            entries.append({"argv": argv, "exit": code, "stdout": stdout})
    return entries


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT
    out.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
