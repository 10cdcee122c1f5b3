"""The golden `verify` output: exit code and text stdout stay byte-identical.

tests/data/verify_golden.json holds one `subdivalg verify` command line per
sweep and parameter setting, with its exit code and stdout, recorded by
tests/record_verify_golden.py.
"""

import json
from pathlib import Path

import pytest

from record_verify_golden import PARAMS, SWEEP_ARGS, run

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data" / "verify_golden.json").read_text(encoding="utf-8")
)


def test_golden_covers_every_sweep():
    sweeps = {entry["argv"][3] for entry in GOLDEN}
    assert sweeps == {"groebner", "t-unique", "a-kills-j", "ed-ba", "symmetry", "e-inverse"}
    assert len(GOLDEN) == len(SWEEP_ARGS) * len(PARAMS)


@pytest.mark.parametrize("index", range(len(GOLDEN)))
def test_verify_golden_entry(index):
    entry = GOLDEN[index]
    assert run(entry["argv"]) == (entry["exit"], entry["stdout"])
