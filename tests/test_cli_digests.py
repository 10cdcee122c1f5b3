"""The table of tests/cli_digests.py, the workflow step that runs it, one
row run through the runner's own per-row check, and its n=11 replay."""

import re
from pathlib import Path

import cli_digests
from subdivalg import cli

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_table_rows_are_well_formed():
    names = [name for name, _, _, _ in cli_digests.DIGESTS]
    assert len(names) == len(set(names))
    for name, limit, digest, argv in cli_digests.DIGESTS:
        assert re.fullmatch(r"[0-9a-f]{64}", digest), name
        assert 1 <= limit <= 120, name
        cli.build_parser().parse_args(argv)


def test_workflow_runs_the_table_and_no_digest_step():
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "tests/cli_digests.py" in text
    assert "sha256sum" not in text
    # the replay is the runner's: no step feeds a script back by hand
    assert "--script-file" not in text


def test_a_row_passes_and_fails_on_one_changed_digest_character():
    [row] = [row for row in cli_digests.DIGESTS if row[0] == "game7int"]
    name, limit, digest, argv = row
    passed, line = cli_digests.check(*row)
    assert passed, line
    wrong = ("0" if digest[0] != "0" else "1") + digest[1:]
    passed, line = cli_digests.check(name, limit, wrong, argv)
    assert not passed
    assert line.startswith("FAIL game7int") and digest in line


def test_the_replay_passes_and_fails_on_one_changed_move():
    passed, line = cli_digests.check_replay()
    assert passed, line
    out, error = cli_digests.run(cli_digests.GAME11_RANDOM, 30)
    assert error is None
    script, expected = cli_digests.split_trace(out)
    first = "m=x[1,2]^10*x[2,10]*x[10,11] t=(2,10,11)\n"
    assert script.startswith(first)
    # the other triple of the same monomial: a legal move, but not the game's
    changed = first.replace("t=(2,10,11)", "t=(1,2,10)") + script[len(first):]
    error = cli_digests.replay_error(changed, expected)
    assert error is not None
