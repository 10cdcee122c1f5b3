"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(rec, name, start, end, parent):
    rec.name.append(rec.names.index(name))
    rec.parent.append(parent)
    rec.job.append(0)
    rec.start.append(start)
    rec.end.append(end)
    return len(rec) - 1


def test_self_time_of_synthetic_tree():
    rec = spans.Recorder(["cli.main", "groebner.nf", "poly.xpoly_arith"])
    root = _span(rec, "cli.main", 0.0, 10.0, -1)
    nf = _span(rec, "groebner.nf", 1.0, 7.0, root)
    _span(rec, "poly.xpoly_arith", 2.0, 3.0, nf)
    _span(rec, "poly.xpoly_arith", 4.0, 4.5, nf)
    _span(rec, "poly.xpoly_arith", 8.0, 9.0, root)
    _span(rec, "cli.main", 11.0, 12.0, -1)
    assert rec.self_times() == [3.0, 4.5, 1.0, 0.5, 1.0, 1.0]
    assert rec.layer_totals() == {
        "cli.main": (2, 4.0), "groebner.nf": (1, 4.5), "poly.xpoly_arith": (3, 2.5),
    }
    assert rec.covered() == 11.0
    assert rec.covered(skip=("cli.main",)) == 7.0


def test_unattributed_time_shows_under_the_root():
    rec = spans.Recorder(["cli.main", "groebner.nf", "poly.xpoly_arith"])
    root = _span(rec, "cli.main", 0.0, 10.0, -1)
    _span(rec, "poly.xpoly_arith", 1.0, 2.0, root)
    nf = _span(rec, "groebner.nf", 3.0, 6.0, root)
    _span(rec, "poly.xpoly_arith", 4.0, 5.0, nf)
    # Only 4 of the root's 10 seconds lie in a layer below it.
    assert rec.covered(skip=("cli.main",)) == 4.0
    assert rec.covered() == 10.0


def test_folded_self_credits_ring_spans_to_their_caller():
    rec = spans.Recorder(["cli.main", "groebner.nf", "ring.coeff_mul", "ring.coeff_addsub"])
    root = _span(rec, "cli.main", 0.0, 10.0, -1)
    nf = _span(rec, "groebner.nf", 1.0, 7.0, root)
    mul = _span(rec, "ring.coeff_mul", 2.0, 4.0, nf)
    _span(rec, "ring.coeff_addsub", 2.5, 3.0, mul)
    _span(rec, "ring.coeff_mul", 8.0, 9.0, root)
    folded = rec.folded_self(("ring.coeff_mul", "ring.coeff_addsub"))
    assert folded == {"cli.main": 4.0, "groebner.nf": 6.0}


def test_wrapped_calls_nest_and_unwrap():
    import subdivalg.groebner as groebner

    original = groebner.normal_form
    rec = spans.Recorder(list(spans.LAYERS))
    patches = spans.Patches(rec, ["groebner.nf", "groebner.step", "groebner.basis"])
    try:
        basis = groebner.generate_basis(3)
        groebner.normal_form(basis.elements[0].poly, basis)
    finally:
        patches.undo()
    assert groebner.normal_form is original
    totals = rec.layer_totals()
    assert totals["groebner.basis"][0] == 1
    assert totals["groebner.nf"][0] == 1
    assert totals["groebner.step"][0] >= 2
    nf_index = rec.names.index("groebner.nf")
    nf_span = list(rec.name).index(nf_index)
    step_parents = {p for n, p in zip(rec.name, rec.parent) if rec.names[n] == "groebner.step"}
    assert step_parents == {nf_span}
    assert all(t >= 0 for t in rec.self_times())


def test_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 90) == 90.0
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.samples_beyond(run.MIN_JOBS - 1, run.TAIL_Q) < run.TAIL_SAMPLES
    for count in range(run.MIN_JOBS, 1000):
        assert run.samples_beyond(count, run.TAIL_Q) >= run.TAIL_SAMPLES


def _argvs(workload, seed, rounds=2):
    stream = jobs.Stream(workload, seed, "scripts")
    return [job.argv for r in range(rounds) for group in stream.round(r) for job in group]


def test_generator_is_seeded():
    for workload in jobs.WORKLOADS:
        first = _argvs(workload, 1)
        assert first == _argvs(workload, 1)
        assert first != _argvs(workload, 2)
        # No input repeats, except in the replay of a trace.
        unique = [a for a in first if "script" not in a]
        assert len(set(unique)) == len(unique)


def test_timed_stream_avoids_the_golden_round():
    for workload in jobs.WORKLOADS:
        golden = jobs.Stream(workload, "golden", "scripts")
        golden.round(0)
        stream = jobs.Stream(workload, 1, "scripts", avoid=golden.seen)
        argvs = {job.argv for r in range(3) for group in stream.round(r) for job in group}
        assert not argvs & golden.seen


def test_rounds_have_fixed_mix():
    for workload in jobs.WORKLOADS:
        stream = jobs.Stream(workload, 3, "scripts")
        mixes = [sorted(job.check for group in stream.round(r) for job in group) for r in range(3)]
        assert mixes[0] == mixes[1] == mixes[2]


class _FakeCli:
    """The real command line, except that one job prints a wrong answer
    and another one raises."""

    def __init__(self, real, corrupt_argv, crash_argv):
        self.real = real
        self.corrupt_argv = corrupt_argv
        self.crash_argv = crash_argv

    def main(self, argv):
        if tuple(argv) == self.corrupt_argv:
            print("verify groebner: FAIL")
            return 0
        if tuple(argv) == self.crash_argv:
            raise RuntimeError("engine defect")
        return self.real.main(argv)


def test_corrupted_output_is_counted_not_dropped(tmp_path):
    stream = jobs.Stream("forkless", 5, str(tmp_path))
    groups = [stream.verify("groebner", 4, kind) for kind in ("int", "rat", "sym")]
    loop = run.Loop()
    loop.cli = _FakeCli(loop.cli, groups[1][0].argv, groups[2][0].argv)
    loop.run_round(groups)
    assert (loop.attempted, loop.failed) == (3, 2)
    assert len(loop.seconds) == 3
    assert loop.reasons[0].startswith("verify did not PASS")
    assert loop.reasons[1].startswith("exit code 1")


def test_job_times_are_scaled_to_the_reference_speed(tmp_path, monkeypatch):
    # A machine at half the reference speed: scaled times are half the wall.
    monkeypatch.setattr(run.speed, "time_reference", lambda: 2 * run.speed.REF_SECONDS)
    stream = jobs.Stream("forkless", 6, str(tmp_path))
    loop = run.Loop()
    loop.run_round([stream.verify("groebner", 4, "int"), stream.verify("groebner", 4, "rat")])
    assert len(loop.wall) == len(loop.seconds) == 2
    for wall, scaled in zip(loop.wall, loop.seconds):
        assert abs(scaled - wall / 2) < 1e-12


def test_golden_mismatch_is_a_failure(tmp_path):
    stream = jobs.Stream("forkless", 5, str(tmp_path))
    groups = [stream.verify("groebner", 4, "int")]
    loop = run.Loop()
    loop.run_round(groups, golden=["0" * 16])
    assert (loop.attempted, loop.failed) == (1, 1)


def test_checks_reject_wrong_results():
    job = jobs.Job(("reduce", "--n", "3", "--mode", "pathless", "--strategy", "first",
                    "--trace", "--d-image", "x[1,2]*x[2,3]"), "pathless")
    good = (
        "m=x[1,2]*x[2,3] t=(1,2,3)\n"
        "x[1,2]*x[1,3] + x[1,3]*x[2,3] + b*x[1,3] + a\n"
        "d-image: t[1]^2 + t[1]*t[2] + b*t[1] + a\n"
    )
    assert checks.check(job, 0, good, None) is None
    assert checks.check(job, 2, good, None) == "exit code 2"
    with_path = good.replace("+ a\n", "+ a + x[1,2]*x[2,3]\n", 1)
    assert checks.check(job, 0, with_path, None) == "result is not pathless"
    wrong_image = good.replace("b*t[1]", "2*b*t[1]")
    assert "d-image" in checks.check(job, 0, wrong_image, None)
    replay = jobs.Job(job.argv, "replay")
    assert checks.check(replay, 0, good, "seed: 4\n" + good) is None
    assert checks.check(replay, 0, good.replace("+ a", "- a"), good) is not None


def test_forkless_counts_match_known_values():
    # (1 + t)(1 + 2t) / (1 - t)^3 = 1 + 6t + 17t^2 + 34t^3 + ...
    assert checks.forkless_counts(4, 3) == [1, 6, 17, 34]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == {**run.END_TO_END, **run.PER_LAYER}[metric["name"]]
