"""Benchmark of the subdivalg command line, end to end and per layer.

    python3 bench/run.py --workload game|forkless|series --seed N \
        --seconds S --trace 0|1

Run it from anywhere; it imports the package from src/ of the checkout it
lives in.  Jobs run in this process, one thread, one client in a closed
loop: each job is an argv passed to subdivalg.cli.main, with stdout
captured, and the next job starts when the previous one has returned.
Set-up time is sampled in fresh processes.  Jobs come
from jobs.py, seeded by --seed; checks.py checks every output after the
round it ran in, outside the timed region.

Before timing, every run replays a fixed golden round (its own seed) as
warm-up and compares the sha256 of each job's stdout with golden.json, so
any change to output text counts as a failed job.  The timed stream
avoids the golden round's inputs.

--trace 0 measures whole rounds until --seconds have passed and at least
MIN_JOBS jobs ran, and reports the end-to-end metrics.  Times of jobs
and of set-up are scaled to the speed of the machine, measured beside
each of them; see speed.py.  --trace 1 runs a
fixed number of rounds, so that its counts repeat exactly for a seed, each
in three passes: untraced, with every layer but ring wrapped in spans, and
with ring wrapped as well.  It reports per-layer counts and self times,
the latter scaled by the speed measured over their pass; ring numbers
come from the third pass and all others from the second, and
the spans of both are written to .bench_out/.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = "golden"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

TAIL_Q = 90
TAIL_SAMPLES = 10
MIN_JOBS = 100  # the least with TAIL_SAMPLES jobs beyond the 90th percentile
TRACE_ROUNDS = 3
PASSES = ("plain", "layers", "ring")
SETUP_PER_ROUND = 2

# Prints the set-up seconds, then the reference's seconds timed in the
# same fresh process; speed.py is imported only after set-up, as it needs
# modules that subdivalg imports too.
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import subdivalg.cli\n"
    "subdivalg.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "import speed\n"
    "speed.time_reference()\n"
    "print(repr(t), repr(speed.time_reference()))\n"
)

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_CALLS_AND_SELF = [
    "ring.coeff_mul", "ring.coeff_addsub", "poly.xpoly_arith", "poly.tpoly_arith",
]
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in _CALLS_AND_SELF
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "poly.terms_built": "count",
    "poly.d_image.self_s": "s",
    "poly.parse.self_s": "s",
    "poly.format.self_s": "s",
    "rewrite.steps": "count",
    "rewrite.step.self_s": "s",
    "rewrite.scans": "count",
    "rewrite.scan.self_s": "s",
    "rewrite.scans_per_step": "ratio",
    "rewrite.loop.self_s": "s",
    "rewrite.peak_terms": "count",
    "groebner.steps": "count",
    "groebner.step.self_s": "s",
    "groebner.nf.calls": "count",
    "groebner.nf.self_s": "s",
    "groebner.basis.self_s": "s",
    "groebner.buchberger.self_s": "s",
    "series.a_image.self_s": "s",
    "series.ratfrac_add.calls": "count",
    "series.ratfrac_add.self_s": "s",
    "series.a_s_expand.self_s": "s",
    "series.trunc_mul.calls": "count",
    "series.trunc_mul.self_s": "s",
    "series.e_image.self_s": "s",
    "series.tw_mul.calls": "count",
    "series.tw_mul.self_s": "s",
    "series.b_map.self_s": "s",
    "algebra.apply_perm.self_s": "s",
    "algebra.enumerate_forkless.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "trace.ring_parent_inflation": "ratio",
}


def percentile(values: list, q: int) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    rank = (q * len(ordered) + 99) // 100
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: int) -> int:
    return count - (q * count + 99) // 100


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Loop:
    """Runs job groups through cli.main and keeps what the metrics need."""

    def __init__(self, recorder: spans.Recorder | None = None):
        import subdivalg.cli

        self.cli = subdivalg.cli
        self.recorder = recorder
        self.seconds: list = []  # scaled to the reference speed
        self.wall: list = []
        self.jobs_run = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def run_job(self, argv: tuple) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        if self.recorder is not None:
            self.recorder.current_job = self.jobs_run
        self.jobs_run += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(list(argv))
            except Exception:
                # The command line would exit with code 1 and a traceback;
                # count the job as failed and go on.
                traceback.print_exc()
                rc = 1
            elapsed = perf_counter() - start
        return rc, out.getvalue(), elapsed

    def run_round(self, groups: list, timed: bool = True, golden: list | None = None) -> list:
        """Run every job, then check the round; returns the stdout digests.

        A timed job's seconds are scaled by the reference timed before and
        after it.  With golden, a job whose stdout digest differs from its
        entry fails.
        """
        done = []
        ref = speed.time_reference() if timed else None
        for group in groups:
            lead_out = None
            for job in group:
                if job.script_file:
                    trace = [ln for ln in (lead_out or "").splitlines(True) if ln.startswith("m=")]
                    Path(job.script_file).write_text("".join(trace), encoding="utf-8")
                rc, out, elapsed = self.run_job(job.argv)
                if job.script_file:
                    os.remove(job.script_file)
                if timed:
                    ref_after = speed.time_reference()
                    self.wall.append(elapsed)
                    self.seconds.append(elapsed * speed.REF_SECONDS * 2 / (ref + ref_after))
                    ref = ref_after
                done.append((job, rc, out, lead_out))
                if lead_out is None:
                    lead_out = out
        digests = [digest(out) for _, _, out, _ in done]
        for i, (job, rc, out, lead_out) in enumerate(done):
            reason = checks.check(job, rc, out, lead_out)
            if reason is None and golden is not None and golden[i:i + 1] != digests[i:i + 1]:
                reason = "stdout differs from golden.json"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.reasons.append(f"{reason}: {' '.join(job.argv)[:160]}")
        return digests

    def golden(self, workload: str, expected: list | None) -> tuple:
        """Run the golden round untimed, checked against expected digests.
        Returns the digests and the argvs of the round."""
        stream = jobs.Stream(workload, GOLDEN_SEED, str(OUT))
        return self.run_round(stream.round(0), timed=False, golden=expected), stream.seen


def load_golden(workload: str) -> list:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]


def setup_sample() -> float:
    """Seconds to import subdivalg and build the parser in a fresh process,
    scaled to the reference speed."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE)))),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    seconds, ref = map(float, done.stdout.split())
    return seconds * speed.REF_SECONDS / ref


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    """Whole rounds until `seconds` have passed and MIN_JOBS jobs ran.

    Set-up is sampled between rounds, spread over the run like the jobs.
    """
    setup_sample()  # may compile bytecode
    setup = [setup_sample()]
    loop = Loop()
    _, golden_argvs = loop.golden(workload, load_golden(workload))
    stream = jobs.Stream(workload, seed, str(OUT), avoid=golden_argvs)
    rounds = 0
    start = perf_counter()
    for groups in stream.rounds():
        loop.run_round(groups)
        rounds += 1
        setup += [setup_sample() for _ in range(SETUP_PER_ROUND)]
        if perf_counter() - start >= seconds and len(loop.seconds) >= MIN_JOBS:
            break
    times = loop.seconds
    values = {
        "jobs_per_s": len(times) / sum(times),
        "job_s.p50": percentile(times, 50),
        "job_s.p90": percentile(times, TAIL_Q),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {workload}, seed {seed}: {rounds} rounds, {len(times)} timed jobs "
          f"in {sum(times):.2f} s scaled, {sum(loop.wall):.2f} s wall; "
          f"{samples_beyond(len(times), TAIL_Q)} beyond p{TAIL_Q}, {len(setup)} set-up samples")
    print(f"unscaled: jobs_per_s {len(times) / sum(loop.wall):.6g}, job_s.p50 "
          f"{percentile(loop.wall, 50):.6g}, job_s.p90 {percentile(loop.wall, TAIL_Q):.6g}")
    print(f"failed_frac {loop.failed / loop.attempted:.6g} 1 "
          f"({loop.failed} of {loop.attempted} attempted, golden round included)")
    return loop, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(workload: str, seed: int) -> tuple:
    """TRACE_ROUNDS rounds, each run in three passes: untraced, with every
    layer but ring wrapped in spans, and with ring wrapped too.  The passes
    take turns round by round, in rotating order, so that drift in the
    machine's speed hits all three alike."""
    loops = {which: Loop(spans.Recorder(list(spans.LAYERS))) for which in PASSES}
    _, golden_argvs = loops["plain"].golden(workload, load_golden(workload))
    stream = jobs.Stream(workload, seed, str(OUT), avoid=golden_argvs)
    for r in range(TRACE_ROUNDS):
        groups = stream.round(r)
        for i in range(len(PASSES)):
            which = PASSES[(i + r) % len(PASSES)]
            layers = [] if which == "plain" else [
                name for name in spans.LAYERS if which == "ring" or name not in spans.RING
            ]
            patches = spans.Patches(loops[which].recorder, layers)
            try:
                loops[which].run_round(groups)
            finally:
                patches.undo()
    for which in ("layers", "ring"):
        loops[which].recorder.write(str(OUT / f"spans-{workload}-{which}"))
    main = loops["layers"]
    scaled = {which: sum(loops[which].seconds) for which in PASSES}
    wall = {which: sum(loops[which].wall) for which in PASSES}
    # Self times are scaled to the reference speed by the speed of their pass.
    totals = {
        which: {name: (calls, self_s * scaled[which] / wall[which])
                for name, (calls, self_s) in loops[which].recorder.layer_totals().items()}
        for which in PASSES
    }
    values = {}
    for name in spans.LAYERS:
        calls, self_s = totals["ring" if name in spans.RING else "layers"][name]
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update(main.recorder.counters)
    values["rewrite.steps"] = values["rewrite.step.calls"]
    values["rewrite.scans"] = values["rewrite.scan.calls"]
    values["rewrite.scans_per_step"] = values["rewrite.scans"] / max(values["rewrite.steps"], 1)
    values["groebner.steps"] = values["groebner.step.calls"]
    values["trace.overhead_frac"] = scaled["layers"] / scaled["plain"] - 1
    # cli.main encloses every job; what only it covers is unattributed.
    values["trace.unattributed_frac"] = 1 - main.recorder.covered(skip=("cli.main",)) / wall["layers"]
    # How wrapping Coeff inflates the self time of the engine layers that
    # call it, with the Coeff work they call counted in both passes.
    parents = [name for name in spans.LAYERS if name not in spans.RING and name != "cli.main"]
    engine_s = {
        which: sum(loops[which].recorder.folded_self(spans.RING)[name] for name in parents)
        * scaled[which] / wall[which]
        for which in ("layers", "ring")
    }
    values["trace.ring_parent_inflation"] = engine_s["ring"] / engine_s["layers"] - 1
    print(f"workload {workload}, seed {seed}: {TRACE_ROUNDS} rounds per pass; job wall "
          f"{wall['plain']:.2f} s untraced, {wall['layers']:.2f} s traced, "
          f"{wall['ring']:.2f} s with ring")
    for loop in loops.values():
        for reason in loop.reasons[:20]:
            print(f"FAILED {reason}", file=sys.stderr)
    attempted = sum(loop.attempted for loop in loops.values())
    failed = sum(loop.failed for loop in loops.values())
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subdivalg" / "cli.py").is_file():
        print(f"error: no subdivalg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.trace:
        attempted, failed, metrics = per_layer(args.workload, args.seed)
    else:
        loop, metrics = end_to_end(args.workload, args.seed, args.seconds)
        attempted, failed = loop.attempted, loop.failed
        for reason in loop.reasons[:20]:
            print(f"FAILED {reason}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
