"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --seeds 1-10 --seconds 30 [--trace 1] \
        [--workload game ...] [--out bench/baseline.json]

The runs go seed by seed, each seed through every workload, so that a
slow stretch of the machine falls on all workloads alike rather than on
one.  For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is
the distance between the quartiles as a share of the median.  With --out
the summary is merged into that JSON file under "trace0" or "trace1",
together with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "values": values,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or ["game", "forkless", "series"]
    results: dict = {workload: [] for workload in workloads}
    for seed in seed_list(args.seeds):
        for workload in workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True,
            )
            results[workload].append(json.loads(done.stdout.splitlines()[-1]))
    summary = {}
    for workload, runs in results.items():
        units = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
        summary[workload] = {
            "runs": len(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                name: {"unit": unit, **summarise([r["metrics"][name]["value"] for r in runs])}
                for name, unit in units.items()
            },
        }
        print(f"{workload}: {len(runs)} runs, {summary[workload]['failed']} failed "
              f"of {summary[workload]['attempted']}")
        for name, m in summary[workload]["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:36s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {spread}")
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["machine"] = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu": cpu_model(),
        }
        data[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": args.seconds, "workloads": summary,
        }
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
