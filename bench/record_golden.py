"""Write golden.json: the stdout digest of every job in each workload's
golden round.  Run it only when a change to output text is intended:

    python3 bench/record_golden.py
"""

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    golden = {}
    for workload in sorted(run.jobs.WORKLOADS):
        loop = run.Loop()
        golden[workload], _ = loop.golden(workload, None)
        if loop.failed:
            print("\n".join(loop.reasons), file=sys.stderr)
            return 1
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
