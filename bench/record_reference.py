"""Record reference.json: one digest per output record of verify-all-w and survey-all-g.

    python3 bench/record_reference.py

The committed file was recorded from the seed kernels. Re-record only when
a change makes those outputs legitimately differ, in a change of its own
that says why. Recording refuses outputs that break the pass/fail pattern
or the survey invariants the oracle checks.
"""

from __future__ import annotations

import json
import sys
import time

import oracle
from run import HERE, OUT, REP_TIMEOUT_S, run_rep

CHECKS = {"verify-all-w": oracle.check_verify, "survey-all-g": oracle.check_survey}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    reference = {}
    for workload, check in CHECKS.items():
        result = run_rep(workload, 0, deadline=time.monotonic() + REP_TIMEOUT_S)
        if result["error"]:
            print(f"{workload} raised {result['error']}", file=sys.stderr)
            return 1
        digests = [oracle.digest(rec) for rec in result["output"]["records"]]
        problems = check(result, digests).problems
        if problems:
            print(f"{workload}: refusing to record:\n  " + "\n  ".join(problems), file=sys.stderr)
            return 1
        reference[workload] = digests
        print(f"{workload}: {len(digests)} records")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
