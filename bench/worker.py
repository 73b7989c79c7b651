"""One repetition of a benchmark workload, in a fresh interpreter.

run.py starts this script once per repetition, so each repetition pays
interpreter start, ``import twoadic`` and input enumeration, as one
``twoadic`` command does. Its single argument is a JSON object:

    root      checkout root; the package is imported from <root>/src
    workload  verify-all-w, survey-all-g or analyze-ladder
    seed      workload seed
    trace     1 to record spans (see tracer.py) around the timed call
    probe     true to stop after set-up (extra setup_s samples)
    scratch   directory for the workload's files and for result.json
    spans     where a traced repetition writes its spans
    t0        the parent's time.monotonic() just before it started this
              process; CLOCK_MONOTONIC is system-wide, so setup_s includes
              interpreter start

Every repetition, probe or not, ends by timing the calibration kernel of
calib.py (kernel_s), after the timed call and its peak RSS are taken.

This script only runs the workload and serializes what it returned; the
oracle that judges the output runs in the parent (oracle.py). Big integers
are serialized with hex(), never str(): str() of an int over 4300 decimal
digits raises on CPython >= 3.11, and the benchmark must not change that
limit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import sys
import time

VERIFY_ARGS = {"limit": 6000, "g_policy": "smallest", "w_policy": "all"}
SURVEY_ARGS = {"limit": 1100, "g_policy": "all", "w_policy": "all"}
# Top rung 9413 (period 37652) keeps Berlekamp-Massey dominant while one
# repetition stays near 1.5 s, so a run holds enough repetitions for a
# steady median; 4229 and 9413 hit the 4300-digit str() limit in analyze.
LADDER = (293, 2213, 4229, 9413)
LADDER_W = "0101"


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def ladder_inputs(seed: int) -> list[tuple[int, int]]:
    """(p, g) for each rung, with g uniform over the primitive roots of p.

    Computed without twoadic: g = g0^e mod p for the smallest primitive root
    g0 and a unit e mod p - 1 drawn from a generator seeded by ``seed``.
    """
    rng = random.Random(seed)
    out = []
    for p in LADDER:
        factors = _prime_factors(p - 1)
        g0 = next(g for g in range(2, p)
                  if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
        e = rng.randrange(1, p - 1)
        while math.gcd(e, p - 1) != 1:
            e = rng.randrange(1, p - 1)
        out.append((p, pow(g0, e, p)))
    return out


def _canon(v):
    """JSON form of a result field: ints as hex, bit tuples as '0101'."""
    if isinstance(v, bool) or v is None or isinstance(v, str):
        return v
    if isinstance(v, int):
        return hex(v)
    if isinstance(v, tuple):
        return "".join(str(bit) for bit in v)
    return v


def _run_verify(twoadic, inputs, scratch):
    return twoadic.verify.run_all(**VERIFY_ARGS)


def _serialize_verify(out):
    reports, summary = out
    records = [{"check": r.check, "p": _canon(r.p), "g": _canon(r.g), "w": _canon(r.w),
                "b": _canon(r.b), "passed": r.passed,
                "witnesses": {k: _canon(v) for k, v in r.witnesses.items()}}
               for r in reports]
    return {"records": records,
            "summary": {k: summary[k] for k in ("total", "passed", "failed")}}


def _run_survey(twoadic, inputs, scratch):
    return twoadic.verify.survey_conjecture(**SURVEY_ARGS)


def _serialize_survey(rows):
    fields = ("p", "g", "w", "gcd_full", "gcd_minus", "gcd_plus", "phi",
              "lower_bound", "upper_bound")
    return {"records": [{f: _canon(getattr(row, f)) for f in fields} for row in rows]}


def _run_ladder(twoadic, inputs, scratch):
    """construct --out F, then analyze --sequence-file F --format json --out G, per rung."""
    ops = []
    for p, g in inputs:
        seq_file = os.path.join(scratch, f"{p}.seq")
        json_file = os.path.join(scratch, f"{p}.json")
        for argv in (["construct", "--p", str(p), "--g", str(g), "--w", LADDER_W,
                      "--out", seq_file],
                     ["analyze", "--sequence-file", seq_file, "--format", "json",
                      "--out", json_file]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = twoadic.cli.main(argv)
            ops.append({"argv": argv, "exit": code, "stderr": err.getvalue()})
    return {"ops": ops}


# workload -> (timed call, serialization of its result after the clock stops)
_WORKLOADS = {"verify-all-w": (_run_verify, _serialize_verify),
              "survey-all-g": (_run_survey, _serialize_survey),
              "analyze-ladder": (_run_ladder, lambda out: out)}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(cfg["root"], "src"))
    import twoadic
    import twoadic.cli  # noqa: F401  (driven by analyze-ladder, wrapped by the tracer)

    workload = cfg["workload"]
    inputs = ladder_inputs(cfg["seed"]) if workload == "analyze-ladder" else None
    result = {"setup_s": time.monotonic() - cfg["t0"],
              "int_max_str_digits": sys.get_int_max_str_digits()}

    if not cfg["probe"]:
        tracer = None
        if cfg["trace"]:
            from tracer import Tracer
            tracer = Tracer(twoadic)
            tracer.install()
        run, serialize = _WORKLOADS[workload]
        output, error = None, None
        start = time.perf_counter()
        try:
            output = run(twoadic, inputs, cfg["scratch"])
        except Exception as exc:  # noqa: BLE001 - a crash is a result the oracle reports
            error = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - start
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary(wall_s)
            tracer.write(cfg["spans"])
        result.update(wall_s=wall_s, error=error,
                      output=None if output is None else serialize(output))

    import calib  # here, so building its inputs counts in neither setup_s nor wall_s
    result["kernel_s"] = calib.kernel_s()

    with open(os.path.join(cfg["scratch"], "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
