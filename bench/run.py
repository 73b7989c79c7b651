"""twoadic benchmark: three workloads, each checked against an exact oracle.

    python3 bench/run.py --workload verify-all-w --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Closed loop: one caller, one repetition at a time, each in a fresh
interpreter (worker.py), single-threaded (verify runs with jobs=1).
Repetitions run until the next one would end after --seconds.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: the
mean wall time of one repetition, its goodput (operations that passed the
oracle per second), peak RSS, and set-up time (interpreter start,
``import twoadic`` and input enumeration), the median over every
repetition and SETUP_PROBES_PER_REP set-up-only starts before each.
Every child interpreter, set-up-only or not, also times the fixed
calibration kernel of calib.py once it is done; wall time and goodput are
scaled by the kernel's nominal time over its mean time in the run, which
cancels the shared host's drift in speed. The raw wall times, kernel times
and the scale stay in the result file.
--trace 1 alternates untraced and traced repetitions (tracer.py) and reports
the per-layer metrics; call counts must repeat exactly between traced
repetitions, or the run is marked incorrect.

Human-readable lines go first; the last stdout line is one JSON object with
correct, attempted, failed and metrics. Apart from bytecode caches, everything
a run writes stays under <checkout>/.bench_out. See README.md for the
workloads and the oracle.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import oracle
from worker import ladder_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-all-w", "survey-all-g", "analyze-ladder")
SETUP_PROBES_PER_REP = 1
MAX_RUN_S = 150  # every run must end well inside 180 s
REP_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def judge_for(workload: str, seed: int, reference: dict):
    """The oracle for one workload, as f(result, scratch) -> oracle.Verdict."""
    if workload == "verify-all-w":
        return lambda result, scratch: oracle.check_verify(result, reference[workload])
    if workload == "survey-all-g":
        return lambda result, scratch: oracle.check_survey(result, reference[workload])
    inputs = ladder_inputs(seed)
    return lambda result, scratch: oracle.check_ladder(result, inputs, scratch)


def run_rep(workload: str, seed: int, *, deadline: float, trace: bool = False,
            probe: bool = False, judge=None) -> dict:
    """Run one repetition in a child interpreter; judge() replaces its output by a verdict."""
    scratch = OUT / "tmp" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    scratch.mkdir(parents=True)
    try:
        cfg = {"root": str(ROOT), "workload": workload, "seed": seed, "trace": int(trace),
               "probe": probe, "scratch": str(scratch),
               "spans": str(OUT / f"spans-{workload}.bin")}
        cfg["t0"] = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(5.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} repetition did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads((scratch / "result.json").read_text(encoding="utf-8"))
        if judge is not None:
            result["verdict"] = judge(result, str(scratch))
            del result["output"]
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def collect(workload: str, seed: int, seconds: int, trace: bool, reference: dict):
    """Repetitions of one workload until the next would end after `seconds`."""
    start = time.monotonic()
    budget_end = start + min(seconds, MAX_RUN_S)
    hard_end = start + REP_TIMEOUT_S
    judge = judge_for(workload, seed, reference)
    probes = []
    reps: dict[bool, list[dict]] = {False: [], True: []}
    minimum = {False: 1, True: 2 if trace else 0}
    longest = {False: 0.0, True: 0.0}
    plan = (itertools.chain([False, True, True], itertools.cycle([False, True]))
            if trace else itertools.repeat(False))
    for traced in plan:
        enough = all(len(reps[k]) >= minimum[k] for k in minimum)
        if enough and time.monotonic() + longest[traced] > budget_end:
            break
        t = time.monotonic()
        if not trace:  # spread set-up and kernel samples over the run, not in one burst
            probes += [run_rep(workload, seed, probe=True, deadline=hard_end)
                       for _ in range(SETUP_PROBES_PER_REP)]
        reps[traced].append(run_rep(workload, seed, trace=traced, judge=judge,
                                    deadline=hard_end))
        longest[traced] = max(longest[traced], time.monotonic() - t)
    return reps[False], reps[True], probes


def speed_scale(runs: list[dict]) -> float:
    """NOMINAL_S over the mean calibration-kernel time of these child runs (see calib.py).

    A mean: one kernel call is short enough to fall wholly in a fast or a slow
    spell of the host, so the median of its times jumps between the two.
    """
    return calib.NOMINAL_S / statistics.fmean(r["kernel_s"] for r in runs)


def end_to_end(reps: list[dict], probes: list[dict], scale: float) -> dict[str, float]:
    """End-to-end metrics of a run, with times multiplied by scale (see speed_scale).

    Wall time is the mean over repetitions, not the median: it is divided by
    the mean kernel time, and only two time averages over the same run cancel
    the host's speed; a median of a few repetitions jumps with the share of
    them that fell in slow spells. Set-up time is not scaled, and stays a median.
    """
    wall = statistics.fmean(r["wall_s"] for r in reps) * scale
    passed = statistics.fmean(r["verdict"].attempted - r["verdict"].failed for r in reps)
    return {
        "wall_s": wall,
        "goodput_ops_per_s": passed / wall,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in probes + reps),
    }


def per_layer(names: list[str], untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    def value(trace: dict, name: str) -> float:
        head, stat = name.rsplit(".", 1)
        if head == "trace":
            return trace[stat]
        row = trace["functions"].get(head) or trace["modules"].get(head)
        if row is None:
            raise BenchError(f"per-layer metric {name} names no traced function or module")
        return row[stat]

    out = {}
    for name in names:
        if name == "trace.overhead_s":
            out[name] = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in untraced))
        elif name.endswith(".calls"):  # exact, and equal across reps (call_counts_repeat)
            out[name] = value(traced[0]["trace"], name)
        else:
            out[name] = statistics.median(value(r["trace"], name) for r in traced)
    return out


def call_counts_repeat(traced: list[dict]) -> bool:
    counts = [{k: v["calls"] for k, v in r["trace"]["functions"].items()} for r in traced]
    return all(c == counts[0] for c in counts)


def measure(workload: str, seed: int, seconds: int, trace: bool, spec: dict,
            reference: dict) -> dict:
    untraced, traced, probes = collect(workload, seed, seconds, trace, reference)
    reps = untraced + traced
    verdicts = [r["verdict"] for r in reps]
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    problems = sorted({p for v in verdicts for p in v.problems})
    if trace and not call_counts_repeat(traced):
        problems.append("call counts differ between traced repetitions")
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    scale = None if trace else speed_scale(probes + untraced)
    values = (per_layer(list(units), untraced, traced) if trace
              else end_to_end(untraced, probes, scale))
    return {
        "workload": workload,
        "stamp": {"seed": seed, "python": platform.python_version(),
                  "nproc": os.cpu_count(), "git_sha": git_sha(),
                  "int_max_str_digits": reps[0]["int_max_str_digits"]},
        "reps": {"untraced": len(untraced), "traced": len(traced), "probes": len(probes)},
        "correct": not problems, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "speed_scale": scale,
        "problems": problems,
        "notes": sorted({n for v in verdicts for n in v.notes}),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "raw": {"wall_s": [r["wall_s"] for r in reps], "traced": [bool(r.get("trace")) for r in reps],
                "setup_s": [r["setup_s"] for r in probes + reps],
                "kernel_s": [r["kernel_s"] for r in probes + reps]},
    }


def report(res: dict) -> None:
    stamp = res["stamp"]
    verdict = "PASS" if res["correct"] else "FAIL"
    print(f"== {res['workload']}  seed={stamp['seed']}  oracle {verdict}  "
          f"reps {res['reps']}")
    print(f"   python {stamp['python']}  nproc {stamp['nproc']}  git {stamp['git_sha']}  "
          f"int_max_str_digits {stamp['int_max_str_digits']}")
    print(f"   failed_frac {res['failed_frac']:.4f} ratio  "
          f"({res['failed']} of {res['attempted']} operations)")
    if res["speed_scale"] is not None:
        print(f"   times scaled by {res['speed_scale']:.4f} = nominal {calib.NOMINAL_S} s / "
              f"mean calibration kernel time of the run")
    for name, m in res["metrics"].items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"   {name:<48} {shown} {m['unit']}")
    for line in res["problems"][:10]:
        print(f"   WRONG: {line}")
    if len(res["problems"]) > 10:
        print(f"   WRONG: ... {len(res['problems']) - 10} more in the result file")
    for line in res["notes"]:
        print(f"   failed: {line}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "twoadic" / "__init__.py").is_file():
        print(f"bench: no twoadic sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for workload in workloads:
            res = measure(workload, args.seed, args.seconds, bool(args.trace), spec, reference)
            name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            (OUT / name).write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
            report(res)
            results.append(res)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
