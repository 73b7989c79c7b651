"""Exact checks of each workload's output. Standard library only; never imports twoadic.

verify-all-w and survey-all-g have fixed inputs, so each of their records
(one check report, one survey row) is compared with a digest recorded from
the seed kernels in reference.json, plus what the mathematics fixes:

- verify: every check passes except small-factor-gcds and complexity-bounds
  at w = 0000 and w = 1111, where S(2) = 3(p - 1) = 0 mod 3. Those FAILs are
  correct output, not failed operations.
- survey: 2p <= phi <= 4p - 2 and gcd_full = gcd_minus * gcd_plus.

analyze-ladder draws g from the seed, so no recorded digest can cover it.
Its outputs are recomputed here from the definitions instead: the sequence
from the cyclotomic classes, b from the quartic Jacobi sum, the spectrum
histogram from the closed form, S(2), gcd, f and phi from the bits, and the
linear complexity as N - deg gcd(x^N + 1, S(x)) over GF(2).

Each check returns a Verdict. An operation that produced no output (a
non-zero CLI exit, a crash) is failed; one whose output is wrong is failed
and also makes the run incorrect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

EXPECTED_FAIL_CHECKS = ("small-factor-gcds", "complexity-bounds")
EXPECTED_FAIL_W = ("0000", "1111")


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # wrong output
    notes: list[str] = field(default_factory=list)  # operations without output


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected_pass(record: dict) -> bool:
    return not (record["check"] in EXPECTED_FAIL_CHECKS and record["w"] in EXPECTED_FAIL_W)


def _key(record: dict) -> str:
    def show(v):
        return int(v, 16) if isinstance(v, str) and v.startswith("0x") else v
    return " ".join(f"{k}={show(record[k])}" for k in ("check", "p", "g", "w") if k in record)


def _compare_records(records: list[dict], reference: list[str], verdict: Verdict,
                     extra_check) -> None:
    for i, want in enumerate(reference):
        if i >= len(records):
            verdict.failed += len(reference) - i
            verdict.problems.append(f"{len(reference) - i} records missing")
            return
        rec = records[i]
        problem = extra_check(rec) or (digest(rec) != want and "differs from reference")
        if problem:
            verdict.failed += 1
            verdict.problems.append(f"{_key(rec)}: {problem}")
    if len(records) > len(reference):
        verdict.problems.append(f"{len(records) - len(reference)} unexpected extra records")


def _crashed(result: dict, attempted: int) -> Verdict | None:
    if result.get("error") is None:
        return None
    return Verdict(attempted, attempted, [f"workload raised {result['error']}"])


def check_verify(result: dict, reference: list[str]) -> Verdict:
    verdict = _crashed(result, len(reference))
    if verdict is not None:
        return verdict
    verdict = Verdict(len(reference))
    records = result["output"]["records"]

    def pattern(rec):
        if rec["passed"] != expected_pass(rec):
            return "verdict contradicts the expected pass/fail pattern"
        return None

    _compare_records(records, reference, verdict, pattern)
    summary = result["output"]["summary"]
    fails = sum(not r["passed"] for r in records)
    if summary != {"total": len(records), "passed": len(records) - fails, "failed": fails}:
        verdict.problems.append(f"summary {summary} does not match the reports")
    return verdict


def check_survey(result: dict, reference: list[str]) -> Verdict:
    verdict = _crashed(result, len(reference))
    if verdict is not None:
        return verdict
    verdict = Verdict(len(reference))

    def invariants(rec):
        p, phi = int(rec["p"], 16), int(rec["phi"], 16)
        lower, upper = int(rec["lower_bound"], 16), int(rec["upper_bound"], 16)
        if not (lower == 2 * p and upper == 4 * p - 2 and lower <= phi <= upper):
            return "phi outside [2p, 4p - 2]"
        if int(rec["gcd_full"], 16) != int(rec["gcd_minus"], 16) * int(rec["gcd_plus"], 16):
            return "gcd_full != gcd_minus * gcd_plus"
        return None

    _compare_records(result["output"]["records"], reference, verdict, invariants)
    return verdict


def check_ladder(result: dict, inputs: list[tuple[int, int]], scratch: str) -> Verdict:
    verdict = _crashed(result, 2 * len(inputs))
    if verdict is not None:
        return verdict
    verdict = Verdict(2 * len(inputs))
    ops = result["output"]["ops"]
    for (p, g), construct, analyze in zip(inputs, ops[0::2], ops[1::2]):
        for op, path, check in ((construct, f"{p}.seq", check_construct_output),
                                (analyze, f"{p}.json", check_analyze_output)):
            name = f"{op['argv'][0]} p={p} g={g}"
            if op["exit"] != 0:
                verdict.failed += 1
                verdict.notes.append(f"{name}: exit {op['exit']}: {op['stderr'].strip()}")
                continue
            try:
                with open(os.path.join(scratch, path), encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                problem = f"exit 0 but no output file ({exc})"
            else:
                problem = check(text, p, g)
            if problem:
                verdict.failed += 1
                verdict.problems.append(f"{name}: {problem}")
    return verdict


# --- independent recomputation for analyze-ladder -------------------------

@functools.cache
def _index_table(p: int, g: int) -> tuple[int, ...]:
    """index[x] = discrete log of x to base g, for x in 1..p-1."""
    index = [0] * p
    x = 1
    for e in range(p - 1):
        index[x] = e
        x = x * g % p
    return tuple(index)


@functools.cache
def reference_bits(p: int, g: int, w: str = "0101") -> str:
    """The interleaved sequence, from the definition.

    s1, s2, s3 have supports D0 u D1, D0 u D3, D1 u D2 (D_j: exponents of g
    that are j mod 4); columns are s3 + w0, L^d s2 + w1, L^2d s1 + w2,
    L^3d s1 + w3 with d = (3p + 1) / 4, read row by row.
    """
    index = _index_table(p, g)
    supports = {1: (0, 1), 2: (0, 3), 3: (1, 2)}
    s = {k: [0] + [int(index[t] % 4 in sup) for t in range(1, p)] for k, sup in supports.items()}
    d = (3 * p + 1) // 4
    wb = [int(ch) for ch in w]
    cols = ((s[3], 0), (s[2], d), (s[1], 2 * d), (s[1], 3 * d))
    return "".join(str(seq[(t + shift) % p] ^ wb[j])
                   for t in range(p) for j, (seq, shift) in enumerate(cols))


def quartic_ab(p: int, g: int) -> tuple[int, int]:
    """(a, b) with J(chi, chi) = a + 2bi, a = 1 mod 4, chi the quartic character with chi(g) = i."""
    index = _index_table(p, g)
    counts = [0, 0, 0, 0]
    for t in range(2, p):
        counts[(index[t] + index[(1 - t) % p]) % 4] += 1
    re, im = counts[0] - counts[2], counts[1] - counts[3]
    if re % 4 != 1:
        re, im = -re, -im
    return re, im // 2


def _gf2_degree_of_gcd(a: int, b: int) -> int:
    """Degree of gcd(a, b) over GF(2), polynomials packed as ints (bit i = x^i)."""
    while b:
        nb = b.bit_length()
        while a.bit_length() >= nb:
            a ^= b << (a.bit_length() - nb)
        a, b = b, a
    return a.bit_length() - 1


@functools.cache
def expected_analysis(p: int, g: int) -> dict:
    n = 4 * p
    value = int(reference_bits(p, g)[::-1], 2)  # bit i = s(i); base 2 has no digit limit
    m = (1 << n) - 1
    s2 = value % m
    gcd = math.gcd(s2, m)
    f = m // gcd
    return {
        "period": n,
        # Closed form: tau1 = 0 gives p - 1 values -4; tau1 = 2 gives one +4 and
        # p - 1 zeros; each odd tau1 gives one -4 and (p - 1)/2 each of -4b, +4b.
        "ac_histogram": {"-4": 2 * p, "0": p - 1, "4": p},
        "two_adic": {"period": n, "s2": s2, "gcd": gcd, "f": f,
                     "phi": (f + 1).bit_length() - 1},
        "linear_complexity": n - _gf2_degree_of_gcd((1 << n) | 1, value),
    }


def _decimal(text) -> int:
    """Parse a decimal string of any length without raising the digit limit.

    600-digit chunks stay below every limit CPython accepts (>= 640 or 0).
    """
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal string: {str(text)[:40]!r}")
    value = 0
    for i in range(0, len(text), 600):
        chunk = text[i:i + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def check_construct_output(text: str, p: int, g: int) -> str | None:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("# "):
        return "expected a '# ...' header line and one sequence line"
    try:
        header = dict(item.split("=", 1) for item in lines[0][2:].split())
    except ValueError:
        return f"unreadable header {lines[0]!r}"
    a, b = quartic_ab(p, g)
    want = {"p": str(p), "g": str(g), "a": str(a), "b": str(b),
            "d": str((3 * p + 1) // 4), "w": "0101"}
    if header != want:
        return f"header {header} != {want}"
    if lines[1] != f"N={4 * p};{reference_bits(p, g)}":
        return "sequence differs from the construction"
    return None


def check_analyze_output(text: str, p: int, g: int) -> str | None:
    want = expected_analysis(p, g)
    try:
        got = json.loads(text)
        two_adic = got["two_adic"]
        for key in ("s2", "gcd", "f"):
            two_adic[key] = _decimal(two_adic[key])
        got = {"params": got["params"], "period": got["period"],
               "ac_histogram": got["ac_histogram"], "two_adic": two_adic,
               "linear_complexity": got["linear_complexity"]}
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable analyze output ({type(exc).__name__}: {exc})"
    for key in want:
        if got[key] != want[key]:
            return f"{key} differs from the recomputation"
    if got["params"] is not None:
        return "params should be null for --sequence-file input"
    return None
