"""Command-line front end.

Subcommands: construct | analyze | verify | survey. Output is deterministic
(no timestamps; fixed ordering), every emitted big integer is a decimal
string, and CSV always carries a header row.

Exit codes: 0 success, 1 failed verification check, 2 ineligible p (or usage
error), 3 non-primitive root, 4 unreadable, invalid or oversized sequence
file, 5 output could not be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import analysis, verify
from .bigmod import decimal_str
from .numtheory import is_eligible_prime, is_primitive_root, smallest_primitive_root
from .sequences import (
    ADMISSIBLE_W,
    construction_params,
    generalized_interleaved,
    parse_sequence_literal,
    sequence_literal,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_PRIME = 2
EXIT_BAD_ROOT = 3
EXIT_BAD_SEQUENCE_FILE = 4
EXIT_BAD_OUTPUT = 5

# Largest sequence file analyze reads: 4 MiB holds periods up to about four
# million bits, ten times the p ~ 10^5 range (N ~ 4 * 10^5). Larger files are
# refused after reading one byte past this bound.
MAX_SEQUENCE_FILE_BYTES = 1 << 22


class _OutputError(Exception):
    """Writing the result failed; carries the OSError text."""


def _parse_w(text: str) -> tuple[int, int, int, int]:
    if len(text) != 4 or set(text) - {"0", "1"}:
        raise ValueError(f"w must be four bits like 0101, got {text!r}")
    return tuple(int(ch) for ch in text)  # type: ignore[return-value]


def _emit(text: str, out: str | None) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise _OutputError(f"cannot write output: {exc}") from exc


def _fail(message: str, code: int) -> int:
    print(f"twoadic: {message}", file=sys.stderr)
    return code


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return decimal_str(value)
    return str(value)


def _resolve_instance(args) -> tuple[int, object] | tuple[None, object]:
    """Shared --p/--g/--w handling; returns (exit_code, None) or (None, (params, seq))."""
    p = args.p
    if not is_eligible_prime(p):
        return _fail(f"p={p} is not an eligible prime (need p = a^2 + 4, a odd)",
                     EXIT_BAD_PRIME), None
    g = args.g if args.g is not None else smallest_primitive_root(p)
    if not is_primitive_root(g, p):
        return _fail(f"g={g} is not a primitive root of {p}", EXIT_BAD_ROOT), None
    try:
        w = _parse_w(args.w)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_PRIME), None
    if w not in ADMISSIBLE_W and not args.allow_any_w:
        return _fail(f"w={args.w} is not admissible (need w0=w2, w1=w3); "
                     "use --allow-any-w to force", EXIT_BAD_PRIME), None

    params = construction_params(p, g)  # quartic data and d for the header
    d = params.d
    seq = generalized_interleaved(p, g, (3, 2, 1, 1), (0, d, 2 * d, 3 * d), w,
                                  allow_any_w=args.allow_any_w)
    return None, (params, g, w, seq)


def _cmd_construct(args) -> int:
    code, resolved = _resolve_instance(args)
    if code is not None:
        return code
    params, g, w, seq = resolved
    q = params.quartic
    header = (f"# p={q.p} g={g} a={q.a} b={q.b} d={params.d} "
              f"w={''.join(str(bit) for bit in w)}")
    _emit(header + "\n" + sequence_literal(seq) + "\n", args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.sequence_file is not None and args.p is not None:
        return _fail("give either --p or --sequence-file, not both", EXIT_BAD_PRIME)
    if args.sequence_file is not None:
        try:
            with open(args.sequence_file, "rb") as fh:
                raw = fh.read(MAX_SEQUENCE_FILE_BYTES + 1)
            if len(raw) > MAX_SEQUENCE_FILE_BYTES:
                return _fail(f"sequence file is larger than "
                             f"{MAX_SEQUENCE_FILE_BYTES} bytes", EXIT_BAD_SEQUENCE_FILE)
            seq = parse_sequence_literal(raw.decode("utf-8"))
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read sequence file: {exc}", EXIT_BAD_SEQUENCE_FILE)
        meta = None
    else:
        if args.p is None:
            return _fail("analyze needs --p or --sequence-file", EXIT_BAD_PRIME)
        code, resolved = _resolve_instance(args)
        if code is not None:
            return code
        params, g, w, seq = resolved
        q = params.quartic
        meta = {"p": q.p, "g": g, "w": "".join(str(bit) for bit in w),
                "a": q.a, "b": q.b, "d": params.d}

    histogram = analysis.autocorrelation(seq).histogram()
    report = analysis.two_adic_complexity(seq)
    lc = analysis.linear_complexity(seq)
    hist_text = ";".join(f"{v}:{c}" for v, c in histogram.items())

    if args.format == "json":
        payload = {
            "params": meta,
            "period": seq.period,
            "ac_histogram": {str(v): c for v, c in histogram.items()},
            "two_adic": report.to_record(),
            "linear_complexity": lc,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        header = ["p", "g", "w", "a", "b", "d", "period", "s2", "gcd", "f",
                  "phi", "linear_complexity", "ac_histogram"]
        meta = meta or {}
        row = [_cell(meta.get(k, "")) for k in ("p", "g", "w", "a", "b", "d")]
        row += [_cell(v) for v in (seq.period, report.s2, report.gcd, report.f,
                                   report.phi, lc)]
        row.append(hist_text)
        _emit(_csv_text(header, [row]), args.out)
    else:
        lines = []
        if meta is not None:
            lines.append(f"p={meta['p']} g={meta['g']} w={meta['w']} "
                         f"a={meta['a']} b={meta['b']} d={meta['d']}")
        lines += [
            f"period: {seq.period}",
            f"ac histogram (out of phase): {hist_text}",
            f"S(2): {decimal_str(report.s2)}",
            f"gcd(S(2), 2^N-1): {decimal_str(report.gcd)}",
            f"f: {decimal_str(report.f)}",
            f"two-adic complexity: {report.phi}",
            f"linear complexity: {lc}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _reports_payload(reports, summary, fmt: str) -> str:
    if fmt == "json":
        return json.dumps([r.to_record() for r in reports], indent=2) + "\n"
    if fmt == "csv":
        witness_keys = sorted({k for r in reports for k in r.witnesses})
        header = ["p", "g", "w", "b", "check", "pass"] + witness_keys
        rows = []
        for r in reports:
            rec = r.to_record()
            row = [_cell(rec["p"]), _cell(rec["g"]), _cell(rec["w"]),
                   _cell(rec["b"]), rec["check"], _cell(rec["pass"])]
            row += [_cell(r.witnesses.get(k, "")) for k in witness_keys]
            rows.append(row)
        return _csv_text(header, rows)
    lines = []
    for r in reports:
        rec = r.to_record()
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.check} p={rec['p']} g={rec['g']} "
                     f"w={rec['w']} b={rec['b']}")
    lines.append(f"passed {summary['passed']} of {summary['total']} checks")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    g_policy = args.g if args.g is not None else args.g_policy
    w_policy = _parse_w(args.w) if args.w is not None else args.w_policy
    try:
        reports, summary = verify.run_all(args.limit, g_policy=g_policy,
                                          w_policy=w_policy, jobs=args.jobs)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_PRIME)
    _emit(_reports_payload(reports, summary, args.format), args.out)
    if summary["failed"]:
        first = next(r for r in reports if not r.passed)
        rec = first.to_record()
        detail = " ".join(f"{k}={_cell(v)}" for k, v in first.witnesses.items())
        print(f"twoadic: FAIL {first.check} p={rec['p']} g={rec['g']} "
              f"w={rec['w']} {detail}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_survey(args) -> int:
    g_policy = args.g if args.g is not None else args.g_policy
    w_policy = _parse_w(args.w) if args.w is not None else args.w_policy
    try:
        rows = verify.survey_conjecture(args.limit, g_policy=g_policy,
                                        w_policy=w_policy)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_PRIME)
    records = [r.to_record() for r in rows]
    if args.format == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.out)
    elif args.format == "csv":
        header = ["p", "g", "w", "gcd_full", "gcd_minus", "gcd_plus", "phi",
                  "lower_bound", "upper_bound", "gcd_plus_is_5"]
        _emit(_csv_text(header, [[_cell(rec[k]) for k in header] for rec in records]),
              args.out)
    else:
        lines = [f"p={rec['p']} g={rec['g']} w={rec['w']} "
                 f"gcd_full={rec['gcd_full']} gcd_minus={rec['gcd_minus']} "
                 f"gcd_plus={rec['gcd_plus']} phi={rec['phi']} "
                 f"bounds=[{rec['lower_bound']},{rec['upper_bound']}]"
                 for rec in records]
        lines.append(f"{len(records)} rows")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twoadic",
        description="Interleaved binary sequences: construction, analysis, "
                    "verification, and the gcd survey.",
        epilog="exit codes: 0 ok, 1 failed check, 2 ineligible p/usage, "
               "3 non-primitive g, 4 bad sequence file, 5 cannot write output",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit one sequence with its parameters")
    c.add_argument("--p", type=int, required=True, help="eligible prime (a^2 + 4)")
    c.add_argument("--g", type=int, help="primitive root (default: smallest)")
    c.add_argument("--w", default="0101", help="offset bits w0w1w2w3")
    c.add_argument("--allow-any-w", action="store_true",
                   help="accept w with w0 != w2 or w1 != w3")
    c.add_argument("--out", help="write to file instead of stdout")

    a = sub.add_parser("analyze", help="autocorrelation, 2-adic and linear complexity")
    a.add_argument("--p", type=int)
    a.add_argument("--g", type=int)
    a.add_argument("--w", default="0101")
    a.add_argument("--allow-any-w", action="store_true")
    a.add_argument("--sequence-file", help="fixture literal instead of --p")
    a.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    a.add_argument("--out")

    v = sub.add_parser("verify", help="run every check over the prime grid")
    v.add_argument("--limit", type=int, required=True)
    v.add_argument("--g", type=int, help="explicit primitive root for every p")
    v.add_argument("--g-policy", choices=("smallest", "all"), default="smallest")
    v.add_argument("--w", help="explicit admissible w")
    v.add_argument("--w-policy", choices=("default", "all"), default="default")
    v.add_argument("--jobs", type=int, default=1,
                   help="parallel grid workers, >= 1 (capped at cores and points)")
    v.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    v.add_argument("--out")

    s = sub.add_parser("survey", help="tabulate gcd(S(2), 2^(2p)+1) per grid point")
    s.add_argument("--limit", type=int, required=True)
    s.add_argument("--g", type=int)
    s.add_argument("--g-policy", choices=("smallest", "all"), default="smallest")
    s.add_argument("--w")
    s.add_argument("--w-policy", choices=("default", "all"), default="default")
    s.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    s.add_argument("--out")

    return ap


_COMMANDS = {
    "construct": _cmd_construct,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "survey": _cmd_survey,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_BAD_PRIME)
    except _OutputError as exc:
        return _fail(str(exc), EXIT_BAD_OUTPUT)


if __name__ == "__main__":
    sys.exit(main())
