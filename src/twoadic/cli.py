"""Command-line front end.

Subcommands: construct | analyze | verify | survey. Each flag is declared
once, in its subcommand or in one of three shared groups: the instance flags
--g, --w and --allow-any-w (construct; analyze with --p only), the grid flags
--limit, --g, --w and --jobs (verify, survey), and the output flags --format
and --out (analyze, verify, survey; construct takes --out alone). A grid takes
one flag per axis: --g is smallest, all or one root, and --w is default, all
or four bits. Every integer flag takes ASCII digits with an optional leading
'-'. The parser is built once per process, and each subcommand's parser binds
its handler, which main runs.

Output is deterministic (no timestamps; fixed ordering), every emitted big
integer is a decimal string, and CSV always carries a header row.

Exit codes: 0 success, 1 failed verification check, 2 ineligible p, a --p
whose period 4p exceeds MAX_SEQUENCE_FILE_BYTES, or a usage error,
3 non-primitive root, 4 unreadable, invalid or oversized sequence file,
5 output could not be written. A command ends early by raising one
exception with a one-line message and its code; only main turns it (or a
ValueError from the library, code 2) into the stderr line and the exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from . import analysis, verify
from .bigmod import decimal_str
from .numtheory import (
    eligible_primes,
    is_eligible_prime,
    is_primitive_root,
    smallest_primitive_root,
)
from .sequences import (
    ADMISSIBLE_W,
    BinarySequence,
    _su_instance,
    construction_params,
    parse_sequence_literal,
    sequence_literal,
)
from .verify import identity_field

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


class _Exit(Exception):
    """Ends a command: a one-line message for stderr and the exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _integer(text: str) -> int:
    """The argparse type of every integer flag: ASCII digits with an optional
    leading '-'. int() alone would also take a '+', surrounding spaces,
    underscores and non-ASCII digits such as full-width ones."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


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
        raise _Exit(f"cannot write output: {exc}", EXIT_BAD_OUTPUT) from exc


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value: object) -> str:
    """One CSV cell; every int that reaches it is small, big ones arrive rendered."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _resolve_instance(args) -> tuple[dict[str, object], BinarySequence]:
    """The --p/--g/--w instance as its header fields and its sequence.

    The fields are p, g, w, a, b and d, in that order.
    """
    p = args.p
    if not is_eligible_prime(p):
        raise _Exit(f"p={p} is not an eligible prime (need p = a^2 + 4, a odd)",
                    EXIT_BAD_PRIME)
    if 4 * p > MAX_SEQUENCE_FILE_BYTES:  # before the O(p) cyclotomy allocates
        raise _Exit(f"p={p} is too large: its period 4p exceeds the "
                    f"{MAX_SEQUENCE_FILE_BYTES} bits a sequence file may hold",
                    EXIT_BAD_PRIME)
    g = args.g if args.g is not None else smallest_primitive_root(p)
    _require_root(g, p)
    w = _parse_w("0101" if args.w is None else args.w)
    if w not in ADMISSIBLE_W and not args.allow_any_w:
        raise _Exit(f"w={args.w} is not admissible (need w0=w2, w1=w3); "
                    "use --allow-any-w to force", EXIT_BAD_PRIME)

    params = construction_params(p, g)  # quartic data and d for the header
    meta = {"p": p, "g": g, "w": identity_field(w),
            "a": params.quartic.a, "b": params.quartic.b, "d": params.d}
    return meta, _su_instance(p, g, w)


def _read_sequence_file(path: str) -> BinarySequence:
    try:
        with open(path, "rb") as fh:
            raw = fh.read(MAX_SEQUENCE_FILE_BYTES + 1)
        if len(raw) > MAX_SEQUENCE_FILE_BYTES:
            raise _Exit(f"sequence file is larger than {MAX_SEQUENCE_FILE_BYTES} bytes",
                        EXIT_BAD_SEQUENCE_FILE)
        return parse_sequence_literal(raw.decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise _Exit(f"cannot read sequence file: {exc}", EXIT_BAD_SEQUENCE_FILE) from exc


def _require_root(g: int, p: int) -> None:
    if not is_primitive_root(g, p):
        raise _Exit(f"g={g} is not a primitive root of {p}", EXIT_BAD_ROOT)


def _grid_policies(args) -> dict[str, object]:
    """--g and --w as the g_policy and w_policy of the grid.

    The words smallest and all (--g), default and all (--w) pass through.
    Any other --g is one root in ASCII digits, which must be a primitive root
    of every prime in the grid; any other --w is four bits.
    """
    g, w = args.g, args.w
    if g not in ("smallest", "all"):
        try:
            g = _integer(g)
        except argparse.ArgumentTypeError:
            raise ValueError(f"g must be smallest, all or an integer root, got {g!r}") from None
        for p in eligible_primes(args.limit):
            _require_root(g, p)
    return {"g_policy": g, "w_policy": w if w in ("default", "all") else _parse_w(w)}


def _cmd_construct(args) -> None:
    meta, seq = _resolve_instance(args)
    header = "# " + " ".join(f"{k}={meta[k]}" for k in ("p", "g", "a", "b", "d", "w"))
    _emit(header + "\n" + sequence_literal(seq) + "\n", args.out)


def _cmd_analyze(args) -> None:
    if args.sequence_file is not None and args.p is not None:
        raise _Exit("give either --p or --sequence-file, not both", EXIT_BAD_PRIME)
    if args.sequence_file is not None:
        if (args.g, args.w, args.allow_any_w) != (None, None, False):
            raise _Exit("--g, --w and --allow-any-w need --p, not --sequence-file",
                        EXIT_BAD_PRIME)
        meta, seq = None, _read_sequence_file(args.sequence_file)
    elif args.p is None:
        raise _Exit("analyze needs --p or --sequence-file", EXIT_BAD_PRIME)
    else:
        meta, seq = _resolve_instance(args)

    histogram = analysis.autocorrelation(seq).histogram()
    two_adic = analysis.two_adic_complexity(seq).to_record()
    lc = analysis.linear_complexity(seq)
    hist_text = ";".join(f"{v}:{c}" for v, c in histogram.items())

    if args.format == "json":
        payload = {
            "params": meta,
            "period": seq.period,
            "ac_histogram": {str(v): c for v, c in histogram.items()},
            "two_adic": two_adic,
            "linear_complexity": lc,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.format == "csv":
        # One ordered record: its keys are the header, its values the row.
        record = {**(meta or dict.fromkeys(("p", "g", "w", "a", "b", "d"), "")),
                  **two_adic, "linear_complexity": lc, "ac_histogram": hist_text}
        _emit(_csv_text(list(record), [[_cell(v) for v in record.values()]]), args.out)
    else:
        lines = []
        if meta is not None:
            lines.append(" ".join(f"{k}={v}" for k, v in meta.items()))
        lines += [
            f"period: {seq.period}",
            f"ac histogram (out of phase): {hist_text}",
            f"S(2): {two_adic['s2']}",
            f"gcd(S(2), 2^N-1): {two_adic['gcd']}",
            f"f: {two_adic['f']}",
            f"two-adic complexity: {two_adic['phi']}",
            f"linear complexity: {lc}",
        ]
        _emit("\n".join(lines) + "\n", args.out)


def _cmd_verify(args) -> None:
    reports, summary = verify.run_all(args.limit, **_grid_policies(args), jobs=args.jobs)
    # Each distinct witness int is rendered once, into every record that holds
    # it: grid points that share a construction share its witness ints.
    render = functools.cache(decimal_str)
    if args.format == "json":
        _emit(json.dumps([r.to_record(render) for r in reports], indent=2) + "\n", args.out)
    elif args.format == "csv":
        records = [r.to_record(render) for r in reports]
        identity = ["p", "g", "w", "b", "check", "pass"]
        witness_keys = sorted({k for rec in records for k in rec["witnesses"]})
        # Most cells belong to other checks' witnesses: each row starts blank in
        # header order, and only the record's own witnesses go through _cell.
        blank = dict.fromkeys(witness_keys, "")
        rows = [[_cell(rec[k]) for k in identity]
                + list({**blank, **{k: _cell(v)
                                    for k, v in rec["witnesses"].items()}}.values())
                for rec in records]
        _emit(_csv_text(identity + witness_keys, rows), args.out)
    else:
        lines = [f"{'PASS' if r.passed else 'FAIL'} {r.check} p={r.p} g={identity_field(r.g)} "
                 f"w={identity_field(r.w)} b={identity_field(r.b)}" for r in reports]
        lines.append(f"passed {summary['passed']} of {summary['total']} checks")
        _emit("\n".join(lines) + "\n", args.out)
    if summary["failed"]:
        rec = next(r for r in reports if not r.passed).to_record(render)
        detail = " ".join(f"{k}={_cell(v)}" for k, v in rec["witnesses"].items())
        raise _Exit(f"FAIL {rec['check']} p={rec['p']} g={rec['g']} w={rec['w']} {detail}",
                    EXIT_CHECK_FAILED)


def _cmd_survey(args) -> None:
    rows = verify.survey_conjecture(args.limit, **_grid_policies(args), jobs=args.jobs)
    render = functools.cache(decimal_str)
    records = [r.to_record(render) for r in rows]
    header = ["p", "g", "w", "gcd_full", "gcd_minus", "gcd_plus", "phi",
              "lower_bound", "upper_bound", "gcd_plus_is_5"]
    if args.format == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_csv_text(header, [[_cell(rec[k]) for k in header]
                                 for rec in records]), args.out)
    else:  # the csv fields up to phi, then the bounds
        lines = [" ".join(f"{k}={rec[k]}" for k in header[:7])
                 + f" bounds=[{rec['lower_bound']},{rec['upper_bound']}]" for rec in records]
        lines.append(f"{len(records)} rows")
        _emit("\n".join(lines) + "\n", args.out)


def _add_instance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g", type=_integer, help="primitive root (default: smallest)")
    parser.add_argument("--w", help="offset bits w0w1w2w3 (default: 0101)")
    parser.add_argument("--allow-any-w", action="store_true",
                        help="accept w with w0 != w2 or w1 != w3")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--limit", type=_integer, required=True)
    parser.add_argument("--g", default="smallest", metavar="{smallest,all,ROOT}",
                        help="smallest (the default) or all roots of each p, or one ROOT")
    parser.add_argument("--w", default="default", metavar="{default,all,BITS}",
                        help="default (0101) or all admissible w, or one admissible w as BITS")
    parser.add_argument("--jobs", type=_integer, default=1,
                        help="parallel grid workers, >= 1 (capped at cores and eligible primes)")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write to file instead of stdout")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    _add_out_flag(parser)
    parser.add_argument("--format", choices=("plain", "json", "csv"), default="plain")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser and its four subparsers; each shared flag set is added by
    one helper, in the order the --help texts list it."""
    ap = argparse.ArgumentParser(
        prog="twoadic",
        description="Interleaved binary sequences: construction, analysis, "
                    "verification, and the gcd survey.",
        epilog="exit codes: 0 ok, 1 failed check, 2 ineligible p/usage, "
               "3 non-primitive g, 4 bad sequence file, 5 cannot write output",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit one sequence with its parameters")
    _add_instance_flags(c)
    _add_out_flag(c)
    c.add_argument("--p", type=_integer, required=True, help="eligible prime (a^2 + 4)")
    c.set_defaults(run=_cmd_construct)

    a = sub.add_parser("analyze", help="autocorrelation, 2-adic and linear complexity")
    _add_instance_flags(a)
    _add_output_flags(a)
    a.add_argument("--p", type=_integer)
    a.add_argument("--sequence-file", help="fixture literal instead of --p")
    a.set_defaults(run=_cmd_analyze)

    for name, run, text in (("verify", _cmd_verify, "run every check over the prime grid"),
                            ("survey", _cmd_survey,
                             "tabulate gcd(S(2), 2^(2p)+1) per grid point")):
        grid = sub.add_parser(name, help=text)
        _add_grid_flags(grid)
        _add_output_flags(grid)
        grid.set_defaults(run=run)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except (_Exit, ValueError) as exc:  # ValueError: a w, grid or --jobs refused
        print(f"twoadic: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _Exit) else EXIT_BAD_PRIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
