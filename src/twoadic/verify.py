"""Verification harness for the interleaved construction.

Each check re-derives one claimed property from scratch and compares exactly,
with the raw integers kept as witnesses: the closed-form autocorrelation
against the spectrum computed from the bits, the S(2)T(2^-1) product against
its closed form, the small-factor gcd facts, the coprimality facts behind the
complexity bound, and the bound itself. A survey mode tabulates gcd(S(2), 2^(2p)+1) across the
eligible primes; that gcd is conjectured (not known) to always be 5, so the
survey only reports.

No check uses a tolerance anywhere; everything is exact integer equality.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from . import analysis, bigmod
from .bigmod import decimal_str
from .numtheory import (
    all_primitive_roots,
    eligible_primes,
    is_prime,
    is_primitive_root,
    legendre_table,
    smallest_primitive_root,
)
from .sequences import (
    ADMISSIBLE_W,
    BinarySequence,
    ConstructionParams,
    construction_params,
    su_sequence,
)

__all__ = [
    "CheckReport",
    "SurveyRow",
    "check_autocorrelation_spectrum",
    "check_product_congruence",
    "product_closed_form",
    "check_small_factor_gcds",
    "check_coprimality_facts",
    "check_complexity_bounds",
    "survey_conjecture",
    "run_all",
]


@dataclass
class CheckReport:
    """Outcome of one check: identifying parameters, verdict, and witnesses.

    Witness values are the exact integers both sides of each relation
    produced, so a failure is reproducible from the report alone.
    """

    check: str
    p: int
    passed: bool
    g: int | None = None
    w: tuple[int, int, int, int] | None = None
    b: int | None = None
    witnesses: dict[str, object] = field(default_factory=dict)

    def to_record(self) -> dict[str, object]:
        """Flat record; big integers become decimal strings."""
        return {
            "check": self.check,
            "p": self.p,
            "g": "" if self.g is None else self.g,
            "w": "" if self.w is None else "".join(str(bit) for bit in self.w),
            "b": "" if self.b is None else self.b,
            "pass": self.passed,
            "witnesses": {k: _jsonable(v) for k, v in self.witnesses.items()},
        }


@dataclass(frozen=True)
class SurveyRow:
    """One grid point of the conjecture survey.

    gcd_full = gcd(S(2), 2^(4p)-1) splits as gcd_minus * gcd_plus over the
    coprime factors 2^(2p)-1 and 2^(2p)+1. phi is the 2-adic complexity,
    bracketed by the proven bounds [2p, 4p-2].
    """

    p: int
    g: int
    w: tuple[int, int, int, int]
    gcd_full: int
    gcd_minus: int
    gcd_plus: int
    phi: int
    lower_bound: int
    upper_bound: int

    def to_record(self) -> dict[str, object]:
        return {
            "p": self.p,
            "g": self.g,
            "w": "".join(str(bit) for bit in self.w),
            "gcd_full": decimal_str(self.gcd_full),
            "gcd_minus": decimal_str(self.gcd_minus),
            "gcd_plus": decimal_str(self.gcd_plus),
            "phi": self.phi,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "gcd_plus_is_5": self.gcd_plus == 5,
        }


def _jsonable(v: object) -> object:
    if isinstance(v, bool) or not isinstance(v, int):
        return v
    return decimal_str(v)


def _flip_b(params: ConstructionParams) -> ConstructionParams:
    return replace(params, quartic=replace(params.quartic, b=-params.quartic.b))


def check_autocorrelation_spectrum(params: ConstructionParams,
                                   sequence: BinarySequence | None = None) -> CheckReport:
    """Brute-force autocorrelation versus the closed form, at every shift.

    This is also the sign gate for b: if the closed form matches only after
    negating the Jacobi-sum b, the flip is recorded and the flipped value is
    what downstream congruence checks should use. Independently re-asserts
    that the out-of-phase values lie in {0, 4, -4}.
    """
    s = su_sequence(params) if sequence is None else sequence
    brute = analysis.autocorrelation(s)
    witnesses: dict[str, object] = {"b_jacobi": params.b}

    b_used: int | None = None
    if brute == analysis.closed_form_spectrum(params):
        b_used = params.b
        witnesses["sign_flipped"] = False
    elif brute == analysis.closed_form_spectrum(_flip_b(params)):
        b_used = -params.b
        witnesses["sign_flipped"] = True
    else:
        claimed = analysis.closed_form_spectrum(params)
        tau = next(t for t in range(brute.period)
                   if brute.values[t] != claimed.values[t])
        witnesses.update(first_mismatch_tau=tau,
                         brute_value=brute.values[tau],
                         claimed_value=claimed.values[tau])

    magnitude_ok = brute.out_of_phase() <= {0, 4, -4}
    witnesses["b_used"] = b_used
    witnesses["magnitude_ok"] = magnitude_ok
    return CheckReport(
        check="autocorrelation-spectrum",
        p=params.p, g=params.g, w=params.w,
        b=b_used if b_used is not None else params.b,
        passed=b_used is not None and magnitude_ok,
        witnesses=witnesses,
    )


def product_closed_form(params: ConstructionParams) -> bigmod.MersenneResidue:
    """Closed form of S(2) T(2^-1) mod 2^(4p) - 1 for the construction.

    With K = sum over i in Z_p* of (i/p) 2^(4i) and e = +1 when w(0) != w(1),
    -1 otherwise:

      S(2) T(2^-1) = 2 [ (2^(4p)-1)/15 + e (2^(2p)+1) (2^p - e)
                         + e 2^p (2^(2p)+1) b K - p ]

    The sign of the character-sum term is tied to b, which makes the check
    sensitive to the quartic sign convention. K is the packed residues minus
    the packed non-residues, each read as hex digits (digit i is 2^(4i)).
    """
    p, b = params.p, params.b
    n = 4 * p
    m = bigmod.modulus(n)
    eps = 1 if params.w[0] != params.w[1] else -1
    chi = legendre_table(p)[::-1]  # hex text puts i = p - 1 first
    residues = int("".join("1" if c == 1 else "0" for c in chi), 16)
    non_residues = int("".join("1" if c == -1 else "0" for c in chi), 16)
    character_sum = residues - non_residues
    two_2p = 1 << (2 * p)
    inner = (m // 15
             + eps * (two_2p + 1) * ((1 << p) - eps)
             + eps * (1 << p) * (two_2p + 1) * b * character_sum
             - p)
    return bigmod.add_signed(bigmod.reduce(0, n), 2 * inner)


def check_product_congruence(params: ConstructionParams,
                             sequence: BinarySequence | None = None) -> CheckReport:
    """Evaluate S(2) T(2^-1) from the bits and compare with the closed form."""
    s = su_sequence(params) if sequence is None else sequence
    lhs = bigmod.mul(bigmod.eval_S(s), bigmod.eval_T_inv(s))
    rhs = product_closed_form(params)
    return CheckReport(
        check="st-product-congruence",
        p=params.p, g=params.g, w=params.w, b=params.b,
        passed=lhs == rhs,
        witnesses={"lhs": lhs.value, "rhs": rhs.value},
    )


def check_small_factor_gcds(params: ConstructionParams,
                            sequence: BinarySequence | None = None) -> CheckReport:
    """gcd(S(2), 3) = 1, gcd(S(2), 5) = 5, and 3 | 2^(2p)-1, 5 | 2^(2p)+1.

    The gcd facts genuinely depend on w (complementing columns shifts S(2)
    mod small primes), so outcomes are recorded per w rather than assumed to
    transfer between offset vectors.
    """
    p = params.p
    s = su_sequence(params) if sequence is None else sequence
    s2 = bigmod.eval_S(s).value
    gcd3 = math.gcd(s2, 3)
    gcd5 = math.gcd(s2, 5)
    div3 = ((1 << (2 * p)) - 1) % 3 == 0
    div5 = ((1 << (2 * p)) + 1) % 5 == 0
    return CheckReport(
        check="small-factor-gcds",
        p=p, g=params.g, w=params.w, b=params.b,
        passed=gcd3 == 1 and gcd5 == 5 and div3 and div5,
        witnesses={"s2": s2, "gcd_3": gcd3, "gcd_5": gcd5,
                   "divides_2p_minus": div3, "divides_2p_plus": div5},
    )


def check_coprimality_facts(p: int) -> CheckReport:
    """gcd(p, 2^p - 1) = 1 and gcd(p + 4, (2^p + 1)/3) = 1 for odd prime p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    mersenne = (1 << p) - 1
    cofactor, rem = divmod((1 << p) + 1, 3)  # 3 | 2^p + 1 for odd p
    gcd1 = math.gcd(p, mersenne)
    gcd2 = math.gcd(p + 4, cofactor)
    return CheckReport(
        check="coprimality-facts",
        p=p,
        passed=gcd1 == 1 and gcd2 == 1 and rem == 0,
        witnesses={"gcd_p_mersenne": gcd1, "gcd_p4_cofactor": gcd2},
    )


def check_complexity_bounds(params: ConstructionParams,
                            sequence: BinarySequence | None = None) -> CheckReport:
    """2p <= phi <= 4p - 2, gcd(S(2), 2^(2p)-1) = 1, and 5 | gcd(S(2), 2^(4p)-1).

    The three components are recorded separately so a failure localizes.
    """
    p = params.p
    s = su_sequence(params) if sequence is None else sequence
    report = analysis.two_adic_complexity(s)
    lower, upper = 2 * p, 4 * p - 2
    bounds_ok = lower <= report.phi <= upper
    gcd_minus = math.gcd(report.gcd, (1 << (2 * p)) - 1)
    coprime_ok = gcd_minus == 1
    div5_ok = report.gcd % 5 == 0
    return CheckReport(
        check="complexity-bounds",
        p=p, g=params.g, w=params.w, b=params.b,
        passed=bounds_ok and coprime_ok and div5_ok,
        witnesses={"phi": report.phi, "lower_bound": lower, "upper_bound": upper,
                   "bounds_ok": bounds_ok, "gcd_full": report.gcd,
                   "gcd_minus": gcd_minus, "coprime_ok": coprime_ok,
                   "div5_ok": div5_ok},
    )


def _roots_for(p: int, g_policy) -> list[int]:
    if isinstance(g_policy, int):
        if not is_primitive_root(g_policy, p):
            raise ValueError(f"{g_policy} is not a primitive root of {p}")
        return [g_policy]
    if g_policy == "smallest":
        return [smallest_primitive_root(p)]
    if g_policy == "all":
        return sorted(all_primitive_roots(p))
    raise ValueError(f"unknown g policy {g_policy!r}")


def _w_vectors(w_policy) -> list[tuple[int, int, int, int]]:
    if isinstance(w_policy, tuple):
        if w_policy not in ADMISSIBLE_W:
            raise ValueError("explicit w must be admissible")
        return [w_policy]
    if w_policy == "default":
        return [(0, 1, 0, 1)]
    if w_policy == "all":
        return list(ADMISSIBLE_W)
    raise ValueError(f"unknown w policy {w_policy!r}")


def _grid(limit: int, g_policy, w_policy) -> list[tuple[int, int, tuple[int, int, int, int]]]:
    return [(p, g, w)
            for p in eligible_primes(limit)
            for g in _roots_for(p, g_policy)
            for w in _w_vectors(w_policy)]


def survey_conjecture(limit: int, g_policy="smallest", w_policy="default") -> list[SurveyRow]:
    """Tabulate the gcd split of S(2) for every grid point.

    Reporting only: whether gcd_plus equals 5 is a column, never an
    assertion. Rows are ordered by (p, g, w), so identical grids produce
    identical tables. One big gcd per row: 2^(2p)-1 divides 2^(4p)-1, so
    gcd_minus is read from gcd_full, and gcd_plus is the cofactor.
    """
    rows = []
    for p, g, w in _grid(limit, g_policy, w_policy):
        report = analysis.two_adic_complexity(su_sequence(construction_params(p, g, w)))
        gcd_minus = math.gcd(report.gcd, (1 << (2 * p)) - 1)
        rows.append(SurveyRow(
            p=p, g=g, w=w,
            gcd_full=report.gcd,
            gcd_minus=gcd_minus,
            gcd_plus=report.gcd // gcd_minus,
            phi=report.phi,
            lower_bound=2 * p,
            upper_bound=4 * p - 2,
        ))
    return rows


def _error_report(check: str, p: int, g, w, exc: Exception) -> CheckReport:
    return CheckReport(check=check, p=p, g=g, w=w, passed=False,
                       witnesses={"error": f"{type(exc).__name__}: {exc}"})


def _evaluate_point(point: tuple[int, int, tuple[int, int, int, int]]) -> list[CheckReport]:
    """All per-(p, g, w) checks, gate first so downstream checks see the
    resolved sign of b.

    The sequence is built once and every check reads it; b does not enter
    the construction, so flipping it after the gate leaves the sequence valid.
    """
    p, g, w = point
    try:
        params = construction_params(p, g, w)
        s = su_sequence(params)
    except Exception as exc:  # noqa: BLE001 - the batch must not abort
        return [_error_report("construction", p, g, w, exc)]

    out = []
    gate = check_autocorrelation_spectrum(params, sequence=s)
    out.append(gate)
    b_used = gate.witnesses.get("b_used")
    if isinstance(b_used, int) and b_used != params.b:
        params = _flip_b(params)
    for fn in (check_product_congruence, check_small_factor_gcds,
               check_complexity_bounds):
        try:
            out.append(fn(params, sequence=s))
        except Exception as exc:  # noqa: BLE001
            out.append(_error_report(fn.__name__, p, g, w, exc))
    return out


def _worker_count(jobs: int, cpus: int | None, points: int) -> int:
    """Processes worth starting: never more than requested, cores, or points."""
    return max(1, min(jobs, cpus or 1, points))


def run_all(limit: int, g_policy="smallest", w_policy="default",
            jobs: int = 1) -> tuple[list[CheckReport], dict[str, object]]:
    """Run every check over the configured grid.

    Results come back grouped by p (coprimality first, then the per-(g, w)
    checks) in (p, g, w) order regardless of how many workers evaluated
    them. The summary's ``failed`` count doubles as the exit status source;
    ``failures_by_kind`` counts the failures per ``"<check> w=<wwww>"`` (the
    check name alone for checks without a w), in sorted key order.
    jobs >= 1 is a ceiling: at most one worker per core and per grid point
    is started.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    primes = eligible_primes(limit)
    points = _grid(limit, g_policy, w_policy)

    workers = _worker_count(jobs, os.cpu_count(), len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_evaluate_point, points))
    else:
        per_point = [_evaluate_point(pt) for pt in points]

    by_prime: dict[int, list[CheckReport]] = {p: [] for p in primes}
    for point, reports in zip(points, per_point):
        by_prime[point[0]].extend(reports)

    ordered: list[CheckReport] = []
    for p in primes:
        ordered.append(check_coprimality_facts(p))
        ordered.extend(by_prime[p])

    failures = [{"check": r.check, "p": r.p,
                 "g": "" if r.g is None else r.g,
                 "w": "" if r.w is None else "".join(str(bit) for bit in r.w)}
                for r in ordered if not r.passed]
    kinds = Counter(f"{f['check']} w={f['w']}" if f["w"] else f["check"] for f in failures)
    summary = {
        "limit": limit,
        "total": len(ordered),
        "passed": len(ordered) - len(failures),
        "failed": len(failures),
        "failures": failures,
        "failures_by_kind": dict(sorted(kinds.items())),
    }
    return ordered, summary
