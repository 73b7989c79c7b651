"""Verification harness for the interleaved construction.

Each check re-derives one claimed property from scratch and compares exactly,
with the raw integers kept as witnesses: the closed-form autocorrelation
against the spectrum computed from the bits, the S(2)T(2^-1) product against
its closed form, the small-factor gcd facts, the coprimality facts behind the
complexity bound, and the bound itself. No check uses a tolerance. The
spectrum check proves a Su sequence's spectrum in O(N) with no product: the
sequence is fixed by tau -> r tau mod 4p, so AC is constant on the 20 orbits
of r, and 20 shifts, one per orbit, equal the closed form's 20 values
(analysis._matches_closed_form). Both spectra read one orbit table per
prime, proved to give shift tau the code 5 (tau mod 4) + ind_g0(tau mod p)
mod 4 (analysis._orbit_table). A sequence the certificate does not
prove gets its brute spectrum from analysis.autocorrelation (from the same
orbits where it has the symmetry, else from one product) and is compared
at every shift.

A survey mode tabulates the bounds check's gcd split across the eligible
primes. Given the closed form that check_product_congruence checks, its
cofactor gcd_plus = gcd(S(2), 2^(2p)+1) is 5 for p > 5. Modulo
Q = (2^(2p)+1)/5 every term of product_closed_form but -p vanishes, so
S(2) T(2^-1) = -2p (mod Q): a prime dividing S(2) and Q divides 2p. Q is odd
and 2^(2p)+1 = 5 (mod p) by Fermat, so gcd(S(2), Q) = 1. 25 does not divide
2^(2p)+1, as ord_25(2) = 20 does not divide 4p, so gcd_plus = gcd(S(2), 5).
Column j (bits 4t + j) has (p-1)/2 + w_j ones and 2^4 = 1 (mod 5), so
S(2) = sum_j 2^j ((p-1)/2 + w_j) = 0 (mod 5) for all four admissible w.
The minus part gcd_minus = gcd(S(2), 2^(2p)-1) is gcd(S(2), 3). Modulo
R = (2^(2p)-1)/3, 2^(2p) = 1 and (2^(4p)-1)/15 = 0, so S(2) T(2^-1) =
2 (X + Y K) with X = 2 eps (2^p - eps) - p and Y = 2 eps b 2^p; K^2 = p, as
K(x)^2 = p - (1 + x + ... + x^(p-1)) mod x^p - 1 for p = 1 mod 4 and
16^p = 1. With b^2 = 1, Z = T(2^-1) (X - Y K)(p^2 + 8 + 4 eps (p + 2) 2^p)
gives S(2) Z = 2 (X^2 - 4p)(p^2 + 8 + 4 eps (p + 2) 2^p)
= 2p(p - 4)(p^2 + 4p + 16) (mod R): a prime dividing S(2) and R divides
2p(p - 4)(p^2 + 4p + 16). R = 1 + 4 + ... + 4^(p-1) = p (mod 3) is odd and
prime to 3, so a prime q dividing R divides 4^p - 1 and is not 3:
ord_q(2) = p or 2p, and q = 1 (mod 2p) divides neither p nor p - 4.
Wherever R is also prime to p^2 + 4p + 16, which the tests check for
5 < p <= 2213, gcd(S(2), R) = 1 and, as 2^(2p)-1 = 3R,
gcd_minus = gcd(S(2), 3).

Each check takes the parameters and, optionally, the sequence to check; it
builds the parameters' own sequence when none is given and refuses one
whose period is not 4p (_point_sequence). No check reads another's result
or corrects b, so a wrong sign of b fails the spectrum and product checks.
The construction depends on the primitive root g only through e = ind_g0(g)
mod 4, 1 or 3, read for every root from numtheory's one walk over the powers
of g0. One grid driver serves run_all and the survey. Its unit of work is the
prime: one task per p, run serially or in a process pool, evaluates each
construction (p, e, w) once, at the first g of class e, and gives every g of
that class one shared list of the class's results in w order. The parent
gives each g its own record of each result: run_all builds a CheckReport
through its constructor, and the survey copies the SurveyRow past its frozen
__init__. Serially only the current prime's sequences are kept. A w and its
complement share S(2) T(2^-1), its closed form and the gcd with 2^N - 1,
through two-entry caches here and in analysis, so each complement pair is
evaluated once.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from dataclasses import dataclass, field

from . import analysis, bigmod
from .bigmod import decimal_str
from .numtheory import (
    _CLASS_TEXT,
    _require_odd_prime,
    _roots_with_index,
    eligible_primes,
    index_mod4,
    is_primitive_root,
    residue_codes,
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

# One name per check: its verdicts and the report of an error raised inside it
# both carry it.
SPECTRUM_CHECK = "autocorrelation-spectrum"
PRODUCT_CHECK = "st-product-congruence"
SMALL_FACTOR_CHECK = "small-factor-gcds"
COPRIMALITY_CHECK = "coprimality-facts"
BOUNDS_CHECK = "complexity-bounds"


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

    def to_record(self, render=decimal_str) -> dict[str, object]:
        """Flat record; big integers become decimal strings through render."""
        return {
            "check": self.check,
            "p": self.p,
            "g": identity_field(self.g),
            "w": identity_field(self.w),
            "b": identity_field(self.b),
            "pass": self.passed,
            "witnesses": {k: render(v) if type(v) is int else v
                          for k, v in self.witnesses.items()},
        }


@dataclass(frozen=True)
class SurveyRow:
    """One grid point of the conjecture survey.

    gcd_full = gcd(S(2), 2^(4p)-1) splits as gcd_minus * gcd_plus over the
    coprime factors 2^(2p)-1 and 2^(2p)+1, so gcd_plus is read from the other
    two. phi is the 2-adic complexity, bracketed by the proven bounds
    [2p, 4p-2], which are read from p.
    """

    p: int
    g: int
    w: tuple[int, int, int, int]
    gcd_full: int
    gcd_minus: int
    phi: int

    @property
    def gcd_plus(self) -> int:
        return self.gcd_full // self.gcd_minus

    @property
    def lower_bound(self) -> int:
        return _proven_bounds(self.p)[0]

    @property
    def upper_bound(self) -> int:
        return _proven_bounds(self.p)[1]

    def to_record(self, render=decimal_str) -> dict[str, object]:
        """Flat record; the gcds become decimal strings through render."""
        return {
            "p": self.p,
            "g": self.g,
            "w": identity_field(self.w),
            "gcd_full": render(self.gcd_full),
            "gcd_minus": render(self.gcd_minus),
            "gcd_plus": render(self.gcd_plus),
            "phi": self.phi,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "gcd_plus_is_5": self.gcd_plus == 5,
        }


def _proven_bounds(p: int) -> tuple[int, int]:
    """The proven bracket [2p, 4p - 2] of the 2-adic complexity at period 4p."""
    return 2 * p, 4 * p - 2


def identity_field(value: int | tuple[int, ...] | None) -> object:
    """g, w or b as records and headers show it: w as four bits, "" if missing."""
    if isinstance(value, tuple):
        return "".join(str(bit) for bit in value)
    return "" if value is None else value


def _report(check: str, params: ConstructionParams, passed: bool,
            witnesses: dict[str, object]) -> CheckReport:
    """check's report on params: p, g, w and b from params."""
    return CheckReport(check=check, p=params.p, passed=passed, g=params.g, w=params.w,
                       b=params.b, witnesses=witnesses)


def _point_sequence(params: ConstructionParams,
                    sequence: BinarySequence | None) -> BinarySequence:
    """sequence, or params' own Su sequence if it is None; ValueError unless
    its period is 4p."""
    s = su_sequence(params) if sequence is None else sequence
    if s.period != 4 * params.p:
        raise ValueError(f"sequence period {s.period} is not 4p = {4 * params.p}")
    return s


def check_autocorrelation_spectrum(params: ConstructionParams,
                                   sequence: BinarySequence | None = None) -> CheckReport:
    """Brute-force autocorrelation versus the closed form, at every shift.

    The closed form is taken with the b that quartic_decomposition reads from
    Jacobi's congruence (the b_jacobi witness), so a wrong sign of b fails
    here. The check passes when the symmetry certificate proves the brute
    spectrum equal to the closed form (analysis._matches_closed_form: the
    sequence fixed by tau -> r tau, the prime's orbit table proved, and AC
    at one shift per orbit equal to the closed form's value on that orbit,
    20 in all), with no product; anything else takes the brute spectrum
    from analysis.autocorrelation (no product for a sequence with the
    symmetry, else one) and compares it with the closed form packed
    through the same table, recording the first differing shift on a
    mismatch; a table that is not proved raises, so it can never pass. On
    a match sign_flipped is always False and b_used is b: both are kept so
    records keep their keys.
    Independently re-asserts that the out-of-phase values lie in {0, 4, -4}.
    """
    s = _point_sequence(params, sequence)
    witnesses: dict[str, object] = {"b_jacobi": params.b}
    if analysis._matches_closed_form(s, params):
        matched, out_of_phase = True, analysis._closed_form_out_of_phase(params)
    else:
        brute = analysis.autocorrelation(s)
        claimed = analysis.closed_form_spectrum(params)
        matched, out_of_phase = brute == claimed, brute.out_of_phase()
        if not matched:
            tau = next(t for t in range(brute.period)
                       if brute.values[t] != claimed.values[t])
            witnesses.update(first_mismatch_tau=tau,
                             brute_value=brute.values[tau],
                             claimed_value=claimed.values[tau])
    if matched:
        witnesses["sign_flipped"] = False

    magnitude_ok = out_of_phase <= {0, 4, -4}
    witnesses["b_used"] = params.b if matched else None
    witnesses["magnitude_ok"] = magnitude_ok
    return _report(SPECTRUM_CHECK, params, matched and magnitude_ok, witnesses)


def product_closed_form(params: ConstructionParams) -> bigmod.MersenneResidue:
    """Closed form of S(2) T(2^-1) mod 2^(4p) - 1 for the construction.

    With K = sum over i in Z_p* of (i/p) 2^(4i) and eps = +1 when
    w(0) != w(1), -1 otherwise:

      S(2) T(2^-1) = 2 [ (2^(4p)-1)/15 + eps (2^(2p)+1) (2^p - eps)
                         + eps 2^p (2^(2p)+1) b K - p ]

    The sign of the character-sum term is tied to b, which makes the check
    sensitive to the quartic sign convention. K is the packed residues minus
    the packed non-residues, each read as hex digits (digit i is 2^(4i)) from
    the residue codes of numtheory.residue_codes. The result depends on
    (p, b, eps) only and is kept for the last two of them.
    """
    return _product_closed_form(params.p, params.b, analysis._eps(params.w))


@functools.lru_cache(maxsize=2)
def _product_closed_form(p: int, b: int, eps: int) -> bigmod.MersenneResidue:
    n = 4 * p
    m = bigmod.modulus(n)
    codes = residue_codes(p)[::-1]  # hex text puts i = p - 1 first
    character_sum = (int(codes.translate(_CLASS_TEXT[1]), 16)
                     - int(codes.translate(_CLASS_TEXT[2]), 16))
    # the factors 2^p and 2^(2p) + 1 are sparse: multiply by them with shifts
    sparse = (1 << 3 * p) + (1 << p) - eps * ((1 << 2 * p) + 1)
    inner = (m // 15
             + eps * sparse
             + eps * b * ((character_sum << 3 * p) + (character_sum << p))
             - p)
    return bigmod.add_signed(bigmod.reduce(0, n), 2 * inner)


def check_product_congruence(params: ConstructionParams,
                             sequence: BinarySequence | None = None) -> CheckReport:
    """Evaluate S(2) T(2^-1) from the bits and compare with the closed form."""
    s = _point_sequence(params, sequence)
    lhs = analysis._st_product(analysis._complement_key(s))
    rhs = product_closed_form(params)
    return _report(PRODUCT_CHECK, params, lhs == rhs, {"lhs": lhs.value, "rhs": rhs.value})


def check_small_factor_gcds(params: ConstructionParams,
                            sequence: BinarySequence | None = None) -> CheckReport:
    """gcd(S(2), 3) = 1, gcd(S(2), 5) = 5, and 3 | 2^(2p)-1, 5 | 2^(2p)+1.

    The gcd facts genuinely depend on w (complementing columns shifts S(2)
    mod small primes), so outcomes are recorded per w rather than assumed to
    transfer between offset vectors.
    """
    s = _point_sequence(params, sequence)
    s2 = bigmod.eval_S(s).value
    p = params.p
    gcd3 = math.gcd(s2, 3)
    gcd5 = math.gcd(s2, 5)
    div3 = pow(4, p, 3) == 1  # 2^(2p) = 4^p = 1 mod 3
    div5 = pow(4, p, 5) == 4  # 4^p = -1 mod 5
    return _report(SMALL_FACTOR_CHECK, params, gcd3 == 1 and gcd5 == 5 and div3 and div5,
                   {"s2": s2, "gcd_3": gcd3, "gcd_5": gcd5,
                    "divides_2p_minus": div3, "divides_2p_plus": div5})


def check_coprimality_facts(p: int) -> CheckReport:
    """gcd(p, 2^p - 1) = 1 and gcd(p + 4, (2^p + 1)/3) = 1 for odd prime p."""
    _require_odd_prime(p)
    mersenne = (1 << p) - 1
    cofactor, rem = divmod((1 << p) + 1, 3)  # 3 | 2^p + 1 for odd p
    gcd1 = math.gcd(p, mersenne)
    gcd2 = math.gcd(p + 4, cofactor)
    return CheckReport(
        check=COPRIMALITY_CHECK,
        p=p,
        passed=gcd1 == 1 and gcd2 == 1 and rem == 0,
        witnesses={"gcd_p_mersenne": gcd1, "gcd_p4_cofactor": gcd2},
    )


def check_complexity_bounds(params: ConstructionParams,
                            sequence: BinarySequence | None = None) -> CheckReport:
    """2p <= phi <= 4p - 2, gcd(S(2), 2^(2p)-1) = 1, and 5 | gcd(S(2), 2^(4p)-1).

    The three components are recorded separately so a failure localizes.
    The survey tabulates phi and the gcd split: gcd_minus = gcd(S(2), 2^(2p)-1)
    is read from the one big gcd_full, as 2^(2p)-1 divides 2^(4p)-1.
    """
    s = _point_sequence(params, sequence)
    p = params.p
    two_adic = analysis.two_adic_complexity(s)
    gcd_minus = math.gcd(two_adic.gcd, (1 << (2 * p)) - 1)
    lower, upper = _proven_bounds(p)
    bounds_ok = lower <= two_adic.phi <= upper
    coprime_ok = gcd_minus == 1
    div5_ok = two_adic.gcd % 5 == 0
    return _report(BOUNDS_CHECK, params, bounds_ok and coprime_ok and div5_ok,
                   {"phi": two_adic.phi, "lower_bound": lower,
                    "upper_bound": upper, "bounds_ok": bounds_ok,
                    "gcd_full": two_adic.gcd, "gcd_minus": gcd_minus,
                    "coprime_ok": coprime_ok, "div5_ok": div5_ok})


def _roots_for(p: int, g_policy) -> list[tuple[int, int]]:
    """[(g, e), ...] of the policy's roots at p, ascending, with
    e = ind_g0(g) mod 4 read from the walk of the cyclotomy; the smallest
    root g0 itself has e = 1.
    """
    if isinstance(g_policy, int):
        if not is_primitive_root(g_policy, p):
            raise ValueError(f"g={g_policy} is not a primitive root of {p}")
        return [(g_policy, index_mod4(p, g_policy))]
    if g_policy == "smallest":
        return [(smallest_primitive_root(p), 1)]
    if g_policy == "all":
        return _roots_with_index(p)
    raise ValueError(f"unknown g policy {g_policy!r}")


def _w_vectors(w_policy) -> list[tuple[int, int, int, int]]:
    if isinstance(w_policy, tuple):
        if w_policy not in ADMISSIBLE_W:
            raise ValueError(f"w={identity_field(w_policy)} is not admissible "
                             "(need w0=w2, w1=w3)")
        return [w_policy]
    if w_policy == "default":
        return [(0, 1, 0, 1)]
    if w_policy == "all":
        return list(ADMISSIBLE_W)
    raise ValueError(f"unknown w policy {w_policy!r}")


def _prime_points(p: int, g_policy, ws, evaluate) -> list:
    """[(g, results), ...] of one eligible p in g order, results in w order.

    Each construction (e, w), e = ind_g0(g) mod 4, is evaluated once, at the
    first g of class e, and every g of that class gets the class's one
    results list, the same object.
    """
    roots = _roots_for(p, g_policy)
    classes: dict = {}
    for g, e in roots:
        if e not in classes:
            classes[e] = [evaluate((p, g, w)) for w in ws]
    return [(g, classes[e]) for g, e in roots]


def _grid(limit: int, g_policy, w_policy, evaluate, jobs: int = 1):
    """Each eligible p with its [(g, results), ...] from _prime_points.

    The prime is the one unit of work, so its cyclotomy is computed once, by
    whichever process evaluates it. Serially one prime at a time is resolved
    and evaluated, as numtheory's one-prime caches expect; with jobs > 1 the
    primes are mapped over a process pool in the same order. jobs < 1 raises
    ValueError on the first iteration, before any prime is evaluated.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    task = functools.partial(_prime_points, g_policy=g_policy, ws=_w_vectors(w_policy),
                             evaluate=evaluate)
    primes = eligible_primes(limit)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())  # the cores this process may run on
    workers = _worker_count(jobs, cpus, len(primes))
    if workers == 1:
        yield from zip(primes, map(task, primes))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from zip(primes, pool.map(task, primes))


def _survey_point(point: tuple[int, int, tuple[int, int, int, int]]) -> SurveyRow:
    params = construction_params(*point)
    bounds = check_complexity_bounds(params).witnesses
    return SurveyRow(params.p, params.g, params.w, bounds["gcd_full"], bounds["gcd_minus"],
                     bounds["phi"])


def survey_conjecture(limit: int, g_policy="smallest", w_policy="default",
                      jobs: int = 1) -> list[SurveyRow]:
    """Tabulate the gcd split of S(2) for every grid point.

    Each row reads phi, gcd_full and gcd_minus from the witnesses of
    check_complexity_bounds, and derives gcd_plus = gcd_full / gcd_minus and
    the bounds. gcd_plus_is_5 is a column, never an assertion: the computed
    gcd_plus cross-checks the module docstring's argument that it is 5 for
    p > 5. Rows are ordered by (p, g, w) for every jobs >= 1, which caps the
    workers as in run_all. Every g of a class gets a copy of each row of the
    class's list from _root_copy.
    """
    return [_root_copy(r, g)
            for _, points in _grid(limit, g_policy, w_policy, _survey_point, jobs)
            for g, rows in points for r in rows]


def _root_copy(row: SurveyRow, g: int) -> SurveyRow:
    """The shared row as root g's own copy.

    An all-g survey makes one copy per row and root, so the copy skips the
    frozen dataclass __init__, which sets each field through
    object.__setattr__: it fills its __dict__ from the row's in one update
    and then sets g, with no keyword dict built per row.
    """
    copy = object.__new__(SurveyRow)
    fields = copy.__dict__
    fields.update(row.__dict__)
    fields["g"] = g
    return copy


def _error_report(check: str, p: int, g, w, exc: Exception) -> CheckReport:
    return CheckReport(check=check, p=p, g=g, w=w, passed=False,
                       witnesses={"error": f"{type(exc).__name__}: {exc}"})


def _evaluate_point(point: tuple[int, int, tuple[int, int, int, int]]) -> list[CheckReport]:
    """All per-(p, g, w) checks on one sequence, in report order.

    The checks are independent: each reads the parameters and the sequence
    and nothing another check found. A check that raises becomes a failed
    report under its check name, and the others still run.
    """
    p, g, w = point
    try:
        params = construction_params(p, g, w)
        s = su_sequence(params)
    except Exception as exc:  # noqa: BLE001 - the batch must not abort
        return [_error_report("construction", p, g, w, exc)]

    out = []
    for name, check in ((SPECTRUM_CHECK, check_autocorrelation_spectrum),
                        (PRODUCT_CHECK, check_product_congruence),
                        (SMALL_FACTOR_CHECK, check_small_factor_gcds),
                        (BOUNDS_CHECK, check_complexity_bounds)):
        try:
            out.append(check(params, s))
        except Exception as exc:  # noqa: BLE001
            out.append(_error_report(name, p, g, w, exc))
    return out


def _worker_count(jobs: int, cpus: int | None, tasks: int) -> int:
    """Processes worth starting: never more than requested, cores, or tasks."""
    return max(1, min(jobs, cpus or 1, tasks))


def run_all(limit: int, g_policy="smallest", w_policy="default",
            jobs: int = 1) -> tuple[list[CheckReport], dict[str, object]]:
    """Run every check over the configured grid.

    Results come back grouped by p (coprimality first, then the per-(g, w)
    checks) in (p, g, w) order regardless of how many workers evaluated
    them. The summary's keys are ``limit``, ``total``, ``passed``, ``failed``
    (the exit status source) and ``failures_by_kind``, which counts the
    failing reports per ``"<check> w=<wwww>"`` (the check name alone for
    checks without a w), in sorted key order. Each construction (p, e, w) is
    checked once, at the first g of its class, and each g of the class gets
    its own CheckReport of every report in the class's list, with its own
    witnesses dict. jobs >= 1 is a ceiling: at most one worker per usable
    core and per eligible prime is started, and each worker gets whole primes.
    """
    ordered: list[CheckReport] = []
    for p, points in _grid(limit, g_policy, w_policy, _evaluate_point, jobs):
        ordered.append(check_coprimality_facts(p))
        ordered += [CheckReport(r.check, r.p, r.passed, g, r.w, r.b, dict(r.witnesses))
                    for g, results in points for reports in results for r in reports]

    kinds = Counter((r.check, r.w) for r in ordered if not r.passed)
    failed = sum(kinds.values())
    by_kind = sorted((f"{check} w={identity_field(w)}" if w else check, n)
                     for (check, w), n in kinds.items())
    return ordered, {"limit": limit, "total": len(ordered), "passed": len(ordered) - failed,
                     "failed": failed, "failures_by_kind": dict(by_kind)}
