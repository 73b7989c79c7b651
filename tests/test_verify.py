import concurrent.futures
import dataclasses
import functools
import inspect
import math
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from twoadic import analysis, bigmod, numtheory, sequences, verify
from twoadic.numtheory import all_primitive_roots, eligible_primes
from twoadic.sequences import (
    ADMISSIBLE_W,
    BinarySequence,
    construction_params,
    su_sequence,
)


def flip_bit(s: BinarySequence, i: int) -> BinarySequence:
    return BinarySequence(s.period, s.value ^ (1 << i))


def negate_b(params):
    return dataclasses.replace(
        params, quartic=dataclasses.replace(params.quartic, b=-params.quartic.b))


# ----------------------------------------------------------- spectrum check

def test_spectrum_check_passes_and_records_sign():
    report = verify.check_autocorrelation_spectrum(construction_params(13, 2))
    assert report.passed
    assert report.witnesses["b_jacobi"] == 1
    assert report.witnesses["b_used"] == 1
    assert report.witnesses["sign_flipped"] is False
    assert report.witnesses["magnitude_ok"] is True


def test_spectrum_check_all_small_grid():
    for p in (5, 13):
        for w in ADMISSIBLE_W:
            assert verify.check_autocorrelation_spectrum(
                construction_params(p, 2, w)).passed


def test_spectrum_check_fails_when_b_is_negated():
    # the closed form is taken with the b it is given, so a wrong sign fails
    params = negate_b(construction_params(13, 2))
    report = verify.check_autocorrelation_spectrum(params)
    assert not report.passed
    assert report.b == report.witnesses["b_jacobi"] == -1
    assert "first_mismatch_tau" in report.witnesses
    assert report.witnesses["b_used"] is None
    assert "sign_flipped" not in report.witnesses
    assert report.witnesses["magnitude_ok"] is True


def test_spectrum_check_fails_on_corrupted_sequence():
    params = construction_params(13, 2)
    corrupted = flip_bit(su_sequence(params), 7)
    report = verify.check_autocorrelation_spectrum(params, sequence=corrupted)
    assert not report.passed
    assert "first_mismatch_tau" in report.witnesses


def spectrum_reports(params, s, monkeypatch):
    """The check's report through the symmetry certificate and through the
    decode, forced by refusing the certificate and autocorrelation's orbit
    route, with whether the certificate proved a match."""
    real = analysis._matches_closed_form
    matched = []
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_matches_closed_form",
                      lambda *args: matched.append(real(*args)) or matched[-1])
        digit = verify.check_autocorrelation_spectrum(params, s)
        patch.setattr(analysis, "_matches_closed_form", lambda *args: False)
        patch.setattr(analysis, "_orbit_spectrum", lambda s: None)
        decoded = verify.check_autocorrelation_spectrum(params, s)
    return dataclasses.asdict(digit), dataclasses.asdict(decoded), matched == [True]


LADDER_CLASSES = [(p, g) for p in eligible_primes(2213)
                  for g in {e: g for g, e in reversed(numtheory._roots_with_index(p))}.values()]


@pytest.mark.parametrize("p,g", LADDER_CLASSES, ids=[f"p{p}-g{g}" for p, g in LADDER_CLASSES])
def test_digit_comparison_equals_the_decode_on_the_ladder(p, g, monkeypatch):
    # the certificate proves every Su sequence of the ladder, the first root of
    # each class and all four w, with the report the decode gives
    for w in ADMISSIBLE_W:
        params = construction_params(p, g, w)
        certified, decoded, matched = spectrum_reports(params, su_sequence(params), monkeypatch)
        assert matched and certified == decoded and certified["passed"]
    assert len({g for q, g in LADDER_CLASSES if q == p}) == 2


def test_certificate_equals_the_decode_on_random_sequences(monkeypatch):
    # the certificate against the forced decode: random sequences of period
    # 4p, which lack the symmetry, and Su sequences of other parameters
    rng = random.Random(2213)
    primes = eligible_primes(2213)
    for _ in range(150):
        p = rng.choice(primes)
        params = construction_params(p, rng.choice(sorted(all_primitive_roots(p))),
                                     rng.choice(ADMISSIBLE_W))
        s = BinarySequence(4 * p, rng.getrandbits(4 * p))
        if rng.random() < 0.2:  # the Su sequence of other parameters
            s = su_sequence(construction_params(p, None, rng.choice(ADMISSIBLE_W)))
        certified, decoded, matched = spectrum_reports(params, s, monkeypatch)
        assert certified == decoded
        assert matched == certified["passed"]


# The symmetry certificate: tau -> r tau mod 4p fixes every Su sequence, and
# 20 shifts, one per orbit, speak for all shifts.

def orbits(p):
    """The orbits of tau -> r tau mod 4p, r = analysis._orbit_multiplier(p),
    walked one element at a time."""
    n, r = 4 * p, analysis._orbit_multiplier(p)
    seen, out = set(), []
    for tau in range(n):
        if tau not in seen:
            orbit, x = {tau}, tau * r % n
            while x != tau:
                orbit.add(x)
                x = x * r % n
            seen |= orbit
            out.append(orbit)
    return out


def trial_factors(n):
    f = 2
    while f * f <= n:
        while n % f == 0:
            yield f
            n //= f
        f += 1
    if n > 1:
        yield n


def test_orbit_multiplier_generates_the_fourth_powers_below_10_6():
    # at every eligible p < 10^6: r = 1 mod 4, r^((p-1)/4) = 1 and no
    # r^((p-1)/4q) is, so r generates D_0, the fourth powers; no smaller
    # candidate does, and r <= 81
    primes = eligible_primes(10 ** 6)
    assert len(primes) == 125
    for p in primes:
        k = (p - 1) // 4
        factors = sorted(set(trial_factors(k)))

        def generates(c):
            return pow(c, k, p) == 1 and all(pow(c, k // q, p) != 1 for q in factors)

        r = analysis._orbit_multiplier(p)
        assert r % 4 == 1 and 1 < r <= 81 and r % p and generates(r), p
        assert not any(generates(c) for c in range(5, r, 4)), p


def test_orbit_shifts_meet_each_orbit_once():
    # at every eligible p <= 733: the orbits are 20, and each holds exactly
    # one of the 20 shifts; shift 5 j + i is j mod 4 and g0^i mod p (0 for
    # i = 4), g0 the smallest primitive root
    for p in eligible_primes(733):
        walked = orbits(p)
        assert len(walked) == 20, p
        shifts = analysis._orbit_shifts(p)
        assert sorted(len(orbit.intersection(shifts)) for orbit in walked) == [1] * 20
        g0 = numtheory.smallest_primitive_root(p)
        assert [(tau % 4, tau % p) for tau in shifts] == [
            (j, pow(g0, i, p) if i < 4 else 0) for j in range(4) for i in range(5)]


def test_closed_form_drops_d_as_a_square_inverse_of_4():
    # at every eligible p < 10^6, 4d = 1 mod p and d is a square, so
    # tau2 + tau1 d = d tau mod p lies in the class of tau mod p: the closed
    # form reads tau mod 4 and the class of tau mod p alone, never d
    primes = eligible_primes(10 ** 6)
    assert len(primes) == 125
    for p in primes:
        d = sequences.ConstructionParams(numtheory.QuarticParams(p=p, b=1, g=2), (0, 1, 0, 1)).d
        assert 4 * d % p == 1 and pow(d, (p - 1) // 2, p) == 1, p


def cell_labels(p, g):
    """label[x]: 0 for x = 0 and 1 + i for x in D_i(g)."""
    label = [0] * p
    for i, members in enumerate(numtheory.cyclotomic_classes(p, g).classes):
        for x in members:
            label[x] = 1 + i
    return label


def class_function(p, g, cells):
    """The period-4p sequence whose bit tau is cells[tau mod 4][label of
    d tau mod p]: it is fixed by tau -> r tau, as is the closed form's code
    table."""
    d, label = (3 * p + 1) // 4, cell_labels(p, g)
    return BinarySequence.from_bits([cells[t % 4][label[d * t % p]] for t in range(4 * p)])


def read_cells(p, g, s):
    """The cells of class_function read back from s, the last bit of each cell winning."""
    d, label = (3 * p + 1) // 4, cell_labels(p, g)
    cells = [[0] * 5 for _ in range(4)]
    for t in range(4 * p):
        cells[t % 4][label[d * t % p]] = s.bit(t)
    return cells


@pytest.mark.parametrize("p", [13, 29, 53, 173])
def test_certificate_equals_the_decode_on_class_functions(p, monkeypatch):
    # sequences constant on each (tau mod 4, class of d tau) cell pass the two
    # symmetry checks, so the 20 shifts decide: every Su sequence with one cell
    # flipped, and random cells
    rng = random.Random(p)
    verdicts = Counter()
    for g in {e: g for g, e in reversed(numtheory._roots_with_index(p))}.values():
        for w in ADMISSIBLE_W:
            params = construction_params(p, g, w)
            s = su_sequence(params)
            cells = read_cells(p, g, s)
            assert class_function(p, g, cells) == s
            drawn = [s]
            for j, c in product(range(4), range(5)):
                cells[j][c] ^= 1
                drawn.append(class_function(p, g, cells))
                cells[j][c] ^= 1
            drawn += [class_function(p, g, [[rng.getrandbits(1) for _ in range(5)]
                                            for _ in range(4)]) for _ in range(5)]
            for t in drawn:
                certified, decoded, matched = spectrum_reports(params, t, monkeypatch)
                assert certified == decoded and matched == certified["passed"]
                verdicts[matched] += 1
    assert verdicts[True] >= 8 and verdicts[False] >= 8 * 20


def test_certificate_refuses_every_single_bit_flip(monkeypatch):
    # a flipped bit always moves AC(2p), as s(t + 2p) = s(t - 2p): the
    # certificate refuses it, and the decode reports the mismatch
    for p in (13, 29):
        params = construction_params(p, None, (0, 0, 0, 0))
        s = su_sequence(params)
        for bit in range(4 * p):
            certified, decoded, matched = spectrum_reports(params, flip_bit(s, bit), monkeypatch)
            assert not matched and certified == decoded and not certified["passed"]


def test_certificate_refuses_a_sequence_without_the_symmetry(monkeypatch):
    # a cyclic shift keeps the spectrum, the closed form's, but not
    # s(r t) = s(t), on which the 20 shifts speak for the rest: the
    # certificate refuses it and the decode passes it
    params = construction_params(173, None, (0, 1, 0, 1))
    shifted = sequences.left_shift(su_sequence(params), 5)
    text = str(shifted).encode()
    assert analysis._permuted(text, analysis._orbit_multiplier(173)) != text
    certified, decoded, matched = spectrum_reports(params, shifted, monkeypatch)
    assert not matched and certified == decoded and certified["passed"]


def test_certificate_needs_g_outside_the_squares(monkeypatch):
    # the 20 shifts come from g0, never from params.g: with g replaced by
    # each root of both classes, or by its square, the check gives the
    # verdict and report (but g) that g0 gives; and a closed form wrong at
    # the non-residues alone (their values patched to 0) is refused
    p = 29
    params = construction_params(p, None, (0, 1, 0, 1))
    s = su_sequence(params)

    def without_g(report):
        return {key: value for key, value in report.items() if key != "g"}

    certified, decoded, matched = spectrum_reports(params, s, monkeypatch)
    assert matched and certified == decoded and certified["passed"]
    roots = sorted(all_primitive_roots(p))
    assert {numtheory.index_mod4(p, g) for g in roots} == {1, 3}
    for g in roots + [g * g % p for g in roots]:
        other = dataclasses.replace(params, quartic=dataclasses.replace(params.quartic, g=g))
        report, _, other_matched = spectrum_reports(other, s, monkeypatch)
        assert other_matched and report["g"] == g and without_g(report) == without_g(certified)
    values = analysis._closed_form_values
    monkeypatch.setattr(analysis, "_closed_form_values", lambda n, b, eps: tuple(
        0 if code % 10 in (6, 8) else v for code, v in enumerate(values(n, b, eps))))
    certified, decoded, matched = spectrum_reports(params, s, monkeypatch)
    assert not matched and certified == decoded and not certified["passed"]


def test_certificate_reads_every_orbit_and_checks_the_codes(monkeypatch):
    # the Su sequence against closed forms changed on one whole orbit, which
    # only that orbit's shift sees: each of the 20 is refused
    p = 29
    params = construction_params(p, None, (0, 1, 0, 1))
    s = su_sequence(params)
    real = analysis._closed_form_values(4 * p, params.b, analysis._eps(params.w))
    assert len(real) == 20
    for code in range(20):
        values = real[:code] + (4 if real[code] == 0 else 0,) + real[code + 1:]
        monkeypatch.setattr(analysis, "_closed_form_values", lambda n, b, eps, values=values: values)
        certified, decoded, matched = spectrum_reports(params, s, monkeypatch)
        assert not matched and certified == decoded and not certified["passed"]


# ------------------------------------------------------- product congruence

def test_product_congruence_small_grid():
    for p in (5, 13):
        for w in ADMISSIBLE_W:
            report = verify.check_product_congruence(construction_params(p, 2, w))
            assert report.passed
            assert report.witnesses["lhs"] == report.witnesses["rhs"]


def test_product_congruence_sign_sensitive():
    for w in ((0, 1, 0, 1), (0, 0, 0, 0)):
        params = construction_params(13, 2, w)
        good = verify.check_product_congruence(params)
        bad = verify.check_product_congruence(
            negate_b(params), sequence=su_sequence(params))
        assert good.passed and not bad.passed


def test_product_closed_form_equals_direct_evaluation():
    params = construction_params(29, 2, (1, 0, 1, 0))
    s = su_sequence(params)
    lhs = bigmod.mul(bigmod.eval_S(s), bigmod.eval_T_inv(s))
    assert lhs == verify.product_closed_form(params)


# ------------------------------------------------------- small factor gcds

def test_small_factors_default_w():
    report = verify.check_small_factor_gcds(construction_params(13, 2, (0, 1, 0, 1)))
    assert report.passed
    assert report.witnesses["gcd_3"] == 1
    assert report.witnesses["gcd_5"] == 5


def test_small_factors_depend_on_w():
    # complementing both constant columns forces 3 | S(2): the four column
    # supports all have size (p-1)/2 and their 2^tau1 weights cancel mod 3
    for w in ((0, 0, 0, 0), (1, 1, 1, 1)):
        report = verify.check_small_factor_gcds(construction_params(13, 2, w))
        assert not report.passed
        assert report.witnesses["gcd_3"] == 3
        assert report.witnesses["gcd_5"] == 5  # the factor 5 survives any w
    for w in ((0, 1, 0, 1), (1, 0, 1, 0)):
        assert verify.check_small_factor_gcds(construction_params(13, 2, w)).passed


def test_mersenne_divisibility_facts():
    for p in (5, 13, 29, 53, 173):
        assert ((1 << (2 * p)) - 1) % 3 == 0
        assert ((1 << (2 * p)) + 1) % 5 == 0
    # the check reads both facts from 4^p mod 3 and mod 5, never from 2^(2p) +- 1
    for p in (5, 13, 293, 9413):
        witnesses = verify.check_small_factor_gcds(construction_params(p)).witnesses
        big = 1 << (2 * p)
        assert (witnesses["divides_2p_minus"], witnesses["divides_2p_plus"]) \
            == ((big - 1) % 3 == 0, (big + 1) % 5 == 0) == (True, True)


# ------------------------------------------------------- coprimality facts

@pytest.mark.parametrize("p", [3, 13, 29, 173, 499])
def test_coprimality_facts_pass(p):
    report = verify.check_coprimality_facts(p)
    assert report.passed
    assert report.witnesses["gcd_p_mersenne"] == 1
    assert report.witnesses["gcd_p4_cofactor"] == 1


def test_coprimality_rejects_bad_p():
    with pytest.raises(ValueError):
        verify.check_coprimality_facts(2)
    with pytest.raises(ValueError):
        verify.check_coprimality_facts(9)


# ------------------------------------------------------- complexity bounds

def test_complexity_bounds_reference_instance():
    report = verify.check_complexity_bounds(construction_params(13, 2, (0, 1, 0, 1)))
    assert report.passed
    assert report.witnesses["phi"] == 49
    assert report.witnesses["gcd_full"] == 5
    assert report.witnesses["gcd_minus"] == 1


def test_complexity_bounds_components_localize():
    report = verify.check_complexity_bounds(construction_params(13, 2, (0, 0, 0, 0)))
    assert not report.passed
    assert report.witnesses["bounds_ok"] is True
    assert report.witnesses["div5_ok"] is True
    assert report.witnesses["coprime_ok"] is False
    assert report.witnesses["gcd_minus"] == 3


# ----------------------------------------------------------------- run_all

def test_run_all_default_policies_all_green():
    reports, summary = verify.run_all(60)
    assert summary["total"] == 20  # 4 primes x (coprimality + 4 checks)
    assert summary["failed"] == 0
    assert [r.p for r in reports] == sorted(r.p for r in reports)


def test_run_all_empty_grid():
    reports, summary = verify.run_all(4)
    assert reports == []
    assert summary["total"] == 0 and summary["failed"] == 0


def test_run_all_parallel_matches_serial():
    serial = verify.run_all(60, w_policy="all", jobs=1)
    parallel = verify.run_all(60, w_policy="all", jobs=2)
    assert [r.to_record() for r in serial[0]] == [r.to_record() for r in parallel[0]]
    assert serial[1] == parallel[1]


def test_worker_count_caps_at_jobs_cores_and_points():
    assert verify._worker_count(8, 2, 100) == 2
    assert verify._worker_count(1, 64, 100) == 1
    assert verify._worker_count(8, 16, 3) == 3
    assert verify._worker_count(4, None, 10) == 1  # core count unknown
    assert verify._worker_count(4, 4, 0) == 1


def test_run_all_rejects_jobs_below_one():
    # both grids reach the check through the grid driver they share
    for grid in (verify.run_all, verify.survey_conjecture):
        for jobs in (0, -3):
            with pytest.raises(ValueError, match="jobs"):
                grid(60, jobs=jobs)


def test_grids_reject_unknown_policies():
    for grid in (verify.run_all, verify.survey_conjecture):
        with pytest.raises(ValueError, match="unknown g policy 'every'"):
            grid(60, g_policy="every")
        with pytest.raises(ValueError, match="unknown w policy 'none'"):
            grid(60, w_policy="none")


def test_run_all_reports_a_construction_that_raises(monkeypatch):
    real = verify.construction_params

    def construction_params(p, g=None, w=(0, 1, 0, 1)):
        if p == 13:
            raise RuntimeError("no construction at p=13")
        return real(p, g, w)

    expected, _ = verify.run_all(30)
    monkeypatch.setattr(verify, "construction_params", construction_params)
    reports, summary = verify.run_all(30)
    failed = [r for r in reports if r.p == 13 and r.check == "construction"]
    assert len(failed) == 1 and not failed[0].passed
    assert failed[0].witnesses == {"error": "RuntimeError: no construction at p=13"}
    # the coprimality check needs no construction; p = 5 and p = 29 are unchanged
    assert ([r for r in reports if r.p != 13 or r.check == verify.COPRIMALITY_CHECK]
            == [r for r in expected if r.p != 13 or r.check == verify.COPRIMALITY_CHECK])
    assert summary["failed"] == 1


def test_run_all_builds_each_sequence_once(monkeypatch):
    calls = []

    def counting(params):
        calls.append((params.p, params.g, params.w))
        return su_sequence(params)

    monkeypatch.setattr(verify, "su_sequence", counting)
    verify.run_all(60, w_policy="all")
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 16


class InProcessPool:
    """Stands in for the process pool: records what it maps, runs it here."""

    mapped: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        InProcessPool.mapped += items
        return map(fn, items)


def on_cores(monkeypatch, cpus, usable):
    """Pretend the host has cpus cores, of which this process may run on usable."""
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)


def use_in_process_pool(monkeypatch):
    """Route run_all's pool through InProcessPool on two cores, with an empty log."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    on_cores(monkeypatch, 2, 2)
    monkeypatch.setattr(InProcessPool, "mapped", [])


def test_jobs_stay_within_the_cpu_affinity_mask(monkeypatch):
    # eight cores, but this process may run on one of them: no pool is started
    serial = verify.run_all(300, "all", "all")
    use_in_process_pool(monkeypatch)
    on_cores(monkeypatch, 8, 1)
    assert verify.run_all(300, "all", "all", jobs=4) == serial
    assert InProcessPool.mapped == []


def test_jobs_fall_back_to_the_core_count_without_an_affinity_mask(monkeypatch):
    use_in_process_pool(monkeypatch)
    monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    verify.run_all(60, jobs=4)
    assert InProcessPool.mapped == eligible_primes(60)


@pytest.mark.parametrize("grid,pooled", [
    (lambda: verify.survey_conjecture(300, "all", "all"), False),
    (lambda: verify.run_all(300, "all", "all"), False),
    (lambda: verify.run_all(300, "all", "all", jobs=2), True),
])
def test_all_g_grid_builds_two_sequences_per_p_and_w(monkeypatch, grid, pooled):
    # every g shares its sequence with the roots of its e = ind(g) mod 4, 1 or 3
    calls = Counter()
    indexed = Counter()
    index_mod4 = verify.index_mod4

    def counting(params):
        calls[params.p, params.w] += 1
        return su_sequence(params)

    def counting_index(p, g):
        indexed[p, g] += 1
        return index_mod4(p, g)

    monkeypatch.setattr(verify, "su_sequence", counting)
    monkeypatch.setattr(verify, "index_mod4", counting_index)
    use_in_process_pool(monkeypatch)
    grid()
    assert calls == {(p, w): 2 for p in eligible_primes(300) for w in ADMISSIBLE_W}
    # each root comes with its e from the walk, never through index_mod4 per root
    assert indexed == {}
    # the pool, where one starts, maps one task per prime
    assert InProcessPool.mapped == (eligible_primes(300) if pooled else [])


@pytest.mark.parametrize("grid,points", [
    (lambda: verify.survey_conjecture(1100, "all", "all"), 18),  # 9 primes x 2 classes
    (lambda: verify.run_all(1100, "all", "all"), 18),
    (lambda: verify.run_all(6000, "smallest", "all"), 17),  # 17 primes x 1 root
])
def test_grid_resolves_the_quartic_data_once_per_p_and_g(monkeypatch, grid, points):
    # the four w of one evaluated (p, g) share its quartic data
    calls = Counter()
    quartic_decomposition = sequences.quartic_decomposition

    def counting(p, g):
        calls[p, g] += 1
        return quartic_decomposition(p, g)

    monkeypatch.setattr(sequences, "quartic_decomposition", counting)
    sequences._quartic.cache_clear()
    grid()
    assert len(calls) == points and set(calls.values()) == {1}


def test_survey_builds_each_w_mask_once_per_prime():
    # both root classes of a prime read the same four masks
    sequences._w_mask.cache_clear()
    verify.survey_conjecture(1100, "all", "all")
    assert sequences._w_mask.cache_info().misses == 4 * len(eligible_primes(1100)) == 36


def test_pooled_all_g_grid_matches_the_serial_one(monkeypatch):
    # the class lists cross a real pool shared; each report is still its own copy
    on_cores(monkeypatch, 2, 2)
    serial = verify.run_all(300, "all", "all")
    reports, summary = verify.run_all(300, "all", "all", jobs=2)
    assert (reports, summary) == serial
    assert len({id(r) for r in reports}) == len(reports)
    assert len({id(r.witnesses) for r in reports}) == len(reports)


@pytest.mark.parametrize("module", [numtheory, sequences, bigmod, analysis, verify])
def test_public_functions_stay_plain_functions(module):
    # The benchmark's tracer wraps only plain functions defined in their module,
    # so a cache or other wrapper belongs on a private helper.
    for name in module.__all__:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type):
            assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name


def test_pooled_grid_computes_each_primes_cyclotomy_once(monkeypatch):
    # the workers resolve their own primes; the parent lists none of them
    use_in_process_pool(monkeypatch)
    numtheory._cyclotomy.cache_clear()
    verify.run_all(1100, "all", "all", jobs=2)
    assert InProcessPool.mapped == eligible_primes(1100)
    assert numtheory._cyclotomy.cache_info().misses == len(eligible_primes(1100)) == 9


# The spectrum check proves every Su point by the symmetry certificate, with
# no product and no decode; refused, it reads each point's spectrum from the
# orbit route of autocorrelation, with no product either; with both refused,
# it decodes each point's own sequence from one product.
def spectrum_calls(monkeypatch, run, certify=True, orbit=True):
    """Products (_folded_digits calls) during run(), with the certificate and
    the orbit route as they are or, with certify=False or orbit=False,
    refused."""
    products = []
    real = analysis._folded_digits
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_folded_digits",
                      lambda *args: products.append(args) or real(*args))
        if not certify:
            patch.setattr(analysis, "_matches_closed_form", lambda *args: False)
        if not orbit:
            patch.setattr(analysis, "_orbit_spectrum", lambda s: None)
        run()
    return len(products)


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_multiplies_for_spectra_only_with_both_routes_refused(monkeypatch, jobs):
    # none with the certificate, nor with it refused (the orbit route); with
    # both refused, one per (p, g, w) point
    use_in_process_pool(monkeypatch)
    primes = eligible_primes(1100)
    grid = functools.partial(verify.run_all, 1100, "smallest", "all", jobs=jobs)
    assert spectrum_calls(monkeypatch, grid) == 0
    assert InProcessPool.mapped == (primes if jobs > 1 else [])
    assert spectrum_calls(monkeypatch, grid, certify=False) == 0
    assert (spectrum_calls(monkeypatch, grid, certify=False, orbit=False)
            == len(ADMISSIBLE_W) * len(primes))


def test_all_g_grid_multiplies_for_spectra_once_per_class_only_with_both_routes_refused(
        monkeypatch):
    # none with the certificate, nor with it refused (the orbit route); with
    # both refused, one per construction (p, e, w), e = ind(g) mod 4, which
    # every root of class e shares
    classes = {(p, numtheory.index_mod4(p, g))
               for p in eligible_primes(1100) for g in all_primitive_roots(p)}
    grid = functools.partial(verify.run_all, 1100, "all", "all")
    assert spectrum_calls(monkeypatch, grid) == 0
    assert spectrum_calls(monkeypatch, grid, certify=False) == 0
    assert (spectrum_calls(monkeypatch, grid, certify=False, orbit=False)
            == len(ADMISSIBLE_W) * len(classes))


def test_su_grid_multiplies_nothing_and_decodes_nothing(monkeypatch):
    # run_all(6000, all w): 17 primes, 68 spectrum checks, all certified; the
    # product, the decode stage and autocorrelation are never called, and
    # S(2) T(2^-1) comes from the orbit values, with no bigmod.mul
    called = Counter()
    for name in ("_fold_counts", "autocorrelation", "closed_form_spectrum"):
        monkeypatch.setattr(analysis, name, lambda *args, name=name: called.update([name]))
    monkeypatch.setattr(bigmod, "mul", lambda *args: called.update(["mul"]))
    analysis._st_product.cache_clear()
    grid = functools.partial(verify.run_all, 6000, "smallest", "all")
    assert spectrum_calls(monkeypatch, grid) == 0
    assert called == Counter() and len(eligible_primes(6000)) == 17


def test_grid_proves_each_code_table_symmetric_once_per_prime():
    # the orbit table is the one code table of a prime, shared by both root
    # classes, all four w and the spectrum and product checks, so it is built
    # and proved once per prime; it is read by 8 spectrum checks, 4 products
    # (one per complement pair and class) and the prime's product masks
    primes = eligible_primes(1100)
    analysis._orbit_table.cache_clear()
    analysis._st_product.cache_clear()
    verify.run_all(1100, "all", "all")
    info = analysis._orbit_table.cache_info()
    assert (info.misses, info.hits) == (len(primes), 12 * len(primes))


def test_su_grid_leaves_decimal_unimported():
    # the certificate needs no decimal product, and run_all renders nothing
    code = ("import sys; from twoadic import verify; "
            "verify.run_all(6000, 'smallest', 'all'); print('decimal' in sys.modules)")
    assert run_python(code) == "False\n"


# The caches shared by a complement pair (w = 0000/1111 and 0101/1010), and the
# construction's w = 0000 interleave, shared by all four w of one (p, g).
PAIR_CACHES = (analysis._two_adic, analysis._st_product, verify._product_closed_form,
               analysis._pair_orbit_values)


def pair_cache_misses(monkeypatch, run):
    """Misses of each pair cache and of the w = 0000 interleave, and the
    spectrum products, during run()."""
    for cache in PAIR_CACHES + (sequences._su_base,):
        cache.cache_clear()
    products = spectrum_calls(monkeypatch, run)
    return ([cache.cache_info().misses for cache in PAIR_CACHES],
            products, sequences._su_base.cache_info().misses)


@pytest.mark.parametrize("jobs", [1, 2])
def test_grid_evaluates_each_complement_pair_once(monkeypatch, jobs):
    use_in_process_pool(monkeypatch)
    primes = eligible_primes(1100)
    misses = pair_cache_misses(
        monkeypatch, lambda: verify.run_all(1100, "smallest", "all", jobs=jobs))
    assert InProcessPool.mapped == (primes if jobs > 1 else [])
    assert misses == ([2 * len(primes)] * len(PAIR_CACHES), 0, len(primes))


def test_all_g_grid_evaluates_each_complement_pair_once_per_construction_class(monkeypatch):
    classes = {(p, numtheory.index_mod4(p, g))
               for p in eligible_primes(1100) for g in all_primitive_roots(p)}
    misses = pair_cache_misses(monkeypatch, lambda: verify.run_all(1100, "all", "all"))
    assert misses == ([2 * len(classes)] * len(PAIR_CACHES), 0, len(classes))


def test_root_copies_equal_the_records_the_constructor_builds(monkeypatch):
    # each root's report is its class's report at that g; each row copy is the
    # class's row at that g, and at 6
    use_in_process_pool(monkeypatch)
    for jobs in (1, 2):
        reports, _ = verify.run_all(13, "all", "all", jobs=jobs)
        expected = []
        for p in eligible_primes(13):
            expected.append(verify.check_coprimality_facts(p))
            for g, results in verify._prime_points(p, "all", ADMISSIBLE_W,
                                                   verify._evaluate_point):
                expected += [dataclasses.replace(r, g=g)
                             for class_reports in results for r in class_reports]
        assert reports == expected
        assert {(r.p, r.g) for r in reports if r.g is not None} == {
            (p, g) for p in (5, 13) for g in all_primitive_roots(p)}
        assert len({id(r.witnesses) for r in reports}) == len(reports)
        for row in verify.survey_conjecture(13, "all", "all", jobs=jobs):
            for g in (row.g, 6):
                copy = verify._root_copy(row, g)
                built = dataclasses.replace(row, g=g)
                assert type(copy) is type(built)
                assert copy == built and vars(copy) == vars(built)
                assert copy.to_record() == built.to_record()
                assert hash(copy) == hash(built)
    assert InProcessPool.mapped == [5, 13] * 2


def test_survey_row_copies_stay_frozen(monkeypatch):
    use_in_process_pool(monkeypatch)
    for jobs in (1, 2):
        row = verify.survey_conjecture(13, "all", "all", jobs=jobs)[-1]
        copy = verify._root_copy(row, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.g = 6
        with pytest.raises(dataclasses.FrozenInstanceError):
            copy.phi = 0
        assert (copy.g, copy.phi) == (2, row.phi)


def test_copied_reports_do_not_share_witnesses():
    # 2 and 6 = 2^5 have e = 1 mod 13, so their reports are copies of one
    reports, _ = verify.run_all(13, "all", "all")
    first, second = (next(r for r in reports if r.check == "small-factor-gcds"
                          and (r.p, r.g, r.w) == (13, g, (0, 1, 0, 1))) for g in (2, 6))
    assert first.witnesses == second.witnesses and first.g != second.g
    s2 = second.witnesses["s2"]
    first.witnesses["s2"] = -1
    first.witnesses["extra"] = True
    assert second.witnesses["s2"] == s2 and "extra" not in second.witnesses


@pytest.mark.parametrize("grid", [
    lambda: verify.survey_conjecture(300, "all", "all"),
    lambda: verify.run_all(300, "all", "all"),
])
def test_grid_holds_one_primes_records_at_a_time(monkeypatch, grid):
    built = []  # (p, weak reference to a sequence the grid built)

    def tracking(params):
        for p, ref in built:
            assert p == params.p or ref() is None, f"a sequence of p={p} outlived its prime"
        s = su_sequence(params)
        built.append((params.p, weakref.ref(s)))
        return s

    monkeypatch.setattr(verify, "su_sequence", tracking)
    grid()
    assert {p for p, _ in built} == set(eligible_primes(300))
    assert len(built) == 2 * 4 * len(eligible_primes(300))


def test_survey_rows_match_the_bounds_witnesses():
    rows = verify.survey_conjecture(300, "all", "all")
    reports, _ = verify.run_all(300, "all", "all")
    bounds = [r for r in reports if r.check == verify.BOUNDS_CHECK]
    assert [(r.p, r.g, r.w) for r in rows] == [(r.p, r.g, r.w) for r in bounds]
    assert len(rows) == 1368
    for row, report in zip(rows, bounds):
        assert (row.phi, row.gcd_full, row.gcd_minus) == tuple(
            report.witnesses[k] for k in ("phi", "gcd_full", "gcd_minus"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_runs_the_bounds_check_once_per_construction(monkeypatch, jobs):
    calls = Counter()
    check = verify.check_complexity_bounds

    def counting(params, sequence=None):
        calls[params.p, params.g, params.w] += 1
        return check(params, sequence)

    monkeypatch.setattr(verify, "check_complexity_bounds", counting)
    use_in_process_pool(monkeypatch)
    verify.survey_conjecture(300, "all", "all", jobs=jobs)
    assert InProcessPool.mapped == (eligible_primes(300) if jobs > 1 else [])
    assert set(calls.values()) == {1}
    assert len(calls) == 2 * 4 * len(eligible_primes(300))


def counting_two_adic_complexity(monkeypatch) -> Counter:
    """Patch analysis.two_adic_complexity to count its calls per sequence."""
    calls = Counter()
    real = analysis.two_adic_complexity

    def counting(s):
        calls[s.period, s.value] += 1
        return real(s)

    monkeypatch.setattr(analysis, "two_adic_complexity", counting)
    return calls


@pytest.mark.parametrize("check,expected", [
    (verify.check_autocorrelation_spectrum, 0),
    (verify.check_product_congruence, 0),
    (verify.check_small_factor_gcds, 0),
    (verify.check_complexity_bounds, 1),
])
def test_only_the_bounds_check_computes_the_two_adic_complexity(monkeypatch, check, expected):
    calls = counting_two_adic_complexity(monkeypatch)
    assert check(construction_params(293, 2)).passed
    assert sum(calls.values()) == expected


@pytest.mark.parametrize("grid", [
    lambda: verify.survey_conjecture(300, "all", "all"),
    lambda: verify.run_all(300, "all", "all"),
])
def test_grids_compute_the_two_adic_complexity_once_per_construction(monkeypatch, grid):
    calls = counting_two_adic_complexity(monkeypatch)
    grid()
    assert set(calls.values()) == {1}
    assert len(calls) == 2 * 4 * len(eligible_primes(300))


def pooled_run_all(monkeypatch, jobs):
    """run_all(60, all w) with jobs workers, a pool run in this process."""
    use_in_process_pool(monkeypatch)
    out = verify.run_all(60, w_policy="all", jobs=jobs)
    assert InProcessPool.mapped == (eligible_primes(60) if jobs > 1 else [])
    return out


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_all_calls_each_public_check_once_per_construction(monkeypatch, jobs):
    calls = Counter()

    def counted(check):
        @functools.wraps(check)
        def counting(params, sequence=None):
            calls[check.__name__] += 1
            return check(params, sequence)
        return counting

    names = ("check_autocorrelation_spectrum", "check_product_congruence",
             "check_small_factor_gcds", "check_complexity_bounds")
    for name in names:
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    reports, _ = pooled_run_all(monkeypatch, jobs)
    assert calls == {name: 16 for name in names}
    assert reports == verify.run_all(60, w_policy="all")[0]


POINT_CHECKS = (("check_autocorrelation_spectrum", verify.SPECTRUM_CHECK),
                ("check_product_congruence", verify.PRODUCT_CHECK),
                ("check_small_factor_gcds", verify.SMALL_FACTOR_CHECK),
                ("check_complexity_bounds", verify.BOUNDS_CHECK))


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_all_isolates_a_check_that_raises(monkeypatch, jobs):
    # the per-point checks are independent: whichever of them raises, the
    # error is reported under its name and every other report is unchanged
    def raising(params, sequence=None):
        raise RuntimeError(f"raised at p={params.p}")

    expected, _ = verify.run_all(60, w_policy="all")
    for function, name in POINT_CHECKS:
        with monkeypatch.context() as patched:
            patched.setattr(verify, function, raising)
            reports, summary = pooled_run_all(patched, jobs)
        errors = [r for r in reports if r.check == name]
        assert len(errors) == 16 and not any(r.passed for r in errors), name
        assert all(r.witnesses == {"error": f"RuntimeError: raised at p={r.p}"}
                   for r in errors), name
        assert ([r for r in reports if r.check != name]
                == [r for r in expected if r.check != name]), name
        assert summary["failures_by_kind"][f"{name} w=0101"] == 4, name
        assert all(kind.split()[0] in {r.check for r in expected}
                   for kind in summary["failures_by_kind"]), name


@pytest.mark.parametrize("function", [function for function, _ in POINT_CHECKS])
def test_point_checks_refuse_a_sequence_of_another_period(function):
    # every closed form and gcd fact of the checks is stated for period 4p;
    # a sequence of any other period is refused before any of them is read
    params = construction_params(13, 2, (0, 1, 0, 1))
    check = getattr(verify, function)
    for n in (8, 4 * 13 - 4, 4 * 13 + 4):
        s = BinarySequence(n, random.Random(n).getrandbits(n))
        with pytest.raises(ValueError, match=f"period {n} is not 4p = 52"):
            check(params, s)
    assert check(params, su_sequence(params)).passed


def test_each_check_reports_under_its_name_constant():
    params = construction_params(13, 2, (0, 1, 0, 1))
    checks = ((verify.SPECTRUM_CHECK, verify.check_autocorrelation_spectrum),
              (verify.PRODUCT_CHECK, verify.check_product_congruence),
              (verify.SMALL_FACTOR_CHECK, verify.check_small_factor_gcds),
              (verify.BOUNDS_CHECK, verify.check_complexity_bounds))
    assert [check(params).check for _, check in checks] == [name for name, _ in checks]
    assert verify.check_coprimality_facts(13).check == verify.COPRIMALITY_CHECK


def run_python(code):
    """stdout of code run by a fresh interpreter on this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_pool_or_decimal():
    # the process pool and decimal are imported where they are first used
    code = ("import sys, twoadic, twoadic.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'decimal') "
            "if m in sys.modules])")
    assert run_python(code) == "[]\n"


def test_run_all_fails_the_b_checks_when_b_is_negated(monkeypatch):
    # no check corrects b: the two closed forms in b fail, and the checks
    # that do not read b report as they do with the true b
    expected, _ = verify.run_all(60, "all", "all")
    real = verify.construction_params
    monkeypatch.setattr(verify, "construction_params",
                        lambda p, g, w: negate_b(real(p, g, w)))
    reports, _ = verify.run_all(60, "all", "all")
    b_checks = {verify.SPECTRUM_CHECK, verify.PRODUCT_CHECK}
    failed = [r for r in reports if r.check in b_checks]
    assert len(failed) == sum(r.check in b_checks for r in expected) > 0
    assert not any(r.passed for r in failed)
    assert all(r.witnesses["b_used"] is None and "first_mismatch_tau" in r.witnesses
               for r in failed if r.check == verify.SPECTRUM_CHECK)
    others = {verify.SMALL_FACTOR_CHECK, verify.BOUNDS_CHECK}
    unchanged = [dataclasses.replace(r, b=-r.b) for r in reports if r.check in others]
    assert unchanged and unchanged == [r for r in expected if r.check in others]


def test_run_all_surfaces_corrupted_fixture(monkeypatch):
    real = su_sequence

    def tampered(params):
        s = real(params)
        if params.p == 13:
            return flip_bit(s, 3)
        return s

    monkeypatch.setattr(verify, "su_sequence", tampered)
    reports, summary = verify.run_all(60)
    assert summary["failed"] > 0
    first = next(r for r in reports if not r.passed)
    assert first.p == 13
    assert first.witnesses
    # the batch keeps going past the failure
    assert any(r.p == 53 and r.passed for r in reports)


def test_run_all_failures_by_kind(monkeypatch):
    _, summary = verify.run_all(300, w_policy="all")
    kinds = summary["failures_by_kind"]
    assert list(kinds) == ["complexity-bounds w=0000", "complexity-bounds w=1111",
                           "small-factor-gcds w=0000", "small-factor-gcds w=1111"]
    assert sum(kinds.values()) == summary["failed"]
    _, green = verify.run_all(60)
    assert green["failures_by_kind"] == {}
    # every failing report of an all-g grid is counted under its kind
    use_in_process_pool(monkeypatch)
    for jobs in (1, 2):
        reports, summary = verify.run_all(1100, "all", "all", jobs=jobs)
        failing = [r for r in reports if not r.passed]
        assert set(summary) == {"limit", "total", "passed", "failed", "failures_by_kind"}
        assert summary["failures_by_kind"] == Counter(
            f"{r.check} w={''.join(map(str, r.w))}" for r in failing)
        assert list(summary["failures_by_kind"]) == sorted(summary["failures_by_kind"])
        assert (summary["total"], summary["failed"]) == (len(reports), len(failing))
        assert summary["passed"] == len(reports) - len(failing)
    assert InProcessPool.mapped == eligible_primes(1100)


def test_failures_by_kind_keys_checks_without_w_by_name(monkeypatch):
    real = verify.check_coprimality_facts
    monkeypatch.setattr(verify, "check_coprimality_facts",
                        lambda p: dataclasses.replace(real(p), passed=False))
    _, summary = verify.run_all(60)
    assert summary["failures_by_kind"] == {"coprimality-facts": 4}


def test_run_all_explicit_policies(monkeypatch):
    # 2 generates Z_p* for all of 5, 13, 29
    reports, _ = verify.run_all(30, g_policy=2, w_policy=(1, 0, 1, 0))
    grid_points = {(r.p, r.g, r.w) for r in reports if r.g is not None}
    assert grid_points == {(5, 2, (1, 0, 1, 0)), (13, 2, (1, 0, 1, 0)),
                           (29, 2, (1, 0, 1, 0))}
    with pytest.raises(ValueError):
        verify.run_all(30, g_policy=4)  # 4 is not a primitive root of 5
    use_in_process_pool(monkeypatch)
    with pytest.raises(ValueError, match="g=4 is not a primitive root of 5"):
        verify.run_all(30, g_policy=4, jobs=2)  # raised by the task of p = 5
    with pytest.raises(ValueError):
        verify.run_all(30, w_policy=(0, 1, 1, 0))


# ------------------------------------------------------------------ survey

def test_survey_reference_rows():
    rows = verify.survey_conjecture(60)
    assert [r.p for r in rows] == [5, 13, 29, 53]
    r13 = rows[1]
    assert (r13.gcd_full, r13.gcd_minus, r13.gcd_plus) == (5, 1, 5)
    assert r13.phi == 49
    assert (r13.lower_bound, r13.upper_bound) == (26, 50)


def test_survey_empty_and_deterministic():
    assert verify.survey_conjecture(4) == []
    a = verify.survey_conjecture(60, w_policy="all")
    b = verify.survey_conjecture(60, w_policy="all")
    assert a == b


def test_survey_row_invariants():
    for row in verify.survey_conjecture(500, w_policy="all"):
        m = (1 << (4 * row.p)) - 1
        assert m % row.gcd_full == 0
        # the two half-period factors are coprime, so the gcd splits exactly
        assert row.gcd_full == row.gcd_minus * row.gcd_plus
        assert 0 <= row.phi <= 4 * row.p
        assert math.gcd((1 << (2 * row.p)) - 1, (1 << (2 * row.p)) + 1) == 1


def test_survey_gcd_split_matches_direct_gcds():
    # gcd_minus and gcd_plus are derived from gcd_full; recompute both from S(2)
    for row in verify.survey_conjecture(1100, "all", "all"):
        s2 = bigmod.eval_S(su_sequence(construction_params(row.p, row.g, row.w))).value
        assert row.gcd_minus == math.gcd(s2, (1 << (2 * row.p)) - 1)
        assert row.gcd_plus == math.gcd(s2, (1 << (2 * row.p)) + 1)


def inverse_power_sum(s: BinarySequence) -> int:
    """sum_t s(t) 2^((N - t) mod N), which is S(2^-1) mod 2^N - 1, from the bits."""
    n = s.period
    bits = format(s.value, f"0{n}b")[::-1]  # bits[t] is s(t)
    # bit k of the sum is s(t) with k = (N - t) mod N; the text leads with k = N - 1
    return int("".join(bits[(n - k) % n] for k in reversed(range(n))), 2)


def class_points(p: int) -> list:
    """The construction at the first root of each class, e = 1 and 3, for all four w."""
    firsts = {}
    for g, e in numtheory._roots_with_index(p):
        firsts.setdefault(e, g)
    assert sorted(firsts) == [1, 3]
    return [construction_params(p, g, w) for g in firsts.values() for w in ADMISSIBLE_W]


def column_weights(s: BinarySequence) -> list[int]:
    """The number of ones in column j, bits 4t + j, for j = 0..3."""
    bits = format(s.value, f"0{s.period}b")[::-1]
    return [bits[j::4].count("1") for j in range(4)]


def test_gcd_plus_is_5_follows_from_the_product_congruence():
    # the premises of the argument in verify's docstring, at the first root of
    # each class and all four w; Q = (2^(2p) + 1)/5 divides 2^(4p) - 1
    points = 0
    for p in eligible_primes(2213):
        if p == 5:
            continue
        plus = (1 << 2 * p) + 1
        q = plus // 5
        for params in class_points(p):
            s = su_sequence(params)
            assert verify.product_closed_form(params).value % q == -2 * p % q
            # T(2^-1) = sum_t (1 - 2 s(t)) 2^(-t) = -2 S(2^-1) mod 2^N - 1
            assert s.value * -2 * inverse_power_sum(s) % q == -2 * p % q
            weights = column_weights(s)
            assert weights == [(p - 1) // 2 + w_j for w_j in params.w]
            s2 = bigmod.eval_S(s).value
            assert s2 % 5 == sum(wt << j for j, wt in enumerate(weights)) % 5 == 0
            assert math.gcd(s2, plus) == 5
            points += 1
    assert points == 96  # 12 primes, 2 classes, 4 w


def test_character_sum_squares_to_p_minus_the_repunit():
    # the Gauss-sum step of the minus part: K = sum over i in Z_p* of
    # (i/p) 2^(4i) has K^2 = p - (2^(4p) - 1)/15 (mod 2^(4p) - 1)
    primes = eligible_primes(2213)
    for p in primes:
        m = (1 << 4 * p) - 1
        codes = numtheory.residue_codes(p)[::-1]  # packed as product_closed_form packs it
        packed = (int(codes.translate(numtheory._CLASS_TEXT[1]), 16)
                  - int(codes.translate(numtheory._CLASS_TEXT[2]), 16))
        k = sum(numtheory.legendre_symbol(i, p) << 4 * i for i in range(1, p))
        assert packed == k
        assert k * k % m == (p - m // 15) % m
    assert len(primes) == 13


def test_s2_mod_3_is_the_alternating_column_weight_sum():
    # 2 = -1 (mod 3), so bit 4t + j adds (-1)^j: S(2) mod 3 is 0 exactly for
    # w = 0000 and 1111, where gcd_minus = 3
    points = 0
    for p in eligible_primes(2213):
        for params in class_points(p):
            s = su_sequence(params)
            weights = column_weights(s)
            assert weights == [(p - 1) // 2 + w_j for w_j in params.w]
            s2 = bigmod.eval_S(s).value
            assert s2 % 3 == sum((-1) ** j * wt for j, wt in enumerate(weights)) % 3
            assert (s2 % 3 == 0) == (params.w in {(0, 0, 0, 0), (1, 1, 1, 1)})
            points += 1
    assert points == 104  # 13 primes, 2 classes, 4 w


def test_gcd_minus_is_gcd_with_3_follows_from_the_product_congruence():
    # the premises of the minus-part argument in verify's docstring, with
    # R = (2^(2p) - 1)/3, at the first root of each class and all four w
    points = 0
    for p in eligible_primes(2213):
        if p == 5:
            continue
        r = ((1 << 2 * p) - 1) // 3
        assert r % 3 == p % 3 and math.gcd(r, p * (p - 4) * (p * p + 4 * p + 16)) == 1
        k = sum(numtheory.legendre_symbol(i, p) << 4 * i for i in range(1, p))
        for params in class_points(p):
            s = su_sequence(params)
            eps = analysis._eps(params.w)
            x, y = 2 * eps * ((1 << p) - eps) - p, (2 * eps * params.b) << p
            s2, t_inv = bigmod.eval_S(s).value, bigmod.eval_T_inv(s).value
            assert (s2 * t_inv % r == verify.product_closed_form(params).value % r
                    == 2 * (x + y * k) % r)
            z = t_inv * (x - y * k) * (p * p + 8 + ((4 * eps * (p + 2)) << p))
            assert s2 * z % r == 2 * p * (p - 4) * (p * p + 4 * p + 16) % r
            points += 1
    assert points == 96  # 12 primes, 2 classes, 4 w
    reports, _ = verify.run_all(6000, w_policy="all")
    bounds = [r for r in reports if r.check == verify.BOUNDS_CHECK]
    for report in bounds:
        s2 = bigmod.eval_S(su_sequence(construction_params(report.p, report.g, report.w))).value
        assert report.witnesses["gcd_minus"] == math.gcd(s2, 3)
    assert len(bounds) == 4 * len(eligible_primes(6000)) == 68


def test_premises_of_the_certified_gcd():
    # 2^(4p) - 1 = 3 * 5 * R * Q, pairwise coprime, needs 9 and 25 not to
    # divide it: true for every eligible p > 5
    for p in eligible_primes(100000)[1:]:
        assert pow(2, 4 * p, 9) != 1 and pow(2, 4 * p, 25) != 1
    assert pow(2, 4 * 5, 25) == 1
    # a prime q | R has q >= 2p + 1, so its cofactor r in p^2 + 4p + 16 is
    # below p from p = 6 on (not at p = 5)
    for p in range(6, 100000):
        assert (p * p + 4 * p + 16) // (2 * p + 1) < p
    assert (5 * 5 + 4 * 5 + 16) // (2 * 5 + 1) == 5
    # p = 13, below 16, is checked directly: 237 = 3 * 79 and 79 = 1 (mod 26)
    assert math.gcd(((1 << 26) - 1) // 3, 13 * 13 + 4 * 13 + 16) == 1


def test_certified_gcd_equals_the_direct_gcd_below_20000():
    # at every eligible 5 < p < 20000, the first root of each class and all
    # four w, on both sides of bigmod._CERTIFIED_GCD_BITS
    primes = eligible_primes(20000)[1:]
    for p in primes:
        for params in class_points(p):
            s = su_sequence(params)
            assert verify._certified_gcd(params, s) == bigmod.gcd_with_modulus(bigmod.eval_S(s))
    params = construction_params(5, 2)
    assert verify._certified_gcd(params, su_sequence(params)) is None
    assert 4 * primes[0] < bigmod._CERTIFIED_GCD_BITS < 4 * primes[-1]


def test_bounds_check_takes_the_certified_gcd_from_the_gate_on(monkeypatch):
    # the reports equal those of the direct gcd at every point, and only the
    # points below the gate compute it
    calls = counting_two_adic_complexity(monkeypatch)
    reports, _ = verify.run_all(6000, w_policy="all")
    below = [4 * p for p in eligible_primes(6000) if 4 * p < bigmod._CERTIFIED_GCD_BITS]
    assert sorted({n for n, _ in calls}) == below and len(below) == 12
    monkeypatch.setattr(bigmod, "_CERTIFIED_GCD_BITS", 1 << 62)
    assert verify.run_all(6000, w_policy="all")[0] == reports
    assert len({n for n, _ in calls}) == 17


@pytest.mark.parametrize("mutant", ["flipped bit", "negated b", "wrong eps"])
def test_bounds_check_falls_back_to_the_direct_gcd_on_mutants(monkeypatch, mutant):
    # past the gate: a flipped bit loses the symmetry, so the product is one
    # multiply; a negated b or the other eps changes the closed form; either
    # way the congruence fails and the gcd is the direct one
    p = 2213
    assert 4 * p >= bigmod._CERTIFIED_GCD_BITS
    real_mul, multiplies = bigmod.mul, []
    monkeypatch.setattr(bigmod, "mul", lambda *args: multiplies.append(1) or real_mul(*args))
    calls = counting_two_adic_complexity(monkeypatch)
    for params in class_points(p):
        s = su_sequence(params)
        if mutant == "flipped bit":
            s = flip_bit(s, 1)
            assert analysis._orbit_product(s) is None
        elif mutant == "negated b":
            params = negate_b(params)
        else:
            other = (0, 1, 0, 1) if params.w[0] == params.w[1] else (0, 0, 0, 0)
            params = construction_params(p, params.g, other)
        analysis._st_product.cache_clear()
        del multiplies[:]
        calls.clear()
        assert verify._certified_gcd(params, s) is None
        assert len(multiplies) == (mutant == "flipped bit")
        report = verify.check_complexity_bounds(params, s)
        assert calls == {(s.period, s.value): 1}
        two_adic = analysis.two_adic_complexity(s)
        assert (report.witnesses["gcd_full"] == two_adic.gcd
                == bigmod.gcd_with_modulus(bigmod.eval_S(s)))
        assert report.witnesses["phi"] == two_adic.phi


def test_survey_row_derives_gcd_plus_and_bounds():
    for row in verify.survey_conjecture(300, "all", "all"):
        assert row.gcd_plus == row.gcd_full // row.gcd_minus
        assert row.lower_bound == 2 * row.p
        assert row.upper_bound == 4 * row.p - 2


def test_survey_row_stores_only_what_it_cannot_derive():
    assert [f.name for f in dataclasses.fields(verify.SurveyRow)] == [
        "p", "g", "w", "gcd_full", "gcd_minus", "phi"]
    with pytest.raises(TypeError):
        verify.SurveyRow(p=13, g=2, w=(0, 1, 0, 1), gcd_full=5, gcd_minus=1, gcd_plus=5,
                         phi=49, lower_bound=26, upper_bound=50)


def test_complexity_bounds_on_constant_sequences():
    # S(2) = 0 mod 2^(4p) - 1 for both: gcd_full is the whole modulus
    for p, g in ((5, 2), (13, 2), (29, 2)):
        n = 4 * p
        for s in (BinarySequence(n, 0), BinarySequence(n, (1 << n) - 1)):
            report = verify.check_complexity_bounds(construction_params(p, g), sequence=s)
            s2 = bigmod.eval_S(s).value
            assert report.witnesses["gcd_full"] == math.gcd(s2, (1 << n) - 1) == (1 << n) - 1
            assert report.witnesses["gcd_minus"] == math.gcd(s2, (1 << (2 * p)) - 1)
            assert report.witnesses["coprime_ok"] is False
            assert report.witnesses["phi"] == 1
            assert not report.passed


def test_survey_grid_size_all_policies():
    rows = verify.survey_conjecture(60, g_policy="all", w_policy="all")
    from twoadic.numtheory import all_primitive_roots
    expected = sum(len(all_primitive_roots(p)) * 4 for p in (5, 13, 29, 53))
    assert len(rows) == expected


def test_report_records_are_flat_and_stringly():
    reports, _ = verify.run_all(30)
    rec = next(r for r in reports if r.check == "complexity-bounds").to_record()
    assert rec["w"] == "0101"
    assert isinstance(rec["witnesses"]["gcd_full"], str)
    assert rec["witnesses"]["bounds_ok"] is True
    row_rec = verify.survey_conjecture(30)[0].to_record()
    assert isinstance(row_rec["gcd_full"], str)
    assert row_rec["gcd_plus_is_5"] is True
