import dataclasses
import math

import pytest

from twoadic import analysis, bigmod, verify
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


# ----------------------------------------------------- spectrum check/gate

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


def test_spectrum_gate_flips_when_b_is_wrong():
    # feed parameters with the negated b; the gate should recover the truth
    params = negate_b(construction_params(13, 2))
    report = verify.check_autocorrelation_spectrum(params)
    assert report.passed
    assert report.witnesses["sign_flipped"] is True
    assert report.witnesses["b_used"] == 1


def test_spectrum_check_fails_on_corrupted_sequence():
    params = construction_params(13, 2)
    corrupted = flip_bit(su_sequence(params), 7)
    report = verify.check_autocorrelation_spectrum(params, sequence=corrupted)
    assert not report.passed
    assert "first_mismatch_tau" in report.witnesses


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
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            verify.run_all(60, jobs=jobs)


def test_run_all_builds_each_sequence_once(monkeypatch):
    calls = []

    def counting(params):
        calls.append((params.p, params.g, params.w))
        return su_sequence(params)

    monkeypatch.setattr(verify, "su_sequence", counting)
    verify.run_all(60, w_policy="all")
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 16


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


def test_run_all_failures_by_kind():
    _, summary = verify.run_all(300, w_policy="all")
    kinds = summary["failures_by_kind"]
    assert list(kinds) == ["complexity-bounds w=0000", "complexity-bounds w=1111",
                           "small-factor-gcds w=0000", "small-factor-gcds w=1111"]
    assert sum(kinds.values()) == summary["failed"] == len(summary["failures"])
    _, green = verify.run_all(60)
    assert green["failures_by_kind"] == {}


def test_failures_by_kind_keys_checks_without_w_by_name(monkeypatch):
    real = verify.check_coprimality_facts
    monkeypatch.setattr(verify, "check_coprimality_facts",
                        lambda p: dataclasses.replace(real(p), passed=False))
    _, summary = verify.run_all(60)
    assert summary["failures_by_kind"] == {"coprimality-facts": 4}


def test_run_all_explicit_policies():
    # 2 generates Z_p* for all of 5, 13, 29
    reports, _ = verify.run_all(30, g_policy=2, w_policy=(1, 0, 1, 0))
    grid_points = {(r.p, r.g, r.w) for r in reports if r.g is not None}
    assert grid_points == {(5, 2, (1, 0, 1, 0)), (13, 2, (1, 0, 1, 0)),
                           (29, 2, (1, 0, 1, 0))}
    with pytest.raises(ValueError):
        verify.run_all(30, g_policy=4)  # 4 is not a primitive root of 5
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
