import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoadic import analysis, bigmod
from twoadic.numtheory import all_primitive_roots, eligible_primes
from twoadic.sequences import (
    ADMISSIBLE_W,
    BinarySequence,
    construction_params,
    dhl_sequence,
    su_sequence,
)

bit_lists = st.lists(st.integers(0, 1), min_size=2, max_size=80)


# ---------------------------------------------------------------- oracles

def autocorr_oracle(bits):
    """Direct double loop over (-1)^(s(t) + s(t+tau))."""
    n = len(bits)
    return [sum(1 if bits[t] == bits[(t + tau) % n] else -1 for t in range(n))
            for tau in range(n)]


def gf2_mod(a, b):
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def gf2_gcd(a, b):
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def lc_oracle(s: BinarySequence) -> int:
    """LC = N - deg gcd(x^N - 1, S(x)) over GF(2), polynomials as bit masks."""
    if s.value == 0:
        return 0
    xn1 = (1 << s.period) | 1
    return s.period - (gf2_gcd(xn1, s.value).bit_length() - 1)


def bm_oracle(s: BinarySequence) -> int:
    """Berlekamp-Massey over two periods, which fix the periodic extension."""
    return analysis.berlekamp_massey(s.bits() * 2)


def random_sequence(rng, lo=2, hi=64):
    n = rng.randint(lo, hi)
    return BinarySequence.from_bits(rng.randint(0, 1) for _ in range(n))


# -------------------------------------------------------- autocorrelation

def test_zero_shift_is_period():
    rng = random.Random(1)
    for _ in range(20):
        s = random_sequence(rng)
        assert analysis.autocorrelation(s).values[0] == s.period


def test_autocorrelation_matches_double_loop_oracle():
    rng = random.Random(2)
    for _ in range(60):
        s = random_sequence(rng)
        assert list(analysis.autocorrelation(s).values) == autocorr_oracle(s.bits())


def test_dhl_spectrum_two_valued():
    spectrum = analysis.autocorrelation(dhl_sequence(5, 2, 1))
    assert spectrum.out_of_phase() == {1, -3}


def test_su_13_whole_column_shifts_give_minus_4():
    for w in ADMISSIBLE_W:
        s = su_sequence(construction_params(13, 2, w))
        spectrum = analysis.autocorrelation(s)
        for tau2 in range(1, 13):
            assert spectrum.values[4 * tau2] == -4


@settings(max_examples=60, deadline=None)
@given(bit_lists)
def test_autocorrelation_symmetry_and_mod4(bits):
    s = BinarySequence.from_bits(bits)
    spectrum = analysis.autocorrelation(s)
    n = s.period
    for tau in range(1, n):
        assert spectrum.values[tau] == spectrum.values[n - tau]
        assert (spectrum.values[tau] - n) % 4 == 0
        assert abs(spectrum.values[tau]) <= n


def test_histogram():
    s = su_sequence(construction_params(5, 2, (0, 1, 0, 1)))
    hist = analysis.autocorrelation(s).histogram()
    assert hist[0] == 4  # p - 1 zeros
    assert sum(hist.values()) == s.period - 1


# ------------------------------------------------------------ closed form

def test_closed_form_matches_brute_small():
    for p, g in [(5, 2), (5, 3), (13, 2), (29, 2)]:
        for w in ADMISSIBLE_W:
            params = construction_params(p, g, w)
            s = su_sequence(params)
            assert analysis.closed_form_spectrum(params) == analysis.autocorrelation(s)


def test_closed_form_even_offset_block():
    # within tau = 2 mod 4 the only nonzero is +4, at tau2 = (p-1)/2
    params = construction_params(5, 2, (0, 1, 0, 1))
    values = analysis.closed_form_spectrum(params).values
    block = {tau: values[tau] for tau in range(1, 20) if tau % 4 == 2}
    assert block == {2: 0, 6: 0, 10: 4, 14: 0, 18: 0}


def test_closed_form_case_counts():
    # per odd block: one -4 from the zero residue, then (p-1)/2 copies of
    # each sign of 4b; zeros only ever come from the tau1 = 2 block
    for p, g in [(13, 2), (29, 2)]:
        params = construction_params(p, g, (0, 1, 0, 1))
        values = analysis.closed_form_spectrum(params).values
        for tau1 in (1, 3):
            block = [values[tau] for tau in range(1, 4 * p) if tau % 4 == tau1]
            assert block.count(-4) == (p - 1) // 2 + 1
            assert block.count(4) == (p - 1) // 2
        assert sum(1 for v in values[1:] if v == 0) == p - 1
        assert sum(1 for v in values[1:] if v != 0) == 3 * p


# ------------------------------------------------------- 2-adic complexity

def test_reference_instance_p13():
    s = su_sequence(construction_params(13, 2, (0, 1, 0, 1)))
    report = analysis.two_adic_complexity(s)
    assert report.s2 == 1479869254444810
    assert report.gcd == 5
    assert report.f == (2**52 - 1) // 5
    assert report.phi == 49


def test_degenerate_sequences():
    zero = BinarySequence(10, 0)
    report = analysis.two_adic_complexity(zero)
    assert report.gcd == 2**10 - 1 and report.f == 1 and report.phi == 1
    ones = BinarySequence.from_bits([1] * 10)
    assert analysis.two_adic_complexity(ones).phi == 1


def test_coprime_numerator_gives_full_phi():
    s = BinarySequence.from_bits([1, 0, 0, 0])  # S(2) = 1
    report = analysis.two_adic_complexity(s)
    assert report.gcd == 1 and report.f == 15 and report.phi == 4


def test_report_invariants_random():
    rng = random.Random(3)
    for _ in range(100):
        s = random_sequence(rng)
        report = analysis.two_adic_complexity(s)
        m = (1 << s.period) - 1
        assert report.gcd * report.f == m
        import math
        assert math.gcd(report.s2 // report.gcd, report.f) == 1
        assert 0 <= report.phi <= s.period
        assert report.phi == (report.f + 1).bit_length() - 1


def test_to_record_uses_decimal_strings():
    s = su_sequence(construction_params(13, 2, (0, 1, 0, 1)))
    rec = analysis.two_adic_complexity(s).to_record()
    assert rec["s2"] == "1479869254444810"
    assert rec["gcd"] == "5"
    assert rec["phi"] == 49
    spec_rec = analysis.autocorrelation(s).to_record()
    assert spec_rec["period"] == 52
    assert spec_rec["values"].startswith("52,")


# --------------------------------------------------------------- identity

def test_identity_on_construction_instances():
    for p in (5, 13):
        for w in ADMISSIBLE_W:
            s = su_sequence(construction_params(p, 2, w))
            check = analysis.hu_identity_check(s)
            assert check.holds and check.lhs == check.rhs


def test_identity_on_random_sequences():
    rng = random.Random(4)
    for _ in range(100):
        assert analysis.hu_identity_check(random_sequence(rng)).holds


def test_identity_degenerate_and_errors():
    assert analysis.hu_identity_check(BinarySequence(8, 0)).holds
    with pytest.raises(ValueError):
        analysis.hu_identity_check(BinarySequence(1, 0))


@settings(max_examples=60, deadline=None)
@given(bit_lists)
def test_identity_property(bits):
    assert analysis.hu_identity_check(BinarySequence.from_bits(bits)).holds


# -------------------------------------------------------- linear complexity

def test_linear_complexity_examples():
    assert analysis.linear_complexity(BinarySequence.from_bits([1] * 6)) == 1
    four = BinarySequence.from_bits([1, 0, 0, 0])
    assert lc_oracle(four) == bm_oracle(four) == 4  # oracles first
    assert analysis.linear_complexity(four) == 4
    mseq = BinarySequence.from_bits([0, 0, 1, 0, 1, 1, 1])
    assert lc_oracle(mseq) == bm_oracle(mseq) == 3
    assert analysis.linear_complexity(mseq) == 3
    assert analysis.linear_complexity(BinarySequence(5, 0)) == 0


def test_berlekamp_massey_rejects_non_bits():
    with pytest.raises(ValueError):
        analysis.berlekamp_massey([0, 1, 2])


def test_linear_complexity_matches_gcd_oracle_random():
    rng = random.Random(6)
    for _ in range(100):
        s = random_sequence(rng)
        assert analysis.linear_complexity(s) == lc_oracle(s) == bm_oracle(s)


def test_linear_complexity_matches_oracle_on_construction():
    for p in (5, 13):
        for g in sorted(all_primitive_roots(p)):
            for w in ADMISSIBLE_W:
                s = su_sequence(construction_params(p, g, w))
                assert analysis.linear_complexity(s) == lc_oracle(s) == bm_oracle(s)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        analysis.AutocorrSpectrum(period=3, values=(3, 1))
