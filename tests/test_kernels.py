"""Differential tests: each near-linear kernel against the kernel it replaced.

The reference functions below are the earlier per-bit and per-shift
implementations, kept verbatim in spirit: an XOR/popcount scan over every
rotation, a per-bit T(2^-1) sum, the Legendre-symbol character sum, the
per-tau closed-form spectrum, bit loops for interleaving and the text
conversions, the per-shift accumulation of the product identity, and the
per-root discrete-log and bucket loops behind the cyclotomic classes, the
quartic decomposition and the DHL columns. The linear complexity from one
GF(2) gcd is checked against the public Berlekamp-Massey over two periods.
Every comparison is exact equality.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoadic import analysis, bigmod, numtheory, verify
from twoadic.numtheory import (
    CyclotomicClasses,
    QuarticParams,
    all_primitive_roots,
    cyclotomic_classes,
    eligible_primes,
    is_eligible_prime,
    is_prime,
    is_primitive_root,
    legendre_symbol,
    legendre_table,
    quartic_decomposition,
)
from twoadic.sequences import (
    ADMISSIBLE_W,
    BinarySequence,
    add_constant,
    construction_params,
    deinterleave,
    dhl_sequence,
    interleave,
    left_shift,
    su_sequence,
)

# --------------------------------------------------------------- references


def ref_autocorrelation(s):
    n = s.period
    values = [n]
    for tau in range(1, n):
        diff = (s.value ^ left_shift(s, tau).value).bit_count()
        values.append(n - 2 * diff)
    return tuple(values)


def ref_eval_T_inv(s):
    n = s.period
    m = (1 << n) - 1
    plus = minus = 0
    for i in range(n):
        e = (n - i) % n
        if (s.value >> i) & 1:
            minus += 1 << e
        else:
            plus += 1 << e
    return (plus - minus) % m


def ref_product_closed_form(params):
    p, b = params.p, params.b
    m = (1 << (4 * p)) - 1
    eps = 1 if params.w[0] != params.w[1] else -1
    character_sum = sum(legendre_symbol(i, p) << (4 * i) for i in range(1, p))
    two_2p = 1 << (2 * p)
    inner = (m // 15
             + eps * (two_2p + 1) * ((1 << p) - eps)
             + eps * (1 << p) * (two_2p + 1) * b * character_sum
             - p)
    return 2 * inner % m


def ref_cyclotomic_classes(p, g):
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    if p % 4 != 1:
        raise ValueError(f"order-4 cyclotomy needs p = 1 mod 4, got {p}")
    if not is_primitive_root(g, p):
        raise ValueError(f"{g} is not a primitive root of {p}")
    buckets = ([], [], [], [])
    x = 1
    for e in range(p - 1):
        buckets[e & 3].append(x)
        x = x * g % p
    return CyclotomicClasses(p=p, g=g, classes=tuple(frozenset(c) for c in buckets))


def ref_quartic_decomposition(p, g):
    if not is_eligible_prime(p):
        raise ValueError(f"{p} is not prime of the form a^2 + 4 with a odd")
    if not is_primitive_root(g, p):
        raise ValueError(f"{g} is not a primitive root of {p}")
    index = [0] * p
    x = 1
    for e in range(p - 1):
        index[x] = e
        x = x * g % p
    counts = [0, 0, 0, 0]
    for t in range(2, p):
        counts[(index[t] + index[(1 - t) % p]) & 3] += 1
    re = counts[0] - counts[2]
    im = counts[1] - counts[3]
    assert re * re + im * im == p
    if re % 4 != 1:
        re, im = -re, -im
    assert im % 2 == 0 and abs(im) == 2
    return QuarticParams(p=p, k=(p - 1) // 4, a=re, b=im // 2, g=g)


DHL_SUPPORTS = {1: (0, 1), 2: (0, 3), 3: (1, 2), 4: (2, 3)}


def ref_dhl_sequence(p, g, kind):
    if kind not in DHL_SUPPORTS:
        raise ValueError(f"kind must be 1..4, got {kind}")
    classes = ref_cyclotomic_classes(p, g)
    return BinarySequence.from_support(p, classes.union(*DHL_SUPPORTS[kind]))


def ref_hu_identity_check(s):
    n = s.period
    if n < 2:
        raise ValueError("identity needs period >= 2")
    st = bigmod.mul(bigmod.eval_S(s), bigmod.eval_T_inv(s))
    lhs = bigmod.add_signed(bigmod.reduce(0, n), -2 * st.value)
    spectrum = analysis.autocorrelation(s)
    acc = n
    for tau in range(1, n):
        acc += spectrum.values[tau] << tau
    rhs = bigmod.add_signed(bigmod.reduce(0, n), acc)
    return analysis.IdentityCheck(holds=lhs == rhs, lhs=lhs, rhs=rhs)


def ref_closed_form_spectrum(params):
    p, g, d, b = params.p, params.g, params.d, params.b
    residues = ref_cyclotomic_classes(p, g).quadratic_residues
    eps = 1 if params.w[0] != params.w[1] else -1
    values = [4 * p]
    for tau in range(1, 4 * p):
        tau1, tau2 = tau % 4, tau // 4
        if tau1 == 0:
            values.append(-4)
        elif tau1 == 2:
            values.append(4 if (tau2 + 2 * d) % p == 0 else 0)
        else:
            r = (tau2 + tau1 * d) % p
            if r == 0:
                values.append(-4 * eps)
            elif r in residues:
                values.append(-4 * eps * b)
            else:
                values.append(4 * eps * b)
    return tuple(values)


def ref_interleave(cols):
    v = cols[0].period
    value = 0
    for j, c in enumerate(cols):
        for t in range(v):
            value |= ((c.value >> t) & 1) << (4 * t + j)
    return BinarySequence(4 * v, value)


def ref_deinterleave(s):
    v = s.period // 4
    return tuple(
        BinarySequence(v, sum(((s.value >> (4 * t + j)) & 1) << t for t in range(v)))
        for j in range(4))


def ref_bits(s):
    return tuple((s.value >> i) & 1 for i in range(s.period))


def ref_su_sequence(params):
    p, g, d, w = params.p, params.g, params.d, params.w
    s1, s2, s3 = (ref_dhl_sequence(p, g, k) for k in (1, 2, 3))
    return ref_interleave((add_constant(s3, w[0]),
                           add_constant(left_shift(s2, d), w[1]),
                           add_constant(left_shift(s1, 2 * d), w[2]),
                           add_constant(left_shift(s1, 3 * d), w[3])))


# ------------------------------------------------------------------- inputs

SMALL_N = (1, 2, 3, 4, 5, 8)


def every_sequence(n):
    return [BinarySequence(n, v) for v in range(1 << n)]


def constant_sequences(n):
    return [BinarySequence(n, 0), BinarySequence(n, (1 << n) - 1)]


sequences_up_to_300 = st.integers(1, 300).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BinarySequence(n, v)))


def ladder_params():
    """All w and up to three primitive roots per eligible p <= 2213."""
    out = []
    for p in eligible_primes(2213):
        for g in sorted(all_primitive_roots(p))[:3]:
            out += [construction_params(p, g, w) for w in ADMISSIBLE_W]
    return out


LADDER = ladder_params()


def check_sequence_kernels(s):
    assert analysis.autocorrelation(s).values == ref_autocorrelation(s)
    assert s.bits() == ref_bits(s)
    assert str(s) == "".join(map(str, ref_bits(s)))
    assert BinarySequence.from_bits(ref_bits(s)) == s
    support = [i for i, bit in enumerate(ref_bits(s)) if bit]
    assert BinarySequence.from_support(s.period, support) == s
    if s.period >= 2:
        assert bigmod.eval_T_inv(s).value == ref_eval_T_inv(s)
        assert analysis.hu_identity_check(s) == ref_hu_identity_check(s)
    if s.period % 4 == 0:
        assert deinterleave(s) == ref_deinterleave(s)


# -------------------------------------------------------- sequence kernels

@pytest.mark.parametrize("n", SMALL_N)
def test_every_small_sequence(n):
    for s in every_sequence(n):
        check_sequence_kernels(s)


@pytest.mark.parametrize("n", list(range(1, 41)) + [255, 256, 257])
def test_constant_sequences(n):
    for s in constant_sequences(n):
        check_sequence_kernels(s)
        assert analysis.autocorrelation(s).values == (n,) * n


@settings(max_examples=150, deadline=None)
@given(sequences_up_to_300)
def test_random_sequences(s):
    check_sequence_kernels(s)


def test_autocorrelation_field_width_edges():
    # All ones fills every field to exactly N: 2^16 - 1 is the largest count
    # a 16-bit field holds, so period 2^16 must take the 32-bit path.
    for n in ((1 << 16) - 1, 1 << 16):
        ones = BinarySequence(n, (1 << n) - 1)
        assert analysis.autocorrelation(ones).values == (n,) * n
    n = (1 << 16) + 3
    value = int.from_bytes(bytes(range(256)) * (n // 2048 + 1), "little") & ((1 << n) - 1)
    s = BinarySequence(n, value)
    spectrum = analysis.autocorrelation(s).values
    for tau in (0, 1, 2, 3, 255, 256, 4096, n // 2, n - 2, n - 1):
        diff = (s.value ^ left_shift(s, tau).value).bit_count()
        assert spectrum[tau] == n - 2 * diff


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 80).flatmap(
    lambda v: st.lists(st.integers(0, (1 << v) - 1), min_size=4, max_size=4)
    .map(lambda values: tuple(BinarySequence(v, x) for x in values))))
def test_interleave_random_columns(cols):
    s = interleave(*cols)
    assert s == ref_interleave(cols)
    assert deinterleave(s) == cols


@pytest.mark.parametrize("v", (1, 2, 3))
def test_interleave_every_small_column_set(v):
    for cols in product(every_sequence(v), repeat=4):
        assert interleave(*cols) == ref_interleave(cols)


def test_interleave_every_period_to_100():
    rng = random.Random(4)
    for v in range(1, 101):
        cols = tuple(BinarySequence(v, rng.getrandbits(v)) for _ in range(4))
        s = interleave(*cols)
        assert s == ref_interleave(cols)
        assert deinterleave(s) == ref_deinterleave(s) == cols


def test_from_bits_keeps_error_messages():
    for bad, message in (([0, 2, 1], "bit 1 is 2, expected 0 or 1"),
                         ([1, 0, -1], "bit 2 is -1, expected 0 or 1"),
                         ([0, "1"], "bit 1 is '1', expected 0 or 1"),
                         ([300], "bit 0 is 300, expected 0 or 1")):
        with pytest.raises(ValueError, match=message):
            BinarySequence.from_bits(bad)
    with pytest.raises(ValueError, match="period"):
        BinarySequence.from_bits([])
    assert BinarySequence.from_bits([True, False, True]) == BinarySequence(3, 5)


# ------------------------------------------------------ construction ladder

def test_legendre_table_matches_symbol():
    for p in (3, 5, 7, 13, 29, 53, 101):
        assert legendre_table(p) == [legendre_symbol(i, p) for i in range(p)]
    with pytest.raises(ValueError):
        legendre_table(9)


@pytest.mark.parametrize("params", LADDER,
                         ids=[f"p{q.p}-g{q.g}-w{''.join(map(str, q.w))}" for q in LADDER])
def test_construction_ladder(params):
    s = su_sequence(params)
    assert s == ref_su_sequence(params)
    assert analysis.autocorrelation(s).values == ref_autocorrelation(s)
    assert bigmod.eval_T_inv(s).value == ref_eval_T_inv(s)
    assert deinterleave(s) == ref_deinterleave(s)
    assert analysis.hu_identity_check(s) == ref_hu_identity_check(s)
    for q in (params, verify._flip_b(params)):
        assert analysis.closed_form_spectrum(q).values == ref_closed_form_spectrum(q)
        assert verify.product_closed_form(q).value == ref_product_closed_form(q)


# ------------------------------------------------------------ product identity

def test_identity_fold_reads_the_spectrum(monkeypatch):
    # A spectrum off by 4 at one shift must break the identity: the fold
    # sums the values it is given rather than re-deriving them from S(2).
    s = BinarySequence(13, 0b1011001110001)
    assert analysis.hu_identity_check(s).holds
    true_spectrum = analysis.autocorrelation(s)
    for tau in (1, 6, 12):
        values = list(true_spectrum.values)
        values[tau] += 4
        wrong = analysis.AutocorrSpectrum(period=13, values=tuple(values))
        monkeypatch.setattr(analysis, "autocorrelation", lambda seq, wrong=wrong: wrong)
        check = analysis.hu_identity_check(s)
        assert not check.holds
        assert check == ref_hu_identity_check(s)


def test_identity_rejects_period_one():
    for value in (0, 1):
        with pytest.raises(ValueError, match="period >= 2"):
            analysis.hu_identity_check(BinarySequence(1, value))


# ----------------------------------------------------- cyclotomy of one prime

PRIMES_1_MOD_4_BELOW_400 = [p for p in range(5, 400, 4) if is_prime(p)]
ELIGIBLE_TO_1100 = eligible_primes(1100)


@pytest.mark.parametrize("p", PRIMES_1_MOD_4_BELOW_400)
def test_classes_and_dhl_every_root(p):
    for g in sorted(all_primitive_roots(p)):
        classes = ref_cyclotomic_classes(p, g)
        assert cyclotomic_classes(p, g) == classes
        for kind in DHL_SUPPORTS:
            expected = BinarySequence.from_support(p, classes.union(*DHL_SUPPORTS[kind]))
            assert dhl_sequence(p, g, kind) == expected


@pytest.mark.parametrize("p", ELIGIBLE_TO_1100)
def test_quartic_decomposition_every_root(p):
    for g in sorted(all_primitive_roots(p)):
        assert quartic_decomposition(p, g) == ref_quartic_decomposition(p, g)


def test_interleaved_primes_share_no_state():
    # One prime's record is cached at a time; switching p and back must
    # rebuild it, never reuse another prime's masks or Jacobi sum.
    calls = [(13, 2), (29, 3), (13, 6), (17, 3), (29, 2), (13, 7), (5, 3), (29, 8)]
    for _ in range(2):
        for p, g in calls:
            assert cyclotomic_classes(p, g) == ref_cyclotomic_classes(p, g)
            assert dhl_sequence(p, g, 4) == ref_dhl_sequence(p, g, 4)
            if is_eligible_prime(p):
                assert quartic_decomposition(p, g) == ref_quartic_decomposition(p, g)
                params = construction_params(p, g, (1, 0, 1, 0))
                assert su_sequence(params) == ref_su_sequence(params)
            assert numtheory._cyclotomy.cache_info().currsize <= 1


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


# (p, g): non-primitive g, g = 0 mod p, g >= p (primitive or not mod p),
# negative g, p = 3 mod 4, p = 1 mod 4 but not a^2 + 4, and p not an odd prime.
REJECTION_CASES = [(13, 3), (13, 5), (13, 0), (13, 13), (13, 26), (13, 15), (13, 16),
                   (13, -11), (29, 31), (7, 3), (19, 2), (11, 2), (17, 3), (37, 2),
                   (41, 6), (9, 2), (15, 2), (25, 2), (4, 3), (2, 1), (1, 1), (0, 2)]


@pytest.mark.parametrize("p,g", REJECTION_CASES)
def test_validation_unchanged(p, g):
    assert outcome(cyclotomic_classes, p, g) == outcome(ref_cyclotomic_classes, p, g)
    assert outcome(quartic_decomposition, p, g) == outcome(ref_quartic_decomposition, p, g)
    for kind in (0, 1, 4, 5):
        assert outcome(dhl_sequence, p, g, kind) == outcome(ref_dhl_sequence, p, g, kind)


def test_survey_builds_one_record_per_prime():
    numtheory._cyclotomy.cache_clear()
    verify.survey_conjecture(1100, "all", "all")
    assert numtheory._cyclotomy.cache_info().misses == len(ELIGIBLE_TO_1100) == 9


# ------------------------------------------------------- linear complexity

def ref_linear_complexity(s):
    return analysis.berlekamp_massey(s.bits() * 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_linear_complexity_every_small_sequence(n):
    for s in every_sequence(n):
        assert analysis.linear_complexity(s) == ref_linear_complexity(s)


@pytest.mark.parametrize("n", list(range(1, 71)) + [255, 256, 257, 1 << 12])
def test_linear_complexity_constant_sequences(n):
    zero, ones = constant_sequences(n)
    assert analysis.linear_complexity(zero) == ref_linear_complexity(zero) == 0
    assert analysis.linear_complexity(ones) == ref_linear_complexity(ones) == 1


@pytest.mark.parametrize("n", [1 << k for k in range(13)]
                         + [4 * p for p in (3, 5, 13, 29, 53, 173, 1093)])
def test_linear_complexity_random_sequences(n):
    rng = random.Random(n)
    for _ in range(8):
        s = BinarySequence(n, rng.getrandbits(n))
        assert analysis.linear_complexity(s) == ref_linear_complexity(s)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_linear_complexity_bit_lists(bits):
    s = BinarySequence.from_bits(bits)
    assert analysis.linear_complexity(s) == ref_linear_complexity(s)


@pytest.mark.parametrize("params", LADDER,
                         ids=[f"p{q.p}-g{q.g}-w{''.join(map(str, q.w))}" for q in LADDER])
def test_linear_complexity_construction_ladder(params):
    s = su_sequence(params)
    assert analysis.linear_complexity(s) == ref_linear_complexity(s)


def test_linear_complexity_pinned_at_9413():
    s = su_sequence(construction_params(9413, 3, (0, 1, 0, 1)))
    assert analysis.linear_complexity(s) == 37650
