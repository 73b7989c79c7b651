import decimal
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoadic import bigmod
from twoadic.numtheory import eligible_primes
from twoadic.sequences import ADMISSIBLE_W, BinarySequence, construction_params, su_sequence


def residue(value, N):
    return bigmod.MersenneResidue(N, value)


# ----------------------------------------------------------------- reduce

def test_reduce_examples():
    assert bigmod.reduce(2**5, 4).value == 2
    assert bigmod.reduce(2**4 - 1, 4).value == 0
    assert bigmod.reduce(7, 4).value == 7


def test_reduce_rejects_bad_input():
    with pytest.raises(ValueError):
        bigmod.reduce(-1, 4)
    with pytest.raises(ValueError):
        bigmod.reduce(3, 0)


def test_reduce_matches_remainder_oracle():
    rng = random.Random(20240)
    for _ in range(1000):
        N = rng.randint(1, 256)
        x = rng.getrandbits(4 * N)
        expected = x % ((1 << N) - 1) if N > 1 else 0
        assert bigmod.reduce(x, N).value == expected


def test_trivial_ring():
    assert bigmod.reduce(17, 1).value == 0
    assert bigmod.add_signed(residue(0, 1), -5).value == 0


# -------------------------------------------------------------------- mul

def test_mul_examples():
    assert bigmod.mul(residue(5, 4), residue(3, 4)).value == 0  # 15 = 0
    assert bigmod.mul(residue(9, 4), residue(1, 4)).value == 9


def test_mul_inverse_pair():
    # 2 * 2^(N-1) = 2^N = 1
    for N in range(2, 65):
        half = bigmod.reduce(1 << (N - 1), N)
        two = bigmod.reduce(2, N)
        assert bigmod.mul(half, two).value == 1


def test_mul_rejects_mixed_moduli():
    with pytest.raises(ValueError):
        bigmod.mul(residue(1, 4), residue(1, 5))


# ------------------------------------------------------------- add_signed

def test_add_signed_examples():
    N = 20
    p = 5
    assert bigmod.add_signed(residue(0, N), -p).value == (1 << N) - 1 - p
    assert bigmod.add_signed(residue(3, N), 0).value == 3
    assert bigmod.add_signed(residue((1 << N) - 3, N), 2).value == 0


@pytest.mark.parametrize("N", [1, 2, 3, 5, 64, 1000])
def test_add_signed_fold_against_remainder(N):
    # the limb fold of add_signed against one % m, on the edges of the
    # fold and on |t| of up to eight limbs, both signs
    m = (1 << N) - 1
    rng = random.Random(N)
    ts = [0, m, -m, m + 1, -(m + 1)]
    ts += [sign * rng.getrandbits(rng.randint(1, 8 * N))
           for _ in range(50) for sign in (1, -1)]
    for x in {0, rng.randrange(max(m, 1)), max(m - 1, 0)}:
        for t in ts:
            got = bigmod.add_signed(residue(x, N), t)
            assert got.value == ((x + t) % m if m > 1 else 0), (x, t)


# ------------------------------------------------------ gcd_with_modulus

def test_gcd_examples():
    assert bigmod.gcd_with_modulus(residue(0, 52)) == 2**52 - 1
    assert bigmod.gcd_with_modulus(residue(1, 52)) == 1
    assert bigmod.gcd_with_modulus(residue(15, 8)) == 15


# The split gcd against one math.gcd(v, 2^N - 1), the kernel it replaces above
# the crossover. N covers the tiny and odd moduli, N = 2 mod 4 (one split, then
# an odd exponent), powers of two (a split at every level), both sides of the
# crossover and the construction's N = 4p.
SPLIT = bigmod._GCD_SPLIT_BITS
SPLIT_N = sorted({1, 2, 3, 4, 5, 7, 31, 127, 2047, 2049, 4099,
                  6, 10, 30, 1022, 2 * 1031, 2 * 2053, 2 * 4099,
                  8, 64, 1 << 11, 1 << 12, 1 << 13, 1 << 14,
                  *range(SPLIT - 4, SPLIT + 5),
                  *(4 * p for p in (5, 13, 293, 509, 521, 1373, 2213, 5333))})


def split_values(N, rng):
    """0, 1, m - 1, multiples of 3, 5, 15, 17 and 257, and random residues."""
    m = (1 << N) - 1
    values = {0, 1, m - 1, *(rng.randrange(m) for _ in range(4))}
    for k in (3, 5, 15, 17, 257):
        values |= {k, k * rng.randrange(max(1, m // k)), k * (m // k)}
    return sorted(v for v in values if v < m)


@pytest.mark.parametrize("N", SPLIT_N)
def test_split_gcd_against_math_gcd(N):
    rng = random.Random(N)
    m = (1 << N) - 1
    for v in split_values(N, rng):
        assert bigmod.gcd_with_modulus(residue(v, N)) == math.gcd(v, m), (N, v)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SPLIT_N).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(0, max(0, (1 << N) - 2)))))
def test_split_gcd_random_values(case):
    N, v = case
    assert bigmod.gcd_with_modulus(residue(v, N)) == math.gcd(v, (1 << N) - 1)


def test_split_gcd_on_the_construction_ladder():
    # gcd(S(2), 2^(4p) - 1) is 5 or a small multiple of it: 15 where 3 | S(2)
    # (w = 0000 and 1111), and 25 or 75 where 25 divides too
    seen = set()
    for p in eligible_primes(6000):
        for w in ADMISSIBLE_W:
            s2 = bigmod.eval_S(su_sequence(construction_params(p, None, w)))
            gcd = bigmod.gcd_with_modulus(s2)
            assert gcd == math.gcd(s2.value, (1 << (4 * p)) - 1), (p, w)
            seen.add(gcd)
    assert {5, 15, 75} <= seen
    assert max(4 * p for p in eligible_primes(6000)) > 4 * SPLIT


# ------------------------------------------------------------ evaluations

def test_eval_S_examples():
    assert bigmod.eval_S(BinarySequence.from_bits([1, 0, 1, 0])).value == 5
    assert bigmod.eval_S(BinarySequence.from_bits([1] * 7)).value == 0
    assert bigmod.eval_S(BinarySequence.from_bits([0] * 7)).value == 0


def test_eval_T_inv_examples():
    assert bigmod.eval_T_inv(BinarySequence.from_bits([0, 0, 0, 0])).value == 0
    # -1 + 8 + 4 + 2 = 13, evaluated by hand
    assert bigmod.eval_T_inv(BinarySequence.from_bits([1, 0, 0, 0])).value == 13
    with pytest.raises(ValueError):
        bigmod.eval_T_inv(BinarySequence.from_bits([1]))


def test_eval_T_inv_matches_modular_inverse_oracle():
    # oracle: evaluate with pow(2, -1, m) directly instead of exponent flips
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 96)
        bits = [rng.randint(0, 1) for _ in range(n)]
        m = (1 << n) - 1
        inv2 = pow(2, -1, m)
        expected = sum((-1 if b else 1) * pow(inv2, i, m) for i, b in enumerate(bits)) % m
        got = bigmod.eval_T_inv(BinarySequence.from_bits(bits)).value
        assert got == expected


def test_eval_S_matches_direct_sum():
    rng = random.Random(78)
    for _ in range(300):
        n = rng.randint(1, 96)
        bits = [rng.randint(0, 1) for _ in range(n)]
        expected = sum(b << i for i, b in enumerate(bits)) % ((1 << n) - 1) if n > 1 else 0
        assert bigmod.eval_S(BinarySequence.from_bits(bits)).value == expected


# -------------------------------------------------------------- ring laws

small_n = st.integers(2, 64)


@settings(max_examples=80, deadline=None)
@given(small_n, st.data())
def test_ring_laws_against_naive_modulo(N, data):
    m = (1 << N) - 1
    vals = st.integers(0, m - 1)
    x, y, z = (data.draw(vals) for _ in range(3))
    rx, ry, rz = (residue(v, N) for v in (x, y, z))
    assert bigmod.mul(rx, ry).value == x * y % m
    assert bigmod.mul(rx, ry) == bigmod.mul(ry, rx)
    assert bigmod.mul(bigmod.mul(rx, ry), rz) == bigmod.mul(rx, bigmod.mul(ry, rz))
    t = data.draw(st.integers(-(1 << 80), 1 << 80))
    assert bigmod.add_signed(rx, t).value == (x + t) % m
    # distributivity: x * (y + z) = x*y + x*z
    lhs = bigmod.mul(rx, bigmod.add_signed(ry, z))
    rhs = bigmod.add_signed(bigmod.mul(rx, ry), x * z)
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.integers(0, 1 << 512))
def test_reduce_agrees_with_modulo(N, x):
    m = (1 << N) - 1
    assert bigmod.reduce(x, N).value == (x % m if m > 1 else 0)


def test_residue_validation():
    with pytest.raises(ValueError):
        bigmod.MersenneResidue(4, 15)  # the modulus itself is not canonical
    with pytest.raises(ValueError):
        bigmod.MersenneResidue(4, -1)
    with pytest.raises(ValueError):
        bigmod.MersenneResidue(1, 1)
    with pytest.raises(ValueError):
        bigmod.MersenneResidue(0, 0)
    with pytest.raises(ValueError, match="exponent"):
        bigmod.modulus(0)


def test_gcd_consistency_with_math_gcd():
    rng = random.Random(5)
    for _ in range(200):
        N = rng.randint(2, 128)
        v = rng.randrange((1 << N) - 1)
        assert bigmod.gcd_with_modulus(residue(v, N)) == math.gcd(v, (1 << N) - 1)


# ------------------------------------------------------------ decimal_str
#
# decimal_str splits an int above _DECIMAL_SPLIT_BITS into halves and joins
# their Decimals with a multiply by 2^h; the reference is the conversion it
# replaced, one Decimal of the whole int.

LEAF = bigmod._DECIMAL_SPLIT_BITS


def ref_decimal_str(n):
    return str(decimal.Decimal(n))


def check_decimal_str(n):
    for v in (n, -n):
        assert bigmod.decimal_str(v) == ref_decimal_str(v)


def test_decimal_str_small_and_negative():
    for n in (0, 1, 2, 9, 10, 11, 12345, 2**63, 2**64 + 1, 10**30):
        check_decimal_str(n)
    assert bigmod.decimal_str(0) == "0"
    assert bigmod.decimal_str(-1) == "-1"


@pytest.mark.parametrize("bits", [LEAF - 1, LEAF, LEAF + 1, 2 * LEAF, 2 * LEAF + 1, 4 * LEAF + 3])
def test_decimal_str_powers_of_two_at_the_leaf(bits):
    for n in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
        check_decimal_str(n)


@pytest.mark.parametrize("bits", [LEAF << i for i in range(6)])
def test_decimal_str_powers_of_ten_around_each_split(bits):
    # 10^j just below and just above 2^bits: runs of nines and of zeros
    # in the decimal text where the halves meet
    j = math.floor(bits * math.log10(2))
    assert 10**j < 1 << bits < 10 ** (j + 1)
    for k in (j - 1, j, j + 1, j + 2):
        for n in (10**k - 1, 10**k, 10**k + 1):
            check_decimal_str(n)


def test_decimal_str_random_sizes():
    rng = random.Random(22)
    sizes = [rng.randrange(1, 20000) for _ in range(40)]
    sizes += [rng.randrange(20000, 100000) for _ in range(6)] + [401000]
    for bits in sizes:
        check_decimal_str(rng.getrandbits(bits))


def test_decimal_str_equals_str_within_the_digit_limit():
    rng = random.Random(4300)
    for digits in [1, 2, 19, 20, 1000, 1234, 1235, 4299, 4300] + rng.sample(range(1, 4301), 30):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        for v in (n, -n):
            assert bigmod.decimal_str(v) == str(v)


def test_decimal_str_leaves_the_digit_limit_alone():
    limit = sys.get_int_max_str_digits()
    bigmod.decimal_str(1 << 100000)
    assert sys.get_int_max_str_digits() == limit
