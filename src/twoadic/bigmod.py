"""Exact arithmetic modulo 2^N - 1, plus the sequence evaluations S(2) and T(2^-1).

The modulus shape makes reduction cheap: 2^N = 1, so any integer reduces by
folding its N-bit limbs together instead of dividing. Residues are canonical
in [0, 2^N - 2]; the modulus itself reduces to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .sequences import BinarySequence

__all__ = [
    "MersenneResidue",
    "modulus",
    "reduce",
    "mul",
    "add_signed",
    "gcd_with_modulus",
    "eval_S",
    "eval_T_inv",
    "decimal_str",
]


def modulus(N: int) -> int:
    if N < 1:
        raise ValueError("modulus exponent must be >= 1")
    return (1 << N) - 1


@dataclass(frozen=True)
class MersenneResidue:
    """A canonical residue modulo 2^N - 1."""

    N: int
    value: int

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.N > 1 and not 0 <= self.value < (1 << self.N) - 1:
            raise ValueError("value must lie in [0, 2^N - 2]")
        if self.N == 1 and self.value != 0:
            raise ValueError("the ring mod 2^1 - 1 is trivial; only 0 is canonical")


def _fold(x: int, N: int) -> int:
    # sum of N-bit limbs preserves the value mod 2^N - 1
    m = (1 << N) - 1
    while x > m:
        x = (x >> N) + (x & m)
    return 0 if x == m else x


def reduce(x: int, N: int) -> MersenneResidue:
    """Canonical residue of a non-negative integer, by limb folding."""
    if x < 0:
        raise ValueError("reduce takes non-negative input; use add_signed for signed terms")
    if N < 1:
        raise ValueError("modulus exponent must be >= 1")
    return MersenneResidue(N, _fold(x, N))


def mul(x: MersenneResidue, y: MersenneResidue) -> MersenneResidue:
    if x.N != y.N:
        raise ValueError(f"mixed moduli: 2^{x.N}-1 vs 2^{y.N}-1")
    return MersenneResidue(x.N, _fold(x.value * y.value, x.N))


def add_signed(x: MersenneResidue, t: int) -> MersenneResidue:
    """Canonical residue of x + t for any signed integer t.

    |t| is folded by N-bit limbs like any non-negative input, one linear pass
    per limb instead of a long division by m = 2^N - 1; a negative t leaves
    x - fold(|t|) in (-m, m), which one small % makes canonical.
    """
    if t >= 0:
        return MersenneResidue(x.N, _fold(x.value + t, x.N))
    return MersenneResidue(x.N, (x.value - _fold(-t, x.N)) % modulus(x.N))


def gcd_with_modulus(x: MersenneResidue) -> int:
    """gcd(value, 2^N - 1); the zero residue yields the full modulus.

    For even N, 2^N - 1 = (2^h - 1)(2^h + 1) with h = N / 2, and the two
    factors are coprime (both are odd and differ by 2). The value, below
    2^N, is hi 2^h + lo: it folds to hi + lo mod 2^h - 1 and, as 2^h = -1
    mod 2^h + 1, to lo - hi mod 2^h + 1. The gcd is the product of the two
    factor gcds, and the minus factor splits again while its exponent is
    even. For N = 4p that is three gcds, at p, p and 2p bits, in place of
    one at 4p bits; math.gcd is quadratic, so the split costs about 6/16 of
    it. Below _GCD_SPLIT_BITS, and for odd N, one math.gcd is faster.
    """
    return _gcd_split(x.value, x.N)


# Bits from which splitting 2^N - 1 beats one math.gcd: about even at
# N = 1600-2000, 10% faster at N = 2400 (CPython 3.11, 2-vCPU x86-64 host).
_GCD_SPLIT_BITS = 2048

# Bits from which verify.check_complexity_bounds takes the gcd from S(2)
# mod 15 where the product congruence holds, not from gcd_with_modulus.
# After the product check (run_all) the product and its closed form are
# cached, and the certificate took 4-11 us where the gcd took 50-510 us at
# N = 4372-21332; a survey computes both for the certificate alone, which
# took 1.3-1.7 times the gcd's time per prime at N = 4372-8852, 1.0-1.2 at
# 21332 and 0.85-0.96 at 37652 (CPython 3.11, 2-vCPU x86-64 host). Below
# this, as in all-g surveys up to limit 1100 (N <= 4372), the gcd stays.
_CERTIFIED_GCD_BITS = 8192


def _gcd_split(value: int, n: int) -> int:
    if n % 2 or n < _GCD_SPLIT_BITS:
        return math.gcd(value, (1 << n) - 1)
    h = n // 2
    hi, lo = value >> h, value & ((1 << h) - 1)
    return _gcd_split(_fold(hi + lo, h), h) * math.gcd(lo - hi, (1 << h) + 1)


def eval_S(s: BinarySequence) -> MersenneResidue:
    """S(2) = sum s(i) 2^i mod 2^N - 1.

    The packed sequence value *is* that integer, so this is a single fold.
    """
    return reduce(s.value, s.period)


def eval_T_inv(s: BinarySequence) -> MersenneResidue:
    """T(2^-1) = sum (-1)^s(i) 2^(-i) mod 2^N - 1.

    Since (-1)^s(i) = 1 - 2 s(i) and sum 2^(-i) over all i is 2^N - 1 = 0,
    T(2^-1) = -2 S(2^-1). With 2^-1 = 2^(N-1), 2^(-i) = 2^((N - i) mod N), so
    S(2^-1) is the N-bit reversal of the packed value rotated left by one.
    O(N): one reversal through the binary text.
    """
    n = s.period
    if n < 2:
        raise ValueError("T(2^-1) needs period >= 2")
    m = modulus(n)
    reversed_value = int(format(s.value, f"0{n}b")[::-1], 2)
    s_inv = ((reversed_value << 1) | (reversed_value >> (n - 1))) & m
    return MersenneResidue(n, -2 * s_inv % m)


# Bits up to which one Decimal(n) renders an int; decimal_str splits larger
# ones into halves until each fits. About even with one Decimal(n) at
# 17-21k bits, 1.5 times faster at 37652 bits and 7-9 times at 392k bits,
# and flat for a constant of 2048-6144 bits (CPython 3.11, libmpdec 2.5.1,
# 2-vCPU x86-64 host).
_DECIMAL_SPLIT_BITS = 4096


def decimal_str(n: int) -> str:
    """Exact decimal text of any int.

    str() refuses ints past CPython's digit limit for int-to-decimal
    conversion (4300 digits by default), which S(2) and its cofactors cross
    from period about 14300 on; decimal converts without that limit, and
    the limit is never changed here. Both convert in quadratic time, so an
    int of w > _DECIMAL_SPLIT_BITS bits is split as hi 2^h + lo with
    h = w // 2, each half is converted the same way, and one Decimal
    multiply by 2^h, which libmpdec runs as a number-theoretic transform,
    joins them. The powers of 2 are made per call, each from two halves or
    from its predecessor, and dropped on return.
    """
    import decimal  # deferred: only output formatting needs it

    if n.bit_length() <= _DECIMAL_SPLIT_BITS:
        return str(decimal.Decimal(n))
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])
    powers = {}  # h -> 2^h as a Decimal

    def power(h: int):
        if (result := powers.get(h)) is None:
            if h <= _DECIMAL_SPLIT_BITS:
                result = decimal.Decimal(1 << h)
            elif h - 1 in powers:
                result = ctx.add(powers[h - 1], powers[h - 1])
            else:
                result = ctx.multiply(power(h // 2), power(h - h // 2))
            powers[h] = result
        return result

    def convert(x: int, w: int):
        """x < 2^w as a Decimal."""
        if w <= _DECIMAL_SPLIT_BITS:
            return decimal.Decimal(x)
        h = w // 2
        hi = x >> h
        return ctx.add(ctx.multiply(convert(hi, w - h), power(h)),
                       convert(x - (hi << h), h))

    text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text
