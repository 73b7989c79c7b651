"""Sequence analyses: autocorrelation spectra, 2-adic complexity, the
spectral product identity, and linear complexity.

All results are exact integers. The brute-force spectrum comes from the bits
alone through one big-integer product (Kronecker substitution), so a full
spectrum costs one multiplication of two 16N-bit ints rather than N
rotations; the closed form is assembled from slices of one length-p table.
Linear complexity is N - deg gcd(x^N + 1, S(x)) over GF(2), one Euclid on
packed ints over one period; Berlekamp-Massey stays for callers that hold a
bit list rather than a periodic sequence.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass

from . import bigmod
from .bigmod import MersenneResidue, decimal_str
from .numtheory import legendre_table
from .sequences import BinarySequence, ConstructionParams

__all__ = [
    "AutocorrSpectrum",
    "TwoAdicReport",
    "IdentityCheck",
    "autocorrelation",
    "closed_form_spectrum",
    "two_adic_complexity",
    "hu_identity_check",
    "berlekamp_massey",
    "linear_complexity",
]


@dataclass(frozen=True)
class AutocorrSpectrum:
    """AC(tau) for tau = 0..N-1; AC(0) = N always.

    Serializes via to_record() to {"period": int, "values": comma-joined
    decimal string}.
    """

    period: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.period:
            raise ValueError("need one value per shift")

    def histogram(self) -> dict[int, int]:
        """Counts of the out-of-phase values (tau >= 1), keyed by value."""
        return dict(sorted(Counter(self.values[1:]).items()))

    def out_of_phase(self) -> set[int]:
        return set(self.values[1:])

    def to_record(self) -> dict[str, object]:
        return {"period": self.period,
                "values": ",".join(str(v) for v in self.values)}


@dataclass(frozen=True)
class TwoAdicReport:
    """Output of the 2-adic complexity computation.

    s2 is S(2) as a canonical residue, gcd = gcd(S(2), 2^N - 1), f the
    cofactor (2^N - 1) / gcd, and phi = floor(log2(f + 1)). Serializes via
    to_record() to {"period", "s2", "gcd", "f", "phi"} with the big integers
    as decimal strings.
    """

    period: int
    s2: int
    gcd: int
    f: int
    phi: int

    def to_record(self) -> dict[str, object]:
        return {"period": self.period, "s2": decimal_str(self.s2),
                "gcd": decimal_str(self.gcd), "f": decimal_str(self.f),
                "phi": self.phi}


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of a residue identity, plus whether they agree."""

    holds: bool
    lhs: MersenneResidue
    rhs: MersenneResidue


def _spread(bits: bytes, width: int) -> int:
    """The int whose width-byte field k holds bits[k]."""
    fields = bytearray(width * len(bits))
    fields[::width] = bits
    return int.from_bytes(fields, "little")


def autocorrelation(s: BinarySequence) -> AutocorrSpectrum:
    """Periodic autocorrelation AC(tau) = sum_t (-1)^(s(t) + s(t + tau)).

    With weight W and coincidence counts C(tau) = #{t : s(t) = s(t + tau) = 1},
    AC(tau) = N - 4W + 4C(tau). All C(tau) come from one product: with
    A = sum s(t) X^t and B = sum s(N-1-u) X^u, coefficient k of A * B is
    sum_t s(t) s(t + N-1-k), and folding X^N = 1 leaves C((N-1-k) mod N) as
    coefficient k. Evaluated at X = 2^16 (2^32 once N >= 2^16), each
    coefficient, at most N, fits its own field and never carries.
    """
    n = s.period
    width = 2 if n < 1 << 16 else 4
    bits = bytes(s.bits())
    product = _spread(bits, width) * _spread(bits[::-1], width)
    shift = 8 * width * n
    folded = (product >> shift) + (product & ((1 << shift) - 1))
    counts = array(next(c for c in "HIL" if array(c).itemsize == width))
    counts.frombytes(folded.to_bytes(width * n, "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    base = n - 4 * s.weight
    # counts[N-1-tau] = C(tau), so tau = 0, 1, ... reads the fields backwards
    return AutocorrSpectrum(period=n,
                            values=tuple([base + 4 * c for c in reversed(counts)]))


def closed_form_spectrum(params: ConstructionParams) -> AutocorrSpectrum:
    """Autocorrelation of the interleaved construction without touching bits.

    Writing tau = tau1 + 4*tau2, the spectrum is:

      tau = 0:               4p
      tau1 = 0, tau2 != 0:   -4
      tau1 = 2:              +4 once (tau2 + 2d = 0 mod p), else 0
      tau1 in {1, 3}, with r = (tau2 + tau1*d) mod p:
                             -4e        if r = 0
                             -4eb       if r is a quadratic residue (D0 u D2)
                             +4eb       if r is a non-residue (D1 u D3)

    where e = +1 when w(0) != w(1) and e = -1 when w(0) = w(1): complementing
    adjacent columns flips every cross-column correlation, which is exactly
    the tau1-odd block. Out-of-phase values always lie in {0, 4, -4}.

    The residues D0 u D2 are the nonzero squares mod p whatever g is, so the
    odd-tau1 blocks read one Legendre table rotated by tau1 * d.
    """
    p, d, b = params.p, params.d, params.b
    eps = 1 if params.w[0] != params.w[1] else -1
    # odd[r] is the tau1-odd value at (tau2 + tau1*d) mod p = r
    odd = [-4 * eps * b * chi for chi in legendre_table(p)]
    odd[0] = -4 * eps
    values = [0] * (4 * p)
    values[0::4] = [4 * p] + [-4] * (p - 1)
    values[4 * ((-2 * d) % p) + 2] = 4
    for tau1 in (1, 3):
        k = tau1 * d % p
        values[tau1::4] = odd[k:] + odd[:k]
    return AutocorrSpectrum(period=4 * p, values=tuple(values))


def two_adic_complexity(s: BinarySequence) -> TwoAdicReport:
    """2-adic complexity phi = floor(log2((2^N - 1) / gcd(2^N - 1, S(2)) + 1)).

    Exact integer arithmetic throughout: floor(log2(m)) is bit_length(m) - 1.
    The all-zero and all-one sequences get the degenerate gcd = 2^N - 1 and
    phi = 1.
    """
    n = s.period
    s2 = bigmod.eval_S(s)
    g = bigmod.gcd_with_modulus(s2)
    f = bigmod.modulus(n) // g
    return TwoAdicReport(period=n, s2=s2.value, gcd=g, f=f,
                         phi=(f + 1).bit_length() - 1)


def hu_identity_check(s: BinarySequence) -> IdentityCheck:
    """Check -2 S(2) T(2^-1) = N + sum_tau AC(tau) 2^tau mod 2^N - 1.

    This holds for every periodic binary sequence; the remaining term of the
    underlying polynomial identity carries a factor sum_i 2^i = 2^N - 1 and
    vanishes here. Returns both sides for diagnostics.
    """
    n = s.period
    if n < 2:
        raise ValueError("identity needs period >= 2")
    st = bigmod.mul(bigmod.eval_S(s), bigmod.eval_T_inv(s))
    lhs = bigmod.add_signed(bigmod.reduce(0, n), -2 * st.value)
    # the identity's constant term N takes the place of AC(0)
    terms = (n,) + autocorrelation(s).values[1:]
    rhs = bigmod.add_signed(bigmod.reduce(0, n), _binary_fold(terms, n))
    return IdentityCheck(holds=lhs == rhs, lhs=lhs, rhs=rhs)


# _BIT_TEXT[k] maps a byte to b"1" if its bit k is set, else b"0".
_BIT_TEXT = tuple(bytes(0x31 if v >> k & 1 else 0x30 for v in range(256)) for k in range(8))


def _binary_fold(values: tuple[int, ...], offset: int) -> int:
    """sum_t values[t] 2^t, for values[t] in [-offset, offset], in O(N) per bit plane.

    Each u = values[t] + offset lies in [0, 2 * offset]; bit k of every u at
    once is the binary text of one plane, read MSB first (t = N - 1 leads).
    The sum is sum_k plane_k 2^k minus offset * (2^N - 1).
    """
    n = len(values)
    lifted = array("q", [v + offset for v in values])
    if sys.byteorder == "big":
        lifted.byteswap()
    raw = lifted.tobytes()[::-1]  # big-endian fields, t = N - 1 first
    size = lifted.itemsize
    total = -offset * ((1 << n) - 1)
    for k in range((2 * offset).bit_length()):
        # byte k // 8 of a little-endian field sits at size - 1 - k // 8 once reversed
        plane = raw[size - 1 - k // 8::size].translate(_BIT_TEXT[k % 8])
        total += int(plane, 2) << k
    return total


def berlekamp_massey(bits) -> int:
    """Length of the shortest LFSR over GF(2) generating the given bits.

    Connection polynomials are packed ints (bit i = coefficient of x^i); the
    discrepancy is a masked popcount parity, so each step costs O(L / 64).
    """
    c, prev = 1, 1  # current and previous connection polynomials
    lc = 0
    gap = 1  # steps since the last length change
    seen = 0  # bits processed so far, most recent at bit 0
    for n, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        d = bit ^ (((c >> 1) & seen).bit_count() & 1)
        if d == 0:
            gap += 1
        elif 2 * lc <= n:
            c, prev = c ^ (prev << gap), c
            lc = n + 1 - lc
            gap = 1
        else:
            c ^= prev << gap
            gap += 1
        seen = (seen << 1) | bit
    return lc


def linear_complexity(s: BinarySequence) -> int:
    """Linear complexity of the periodic extension, N - deg gcd(x^N + 1, S(x)).

    S(x) = sum s(i) x^i over GF(2) is the packed value itself, and the
    minimal polynomial of the sequence is (x^N + 1) / gcd(x^N + 1, S(x))
    (Ding, Xiao and Shan 1991), so one period suffices. The all-zero
    sequence leaves gcd = x^N + 1 and gets 0.
    """
    return s.period - (_gf2_gcd((1 << s.period) | 1, s.value).bit_length() - 1)


def _gf2_gcd(a: int, b: int) -> int:
    """gcd over GF(2) of packed polynomials (bit i = coefficient of x^i)."""
    while b:
        db = b.bit_length()
        while (da := a.bit_length()) >= db:
            a ^= b << (da - db)
        a, b = b, a
    return a
