"""Sequence analyses: autocorrelation spectra, 2-adic complexity, the
spectral product identity, and linear complexity.

All results are exact integers. The brute-force spectrum comes from the bits
alone through one big-number product (Kronecker substitution), so a full
spectrum costs one decimal multiplication of two kN-digit numbers, k the
digit count of the weight, rather than N rotations; libmpdec runs it as a
number-theoretic transform. The closed form is assembled from slices of one
length-p table.
Linear complexity is N - deg gcd(x^N + 1, S(x)) over GF(2) on packed ints.
With N = 2^v m, m odd, x^N + 1 = (x^m + 1)^(2^v) (Games and Chan 1983, Chen
2005): S is folded mod x^m + 1, the quadratic Euclid runs on degree m, and
the last gcd runs on degree 2^v deg gcd(x^m + 1, S). Berlekamp-Massey stays
for callers that hold a bit list rather than a periodic sequence.
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


# Maps the digit text b"0".."9" to the digit values 0..9.
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def autocorrelation(s: BinarySequence) -> AutocorrSpectrum:
    """Periodic autocorrelation AC(tau) = sum_t (-1)^(s(t) + s(t + tau)).

    With weight W and coincidence counts C(tau) = #{t : s(t) = s(t + tau) = 1},
    AC(tau) = N - 4W + 4C(tau). All C(tau) come from one product: with
    A = sum s(t) X^t and B = sum s(N-1-u) X^u, coefficient j of A * B is
    sum_t s(t) s(t + N-1-j), and folding X^N = 1 leaves C((N-1-j) mod N) as
    coefficient j. Evaluated at X = 10^k with k the number of decimal
    digits of W, each coefficient, at most W, fits its own k-digit field
    and never carries. The product is one decimal multiplication, which
    libmpdec runs as a number-theoretic transform in O(N log N); the
    folded text, read most significant field first, is C(0), C(1), ...
    """
    import decimal  # deferred: only the brute spectrum needs it

    n, weight = s.period, s.weight
    k = len(str(weight))
    sep = "0" * (k - 1)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    # The MSB-first binary text puts s(N-1) in the leading field of A, and
    # its reversal puts s(0) in the leading field of B.
    text = format(s.value, f"0{n}b")
    a = decimal.Decimal(sep.join(text))
    b = decimal.Decimal(sep.join(text[::-1]))
    text = str(ctx.multiply(a, b))
    size = n * k
    folded = ctx.add(decimal.Decimal(text[:-size] or 0), decimal.Decimal(text[-size:]))
    # Digit plane j (raw[j::k], one digit per field, tau = 0 first) is spread
    # into one field per tau; the fields accumulate the counts in binary, and
    # no partial count exceeds W, so no field carries into the next.
    raw = str(folded).zfill(size).encode().translate(_DIGIT_VALUES)
    width = 2 if weight < 1 << 16 else 4
    fields = bytearray(width * n)
    total = 0
    for j in range(k):
        fields[::width] = raw[j::k]
        total = total * 10 + int.from_bytes(fields, "little")
    counts = array(next(c for c in "HIL" if array(c).itemsize == width))
    counts.frombytes(total.to_bytes(width * n, "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    base = n - 4 * weight
    return AutocorrSpectrum(period=n, values=tuple([base + 4 * c for c in counts]))


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

    Write N = 2^v m with m odd, so x^N + 1 = (x^m + 1)^(2^v) over GF(2)
    (Games and Chan 1983; Chen 2005). With G1 = gcd(x^m + 1, S), the gcd
    equals gcd(h, S) for h = G1^(2^v), and the quadratic work runs on
    degree m:

      1. v halvings fold S mod x^m + 1, and a Euclid of degree m gives G1;
         for odd N (v = 0) that is the answer;
      2. over GF(2), h(x) = G1(x^(2^v)) (Frobenius); S decimates into
         sum_r x^r U_r(x^(2^v)) with deg U_r < m, so S mod h is
         sum_r x^r (U_r mod G1)(x^(2^v)), each U_r reduced in degree m;
      3. N - deg gcd(h, S mod h), a Euclid of degree 2^v deg G1.

    The fold, the decimation and the stretch are O(N) slices of binary
    text. Only G1 = x^m + 1 leaves the last Euclid at full degree N, after
    O(N) extra work.
    """
    n = s.period
    q = n & -n  # 2^v
    m = n // q
    folded, width = s.value, n
    while width > m:
        width >>= 1
        folded = (folded >> width) ^ (folded & ((1 << width) - 1))
    g1 = _gf2_gcd((1 << m) | 1, folded)
    if q == 1 or g1 == 1:  # g1 = 1 leaves h = 1: S is prime to x^N + 1
        return n - (g1.bit_length() - 1)
    d = g1.bit_length() - 1
    # Binary text reads MSB first: bit r + k q of S sits at index n - 1 - r - k q,
    # so text[q - 1 - r::q] is U_r, and so is rem[q - 1 - r::q] for its remainder.
    text = format(s.value, f"0{n}b")
    rem = [""] * (q * d)
    for r in range(q):
        rem[q - 1 - r::q] = format(_gf2_mod(int(text[q - 1 - r::q], 2), g1), f"0{d}b")
    h = int(("0" * (q - 1)).join(format(g1, "b")), 2)
    return n - (_gf2_gcd(h, int("".join(rem), 2)).bit_length() - 1)


def _gf2_mod(a: int, b: int) -> int:
    """a mod b over GF(2), for packed polynomials with b != 0."""
    db = b.bit_length()
    while (da := a.bit_length()) >= db:
        a ^= b << (da - db)
    return a


def _gf2_gcd(a: int, b: int) -> int:
    """gcd over GF(2) of packed polynomials (bit i = coefficient of x^i).

    The remainder loop of _gf2_mod is inlined: calling it once per round
    made a full-size Euclid up to a fifth slower.
    """
    while b:
        db = b.bit_length()
        while (da := a.bit_length()) >= db:
            a ^= b << (da - db)
        a, b = b, a
    return a
