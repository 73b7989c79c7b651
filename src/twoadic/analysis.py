"""Sequence analyses: autocorrelation spectra, 2-adic complexity, the
spectral product identity, and linear complexity.

All results are exact integers. The brute-force spectrum comes from the bits
alone, and each call reads its own sequence and keeps nothing. A sequence
fixed by x -> r x mod 4p, p a prime = 1 mod 4, which every Su sequence is,
has AC constant on the 20 orbits of r: 20 rotations give AC at one shift
per orbit, and one per-prime table of orbit codes, proved before use to
give each shift 5 (tau mod 4) + ind_g0(tau mod p) mod 4, spreads them over
the packed spectrum, AC(tau) + N in fixed-width byte fields, in O(N)
(_orbit_spectrum). Any other sequence takes one big-number product
(Kronecker substitution): one decimal multiplication of two kN-digit
numbers, which libmpdec runs as a number-theoretic transform, rather than
N rotations. The coincidence counts sit in fields of about log10(2N) / 2
digits centered on their mean, kept when the mirror C(tau) = C(N - tau)
holds and the tau = 0 field reads half a field (proof at _fold_counts),
else recomputed with fields of the digits of W. The decode reads the
folded digit text by digit planes into the packed spectrum. The closed
form is 20 values on the same orbit table, one per orbit code. The
spectrum check needs no spectrum: the same symmetry on the bits, the
proved table and the same 20 shifts prove the brute spectrum equal to the
closed form (_matches_closed_form); a spectrum is computed only for
sequences without that symmetry or with a mismatch to report.
The product identity folds its right side from the packed fields' bit planes.
As both S(2) and T(2^-1) change sign mod 2^N - 1 when the bits are
complemented, a sequence and its complement share the gcd with 2^N - 1, phi
and S(2) T(2^-1). Each is kept in a two-entry cache keyed on (N, the bits
complemented so that s(0) = 0), so the complement pairs among the four
admissible w are evaluated once each.
Linear complexity is N - deg gcd(x^N + 1, S(x)) over GF(2) on packed ints.
With N = 2^v m, m odd, x^N + 1 = (x^m + 1)^(2^v) (Games and Chan 1983, Chen
2005): S is folded mod x^m + 1, the quadratic Euclid runs on degree m, S is
reduced by halving mod G1(x^(2^v)), G1 = gcd(x^m + 1, S), and the last gcd
runs on degree 2^v deg G1. Berlekamp-Massey stays for callers that hold a
bit list rather than a periodic sequence.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import bigmod
from .bigmod import MersenneResidue, decimal_str
from .numtheory import _cyclotomy, _prime_factors, is_prime, smallest_primitive_root
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


@dataclass(frozen=True, init=False, repr=False)
class AutocorrSpectrum:
    """AC(tau) for tau = 0..N-1; AC(0) = N always.

    The only form is packed: AC(tau) + N, which lies in [0, 2N], as
    little-endian unsigned fields, tau = 0 first, of 2 bytes while 2N < 2^16
    and 4 bytes from there on. The width depends on N alone, so two spectra
    are equal exactly when their bytes are; ``==``, ``hash``, histogram(),
    out_of_phase() and hu_identity_check read the fields, and ``values``, the
    tuple of AC(tau), is built on first read. The kernels write the fields;
    the constructor packs the values it is given and refuses any outside
    [-N, N], which no autocorrelation reaches. Instances are immutable.

    Serializes via to_record() to {"period": int, "values": comma-joined
    decimal string}.
    """

    period: int
    _fields: bytes

    def __init__(self, period: int, values: tuple[int, ...]) -> None:
        if len(values) != period:
            raise ValueError("need one value per shift")
        if not all(-period <= v <= period for v in values):
            raise ValueError(f"autocorrelation values lie in [-{period}, {period}]")
        width = _field_width(period)
        self._hold(period, b"".join((v + period).to_bytes(width, "little") for v in values))

    @classmethod
    def _packed(cls, period: int, fields: bytes) -> "AutocorrSpectrum":
        spectrum = object.__new__(cls)
        spectrum._hold(period, fields)
        return spectrum

    def _hold(self, period: int, fields: bytes) -> None:
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_fields", fields)

    @cached_property
    def values(self) -> tuple[int, ...]:
        n = self.period
        return tuple([v - n for v in self._lifted()])

    def _lifted(self) -> array:
        """The packed fields, AC(tau) + N, as native ints."""
        lifted = array(_TYPECODES[len(self._fields) // self.period], self._fields)
        if sys.byteorder == "big":
            lifted.byteswap()
        return lifted

    @cached_property
    def _out_of_phase_counts(self) -> dict[int, int]:
        """Counts of the out-of-phase values (tau >= 1), in no set order.

        Packed fields whose upper bytes agree at every shift differ only in
        their low byte; each round deletes every copy of the next low byte
        left, in one bytes pass, and counts what went. At most 256 rounds,
        one per distinct value. Fields whose upper bytes differ are counted
        one by one. The counts are computed once per spectrum object; a
        spectrum spread from 20 orbit values (_packed_spectrum) comes with them.
        """
        n = self.period
        width = len(self._fields) // n
        tail = self._fields[width:]
        planes = [tail[j::width] for j in range(width)]
        if any(plane.translate(None, plane[:1]) for plane in planes[1:]):
            return Counter([v - n for v in self._lifted()[1:]])
        high = int.from_bytes(tail[1:width], "little") << 8  # upper bytes of any field
        counts = {}
        rest = planes[0]
        while rest:
            left = rest.translate(None, rest[:1])
            counts[high + rest[0] - n] = len(rest) - len(left)
            rest = left
        return counts

    def __repr__(self) -> str:
        return f"AutocorrSpectrum(period={self.period!r}, values={self.values!r})"

    def histogram(self) -> dict[int, int]:
        """Counts of the out-of-phase values (tau >= 1), keyed by value."""
        return dict(sorted(self._out_of_phase_counts.items()))

    def out_of_phase(self) -> set[int]:
        return set(self._out_of_phase_counts)

    def to_record(self) -> dict[str, object]:
        return {"period": self.period,
                "values": ",".join(str(v) for v in self.values)}


def _field_width(n: int) -> int:
    """Bytes per packed field of a period-n spectrum: AC(tau) + N is at most 2N."""
    return 2 if 2 * n < 1 << 16 else 4


# array type codes of 2- and 4-byte unsigned ints
_TYPECODES = {w: next(c for c in "HIL" if array(c).itemsize == w) for w in (2, 4)}


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
    """Periodic autocorrelation AC(tau) = sum_t (-1)^(s(t) + s(t + tau)),
    from s's own bits; nothing is kept between calls.

    A sequence of period N = 4p, p a prime = 1 mod 4, whose bits are fixed
    by t -> r t mod N (r = _orbit_multiplier(p)), which every Su sequence
    is, takes no product: its AC is constant on the 20 orbits of r and is
    read at one shift per orbit (_orbit_spectrum), in O(N). Any other
    sequence is decoded from one product, as follows.

    With weight W and coincidence counts C(tau) = #{t : s(t) = s(t + tau) = 1},
    AC(tau) = N - 4W + 4C(tau). All C(tau) come from one product: with
    A = sum s(t) X^t and B = sum s(N-1-u) X^u, coefficient j of A * B is
    sum_t s(t) s(t + N-1-j), and folding X^N = 1 adds coefficient N + j onto
    coefficient j, which leaves C((N-1-j) mod N) there. Evaluated at
    X = 10^k, the fold is the product mod 10^(Nk) - 1 and its k-digit fields
    are the counts, if none carries. The product is one decimal
    multiplication, which libmpdec runs as a number-theoretic transform in
    O(N log N), so fewer digits per field make a shorter transform.

    The counts for tau >= 1 sum to W^2 - W and lie in [0, W]; with their
    floored mean m = floor((W^2 - W) / (N - 1)), the first try (_first_try)
    centers them at the offset m - 10^k / 2, the tau = 0 field at 10^k / 2,
    for the least k with 2 floor((max(m, W - m) + 10^k / 2) / (10^k - 1))
    < 10^k, which keeps every carry below half a field. If the certificate
    of _fold_counts (the mirror and the pinned tau = 0 field) fails, the
    product is redone with the digits of W and no offset, which every count
    fits. Su sequences, whose counts sit within 1 of m, always pass: 2
    digits in place of 4 for 1093 <= p <= 4493, 3 in place of 5 near
    p = 10^5.
    """
    orbit = _orbit_spectrum(s)
    if orbit is not None:
        return orbit
    n, value = s.period, s.value
    weight = value.bit_count()
    for k, offset in dict.fromkeys((_first_try(n, weight), (len(str(weight)), 0))):
        decoded = _fold_counts(n, value, k, offset)
        if decoded is not None:
            break
    width = _field_width(n)
    ones = int.from_bytes(b"\x01".ljust(width, b"\x00") * n, "little")  # 1 in every field
    # decoded holds C(tau) - offset for tau >= 1, where AC + N = 2N - 4W + 4C,
    # and 10^k / 2 at tau = 0, where AC + N = 2N
    packed = (4 * (decoded + weight - offset - 10 ** k // 2)
              + (2 * n - 4 * weight + 4 * offset) * ones)
    return AutocorrSpectrum._packed(n, packed.to_bytes(width * n, "little"))


def _orbit_spectrum(s: BinarySequence) -> AutocorrSpectrum | None:
    """s's spectrum with no product, or None unless N = 4p, p a prime = 1
    mod 4, s is fixed by r (_orbit_values) and the orbit table of p is
    proved (_orbit_table); refused cheapest first, the bits before the table.

    AC is constant on each orbit of r, and the table gives every shift the
    code of its orbit, which is also the index of its value among the 20
    _orbit_values: one translation per byte plane spreads them.
    """
    n = s.period
    p = n // 4
    if n % 4 or p % 4 != 1 or not is_prime(p):
        return None
    values = _orbit_values(s, p)
    if values is None or (codes := _orbit_table(p)) is None:
        return None
    return _packed_spectrum(n, codes, values)


# _ORBIT_CODE[j] maps a code of numtheory._cyclotomy, ind_g0(x) mod 4 plus a
# primitive-root bit, or 4 for x = 0, to the orbit code 5 j + ind_g0(x) mod 4
# (5 j + 4 for x = 0) of the shifts tau = j mod 4 with tau = x mod p.
_ORBIT_CODE = tuple(bytes(5 * j + (v & 7) for v in range(256)) for j in range(4))


@functools.lru_cache(maxsize=1)
def _orbit_table(p: int) -> bytes | None:
    """Byte tau < 4p is the orbit code 5 (tau mod 4) + ind_g0(tau mod p)
    mod 4, or 5 (tau mod 4) + 4 where p divides tau, read from
    numtheory._cyclotomy(p); None unless that is proved, once per prime.

    The table is not trusted: it must equal itself permuted by r, so it is
    constant on every orbit of r, and carry code c at _orbit_shifts(p)[c]
    for each c < 20. The shift of code 5 j + i is the tau = j mod 4 with
    tau = g0^i mod p (i < 4) or p | tau (i = 4), and its orbit holds every
    tau = j mod 4 with tau mod p in g0^i D_0 (or p | tau) (_orbit_values
    (b)), so every byte is the code above: i is even exactly on the squares.
    """
    residues = _cyclotomy(p).codes * 4  # byte tau is the code of tau mod p
    codes = bytearray(4 * p)
    for j in range(4):
        codes[j::4] = residues[j::4].translate(_ORBIT_CODE[j])
    codes = bytes(codes)
    proved = (_permuted(codes, _orbit_multiplier(p)) == codes
              and bytes(codes[tau] for tau in _orbit_shifts(p)) == bytes(range(20)))
    return codes if proved else None


def _packed_spectrum(n: int, codes: bytes, values: tuple[int, ...]) -> AutocorrSpectrum:
    """The spectrum with AC(tau) = values[codes[tau]], one translation per
    byte, for the proved _orbit_table(n / 4) and its 20 orbit values.

    Its histogram comes with it, from the orbit sizes: 1 where p | tau (code
    5 j + 4), (p - 1)/4 elsewhere, with code 4, tau = 0, left out.
    """
    width = _field_width(n)
    fields = bytearray(width * n)
    for j in range(width):
        byte_j = bytes((v + n) >> (8 * j) & 0xFF for v in values)
        fields[j::width] = codes.translate(byte_j.ljust(256, b"\x00"))
    spectrum = AutocorrSpectrum._packed(n, bytes(fields))
    counts = Counter()
    for code, value in enumerate(values):
        if code != 4:
            counts[value] += 1 if code % 5 == 4 else (n - 4) // 16
    spectrum.__dict__["_out_of_phase_counts"] = counts
    return spectrum


def _complement_key(s: BinarySequence) -> tuple[int, int]:
    """(N, the bits of s, complemented if s(0) = 1): one key per complement pair."""
    n, value = s.period, s.value
    return (n, value ^ ((1 << n) - 1)) if value & 1 else (n, value)


def _first_try(n: int, weight: int) -> tuple[int, int]:
    """(digits per field, offset) of the first product autocorrelation tries:
    fields centered on the mean count where that is narrower than W, else
    the digits of W and no offset."""
    full = len(str(weight))
    if n == 1:
        return full, 0
    mean = (weight * weight - weight) // (n - 1)
    spread, k = max(mean, weight - mean), 1
    while 2 * ((spread + 10 ** k // 2) // (10 ** k - 1)) >= 10 ** k:
        k += 1
    return (k, mean - 10 ** k // 2) if k < full else (full, 0)


def _folded_digits(n: int, value: int, k: int, offset: int) -> bytes:
    """The ASCII digit text, N k digits, of the folded product that
    _fold_counts decodes: its k-digit field i holds C(i) - offset for
    i >= 1 and 10^k / 2 at i = 0 when nothing carries.

    With B = 10^k, M = B^N - 1 and ones = M / (B - 1): the product, less
    (W - B/2 - offset) B^(N-1) and plus ((-offset) mod (B - 1)) ones, lies
    in [0, B^(2N-1)); libmpdec folds it at B^N by exponent shifts, hi + lo,
    and once more if a leading 1 is left (B^N = 1 mod M), into [0, M]. Its
    plain digits (the exponent stays 0) hold the field of tau = i at field
    i, most significant first. The lift term is built by libmpdec too, as
    lift M / (B - 1), an exact division by one word, not parsed from text.
    """
    import decimal  # deferred: only the brute spectrum needs it

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    base, shift = 10 ** k, n * k
    # The MSB-first binary text puts s(N-1) in the leading field of A, and
    # its reversal puts s(0) in the leading field of B.
    text = format(value, f"0{n}b").encode()
    digits = bytearray(b"0") * shift
    digits[k - 1::k] = text
    a = decimal.Decimal(digits.decode())
    digits[k - 1::k] = text[::-1]
    b = decimal.Decimal(digits.decode())
    prod = ctx.subtract(ctx.multiply(a, b),
                        decimal.Decimal(value.bit_count() - base // 2 - offset)
                        .scaleb((n - 1) * k, ctx))
    if lift := -offset % (base - 1):
        lifted = ctx.subtract(decimal.Decimal(lift).scaleb(shift, ctx), lift)  # lift M
        prod = ctx.add(prod, ctx.divide_int(lifted, base - 1))
    hi = prod.scaleb(-shift, ctx).to_integral_value(decimal.ROUND_FLOOR, ctx)
    folded = ctx.add(hi, ctx.subtract(prod, ctx.scaleb(hi, shift)))
    if folded.adjusted() >= shift:
        folded = ctx.add(ctx.subtract(folded, decimal.Decimal(1).scaleb(shift, ctx)), 1)
    return str(folded).zfill(shift).encode()


def _fold_counts(n: int, value: int, k: int, offset: int) -> int | None:
    """The decoded k-digit fields of _folded_digits(n, value, k, offset) as
    little-endian fields of _field_width(n), tau = 0 first, if the
    certificate proves them to be C(tau) - offset for tau >= 1 and B/2 at
    tau = 0, B = 10^k; else None.

    Digit plane j, digit j of every field, is spread into N binary fields,
    and total = 10 total + plane; each partial value is a prefix of a field,
    below B <= W when centered (fewer digits than W) and at most
    max(W, B/2) < 2^16 at full width while 2N < 2^16, so no binary field
    carries and no int is made per shift.

    Certificate. Let v be the true fields and u the decoded ones, in
    [0, B - 1]; with j = N - 1 - tau the power of B, x = v - u has
    x_j = B c_j - c_(j-1) (indices mod N) for unique cyclic carries c, as
    both are one number mod M. (1) For the offset m - B/2, m the mean count,
    |x| <= max(m, W - m) + B/2, so |c| <= max|x| / (B - 1) and 2|c| < B by
    the choice of k; at full width every v is below B and nothing carries.
    (2) The mirror C(tau) = C(N - tau), one digit plane at a time, gives
    x_j = x_(r-j), r = N - 2, so B (c_j - c_(r-j)) = c_(j-1) - c_(r-j-1),
    whose right side is below B in size: both sides are 0, and
    c_(j+1) = c_(r-j-1) = c_(j-1), c has period 2 (and is constant for odd
    N). (3) The tau = 0 field, j = N - 1, is B/2 in truth; pinned at B/2
    once decoded too, it gives 0 = x_(N-1) = B c_(N-1) - c_(N-2), so B
    divides c_(N-2), which |c_(N-2)| < B/2 makes 0, and then c_(N-1) = 0:
    both parities vanish. So when the mirror holds and the tau = 0 field
    reads B/2, u = v; no field sum is needed. (On true counts the pin never
    fails alone: their sum and alternating sum already rule out a carry on
    one parity only. Checking k digits keeps the proof to these steps.)
    """
    digits = _folded_digits(n, value, k, offset)
    if digits[:k] != b"5".ljust(k, b"0"):  # the tau = 0 field, pinned at B/2
        return None
    raw = digits.translate(_DIGIT_VALUES)
    width = _field_width(n)
    fields = bytearray(width * n)
    total = 0
    for j in range(k):
        plane = raw[j::k]
        if plane[1:] != plane[:0:-1]:
            return None
        fields[::width] = plane
        total = total * 10 + int.from_bytes(fields, "little")
    return total


def _eps(w: tuple[int, int, int, int]) -> int:
    """+1 when w(0) != w(1), -1 otherwise: w enters the closed forms only here."""
    return 1 if w[0] != w[1] else -1


def closed_form_spectrum(params: ConstructionParams) -> AutocorrSpectrum:
    """Autocorrelation of the interleaved construction without touching bits.

    Writing tau = tau1 + 4*tau2, the spectrum is:

      tau = 0:               4p
      tau1 = 0, tau2 != 0:   -4
      tau1 = 2:              +4 once (tau2 + 2d = 0 mod p), else 0
      tau1 in {1, 3}, with r = (tau2 + tau1*d) mod p:
                             -4eps      if r = 0
                             -4eps b    if r is a quadratic residue (D0 u D2)
                             +4eps b    if r is a non-residue (D1 u D3)

    where eps = +1 when w(0) != w(1) and eps = -1 when w(0) = w(1):
    complementing adjacent columns flips every cross-column correlation,
    which is exactly the tau1-odd block. Out-of-phase values always lie in
    {0, 4, -4}.

    As 4d = 1 mod p, tau2 + tau1 d = d tau mod p, and d = (2^-1)^2 is a
    square, so r is 0, a residue or a non-residue exactly as tau mod p is:
    the value depends on tau mod 4 and the class of tau mod p alone, and
    is one of the 20 _closed_form_values, spread by the proved orbit table
    (_orbit_table). ValueError if the table is not proved.
    """
    p, n = params.p, 4 * params.p
    codes = _orbit_table(p)
    if codes is None:
        raise ValueError(f"the orbit table of p={p} is not proved")
    return _packed_spectrum(n, codes, _closed_form_values(n, params.b, _eps(params.w)))


def _closed_form_values(n: int, b: int, eps: int) -> tuple[int, ...]:
    """The closed form on the orbit of each code 5 j + i of _orbit_table:
    N (tau = 0) or -4 for j = 0, 4 (p | tau) or 0 for j = 2, and for odd j
    -4eps where p | tau, -4eps b for even i (a square) and +4eps b for odd i."""
    odd = (-4 * eps * b, 4 * eps * b) * 2 + (-4 * eps,)
    return (-4,) * 4 + (n,) + odd + (0,) * 4 + (4,) + odd


def _matches_closed_form(s: BinarySequence, params: ConstructionParams) -> bool:
    """True when s's spectrum is the closed form of params at every shift,
    proved at 20 shifts by a symmetry read from the bits; False if it is not
    or the symmetry does not show it, so the caller computes the spectrum.

    The checks, any failure giving False: s is fixed by r, so AC is
    constant on every orbit of r, and the 20 _orbit_shifts(p) meet each
    orbit once (_orbit_values); the orbit table is proved (_orbit_table,
    once per prime), so closed_form_spectrum gives every shift the value of
    its orbit's code; and the 20 orbit values equal the 20
    _closed_form_values. Su sequences pass for every g and w: each column
    is a union of cyclotomic classes read at d tau mod p (4d = 1), which r
    maps onto itself. O(N), no product.
    """
    p = params.p
    values = _orbit_values(s, p)
    return (values is not None and _orbit_table(p) is not None
            and values == _closed_form_values(s.period, params.b, _eps(params.w)))


def _orbit_values(s: BinarySequence, p: int) -> tuple[int, ...] | None:
    """AC at each of the 20 _orbit_shifts(p), in code order, when s has
    period N = 4p and s(r t) = s(t) for all t, r = _orbit_multiplier(p);
    else None. p is a prime = 1 mod 4.

    (a) r is prime to 4p, so x -> r x permutes Z_N; if s(r t) = s(t) for all
    t, then with t = r t', AC(tau) = sum_t' (-1)^(s(r t') + s(r (t' + tau)))
    = AC(r tau): AC is constant on the orbits of r. (b) By CRT, as r = 1
    mod 4, r fixes tau mod 4 and multiplies tau mod p by r, whose powers
    form D_0, the index-4 subgroup of Z_p*, as r has order (p - 1)/4. The
    orbits are {j} x {0} and {j} x g0^i D_0, j, i = 0..3: 20 in all, and
    the shift of code 5 j + i lies in the last, that of 5 j + 4 in the
    first, so _orbit_shifts meets each orbit once. The symmetry is checked
    on the LSB-first bit text (_permuted), and AC(tau) = N - 2 popcount(s
    XOR s rotated by tau): O(N), no product.
    """
    n, value = s.period, s.value
    if n != 4 * p:
        return None
    text = format(value, f"0{n}b").encode()[::-1]  # text[t] = s(t)
    if _permuted(text, _orbit_multiplier(p)) != text:
        return None
    mask = (1 << n) - 1
    return tuple(n - 2 * (value ^ ((value >> tau | value << (n - tau)) & mask)).bit_count()
                 for tau in _orbit_shifts(p))


@functools.lru_cache(maxsize=1)
def _orbit_multiplier(p: int) -> int:
    """The least r > 1 with r = 1 mod 4 and order (p - 1)/4 mod the prime
    p = 1 mod 4 (so p does not divide r), by pow over the prime factors of
    (p - 1)/4, never from the cyclotomy; kept per prime, at most 81 below 10^6."""
    order = (p - 1) // 4
    factors = [q for q in _prime_factors(p - 1) if order % q == 0]
    r = 5
    while pow(r, order, p) != 1 or any(pow(r, order // q, p) == 1 for q in factors):
        r += 4
    return r


@functools.lru_cache(maxsize=1)
def _orbit_shifts(p: int) -> tuple[int, ...]:
    """The 20 tau < 4p in code order: shift 5 j + i has tau = j mod 4 and
    tau = g0^i mod p (i < 4) or 0 (i = 4), g0 the smallest primitive root,
    by CRT: tau = x + p ((j - x) p mod 4), as p p = 1 mod 4; kept per prime."""
    g0 = smallest_primitive_root(p)
    residues = (1, g0, g0 * g0 % p, pow(g0, 3, p), 0)
    return tuple(x + p * ((j - x) * p % 4) for j in range(4) for x in residues)


def _permuted(text: bytes, r: int) -> bytes:
    """text[r i mod N] for i < N = len(text), r prime to N: chunk q, where
    r i lies in [q N, (q + 1) N), is the stride-r slice from -q N mod r."""
    n = len(text)
    return b"".join([text[-q * n % r::r] for q in range(r)])


def _closed_form_out_of_phase(params: ConstructionParams) -> set[int]:
    """The closed form's out-of-phase values: every orbit's but code 4's, tau = 0."""
    values = _closed_form_values(4 * params.p, params.b, _eps(params.w))
    return set(values[:4] + values[5:])


def two_adic_complexity(s: BinarySequence) -> TwoAdicReport:
    """2-adic complexity phi = floor(log2((2^N - 1) / gcd(2^N - 1, S(2)) + 1)).

    Exact integer arithmetic throughout: floor(log2(m)) is bit_length(m) - 1.
    The all-zero and all-one sequences get the degenerate gcd = 2^N - 1 and
    phi = 1. Complementing s turns S(2) into -S(2) mod 2^N - 1, which has
    the same gcd, so gcd, f and phi are kept per complement pair.
    """
    gcd, f, phi = _two_adic(_complement_key(s))
    return TwoAdicReport(period=s.period, s2=bigmod.eval_S(s).value, gcd=gcd, f=f, phi=phi)


@functools.lru_cache(maxsize=2)
def _two_adic(key: tuple[int, int]) -> tuple[int, int, int]:
    """(gcd, f, phi) of the complement pair with this key, whose bits are S(2)."""
    n, value = key
    gcd = bigmod.gcd_with_modulus(MersenneResidue(n, value))
    f = bigmod.modulus(n) // gcd
    return gcd, f, (f + 1).bit_length() - 1


@functools.lru_cache(maxsize=2)
def _st_product(key: tuple[int, int]) -> MersenneResidue:
    """S(2) T(2^-1) of the complement pair with this key: both factors change sign."""
    s = BinarySequence(*key)
    return bigmod.mul(bigmod.eval_S(s), bigmod.eval_T_inv(s))


def hu_identity_check(s: BinarySequence) -> IdentityCheck:
    """Check -2 S(2) T(2^-1) = N + sum_tau AC(tau) 2^tau mod 2^N - 1.

    This holds for every periodic binary sequence; the remaining term of the
    underlying polynomial identity carries a factor sum_i 2^i = 2^N - 1 and
    vanishes here. Returns both sides for diagnostics.

    The right side is folded from the packed spectrum, whose tau = 0 field
    AC(0) = N is already the constant term N. Each field holds
    u = AC(tau) + N in [0, 2N]; bit k of every field at once is the binary
    text of one plane, read MSB first (tau = N - 1 leads), so the sum is
    sum_k plane_k 2^k minus N (2^N - 1), in O(N) per plane.
    """
    n = s.period
    if n < 2:
        raise ValueError("identity needs period >= 2")
    st = _st_product(_complement_key(s))
    lhs = bigmod.add_signed(bigmod.reduce(0, n), -2 * st.value)
    fields = autocorrelation(s)._fields
    width = len(fields) // n
    raw = fields[::-1]  # big-endian fields, tau = N - 1 first
    total = -n * ((1 << n) - 1)
    for k in range((2 * n).bit_length()):
        # byte k // 8 of a little-endian field sits at width - 1 - k // 8 once reversed
        plane = raw[width - 1 - k // 8::width].translate(_BIT_TEXT[k % 8])
        total += int(plane, 2) << k
    rhs = bigmod.add_signed(bigmod.reduce(0, n), total)
    return IdentityCheck(holds=lhs == rhs, lhs=lhs, rhs=rhs)


# _BIT_TEXT[k] maps a byte to b"1" if its bit k is set, else b"0".
_BIT_TEXT = tuple(bytes(0x31 if v >> k & 1 else 0x30 for v in range(256)) for k in range(8))


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
    equals gcd(h, S) for h = G1^(2^v) = G1(x^(2^v)) (Frobenius), and the
    quadratic work runs on degree m:

      1. v halvings fold S mod x^m + 1, and a Euclid of degree m gives G1;
         for odd N (v = 0) that is the answer;
      2. S is reduced mod h by halving (_gf2_mod_halving). For
         H = 2^v a + b, b < 2^v, x^H mod h = x^b (x^a mod G1)(x^(2^v)) has
         at most deg G1 terms, so a round costs O(N deg G1);
      3. N - deg gcd(h, S mod h), a Euclid of degree 2^v deg G1.

    Only G1 = x^m + 1 leaves the last Euclid at full degree N, after O(N)
    extra work.
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
    h = int(("0" * (q - 1)).join(format(g1, "b")), 2)
    rem = _gf2_mod_halving(s.value, h, _gf2_halvings(h, n))
    return n - (_gf2_gcd(h, rem).bit_length() - 1)


def _gf2_mod(a: int, b: int) -> int:
    """a mod b over GF(2), for packed polynomials with b != 0."""
    db = b.bit_length()
    while (da := a.bit_length()) >= db:
        a ^= b << (da - db)
    return a


def _gf2_halvings(g: int, size: int) -> list[tuple[int, int]]:
    """The rounds (h, x^h mod g) that take a polynomial of `size` bits mod g
    down to at most 4 deg g bits; none if size is that small already.

    A round writes U = hi x^h + lo with h = size // 2, and
    U = hi (x^h mod g) + lo mod g has at most size - h + deg g - 1 bits.
    """
    d = g.bit_length() - 1
    rounds = []
    while size > 4 * d:
        h = size // 2
        rounds.append((h, _gf2_xpow_mod(h, g)))
        size = max(h, size - h + d - 1)
    return rounds


def _gf2_mod_halving(u: int, g: int, rounds: list[tuple[int, int]]) -> int:
    """u mod g over GF(2) through the rounds of _gf2_halvings(g, len u).

    Each round multiplies the high half by x^h mod g, one shift per term,
    so a reduction costs O(len u terms) where _gf2_mod costs O(len u^2); for
    g = x + 1, where x^h mod g = 1, the rounds fold u to its parity.
    """
    for h, xh in rounds:
        hi, lo = u >> h, u & ((1 << h) - 1)
        while xh:
            low = xh & -xh
            lo ^= hi << (low.bit_length() - 1)
            xh ^= low
        u = lo
    return _gf2_mod(u, g)


def _gf2_xpow_mod(h: int, g: int) -> int:
    """x^h mod g over GF(2), by squaring: a square spreads the bits apart."""
    r = 1
    for bit in format(h, "b"):
        r = _gf2_mod(int("0".join(format(r, "b")), 2), g)
        if bit == "1":
            r = _gf2_mod(r << 1, g)
    return r


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
