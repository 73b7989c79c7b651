"""Differential tests: each near-linear kernel against the kernel it replaced.

The reference functions below are the earlier per-bit and per-shift
implementations, kept verbatim in spirit: an XOR/popcount scan over every
rotation, a per-bit T(2^-1) sum, the Legendre-symbol character sum, the
per-tau closed-form spectrum, bit loops for interleaving and the text
conversions, the per-shift accumulation of the product identity, and the
per-root discrete-log and bucket loops behind the cyclotomic classes, the
quartic decomposition and the DHL columns. The brute spectrum, a decimal
Kronecker product on libmpdec, is also checked against the 16-bit int
Kronecker product it replaced, and both spectrum kernels' packed fields
against those references packed one field at a time; every member of an
orbit under the complement and alternating masks, which keep |AC| fixed, is
checked the same way, each decoded from one product of its own bits at
the digits of W, and so are the inputs that once made narrower fields carry:
a count equal to W, periodic blocks, weights at the old width thresholds,
the field-width switch, biased small periods and random sequences; the
folded product, split and summed by libmpdec, against the same fold in
plain ints. The orbit route, which reads a period-4p sequence
fixed by t -> r t from 20 rotations and a proved table of orbit codes,
is checked byte for byte against the decode, forced by refusing the route,
on the ladder, at p = 5, on class functions at every prime p = 1 mod 4 up
to 113, on single-bit flips and with corrupted tables. The linear
complexity, which folds S mod x^m + 1 for N = 2^v m, is checked against
the one GF(2) Euclid over the whole period and the public Berlekamp-Massey
over two periods, and its reduction of U_r mod G1 by halving against the
remainder loop _gf2_mod.
The grids, which build one record per construction (p, e, w), are checked
against the per-row and per-point loops that built one per (p, g, w), and
what a w shares with its complement through the caches against a cold
evaluation of the complement.
Every comparison is exact equality.
"""

import copy
import dataclasses
import math
import pickle
import random
import sys
from array import array
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoadic import analysis, bigmod, cli, numtheory, sequences, verify
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
    quartic_decomposition,
    residue_codes,
    smallest_primitive_root,
)
from twoadic.sequences import (
    ADMISSIBLE_W,
    BinarySequence,
    add_constant,
    construction_params,
    deinterleave,
    dhl_sequence,
    generalized_interleaved,
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


def ref_kronecker_autocorrelation(s):
    """The int Kronecker kernel: one product of two 16N-bit ints (32N from N = 2^16)."""
    n = s.period
    width = 2 if n < 1 << 16 else 4
    bits = bytes(s.bits())

    def spread(b):
        fields = bytearray(width * len(b))
        fields[::width] = b
        return int.from_bytes(fields, "little")

    product = spread(bits) * spread(bits[::-1])
    shift = 8 * width * n
    folded = (product >> shift) + (product & ((1 << shift) - 1))
    counts = array(next(c for c in "HIL" if array(c).itemsize == width))
    counts.frombytes(folded.to_bytes(width * n, "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    base = n - 4 * s.weight
    # counts[N-1-tau] = C(tau), so tau = 0, 1, ... reads the fields backwards
    return tuple(base + 4 * c for c in reversed(counts))


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
    params = QuarticParams(p=p, b=im // 2, g=g)
    assert params.a == re  # the Jacobi-sum a checks the one QuarticParams reads from p
    return params


DHL_SUPPORTS = {1: (0, 1), 2: (0, 3), 3: (1, 2), 4: (2, 3)}


def ref_dhl_support(classes, kind):
    return frozenset().union(*(classes.classes[j] for j in DHL_SUPPORTS[kind]))


def ref_dhl_sequence(p, g, kind):
    if kind not in DHL_SUPPORTS:
        raise ValueError(f"kind must be 1..4, got {kind}")
    return BinarySequence.from_support(p, ref_dhl_support(ref_cyclotomic_classes(p, g), kind))


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


def ref_orbit_fixed(s):
    """True when N = 4p, p a prime = 1 mod 4, and s(x t) = s(t) for every
    x = 1 mod 4 that is a fourth power mod p: the group r generates, so s is
    fixed by r, whichever r of that group the kernel takes."""
    n = s.period
    p = n // 4
    if n % 4 or p % 4 != 1 or not is_prime(p):
        return False
    bits = s.bits()
    fourth = {pow(y, 4, p) for y in range(1, p)}
    return all(bits[x * t % n] == bits[t]
               for x in range(1, n, 4) if x % p in fourth for t in range(n))


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


def negate_b(params):
    return dataclasses.replace(
        params, quartic=dataclasses.replace(params.quartic, b=-params.quartic.b))


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
    assert analysis.autocorrelation(s).values == ref_kronecker_autocorrelation(s)
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


@pytest.mark.parametrize("n", (9, 10, 99, 100, 999, 1000, 9999, 10000))
def test_autocorrelation_decimal_field_edges(n):
    # All ones makes W = C(tau) = N: at N = 10^j - 1 the count fills its
    # j-digit field with nines, and at N = 10^j the field widens by a digit.
    ones = BinarySequence(n, (1 << n) - 1)
    assert analysis.autocorrelation(ones).values == (n,) * n
    rng = random.Random(n)
    s = BinarySequence(n, rng.getrandbits(n))
    assert analysis.autocorrelation(s).values == ref_kronecker_autocorrelation(s)


def test_autocorrelation_field_width_edges():
    # The counts are read back through 16-bit array fields while W < 2^16,
    # 32-bit from W = 2^16 on. All ones makes C(tau) = W = N, so period
    # 2^16 - 1 fills a 16-bit field and period 2^16 must take the 32-bit one.
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


@pytest.mark.parametrize("weight", ((1 << 16) - 1, 1 << 16))
def test_autocorrelation_array_width_edges_by_weight(weight):
    # The array width follows W, not N: a longer period whose weight sits at
    # the 16-bit boundary, with counts other than W away from tau = 0.
    n = (1 << 16) + 37
    rng = random.Random(weight)
    zeros = set(rng.sample(range(n), n - weight))
    s = BinarySequence.from_bits([0 if t in zeros else 1 for t in range(n)])
    assert s.weight == weight
    assert analysis.autocorrelation(s).values == ref_kronecker_autocorrelation(s)


# ------------------------------------------------------- packed spectra
#
# Every spectrum, kernel-made or built from values, is packed as AC(tau) + N
# in little-endian fields of 2 bytes while 2N < 2^16, else 4. ref_packed packs
# the reference values the same way, one field at a time.

def ref_packed(values):
    n = len(values)
    width = 2 if 2 * n < 1 << 16 else 4
    return b"".join((v + n).to_bytes(width, "little") for v in values)


def check_packed(spectrum, want):
    """A kernel-made spectrum against reference values, read every way."""
    made = analysis.AutocorrSpectrum(period=len(want), values=want)
    assert spectrum._fields == made._fields == ref_packed(want)
    assert spectrum == made
    assert spectrum.histogram() == dict(sorted(Counter(want[1:]).items()))
    assert spectrum.out_of_phase() == set(want[1:])
    assert spectrum.values == want


def check_packed_brute(s):
    want = ref_autocorrelation(s)
    assert want == ref_kronecker_autocorrelation(s)
    check_packed(analysis.autocorrelation(s), want)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_packed_brute_every_tiny_sequence(n):
    for s in every_sequence(n):
        check_packed_brute(s)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 64, 255, 1000))
def test_packed_brute_constant_sequences(n):
    for s in constant_sequences(n):
        check_packed_brute(s)


@settings(max_examples=100, deadline=None)
@given(sequences_up_to_300)
def test_packed_brute_random_sequences(s):
    check_packed_brute(s)


@pytest.mark.parametrize("params", LADDER[::5],
                         ids=[f"p{q.p}-g{q.g}-w{''.join(map(str, q.w))}" for q in LADDER[::5]])
def test_packed_kernels_on_the_ladder(params):
    s = su_sequence(params)
    brute = analysis.autocorrelation(s)
    check_packed(brute, ref_autocorrelation(s))
    flipped = negate_b(params)
    for q in (params, flipped):
        check_packed(analysis.closed_form_spectrum(q), ref_closed_form_spectrum(q))
    # the construction's b matches, the flipped one does not
    assert brute == analysis.closed_form_spectrum(params)
    assert brute != analysis.closed_form_spectrum(flipped)


@pytest.mark.parametrize("n", ((1 << 15) - 1, 1 << 15))
def test_packed_field_width_switch(n):
    # all ones makes AC + N = 2N at every shift: 2^16 - 2 fills a 2-byte
    # field at N = 2^15 - 1, and N = 2^15 needs 4-byte fields
    ones = BinarySequence(n, (1 << n) - 1)
    spectrum = analysis.autocorrelation(ones)
    assert len(spectrum._fields) == n * (2 if n < 1 << 15 else 4)
    check_packed(spectrum, (n,) * n)
    s = BinarySequence(n, random.Random(n).getrandbits(n))
    check_packed(analysis.autocorrelation(s), ref_kronecker_autocorrelation(s))
    # the identity folds its bit planes from fields of either width
    for seq in (ones, s):
        assert analysis.hu_identity_check(seq) == ref_hu_identity_check(seq)


# ------------------------------------------------------------ orbit spectra
#
# The orbit of s under XOR with the masks that keep |AC(tau)| fixed: the
# complement, and for even N the two alternating sequences, which negate AC
# at odd tau. Every member of an orbit is checked against both references,
# and each is decoded from products of its own bits, none shared.

def orbit_masks(n):
    full = (1 << n) - 1
    if n % 2:
        return (0, full)
    odd = int("10" * (n // 2), 2)
    return (0, full, odd, full ^ odd)


def spectrum_products(s, orbit=True):
    """autocorrelation(s) and the (N, bits, k) of each product it ran, with
    the orbit route as it is or, with orbit=False, refused."""
    products, real = [], analysis._folded_digits
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_folded_digits",
                      lambda *args: products.append(args) or real(*args))
        if not orbit:
            patch.setattr(analysis, "_orbit_spectrum", lambda s: None)
        return analysis.autocorrelation(s), products


def one_product(s):
    """The products of s's decode: one, of its own bits, at the digits of W."""
    return [(s.period, s.value, len(str(s.weight)))]


def check_orbit(s):
    """Each member against both references; its decode, forced by refusing
    the orbit route, multiplies its own bits once, and the route, where it
    applies, multiplies nothing."""
    for m in orbit_masks(s.period):
        member = BinarySequence(s.period, s.value ^ m)
        want = ref_autocorrelation(member)
        assert want == ref_kronecker_autocorrelation(member)
        spectrum, products = spectrum_products(member, orbit=False)
        check_packed(spectrum, want)
        assert products == one_product(member)
        spectrum, routed = spectrum_products(member)
        check_packed(spectrum, want)
        assert routed == ([] if ref_orbit_fixed(member) else products)


@pytest.mark.parametrize("n", range(1, 11))
def test_orbit_every_small_sequence(n):
    # the members with s(0) = 0, and s(1) = 0 for even N, meet every orbit
    # once; the orbit of 0 holds the all-zero and all-one sequences
    step = 4 if n % 2 == 0 else 2
    for value in range(0, 1 << n, step):
        check_orbit(BinarySequence(n, value))


@settings(max_examples=100, deadline=None)
@given(sequences_up_to_300)
def test_orbit_random_sequences(s):
    check_orbit(s)


@pytest.mark.parametrize("n", ((1 << 15) - 1, 1 << 15))
def test_orbit_field_width_switch(n):
    # every member, s(1) = 1 or 0, decoded into 2-byte fields below
    # N = 2^15 and 4-byte ones from it
    value = random.Random(n).getrandbits(n) & ~1 | 2
    for m in orbit_masks(n):
        member = BinarySequence(n, value ^ m)
        spectrum = analysis.autocorrelation(member)
        assert len(spectrum._fields) == n * (2 if n < 1 << 15 else 4)
        check_packed(spectrum, ref_kronecker_autocorrelation(member))


# -------------------------------------------------------- full-width fields
#
# A sequence the orbit route refuses is decoded from one product with fields
# of k = the digits of W, which every coincidence count fits. The inputs
# below once made fields narrower than W carry: a count equal to W, periodic
# blocks, weights at the old width thresholds, the field-width switch and
# biased small periods. Each spectrum, forced past the route, is checked
# against both references and must come from exactly one product.

def check_full_width(s):
    """s's spectrum, forced past the orbit route, against both references,
    from one product of its own bits at the digits of W."""
    want = ref_autocorrelation(s)
    assert want == ref_kronecker_autocorrelation(s)
    spectrum, products = spectrum_products(s, orbit=False)
    check_packed(spectrum, want)
    assert products == one_product(s)
    return spectrum


def test_full_width_fields_hold_a_count_equal_to_the_weight():
    # 001 repeated: W = 11 over N = 33, and C(3) = W, far above the mean
    # count 3, fills the two digits of W
    s = BinarySequence.from_bits([0, 0, 1] * 11)
    assert ref_autocorrelation(s)[3] == 33  # AC = N - 4W + 4C(3) with C(3) = W
    check_full_width(s)
    assert one_product(s) == [(33, s.value, 2)]


def test_su_sequences_take_one_product_or_the_orbit_route():
    # each sequence of the ladder, forced past the orbit route, takes one
    # product at the digits of W; through the route it takes none
    for params in LADDER:
        s = su_sequence(params)
        spectrum, products = spectrum_products(s, orbit=False)
        assert spectrum == analysis.closed_form_spectrum(params)
        assert products == one_product(s)
        assert spectrum_products(s) == (spectrum, [])


def sequence_of_weight(n, weight, seed):
    """A random period-n sequence of the given weight with s(0) = s(1) = 0."""
    ones = random.Random(seed).sample(range(2, n), weight)
    return BinarySequence(n, sum(1 << t for t in ones))


@pytest.mark.parametrize("n,weight", ((155, 78), (157, 80), (19595, 9798), (19599, 9800)))
def test_full_width_fields_at_the_old_centered_thresholds(n, weight):
    # the weights at which fields centered on the mean count took 1, 2, 2
    # and 3 digits; the product takes the 2 or 4 digits of W
    for seed in range(2 if n < 1000 else 1):
        check_full_width(sequence_of_weight(n, weight, seed))


@pytest.mark.parametrize("block", ("0011", "000111", "011", "0111", "01101", "0101101"))
def test_full_width_fields_on_periodic_blocks(block):
    # a periodic block puts the count at its period's multiples at W, far
    # above the mean
    n = 12 * len(block) * 11  # a multiple of every block's length, W >= 10
    s = BinarySequence.from_bits([int(c) for c in block] * (n // len(block)))
    assert check_full_width(s).values[len(block)] == n


@pytest.mark.parametrize("n", ((1 << 15) - 1, 1 << 15, (1 << 15) + 1))
def test_full_width_fields_at_the_field_width_switch(n):
    # random sequences here take one product of the five digits of W, read
    # into 2-byte fields below N = 2^15 and 4-byte ones from it
    s = BinarySequence(n, random.Random(n).getrandbits(n) & ~3)
    assert len(str(s.weight)) == 5
    assert len(check_full_width(s)._fields) == n * (2 if n < 1 << 15 else 4)


@settings(max_examples=150, deadline=None)
@given(sequences_up_to_300)
def test_full_width_fields_random_sequences(s):
    check_full_width(s)


def test_full_width_fields_small_random_periods():
    # below N = 160 a biased draw puts some counts far from the mean, near 0
    # or W
    rng = random.Random(160)
    for _ in range(1500):
        n = rng.randrange(20, 160)
        density = rng.choice((0.3, 0.5, 0.7))
        check_full_width(BinarySequence(n, sum(1 << t for t in range(n) if rng.random() < density)))
    # at even N, different densities on even and odd t split the counts by
    # the parity of tau
    for _ in range(1000):
        n = 2 * rng.randrange(10, 80)
        densities = rng.sample((0.1, 0.3, 0.5, 0.7, 0.9), 2)
        check_full_width(BinarySequence(n, sum(1 << t for t in range(n)
                                                if rng.random() < densities[t % 2])))


# ------------------------------------------------------------- orbit route
#
# A period-4p sequence, p a prime = 1 mod 4, that is fixed by t -> r t takes
# no product: AC at one shift per orbit of r, spread over every shift by the
# proved orbit table. Each case is checked against the forced decode, byte
# for byte, and against the per-shift reference; the product S(2) T(2^-1)
# that Hu's identity reads from the same orbit values is checked against
# the multiply.

def check_orbit_route(s):
    """The route's spectrum, from no product, against the forced decode's
    fields and the per-shift reference, and its S(2) T(2^-1) from the same
    orbit values against the multiply."""
    spectrum, products = spectrum_products(s)
    forced, forced_products = spectrum_products(s, orbit=False)
    assert products == [] and forced_products
    assert spectrum._fields == forced._fields
    check_packed(spectrum, ref_autocorrelation(s))
    assert analysis._orbit_product(s) == bigmod.mul(bigmod.eval_S(s), bigmod.eval_T_inv(s))


@pytest.mark.parametrize("p", eligible_primes(2213))
def test_orbit_route_on_the_ladder(p):
    # the first root of each class and all four w
    for g in {e: g for g, e in reversed(numtheory._roots_with_index(p))}.values():
        for w in ADMISSIBLE_W:
            check_orbit_route(su_sequence(construction_params(p, g, w)))


def test_orbit_route_at_p_5_has_one_shift_per_orbit():
    # r = 21 = 1 mod 20 fixes every t, so every period-20 sequence takes the
    # route, and the 20 shifts are all of Z_20
    assert analysis._orbit_multiplier(5) == 21
    assert sorted(analysis._orbit_shifts(5)) == list(range(20))
    rng = random.Random(5)
    for value in [0, (1 << 20) - 1] + [rng.getrandbits(20) for _ in range(100)]:
        s = BinarySequence(20, value)
        assert ref_orbit_fixed(s)
        check_orbit_route(s)


def class_function_sequence(p, rng):
    """A period-4p sequence with s(t) a random function of t mod 4 and of
    ind_g0(t mod p) mod 4 (a fifth class for p | t), g0 the smallest
    primitive root, indices from a walk over its powers."""
    g0, label, x = smallest_primitive_root(p), [4] * p, 1
    for i in range(p - 1):
        label[x] = i % 4
        x = x * g0 % p
    f = [[rng.getrandbits(1) for _ in range(5)] for _ in range(4)]
    return BinarySequence.from_bits([f[t % 4][label[t % p]] for t in range(4 * p)])


@pytest.mark.parametrize("p", [q for q in range(5, 114, 4) if is_prime(q)])
def test_orbit_route_on_class_function_sequences(p):
    # every prime p = 1 mod 4 up to 113, eligible (5, 13, 29, 53) or not
    # (17, 37, 41, ...): a function of the classes is fixed by r
    rng = random.Random(p)
    for _ in range(20):
        s = class_function_sequence(p, rng)
        assert ref_orbit_fixed(s)
        check_orbit_route(s)


@pytest.mark.parametrize("p", (13, 29))
def test_orbit_route_refuses_single_bit_flips(p):
    # a flip at t with p | t changes a one-shift orbit, {t}, and keeps the
    # symmetry: the route serves it; every other flip breaks the symmetry,
    # and the decode runs on the flipped bits; each spectrum matches
    s = su_sequence(construction_params(p, None, (0, 1, 0, 1)))
    for t in range(4 * p):
        flipped = BinarySequence(4 * p, s.value ^ (1 << t))
        spectrum, products = spectrum_products(flipped)
        check_packed(spectrum, ref_autocorrelation(flipped))
        assert ref_orbit_fixed(flipped) == (t % p == 0)
        if t % p:
            assert analysis._orbit_spectrum(flipped) is None
            assert products == one_product(flipped)
        else:
            assert products == []


def test_orbit_route_refuses_a_corrupted_table(monkeypatch):
    # the orbit table is proved, not trusted: with the codes of 1 and g0
    # swapped in the cyclotomy it is not fixed by r, and with every index
    # read as 0 it has 4 codes, not 20, at the shifts; either is refused and
    # the product runs
    p = 29
    s = su_sequence(construction_params(p, None, (0, 0, 0, 0)))
    real, g0 = numtheory._cyclotomy(p), smallest_primitive_root(p)
    swapped = bytearray(real.codes)
    swapped[1], swapped[g0] = swapped[g0], swapped[1]
    flat = bytes(code & 8 for code in real.codes)
    try:
        for codes in (bytes(swapped), flat):
            analysis._orbit_table.cache_clear()
            monkeypatch.setattr(analysis, "_cyclotomy",
                                lambda p, codes=codes: dataclasses.replace(real, codes=codes))
            assert analysis._orbit_table(p) is None
            spectrum, products = spectrum_products(s)
            assert products == one_product(s)
            check_packed(spectrum, ref_autocorrelation(s))
    finally:
        monkeypatch.undo()
        analysis._orbit_table.cache_clear()
    check_orbit_route(s)


def test_orbit_table_refuses_a_relabelled_cyclotomy(monkeypatch):
    # every index read as i + 2 mod 4 keeps the orbits, so the table stays
    # fixed by r and carries 20 distinct codes at the shifts, but gives the
    # shift of 1 the code of g0^2: the table is refused, the closed form
    # raises, run_all reports the spectrum check as a failed error, and the
    # orbit route runs the product
    real = numtheory._cyclotomy
    relabel = bytes(v if v == 4 else (v & 8) | (v + 2) % 4 for v in range(256))

    def relabelled(p):
        return dataclasses.replace(real(p), codes=real(p).codes.translate(relabel))

    p = 29
    params = construction_params(p, None, (0, 1, 0, 1))
    s = su_sequence(params)
    try:
        analysis._orbit_table.cache_clear()
        monkeypatch.setattr(analysis, "_cyclotomy", relabelled)
        codes = bytearray(4 * p)
        for j in range(4):
            codes[j::4] = (relabelled(p).codes * 4)[j::4].translate(analysis._ORBIT_CODE[j])
        assert analysis._permuted(bytes(codes), analysis._orbit_multiplier(p)) == codes
        assert sorted(codes[tau] for tau in analysis._orbit_shifts(p)) == list(range(20))
        assert analysis._orbit_table(p) is None
        with pytest.raises(ValueError, match="orbit table"):
            analysis.closed_form_spectrum(params)
        spectrum, products = spectrum_products(s)
        assert products == one_product(s)
        check_packed(spectrum, ref_autocorrelation(s))
        reports, summary = verify.run_all(30)
        spectra = [r for r in reports if r.check == verify.SPECTRUM_CHECK]
        assert [r.p for r in spectra] == [5, 13, 29]
        for r in spectra:
            assert not r.passed and r.witnesses == {
                "error": f"ValueError: the orbit table of p={r.p} is not proved"}
    finally:
        monkeypatch.undo()
        analysis._orbit_table.cache_clear()
    check_orbit_route(s)


@pytest.mark.parametrize("p", eligible_primes(2213))
def test_table_spectra_carry_the_scanned_histogram(p):
    # the orbit route and the closed form hand over the histogram from the
    # orbit sizes, equal to the one a scan of the fields gives
    for g in {e: g for g, e in reversed(numtheory._roots_with_index(p))}.values():
        for w in ADMISSIBLE_W:
            params = construction_params(p, g, w)
            for spectrum in (analysis.autocorrelation(su_sequence(params)),
                             analysis.closed_form_spectrum(params)):
                assert "_out_of_phase_counts" in vars(spectrum)
                scanned = analysis.AutocorrSpectrum(spectrum.period, spectrum.values)
                assert spectrum.histogram() == scanned.histogram()
                assert spectrum.out_of_phase() == scanned.out_of_phase()


def test_su_analysis_runs_no_product(monkeypatch, capsys, tmp_path):
    # hu_identity_check and analyze, by --p and by --sequence-file, read the
    # spectrum of a Su sequence from the orbit route; analyze prints what
    # it prints with the route refused
    s = su_sequence(construction_params(293, None, (0, 1, 0, 1)))
    seq = tmp_path / "seq293.txt"
    assert cli.main(["construct", "--p", "293", "--w", "0101", "--out", str(seq)]) == 0
    runs = (["analyze", "--p", "293", "--w", "0101"], ["analyze", "--sequence-file", str(seq)])
    capsys.readouterr()

    def outputs():
        printed = []
        for argv in runs:
            assert cli.main(argv) == 0
            printed.append(capsys.readouterr())
        return printed

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_orbit_spectrum", lambda s: None)
        forced = outputs()
    products, real = [], analysis._folded_digits
    monkeypatch.setattr(analysis, "_folded_digits",
                        lambda *args: products.append(args) or real(*args))
    assert analysis.hu_identity_check(s) == ref_hu_identity_check(s)
    assert analysis.hu_identity_check(s).holds
    assert outputs() == forced
    assert products == []


@pytest.mark.parametrize("p", eligible_primes(2213))
def test_orbit_signs_on_the_ladder(p):
    # w adds w0 to the even and w1 to the odd positions of the w = 0000 sequence
    g = min(all_primitive_roots(p))
    base = analysis.autocorrelation(su_sequence(construction_params(p, g, (0, 0, 0, 0))))
    for w in ADMISSIBLE_W:
        s = su_sequence(construction_params(p, g, w))
        spectrum = analysis.autocorrelation(s)
        assert spectrum.values == ref_kronecker_autocorrelation(s)
        sign = -1 if w[0] != w[1] else 1
        assert spectrum.values == tuple(sign ** tau * v for tau, v in enumerate(base.values))


def test_spectrum_from_out_of_range_values():
    # no autocorrelation leaves [-N, N], so no packed field holds such a value
    for values in ((10 ** 30, -(10 ** 30), 7, 7), (5, 0, 0, 0), (-5, 0, 0, 0),
                   (4, 0, 0, 5), (4, -5, 0, 0)):
        with pytest.raises(ValueError, match=r"\[-4, 4\]"):
            analysis.AutocorrSpectrum(period=4, values=values)
    values = (4, -4, 4, 4)
    spectrum = analysis.AutocorrSpectrum(period=4, values=values)
    assert spectrum.values == values
    assert spectrum == analysis.AutocorrSpectrum(period=4, values=list(values))
    assert hash(spectrum) == hash(analysis.AutocorrSpectrum(period=4, values=values))
    assert spectrum.histogram() == {-4: 1, 4: 2}
    assert spectrum.out_of_phase() == {-4, 4}
    ones = analysis.autocorrelation(BinarySequence(4, 0b1111))
    assert spectrum != ones and ones != spectrum
    assert ones == analysis.AutocorrSpectrum(period=4, values=(4, 4, 4, 4))
    assert hash(ones) == hash(analysis.AutocorrSpectrum(period=4, values=(4, 4, 4, 4)))
    with pytest.raises(AttributeError):
        ones.period = 5


def test_spectrum_pickle_and_deepcopy_round_trip():
    params = construction_params(29, None, (0, 1, 0, 1))
    for spectrum in (analysis.autocorrelation(su_sequence(params)),
                     analysis.closed_form_spectrum(params),
                     analysis.AutocorrSpectrum(period=4, values=(4, -4, 0, -4))):
        for copied in (pickle.loads(pickle.dumps(spectrum)), copy.deepcopy(spectrum)):
            assert copied == spectrum and hash(copied) == hash(spectrum)
            assert copied.values == spectrum.values
            assert repr(copied) == repr(spectrum)
            with pytest.raises(AttributeError):
                copied.period = 1


@pytest.mark.parametrize("p,bit", [(13, 0), (29, 57), (173, 400), (1373, 5000)])
def test_spectrum_mismatch_witnesses(p, bit, monkeypatch):
    # a flipped bit, a negated b and a wrong eps (w0 = w1 for a w0 != w1
    # sequence): the symmetry certificate refuses each, and the decode gives
    # the witnesses the per-shift references give
    params = construction_params(p, None, (0, 1, 0, 1))
    s = su_sequence(params)
    corrupted = BinarySequence(s.period, s.value ^ (1 << bit))
    negated = dataclasses.replace(
        params, quartic=dataclasses.replace(params.quartic, b=-params.quartic.b))
    mutants = [(corrupted, params), (s, negated),
               (s, construction_params(p, params.g, (0, 0, 0, 0)))]
    digits = []
    real = analysis._matches_closed_form
    monkeypatch.setattr(analysis, "_matches_closed_form",
                        lambda *args: digits.append(real(*args)) or digits[-1])
    for sequence, claimed_params in mutants:
        brute = ref_autocorrelation(sequence)
        claimed = ref_closed_form_spectrum(claimed_params)
        tau = next(t for t in range(s.period) if brute[t] != claimed[t])
        report = verify.check_autocorrelation_spectrum(claimed_params, sequence)
        assert not report.passed
        assert report.witnesses["first_mismatch_tau"] == tau
        assert report.witnesses["brute_value"] == brute[tau]
        assert report.witnesses["claimed_value"] == claimed[tau]
        assert report.witnesses["magnitude_ok"] == (set(brute[1:]) <= {0, 4, -4})
        assert report.witnesses["b_used"] is None
    assert digits == [False] * 3


def ref_plain_fold_digits(n, value, k):
    """The folded product's digit text in plain ints: A B split at B^N,
    B = 10^k, and the two halves added."""
    bits = format(value, f"0{n}b")
    a = int("".join(b.rjust(k, "0") for b in bits))
    b = int("".join(b.rjust(k, "0") for b in bits[::-1]))
    hi, lo = divmod(a * b, 10 ** (n * k))
    return str(hi + lo).zfill(n * k).encode()


def test_folded_digits_equals_a_plain_int_fold():
    # at random (N, k), k from the digits of N up, and at N = 1 and 2; the
    # all-one sequence at N = 10^k - 1 fills every field, hi + lo = B^N - 1
    rng = random.Random(35)
    cases = [(1, 1), (1, 3), (2, 1), (2, 4), (9, 1), (99, 2), (999, 3)]
    for _ in range(60):
        n = rng.randrange(1, 900)
        cases.append((n, rng.randrange(len(str(n)), 5)))
    for n, k in cases:
        for value in (rng.getrandbits(n), 0, (1 << n) - 1):
            assert analysis._folded_digits(n, value, k) == ref_plain_fold_digits(n, value, k), (n, k)
    for k in (1, 2, 3):
        n = 10 ** k - 1
        assert analysis._folded_digits(n, (1 << n) - 1, k) == b"9" * (n * k)


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

def test_residue_codes_match_symbol():
    # code 0 / 1 / 2 is the Legendre symbol 0 / +1 / -1
    for p in (3, 5, 7, 13, 29, 53, 101):
        assert [(0, 1, -1)[c] for c in residue_codes(p)] == [legendre_symbol(i, p) for i in range(p)]
    with pytest.raises(ValueError):
        residue_codes(9)


@pytest.mark.parametrize("params", LADDER,
                         ids=[f"p{q.p}-g{q.g}-w{''.join(map(str, q.w))}" for q in LADDER])
def test_construction_ladder(params):
    s = su_sequence(params)
    assert s == ref_su_sequence(params)
    assert analysis.autocorrelation(s).values == ref_autocorrelation(s)
    assert analysis.autocorrelation(s).values == ref_kronecker_autocorrelation(s)
    assert bigmod.eval_T_inv(s).value == ref_eval_T_inv(s)
    assert deinterleave(s) == ref_deinterleave(s)
    assert analysis.hu_identity_check(s) == ref_hu_identity_check(s)
    for q in (params, negate_b(params)):
        assert analysis.closed_form_spectrum(q).values == ref_closed_form_spectrum(q)
        assert verify.product_closed_form(q).value == ref_product_closed_form(q)


def test_autocorrelation_on_transform_sized_construction():
    # p = 9413 forced past the orbit route gives operands of 4p * 5 digits,
    # those of W, far past the size from which libmpdec multiplies through
    # its number-theoretic transform; the route gives the same fields.
    params = construction_params(9413, 3, (0, 1, 0, 1))
    s = su_sequence(params)
    spectrum, products = spectrum_products(s, orbit=False)
    assert products == one_product(s) and products[0][2] == 5
    assert spectrum.values == ref_kronecker_autocorrelation(s)
    assert spectrum == analysis.closed_form_spectrum(params) == analysis.autocorrelation(s)


# ------------------------------------------------------------ complement pairs

# Every cache that shares a result between the w of one (p, g).
PAIR_CACHES = (analysis._two_adic, analysis._st_product, verify._product_closed_form,
               analysis._pair_orbit_values, sequences._su_base)
COMPLEMENT_PAIRS = (((0, 0, 0, 0), (1, 1, 1, 1)), ((0, 1, 0, 1), (1, 0, 1, 0)))


def clear_pair_caches():
    for cache in PAIR_CACHES:
        cache.cache_clear()


def pair_results(params):
    """Everything a complement pair shares, plus S(2), for params' sequence."""
    s = su_sequence(params)
    return {"spectrum": analysis.autocorrelation(s)._fields,
            "two_adic": analysis.two_adic_complexity(s),
            "st": analysis._st_product(analysis._complement_key(s)),
            "identity": analysis.hu_identity_check(s),
            "closed": analysis.closed_form_spectrum(params)._fields,
            "product": verify.product_closed_form(params),
            "certified": analysis._matches_closed_form(s, params)}


PAIR_POINTS = sorted({(q.p, q.g) for q in LADDER})


@pytest.mark.parametrize("p,g", PAIR_POINTS, ids=[f"p{p}-g{g}" for p, g in PAIR_POINTS])
def test_complement_shares_every_result_with_a_cold_evaluation(p, g):
    m = (1 << (4 * p)) - 1
    for w, complement in COMPLEMENT_PAIRS:
        clear_pair_caches()
        first = pair_results(construction_params(p, g, w))
        misses = [cache.cache_info().misses for cache in PAIR_CACHES]
        shared = pair_results(construction_params(p, g, complement))
        # the complement is served from the pair caches: none misses
        assert [cache.cache_info().misses for cache in PAIR_CACHES] == misses
        clear_pair_caches()
        assert shared == pair_results(construction_params(p, g, complement))
        # and it relates to w's results as the identities say
        a, b = first["two_adic"], shared["two_adic"]
        assert (a.gcd, a.f, a.phi) == (b.gcd, b.f, b.phi)
        assert b.s2 == (m - a.s2) % m
        assert shared == {**first, "two_adic": b}


@pytest.mark.parametrize("p", [5, 13, 29, 293, 2213])
def test_su_sequence_is_the_interleave_xor_a_mask(p):
    # the first root of each class e = ind(g) mod 4, 1 and 3
    roots = {}
    for g in sorted(all_primitive_roots(p)):
        roots.setdefault(numtheory.index_mod4(p, g), g)
    assert sorted(roots) == [1, 3]
    for g in roots.values():
        for w in ADMISSIBLE_W:
            params = construction_params(p, g, w)
            d = params.d
            assert su_sequence(params) == generalized_interleaved(
                p, g, (3, 2, 1, 1), (0, d, 2 * d, 3 * d), w)


def test_all_w_run_is_the_single_w_runs_interleaved():
    # past the gcd split's crossover, which the golden digests (N <= 1172) stay below
    limit = 6000
    reports, summary = verify.run_all(limit, w_policy="all")
    single = {w: verify.run_all(limit, w_policy=w)[0] for w in ADMISSIBLE_W}
    want = []
    for i, p in enumerate(eligible_primes(limit)):
        coprimality = single[ADMISSIBLE_W[0]][5 * i]
        want.append(coprimality)
        for w in ADMISSIBLE_W:
            assert single[w][5 * i] == coprimality
            want += single[w][5 * i + 1:5 * i + 5]
    assert reports == want
    assert summary["failed"] == sum(not r.passed for r in want)
    assert max(4 * p for p in eligible_primes(limit)) > 4 * bigmod._GCD_SPLIT_BITS


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


@pytest.mark.parametrize("params", LADDER[::39],
                         ids=[f"p{q.p}-g{q.g}-w{''.join(map(str, q.w))}" for q in LADDER[::39]])
def test_identity_fold_reads_no_values(params, monkeypatch):
    # the right side comes from the packed fields, never from the values tuple
    s = su_sequence(params)
    want = ref_hu_identity_check(s)

    def no_values(spectrum):
        raise AssertionError("AutocorrSpectrum.values read")

    monkeypatch.setattr(analysis.AutocorrSpectrum, "values", property(no_values))
    assert analysis.hu_identity_check(s) == want


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
            expected = BinarySequence.from_support(p, ref_dhl_support(classes, kind))
            assert dhl_sequence(p, g, kind) == expected


@pytest.mark.parametrize("p", ELIGIBLE_TO_1100)
def test_quartic_decomposition_every_root(p):
    for g in sorted(all_primitive_roots(p)):
        assert quartic_decomposition(p, g) == ref_quartic_decomposition(p, g)


def test_quartic_decomposition_both_classes_to_40000():
    # the smallest root g0 has e = 1 and its inverse e = 3, so both signs of b
    for p in eligible_primes(40000):
        if p > 1100:
            g0 = smallest_primitive_root(p)
            for g in (g0, pow(g0, -1, p)):
                assert quartic_decomposition(p, g) == ref_quartic_decomposition(p, g)


def test_quartic_decomposition_skips_the_cyclotomy():
    # b comes from Jacobi's congruence, one pow, not from a pass over Z_p*;
    # the roots are listed first, as listing them walks Z_p*
    roots = {p: sorted(all_primitive_roots(p)) for p in ELIGIBLE_TO_1100}
    numtheory._cyclotomy.cache_clear()
    for p in ELIGIBLE_TO_1100:
        for g in roots[p]:
            quartic_decomposition(p, g)
    assert numtheory._cyclotomy.cache_info().misses == 0


def test_interleaved_primes_share_no_state():
    # One prime's record is cached at a time; switching p and back must
    # rebuild it, never reuse another prime's masks.
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
    # serial grids resolve and evaluate one prime at a time
    for grid in (verify.survey_conjecture, verify.run_all):
        numtheory._cyclotomy.cache_clear()
        grid(1100, "all", "all")
        assert numtheory._cyclotomy.cache_info().misses == len(ELIGIBLE_TO_1100) == 9


def test_each_prime_is_factored_once():
    # both grids are p-major, so the one cached p - 1 serves every root test
    numtheory._prime_factors.cache_clear()
    verify.run_all(6000, "smallest", "all")
    verify.survey_conjecture(1100, "all", "all")
    assert numtheory._prime_factors.cache_info().misses == 17 + 9 == 26


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


def ref_gcd_linear_complexity(s):
    """The one-Euclid kernel: N - deg gcd(x^N + 1, S(x)) over the whole period."""
    a, b = (1 << s.period) | 1, s.value
    while b:
        db = b.bit_length()
        while (da := a.bit_length()) >= db:
            a ^= b << (da - db)
        a, b = b, a
    return s.period - (a.bit_length() - 1)


def clmul(a, b):
    """Product over GF(2) of packed polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def gf2_power(a, j):
    out = 1
    for _ in range(j):
        out = clmul(out, a)
    return out


def repeated(rng, n, period):
    """A random sequence of period n whose true period divides `period`."""
    block = rng.getrandbits(period)
    return BinarySequence(n, sum(block << k for k in range(0, n, period)))


def reduction_cases(v, m):
    """Sequences of period N = 2^v m: random ones and those the fold singles out."""
    n, q = m << v, 1 << v
    rng = random.Random(n * 1000 + m)
    xm1 = (1 << m) | 1
    cases = [BinarySequence(n, rng.getrandbits(n)) for _ in range(6)]
    cases += constant_sequences(n)
    cases += [BinarySequence(n, 1 << k) for k in {0, n // 2, n - 1}]
    cases.append(BinarySequence(n, int("01" * (n // 2) + "0" * (n % 2), 2)))
    # S = (x^m + 1)^j T for j < 2^v, so x^m + 1 divides S j times or more;
    # already j = 1 gives G1 = x^m + 1, where the last Euclid is full size
    for j in sorted({1, q // 2, q - 1} - {0}):
        cases.append(BinarySequence(n, clmul(gf2_power(xm1, j), rng.getrandbits(n - j * m))))
    for div in (2, 4):  # true period N/2 or N/4
        if n % div == 0:
            cases.append(repeated(rng, n, n // div))
    # S = f^j T for a proper factor f of x^m + 1 of degree 2 or 3 and
    # j <= 2^v, T of odd weight, so x + 1 does not divide S: G1 is a proper
    # factor of degree >= 2, and the halving rounds mod G1(x^(2^v)) multiply
    # by x^H mod G1(x^(2^v)) of several terms
    for f in [f for f, period in ((0b111, 3), (0b1011, 7)) if m % period == 0]:
        deg = f.bit_length() - 1
        for j in sorted({1, q // 2, q} - {0}):
            t = rng.getrandbits(n - j * deg)
            t ^= 1 - t.bit_count() % 2
            cases.append(BinarySequence(n, clmul(gf2_power(f, j), t)))
    return cases


@pytest.mark.parametrize("v,m", [(v, m) for v in range(7)
                                 for m in (1, 3, 5, 7, 9, 15, 21, 45)])
def test_linear_complexity_reduction_against_one_euclid(v, m):
    for s in reduction_cases(v, m):
        assert analysis.linear_complexity(s) == ref_gcd_linear_complexity(s) \
            == ref_linear_complexity(s)


@pytest.mark.parametrize("p,expected", [(18773, 75090), (37253, 149010)])
def test_linear_complexity_pinned_on_large_periods(p, expected):
    # The expected values come from ref_gcd_linear_complexity (smallest g, w = 0101).
    s = su_sequence(construction_params(p, 2, (0, 1, 0, 1)))
    assert analysis.linear_complexity(s) == expected


# ------------------------------------------- one record per construction
#
# The per-point loops the grids ran before each construction (p, e, w) was
# built once for every g sharing it: one sequence, S(2), spectrum and gcd
# per (p, g, w), checked by the check bodies of that time.

def ref_survey_row(p, g, w, s):
    report = analysis.two_adic_complexity(s)
    gcd_minus = math.gcd(report.gcd, (1 << (2 * p)) - 1)
    return verify.SurveyRow(p=p, g=g, w=w, gcd_full=report.gcd, gcd_minus=gcd_minus,
                            phi=report.phi)


def ref_spectrum_check(params, s):
    brute = analysis.autocorrelation(s)
    flipped = dataclasses.replace(
        params, quartic=dataclasses.replace(params.quartic, b=-params.quartic.b))
    witnesses = {"b_jacobi": params.b}
    b_used = None
    if brute == analysis.closed_form_spectrum(params):
        b_used = params.b
        witnesses["sign_flipped"] = False
    elif brute == analysis.closed_form_spectrum(flipped):
        b_used = -params.b
        witnesses["sign_flipped"] = True
    else:
        claimed = analysis.closed_form_spectrum(params)
        tau = next(t for t in range(brute.period) if brute.values[t] != claimed.values[t])
        witnesses.update(first_mismatch_tau=tau, brute_value=brute.values[tau],
                         claimed_value=claimed.values[tau])
    magnitude_ok = brute.out_of_phase() <= {0, 4, -4}
    witnesses["b_used"] = b_used
    witnesses["magnitude_ok"] = magnitude_ok
    return verify.CheckReport(check="autocorrelation-spectrum", p=params.p, g=params.g,
                              w=params.w, b=params.b if b_used is None else b_used,
                              passed=b_used is not None and magnitude_ok,
                              witnesses=witnesses), flipped


def ref_gated_checks(params, s):
    p = params.p
    ident = {"p": p, "g": params.g, "w": params.w, "b": params.b}
    lhs = bigmod.mul(bigmod.eval_S(s), bigmod.eval_T_inv(s))
    rhs = verify.product_closed_form(params)
    s2 = bigmod.eval_S(s).value
    gcd3, gcd5 = math.gcd(s2, 3), math.gcd(s2, 5)
    div3 = ((1 << (2 * p)) - 1) % 3 == 0
    div5 = ((1 << (2 * p)) + 1) % 5 == 0
    row = ref_survey_row(p, params.g, params.w, s)
    lower, upper = 2 * p, 4 * p - 2
    bounds_ok = lower <= row.phi <= upper
    coprime_ok = row.gcd_minus == 1
    div5_ok = row.gcd_full % 5 == 0
    return [
        verify.CheckReport(check="st-product-congruence", passed=lhs == rhs,
                           witnesses={"lhs": lhs.value, "rhs": rhs.value}, **ident),
        verify.CheckReport(check="small-factor-gcds",
                           passed=gcd3 == 1 and gcd5 == 5 and div3 and div5,
                           witnesses={"s2": s2, "gcd_3": gcd3, "gcd_5": gcd5,
                                      "divides_2p_minus": div3, "divides_2p_plus": div5},
                           **ident),
        verify.CheckReport(check="complexity-bounds",
                           passed=bounds_ok and coprime_ok and div5_ok,
                           witnesses={"phi": row.phi, "lower_bound": lower,
                                      "upper_bound": upper, "bounds_ok": bounds_ok,
                                      "gcd_full": row.gcd_full, "gcd_minus": row.gcd_minus,
                                      "coprime_ok": coprime_ok, "div5_ok": div5_ok},
                           **ident),
    ]


def ref_evaluate_point(point):
    params = construction_params(*point)
    s = su_sequence(params)
    gate, flipped = ref_spectrum_check(params, s)
    if gate.witnesses["b_used"] not in (None, params.b):
        params = flipped
    return [gate] + ref_gated_checks(params, s)


def ref_survey(limit):
    return [ref_survey_row(p, g, w, su_sequence(construction_params(p, g, w)))
            for p in eligible_primes(limit)
            for g in sorted(all_primitive_roots(p)) for w in ADMISSIBLE_W]


def ref_run_all(limit):
    reports = []
    for p in eligible_primes(limit):
        reports.append(verify.check_coprimality_facts(p))
        for g in sorted(all_primitive_roots(p)):
            for w in ADMISSIBLE_W:
                reports += ref_evaluate_point((p, g, w))
    return reports


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b) and a == b  # dataclass equality: field by field


@pytest.mark.parametrize("limit", [300, 1100])
def test_survey_all_g_matches_per_row_loop(limit):
    assert_same_records(verify.survey_conjecture(limit, "all", "all"), ref_survey(limit))


@pytest.mark.parametrize("limit", [300, 1100])
def test_run_all_all_g_matches_per_point_loop(limit):
    reports, summary = verify.run_all(limit, "all", "all")
    want = ref_run_all(limit)
    assert_same_records(reports, want)
    assert summary["failed"] == sum(not r.passed for r in want)
    assert summary["total"] == len(want)


def test_parallel_run_all_all_g_matches_per_point_loop():
    reports, _ = verify.run_all(300, "all", "all", jobs=2)
    assert_same_records(reports, ref_run_all(300))


# ------------------------------------------- U_r mod G1 by halving
#
# linear_complexity reduces each decimated U_r (deg < m) mod G1 =
# gcd(x^m + 1, S) through halving rounds; the reference is the bit-by-bit
# remainder loop _gf2_mod that it replaced.

def divisors_of_xm1(m, max_degree):
    """Every packed polynomial of degree 1..max_degree dividing x^m + 1."""
    xm1 = (1 << m) | 1
    return [g for g in range(2, 1 << (max_degree + 1)) if analysis._gf2_mod(xm1, g) == 0]


@pytest.mark.parametrize("m", [3, 15, 63, 255, 4095])
def test_gf2_halving_against_remainder_loop(m):
    rng = random.Random(m)
    divisors = divisors_of_xm1(m, 8)
    assert {g.bit_length() - 1 for g in divisors} <= set(range(1, 9))
    for g in divisors:
        rounds = analysis._gf2_halvings(g, m)
        for u in [0, 1, (1 << m) - 1] + [rng.getrandbits(rng.randint(1, m)) for _ in range(4)]:
            assert analysis._gf2_mod_halving(u, g, rounds) == analysis._gf2_mod(u, g)


def test_gf2_halving_on_the_ladder():
    # the U_r and G1 that linear_complexity meets on the construction
    seen = set()
    for params in LADDER:
        s = su_sequence(params)
        n = s.period
        q = n & -n
        m = n // q
        folded, width = s.value, n
        while width > m:
            width >>= 1
            folded = (folded >> width) ^ (folded & ((1 << width) - 1))
        g1 = analysis._gf2_gcd((1 << m) | 1, folded)
        seen.add(g1.bit_length() - 1)
        rounds = analysis._gf2_halvings(g1, m)
        text = format(s.value, f"0{n}b")
        for r in range(q):
            u = int(text[q - 1 - r::q], 2)
            assert analysis._gf2_mod_halving(u, g1, rounds) == analysis._gf2_mod(u, g1)
    assert 1 in seen  # G1 = x + 1, the fold to parity
