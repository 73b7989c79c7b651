import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoadic import analysis
from twoadic import sequences as sq
from twoadic.numtheory import all_primitive_roots, eligible_primes, smallest_primitive_root

bit_lists = st.lists(st.integers(0, 1), min_size=1, max_size=96)


def seq(*bits):
    return sq.BinarySequence.from_bits(bits)


# ------------------------------------------------------------ basic type

def test_from_bits_round_trip():
    s = seq(0, 1, 1, 0, 0)
    assert s.period == 5
    assert s.bits() == (0, 1, 1, 0, 0)
    assert str(s) == "01100"
    assert s.weight == 2
    assert len(s) == s.period


def test_bit_indexing_is_cyclic():
    s = seq(0, 1, 1, 0, 0)
    assert s.bit(1) == 1
    assert s.bit(6) == 1
    assert s.bit(-1) == 0


def test_validation():
    with pytest.raises(ValueError):
        sq.BinarySequence(period=0, value=0)
    with pytest.raises(ValueError):
        sq.BinarySequence(period=3, value=8)
    with pytest.raises(ValueError):
        sq.BinarySequence.from_bits([0, 2, 1])
    with pytest.raises(ValueError):
        sq.BinarySequence.from_support(4, [4])


# ------------------------------------------------------------- operators

def test_left_shift_examples():
    s = seq(0, 1, 1, 0, 0)
    assert sq.left_shift(s, 0) is s
    assert sq.left_shift(s, 2).bits() == (1, 0, 0, 0, 1)
    assert sq.left_shift(s, 5) == s


def test_add_constant_examples():
    s = seq(0, 1, 1, 0, 0)
    assert sq.add_constant(s, 1).bits() == (1, 0, 0, 1, 1)
    assert sq.add_constant(s, 0) == s
    assert sq.add_constant(s, 1).weight == 5 - s.weight
    with pytest.raises(ValueError):
        sq.add_constant(s, 2)


@settings(max_examples=60, deadline=None)
@given(bit_lists, st.integers(0, 200), st.integers(0, 200))
def test_left_shift_composes(bits, d1, d2):
    s = sq.BinarySequence.from_bits(bits)
    assert sq.left_shift(sq.left_shift(s, d1), d2) == \
        sq.left_shift(s, (d1 + d2) % s.period)


def test_interleave_row_major_example():
    out = sq.interleave(seq(1, 0), seq(0, 0), seq(1, 1), seq(0, 1))
    assert out.bits() == (1, 0, 1, 0, 0, 0, 1, 1)


def test_interleave_constant_columns():
    one = seq(1)
    assert sq.interleave(one, one, one, one).bits() == (1, 1, 1, 1)


def test_interleave_rejects_period_mismatch():
    with pytest.raises(ValueError):
        sq.interleave(seq(1, 0), seq(0, 0, 1), seq(1, 1), seq(0, 1))


def test_deinterleave_example():
    s = seq(1, 0, 1, 0, 0, 0, 1, 1)
    cols = sq.deinterleave(s)
    assert [c.bits() for c in cols] == [(1, 0), (0, 0), (1, 1), (0, 1)]
    zeros = sq.BinarySequence(8, 0)
    assert all(c.value == 0 for c in sq.deinterleave(zeros))
    with pytest.raises(ValueError):
        sq.deinterleave(seq(1, 0, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 32).flatmap(
    lambda v: st.tuples(*[st.lists(st.integers(0, 1), min_size=v, max_size=v)] * 4)))
def test_interleave_deinterleave_round_trip(cols):
    built = [sq.BinarySequence.from_bits(c) for c in cols]
    assert sq.deinterleave(sq.interleave(*built)) == tuple(built)


# ------------------------------------------------------------------- DHL

def test_dhl_small_cases():
    assert str(sq.dhl_sequence(5, 2, 1)) == "01100"  # support D0 u D1 = {1, 2}
    assert str(sq.dhl_sequence(5, 2, 4)) == "00011"  # support D2 u D3 = {3, 4}
    with pytest.raises(ValueError):
        sq.dhl_sequence(5, 2, 5)


def test_dhl_weight_is_half_period():
    for p in eligible_primes(60):
        for g in sorted(all_primitive_roots(p))[:2]:
            for kind in (1, 2, 3, 4):
                assert sq.dhl_sequence(p, g, kind).weight == (p - 1) // 2


def test_dhl_autocorrelation_values():
    # out-of-phase values 1 and -3; brute force over every root for p <= 53
    for p in eligible_primes(60):
        for g in sorted(all_primitive_roots(p)):
            for kind in (1, 2, 3, 4):
                spectrum = analysis.autocorrelation(sq.dhl_sequence(p, g, kind))
                assert spectrum.out_of_phase() == {1, -3}


# ------------------------------------------------------------ construction

def test_construction_params_examples():
    params = sq.construction_params(13, 2, (0, 1, 0, 1))
    assert params.d == 10
    assert 4 * params.d % 13 == 1
    with pytest.raises(ValueError):
        sq.construction_params(13, 2, (0, 1, 1, 0))


def test_d_inverts_4_mod_p():
    for p in eligible_primes(500):
        assert 4 * ((3 * p + 1) // 4) % p == 1


def first_root_per_class(p):
    """The smallest primitive root g0^k of each class k mod 4."""
    g0 = smallest_primitive_root(p)
    firsts = {}
    for k in range(1, p - 1):
        if math.gcd(k, p - 1) == 1:
            firsts[k % 4] = min(pow(g0, k, p), firsts.get(k % 4, p))
    return sorted(firsts.values())


def test_construction_params_derive_d_from_p():
    for p in eligible_primes(1100):
        for g in first_root_per_class(p):
            params = sq.construction_params(p, g)
            assert params.d == (3 * p + 1) // 4
            assert 4 * params.d % p == 1
            assert sq.ConstructionParams(quartic=params.quartic, w=params.w) == params
            flipped = dataclasses.replace(
                params, quartic=dataclasses.replace(params.quartic, b=-params.quartic.b))
            assert flipped.b == -params.b and flipped.d == params.d


def test_su_sequence_p5_hand_composed():
    # columns: s3, L^4(s2)+1, L^8(s1), L^12(s1)+1 composed by hand
    params = sq.construction_params(5, 2, (0, 1, 0, 1))
    assert str(sq.su_sequence(params)) == "01000101100101111010"


def test_su_sequence_p13_frozen():
    params = sq.construction_params(13, 2, (0, 1, 0, 1))
    assert str(sq.su_sequence(params)) == \
        "0101000011100101100111001001011101110111100000101010"


def test_su_weight_for_default_w():
    for p in eligible_primes(60):
        s = sq.su_sequence(sq.construction_params(p, w=(0, 1, 0, 1)))
        assert s.weight == 2 * p
        assert s.period == 4 * p


def test_su_least_period_is_full():
    for p in (5, 13):
        for w in sq.ADMISSIBLE_W:
            s = sq.su_sequence(sq.construction_params(p, 2, w))
            n = s.period
            for t in range(1, n):
                if n % t == 0:
                    assert any(s.bit(i) != s.bit(i + t) for i in range(n)), \
                        f"period {t} divides for p={p}"


def test_w_only_complements_columns():
    base = sq.su_sequence(sq.construction_params(13, 2, (0, 0, 0, 0)))
    for w in sq.ADMISSIBLE_W:
        other = sq.su_sequence(sq.construction_params(13, 2, w))
        diff = sq.BinarySequence(base.period, base.value ^ other.value)
        for j, col in enumerate(sq.deinterleave(diff)):
            assert col.value in (0, (1 << col.period) - 1)
            assert (col.value != 0) == (w[j] == 1)


def test_generalized_specializes_to_su():
    for p, g in [(5, 2), (13, 2)]:
        d = (3 * p + 1) // 4
        for w in sq.ADMISSIBLE_W:
            params = sq.construction_params(p, g, w)
            assert sq.generalized_interleaved(p, g, (3, 2, 1, 1),
                                              (0, d, 2 * d, 3 * d), w) == \
                sq.su_sequence(params)


def test_generalized_identical_columns():
    out = sq.generalized_interleaved(5, 2, (1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0))
    assert out.period == 20
    s1 = sq.dhl_sequence(5, 2, 1)
    assert sq.deinterleave(out) == (s1, s1, s1, s1)


def test_generalized_validation():
    with pytest.raises(ValueError):
        sq.generalized_interleaved(5, 2, (0, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        sq.generalized_interleaved(5, 2, (1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 1, 0))
    with pytest.raises(ValueError, match="four entries"):
        sq.generalized_interleaved(5, 2, (1, 1, 1), (0, 0, 0, 0), (0, 1, 0, 1))
    with pytest.raises(ValueError, match="bits"):
        sq.generalized_interleaved(5, 2, (1, 1, 1, 1), (0, 0, 0, 0), (0, 2, 0, 2))
    out = sq.generalized_interleaved(5, 2, (1, 1, 1, 1), (0, 0, 0, 0), (0, 1, 1, 0),
                                     allow_any_w=True)
    assert out.period == 20


# ---------------------------------------------------------------- literals

def test_literal_round_trip():
    s = seq(0, 1, 1, 0, 0)
    assert sq.sequence_literal(s) == "N=5;01100"
    assert sq.sequence_literal(s, include_period=False) == "01100"
    assert sq.parse_sequence_literal("N=5;01100") == s
    assert sq.parse_sequence_literal("01100\n") == s
    assert sq.parse_sequence_literal("# header\nN=5;01100\n") == s


def test_literal_errors():
    with pytest.raises(ValueError):
        sq.parse_sequence_literal("N=4;01100")
    with pytest.raises(ValueError):
        sq.parse_sequence_literal("012")
    with pytest.raises(ValueError):
        sq.parse_sequence_literal("")
    with pytest.raises(ValueError):
        sq.parse_sequence_literal("M=5;01100")
    # N= takes ASCII digits only, not what int() would also read
    for head in ("N=x", "N=+2", "N= 2", "N=\uff12", "N="):
        with pytest.raises(ValueError, match=re.escape(f"bad sequence prefix {head!r}, ")):
            sq.parse_sequence_literal(f"{head};01")


# Lines the parser skips: blank, whitespace-only and '#' comments, which may
# themselves look like payloads.
skipped_lines = st.lists(st.sampled_from(["", "   ", "\t", "#", "# p=13 g=2 a=-3 b=1",
                                          "#N=3;010", "  # 1111"]), max_size=4)


@settings(max_examples=100, deadline=None)
@given(bit_lists, st.booleans(), skipped_lines, skipped_lines,
       st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", " ", "\t"]))
def test_literal_round_trip_property(bits, include_period, before, after, newline, pad):
    s = sq.BinarySequence.from_bits(bits)
    literal = sq.sequence_literal(s, include_period=include_period)
    assert literal.startswith("N=") == include_period
    assert sq.parse_sequence_literal(literal) == s
    text = newline.join(before + [pad + literal + pad] + after) + newline
    assert sq.parse_sequence_literal(text) == s


def test_random_shift_never_changes_weight():
    rng = random.Random(11)
    for _ in range(50):
        bits = [rng.randint(0, 1) for _ in range(rng.randint(1, 60))]
        s = sq.BinarySequence.from_bits(bits)
        d = rng.randint(0, 200)
        assert sq.left_shift(s, d).weight == s.weight
