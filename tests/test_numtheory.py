import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoadic import numtheory as nt


# ---------------------------------------------------------------- oracles

def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def multiplicative_order(g: int, p: int) -> int:
    o, x = 1, g % p
    while x != 1:
        x = x * g % p
        o += 1
    return o


def primitive_roots_by_order(p: int) -> set[int]:
    return {g for g in range(2, p) if multiplicative_order(g, p) == p - 1}


ELIGIBLE_500 = [5, 13, 29, 53, 173, 229, 293]


# ---------------------------------------------------------------- is_prime

def test_is_prime_small_cases():
    assert nt.is_prime(13)
    assert not nt.is_prime(1)
    assert not nt.is_prime(0)
    assert nt.is_prime(2)
    assert not nt.is_prime(561)  # Carmichael number, must not fool the test


def test_is_prime_matches_trial_division_up_to_3000():
    for n in range(3000):
        assert nt.is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_large_known_values():
    assert nt.is_prime(2**61 - 1)
    assert not nt.is_prime(2**62 - 1)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        nt.is_prime(1 << 64)
    with pytest.raises(ValueError):
        nt.is_prime(-7)


# ------------------------------------------------------- primitive roots

@pytest.mark.parametrize("p,expected", [(13, 2), (5, 2), (7, 3)])
def test_smallest_primitive_root_examples(p, expected):
    assert multiplicative_order(expected, p) == p - 1  # oracle confirms first
    assert nt.smallest_primitive_root(p) == expected


def test_smallest_primitive_root_matches_order_oracle():
    for p in range(3, 200, 2):
        if not trial_division_is_prime(p):
            continue
        assert nt.smallest_primitive_root(p) == min(primitive_roots_by_order(p))


def test_index_mod4_matches_discrete_log():
    # every primitive root is g0^k with gcd(k, p - 1) = 1, and ind_g0 of it is k
    for p in nt.eligible_primes(1100):
        g0 = nt.smallest_primitive_root(p)
        for k in range(1, p - 1):
            if math.gcd(k, p - 1) == 1:
                assert nt.index_mod4(p, pow(g0, k, p)) == k % 4


def test_roots_with_index_matches_index_mod4():
    # the walk reads e off the exponent of g0^i; the reference takes one pow per root
    for p in nt.eligible_primes(3000):
        pairs = nt._roots_with_index(p)
        assert pairs == [(g, ref_index_mod4(p, g)) for g in sorted(nt.all_primitive_roots(p))]
        assert [g for g, _ in pairs] == [g for g in range(2, p) if nt.is_primitive_root(g, p)]


# The kernels that the one walk of numtheory._cyclotomy replaced: e by one pow
# per root, and the roots by a second walk with one gcd per exponent.

def ref_index_mod4(p: int, g: int) -> int:
    g0 = nt.smallest_primitive_root(p)
    return 1 if pow(g, (p - 1) // 4, p) == pow(g0, (p - 1) // 4, p) else 3


def ref_roots_with_index(p: int) -> list[tuple[int, int]]:
    g0 = nt.smallest_primitive_root(p)
    index = bytearray(p)
    x = 1
    for i in range(1, p - 1):
        x = x * g0 % p
        if math.gcd(i, p - 1) == 1:
            index[x] = i & 3
    return [(g, e) for g, e in enumerate(index) if e]


def ref_cyclotomic_masks(p: int, g: int) -> tuple[int, ...]:
    # bit g^i of mask i mod 4, walking the powers of g itself
    masks = [0] * 4
    x = 1
    for i in range(p - 1):
        masks[i & 3] |= 1 << x
        x = x * g % p
    return tuple(masks)


@pytest.mark.parametrize("p", nt.eligible_primes(3000) + [17, 37, 41])
def test_one_walk_matches_the_kernels_it_replaced(p):
    pairs = ref_roots_with_index(p)
    assert nt._roots_with_index(p) == pairs
    assert nt.all_primitive_roots(p) == {g for g, _ in pairs}
    first = {}
    for g, e in pairs:
        assert nt.index_mod4(p, g) == ref_index_mod4(p, g) == e
        first.setdefault(e, g)
    assert sorted(first) == [1, 3]
    for g in first.values():
        assert nt.cyclotomic_masks(p, g) == ref_cyclotomic_masks(p, g)


@pytest.mark.parametrize("p", [3, 7, 11])
def test_one_walk_lists_the_roots_of_primes_3_mod_4(p):
    assert nt.all_primitive_roots(p) == {g for g, _ in ref_roots_with_index(p)}


@pytest.mark.parametrize("p,expected", [(5, {2, 3}), (13, {2, 6, 7, 11}), (3, {2})])
def test_all_primitive_roots_examples(p, expected):
    assert primitive_roots_by_order(p) == expected
    assert nt.all_primitive_roots(p) == expected


def test_primitive_root_count_is_totient():
    def totient(n):
        return sum(1 for e in range(1, n + 1) if math.gcd(e, n) == 1)

    for p in (5, 13, 29, 53, 173):
        assert len(nt.all_primitive_roots(p)) == totient(p - 1)


def test_primitive_root_functions_reject_composites():
    for bad in (1, 4, 9, 15):
        with pytest.raises(ValueError):
            nt.smallest_primitive_root(bad)
        with pytest.raises(ValueError):
            nt.all_primitive_roots(bad)


# ------------------------------------------------------- legendre symbol

def test_legendre_examples():
    assert nt.legendre_symbol(0, 5) == 0
    for p in (3, 5, 13, 29):
        assert nt.legendre_symbol(1, p) == 1
    # Euler criterion oracle: 2^6 mod 13 = 12 = -1
    assert pow(2, 6, 13) == 12
    assert nt.legendre_symbol(2, 13) == -1


def test_legendre_matches_square_enumeration():
    for p in (5, 13, 29, 53):
        squares = {x * x % p for x in range(1, p)}
        for i in range(2 * p):
            expected = 0 if i % p == 0 else (1 if i % p in squares else -1)
            assert nt.legendre_symbol(i, p) == expected


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        nt.legendre_symbol(3, 2)
    with pytest.raises(ValueError):
        nt.legendre_symbol(3, 15)


# ------------------------------------------------------- eligible primes

def test_eligible_primes_examples():
    assert nt.eligible_primes(60) == [5, 13, 29, 53]
    assert nt.eligible_primes(500) == ELIGIBLE_500
    assert nt.eligible_primes(4) == []


def test_eligible_primes_matches_brute_filter():
    def brute(limit):
        out = []
        for p in range(2, limit + 1):
            if not trial_division_is_prime(p):
                continue
            a = math.isqrt(p - 4) if p >= 4 else 0
            if p >= 5 and a * a == p - 4 and a % 2 == 1:
                out.append(p)
        return out

    assert nt.eligible_primes(2000) == brute(2000)


def test_eligible_primes_are_5_mod_8_with_odd_k():
    for p in nt.eligible_primes(2000):
        assert p % 8 == 5
        assert ((p - 1) // 4) % 2 == 1
        assert nt.is_eligible_prime(p)
    assert not nt.is_eligible_prime(17)  # 17 = 1 + 16 needs b = +-2


# --------------------------------------------------- quartic decomposition

def representations(p):
    """Integer-search oracle: all (a, b) with a^2 + 4b^2 = p."""
    out = set()
    for a in range(-p, p + 1):
        rest = p - a * a
        if rest < 0 or rest % 4:
            continue
        b2 = rest // 4
        b = math.isqrt(b2)
        if b * b == b2:
            out |= {(a, b), (a, -b)}
    return out


@pytest.mark.parametrize("p,g,a,b", [(5, 2, 1, 1), (5, 3, 1, -1), (13, 2, -3, 1)])
def test_quartic_decomposition_frozen_signs(p, g, a, b):
    q = nt.quartic_decomposition(p, g)
    assert (q.a, q.b) == (a, b)


def test_quartic_decomposition_29_magnitudes():
    assert {(a, b) for a, b in representations(29) if b in (1, -1)} == \
        {(5, 1), (5, -1), (-5, 1), (-5, -1)}
    q = nt.quartic_decomposition(29, 2)
    assert abs(q.a) == 5 and abs(q.b) == 1


def test_quartic_decomposition_invariants():
    for p in nt.eligible_primes(300):
        for g in sorted(nt.all_primitive_roots(p))[:4]:
            q = nt.quartic_decomposition(p, g)
            assert q.a * q.a + 4 * q.b * q.b == p
            assert q.a % 4 == 1
            assert q.b in (1, -1)
            assert q.k == (p - 1) // 4
            assert (q.a, q.b) in representations(p)


def test_quartic_decomposition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nt.quartic_decomposition(17, 3)  # prime but not a^2 + 4
    with pytest.raises(ValueError):
        nt.quartic_decomposition(13, 3)  # 3 has order 3 mod 13


def test_quartic_params_rejects_what_p_and_b_rule_out():
    # p - 4 must be an odd square: 8 = (-2)^2 + 4 is refused for its even root
    for p in (1, 3, 4, 8, 17, -5):
        with pytest.raises(ValueError):
            nt.QuarticParams(p=p, b=1, g=2)
    for b in (0, 2):
        with pytest.raises(ValueError):
            nt.QuarticParams(p=13, b=b, g=2)


def test_quartic_params_derives_k_and_a_from_p():
    for p in nt.eligible_primes(1100):
        g0 = nt.smallest_primitive_root(p)
        for g in (g0, pow(g0, -1, p)):
            q = nt.quartic_decomposition(p, g)
            assert q.k == (p - 1) // 4
            assert q.a * q.a + 4 == p
            assert q.a % 4 == 1


def test_quartic_params_flipping_b_keeps_k_and_a():
    for p in nt.eligible_primes(1100):
        q = nt.quartic_decomposition(p, nt.smallest_primitive_root(p))
        flipped = dataclasses.replace(q, b=-q.b)
        assert (flipped.p, flipped.k, flipped.a, flipped.b) == (q.p, q.k, q.a, -q.b)


def test_quartic_params_stores_only_p_b_g():
    assert [f.name for f in dataclasses.fields(nt.QuarticParams)] == ["p", "b", "g"]
    with pytest.raises(TypeError):
        nt.QuarticParams(p=13, k=3, a=-3, b=1, g=2)


# ------------------------------------------------------ cyclotomic classes

def test_classes_frozen_small_cases():
    c5 = nt.cyclotomic_classes(5, 2)
    assert [sorted(cl) for cl in c5.classes] == [[1], [2], [4], [3]]
    c13 = nt.cyclotomic_classes(13, 2)
    assert [sorted(cl) for cl in c13.classes] == \
        [[1, 3, 9], [2, 5, 6], [4, 10, 12], [7, 8, 11]]


def test_classes_match_power_enumeration():
    for p, g in [(5, 3), (13, 7), (29, 2), (53, 2)]:
        k = (p - 1) // 4
        expected = [frozenset(pow(g, 4 * i + j, p) for i in range(k)) for j in range(4)]
        assert list(nt.cyclotomic_classes(p, g).classes) == expected


def test_classes_partition_and_coset_structure():
    for p in nt.eligible_primes(200):
        for g in sorted(nt.all_primitive_roots(p))[:3]:
            c = nt.cyclotomic_classes(p, g)
            union = set()
            for cl in c.classes:
                assert len(cl) == (p - 1) // 4
                assert not (union & cl)
                union |= cl
            assert union == set(range(1, p))
            d0 = c.classes[0]
            for j in (1, 2, 3):
                assert c.classes[j] == {x * pow(g, j, p) % p for x in d0}


def test_classes_legendre_consistency():
    for p, g in [(13, 2), (29, 2), (53, 2)]:
        c = nt.cyclotomic_classes(p, g)
        for i in range(1, p):
            expected = 1 if i in c.quadratic_residues else -1
            assert nt.legendre_symbol(i, p) == expected


def test_classes_reject_bad_inputs():
    with pytest.raises(ValueError):
        nt.cyclotomic_classes(7, 3)  # 7 = 3 mod 4
    with pytest.raises(ValueError):
        nt.cyclotomic_classes(13, 5)  # 5 is not a primitive root of 13


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(p, g) for p in [5, 13, 29] for g in sorted(primitive_roots_by_order(p))]))
def test_classes_partition_property(pg):
    p, g = pg
    c = nt.cyclotomic_classes(p, g)
    assert set().union(*c.classes) == set(range(1, p))
    assert sum(len(cl) for cl in c.classes) == p - 1
