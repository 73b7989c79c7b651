"""Number-theoretic groundwork for the interleaved sequence constructions.

Primality, primitive roots, Legendre symbols, the decomposition p = a^2 + 4b^2
with b = +-1, and the order-4 cyclotomic classes of Z_p*. All arithmetic is
exact on plain ints; nothing here is probabilistic.

One O(p) walk over the powers g0^i of the smallest primitive root g0, kept
for the most recent prime only, yields everything the grids read per prime:
the class masks, e = ind_g0(x) mod 4 for every x, and the primitive roots,
which are the g0^i with i coprime to p - 1. The cyclotomic classes depend on
the primitive root g only through e = ind_g0(g) mod 4, which is 1 or 3, and
D_j(g) = D_{e*j mod 4}(g0). The sign of b needs no walk: Jacobi's congruence
reads it from g^((p-1)/4) mod p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import compress

__all__ = [
    "is_prime",
    "is_primitive_root",
    "smallest_primitive_root",
    "all_primitive_roots",
    "legendre_symbol",
    "is_eligible_prime",
    "eligible_primes",
    "QuarticParams",
    "CyclotomicClasses",
    "quartic_decomposition",
    "cyclotomic_masks",
    "cyclotomic_classes",
]

# Witness set that makes Miller-Rabin deterministic for every n < 2**64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0 or n >= 1 << 64:
        raise ValueError("is_prime is deterministic only for 0 <= n < 2**64")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")


@functools.lru_cache(maxsize=1)
def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors by trial division (n here is always p - 1, small)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


def is_primitive_root(g: int, p: int) -> bool:
    """True iff g generates the full multiplicative group mod the odd prime p."""
    _require_odd_prime(p)
    return _generates(g, p)


def _generates(g: int, p: int) -> bool:
    """is_primitive_root for a p already known to be an odd prime."""
    g %= p
    return g != 0 and all(pow(g, (p - 1) // q, p) != 1 for q in _prime_factors(p - 1))


def smallest_primitive_root(p: int) -> int:
    _require_odd_prime(p)
    return next(g for g in range(2, p) if _generates(g, p))


def all_primitive_roots(p: int) -> set[int]:
    """The phi(p-1) generators of Z_p*, as canonical residues."""
    return {g for g, _ in _roots_with_index(p)}


def _roots_with_index(p: int) -> list[tuple[int, int]]:
    """(g, ind_g0(g) mod 4) for every primitive root g of the odd prime p,
    ascending in g, read from the walk of _cyclotomy."""
    return [(g, code & 3) for g, code in enumerate(_cyclotomy(p).codes) if code & 8]


def legendre_symbol(i: int, p: int) -> int:
    """Legendre symbol (i/p) in {-1, 0, +1} via Euler's criterion."""
    _require_odd_prime(p)
    i %= p
    if i == 0:
        return 0
    r = pow(i, (p - 1) // 2, p)
    return 1 if r == 1 else -1


@functools.lru_cache(maxsize=1)
def residue_codes(p: int) -> bytes:
    """Byte i is 0 for i = 0, 1 if i is a nonzero square mod p, else 2.

    The nonzero squares i^2 mod p for 1 <= i <= (p - 1)/2 are exactly the
    quadratic residues, so one pass over them replaces p Euler-criterion
    exponentiations. The table is read from the squares, never from the
    cyclotomic classes, so the checks that use it stay independent of the
    construction; like the cyclotomy, it is kept for the most recent prime.
    """
    _require_odd_prime(p)
    table = bytearray(b"\x02") * p
    table[0] = 0
    for i in range(1, (p + 1) // 2):
        table[i * i % p] = 1
    return bytes(table)


def is_eligible_prime(p: int) -> bool:
    """True iff p is prime and p = a^2 + 4 with a odd.

    These are exactly the primes p = 4k + 1 (k odd) admitting p = a^2 + 4b^2
    with b = +-1; the smallest are 5, 13, 29, 53, 173, 229, 293.
    """
    return p >= 5 and is_prime(p) and _is_odd_square_plus_4(p)


def _is_odd_square_plus_4(n: int) -> bool:
    """True iff n = a^2 + 4 with a odd, so n >= 5 and n = 1 mod 4."""
    a = math.isqrt(max(n - 4, 0))
    return a * a == n - 4 and a % 2 == 1


def eligible_primes(limit: int) -> list[int]:
    """All eligible primes <= limit, ascending.

    Enumerates a = 1, 3, 5, ... with a^2 + 4 <= limit instead of sieving.
    """
    out = []
    a = 1
    while a * a + 4 <= limit:
        p = a * a + 4
        if is_prime(p):
            out.append(p)
        a += 2
    return out


@dataclass(frozen=True)
class QuarticParams:
    """The tuple (p, b, g) with p = a^2 + 4b^2, b = +-1 and a odd.

    k = (p - 1) / 4 and a, the root of a^2 = p - 4 that is 1 mod 4, follow
    from p. The sign of b is pinned to the primitive root g through the
    quartic Jacobi sum, see quartic_decomposition.
    """

    p: int
    b: int
    g: int

    def __post_init__(self) -> None:
        if self.b not in (-1, 1):
            raise ValueError("b must be +1 or -1")
        if not _is_odd_square_plus_4(self.p):
            raise ValueError(f"p must be a^2 + 4 with a odd, got {self.p}")

    @property
    def k(self) -> int:
        return (self.p - 1) // 4

    @property
    def a(self) -> int:
        a = math.isqrt(self.p - 4)
        return a if a % 4 == 1 else -a


@dataclass(frozen=True)
class CyclotomicClasses:
    """The four order-4 cyclotomic classes D_0..D_3 partitioning Z_p*.

    classes[j] = { g^(4i + j) mod p : 0 <= i < (p - 1) / 4 }.
    """

    p: int
    g: int
    classes: tuple[frozenset[int], frozenset[int], frozenset[int], frozenset[int]]

    @property
    def quadratic_residues(self) -> frozenset[int]:
        # QRs are the even-index classes: squares land on even exponents of g.
        return self.classes[0] | self.classes[2]


# _CLASS_TEXT[j] maps byte j to b"1" and every other byte to b"0": it reads
# the class labels here and residue_codes' codes in verify. _LABEL maps a code
# of the walk to its label, ind_g0(x) mod 4 or 4 for x = 0, clearing the root bit.
_CLASS_TEXT = tuple(bytes(0x31 if v == j else 0x30 for v in range(256)) for j in range(4))
_LABEL = bytes(v & 7 for v in range(256))


@dataclass(frozen=True)
class _Cyclotomy:
    """The walk over the powers of the smallest primitive root g0 of an odd prime.

    Byte x of codes is ind_g0(x) mod 4, plus 8 iff x is a primitive root, and
    4 for x = 0; bit x of masks[j] is set iff x is in D_j(g0).
    """

    codes: bytes
    masks: tuple[int, int, int, int]


@functools.lru_cache(maxsize=1)
def _cyclotomy(p: int) -> _Cyclotomy:
    """One pass over Z_p* for the odd prime p (smallest_primitive_root checks it).

    g0^i is a primitive root iff i is coprime to p - 1, so the code of each
    exponent i is i mod 4 plus the root bit, cleared before the walk at each
    multiple of a prime factor of p - 1. The grids are p-major, so one cached
    prime serves all of its (g, w).
    """
    g0 = smallest_primitive_root(p)
    by_exponent = bytearray(b"\x08\x09\x0a\x0b" * (p // 4 + 1))[:p - 1]
    for q in _prime_factors(p - 1):
        by_exponent[::q] = by_exponent[::q].translate(_LABEL)
    codes = bytearray(b"\x04") * p
    x = 1
    for code in by_exponent:
        codes[x] = code
        x = x * g0 % p

    text = codes.translate(_LABEL)[::-1]  # most significant first: x = p - 1 leads
    masks = tuple(int(text.translate(_CLASS_TEXT[j]), 2) for j in range(4))
    return _Cyclotomy(codes=bytes(codes), masks=masks)


def index_mod4(p: int, g: int) -> int:
    """e = ind_g0(g) mod 4, 1 or 3, for a prime p = 1 mod 4 and a primitive
    root g that the caller has validated; the construction at (p, g) depends
    on g only through e. It is read from the walk of _cyclotomy.
    """
    return _cyclotomy(p).codes[g % p] & 3


def cyclotomic_masks(p: int, g: int) -> tuple[int, int, int, int]:
    """D_0..D_3 for a prime p = 1 mod 4 and a primitive root g, as p-bit ints.

    Bit x of entry j is set iff x is in D_j. D_j(g) = D_{e*j mod 4}(g0), so
    e = 3 swaps D_1 and D_3 of the smallest primitive root.
    """
    _require_odd_prime(p)
    if p % 4 != 1:
        raise ValueError(f"order-4 cyclotomy needs p = 1 mod 4, got {p}")
    if not _generates(g, p):
        raise ValueError(f"{g} is not a primitive root of {p}")
    masks, e = _cyclotomy(p).masks, index_mod4(p, g)
    return masks[0], masks[e], masks[2], masks[3 * e % 4]


def cyclotomic_classes(p: int, g: int) -> CyclotomicClasses:
    """Build D_0..D_3 for a prime p = 1 mod 4 and a primitive root g."""
    masks = cyclotomic_masks(p, g)
    return CyclotomicClasses(p=p, g=g, classes=tuple(_members(m, p) for m in masks))


def _members(mask: int, p: int) -> frozenset[int]:
    """The x in [0, p) whose bit is set in mask."""
    return frozenset(compress(range(p), map("1".__eq__, format(mask, f"0{p}b")[::-1])))


def quartic_decomposition(p: int, g: int) -> QuarticParams:
    """Write p = a^2 + 4b^2 with a = 1 mod 4 and the sign of b tied to g.

    Let chi be the quartic character with chi(g) = i. The Jacobi sum
    J(chi, chi) = sum_t chi(t) chi(1 - t) is a Gaussian integer of norm p
    whose even imaginary part is 2b after normalising the real part to
    1 mod 4. That b is the one appearing in the closed-form autocorrelation
    of the interleaved construction.

    Jacobi's congruence gives b without summing. Let k = (p-1)/4 and
    z = g^k mod p, so z^2 = -1. Modulo the prime (p, i - z) of Z[i],
    chi(t) = i^ind_g(t) = z^ind_g(t) = t^k, so J = sum_t t^k (1-t)^k, a
    polynomial in t of degree 2k < p - 1 without constant term; each power
    sum sum_t t^m with 0 < m < p - 1 is 0 mod p, so J = 0 mod (p, i - z).
    With J = a + 2bi that is a + 2bz = 0, so a*z = 2b (mod p).
    """
    if not is_eligible_prime(p):
        raise ValueError(f"{p} is not prime of the form a^2 + 4 with a odd")
    if not _generates(g, p):
        raise ValueError(f"{g} is not a primitive root of {p}")
    params = QuarticParams(p=p, b=1, g=g)
    t = params.a * pow(g, params.k, p) % p
    assert t in (2, p - 2), "Jacobi's congruence forces a*z = 2b with b = +-1"
    return params if t == 2 else replace(params, b=-1)
