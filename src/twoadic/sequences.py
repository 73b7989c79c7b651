"""Periodic binary sequences and the interleaved construction built on them.

A sequence of period N is stored as a packed int whose bit i is s(i), with the
period tracked separately (leading zero bits would otherwise vanish). All
operators work on logical indices, so the packed form is an implementation
detail. Every operator here is O(N): shifts and complements are word-wide int
operations, and conversions to and from bit strings, as well as interleaving,
go through the binary text of the packed value. generalized_interleaved is the
one interleaved constructor; every w of Su's construction, admissible or
forced, is its w = 0000 interleave XOR a mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .numtheory import (
    QuarticParams,
    cyclotomic_masks,
    quartic_decomposition,
    smallest_primitive_root,
)

__all__ = [
    "BinarySequence",
    "ConstructionParams",
    "ADMISSIBLE_W",
    "dhl_sequence",
    "left_shift",
    "add_constant",
    "interleave",
    "deinterleave",
    "construction_params",
    "su_sequence",
    "generalized_interleaved",
    "parse_sequence_literal",
    "sequence_literal",
]

# The four offset vectors w with w(0) = w(2) and w(1) = w(3).
ADMISSIBLE_W = ((0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1))

# Supports of the four Ding-Helleseth-Lam sequences, as cyclotomic class indices.
_DHL_SUPPORTS = {1: (0, 1), 2: (0, 3), 3: (1, 2), 4: (2, 3)}

# Byte maps between binary text (b"0"/b"1") and raw bit values (0/1).
_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class BinarySequence:
    """One period of a binary sequence; bit i of ``value`` is s(i)."""

    period: int
    value: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if not 0 <= self.value < 1 << self.period:
            raise ValueError("value must fit in `period` bits")

    @classmethod
    def from_bits(cls, bits) -> "BinarySequence":
        bits = list(bits)
        for i, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        # bits[0] is s(0), the least significant bit, so the text is reversed
        text = bytes(bits)[::-1].translate(_BITS_TO_TEXT)
        return cls(period=len(bits), value=int(text, 2) if text else 0)

    @classmethod
    def from_support(cls, period: int, support) -> "BinarySequence":
        text = bytearray(b"0" * period)
        for i in support:
            if not 0 <= i < period:
                raise ValueError(f"support element {i} outside [0, {period})")
            text[period - 1 - i] = 0x31  # b"1", at the text position of bit i
        return cls(period=period, value=int(text, 2) if text else 0)

    def bit(self, i: int) -> int:
        """s(i) with cyclic indexing."""
        return (self.value >> (i % self.period)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(str(self).encode().translate(_TEXT_TO_BITS))

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def __len__(self) -> int:
        return self.period

    def __str__(self) -> str:
        return format(self.value, f"0{self.period}b")[::-1]


def left_shift(s: BinarySequence, d: int) -> BinarySequence:
    """Cyclic left shift: output(i) = s(i + d)."""
    n = s.period
    d %= n
    if d == 0:
        return s
    mask = (1 << n) - 1
    # Shifting the sequence left rotates the packed value right.
    return BinarySequence(n, ((s.value >> d) | (s.value << (n - d))) & mask)


def add_constant(s: BinarySequence, c: int) -> BinarySequence:
    """XOR the constant bit c onto every term (c = 1 complements)."""
    if c not in (0, 1):
        raise ValueError("constant must be 0 or 1")
    if c == 0:
        return s
    return BinarySequence(s.period, s.value ^ ((1 << s.period) - 1))


def interleave(s0: BinarySequence, s1: BinarySequence, s2: BinarySequence,
               s3: BinarySequence) -> BinarySequence:
    """Read the v x 4 column matrix row by row: output(4t + j) = s_j(t)."""
    cols = (s0, s1, s2, s3)
    v = s0.period
    if any(c.period != v for c in cols):
        raise ValueError("all four columns must share one period")
    # In most-significant-first text, bit 4t + j sits at 4(v - 1 - t) + 3 - j
    # and bit t of column j at v - 1 - t, so column j fills every fourth
    # character from 3 - j onwards.
    text = bytearray(4 * v)
    for j, c in enumerate(cols):
        text[3 - j::4] = format(c.value, f"0{v}b").encode()
    return BinarySequence(4 * v, int(text, 2))


def deinterleave(s: BinarySequence) -> tuple[BinarySequence, ...]:
    """Inverse of interleave; requires 4 | N."""
    if s.period % 4 != 0:
        raise ValueError("period must be divisible by 4")
    v = s.period // 4
    text = format(s.value, f"0{s.period}b")
    return tuple(BinarySequence(v, int(text[3 - j::4], 2)) for j in range(4))


def dhl_sequence(p: int, g: int, kind: int) -> BinarySequence:
    """Ding-Helleseth-Lam sequence of period p.

    kind selects the support: 1 -> D0 u D1, 2 -> D0 u D3, 3 -> D1 u D2,
    4 -> D2 u D3. Out-of-phase autocorrelation values are 1 and -3.
    """
    if kind not in _DHL_SUPPORTS:
        raise ValueError(f"kind must be 1..4, got {kind}")
    return _dhl_from_masks(p, cyclotomic_masks(p, g), kind)


def _dhl_from_masks(p: int, masks: tuple[int, int, int, int], kind: int) -> BinarySequence:
    i, j = _DHL_SUPPORTS[kind]
    return BinarySequence(p, masks[i] | masks[j])


@dataclass(frozen=True)
class ConstructionParams:
    """Everything defining one interleaved instance: the quartic (p, b, g) and w.

    k, a and d follow from p; w is one of the four admissible offset vectors.
    """

    quartic: QuarticParams
    w: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if tuple(self.w) not in ADMISSIBLE_W:
            raise ValueError("w must satisfy w(0) = w(2) and w(1) = w(3)")

    @property
    def p(self) -> int:
        return self.quartic.p

    @property
    def d(self) -> int:
        return _su_shift(self.quartic.p)

    @property
    def g(self) -> int:
        return self.quartic.g

    @property
    def b(self) -> int:
        return self.quartic.b


def _su_shift(p: int) -> int:
    """d = (3p + 1) / 4, the canonical solution of 4d = 1 mod p."""
    return (3 * p + 1) // 4


def construction_params(p: int, g: int | None = None,
                        w=(0, 1, 0, 1)) -> ConstructionParams:
    """Resolve (p, g, w) into full construction parameters.

    g defaults to the smallest primitive root; b comes from Jacobi's
    congruence in quartic_decomposition, and k, a and d follow from p. The
    quartic data is kept for the last (p, g), which the grids resolve once
    for all four w.
    """
    if g is None:
        g = smallest_primitive_root(p)
    return ConstructionParams(quartic=_quartic(p, g), w=tuple(w))


@functools.lru_cache(maxsize=1)
def _quartic(p: int, g: int) -> QuarticParams:
    # Called through the module global, so a patched or wrapped
    # quartic_decomposition sees every miss.
    return quartic_decomposition(p, g)


def su_sequence(params: ConstructionParams) -> BinarySequence:
    """The interleaved sequence of period 4p built from DHL sequences.

    Columns are (s3 + w0, L^d s2 + w1, L^2d s1 + w2, L^3d s1 + w3); the last
    two columns both come from the kind-1 sequence.
    """
    return _su_instance(params.p, params.g, params.w)


def _su_instance(p: int, g: int, w: tuple[int, int, int, int]) -> BinarySequence:
    """su_sequence at (p, g) for any bits w: adding w_j to column j flips bit
    4t + j for every t, so it is the w = 0000 interleave XOR that mask. The
    masks of the last four (p, w) are kept, so every root of one p reuses its
    prime's masks."""
    return BinarySequence(4 * p, _su_base(p, g) ^ _w_mask(p, w))


@functools.lru_cache(maxsize=4)
def _w_mask(p: int, w: tuple[int, int, int, int]) -> int:
    # In most-significant-first text, each group of four bits reads w3 w2 w1 w0.
    return int("".join(map(str, w[::-1])) * p, 2)


@functools.lru_cache(maxsize=1)
def _su_base(p: int, g: int) -> int:
    """Bits of the w = 0000 interleave of (p, g), kept for the last (p, g)."""
    d = _su_shift(p)
    return generalized_interleaved(p, g, (3, 2, 1, 1), (0, d, 2 * d, 3 * d),
                                   (0, 0, 0, 0)).value


def generalized_interleaved(p: int, g: int, kinds, shifts, w, *,
                            allow_any_w: bool = False) -> BinarySequence:
    """Interleave L^shifts[j](s^kinds[j]) + w[j] for arbitrary kind/shift picks.

    su_sequence is one such pick, made once per (p, g) by _su_base.
    Offset vectors outside the admissible four need allow_any_w=True.
    """
    kinds = tuple(kinds)
    shifts = tuple(shifts)
    w = tuple(w)
    if len(kinds) != 4 or len(shifts) != 4 or len(w) != 4:
        raise ValueError("kinds, shifts and w must have four entries each")
    if any(k not in _DHL_SUPPORTS for k in kinds):
        raise ValueError("kinds must be in 1..4")
    if any(bit not in (0, 1) for bit in w):
        raise ValueError("w entries must be bits")
    if not allow_any_w and w not in ADMISSIBLE_W:
        raise ValueError("w must satisfy w(0) = w(2) and w(1) = w(3); "
                         "pass allow_any_w=True to override")
    masks = cyclotomic_masks(p, g)
    base = {k: _dhl_from_masks(p, masks, k) for k in set(kinds)}
    cols = [add_constant(left_shift(base[kinds[j]], shifts[j]), w[j]) for j in range(4)]
    return interleave(*cols)


def parse_sequence_literal(text: str) -> BinarySequence:
    """Parse the fixture literal: a '0'/'1' line, optionally 'N=<int>;' prefixed.

    Blank lines and lines starting with '#' are skipped, so files written by
    the CLI (parameter header plus payload) round-trip.
    """
    payload = None
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            payload = line
            break
    if payload is None:
        raise ValueError("no sequence payload found")
    declared = None
    if ";" in payload:
        head, payload = payload.split(";", 1)
        digits = head[2:]
        if not (head.startswith("N=") and digits.isascii() and digits.isdigit()):
            raise ValueError(f"bad sequence prefix {head!r}, expected 'N=<int>'")
        declared = int(digits)
    if not payload or set(payload) - {"0", "1"}:
        raise ValueError("sequence payload must be a nonempty string of 0/1")
    if declared is not None and declared != len(payload):
        raise ValueError(f"declared N={declared} but payload has {len(payload)} bits")
    return BinarySequence(len(payload), int(payload[::-1], 2))


def sequence_literal(s: BinarySequence, *, include_period: bool = True) -> str:
    """Serialize to the fixture literal format."""
    body = str(s)
    return f"N={s.period};{body}" if include_period else body
