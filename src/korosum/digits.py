"""Base-b digit statistics of rationals a/m with purely periodic expansions.

Digits come from exact integer arithmetic on the residue orbit of a mod m:
digit n is floor(b * (a b^(n-1) mod m) / m).  The orbit is read in blocks
from the shared kernel (sumeval._orbit_blocks), so memory stays
O(block + k) for a length-k pattern; a pattern matches where k shifted
comparisons of the block, with the previous block's last k - 1 digits in
front, all agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .bounds import decay_envelope
from .errors import NotCoprime, OutOfRange
from .numtheory import PrimeSet, factor_smooth
from .sumeval import _orbit_blocks

#: Largest value an int64 holds; the digit b * r // m of a residue r < m is
#: formed in int64 only while b * m stays below it.
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class DigitPattern:
    """A finite digit string in a fixed base."""

    base: int
    digits: Tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise OutOfRange("base must be at least 2")
        if not self.digits:
            raise OutOfRange("pattern must be non-empty")
        if any(d < 0 or d >= self.base for d in self.digits):
            raise OutOfRange("pattern digits must lie in [0, base)")

    @classmethod
    def from_string(cls, text: str, base: int) -> "DigitPattern":
        """One character per digit: 0-9, then a-z in either case for 10-35."""
        if not text.isascii() or not all(ch.isalnum() and int(ch, 36) < base for ch in text):
            raise OutOfRange(f"pattern {text!r} must be one character per digit below {base}: "
                             "0-9, then a-z")
        return cls(base, tuple(int(ch, 36) for ch in text))

    def __len__(self) -> int:
        return len(self.digits)


@dataclass
class OccurrenceReport:
    """Count of pattern starts in the first N positions vs. N / base^k."""

    count: int
    expected: float
    deviation: float
    N: int
    pattern: DigitPattern


@dataclass
class DeviationReport:
    """Occurrence count against the advisory decay envelope.

    The envelope's implicit constant is unknown, so `ratio` (deviation over
    envelope) is the honest statistic; `inside_envelope` is advisory only.
    """

    occurrence: OccurrenceReport
    envelope: float
    ratio: float
    inside_envelope: bool


def _check_expansion_args(a: int, m: int, b: int) -> None:
    if m < 2:
        raise OutOfRange("m must be at least 2")
    if not 1 <= a < m:
        raise OutOfRange(f"a must lie in [1, m), got {a}")
    if b < 2:
        raise OutOfRange("base must be at least 2")
    if math.gcd(b, m) != 1:
        raise NotCoprime(b, m)


def digit_at(a: int, m: int, b: int, n: int) -> int:
    """Digit n (1-indexed) of the base-b expansion of a/m."""
    _check_expansion_args(a, m, b)
    if n < 1:
        raise OutOfRange("position must be >= 1")
    return b * (a * pow(b, n - 1, m) % m) // m


def _digit_blocks(a: int, m: int, b: int, count: int):
    """Digits 1..count of a/m in base b, digit n = b r_n // m of the residue
    r_n = a b^(n-1) mod m, in blocks from the orbit kernel; the products
    b * r are taken in Python ints when b * m leaves int64."""
    wide = b * m > _INT64_MAX
    for block in _orbit_blocks(a, b % m, m, count):
        yield b * (block.astype(object) if wide else block) // m


def count_occurrences(a: int, m: int, pattern: DigitPattern, N: int) -> OccurrenceReport:
    """Number of n in [1, N] at which the pattern starts.

    Matches may extend past position N: the first N + k - 1 digits are read.
    """
    _check_expansion_args(a, m, pattern.base)
    if N < 1:
        raise OutOfRange("N must be positive")
    b = pattern.base
    k = len(pattern)
    count = 0
    tail = np.empty(0, dtype=np.int64)  # the last k - 1 digits read so far
    for block in _digit_blocks(a, m, b, N + k - 1):
        window = np.concatenate((tail, block))
        starts = window.size - k + 1
        if starts > 0:
            hit = window[:starts] == pattern.digits[0]
            for j in range(1, k):
                if not hit.any():
                    break
                hit &= window[j : j + starts] == pattern.digits[j]
            count += int(np.count_nonzero(hit))
        tail = window[max(0, starts) :]
    expected = N / b**k
    return OccurrenceReport(count, expected, count - expected, N, pattern)


def deviation_report(a: int, m: int, pattern: DigitPattern, N: int, P: PrimeSet) -> DeviationReport:
    """Occurrence count plus the theorem-shaped envelope N exp(-c (log log m)^(3/2)),
    for P-smooth m in the pattern's base."""
    factor_smooth(m, P)
    occurrence = count_occurrences(a, m, pattern, N)
    envelope = N * decay_envelope(m)
    dev = abs(occurrence.deviation)
    return DeviationReport(occurrence, envelope, dev / envelope, dev <= envelope)


def digit_frequencies(a: int, m: int, b: int, N: int) -> Sequence[int]:
    """Counts of each digit value among the first N digits of a/m."""
    _check_expansion_args(a, m, b)
    if N < 1:
        raise OutOfRange("N must be positive")
    totals = np.zeros(b, dtype=np.int64)
    for block in _digit_blocks(a, m, b, N):
        seen = np.bincount(block.astype(np.int64, copy=False))
        totals[: seen.size] += seen
    return totals.tolist()
