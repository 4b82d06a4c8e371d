"""Base-b digit statistics of rationals a/m with purely periodic expansions.

Everything is read from the exact residue orbit r_n = a b^(n-1) mod m,
taken in blocks from the shared kernel (sumeval._orbit_blocks), in memory
of one block.  Digit n is b r_n // m.  The k digits from position n are
the first k digits of r_n / m, so they read a pattern P (its base-b value)
exactly when P <= b^k r_n / m < P + 1, that is when r_n lies in the
integer interval [ceil(P m / b^k), ceil((P + 1) m / b^k)): a pattern count
compares each residue with two edges and forms no digit.
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

#: Most counters of digit_frequencies (an 8 MB list): b r < 2^20 * 3.04e9 < 2^63
#: for every int64 residue r, so the digit b r // m forms in the residues' kind.
_MAX_FREQUENCY_BASE = 2**20


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


def count_occurrences(a: int, m: int, pattern: DigitPattern, N: int) -> OccurrenceReport:
    """Number of n in [1, N] at which the pattern starts: of the first N
    orbit residues, those in the pattern's interval.  A residue holds every
    later digit, so matches that extend past position N count too."""
    _check_expansion_args(a, m, pattern.base)
    if N < 1:
        raise OutOfRange("N must be positive")
    b = pattern.base
    k = len(pattern)
    P = 0
    for d in pattern.digits:
        P = P * b + d
    lo, hi = -(-P * m // b**k), -(-(P + 1) * m // b**k)
    count = 0
    for r in _orbit_blocks(a, b % m, m, N):
        count += int(np.count_nonzero((r >= lo) & (r < hi)))
    expected = N / b**k
    return OccurrenceReport(count, expected, count - expected, N, pattern)


def deviation_report(a: int, m: int, pattern: DigitPattern, N: int, P: PrimeSet) -> DeviationReport:
    """Occurrence count plus the theorem-shaped envelope N exp(-c (log log m)^(3/2)),
    for P-smooth m in the pattern's base."""
    _check_expansion_args(a, m, pattern.base)
    factor_smooth(m, P)
    occurrence = count_occurrences(a, m, pattern, N)
    envelope = N * decay_envelope(m)
    dev = abs(occurrence.deviation)
    return DeviationReport(occurrence, envelope, dev / envelope, dev <= envelope)


def digit_frequencies(a: int, m: int, b: int, N: int) -> Sequence[int]:
    """Counts of each digit value among the first N digits of a/m, b <= 2^20."""
    _check_expansion_args(a, m, b)
    if N < 1:
        raise OutOfRange("N must be positive")
    if b > _MAX_FREQUENCY_BASE:
        raise OutOfRange(f"base must be at most {_MAX_FREQUENCY_BASE} for digit frequencies, got {b}")
    totals = np.zeros(b, dtype=np.int64)
    for r in _orbit_blocks(a, b % m, m, N):
        seen = np.bincount((b * r // m).astype(np.int64, copy=False))
        totals[: seen.size] += seen
    return totals.tolist()
