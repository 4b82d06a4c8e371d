"""Base-b digit statistics of rationals a/m with purely periodic expansions.

Digits come from exact integer arithmetic on the residue orbit of a mod m:
digit n is floor(b * (a b^(n-1) mod m) / m).  Occurrence counting streams
the digits once with a rolling base-b window value, so memory stays O(1)
and time O(N + k) for a length-k pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from .bounds import DECAY_COEFF
from .errors import NotCoprime, OutOfRange
from .numtheory import PrimeSet, factor_smooth


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
        # one character per digit; only sensible for base <= 10
        if not all(ch in "0123456789" for ch in text):
            raise OutOfRange(f"pattern {text!r} must be decimal digits, one per character")
        return cls(base, tuple(int(ch) for ch in text))

    def __len__(self) -> int:
        return len(self.digits)

    def value(self) -> int:
        v = 0
        for d in self.digits:
            v = v * self.base + d
        return v


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


def digit_stream(a: int, m: int, b: int) -> Iterator[int]:
    """Digits of a/m in base b, one residue multiplication each."""
    _check_expansion_args(a, m, b)
    r = a
    while True:
        d, r = divmod(b * r, m)
        yield d


def count_occurrences(a: int, m: int, pattern: DigitPattern, N: int) -> OccurrenceReport:
    """Number of n in [1, N] at which the pattern starts.

    Matches may extend past position N; digits beyond N are read as
    needed.  A single pass keeps a rolling window value: the leading digit
    is recovered as window // base^(k-1), so no digit buffer is held.
    """
    _check_expansion_args(a, m, pattern.base)
    if N < 1:
        raise OutOfRange("N must be positive")
    b = pattern.base
    k = len(pattern)
    target = pattern.value()
    head = b ** (k - 1)
    stream = digit_stream(a, m, b)
    window = 0
    for _ in range(k):
        window = window * b + next(stream)
    count = 0
    if window == target:
        count += 1
    for _ in range(N - 1):
        window = (window % head) * b + next(stream)
        if window == target:
            count += 1
    expected = N / b**k
    return OccurrenceReport(count, expected, count - expected, N, pattern)


def deviation_report(
    a: int, m: int, pattern: DigitPattern, N: int, P: PrimeSet, b: int
) -> DeviationReport:
    """Occurrence count plus the theorem-shaped envelope N exp(-c (log log m)^(3/2)).

    m must be P-smooth and b must equal the pattern base.
    """
    if b != pattern.base:
        raise OutOfRange(f"b={b} disagrees with pattern base {pattern.base}")
    factor_smooth(m, P)
    occurrence = count_occurrences(a, m, pattern, N)
    envelope = N * math.exp(-DECAY_COEFF * math.log(math.log(m)) ** 1.5) if m > 2 else float(N)
    dev = abs(occurrence.deviation)
    return DeviationReport(occurrence, envelope, dev / envelope, dev <= envelope)


def digit_frequencies(a: int, m: int, b: int, N: int) -> Sequence[int]:
    """Counts of each digit value among the first N digits of a/m."""
    _check_expansion_args(a, m, b)
    if N < 1:
        raise OutOfRange("N must be positive")
    counts = [0] * b
    stream = digit_stream(a, m, b)
    for _ in range(N):
        counts[next(stream)] += 1
    return counts
