"""Normal-number candidates alpha = sum_k 1/(c_k b^(m_k)) and their diagnostics.

The ancillary sequence x_n tracks the fractional parts {b^n alpha} exactly:
zero before the first block, then a_k b^j / c_k within block k, with the
block numerators a_k advanced by one exact congruence per block.  Star
discrepancy of the resulting point sets is the quantity whose decay the
construction is about.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NotSmooth, OutOfRange, ScheduleViolation
from .numtheory import PrimeSet, factor_smooth, factorize
from .sumeval import _BLOCK, _orbit_blocks, eval_sum

#: Explicit constant adopted for the discrepancy-from-exponential-sums
#: inequality; 3 is a classical admissible choice.
ERDOS_TURAN_CONSTANT = 3.0


class Schedule(NamedTuple):
    """Generators (c_k, m_k), k >= 1, together with the prime environment.

    Hypotheses: c_k strictly increasing, P-smooth, c_k | c_{k+1}; m_k
    strictly increasing; gcd(b, p) = 1 for each prime.  epsilon is the
    slack used by the advisory ratio check in validate_schedule.

    Each generator is an int, the geometric base (g_k = base^k), or a
    tuple of explicit values (g_k = values[k-1]).  A schedule with an
    explicit generator is finite: it has K = min(len c, len m) blocks (over
    the explicit ones), and block K extends forever, so
    alpha = sum_{k<=K} 1/(c_k b^(m_k)) is rational.
    """

    b: int
    primes: PrimeSet
    c: Union[int, Tuple[int, ...]]
    m: Union[int, Tuple[int, ...]]
    epsilon: float = 0.1

    @classmethod
    def geometric(
        cls,
        b: int,
        c_base: int,
        m_base: int,
        primes: Optional[PrimeSet] = None,
        epsilon: float = 0.1,
    ) -> "Schedule":
        """c_k = c_base^k, m_k = m_base^k (the Stoneham-style shape)."""
        if primes is None:
            primes = PrimeSet(tuple(sorted(factorize(c_base))))
        return cls(b, primes, c_base, m_base, epsilon)

    @property
    def blocks(self) -> Optional[int]:
        """The number of blocks K of a finite schedule; None when unbounded."""
        sizes = [len(g) for g in (self.c, self.m) if not isinstance(g, int)]
        return min(sizes) if sizes else None

    def block(self, k: int) -> Tuple[int, int]:
        """(c_k, m_k) for 1 <= k <= K."""
        K = self.blocks
        if k < 1 or (K is not None and k > K):
            raise OutOfRange(f"the schedule has no block k={k}")
        return tuple(g**k if isinstance(g, int) else g[k - 1] for g in (self.c, self.m))


class AncillaryState(NamedTuple):
    """Block-k state: x_{m_k + j} = (a_k b^j mod c_k) / c_k."""

    k: int
    a_k: int
    position: int
    value: Fraction


class ScheduleValidation(NamedTuple):
    """Structural checks plus the advisory hypothesis-ratio trend."""

    horizon: int
    ratios: List[Tuple[int, float]]
    ratio_decreasing: bool
    notes: List[str]


class TraceResult(NamedTuple):
    """Star discrepancy at geometric checkpoints, with trend statistics."""

    rows: List[Tuple[int, float]]
    final_d_star: float
    overall_decreasing: bool


def _check_block(k: int, c_k: int, m_k: int, c_prev: int, m_prev: int) -> None:
    """Raise on the first structural hypothesis block k breaks, given block
    k - 1 (c_0 = 1, m_0 = 0): positive values, c_k strictly increasing,
    c_{k-1} | c_k, m_k strictly increasing."""
    if c_k < 1 or m_k < 1:
        raise ScheduleViolation("positive schedule values", k)
    if k > 1 and c_k <= c_prev:
        raise ScheduleViolation("c_k strictly increasing", k)
    if c_k % c_prev != 0:
        raise ScheduleViolation("c_{k-1} | c_k", k)
    if k > 1 and m_k <= m_prev:
        raise ScheduleViolation("m_k strictly increasing", k)


def validate_schedule(schedule: Schedule, K: int) -> ScheduleValidation:
    """Check every structural hypothesis for k <= K and k <= the schedule's
    block count, the horizon reported; raise on the first break.

    The limit hypothesis exp((1+eps) log c_k / log log c_k) / mu_k -> 0 is
    only observable as a finite trend, so its ratios are reported rather
    than enforced.
    """
    if K < 2:
        raise OutOfRange("horizon must be at least 2")
    for p in schedule.primes:
        if gcd(schedule.b, p) != 1:
            raise ScheduleViolation("gcd(b, p) = 1", 0)
    horizon = K if schedule.blocks is None else min(K, schedule.blocks)
    ratios: List[Tuple[int, float]] = []
    notes: List[str] = []
    prev_c, prev_m = 1, 0
    for k in range(1, horizon + 1):
        c_k, m_k = schedule.block(k)
        _check_block(k, c_k, m_k, prev_c, prev_m)
        try:
            factor_smooth(c_k, schedule.primes)
        except NotSmooth:
            raise ScheduleViolation("c_k P-smooth", k) from None
        mu_k = m_k - prev_m
        if c_k >= 3:
            log_c = math.log(c_k)
            log_num = (1.0 + schedule.epsilon) * log_c / math.log(log_c)
            try:
                ratio = math.exp(log_num) / mu_k
            except OverflowError:  # exp or mu_k past the float range: take logs
                log_ratio = log_num - math.log(mu_k)
                ratio = math.exp(log_ratio) if log_ratio < 709.0 else math.inf
            ratios.append((k, ratio))
        else:
            notes.append(f"k={k}: c_k={c_k} too small for the ratio hypothesis")
        prev_c, prev_m = c_k, m_k
    # demand both an overall drop and a majority of decreasing steps: the
    # first ratios can be degenerate artifacts of tiny c_k
    downs = sum(1 for (_, r0), (_, r1) in zip(ratios, ratios[1:]) if r1 < r0)
    steps = max(len(ratios) - 1, 1)
    decreasing = (
        len(ratios) >= 2 and ratios[-1][1] < ratios[0][1] and downs / steps > 0.5
    )
    if not decreasing:
        notes.append("hypothesis ratio not decreasing over the checked horizon")
    return ScheduleValidation(horizon, ratios, decreasing, notes)


def _segments(schedule: Schedule, N: int) -> Iterator[Tuple[int, int, int, int, int]]:
    """(k, a_k, c_k, start, stop) for the runs of x_0 .. x_N: x_n = 0 before
    the first block (k = 0, a_k = 0, c_k = 1), then
    x_n = (a_k b^(n - start) mod c_k) / c_k for start <= n < stop, with
    a_k = (b^{mu_k} a_{k-1} (c_k / c_{k-1}) + 1) mod c_k at each boundary.
    Each block's hypotheses are checked when the walk reaches it."""
    b, K = schedule.b, schedule.blocks
    n = min(max(schedule.block(1)[1], 0), N + 1)
    if n:
        yield 0, 0, 1, 0, n
    a_prev, c_prev, m_prev = 0, 1, 0
    k = 1
    while n <= N:
        c_k, m_k = schedule.block(k)
        _check_block(k, c_k, m_k, c_prev, m_prev)
        mu_k = m_k - m_prev
        a_k = (pow(b, mu_k, c_k) * a_prev * (c_k // c_prev) + 1) % c_k
        # block k runs from position m_k to m_{k+1} (the last block forever)
        stop = N + 1 if k == K else min(n + max(1, schedule.block(k + 1)[1] - m_k), N + 1)
        yield k, a_k, c_k, n, stop
        n = stop
        a_prev, c_prev, m_prev = a_k, c_k, m_k
        k += 1


def ancillary_states(schedule: Schedule, N: int) -> Iterator[AncillaryState]:
    """Exact states x_0 .. x_N (see _segments)."""
    if N < 0:
        raise OutOfRange("N must be non-negative")
    b = schedule.b
    for k, a_k, c_k, start, stop in _segments(schedule, N):
        r = a_k
        for n in range(start, stop):
            yield AncillaryState(k, a_k, n, Fraction(r, c_k))
            r = r * b % c_k


def ancillary_sequence(schedule: Schedule, N: int) -> Iterator[Fraction]:
    """The exact rationals x_0 .. x_N."""
    for state in ancillary_states(schedule, N):
        yield state.value


def _points(schedule: Schedule, n_max: int) -> np.ndarray:
    """x_0 .. x_{n_max-1} as float64, each the correctly rounded quotient r / c_k
    of its exact residue: one IEEE division of two exact doubles for the
    kernel's int64 blocks (r, c_k <= _INT64_SAFE_M < 2^53), Python's int
    division above.  The same bits as float(x_n) for the Fractions of
    ancillary_sequence."""
    try:
        pts = np.empty(n_max, dtype=np.float64)
    except MemoryError:
        raise OutOfRange(f"n_max={n_max} is too large: its points need {8 * n_max} bytes") from None
    b = schedule.b
    for _, a_k, c_k, start, stop in _segments(schedule, n_max - 1):
        pos = start
        for block in _orbit_blocks(a_k, b % c_k, c_k, stop - start):
            pts[pos : pos + block.size] = block / c_k
            pos += block.size
    return pts


def star_discrepancy(points: Union[Sequence[float], np.ndarray]) -> float:
    """D*_N by the sorted-order formula, over a sorted copy of the points.

    For sorted x_(1) <= ... <= x_(N):
    D* = max_i max(i/N - x_(i), x_(i) - (i-1)/N), exact to float precision.
    The two-sided discrepancy D satisfies D* <= D <= 2 D*.
    """
    xs = np.asarray(points, dtype=np.float64)
    if xs.ndim != 1:
        raise OutOfRange(f"points must be one-dimensional, got shape {xs.shape}")
    if xs.size == 0:
        raise OutOfRange("need at least one point")
    return _sorted_star_discrepancy(np.sort(xs))


def _sorted_star_discrepancy(xs: np.ndarray) -> float:
    """D*_N of points sorted ascending, in blocks of _BLOCK points: the float
    operations of the whole-array formula, so the same bits, with a peak of a
    few blocks beyond xs."""
    n = xs.size
    if not (xs[0] >= 0.0 and xs[-1] < 1.0):  # NaN sorts last and fails the test
        raise OutOfRange("points must lie in [0, 1)")
    worst = -math.inf
    for lo in range(0, n, _BLOCK):
        x = xs[lo : lo + _BLOCK]
        grid = np.arange(lo, lo + x.size + 1, dtype=np.float64)
        grid /= n
        worst = max(worst, np.max(grid[1:] - x), np.max(x - grid[:-1]))
    return float(worst)


def erdos_turan_estimate(a: int, c_modulus: int, b: int, J: int, M: int) -> float:
    """Discrepancy majorant 3 (1/M + sum_{h<=M} |S_J(h a, b, c)| / (h J))
    for the points {a b^j / c}, j < J."""
    if M < 1 or J < 1:
        raise OutOfRange("J and M must be positive")
    total = 1.0 / M
    for h in range(1, M + 1):
        mag = eval_sum(h * a, b, c_modulus, J).magnitude
        total += mag / (h * J)
    return ERDOS_TURAN_CONSTANT * total


def discrepancy_trace(schedule: Schedule, n_max: int) -> TraceResult:
    """D*_N at geometric checkpoints N = 2^j <= n_max over x_0 .. x_{N-1}."""
    if n_max < 1:
        raise OutOfRange("n_max must be positive")
    pts = _points(schedule, n_max)
    rows = []
    for N in (1 << j for j in range(n_max.bit_length())):
        # the points are held once: D* needs only the prefix's multiset, and
        # sorting pts[:N] in place leaves every longer prefix's multiset as is
        pts[:N].sort()
        rows.append((N, _sorted_star_discrepancy(pts[:N])))
    return TraceResult(rows, rows[-1][1], len(rows) >= 2 and rows[-1][1] < rows[0][1])


def alpha_digits(schedule: Schedule, n_digits: int) -> List[int]:
    """First base-b digits of the truncated series sum_{k<=K} 1/(c_k b^(m_k)).

    K is the least index whose dropped tail is below b^-(n_digits+2), capped
    at the block count of a finite schedule (whose alpha has no tail):
    consecutive terms shrink at least geometrically (c_{k+1} >= 2 c_k, m_k
    increasing), so the tail is under twice the first dropped term.
    """
    if n_digits < 1:
        raise OutOfRange("n_digits must be positive")
    b, blocks = schedule.b, schedule.blocks
    K = 1
    while K != blocks and schedule.block(K + 1)[1] < n_digits + 3:
        K += 1
    value = Fraction(0)
    for k in range(1, K + 1):
        c_k, m_k = schedule.block(k)
        value += Fraction(1, c_k * b**m_k)
    digits = []
    for _ in range(n_digits):
        value *= b
        d = value.numerator // value.denominator
        digits.append(d)
        value -= d
    return digits
