"""Unit tests for ancillary sequences, discrepancy, and digit construction."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from korosum import normalnum as nn
from korosum import numtheory as nt
from korosum import sumeval as se
from korosum.errors import OutOfRange, ScheduleViolation

P3 = nt.PrimeSet.of(3)

STONEHAM = nn.Schedule.geometric(2, 3, 2)


def brute_force_star_discrepancy(points):
    """O(N^2) scan over all critical anchored intervals [0, t)."""
    pts = sorted(points)
    n = len(pts)
    best = 0.0
    candidates = set(pts) | {1.0}
    for t in candidates:
        c_lt = sum(1 for x in pts if x < t)
        c_le = sum(1 for x in pts if x <= t)
        best = max(best, abs(c_lt / n - t), abs(c_le / n - t))
    return best


class TestSchedule:
    def test_geometric_infers_primes(self):
        assert STONEHAM.primes.primes == (3,)
        assert STONEHAM.blocks is None
        assert STONEHAM.block(3) == (27, 8)
        assert STONEHAM.block(5)[1] == 32

    def test_explicit_exhaustion(self):
        # K = min(len c, len m) blocks; there is no block K + 1, and block K
        # extends forever: x_{n+1} = {b x_n} past m_K
        sched = nn.Schedule(2, P3, (3, 9, 27), (2, 4))
        assert sched.blocks == 2
        assert sched.block(2) == (9, 4)
        with pytest.raises(OutOfRange):
            sched.block(3)
        states = list(nn.ancillary_states(sched, 40))
        assert [s.k for s in states[4:]] == [2] * 37
        assert all(s1.value == (2 * s0.value) % 1 for s0, s1 in zip(states[4:], states[5:]))


class TestValidateSchedule:
    def test_stoneham_passes_with_decreasing_ratio(self):
        report = nn.validate_schedule(STONEHAM, 20)
        assert report.ratio_decreasing
        assert report.ratios[-1][1] < 0.01

    def test_broken_growth_detected(self):
        sched = nn.Schedule(2, P3, (3, 9, 27, 15), (2, 4, 8, 16))
        with pytest.raises(ScheduleViolation) as info:
            nn.validate_schedule(sched, 4)
        assert info.value.index == 4

    def test_broken_divisibility_detected(self):
        sched = nn.Schedule(2, nt.PrimeSet.of(2, 3), (3, 9, 12), (2, 4, 8))
        with pytest.raises(ScheduleViolation):
            nn.validate_schedule(sched, 3)

    @pytest.mark.parametrize("m", [[0, 2], [-5, 2]], ids=["zero", "negative"])
    def test_non_positive_m_rejected(self, m):
        sched = nn.Schedule(2, P3, (3, 9), tuple(m))
        with pytest.raises(ScheduleViolation, match="positive schedule values") as info:
            nn.validate_schedule(sched, 2)
        assert info.value.index == 1
        # the block walk holds the same hypotheses
        with pytest.raises(ScheduleViolation, match="positive schedule values"):
            list(nn.ancillary_states(sched, 4))
        with pytest.raises(ScheduleViolation, match="positive schedule values"):
            nn.discrepancy_trace(sched, 4)

    def test_smoothness_enforced(self):
        sched = nn.Schedule(2, P3, (3, 21), (2, 4))
        with pytest.raises(ScheduleViolation):
            nn.validate_schedule(sched, 2)

    def test_unit_steps_diverge_advisory_only(self):
        sched = nn.Schedule(b=2, primes=P3, c=3, m=tuple(range(1, 13)), epsilon=0.1)
        report = nn.validate_schedule(sched, 12)
        assert report.horizon == 12
        assert not report.ratio_decreasing

    def test_base_sharing_prime_rejected(self):
        sched = nn.Schedule.geometric(6, 3, 2, P3)
        with pytest.raises(ScheduleViolation):
            nn.validate_schedule(sched, 4)


class TestAncillarySequence:
    def test_hand_computed_prefix(self):
        sched = nn.Schedule(2, P3, (3, 9), (2, 4))
        values = list(nn.ancillary_sequence(sched, 4))
        assert values == [0, 0, Fraction(1, 3), Fraction(2, 3), Fraction(4, 9)]

    def test_zero_before_first_block(self):
        values = list(nn.ancillary_sequence(STONEHAM, 1))
        assert values == [0, 0]

    def test_denominators_divide_block_modulus(self):
        for state in nn.ancillary_states(STONEHAM, 300):
            assert 0 <= state.value < 1
            if state.k:
                assert STONEHAM.block(state.k)[0] % state.value.denominator == 0

    def test_tracks_fractional_parts_of_the_target(self):
        # |x_n - {b^n alpha}| is the tail b^n sum_{j>K(n)} 1/(c_j b^(m_j)),
        # roughly b^(n - m_(K+1)): it must decay to zero along n
        alpha = sum(Fraction(1, 3**k * 2 ** (2**k)) for k in range(1, 10))
        states = {s.position: s.value for s in nn.ancillary_states(STONEHAM, 64)}
        diffs = []
        for n in (4, 8, 16, 32, 64):
            shifted = alpha * 2**n
            frac = shifted - (shifted.numerator // shifted.denominator)
            diffs.append(abs(float(states[n] - frac)))
        assert all(d1 < d0 for d0, d1 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-20


class TestStarDiscrepancy:
    def test_single_zero_point(self):
        assert nn.star_discrepancy([0.0]) == pytest.approx(1.0)

    def test_centered_equispaced(self):
        n = 64
        pts = [(2 * i - 1) / (2 * n) for i in range(1, n + 1)]
        assert nn.star_discrepancy(pts) == pytest.approx(1 / (2 * n), abs=1e-15)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(OutOfRange):
            nn.star_discrepancy([0.5, 1.0])
        with pytest.raises(OutOfRange):
            nn.star_discrepancy([-0.1])
        with pytest.raises(OutOfRange):  # NaN sorts last
            nn.star_discrepancy([0.5, math.nan])

    @pytest.mark.parametrize("points", [[[0.1, 0.2], [0.3, 0.4]], 0.5, []], ids=["2d", "scalar", "empty"])
    def test_rejects_non_vectors(self, points):
        with pytest.raises(OutOfRange):
            nn.star_discrepancy(points)

    def test_sorts_a_copy(self):
        pts = np.array([0.7, 0.1, 0.4])
        nn.star_discrepancy(pts)
        assert pts.tolist() == [0.7, 0.1, 0.4]

    @pytest.mark.parametrize("n", [1, se._BLOCK - 1, se._BLOCK, se._BLOCK + 1, 3 * se._BLOCK + 5])
    def test_blocks_match_the_whole_array_formula(self, n):
        # max_i max(i/N - x_(i), x_(i) - (i-1)/N) over whole arrays, as one
        # expression: the blocked evaluation must give the same bits
        rng = np.random.default_rng(n)
        for xs in (np.sort(rng.random(n)), np.sort(np.floor(rng.random(n) * 7) / 7)):
            i = np.arange(1, n + 1, dtype=np.float64)
            whole = float(max(np.max(i / n - xs), np.max(xs - (i - 1) / n)))
            assert nn.star_discrepancy(xs).hex() == whole.hex()

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randrange(1, 64)
            pts = [rng.random() for _ in range(n)]
            assert nn.star_discrepancy(pts) == pytest.approx(
                brute_force_star_discrepancy(pts), abs=1e-12
            )


class TestErdosTuran:
    def test_m_equal_one_is_dominated_by_leading_term(self):
        assert nn.erdos_turan_estimate(1, 81, 2, 10, 1) >= 3.0

    def test_vanishing_full_period_sums_leave_leading_term(self):
        # all full-orbit sums with gcd(h, 9) = 1 vanish, so the estimate
        # collapses to 3/M
        est = nn.erdos_turan_estimate(1, 9, 2, nt.mult_order(2, 9), 2)
        assert est == pytest.approx(3 / 2, abs=1e-9)

    def test_majorizes_discrepancy_on_orbits(self):
        rng = random.Random(21)
        for _ in range(100):
            c = rng.choice([81, 243, 625, 729, 2401])
            b = rng.choice([2, 3, 10])
            if math.gcd(b, c) != 1:
                continue
            a = rng.randrange(1, c)
            if math.gcd(a, c) != 1:
                continue
            J = rng.randrange(8, 200)
            pts = []
            r = a % c
            for _ in range(J):
                pts.append(r / c)
                r = r * b % c
            d_star = nn.star_discrepancy(pts)
            est = nn.erdos_turan_estimate(a, c, b, J, max(1, int(math.isqrt(c))))
            assert est >= d_star


class TestDiscrepancyTrace:
    def test_stoneham_trend(self):
        trace = nn.discrepancy_trace(STONEHAM, 1 << 12)
        assert trace.overall_decreasing
        assert trace.final_d_star < 0.2

    def test_zero_prefix_checkpoints_near_one(self):
        trace = nn.discrepancy_trace(STONEHAM, 4)
        assert trace.rows[0][1] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "schedule,n_max",
        [
            (STONEHAM, 5000),
            (nn.Schedule.geometric(2, 5, 3), 3000),
            # the last block extends over several orbit blocks
            (nn.Schedule(2, P3, (3, 9), (1, 2)), 3 * se._BLOCK + 5),
            # c_2 beyond the int64 residues, c_3 and c_4 beyond 2^53: Python-int quotients
            (nn.Schedule(2, P3, (3, 3**20, 3**35, 3**40), (1, 500, 1000, 1500)), 2000),
        ],
        ids=["stoneham", "five_three", "finite", "beyond_int64"],
    )
    def test_points_are_the_exact_values_rounded(self, schedule, n_max):
        exact = np.array([float(x) for x in nn.ancillary_sequence(schedule, n_max - 1)])
        assert exact.size == n_max
        assert nn._points(schedule, n_max).tobytes() == exact.tobytes()
        trace = nn.discrepancy_trace(schedule, n_max)
        assert trace.rows == [(N, nn.star_discrepancy(exact[:N])) for N, _ in trace.rows]

    @pytest.mark.parametrize(
        "c,k", [([3, 9, 12], 3), ([-3, 9, 27], 1)], ids=["non_dividing", "non_positive"]
    )
    def test_broken_schedule_raises_when_reached(self, c, k):
        sched = nn.Schedule(2, nt.PrimeSet.of(2, 3), tuple(c), (2, 4, 8))
        m_k = sched.block(k)[1]
        nn.discrepancy_trace(sched, m_k)  # x_0 .. x_{m_k - 1} stop before block k
        with pytest.raises(ScheduleViolation) as info:
            nn.discrepancy_trace(sched, m_k + 1)
        assert info.value.index == k

    @pytest.mark.parametrize(
        "schedule,n_max",
        [
            (STONEHAM, 1 << 14),
            (nn.Schedule.geometric(2, 5, 3), 3 * se._BLOCK + 5),
            # x_0 .. x_63 are 0: the first seven prefixes hold zeros only
            (nn.Schedule.geometric(2, 3, 64), 5000),
        ],
        ids=["default", "not_power_of_two", "zero_prefix"],
    )
    def test_rows_are_star_discrepancy_of_each_prefix(self, schedule, n_max):
        points = nn._points(schedule, n_max)
        trace = nn.discrepancy_trace(schedule, n_max)
        sizes = [1 << j for j in range(n_max.bit_length())]
        assert [N for N, _ in trace.rows] == sizes
        assert [d.hex() for _, d in trace.rows] == [nn.star_discrepancy(points[:N]).hex() for N in sizes]

    def test_trace_holds_the_points_once(self):
        n_max = 1 << 18
        tracemalloc.start()
        try:
            nn.discrepancy_trace(STONEHAM, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n_max  # 8 bytes per point and a few blocks


class TestAlphaDigits:
    def test_leading_zeros(self):
        digits = nn.alpha_digits(STONEHAM, 16)
        # first term 1/(3 * 2^2) = 1/12 = 0.000101010... in base 2
        assert digits[0] == 0

    def test_against_fixed_point_oracle(self):
        n_digits = 64
        guard = 16
        scale = 2 ** (n_digits + guard)
        acc = 0
        k = 1
        while 2**k <= n_digits + guard:
            acc += scale // (3**k * 2 ** (2**k))
            k += 1
        oracle = [(acc >> (n_digits + guard - i)) & 1 for i in range(1, n_digits + 1)]
        # the oracle floors each term; only the last guard bits can differ
        assert nn.alpha_digits(STONEHAM, n_digits) == oracle

    def test_digits_in_range_base_ten(self):
        sched = nn.Schedule.geometric(10, 3, 2)
        digits = nn.alpha_digits(sched, 40)
        assert len(digits) == 40
        assert all(0 <= d < 10 for d in digits)

    def test_matches_ancillary_fractional_parts(self):
        # the 20 digits after position n reconstruct {b^n alpha} to 2^-20;
        # the ancillary value differs from that by its own block tail,
        # below 2 * b^(n - m_(K+1)) / c_(K+1)
        digits = nn.alpha_digits(STONEHAM, 64)
        states = {s.position: s for s in nn.ancillary_states(STONEHAM, 64)}
        for n in (8, 16, 32):
            state = states[n]
            window = sum(digits[i] * 2.0 ** (n - i - 1) for i in range(n, n + 20))
            c_next, m_next = STONEHAM.block(state.k + 1)
            tail = 2.0 ** (n - m_next + 1) / c_next
            assert abs(window - float(state.value)) < 2.0**-20 + tail
