"""Unit tests for exact-phase sum evaluation and the differencing machinery."""

import cmath
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from math import fsum, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from korosum import numtheory as nt
from korosum import sumeval as se
from korosum.errors import DegenerateRange, NotCoprime, OutOfRange
from oracles import eval_sum_blocked, eval_sum_scalar, eval_sum_tabled, mult_order_naive

P3 = nt.PrimeSet.of(3)
P35 = nt.PrimeSet.of(3, 5)
P23 = nt.PrimeSet.of(2, 3)


def oracle_sum(a, b, m, N):
    """Straight fsum over exact residues; independent of the library path."""
    res, ims = [], []
    r = a % m
    for _ in range(N):
        r = r * b % m
        z = cmath.exp(2j * math.pi * r / m)
        res.append(z.real)
        ims.append(z.imag)
    return complex(fsum(res), fsum(ims))


def tabled(L, m):
    """A window of L terms mod m takes table phases: L >= _SCALAR_CUTOFF,
    L >= _TABLE_RATIO sqrt(m) and residues in int64 (m <= _INT64_SAFE_M)."""
    return L >= se._SCALAR_CUTOFF and L >= se._TABLE_RATIO * math.sqrt(m) and m <= se._INT64_SAFE_M


def table_threshold(m):
    """The shortest window mod m that takes table phases (m <= _INT64_SAFE_M)."""
    return max(se._SCALAR_CUTOFF, math.isqrt(se._TABLE_RATIO**2 * m - 1) + 1)


def period_vanishes(a, b, m):
    """S_T(a/m) = 0 exactly, T = ord(b, m): some prime p with p^2 | m and p
    not dividing a has T = p ord(b, m/p), so <b> holds the kernel
    {1 + (m/p) t} and every coset of it in the orbit sums to 0."""
    T = nt.mult_order(b, m)
    return any(m % p**2 == 0 and a % p and T == p * nt.mult_order(b, m // p) for p in nt.factorize(m))


def folded(a, b, m, N, eval_sum=se.eval_sum):
    """q * S_T + S_r folded here from eval_sum windows in _fold's order of
    operations: eval_sum_reduced's value, without its coset walk.  Where
    S_T vanishes it is exactly 0, and at T >= _SCALAR_CUTOFF a remainder
    r > T/2 is minus the T - r terms after it."""
    T = nt.mult_order(b, m)
    q, r = divmod(N, T)
    zero = q and period_vanishes(a, b, m)
    value = 0j
    if q and not zero:
        value += q * eval_sum(a, b, m, T).value
    if r and zero and T >= se._SCALAR_CUTOFF and 2 * r > T:
        value += -eval_sum(a * pow(b, r, m), b, m, T - r).value
    elif r:
        value += eval_sum(a, b, m, r).value
    return value


class TestEvalSum:
    def test_modulus_one(self):
        r = se.eval_sum(1, 2, 1, 5)
        assert r.value == 5 + 0j
        assert r.magnitude == 5.0

    def test_cube_roots(self):
        r = se.eval_sum(1, 2, 3, 2)
        assert abs(r.value - (-1 + 0j)) < 1e-12

    def test_full_unit_orbit_vanishes(self):
        # powers of 2 mod 9 run through all units; the unit sum is mu(9) = 0
        r = se.eval_sum(1, 2, 9, 6)
        assert r.magnitude < 1e-12

    def test_matches_oracle_scalar_path(self):
        for a, b, m, N in ((1, 2, 81, 100), (7, 10, 243, 55), (4, 3, 1000, 321)):
            assert abs(se.eval_sum(a, b, m, N).value - oracle_sum(a, b, m, N)) < 1e-10

    def test_matches_oracle_blocked_path(self):
        for a, b, m, N in ((1, 2, 3**9, 5000), (11, 7, 5**7, 9001), (5, 2, 59049, 4096)):
            assert abs(se.eval_sum(a, b, m, N).value - oracle_sum(a, b, m, N)) < 1e-9

    @pytest.mark.parametrize("m", [9, 3**9, 5**7, 3**14, 3**20, 3**21, 3**41, 2**89 - 1, 3_037_000_499,
                                   3_037_000_501, 3_037_000_503, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1],
                             ids=["9", "3^9", "5^7", "3^14", "3^20", "3^21", "3^41", "2^89-1", "int64_safe",
                                  "int64_safe+2", "int64_safe+4", "2^53-1", "2^53+1", "2^63-1", "2^63+1"])
    def test_bits_equal_the_reference_loops(self, m):
        # the scalar loop below _SCALAR_CUTOFF terms, blocks of _BLOCK
        # otherwise, whatever m is (on both sides of the int64 power table's
        # limit, of 2^53 and of 2^63), with table phases where the window
        # rule reaches (every N >= 2048 up to 5^7; at 3^14 from N = 8748);
        # a zero, a unit, and a numerator sharing a factor with m (all of the
        # prime 2^89 - 1)
        shared = next((7 * p for p in (3, 5) if m % p == 0), 3 * m)
        for a in (0, 7, shared):
            for N in (1, 2047, 2048, 4096, 4097, 9000):
                ref = eval_sum_scalar if N < 2048 else eval_sum_tabled if tabled(N, m) else eval_sum_blocked
                got, want = se.eval_sum(a, 2, m, N).value, ref(a % m, 2, m, N)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), (a, N)

    def test_long_sums_hold_a_few_blocks(self):
        # above _INT64_SAFE_M too, a long sum reduces block by block: the
        # Python-int residues and phases of one block are held, not N terms
        m, N = 3**41, 2 * 10**5
        se.eval_sum(1, 2, m, 10)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            se.eval_sum(1, 2, m, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000

    def test_power_table_is_shared_and_read_only(self):
        m = 5**7
        pows, step = se._power_table(11, m)
        assert pows.tolist() == [pow(11, j, m) for j in range(se._BLOCK)]
        assert step == pow(11, se._BLOCK, m)
        assert se._power_table(11, m)[0] is pows
        with pytest.raises(ValueError):
            pows[0] = 0

    def test_non_coprime_inputs_allowed(self):
        # shared factors between a (or b) and m are legitimate here
        r = se.eval_sum(6, 2, 9, 10)
        assert abs(r.value - oracle_sum(6, 2, 9, 10)) < 1e-10
        r2 = se.eval_sum(1, 6, 9, 10)
        assert abs(r2.value - oracle_sum(1, 6, 9, 10)) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(2, 1000),
        st.integers(1, 10**5),
        st.integers(1, 3000),
    )
    def test_magnitude_never_exceeds_n(self, a, b, m, N):
        assert se.eval_sum(a, b, m, N).magnitude <= N * (1 + 1e-12)


class TestEvalSumReduced:
    def test_two_periods(self):
        assert se.eval_sum_reduced(1, 2, 9, 12).magnitude < 1e-12

    def test_primitive_fifth_roots(self):
        r = se.eval_sum_reduced(1, 2, 5, 4)
        assert abs(r.value - (-1 + 0j)) < 1e-12

    def test_period_with_remainder(self):
        # period 2 mod 3: three full periods plus e(2/3)
        r = se.eval_sum_reduced(1, 2, 3, 7)
        expected = 3 * (-1 + 0j) + cmath.exp(2j * math.pi * 2 / 3)
        assert abs(r.value - expected) < 1e-12

    def test_requires_coprime(self):
        with pytest.raises(NotCoprime):
            se.eval_sum_reduced(1, 3, 9, 5)

    @pytest.mark.parametrize("b,m,N,message", [(-2, 3**9, 10**5, "b must be at least 2"),
                                               (2, -9, 20, "modulus must be positive"),
                                               (2, 9, 0, "N must be positive")])
    def test_rejects_what_eval_sum_rejects(self, b, m, N, message):
        for call in (se.eval_sum, se.eval_sum_reduced, lambda *args: se.verify_differencing(*args[:3], 3, N)):
            with pytest.raises(OutOfRange, match=message):
                call(1, b, m, N)

    def test_rejects_what_floats_cannot_hold(self):
        # 2 pi / m and the fold's N / T multiplier are floats, and so is verify's m' N
        big = int(sys.float_info.max) + 1
        for call, message in ((lambda: se.eval_sum(1, 3, big, 3), f"modulus must be at most 1.8e308, got {big}"),
                              (lambda: se.eval_sum_reduced(1, 2, 9, big), f"N must be at most 1.8e308, got {big}"),
                              (lambda: se.verify_differencing(1, 2, 9, 3**646, 5),
                               f"m_prime \\* N must be at most 1.8e308, got m_prime = {3**646}")):
            with pytest.raises(OutOfRange, match=message):
                call()
        # the largest float itself is a modulus: every angle is finite
        m = int(sys.float_info.max)
        assert abs(se.eval_sum(1, 3, m, 3).value - oracle_sum(1, 3, m, 3)) < 1e-12

    def test_agreement_with_direct(self):
        rng = random.Random(101)
        for _ in range(40):
            m = rng.choice([m for m, _ in nt.smooth_numbers(P35, 20000, lo=3)])
            b = rng.choice([2, 7, 11])
            a = rng.randrange(1, m)
            N = rng.randrange(1, 4000)
            direct = se.eval_sum(a, b, m, N)
            folded = se.eval_sum_reduced(a, b, m, N)
            assert abs(direct.value - folded.value) <= 1e-9 * N


class TestBatchedFold:
    """eval_sum_reduced on a tuple of numerators against q * S_T + S_r folded
    here from eval_sum windows, bit for bit: the coset walk must reproduce
    every float."""

    # (m, b): index 2 with T in [_SCALAR_CUTOFF, _BLOCK) and T > 2 _BLOCK,
    # index 4 with T = _BLOCK + 20, index 6, index 2 with T = _BLOCK, m
    # above _INT64_SAFE_M with T = ord(1 + 3^14, 3^21) = 3^7, above 2^63 with
    # T = ord(1 + 3^34, 3^41) = 3^7, and index 2 with T = 972 <
    # _SCALAR_CUTOFF, which folds eval_sum windows
    CASES = [(3**7 * 5, 2), (3**6 * 5**3, 2), (3 * 5 * 7**4, 2), (3**8 * 7, 2), (2**14, 3),
             (3**21, 1 + 3**14), (3**41, 1 + 3**34), (3**6 * 5, 2)]
    REMAINDERS = (1, 2, 100, 2047, 2048, 2049, 4095, 4096, 4097, 8191, 8192, 8193)

    @pytest.mark.parametrize("m,b", CASES,
                             ids=["T<block", "T>2block", "index4", "index6", "T=block", "huge_m", "past_2^63",
                                  "T<cutoff"])
    def test_every_float_equals_the_per_numerator_fold(self, monkeypatch, m, b):
        walks, evals = [], []

        def spy(*args):
            walks.append(args)
            return walk(*args)

        def eval_spy(a, b, m, N):
            evals.append((a, N))
            return evaluate(a, b, m, N)

        walk, evaluate = se._coset_window_sums, se.eval_sum
        monkeypatch.setattr(se, "_coset_window_sums", spy)
        monkeypatch.setattr(se, "eval_sum", eval_spy)
        T = nt.mult_order(b, m)
        rng = random.Random(m)
        units = [a for a in (rng.randrange(1, m) for _ in range(40)) if gcd(a, m) == 1][:8]
        subgroup = {pow(b, j, m) for j in range(T)} if m <= se._INT64_SAFE_M else set()
        if subgroup:
            assert any(a in subgroup for a in units) and any(a not in subgroup for a in units)
        # a repeated numerator, one congruent to another, a non-unit and a multiple of m;
        # the full-period window of every unit but its coset's first wraps past T
        numerators = tuple(units + [units[0], units[1] + m, 3 * b, 2 * m])
        lengths = [T - 1, T, T + 1] + [2 * T + r for r in self.REMAINDERS if r < T]
        walked = 0
        for N in lengths:
            del evals[:], walks[:]
            got = se.eval_sum_reduced(numerators, b, m, N)
            # the windows (numerator x b^k, L) of every fold: those of the
            # walk's rule, of numerators not 0 mod m, come from the walk when
            # it runs (N >= T, at least T / 64 terms), every other is one eval_sum
            windows = [(x * pow(b, k, m), L, bool(x % m) and tabled(L, m))
                       for x in numerators for _, k, L in se._fold_windows(x, b, m, T, N)]
            walks_here = N >= T and 64 * sum(L for _, L, long in windows if long) >= T
            assert len(walks) == walks_here
            assert sorted(evals) == sorted((y, L) for y, L, long in windows if not (walks_here and long))
            walked += walks_here
            want = [folded(a, b, m, N, evaluate) for a in numerators]
            assert [(r.a, r.N, r.value.real, r.value.imag, r.magnitude) for r in got] == [
                (a, N, v.real, v.imag, abs(v)) for a, v in zip(numerators, want)]
        # past int64 and below _SCALAR_CUTOFF no window of these periods is that long
        assert bool(walked) == (se._SCALAR_CUTOFF <= T and m <= se._INT64_SAFE_M)

    def test_one_numerator_walks_like_many(self, monkeypatch):
        # T = 4374 >= _SCALAR_CUTOFF: S_T vanishes at m = 3^8, so N = 2T + 2100
        # takes one window of 2100 terms, past the table rule, from the walk and
        # no eval_sum; T = 6 and T = 1458 fold eval_sum windows, which cost
        # less than the walk's set-up
        def tripwire(*args):
            raise AssertionError(f"eval_sum{args}")

        walks = []
        walk = se._coset_window_sums
        monkeypatch.setattr(se, "_coset_window_sums", lambda *args: walks.append(args[2]) or walk(*args))
        for a in (1, (1,), (1, 2, 4)):
            se.eval_sum_reduced(a, 2, 9, 20)
            se.eval_sum_reduced(a, 2, 3**7, 5000)
        assert walks == []
        monkeypatch.setattr(se, "eval_sum", tripwire)
        for a in (1, (1,), (1, 2, 4)):
            se.eval_sum_reduced(a, 2, 3**8, 2 * 4374 + 2100)
        assert walks == [3**8] * 3

    def test_the_walk_serves_moduli_past_int64(self, monkeypatch):
        # m = 3^21 > _INT64_SAFE_M and T = ord(1 + 3^9, m) = 3^12 >= 4 sqrt(m):
        # the full period of a = 3 (3 | a, so it does not vanish) takes the
        # table rule and is walked over Python-int residues, by cos/sin; the
        # 5-term remainders and a = 1's period (it vanishes) are eval_sum calls
        walks = []
        walk = se._coset_window_sums
        monkeypatch.setattr(se, "_coset_window_sums", lambda *args: walks.append(args[0]) or walk(*args))
        m, b, T = 3**21, 1 + 3**9, 3**12
        assert nt.mult_order(b, m) == T and se._tabled(T, m) and m > se._INT64_SAFE_M
        got = se.eval_sum_reduced((3, 1), b, m, T + 5)
        assert walks == [[(3, 0, T)]]
        assert [(r.value.real.hex(), r.value.imag.hex()) for r in got] == [
            (v.real.hex(), v.imag.hex()) for v in (folded(a, b, m, T + 5) for a in (3, 1))]

    def test_few_terms_of_a_long_period_take_no_walk(self, monkeypatch):
        # m = 3^30: S_T vanishes at T = 2 3^29 ~ 1.4e14, so N = T + 1000 takes
        # 1000 terms per numerator, where a walk would take T / _BLOCK steps
        monkeypatch.setattr(se, "_coset_window_sums", lambda *args: pytest.fail("walked"))
        m, T = 3**30, 2 * 3**29
        got = se.eval_sum_reduced((1, 2), 2, m, T + 1000)
        assert [r.value for r in got] == [se.eval_sum(a, 2, m, 1000).value for a in (1, 2)]

    def test_no_unit_numerator_walks_nothing(self):
        # every numerator is 0 mod m: the walk has no target, every window is N terms of 1
        got = se.eval_sum_reduced((6561, 13122), 2, 6561, 10**5)
        assert [r.value for r in got] == [complex(10**5, 0.0)] * 2

    def test_single_numerators_keep_the_fold(self):
        assert se.eval_sum_reduced((1,), 2, 3**7, 5000) == (se.eval_sum_reduced(1, 2, 3**7, 5000),)
        assert se.eval_sum_reduced((), 2, 3**7, 5000) == ()

    def test_memory_stays_within_a_few_blocks(self):
        # the full-period residues and cos/sin of m = 3^12 would take
        # 3 * 8 * T bytes, about 8.5 MB
        m, b = 3**12, 2
        T = nt.mult_order(b, m)
        assert T == 354294
        units = (1, 5, 7, 11, 13)
        se.eval_sum_reduced(units, b, m, m)  # warm the power table and order caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            got = se.eval_sum_reduced(units, b, m, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        want = [folded(a, b, m, m) for a in units]
        assert [(r.value.real.hex(), r.value.imag.hex()) for r in got] == [
            (v.real.hex(), v.imag.hex()) for v in want]


class TestVanishingPeriods:
    """S_T(x/m) = 0 exactly when <b> holds the kernel of reduction mod m/p,
    p^2 | m, and p does not divide x (_vanishing_primes)."""

    # prime sets with and without 2; b = 7 and b = 3 are 3 mod 4, where
    # mu = 1 and 4 || m double the order through p = 2
    ENVIRONMENTS = [((3, 5), 2), ((2, 3), 5), ((2, 3), 7), ((2, 5), 3), ((2,), 3), ((5, 7), 2)]

    @staticmethod
    def float_error(N):
        """A-priori bound on |computed S_N - exact S_N| for m <= 2^53:
        _phase_error per phase factor, and the reduction's (block sums of at
        most _BLOCK terms per component, then fsum) within sqrt(2) gamma_B per
        unit of magnitude."""
        return N * (se._phase_error(2**53) + math.sqrt(2.0) * se._gamma(se._BLOCK))

    def test_the_rule_is_the_kernel_condition_and_the_float_sums_agree(self):
        fired, mu_cases = 0, 0
        for primes, b in self.ENVIRONMENTS:
            P = nt.PrimeSet(primes)
            for m, _ in nt.smooth_numbers(P, 3000, lo=2):
                if gcd(b, m) != 1:
                    continue
                T = nt.mult_order(b, m)
                zero = se._vanishing_primes(b % m, m, T)
                units = [a for a in (1, 2, m - 1, 7 * m // 11 + 1) if gcd(a, m) == 1]
                assert bool(zero) == period_vanishes(units[0], b, m), (b, m)
                if math.prod(nt.factorize(m)) == m:  # squarefree: no kernel to hold
                    assert zero == ()
                if not zero:
                    continue
                fired += 1
                assert T < se._SCALAR_CUTOFF  # so no window below is complemented
                st = nt.factor_smooth(m, P).order_structure(b)
                mu_cases += st.mu == 1 and m % 8 == 4 and 2 in zero
                r = T // 2 + 1
                for a in units:
                    assert abs(se.eval_sum(a, b, m, T).value) <= self.float_error(T)
                    for N in (T, 3 * T, 3 * T + T // 3, 3 * T + r):
                        got = se.eval_sum_reduced(a, b, m, N).value
                        assert got == se.eval_sum(a, b, m, N % T).value if N % T else got == 0j
                        assert abs(got - se.eval_sum(a, b, m, N).value) <= self.float_error(N) + self.float_error(T)
        assert fired > 100 and mu_cases >= 7

    def test_numerators_sharing_the_prime_keep_the_period(self):
        # m = 45, b = 2: T = 12 = 3 ord(2, 15), so S_T(x/45) = 0 for 3 not
        # dividing x; x = 3 walks 3 (2^n mod 15), and S_T(3/45) = 3 S_4(1/15)
        m, b, T = 45, 2, 12
        assert nt.mult_order(b, m) == T and se._vanishing_primes(b, m, T) == (3,)
        period = se.eval_sum(3, b, m, T).value
        assert abs(period - 3 * se.eval_sum(1, b, 15, 4).value) < 1e-12 and abs(period) > 1
        for x in (3, 6, 30):
            for N in (T, 5 * T + 1, 7 * T + 9):
                got = se.eval_sum_reduced(x, b, m, N).value
                assert got == folded(x, b, m, N)
                assert abs(got - oracle_sum(x, b, m, N)) <= self.float_error(N) + self.float_error(T)
        assert abs(se.eval_sum_reduced(3, b, m, 5 * T).value - 5 * period) == 0

    @pytest.mark.parametrize("m,b", [(3**8, 2), (3**6 * 5**2, 2), (2**15 * 3, 7)],
                             ids=["3^8", "3^6*5^2", "2^15*3"])
    def test_complemented_windows_equal_eval_sum(self, m, b):
        # T >= _SCALAR_CUTOFF: a remainder r > T/2 is minus the T - r terms
        # after it, eval_sum's bits negated; r = T/2 keeps its own side
        T = nt.mult_order(b, m)
        assert T >= se._SCALAR_CUTOFF and se._vanishing_primes(b % m, m, T)
        units = (1, 5, 11, 13)
        for r in (T // 2 - 1, T // 2, T // 2 + 1, T - se._SCALAR_CUTOFF, T - 1):
            got = se.eval_sum_reduced(units, b, m, 2 * T + r)
            for a, res in zip(units, got):
                if 2 * r > T:
                    want = -se.eval_sum(a * pow(b, r, m), b, m, T - r).value
                else:
                    want = se.eval_sum(a, b, m, r).value
                assert (res.value.real.hex(), res.value.imag.hex()) == (want.real.hex(), want.imag.hex())
                assert abs(res.value - oracle_sum(a, b, m, r)) <= self.float_error(T)


class TestStarts:
    """_starts (baby-step giant-step) against a walk of each coset."""

    @staticmethod
    def walked(targets, b, m, T):
        """{t: (c, {s < T: c b^s = t mod m})}, c the first target of t's coset."""
        out = {}
        for c in dict.fromkeys(targets):
            if c not in out:
                positions, r = {}, c
                for s in range(T):
                    positions.setdefault(r, set()).add(s)
                    r = r * b % m
                out.update({t: (c, positions[t]) for t in targets if t in positions and t not in out})
        return out

    # units in two cosets of <2> (3^a 5^b), T = _BLOCK exactly (3 mod 2^14),
    # and T = 2 3^11 with enough targets for several giant blocks
    @pytest.mark.parametrize("m,b,count", [(45, 2, None), (3**3 * 5**2, 2, None), (3 * 5**4, 2, None),
                                           (2**14, 3, None), (3**12, 2, 200)])
    def test_every_start_is_a_walk_position(self, m, b, count):
        T = nt.mult_order(b, m)
        units = [a for a in range(1, m) if gcd(a, m) == 1]
        if count:
            units = random.Random(m).sample(units, count)
        # the last positions of the walk from 1, whose giant steps end there,
        # then units, and numerators sharing a factor with m (shorter orbits)
        tail = [pow(b, s, m) for s in range(max(0, T - 2 * se._BLOCK), T)]
        targets = [1] + tail + [a * b % m for a in units] + [3 * b % m, 6, m // 2, m - 2]
        got, want = se._starts(targets, b % m, m, T), self.walked(targets, b % m, m, T)
        assert got.keys() == want.keys()
        for t, (c, s) in got.items():
            assert c == want[t][0] and 0 <= s < T and s in want[t][1]
        assert len({got[a * b % m][0] for a in units}) == (1 if m == 3**12 else 2)

    def test_giant_steps_stop_at_the_last_start(self, monkeypatch):
        # 2, 4 and 8 sit at positions 0-2 of the walk from 2, so the first of
        # the period's three giant blocks at m = 3^16 holds every start
        m, b = 3**16, 2
        T = nt.mult_order(b, m)
        G = -(-T // min(se._BLOCK, math.isqrt(T // 3) + 1))  # giant steps in a period
        assert -(-G // se._BLOCK) == 3
        drawn, orbit_blocks = [], se._orbit_blocks

        def spy(*args):
            for block in orbit_blocks(*args):
                drawn.append(block.size)
                yield block

        monkeypatch.setattr(se, "_orbit_blocks", spy)
        assert se._starts([2, 4, 8], b, m, T) == {2: (2, 0), 4: (2, 1), 8: (2, 2)}
        assert len(drawn) == 1


class TestScanSums:
    """eval_scan_sums against eval_sum_reduced's fold of eval_sum windows,
    bit for bit."""

    def test_numpy_trig_equals_libm(self):
        # every sum takes numpy's cos/sin (in _phases) where the reference
        # loops take math's; their bits agree on every theta = r (2 pi / m)
        # sampled here, for int64 residues and for Python ints above
        # _INT64_SAFE_M (m up to 2^100), whose angle is (2 pi / m) * r
        rng = np.random.default_rng(20261018)
        m = rng.integers(2, se._INT64_SAFE_M, size=10**6, endpoint=True)
        r = rng.integers(0, m)
        theta = r * (se.TWO_PI / m)
        assert theta[7] == int(r[7]) * (se.TWO_PI / int(m[7]))
        draws = random.Random(20261019)
        big = [draws.randrange(se._INT64_SAFE_M + 1, 2 ** draws.randrange(33, 101)) for _ in range(10**5)]
        theta = np.concatenate((theta, [(se.TWO_PI / mb) * draws.randrange(mb) for mb in big]))
        values = theta.tolist()
        for fn, ref in ((np.cos, math.cos), (np.sin, math.sin)):
            assert np.array_equal(fn(theta).view(np.int64), np.array(list(map(ref, values))).view(np.int64))
        # _phases forms those angles from an object block
        m = 2**89 - 1
        rs = [draws.randrange(m) for _ in range(1000)]
        got = se._phases(np.array(rs, dtype=object), m)
        want = [[f((se.TWO_PI / m) * r) for r in rs] for f in (math.cos, math.sin)]
        assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()

    def test_every_float_equals_the_per_call_fold(self, monkeypatch):
        calls = []

        def spy(a, b, m, N):
            calls.append((m, N))
            return fold(a, b, m, N)

        fold = se.eval_sum_reduced
        monkeypatch.setattr(se, "eval_sum_reduced", spy)
        b = 2
        cells = []
        for m, Ns in [(3, [1, 2, 5]), (5**3, [1, 99, 100, 101, 3000]), (3**5 * 5, [7, 1000, 1620, 4000]),
                      (3**8, [1, 2047, 2048, 4374, 9000]), (3**20, [1, 64]), (7**3, [6, 300])]:
            units = tuple(a for a in range(1, 60) if gcd(a, m) == 1)[:40] + (m, 2 * m + 1)
            cells.append((m, nt.mult_order(b, m), units, Ns))
        got = se.eval_scan_sums(b, cells)
        want = [[[folded(a, b, m, N) for N in Ns] for a in units] for m, T, units, Ns in cells]
        assert [[[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in got] == [
            [[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in want]
        # short windows (5^3 at N = 3000 is 30 periods of T = 100) batch
        # with no eval_sum_reduced call, beside long windows (3^8: T = 4374),
        # whatever the modulus (3^20 is above _INT64_SAFE_M); 5^3 fills more
        # than one batch
        assert sorted(calls) == [(3**8, 2048), (3**8, 4374), (3**8, 9000)]

    @staticmethod
    def _hex_prefix_fsums(rows):
        return [[fsum(row[:L]).hex() for L in range(1, len(row) + 1)] for row in rows]

    @pytest.mark.parametrize("width", [1, 2, 2047])
    def test_prefix_sums_equal_fsum_at_the_extremes(self, width):
        rows = [[1.0] * width, [-1.0] * width, [(-1.0) ** n for n in range(width)],
                [-((-1.0) ** n) for n in range(width)]]
        s, exact = se._prefix_fsums(np.array(rows))
        assert exact.tolist() == [True] * len(rows)
        assert [[x.hex() for x in row] for row in s.tolist()] == self._hex_prefix_fsums(rows)

    def test_prefix_sums_round_once_and_give_fsums_zero(self):
        rng = np.random.default_rng(20261018)
        u = 2.0**-53
        rows = [
            # exact totals zero (rows 0 and 3), or prefixes at a tie between two floats
            [0.5, -0.25, -0.25, 0.75, -0.75],
            [1.0, u, u, -u, -1.0],
            [1.0 - u, u, u / 2, -(1.0 - u), -u],
            [2.0**-28, -(2.0**-28), 0.3, -0.3, 0.0],
            np.cos(rng.integers(0, 10**9, 5) * (se.TWO_PI / 10**9)).tolist(),
        ]
        s, exact = se._prefix_fsums(np.array(rows))
        assert exact.all()
        assert [[x.hex() for x in row] for row in s.tolist()] == self._hex_prefix_fsums(rows)
        # a zero total is +0.0, as fsum's is, also from terms rint sends to -0.0
        s, exact = se._prefix_fsums(np.array(rows[0:4:3] + [[-0.0] * 5, [-(2.0**-41), 2.0**-41, -0.0, -0.0, -0.0]]))
        assert exact.all() and [math.copysign(1.0, x) for x in s[:, -1].tolist()] == [1.0] * 4
        # 2047 terms of random phases, and of cos near 1, whose prefixes need all 53 bits
        for row in (np.cos(rng.integers(0, 10**9, 2047) * (se.TWO_PI / 10**9)),
                    np.cos(np.arange(1, 2048) * 1e-6)):
            s, exact = se._prefix_fsums(np.stack((row, -row[::-1])))
            assert exact.all()
            assert [[x.hex() for x in r] for r in s.tolist()] == self._hex_prefix_fsums(
                [row.tolist(), (-row[::-1]).tolist()])

    def test_bits_below_the_slices_mark_the_row(self):
        # a subnormal, 1e-300 and 5e-10 keep bits below 2^-80: their rows
        # are not exact, and the rows beside them still are
        rows = [[0.5, 5e-324, 0.25], [0.5, 0.25, 0.125], [1e-300, 0.0, 0.0], [0.7, -0.1, 5e-10]]
        s, exact = se._prefix_fsums(np.array(rows))
        assert exact.tolist() == [False, True, False, False]
        assert [x.hex() for x in s[1]] == self._hex_prefix_fsums(rows[1:2])[0]

    def test_walk_through_a_cosine_zero_takes_fsum(self, monkeypatch):
        # m = 3,000,000,001: cos at r = (m - 1)/4 is 5.2e-10, below the slices
        m, b = 3_000_000_001, 2
        quarter = (m - 1) // 4
        assert m <= se._INT64_SAFE_M
        assert not se._prefix_fsums(np.array([math.cos(quarter * (se.TWO_PI / m))]))[1]
        hits = quarter * pow(b, -1, m) % m  # its walk starts at (m - 1)/4: S_1 is that cos alone
        units = (1, hits, 12345)
        Ns = [1, 2, 3, 4, 100]
        exact = []
        prefix_fsums = se._prefix_fsums

        def spy(x):
            s, ok = prefix_fsums(x)
            exact.append(ok.all(axis=1).tolist())
            return s, ok

        monkeypatch.setattr(se, "_prefix_fsums", spy)
        got = se.eval_scan_sums(b, [(m, nt.mult_order(b, m), units, Ns)])
        assert exact == [[True, False, True]]
        want = [[folded(a, b, m, N) for N in Ns] for a in units]
        assert [[(v.real.hex(), v.imag.hex()) for v in row] for row in got[0]] == [
            [(v.real.hex(), v.imag.hex()) for v in row] for row in want]

    def test_batches_of_mixed_widths(self, monkeypatch):
        b = 2
        # (m, T, units, Ns) -> walk widths 1000 (x2), 1018, 1020, 1100 (x3), 2047 (x2):
        # S_T vanishes at 7^4 (T = 7 ord(2, 7^3)), so its walk stops at the
        # longest remainder, 2047 - 1029
        cells = [(3**8, 4374, (1, 2), [1000]), (5**5, 2500, (1,), [1020, 7]),
                 (7**4, 1029, (1,), [2047, 3000]), (3**7 * 5, 2916, (1, 2, 4), [1100, 5000]),
                 (3**9, 13122, (1, 2), [2047])]
        shapes = []
        prefix_fsums = se._prefix_fsums
        monkeypatch.setattr(se, "_prefix_fsums", lambda x: shapes.append(x.shape) or prefix_fsums(x))
        got = se.eval_scan_sums(b, cells)
        # at most 4096 residues per batch, a batch as wide as its widest walk
        assert shapes == [(4, 2, 1020), (3, 2, 1100), (2, 2, 2047)]
        want = [[[folded(a, b, m, N) for N in Ns] for a in units] for m, T, units, Ns in cells]
        assert [[[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in got] == [
            [[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in want]


    # walks of a vanishing period (1215 = 3^5 5, T = 324: S_T = 0 for a = 1
    # and 7, whose walks stop at r = 50; a = 3 keeps its period, a 324-term
    # walk) beside walks of N < T at 3^8, 3^9 and 5^6; each case's rows times
    # its longest walk are the batch cap minus one, the cap and the cap plus one
    BATCH_CASES = {
        -1: ([(1215, (1, 7, 3), [698]), (3**8, (1,), [700]), (3**9, (2,), [819])], [(5, 2, 819)]),
        0: ([(1215, (1, 3), [698]), (3**8, (1,), [1000]), (5**6, (2,), [1024])], [(4, 2, 1024)]),
        1: ([(1215, (1, 7), [698]), (3**8, tuple(a for a in range(1, 23) if a % 3), [241])],
            [(16, 2, 241), (1, 2, 241)]),
    }

    @pytest.mark.parametrize("extra", sorted(BATCH_CASES))
    def test_batches_at_the_cap(self, monkeypatch, extra):
        b, cap = 2, se._BLOCK
        cells, want_shapes = self.BATCH_CASES[extra]
        cells = [(m, nt.mult_order(b, m), units, Ns) for m, units, Ns in cells]
        shapes = []
        prefix_fsums = se._prefix_fsums
        monkeypatch.setattr(se, "_prefix_fsums", lambda x: shapes.append(x.shape) or prefix_fsums(x))
        got = se.eval_scan_sums(b, cells)
        monkeypatch.undo()
        rows, longest = sum(len(units) for _, _, units, _ in cells), max(L for _, _, L in want_shapes)
        assert rows * longest == cap + extra and shapes == want_shapes
        want = [[[se.eval_sum_reduced(a, b, m, N).value for N in Ns] for a in units] for m, T, units, Ns in cells]
        assert [[[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in got] == [
            [[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in want]
        assert got[0][0][0] != 0j and se._vanishing_primes(b, 1215, 324)

    def test_memory_of_a_wide_scan_chunk(self):
        # a chunk of the benchmark's wide scan: the 97 largest {3, 5, 7, 11, 13}-
        # smooth moduli below 10^9, one unit each, N = 8, 32, 128.  Its call
        # peaks at 599 KB under tracemalloc
        b, P = 2, nt.PrimeSet.of(3, 5, 7, 11, 13)
        cells = [(m, nt.smooth_order(b, m, e), (next(a for a in range(m // 2, m) if gcd(a, m) == 1),), [8, 32, 128])
                 for m, e in nt.smooth_numbers(P, 10**9, lo=888_000_000)]
        assert len(cells) == 97
        se.eval_scan_sums(b, cells)  # the power tables are built once
        tracemalloc.start()
        try:
            se.eval_scan_sums(b, cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 660_000

    def test_vanishing_periods_equal_eval_sum_reduced(self):
        # S_T = 0 at T = 324 (batched windows), T = 2500 and T = 4374 (the
        # coset walk), on both sides of r = T/2; 3 and m keep their periods
        b = 2
        cells = []
        for m in (3**5 * 5, 5**5, 3**8):
            T = nt.mult_order(b, m)
            assert se._vanishing_primes(b, m, T)
            h = T // 2
            Ns = sorted({h, T, T + 1, T + h - 1, T + h, T + h + 1, 3 * T - 1, 4 * T})
            cells.append((m, T, (1, 2, 7, 3, m), Ns))
        got = se.eval_scan_sums(b, cells)
        want = [[[se.eval_sum_reduced(a, b, m, N).value for N in Ns] for a in units] for m, T, units, Ns in cells]
        assert [[[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in got] == [
            [[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in want]
        assert got[0][0][-1] == 0j and got[0][3][-1] != 0j

    def test_short_windows_batch_past_the_int64_range(self, monkeypatch):
        # at m = 5^17 a residue fits int64 but step^2 does not (m^2 ~ 5.8e23),
        # and 3^41 is above 2^63: their walks double Python ints, m and step
        # too, in batches of two 2047-term walks, one of them shared with 3^8;
        # the last batch, 3^8 alone, stays in int64
        b = 2
        cells = [(5**17, (1, 2, 3, 4, 5**17 - 1), [1, 2, 100, 1000, 2047]),
                 (3**41, (1, 2, 5, 3**40 + 1), [1, 64, 2047]), (3**8, (1, 2), [2047])]
        cells = [(m, nt.mult_order(b, m), units, Ns) for m, units, Ns in cells]
        want = [[[se.eval_sum_reduced(a, b, m, N).value for N in Ns] for a in units] for m, T, units, Ns in cells]
        monkeypatch.setattr(se, "eval_sum_reduced", lambda *args: pytest.fail(f"eval_sum_reduced{args}"))
        kinds = []
        powers = se._powers
        monkeypatch.setattr(se, "_powers", lambda *args: kinds.append(powers(*args).dtype) or powers(*args))
        got = se.eval_scan_sums(b, cells)
        assert kinds == [object] * 5 + [np.int64]
        assert [[[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in got] == [
            [[(v.real.hex(), v.imag.hex()) for v in row] for row in cell] for cell in want]


class TestWalkTrigCount:
    """The coset walk takes table phases of the _BLOCK-term blocks of
    w_j, j < T + _BLOCK, that some window covers, each over the hull of the
    spans its windows read, not of whole periods, and no cos/sin where
    residues are int64."""

    def test_walk_takes_only_the_covered_blocks(self, monkeypatch):
        counted = {"trig": 0, "table": 0, "build": 0}
        inside, building = [False], [False]
        phases, walk, phase_table = se._phases, se._coset_window_sums, se._phase_table

        def counting_phases(residues, m, out=None, table=False):
            if inside[0]:
                kind = "build" if building[0] else "table" if table and residues.dtype == np.int64 else "trig"
                counted[kind] += residues.size
            return phases(residues, m, out, table)

        def flagged(flag, fn):
            def call(*args):
                flag[0] = True
                try:
                    return fn(*args)
                finally:
                    flag[0] = False
            return call

        monkeypatch.setattr(se, "_phases", counting_phases)
        monkeypatch.setattr(se, "_coset_window_sums", flagged(inside, walk))
        monkeypatch.setattr(se, "_phase_table", flagged(building, phase_table))
        # the README scan's shape (b = 2, {3, 5}-smooth m, five units,
        # N = ceil(m^x)) over the moduli whose long windows are walked
        b, B = 2, se._BLOCK
        cells = []
        for m, _ in nt.smooth_numbers(P35, 10**6, lo=10**5):
            units = tuple(sorted(random.Random(m).sample([a for a in range(1, 400) if gcd(a, m) == 1], 5)))
            cells.append((m, nt.mult_order(b, m), units, sorted({math.ceil(m**x) for x in (0.15, 0.4, 1.0)})))
        se.eval_scan_sums(b, cells)
        # per coset and per walk (one walk per (m, N) with N >= T whose tabled
        # windows take at least T / 64 terms), each block the tabled windows
        # cover, over the hull of the offsets they read in it, each piece
        # starting below T, against whole periods and whole covered blocks;
        # at most 3 sqrt(m) table entries per modulus
        covered, blocks_covered, whole, tables = 0, 0, 0, 0
        for m, T, units, Ns in cells:
            for N in Ns:
                q, r = divmod(N, T)
                windows = []
                for a in units:
                    if not period_vanishes(a, b, m):
                        spans = [(0, T), (0, r)]
                    else:
                        spans = [(r, T - r)] if 2 * r > T else [(0, r)]
                    windows += [(a, k, L) for k, L in spans if tabled(L, m)]
                if not q or 64 * sum(L for _, _, L in windows) < T:
                    continue
                starts = se._starts([a * b % m for a, _, _ in windows], b, m, T)
                held = {}
                for a, k, L in windows:
                    c, s = starts[a * b % m]
                    for j in range(0, L, B):
                        first, size = (s + k + j) % T, min(B, L - j)
                        for i in range(first // B, (first + size - 1) // B + 1):
                            read = held.setdefault(c, {}).setdefault(i, set())
                            read.update(range(max(first, i * B), min(first + size, (i + 1) * B)))
                covered += sum(max(read) - min(read) + 1 for spans in held.values() for read in spans.values())
                blocks_covered += sum(min(B, T + B - i * B) for spans in held.values() for i in spans)
                whole += T * len(held)
            tables += 3 * math.isqrt(m)
        assert counted["trig"] == 0 and counted["table"] == covered
        # here 2,335,640 hull terms against 2,516,746 in the covered blocks
        assert counted["table"] < 0.95 * blocks_covered and blocks_covered < 0.8 * whole
        # each walked modulus builds its tables once
        assert counted["table"] > 0 and 0 < counted["build"] <= tables


class TestTablePhases:
    """Phase factors from _phase_table's two tables: the window rule, their
    error against e(r/m) and their bits on every path that takes a window."""

    @pytest.mark.parametrize("m", [3**12 * 5, 3 * 999983, 3**19, 3_037_000_499])
    def test_every_sampled_phase_is_within_the_bound(self, m):
        # 512 sampled terms of a window just below and just above the rule's
        # threshold (cos/sin, then tables), and the tables' extreme residues,
        # against e(r/m) at 120 bits
        mp = pytest.importorskip("mpmath")
        L = table_threshold(m)
        assert not se._tabled(L - 1, m) and se._tabled(L, m)
        rng = random.Random(m)
        s = (m.bit_length() + 1) // 2
        edges = np.array([0, 1, m - 1, (1 << s) - 1, 1 << s, ((m - 1) >> s) << s, m - 1 - ((m - 1) & ((1 << s) - 1))])
        worst = {}
        for window in (L - 1, L):
            table = se._tabled(window, m)
            residues = np.concatenate(list(se._orbit_blocks(7, 2, m, window)))
            picks = np.array(sorted(rng.sample(range(window), 512)))
            rs = np.concatenate((residues[picks], edges))
            z = se._phases(rs, m, table=table)
            with mp.workprec(120):
                err = max(abs(mp.mpc(re, im) - mp.expjpi(mp.mpf(2 * r) / m))
                          for r, re, im in zip(rs.tolist(), z[0].tolist(), z[1].tolist()))
            worst[table] = float(err)
            assert worst[table] <= se._phase_error(m, table), (window, worst[table] / se._U)
        # the tables' bound is the product's: about twice cos/sin's
        assert se._phase_error(m) < se._phase_error(m, True) < 2.2 * se._phase_error(m)

    @pytest.mark.parametrize("m", [999983, 3**12], ids=["prime", "3^12"])
    def test_one_window_one_set_of_bits_on_every_path(self, m):
        # windows of L = ceil(4 sqrt(m)) terms and one either side, by
        # eval_sum, by eval_sum_reduced and by the scan, and those of the
        # table rule by the coset walk beside a full-period window;
        # 999983 is prime, so its period never vanishes; at 3^12 it does
        b = 2
        T = nt.mult_order(b, m)
        L0 = table_threshold(m)
        assert T > 2 * se._BLOCK and L0 > se._SCALAR_CUTOFF + 1
        lengths = (L0 - 1, L0, L0 + 1)
        assert [se._tabled(L, m) for L in lengths] == [False, True, True]
        units = (1, 5, 7)
        hexed = lambda v: (v.real.hex(), v.imag.hex())
        windows = [(a, k, L) for a in units for k in (0, 3) for L in lengths[1:] + (T,)]
        walked = se._coset_window_sums(windows, b, m, T)
        # one numerator walks from its own start (s = 0), so these windows
        # start one block in, end at T - 1, end at T, start a block before T
        # and one term before T: pieces that end at, cross and pass the wrap
        B = se._BLOCK
        alone = [(11, B, L0), (11, T - L0, L0), (11, T - L0, L0 + 1), (11, T - B, L0), (11, T - 1, T)]
        walked.update(se._coset_window_sums(alone, b, m, T))
        for a, k, L in windows + alone:
            assert hexed(walked[a, k, L]) == hexed(se.eval_sum(a * pow(b, k, m), b, m, L).value), (a, k, L)
        Ns = sorted(lengths + tuple(T + L for L in lengths) + tuple(T - L for L in lengths))
        reduced = [[hexed(r.value) for r in se.eval_sum_reduced(units, b, m, N)] for N in Ns]
        assert reduced == [[hexed(folded(a, b, m, N)) for a in units] for N in Ns]
        scanned = se.eval_scan_sums(b, [(m, T, units, Ns)])[0]
        assert [[hexed(v) for v in row] for row in scanned] == [list(col) for col in zip(*reduced)]

    def test_scan_rows_are_the_same_at_1_and_8_workers(self):
        # N = ceil(m^0.6) sits just below 4 sqrt(m) up to m = 4^10, so this
        # scan's windows fall on both sides of the rule
        from korosum import cli
        config = cli.load_scan_config({
            "primes": [3, 5], "b": 2, "m_range": [2 * 10**5, 10**6],
            "a_policy": {"kind": "sample", "count": 2},
            "N_policy": {"kind": "powers", "exponents": [0.6, 1.0, 1.1]},
            "k_range": [0, 2], "seed": 5, "workers": 1})
        rows = cli.run_scan(config, workers=1)
        assert {se._tabled(r.N, r.m) for r in rows} == {False, True}
        assert cli.run_scan(config, workers=8) == rows


class TestChooseMPrime:
    def test_floor_collapse_gives_radical(self):
        # tiny x: every floor is zero, so m' is the radical (odd m)
        m = 3**6
        m_prime = se.choose_m_prime(m, 2, P3, Fraction(1, 100), Fraction(0), Fraction(1))
        assert m_prime == 3

    def test_half_exponent_example(self):
        # x = 1/2 exactly: m' = 3 * 3^floor(6/2)
        m_prime = se.choose_m_prime(3**6, 3**6, P3, Fraction(1, 2), Fraction(1, 4), Fraction(1))
        assert m_prime == 81

    def test_four_divides_adjustment(self):
        # x = 1/3 on m = 2^4 * 3: floor(4/3) = 1 -> 2^2 || m', keeping 4 | m'
        m_prime = se.choose_m_prime(48, 5, P23, Fraction(1, 2), Fraction(0), Fraction(1))
        assert m_prime % 4 == 0
        assert 48 % m_prime == 0

    def test_reduction_bound(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.choice([m for m, _ in nt.smooth_numbers(P35, 10**6, lo=10)])
            alpha = Fraction(1, rng.choice([2, 6, 14, 30]))
            gamma = Fraction(rng.randrange(0, 8), 8)
            nu = Fraction(1)
            N = rng.randrange(2, 50)
            try:
                m_prime = se.choose_m_prime(m, N, P35, alpha, gamma, nu)
            except DegenerateRange:
                continue
            assert m % m_prime == 0
            for p in (3, 5):
                assert (m % p > 0) or (m_prime % p == 0)
            target = m ** (float(alpha) / (1 + float(alpha))) * N ** (
                float(1 + gamma - nu) / (1 + float(alpha))
            )
            q_m = (3 if m % 3 == 0 else 1) * (5 if m % 5 == 0 else 1)
            assert target * (1 - 1e-9) <= m_prime <= 2 * q_m * target * (1 + 1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRange):
            se.choose_m_prime(1, 5, P3, Fraction(1, 2), Fraction(0), Fraction(1))
        with pytest.raises(DegenerateRange):
            se.choose_m_prime(9, 5, P3, Fraction(0), Fraction(0), Fraction(1))
        with pytest.raises(DegenerateRange):
            # N^(1+gamma-nu) >= m
            se.choose_m_prime(9, 100, P3, Fraction(1, 2), Fraction(1), Fraction(1))


class TestMBar:
    def test_small_example(self):
        # tau = ord(2, 3) = 2, gcd(2^2 - 1, 9) = 3
        assert se.m_bar(2, 9, 3) == 3

    def test_full_modulus(self):
        for b, m in ((2, 45), (7, 1000)):
            assert se.m_bar(b, m, m) == m

    def test_against_direct_gcd(self):
        tau = nt.mult_order(2, 15)
        assert se.m_bar(2, 45, 15) == math.gcd(2**tau - 1, 45)

    def test_divisibility_chain(self):
        for m_prime in (3, 9, 15, 45):
            bar = se.m_bar(2, 45, m_prime)
            assert bar % m_prime == 0 and 45 % bar == 0


def orbit_period(a, b, m, N):
    """The first n >= 1 with a b^(n+1) = a b mod m, else N: the period of
    the orbit of a b^n, read from N of its terms."""
    return next((n for n in range(1, N) if a * pow(b, n + 1, m) % m == a * b % m), N)


def phase_vector(a, b, m, N):
    """The verifier's phase vector e(a b^(n+1) / m), n < N, rebuilt from the
    residues in one call of _phases, by the window rule of N terms."""
    kind = np.int64 if m <= se._INT64_SAFE_M else object
    residues = np.array([a * pow(b, n + 1, m) % m for n in range(N)], dtype=kind)
    z = np.empty(N, dtype=np.complex128)
    z.real, z.imag = se._phases(residues, m, table=se._tabled(N, m))
    return z


def valid_reduced_moduli(m, fac):
    """Divisors m' of m with rad(m) | m' and 4 | m => 4 | m'."""
    primes = [p for p, e in fac.items() if e > 0]
    out = [1]
    for p in primes:
        emin = 2 if (p == 2 and m % 4 == 0) else 1
        out = [v * p**e for v in out for e in range(emin, fac[p] + 1)]
    return sorted(out)


class TestClaims:
    """Structural facts the differencing step relies on, on a small grid."""

    def setup_method(self):
        self.cases = []
        for P, b in ((P35, 2), (P23, 5)):
            M = nt.capital_m(P, b)
            for m, _ in nt.smooth_numbers(P, 500, lo=3):
                if gcd(b, m) != 1:
                    continue
                fac = nt.factor_smooth(m, P).exponents
                for m_prime in valid_reduced_moduli(m, fac):
                    self.cases.append((b, m, m_prime, M))

    def test_order_saturation(self):
        # ord(b, m_bar) = ord(b, m')
        for b, m, m_prime, _ in self.cases:
            bar = se.m_bar(b, m, m_prime)
            assert mult_order_naive(b, bar) == mult_order_naive(b, m_prime)

    def test_gcd_structure(self):
        # gcd(b^(i tau) - 1, m) = m_bar * gcd(i, m / m_bar)
        for b, m, m_prime, _ in self.cases:
            tau = nt.mult_order(b, m_prime)
            bar = se.m_bar(b, m, m_prime)
            step = pow(b, tau, m)
            r = 1
            for i in range(1, 51):
                r = r * step % m
                assert gcd(r - 1, m) == bar * gcd(i, m // bar)

    def test_bar_close_to_m_prime(self):
        # (m_bar / m') | M and m_bar <= M m'
        for b, m, m_prime, M in self.cases:
            bar = se.m_bar(b, m, m_prime)
            assert bar % m_prime == 0
            assert M % (bar // m_prime) == 0
            assert bar <= M * m_prime


class TestVerifyDifferencing:
    def test_small_example_holds(self):
        rep = se.verify_differencing(1, 2, 9, 3, 6)
        assert rep.tau == 2
        assert rep.holds

    def test_short_sum_has_trivial_rhs(self):
        # N <= tau: the i-range is empty, rhs = m' N
        rep = se.verify_differencing(1, 2, 45, 45, 8)
        assert rep.tau >= 8
        assert rep.rhs == pytest.approx(45 * 8)
        assert rep.holds

    def test_requires_coprimality(self):
        with pytest.raises(NotCoprime):
            se.verify_differencing(1, 3, 9, 3, 5)
        with pytest.raises(NotCoprime):
            se.verify_differencing(1, 2, 5, 4, 5)

    def test_random_instances_hold(self):
        rng = random.Random(55)
        done = 0
        while done < 60:
            m = rng.choice([m for m, _ in nt.smooth_numbers(P35, 10**5, lo=15)])
            fac = nt.factor_smooth(m, P35).exponents
            m_prime = rng.choice(valid_reduced_moduli(m, fac))
            N = rng.randrange(2, 600)
            rep = se.verify_differencing(1 + rng.randrange(m - 1), 2, m, m_prime, N)
            assert rep.holds
            done += 1

    def test_fast_inner_sums_match_exact_loop(self):
        # (a, b, m, m', N): tau = 1 (ord(4, 3)), tau = 2 with a(b^L - 1) = 0 mod m
        # at L = 54, 108 (ord(2, 81) = 54), every numerator 0 (m' = m), a
        # blocked-length instance, moduli past 3.04e9, 2^53 (where the phase
        # bound takes a fourth rounding: r is rounded to double) and 2^63;
        # orbits that return within N terms, so lags fold over the period T:
        # T = 4 at m = 16 and T = 16 at m = 64 (b = 3, N near 2500, tabled
        # vectors, tau = 2 and tau = 1), a numerator sharing 2 with m (T = 8,
        # below ord(3, 64)), N = T + 1 and 2T (no lag folds), 2T + 1 (only
        # L = 1 folds) and 3T, and a = 0 (T = 1, every lag folded with no
        # remainder); then a seeded sweep
        cases = [(5, 4, 27, 3, 400), (7, 2, 81, 3, 300), (1, 2, 45, 45, 500),
                 (2, 2, 3**9, 3**5, 4500), (5, 2, 3**21, 3**3, 1500), (7, 2, 3**34, 9, 1200),
                 (11, 2, 3**41, 3, 1000), (5, 3, 16, 8, 2500), (7, 3, 64, 1, 2501),
                 (6, 3, 64, 4, 2400), (5, 3, 16, 1, 5), (5, 3, 16, 1, 8), (5, 3, 16, 1, 9),
                 (5, 3, 16, 1, 12), (0, 3, 16, 1, 50)]
        assert se._phase_error(3**21) < se._phase_error(3**34) == se._phase_error(3**41)
        rng = random.Random(91)
        while len(cases) < 19:
            m = rng.choice([m for m, _ in nt.smooth_numbers(P35, 10**6, lo=15)])
            fac = nt.factor_smooth(m, P35).exponents
            cases.append((rng.randrange(1, m), 2, m, rng.choice(valid_reduced_moduli(m, fac)),
                          rng.randrange(2, 1500)))
        taus, periods, zero_lags, spanning, no_rest = set(), set(), 0, 0, 0
        for a, b, m, m_prime, N in cases:
            tau, T = nt.mult_order(b, m_prime), orbit_period(a, b, m, N)
            taus.add(tau)
            periods.add(T)
            lhs_sq, inner, errors = se._inner_sums(a % m, b % m, m, N, tau)
            assert lhs_sq == se.eval_sum(a, b, m, N).magnitude ** 2
            lags = range(tau, N, tau)
            assert len(inner) == len(errors) == len(lags)
            for lag, fast, bound in zip(lags, inner, errors):
                a_lag = a * (pow(b, lag, m) - 1) % m
                zero_lags += a_lag == 0
                spanning += N - lag >= T
                no_rest += N - lag >= T and (N - lag) % T == 0
                exact = se.eval_sum(a_lag, b, m, N - lag).magnitude
                assert abs(fast - exact) <= bound <= 1e-9 * N
        assert {1, 2} <= taus and zero_lags > 0
        assert {1, 4, 8, 16} <= periods and spanning > 5000 and no_rest > 0

    def test_unfolded_lags_keep_their_bits(self):
        # a lag with N - L below the fold's threshold (the orbit's period T,
        # or 2T where some class mod T would hold one lag that spans T) is one
        # dot product of the phase vector, rebuilt here term by term, with
        # the unfolded bound; so is every lag where the orbit does not return
        # within N terms (T = N).  Folded lags take three times the final
        # roundings.  Tabled and cos/sin vectors, int64 and Python-int residues
        for a, b, m, tau, N in ((5, 3, 16, 1, 40), (5, 3, 16, 1, 9), (7, 2, 81, 2, 300),
                                (6, 3, 64, 1, 2400), (2, 2, 3**9, 162, 4500),
                                (1, 2, 3**12 * 5, 3, 2500), (5, 2, 3**21, 9, 300)):
            z, T = phase_vector(a, b, m, N), orbit_period(a, b, m, N)
            inner, errors = se._inner_sums(a % m, b % m, m, N, tau)[1:]
            lengths = N - np.arange(tau, N, tau)
            plain, folded = (se._dot_error_bound(lengths, m, tabled(N, m), f) for f in (False, True))
            span = 2 * T if (N - T) // tau < 2 * T // gcd(tau, T) else T
            assert (lengths < span).any() and (T < N or (lengths < span).all())
            for i, n in enumerate(lengths.tolist()):
                if n < span:
                    assert inner[i] == abs(np.vdot(z[:n], z[N - n :])) and errors[i] == plain[i]
                else:
                    assert errors[i] == folded[i] > plain[i]

    def test_folded_lags_share_two_products_per_class(self, monkeypatch):
        # the lags i tau pass through T / gcd(tau, T) classes mod T; where
        # each class holds two lags with N - L >= T, all such lags fold, each
        # class takes two dot products (over T and r < T terms) and every
        # other lag one over its N - L < T terms: T = 4, 16 and 1, and lags
        # that all share one class (L = 12 i).  At N = 2T + 1 a class would
        # hold one lag, so only L = 1 (two periods) folds; L = 2 takes 7 terms
        calls, vdot = [], np.vdot
        monkeypatch.setattr(np, "vdot", lambda x, y: calls.append(len(x)) or vdot(x, y))
        for a, b, m, N, tau, classes, folded, longest in ((5, 3, 16, 2500, 1, 4, 2496, 4),
                                                          (7, 3, 64, 2501, 2, 8, 1242, 16),
                                                          (0, 3, 16, 50, 1, 1, 49, 1),
                                                          (1, 2, 45, 500, 12, 1, 40, 12),
                                                          (5, 3, 16, 9, 1, 1, 1, 7)):
            calls.clear()
            se._inner_sums(a, b, m, N, tau)
            assert len(calls) == 2 * classes + len(range(tau, N, tau)) - folded and max(calls) == longest

    def test_fast_path_takes_no_order_or_factoring(self, monkeypatch):
        # the period of the phase vector comes from its own residues: at
        # m = (2^61 - 1)(2^89 - 1), ord(2, m) is out of mult_order's range,
        # yet the orbit returns after T = 5429 terms and the fast path folds
        # the lags that span two periods (each class mod T holds one lag)
        m = (2**61 - 1) * (2**89 - 1)
        with pytest.raises(OutOfRange):
            nt.mult_order(2, m)

        def refuse(*args):
            raise AssertionError(f"the fast path took an order or a factoring of {args}")

        for module in (se, nt):
            monkeypatch.setattr(module, "factorize", refuse)
        # verify's own tau = ord(2, 3) = 2 is the only order it may take
        monkeypatch.setattr(se, "mult_order", lambda b, n: 2 if (b, n) == (2, 3) else refuse(b, n))
        for a, b, m_, N, tau in ((5, 3, 16, 2500, 1), (6, 3, 64, 2400, 2), (0, 3, 16, 50, 1),
                                 (2, 2, 3**9, 4500, 162), (5, 2, 3**21, 1500, 27)):
            se._inner_sums(a, b, m_, N, tau)
        N = 12000
        assert orbit_period(1, 2, m, N) == 5429
        lhs_sq, inner, errors = se._inner_sums(1, 2, m, N, 2)
        rep = se.verify_differencing(1, 2, m, 3, N)
        assert rep.path == "fast" and rep.holds and rep.tau == 2 and rep.lhs_squared == lhs_sq
        for lag in (2, 1142, 1144, 6570, 6572, 11998):  # folded up to N - 2T = 1142
            exact = se.eval_sum(pow(2, lag, m) - 1, 2, m, N - lag).magnitude
            assert abs(inner[lag // 2 - 1] - exact) <= errors[lag // 2 - 1]

    def test_error_bounds_follow_the_window_rule(self, monkeypatch):
        # the dot products' bounds take the tables' phase error exactly where
        # the phase vector was tabled: from N = ceil(4 sqrt(m)) on, and never
        # past the int64 residues, even where the rule on (N, m) alone holds
        def bounds(m, N, tau=3):
            lags = np.arange(tau, N, tau)
            got = se._inner_sums(1, 2, m, N, tau)[2]
            return got.tolist(), [se._dot_error_bound(N - lags, m, t).tolist() for t in (False, True)]

        m = 3**12 * 5
        L0 = table_threshold(m)
        for N, tabled_ in ((L0 - 1, False), (L0, True)):
            assert se._tabled(N, m) == tabled_
            got, want = bounds(m, N)
            assert got == want[tabled_] != want[not tabled_]
        monkeypatch.setattr(se, "_TABLE_RATIO", 0)
        assert se._tabled(2048, 3**21)
        got, want = bounds(3**21, 2048)
        assert got == want[False]

    def test_lhs_is_eval_sum_bit_for_bit(self):
        # one fsum below _SCALAR_CUTOFF, blocks from it on (one partial
        # block at 4097), a = 0 mod m, and the exact path above _INT64_SAFE_M
        for a, b, m, m_prime, N in ((1, 2, 9, 3, 6), (5, 2, 3**12, 3, 5000), (4, 7, 5**9, 5, 2047),
                                    (4, 7, 5**9, 5, 2048), (11, 2, 3**10, 3**2, 4097),
                                    (3**10, 2, 3**10, 3, 4097), (0, 2, 45, 15, 2047),
                                    (1, 2, 3**21, 3, 60)):
            rep = se.verify_differencing(a, b, m, m_prime, N)
            assert rep.lhs_squared == se.eval_sum(a, b, m, N).magnitude ** 2

    def test_fast_path_decides_above_int64_range(self):
        # one residue path at every modulus: past 3.04e9, 2^53 and 2^63 too,
        # the fast path certifies, and its lhs is eval_sum's
        for m in (3**21, 3**34, 3**41):
            assert m > se._INT64_SAFE_M
            rep = se.verify_differencing(1, 2, m, 3**2, 60)
            assert rep.path == "fast" and rep.holds
            assert rep.margin <= rep.rhs / rep.lhs_squared
            assert rep.lhs_squared == se.eval_sum(1, 2, m, 60).magnitude ** 2

    def test_exact_path_decides_when_fast_cannot_certify(self, monkeypatch):
        # a = 0 makes the inequality tight (lhs^2 = rhs = N^2 with m' = 1);
        # with the trivial error bound E_L = n the fast path certifies only m'N
        monkeypatch.setattr(se, "_dot_error_bound", lambda n, m, tabled=False, folded=False: 1.0 * n)
        rep = se.verify_differencing(0, 2, 9, 1, 40)
        assert rep.tau == 1
        assert rep.path == "exact" and rep.holds
        assert rep.rhs == rep.lhs_squared == 40.0**2


class TestShortSumBound:
    def test_exhaustive_small_moduli(self):
        # |S_N| < sqrt(m/d) (1 + log(m/d)) for N <= ord(b, m), d = gcd(a, m)
        # valid when d = 1 or d < m/m1
        b = 2
        for m, _ in nt.smooth_numbers(P35, 2000, lo=3):
            struct = nt.factor_smooth(m, P35).order_structure(b)
            order = struct.order
            sample = {1, 2, m // 3, m // 5, m - 1, 3 * (m // 9) or 1}
            for a in sorted(x % m for x in sample if x and x % m):
                d = gcd(a, m)
                if not (d == 1 or d * struct.m1 < m):
                    continue
                cap = math.sqrt(m / d) * (1 + math.log(m / d))
                run = 0j
                r = a % m
                for _ in range(order):
                    r = r * b % m
                    run += cmath.exp(2j * math.pi * r / m)
                    assert abs(run) < cap * (1 + 1e-9)
