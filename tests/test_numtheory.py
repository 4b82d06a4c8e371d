"""Unit tests for the exact number-theory layer."""

import math
from fractions import Fraction

import pytest

from korosum import numtheory as nt
from korosum.errors import NotCoprime, NotSmooth, OutOfRange
from oracles import (divisor_power_sum, euler_phi, factorize_trial, is_prime_trial,
                     mult_order_naive, order_structure_uncached, phi_d)

P3 = nt.PrimeSet.of(3)
P35 = nt.PrimeSet.of(3, 5)
P2 = nt.PrimeSet.of(2)
P357 = nt.PrimeSet.of(3, 5, 7)


class TestPrimeSet:
    def test_fields(self):
        assert P35.s == 2
        assert P35.Q == 15
        assert nt.PrimeSet.of(7, 3, 5).primes == (3, 5, 7)

    def test_rejects_non_primes(self):
        with pytest.raises(OutOfRange):
            nt.PrimeSet.of(4)
        with pytest.raises(OutOfRange):
            nt.PrimeSet.of(3, 3)
        with pytest.raises(OutOfRange):
            nt.PrimeSet(())


class TestIsPrime:
    CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
    #: strong pseudoprimes to the first 4, 11 and 12 prime bases
    STRONG_PSEUDOPRIMES = (3215031751, 3825123056546413051, 318665857834031151167461)

    def test_agrees_with_trial_division(self):
        assert [n for n in range(10**5) if nt.is_prime(n)] == [
            n for n in range(10**5) if is_prime_trial(n)]

    def test_carmichael_numbers_and_strong_pseudoprimes(self):
        for n in self.CARMICHAEL + self.STRONG_PSEUDOPRIMES[:1]:
            assert is_prime_trial(n) is False
        for n in self.CARMICHAEL + self.STRONG_PSEUDOPRIMES:
            assert nt.is_prime(n) is False

    def test_large_primes(self):
        # trial division does not finish on these
        for n in (1000000000000000003, 2**61 - 1, 2**31 - 1, 10**18 + 9):
            assert nt.is_prime(n)
        assert not nt.is_prime((2**31 - 1) * (10**9 + 7))

    def test_undecided_range_raises(self):
        # 3317044064679887385961981 is a strong pseudoprime to all 13 bases
        for n in (3317044064679887385961981, 2**89 - 1):
            with pytest.raises(OutOfRange):
                nt.is_prime(n)
        with pytest.raises(OutOfRange):
            nt.PrimeSet.of(3, 2**89 - 1)


class TestFactorize:
    def test_agrees_with_trial_division(self):
        for n in list(range(1, 3000)) + [2**32 + 1, 10**12 + 1, 3**20 * 7**5, 1009**2, 1013 * 2003]:
            assert nt.factorize(n) == factorize_trial(n)
            assert list(nt.factorize(n)) == sorted(nt.factorize(n))

    def test_large_factors_by_rho(self):
        # prime factors past the trial bound, which trial division would
        # take up to 10^9 steps to reach
        cases = {
            (10**9 + 7) * (10**9 + 9): {10**9 + 7: 1, 10**9 + 9: 1},
            (10**9 + 7) ** 2 * 3: {3: 1, 10**9 + 7: 2},
            2**64 + 1: {274177: 1, 67280421310721: 1},
            1000000000000000002: {2: 1, 3: 1, 17: 1, 131: 1, 1427: 1, 52445056723: 1},
            1000000000000000003: {1000000000000000003: 1},
        }
        for n, want in cases.items():
            assert nt.factorize(n) == want

    def test_past_the_budget_raises(self):
        # two 13-digit primes: rho needs about 10^6 steps, past _RHO_BUDGET
        with pytest.raises(OutOfRange, match="Pollard-Brent"):
            nt.factorize((10**12 + 39) * (10**12 + 61))
        with pytest.raises(OutOfRange):  # a cofactor is_prime cannot decide
            nt.factorize(2**89 - 1)

    def test_order_of_a_huge_prime_modulus(self):
        p = 1000000000000000003
        assert nt.mult_order(2, p) == p - 1
        assert all(pow(2, (p - 1) // q, p) != 1 for q in (2, 3, 17, 131, 1427, 52445056723))


class TestFactorSmooth:
    def test_one_has_empty_exponents(self):
        assert nt.factor_smooth(1, P35).exponents == {3: 0, 5: 0}

    def test_45(self):
        assert nt.factor_smooth(45, P35).exponents == {3: 2, 5: 1}

    def test_rejects_with_leftover(self):
        with pytest.raises(NotSmooth) as info:
            nt.factor_smooth(12, P35)
        assert info.value.leftover == 4


class TestOrders:
    def test_naive_modulus_one(self):
        assert mult_order_naive(2, 1) == 1

    def test_naive_small(self):
        assert mult_order_naive(2, 7) == 3
        assert mult_order_naive(2, 9) == 6

    def test_naive_not_coprime(self):
        with pytest.raises(NotCoprime):
            mult_order_naive(2, 10)

    def test_fast_matches_naive(self):
        for m in range(3, 400, 2):
            assert nt.mult_order(2, m) == mult_order_naive(2, m)

    def test_structured_examples(self):
        st1 = nt.factor_smooth(9, P3).order_structure(2)
        assert (st1.tau1, st1.mu, st1.tau_prime, st1.m1, st1.order) == (2, 0, 2, 3, 6)
        assert st1.beta == {3: 1}
        # mu = 1 with 4 | m doubles tau
        st2 = nt.factor_smooth(8, P2).order_structure(3)
        assert (st2.tau1, st2.mu, st2.beta[2], st2.m1, st2.tau_prime) == (1, 1, 3, 8, 2)
        assert st2.order == 2
        st3 = nt.factor_smooth(3, P3).order_structure(2)
        assert st3.order == 2

    def test_structured_matches_naive_smooth_range(self):
        for P, b in ((P35, 2), (P2, 3), (P2, 7), (P357, 10)):
            for m, _ in nt.smooth_numbers(P, 10_000):
                if math.gcd(b, m) != 1:
                    continue
                assert nt.factor_smooth(m, P).order_structure(b).order == mult_order_naive(b, m)

    def test_radical_cache_against_uncached_derivation(self):
        # criterion 04's (P, b) pairs; P = {2} with b = 3 and b = 7 takes mu = 1
        for P, b in ((P357, 2), (P357, 10), (P2, 3), (P2, 7)):
            moduli = [m for m, _ in nt.smooth_numbers(P, 10_000) if math.gcd(b, m) == 1]
            for m in moduli:
                st = nt.factor_smooth(m, P).order_structure(b)
                assert st == order_structure_uncached(m, P, b)
                assert st.order == mult_order_naive(b, m)
            assert {nt.factor_smooth(m, P).order_structure(b).mu for m in moduli} == (
                {0, 1} if P == P2 else {0})

    def test_each_result_has_its_own_beta(self):
        first = nt.factor_smooth(45, P35).order_structure(2)
        assert first.beta == {3: 1, 5: 1}
        first.beta[3] = 99
        hits = nt._radical_structure.cache_info().hits
        again = nt.factor_smooth(3**4 * 5, P35).order_structure(2)
        assert nt._radical_structure.cache_info().hits == hits + 1  # served by the cache
        assert again.beta == {3: 1, 5: 1} and again.m1 == 15


class TestCapitalM:
    def test_examples(self):
        assert nt.capital_m(P3, 2) == 3
        assert nt.capital_m(P2, 3) == 8
        assert nt.capital_m(P35, 2) == 15

    def test_log_bound(self):
        # M <= b**(2Q), compared in log space: b**(2Q) is never formed
        for P, b in ((P3, 2), (P2, 3), (P35, 2), (P357, 2), (P357, 11)):
            assert math.log(nt.capital_m(P, b)) <= 2 * P.Q * math.log(b) * (1.0 + nt.UPPER_SLACK)

    def test_order_floor(self):
        # m / M <= ord(b, m) over a smooth range
        for P, b in ((P35, 2), (P2, 3)):
            M = nt.capital_m(P, b)
            for m, _ in nt.smooth_numbers(P, 5000):
                assert m <= M * nt.mult_order(b, m)

    def test_beta_dominates_structured_beta(self):
        M = nt.capital_m(P35, 2)
        for m, _ in nt.smooth_numbers(P35, 5000):
            assert M % nt.factor_smooth(m, P35).order_structure(2).m1 == 0

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            nt.capital_m(P35, 6)

    @pytest.mark.parametrize("b", [1, 0, -1])
    def test_rejects_base_below_two(self, b):
        # b = 1 used to loop forever: every p^e divides 1^e - 1 = 0
        with pytest.raises(OutOfRange):
            nt.capital_m(P3, b)


class TestCPAlpha:
    def test_integer_alpha(self):
        assert nt.c_p_alpha(P2, 1) == pytest.approx(2.0, rel=1e-9)
        assert nt.c_p_alpha(nt.PrimeSet.of(2, 3), 1) == pytest.approx(3.0, rel=1e-9)

    def test_half_alpha(self):
        assert nt.c_p_alpha(P2, Fraction(1, 2)) == pytest.approx(2 + math.sqrt(2), rel=1e-9)

    def test_rejects_non_positive(self):
        with pytest.raises(OutOfRange):
            nt.c_p_alpha(P2, 0)

    def test_never_under_reports(self):
        # round-up contract: the certified value is >= the plain product
        for alpha in (Fraction(1, 8), Fraction(1, 2), 1, 2):
            plain = 1.0
            for p in P357:
                pa = p ** float(alpha)
                plain *= pa / (pa - 1.0)
            assert nt.c_p_alpha(P357, alpha) >= plain


class TestDivisorPowerSum:
    def test_trivial(self):
        assert divisor_power_sum(1, 1) == 1.0
        assert divisor_power_sum(9, 1) == pytest.approx(13.0)

    def test_against_enumeration(self):
        divisors = [d for d in range(1, 46) if 45 % d == 0]
        expected = sum(d**0.5 for d in divisors)
        assert divisor_power_sum(45, Fraction(1, 2), P35) == pytest.approx(expected)

    def test_negative_alpha_enumeration(self):
        divisors = [d for d in range(1, 721) if 720 % d == 0]
        expected = sum(d**-0.25 for d in divisors)
        assert divisor_power_sum(720, -0.25) == pytest.approx(expected)

    @pytest.mark.parametrize("alpha", [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2)])
    def test_dominated_by_c_p_alpha(self, alpha):
        cap = nt.c_p_alpha(P35, alpha)
        for n, _ in nt.smooth_numbers(P35, 100_000):
            assert divisor_power_sum(n, alpha, P35) <= cap * n ** float(alpha) * (1 + 1e-9)
            assert divisor_power_sum(n, -alpha, P35) <= cap * (1 + 1e-9)

    def test_rejects_non_smooth(self):
        with pytest.raises(NotSmooth):
            divisor_power_sum(14, 1, P35)


class TestPhiD:
    def test_examples(self):
        assert phi_d(12, 2, 10) == 1
        assert phi_d(6, 1, 7) == 2
        assert phi_d(12, 12, 12) == 0

    def test_rejects_non_divisor(self):
        with pytest.raises(OutOfRange):
            phi_d(12, 5, 10)

    def test_totient_cross_check(self):
        for n in (1, 2, 12, 45, 64, 210, 500):
            assert phi_d(n, 1, n + 1) == euler_phi(n)

    def test_inclusion_exclusion_cap(self):
        # phi_d(n, x) <= (x/n) phi(n/d) + 2^omega(n), exhaustively
        for n in range(1, 501):
            s = len(nt.factorize(n))
            for d in sorted(d for d in range(1, n + 1) if n % d == 0):
                phi_nd = euler_phi(n // d)
                for x in (1, 2.5, n / 2, n, 2 * n):
                    if x <= 0:
                        continue
                    assert phi_d(n, d, x) <= (x / n) * phi_nd + 2**s + 1e-9


class TestSmoothNumbers:
    def test_small(self):
        # 3^a 5^b <= 30, each with its exponents over the primes dividing it
        assert nt.smooth_numbers(P35, 30) == [
            (1, ()), (3, ((3, 1),)), (5, ((5, 1),)), (9, ((3, 2),)), (15, ((3, 1), (5, 1))),
            (25, ((5, 2),)), (27, ((3, 3),))]

    def test_bounds(self):
        values = nt.smooth_numbers(P357, 10_000, lo=100)
        assert all(100 <= v <= 10_000 for v, _ in values)
        assert [v for v, _ in values] == sorted({v for v, _ in values})

    @pytest.mark.parametrize("primes", [(2,), (3, 5), (2, 3, 5, 7), (3, 5, 7, 11, 13)])
    def test_against_trial_division(self, primes):
        P = nt.PrimeSet(primes)
        for lo, hi in [(1, 1), (1, 3000), (2, 5000), (100, 100), (97, 99), (1000, 20000)]:
            want = []
            for n in range(lo, hi + 1):
                exps = {p: e for p, e in nt.factor_smooth(n, P).exponents.items() if e} if all(
                    f in primes for f in factorize_trial(n)) else None
                if exps is not None:
                    want.append((n, tuple(exps.items())))
            assert nt.smooth_numbers(P, hi, lo) == want

    def test_counts_nodes_and_values_against_the_cap(self, monkeypatch):
        # over {3, 5} the nodes are 1, 5, 25 (powers of 5 up to 30), and 25
        # and 27 lie in [25, 30]: five steps, none for the values below 25
        monkeypatch.setattr(nt, "MAX_SMOOTH_NUMBERS", 5)
        assert [m for m, _ in nt.smooth_numbers(P35, 30, lo=25)] == [25, 27]
        monkeypatch.setattr(nt, "MAX_SMOOTH_NUMBERS", 4)
        with pytest.raises(OutOfRange, match=r"in \[25, 30\] takes more than 4 steps"):
            nt.smooth_numbers(P35, 30, lo=25)

    def test_the_scans_stay_below_the_cap(self):
        # the README scan widened to m <= 10^7 (criterion 06 takes its primes
        # to 10^6), and the benchmark's scan over five primes to 10^9
        assert len(nt.smooth_numbers(P35, 10**7)) < nt.MAX_SMOOTH_NUMBERS
        assert len(nt.smooth_numbers(nt.PrimeSet.of(3, 5, 7, 11, 13), 10**9)) < nt.MAX_SMOOTH_NUMBERS

    def test_a_narrow_range_high_up(self):
        # 3.4 M integers below 10^12 are smooth over the first 12 primes; the
        # range [10^12, 10^12] visits the 640,131 nodes over the 11 odd primes
        P = nt.PrimeSet((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
        assert nt.smooth_numbers(P, 10**12, lo=10**12) == [(10**12, ((2, 12), (5, 12)))]

    def test_smooth_order_matches_order_structure(self):
        for P, b in ((P357, 2), (P2, 3), (P2, 7), (nt.PrimeSet.of(2, 3, 5, 7), 11)):
            for m, exps in nt.smooth_numbers(P, 20_000, lo=2):
                if math.gcd(b, m) == 1:
                    assert nt.smooth_order(b, m, exps) == nt.factor_smooth(m, P).order_structure(b).order
