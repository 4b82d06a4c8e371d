"""Unit tests for the exponent recursion, certified constants and intervals."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from korosum import bounds as bd
from korosum import cli
from korosum import numtheory as nt
from korosum import sumeval as se
from korosum.errors import OutOfRange
from oracles import bound_table_every_level, contains_interval, overlaps

P3 = nt.PrimeSet.of(3)
P2 = nt.PrimeSet.of(2)
P35 = nt.PrimeSet.of(3, 5)

C_REFERENCE = -1.17094960687104654952


class TestExponents:
    def test_seed_level(self):
        e = bd.exponents(0)
        assert (e.alpha, e.gamma, e.nu) == (Fraction(1, 2), Fraction(0), Fraction(1))

    def test_level_one_by_hand(self):
        e = bd.exponents(1)
        assert (e.alpha, e.gamma, e.nu) == (Fraction(1, 6), Fraction(1, 2), Fraction(1))

    def test_level_three_by_hand(self):
        e = bd.exponents(3)
        assert e.gamma == Fraction(701, 840)
        assert e.nu == Fraction(437, 420)

    def test_alpha_closed_form(self):
        for k in range(61):
            assert bd.exponents(k).alpha == Fraction(1, 2 ** (k + 2) - 2)

    def test_sum_identity(self):
        for k in range(61):
            e = bd.exponents(k)
            assert e.gamma + e.nu == 2 - Fraction(1, 2**k)

    def test_both_c_extractions_agree_with_scaled_difference(self):
        lc = bd.epsilon_prime_and_c(40)
        for k in range(41):
            e = bd.exponents(k)
            assert e.c_gamma == e.c_nu == lc.eps_primes[k]
            assert e.nu - e.gamma - Fraction(k + 1, 2 ** (k + 1)) == lc.eps_primes[k] / 2 ** (k + 1)

    def test_ranges(self):
        for k in range(61):
            e = bd.exponents(k)
            assert 0 <= e.gamma < 1
            assert 1 <= e.nu < 2
            assert 1 + e.gamma >= e.nu


class TestLimitConstant:
    def test_seed(self):
        assert bd.epsilon_prime_and_c(0).eps_primes[0] == 1

    def test_uniform_bound(self):
        lc = bd.epsilon_prime_and_c(200)
        assert all(abs(e) <= 5 for e in lc.eps_primes)

    def test_limit_value(self):
        lc = bd.epsilon_prime_and_c(120)
        assert abs(lc.c - C_REFERENCE) <= 1e-15
        assert lc.tail_bound <= 1e-15

    def test_tail_certifies_convergence(self):
        # |eps'_k - c| <= (k+7)/2^(k-1) against the much deeper reference
        deep = bd.epsilon_prime_and_c(120).c_exact
        lc = bd.epsilon_prime_and_c(40)
        for k, e in enumerate(lc.eps_primes):
            assert abs(e - deep) <= Fraction(k + 7) * Fraction(2) ** (1 - k)


class TestConstants:
    def test_seed_values(self):
        cs = bd.constants(0, P3, 2)
        assert cs.a_k == 1.0
        assert cs.b_k == 3.0
        assert nt.capital_m(P3, 2) == 3 and P3.Q == 3

    def test_levels_stop_at_float_resolution(self):
        # p = 2 is the first prime whose p^alpha_k rounds to 1 (at k = 52)
        P2 = nt.PrimeSet.of(2)
        assert all(math.isfinite(x) for x in bd.level_rows((bd.MAX_LEVEL,), P2, 3)[0])
        for k in (bd.MAX_LEVEL + 1, 10**6):
            with pytest.raises(OutOfRange):
                bd.level_rows((0, k), P2, 3)

    def test_level_one_direct_formula(self):
        cs = bd.constants(1, P3, 2)
        alpha0 = 0.5
        inner = 2 ** (1 + alpha0) * 3.0 * 3 * 3**alpha0 * nt.c_p_alpha(P3, Fraction(1, 2))
        assert cs.b_k == pytest.approx(math.sqrt(inner), rel=1e-9)
        a_inner = (
            2 ** (1 + 2) * 3 * (1 + 3) * nt.c_p_alpha(P3, Fraction(1, 2))
            + 2 * 3
            + 2 * 1 * 3 * nt.c_p_alpha(P3, Fraction(3, 2))
        )
        assert cs.a_k == pytest.approx(math.sqrt(a_inner), rel=1e-9)

    @pytest.mark.parametrize("P,b", [(P3, 2), (P2, 3), (P35, 2)])
    def test_closed_form_caps(self, P, b):
        M, Q, s = nt.capital_m(P, b), P.Q, P.s
        c_half = nt.c_p_alpha(P, Fraction(1, 2))
        inv_tot = 1.0
        for p in P:
            inv_tot *= 1 / (1 - 1 / p)
        for k in range(31):
            cs = bd.constants(k, P, b)
            assert cs.b_k <= 2**1.5 * M * Q**0.5 * c_half * (1 + 1e-9)
            cap_a = 6 * 2 ** (s * (k + 1) + 3.5) * Q**1.5 * M**2 * c_half * inv_tot
            assert cs.a_k <= cap_a * (1 + 1e-9)


class TestKConstants:
    def test_k2_is_two_to_s(self):
        assert bd.k_constants(P35, 2).k2 == 4.0

    def test_k3_direct_formula(self):
        kc = bd.k_constants(P2, 3)
        expected = 2**1.5 * math.sqrt(2) * 3**4 * (math.sqrt(2) / (math.sqrt(2) - 1))
        assert kc.k3 == pytest.approx(expected, rel=1e-9)

    def test_ordering(self):
        for P, b in ((P3, 2), (P2, 3), (P35, 2)):
            kc = bd.k_constants(P, b)
            assert kc.k1 > kc.k3 > 1

    def test_mantissa_rendering_survives_overflow(self):
        big = nt.PrimeSet.of(3, 5, 7)
        kc = bd.k_constants(big, 11)  # 11^420 overflows floats
        assert kc.k1 == math.inf
        mant, exp10 = kc.k1_mantissa_exponent()
        assert 1 <= mant < 10
        assert exp10 > 300

    def test_dominates_recursive_constants(self):
        # K1 K2^k >= A_k and K3 >= B_k is what makes main >= recursive
        for P, b in ((P3, 2), (P35, 2)):
            kc = bd.k_constants(P, b)
            for k in range(20):
                cs = bd.constants(k, P, b)
                assert kc.k1 * kc.k2**k >= cs.a_k
                assert kc.k3 >= cs.b_k


class TestExpOrInf:
    @staticmethod
    def caught(x):
        try:
            return nt.round_up(math.exp(x))
        except OverflowError:
            return math.inf

    def test_threshold_is_the_last_finite_exp(self):
        assert math.isfinite(math.exp(bd._EXP_MAX))
        with pytest.raises(OverflowError):
            math.exp(math.nextafter(bd._EXP_MAX, math.inf))

    def test_equals_exp_with_the_overflow_caught(self):
        edge = bd._EXP_MAX
        for x in (edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf), math.inf,
                  -math.inf, math.nan, 0.0, -745.2, 41656.0, 1e300):
            got, want = bd._exp_or_inf(x), self.caught(x)
            assert got == want or (math.isnan(got) and math.isnan(want))


class TestBoundEval:
    def test_level_zero_example(self):
        rep = bd.bound_eval(9, 6, 0, P3, 2)
        assert rep.bound_value == pytest.approx(9 * (1 + math.log(9)), rel=1e-9)
        assert rep.term_main == pytest.approx(3.0, rel=1e-9)
        assert rep.term_secondary == pytest.approx(6.0, rel=1e-9)
        assert se.eval_sum(1, 2, 9, 6).magnitude <= rep.bound_value

    def test_report_invariant(self):
        rep = bd.bound_eval(3**7, 50, 2, P3, 2)
        logfac = (1 + math.log(3**7)) ** 0.25
        assert rep.bound_value == pytest.approx(
            (rep.term_main + rep.term_secondary) * logfac, rel=1e-9
        )

    def test_degenerate_modulus(self):
        rep = bd.bound_eval(1, 100, 0, P3, 2)
        assert not rep.nontrivial
        assert rep.bound_value >= 100

    def test_nontrivial_interior_exponent(self):
        # 1/3 is interior to the level-2 range; m must be large enough for
        # the exponent gain to beat the constants and the log factor
        m = 3**400
        N = math.ceil(m ** (1 / 3))
        assert bd.bound_eval(m, N, 2, P3, 2).nontrivial
        assert not bd.bound_eval(3**10, 39, 2, P3, 2).nontrivial

    def test_recursive_below_main(self):
        for m in (3**5, 3**9, 3**12):
            for N in (10, 1000, m):
                for k in range(5):
                    rec = bd.bound_eval(m, N, k, P3, 2)
                    main = bd.bound_eval(m, N, k, P3, 2, "main")
                    assert rec.bound_value <= main.bound_value

    def test_level_zero_is_the_long_baseline(self):
        # independent code paths, same formula: (sqrt(m) + M N / sqrt(m))(1 + log m)
        for m, N in ((9, 6), (3**7, 100), (3**11, 3**11)):
            rec = bd.bound_eval(m, N, 0, P3, 2)
            base = bd.bound_baseline(m, N, 1, P3, 2, "long")
            assert rec.bound_value == pytest.approx(base.bound_value, rel=1e-11)


class TestBoundBaseline:
    def test_short_example(self):
        rep = bd.bound_baseline(9, 6, 1, P3, 2, "short")
        assert rep.bound_value == pytest.approx(3 * (1 + math.log(9)), rel=1e-9)

    def test_long_dominates_short_at_full_period(self):
        order = nt.mult_order(2, 3**6)
        short = bd.bound_baseline(3**6, order, 1, P3, 2, "short")
        long_ = bd.bound_baseline(3**6, order, 1, P3, 2, "long")
        assert long_.bound_value >= short.bound_value

    def test_short_with_shared_factor(self):
        # m = 3^5, b = 2: m1 = 3, so d = 3 < m/m1 = 81 validates
        rep = bd.bound_baseline(243, 5, 3, P3, 2, "short")
        assert rep.bound_value == pytest.approx(math.sqrt(81) * (1 + math.log(81)), rel=1e-9)
        assert rep.m == 81

    def test_preconditions(self):
        order = nt.mult_order(2, 9)
        with pytest.raises(OutOfRange):
            bd.bound_baseline(9, order + 1, 1, P3, 2, "short")
        with pytest.raises(OutOfRange):
            bd.bound_baseline(9, 3, 2, P3, 2, "short")  # d does not divide m
        with pytest.raises(OutOfRange):
            bd.bound_baseline(45, 5, 3, P35, 2, "long")
        # d = m/m1 is excluded for the short form unless d = 1
        struct = nt.factor_smooth(45, P35).order_structure(2)
        bad_d = 45 // struct.m1
        if bad_d > 1:
            with pytest.raises(OutOfRange):
                bd.bound_baseline(45, 5, bad_d, P35, 2, "short")


class TestIntervals:
    def test_table(self):
        expected = {
            0: (Fraction(1, 2), None),
            1: (Fraction(1, 3), None),
            2: (Fraction(1, 4), Fraction(2)),
            3: (Fraction(28, 139), Fraction(14, 17)),
            4: (Fraction(105, 622), Fraction(840, 1721)),
            5: (Fraction(52080, 358871), Fraction(26040, 76903)),
        }
        for k, (lo, hi) in expected.items():
            ik, _ = bd.intervals(k)
            assert (ik.lo, ik.hi) == (lo, hi)

    def test_level_zero_has_no_optimal_range(self):
        assert bd.intervals(0)[1] is None

    def test_consecutive_overlap(self):
        for k in range(21):
            ik, _ = bd.intervals(k)
            ik1, _ = bd.intervals(k + 1)
            assert overlaps(ik, ik1)

    def test_optimal_inside_nontrivial(self):
        for k in range(1, 21):
            ik, tk = bd.intervals(k)
            assert contains_interval(ik, tk)


class TestDeltaOfSubinterval:
    def test_ambient_interval_rejected(self):
        ik, _ = bd.intervals(2)
        with pytest.raises(OutOfRange):
            bd.delta_of_subinterval(2, ik)

    def test_level_two_by_hand(self):
        delta = bd.delta_of_subinterval(2, bd.RationalInterval(Fraction(1, 3), Fraction(1)))
        assert delta == Fraction(1, 42)

    def test_monotone_in_inclusion(self):
        inner = bd.RationalInterval(Fraction(2, 5), Fraction(3, 4))
        outer = bd.RationalInterval(Fraction(1, 3), Fraction(1))
        assert bd.delta_of_subinterval(2, inner) >= bd.delta_of_subinterval(2, outer)

    def test_unbounded_levels(self):
        # nu = 1: the second margin is alpha independently of the right end,
        # so delta = (1 - gamma) lo - alpha = 3/4 - 1/2
        assert bd.delta_of_subinterval(0, bd.RationalInterval(Fraction(3, 4), None)) == Fraction(1, 4)


class TestBestK:
    def test_singleton(self):
        assert bd.best_k(3**8, 100, P3, 2, 0).k_star == 0

    def test_long_regime_prefers_level_zero(self):
        m = 3**8
        assert bd.best_k(m, 4 * m, P3, 2, 6).k_star == 0

    def test_interval_prediction(self):
        m = 3**200
        c = bd.epsilon_prime_and_c(60).c
        x = (1 / (3 + c + 2) + 1 / (3 + c + 1)) / 2  # inside the level-3 optimal range
        N = round(m**x)
        assert bd.best_k(m, N, P3, 2, 8).k_hat == 3


class TestCorollaryConstants:
    def test_half_is_an_endpoint(self):
        # 1/2 is the left endpoint of the level-0 range, so level 1 is used
        res = bd.corollary_constants(Fraction(1, 2), P3, 2)
        assert res.k == 1
        assert res.delta > 0

    def test_third_is_an_endpoint(self):
        res = bd.corollary_constants(Fraction(1, 3), P3, 2)
        assert res.k == 2

    def test_interior_small_epsilon(self):
        res = bd.corollary_constants(Fraction(3, 10), P3, 2)
        assert res.k == 2
        assert len(res.segments) == 2
        # segments tile [eps, 1]
        assert res.segments[-1][1].lo == Fraction(3, 10)
        assert res.segments[0][1].hi == 1
        assert res.big_c == pytest.approx(
            2 * bd.k_constants(P3, 2).k1 * 4 * bd.k_constants(P3, 2).k3, rel=1e-6
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRange):
            bd.corollary_constants(Fraction(3, 2), P3, 2)
        with pytest.raises(OutOfRange):
            bd.corollary_constants(0, P3, 2)

    def test_threshold_function(self):
        res = bd.corollary_constants(Fraction(1, 2), P3, 2)
        # the denominator log2 log m - 3 log2 log log m is barely positive
        # at m = 1e60 and negative (empty regime -> inf) at desk-scale m
        assert 1 < res.threshold_n(10**60) < math.inf
        assert res.threshold_n(10**6) == math.inf
        # the regime threshold drops below m itself only for enormous m
        assert res.threshold_n(10**60) > 10**60
        assert res.threshold_n(10**500) < 10**500
        assert res.decay(10**60) < res.decay(10**6) < 1

    def test_decay_exponent_inequalities(self):
        # alpha_k (k+c+2) + gamma_k - 1 <= -2^-(k+3), and the nu-side twin,
        # with c taken at its worst certified endpoint
        c_lo, c_hi = bd.certified_c()
        for k in range(1, 31):
            e = bd.exponents(k)
            bound = -Fraction(1, 2 ** (k + 3))
            assert e.alpha * (k + c_hi + 2) + e.gamma - 1 <= bound
            assert -e.alpha * (k + c_lo + 1) + e.nu - 1 <= bound


class TestDirectCalculationDecimals:
    GAMMA_SIDE = [-0.195158, -0.0836393, -0.0378412, -0.0176574, -0.0084263, -0.0040877]
    NU_SIDE = [-0.138175, -0.0949322, -0.0538255, -0.0287136, -0.0148872]

    def test_reproduction(self):
        c_lo, c_hi = bd.certified_c()
        c = (c_lo + c_hi) / 2
        for k, ref in enumerate(self.GAMMA_SIDE, start=1):
            e = bd.exponents(k)
            assert abs(float(e.alpha * (k + c + 2) + e.gamma - 1) - ref) < 5e-6
        for k, ref in enumerate(self.NU_SIDE, start=1):
            e = bd.exponents(k)
            assert abs(float(-e.alpha * (k + c + 1) + e.nu - 1) - ref) < 5e-6


def _ref_level(m, N, k, P, b, form):
    """The per-call level-k arithmetic bound_eval used before the level table:
    (main term, secondary term, bound)."""
    ex = bd.exponents(k)
    log_m = math.log(m)
    log_n = math.log(N)
    log_pow_main = float(ex.alpha) * log_m + float(ex.gamma) * log_n
    log_pow_sec = -float(ex.alpha) * log_m + float(ex.nu) * log_n
    if form == "recursive":
        cs = bd.constants(k, P, b)
        tm = nt.round_up(cs.a_k * _exp_or_overflow(log_pow_main))
        ts = nt.round_up(cs.b_k * _exp_or_overflow(log_pow_sec))
    else:
        kc = bd.k_constants(P, b)
        tm = bd._exp_or_inf(kc.log_k1 + k * math.log(kc.k2) + log_pow_main)
        ts = bd._exp_or_inf(kc.log_k3 + log_pow_sec)
    logfac = nt.round_up((1.0 + log_m) ** (2.0**-k))
    return tm, ts, (tm + ts) * logfac


def _exp_or_overflow(x):
    """math.exp(x), or inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ref_long(m, N, P, b):
    tm = nt.round_up(math.sqrt(m))
    try:
        ts = nt.round_up(nt.capital_m(P, b) * N / math.sqrt(m))
    except OverflowError:  # M N past the float range
        ts = math.inf
    logfac = nt.round_up(1.0 + math.log(m))
    return tm, ts, (tm + ts) * logfac


def _ref_short(m, d):
    md = m // d
    tm = nt.round_up(math.sqrt(md))
    return tm, tm * nt.round_up(1.0 + math.log(md))


def _ref_row(m, a, N, P, b, k_lo, k_hi):
    """One scan row computed bound by bound, as every scan row was before
    the bounds were evaluated once per modulus."""
    s_abs = se.eval_sum_reduced(a, b, m, N).magnitude
    recs = [(_ref_level(m, N, k, P, b, "recursive")[2], k) for k in range(k_lo, k_hi + 1)]
    rec, k_star = min(recs)
    main = _ref_level(m, N, k_star, P, b, "main")[2]
    short = _ref_short(m, 1)[1] if N <= nt.mult_order(b, m) else None
    return (m, a, N, k_star, s_abs, s_abs / N, rec, main, _ref_long(m, N, P, b)[2], short,
            rec < N, main < N)


def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


def _listed(moduli, P):
    """The moduli with their exponents, as smooth_numbers lists them."""
    return [(m, tuple((p, e) for p, e in nt.factor_smooth(m, P).exponents.items() if e)) for m in moduli]


class TestAgainstPerCallReference:
    """Scan rows, bound_eval, best_k and bound_baseline against the per-call
    formulas above, bit for bit."""

    CASES = [
        # (primes, b, moduli, a_policy, N_policy, k_lo, k_hi)
        ((3,), 2, [3, 9, 27, 3**7, 3**10], {"kind": "sample", "count": 2},
         {"kind": "explicit", "values": [1, 2, 5, 7, 100, 3**11]}, 0, 4),
        ((3,), 2, [81, 3**9], {"kind": "fixed", "values": [1, 2, 5]},
         {"kind": "powers", "exponents": [0.2, 0.5, 1.0, 1.5]}, 2, 6),
        ((3, 5), 2, [15, 45, 75, 225, 3**4 * 5**3], {"kind": "sample", "count": 3},
         {"kind": "powers", "exponents": [0.15, 0.25, 0.4, 0.6, 1.0, 1.2]}, 0, 4),
        ((3, 5, 7, 11, 13), 2, [1001, 15015, 13**3, 7**2 * 11 * 13, 3**9 * 5], {"kind": "sample", "count": 1},
         {"kind": "explicit", "values": [1, 8, 32, 128]}, 0, 10),
        ((2,), 3, [2, 4, 8, 2**6, 2**10], {"kind": "all"},
         {"kind": "explicit", "values": [1, 3, 7, 64, 5000]}, 1, 5),
        # m = 3^20 is above _INT64_SAFE_M
        ((3,), 2, [3**19, 3**20], {"kind": "sample", "count": 2},
         {"kind": "explicit", "values": [1, 8, 100]}, 0, 3),
        # N near the top of the float range: at 10^300 levels 2-4 read inf and
        # level 5 does not; at 10^308 every level and M N read inf, and the
        # tie between the levels goes to the first, k_lo
        ((3,), 2, [3, 27, 3**5], {"kind": "sample", "count": 2},
         {"kind": "explicit", "values": [5, 10**300, 10**308]}, 2, 5),
    ]

    def test_scan_rows(self, monkeypatch):
        reduced = []

        def spy(units, b, m, N):
            if isinstance(units, tuple):  # the scan's calls, not _ref_row's
                reduced.append((b, m, N))
            return fold(units, b, m, N)

        fold = se.eval_sum_reduced
        monkeypatch.setattr(se, "eval_sum_reduced", spy)
        got, want = [], []
        for primes, b, moduli, a_policy, n_policy, k_lo, k_hi in self.CASES:
            P = nt.PrimeSet(primes)
            config = cli.ScanConfig(primes, b, min(moduli), max(moduli), a_policy, n_policy,
                                    k_lo, k_hi, 42, None, "csv", 1)
            listed = _listed(moduli, P)
            rows, violation = cli._scan_chunk(listed, config)
            assert violation is None
            # the same rows with a chunk boundary after every second modulus
            pairs = [cli._scan_chunk(listed[i : i + 2], config) for i in range(0, len(moduli), 2)]
            assert [r for rs, _ in pairs for r in rs] == rows and all(v is None for _, v in pairs)
            got += [_bits(dataclasses.astuple(r)) for r in rows]
            for m, exponents in listed:
                units = cli._units_for(m, exponents, a_policy, 42)
                want += [_bits(_ref_row(m, a, N, P, b, k_lo, k_hi))
                         for a in units for N in cli._n_values(n_policy)(m)]
        assert got == want
        # the cases reach N = 1, k* = k_lo > 0, both sides of N <= ord(b, m)
        # (bound_short set or None) and m = 2^j with b = 3
        assert any(r[2] == 1 for r in got)
        assert any(r[3] == 2 for r in got if r[0] in (81, 3**9))
        assert any(r[9] is None for r in got) and any(r[9] is not None for r in got)
        assert any(r[0] == 2**10 for r in got)
        # eval_sum_reduced took only the long windows (3^10 at N = 3^11 has
        # T = 39366); the short windows beside them, every period fold with
        # T < _SCALAR_CUTOFF (27 at N = 100) and the short windows of m above
        # _INT64_SAFE_M (3^20 at N <= 100) went to the batched walk
        assert all(min(N, nt.mult_order(b, m)) >= se._SCALAR_CUTOFF for b, m, N in reduced)
        assert (2, 3**10, 3**11) in reduced
        assert not {(2, 3**20, 1), (2, 3**20, 100)} & set(reduced)
        assert any(r[0] == 3**10 and r[2] == 100 for r in got)
        assert any(r[0] == 27 and r[2] == 100 for r in got) and nt.mult_order(2, 27) == 18
        # rows past the float range: the least level after levels that read
        # inf, and rows where every level, main and long read inf
        huge = [r for r in got if r[2] in (10**300, 10**308)]
        assert len(huge) == 12
        assert all(r[3] == 5 and r[6] != "inf" for r in huge if r[2] == 10**300)
        assert all(r[3] == 2 and r[6] == r[7] == r[8] == "inf" for r in huge if r[2] == 10**308)

    @pytest.mark.parametrize("between", ["least_and_second", "second_and_third", "within_slack"])
    def test_scan_violation(self, monkeypatch, between):
        """A sum planted between two bounds of its row: the scan reports the
        first bound it exceeds beyond slack, in the order levels k_lo..k_hi,
        main, long, short, after the rows before it in (m, a, N) order."""
        P, m, a, N, slack = P3, 27, 2, 6, cli.VALIDITY_SLACK
        levels = [_ref_level(m, N, k, P, 2, "recursive")[2] for k in range(4)]
        k_star = levels.index(min(levels))
        ordered = levels + [_ref_level(m, N, k_star, P, 2, "main")[2], _ref_long(m, N, P, 2)[2],
                            _ref_short(m, 1)[1]]
        assert N <= nt.mult_order(2, m)  # the short bound holds at this row
        least, second, third = sorted(set(ordered))[:3]
        s_abs = {"least_and_second": least * (1.0 + 2 * slack),
                 "second_and_third": (second + third) / 2,
                 "within_slack": least * (1.0 + slack / 2)}[between]
        want = next((v for v in ordered if s_abs > v * (1.0 + slack)), None)
        # the first bound exceeded is the least, is not the least, or is none
        assert want == {"least_and_second": least, "second_and_third": second,
                        "within_slack": None}[between]
        real = se.eval_scan_sums

        def planted(b, cells):
            sums = real(b, cells)
            i = [cell[0] for cell in cells].index(m)
            sums[i][cells[i][2].index(a)][cells[i][3].index(N)] = complex(0.0, s_abs)
            return sums

        monkeypatch.setattr(se, "eval_scan_sums", planted)
        config = cli.ScanConfig((3,), 2, 9, 81, {"kind": "fixed", "values": [1, 2]},
                                {"kind": "explicit", "values": [2, N, 50]}, 0, 3, 42, None, "csv", 1)
        rows, violation = cli._scan_chunk(_listed([9, 27, 81], P), config)
        keys = [(r.m, r.a, r.N) for r in rows]
        if want is None:
            assert violation is None and len(keys) == 18 and (m, a, N) in keys
            return
        assert violation == {"m": m, "a": a, "N": N, "s_abs": s_abs, "violated_bound": want}
        assert keys == [(9, 1, 2), (9, 1, 6), (9, 1, 50), (9, 2, 2), (9, 2, 6), (9, 2, 50),
                        (27, 1, 2), (27, 1, 6), (27, 1, 50), (27, 2, 2)]

    def test_violation_of_a_level_screened_out(self, monkeypatch):
        """A sum above a level that is not the least, so that bound_table's
        screen did not take it, and below every bound before it in order:
        the scan reports that level's exact bound, bound_eval's bits."""
        P, m, a, slack, ks = P35, 3**100 * 5**10, 1, cli.VALIDITY_SLACK, range(0, 11)
        N = int(math.exp(math.log(m) * 0.2))
        levels = [bd.bound_eval(m, N, k, P, 2).bound_value for k in ks]
        # levels 0 > 1 > 2 > 3, the least; the sum lies between levels 0 and 1
        assert levels.index(min(levels)) == 3 and levels[0] > levels[1] > levels[2] > levels[3]
        s_abs = (levels[1] * (1.0 + 2 * slack) + levels[0]) / 2
        assert levels[1] * (1.0 + slack) < s_abs < levels[0]
        table = bd.bound_table([(m, N)], P, 2, ks)
        assert int(table.best[0]) == 3 and table.recursive[0, 2] == levels[3]

        def planted(b, cells):  # the one sum of the chunk, in place of its walk
            assert [(c[0], c[2], c[3]) for c in cells] == [(m, (a,), [N])]
            return [[[complex(s_abs, 0.0)]]]

        monkeypatch.setattr(se, "eval_scan_sums", planted)
        config = cli.ScanConfig((3, 5), 2, m, m, {"kind": "fixed", "values": [a]},
                                {"kind": "explicit", "values": [N]}, 0, 10, 42, None, "csv", 1)
        rows, violation = cli._scan_chunk(_listed([m], P), config)
        assert rows == []
        assert violation == {"m": m, "a": a, "N": N, "s_abs": s_abs, "violated_bound": levels[1]}
        assert violation["violated_bound"].hex() == bd.bound_eval(m, N, 1, P, 2).bound_value.hex()

    def test_screen_against_every_level(self):
        """bound_table's least level, least bound, main, long and short
        against the table that takes every level by math, bit for bit, on
        random environments, moduli to log m = 703 (where terms read inf),
        N to the top of the float range, exactly tied levels (a level listed
        twice) and single levels."""
        rng = random.Random(2026)
        envs = [((3,), 2), ((3, 5), 2), ((3, 5, 7, 11, 13), 2), ((2,), 3), ((2, 3), 5), ((5, 7), 2)]
        checked = ties = infinite = 0
        for _ in range(300):
            primes, b = rng.choice(envs)
            P, rows = nt.PrimeSet(primes), []
            for _ in range(rng.randrange(1, 25)):
                log_max = rng.choice([20.0, 60.0, 703.0])
                m = math.prod(p ** rng.randrange(0, int(log_max / math.log(p) / len(primes)) + 1) for p in primes)
                N = rng.choice([1, 2, 8, 128, rng.randrange(1, 10**6), 10 ** rng.randrange(1, 309),
                                10 ** rng.randrange(300, 309),
                                int(math.exp(min(709.0, math.log(m) * rng.uniform(0.0, 1.2)))) + 1])
                rows.append((m, N))
            lo = rng.randrange(0, 9)
            ks = rng.choice([[lo], list(range(lo, lo + rng.randrange(2, 12)))])
            if len(ks) > 2 and rng.random() < 0.3:
                ks.insert(rng.randrange(len(ks)), rng.choice(ks))  # one level twice: an exact tie
            long, short, every, best, main = bound_table_every_level(rows, P, b, ks)
            table = bd.bound_table(rows, P, b, ks)
            assert table.best.tolist() == best.tolist()
            pick = np.arange(len(rows)), best
            for got, want in ((table.recursive, every[pick]), (table.main, main), (table.long, long),
                              (table.short, short)):
                assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
            least = every[..., 2].min(axis=1, keepdims=True)
            ties += int(((every[..., 2] == least).sum(axis=1) > 1).sum())
            infinite += int(np.isinf(every[..., 2]).any(axis=1).sum())
            checked += len(rows)
        assert checked > 3000 and ties > 50 and infinite > 50

    def test_screen_at_the_top_of_the_float_range(self):
        """A least level whose estimate is finite and whose bound overflows:
        at m = 3^1293 every level but 1 reads inf at these N (sqrt m alone
        passes the largest float), and N is the least at which level 1's
        bound overflows too, so its terms are finite and its estimate lies
        just below the largest float.  The row must take every level and
        keep level 0, as the table of every level does."""
        P, ks, m = nt.PrimeSet.of(3), list(range(6)), 3**1293
        lo, hi = 1 << 1200, 1 << 1400  # level 1's bound is finite at lo, inf at hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if bd.bound_eval(m, mid, 1, P, 2).bound_value < math.inf else (lo, mid)
        for N in (lo, hi):
            long, short, every, best, main = bound_table_every_level([(m, N)], P, 2, ks)
            table = bd.bound_table([(m, N)], P, 2, ks)
            assert table.best.tolist() == best.tolist()
            for got, want in ((table.recursive, every[0, best]), (table.main, main)):
                assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
        assert math.isfinite(every[0, 1, 0]) and math.isfinite(every[0, 1, 1]) and np.isinf(every[0, :, 2]).all()
        assert best.tolist() == [0] and math.isinf(table.recursive[0, 0])

    @pytest.mark.parametrize("primes,b,moduli", [(c[0], c[1], c[2]) for c in CASES])
    def test_single_bound_calls(self, primes, b, moduli):
        P = nt.PrimeSet(primes)
        for m in moduli:
            order = nt.mult_order(b, m)
            for N in (1, 2, 30, order, order + 1, 5 * m, 10**300, 10**308):
                for k in range(7):
                    for form in ("recursive", "main"):
                        rep = bd.bound_eval(m, N, k, P, b, form)
                        assert _bits((rep.term_main, rep.term_secondary, rep.bound_value)) == _bits(
                            _ref_level(m, N, k, P, b, form))
                        assert rep.nontrivial == (rep.bound_value < N)
                for k_max in (0, 3, 8):
                    best = bd.best_k(m, N, P, b, k_max)
                    bound, k_star = min((_ref_level(m, N, k, P, b, "recursive")[2], k)
                                        for k in range(k_max + 1))
                    assert (best.k_star, best.report.k) == (k_star, k_star)
                    assert best.report.bound_value.hex() == bound.hex()
                rep = bd.bound_baseline(m, N, 1, P, b, "long")
                assert _bits((rep.term_main, rep.term_secondary, rep.bound_value)) == _bits(_ref_long(m, N, P, b))
                if N <= order:
                    rep = bd.bound_baseline(m, N, 1, P, b, "short")
                    assert _bits((rep.term_main, rep.bound_value)) == _bits(_ref_short(m, 1))
