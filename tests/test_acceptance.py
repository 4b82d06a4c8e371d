"""Acceptance suite: every shipped guarantee at its stated tolerance.

Each test prints one PASS/FAIL line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import math
import random
from fractions import Fraction

import pytest

from korosum import bounds as bd
from korosum import cli
from korosum import digits as dg
from korosum import normalnum as nn
from korosum import numtheory as nt
from korosum import sumeval as se
from korosum.errors import DegenerateRange
from oracles import contains_interval, euler_phi, mult_order_naive, overlaps


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_interval_table_exact():
    expected = {
        0: (Fraction(1, 2), None),
        1: (Fraction(1, 3), None),
        2: (Fraction(1, 4), Fraction(2)),
        3: (Fraction(28, 139), Fraction(14, 17)),
        4: (Fraction(105, 622), Fraction(840, 1721)),
        5: (Fraction(52080, 358871), Fraction(26040, 76903)),
    }
    ok = True
    for k, (lo, hi) in expected.items():
        ik, _ = bd.intervals(k)
        ok = ok and ik.lo == lo and ik.hi == hi
    _report(1, "interval table k=0..5 reproduced as exact rationals", ok)


def test_criterion_02_limit_constant():
    lc = bd.epsilon_prime_and_c(120)
    reference = -1.17094960687104654952
    ok = abs(lc.c - reference) <= 1e-15 and lc.tail_bound <= 1e-15
    _report(2, "limit constant c to 1e-15 with certified tail <= 1e-15", ok)


def test_criterion_03_direct_calculation_decimals():
    gamma_side = [-0.195158, -0.0836393, -0.0378412, -0.0176574, -0.0084263, -0.0040877]
    nu_side = [-0.138175, -0.0949322, -0.0538255, -0.0287136, -0.0148872]
    c_lo, c_hi = bd.certified_c()
    c = (c_lo + c_hi) / 2
    ok = True
    for k, ref in enumerate(gamma_side, start=1):
        e = bd.exponents(k)
        ok = ok and abs(float(e.alpha * (k + c + 2) + e.gamma - 1) - ref) <= 5e-6
    for k, ref in enumerate(nu_side, start=1):
        e = bd.exponents(k)
        ok = ok and abs(float(-e.alpha * (k + c + 1) + e.nu - 1) - ref) <= 5e-6
    _report(3, "all eleven direct-calculation decimals within 5e-6", ok)


def test_criterion_04_order_structure_equivalence():
    combos = (
        (nt.PrimeSet.of(3, 5, 7), 2),
        (nt.PrimeSet.of(3, 5, 7), 10),
        (nt.PrimeSet.of(2), 3),
        (nt.PrimeSet.of(2), 7),
    )
    checked = 0
    ok = True
    for P, b in combos:
        for m in nt.smooth_numbers(P, 10**5):
            if math.gcd(b, m) != 1:
                continue
            ok = ok and nt.factor_smooth(m, P).order_structure(b).order == mult_order_naive(b, m)
            checked += 1
    _report(4, f"structured order equals brute-force order on {checked} moduli", ok)


def _random_saturated_divisor(m, fac, rng):
    """Random divisor m' with rad(m) | m' and 4 | m => 4 | m'."""
    m_prime = 1
    for p, e in fac.items():
        if e == 0:
            continue
        emin = 2 if (p == 2 and m % 4 == 0) else 1
        m_prime *= p ** rng.randrange(emin, e + 1)
    return m_prime


def test_criterion_05_differencing_fuzz():
    rng = random.Random(20260810)
    environments = [
        (nt.PrimeSet.of(3), 2),
        (nt.PrimeSet.of(3, 5), 2),
        (nt.PrimeSet.of(2, 3), 5),
        (nt.PrimeSet.of(3, 5, 7), 2),
        (nt.PrimeSet.of(2), 3),
        (nt.PrimeSet.of(5, 7), 2),
    ]
    done = 0
    ok = True
    while done < 1000:
        P, b = rng.choice(environments)
        m = 1
        for p in P:
            m *= p ** rng.randrange(0, int(math.log(10**6) / math.log(p)) + 1)
        if m < 15 or m > 10**6 or math.gcd(b, m) != 1:
            continue
        a = rng.randrange(1, m)
        N = rng.randrange(2, 5001)
        fac = nt.factor_smooth(m, P).exponents
        if rng.random() < 0.5:
            ex = bd.exponents(rng.randrange(0, 5))
            try:
                m_prime = se.choose_m_prime(m, N, P, ex.alpha, ex.gamma, ex.nu)
            except DegenerateRange:
                m_prime = _random_saturated_divisor(m, fac, rng)
        else:
            m_prime = _random_saturated_divisor(m, fac, rng)
        rep = se.verify_differencing(a, b, m, m_prime, N)
        ok = ok and rep.holds
        done += 1
    _report(5, "differencing inequality holds on 1000 pseudo-random instances", ok)


def test_criterion_06_bound_validity_sweep():
    P = nt.PrimeSet.of(3, 5)
    b = 2
    rng = random.Random(6)
    ok = True
    cells = 0
    for m in nt.smooth_numbers(P, 10**6, lo=3):
        units = set()
        phi = euler_phi(m)
        while len(units) < min(20, phi):
            a = rng.randrange(1, m)
            if math.gcd(a, m) == 1:
                units.add(a)
        n_values = sorted({max(1, math.ceil(m**x)) for x in (0.15, 0.25, 0.4, 0.6, 1.0)})
        for a in sorted(units):
            for N in n_values:
                s_abs = se.eval_sum(a, b, m, N).magnitude
                for k in range(5):
                    rec = bd.bound_eval(m, N, k, P, b, "recursive")
                    main = bd.bound_eval(m, N, k, P, b, "main")
                    ok = ok and s_abs <= rec.bound_value * (1 + 1e-6)
                    ok = ok and rec.bound_value <= main.bound_value
                    cells += 1
    _report(6, f"|S_N| within every recursive bound over {cells} grid cells", ok)


def test_criterion_07_gcd_structure_exhaustive():
    def saturated_divisors(m, fac):
        out = [1]
        for p, e in fac.items():
            if e == 0:
                continue
            emin = 2 if (p == 2 and m % 4 == 0) else 1
            out = [v * p**j for v in out for j in range(emin, e + 1)]
        return out

    ok = True
    checks = 0
    # b = 7 is 3 mod 4: even moduli walk the doubled-order branch
    for P, b in ((nt.PrimeSet.of(3, 5, 7), 2), (nt.PrimeSet.of(2, 3), 5), (nt.PrimeSet.of(2, 3), 7)):
        for m in nt.smooth_numbers(P, 10**4, lo=3):
            if math.gcd(b, m) != 1:
                continue
            fac = nt.factor_smooth(m, P).exponents
            for m_prime in saturated_divisors(m, fac):
                tau = nt.mult_order(b, m_prime)
                bar = se.m_bar(b, m, m_prime)
                step = pow(b, tau, m)
                r = 1
                for i in range(1, 201):
                    r = r * step % m
                    ok = ok and math.gcd(r - 1, m) == bar * math.gcd(i, m // bar)
                    checks += 1
    _report(7, f"gcd(b^(i tau)-1, m) = m_bar gcd(i, m/m_bar) on {checks} checks", ok)


def test_criterion_08_exact_rational_identities():
    lc = bd.epsilon_prime_and_c(30)
    c_lo, c_hi = bd.certified_c()
    ok = True
    for k in range(31):
        e = bd.exponents(k)
        ok = ok and e.alpha == Fraction(1, 2 ** (k + 2) - 2)
        ok = ok and e.gamma + e.nu == 2 - Fraction(1, 2**k)
        ok = ok and e.nu - e.gamma - Fraction(k + 1, 2 ** (k + 1)) == lc.eps_primes[k] / 2 ** (k + 1)
        if k >= 2:
            tail = Fraction(k + 7) * Fraction(2) ** (1 - k)
            ok = ok and abs(e.c_gamma - c_lo) <= tail + (c_hi - c_lo)
            ok = ok and abs(e.c_nu - c_lo) <= tail + (c_hi - c_lo)
        if 1 <= k <= 30:
            cap = -Fraction(1, 2 ** (k + 3))
            ok = ok and e.alpha * (k + c_hi + 2) + e.gamma - 1 <= cap
            ok = ok and -e.alpha * (k + c_lo + 1) + e.nu - 1 <= cap
    for k in range(21):
        ik, _ = bd.intervals(k)
        ik1, tk1 = bd.intervals(k + 1)
        ok = ok and overlaps(ik, ik1)
        ok = ok and contains_interval(ik1, tk1)
    _report(8, "exponent identities, interval overlap and containment exact to k=30", ok)


def _brute_force_star_discrepancy(points):
    pts = sorted(points)
    n = len(pts)
    best = 0.0
    for t in set(pts) | {1.0}:
        c_lt = sum(1 for x in pts if x < t)
        c_le = sum(1 for x in pts if x <= t)
        best = max(best, abs(c_lt / n - t), abs(c_le / n - t))
    return best


def test_criterion_09_star_discrepancy_oracle():
    rng = random.Random(99)
    ok = True
    for _ in range(200):
        n = rng.randrange(1, 65)
        pts = [rng.random() for _ in range(n)]
        ok = ok and abs(nn.star_discrepancy(pts) - _brute_force_star_discrepancy(pts)) <= 1e-12
    _report(9, "sorted-formula star discrepancy equals brute force on 200 sets", ok)


def test_criterion_10_normal_number_trend():
    schedule = nn.Schedule.geometric(2, 3, 2)
    rows = [(N, d) for N, d in nn.discrepancy_trace(schedule, 1 << 17).rows if N >= 1 << 10]
    d_start = rows[0][1]
    d_end = rows[-1][1]
    ok = d_end < d_start and d_end < 0.05
    _report(10, f"discrepancy falls from {d_start:.4f} at 2^10 to {d_end:.4f} at 2^17", ok)


def test_criterion_11_digit_statistics():
    m, b, a = 5**8, 2, 1
    N = mult_order_naive(b, m)
    freq = dg.digit_frequencies(a, m, b, N)
    ok = all(abs(f - N / 2) <= 0.05 * (N / 2) for f in freq)
    from itertools import product

    for k in (1, 2, 3):
        total = sum(
            dg.count_occurrences(a, m, dg.DigitPattern(b, ds), N).count
            for ds in product(range(b), repeat=k)
        )
        ok = ok and total == N
    _report(11, f"digit frequencies balanced and pattern counts complete at N={N}", ok)


def test_criterion_12_scan_determinism():
    doc = {
        "primes": [3, 5],
        "b": 2,
        "m_range": [3, 2000],
        "a_policy": {"kind": "sample", "count": 3},
        "N_policy": {"kind": "powers", "exponents": [0.5, 1.0]},
        "k_range": [0, 3],
        "seed": 7,
    }
    config = cli.load_scan_config(doc)
    serial = cli.render_report(cli.run_scan(config, workers=1))
    parallel = cli.render_report(cli.run_scan(config, workers=8))
    ok = serial == parallel and len(serial) > 100
    _report(12, "scan output byte-identical at 1 and 8 workers", ok)
