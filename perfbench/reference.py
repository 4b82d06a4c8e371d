"""Independent reference arithmetic for the benchmark's output checks.

Nothing here imports korosum: every value is recomputed from its definition
with plain loops, exact integers and exact fractions, so a fault in the
program cannot hide in its own reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Sequence


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization by trial division."""
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def order(b: int, m: int) -> int:
    """Least t >= 1 with b^t = 1 mod m: strip prime factors off phi(m)."""
    if m == 1:
        return 1
    t = euler_phi(m)
    for q in factorize(t):
        while t % q == 0 and pow(b, t // q, m) == 1:
            t //= q
    return t


def smooth_numbers(primes: Sequence[int], lo: int, hi: int) -> List[int]:
    """All integers in [lo, hi] whose prime factors lie in `primes`."""
    values = [1]
    for p in primes:
        values = [v * p**j for v in values for j in range(int(math.log(hi, p)) + 2) if v * p**j <= hi]
    return sorted(v for v in set(values) if v >= lo)


def direct_sum(a: int, b: int, m: int, N: int) -> complex:
    """sum_{n=1}^{N} e(a b^n / m) term by term: exact residues, no folding, no blocks."""
    scale = 2.0 * math.pi / m
    r = a * b % m
    re, im = [], []
    for _ in range(N):
        re.append(math.cos(scale * r))
        im.append(math.sin(scale * r))
        r = r * b % m
    return complex(math.fsum(re), math.fsum(im))


def expansion_digits(a: int, m: int, b: int, count: int) -> List[int]:
    """The first `count` base-b digits of a/m by long division."""
    out = []
    r = a
    for _ in range(count):
        d, r = divmod(b * r, m)
        out.append(d)
    return out


def count_pattern(digits: Sequence[int], pattern: Sequence[int], N: int) -> int:
    """Starts of `pattern` at positions 1..N of `digits` (which must hold N + k - 1 digits)."""
    text, pat = bytes(digits), bytes(pattern)
    count, i = 0, text.find(pat)
    while 0 <= i < N:
        count += 1
        i = text.find(pat, i + 1)
    return count


def geometric_points(b: int, c_base: int, m_base: int, n: int) -> List[Fraction]:
    """x_0 .. x_{n-1} with x_j = {sum over blocks k with m_k <= j of b^(j - m_k) / c_k},
    c_k = c_base^k, m_k = m_base^k: the fractional parts of b^j times the
    partial series, straight from the definition."""
    points = []
    for j in range(n):
        value = Fraction(0)
        k = 1
        while m_base**k <= j:
            c_k = c_base**k
            value += Fraction(pow(b, j - m_base**k, c_k), c_k)
            k += 1
        points.append(value - math.floor(value))
    return points


def star_discrepancy(points: Sequence[Fraction]) -> Fraction:
    """sup_t |#{x < t}/n - t| and |#{x <= t}/n - t| over every point and t = 1, exactly."""
    pts = sorted(points)
    n = len(pts)
    best = Fraction(0)
    i = 0
    for t in sorted(set(pts)) + [Fraction(1)]:
        while i < n and pts[i] < t:
            i += 1
        below = i
        while i < n and pts[i] == t:
            i += 1
        best = max(best, abs(Fraction(below, n) - t), abs(Fraction(i, n) - t))
    return best


def saturated_divisor(m: int, exponents: Dict[int, int], rng) -> int:
    """Random divisor m' of m with rad(m) | m', and 4 | m' whenever 4 | m."""
    m_prime = 1
    for p, e in exponents.items():
        if e == 0:
            continue
        emin = 2 if (p == 2 and m % 4 == 0) else 1
        m_prime *= p ** rng.randrange(emin, e + 1)
    return m_prime
