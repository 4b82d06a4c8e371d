"""Reference oracles the tests compare the library against.

Each is the direct definition of a quantity: the order by iteration up to
lambda(m), divisor-power sums and the totient from a trial-division
factorization, primality and factorization by trial division, restricted totients by
counting, interval relations by endpoint comparison, the bound table at every level by
math's exp and ** (as bound_table took it before its level screen), the CSV report by
csv.writer one field at a time, exponential sums by the scalar and blocked
loops the library once had and by a plain-Python table of phase factors.  Most take time that grows with their input,
and no library code uses any of them, so they live with the tests.
"""

import csv
import dataclasses
import io
import math
from fractions import Fraction
from typing import Union

import numpy as np

from korosum import bounds
from korosum.bounds import RationalInterval
from korosum.cli import ScanRow
from korosum.errors import NotCoprime, OutOfRange
from korosum.numtheory import (ModulusStructure, PrimeSet, Rational, carmichael_lambda, factor_smooth,
                               factorize)


def factorize_trial(n: int) -> dict:
    """{prime: exponent} of n >= 1 by trial division up to sqrt(n)."""
    out, f = {}, 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mult_order_naive(b: int, m: int) -> int:
    """Least t >= 1 with b**t = 1 mod m, by direct iteration (the oracle).

    The order divides carmichael_lambda(m), so running past it is an
    invariant failure, not a search miss.
    """
    if m < 1:
        raise OutOfRange("modulus must be positive")
    if m == 1:
        return 1
    if math.gcd(b, m) != 1:
        raise NotCoprime(b, m)
    cap = carmichael_lambda(m)
    r = b % m
    t = 1
    while r != 1:
        r = r * b % m
        t += 1
        assert t <= cap, f"order of {b} mod {m} exceeded lambda={cap}"
    return t


def order_structure_uncached(m: int, P: PrimeSet, b: int) -> ModulusStructure:
    """ModulusStructure of b mod the P-smooth m from its definitions, per
    modulus: tau1 = ord(b, rad m) by iteration, each beta[p] by dividing p
    out of the integer b**((mu+1) tau1) - 1."""
    exps = {p: e for p, e in factor_smooth(m, P).exponents.items() if e}
    tau1 = mult_order_naive(b, math.prod(exps))
    mu = 1 if (m % 2 == 0 and tau1 % 2 == 1 and b % 4 == 3) else 0
    beta = {}
    for p in exps:
        x, beta[p] = b ** ((mu + 1) * tau1) - 1, 0
        while x % p == 0:
            x, beta[p] = x // p, beta[p] + 1
    m1 = math.prod(p ** min(e, beta[p]) for p, e in exps.items())
    tau_prime = 2 * tau1 if (mu == 1 and m % 4 == 0) else tau1
    return ModulusStructure(m, tau1, mu, tau_prime, beta, m1, m // m1 * tau_prime)


def divisor_power_sum(n: int, alpha: Rational, P: Union[PrimeSet, None] = None) -> float:
    """sum_{d|n} d**alpha via the product over prime powers.

    alpha may be negative (the reciprocal-power sum) or zero (the divisor
    count).  When P is given, n must be P-smooth.
    """
    if n < 1:
        raise OutOfRange(f"n must be positive, got {n}")
    exps = factor_smooth(n, P).exponents if P is not None else factorize(n)
    a = float(alpha)
    total = 1.0
    for p, e in exps.items():
        total *= sum(p ** (a * j) for j in range(e + 1))
    return total


def euler_phi(n: int) -> int:
    """Euler totient from the factorization."""
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_prime_trial(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def phi_d(n: int, d: int, x: Union[int, float, Fraction]) -> int:
    """Number of i in [1, x) with gcd(i, n) = d.

    Such i are exactly d*j with j < x/d and gcd(j, n/d) = 1.
    """
    if n < 1 or d < 1 or n % d != 0:
        raise OutOfRange(f"{d} does not divide {n}")
    if x <= 0:
        raise OutOfRange("x must be positive")
    nd = n // d
    count = 0
    j = 1
    while d * j < x:
        if math.gcd(j, nd) == 1:
            count += 1
        j += 1
    return count


def contains_interval(outer: RationalInterval, inner: RationalInterval) -> bool:
    """inner is a subset of outer (hi = None is +infinity)."""
    if inner.lo < outer.lo:
        return False
    if outer.hi is None:
        return True
    return inner.hi is not None and inner.hi <= outer.hi


def overlaps(first: RationalInterval, second: RationalInterval) -> bool:
    """The two closed intervals share a point."""
    lo = max(first.lo, second.lo)
    if first.hi is None:
        return second.hi is None or second.hi >= lo
    if second.hi is None:
        return first.hi >= lo
    return min(first.hi, second.hi) >= lo


def csv_report(rows) -> bytes:
    """render_report(rows, "csv") by csv.writer: ints as str, floats with 17
    significant digits, None as an empty field, bools as true/false."""
    def text(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v) if isinstance(v, int) else format(v, ".17g")

    names = [f.name for f in dataclasses.fields(ScanRow)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    for row in rows:
        writer.writerow([text(getattr(row, name)) for name in names])
    return buf.getvalue().encode("utf-8")


def eval_sum_scalar(a0: int, b0: int, m: int, N: int) -> complex:
    """S_N = sum_{n=1}^{N} e(a0 b0^n / m) by a scalar loop over the exact
    residues r: math.cos and math.sin of (2 pi / m) r, then one fsum each."""
    scale = 2.0 * math.pi / m
    res, ims = [], []
    r = a0 * b0 % m
    for _ in range(N):
        theta = scale * r
        res.append(math.cos(theta))
        ims.append(math.sin(theta))
        r = r * b0 % m
    return complex(math.fsum(res), math.fsum(ims))


def eval_sum_blocked(a0: int, b0: int, m: int, N: int, block: int = 4096) -> complex:
    """S_N in blocks of `block` exact residues, each rounded once to double
    (exact below 2^53): np.sum of the cos and of the sin of each block, then
    fsum of the block sums."""
    scale = 2.0 * math.pi / m
    re_parts, im_parts = [], []
    r = a0 * b0 % m
    for done in range(0, N, block):
        rs = []
        for _ in range(min(block, N - done)):
            rs.append(r)
            r = r * b0 % m
        theta = np.array(rs, dtype=np.float64) * scale
        re_parts.append(float(np.sum(np.cos(theta))))
        im_parts.append(float(np.sum(np.sin(theta))))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def eval_sum_tabled(a0: int, b0: int, m: int, N: int, block: int = 4096) -> complex:
    """S_N as eval_sum_blocked reduces it, each term e(r/m) the Python complex
    product H[r >> s] * L[r & (2^s - 1)] of two tables of math.cos and
    math.sin: H[i] = e(i 2^s / m), L[j] = e(j / m), s = ceil(bits(m) / 2)."""
    scale = 2.0 * math.pi / m
    s = (m.bit_length() + 1) // 2
    high = [complex(math.cos(scale * (i << s)), math.sin(scale * (i << s))) for i in range(((m - 1) >> s) + 1)]
    low = [complex(math.cos(scale * j), math.sin(scale * j)) for j in range(1 << s)]
    re_parts, im_parts = [], []
    r = a0 * b0 % m
    for done in range(0, N, block):
        zs = []
        for _ in range(min(block, N - done)):
            zs.append(high[r >> s] * low[r & ((1 << s) - 1)])
            r = r * b0 % m
        re_parts.append(float(np.sum(np.array([z.real for z in zs]))))
        im_parts.append(float(np.sum(np.array([z.imag for z in zs]))))
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def bound_table_every_level(rows, P: PrimeSet, b: int, ks):
    """(long, short, recursive, best, main) of bounds.bound_table with every
    level of every row taken by math.exp and **, recursive holding all
    levels, shape (rows, levels, 3): the table before its level screen."""
    def exp(x):  # math.exp of every element, inf above bounds._EXP_MAX
        e = np.array([math.exp(v) for v in np.minimum(x, bounds._EXP_MAX).ravel().tolist()]).reshape(x.shape)
        e[x > bounds._EXP_MAX] = math.inf
        return e

    up = 1.0 + bounds.UPPER_SLACK
    index = {}
    at = np.array([index.setdefault(m, len(index)) for m, _ in rows], dtype=np.intp)
    log_m = np.array([math.log(m) for m in index])
    root = np.array([math.sqrt(bounds._float_or_inf(m)) for m in index])[at]
    sqrt_up, log_fac = root * up, ((1.0 + log_m) * up)[at]
    mn = np.array([bounds._float_or_inf(bounds.capital_m(P, b) * N) for _, N in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        long_ts = np.where(root < math.inf, mn / root, math.inf) * up
        long = np.stack([sqrt_up, long_ts, (sqrt_up + long_ts) * log_fac], axis=1)
        short = np.stack([sqrt_up, sqrt_up * log_fac], axis=1)
        alpha, gamma, nu, a_k, b_k, log_main, log_k3, roots = np.transpose(bounds.level_rows(tuple(ks), P, b))
        fac = np.array([x**r for x in (1.0 + log_m).tolist() for r in roots.tolist()])
        fac = (fac.reshape(len(index), len(ks)) * up)[at]
        al = (log_m[:, None] * alpha)[at]
        log_n = np.array([math.log(N) for _, N in rows])
        e = exp(np.stack([al + gamma * log_n[:, None], -al + nu * log_n[:, None]]))
        tm, ts = a_k * e[0] * up, b_k * e[1] * up
        bound = (tm + ts) * fac
        best = bound.argmin(axis=1)
        pick = np.arange(len(rows)), best
        al = al[pick]
        e = exp(np.stack([log_main[best] + (al + gamma[best] * log_n),
                          log_k3[best] + (-al + nu[best] * log_n)])) * up
        main = np.stack([e[0], e[1], (e[0] + e[1]) * fac[pick]], axis=1)
    return long, short, np.stack([tm, ts, bound], axis=2), best, main
