"""Exact integer and rational number theory over smooth moduli.

Everything structural here is exact: integers are arbitrary precision,
p-adic valuations of b**e - 1 are found by modular probing (never by
materializing the giant power itself), and the handful of real-valued
quantities are returned as certified upper bounds via a small uniform
inflation, so downstream inequalities never fail from rounding down.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Dict, Iterator, List, NamedTuple, Tuple, Union

from .errors import NotCoprime, NotSmooth, OutOfRange

Rational = Union[int, Fraction]

#: Relative inflation applied to certified upper-bound reals.  One part in
#: 1e12 dominates the worst-case accumulated libm rounding of every formula
#: in this package while staying far below every test tolerance.
UPPER_SLACK = 1e-12


def round_up(x: float) -> float:
    """Inflate a non-negative float so it certifiably over-reports."""
    return x * (1.0 + UPPER_SLACK)


#: The first 13 primes: as strong-pseudoprime bases they decide every n below
#: _MR_EXACT_BELOW, the least strong pseudoprime to all of them (Sorenson and
#: Webster 2015, "Strong pseudoprimes to twelve prime bases").
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 3.3e24.

    From there on only a prime factor below 42 decides; otherwise it raises
    OutOfRange.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_EXACT_BELOW:
        raise OutOfRange(f"primality of {n} is only decided below {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeSet:
    """The ambient environment: distinct primes p_1 < ... < p_s."""

    primes: Tuple[int, ...]

    def __post_init__(self):
        if len(self.primes) == 0:
            raise OutOfRange("prime set must be non-empty")
        if list(self.primes) != sorted(set(self.primes)):
            raise OutOfRange("primes must be strictly ascending and distinct")
        for p in self.primes:
            if not is_prime(p):
                raise OutOfRange(f"{p} is not prime")

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(tuple(sorted(primes)))

    @property
    def s(self) -> int:
        return len(self.primes)

    @cached_property
    def Q(self) -> int:
        q = 1
        for p in self.primes:
            q *= p
        return q

    def require_coprime(self, b: int) -> None:
        """b is a base for this environment: b >= 2 and coprime to each prime."""
        if b < 2:
            raise OutOfRange(f"b must be at least 2, got {b}")
        for p in self.primes:
            if b % p == 0:
                raise NotCoprime(b, p)

    def __iter__(self) -> Iterator[int]:
        return iter(self.primes)


class SmoothFactorization(NamedTuple):
    """n = prod p_i ** exponents[p_i] over the primes of one PrimeSet."""

    n: int
    exponents: Dict[int, int]

    def order_structure(self, b: int) -> "ModulusStructure":
        """Order of b mod n from the structure of n alone (no iteration in n).

        tau1 = ord(b, rad n); mu = 1 iff n even, tau1 odd and b = 3 mod 4;
        beta[p] from p^beta || b**((mu+1)*tau1) - 1; m1 clips beta to the
        exponents of n; tau' doubles tau1 exactly when mu = 1 and 4 | n.
        The resulting order is (n/m1) * tau'.  tau1, mu and beta depend on b
        and the primes of n alone, so they come from an lru cache
        (_radical_structure); each result has a beta dict of its own.
        """
        m = self.n
        if b < 2:
            raise OutOfRange("b must be at least 2")
        if math.gcd(b, m) != 1:
            raise NotCoprime(b, m)
        tau1, mu, beta, m1, tau_prime = _order_parts(b, m, tuple((p, e) for p, e in self.exponents.items() if e))
        return ModulusStructure(m, tau1, mu, tau_prime, dict(beta), m1, (m // m1) * tau_prime)


def _order_parts(b: int, m: int, exponents: Tuple[Tuple[int, int], ...]):
    """(tau1, mu, beta pairs, m1, tau') of order_structure for m = prod p**e
    over exponents ((p, e), ...), e >= 1, ascending in p, coprime to b."""
    tau1, mu, beta = _radical_structure(b, tuple(p for p, _ in exponents))
    m1 = 1
    for (p, e), (_, v) in zip(exponents, beta):
        m1 *= p ** (e if e < v else v)
    return tau1, mu, beta, m1, 2 * tau1 if (mu == 1 and m % 4 == 0) else tau1


@lru_cache(maxsize=1024)
def _radical_structure(b: int, primes: Tuple[int, ...]) -> Tuple[int, int, Tuple[Tuple[int, int], ...]]:
    """(tau1, mu, ((p, beta[p]), ...)) of order_structure for the moduli with
    exactly these prime factors, coprime to b."""
    tau1 = mult_order(b, math.prod(primes))
    mu = 1 if (2 in primes and tau1 % 2 == 1 and b % 4 == 3) else 0
    return tau1, mu, tuple((p, _val_of_power_minus_one(b, (mu + 1) * tau1, p)) for p in primes)


def smooth_order(b: int, m: int, exponents: Tuple[Tuple[int, int], ...]) -> int:
    """ord(b, m) = (m / m1) tau' of order_structure, for m coprime to b with
    its exponents ((p, e), ...) as smooth_numbers lists them: no factoring."""
    _, _, _, m1, tau_prime = _order_parts(b, m, exponents)
    return (m // m1) * tau_prime


class ModulusStructure(NamedTuple):
    """Order decomposition ord(b, m) = (m / m1) * tau_prime.

    tau1 is the order of b modulo the radical of m; mu flags the one parity
    correction (m even, tau1 odd, b = 3 mod 4); beta[p] is the exact
    valuation p^beta || b**((mu+1)*tau1) - 1; m1 clips those valuations to
    the exponents of m.
    """

    m: int
    tau1: int
    mu: int
    tau_prime: int
    beta: Dict[int, int]
    m1: int
    order: int


def factor_smooth(n: int, P: PrimeSet) -> SmoothFactorization:
    """Exact exponent vector of n over P; rejects non-smooth n."""
    if n < 1:
        raise OutOfRange(f"modulus must be positive, got {n}")
    exps = {p: 0 for p in P}
    rest = n
    for p in P:
        while rest % p == 0:
            rest //= p
            exps[p] += 1
    if rest != 1:
        raise NotSmooth(n, rest)
    return SmoothFactorization(n, exps)


#: factorize divides out every prime below this before it tests the rest.
_TRIAL_LIMIT = 1000

#: Pollard-Brent steps one factor may take (0.2-0.3 s on a 2-vCPU Xeon
#: guest); rho needs about sqrt(p) steps to find the prime factor p.
_RHO_BUDGET = 1 << 18


def factorize(n: int) -> Dict[int, int]:
    """Full factorization, ascending: trial division below _TRIAL_LIMIT, then
    Miller-Rabin on what is left and Pollard-Brent rho (Brent 1980) on its
    composite parts.  Raises OutOfRange when rho runs past _RHO_BUDGET steps
    or is_prime cannot decide."""
    if n < 1:
        raise OutOfRange(f"n must be positive, got {n}")
    out: Dict[int, int] = {}
    rest, f = n, 2
    while f < _TRIAL_LIMIT and f * f <= rest:
        while rest % f == 0:
            out[f] = out.get(f, 0) + 1
            rest //= f
        f += 1 if f == 2 else 2
    parts = [rest] if rest > 1 else []
    while parts:
        x = parts.pop()
        if x < f * f or is_prime(x):  # no prime factor below f is left
            out[x] = out.get(x, 0) + 1
        else:
            d = _rho_factor(x)
            parts += [d, x // d]
    return dict(sorted(out.items()))


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n by Brent's cycle finding on
    y -> y^2 + c mod n, gcds taken over runs of 128 steps."""
    steps = 0
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += 2 * r
            if steps > _RHO_BUDGET:
                raise OutOfRange(f"no factor of {n} within {_RHO_BUDGET} Pollard-Brent steps")
            r *= 2
        if g == n:  # the run overshot: step back through it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise OutOfRange(f"no factor of {n} found")


@lru_cache(maxsize=65536)
def carmichael_lambda(n: int) -> int:
    """Carmichael function: exponent of the unit group mod n."""
    lam = 1
    for p, e in factorize(n).items():
        if p == 2:
            lp = 1 if e == 1 else (2 if e == 2 else 2 ** (e - 2))
        else:
            lp = (p - 1) * p ** (e - 1)
        lam = lam * lp // math.gcd(lam, lp)
    return lam


@lru_cache(maxsize=65536)
def mult_order(b: int, m: int) -> int:
    """Fast multiplicative order via exponent reduction from lambda(m)."""
    if m < 1:
        raise OutOfRange("modulus must be positive")
    if m == 1:
        return 1
    if math.gcd(b, m) != 1:
        raise NotCoprime(b, m)
    t = carmichael_lambda(m)
    for q in factorize(t):
        while t % q == 0 and pow(b, t // q, m) == 1:
            t //= q
    return t


def _val_of_power_minus_one(b: int, e: int, p: int) -> int:
    """v_p(b**e - 1), assuming p | b**e - 1, by probing mod p, p^2, p^3, ...

    Each probe is one modular exponentiation, so b**e is never formed.
    """
    if pow(b, e, p) != 1:
        return 0
    v = 1
    pk = p * p
    while pow(b, e, pk) == 1:
        v += 1
        pk *= p
    return v


@lru_cache(maxsize=None)
def capital_m(P: PrimeSet, b: int) -> int:
    """Uniform ceiling M for m1(m) over all P-smooth m.

    M = prod p ** v_p(b**(2*ord(b, Q)) - 1) with Q the product of the
    primes.  Every beta from order_structure is bounded by the
    matching valuation here, and M <= b**(2Q).
    """
    P.require_coprime(b)
    e = 2 * mult_order(b, P.Q)
    M = 1
    for p in P:
        M *= p ** _val_of_power_minus_one(b, e, p)
    return M


def c_p_alpha(P: PrimeSet, alpha: Rational) -> float:
    """prod p^a / (p^a - 1) over the prime set, as a certified upper bound.

    This dominates both sum_{d|n} d^a / n^a and sum_{d|n} d^(-a) for every
    P-smooth n and a > 0.
    """
    if alpha <= 0:
        raise OutOfRange(f"alpha must be positive, got {alpha}")
    a = float(alpha)
    out = 1.0
    for p in P:
        pa = p ** a
        out *= pa / (pa - 1.0)
    return round_up(out)


#: Most steps of smooth_numbers, nodes visited and values listed: over the
#: first 12 primes it is reached below 1e30 in 0.15 s (2-vCPU Xeon guest).
MAX_SMOOTH_NUMBERS = 2 * 10**6


def smooth_numbers(P: PrimeSet, limit: int, lo: int = 1) -> List[Tuple[int, Tuple[Tuple[int, int], ...]]]:
    """The P-smooth integers m in [lo, limit], ascending, each with its
    exponents ((p, e), ...) over the primes p | m, ascending in p.

    Depth first over the nodes v, the products of powers of every prime but
    the smallest, p, up to limit, each pushed once with its exponents: the
    values of v are v p^e for the one run of e with lo <= v p^e <= limit,
    whose ends two bisections of the powers of p find.  Nodes visited and
    values listed are counted before any value is formed, and OutOfRange is
    raised where they pass MAX_SMOOTH_NUMBERS: memory follows the values in
    [lo, limit], not those below lo."""
    p, rest = P.primes[0], P.primes[1:]
    powers = [1]  # p^e <= limit
    while powers[-1] * p <= limit:
        powers.append(powers[-1] * p)
    pairs = [((p, e),) if e else () for e in range(len(powers))]
    runs, steps = [], 0
    stack = [(1, 0, ())]  # (v, index in rest of the least prime v's multiples may add, exponents of v)
    while stack:
        v, i, exps = stack.pop()
        end = bisect_right(powers, limit // v)
        first = bisect_left(powers, -(-lo // v), 0, end) if v < lo else 0
        steps += 1 + end - first
        if steps > MAX_SMOOTH_NUMBERS:
            raise OutOfRange(f"listing the P-smooth integers in [{lo}, {limit}] takes more than "
                             f"{MAX_SMOOTH_NUMBERS} steps")
        if first < end:
            runs.append((v, first, end, exps))
        for j, q in enumerate(rest[i:], i):
            w, e = v * q, 1
            if w > limit:
                break
            while w <= limit:  # v q^e, which adds only primes above q
                stack.append((w, j + 1, exps + ((q, e),)))
                w, e = w * q, e + 1
    values = [(v * powers[e], pairs[e] + exps) for v, first, end, exps in runs for e in range(first, end)]
    values.sort(key=itemgetter(0))
    return values
