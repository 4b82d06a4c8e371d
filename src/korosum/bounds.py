"""The explicit bound system: exact rational exponents, certified constants.

Level-k bounds have the shape

    |S_N| <= (A_k m^alpha_k N^gamma_k + B_k m^(-alpha_k) N^nu_k) (1 + log m)^(2^-k)

with alpha_k = 1/(2^(k+2)-2) and gamma_k, nu_k, A_k, B_k defined by a
recursion seeded at (gamma, nu, A, B) = (0, 1, 1, M).  Exponents live in
exact rational arithmetic forever; constants live in round-up floating
point so the upper-bound contract survives the conversion.  "log" is the
natural logarithm throughout; "log2" is base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import OutOfRange
from .numtheory import (
    UPPER_SLACK,
    PrimeSet,
    c_p_alpha,
    capital_m,
    factor_smooth,
    round_up,
)

if TYPE_CHECKING:
    import numpy as np

LN2 = math.log(2.0)

#: Coefficient of the advisory decay envelope exp(-coeff (log log m)^(3/2)).
#: Any value below log(2)/8 is admissible asymptotically; half of that
#: absorbs the lower-order factors at desk scale.
DECAY_COEFF = LN2 / 16.0

#: Levels used for the cached certified limit constant (tail ~ 2e-34).
_C_LEVELS = 120

#: The largest x whose math.exp is finite: math.exp of its successor overflows.
_EXP_MAX = 709.782712893384


@dataclass(frozen=True)
class ExponentState:
    """Exact rational exponents at one level, plus both c_k extractions.

    c_gamma and c_nu rewrite gamma_k = 1 - (k+3+c)/2^(k+2) and
    nu_k = 1 + (k-1+c)/2^(k+2); they coincide exactly.
    """

    k: int
    alpha: Fraction
    gamma: Fraction
    nu: Fraction
    c_gamma: Fraction
    c_nu: Fraction


@dataclass(frozen=True)
class ConstantState:
    """Certified-upper constants at one level."""

    k: int
    a_k: float
    b_k: float


@dataclass
class BoundReport:
    """One evaluated bound; bound_value = (term_main + term_secondary) * logfac."""

    m: int
    N: int
    k: int
    bound_value: float
    term_main: float
    term_secondary: float
    nontrivial: bool
    source: str


@dataclass(frozen=True)
class RationalInterval:
    """[lo, hi] with exact rational endpoints; hi = None means +infinity."""

    lo: Fraction
    hi: Optional[Fraction]

    def __post_init__(self):
        if self.lo <= 0:
            raise OutOfRange("interval must sit inside the positive axis")
        if self.hi is not None and self.hi < self.lo:
            raise OutOfRange("interval endpoints out of order")

    def contains(self, x) -> bool:
        """x lies strictly inside: lo < x < hi."""
        return self.lo < x and (self.hi is None or x < self.hi)


@dataclass(frozen=True)
class LimitConstant:
    """The scaled-difference sequence and its limit with a certified tail."""

    eps_primes: Tuple[Fraction, ...]
    c: float
    tail_bound: float
    c_exact: Fraction
    tail_exact: Fraction


@dataclass(frozen=True)
class KConstants:
    """Closed-form constants; K1 and K3 also carried in log space since
    b**(4Q) overflows floats already for mid-sized prime sets."""

    k1: float
    k2: float
    k3: float
    log_k1: float
    log_k3: float

    def k1_mantissa_exponent(self) -> Tuple[float, int]:
        e10 = self.log_k1 / math.log(10.0)
        exp = math.floor(e10)
        return 10.0 ** (e10 - exp), exp


@dataclass(frozen=True)
class BestK:
    """Exhaustive minimizer over levels, plus the interval-based prediction."""

    k_star: int
    report: BoundReport
    k_hat: Optional[int]


@dataclass(frozen=True)
class CorollaryResult:
    """Constants realizing |S_N| <= C m^(-delta) N (1+log m) for N >= m^epsilon."""

    k: int
    delta: Fraction
    big_c: float
    log_big_c: float
    segments: Tuple[Tuple[int, RationalInterval], ...]
    threshold_n: Callable[[Union[int, float]], float]
    decay: Callable[[Union[int, float]], float]


def decay_envelope(m: Union[int, float]) -> float:
    """Advisory decay envelope exp(-DECAY_COEFF (log log m)^(3/2)); 1 below m = 3."""
    if m < 3:
        return 1.0
    return math.exp(-DECAY_COEFF * math.log(math.log(m)) ** 1.5)


_EXP_TABLE: List[ExponentState] = []


def exponents(k: int) -> ExponentState:
    """Exact exponents at level k from the two-term recursion.

    gamma' = (1 + gamma + alpha*nu) / (2(1+alpha))
    nu'    = (1 + nu)/2 + (1 + gamma - nu) * alpha / (2(1+alpha))
    alpha' = alpha / (2(1+alpha)), seeded (alpha, gamma, nu) = (1/2, 0, 1).
    """
    if k < 0:
        raise OutOfRange("level must be non-negative")
    while len(_EXP_TABLE) <= k:
        if not _EXP_TABLE:
            state = _make_exponent_state(0, Fraction(1, 2), Fraction(0), Fraction(1))
        else:
            prev = _EXP_TABLE[-1]
            al, ga, nu = prev.alpha, prev.gamma, prev.nu
            den = 2 * (1 + al)
            state = _make_exponent_state(
                prev.k + 1,
                al / den,
                (1 + ga + al * nu) / den,
                Fraction(1 + nu, 2) + (1 + ga - nu) * al / den,
            )
        _EXP_TABLE.append(state)
    return _EXP_TABLE[k]


def _make_exponent_state(k: int, alpha: Fraction, gamma: Fraction, nu: Fraction) -> ExponentState:
    scale = Fraction(2) ** (k + 2)
    return ExponentState(
        k=k,
        alpha=alpha,
        gamma=gamma,
        nu=nu,
        c_gamma=scale * (1 - gamma) - (k + 3),
        c_nu=scale * (nu - 1) - (k - 1),
    )


#: The highest level with float constants: alpha_k = 1/(2^(k+2) - 2), so
#: from k = 52 on 2^alpha_k rounds to 1 and C_{P,alpha_k} divides by zero.
MAX_LEVEL = 50


@lru_cache(maxsize=None)
def constants(k: int, P: PrimeSet, b: int) -> ConstantState:
    """Certified-upper A_k, B_k for the prime environment (P, b).

    A_k = (2^(s+2) Q (A+B) C_{P,alpha} + 2Q + 2 A M C_{P,1+alpha})^(1/2)
    B_k = (2^(1+alpha) B M Q^alpha C_{P,1-alpha})^(1/2)

    with alpha taken at level k-1, seeded A_0 = 1, B_0 = M.  Every step is
    inflated upward, so the stored values never under-report.
    """
    if not 0 <= k <= MAX_LEVEL:
        raise OutOfRange(f"level must lie in [0, {MAX_LEVEL}], got {k}")
    M = capital_m(P, b)
    Q, s = P.Q, P.s
    if k == 0:
        return ConstantState(0, 1.0, float(M))
    prev = constants(k - 1, P, b)
    al = exponents(k - 1).alpha
    c_al = c_p_alpha(P, al)
    c_one_plus = c_p_alpha(P, 1 + al)
    c_one_minus = c_p_alpha(P, 1 - al)
    a_sq = round_up(
        2.0 ** (s + 2) * Q * (prev.a_k + prev.b_k) * c_al
        + 2.0 * Q
        + 2.0 * prev.a_k * M * c_one_plus
    )
    b_sq = round_up(2.0 ** (1 + float(al)) * prev.b_k * M * Q ** float(al) * c_one_minus)
    return ConstantState(k, round_up(math.sqrt(a_sq)), round_up(math.sqrt(b_sq)))


def epsilon_prime_and_c(k_max: int) -> LimitConstant:
    """Iterate e'_k = (1 - 2/(2^(k+1)-1)) e'_{k-1} + (1-2k)/(2^(k+1)-1) from e'_0 = 1
    to k = k_max.  The sequence is Cauchy with |e'_k - c| <= (k+7)/2^(k-1),
    the certified tail."""
    if k_max < 0:
        raise OutOfRange("k_max must be non-negative")
    eps = [Fraction(1)]
    for k in range(1, k_max + 1):
        d = 2 ** (k + 1) - 1
        eps.append((1 - Fraction(2, d)) * eps[-1] + Fraction(1 - 2 * k, d))
    tail = Fraction(k_max + 7) * Fraction(2) ** (1 - k_max)
    return LimitConstant(
        eps_primes=tuple(eps),
        c=float(eps[-1]),
        tail_bound=round_up(float(tail)),
        c_exact=eps[-1],
        tail_exact=tail,
    )


@lru_cache(maxsize=1)
def certified_c() -> Tuple[Fraction, Fraction]:
    """Enclosure [lo, hi] of the limit constant, width ~ 4e-34."""
    lc = epsilon_prime_and_c(_C_LEVELS)
    return lc.c_exact - lc.tail_exact, lc.c_exact + lc.tail_exact


@lru_cache(maxsize=None)
def k_constants(P: PrimeSet, b: int) -> KConstants:
    """Closed-form constants dominating A_k K2^(-k) and B_k uniformly in k.

    K1 = 6 * 2^(s+7/2) Q^(3/2) b^(4Q) prod sqrt(p) / ((sqrt(p)-1)(1-1/p))
    K2 = 2^s
    K3 = 2^(3/2) Q^(1/2) b^(2Q) prod sqrt(p) / (sqrt(p)-1)
    """
    P.require_coprime(b)
    s, Q = P.s, P.Q
    log_prod_half = 0.0
    log_prod_tot = 0.0
    for p in P:
        sp = math.sqrt(p)
        log_prod_half += math.log(sp / (sp - 1.0))
        log_prod_tot += math.log(1.0 / (1.0 - 1.0 / p))
    log_k1 = (
        math.log(6.0)
        + (s + 3.5) * LN2
        + 1.5 * math.log(Q)
        + 4.0 * Q * math.log(b)
        + log_prod_half
        + log_prod_tot
    )
    log_k3 = 1.5 * LN2 + 0.5 * math.log(Q) + 2.0 * Q * math.log(b) + log_prod_half
    return KConstants(
        k1=_exp_or_inf(log_k1),
        k2=float(2**s),
        k3=_exp_or_inf(log_k3),
        log_k1=log_k1 * (1.0 + 1e-14),
        log_k3=log_k3 * (1.0 + 1e-14),
    )


def _exp_or_inf(log_value: float) -> float:
    """round_up(exp(log_value)), inf past the float range."""
    return math.inf if log_value > _EXP_MAX else round_up(math.exp(log_value))


@lru_cache(maxsize=None)
def level_rows(ks: Tuple[int, ...], P: PrimeSet, b: int) -> Tuple[Tuple[float, ...], ...]:
    """Rows ks of the (P, b) level table, the floats the level-k bounds use:
    (alpha_k, gamma_k, nu_k, A_k, B_k, log K1 + k log K2, log K3, 2^-k)."""
    kc, rows = k_constants(P, b), []
    for k in ks:
        cs, ex = constants(k, P, b), exponents(k)
        rows.append((float(ex.alpha), float(ex.gamma), float(ex.nu), cs.a_k, cs.b_k,
                     kc.log_k1 + k * math.log(kc.k2), kc.log_k3, 2.0**-k))
    return tuple(rows)


class BoundTable(NamedTuple):
    """The bounds of rows (m, N), one array row each: (main term + secondary
    term) * round-up log factor, where a term past the float range reads inf."""

    long: np.ndarray  # (rows, 3): sqrt m, M N / sqrt m, bound (gcd(a, m) = 1)
    short: np.ndarray  # (rows, 2): sqrt m, bound (d = 1)
    recursive: Optional[np.ndarray]  # (rows, levels, 3): terms with A_k, B_k, bound
    best: Optional[np.ndarray]  # (rows,): index of the least recursive bound, ties to the first
    main: Optional[np.ndarray]  # (rows, 3): level `best` with K1 K2^k, K3 for A_k, B_k


def _float_or_inf(n: int) -> float:
    try:
        return float(n)
    except OverflowError:
        return math.inf


def bound_table(rows: Sequence[Tuple[int, int]], P: PrimeSet, b: int,
                ks: Sequence[int] = ()) -> BoundTable:
    """Every bound of the rows (m, N), m P-smooth and N >= 1, at the levels
    ks (none but long and short when ks is empty), with the float operations
    of the formulas in bound_eval and bound_baseline, in order, as array
    passes over rows x levels.  numpy's +, *, /, min and argmin are exact
    IEEE operations; its exp and power differ from libm's in the last bit on
    about 5 % and 4 % of arguments, so those two are math's."""
    import numpy as np  # here, so that cli compiles sumeval before numpy loads

    def exp(x):  # math.exp of every element, inf above _EXP_MAX
        e = np.fromiter(map(math.exp, memoryview(np.minimum(x, _EXP_MAX).ravel())), float, x.size)
        e = e.reshape(x.shape)
        e[x > _EXP_MAX] = math.inf
        return e

    if b < 2:  # capital_m would not terminate
        raise OutOfRange("b must be at least 2")
    up = 1.0 + UPPER_SLACK
    index: Dict[int, int] = {}
    at = np.array([index.setdefault(m, len(index)) for m, _ in rows], dtype=np.intp)
    log_m = np.array([math.log(m) for m in index])
    root = np.array([math.sqrt(_float_or_inf(m)) for m in index])[at]
    sqrt_up, log_fac = root * up, ((1.0 + log_m) * up)[at]
    M = capital_m(P, b)
    mn = np.array([_float_or_inf(M * N) for _, N in rows])
    # past the float range a product reads inf, as in Python, and M N / sqrt m where sqrt m does
    with np.errstate(over="ignore", invalid="ignore"):
        long_ts = np.where(root < math.inf, mn / root, math.inf) * up
        long = np.stack([sqrt_up, long_ts, (sqrt_up + long_ts) * log_fac], axis=1)
        short = np.stack([sqrt_up, sqrt_up * log_fac], axis=1)
        if not ks:
            return BoundTable(long, short, None, None, None)
        alpha, gamma, nu, a_k, b_k, log_main, log_k3, roots = np.transpose(level_rows(tuple(ks), P, b))
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
    return BoundTable(long, short, np.stack([tm, ts, bound], axis=2), best, main)


def _one_row(m: int, N: int, P: PrimeSet, b: int, ks: Sequence[int] = ()) -> BoundTable:
    """bound_table of (m, N) alone, after checking N and that m is P-smooth."""
    if N < 1:
        raise OutOfRange("N must be positive")
    factor_smooth(m, P)
    return bound_table([(m, N)], P, b, ks)


def bound_eval(m: int, N: int, k: int, P: PrimeSet, b: int, form: str = "recursive") -> BoundReport:
    """Level-k bound on |S_N| for P-smooth m, (round_up(A_k exp(x)) +
    round_up(B_k exp(y))) round_up((1 + log m)^(2^-k)) with x = alpha_k log m
    + gamma_k log N and y = -alpha_k log m + nu_k log N ("recursive"); "main"
    takes round_up(exp(log K1 + k log K2 + x)) and round_up(exp(log K3 + y))
    for the terms, and as K1 K2^k >= A_k, K3 >= B_k, main >= recursive."""
    table = _one_row(m, N, P, b, (k,))
    if form == "recursive":
        tm, ts, bound = table.recursive[0, 0].tolist()
    elif form == "main":
        tm, ts, bound = table.main[0].tolist()
    else:
        raise OutOfRange(f"unknown bound form {form!r}")
    return BoundReport(m, N, k, bound, tm, ts, bound < N, form)


def bound_baseline(m: int, N: int, d: int, P: PrimeSet, b: int, form: str = "short") -> BoundReport:
    """Baseline bounds below the recursion.

    short: sqrt(m/d) (1 + log(m/d)), valid for N <= ord(b, m) and d = 1 or
    d < m/m1, where d = gcd(a, m).  The report's m field carries the
    reduced modulus m/d so the report invariant stays intact.
    long : (sqrt(m) + M N / sqrt(m)) (1 + log m), valid for d = 1, any N.
    Each of sqrt, M N / sqrt m and 1 + log is rounded up.
    """
    if d < 1 or m % d != 0:
        raise OutOfRange(f"d={d} must divide m={m}")
    if form == "short":
        struct = factor_smooth(m, P).order_structure(b)
        if N > struct.order:
            raise OutOfRange(f"short form needs N <= ord(b, m) = {struct.order}")
        if not (d == 1 or d * struct.m1 < m):
            raise OutOfRange(f"short form needs d=1 or d < m/m1 = {m}/{struct.m1}")
        tm, bound = _one_row(m // d, N, P, b).short[0].tolist()
        return BoundReport(m // d, N, 0, bound, tm, 0.0, bound < N, "short")
    if form == "long":
        if d != 1:
            raise OutOfRange("long form requires gcd(a, m) = 1")
        tm, ts, bound = _one_row(m, N, P, b).long[0].tolist()
        return BoundReport(m, N, 0, bound, tm, ts, bound < N, "long")
    raise OutOfRange(f"unknown baseline form {form!r}")


def intervals(k: int) -> Tuple[RationalInterval, Optional[RationalInterval]]:
    """Non-trivial range I_k and (for k >= 1) the optimal range.

    I_k = [alpha/(1-gamma), alpha/(nu-1)] exactly (right end infinite when
    nu = 1).  The optimal range [1/(k+c+2), 1/(k+c+1)] is returned as its
    conservative outer hull over the certified enclosure of c; at level 0
    its right endpoint would be negative, so None is returned.
    """
    ex = exponents(k)
    lo = ex.alpha / (1 - ex.gamma)
    hi = None if ex.nu == 1 else ex.alpha / (ex.nu - 1)
    nontrivial = RationalInterval(lo, hi)
    if k == 0:
        return nontrivial, None
    c_lo, c_hi = certified_c()
    optimal = RationalInterval(1 / (k + 2 + c_hi), 1 / (k + 1 + c_lo))
    return nontrivial, optimal


def delta_of_subinterval(k: int, interval: RationalInterval) -> Fraction:
    """Exact decay exponent for a subinterval strictly inside I_k.

    At N = m^x: m^alpha N^(gamma-1) = m^(alpha - x(1-gamma)) peaks at the
    left end, m^(-alpha) N^(nu-1) peaks at the right end; delta is the
    smaller of the two margins.
    """
    ex = exponents(k)
    ambient, _ = intervals(k)
    if interval.lo <= ambient.lo:
        raise OutOfRange(f"left endpoint {interval.lo} not interior to I_{k}")
    if ambient.hi is not None and (interval.hi is None or interval.hi >= ambient.hi):
        raise OutOfRange(f"right endpoint {interval.hi} not interior to I_{k}")
    delta1 = (1 - ex.gamma) * interval.lo - ex.alpha
    if ex.nu == 1:
        delta2 = ex.alpha
    else:
        delta2 = ex.alpha - (ex.nu - 1) * interval.hi
    delta = min(delta1, delta2)
    if delta <= 0:
        raise OutOfRange("subinterval admits no positive decay exponent")
    return delta


def best_k(m: int, N: int, P: PrimeSet, b: int, k_max: int) -> BestK:
    """argmin over levels 0..k_max of the recursive bound (ties to smaller k),
    alongside the prediction from optimal-range membership of log N / log m."""
    if k_max < 0:
        raise OutOfRange("k_max must be non-negative")
    table = _one_row(m, N, P, b, range(k_max + 1))
    k_star = int(table.best[0])
    tm, ts, bound = table.recursive[0, k_star].tolist()
    winner = BoundReport(m, N, k_star, bound, tm, ts, bound < N, "recursive")
    k_hat = None
    if m > 1:
        c_lo, c_hi = certified_c()
        c_mid = (c_lo + c_hi) / 2
        x = math.log(N) / math.log(m)
        for k in range(1, k_max + 1):
            if float(1 / (k + 2 + c_mid)) <= x <= float(1 / (k + 1 + c_mid)):
                k_hat = k
                break
    return BestK(winner.k, winner, k_hat)


def corollary_constants(epsilon: Union[Fraction, float], P: PrimeSet, b: int) -> CorollaryResult:
    """Uniform-decay constants for the exponent range [epsilon, 1].

    Picks the smallest level k with epsilon strictly inside I_k, partitions
    [epsilon, 1] into segments strictly inside I_1..I_k by midpoint cuts of
    consecutive overlaps, and takes delta as the worst segment margin.  The
    companion constant is C = 2 K1 K2^k K3.
    """
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise OutOfRange(f"epsilon must lie in (0, 1), got {epsilon}")
    level = None
    for k in range(0, 200):
        ambient, _ = intervals(k)
        if ambient.contains(eps):
            level = k
            break
    if level is None:
        raise OutOfRange(f"no level admits {epsilon} strictly inside its range")
    if level == 0:
        segments = ((0, RationalInterval(eps, Fraction(1))),)
    else:
        cuts: dict = {1: Fraction(1), level + 1: eps}
        for i in range(2, level + 1):
            lo_prev = intervals(i - 1)[0].lo
            hi_here = intervals(i)[0].hi
            upper = cuts[i - 1] if hi_here is None else min(hi_here, cuts[i - 1])
            cuts[i] = (lo_prev + upper) / 2
        segments = tuple(
            (i, RationalInterval(cuts[i + 1], cuts[i])) for i in range(1, level + 1)
        )
    delta = min(delta_of_subinterval(i, seg) for i, seg in segments)
    kc = k_constants(P, b)
    log_big_c = math.log(2.0) + kc.log_k1 + level * math.log(kc.k2) + kc.log_k3
    big_c = _exp_or_inf(log_big_c)

    def threshold_n(m: Union[int, float]) -> float:
        """Smallest N of the guaranteed-decay regime at modulus m."""
        if m < 16:
            return math.inf
        log_m = math.log(m)
        loglog = math.log(log_m)
        denom = loglog / LN2 - 3.0 * math.log(loglog) / LN2
        if denom <= 0:
            return math.inf
        try:
            return math.exp(log_m / denom)
        except OverflowError:
            return math.inf

    return CorollaryResult(level, delta, big_c, log_big_c, segments, threshold_n, decay_envelope)
