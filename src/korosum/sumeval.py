"""Exact-phase evaluation of S_N = sum_{n=1}^{N} e(a * b^n / m).

Every phase angle comes from the exact integer residue a*b^n mod m, so the
only floating-point steps are the phase factors and a compensated
accumulation (plus, in the differencing verifier's fast path, dot products
folded over the orbit's period, with a certified error bound).  A phase
factor is cos/sin of r (2 pi / m), or, in a window long enough to repay two
tables of about 2 sqrt(m) factors (_tabled), the product of two entries,
e(r/m) = e((r >> s) 2^s / m) e((r & (2^s - 1)) / m).  Every window of terms
is built from three primitives, so its bits do not depend on who asks for
it: _powers doubles residues, _phases takes the phase factors by the
window's rule, and _phase_sum reduces.  eval_sum adds all N terms;
eval_sum_reduced and eval_scan_sums add the windows of one fold rule
(_fold_windows) and give the same bits.  The scan's windows below
_SCALAR_CUTOFF terms are exact prefix sums of batched walks, and the
windows of the table rule share one streamed walk per coset of <b>.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import fsum, gcd
from operator import itemgetter
from typing import Dict, List, NamedTuple, Tuple, Union

import numpy as np

from .errors import DegenerateRange, NotCoprime, OutOfRange
from .numtheory import PrimeSet, factor_smooth, factorize, mult_order

TWO_PI = 2.0 * math.pi

#: Sums below this length are one fsum over their terms (_phase_sum) and take
#: no table phases (_tabled); where a full period this long vanishes, a
#: remainder past half of it is taken from its complement.
_SCALAR_CUTOFF = 2048

#: Block length of the orbit and phase blocks (also the power-table length).
_BLOCK = 4096

#: A window of L >= _SCALAR_CUTOFF terms mod m takes table phases when
#: L >= _TABLE_RATIO sqrt(m): its terms then repay the tables' ~2 sqrt(m)
#: cos/sin even if no other window shares them (one window at 4 sqrt(m)
#: with cold tables took 0.88-1.03 times its cos/sin time for m from 2.7e6
#: to 3.04e9; at 2 sqrt(m), 1.4-1.6 times).
_TABLE_RATIO = 4

#: Largest modulus for which residue*residue stays inside int64.
_INT64_SAFE_M = 3_037_000_499

#: Relative slack on inequality "holds" flags: float summation noise must
#: never fabricate a counterexample to a proven statement.
HOLDS_SLACK = 1e-9

#: Unit roundoff of IEEE double precision.
_U = 2.0**-53

#: Assumed worst error of numpy's float64 cos and sin, in units of _U
#: absolute (a 1-ulp library stays within 1 on [-1, 1]; 4 is a cushion).
_TRIG_ULPS = 4


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * _U / (1.0 - k * _U)


def _phase_error(m: int, tabled: bool = False) -> float:
    """Bound on |z_hat - e(r/m)| for one computed phase factor, 0 <= r < m.

    By cos/sin, e: three roundings in theta = r * (2 pi / m) < 2 pi (2 pi,
    2 pi / m and the product), a fourth where m > 2^53 (r itself, rounded
    to double), then cos and sin.  From the tables, the product h l of two
    such factors, each of exact residue below m (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3, complex multiplication):
    |h_hat l_hat - h l| <= e_H + e_L + e_H e_L, and the rounded product is
    within sqrt(2) gamma_2 |h_hat| |l_hat| <= sqrt(2) gamma_2 (1 + e)^2 of it."""
    e = TWO_PI * _gamma(3 if m <= 2**53 else 4) + _TRIG_ULPS * math.sqrt(2.0) * _U
    return 2.0 * e + e * e + math.sqrt(2.0) * _gamma(2) * (1.0 + e) ** 2 if tabled else e


def _tabled(L: int, m: int) -> bool:
    """The window rule: whether a window of L terms mod m takes its phase
    factors from the tables (where its residues are int64, see _phases)."""
    return L >= _SCALAR_CUTOFF and L * L >= _TABLE_RATIO**2 * m


class SumResult(NamedTuple):
    """One evaluated exponential sum with its parameters."""

    value: complex
    magnitude: float
    N: int
    m: int
    a: int
    b: int


class DifferencingReport(NamedTuple):
    """Both sides of the squared differencing inequality for one instance."""

    lhs_squared: float
    rhs: float
    m_prime: int
    tau: int
    holds: bool
    #: which evaluation decided `holds`: "fast" (certified phase-vector dot
    #: products) or "exact" (one exact-phase eval_sum per lag)
    path: str
    #: certified rhs over lhs_squared (inf when lhs_squared is 0); on the fast
    #: path the rhs is lowered by the dot products' error bounds first
    margin: float


def _powers(first, step, m, width: int) -> np.ndarray:
    """first * step^j mod m for j < width, one row per entry of the (rows, 1)
    column `first`; step and m are ints or such columns.  Doubling,
    x step^(j+k) = (x step^j) step^k, keeps every product below m^2: in
    int64 while the largest m is at most _INT64_SAFE_M, else in Python ints
    (object arrays).  first, step and m are all taken to that kind; no other
    code chooses it, so every residue path serves every modulus."""
    kind = np.int64 if np.asarray(m, dtype=object).max() <= _INT64_SAFE_M else object
    first, step, m = (np.asarray(v, dtype=kind) for v in (first, step, m))
    out = np.empty((len(first), width), dtype=kind)
    out[:, :1] = first
    k = 1
    while k < width:
        out[:, k : 2 * k] = out[:, : min(k, width - k)] * step % m
        step = step * step % m
        k *= 2
    return out


@lru_cache(maxsize=2)
def _power_table(b_red: int, m: int):
    """(array of b^j mod m for j < _BLOCK, b^_BLOCK mod m), cached per (b, m);
    the array is shared by every caller, so it is read-only.  Every caller
    walks one (b, m) at a time, so a couple of entries suffice."""
    pows = _powers([[1 % m]], b_red, m, _BLOCK)[0]
    pows.flags.writeable = False
    return pows, pow(b_red, _BLOCK, m)


def _orbit_blocks(r0: int, b0: int, m: int, N: int, spans=None):
    """Exact residues r0 * b0^n mod m for n = 0..N-1, 0 <= r0 < m, in blocks of
    up to _BLOCK entries, each lead residue times the power table: the one
    orbit kernel of sums, digits and normal-number points.  Given a dict
    `spans` {i: (lo, hi)}, the i-th block is formed only over its offsets
    lo..hi-1, if i is in it, and None stands for the others; the lead
    residue of every block is still advanced exactly."""
    pows, step = _power_table(b0, m)
    lead = r0
    for i, done in enumerate(range(0, N, _BLOCK)):
        lo, hi = (0, N - done) if spans is None else spans.get(i, (0, 0))
        yield lead * pows[lo:hi] % m if hi else None
        lead = lead * step % m


@lru_cache(maxsize=2)
def _phase_table(m: int):
    """(s, H, L) with H[i] = e(i 2^s / m), i <= (m - 1) >> s, and
    L[j] = e(j / m), j < 2^s, s = ceil(bits(m) / 2): complex arrays of
    _phases' own factors, so e(r/m) = H[r >> s] L[r & (2^s - 1)] for
    0 <= r < m.  Cached per modulus and read-only, like _power_table."""
    s = (m.bit_length() + 1) // 2
    tables = []
    for residues in (np.arange(((m - 1) >> s) + 1) << s, np.arange(1 << s)):
        table = np.empty(residues.size, dtype=np.complex128)
        table.real, table.imag = _phases(residues, m)
        table.flags.writeable = False
        tables.append(table)
    return (s, *tables)


def _phases(residues: np.ndarray, m, out=None, table: bool = False) -> np.ndarray:
    """The phase factors e(r/m) of exact residues r as cos and sin stacked on
    a new first axis (into `out` when given); m is an int or a column.

    Given `table` (the window rule, _tabled) and int64 residues, each factor
    is the product of two entries of _phase_table(m), formed in real
    arithmetic as Python's complex product forms it, so its bits do not
    depend on the CPU's fused multiply-adds.  Otherwise it is cos and sin of
    the angle r (2 pi / m); Python ints (object arrays) are rounded once to
    double, so the angle is Python's float product (2 pi / m) * r."""
    if out is None:
        out = np.empty((2,) + residues.shape)
    if table and residues.dtype == np.int64:
        s, high, low = _phase_table(m)
        index = residues >> s
        h = high.take(index)
        l = low.take(np.bitwise_and(residues, (1 << s) - 1, out=index))
        np.multiply(h.real, l.real, out=out[0])
        out[0] -= h.imag * l.imag
        np.multiply(h.real, l.imag, out=out[1])
        out[1] += h.imag * l.real
        return out
    if residues.dtype == object:
        residues = residues.astype(np.float64)
    theta = residues * np.asarray(TWO_PI / m, dtype=np.float64)
    np.cos(theta, out=out[0])
    np.sin(theta, out=out[1])
    return out


def _phase_sum(blocks, N: int) -> complex:
    """sum cos + i sum sin over the (cos, sin) blocks of a sum of N terms, by
    the one reduction rule: below _SCALAR_CUTOFF terms the fsum of every
    term; else the fsum of each block's np.sum, a tree of fixed shape, in
    memory of one block whatever N is."""
    if N < _SCALAR_CUTOFF:
        blocks = list(blocks)
        re = fsum(chain.from_iterable(z[0].tolist() for z in blocks))
        im = fsum(chain.from_iterable(z[1].tolist() for z in blocks))
        return complex(re, im)
    parts = [np.add.reduce(z, axis=1).tolist() for z in blocks]
    return complex(fsum(p[0] for p in parts), fsum(p[1] for p in parts))


def _check_args(b: int, m: int, N: int) -> None:
    """The arguments every sum S_N = sum e(a b^n / m) takes: m >= 1, N >= 1
    and b >= 2 (a is any integer), with m and N at most the largest float,
    as the angles take 2 pi / m and the folds multiply by N / T."""
    if m < 1:
        raise OutOfRange("modulus must be positive")
    if N < 1:
        raise OutOfRange("N must be positive")
    if b < 2:
        raise OutOfRange("b must be at least 2")
    for name, value in (("modulus", m), ("N", N)):
        if value > sys.float_info.max:
            raise OutOfRange(f"{name} must be at most 1.8e308, got {value}")


def _check_differencing_args(b: int, m: int, m_prime: int, N: int) -> None:
    """verify_differencing's arguments: those of _check_args, m' >= 1 with
    m' N at most the largest float (the right-hand side m' N + ... is one),
    and b coprime to m and to m'."""
    _check_args(b, m, N)
    if m_prime < 1:
        raise OutOfRange("m_prime must be positive")
    if m_prime * N > sys.float_info.max:
        raise OutOfRange(f"m_prime * N must be at most 1.8e308, got m_prime = {m_prime}")
    for n in (m, m_prime):
        if gcd(b, n) != 1:
            raise NotCoprime(b, n)


def eval_sum(a: int, b: int, m: int, N: int) -> SumResult:
    """S_N = sum_{n=1}^{N} e(a * b^n / m) with exact integer phases.

    Coprimality of a (or b) with m is NOT required: reduced fractions with
    shared factors appear naturally inside the differencing recursion.
    """
    _check_args(b, m, N)
    a0 = a % m
    if m == 1 or a0 == 0:
        value = complex(N, 0.0)
    else:
        b0, table = b % m, _tabled(N, m)
        blocks = (_phases(r, m, table=table) for r in _orbit_blocks(a0 * b0 % m, b0, m, N))
        value = _phase_sum(blocks, N)
    return SumResult(value, abs(value), N, m, a, b)


def eval_sum_reduced(
    a: Union[int, Tuple[int, ...]], b: int, m: int, N: int
) -> Union[SumResult, Tuple[SumResult, ...]]:
    """eval_sum's S_N as the sum of times * S_L(x b^k / m) over the windows
    (times, k, L) of its fold over T = ord(b, m) (_fold_windows).

    `a` is one numerator, or a tuple of numerators with one SumResult each,
    in order.  The windows of the table rule (_tabled), of numerators not 0
    mod m, come from one streamed walk per coset of <b> (_coset_window_sums)
    when N >= T and they take at least T / 64 terms; every other window is
    one eval_sum (the walk's set-up, and its 2 T / _BLOCK steps of some 10-30
    terms' cost each, would not repay).  Both give the same bits.
    """
    _check_args(b, m, N)
    if m > 1 and gcd(b, m) != 1:
        raise NotCoprime(b, m)
    T = mult_order(b, m)
    folds = [(x, _fold_windows(x, b, m, T, N)) for x in (a if isinstance(a, tuple) else (a,))]
    windows = [(x, k, L) for x, fold in folds for _, k, L in fold if x % m and _tabled(L, m)]
    walked = {}
    if N >= T and 64 * sum(L for _, _, L in windows) >= T:
        walked = _coset_window_sums(windows, b % m, m, T)
    results = []
    for x, fold in folds:
        value = _fold(fold, {(k, L): walked[x, k, L] if (x, k, L) in walked
                             else eval_sum(x * pow(b, k, m), b, m, L).value for _, k, L in fold})
        results.append(SumResult(value, abs(value), N, m, x, b))
    return tuple(results) if isinstance(a, tuple) else results[0]


@lru_cache(maxsize=256)
def _vanishing_primes(b0: int, m: int, T: int) -> Tuple[int, ...]:
    """The primes p with p^2 | m, p | T = ord(b0, m) and b0^(T/p) = 1 mod m/p.

    For each, b0^(T/p) = 1 + (m/p) t0 mod m with p not dividing t0, so <b0>
    holds the kernel K = {1 + (m/p) t} (p^2 | m makes it a group of order
    p), and each coset y K of the orbit of x, p not dividing x, sums to
    e(y/m) sum_t e(y t/p) = 0.  So S_T(x/m) = 0 exactly whenever some listed
    p does not divide x.  Every such p divides gcd(T, m)."""
    return tuple(p for p in factorize(gcd(T, m)) if m % (p * p) == 0 and pow(b0, T // p, m // p) == 1)


def _fold_windows(a: int, b: int, m: int, T: int, N: int) -> List[Tuple[int, int, int]]:
    """The windows (times, k, L) of the fold of S_N(a/m) over T = ord(b, m),
    in the order _fold adds them: S_N(a/m) = sum times * S_L(a b^k / m).

    With q, r = divmod(N, T): the full period (q, 0, T), unless it vanishes
    (S_T = 0 exactly where q > 0 and a prime of _vanishing_primes does not
    divide a); then the remainder (1, 0, r), or where the period vanishes,
    T >= _SCALAR_CUTOFF and r > T/2, minus its complement (-1, r, T - r)."""
    q, r = divmod(N, T)
    vanishes = q > 0 and any(a % p for p in _vanishing_primes(b % m, m, T))
    windows = [(q, 0, T)] if q and not vanishes else []
    if r and vanishes and T >= _SCALAR_CUTOFF and 2 * r > T:
        windows.append((-1, r, T - r))
    elif r:
        windows.append((1, 0, r))
    return windows


def _fold(windows, sums) -> complex:
    """sum times * sums[k, L] over _fold_windows' list, in its order."""
    value = 0j
    for times, k, L in windows:
        value += times * sums[k, L]
    return value


def _prefix_fsums(x):
    """(s, exact) for x in [-1, 1] with fewer than _SCALAR_CUTOFF terms per
    row (last axis): s[..., L-1] is fsum(x[..., :L]) bit for bit in each row
    whose exact is True.

    Each x splits exactly as h1 + h2 + rest, h1 and h2 multiples of 2^-40
    and 2^-80; exact marks rows with no rest (every |x| >= 2^-28 has none).
    A row's h1 (h2) prefix is below 2^51 units of 2^-40 (2^-80), so np.cumsum
    adds exactly; their sum rounds the exact total once, as fsum does.  No
    exact h2 prefix is -0.0 (rest = x - h1 never is), so a zero total is
    +0.0, as fsum's is.
    """
    h1 = np.rint(x * 2.0**40) * 2.0**-40
    rest = x - h1
    h2 = np.rint(rest * 2.0**80) * 2.0**-80
    return np.cumsum(h1, axis=-1) + np.cumsum(h2, axis=-1), (rest == h2).all(axis=-1)


def eval_scan_sums(b: int, cells) -> List[List[List[complex]]]:
    """[[[eval_sum_reduced(a, b, m, N).value for N in Ns] for a in units]
    for m, T, units, Ns in cells], given T = ord(b, m), bit for bit.

    A sum is short when min(N, T) < _SCALAR_CUTOFF, whatever m is: every
    window of its fold (_fold_windows) is then a prefix of the walk
    a b^n mod m, n = 1..min(T, N), which stops at the longest window.  The
    walks go in batches of at most _BLOCK residues (_powers), and a window
    is the fsum of its terms, by _prefix_fsums or by fsum where a walk
    cannot be split exactly.  Other sums take one eval_sum_reduced call per
    (m, N).
    """
    out, walks = [], []
    for m, T, units, Ns in cells:
        out.append([[0j] * len(Ns) for _ in units])
        short = [j for j, N in enumerate(Ns) if N < _SCALAR_CUTOFF or T < _SCALAR_CUTOFF]
        for j, N in enumerate(Ns):
            if j not in short:
                for row, res in zip(out[-1], eval_sum_reduced(units, b, m, N)):
                    row[j] = res.value
        for a, row in zip(units, out[-1]):
            folds = [_fold_windows(a, b, m, T, Ns[j]) for j in short]
            longest = max([L for fold in folds for _, _, L in fold], default=0)
            if longest:  # else every short sum is 0j: whole periods that vanish
                walks.append((longest, a, m, row, short, folds))
    walks.sort(key=itemgetter(0))
    while walks:
        n = 1
        while n < len(walks) and (n + 1) * walks[n][0] <= _BLOCK:
            n += 1
        batch, walks = walks[:n], walks[n:]
        m = np.array([[w[2]] for w in batch], dtype=object)
        first = [[a % mw * (b % mw) % mw] for _, a, mw, *_ in batch]
        # z[i, :, j] = (cos, sin) of a b^(j+1) mod m for walk i
        z = _phases(_powers(first, b % m, m, batch[-1][0]), m).swapaxes(0, 1)
        prefix, exact = _prefix_fsums(z)
        for i in np.flatnonzero(~exact.all(axis=1)):
            for L in {L for fold in batch[i][5] for _, _, L in fold}:
                prefix[i, :, L - 1] = [fsum(x) for x in z[i, :, :L].tolist()]
        # every short window has k = 0, and _fold adds a fold's windows to 0j
        # in turn; np.bincount adds each fold's terms t S_L to 0.0 in that
        # order, which gives _fold's bits on the real and imaginary parts alike
        # (0.0 + t S is 0.0 + (t Re S - 0.0 Im S), and so on, for finite S)
        folds = [(i, fold) for i, w in enumerate(batch) for fold in w[5]]
        walk, fold_of, times, ends = zip(*[(i, f, t, L - 1) for f, (i, fold) in enumerate(folds) for t, _, L in fold])
        terms = np.array(times, dtype=float)[:, None] * prefix[walk, :, ends]
        re, im = (np.bincount(fold_of, terms[:, c], len(folds)).tolist() for c in (0, 1))
        for (row, j), x, y in zip([(w[3], j) for w in batch for j in w[4]], re, im):
            row[j] = complex(x, y)
    return out


def _starts(targets, b0: int, m: int, T: int) -> Dict[int, Tuple[int, int]]:
    """{t: (c, s)} with c b0^s = t mod m, T = ord(b0, m) and c the first target
    of t's coset of <b0>, by baby-step giant-step (Shanks 1971): baby steps
    t b0^j, j < B ~ sqrt(T / targets) <= _BLOCK, against giant steps
    c b0^(iB), i < ceil(T / B), so s = iB - j mod T; the giant steps stop
    at the block where the last pending target is found."""
    pending = list(dict.fromkeys(targets))
    B = min(_BLOCK, math.isqrt(T // len(pending)) + 1)
    G = -(-T // B)
    starts: Dict[int, Tuple[int, int]] = {}
    while pending:
        c = pending[0]
        baby = _powers([[t] for t in pending], b0, m, B)
        for i0, giant in zip(range(0, G, _BLOCK), _orbit_blocks(c, pow(b0, B, m), m, G)):
            order = np.argsort(giant)
            idx = order[np.searchsorted(giant, baby, sorter=order).clip(max=giant.size - 1)]
            hit = giant[idx] == baby
            for row in np.flatnonzero(hit.any(axis=1)):
                j = int(hit[row].argmax())
                starts.setdefault(pending[row], (c, ((i0 + int(idx[row, j])) * B - j) % T))
            if all(t in starts for t in pending):
                break
        pending = [t for t in pending if t not in starts]
    return starts


def _coset_window_sums(
    windows, b0: int, m: int, T: int
) -> Dict[Tuple[int, int, int], complex]:
    """{(x, k, L): eval_sum(x b0^k, b0, m, L).value} for every window (x, k, L)
    with x % m != 0, 0 <= k < T and L <= T = ord(b0, m) that takes table
    phases (_tabled), from at most T + _BLOCK phase factors per coset of <b0>
    in memory independent of T.

    The terms x b0^(k+n), n = 1..L, are w_{s+k}, ..., w_{s+k+L-1} (indices
    mod T) of the walk w_j = c b0^j of the coset's first target c, with
    w_s = x b0 (_starts).  Each window is cut into pieces, eval_sum's blocks
    of it, each starting below T; as w_{T+j} = w_j exactly, every piece lies
    in w_j, j < T + _BLOCK.  One pass over those terms takes _phases of the
    _BLOCK-term blocks that some piece covers, each over the hull of the
    pieces that read it, skips the others, reduces each piece by _phase_sum
    once the terms held cover it, and stops after the last piece.  A window
    is the fsum of its pieces.
    """
    def pieces(s, L):  # (start, size) of eval_sum's blocks of w_s .. w_{s+L-1}
        return [((s + k) % T, min(_BLOCK, L - k)) for k in range(0, L, _BLOCK)]

    windows = list(dict.fromkeys(windows))
    targets = {x: x % m * b0 % m for x, _, _ in windows}
    starts = _starts(targets.values(), b0, m, T) if targets else {}
    sums = {}  # (c, piece) -> its _phase_sum
    z = np.empty((2, 2 * _BLOCK))  # at block i: cos, sin of w_{(i-1) _BLOCK} .. w_{(i+1) _BLOCK - 1}
    for c in dict.fromkeys(c for c, _ in starts.values()):
        requests = sorted({p for x, k, L in windows if starts[targets[x]][0] == c
                           for p in pieces(starts[targets[x]][1] + k, L)}, key=sum)
        hulls = {}  # block -> (lo, hi): the offsets its pieces read
        for start, size in requests:
            for i in range(start // _BLOCK, (start + size - 1) // _BLOCK + 1):
                lo, hi = max(start - i * _BLOCK, 0), min(start + size - i * _BLOCK, _BLOCK)
                held = hulls.get(i, (lo, hi))
                hulls[i] = (min(held[0], lo), max(held[1], hi))
        i = 0
        for index, block in enumerate(_orbit_blocks(c, b0, m, T + _BLOCK, hulls)):
            if block is None:
                continue
            lo = _BLOCK + hulls[index][0]
            _phases(block, m, out=z[:, lo : lo + block.size], table=True)
            # a piece ending in this block is at most _BLOCK long, so it starts inside z,
            # and every block it spans was taken; every window has L >= _SCALAR_CUTOFF
            base = (index - 1) * _BLOCK
            while i < len(requests) and sum(requests[i]) <= base + 2 * _BLOCK:
                start, size = requests[i]
                sums[c, requests[i]] = _phase_sum([z[:, start - base : start - base + size]], _SCALAR_CUTOFF)
                i += 1
            if i == len(requests):
                break
            z[:, :_BLOCK] = z[:, _BLOCK:]

    out = {}
    for x, k, L in windows:  # fsum of one fsum is that fsum
        c, s = starts[targets[x]]
        parts = [sums[c, p] for p in pieces(s + k, L)]
        out[x, k, L] = complex(fsum(p.real for p in parts), fsum(p.imag for p in parts))
    return out


def choose_m_prime(
    m: int,
    N: int,
    P: PrimeSet,
    alpha: Union[int, Fraction],
    gamma: Union[int, Fraction],
    nu: Union[int, Fraction],
) -> int:
    """Reduced modulus m' = Q_m * prod p^floor(x * l_p), with Q_m the radical of m.

    x solves m^x = m^(alpha/(1+alpha)) * N^((1+gamma-nu)/(1+alpha)); the
    2-exponent is bumped so that 4 | m implies 4 | m'.  Guarantees
    rad(m) | m', m' | m, and m^x <= m' <= 2 * Q_m * m^x.
    """
    if m <= 1:
        raise DegenerateRange("m must exceed 1")
    alpha = Fraction(alpha)
    gamma = Fraction(gamma)
    nu = Fraction(nu)
    if alpha == 0:
        raise DegenerateRange("alpha must be non-zero")
    fac = factor_smooth(m, P)
    exps = {p: e for p, e in fac.exponents.items() if e > 0}
    drift = float(1 + gamma - nu)
    log_m = math.log(m)
    log_n = math.log(N)
    if drift * log_n >= log_m:
        raise DegenerateRange("N^(1+gamma-nu) must stay below m")
    x = (float(alpha) + drift * log_n / log_m) / float(1 + alpha)
    if not 0.0 < x < 1.0:
        raise DegenerateRange(f"target exponent x={x} outside (0, 1)")
    m_prime = 1
    for p, e in exps.items():
        # snap floors sitting within 1e-9 of an integer up to it: x is a
        # float stand-in for an exactly-defined real
        j = int(math.floor(x * e + 1e-9))
        if p == 2 and m % 4 == 0:
            j = max(j, 1)
        m_prime *= p ** (1 + j)
    return m_prime


def m_bar(b: int, m: int, m_prime: int) -> int:
    """gcd(b^tau - 1, m) with tau = ord(b, m'), all arithmetic mod m.

    gcd(x, m) = gcd(x mod m, m), so the giant power is never formed.
    Satisfies m' | result | m.
    """
    if gcd(b, m) != 1:
        raise NotCoprime(b, m)
    if m % m_prime != 0:
        raise OutOfRange(f"{m_prime} does not divide {m}")
    tau = mult_order(b, m_prime)
    return gcd((pow(b, tau, m) - 1) % m, m)


def _dot_error_bound(n, m: int, tabled: bool = False, folded=False):
    """A-priori bound E_n on | |computed inner sum| - |exact inner sum| | for
    an inner sum of n terms, a dot product of computed phase factors mod m
    (elementwise over arrays), from the tables where `tabled`, folded where `folded`.

    With e_z = _phase_error(m, tabled) bounding |z_hat - z| and |z_hat| <= 1 + e_z:
      * phase error: |z_hat' conj(z_hat) - z' conj(z)| <= 2 e_z + e_z^2 per term;
      * the complex dot product in floating point (Higham, Accuracy and
        Stability of Numerical Algorithms, ch. 3, complex inner product) is
        off by at most g n (1 + e_z)^2, g = sqrt(2) gamma_{n+2}, for any
        order of the additions, and its modulus is at most V = n (1 + e_z)^2 (1 + g);
        a BLAS that splits the product across threads adds in one more such
        order, so the bound covers it too;
      * the final abs() rounds once more, within 2u V.
    A folded sum, n = q T + r, is q F_hat + R_hat, dot products over T and r
    terms: as gamma is increasing, q times F_hat's errors plus R_hat's are
    within the first two items for n.  q F_hat and the sum round once each
    (u V, u (1 + u) V), and abs within 2u (1 + u)^2 V: below 3 times 2u V.
    """
    e_z, g = _phase_error(m, tabled), math.sqrt(2.0) * _gamma(n + 2)
    return n * (2.0 * e_z + e_z**2 + (1.0 + e_z) ** 2 * (g + 2.0 * _U * (1.0 + g) * np.where(folded, 3, 1)))


def _inner_sums(a0: int, b0: int, m: int, N: int, tau: int):
    """(|S_N|^2, [|inner_L|], array of E_L) for the lags L = tau, 2 tau, ... < N
    of the differencing inequality, with E_L = _dot_error_bound(N - L, m,
    tabled, folded) for the phase vector's rule and the lag's form.

    a (b^L - 1) b^n = r_{n+L} - r_n (mod m) for the residues r_n = a b^n mod m,
    so inner_L = sum_{n <= N-L} z_{n+L} conj(z_n) with z_n = e(r_n / m): one
    phase vector, taken block by block from the exact residues, serves every
    lag.  The vector takes eval_sum's window rule (_tabled) for all N terms,
    so S_N reduces the same factors as eval_sum does and |S_N|^2 is
    eval_sum's magnitude**2 bit for bit.

    As r_{n+1} = b r_n mod m and _phases works term by term, z_{n+T} = z_n
    bit for bit, T the first n >= 1 with r_n = r_0 (else N; no order is
    taken).  A lag with N - L = q T + r >= T folds: inner_L = q F_c + R_c,
    c = L mod T <= N - T, F_c and R_c the dot products of z[:T] and z[:r]
    against z[c:], once per class (lags i tau and (i + T / gcd(tau, T)) tau
    share it, and r = (N - c) mod T).  Where a class would hold one such lag,
    only lags with q >= 2 fold, so none costs more than its own dot product,
    which every other lag takes.
    """
    z, cs = np.empty(N, dtype=np.complex128), np.empty((2, _BLOCK))
    table, r0, T = _tabled(N, m), a0 * b0 % m, N
    parts = []  # each block's (cos, sin) is reduced by _phase_sum, then copied into z
    for k, block in zip(range(0, N, _BLOCK), _orbit_blocks(r0, b0, m, N)):
        new = _phases(block, m, out=cs[:, : block.size], table=table)
        parts.append(_phase_sum([new], N))
        z.real[k : k + block.size], z.imag[k : k + block.size] = new
        if T == N:
            T = next((k + int(n) for n in np.flatnonzero(block == r0) if k + n), N)
    s_n = complex(fsum(p.real for p in parts), fsum(p.imag for p in parts))  # fsum of one fsum is that fsum
    lags, cycle = np.arange(tau, N, tau), T // gcd(tau, T)
    K = (N - T) // tau  # the folded lags, L <= K tau, come first
    if K < 2 * cycle:  # a class may hold one lag: fold only lags that span two periods
        K = max(0, (N - 2 * T) // tau)
    # tabled as _phases decides
    errors = _dot_error_bound(N - lags, m, table and block.dtype == np.int64, lags <= K * tau)
    classes = [(c, (N - c) % T) for c in (lags[: min(K, cycle)] % T).tolist()]
    F = np.array([np.vdot(z[:T], z[c : c + T]) for c, _ in classes], dtype=np.complex128)
    R = np.array([np.vdot(z[:r], z[c : c + r]) for c, r in classes], dtype=np.complex128)
    at, q = np.arange(K) % cycle, np.floor((N - lags[:K]) / T)  # exact while T (q + 1) <= 2N < 2^53
    inner = np.abs(q * F[at] + R[at]).tolist()
    inner += [float(abs(np.vdot(z[: N - lag], z[lag:]))) for lag in lags[K:].tolist()]
    return abs(s_n) ** 2, inner, errors


def _margin(rhs: float, lhs_sq: float) -> float:
    return rhs / lhs_sq if lhs_sq > 0 else math.inf


def verify_differencing(a: int, b: int, m: int, m_prime: int, N: int) -> DifferencingReport:
    """Evaluate both sides of the squared differencing inequality.

        |S_N|^2 <= m'*N + 2m' * sum_{1 <= i < N/tau} |sum_{n<=N-i*tau} e(a(b^{i*tau}-1) b^n / m)|

    with tau = ord(b, m').  lhs_squared is eval_sum(a, b, m, N).magnitude**2,
    taken from the fast path's phase vector.

    Fast path: every inner sum is a dot product of the phase vector
    z_n = e(r_n / m) built once from the exact residues r_n = a b^n mod m,
    folded over the orbit's period where lags share it (see _inner_sums).
    Each |inner| is within E_L of its exact value
    (_dot_error_bound), so the certified right-hand side is
    m'*N + 2m' * max(0, sum |inner| - sum E_L), and `holds` is decided on
    that.  If the certified side cannot confirm the inequality, the exact
    path decides: every inner numerator a*(b^{i*tau}-1) is reduced exactly
    mod m and evaluated by eval_sum.  `path` says which path decided; `rhs`
    is that path's uncorrected right-hand side.  `holds` allows HOLDS_SLACK
    of relative noise.
    """
    _check_differencing_args(b, m, m_prime, N)
    tau = mult_order(b, m_prime)
    lhs_sq, inner, errors = _inner_sums(a % m, b % m, m, N, tau)
    total = fsum(inner)
    rhs = m_prime * N + 2.0 * m_prime * total
    certified = m_prime * N + 2.0 * m_prime * max(0.0, total - fsum(errors))
    if lhs_sq <= certified * (1.0 + HOLDS_SLACK):
        return DifferencingReport(lhs_sq, rhs, m_prime, tau, True, "fast", _margin(certified, lhs_sq))
    inner = [eval_sum(a * (pow(b, lag, m) - 1), b, m, N - lag).magnitude for lag in range(tau, N, tau)]
    rhs = m_prime * N + 2.0 * m_prime * fsum(inner)
    holds = lhs_sq <= rhs * (1.0 + HOLDS_SLACK)
    return DifferencingReport(lhs_sq, rhs, m_prime, tau, holds, "exact", _margin(rhs, lhs_sq))
