"""Command-line surface: single-shot queries, parameter scans, reports.

Scans are data-parallel over moduli with a fixed-order gather, so the same
config produces byte-identical output no matter how many workers run it.
No environment variable influences results, nor does the BLAS thread count
unless numpy was imported before korosum (see the package docstring).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

# bounds and sumeval come first, and numpy after them, so that they are
# compiled before numpy loads (sumeval loads it): a module compiled after
# numpy has loaded keeps about 5 KB resident per line (VmHWM of
# `import korosum.cli`, CPython 3.11).
from . import bounds, sumeval
from . import digits, normalnum, numtheory
import numpy as np
from .errors import BoundViolation, ConfigError, KorosumError, OutOfRange
from .numtheory import PrimeSet

#: Relative slack allowed between an empirical sum and any proven bound.
VALIDITY_SLACK = 1e-6


@dataclass(slots=True)
class ScanRow:
    m: int
    a: int
    N: int
    k_star: int
    s_abs: float
    ratio: float
    bound_recursive: float
    bound_main: float
    bound_long: float
    bound_short: Optional[float]
    nontrivial_recursive: bool
    nontrivial_main: bool


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


#: How a report column is written to CSV and read back, by the type of its
#: ScanRow field (the annotation's text, as this module postpones annotations):
#: the printf directive of its values, the text of values written as words,
#: and the parser.
_CSV_CODECS = {
    "int": ("%d", {}, int),
    "float": ("%.17g", {}, float),
    "Optional[float]": ("%.17g", {None: ""}, lambda raw: float(raw) if raw else None),
    "bool": ("", {False: "false", True: "true"}, lambda raw: raw == "true"),
}
_CSV_COLUMNS = tuple((f.name, *_CSV_CODECS[f.type]) for f in dataclasses.fields(ScanRow))
_CSV_FIELDS = tuple(name for name, *_ in _CSV_COLUMNS)
_CSV_WORDS = tuple(words for _, _, words, _ in _CSV_COLUMNS if words)
_csv_word_values = attrgetter(*(name for name, _, words, _ in _CSV_COLUMNS if words))


@lru_cache(maxsize=None)
def _csv_template(words: Tuple[Optional[str], ...]):
    """(bytes %-template of a CSV line, attrgetter of the values it formats)
    for rows whose columns with words read `words`, None for a formatted value."""
    words = iter(words)
    texts = [next(words) if column_words else None for _, _, column_words, _ in _CSV_COLUMNS]
    line = ",".join(d if t is None else t for (_, d, _, _), t in zip(_CSV_COLUMNS, texts))
    return (line + "\n").encode(), attrgetter(*(f for f, t in zip(_CSV_FIELDS, texts) if t is None))


@dataclass
class ScanConfig:
    primes: Tuple[int, ...]
    b: int
    m_lo: int
    m_hi: int
    a_policy: Dict
    n_policy: Dict
    k_lo: int
    k_hi: int
    seed: int
    out_path: Optional[str]
    out_format: str
    workers: int


#: Moduli and lengths enter the bounds as floats, so they may not exceed this.
_FLOAT_MAX = sys.float_info.max


class _Rule(NamedTuple):
    """One field of a JSON document: its dotted path, the predicate its value
    must meet and the message when it does not.  An absent field takes
    `default`, or is reported missing when that is `...`.  A rule with a
    `kind` applies only when the field's parent entry has that "kind" tag."""

    path: str
    check: Callable[[Any], bool]
    message: str
    default: Any = ...
    kind: Optional[str] = None


def _int_from(lo=-math.inf, hi=math.inf) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi


def _list_of(item: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """A non-empty list whose items all meet `item`."""
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(item, v))


def _range_from(lo: int, hi=math.inf) -> Callable[[Any], bool]:
    """[lo', hi'] with lo <= lo' <= hi' <= hi."""
    return lambda v: _list_of(_int_from(lo, hi))(v) and len(v) == 2 and v[0] <= v[1]


def _one_of(*choices: str) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, str) and v in choices


def _is(kind: type) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, kind)


def _is_positive_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v <= _FLOAT_MAX


def _is_prime_list(v) -> bool:
    return _list_of(_int_from(2))(v) and len(set(v)) == len(v) and all(map(numtheory.is_prime, v))


_COMMON_RULES = (
    _Rule("primes", _is_prime_list, "must be a non-empty list of distinct primes"),
    _Rule("b", _int_from(2), "must be an integer >= 2"),
)

_SCAN_RULES = _COMMON_RULES + (
    _Rule("m_range", _range_from(2, _FLOAT_MAX), "must be [lo, hi] with 2 <= lo <= hi <= 1.8e308"),
    _Rule("a_policy", _is(dict), "expected a JSON object"),
    _Rule("a_policy.kind", _one_of("fixed", "sample", "all"), "must be fixed | sample | all"),
    _Rule("a_policy.values", _list_of(_int_from()),
          "must be a non-empty list of integers", kind="fixed"),
    _Rule("a_policy.count", _int_from(1), "must be a positive integer", kind="sample"),
    _Rule("N_policy", _is(dict), "expected a JSON object"),
    _Rule("N_policy.kind", _one_of("explicit", "powers"), "must be explicit | powers"),
    _Rule("N_policy.values", _list_of(_int_from(1, _FLOAT_MAX)),
          "must be a non-empty list of integers in [1, 1.8e308]", kind="explicit"),
    _Rule("N_policy.exponents", _list_of(_is_positive_number),
          "must be a non-empty list of positive numbers", kind="powers"),
    _Rule("k_range", _range_from(0, bounds.MAX_LEVEL),
          f"must be [lo, hi] with 0 <= lo <= hi <= {bounds.MAX_LEVEL}"),
    _Rule("seed", _int_from(), "must be an integer"),
    _Rule("output", _is(dict), "expected a JSON object", default={}),
    _Rule("output.format", _one_of("csv", "json"), "must be csv | json", default="csv"),
    _Rule("output.path", _is(str), "must be a string", default=None),
    _Rule("workers", _int_from(1), "must be a positive integer", default=1),
)

_SCHEDULE_RULES = _COMMON_RULES + (
    _Rule("epsilon", _is_positive_number, "must be a positive finite number", default=0.1),
) + tuple(
    rule
    for g in ("c", "m")
    for rule in (
        _Rule(g, _is(dict), "expected a JSON object"),
        _Rule(f"{g}.kind", _one_of("geometric", "explicit"), "must be geometric | explicit"),
        _Rule(f"{g}.base", _int_from(2), "must be an integer >= 2", kind="geometric"),
        _Rule(f"{g}.values", _list_of(_int_from()),
              "must be a non-empty list of integers", kind="explicit"),
    )
)


def _check_fields(doc, rules: Sequence[_Rule]) -> Dict[str, Any]:
    """Apply `rules` in order, each parent entry before its fields, and
    return every field's value (or default) by dotted path."""
    if not isinstance(doc, dict):
        raise ConfigError("", "expected a JSON object")
    found: Dict[str, Any] = {}
    for rule in rules:
        parent, _, name = rule.path.rpartition(".")
        entry = found[parent] if parent else doc
        if rule.kind is not None and entry["kind"] != rule.kind:
            continue
        value = entry.get(name, rule.default)
        if value is ...:
            raise ConfigError(rule.path, "missing")
        if name in entry:
            try:
                ok = rule.check(value)
            except OutOfRange as exc:  # a value the check cannot decide
                raise ConfigError(rule.path, str(exc)) from None
            if not ok:
                raise ConfigError(rule.path, rule.message)
        found[rule.path] = value
    return found


def load_scan_config(doc: Dict) -> ScanConfig:
    """Validate a scan config document, reporting the offending field path."""
    fields = _check_fields(doc, _SCAN_RULES)
    primes, b = tuple(sorted(fields["primes"])), fields["b"]
    for p in primes:
        if b % p == 0:
            raise ConfigError("b", f"b={b} shares the prime {p} with the prime set")
    m_hi = fields["m_range"][1]
    if fields["N_policy"]["kind"] == "powers":
        try:
            float(m_hi) ** max(fields["N_policy"]["exponents"])
        except OverflowError:
            raise ConfigError("N_policy.exponents", f"N = m^x overflows a float at m={m_hi}") from None
    return ScanConfig(primes, b, *fields["m_range"], fields["a_policy"], fields["N_policy"],
                      *fields["k_range"], fields["seed"], fields["output.path"],
                      fields["output.format"], fields["workers"])


#: SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
#: generators", OOPSLA 2014): its state steps by the odd gamma, and each
#: output is the state through the finalizer of _mix64.
_GAMMA, _MASK64 = 0x9E3779B97F4A7C15, (1 << 64) - 1


def _mix64(z: int) -> int:
    """SplitMix64's finalizer, a bijection of 64-bit words."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _words(n: int) -> List[int]:
    """n >= 0 as 64-bit words, least significant first, at least one."""
    return [n] if n <= _MASK64 else [n >> s & _MASK64 for s in range(0, n.bit_length(), 64)]


def _absorb(state: int, words) -> int:
    """The stream state with `words` absorbed, one finalizer step each."""
    for word in words:
        state = _mix64(state + _GAMMA & _MASK64 ^ word)
    return state


@lru_cache(maxsize=4)
def _seed_state(seed: int) -> int:
    """The state once the seed is absorbed: one word of its sign and word
    count, then its words, so that the key words name (seed, m)."""
    words = _words(abs(seed))
    return _absorb(0, [2 * len(words) + (seed < 0), *words])


def _sample_units(m: int, count: int, seed: int) -> List[int]:
    """`count` distinct units of m, ascending, count < phi(m), drawn from the
    SplitMix64 stream keyed on the words of seed and m alone.  A candidate
    is ceil(k / 64) outputs, the first least significant, cut to their low
    k = bits(m - 1) bits; one below m - 1 gives a = candidate + 1, kept if
    it is a unit not yet taken.  So every unit is equally likely."""
    state = _absorb(_seed_state(seed), _words(m))
    k = (m - 1).bit_length()
    wide, mask = range(64, k, 64), (1 << k) - 1
    picked = set()
    while len(picked) < count:
        state = state + _GAMMA & _MASK64
        x = _mix64(state)
        for shift in wide:
            state = state + _GAMMA & _MASK64
            x |= _mix64(state) << shift
        x &= mask
        if x < m - 1 and math.gcd(x + 1, m) == 1:
            picked.add(x + 1)
    return sorted(picked)


def _units_for(m: int, exponents, policy: Dict, seed: int) -> List[int]:
    """The units a of the scan at m, ascending; exponents ((p, e), ...) are
    m's, as smooth_numbers lists them."""
    if policy["kind"] == "fixed":
        chosen = sorted({a % m for a in policy["values"]})
        return [a for a in chosen if a and math.gcd(a, m) == 1]
    if policy["kind"] == "all":
        return [a for a in range(1, m) if math.gcd(a, m) == 1]
    count = policy["count"]
    phi = math.prod((p - 1) * p ** (e - 1) for p, e in exponents)
    if phi <= count:
        return [a for a in range(1, m) if math.gcd(a, m) == 1]
    return _sample_units(m, count, seed)


def _most_units(m: int, policy: Dict) -> int:
    """At most the units _units_for takes at m, from the policy alone."""
    if policy["kind"] == "fixed":
        return len(policy["values"])
    if policy["kind"] == "sample":
        return min(policy["count"], m - 1)
    return m - 1


def _n_values(policy: Dict) -> Callable[[int], List[int]]:
    """m -> the N values of the scan at m, ascending (one shared list where
    they do not depend on m)."""
    if policy["kind"] == "explicit":
        values = sorted(set(policy["values"]))
        return lambda m: values
    return lambda m: sorted({max(1, math.ceil(m**x)) for x in policy["exponents"]})


#: Most rows of one scan: units (as many as its a_policy names: len(values),
#: min(count, m - 1), or m - 1 for all) times N values, over its moduli.  A
#: row keeps about 500 bytes until the report is written: on a 2-vCPU Xeon
#: guest, the 1,062,882 rows of every unit of 3^12 took 17 s and 539 MB.
MAX_SCAN_ROWS = 10**6
#: Most sum terms of one scan, bounded by 2 units min(N, m) per N value and
#: modulus, and past the cap recounted by the windows the folds take: on
#: that guest 16 s at the cap for m = 3^19 (5 units, N = 10^8), and 10 s at
#: a tenth of it for m = 3^21 (Python-int residues).  The README scan's
#: bound is 3.2e8, its run 0.5 s.
MAX_SCAN_TERMS = 10**9

#: Most sum terms (over a modulus's N values, min(N, m) each) that one scan
#: task of consecutive moduli takes on: many moduli with short sums, which
#: batch, or few with long ones, so that the workers stay balanced.
_CHUNK_TERMS = 1 << 14


def _scan_chunk(moduli: Sequence[Tuple[int, Tuple]], config: ScanConfig) -> Tuple[List[ScanRow], Optional[Dict]]:
    """All rows for consecutive moduli, each given with its exponents as
    smooth_numbers lists them; returns (rows, violation_or_None), stopping at
    the first violation in (m, a, N) order.

    The bounds depend on (m, N) alone: one bound_table call evaluates them
    for every (m, N) of the chunk, and each is checked against every unit's
    sum; the sums of the whole chunk come from one eval_scan_sums call.
    """
    b, P, n_values = config.b, PrimeSet(config.primes), _n_values(config.n_policy)
    cells, pairs, in_order = [], [], []
    for m, exponents in moduli:
        T = numtheory.smooth_order(b, m, exponents)
        Ns = n_values(m)
        cells.append((m, T, tuple(_units_for(m, exponents, config.a_policy, config.seed)), Ns))
        pairs += [(m, N) for N in Ns]
        in_order += [N <= T for N in Ns]
    ks = range(config.k_lo, config.k_hi + 1)
    table = bounds.bound_table(pairs, P, b, ks)
    rec, main, long, short = table.recursive[:, 2], table.main[:, 2], table.long[:, 2], table.short[:, 1]
    # x -> x * (1 + slack) is monotone: a sum exceeds some bound beyond
    # slack exactly when it exceeds the least one
    limits = np.minimum(np.minimum(rec, main), np.minimum(long, np.where(in_order, short, np.inf)))
    limits = (limits * (1.0 + VALIDITY_SLACK)).tolist()
    k_stars = (table.best + config.k_lo).tolist()
    rec, main, long, short = rec.tolist(), main.tolist(), long.tolist(), short.tolist()
    sums = sumeval.eval_scan_sums(b, cells)
    rows: List[ScanRow] = []
    start = 0
    for (m, _, units, Ns), values in zip(cells, sums):
        at, start = range(start, start + len(Ns)), start + len(Ns)
        short_m = short[at[0]]  # the rows of m share one float
        per_n = [(j, N, (rec[j], main[j], long[j], short_m if in_order[j] else None,
                         rec[j] < N, main[j] < N)) for j, N in zip(at, Ns)]
        for a, unit_values in zip(units, values):
            for (j, N, row_bounds), value in zip(per_n, unit_values):
                s_abs = abs(value)
                if s_abs > limits[j]:
                    # the first bound exceeded, in order: levels k_lo..k_hi, each taken anew, main, long, short
                    levels = (bounds.bound_table([(m, N)], P, b, (k,)).recursive[0, 2].item() for k in ks)
                    valid = chain(levels, [main[j], long[j]], [short_m] if in_order[j] else [])
                    v = next(v for v in valid if s_abs > v * (1.0 + VALIDITY_SLACK))
                    return rows, {"m": m, "a": a, "N": N, "s_abs": s_abs, "violated_bound": v}
                rows.append(ScanRow(m, a, N, k_stars[j], s_abs, s_abs / N, *row_bounds))
    return rows, None


def run_scan(config: ScanConfig, workers: Optional[int] = None) -> List[ScanRow]:
    """Enumerate P-smooth m in range and evaluate sums against all bounds.

    Output order is (m, a, N) regardless of worker count.  Any bound
    violation beyond slack aborts with the counterexample of the smallest m.
    """
    P = PrimeSet(config.primes)
    try:
        moduli = numtheory.smooth_numbers(P, config.m_hi, lo=max(config.m_lo, 2))
    except OutOfRange as exc:
        raise ConfigError("m_range", str(exc)) from None
    if not moduli:
        raise ConfigError("m_range", "contains no smooth modulus")
    chunks, terms, n_values = [], _CHUNK_TERMS, _n_values(config.n_policy)
    rows = work = 0
    for modulus in moduli:
        m = modulus[0]
        Ns, units = n_values(m), _most_units(m, config.a_policy)
        n = sum(min(N, m) for N in Ns)
        rows += units * len(Ns)
        work += 2 * units * n  # a fold takes fewer than 2 min(N, T) terms
        if terms + n > _CHUNK_TERMS:
            chunks.append([])
            terms = 0
        chunks[-1].append(modulus)
        terms += n
    if rows > MAX_SCAN_ROWS:
        raise ConfigError("a_policy", f"the scan takes up to {rows} rows, more than {MAX_SCAN_ROWS}")
    if work > MAX_SCAN_TERMS:  # recount the windows the folds take; every unit folds alike
        work = 0
        for m, exponents in moduli:
            T = numtheory.smooth_order(config.b, m, exponents)
            work += _most_units(m, config.a_policy) * sum(
                L for N in n_values(m) for _, _, L in sumeval._fold_windows(1, config.b, m, T, N))
    if work > MAX_SCAN_TERMS:
        raise ConfigError("N_policy", f"the scan's sums take up to {work} terms, more than {MAX_SCAN_TERMS}")
    cell = partial(_scan_chunk, config=config)
    nworkers = workers if workers is not None else config.workers
    if nworkers > 1:
        from multiprocessing import Pool
        with Pool(nworkers) as pool:  # the last tasks, the dearest, start first
            results = pool.map(cell, chunks[::-1], chunksize=1)[::-1]
    else:
        results = [cell(chunk) for chunk in chunks]
    rows: List[ScanRow] = []
    for cell_rows, violation in results:
        if violation is not None:
            raise BoundViolation(violation)
        rows.extend(cell_rows)
    return rows


def render_report(rows: Sequence[ScanRow], format: str = "csv") -> bytes:
    """CSV with a fixed header and 17-significant-digit floats, or JSON with
    stable key order; both re-parse to bit-identical values."""
    if format == "csv":  # no field needs quoting
        out = io.BytesIO()
        out.write((",".join(_CSV_FIELDS) + "\n").encode())
        for row in rows:
            line, values = _csv_template(tuple(map(dict.get, _CSV_WORDS, _csv_word_values(row))))
            out.write(line % values(row))
        return out.getvalue()
    if format == "json":
        payload = {"rows": [{field: getattr(r, field) for field in _CSV_FIELDS} for r in rows]}
        return (_dumps(payload, indent=1) + "\n").encode("utf-8")
    raise ConfigError("output.format", f"unknown format {format!r}")


def rows_from_csv(data: bytes) -> List[ScanRow]:
    """Parse render_report CSV output back into rows (lossless)."""
    return [
        ScanRow(**{name: read(record[name]) for name, _, _, read in _CSV_COLUMNS})
        for record in csv.DictReader(io.StringIO(data.decode("utf-8")))
    ]


def load_schedule(doc: Dict) -> normalnum.Schedule:
    """Build a Schedule from its JSON description."""
    fields = _check_fields(doc, _SCHEDULE_RULES)
    c, m = (
        tuple(fields[f"{g}.values"]) if f"{g}.values" in fields else fields[f"{g}.base"]
        for g in ("c", "m")
    )
    primes = PrimeSet(tuple(sorted(fields["primes"])))
    return normalnum.Schedule(fields["b"], primes, c, m, float(fields["epsilon"]))


def _to_jsonable(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt_float(obj)  # "inf", "-inf" or "nan", as in the CSV report
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def _dumps(payload, indent: int) -> str:
    """RFC 8259 JSON: a non-finite float is written as a string, never as
    the bare Infinity or NaN that strict parsers reject."""
    return json.dumps(_to_jsonable(payload), indent=indent, allow_nan=False)


def _parse_primes(text: str) -> PrimeSet:
    """argparse type of --primes; main reports the OutOfRange of a non-prime set."""
    try:
        return PrimeSet(tuple(sorted(int(tok) for tok in text.split(",") if tok)))
    except ValueError:
        raise argparse.ArgumentTypeError("primes must be a comma-separated integer list")


#: Largest `normal --k-check`: validate_schedule builds and factors c_k for
#: every k up to it (on the Stoneham schedule, on a 2-vCPU Xeon guest: 0.17 s
#: at 1000, 1.3 s at 2000, unfinished after 15 s at 100000).
MAX_K_CHECK = 1000
#: Most terms of `sum`: N, or with --reduced the summed lengths of the
#: windows its fold takes (sumeval._fold_windows): 6 s on the blocked path
#: on that guest, 20-23 s above 3.04e9 (Python-int residues, at 3^30 and
#: 3^41), in memory of a few blocks.
MAX_SUM_TERMS = 10**8
#: Largest `digits --n`: about 1 s on that guest for m <= 3.04e9 (int64
#: residues), 25 s above it (Python-int residues, at 3^38).
MAX_DIGITS = 10**8
#: Largest `normal --n-max`: the trace holds 8 bytes per point; at the cap, on
#: the Stoneham schedule on that guest, 542 MB peak RSS and 19 s.
MAX_N_MAX = 2**26
#: Largest `verify --n`, and most N^2/tau with tau = ord(b, m'): the fast path
#: keeps about 16 N bytes and takes at most N^2/(2 tau) inner-sum terms, fewer
#: where lags fold over the orbit's period (on that guest, one BLAS thread, at any
#: modulus: 0.03 s at N = 14142, tau = 2; 0.06 s at N = 10^6, tau = 13122);
#: the exact fallback, per lag and only where that cannot certify, all (3 s; 45 s past 3.04e9).
MAX_VERIFY_N, MAX_VERIFY_WORK = 10**6, 10**8


def _int_in(lo: int, hi: Optional[int] = None):
    """argparse type for an integer in [lo, hi] (exit 2 outside it)."""
    limits = f"at least {lo}" if hi is None else f"between {lo} and {hi}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None  # not an integer: rejected below like any value out of range
        if value is None or value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"must be an integer {limits}, got {text!r}")
        return value

    return parse


def _cmd_order(args):
    if args.primes is not None:
        st = numtheory.factor_smooth(args.m, args.primes).order_structure(args.b)
        return st, [
            f"ord({args.b}, {args.m}) = {st.order}",
            f"  tau1={st.tau1} mu={st.mu} tau'={st.tau_prime} m1={st.m1} beta={st.beta}",
        ]
    order = numtheory.mult_order(args.b, args.m)
    return {"order": order}, [f"ord({args.b}, {args.m}) = {order}"]


def _cmd_sum(args):
    sumeval._check_args(args.b, args.m, args.n)
    terms = args.n
    if args.reduced:
        T = numtheory.mult_order(args.b, args.m)
        terms = sum(L for _, _, L in sumeval._fold_windows(args.a, args.b, args.m, T, args.n))
    if terms > MAX_SUM_TERMS:
        raise OutOfRange(f"--n must be at most {MAX_SUM_TERMS} terms, got {args.n}; " + (
            f"--reduced evaluates {terms} terms, the windows of its fold over T = ord(b, m) = {T}" if args.reduced
            else "--reduced evaluates one period ord(b, m) and folds"))
    fn = sumeval.eval_sum_reduced if args.reduced else sumeval.eval_sum
    res = fn(args.a, args.b, args.m, args.n)
    return res, [
        f"S_{args.n}({args.a}/{args.m}, b={args.b}) = {res.value:.12g}",
        f"|S| = {res.magnitude:.12g}   |S|/N = {res.magnitude / args.n:.6g}",
    ]


def _cmd_bound(args):
    if args.form == "best":
        best = bounds.best_k(args.m, args.n, args.primes, args.b, args.k_max)
        rep = best.report
        return {**dataclasses.asdict(rep), "k_hat": best.k_hat}, [
            f"best level k*={best.k_star} (interval prediction k_hat={best.k_hat})",
            f"bound = {rep.bound_value:.6g}  nontrivial={rep.nontrivial}",
        ]
    if args.form in ("short", "long"):
        rep = bounds.bound_baseline(args.m, args.n, args.d, args.primes, args.b, args.form)
    else:
        rep = bounds.bound_eval(args.m, args.n, args.k, args.primes, args.b, args.form)
    return rep, [
        f"{rep.source} bound at k={rep.k}: {rep.bound_value:.6g} "
        f"(terms {rep.term_main:.6g} + {rep.term_secondary:.6g}), "
        f"nontrivial={rep.nontrivial}",
    ]


def _cmd_intervals(args):
    rows = []
    lines = []
    for k in range(args.k_max + 1):
        ik, tk = bounds.intervals(k)
        rows.append({
            "k": k,
            "lo": str(ik.lo),
            "hi": None if ik.hi is None else str(ik.hi),
            "optimal_lo": None if tk is None else str(tk.lo),
            "optimal_hi": None if tk is None else str(tk.hi),
        })
        hi = "inf" if ik.hi is None else f"{ik.hi} ({float(ik.hi):.6f})"
        line = f"I_{k} = [{ik.lo} ({float(ik.lo):.6f}), {hi}]"
        if tk is not None:
            line += f"   optimal ~ [{float(tk.lo):.6f}, {float(tk.hi):.6f}]"
        lines.append(line)
    return {"intervals": rows}, lines


def _cmd_constants(args):
    kc = bounds.k_constants(args.primes, args.b)
    lc = bounds.epsilon_prime_and_c(120)
    mant, exp10 = kc.k1_mantissa_exponent()
    table = [bounds.constants(k, args.primes, args.b) for k in range(args.k_max + 1)]
    payload = {
        "M": numtheory.capital_m(args.primes, args.b),
        "Q": args.primes.Q,
        "K1": kc.k1, "K1_mantissa": mant, "K1_exp10": exp10,
        "K2": kc.k2, "K3": kc.k3,
        "c": lc.c, "c_tail": lc.tail_bound,
        "levels": [{"k": cs.k, "A_k": cs.a_k, "B_k": cs.b_k} for cs in table],
    }
    lines = [
        f"M = {payload['M']}, Q = {payload['Q']}",
        f"K1 = {mant:.6f}e{exp10}, K2 = {kc.k2:g}, K3 = {kc.k3:.6g}",
        f"c = {lc.c:.18f} +/- {lc.tail_bound:.3g}",
    ]
    lines += [f"  k={cs.k}: A_k = {cs.a_k:.6g}, B_k = {cs.b_k:.6g}" for cs in table]
    return payload, lines


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise ConfigError("", f"{path} is not a JSON document: {exc}") from None


def _cmd_scan(args) -> None:
    config = load_scan_config(_load_json(args.config))
    rows = run_scan(config, workers=args.workers)
    fmt = args.format or config.out_format
    data = render_report(rows, fmt)
    out_path = args.out or config.out_path
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(data)
        print(f"wrote {len(rows)} rows to {out_path}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(data)


def _cmd_digits(args):
    if args.n > MAX_DIGITS:
        raise OutOfRange(f"--n must be at most {MAX_DIGITS} digits, got {args.n}")
    pattern = digits.DigitPattern.from_string(args.pattern, args.base)
    if args.primes is not None:
        rep = digits.deviation_report(args.a, args.m, pattern, args.n, args.primes)
        occ = rep.occurrence
    else:
        rep = occ = digits.count_occurrences(args.a, args.m, pattern, args.n)
    lines = [
        f"pattern {args.pattern} occurs {occ.count} times in the first {args.n} digits",
        f"expected {occ.expected:.6g}, deviation {occ.deviation:+.6g}",
    ]
    if args.primes is not None:
        lines.append(f"envelope {rep.envelope:.6g}, ratio {rep.ratio:.6g} (advisory)")
    return rep, lines


def _cmd_normal(args):
    if args.n_max > MAX_N_MAX:
        raise OutOfRange(f"n_max={args.n_max} is too large: --n-max must be at most {MAX_N_MAX}")
    schedule = load_schedule(_load_json(args.schedule))
    validation = normalnum.validate_schedule(schedule, args.k_check)
    trace = normalnum.discrepancy_trace(schedule, args.n_max)
    payload = {
        "validation": validation,
        "trace": [{"N": n, "d_star": d, "d_two_sided_max": 2 * d} for n, d in trace.rows],
        "final_d_star": trace.final_d_star,
        "overall_decreasing": trace.overall_decreasing,
    }
    lines = [f"schedule ok through k={validation.horizon}; "
             f"hypothesis ratio decreasing: {validation.ratio_decreasing}"]
    lines += [f"  N={n:>9}  D* = {d:.6f}  (D <= {2 * d:.6f})" for n, d in trace.rows]
    lines.append(f"final D* = {trace.final_d_star:.6f}, trend decreasing: "
                 f"{trace.overall_decreasing}")
    return payload, lines


def _cmd_verify(args):
    sumeval._check_differencing_args(args.b, args.m, args.m_prime, args.n)
    if args.n > MAX_VERIFY_N or args.n**2 > MAX_VERIFY_WORK * numtheory.mult_order(args.b, args.m_prime):
        raise OutOfRange(f"--n must be at most {MAX_VERIFY_N}, with N^2/tau at most "
                         f"{MAX_VERIFY_WORK} (tau = ord(b, m')), got {args.n}")
    rep = sumeval.verify_differencing(args.a, args.b, args.m, args.m_prime, args.n)
    return rep, [
        f"lhs^2 = {rep.lhs_squared:.6g}  rhs = {rep.rhs:.6g}  "
        f"(m'={rep.m_prime}, tau={rep.tau})",
        f"holds: {rep.holds}  (decided by the {rep.path} path, "
        f"certified margin rhs/lhs^2 = {rep.margin:.6g})",
    ]


def _required_ints(*names: str) -> Dict[str, Dict]:
    return {f"--{name}": {"type": int, "required": True} for name in names}


_PRIMES = {"--primes": {"type": _parse_primes, "required": True}}
_K_MAX = {"type": _int_in(0, bounds.MAX_LEVEL)}
_JSON = {"--json": {"action": "store_true", "help": "emit JSON instead of text"}}

#: Every subcommand: (name, handler, help, {flag: add_argument keywords}),
#: flags in help order.  argparse derives each dest from its flag.
_COMMANDS = (
    ("order", _cmd_order, "multiplicative order of b mod m", {
        **_required_ints("b", "m"), "--primes": {"type": _parse_primes}, **_JSON}),
    ("sum", _cmd_sum, "evaluate S_N = sum e(a b^n / m)", {
        **_required_ints("a", "b", "m", "n"),
        "--reduced": {"action": "store_true", "help": "use the period-folded evaluator"},
        **_JSON}),
    ("bound", _cmd_bound, "evaluate a bound on |S_N|", {
        **_required_ints("m", "n"), "--k": {"type": int, "default": 0}, **_PRIMES,
        **_required_ints("b"),
        "--form": {"choices": ("recursive", "main", "short", "long", "best"),
                   "default": "recursive"},
        "--d": {"type": int, "default": 1, "help": "gcd(a, m) for the short form"},
        "--k-max": {**_K_MAX, "default": 8}, **_JSON}),
    ("intervals", _cmd_intervals, "non-trivial and optimal exponent ranges", {
        "--k-max": {**_K_MAX, "default": 8}, **_JSON}),
    ("constants", _cmd_constants, "environment constants M, Q, K1-K3, A_k, B_k, c", {
        **_PRIMES, **_required_ints("b"), "--k-max": {**_K_MAX, "default": 6}, **_JSON}),
    ("scan", _cmd_scan, "parameter sweep from a JSON config", {
        "--config": {"required": True}, "--out": {}, "--format": {"choices": ("csv", "json")},
        "--workers": {"type": _int_in(1)}}),
    ("digits", _cmd_digits, "pattern statistics in the expansion of a/m", {
        **_required_ints("a", "m", "base"), "--pattern": {"required": True},
        **_required_ints("n"),
        "--primes": {"type": _parse_primes, "help": "enables the advisory deviation envelope"},
        **_JSON}),
    ("normal", _cmd_normal, "normal-number schedule diagnostics", {
        "--schedule": {"required": True}, **_required_ints("n-max"),
        "--k-check": {"type": _int_in(2, MAX_K_CHECK), "default": 12}, **_JSON}),
    ("verify", _cmd_verify, "check the differencing inequality on one instance", {
        **_required_ints("a", "b", "m", "m-prime", "n"), **_JSON}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="korosum",
        description="Exponential sums e(a b^n / m): exact evaluation, explicit "
                    "bounds, digit statistics, normal-number constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command: each handler returns (payload, text lines), which
    main alone prints and turns into the exit status; scan writes its report."""
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        if result is None:
            return 0
        payload, lines = result
        print(_dumps(payload, indent=2) if args.json else "\n".join(lines))
        return 3 if isinstance(payload, sumeval.DifferencingReport) and not payload.holds else 0
    except BoundViolation as exc:
        print("THEOREM VIOLATION (implementation bug): counterexample follows",
              file=sys.stderr)
        print(_dumps(exc.detail, indent=2), file=sys.stderr)
        return 3
    except KorosumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
