"""The two workloads: seeded inputs, the timed unit of work, the operation count.

Each workload is two parts timed as one unit; every input is drawn from the
seed before any timer starts, and the unit receives only those inputs.

* sums         - sumeval carries the time; bounds, numtheory and cli are a
                 small share, digits and normalnum are not touched.
  * scan_deep  - the README scan shape (criterion 06's): long, period-folded
                 and blocked sums through `cli.run_scan`.
  * verify     - `verify_differencing` instances of criterion 05's draw:
                 sumeval's O(N^2/tau) inner-sum loop, no bounds, no cli.
* bounds_apps  - bounds, numtheory, digits and normalnum carry the time; the
                 sum kernel sees only short scalar sums and one small
                 Erdős–Turán estimate.
  * scan_wide  - the same `cli.run_scan` path turned around: thousands of
                 moduli, short sums, eleven levels.
  * expansion  - the two applications: digit streams and the ancillary
                 sequence of normal-number schedules.

The four parts were four workloads of their own at first.  On a shared host
whose speed swings for tens of seconds, the fastest repeat of a 30 s run
still spread by a quarter from run to run; two workloads leave time for runs
twice as long, and keep one workload that loads each layer and one that
bypasses it.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List

import reference

WORKLOADS = {
    "sums": ("scan_deep", "verify"),
    "bounds_apps": ("scan_wide", "expansion"),
}

#: Modules every workload imports before its first call (what setup_s
#: times): the scans enter through cli, which imports every other layer.
MODULES = ("korosum.cli",)

#: Layers each part is designed to load; the traced run checks that they
#: hold most of the part's layer self time, and that a workload's parts'
#: layers hold most of the workload's.
PART_LAYERS = {
    "scan_deep": ("sumeval",),
    "verify": ("sumeval",),
    "scan_wide": ("bounds", "numtheory"),
    "expansion": ("digits", "normalnum"),
}


def design_layers(workload: str) -> tuple:
    return tuple(dict.fromkeys(layer for part in WORKLOADS[workload] for layer in PART_LAYERS[part]))

#: The six (P, b) environments of criterion 05.
VERIFY_ENVIRONMENTS = (
    ((3,), 2),
    ((3, 5), 2),
    ((2, 3), 5),
    ((3, 5, 7), 2),
    ((2,), 3),
    ((5, 7), 2),
)

#: The verify unit is the first VERIFY_INSTANCES instances of criterion 05's
#: own draw (its seed, its six environments, its rules for N and m'); the
#: benchmark seed redraws each numerator as a unit mod m.  Instance costs are
#: heavy tailed (2 ms to 0.5 s), so drawing (m, m', N) from the benchmark seed
#: made one seed's unit up to a quarter slower than another's; with a unit
#: numerator no inner numerator vanishes for one seed and not another, so
#: every seed's unit does the same work.
VERIFY_DRAW_SEED = 20260810
VERIFY_INSTANCES = 40
#: Verify instances per slice of the timed unit (see run_unit).
VERIFY_SLICE = 5
#: Consecutive m ranges each scan is cut into, one `cli.run_scan` call and
#: one slice of the timed unit each; run_scan orders rows by (m, a, N) and
#: draws each modulus's units from the config seed alone, so the rows are
#: those of one scan over the whole range.
SCAN_SLICES = {"scan_deep": 4, "scan_wide": 8}


def make_inputs(workload: str, seed: int) -> Dict:
    return {part: _part_inputs(part, seed) for part in WORKLOADS[workload]}


def _part_inputs(part: str, seed: int) -> Dict:
    rng = random.Random(f"{part}:{seed}")
    if part in ("scan_deep", "scan_wide"):
        config = _scan_config(part, rng)
        return {"config": config, "m_slices": scan_slices(config, SCAN_SLICES[part])}
    if part == "verify":
        return {"instances": _verify_instances(rng)}
    return _expansion_inputs(rng)


def _scan_config(part: str, rng: random.Random) -> Dict:
    if part == "scan_deep":
        return {
            "primes": [3, 5],
            "b": 2,
            "m_range": [3, 1_000_000],
            "a_policy": {"kind": "sample", "count": 5},
            "N_policy": {"kind": "powers", "exponents": [0.15, 0.25, 0.4, 0.6, 1.0]},
            "k_range": [0, 4],
            "seed": rng.randrange(2**31),
            "workers": 1,
        }
    return {
        "primes": [3, 5, 7, 11, 13],
        "b": 2,
        "m_range": [3, 1_000_000_000],
        "a_policy": {"kind": "sample", "count": 1},
        "N_policy": {"kind": "explicit", "values": [8, 32, 128]},
        "k_range": [0, 10],
        "seed": rng.randrange(2**31),
        "workers": 1,
    }


def scan_slices(config: Dict, count: int) -> List[List[int]]:
    """The config's m_range cut into `count` consecutive [lo, hi] ranges of
    about equal work (the sum of N over each modulus's N values), each
    holding at least one smooth modulus."""
    lo, hi = config["m_range"]
    moduli = reference.smooth_numbers(config["primes"], max(lo, 2), hi)
    weights = [sum(_n_values(config, m)) for m in moduli]
    total, slices, start, acc = sum(weights), [], lo, 0
    for i, (m, w) in enumerate(zip(moduli, weights)):
        acc += w
        if len(slices) < count - 1 and i + 1 < len(moduli) and acc >= total * (len(slices) + 1) / count:
            slices.append([start, m])
            start = m + 1
    slices.append([start, hi])
    return slices


def _verify_instances(rng: random.Random) -> List[List[int]]:
    """[a, b, m, m', N] lists: criterion 05's draw, with numerators from `rng`."""
    from korosum.bounds import exponents
    from korosum.errors import DegenerateRange
    from korosum.numtheory import PrimeSet
    from korosum.sumeval import choose_m_prime

    draw = random.Random(VERIFY_DRAW_SEED)
    instances = []
    while len(instances) < VERIFY_INSTANCES:
        primes, b = draw.choice(VERIFY_ENVIRONMENTS)
        exps = {p: draw.randrange(0, int(math.log(10**6) / math.log(p)) + 1) for p in primes}
        m = math.prod(p**e for p, e in exps.items())
        if m < 15 or m > 10**6 or math.gcd(b, m) != 1:
            continue
        draw.randrange(1, m)  # criterion 05's numerator, replaced by a seeded unit
        N = draw.randrange(2, 5001)
        m_prime = None
        if draw.random() < 0.5:
            ex = exponents(draw.randrange(0, 5))
            try:
                m_prime = choose_m_prime(m, N, PrimeSet(primes), ex.alpha, ex.gamma, ex.nu)
            except DegenerateRange:
                pass
        if m_prime is None:
            m_prime = reference.saturated_divisor(m, exps, draw)
        instances.append([_unit(rng, m), b, m, m_prime, N])
    return instances


def _unit(rng: random.Random, m: int) -> int:
    while True:
        a = rng.randrange(1, m)
        if math.gcd(a, m) == 1:
            return a


def _expansion_inputs(rng: random.Random) -> Dict:
    return {
        # [a, m, base, pattern digits, N]
        "occurrences": [
            [_unit(rng, 3**13), 3**13, 2, [rng.randrange(2) for _ in range(4)], 10**6],
            [_unit(rng, 7**9), 7**9, 10, [rng.randrange(10) for _ in range(2)], 10**6],
        ],
        # [a, m, base, N]: one full period of a / 5^8 in base 2
        "frequencies": [[_unit(rng, 5**8), 5**8, 2, reference.order(2, 5**8)]],
        # [b, c_base, m_base, n_max]: c_k = c_base^k, m_k = m_base^k
        "traces": [[2, 3, 2, 2**18], [2, 5, 3, 2**17]],
        # [a, c, b, J, M]
        "erdos_turan": [[_unit(rng, 3**10), 3**10, 2, 4096, 64]],
    }


def operations(workload: str, inputs: Dict) -> int:
    """Operations one unit attempts: report rows for scans, calls otherwise."""
    total = 0
    for part in WORKLOADS[workload]:
        got = inputs[part]
        if part in ("scan_deep", "scan_wide"):
            total += expected_scan_rows(got["config"])
        elif part == "verify":
            total += len(got["instances"])
        else:
            total += sum(len(got[key]) for key in ("occurrences", "frequencies", "traces", "erdos_turan"))
    return total


def expected_scan_rows(config: Dict) -> int:
    """Row count predicted from the config alone."""
    lo, hi = config["m_range"]
    count = config["a_policy"]["count"]
    rows = 0
    for m in reference.smooth_numbers(config["primes"], max(lo, 2), hi):
        rows += min(count, reference.euler_phi(m)) * len(_n_values(config, m))
    return rows


def _n_values(config: Dict, m: int) -> set:
    n_policy = config["N_policy"]
    if n_policy["kind"] == "explicit":
        return set(n_policy["values"])
    return {max(1, math.ceil(m**x)) for x in n_policy["exponents"]}


def run_unit(workload: str, inputs: Dict, after_part=None, between=None) -> Dict:
    """The timed unit of work: every part, one after the other; the traced
    run passes `after_part` to take a reading between parts.  `between` is
    called at each slice boundary: between parts, after each scan slice,
    between groups of VERIFY_SLICE verify instances and between expansion
    calls."""
    between = between or (lambda: None)
    raw = {}
    for i, part in enumerate(WORKLOADS[workload]):
        if i:
            between()
        raw[part] = _run_part(part, inputs[part], between)
        if after_part is not None:
            after_part(part)
    return raw


def _run_part(part: str, inputs: Dict, between) -> Dict:
    """Returns the program's own result objects; an operation that raises is
    recorded in "errors" and the rest still run."""
    errors: List[str] = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # counted as a failed operation by the caller
            errors.append(repr(exc))
            return None

    if part in ("scan_deep", "scan_wide"):
        from korosum import cli

        def scan(doc):
            rows = []
            for lo, hi in inputs["m_slices"]:
                rows += cli.run_scan(cli.load_scan_config(dict(doc, m_range=[lo, hi])))
                between()
            return rows, cli.render_report(rows, "csv")

        done = attempt(scan, inputs["config"])
        rows, report = done if done is not None else ([], b"")
        return {"errors": errors, "rows": rows, "report": report}
    if part == "verify":
        from korosum import sumeval

        results = []
        for i, inst in enumerate(inputs["instances"]):
            if i and i % VERIFY_SLICE == 0:
                between()
            results.append(attempt(sumeval.verify_differencing, *inst))
        return {"errors": errors, "results": results}
    from korosum import digits, normalnum

    started = False

    def step(fn, *args):
        """One expansion call, a slice of its own."""
        nonlocal started
        if started:
            between()
        started = True
        return attempt(fn, *args)

    return {
        "errors": errors,
        "occurrences": [
            step(digits.count_occurrences, a, m, digits.DigitPattern(base, tuple(pattern)), N)
            for a, m, base, pattern, N in inputs["occurrences"]
        ],
        "frequencies": [step(digits.digit_frequencies, *args) for args in inputs["frequencies"]],
        "traces": [
            step(normalnum.discrepancy_trace, normalnum.Schedule.geometric(b, c_base, m_base), n_max)
            for b, c_base, m_base, n_max in inputs["traces"]
        ],
        "erdos_turan": [step(normalnum.erdos_turan_estimate, *args) for args in inputs["erdos_turan"]],
    }


def encode_outputs(workload: str, raw: Dict) -> Dict:
    """JSON-ready copy of run_unit's result, made after the timer stops.
    JSON floats round-trip exactly, so the checks see the program's bits."""
    return {part: _encode_part(part, raw[part]) for part in WORKLOADS[workload]}


def _encode_part(part: str, raw: Dict) -> Dict:
    if part in ("scan_deep", "scan_wide"):
        return {
            "errors": raw["errors"],
            "rows": [dataclasses.astuple(r) for r in raw["rows"]],
            "report": raw["report"].decode("utf-8"),
        }
    if part == "verify":
        return {
            "errors": raw["errors"],
            "results": [
                None if r is None else [r.lhs_squared, r.rhs, r.tau, r.holds] for r in raw["results"]
            ],
        }

    def opt(value, fn):
        return None if value is None else fn(value)

    return {
        "errors": raw["errors"],
        "occurrences": [opt(r, lambda r: r.count) for r in raw["occurrences"]],
        "frequencies": [opt(r, list) for r in raw["frequencies"]],
        "traces": [opt(r, lambda r: [list(row) for row in r.rows]) for r in raw["traces"]],
        "erdos_turan": raw["erdos_turan"],
    }
