"""Output checks, run outside the timer on one unit's outputs.

Each check returns the number of operations whose output is wrong (scan
rows, verify instances, expansion calls) and notes saying why; a workload's
check is the sum over its parts.  The references come from `reference`,
which shares no code with the program.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Dict, List, Tuple

import reference
import workloads

#: The scan's own validity slack (cli.VALIDITY_SLACK at the seed commit),
#: fixed here so the check cannot loosen with the program.
VALIDITY_SLACK = 1e-6

#: Sampled scan rows re-evaluated term by term, and their total length cap.
SCAN_SAMPLE_ROWS = 24
SCAN_SAMPLE_TERMS = 2_500_000

VERIFY_SAMPLE = 16
DIGIT_SAMPLE = 16


def check(workload: str, inputs: Dict, outputs: Dict, seed: int) -> Tuple[int, List[str]]:
    failed, notes = 0, []
    for part in workloads.WORKLOADS[workload]:
        bad, part_notes = check_part(part, inputs[part], outputs[part], seed)
        failed += bad
        notes += [f"{part}: {note}" for note in part_notes]
    return failed, notes


def check_part(part: str, inputs: Dict, outputs: Dict, seed: int) -> Tuple[int, List[str]]:
    rng = random.Random(f"check:{part}:{seed}")
    if part in ("scan_deep", "scan_wide"):
        return _check_scan(inputs, outputs, rng)
    if part == "verify":
        return _check_verify(inputs, outputs, rng)
    return _check_expansion(inputs, outputs, rng)


def _check_scan(inputs: Dict, outputs: Dict, rng: random.Random) -> Tuple[int, List[str]]:
    from korosum import cli

    expected = workloads.expected_scan_rows(inputs["config"])
    if outputs["errors"]:
        return expected, [f"scan raised: {outputs['errors'][0]}"]
    notes = []
    rows = [cli.ScanRow(*values) for values in outputs["rows"]]
    bad = set()
    if len(rows) != expected:
        notes.append(f"{len(rows)} rows, {expected} predicted from the config")
    parsed = cli.rows_from_csv(outputs["report"].encode("utf-8"))
    mismatched = {i for i, (p, r) in enumerate(zip(parsed, rows)) if p != r}
    mismatched |= set(range(min(len(parsed), len(rows)), len(rows)))
    if mismatched:
        notes.append(f"{len(mismatched)} rows do not round-trip through rows_from_csv")
    bad |= mismatched
    for i, row in enumerate(rows):
        for bound in (row.bound_recursive, row.bound_main, row.bound_long, row.bound_short):
            if bound is not None and row.s_abs > bound * (1.0 + VALIDITY_SLACK):
                bad.add(i)
                notes.append(f"row {i}: |S_N|={row.s_abs} above bound {bound}")
    order = list(range(len(rows)))
    rng.shuffle(order)
    taken, terms = 0, 0
    for i in order:
        row = rows[i]
        if taken == SCAN_SAMPLE_ROWS:
            break
        if terms + row.N > SCAN_SAMPLE_TERMS:
            continue
        taken += 1
        terms += row.N
        ref = abs(reference.direct_sum(row.a, inputs["config"]["b"], row.m, row.N))
        if abs(row.s_abs - ref) > 1e-9 * row.N:
            bad.add(i)
            notes.append(f"row {i}: |S_N|={row.s_abs}, direct sum gives {ref}")
    return len(bad) + abs(expected - len(rows)), notes


def _check_verify(inputs: Dict, outputs: Dict, rng: random.Random) -> Tuple[int, List[str]]:
    instances = inputs["instances"]
    results = outputs["results"]
    notes = [f"raised: {e}" for e in outputs["errors"]]
    bad = set()
    for i, ((a, b, m, m_prime, N), res) in enumerate(zip(instances, results)):
        if res is None:
            bad.add(i)
            continue
        lhs_squared, rhs, tau, holds = res
        if not holds:
            bad.add(i)
            notes.append(f"instance {i} {instances[i]}: inequality reported false")
        if tau != reference.order(b, m_prime):
            bad.add(i)
            notes.append(f"instance {i}: tau={tau}, reference order {reference.order(b, m_prime)}")
    for i in rng.sample(range(len(instances)), min(VERIFY_SAMPLE, len(instances))):
        if results[i] is None:
            continue
        a, b, m, _, N = instances[i]
        ref = abs(reference.direct_sum(a, b, m, N))
        if abs(math.sqrt(results[i][0]) - ref) > 1e-9 * N:
            bad.add(i)
            notes.append(f"instance {i}: |S_N|^2={results[i][0]}, direct sum gives {ref}^2")
    return len(bad), notes


def _check_expansion(inputs: Dict, outputs: Dict, rng: random.Random) -> Tuple[int, List[str]]:
    from korosum import digits

    notes = [f"raised: {e}" for e in outputs["errors"]]
    bad = 0
    for (a, m, base, pattern, N), count in zip(inputs["occurrences"], outputs["occurrences"]):
        ref_digits = reference.expansion_digits(a, m, base, N + len(pattern) - 1)
        ok = count == reference.count_pattern(ref_digits, pattern, N)
        for n in rng.sample(range(1, N + 1), DIGIT_SAMPLE):
            ok = ok and digits.digit_at(a, m, base, n) == ref_digits[n - 1]
        if not ok:
            bad += 1
            notes.append(f"count_occurrences({a}, {m}, {pattern}, {N}) = {count} is wrong")
    for (a, m, base, N), freq in zip(inputs["frequencies"], outputs["frequencies"]):
        ref_digits = reference.expansion_digits(a, m, base, N)
        ok = freq == [ref_digits.count(d) for d in range(base)] and sum(freq) == N
        # criterion 11: over one full period, the counts of all length-2 patterns sum to N
        total = sum(
            digits.count_occurrences(a, m, digits.DigitPattern(base, ds), N).count
            for ds in product(range(base), repeat=2)
        )
        if not ok or total != N:
            bad += 1
            notes.append(f"digit_frequencies({a}, {m}, {base}, {N}) = {freq}; pattern total {total}")
    for (b, c_base, m_base, n_max), rows in zip(inputs["traces"], outputs["traces"]):
        if rows is None:
            bad += 1
            continue
        at = dict(rows)
        exact = reference.star_discrepancy(reference.geometric_points(b, c_base, m_base, 1 << 10))
        if [n for n, _ in rows] != [1 << j for j in range(n_max.bit_length())] or not (
            abs(at[1 << 10] - float(exact)) <= 1e-12
        ):
            bad += 1
            notes.append(f"discrepancy_trace({c_base}^k, {m_base}^k): D*_1024={at.get(1 << 10)}, exact {float(exact)}")
    for (a, c, b, J, M), estimate in zip(inputs["erdos_turan"], outputs["erdos_turan"]):
        if estimate is None:
            bad += 1
            continue
        ref = 3.0 * (1.0 / M + math.fsum(abs(reference.direct_sum(h * a, b, c, J)) / (h * J) for h in range(1, M + 1)))
        if abs(estimate - ref) > 1e-9 * ref:
            bad += 1
            notes.append(f"erdos_turan_estimate({a}, {c}, {b}, {J}, {M}) = {estimate}, reference {ref}")
    return bad, notes
