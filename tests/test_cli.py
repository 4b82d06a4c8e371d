"""CLI surface, scan harness, and report serialization tests."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from korosum import bounds as bd
from korosum import cli
from korosum import digits as dg
from korosum import normalnum as nn
from korosum import numtheory as nt
from korosum import sumeval as se
from korosum.errors import BoundViolation, ConfigError, KorosumError
import oracles


def _reject_constant(name):
    raise ValueError(f"bare {name} is not RFC 8259 JSON")


def strict_json(text):
    """json.loads that rejects the Infinity, -Infinity and NaN tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def make_config(**overrides):
    doc = {
        "primes": [3],
        "b": 2,
        "m_range": [3, 81],
        "a_policy": {"kind": "fixed", "values": [1]},
        "N_policy": {"kind": "explicit", "values": [6]},
        "k_range": [0, 2],
        "seed": 42,
    }
    doc.update(overrides)
    return doc


def _violating_chunk(moduli, config):
    """A scan chunk reporting a violation at each of its moduli divisible by
    9 (module level, so a worker process can unpickle it)."""
    bad = [m for m, _ in moduli if m % 9 == 0]
    return [], ({"m": bad[0], "reason": "synthetic"} if bad else None)


class TestLoadScanConfig:
    def test_round_trip(self):
        config = cli.load_scan_config(make_config())
        assert config.primes == (3,)
        assert (config.m_lo, config.m_hi) == (3, 81)

    def test_missing_field(self):
        doc = make_config()
        del doc["seed"]
        with pytest.raises(ConfigError) as info:
            cli.load_scan_config(doc)
        assert "seed" in str(info.value)

    def test_bad_policy_kind(self):
        with pytest.raises(ConfigError) as info:
            cli.load_scan_config(make_config(a_policy={"kind": "nope"}))
        assert "a_policy.kind" in str(info.value)

    def test_b_sharing_prime_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_scan_config(make_config(b=6))


STONEHAM_DOC = {
    "b": 2,
    "primes": [3],
    "c": {"kind": "geometric", "base": 3},
    "m": {"kind": "geometric", "base": 2},
}
FINITE_DOC = {
    "b": 2,
    "primes": [3],
    "c": {"kind": "explicit", "values": [3, 9]},
    "m": {"kind": "explicit", "values": [1, 2]},
}


class TestLoadSchedule:
    """The CLI's loader and the library build the same schedule."""

    @pytest.mark.parametrize(
        "doc,schedule",
        [
            (STONEHAM_DOC, nn.Schedule.geometric(2, 3, 2, nt.PrimeSet.of(3))),
            (FINITE_DOC, nn.Schedule(2, nt.PrimeSet.of(3), (3, 9), (1, 2))),
            (dict(FINITE_DOC, epsilon=0.25, primes=[5, 3]),
             nn.Schedule(2, nt.PrimeSet.of(3, 5), (3, 9), (1, 2), 0.25)),
        ],
        ids=["stoneham", "finite", "epsilon"],
    )
    def test_normal_json_matches_library(self, tmp_path, capsys, doc, schedule):
        assert cli.load_schedule(doc) == schedule
        sched_path = tmp_path / "schedule.json"
        sched_path.write_text(json.dumps(doc))
        assert cli.main(["normal", "--schedule", str(sched_path), "--n-max", "1000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        trace = nn.discrepancy_trace(schedule, 1000)
        assert [(row["N"], row["d_star"]) for row in payload["trace"]] == trace.rows
        assert payload["validation"]["horizon"] == (12 if schedule.blocks is None else 2)

    def test_finite_schedule_is_usable_everywhere(self):
        # two blocks; the second extends forever, so alpha = 1/6 + 1/36
        schedule = cli.load_schedule(FINITE_DOC)
        assert schedule.blocks == 2
        assert nn.validate_schedule(schedule, 12).horizon == 2
        value, expected = Fraction(7, 36), []
        for _ in range(40):
            value *= 2
            expected.append(int(value))
            value -= int(value)
        assert nn.alpha_digits(schedule, 40) == expected

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"b": "x"}, "b"),
            ({"epsilon": "q"}, "epsilon"),
            ({"epsilon": 10**400}, "epsilon"),
            ({"c": {"kind": "explicit", "values": ["a", 9]}}, "c.values"),
            ({"m": {"kind": "geometric", "base": 1}}, "m.base"),
            ({"c": [3]}, "c"),
            ({"primes": [3, 4]}, "primes"),
        ],
        ids=["b", "epsilon", "huge_epsilon", "c_values", "m_base", "c_not_object", "primes"],
    )
    def test_malformed_schedule_exit_code(self, tmp_path, capsys, overrides, field):
        sched_path = tmp_path / "schedule.json"
        sched_path.write_text(json.dumps(dict(FINITE_DOC, **overrides)))
        assert cli.main(["normal", "--schedule", str(sched_path), "--n-max", "64"]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and "Traceback" not in err


    @pytest.mark.parametrize("m", [[0, 2], [-5, 2]], ids=["zero", "negative"])
    def test_non_positive_m_exit_code(self, tmp_path, capsys, m):
        sched_path = tmp_path / "schedule.json"
        sched_path.write_text(json.dumps(dict(FINITE_DOC, m={"kind": "explicit", "values": m})))
        assert cli.main(["normal", "--schedule", str(sched_path), "--n-max", "64"]) == 2
        err = capsys.readouterr().err
        assert "positive schedule values" in err and "Traceback" not in err


class TestRunScan:
    def test_rows_match_hand_computation(self):
        rows = cli.run_scan(cli.load_scan_config(make_config()))
        moduli = [r.m for r in rows]
        assert moduli == [3, 9, 27, 81]
        by_m = {r.m: r for r in rows}
        assert by_m[9].s_abs == pytest.approx(0.0, abs=1e-10)
        # level-0 bound at (m=9, N=6) is (sqrt(9) + 3*6/sqrt(9))(1+log 9)
        expected = (3 + 6.0) * (1 + math.log(9))
        assert by_m[9].bound_long == pytest.approx(expected, rel=1e-9)
        direct = se.eval_sum(1, 2, 27, 6).magnitude
        assert by_m[27].s_abs == pytest.approx(direct, abs=1e-9)
        assert all(r.a == 1 and r.N == 6 for r in rows)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            cli.run_scan(cli.load_scan_config(make_config(m_range=[4, 8])))

    def test_sampling_is_deterministic_per_modulus(self):
        config = cli.load_scan_config(
            make_config(a_policy={"kind": "sample", "count": 5}, m_range=[81, 243])
        )
        first = cli.run_scan(config)
        second = cli.run_scan(config)
        assert [(r.m, r.a) for r in first] == [(r.m, r.a) for r in second]

    def test_worker_count_does_not_change_bytes(self):
        config = cli.load_scan_config(
            make_config(
                primes=[3, 5],
                m_range=[3, 500],
                a_policy={"kind": "sample", "count": 3},
                N_policy={"kind": "powers", "exponents": [0.5, 1.0]},
            )
        )
        serial = cli.render_report(cli.run_scan(config, workers=1))
        parallel = cli.render_report(cli.run_scan(config, workers=4))
        assert serial == parallel

    def test_bounds_work_once_per_modulus(self, monkeypatch):
        # the enumeration lists each modulus with its exponents, so the scan
        # factors no modulus and builds no order structure: its orders come
        # from the cached structure of the moduli's radicals
        counts = {"factor_smooth": 0, "order_structure": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        orig = nt.factor_smooth
        for mod in [m for key, m in sys.modules.items() if key.startswith("korosum")]:
            if getattr(mod, "factor_smooth", None) is orig:
                monkeypatch.setattr(mod, "factor_smooth", counted("factor_smooth", orig))
        monkeypatch.setattr(nt.SmoothFactorization, "order_structure",
                            counted("order_structure", nt.SmoothFactorization.order_structure))
        config = cli.load_scan_config(
            make_config(
                primes=[3, 5],
                m_range=[3, 3000],
                a_policy={"kind": "sample", "count": 3},
                N_policy={"kind": "powers", "exponents": [0.25, 0.5, 1.0]},
                k_range=[0, 4],
            )
        )
        rows = cli.run_scan(config, workers=1)
        moduli = len({r.m for r in rows})
        assert moduli == len([m for m, _ in nt.smooth_numbers(nt.PrimeSet.of(3, 5), 3000, lo=3)])
        assert len(rows) > 5 * moduli
        assert counts == {"factor_smooth": 0, "order_structure": 0}

    #: The benchmark's wide scan to m <= 10^7: 1,520 moduli over five primes,
    #: one sampled unit, three short N, eleven levels.
    WIDE = make_config(primes=[3, 5, 7, 11, 13], m_range=[3, 10**7], a_policy={"kind": "sample", "count": 1},
                       N_policy={"kind": "explicit", "values": [8, 32, 128]}, k_range=[0, 10])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_scan_pin(self, workers):
        # the report bytes of the scan since its units come from the SplitMix64
        # draw; TestSampleDraw checks the bytes before it with the old draw
        data = cli.render_report(cli.run_scan(cli.load_scan_config(self.WIDE), workers=workers))
        assert data.count(b"\n") == 4561
        assert hashlib.sha256(data).hexdigest() == "6929fb52f297de04d276f0fd0e0dcc3e634e241a767dfe27fd498c1166156492"

    def test_wide_scan_sums_are_eval_sum_reduced_bits(self):
        rows = cli.run_scan(cli.load_scan_config(self.WIDE))
        for r in rows:
            assert r.s_abs.hex() == abs(se.eval_sum_reduced(r.a, 2, r.m, r.N).value).hex()
        assert len({r.m for r in rows}) == 1520

    def test_wide_scan_takes_libm_only_at_the_least_level(self, monkeypatch):
        # math.exp twice for the least level and twice for main, per row,
        # where every level was taken before (24 a row at eleven levels)
        calls = [0]

        def exp(x):
            calls[0] += 1
            return math.exp(x)

        monkeypatch.setattr(bd, "math", type("math", (), {**vars(math), "exp": staticmethod(exp)}))
        rows = cli.run_scan(cli.load_scan_config(self.WIDE))
        monkeypatch.undo()
        assert len(rows) == 4560 and calls[0] == 4 * len(rows)

    def test_units_need_no_totient(self, monkeypatch):
        # phi(m) comes from the modulus's smooth factorization, so the scan
        # never runs the trial-division totient
        def tripwire(n):
            raise AssertionError(f"euler_phi({n}) called by the scan")

        monkeypatch.setattr(nt, "euler_phi", tripwire, raising=False)
        monkeypatch.setattr(oracles, "euler_phi", tripwire)
        config = cli.load_scan_config(make_config(
            primes=[3, 5], m_range=[3, 2000], a_policy={"kind": "sample", "count": 5}))
        rows = cli.run_scan(config)
        monkeypatch.undo()
        moduli = [m for m, _ in nt.smooth_numbers(nt.PrimeSet.of(3, 5), 2000, lo=3)]
        assert len(rows) == sum(min(5, oracles.euler_phi(m)) for m in moduli)
        assert any(oracles.euler_phi(m) < 5 for m in moduli)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_violation_of_the_smallest_modulus_wins(self, monkeypatch, workers):
        monkeypatch.setattr(cli, "_CHUNK_TERMS", 1)  # one modulus per task
        monkeypatch.setattr(cli, "_scan_chunk", _violating_chunk)
        with pytest.raises(BoundViolation) as info:
            cli.run_scan(cli.load_scan_config(make_config()), workers=workers)
        assert info.value.detail == {"m": 9, "reason": "synthetic"}

    def test_violation_aborts(self, monkeypatch):
        def fake_chunk(moduli, config):
            return [], {"m": moduli[0], "reason": "synthetic"}

        monkeypatch.setattr(cli, "_scan_chunk", fake_chunk)
        with pytest.raises(BoundViolation):
            cli.run_scan(cli.load_scan_config(make_config()))


class TestSampleDraw:
    """The sample policy's units: SplitMix64 outputs keyed on the words of
    (seed, m), uniform over the units by rejection, the same in any slice
    of the range and at any worker count."""

    POLICY = {"kind": "sample", "count": 4}

    def test_stream_is_splitmix64(self):
        # the reference C code's first outputs from the state 1234567
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                4593380528125082431, 16408922859458223821]
        assert oracles.splitmix64(1234567, 5) == want
        assert [cli._mix64(1234567 + i * cli._GAMMA & cli._MASK64) for i in range(1, 6)] == want

    @pytest.mark.parametrize("m,exponents,seed,count,want", [
        (1215, ((3, 5), (5, 1)), 7, 4, [52, 187, 566, 991]),
        (1215, ((3, 5), (5, 1)), -7, 4, [241, 319, 662, 766]),  # the sign is a key word
        (1215, ((3, 5), (5, 1)), 2**64 + 3, 4, [358, 418, 958, 1013]),  # a seed of two words
        (3**41, ((3, 41),), 42, 3,  # m of two words, each unit one output cut to 65 bits
         [13117994743450095158, 20132519564178913928, 28443270320791830692]),
        (3**81, ((3, 81),), 42, 2,  # m past 2^128: two outputs per candidate
         [205073974133205962834115863010570659629, 417862148634143345185330303798534861850]),
    ])
    def test_known_answers(self, m, exponents, seed, count, want):
        assert cli._units_for(m, exponents, dict(self.POLICY, count=count), seed) == want
        assert oracles.sample_units_splitmix(m, count, seed) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(2**130), 2**130), st.sampled_from([5, 9, 15, 1215, 3**20, 2**64 + 1, 3**41 * 5, 7**50]),
           st.integers(1, 3))
    def test_units_are_distinct_sorted_coprime_and_in_range(self, seed, m, count):
        units = cli._sample_units(m, count, seed)
        assert units == sorted(set(units)) and len(units) == count
        assert all(0 < a < m and math.gcd(a, m) == 1 for a in units)
        assert units == oracles.sample_units_splitmix(m, count, seed)

    def test_all_but_one_unit_terminates(self):
        for m in (4, 9, 15, 1215):
            phi = oracles.euler_phi(m)
            units = cli._sample_units(m, phi - 1, 5)
            assert len(units) == phi - 1 and set(units) < {a for a in range(1, m) if math.gcd(a, m) == 1}

    def test_units_are_uniform(self):
        # one unit of 1215 = 3^5 5 from each of 10^4 seeds, over its 648 units:
        # the statistic reads 647.8 (647 degrees of freedom); the bounds are
        # the chi-square quantiles 0.001 and 0.999 by Wilson and Hilferty
        m = 3**5 * 5
        counts = dict.fromkeys((a for a in range(1, m) if math.gcd(a, m) == 1), 0)
        for seed in range(10**4):
            counts[cli._sample_units(m, 1, seed)[0]] += 1
        expected, df = 10**4 / len(counts), len(counts) - 1
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        quantile = [df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3 for z in (-3.090, 3.090)]
        assert quantile[0] < statistic < quantile[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slices_give_the_whole_scan(self, workers):
        # what perfbench relies on: a scan of [lo, hi] is the scans of
        # consecutive sub-ranges, one after another
        doc = make_config(primes=[3, 5, 7], m_range=[3, 10**5], a_policy={"kind": "sample", "count": 3},
                          N_policy={"kind": "explicit", "values": [8, 100]}, k_range=[0, 3], seed=-11)
        whole = cli.run_scan(cli.load_scan_config(doc), workers=workers)
        parts = [row for lo, hi in ([3, 500], [501, 6075], [6076, 10**5])
                 for row in cli.run_scan(cli.load_scan_config(dict(doc, m_range=[lo, hi])), workers=workers)]
        assert parts == whole and len({r.m for r in whole}) > 100

    def test_the_old_draw_gives_the_old_pins(self, monkeypatch, tmp_path):
        # every report bit but the sampled units is unchanged: with the
        # Mersenne Twister draw back in place, the scans read their old bytes
        monkeypatch.setattr(cli, "_units_for", oracles.units_mersenne)
        readme = make_config(primes=[3, 5], m_range=[3, 10**6], a_policy={"kind": "sample", "count": 20},
                             N_policy={"kind": "powers", "exponents": [0.15, 0.25, 0.4, 0.6, 1.0]}, k_range=[0, 4])
        for doc, workers, digest in (
                (readme, 1, "f5418c0b50259eec141f1e96f22dc00b23b0bd25a85edead992efef8a34f8f1c"),
                (TestRunScan.WIDE, 1, "51decd65e91ff2b1fe8a218f59e02415149b1563a16f9b730241569893afb076"),
                (TestPinnedCommandLine.README_SCAN, 1,
                 "669ec4f895a24f8f527030aed17eaf07b95ae3c3c4acaaff9fafc2b44e2ce86f")):
            data = cli.render_report(cli.run_scan(cli.load_scan_config(doc), workers=workers))
            assert hashlib.sha256(data).hexdigest() == digest


class TestRenderReport:
    def test_header_only_when_empty(self):
        data = cli.render_report([])
        assert data.decode().strip() == ",".join(cli._CSV_FIELDS)

    def test_csv_round_trip(self):
        rows = cli.run_scan(cli.load_scan_config(make_config()))
        parsed = cli.rows_from_csv(cli.render_report(rows))
        assert parsed == rows

    def test_json_round_trip(self):
        rows = cli.run_scan(cli.load_scan_config(make_config()))
        payload = json.loads(cli.render_report(rows, "json"))
        assert len(payload["rows"]) == len(rows)
        assert payload["rows"][0]["s_abs"] == rows[0].s_abs

    def test_json_writes_non_finite_floats_as_strings(self):
        # rows past the float range carry inf bounds; RFC 8259 has no token for them
        doc = make_config(m_range=[3, 30], N_policy={"kind": "explicit", "values": [6, 10**308]})
        rows = cli.run_scan(cli.load_scan_config(doc))
        data = cli.render_report(rows, "json")
        payload = strict_json(data)
        assert [r["bound_long"] for r in payload["rows"]] == [
            r.bound_long if math.isfinite(r.bound_long) else "inf" for r in rows]
        assert "inf" in [r["bound_long"] for r in payload["rows"]]
        # finite payloads keep their bytes
        finite = [r for r in rows if r.N == 6]
        assert cli.render_report(finite, "json") == (json.dumps(
            {"rows": [dataclasses.asdict(r) for r in finite]}, indent=1) + "\n").encode()
        assert strict_json(cli._dumps([math.inf, -math.inf, math.nan, 0.5], indent=2)) == [
            "inf", "-inf", "nan", 0.5]

    def test_float_rendering_is_lossless(self):
        x = math.pi * 1e-7
        assert float(cli._fmt_float(x)) == x

    def test_csv_equals_the_csv_writer_rendering(self):
        rows = cli.run_scan(cli.load_scan_config(make_config()))
        special = (None, math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, math.pi)
        for i, v in enumerate(special):
            rows.append(cli.ScanRow(
                3**i, -i, 2**70 + i, i, -0.0 if v is None else v, math.nan, math.inf, -math.inf,
                v or 1.0, v, i % 2 == 0, i % 3 == 0))
        data = cli.render_report(rows)
        assert data == oracles.csv_report(rows)
        assert {b"true", b"false", b"", b"inf", b"-inf", b"nan", b"-0"} <= set(data.replace(b"\n", b",").split(b","))
        parsed = cli.rows_from_csv(data)
        assert [repr(dataclasses.astuple(r)) for r in parsed] == [repr(dataclasses.astuple(r)) for r in rows]


def _run_python(args, **env_changes):
    """A fresh interpreter on korosum's sources, with the given environment
    variables set (a value of None unsets one)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    done = subprocess.run([sys.executable] + args, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestCommands:
    def test_order_text(self, capsys):
        assert cli.main(["order", "--b", "2", "--m", "9", "--primes", "3"]) == 0
        out = capsys.readouterr().out
        assert "ord(2, 9) = 6" in out

    def test_order_json(self, capsys):
        assert cli.main(["order", "--b", "2", "--m", "9", "--primes", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 6
        assert payload["m1"] == 3

    def test_sum_json(self, capsys):
        assert cli.main(["sum", "--a", "1", "--b", "2", "--m", "9", "--n", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["magnitude"]) < 1e-10

    def test_sum_reduced_of_a_non_unit(self, capsys):
        # a = 0: the coset walk of N >= T has no unit to start from
        assert cli.main(["sum", "--a", "0", "--b", "2", "--m", "6561", "--n", "100000", "--reduced"]) == 0
        assert "= 100000+0j" in capsys.readouterr().out

    def test_bound_best(self, capsys):
        code = cli.main(
            ["bound", "--m", "729", "--n", "27", "--primes", "3", "--b", "2",
             "--form", "best", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_value"] > 0

    @pytest.mark.parametrize("form,n", [("recursive", 10**300), ("main", 10**300), ("long", 10**308)],
                             ids=["recursive", "main", "long"])
    def test_bound_term_past_float_range_is_inf(self, capsys, form, n):
        argv = ["bound", "--m", "729", "--n", str(n), "--primes", "3", "--b", "2", "--k", "3",
                "--form", form, "--json"]
        assert cli.main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["term_secondary"] == payload["bound_value"] == "inf"
        assert payload["nontrivial"] is False

    def test_bound_best_past_float_range(self, capsys):
        N = 10**300
        argv = ["bound", "--m", "729", "--n", str(N), "--primes", "3", "--b", "2", "--k", "3",
                "--form", "best", "--json"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        # the levels whose terms overflow read inf; the least bound is finite
        levels = [bd.bound_table([(729, N)], nt.PrimeSet.of(3), 2, (k,)).recursive[0, 2] for k in range(9)]
        best = int(bd.bound_table([(729, N)], nt.PrimeSet.of(3), 2, range(9)).best[0])
        assert math.inf in levels
        assert payload["k"] == best
        assert payload["bound_value"] == levels[best] < math.inf
        assert payload["nontrivial"] == (levels[best] < N)

    def test_scan_n_past_float_range(self, tmp_path, capsys):
        doc = make_config(m_range=[3, 30], N_policy={"kind": "explicit", "values": [10**300]})
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["scan", "--config", str(path)]) == 0
        data = capsys.readouterr().out.encode()
        rows = cli.rows_from_csv(data)
        assert [(r.m, r.N) for r in rows] == [(3, 10**300), (9, 10**300), (27, 10**300)]
        assert not any(r.nontrivial_recursive or r.nontrivial_main for r in rows)
        assert cli.render_report(rows) == data

    def test_intervals_json(self, capsys):
        assert cli.main(["intervals", "--k-max", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["intervals"][2]["lo"] == "1/4"
        assert payload["intervals"][5]["lo"] == "52080/358871"

    def test_constants_json(self, capsys):
        assert cli.main(["constants", "--primes", "3", "--b", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["M"] == 3
        assert payload["levels"][0] == {"k": 0, "A_k": 1.0, "B_k": 3.0}

    @pytest.mark.parametrize("b", ["1", "-1"])
    def test_constants_rejects_base_below_two(self, capsys, b):
        # b = 1 used to loop forever in capital_m
        assert cli.main(["constants", "--primes", "3", f"--b={b}"]) == 2
        assert "b must be at least 2" in capsys.readouterr().err

    def test_digits_command(self, capsys):
        code = cli.main(
            ["digits", "--a", "1", "--m", "7", "--base", "10",
             "--pattern", "14", "--n", "1000", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 167

    def test_verify_command(self, capsys):
        code = cli.main(
            ["verify", "--a", "1", "--b", "2", "--m", "9", "--m-prime", "3",
             "--n", "6", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert payload["path"] == "fast" and payload["margin"] > 1
        code = cli.main(["verify", "--a", "1", "--b", "2", "--m", str(3**12), "--m-prime", "3",
                         "--n", "5000"])
        assert code == 0
        assert "fast path, certified margin rhs/lhs^2 = " in capsys.readouterr().out

    def test_verify_that_does_not_hold_exits_3(self, monkeypatch, capsys):
        report = se.DifferencingReport(lhs_squared=10.0, rhs=5.0, m_prime=3, tau=2, holds=False,
                                       path="exact", margin=0.5)
        monkeypatch.setattr(se, "verify_differencing", lambda *args: report)
        argv = ["verify", "--a", "1", "--b", "2", "--m", "9", "--m-prime", "3", "--n", "6"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().out == (
            "lhs^2 = 10  rhs = 5  (m'=3, tau=2)\n"
            "holds: False  (decided by the exact path, certified margin rhs/lhs^2 = 0.5)\n")
        assert cli.main(argv + ["--json"]) == 3
        assert json.loads(capsys.readouterr().out)["holds"] is False

    @pytest.mark.parametrize("command", [
        ["order", "--b", "2", "--m", "9"],
        ["bound", "--m", "9", "--n", "3", "--b", "2"],
        ["constants", "--b", "2"],
        ["digits", "--a", "1", "--m", "7", "--base", "10", "--pattern", "1", "--n", "5"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("primes,message", [("4", "4 is not prime"), ("", "prime set must be non-empty"),
                                                ("3,3", "primes must be strictly ascending and distinct")])
    def test_primes_must_be_a_prime_set(self, capsys, command, primes, message):
        # the flag parses to a PrimeSet, so every command rejects alike (an
        # empty list too, which order and digits used to drop)
        assert cli.main(command + [f"--primes={primes}"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        "bound --m 0 --n 5 --primes 3 --b 2",
        "bound --m 0 --n 5 --primes 3 --b 2 --form best",
        "bound --m -4 --n 5 --primes 3 --b 2 --form short",
        "order --m 0 --b 2 --primes 3",
        "order --m 0 --b 2",
        "digits --m 0 --a 1 --base 10 --pattern 1 --n 5 --primes 3",
        "digits --m 0 --a 1 --base 10 --pattern 1 --n 5",
    ])
    def test_a_modulus_below_one_is_named(self, capsys, argv):
        assert cli.main(argv.split()) == 2
        err = capsys.readouterr().err
        assert "modulus must be positive" in err or "m must be at least 2" in err
        assert "n must be positive" not in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_scan_rejects_non_positive_workers(self, tmp_path, capsys, workers):
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(make_config()))
        with pytest.raises(SystemExit) as info:
            cli.main(["scan", "--config", str(config_path), "--workers", workers])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,field",
        [
            (json.dumps(make_config(k_range=["a", 2])), "k_range"),
            (json.dumps(make_config(a_policy={"kind": "fixed", "values": ["x"]})), "a_policy.values"),
            (json.dumps(make_config(N_policy={"kind": "powers", "exponents": [-1, "q"]})),
             "N_policy.exponents"),
            (json.dumps(make_config(output="x")), "output"),
            (json.dumps(make_config(N_policy={"kind": "powers", "exponents": [10**400]})),
             "N_policy.exponents"),
            (json.dumps(make_config(N_policy={"kind": "powers", "exponents": [400.0]})),
             "N_policy.exponents"),
            (json.dumps(make_config(m_range=[3, 3**700])), "m_range"),
            (json.dumps(make_config(k_range=[0, 60])), "k_range"),
            ('{"primes": [3], "b": 2,', ""),
            (json.dumps(make_config(primes=[3, 3317044064679887385961981])), "primes"),
        ],
        ids=["k_range", "a_values", "exponents", "output", "huge_exponent", "overflowing_exponent",
             "huge_m", "deep_levels", "invalid_json", "undecided_prime"],
    )
    def test_scan_malformed_config_exit_code(self, tmp_path, capsys, text, field):
        config_path = tmp_path / "scan.json"
        config_path.write_text(text)
        assert cli.main(["scan", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and "Traceback" not in err

    def test_digits_bad_pattern_exit_code(self, capsys):
        code = cli.main(["digits", "--a", "1", "--m", "7", "--base", "10",
                         "--pattern", "1a", "--n", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "pattern '1a'" in err and "Traceback" not in err

    def test_scan_cli_and_config_error_exit_codes(self, tmp_path, capsys):
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(make_config()))
        out_path = tmp_path / "rows.csv"
        code = cli.main(["scan", "--config", str(config_path), "--out", str(out_path)])
        assert code == 0
        assert out_path.read_bytes().startswith(b"m,a,N,")
        bad = make_config(m_range=[4, 8])
        config_path.write_text(json.dumps(bad))
        assert cli.main(["scan", "--config", str(config_path)]) == 2

    def test_scan_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        config_path = tmp_path / "scan.json"
        config_path.write_text(json.dumps(make_config()))

        def boom(config, workers=None):
            raise BoundViolation({"m": 9, "reason": "synthetic"})

        monkeypatch.setattr(cli, "run_scan", boom)
        assert cli.main(["scan", "--config", str(config_path)]) == 3
        assert "counterexample" in capsys.readouterr().err

    def test_normal_command(self, tmp_path, capsys):
        sched_path = tmp_path / "stoneham.json"
        sched_path.write_text(json.dumps(STONEHAM_DOC))
        code = cli.main(["normal", "--schedule", str(sched_path),
                         "--n-max", "4096", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_decreasing"] is True

    def test_normal_n_max_beyond_memory(self, tmp_path, capsys):
        # 8e14 bytes of points: the allocation fails at once
        sched_path = tmp_path / "stoneham.json"
        sched_path.write_text(json.dumps(STONEHAM_DOC))
        code = cli.main(["normal", "--schedule", str(sched_path), "--n-max", "100000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_max=100000000000000" in err and "Traceback" not in err

    @pytest.mark.parametrize("k_check", ["1001", "100000"])
    def test_normal_k_check_bounded(self, tmp_path, capsys, k_check):
        sched_path = tmp_path / "stoneham.json"
        sched_path.write_text(json.dumps(STONEHAM_DOC))
        with pytest.raises(SystemExit) as info:
            cli.main(["normal", "--schedule", str(sched_path), "--n-max", "64",
                      "--k-check", k_check])
        assert info.value.code == 2
        assert "--k-check" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["order", "--b", "2", "--m", "1000000000000000003"],
        ["scan", "--config", "{config}"],
    ], ids=["order", "scan"])
    def test_huge_prime_probes_end(self, tmp_path, argv):
        # trial division of 10^18 + 3 (and of lambda) used to run for hours
        config = tmp_path / "scan.json"
        config.write_text(json.dumps(make_config(primes=[3, 1000000000000000003], m_range=[3, 30])))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "korosum"] + [a.format(config=config) for a in argv],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout

    def test_python_dash_m_runs_the_cli(self):
        assert "usage: korosum" in _run_python(["-m", "korosum", "--help"])


class TestBlasThreads:
    """korosum loads numpy with one OpenBLAS thread, whatever the caller's
    environment or the host's CPU count."""

    def test_environment_does_not_move_verify_bits(self):
        # the lags' dot products pass 10^4 terms, where OpenBLAS splits a dot
        # product across its threads (and so changes its order of additions)
        argv = ["-m", "korosum", "verify", "--a", "7", "--b", "2", "--m", "1594323",
                "--m-prime", "243", "--n", "20000", "--json"]
        outputs = {threads: _run_python(argv, OPENBLAS_NUM_THREADS=threads)
                   for threads in (None, "1", "2", "4")}
        assert len(set(outputs.values())) == 1, outputs
        assert strict_json(outputs[None])["path"] == "fast"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    @pytest.mark.parametrize("imports", ["korosum.cli", "korosum, numpy"])
    def test_import_starts_no_thread(self, imports):
        status = _run_python(["-c", f"import {imports}; print(open('/proc/self/status').read())"],
                             OPENBLAS_NUM_THREADS=None)
        assert "\nThreads:\t1\n" in status


def test_import_loads_no_command_line_module():
    # argparse, json and csv load where the command line uses them, so a
    # program that imports korosum.cli for run_scan pays for none of them
    loaded = _run_python(["-c", "import sys, korosum.cli; "
                                "print(sorted({'argparse', 'json', 'csv'} & set(sys.modules)))"])
    assert loaded == "[]\n"


class TestFlagRanges:
    @pytest.mark.parametrize("k_max", ["51", "100000", "-1"])
    def test_intervals_k_max_out_of_range(self, capsys, k_max):
        # 100000 used to end in a ValueError traceback (int-to-str digit limit)
        with pytest.raises(SystemExit) as info:
            cli.main(["intervals", "--k-max", k_max])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--k-max" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,value", [
        ("sum --a 1 --b 3 --m {} --n 3".format(2**1030), 2**1030),
        ("verify --a 1 --b 2 --m 9 --m-prime {} --n 5".format(3**700), 3**700),
        ("sum --a 1 --b 2 --m 9 --n {} --reduced".format(10**400), 10**400),
    ], ids=["sum_m", "verify_m_prime", "sum_reduced_n"])
    def test_past_the_float_range(self, capsys, argv, value):
        # angles take 2 pi / m, the fold multiplies by N / T and the right-hand
        # side m' N is a float: each ended in an OverflowError traceback (exit 1)
        assert cli.main(argv.split()) == 2
        err = capsys.readouterr().err
        assert f"must be at most 1.8e308, got {'m_prime = ' if 'verify' in argv else ''}{value}" in err
        assert "Traceback" not in err

    def test_intervals_k_max_at_max_level(self, capsys):
        assert cli.main(["intervals", "--k-max", "50", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["intervals"]) == 51

    @staticmethod
    def _tripwire(name):
        def called(*args):
            raise AssertionError(f"{name}{args} called past the limit")
        return called

    def test_sum_past_term_limit(self, monkeypatch, capsys):
        # direct evaluation defines sum's bits, so it is refused, not folded
        for name in ("eval_sum", "eval_sum_reduced"):
            monkeypatch.setattr(se, name, self._tripwire(name))
        n = cli.MAX_SUM_TERMS + 1
        assert cli.main(["sum", "--a", "1", "--b", "2", "--m", "9", "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert f"--n must be at most {cli.MAX_SUM_TERMS}" in err and "--reduced" in err

    def test_sum_reduced_has_no_term_limit(self, capsys):
        argv = ["sum", "--a", "1", "--b", "2", "--m", "9", "--n", str(10**40), "--reduced", "--json"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["N"] == 10**40

    # N = m at m = 3^25, past the bound 2 x 5 x sum min(N, m): recounted by
    # the folds' windows, 5 units of the 2.8e11-term remainder (S_T vanishes)
    # and the shorter N; and every unit of 3^19, m - 1 rows at one N
    @pytest.mark.parametrize("overrides,field,count,limit", [
        ({"primes": [3, 5], "m_range": [3**25, 3**25], "a_policy": {"kind": "sample", "count": 5},
          "N_policy": {"kind": "powers", "exponents": [0.15, 0.25, 0.4, 0.6, 1.0]}},
         "N_policy", 1412219727300, cli.MAX_SCAN_TERMS),
        ({"m_range": [3**19, 3**19], "a_policy": {"kind": "all"}}, "a_policy", 3**19 - 1, cli.MAX_SCAN_ROWS),
    ], ids=["long_sums", "every_unit"])
    def test_scan_past_work_limit(self, tmp_path, monkeypatch, capsys, overrides, field, count, limit):
        for name in ("eval_scan_sums", "eval_sum", "eval_sum_reduced"):  # refused before any sum
            monkeypatch.setattr(se, name, self._tripwire(name))
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(make_config(**overrides)))
        assert cli.main(["scan", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{field}'" in err and f"up to {count} " in err and f"more than {limit}" in err
        with pytest.raises(ConfigError, match=f"'{field}'"):  # the library refuses it alike
            cli.run_scan(cli.load_scan_config(make_config(**overrides)))

    def test_scan_recounts_the_folds_past_the_cheap_bound(self, monkeypatch):
        # every unit of m = 3^k, k <= 9, at N = m folds to the remainder m/3
        # (S_T vanishes): the folds take 30,520 terms where the bound
        # 2 units min(N, m) counts 179,120
        doc = make_config(m_range=[3, 3**9], a_policy={"kind": "sample", "count": 3},
                          N_policy={"kind": "powers", "exponents": [0.5, 1.0]})
        want = cli.run_scan(cli.load_scan_config(doc))
        monkeypatch.setattr(cli, "MAX_SCAN_TERMS", 30520)
        assert cli.run_scan(cli.load_scan_config(doc)) == want
        monkeypatch.setattr(cli, "MAX_SCAN_TERMS", 30519)
        with pytest.raises(ConfigError, match="up to 30520 terms, more than 30519"):
            cli.run_scan(cli.load_scan_config(doc))

    def test_scan_past_the_modulus_enumeration_cap(self, tmp_path, monkeypatch, capsys):
        # billions of moduli below 10^30 are smooth over the first 12 primes;
        # listing them is refused at the cap, before any bound or sum
        for name in ("eval_scan_sums", "eval_sum", "eval_sum_reduced"):
            monkeypatch.setattr(se, name, self._tripwire(name))
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(make_config(primes=[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37], b=41,
                                               m_range=[2, 10**30], N_policy={"kind": "explicit", "values": [1]})))
        started = time.perf_counter()
        assert cli.main(["scan", "--config", str(path)]) == 2
        assert time.perf_counter() - started < 5
        assert capsys.readouterr().err == (f"error: config field 'm_range': listing the P-smooth integers in "
                                           f"[2, {10**30}] takes more than {nt.MAX_SMOOTH_NUMBERS} steps\n")

    def test_scan_of_a_narrow_range_high_up(self, tmp_path, capsys):
        # one modulus, 10^12 = 2^12 5^12, among 3.4 M smooth integers below it:
        # the enumeration visits the nodes over the odd primes, not the values below lo
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(make_config(primes=[2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37], b=41,
                                               m_range=[10**12, 10**12], N_policy={"kind": "explicit", "values": [1]},
                                               a_policy={"kind": "sample", "count": 1})))
        assert cli.main(["scan", "--config", str(path)]) == 0
        rows = cli.rows_from_csv(capsys.readouterr().out.encode())
        assert [(r.m, r.N) for r in rows] == [(10**12, 1)]

    def test_readme_scan_is_within_the_work_limits(self):
        # its bounds: 6,104 rows and 3.2e8 terms; it takes 6,062 rows
        doc = make_config(primes=[3, 5], m_range=[3, 10**6], a_policy={"kind": "sample", "count": 20},
                          N_policy={"kind": "powers", "exponents": [0.15, 0.25, 0.4, 0.6, 1.0]}, k_range=[0, 4])
        data = cli.render_report(cli.run_scan(cli.load_scan_config(doc)))
        assert data.count(b"\n") == 6063
        assert hashlib.sha256(data).hexdigest() == "7d9adb8613129d827e657efd3b8c7e4e688e6d4be4a15746717a3bf80a1ae705"

    @pytest.mark.parametrize("m,n", [(3**17, cli.MAX_SUM_TERMS + 1),  # T = 86093442: T + (N - T)
                                     (3**18, cli.MAX_SUM_TERMS + 1),  # T = 258280326 > N
                                     (3**40, 10**22)])  # T = 2 3^39 ~ 8.1e18
    def test_sum_reduced_past_folded_limit(self, monkeypatch, capsys, m, n):
        # 3 divides a = 3, so no period S_T(a/m) vanishes
        monkeypatch.setattr(se, "eval_sum_reduced", self._tripwire("eval_sum_reduced"))
        argv = ["sum", "--a", "3", "--b", "2", "--m", str(m), "--n", str(n), "--reduced"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"--n must be at most {cli.MAX_SUM_TERMS}" in err
        assert f"T = ord(b, m) = {nt.mult_order(2, m)}" in err
        if n == cli.MAX_SUM_TERMS + 1:  # the windows' lengths are at the limit
            argv[-2] = str(n - 1)
            with pytest.raises(AssertionError, match="called past the limit"):
                cli.main(argv)

    def test_sum_reduced_counts_the_windows_it_takes(self, monkeypatch, capsys):
        # m = 3^8, T = 4374: S_T(1/m) vanishes, so N = T + r takes r terms, or
        # the T - r after them where r > T/2; S_T(3/m) does not, so T + r
        m, T = 3**8, 4374
        monkeypatch.setattr(cli, "MAX_SUM_TERMS", 1000)
        for a, n, code in [(1, T + 1000, 0), (1, T + 4000, 0), (1, 2 * T, 0), (1, T + 1001, 2), (1, 1001, 2),
                           (3, T + 1000, 2), (3, T + 4000, 2), (3, 1000, 0)]:
            argv = ["sum", "--a", str(a), "--b", "2", "--m", str(m), "--n", str(n), "--reduced", "--json"]
            assert cli.main(argv) == code, (a, n)
            out, err = capsys.readouterr()
            if code == 0:
                value = se.eval_sum_reduced(a, 2, m, n).value
                assert json.loads(out)["value"] == {"re": value.real, "im": value.imag}
            else:
                assert f"--n must be at most 1000 terms, got {n}; --reduced evaluates" in err

    @pytest.mark.parametrize("reduced", [[], ["--reduced"]])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sum_non_positive_n(self, capsys, n, reduced):
        assert cli.main(["sum", "--a", "1", "--b", "2", "--m", "9", "--n", n] + reduced) == 2
        assert "N must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--m", "9", "--b", "2", "--n", "0"], "N must be positive"),
        (["verify", "--m", "9", "--b", "2", "--n", "-3"], "N must be positive"),
        (["verify", "--m", "9", "--b", "1", "--n", "20"], "b must be at least 2"),
        (["verify", "--m", "-9", "--b", "2", "--n", "20"], "modulus must be positive"),
        (["sum", "--m", "19683", "--b", "-2", "--n", "100000", "--reduced"], "b must be at least 2"),
    ], ids=["verify_n0", "verify_n-3", "verify_b1", "verify_m-9", "sum_reduced_b-2"])
    def test_sum_and_verify_reject_what_eval_sum_rejects(self, capsys, argv, message):
        # one argument check serves eval_sum, eval_sum_reduced and verify_differencing
        extra = ["--a", "1"] + (["--m-prime", "3"] if argv[0] == "verify" else [])
        assert cli.main(argv + extra) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,call,message", [
        ("sum --a 1 --b 0 --m 9 --n 20 --reduced", lambda: se.eval_sum_reduced(1, 0, 9, 20),
         "b must be at least 2"),
        ("sum --a 1 --b 3 --m 9 --n 0 --reduced", lambda: se.eval_sum_reduced(1, 3, 9, 0),
         "N must be positive"),
        ("verify --a 1 --b 2 --m 9 --m-prime 0 --n 20", lambda: se.verify_differencing(1, 2, 9, 0, 20),
         "m_prime must be positive"),
        ("verify --a 1 --b 2 --m 9 --m-prime -3 --n 20", lambda: se.verify_differencing(1, 2, 9, -3, 20),
         "m_prime must be positive"),
        ("verify --a 1 --b 6 --m 9 --m-prime 4 --n 20", lambda: se.verify_differencing(1, 6, 9, 4, 20),
         "gcd(6, 9) != 1"),
    ], ids=["sum_reduced_b0", "sum_reduced_n0", "verify_m_prime0", "verify_m_prime-3", "verify_gcd_m_first"])
    def test_sum_and_verify_name_the_library_fault(self, capsys, argv, call, message):
        # the argument check runs before the work limits' mult_order
        with pytest.raises(KorosumError) as info:
            call()
        assert str(info.value) == message
        assert cli.main(argv.split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("primes", [[], ["--primes", "7"]])
    def test_digits_past_limit(self, monkeypatch, capsys, primes):
        monkeypatch.setattr(dg, "count_occurrences", self._tripwire("count_occurrences"))
        argv = ["digits", "--a", "1", "--m", "7", "--base", "10", "--pattern", "14",
                "--n", str(cli.MAX_DIGITS + 1)] + primes
        assert cli.main(argv) == 2
        assert f"--n must be at most {cli.MAX_DIGITS} digits" in capsys.readouterr().err
        argv[argv.index("--n") + 1] = str(cli.MAX_DIGITS)  # at the cap: the count is reached
        with pytest.raises(AssertionError, match="called past the limit"):
            cli.main(argv)

    def test_normal_n_max_past_limit(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(nn, "discrepancy_trace", self._tripwire("discrepancy_trace"))
        sched_path = tmp_path / "stoneham.json"
        sched_path.write_text(json.dumps(STONEHAM_DOC))
        argv = ["normal", "--schedule", str(sched_path), "--n-max", str(cli.MAX_N_MAX + 1)]
        assert cli.main(argv) == 2
        assert f"n_max={cli.MAX_N_MAX + 1} is too large" in capsys.readouterr().err
        argv[-1] = str(cli.MAX_N_MAX)  # at the cap: the trace is reached
        with pytest.raises(AssertionError, match="called past the limit"):
            cli.main(argv)

    @pytest.mark.parametrize("m_prime,n", [(str(3**10), cli.MAX_VERIFY_N + 1),  # tau = 39366
                                           # tau = ord(2, 3) = 2: N^2 / 2 just past the limit
                                           ("3", math.isqrt(2 * cli.MAX_VERIFY_WORK) + 1),
                                           # tau = ord(2, 3^5) = 162
                                           ("243", math.isqrt(162 * cli.MAX_VERIFY_WORK) + 1)])
    def test_verify_past_limits(self, monkeypatch, capsys, m_prime, n):
        monkeypatch.setattr(se, "verify_differencing", self._tripwire("verify_differencing"))
        argv = ["verify", "--a", "1", "--b", "2", "--m", str(3**12), "--m-prime", m_prime, "--n", str(n)]
        assert cli.main(argv) == 2
        assert "--n must be at most" in capsys.readouterr().err
        argv[-1] = str(n - 1)  # inside the limits: verify_differencing is reached
        with pytest.raises(AssertionError, match="called past the limit"):
            cli.main(argv)

    def test_verify_limits_admit_criterion_05(self):
        # criterion 05 draws N <= 5000, and tau >= 1
        assert 5000 <= cli.MAX_VERIFY_N and 5000**2 <= cli.MAX_VERIFY_WORK

    def test_bound_long_past_float_range_modulus(self, capsys):
        # sqrt m past the float range reads inf (it raised OverflowError)
        argv = ["bound", "--m", str(3**700), "--n", "10", "--primes", "3", "--b", "2",
                "--form", "long", "--json"]
        assert cli.main(argv) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["term_main"] == payload["term_secondary"] == payload["bound_value"] == "inf"

    def test_digits_letter_pattern(self, capsys):
        argv = ["digits", "--a", "1", "--m", str(3**9), "--base", "16", "--pattern", "1f",
                "--n", "20000", "--json"]
        assert cli.main(argv) == 0
        want = dg.count_occurrences(1, 3**9, dg.DigitPattern(16, (1, 15)), 20000)
        assert want.count > 0
        assert json.loads(capsys.readouterr().out)["count"] == want.count


def _parser_schema(parser):
    """[(subcommand, [(flag, (dest, required, default[, choices]))])] in help order."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, [(a.option_strings[0],
                 (a.dest, a.required, a.default) + ((a.choices,) if a.choices else ()))
                for a in p._actions if a.dest != "help"])
        for name, p in sub.choices.items()
    ]


class TestPinnedCommandLine:
    """The command line as it stood before one table of flags built the parser."""

    SCHEMA = {
        "order": {"--b": ("b", True, None), "--m": ("m", True, None),
                  "--primes": ("primes", False, None), "--json": ("json", False, False)},
        "sum": {"--a": ("a", True, None), "--b": ("b", True, None), "--m": ("m", True, None),
                "--n": ("n", True, None), "--reduced": ("reduced", False, False),
                "--json": ("json", False, False)},
        "bound": {"--m": ("m", True, None), "--n": ("n", True, None), "--k": ("k", False, 0),
                  "--primes": ("primes", True, None), "--b": ("b", True, None),
                  "--form": ("form", False, "recursive",
                             ("recursive", "main", "short", "long", "best")),
                  "--d": ("d", False, 1), "--k-max": ("k_max", False, 8),
                  "--json": ("json", False, False)},
        "intervals": {"--k-max": ("k_max", False, 8), "--json": ("json", False, False)},
        "constants": {"--primes": ("primes", True, None), "--b": ("b", True, None),
                      "--k-max": ("k_max", False, 6), "--json": ("json", False, False)},
        "scan": {"--config": ("config", True, None), "--out": ("out", False, None),
                 "--format": ("format", False, None, ("csv", "json")),
                 "--workers": ("workers", False, None)},
        "digits": {"--a": ("a", True, None), "--m": ("m", True, None),
                   "--base": ("base", True, None), "--pattern": ("pattern", True, None),
                   "--n": ("n", True, None), "--primes": ("primes", False, None),
                   "--json": ("json", False, False)},
        "normal": {"--schedule": ("schedule", True, None), "--n-max": ("n_max", True, None),
                   "--k-check": ("k_check", False, 12), "--json": ("json", False, False)},
        "verify": {"--a": ("a", True, None), "--b": ("b", True, None), "--m": ("m", True, None),
                   "--m-prime": ("m_prime", True, None), "--n": ("n", True, None),
                   "--json": ("json", False, False)},
    }

    def test_parser_schema(self, capsys):
        parser = cli.build_parser()
        assert _parser_schema(parser) == [(name, list(flags.items()))
                                          for name, flags in self.SCHEMA.items()]
        # and --k-max lies in [0, MAX_LEVEL] wherever it is taken
        for argv in (["bound", "--m", "9", "--n", "3", "--primes", "3", "--b", "2"],
                     ["intervals"], ["constants", "--primes", "3", "--b", "2"]):
            assert parser.parse_args(argv + ["--k-max", str(bd.MAX_LEVEL)]).k_max == bd.MAX_LEVEL
            for bad in (-1, bd.MAX_LEVEL + 1):
                with pytest.raises(SystemExit):
                    parser.parse_args(argv + ["--k-max", str(bad)])
                assert "argument --k-max" in capsys.readouterr().err

    # The README's scan config, over m <= 5000 and at 2 workers.
    README_SCAN = {
        "primes": [3, 5], "b": 2, "m_range": [3, 5000],
        "a_policy": {"kind": "sample", "count": 20},
        "N_policy": {"kind": "powers", "exponents": [0.15, 0.25, 0.4, 0.6, 1.0]},
        "k_range": [0, 4], "seed": 42, "workers": 2,
        "output": {"path": "rows.csv", "format": "csv"},
    }

    # stdout of each README example (for scan: the bytes of rows.csv), as
    # text or as its sha256
    README_OUTPUTS = {
        "order --b 2 --m 9 --primes 3": "ord(2, 9) = 6\n  tau1=2 mu=0 tau'=2 m1=3 beta={3: 1}\n",
        "order --b 2 --m 9 --primes 3 --json":
            "167272bc2090aa6e5fa6c54f2041e081f225462b2ec4862e19a2bd5a633116dd",
        "sum --a 1 --b 2 --m 9 --n 6":
            "S_6(1/9, b=2) = -5.55111512313e-16-2.22044604925e-16j\n"
            "|S| = 5.97873396028e-16   |S|/N = 9.96456e-17\n",
        "sum --a 1 --b 2 --m 9 --n 6 --json":
            "953a3c0b215421ea0716de9dfcb63ebcc35ac43ad168dc849d57f479c83e2b1c",
        "bound --m 729 --n 27 --primes 3 --b 2 --form best --k-max 8":
            "best level k*=0 (interval prediction k_hat=2)\nbound = 227.75  nontrivial=False\n",
        "bound --m 729 --n 27 --primes 3 --b 2 --form best --k-max 8 --json":
            "0be35384dd3b724b4c87181356fe0e03a21e622dc5ffe713ba0974af5470186b",
        "intervals --k-max 8": "a66d795080242d3d34e97201cc7306b1e90ad3958cb3cb137caee2eafb5d323e",
        "intervals --k-max 8 --json":
            "e33ec6821cca7dbef9c638643fb702608490d76a75018765dbeab0b6228b5ce8",
        "constants --primes 3,5 --b 2":
            "ee9798bf15b6b205a05b9776c34664eb135ff26f9827d63b4d4222ec1d09a119",
        "constants --primes 3,5 --b 2 --json":
            "b8379f95746bb45060bdd67784e0057e35f1a81a92a97b8448c9d97dea69322a",
        "digits --a 1 --m 7 --base 10 --pattern 14 --n 1000":
            "pattern 14 occurs 167 times in the first 1000 digits\nexpected 10, deviation +157\n",
        "digits --a 1 --m 7 --base 10 --pattern 14 --n 1000 --json":
            "af24401276695786958819b3aab4f6a02589577705cb53407393bf0aa1a06739",
        "normal --schedule stoneham.json --n-max 131072":
            "e88a9096c39b1f4e850b7c125efd2b78c6eef227e6226d3ded3f33932c4c74bf",
        "normal --schedule stoneham.json --n-max 131072 --json":
            "e95221732acd2ce7c6fd5b82d85203e268de301ca9eac86d1001c11d46bcdc49",
        "verify --a 1 --b 2 --m 531441 --m-prime 3 --n 5000":
            "lhs^2 = 9621.97  rhs = 643345  (m'=3, tau=2)\n"
            "holds: True  (decided by the fast path, certified margin rhs/lhs^2 = 66.8621)\n",
        "verify --a 1 --b 2 --m 531441 --m-prime 3 --n 5000 --json":
            "846f60426b46a9493b2224e45f65f395d80200972a2dc1a8610f42bad065b294",
        "scan --config scan.json --out rows.csv":
            "02c44aae475724f0e1743d538a68f737e66ede75fbdc354295fb4b24182f6850",
    }

    # sha256 of the --json payloads of every other record a command prints
    JSON_OUTPUTS = {
        "bound --m 729 --n 27 --k 1 --primes 3 --b 2 --form recursive --json":
            "29a38d5cd9892e7a8ddef259792ea63d10231194bf3661eaddde5e1c38165f3a",
        "bound --m 729 --n 27 --k 1 --primes 3 --b 2 --form main --json":
            "91b0028580de728145a52b8fa0894f16563a2d42a0ec935e4a8388ace74a6eac",
        "bound --m 729 --n 27 --primes 3 --b 2 --form short --d 3 --json":
            "7453fb7710e5a487255ee83c821b4482b1b20e1404fadd9c985315038ad0859d",
        "bound --m 729 --n 27 --primes 3 --b 2 --form long --json":
            "d1eb9f929546e03a41821870c09aafd85fcb01f9bedc06fc84a55bae24107955",
        "digits --a 1 --m 7 --base 10 --pattern 14 --n 1000 --primes 7 --json":
            "919092ae398991822393e98223f717afa66251fd253c980a3b1e589fdadc374a",
        "order --b 2 --m 9 --json":
            "8be1362731cc466b69b9e2381dc27eac4aa8c2b5ff3251c4766d70a891ee1c8a",
        "sum --a 1 --b 2 --m 9 --n 20 --reduced --json":
            "a050738789b565aefe08fcef6c711a9e7b8d3ecfefb82c38d6b36c665fd05346",
    }

    @pytest.mark.parametrize("argv", JSON_OUTPUTS)
    def test_json_payload(self, capsys, argv):
        assert cli.main(argv.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.JSON_OUTPUTS[argv]

    @pytest.mark.parametrize("argv", README_OUTPUTS)
    def test_readme_example(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stoneham.json").write_text(json.dumps({**STONEHAM_DOC, "epsilon": 0.1}))
        (tmp_path / "scan.json").write_text(json.dumps(self.README_SCAN))
        assert cli.main(argv.split()) == 0
        out = capsys.readouterr().out
        if "--out" in argv:
            assert out == ""
            out = (tmp_path / "rows.csv").read_text(encoding="utf-8")
        want = self.README_OUTPUTS[argv]
        if "\n" in want:
            assert out == want
        else:
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


# Documents for the boundary fuzz: a well-formed document with small values
# (so each accepted run stays cheap), in which up to two entries, picked by
# dotted path, are replaced by a value of another type, a non-finite float
# or an out-of-range number, or removed.
_DROP = object()
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
    st.lists(st.one_of(st.integers(-2, 5), st.text(max_size=1), st.floats()), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-2, 5), max_size=2),
)


def _apply(doc, changes):
    for path, value in changes:
        *parents, name = path.split(".")
        entry = doc
        for key in parents:
            entry = entry.setdefault(key, {}) if isinstance(entry, dict) else None
        if not isinstance(entry, dict):
            continue
        if value is _DROP:
            entry.pop(name, None)
        else:
            entry[name] = value
    return doc


def _perturbed(valid, paths):
    change = st.tuples(st.sampled_from(paths), st.one_of(_JUNK, st.just(_DROP)))
    return st.builds(_apply, valid, st.lists(change, max_size=2))


def _generator(name):
    """One schedule generator over the prime 3 (c) or unconstrained (m)."""
    chain = st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True)
    values = (chain.map(lambda es: [3**e for e in sorted(es)]) if name == "c"
              else st.lists(st.integers(1, 300), min_size=1, max_size=4, unique=True).map(sorted))
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("geometric"), "base": st.sampled_from([3, 9] if name == "c" else [2, 3])}),
        st.fixed_dictionaries({"kind": st.just("explicit"), "values": values}),
    )


_SCHEDULE_DOCS = _perturbed(
    st.fixed_dictionaries(
        {"b": st.sampled_from([2, 4, 7]), "primes": st.sampled_from([[3], [3, 5]]),
         "c": _generator("c"), "m": _generator("m")},
        optional={"epsilon": st.floats(0.01, 1.0)},
    ),
    ["b", "primes", "epsilon", "c", "c.kind", "c.base", "c.values",
     "m", "m.kind", "m.base", "m.values"],
)
_SCAN_DOCS = _perturbed(
    st.fixed_dictionaries(
        {
            "primes": st.sampled_from([[3], [3, 5], [2, 3], [2]]),
            "b": st.sampled_from([11, 7, 2]),
            "m_range": st.tuples(st.integers(2, 30), st.integers(10, 60)).map(
                lambda t: [t[0], t[0] + t[1]]),
            "a_policy": st.one_of(
                st.fixed_dictionaries({"kind": st.just("fixed"),
                                       "values": st.lists(st.integers(-5, 60), min_size=1, max_size=3)}),
                st.fixed_dictionaries({"kind": st.just("sample"), "count": st.integers(1, 4)}),
                st.fixed_dictionaries({"kind": st.just("all")}),
            ),
            "N_policy": st.one_of(
                st.fixed_dictionaries({"kind": st.just("explicit"),
                                       "values": st.lists(st.integers(1, 64), min_size=1, max_size=3)}),
                st.fixed_dictionaries({"kind": st.just("powers"),
                                       "exponents": st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3)}),
            ),
            "k_range": st.lists(st.integers(0, 3), min_size=2, max_size=2).map(sorted),
            "seed": st.integers(0, 9),
        },
        optional={
            "output": st.fixed_dictionaries({}, optional={"format": st.sampled_from(["csv", "json"])}),
            "workers": st.integers(1, 3),
        },
    ),
    # a string output.path is harmless: --out always takes precedence
    ["primes", "b", "m_range", "a_policy", "a_policy.kind", "a_policy.values", "a_policy.count",
     "N_policy", "N_policy.kind", "N_policy.values", "N_policy.exponents", "k_range", "seed",
     "output", "output.format", "output.path", "workers"],
)


#: Integer arguments in [-10^40, 10^40], small ones drawn often enough that
#: sums and verifications run as well as get rejected.
_INT_ARG = st.one_of(st.integers(-3, 100), st.integers(-(10**40), 10**40))
#: What a flag may be given in place of its value: integers up to 10^40,
#: lists of primes (2^89 - 1 past the primality test's range) and other
#: integers up to 10^30, and short text
_JUNK_ARG = st.one_of(
    _INT_ARG,
    st.lists(st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13, 10**9 + 7, 2**61 - 1, 2**89 - 1]),
                       st.integers(-3, 10**30)), max_size=4).map(lambda ps: ",".join(map(str, ps))),
    st.text("0123456789az-,", max_size=4))


def _flags(**valid):
    """argv flags --name=value, each value drawn from its list (None leaves
    the flag out), with up to two of them replaced by a _JUNK_ARG."""
    def argv(chosen, junk):
        chosen.update(junk)
        return [f"--{name.replace('_', '-')}={value}" for name, value in chosen.items() if value is not None]

    flags = st.fixed_dictionaries({name: st.sampled_from(values) for name, values in valid.items()})
    return st.builds(argv, flags, st.dictionaries(st.sampled_from(sorted(valid)), _JUNK_ARG, max_size=2))


_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


class TestInputBoundaryFuzz:
    """Every document ends in exit 0, 2 or 3, never in an uncaught exception."""

    @staticmethod
    def _run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected a flag's value
                code = exc.code
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=_SCHEDULE_DOCS, n_max=st.integers(1, 256), k_check=st.integers(2, 12))
    def test_schedule_documents(self, tmp_path_factory, doc, n_max, k_check):
        path = tmp_path_factory.getbasetemp() / "fuzz_schedule.json"
        path.write_text(json.dumps(doc))
        self._run(["normal", "--schedule", str(path), f"--n-max={n_max}",
                   f"--k-check={k_check}", "--json"])

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(a=_INT_ARG, b=_INT_ARG, m=_INT_ARG, n=st.integers(-3, 300), reduced=st.booleans())
    def test_sum_arguments(self, a, b, m, n, reduced):
        self._run(["sum", f"--a={a}", f"--b={b}", f"--m={m}", f"--n={n}", "--json"]
                  + ["--reduced"] * reduced)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(a=_INT_ARG, b=_INT_ARG, m=_INT_ARG, m_prime=_INT_ARG, n=st.integers(-3, 300))
    def test_verify_arguments(self, a, b, m, m_prime, n):
        self._run(["verify", f"--a={a}", f"--b={b}", f"--m={m}", f"--m-prime={m_prime}",
                   f"--n={n}", "--json"])

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(doc=_SCAN_DOCS)
    def test_scan_configs(self, tmp_path_factory, doc):
        base = tmp_path_factory.getbasetemp()
        path = base / "fuzz_scan.json"
        path.write_text(json.dumps(doc))
        self._run(["scan", "--config", str(path), "--workers", "1",
                   "--out", str(base / "fuzz_rows.out")])

    @_FUZZ
    @given(flags=_flags(b=[2, 7], m=[9, 45, 3**20, 2**10 * 3**5], primes=[None, "3", "2,3"]))
    def test_order_arguments(self, flags):
        self._run(["order", *flags, "--json"])

    @_FUZZ
    @given(flags=_flags(m=[9, 45, 3**20, 3**7 * 5**3], n=[10, 1000, 10**6], k=[0, 1, 2], primes=["3", "3,5"],
                        b=[2, 7], form=["recursive", "main", "short", "long", "best"], d=[1, 3, 9], k_max=[4, 8]))
    def test_bound_arguments(self, flags):
        self._run(["bound", *flags, "--json"])

    @_FUZZ
    @given(flags=_flags(primes=["3", "3,5", "5,7"], b=[2, 7], k_max=[3, 6]))
    def test_constants_arguments(self, flags):
        self._run(["constants", *flags, "--json"])

    @_FUZZ
    @given(flags=_flags(a=[1, 7], m=[9, 49, 3**20], base=[2, 10], pattern=["1", "01", "7"], n=[1, 100, 300],
                        primes=[None, "3", "7"]))
    def test_digits_arguments(self, flags):
        self._run(["digits", *flags, "--json"])

    @_FUZZ
    @given(flags=_flags(k_max=[0, 8, 50]))
    def test_intervals_arguments(self, flags):
        self._run(["intervals", *flags, "--json"])
