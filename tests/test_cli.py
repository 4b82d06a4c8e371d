"""CLI surface, scan harness, and report serialization tests."""

import json
import math
import sys

import pytest

from korosum import cli
from korosum import numtheory as nt
from korosum import sumeval as se
from korosum.errors import BoundViolation, ConfigError


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
        # smoothness and the order structure of m are worked out once per
        # modulus, not once per row or per bound
        counts = {"factor_smooth": 0, "mult_order_structured": 0, "order_structure": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("factor_smooth", "mult_order_structured"):
            orig = getattr(nt, name)
            for mod in [m for key, m in sys.modules.items() if key.startswith("korosum")]:
                if getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, counted(name, orig))
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
        assert moduli == len(nt.smooth_numbers(nt.PrimeSet.of(3, 5), 3000, lo=3))
        assert len(rows) > 5 * moduli
        assert 0 < counts["factor_smooth"] <= moduli
        assert 0 < counts["order_structure"] <= moduli
        assert counts["mult_order_structured"] <= moduli

    def test_violation_aborts(self, monkeypatch):
        def fake_cell(payload):
            return [], {"m": payload[0], "reason": "synthetic"}

        monkeypatch.setattr(cli, "_scan_cell", fake_cell)
        with pytest.raises(BoundViolation):
            cli.run_scan(cli.load_scan_config(make_config()))


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

    def test_float_rendering_is_lossless(self):
        x = math.pi * 1e-7
        assert float(cli._fmt_float(x)) == x


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

    def test_bound_best(self, capsys):
        code = cli.main(
            ["bound", "--m", "729", "--n", "27", "--primes", "3", "--b", "2",
             "--form", "best", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bound_value"] > 0

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
            ('{"primes": [3], "b": 2,', ""),
        ],
        ids=["k_range", "a_values", "exponents", "output", "invalid_json"],
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
        sched_path.write_text(json.dumps({
            "b": 2,
            "primes": [3],
            "c": {"kind": "geometric", "base": 3},
            "m": {"kind": "geometric", "base": 2},
        }))
        code = cli.main(["normal", "--schedule", str(sched_path),
                         "--n-max", "4096", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_decreasing"] is True
