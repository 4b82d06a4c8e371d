"""The benchmark's own tests: python3 -m pytest -q perfbench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Every per-layer count, which must repeat exactly on a seed.
COUNTS = [name for name, unit in spans.LAYER_METRICS if unit in ("count", "bytes")]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("part", ["scan_deep", "scan_wide"])
def test_scan_slices_cover_the_range_in_order(part):
    config = workloads.make_inputs("sums" if part == "scan_deep" else "bounds_apps", 4)[part]["config"]
    slices = workloads.scan_slices(config, workloads.SCAN_SLICES[part])
    assert len(slices) == workloads.SCAN_SLICES[part]
    assert slices[0][0] == config["m_range"][0] and slices[-1][1] == config["m_range"][1]
    assert all(a[1] + 1 == b[0] for a, b in zip(slices, slices[1:]))
    assert sum(workloads.expected_scan_rows(dict(config, m_range=s)) for s in slices) == (
        workloads.expected_scan_rows(config)
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(workload):
    first = workloads.make_inputs(workload, 7)
    assert workloads.make_inputs(workload, 7) == first
    assert workloads.make_inputs(workload, 8) != first


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_and_outputs_check(workload):
    inputs = workloads.make_inputs(workload, 3)
    first = run.spawn(workload, "trace", inputs, timeout=170, send_outputs=True)
    second = run.spawn(workload, "run", inputs, timeout=170)
    third = run.spawn(workload, "trace", inputs, timeout=170)
    assert {n: first["layers"][n] for n in COUNTS} == {n: third["layers"][n] for n in COUNTS}
    assert first["digest"] == second["digest"] == third["digest"]
    assert checks.check(workload, inputs, first["outputs"], 3) == (0, [])
    assert first["layers"]["trace.design_share"] > 0.5
    for part, layer_s in first["parts"].items():
        design = sum(layer_s[layer] for layer in workloads.PART_LAYERS[part])
        assert design > 0.5 * sum(layer_s.values()), part


def test_tracer_restores_every_binding():
    from korosum import bounds, normalnum, numtheory, sumeval

    before = (numtheory.factor_smooth, bounds.factor_smooth, sumeval.mult_order, normalnum.eval_sum)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert bounds.factor_smooth is not before[1] and sumeval.mult_order is not before[2]
        sumeval.eval_sum_reduced(1, 2, 9, 20)
    finally:
        tracer.restore()
    assert (numtheory.factor_smooth, bounds.factor_smooth, sumeval.mult_order, normalnum.eval_sum) == before
    assert tracer.stats["sumeval.eval_sum_reduced"].calls == 1
    assert tracer.stats["numtheory.mult_order"].calls == 1
    assert tracer.metrics(["sumeval"])["sumeval.fold_ratio"] == 20 / 8


def test_checks_count_wrong_outputs():
    boundaries = []
    inputs = workloads.make_inputs("sums", 5)
    raw = workloads.run_unit("sums", inputs, between=lambda: boundaries.append(1))
    # after each of 4 scan slices, before verify, between 8 groups of 5 instances
    assert len(boundaries) == 4 + 1 + 7
    outputs = json.loads(json.dumps(workloads.encode_outputs("sums", raw)))
    assert checks.check("sums", inputs, outputs, 5) == (0, [])
    outputs["verify"]["results"][0][3] = False
    outputs["verify"]["results"][1][2] += 1
    outputs["scan_deep"]["rows"][7][4] *= 1.001
    assert checks.check("sums", inputs, outputs, 5)[0] == 3

    boundaries.clear()
    inputs = workloads.make_inputs("bounds_apps", 5)
    raw = workloads.run_unit("bounds_apps", inputs, between=lambda: boundaries.append(1))
    # after each of 8 scan slices, before expansion, between its 6 calls
    assert len(boundaries) == 8 + 1 + 5
    outputs = json.loads(json.dumps(workloads.encode_outputs("bounds_apps", raw)))
    outputs["expansion"]["occurrences"][0] += 1
    outputs["expansion"]["traces"][0][10][1] += 1e-9
    outputs["scan_wide"]["rows"].pop()
    assert checks.check("bounds_apps", inputs, outputs, 5)[0] == 3


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sums", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
