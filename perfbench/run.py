"""korosum benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sums --seed 1 --seconds 55 --trace 0

The program is imported from the src/ directory next to this one; nothing
needs building.  Inputs are drawn from --seed before any timing.  Each timed
repeat runs one unit of work in a fresh interpreter (worker.py), so it starts
with the cold caches one `korosum` invocation starts with; repeats continue
until --seconds are used up.  The first repeat's outputs are checked against
independent references (checks.py); later repeats must reproduce them.

--trace 0 reports the end-to-end metrics:
  wall_s       time for one unit of work, caches cold (median repeat)
  setup_s      time for a fresh interpreter to import the modules the
               workload uses (median over the repeats' interpreters, at
               least SETUP_SAMPLES of them)
  peak_rss_mb  peak resident set (VmHWM) of the process that ran the unit
               (median)
--trace 1 alternates untraced and traced repeats and reports the per-layer
metrics of spans.LAYER_METRICS.

Every time is reported at the reference speed: the worker times a fixed
calibration loop before and after each timed stretch and scales the stretch
by worker.REFERENCE_CAL_S over the loop's time around it.  The host this was
built on (a 2-vCPU Intel Xeon guest of a shared machine, Python 3.11) runs
the same code up to half again slower for seconds to minutes at a time, as
other tenants load it; the scaling divides most of that out, so a run's
figures depend far less on when it ran.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; fail_frac is failed / attempted.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402  (this directory is sys.path[0])
import spans  # noqa: E402
import workloads  # noqa: E402

#: Fewest repeats per mode, even when they overrun --seconds.
MIN_REPEATS = {"run": 3, "trace": 2}
#: Fewest fresh interpreters whose import time gives setup_s.
SETUP_SAMPLES = 7
#: Nothing is started after this many seconds, so a run ends well within 180 s.
DEADLINE_S = 150.0


def layers_at_reference_speed(res: Dict) -> Dict:
    """A traced repeat's layer metrics, span times and rates scaled like its wall time."""
    scale = res["wall_ref_s"] / res["wall_s"]
    layers = dict(res["layers"])
    for name, unit in spans.LAYER_METRICS:
        if name in layers and unit == "s":
            layers[name] *= scale
        elif name in layers and unit == "1/s":
            layers[name] /= scale
    return layers


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class WorkerError(Exception):
    pass


def spawn(workload: str, mode: str, inputs: Optional[Dict], timeout: float, send_outputs: bool = False) -> Dict:
    """Run worker.py once; subprocess.run kills and reaps it on timeout."""
    payload = json.dumps({"inputs": inputs, "send_outputs": send_outputs})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, mode, *workloads.MODULES]
    try:
        proc = subprocess.run(
            cmd, input=payload, capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} repeat exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        raise WorkerError(f"{mode} repeat exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "korosum", "__init__.py")):
        print(f"perfbench: no program sources at {os.path.join(ROOT, 'src', 'korosum')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    began = time.perf_counter()

    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.operations(args.workload, inputs)

    modes = ("run", "trace") if args.trace else ("run",)
    samples: Dict[str, List[Dict]] = {mode: [] for mode in modes}
    last_cost = {mode: 0.0 for mode in modes}
    attempted = failed = crashes = 0
    notes: List[str] = []
    first_digest = None
    first_bad = 0

    loop_start = time.perf_counter()
    for turn in itertools.count():
        mode = modes[turn % len(modes)]
        now = time.perf_counter()
        if now - began > DEADLINE_S or crashes >= 3:
            break
        if all(len(samples[m]) >= MIN_REPEATS[m] for m in modes) and (
            now - loop_start + last_cost[mode] > args.seconds
        ):
            break
        attempted += ops
        try:
            res = spawn(
                args.workload, mode, inputs, timeout=max(10.0, DEADLINE_S + 20 - (now - began)),
                send_outputs=first_digest is None,
            )
        except WorkerError as exc:
            crashes += 1
            failed += ops
            notes.append(str(exc))
            continue
        last_cost[mode] = time.perf_counter() - now
        if first_digest is None:
            first_digest = res["digest"]
            first_bad, check_notes = checks.check(args.workload, inputs, res.pop("outputs"), args.seed)
            notes += check_notes
        if res["digest"] == first_digest:
            failed += first_bad
        else:
            failed += ops
            notes.append(f"{mode} repeat {len(samples[mode])}: outputs differ from the first repeat")
        samples[mode].append(res)

    if not samples["run"] or (args.trace and not samples["trace"]):
        for note in notes:
            print(f"perfbench: {note}", file=sys.stderr)
        print("perfbench: no repeat completed; nothing to report", file=sys.stderr)
        return 1

    runs = samples["run"]
    walls = sorted(r["wall_ref_s"] for r in runs)
    wall = statistics.median(walls)
    print(f"perfbench {args.workload} seed={args.seed}: {len(runs)} timed repeats of {ops} operations")
    print("  wall_s samples as measured: " + " ".join(f"{r['wall_s']:.4f}" for r in runs))
    print("  wall_s samples at the reference speed: " + " ".join(f"{w:.4f}" for w in walls))
    consistent = True
    if not args.trace:
        # every timed repeat's import is one set-up sample; top up short runs
        setups = [r["setup_ref_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES and time.perf_counter() - began < DEADLINE_S:
            try:
                setups.append(spawn(args.workload, "setup", None, timeout=30.0)["setup_ref_s"])
            except WorkerError as exc:
                notes.append(str(exc))
                break
        print("  setup_s samples at the reference speed: " + " ".join(f"{v:.4f}" for v in sorted(setups)))
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
        }
    else:
        traced = samples["trace"]
        layers = [layers_at_reference_speed(r) for r in traced]
        exact = {name for name, unit in spans.LAYER_METRICS if unit in ("count", "bytes")}
        for name in sorted(exact):
            if any(lay.get(name) != layers[0].get(name) for lay in layers):
                consistent = False
                notes.append(f"count {name} differs between traced repeats")
        metrics = {
            name: (layers[0][name] if name in exact else statistics.median(lay[name] for lay in layers), unit)
            for name, unit in spans.LAYER_METRICS
            if name in layers[0]
        }
        trace_wall = statistics.median(r["wall_ref_s"] for r in traced)
        metrics["process.cpu_s"] = (statistics.median(r["cpu_ref_s"] for r in runs), "s")
        metrics["trace.wall_s"] = (trace_wall, "s")
        metrics["trace.overhead_frac"] = (trace_wall / wall - 1.0, "ratio")
        print(f"  {len(traced)} traced repeats; traced wall_s {trace_wall:.4f} s")
        total = sum(metrics[f"layers.{layer}.self_s"][0] for layer in spans.TRACED)
        for layer in spans.TRACED:
            value = metrics[f"layers.{layer}.self_s"][0]
            print(f"  layer {layer:<10} self {value:9.4f} s  {value / total if total else 0.0:6.1%}")
        splits = [(args.workload, workloads.design_layers(args.workload), metrics["trace.design_share"][0])]
        for part, layer_s in traced[0]["parts"].items():
            design = workloads.PART_LAYERS[part]
            splits.append((part, design, sum(layer_s[lay] for lay in design) / (sum(layer_s.values()) or 1.0)))
        for name, design, share in splits:
            verdict = "met" if share > 0.5 else "MISSED"
            print(f"  design split of {name}: {' + '.join(design)} hold {share:.1%} of layer self time"
                  f" (needs > 50%): {verdict}")

    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<40} {shown} {unit}")
    print(f"  {'fail_frac':<40} {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
