"""One repeat of one workload, in a fresh interpreter.

    python3 perfbench/worker.py ROOT WORKLOAD {setup,run,trace} MODULE...

First times the import of the listed korosum modules (the set-up a fresh
`korosum` invocation pays); every cache in the program starts cold, as it
does for such an invocation.  In "setup" mode it stops there.  Otherwise it
reads {"inputs": ..., "send_outputs": bool} as JSON from stdin, times one
unit of work (with layer spans in "trace" mode), and prints one JSON object:
setup_s, wall_s, cpu_s and their values at the reference speed (the same
keys with `_ref`: setup_ref_s, ...), rss_mb (peak resident set), the digest
of the outputs, the outputs themselves if asked for, and in "trace" mode the
layer metrics and each part's layer self times.

The reference speed: a shared host runs the same code up to half again
slower for seconds at a time, as other tenants load it.  So the worker runs a
fixed calibration loop before the import, after it, and at every slice
boundary of the unit (workloads.run_unit calls `between` there), and scales
each timed stretch by REFERENCE_CAL_S over the mean calibration time on its
two sides.  The calibration loop runs outside every timed stretch and
touches nothing of the program.
"""

import sys
import time

#: Passes of the calibration loop at each calibration point.
CALIBRATION_PASSES = 3
#: One calibration pass on the reference host (a 2-vCPU Intel Xeon guest,
#: Python 3.11) when nothing else loads it.
REFERENCE_CAL_S = 0.020


def calibration_pass() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    elapsed = time.perf_counter() - t0
    assert acc == 599_998
    return elapsed


def calibrate() -> float:
    """Mean time of one calibration pass, here and now."""
    return sum(calibration_pass() for _ in range(CALIBRATION_PASSES)) / CALIBRATION_PASSES


class SliceClock:
    """Wall and CPU time of the unit's slices, as measured and at the
    reference speed; calibrates between slices, outside the timed stretches."""

    def __init__(self, cal_s: float) -> None:
        self.cal_s = cal_s
        self.wall_s = self.cpu_s = self.wall_ref_s = self.cpu_ref_s = 0.0
        self._start()

    def _start(self) -> None:
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        cal_s = calibrate()
        scale = REFERENCE_CAL_S / ((self.cal_s + cal_s) / 2)
        self.cal_s = cal_s
        self.wall_s += wall
        self.cpu_s += cpu
        self.wall_ref_s += wall * scale
        self.cpu_ref_s += cpu * scale

    def between(self) -> None:
        self.stop()
        self._start()


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.  Not
    getrusage's ru_maxrss: Linux carries that across execve, so it would
    include the parent's resident set at the time of the fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    root, workload, mode, *modules = sys.argv[1:]
    sys.path.insert(0, root + "/src")
    cal_before = calibrate()
    t0 = time.perf_counter()
    for name in modules:
        __import__(name)
    setup_s = time.perf_counter() - t0
    cal_after = calibrate()
    setup_ref_s = setup_s * REFERENCE_CAL_S / ((cal_before + cal_after) / 2)

    import json

    if mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    import hashlib

    import spans
    import workloads

    job = json.load(sys.stdin)
    inputs = job["inputs"]
    tracer = spans.Tracer() if mode == "trace" else None
    parts = {}
    after_part = None
    if tracer is not None:
        tracer.install()

        def after_part(part):
            # layer self time of this part alone: the reading minus the earlier parts'
            reading = {layer: tracer.layer_self_s(layer) for layer in spans.TRACED}
            parts[part] = {k: v - sum(p[k] for p in parts.values()) for k, v in reading.items()}

    try:
        clock = SliceClock(calibrate())
        raw = workloads.run_unit(workload, inputs, after_part, clock.between)
        clock.stop()
    finally:
        if tracer is not None:
            tracer.restore()
    rss_mb = peak_rss_mb()
    outputs = workloads.encode_outputs(workload, raw)
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": clock.wall_s,
        "wall_ref_s": clock.wall_ref_s,
        "cpu_s": clock.cpu_s,
        "cpu_ref_s": clock.cpu_ref_s,
        "rss_mb": rss_mb,
        "digest": hashlib.sha256(json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest(),
    }
    if job["send_outputs"]:
        result["outputs"] = outputs
    if tracer is not None:
        result["layers"] = tracer.metrics(workloads.design_layers(workload))
        result["parts"] = parts
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
