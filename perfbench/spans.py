"""Layer spans for the traced run, recorded from outside the program.

A Tracer replaces each traced function with a timing wrapper in every
korosum module that binds it (so `bounds.factor_smooth`, `sumeval.mult_order`
and `normalnum.eval_sum` are traced as well as the defining module's name),
keeps per-function totals in memory, and puts the originals back on
`restore`.  A span's self time is its duration minus the time covered by
the spans it directly contains.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List, Optional

#: Traced functions per layer: every function a metric names, plus the
#: helpers other layers call, so their time lands in their own layer.
TRACED = {
    "numtheory": (
        "factor_smooth", "factorize", "euler_phi", "mult_order", "mult_order_structured",
        "capital_m", "smooth_numbers",
    ),
    "sumeval": ("eval_sum", "eval_sum_reduced", "verify_differencing"),
    "bounds": ("bound_eval", "bound_baseline", "bound_korobov_prime"),
    "digits": ("count_occurrences", "digit_frequencies"),
    "normalnum": ("discrepancy_trace", "ancillary_sequence", "star_discrepancy", "erdos_turan_estimate"),
    "cli": ("load_scan_config", "run_scan", "render_report"),
}

#: lru-cached functions whose public cache_info() gives a hit rate.
CACHED = ("numtheory.mult_order", "numtheory.carmichael_lambda", "bounds.constants", "bounds.k_constants")

#: Per-layer metrics, in report order, with their units.
LAYER_METRICS = (
    ("sumeval.eval_sum.calls", "count"),
    ("sumeval.eval_sum.self_s", "s"),
    ("sumeval.terms", "count"),
    ("sumeval.terms_per_s", "1/s"),
    ("sumeval.eval_sum_reduced.calls", "count"),
    ("sumeval.eval_sum_reduced.self_s", "s"),
    ("sumeval.fold_ratio", "ratio"),
    ("sumeval.verify_differencing.calls", "count"),
    ("sumeval.verify_differencing.self_s", "s"),
    ("sumeval.inner_sums", "count"),
    ("bounds.bound_eval.calls", "count"),
    ("bounds.bound_eval.self_s", "s"),
    ("bounds.bound_baseline.calls", "count"),
    ("bounds.bound_baseline.self_s", "s"),
    ("bounds.constants.hit_rate", "ratio"),
    ("bounds.k_constants.hit_rate", "ratio"),
    ("numtheory.factor_smooth.calls", "count"),
    ("numtheory.factor_smooth.self_s", "s"),
    ("numtheory.mult_order.calls", "count"),
    ("numtheory.mult_order.self_s", "s"),
    ("numtheory.mult_order.hit_rate", "ratio"),
    ("numtheory.carmichael_lambda.hit_rate", "ratio"),
    ("numtheory.mult_order_structured.calls", "count"),
    ("numtheory.mult_order_structured.self_s", "s"),
    ("numtheory.smooth_numbers.self_s", "s"),
    ("digits.count_occurrences.calls", "count"),
    ("digits.count_occurrences.self_s", "s"),
    ("digits.digit_frequencies.self_s", "s"),
    ("digits.digits", "count"),
    ("digits.digits_per_s", "1/s"),
    ("normalnum.discrepancy_trace.self_s", "s"),
    ("normalnum.ancillary_sequence.self_s", "s"),
    ("normalnum.points", "count"),
    ("normalnum.points_per_s", "1/s"),
    ("normalnum.star_discrepancy.calls", "count"),
    ("normalnum.star_discrepancy.self_s", "s"),
    ("normalnum.erdos_turan_estimate.self_s", "s"),
    ("cli.run_scan.self_s", "s"),
    ("cli.render_report.self_s", "s"),
    ("cli.rows", "count"),
    ("cli.report_bytes", "bytes"),
    ("layers.sumeval.self_s", "s"),
    ("layers.bounds.self_s", "s"),
    ("layers.numtheory.self_s", "s"),
    ("layers.digits.self_s", "s"),
    ("layers.normalnum.self_s", "s"),
    ("layers.cli.self_s", "s"),
    ("trace.design_share", "ratio"),
    ("process.cpu_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class _Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs timing wrappers on the korosum modules and aggregates their spans."""

    def __init__(self):
        self.stats: Dict[str, _Stat] = {}
        self.counts: Dict[str, int] = {
            "terms": 0, "terms_reduced": 0, "terms_folded": 0, "verify_sums": 0,
            "digits": 0, "points": 0, "rows": 0, "report_bytes": 0,
        }
        self.originals: Dict[str, Callable] = {}
        self._patched: List[tuple] = []
        # open spans, innermost last: [qualified name, time covered by children]
        self._stack: List[list] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items() if name.startswith("korosum") and mod]
        for layer, names in TRACED.items():
            home = sys.modules.get(f"korosum.{layer}")
            for fname in names:
                qual = f"{layer}.{fname}"
                self.stats[qual] = _Stat()
                orig = getattr(home, fname, None)
                if orig is None:  # layer not imported by this workload: its metrics read 0
                    continue
                self.originals[qual] = orig
                if inspect.isgeneratorfunction(orig):
                    wrapper = self._wrap_generator(qual, orig)
                else:
                    wrapper = self._wrap(qual, orig, self._hook(qual))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def restore(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _hook(self, qual: str) -> Optional[Callable]:
        """Counter update for one call: (args, kwargs, result, parent span name)."""
        counts = self.counts

        if qual == "sumeval.eval_sum":
            def hook(args, kwargs, result, parent):
                n = _arg(args, kwargs, 3, "N")
                counts["terms"] += n
                if parent == "sumeval.eval_sum_reduced":
                    counts["terms_folded"] += n
                elif parent == "sumeval.verify_differencing":
                    counts["verify_sums"] += 1
            return hook
        if qual == "sumeval.eval_sum_reduced":
            def hook(args, kwargs, result, parent):
                counts["terms_reduced"] += _arg(args, kwargs, 3, "N")
            return hook
        if qual == "digits.count_occurrences":
            def hook(args, kwargs, result, parent):
                pattern = _arg(args, kwargs, 2, "pattern")
                counts["digits"] += _arg(args, kwargs, 3, "N") + len(pattern) - 1
            return hook
        if qual == "digits.digit_frequencies":
            def hook(args, kwargs, result, parent):
                counts["digits"] += _arg(args, kwargs, 3, "N")
            return hook
        if qual == "cli.run_scan":
            def hook(args, kwargs, result, parent):
                counts["rows"] += len(result)
            return hook
        if qual == "cli.render_report":
            def hook(args, kwargs, result, parent):
                counts["report_bytes"] += len(result)
            return hook
        return None

    def _wrap(self, qual: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stat = self.stats[qual]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [qual, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.child += frame[1]
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                hook(args, kwargs, result, parent)
            return result

        return wrapper

    def _wrap_generator(self, qual: str, fn: Callable) -> Callable:
        """A generator's work happens inside next(), so each next() is one span."""
        stat = self.stats[qual]
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        def timed(it):
            while True:
                frame = [qual, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat.total += dt
                    stat.child += frame[1]
                    if stack:
                        stack[-1][1] += dt
                counts["points"] += 1
                yield item

        def wrapper(*args, **kwargs):
            stat.calls += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    # -- results -----------------------------------------------------------

    def self_s(self, qual: str) -> float:
        stat = self.stats[qual]
        return stat.total - stat.child

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(f"{layer}.{fname}") for fname in TRACED[layer])

    def hit_rate(self, qual: str) -> float:
        layer, fname = qual.split(".")
        fn = self.originals.get(qual) or getattr(sys.modules.get(f"korosum.{layer}"), fname, None)
        if not hasattr(fn, "cache_info"):
            return 0.0
        info = fn.cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def metrics(self, design_layers) -> Dict[str, float]:
        """Every per-layer metric this trace can give (the run-level ones are added by the caller)."""
        c = self.counts
        out: Dict[str, float] = {}
        for qual, stat in self.stats.items():
            out[f"{qual}.calls"] = stat.calls
            out[f"{qual}.self_s"] = self.self_s(qual)
        for qual in CACHED:
            out[f"{qual}.hit_rate"] = self.hit_rate(qual)
        for layer in TRACED:
            out[f"layers.{layer}.self_s"] = self.layer_self_s(layer)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        out["sumeval.terms"] = c["terms"]
        out["sumeval.terms_per_s"] = rate(c["terms"], self.self_s("sumeval.eval_sum"))
        out["sumeval.fold_ratio"] = c["terms_reduced"] / c["terms_folded"] if c["terms_folded"] else 0.0
        # each verify_differencing call evaluates |S_N| itself, then the inner sums
        out["sumeval.inner_sums"] = c["verify_sums"] - self.stats["sumeval.verify_differencing"].calls
        out["digits.digits"] = c["digits"]
        out["digits.digits_per_s"] = rate(
            c["digits"], self.self_s("digits.count_occurrences") + self.self_s("digits.digit_frequencies")
        )
        out["normalnum.points"] = c["points"]
        out["normalnum.points_per_s"] = rate(c["points"], self.self_s("normalnum.ancillary_sequence"))
        out["cli.rows"] = c["rows"]
        out["cli.report_bytes"] = c["report_bytes"]
        total = sum(self.layer_self_s(layer) for layer in TRACED)
        design = sum(self.layer_self_s(layer) for layer in design_layers)
        out["trace.design_share"] = design / total if total > 0 else 0.0
        return out
