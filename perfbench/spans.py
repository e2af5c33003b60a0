"""Spans and counts around the calls into each module of the package.

The tracer wraps public functions where the package looks them up (every
``fedpricing.*`` module attribute bound to the original function), so the
package itself is unchanged. Each span records its name, start, end and
parent; spans stay in memory and are written out when the run ends. Counts
are kept per innermost enclosing span, so a count can be split by caller.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import sys
import time

# (module, function) pairs timed as spans. The span name is "<module>.<function>".
SPANS = [
    ("data", "gen_synthetic"), ("data", "save_dataset"),
    ("experiment", "run_experiment"), ("experiment", "generate_dataset"),
    ("experiment", "calibrate_population"), ("experiment", "solve_scheme"),
    ("experiment", "build_report"),
    ("calibrate", "estimate_grad_bounds"), ("calibrate", "estimate_alpha"),
    ("calibrate", "local_optimum_losses"),
    ("core", "make_population"),
    ("game", "server_solve"), ("game", "baseline_uniform"), ("game", "baseline_weighted"),
    ("bound", "convergence_gap_bound"),
    ("fltrain", "train"), ("fltrain", "local_sgd"), ("fltrain", "aggregate"),
    ("fltrain", "global_loss"), ("fltrain", "test_accuracy"),
    ("formats", "write_population"), ("formats", "write_equilibrium_manifest"),
    ("formats", "write_metrics_csv"), ("formats", "read_population"),
    ("formats", "read_equilibrium_manifest"), ("formats", "read_metrics_csv"),
]
# Hot functions only counted: a span per call would cost more than the call.
COUNTS = [("fltrain", "loss_and_grad"), ("game", "client_best_response")]
# Spans that also record process CPU time, which includes BLAS worker threads.
CPU_SPANS = {"calibrate.local_optimum_losses"}

# Layers are the package's modules; the population type and the bound belong to the game.
LAYER_OF_MODULE = {"core": "game", "bound": "game"}


def layer(name: str) -> str:
    module = name.split(".", 1)[0]
    return LAYER_OF_MODULE.get(module, module)


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index or -1, cpu seconds or None]
        self.counts = collections.Counter()   # (count name, innermost span name) -> calls
        self.bytes_written = 0
        self.bisection_iters = 0
        self._stack = []
        self._patched = []

    def record(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, None])

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        cpu = name in CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = t0, t1
                if cpu:
                    span[4] = time.process_time() - c0
            self._observe(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(name, spans[stack[-1]][0] if stack else "")] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, args: tuple, result) -> None:
        if name.startswith("formats.write_"):
            self.bytes_written += os.path.getsize(args[0])
        elif name == "game.server_solve":
            self.bisection_iters += int(result.diagnostics.get("iterations", 0))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "fedpricing" or n.startswith("fedpricing.")) and m is not None]
        targets = [(mod, fn, self._span_wrapper) for mod, fn in SPANS]
        targets += [(mod, fn, self._count_wrapper) for mod, fn in COUNTS]
        for mod, fn, make in targets:
            original = getattr(sys.modules[f"fedpricing.{mod}"], fn)
            wrapper = make(original, f"{mod}.{fn}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- reduction -----------------------------------------------------------

    def total(self, *names: str, parent: str | None = None) -> float:
        return sum(
            (s[2] - s[1] for s in self.spans
             if s[0] in names and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))),
            0.0,
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def counted(self, name: str, within=None) -> int:
        return sum(n for (count, where), n in self.counts.items()
                   if count == name and (within is None or within(where)))

    def self_times(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        table = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - child[i]
        return table

    def per_layer_metrics(self) -> dict:
        """The per-layer metrics of BENCHMARK.json, as {name: (value, unit)}."""
        cpu = sum((s[4] for s in self.spans if s[0] == "calibrate.local_optimum_losses"), 0.0)
        formats_read = [f"formats.{f}" for m, f in SPANS if m == "formats" and f.startswith("read_")]
        formats_write = [f"formats.{f}" for m, f in SPANS if m == "formats" and f.startswith("write_")]
        return {
            "setup.import_s": (self.total("setup.import"), "s"),
            "data.gen_s": (self.total("data.gen_synthetic"), "s"),
            "data.save_s": (self.total("data.save_dataset"), "s"),
            "calibrate.grad_bounds_s": (self.total("calibrate.estimate_grad_bounds"), "s"),
            "calibrate.alpha_pilots_s": (
                self.total("fltrain.train", parent="experiment.calibrate_population")
                + self.total("calibrate.estimate_alpha"), "s"),
            "calibrate.local_optima_s": (self.total("calibrate.local_optimum_losses"), "s"),
            "calibrate.local_optima_cpu_s": (cpu, "s"),
            "calibrate.lbfgs_evals": (
                self.counted("fltrain.loss_and_grad", lambda w: w == "calibrate.local_optimum_losses"),
                "count"),
            "game.population_s": (self.total("core.make_population"), "s"),
            "game.optimal_s": (self.total("game.server_solve"), "s"),
            "game.uniform_s": (self.total("game.baseline_uniform"), "s"),
            "game.weighted_s": (self.total("game.baseline_weighted"), "s"),
            "game.bisection_iters": (self.bisection_iters, "count"),
            "game.best_response_calls": (self.counted("game.client_best_response"), "count"),
            "fltrain.train_s": (self.total("fltrain.train"), "s"),
            "fltrain.local_sgd_s": (self.total("fltrain.local_sgd"), "s"),
            "fltrain.grad_evals": (
                self.counted("fltrain.loss_and_grad", lambda w: layer(w) == "fltrain"), "count"),
            "fltrain.aggregate_s": (self.total("fltrain.aggregate"), "s"),
            "fltrain.eval_s": (self.total("fltrain.global_loss", "fltrain.test_accuracy"), "s"),
            "fltrain.eval_calls": (self.calls("fltrain.global_loss"), "count"),
            "formats.write_s": (self.total(*formats_write), "s"),
            "formats.read_s": (self.total(*formats_read), "s"),
            "formats.bytes_written": (self.bytes_written, "bytes"),
            "experiment.report_s": (self.total("experiment.build_report"), "s"),
        }

    def table(self, wall: float) -> str:
        """Per-function and per-layer self time over ``wall`` seconds of traced work."""
        rows = self.self_times()
        lines = [f"{'span':<36} {'calls':>8} {'total_s':>10} {'self_s':>10}"]
        for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:<36} {calls:>8} {total:>10.4f} {own:>10.4f}")
        for (count, where), n in sorted(self.counts.items()):
            lines.append(f"count {count} within {where or '-'}: {n}")
        by_layer = collections.Counter()
        for name, (_calls, _total, own) in rows.items():
            by_layer[layer(name)] += own
        covered = sum(by_layer.values())
        lines.append("")
        lines.append(f"{'layer':<12} {'self_s':>10} {'share':>7}")
        for name, own in by_layer.most_common():
            lines.append(f"{name:<12} {own:>10.4f} {own / wall:>7.1%}")
        lines.append(f"{'(untraced)':<12} {wall - covered:>10.4f} {(wall - covered) / wall:>7.1%}")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, cpu in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "cpu": cpu}) + "\n")
            for (count, where), n in sorted(self.counts.items()):
                f.write(json.dumps({"count": count, "within": where, "calls": n}) + "\n")
