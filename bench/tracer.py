"""Traced-run recorder: spans around every public function of ri_entropy.

`Recorder.install()` replaces each public function of the package's
modules with a wrapper, under every name a module holds it by (so
`states.projector` and `closed_form.classify_region` are traced as well as
`angular.projector` and `geometry.classify_region`).  `restore()` puts the
originals back.  The spans of the operation being measured stay in memory
as parallel lists (name, start, end, parent); when the operation ends,
`fold()` adds each span's duration and self time (its duration minus the
durations of its direct children) to per-name totals and empties the
lists, so memory does not grow with the length of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time

MODULES = ("angular", "states", "geometry", "closed_form", "oracle", "cli")
CLOSED_FORM_ENTRY_POINTS = ("closed_form.ree_2xn", "closed_form.ree_3x3",
                            "closed_form.ree_3xn_odd", "closed_form.e_gamma_3xn_even",
                            "closed_form.ree_dispatch")
REPORTED = ("oracle.minimize_kl_over_polygon", "oracle.minimize_kl_over_interval")


class _CountHandler(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "fell off the segment" in record.getMessage():
            self.count += 1


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.totals: dict[str, dict] = {}
        self.spans = 0
        # per REPORTED name: [calls, iterations, converged calls] from the returned reports
        self.reports: dict[str, list] = {name: [0, 0, 0] for name in REPORTED}
        self._stack: list[int] = []
        self._patched: list = []
        self._fallbacks = _CountHandler()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter_ns
        reports = self.reports.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if reports is not None:
                reports[0] += 1
                reports[1] += out.iterations
                reports[2] += bool(out.converged)
            return out

        return traced

    def install(self):
        """Wrap every public function of MODULES under all the names it has."""
        mods = [importlib.import_module("ri_entropy")]
        mods += [importlib.import_module(f"ri_entropy.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(f"{short}.{attr}", val)
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patched.append((mod, attr, val))
        logging.getLogger("ri_entropy.closed_form").addHandler(self._fallbacks)
        return self

    def restore(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()
        logging.getLogger("ri_entropy.closed_form").removeHandler(self._fallbacks)

    # -- analysis -----------------------------------------------------------

    def fold(self):
        """Add the buffered spans of a finished operation to the per-name totals."""
        n = len(self.names)
        child = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        for i in range(n):
            d = self.totals.setdefault(self.names[i], {"calls": 0, "total_ns": 0, "self_ns": 0})
            dur = self.ends[i] - self.starts[i]
            d["calls"] += 1
            d["total_ns"] += dur
            d["self_ns"] += dur - child[i]
        self.spans += n
        for buf in (self.names, self.starts, self.ends, self.parents):
            buf.clear()

    @property
    def root_fallbacks(self) -> int:
        return self._fallbacks.count


def layer_metrics(rec: Recorder, states: int, cli_main_us: float = 0.0) -> dict:
    """The benchmark's per-layer metrics from one traced run (0 where a layer is unused).

    `cli_main_us` is measured apart, on in-process `main(argv)` calls.
    """
    rec.fold()
    lay = rec.totals
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def calls_per_state(name):
        return lay.get(name, zero)["calls"] / states

    def self_us_per_state(*names):
        return sum(lay.get(n, zero)["self_ns"] for n in names) / 1e3 / states

    def self_us_per_call(name):
        d = lay.get(name, zero)
        return d["self_ns"] / 1e3 / d["calls"] if d["calls"] else 0.0

    def report_means(name):
        calls, iterations, converged = rec.reports[name]
        return (iterations / calls, converged / calls) if calls else (0.0, 0.0)

    poly_iters, poly_conv = report_means("oracle.minimize_kl_over_polygon")
    int_iters, _ = report_means("oracle.minimize_kl_over_interval")
    return {
        "angular.projector.calls_per_state": (calls_per_state("angular.projector"), "calls/state"),
        "angular.projector.self_us_per_state": (self_us_per_state("angular.projector"), "us/state"),
        "angular.clebsch_gordan.calls_per_state":
            (calls_per_state("angular.clebsch_gordan"), "calls/state"),
        "angular.partial_time_reversal.self_us_per_state":
            (self_us_per_state("angular.partial_time_reversal"), "us/state"),
        "states.to_density.self_us_per_state": (self_us_per_state("states.to_density"), "us/state"),
        "states.quantum_relative_entropy.self_us_per_state":
            (self_us_per_state("states.quantum_relative_entropy"), "us/state"),
        "states.twirl.self_us_per_state": (self_us_per_state("states.twirl"), "us/state"),
        "states.make_ri_state.calls_per_state":
            (calls_per_state("states.make_ri_state"), "calls/state"),
        "states.make_ri_state.self_us_per_state":
            (self_us_per_state("states.make_ri_state"), "us/state"),
        "states.block_weights.calls_per_state":
            (calls_per_state("states.block_weights"), "calls/state"),
        "states.normalized_to_raw.self_us_per_state":
            (self_us_per_state("states.normalized_to_raw"), "us/state"),
        "states.raw_to_normalized.self_us_per_state":
            (self_us_per_state("states.raw_to_normalized"), "us/state"),
        "geometry.classify_region.self_us_per_state":
            (self_us_per_state("geometry.classify_region"), "us/state"),
        "geometry.normalized_chart.calls_per_state":
            (calls_per_state("geometry.normalized_chart"), "calls/state"),
        "geometry.region_polygons.calls_per_state":
            (calls_per_state("geometry.region_polygons"), "calls/state"),
        "closed_form.self_us_per_state":
            (self_us_per_state(*CLOSED_FORM_ENTRY_POINTS), "us/state"),
        "closed_form.root_fallbacks": (float(rec.root_fallbacks), "count"),
        "oracle.minimize_kl_over_polygon.self_us_per_call":
            (self_us_per_call("oracle.minimize_kl_over_polygon"), "us/call"),
        "oracle.minimize_kl_over_polygon.iterations_per_call": (poly_iters, "iter/call"),
        "oracle.minimize_kl_over_polygon.converged_ratio": (poly_conv, "ratio"),
        "oracle.minimize_kl_over_interval.self_us_per_call":
            (self_us_per_call("oracle.minimize_kl_over_interval"), "us/call"),
        "oracle.minimize_kl_over_interval.iterations_per_call": (int_iters, "iter/call"),
        "oracle.verify_closed_form.self_us_per_state":
            (self_us_per_state("oracle.verify_closed_form"), "us/state"),
        "oracle.ppt_min_eigenvalue.self_us_per_state":
            (self_us_per_state("oracle.ppt_min_eigenvalue"), "us/state"),
        "cli.main.self_us_per_call": (cli_main_us, "us/call"),
    }
