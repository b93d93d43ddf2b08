"""Spans for the traced run, recorded from the benchmark's own files.

The tracer replaces public functions of ``netergm`` with timing wrappers,
each under the name by which the calling module reaches it (for example
``netergm.temporal.fit_logistic``), so that spans nest cli -> temporal ->
estimator -> terms. Names are resolved from ``WRAPPED`` when the tracer is
installed; a name the package no longer has is recorded as absent rather
than raising, so later refactors can remove functions without breaking the
benchmark. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
import tracemalloc

# (calling module, attribute) for every call the traced run times.
WRAPPED = (
    ("netergm.cli", "main"),
    ("netergm.cli", "load_events"),
    ("netergm.cli", "load_attributes"),
    ("netergm.cli", "assemble_network"),
    ("netergm.cli", "slice_periods"),
    ("netergm.cli", "largest_component"),
    ("netergm.cli", "activity_subset"),
    ("netergm.cli", "induced_subgraph"),
    ("netergm.cli", "describe"),
    ("netergm.cli", "fit_mple"),
    ("netergm.cli", "fit_btergm"),
    ("netergm.cli", "fit_formation"),
    ("netergm.cli", "sample_ergm"),
    ("netergm.cli", "global_stats"),
    ("netergm.cli", "export_graph"),
    ("netergm.cli", "render_text"),
    ("netergm.cli", "emit"),
    ("netergm.ingest", "load_events"),
    ("netergm.ingest", "load_attributes"),
    ("netergm.ingest", "assemble_network"),
    ("netergm.ingest", "slice_periods"),
    ("netergm.graph", "largest_component"),
    ("netergm.graph", "induced_subgraph"),
    ("netergm.descriptives", "describe"),
    ("netergm.descriptives", "largest_component"),
    ("netergm.descriptives", "betweenness_scores"),
    ("netergm.descriptives", "eigenvector_scores"),
    ("netergm.estimator", "build_design"),
    ("netergm.estimator", "fit_logistic"),
    ("netergm.estimator", "fit_mple"),
    ("netergm.estimator", "change_stat_matrices"),
    ("netergm.temporal", "fit_btergm"),
    ("netergm.temporal", "fit_formation"),
    ("netergm.temporal", "formation_design"),
    ("netergm.temporal", "fit_logistic"),
    ("netergm.temporal", "change_stat_matrices"),
    ("netergm.terms", "global_stats"),
    ("netergm.sampler", "sample_ergm"),
    ("netergm.export", "export_graph"),
    ("netergm.report", "render_text"),
    ("netergm.report", "emit"),
)

LAYERS = (
    "cli", "ingest", "graph", "descriptives", "terms",
    "estimator", "temporal", "sampler", "export", "report",
)

# (name, unit, better) of every per-layer metric, in report order. Which
# end-to-end metric each should move is in bench/README.md.
PER_LAYER = (
    ("cli.interp_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    *((f"cli.cmd.{c}_s", "s", "lower")
      for c in ("describe", "fit", "tergm", "formation", "simulate", "export")),
    ("ingest.load_events_s", "s", "lower"),
    ("ingest.load_attributes_s", "s", "lower"),
    ("ingest.assemble_network_s", "s", "lower"),
    ("ingest.slice_periods_s", "s", "lower"),
    ("ingest.events", "count", "higher"),
    ("graph.largest_component_s", "s", "lower"),
    ("graph.induced_subgraph_s", "s", "lower"),
    ("descriptives.describe_s", "s", "lower"),
    ("descriptives.betweenness_s", "s", "lower"),
    ("descriptives.eigenvector_s", "s", "lower"),
    ("terms.change_stat_matrices_s", "s", "lower"),
    ("terms.change_stat_matrices_calls", "count", "lower"),
    ("terms.cube_mib", "MiB", "lower"),
    ("terms.change_stat_matrices_peak_mib", "MiB", "lower"),
    ("terms.global_stats_s", "s", "lower"),
    ("estimator.build_design_s", "s", "lower"),
    ("estimator.design_mib", "MiB", "lower"),
    ("estimator.fit_logistic_s", "s", "lower"),
    ("estimator.fit_calls", "count", "lower"),
    ("estimator.newton_iterations", "count", "lower"),
    ("estimator.fit_logistic_peak_mib", "MiB", "lower"),
    ("temporal.fit_btergm.temporal_s", "s", "lower"),
    ("temporal.fit_btergm.node_s", "s", "lower"),
    ("temporal.replicate_fit_s", "s", "lower"),
    ("temporal.replicates_attempted", "count", "higher"),
    ("temporal.replicates_valid", "count", "higher"),
    ("temporal.replicate_ok_ratio", "ratio", "higher"),
    ("temporal.formation_design_s", "s", "lower"),
    ("temporal.fit_formation_s", "s", "lower"),
    ("sampler.sample_ergm_s", "s", "lower"),
    ("sampler.steps", "count", "higher"),
    ("sampler.steps_per_s", "1/s", "higher"),
    ("export.export_graph_s", "s", "lower"),
    ("export.bytes", "bytes", "lower"),
    ("report.render_text_s", "s", "lower"),
    ("report.emit_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
)

# tracemalloc runs only inside these calls, so it slows nothing else.
PEAK_TRACKED = frozenset({
    "netergm.terms.change_stat_matrices",
    "netergm.estimator.fit_logistic",
})


def layer_of(module: str) -> str:
    """Layer of a defining module: its last dotted part, config counting as cli."""
    last = module.rsplit(".", 1)[-1]
    return "cli" if last == "config" else last


def _design_bytes(b, result):
    return {"iterations": result.iterations, "design_bytes": b["design"].matrix.nbytes}


def _sampler_steps(b, result):
    burn, thin = b["control"].resolved(b["node_count"])
    return {"steps": burn + thin * b["control"].sample_count}


def _boot_counts(b, result):
    return {"replicates": result[1].replications, "valid": result[1].n_valid}


# Counters read at the call boundary, from the bound arguments and result.
COUNTERS = {
    "netergm.ingest.load_events": lambda b, r: {"events": len(r)},
    "netergm.terms.change_stat_matrices": lambda b, r: {"cube_bytes": r.nbytes},
    "netergm.estimator.fit_logistic": _design_bytes,
    "netergm.temporal.fit_btergm": _boot_counts,
    "netergm.sampler.sample_ergm": _sampler_steps,
    "netergm.export.export_graph": lambda b, r: {"bytes": os.path.getsize(b["path"])},
}

# A tag splits one function's spans by an argument.
TAGS = {
    "netergm.temporal.fit_btergm": lambda b: b["mode"],
    "netergm.cli.main": lambda b: b["argv"][0],
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.spans = []
        self.absent = []
        self.run = None
        self._stack = []
        self._saved = []

    def install(self):
        self.absent = []
        for module, attr in self.wrapped:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                self.absent.append(f"{module}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self._wrap(f"{module}.{attr}", fn))
            self._saved.append((mod, attr, fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def open(self, name, func, layer, tag=None):
        span = {
            "id": len(self.spans),
            "name": name,
            "func": func,
            "layer": layer,
            "tag": tag,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        func = f"{fn.__module__}.{fn.__name__}"
        layer = layer_of(fn.__module__)
        counter = COUNTERS.get(func)
        tagger = TAGS.get(func)
        peak = func in PEAK_TRACKED
        try:
            sig = inspect.signature(fn) if counter or tagger else None
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                try:
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    bound = ba.arguments
                except TypeError:
                    pass
            # A counter or tag that no longer fits the function's signature or
            # result is recorded as failed; the call itself goes on untouched.
            tag, tag_failed = None, False
            if tagger is not None and bound is not None:
                try:
                    tag = str(tagger(bound))
                except Exception:
                    tag_failed = True
            tracking = peak and not tracemalloc.is_tracing()
            if tracking:
                tracemalloc.start()
            span = self.open(name, func, layer, tag)
            if tag_failed:
                span["counts"]["tag_failed"] = 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["counts"]["raised"] = 1
                raise
            finally:
                self.close(span)
                if tracking:
                    span["counts"]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None and bound is not None:
                try:
                    span["counts"].update(counter(bound, result))
                except Exception:
                    span["counts"]["counter_failed"] = 1
            return result

        return wrapper


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(c["start"], cursor), min(c["end"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (hi - lo) - covered
    return out


def _outermost(spans, func):
    """Spans of ``func`` that have no ancestor of the same function."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["func"] != func:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["func"] != func:
            p = by_id[p]["parent"]
        if p is None:
            out.append(s)
    return out


def _median_over_units(units, value):
    """Median of ``value(spans)`` over units where it is not None."""
    vals = [v for v in (value(spans) for spans in units) if v is not None]
    return statistics.median(vals) if vals else None


MIB = 2.0 ** 20


def layer_metrics(pass_units, setup_units, probes=None):
    """Per-layer metrics from spans grouped by unit (one list per pass).

    A function's figure is the median over passes of its per-pass total.
    Where a workload calls a function only while setting up (the ingest and
    graph calls of panel_bootstrap), the set-up rounds are the units instead.
    A metric no unit measures is None, which the report marks absent.
    """
    def pick(func):
        hit = [u for u in pass_units if any(s["func"] == func for s in u)]
        if hit:
            return hit
        return [u for u in setup_units if any(s["func"] == func for s in u)]

    def total_time(func, tag=None):
        def value(spans):
            sel = [s for s in _outermost(spans, func) if tag is None or s["tag"] == tag]
            return sum(s["end"] - s["start"] for s in sel) if sel else None
        return _median_over_units(pick(func), value)

    def count_sum(func, key=None):
        def value(spans):
            sel = [s for s in spans if s["func"] == func]
            if not sel:
                return None
            if key is None:
                return float(len(sel))
            vals = [s["counts"][key] for s in sel if key in s["counts"]]
            return sum(vals) if vals else None
        return _median_over_units(pick(func), value)

    def count_max(func, key, scale=1.0):
        def value(spans):
            vals = [s["counts"][key] for s in spans if s["func"] == func and key in s["counts"]]
            return max(vals) / scale if vals else None
        return _median_over_units(pick(func), value)

    def layer_self(layer):
        def value(spans):
            st = self_times(spans)
            sel = [st[s["id"]] for s in spans if s["layer"] == layer]
            return sum(sel) if sel else None
        return _median_over_units(pass_units, value)

    cli = "netergm.cli.main"
    boot = "netergm.temporal.fit_btergm"
    fit = "netergm.estimator.fit_logistic"
    m = {}
    probes = probes or {}
    m["cli.interp_s"] = probes.get("interp_s")
    m["cli.import_s"] = probes.get("import_s")
    m["cli.import_scipy_s"] = probes.get("import_scipy_s")
    for cmd in ("describe", "fit", "tergm", "formation", "simulate", "export"):
        m[f"cli.cmd.{cmd}_s"] = total_time(cli, cmd)
    for fn in ("load_events", "load_attributes", "assemble_network", "slice_periods"):
        m[f"ingest.{fn}_s"] = total_time(f"netergm.ingest.{fn}")
    m["ingest.events"] = count_sum("netergm.ingest.load_events", "events")
    m["graph.largest_component_s"] = total_time("netergm.graph.largest_component")
    m["graph.induced_subgraph_s"] = total_time("netergm.graph.induced_subgraph")
    m["descriptives.describe_s"] = total_time("netergm.descriptives.describe")
    m["descriptives.betweenness_s"] = total_time("netergm.descriptives.betweenness_scores")
    m["descriptives.eigenvector_s"] = total_time("netergm.descriptives.eigenvector_scores")
    cube = "netergm.terms.change_stat_matrices"
    m["terms.change_stat_matrices_s"] = total_time(cube)
    m["terms.change_stat_matrices_calls"] = count_sum(cube)
    m["terms.cube_mib"] = count_max(cube, "cube_bytes", MIB)
    m["terms.change_stat_matrices_peak_mib"] = count_max(cube, "peak_bytes", MIB)
    m["terms.global_stats_s"] = total_time("netergm.terms.global_stats")
    m["estimator.build_design_s"] = total_time("netergm.estimator.build_design")
    m["estimator.design_mib"] = count_max(fit, "design_bytes", MIB)
    m["estimator.fit_logistic_s"] = total_time(fit)
    m["estimator.fit_calls"] = count_sum(fit)
    m["estimator.newton_iterations"] = count_sum(fit, "iterations")
    m["estimator.fit_logistic_peak_mib"] = count_max(fit, "peak_bytes", MIB)
    m["temporal.fit_btergm.temporal_s"] = total_time(boot, "temporal")
    m["temporal.fit_btergm.node_s"] = total_time(boot, "node")
    m["temporal.replicate_fit_s"] = _replicate_fit_median(pass_units, boot, fit)
    attempted = count_sum(boot, "replicates")
    valid = count_sum(boot, "valid")
    m["temporal.replicates_attempted"] = attempted
    m["temporal.replicates_valid"] = valid
    m["temporal.replicate_ok_ratio"] = valid / attempted if attempted else None
    m["temporal.formation_design_s"] = total_time("netergm.temporal.formation_design")
    m["temporal.fit_formation_s"] = total_time("netergm.temporal.fit_formation")
    m["sampler.sample_ergm_s"] = total_time("netergm.sampler.sample_ergm")
    steps = count_sum("netergm.sampler.sample_ergm", "steps")
    m["sampler.steps"] = steps
    secs = m["sampler.sample_ergm_s"]
    m["sampler.steps_per_s"] = steps / secs if steps and secs else None
    m["export.export_graph_s"] = total_time("netergm.export.export_graph")
    m["export.bytes"] = count_sum("netergm.export.export_graph", "bytes")
    m["report.render_text_s"] = total_time("netergm.report.render_text")
    m["report.emit_s"] = total_time("netergm.report.emit")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    return m


def _replicate_fit_median(units, boot, fit):
    """Median replicate fit: every fit under a bootstrap call but its first,
    which is the point estimate."""
    durations = []
    for spans in units:
        kids = {}
        for s in spans:
            kids.setdefault(s["parent"], []).append(s)
        for b in (s for s in spans if s["func"] == boot):
            fits = sorted(
                (c for c in kids.get(b["id"], ()) if c["func"] == fit),
                key=lambda c: c["start"],
            )
            durations += [c["end"] - c["start"] for c in fits[1:]]
    return statistics.median(durations) if durations else None
