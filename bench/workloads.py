"""The four benchmark workloads: set-up, one timed pass, and output digests.

A workload's set-up makes its inputs from the seed, its warm-up runs the
program once on a tiny input so that lazy imports and first-call costs land
before the timer, and a pass runs the workload's operations once. Every operation goes through
``PassLog.call``, which counts it as attempted, records an exception as a
failure instead of letting it end the run, and keeps a digest of the output
for the comparison with the recorded references.

Inputs depend on the seed through ``variant(seed)``: references were
recorded for each of the ``VARIANTS`` input variants, so any seed can be
checked.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import gen

VARIANTS = 16

# Floats must agree to this share of max(1, |reference|). Counts, flags,
# names and edge sets must agree exactly. A number the CLI printed with d
# decimals may also differ by one unit in its last printed digit.
REL_TOL = 1e-6

CHILD_TIMEOUT_S = 120.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def variant(seed: int) -> int:
    return seed % VARIANTS


# ---------------------------------------------------------------- checking


class PassLog:
    """Operations of one pass: name plus digest, or name plus error."""

    def __init__(self):
        self.ops = []

    def call(self, name, fn, digest=None):
        try:
            result = fn()
            d = digest(result) if digest is not None else None
        except Exception as exc:
            self.ops.append({"op": name, "error": f"{type(exc).__name__}: {exc}"})
            return None
        self.ops.append({"op": name, "digest": d})
        return result

    def fail(self, name, error):
        self.ops.append({"op": name, "error": error})


def _decimals(token: str) -> int | None:
    """Digits printed after the point of a number token; None if the token
    is not a finite number."""
    try:
        value = float(token)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    mantissa = token.lower().split("e", 1)[0]
    return len(mantissa.split(".", 1)[1]) if "." in mantissa else 0


def _close(actual, expected) -> bool:
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(_close(a, e) for a, e in zip(actual, expected))
        )
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(_close(actual[k], expected[k]) for k in expected)
        )
    if isinstance(expected, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return False
        if math.isnan(expected) or math.isnan(actual):
            return math.isnan(expected) and math.isnan(actual)
        return abs(actual - expected) <= REL_TOL * max(1.0, abs(expected))
    if isinstance(expected, str) and isinstance(actual, str) and actual != expected:
        d = _decimals(expected)
        if not d or _decimals(actual) is None:
            return False
        tol = 10.0 ** -d + REL_TOL * max(1.0, abs(float(expected)))
        return abs(float(actual) - float(expected)) <= tol
    return type(actual) is type(expected) and actual == expected


def check(ops, reference) -> list:
    """Failure reasons, one per failed operation, against ``reference``
    (op name -> digest). An operation without a reference fails."""
    failures = []
    for op in ops:
        if "error" in op:
            failures.append(f"{op['op']}: {op['error']}")
        elif op["op"] not in reference:
            failures.append(f"{op['op']}: no reference recorded")
        elif not _close(op["digest"], reference[op["op"]]):
            failures.append(f"{op['op']}: output differs from reference")
    return failures


def _floats(values) -> list:
    return [float(v) for v in values]


def fit_digest(fit) -> dict:
    return {
        "coef": _floats(fit.coefficients),
        "se": _floats(fit.standard_errors),
        "deviance": float(fit.residual_deviance),
        "n_dyads": int(fit.n_dyads),
        "converged": bool(fit.converged),
        "dropped": list(fit.dropped_terms),
    }


def boot_digest(result) -> dict:
    point, boot = result
    return {
        "point": fit_digest(point),
        "boot_se": _floats(boot.standard_errors),
        "ci_lower": _floats(boot.ci_lower),
        "ci_upper": _floats(boot.ci_upper),
        "valid": int(boot.n_valid),
        "dropped": int(boot.dropped_replicates),
    }


def describe_digest(row) -> dict:
    return {
        k: (float(v) if isinstance(v, float) else v)
        for k, v in row.as_dict().items()
    }


def design_digest(design) -> dict:
    return {
        "rows": int(design.n_rows),
        "terms": list(design.term_names),
        "ties": int(design.response.sum()),
        "colsum": _floats(design.matrix.sum(axis=0)),
    }


def edges_sha(edge_lists) -> str:
    """One hash over a sequence of edge sets, whatever the types of the
    endpoints (ids, Python or numpy integers)."""
    h = hashlib.sha256()
    for edges in edge_lists:
        h.update(repr(sorted((str(i), str(j)) for i, j in edges)).encode())
        h.update(b";")
    return h.hexdigest()


def table_tokens(path) -> list:
    """Whitespace-separated tokens of every cell of a CSV table."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [tok for row in csv.reader(fh) for cell in row for tok in cell.split()]


def _edge_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(r[0], r[1]) for r in rows]


# ------------------------------------------------------------ child runs


def run_child(argv, env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one child to completion. Returns (exit code, peak RSS in MiB,
    wall seconds). Peak RSS is the child's own, read from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, wall


# -------------------------------------------------------------- workloads


class CourseCli:
    """Closed loop, one client: the six subcommands, one process each."""

    name = "course_cli"

    def commands(self, ctx):
        data = ["--edges", ctx.events, "--attrs", ctx.attrs, "--format", "csv"]
        out = lambda cmd: ["--out-dir", os.path.join(ctx.workdir, "out", cmd)]  # noqa: E731
        seed = str(ctx.variant)
        return [
            ("describe", ["describe", *data, *out("describe")]),
            ("fit", ["fit", *data, "--terms", "edges, mutual, gwesp(0.5), nodematch(gender)",
                     *out("fit")]),
            ("tergm", ["tergm", *data, "--terms", "edges, mutual, isolates",
                       "--replications", "25", "--seed", seed, *out("tergm")]),
            ("formation", ["formation", *data, "--terms", "edges, mutual", *out("formation")]),
            ("simulate", ["simulate", "--nodes", "25", "--terms", "edges, mutual",
                          "--theta=-2.5,1.0", "--samples", "5", "--seed", seed,
                          "--format", "csv", *out("simulate")]),
            ("export", ["export", *data, "--graph-format", "json-edgelist", "--output",
                        os.path.join(ctx.workdir, "out", "export", "network.json")]),
        ]

    def setup(self, ctx):
        ctx.events, ctx.attrs = gen.write_course_files(ctx.workdir, ctx.variant)

    def warm_up(self, ctx):
        code, _, _ = run_child([sys.executable, "-m", "netergm.cli", "--version"], ctx.env)
        if code != 0:
            raise RuntimeError(f"netergm.cli --version exited {code}")

    def digest(self, ctx, cmd):
        out = os.path.join(ctx.workdir, "out", cmd)
        if cmd == "describe":
            return table_tokens(os.path.join(out, "descriptives.csv"))
        if cmd == "fit":
            return table_tokens(os.path.join(out, "ergm.csv"))
        if cmd == "tergm":
            return (table_tokens(os.path.join(out, "tergm.csv"))
                    + table_tokens(os.path.join(out, "tergm_replicates.csv")))
        if cmd == "formation":
            files = sorted(glob.glob(os.path.join(out, "formation_*.csv")))
            return {os.path.basename(f): table_tokens(f) for f in files}
        if cmd == "simulate":
            files = sorted(glob.glob(os.path.join(out, "sample_*.csv")))
            return {
                "samples": len(files),
                "edges_sha": edges_sha(_edge_rows(f) for f in files),
                "trace": table_tokens(os.path.join(out, "trace.csv")),
            }
        with open(os.path.join(out, "network.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        return {
            "nodes": [n["id"] for n in payload["nodes"]],
            "edges_sha": edges_sha([[(e["source"], e["target"]) for e in payload["edges"]]]),
        }

    def run_pass(self, ctx, log):
        peak = 0.0
        for cmd, argv in self.commands(ctx):
            self.run_command(ctx, log, cmd, argv)
            peak = max(peak, ctx.last_rss)
        ctx.pass_rss = peak

    def run_command(self, ctx, log, cmd, argv):
        """One CLI process; a non-zero exit or missing output is a failure."""
        if ctx.tracer is None:
            child = [sys.executable, "-m", "netergm.cli", *argv]
        else:
            spans_path = os.path.join(ctx.workdir, f"spans-{cmd}.json")
            child = [sys.executable, os.path.join(BENCH_DIR, "cli_runner.py"),
                     spans_path, *argv]
            span = ctx.tracer.open(f"bench.process.{cmd}", None, "bench", cmd)
        code, rss, _ = run_child(child, ctx.env)
        ctx.last_rss = rss
        if ctx.tracer is not None:
            ctx.tracer.close(span)
            _adopt_child_spans(ctx.tracer, span, spans_path)
        if code != 0:
            log.fail(cmd, f"exit code {code}")
            return
        log.call(cmd, lambda: self.digest(ctx, cmd))


def _adopt_child_spans(tracer, parent, path):
    """Attach a traced child's spans under the span of its process."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return
    tracer.absent = sorted(set(tracer.absent) | set(payload["absent"]))
    base = len(tracer.spans)
    for s in payload["spans"]:
        s["id"] += base
        s["parent"] = parent["id"] if s["parent"] is None else s["parent"] + base
        s["run"] = parent["run"]
        tracer.spans.append(s)


class PanelBootstrap:
    """Pooled bootstrap fits and formation fits over quarterly panels."""

    name = "panel_bootstrap"
    replications = 16

    def setup(self, ctx):
        from netergm import config, graph, ingest, terms

        events_path, attrs_path = gen.write_course_files(ctx.workdir, ctx.variant)
        events = ingest.load_events(events_path)
        attrs = ingest.load_attributes(attrs_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g, table = ingest.assemble_network(events, attrs)
        subset = graph.largest_component(g)
        table = table.restrict([table.ids[m] for m in subset.members])
        ctx.table = table
        ctx.series = ingest.slice_periods(events, table)
        ctx.spec = terms.parse_terms(config.TEMPORAL_TERMS)

    def warm_up(self, ctx):
        from netergm import estimator, terms

        spec = terms.parse_terms(("edges", "mutual"))
        estimator.fit_mple(ctx.series.graphs[1], ctx.table, spec)

    def run_pass(self, ctx, log):
        from netergm import temporal

        for mode in ("temporal", "node"):
            log.call(
                f"fit_btergm.{mode}",
                lambda: temporal.fit_btergm(
                    ctx.series, ctx.table, ctx.spec,
                    replications=self.replications, seed=ctx.variant, mode=mode,
                ),
                boot_digest,
            )
        graphs, labels = ctx.series.graphs, ctx.series.labels
        for t in range(1, len(graphs)):
            log.call(
                f"fit_formation.{labels[t - 1]}_{labels[t]}",
                lambda: temporal.fit_formation(graphs[t - 1], graphs[t], ctx.table, ctx.spec),
                fit_digest,
            )


class LargeMple:
    """One large cross-sectional fit with the full 22-term battery."""

    name = "large_mple"
    nodes = 800
    mean_degree = 6.0

    @staticmethod
    def _network(seed, n, mean_degree):
        from netergm import graph, ingest

        pairs, ids, columns = gen.random_network(seed, n, mean_degree)
        levels = {name: gen.LEVELS[name] for name in columns}
        return graph.build_graph(n, pairs), ingest.NodeTable(ids, columns, levels)

    def setup(self, ctx):
        from netergm import config, terms

        ctx.spec = terms.parse_terms(config.CROSS_SECTIONAL_TERMS)
        ctx.graph, ctx.table = self._network(ctx.variant, self.nodes, self.mean_degree)

    def warm_up(self, ctx):
        from netergm import descriptives, estimator

        g, table = self._network(ctx.variant, 30, self.mean_degree)
        descriptives.describe(g)
        estimator.fit_logistic(estimator.build_design(g, table, ctx.spec))

    def run_pass(self, ctx, log):
        from netergm import descriptives, estimator

        log.call("describe", lambda: descriptives.describe(ctx.graph), describe_digest)
        design = log.call(
            "build_design",
            lambda: estimator.build_design(ctx.graph, ctx.table, ctx.spec),
            design_digest,
        )
        if design is None:
            log.fail("fit_logistic", "no design to fit")
            return
        log.call("fit_logistic", lambda: estimator.fit_logistic(design), fit_digest)


class SimRecovery:
    """Sample from a hand-set model, then refit and recount every sample."""

    name = "sim_recovery"
    nodes = 40
    samples = 20
    terms = ("edges", "mutual", "gwesp(0.5)", "odegpop")
    theta = (-3.0, 1.5, 0.3, 0.02)
    # The mean of the refitted coefficients must lie within this distance
    # of theta, term by term.
    band = (0.3, 0.3, 0.3, 0.05)

    def setup(self, ctx):
        from netergm import terms

        ctx.spec = terms.parse_terms(self.terms)

    def warm_up(self, ctx):
        from netergm import estimator, sampler, terms

        warm = sampler.sample_ergm(
            10, None, ctx.spec, self.theta, sampler.SamplerControl(sample_count=2, seed=0)
        )
        estimator.fit_mple(warm[-1], None, ctx.spec)
        terms.global_stats(warm[-1], None, ctx.spec)

    def run_pass(self, ctx, log):
        from netergm import estimator, sampler, terms

        control = sampler.SamplerControl(sample_count=self.samples, seed=ctx.variant)
        graphs = log.call(
            "sample_ergm",
            lambda: sampler.sample_ergm(self.nodes, None, ctx.spec, self.theta, control),
            lambda gs: {
                "count": len(gs),
                "edges_sha": edges_sha(g.edges for g in gs),
                "edge_counts": [g.edge_count for g in gs],
            },
        )
        if graphs is None:
            return
        coefs = []
        for k, g in enumerate(graphs):
            fit = log.call(f"fit_mple.{k:02d}", lambda: estimator.fit_mple(g, None, ctx.spec),
                           fit_digest)
            if fit is not None:
                coefs.append(fit.coefficients)
            log.call(f"global_stats.{k:02d}", lambda: terms.global_stats(g, None, ctx.spec),
                     _floats)
        log.call("recovery", lambda: self.recovery(coefs), list)

    def recovery(self, coefs):
        """Mean refitted coefficients, checked against the band around theta."""
        if len(coefs) != self.samples:
            raise ValueError(f"{len(coefs)} of {self.samples} refits succeeded")
        mean = [sum(c[k] for c in coefs) / len(coefs) for k in range(len(self.theta))]
        for name, m, t, b in zip(self.terms, mean, self.theta, self.band):
            if not abs(m - t) <= b:
                raise ValueError(f"{name}: mean estimate {m:.3f} outside {t} +/- {b}")
        return [float(m) for m in mean]


WORKLOADS = {w.name: w for w in (CourseCli(), PanelBootstrap(), LargeMple(), SimRecovery())}
