"""Command-line interface.

Subcommands mirror the analysis pipeline: ``describe`` for the descriptive
battery, ``fit`` for a cross-sectional model, ``tergm`` for the pooled
temporal model with bootstrap intervals, ``formation`` for per-transition
formation models, ``simulate`` for model-based sampling, and ``export``
for graph files. Options can come from a JSON config file (--config);
explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .config import (
    _CHOICES,
    CROSS_SECTIONAL_TERMS,
    TEMPORAL_TERMS,
    RunConfig,
    parse_subsample,
)
from .descriptives import describe
from .errors import ConfigError, NetworkModelError, ValidationError
from .estimator import fit_mple
from .export import _WRITERS, export_graph
from .graph import activity_subset, induced_subgraph, largest_component, NodeSubset
from .ingest import assemble_network, load_attributes, load_events, slice_periods
from .report import (
    Table,
    _write_csv,
    btergm_table,
    describe_table,
    emit,
    fit_table,
    formation_table,
    render_text,
    trace_table,
)
from .sampler import SamplerControl, sample_ergm
from .temporal import fit_btergm, fit_formation, formation_bic_all_dyads
from .terms import global_stats, parse_terms, split_term_list

__all__ = [
    "main",
    "run_describe",
    "run_fit",
    "run_tergm",
    "run_formation",
    "run_simulate",
    "run_export",
]


def _require(cfg: RunConfig, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required option --{name.replace('_', '-')}")


def _load_network(cfg: RunConfig):
    """Shared pipeline: load, assemble, subsample. Returns (events, graph,
    node table) with the graph and table already restricted."""
    _require(cfg, "edges", "attrs")
    events = load_events(cfg.edges, horizon=cfg.horizon)
    if not events:
        raise ValidationError(f"{cfg.edges}: no events")
    attrs = load_attributes(cfg.attrs)
    graph, table = assemble_network(
        events, attrs, exclude_facilitators=cfg.exclude_facilitators
    )
    if graph.node_count == 0:
        raise ValidationError("no events survive facilitator exclusion")
    kind, k = parse_subsample(cfg.subsample)
    if kind == "lc":
        subset = largest_component(graph, mode=cfg.component_mode)
    elif kind == "active":
        subset = activity_subset(graph, k)
    else:
        subset = NodeSubset(graph.node_count, tuple(range(graph.node_count)))
    if len(subset) == 0:
        raise ValidationError("subsample selected no nodes")
    graph = induced_subgraph(graph, subset)
    table = table.restrict([table.ids[m] for m in subset.members])
    return events, graph, table


def _fit_options(cfg: RunConfig) -> dict:
    return {"tolerance": cfg.tolerance, "max_iterations": cfg.max_iterations}


def run_describe(cfg: RunConfig) -> list:
    """Descriptive battery for the aggregate network and each period."""
    events, graph, table = _load_network(cfg)
    series = slice_periods(events, table, cfg.breakpoints, cfg.horizon)
    labeled = [("All", describe(graph))]
    labeled += [(lab, describe(g)) for lab, g in zip(series.labels, series.graphs)]
    table_out = describe_table(labeled)
    print(render_text(table_out))
    return emit(table_out, cfg.out_dir, "descriptives", cfg.format)


def run_fit(cfg: RunConfig) -> list:
    """Cross-sectional model on the aggregate network."""
    _, graph, table = _load_network(cfg)
    spec = parse_terms(cfg.terms or CROSS_SECTIONAL_TERMS)
    fit = fit_mple(graph, table, spec, **_fit_options(cfg))
    table_out = fit_table(fit, "Cross-sectional model")
    print(render_text(table_out))
    return emit(table_out, cfg.out_dir, "ergm", cfg.format)


def run_tergm(cfg: RunConfig) -> list:
    """Pooled temporal model: every period transition stacked into one fit,
    with bootstrap intervals and the replicate coefficients."""
    events, graph, table = _load_network(cfg)
    series = slice_periods(events, table, cfg.breakpoints, cfg.horizon)
    spec = parse_terms(cfg.terms or TEMPORAL_TERMS)
    point, boot = fit_btergm(
        series,
        table,
        spec,
        replications=cfg.replications,
        seed=cfg.seed,
        mode=cfg.bootstrap_mode,
        include_lagged_tie=cfg.lagged_tie,
        **_fit_options(cfg),
    )
    table_out = btergm_table(boot, "Pooled temporal model")
    print(render_text(table_out))
    paths = emit(table_out, cfg.out_dir, "tergm", cfg.format)
    replicates = Table(
        "Bootstrap replicates",
        ("replicate",) + boot.term_names,
        tuple(
            (str(k),) + tuple(f"{v:.10g}" for v in row)
            for k, row in enumerate(boot.replicate_coefficients)
        ),
    )
    rep_path = os.path.join(cfg.out_dir, "tergm_replicates.csv")
    _write_csv(replicates, rep_path)
    paths.append(rep_path)
    return paths


def run_formation(cfg: RunConfig) -> list:
    """Formation model for every consecutive panel transition."""
    events, graph, table = _load_network(cfg)
    series = slice_periods(events, table, cfg.breakpoints, cfg.horizon)
    spec = parse_terms(cfg.terms or TEMPORAL_TERMS)
    paths = []
    for t in range(1, len(series)):
        prev, curr = series.graphs[t - 1], series.graphs[t]
        fit = fit_formation(prev, curr, table, spec, **_fit_options(cfg))
        name = f"formation_{series.labels[t - 1]}_to_{series.labels[t]}"
        table_out = formation_table(
            fit,
            f"Formation model {series.labels[t - 1]} -> {series.labels[t]}",
            bic_all_dyads=formation_bic_all_dyads(fit, series.node_count),
        )
        print(render_text(table_out))
        paths += emit(table_out, cfg.out_dir, name, cfg.format)
    return paths


def run_simulate(cfg: RunConfig) -> list:
    """Sample graphs from a specified model and write edge lists plus a
    statistic trace."""
    _require(cfg, "terms", "theta")
    spec = parse_terms(cfg.terms)
    if len(cfg.theta) != len(spec.terms):
        raise ConfigError(
            f"--theta has {len(cfg.theta)} values for {len(spec.terms)} terms"
        )
    attrs = None
    if cfg.attrs is not None:
        full = load_attributes(cfg.attrs)
        if full.size < cfg.nodes:
            raise ConfigError(
                f"attribute file has {full.size} rows, need {cfg.nodes}"
            )
        attrs = full.restrict(full.ids[: cfg.nodes])
    control = SamplerControl(
        burn_in=cfg.burn_in,
        thin=cfg.thin,
        sample_count=cfg.samples,
        seed=cfg.seed,
    )
    graphs = sample_ergm(cfg.nodes, attrs, spec, cfg.theta, control)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ids = attrs.ids if attrs is not None else tuple(
        f"n{k:03d}" for k in range(cfg.nodes)
    )
    paths = []
    width = max(3, len(str(len(graphs) - 1)))
    header = ("sender_id", "receiver_id", "day")
    for k, g in enumerate(graphs):
        edges = tuple((ids[i], ids[j], "1") for i, j in sorted(g.edges))
        path = os.path.join(cfg.out_dir, f"sample_{k:0{width}d}.csv")
        _write_csv(Table(f"Sample {k}", header, edges), path)
        paths.append(path)
    stats = np.array([global_stats(g, attrs, spec) for g in graphs])
    table_out = trace_table(spec.names, stats)
    print(render_text(table_out))
    paths += emit(table_out, cfg.out_dir, "trace", cfg.format)
    return paths


def run_export(cfg: RunConfig) -> list:
    """Write the assembled (and subsampled) network to a graph file."""
    _, graph, table = _load_network(cfg)
    _, ext = _WRITERS[cfg.graph_format]
    path = cfg.output or os.path.join(cfg.out_dir, f"graph.{ext}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    export_graph(graph, table, path, cfg.graph_format)
    print(f"wrote {path}")
    return [path]


_COMMANDS = {
    "describe": run_describe,
    "fit": run_fit,
    "tergm": run_tergm,
    "formation": run_formation,
    "simulate": run_simulate,
    "export": run_export,
}


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--edges", help="interaction log (sender_id,receiver_id,day)")
    parser.add_argument("--attrs", help="participant attribute table")
    parser.add_argument("--horizon", type=int, help="last observation day")
    parser.add_argument(
        "--subsample",
        help="node filter: lc, active:K (active is active:3), or none (default lc)",
    )
    parser.add_argument(
        "--component-mode",
        choices=_CHOICES["component_mode"],
        help="connectivity used by the lc subsample",
    )
    parser.add_argument(
        "--include-facilitators",
        dest="exclude_facilitators",
        action="store_const",
        const=False,
        help="keep facilitator events (dropped by default)",
    )
    parser.add_argument("--terms", help="comma-separated model terms")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument(
        "--replications", type=int, help="bootstrap replications (tergm)"
    )
    parser.add_argument("--tolerance", type=float, help="score tolerance for fits")
    parser.add_argument("--max-iterations", type=int, help="fit iteration cap")
    parser.add_argument(
        "--bootstrap-mode",
        choices=_CHOICES["bootstrap_mode"],
        help="bootstrap resampling unit (tergm)",
    )
    parser.add_argument(
        "--lagged-tie",
        action="store_const",
        const=True,
        help="add a previous-panel tie indicator to pooled designs",
    )
    parser.add_argument("--out-dir", help="output directory")
    parser.add_argument(
        "--format", choices=_CHOICES["format"], help="machine table format"
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="netergm",
        description="Directed-network model toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("describe", "descriptive battery (aggregate plus periods)"),
        ("fit", "cross-sectional model fit"),
        ("tergm", "pooled temporal model with bootstrap intervals"),
        ("formation", "per-transition formation models"),
        ("simulate", "sample networks from a model"),
        ("export", "write the network to a graph file"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "simulate":
            p.add_argument("--nodes", type=int, help="number of nodes")
            p.add_argument("--theta", help="comma-separated coefficients")
            p.add_argument("--burn-in", type=int)
            p.add_argument("--thin", type=int)
            p.add_argument("--samples", type=int, help="graphs to retain")
        if name == "export":
            p.add_argument("--graph-format", choices=_CHOICES["graph_format"])
            p.add_argument("--output", help="output file path")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    # every flag but --terms and --theta sets the RunConfig field of its name
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if f.name not in ("terms", "theta") and hasattr(args, f.name)
    }
    if getattr(args, "terms", None) is not None:
        overrides["terms"] = tuple(split_term_list(args.terms))
    theta = getattr(args, "theta", None)
    if theta is not None:
        try:
            overrides["theta"] = tuple(float(v) for v in theta.split(","))
        except ValueError:
            raise ConfigError(f"bad --theta value {theta!r}") from None
    return cfg.with_overrides(**overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _COMMANDS[args.command](cfg)
    except NetworkModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
