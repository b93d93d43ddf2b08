"""Result tables: shared layout, text alignment, CSV and JSON writers.

Every table file the CLI writes is a :class:`Table`. Results tables go
through :func:`emit`, so the aligned text view and the machine-readable
file hold the same cells; the bootstrap replicates and the sampled edge
lists are CSV only, written by the same CSV writer. The coefficient tables
share one builder: a row per term and an ordered mapping from column header
to formatted cells, so a new column is one entry. The descriptive table's
columns are the fields of :class:`DescriptiveRow`. Numbers in results tables
are formatted to three decimals; undefined values render blank; p-values get
the usual significance ladder (0.001, 0.01, 0.05, 0.1).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .descriptives import DescriptiveRow
from .errors import _one_of
from .estimator import FitResult
from .temporal import BootstrapResult

__all__ = [
    "Table",
    "significance_stars",
    "format_number",
    "describe_table",
    "fit_table",
    "btergm_table",
    "formation_table",
    "trace_table",
    "render_text",
    "emit",
]

TABLE_FORMATS = ("csv", "json")


def significance_stars(p) -> str:
    """Classic ladder: *** under 0.001, ** under 0.01, * under 0.05,
    . under 0.1, empty otherwise (or for missing p)."""
    if p is None or (isinstance(p, float) and math.isnan(p)):
        return ""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    if p < 0.1:
        return "."
    return ""


def format_number(x, decimals: int = 3) -> str:
    """Fixed-point with ``decimals`` places; blank for None/NaN; ints bare."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "yes" if x else "no"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isnan(xf):
        return ""
    return f"{xf:.{decimals}f}"


@dataclass(frozen=True)
class Table:
    """A titled grid of already-formatted string cells plus footer lines."""

    title: str
    headers: tuple
    rows: tuple
    footers: tuple = field(default_factory=tuple)


def describe_table(labeled_rows) -> Table:
    """One row per network from (label, DescriptiveRow) pairs; the columns
    are ``DescriptiveRow``'s fields in order."""
    names = [f.name for f in fields(DescriptiveRow)]
    rows = tuple(
        (label,) + tuple(format_number(getattr(row, name)) for name in names)
        for label, row in labeled_rows
    )
    return Table("Descriptive statistics", ("network", *names), rows)


def _term_table(title, term_names, columns: dict, footers) -> Table:
    """One row per term; ``columns`` maps each header after ``term``, in
    order, to that column's formatted cells."""
    rows = tuple(zip(term_names, *columns.values()))
    return Table(title, ("term", *columns), rows, tuple(footers))


def _numbers(values) -> list:
    return [format_number(v) for v in values]


def _fit_columns(fit: FitResult) -> dict:
    return {
        "estimate": _numbers(fit.coefficients),
        "std_error": _numbers(fit.standard_errors),
        "exp_estimate": _numbers(fit.exp_coefficients),
        "p_value": _numbers(fit.p_values),
        "sig": [significance_stars(p) for p in fit.p_values],
        "note": [
            "dropped" if name in fit.dropped_terms else "separation" if flag else ""
            for name, flag in zip(fit.term_names, fit.separation_flags)
        ],
    }


def fit_table(fit: FitResult, title: str = "Model fit") -> Table:
    footers = (
        f"null_pseudo_deviance: {format_number(fit.null_deviance)}",
        f"residual_pseudo_deviance: {format_number(fit.residual_deviance)}",
        f"aic: {format_number(fit.aic)}",
        f"bic: {format_number(fit.bic)}",
        f"n_dyads: {fit.n_dyads}",
        f"n_params: {fit.n_params}",
        f"converged: {'yes' if fit.converged else 'no'}",
    )
    return _term_table(title, fit.term_names, _fit_columns(fit), footers)


def btergm_table(boot: BootstrapResult, title: str = "Pooled temporal fit") -> Table:
    columns = {
        "estimate": _numbers(boot.point_estimates),
        "boot_se": _numbers(boot.standard_errors),
        "exp_estimate": _numbers(np.exp(boot.point_estimates)),
        "ci_lower": _numbers(boot.ci_lower),
        "ci_upper": _numbers(boot.ci_upper),
        "sig": ["*" if s else "" for s in boot.significant],
    }
    footers = [
        f"replications: {boot.replications}",
        f"valid_replicates: {boot.n_valid}",
        f"dropped_replicates: {boot.dropped_replicates}",
        f"bootstrap_mode: {boot.mode}",
        f"seed: {boot.seed}",
    ]
    # the point fit leaves a NaN coefficient exactly where it dropped a term
    dropped = [
        name for name, b in zip(boot.term_names, boot.point_estimates) if np.isnan(b)
    ]
    if dropped:
        footers.append(f"dropped_terms: {', '.join(dropped)}")
    return _term_table(title, boot.term_names, columns, footers)


def formation_table(
    fit: FitResult,
    title: str = "Formation model",
    bic_all_dyads: float | None = None,
) -> Table:
    columns = _fit_columns(fit)
    del columns["exp_estimate"]
    footers = [
        f"log_likelihood: {format_number(fit.log_likelihood)}",
        f"aic: {format_number(fit.aic)}",
        f"bic: {format_number(fit.bic)}",
        f"n_dyads: {fit.n_dyads}",
        f"n_params: {fit.n_params}",
        f"converged: {'yes' if fit.converged else 'no'}",
    ]
    if bic_all_dyads is not None:
        footers.insert(3, f"bic_all_dyads: {format_number(bic_all_dyads)}")
    return _term_table(title, fit.term_names, columns, footers)


def trace_table(term_names, stats: np.ndarray, title: str = "Sampler trace") -> Table:
    headers = ("sample",) + tuple(term_names)
    rows = tuple(
        (str(k),) + tuple(format_number(v) for v in stat_row)
        for k, stat_row in enumerate(stats)
    )
    return Table(title, headers, rows)


def render_text(table: Table) -> str:
    """Aligned monospace view: first column left, the rest right."""
    cols = list(zip(table.headers, *table.rows)) if table.rows else [
        (h,) for h in table.headers
    ]
    widths = [max(len(str(c)) for c in col) for col in cols]
    lines = [table.title, "=" * len(table.title)]

    def fmt_row(cells):
        parts = []
        for k, cell in enumerate(cells):
            cell = str(cell)
            parts.append(cell.ljust(widths[k]) if k == 0 else cell.rjust(widths[k]))
        return "  ".join(parts).rstrip()

    lines.append(fmt_row(table.headers))
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    lines.extend(fmt_row(r) for r in table.rows)
    if table.footers:
        lines.append("")
        lines.extend(table.footers)
    return "\n".join(lines) + "\n"


def _write_csv(table: Table, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.headers)
        writer.writerows(table.rows)
        for line in table.footers:
            writer.writerow(["# " + line])


def _write_json(table: Table, path):
    payload = {
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(r) for r in table.rows],
        "footers": list(table.footers),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit(table: Table, out_dir, name: str, fmt: str = "csv") -> list:
    """Write the aligned text file plus one machine-readable file.

    ``fmt`` picks the machine format, ``csv`` or ``json``. Returns the
    written paths.
    """
    _one_of("format", fmt, TABLE_FORMATS)
    os.makedirs(out_dir, exist_ok=True)
    txt_path = os.path.join(out_dir, f"{name}.txt")
    with open(txt_path, "w", encoding="utf-8") as fh:
        fh.write(render_text(table))
    ext, write = ("json", _write_json) if fmt == "json" else ("csv", _write_csv)
    data_path = os.path.join(out_dir, f"{name}.{ext}")
    write(table, data_path)
    return [txt_path, data_path]
