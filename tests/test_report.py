import csv
import json
import math
import warnings

import numpy as np
import pytest

from netergm import (
    DirectedGraph,
    NetworkSeries,
    build_graph,
    describe,
    fit_btergm,
    fit_formation,
    fit_mple,
    parse_terms,
)
from netergm.report import (
    Table,
    btergm_table,
    describe_table,
    emit,
    fit_table,
    format_number,
    formation_table,
    render_text,
    significance_stars,
    trace_table,
)
from helpers import random_graph


def sample_fit():
    rng = np.random.default_rng(71)
    g = random_graph(rng, 9, 0.4)
    return fit_mple(g, None, parse_terms(("edges", "mutual")))


class TestFormatting:
    def test_star_ladder(self):
        assert significance_stars(0.0005) == "***"
        assert significance_stars(0.001) == "**"
        assert significance_stars(0.009) == "**"
        assert significance_stars(0.01) == "*"
        assert significance_stars(0.049) == "*"
        assert significance_stars(0.05) == "."
        assert significance_stars(0.099) == "."
        assert significance_stars(0.1) == ""
        assert significance_stars(0.9) == ""
        assert significance_stars(float("nan")) == ""

    def test_number_formatting(self):
        assert format_number(1.23456) == "1.235"
        assert format_number(-0.5) == "-0.500"
        assert format_number(None) == ""
        assert format_number(float("nan")) == ""
        assert format_number(7) == "7"
        assert format_number(True) == "yes"
        assert format_number(False) == "no"
        assert format_number(-0.0004) == "-0.000"
        assert format_number(2.5, decimals=1) == "2.5"


class TestTables:
    def test_describe_table_shape(self):
        g = build_graph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4)])
        t = describe_table([("All", describe(g)), ("Q1", describe(g))])
        assert t.headers[0] == "network"
        assert len(t.headers) == 14
        assert len(t.rows) == 2
        assert t.rows[0][0] == "All"
        assert t.rows[0][1] == "5"

    def test_fit_table_contents(self):
        fit = sample_fit()
        t = fit_table(fit, "My fit")
        assert t.title == "My fit"
        assert t.headers == (
            "term", "estimate", "std_error", "exp_estimate",
            "p_value", "sig", "note",
        )
        assert [r[0] for r in t.rows] == ["edges", "mutual"]
        est = float(t.rows[0][1])
        assert est == pytest.approx(fit.coefficients[0], abs=5e-4)
        joined = " ".join(t.footers)
        assert "aic" in joined and "bic" in joined and "n_dyads" in joined

    def test_fit_table_marks_dropped_and_separated(self):
        from helpers import simple_table

        table = simple_table(
            tuple("abcd"),
            levels={"team": ("blue", "red")},
            team=("blue",) * 4,
        )
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        spec = parse_terms(("edges", "nodematch(team, red)"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_mple(g, table, spec)
        t = fit_table(fit)
        notes = {row[0]: row[-1] for row in t.rows}
        assert "dropped" in notes["nodematch(team, red)"]
        # dropped rows render blank estimates, not NaN text
        row = [r for r in t.rows if r[0] == "nodematch(team, red)"][0]
        assert row[1] == ""

    def test_btergm_table(self):
        rng = np.random.default_rng(72)
        g = random_graph(rng, 8, 0.35)
        graphs = (g, g, g)
        series = NetworkSeries(8, ("P0", "P1", "P2"), graphs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, boot = fit_btergm(
                series, None, parse_terms(("edges", "mutual")),
                replications=3, seed=0,
            )
        t = btergm_table(boot)
        assert t.headers == (
            "term", "estimate", "boot_se", "exp_estimate",
            "ci_lower", "ci_upper", "sig",
        )
        assert len(t.rows) == 2
        joined = " ".join(t.footers)
        assert "replications: 3" in joined
        assert "seed" in joined
        assert "dropped_terms" not in joined

    def test_btergm_table_names_the_terms_the_point_fit_dropped(self):
        # every node lies on a ring, so no modeled panel has an isolate and
        # the point fit drops the all-zero isolates column
        rng = np.random.default_rng(59)
        ring = {(i, (i + 1) % 10) for i in range(10)}
        graphs = tuple(
            DirectedGraph(10, random_graph(rng, 10, 0.2).edges | ring) for _ in range(3)
        )
        series = NetworkSeries(10, ("P0", "P1", "P2"), graphs)
        spec = parse_terms(("edges", "mutual", "isolates"))
        with pytest.warns(UserWarning, match="all-zero column.*isolates"):
            _, boot = fit_btergm(series, None, spec, replications=5)
        t = btergm_table(boot)
        assert t.rows[2][1:] == ("", "", "", "", "", "")
        assert t.footers[-1] == "dropped_terms: isolates"
        assert sum("dropped_terms" in f for f in t.footers) == 1

    def test_formation_table_footers(self):
        rng = np.random.default_rng(73)
        prev = random_graph(rng, 8, 0.15)
        curr = random_graph(rng, 8, 0.35)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_formation(prev, curr, None, parse_terms(("edges", "mutual")))
        t = formation_table(fit, "Formation", bic_all_dyads=123.456)
        joined = " ".join(t.footers)
        assert "log_likelihood" in joined
        assert "bic_all_dyads: 123.456" in joined

    def test_trace_table(self):
        stats = np.array([[3.0, 1.0], [5.0, 2.0], [4.0, 1.5]])
        t = trace_table(("edges", "mutual"), stats)
        assert t.headers == ("sample", "edges", "mutual")
        assert len(t.rows) == 3
        assert t.rows[1][0] == "1"


class TestRendering:
    def test_text_layout(self):
        t = Table(
            title="Demo",
            headers=("name", "value"),
            rows=(("alpha", "1.000"), ("b", "22.500")),
            footers=("note: x",),
        )
        text = render_text(t)
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert set(lines[1]) == {"="}
        assert set(lines[3]) <= {"-", " "}
        # right-aligned numeric column
        assert lines[4].endswith("1.000")
        assert lines[5].endswith("22.500")
        assert "note: x" in text

    def test_emit_writes_text_plus_machine_format(self, tmp_path):
        fit = sample_fit()
        t = fit_table(fit)
        written = emit(t, tmp_path, "ergm", "csv")
        names = sorted(p.split("/")[-1] for p in written)
        assert names == ["ergm.csv", "ergm.txt"]
        with open(tmp_path / "ergm.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == t.headers
        data = [tuple(r) for r in rows[1:] if not r[0].startswith("#")]
        assert data == [tuple(r) for r in t.rows]

    def test_emit_json_round_trip(self, tmp_path):
        fit = sample_fit()
        t = fit_table(fit)
        emit(t, tmp_path, "ergm", "json")
        with open(tmp_path / "ergm.json") as fh:
            payload = json.load(fh)
        assert payload["title"] == t.title
        assert tuple(payload["headers"]) == t.headers
        assert [tuple(r) for r in payload["rows"]] == [tuple(r) for r in t.rows]
        assert tuple(payload["footers"]) == t.footers

    def test_formats_share_cell_values(self, tmp_path):
        fit = sample_fit()
        t = fit_table(fit)
        emit(t, tmp_path / "a", "ergm", "csv")
        emit(t, tmp_path / "b", "ergm", "json")
        with open(tmp_path / "a" / "ergm.csv", newline="") as fh:
            csv_rows = [
                tuple(r) for r in csv.reader(fh)
            ][1:]
        csv_rows = [r for r in csv_rows if not r[0].startswith("#")]
        with open(tmp_path / "b" / "ergm.json") as fh:
            json_rows = [tuple(r) for r in json.load(fh)["rows"]]
        assert csv_rows == json_rows

    def test_text_never_scrolls_past_reasonable_width(self):
        fit = sample_fit()
        text = render_text(fit_table(fit))
        assert max(len(line) for line in text.splitlines()) < 120
