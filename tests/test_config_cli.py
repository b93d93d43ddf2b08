import argparse
import csv
import dataclasses
import filecmp
import json
import os
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from netergm import NetworkSeries, build_graph, read_json_edgelist
from netergm.cli import _build_parser, main
from netergm.config import (
    CROSS_SECTIONAL_TERMS,
    TEMPORAL_TERMS,
    RunConfig,
    parse_subsample,
)
from netergm.descriptives import CENTRALIZATION_KINDS, centralization
from netergm.errors import ConfigError
from netergm.export import GRAPH_FORMATS, export_graph
from netergm.graph import COMPONENT_MODES, largest_component
from netergm.report import TABLE_FORMATS, Table, emit
from netergm.temporal import BOOTSTRAP_MODES, fit_btergm
from netergm.terms import parse_terms

from helpers import random_graph


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def run_cli(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(list(argv))


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.subsample == "lc"
        assert cfg.format == "csv"
        assert cfg.exclude_facilitators is True
        assert cfg.replications == 100
        assert cfg.horizon == 72
        assert len(cfg.breakpoints) == 4

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 11, "subsample": "active:2"}))
        cfg = RunConfig.from_file(path)
        assert cfg.seed == 11
        assert cfg.subsample == "active:2"
        assert cfg.out_dir == "out"

    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seeed": 11}))
        with pytest.raises(ConfigError, match="seeed"):
            RunConfig.from_file(path)

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            RunConfig.from_file(path)

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            RunConfig.from_file(path)

    def test_from_file_takes_every_default(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dataclasses.asdict(RunConfig())))
        assert RunConfig.from_file(path) == RunConfig()

    @pytest.mark.parametrize(
        "raw, accepted",
        [
            ({"seed": True}, False),
            ({"seed": 1.0}, False),
            ({"tolerance": False}, False),
            ({"tolerance": 0}, True),
            ({"exclude_facilitators": 0}, False),
            ({"breakpoints": None}, False),
            ({"terms": None, "burn_in": None}, True),
            ({"subsample": None}, False),
            ({"theta": [1, 2.5]}, True),
        ],
    )
    def test_from_file_checks_json_types(self, tmp_path, raw, accepted):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        if accepted:
            RunConfig.from_file(path)
        else:
            with pytest.raises(ConfigError, match=repr(next(iter(raw)))):
                RunConfig.from_file(path)

    def test_overrides_ignore_none(self):
        cfg = RunConfig(seed=11, out_dir="a")
        out = cfg.with_overrides(seed=None, out_dir="b", horizon=None)
        assert out.seed == 11
        assert out.out_dir == "b"

    def test_validation(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig(format="yaml")
        with pytest.raises(ConfigError, match="component_mode"):
            RunConfig(component_mode="both")
        with pytest.raises(ConfigError, match="bootstrap_mode"):
            RunConfig(bootstrap_mode="pairs")
        with pytest.raises(ConfigError, match="graph_format"):
            RunConfig(graph_format="gexf")
        with pytest.raises(ConfigError, match="horizon"):
            RunConfig(horizon=0)
        with pytest.raises(ConfigError, match="subsample"):
            RunConfig(subsample="largest")
        with pytest.raises(ConfigError, match="activity threshold"):
            RunConfig(subsample="active:-1")

    def test_sequences_normalized(self):
        cfg = RunConfig(breakpoints=[[1, 10], [11, 20]], theta=[1, -2])
        assert cfg.breakpoints == ((1, 10), (11, 20))
        assert cfg.theta == (1.0, -2.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"theta": ("1", True)}, "'theta'[0] must be a number, got '1'"),
            ({"theta": (1.0, True)}, "'theta'[1] must be a number, got True"),
            ({"theta": ("a",)}, "'theta'[0] must be a number, got 'a'"),
            ({"breakpoints": [1, 2]},
             "'breakpoints'[0] must be a pair of integers, got 1"),
            ({"breakpoints": [[1, "72"]]},
             "'breakpoints'[0][1] must be an integer, got '72'"),
            ({"terms": ["edges", 3]}, "'terms'[1] must be a string, got 3"),
            ({"horizon": 72.0}, "'horizon' must be an integer, got 72.0"),
            ({"exclude_facilitators": 0}, "'exclude_facilitators' must be true or false, got 0"),
            ({"out_dir": None}, "'out_dir' must be a string, got None"),
        ],
    )
    def test_api_values_are_checked_as_config_files_are(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            RunConfig(**kwargs)
        assert str(info.value) == f"config key {message}"

    def test_api_takes_tuples_and_numpy_numbers(self):
        cfg = RunConfig(
            theta=(np.float64(1.5), np.int64(-2)),
            breakpoints=((np.int64(1), 36), (37, 72)),
            terms=("edges", "mutual"),
            horizon=np.int64(72),
            tolerance=np.float32(0.5),
        )
        assert cfg.theta == (1.5, -2.0)
        assert cfg.breakpoints == ((1, 36), (37, 72))
        assert cfg.terms == ("edges", "mutual")
        cfg = RunConfig(theta=np.array([0.5, 1.0]), breakpoints=np.array([[1, 72]]))
        assert cfg.theta == (0.5, 1.0)
        assert cfg.breakpoints == ((1, 72),)

    def test_from_file_names_the_file_in_every_check(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"horizon": 0}))
        with pytest.raises(ConfigError) as info:
            RunConfig.from_file(path)
        assert str(info.value) == f"{path}: horizon must be >= 1, got 0"

    def test_term_batteries(self):
        assert len(CROSS_SECTIONAL_TERMS) == 22
        assert len(TEMPORAL_TERMS) == 23
        assert TEMPORAL_TERMS[4] == "isolates"
        assert set(TEMPORAL_TERMS) - set(CROSS_SECTIONAL_TERMS) == {"isolates"}


def subparsers():
    """The parser of each subcommand, by name."""
    (sub,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


def three_panels():
    rng = np.random.default_rng(57)
    graphs = tuple(random_graph(rng, 5, 0.4) for _ in range(3))
    return NetworkSeries(5, ("P0", "P1", "P2"), graphs)


# each closed option set: its owner tuple, the RunConfig field that takes it
# (None where none does), and a call of the library function that checks it
# as its parameter ``name``
OWNERS = {
    "TABLE_FORMATS": (
        TABLE_FORMATS, "format", "format",
        lambda tmp, v: emit(Table("T", ("a",), (("1",),)), tmp, "t", v),
    ),
    "COMPONENT_MODES": (
        COMPONENT_MODES, "component_mode", "mode",
        lambda tmp, v: largest_component(build_graph(3, [(0, 1)]), mode=v),
    ),
    "BOOTSTRAP_MODES": (
        BOOTSTRAP_MODES, "bootstrap_mode", "mode",
        lambda tmp, v: fit_btergm(
            three_panels(), None, parse_terms(("edges", "mutual")), replications=2, mode=v
        ),
    ),
    "GRAPH_FORMATS": (
        GRAPH_FORMATS, "graph_format", "format",
        lambda tmp, v: export_graph(build_graph(3, [(0, 1)]), None, tmp / "g", v),
    ),
    "CENTRALIZATION_KINDS": (
        CENTRALIZATION_KINDS, None, "kind",
        lambda tmp, v: centralization(build_graph(3, [(0, 1), (1, 2)]), v),
    ),
}


@pytest.mark.parametrize("owner", OWNERS)
def test_every_reader_accepts_exactly_the_owner_tuple(owner, tmp_path):
    choices, field, name, call = OWNERS[owner]
    others = ("bogus", "", choices[0].upper(), f" {choices[0]}", None, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for value in choices:
            call(tmp_path, value)
    for value in others:
        with pytest.raises(ConfigError, match=f"^{name} must be one of {', '.join(choices)}, got"):
            call(tmp_path, value)
    if field is None:
        return
    for value in choices:
        assert getattr(RunConfig(**{field: value}), field) == value
    for value in others:
        with pytest.raises(ConfigError, match=f"^{field} must be one of"):
            RunConfig(**{field: value})
    flag = "--" + field.replace("_", "-")
    readers = 0
    for command, parser in subparsers().items():
        for action in parser._actions:
            if action.dest != field:
                continue
            readers += 1
            assert tuple(action.choices) == choices, (command, flag)
            assert getattr(parser.parse_args([flag, choices[-1]]), field) == choices[-1]
            for value in others[:4]:
                with pytest.raises(SystemExit):
                    parser.parse_args([flag, value])
    assert readers >= 1


class TestParseSubsample:
    def test_grammar(self):
        assert parse_subsample("lc") == ("lc", None)
        assert parse_subsample("none") == ("none", None)
        assert parse_subsample("active") == ("active", 3)
        assert parse_subsample("active:5") == ("active", 5)
        assert parse_subsample(" ACTIVE:2 ") == ("active", 2)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_subsample("biggest")
        with pytest.raises(ConfigError, match="threshold"):
            parse_subsample("active:x")
        with pytest.raises(ConfigError, match=">= 0"):
            parse_subsample("active:-1")


class TestCliCommands:
    def test_describe(self, course_files, tmp_path):
        out = tmp_path / "d"
        code = run_cli(
            "describe",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--out-dir", str(out),
            "--format", "csv",
        )
        assert code == 0
        headers, rows = read_csv(out / "descriptives.csv")
        assert headers[0] == "network"
        assert len(headers) == 14
        assert [r[0] for r in rows] == ["All", "Q1", "Q2", "Q3", "Q4"]
        assert (out / "descriptives.txt").exists()

    def test_fit_with_explicit_terms(self, course_files, tmp_path):
        out = tmp_path / "f"
        code = run_cli(
            "fit",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--terms", "edges, mutual, nodematch(gender)",
            "--out-dir", str(out),
            "--format", "csv",
        )
        assert code == 0
        _, rows = read_csv(out / "ergm.csv")
        assert [r[0] for r in rows] == ["edges", "mutual", "nodematch(gender)"]

    def test_tergm_writes_replicates(self, course_files, tmp_path):
        out = tmp_path / "t"
        code = run_cli(
            "tergm",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--terms", "edges,mutual",
            "--replications", "5",
            "--seed", "3",
            "--out-dir", str(out),
            "--format", "csv",
        )
        assert code == 0
        headers, rows = read_csv(out / "tergm.csv")
        assert headers[0] == "term"
        assert len(rows) == 2
        rep_headers, rep_rows = read_csv(out / "tergm_replicates.csv")
        assert rep_headers == ["replicate", "edges", "mutual"]
        assert len(rep_rows) == 5

    def test_tergm_is_deterministic(self, course_files, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_cli(
                "tergm",
                "--edges", course_files["edges"],
                "--attrs", course_files["attrs"],
                "--terms", "edges,mutual",
                "--replications", "4",
                "--seed", "9",
                "--out-dir", str(out),
                "--format", "csv",
            )
            outs.append(out)
        for name in ("tergm.csv", "tergm_replicates.csv", "tergm.txt"):
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)

    def test_formation_writes_one_file_per_transition(self, course_files, tmp_path):
        out = tmp_path / "fm"
        code = run_cli(
            "formation",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--terms", "edges,mutual",
            "--out-dir", str(out),
            "--format", "csv",
        )
        assert code == 0
        names = sorted(p for p in os.listdir(out) if p.endswith(".csv"))
        assert names == [
            "formation_Q1_to_Q2.csv",
            "formation_Q2_to_Q3.csv",
            "formation_Q3_to_Q4.csv",
        ]

    def test_simulate(self, tmp_path):
        out = tmp_path / "s"
        code = run_cli(
            "simulate",
            "--nodes", "12",
            "--terms", "edges",
            "--theta", "-1",
            "--samples", "3",
            "--burn-in", "200",
            "--thin", "50",
            "--seed", "4",
            "--out-dir", str(out),
        )
        assert code == 0
        samples = sorted(p for p in os.listdir(out) if p.startswith("sample_"))
        assert samples == ["sample_000.csv", "sample_001.csv", "sample_002.csv"]
        headers, rows = read_csv(out / "sample_000.csv")
        assert headers == ["sender_id", "receiver_id", "day"]
        for sender, receiver, _ in rows:
            assert sender.startswith("n") and receiver.startswith("n")
            assert sender != receiver
        assert (out / "trace.txt").exists()

    def test_simulate_requires_model(self, tmp_path, capsys):
        code = run_cli("simulate", "--nodes", "8", "--out-dir", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_export_graphml(self, course_files, tmp_path):
        out = tmp_path / "e"
        code = run_cli(
            "export",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--out-dir", str(out),
        )
        assert code == 0
        root = ET.parse(out / "graph.graphml").getroot()
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        graph = root.find("g:graph", ns)
        assert graph.get("edgedefault") == "directed"
        assert len(graph.findall("g:node", ns)) > 0

    def test_export_json_round_trip(self, course_files, tmp_path):
        path = tmp_path / "net.json"
        code = run_cli(
            "export",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--graph-format", "json-edgelist",
            "--output", str(path),
        )
        assert code == 0
        graph, table = read_json_edgelist(path)
        assert graph.node_count == table.size
        assert set(table.ids) <= set(course_files["participants"])
        assert graph.edge_count > 0

    def test_facilitator_flag_changes_node_count(self, course_files, tmp_path):
        counts = {}
        for label, extra in (("drop", ()), ("keep", ("--include-facilitators",))):
            out = tmp_path / label
            run_cli(
                "describe",
                "--edges", course_files["edges"],
                "--attrs", course_files["attrs"],
                "--subsample", "none",
                "--out-dir", str(out),
                "--format", "csv",
                *extra,
            )
            _, rows = read_csv(out / "descriptives.csv")
            counts[label] = int(rows[0][1])
        assert counts["keep"] == counts["drop"] + len(course_files["staff"])

    def test_active_subsample_shrinks_network(self, course_files, tmp_path):
        counts = {}
        # aggregate mean total degree is around 20, so 21 must drop someone
        for label, sub in (("none", "none"), ("active", "active:21")):
            out = tmp_path / label
            run_cli(
                "describe",
                "--edges", course_files["edges"],
                "--attrs", course_files["attrs"],
                "--subsample", sub,
                "--out-dir", str(out),
                "--format", "csv",
            )
            _, rows = read_csv(out / "descriptives.csv")
            counts[label] = int(rows[0][1])
        assert counts["active"] < counts["none"]

    def test_bare_active_subsample_is_active_3(self, course_files, tmp_path):
        # total degrees a 4, b 3, c 4, d 2, e 1: K = 3 keeps a, b and c
        a, b, c, d, e = course_files["participants"][:5]
        events = tmp_path / "events.csv"
        events.write_text(
            "sender_id,receiver_id,day\n"
            + "".join(
                f"{s},{r},{day}\n"
                for day, (s, r) in enumerate(
                    ((a, b), (b, a), (a, c), (c, a), (b, c), (c, d), (d, e)), 1
                )
            )
        )
        for sub in ("active", "active:3"):
            run_cli(
                "describe",
                "--edges", str(events),
                "--attrs", course_files["attrs"],
                "--subsample", sub,
                "--out-dir", str(tmp_path / sub),
            )
        for name in ("descriptives.csv", "descriptives.txt"):
            assert filecmp.cmp(
                tmp_path / "active" / name, tmp_path / "active:3" / name, shallow=False
            )
        _, rows = read_csv(tmp_path / "active" / "descriptives.csv")
        assert int(rows[0][1]) == 3

    def test_default_format_writes_the_text_and_csv_files(self, course_files, tmp_path):
        for label, extra in (("default", ()), ("csv", ("--format", "csv"))):
            run_cli(
                "describe",
                "--edges", course_files["edges"],
                "--attrs", course_files["attrs"],
                "--out-dir", str(tmp_path / label),
                *extra,
            )
        names = ["descriptives.csv", "descriptives.txt"]
        assert sorted(os.listdir(tmp_path / "default")) == names
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "default", tmp_path / "csv", names, shallow=False
        )
        assert (match, mismatch, errors) == (names, [], [])


class TestCliConfigAndErrors:
    def test_flags_beat_config_file(self, course_files, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "edges": course_files["edges"],
            "attrs": course_files["attrs"],
            "format": "csv",
            "out_dir": str(tmp_path / "from_config"),
        }))
        out = tmp_path / "from_flag"
        code = run_cli(
            "describe",
            "--config", str(cfg_path),
            "--out-dir", str(out),
            "--format", "json",
        )
        assert code == 0
        assert (out / "descriptives.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_config_supplies_required_paths(self, course_files, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "edges": course_files["edges"],
            "attrs": course_files["attrs"],
            "out_dir": str(tmp_path / "o"),
            "format": "csv",
        }))
        assert run_cli("describe", "--config", str(cfg_path)) == 0

    @pytest.mark.parametrize("command", ["describe", "tergm", "formation"])
    def test_horizon_past_the_default_breakpoints_names_them(
        self, course_files, tmp_path, capsys, command
    ):
        code = run_cli(
            command,
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--horizon", "80",
            "--terms", "edges, mutual",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: breakpoints end at day 72, expected horizon 80; "
            "give breakpoints that tile 1..80\n"
        )

    def test_fit_reads_a_horizon_past_the_default_breakpoints(
        self, course_files, tmp_path
    ):
        code = run_cli(
            "fit",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--horizon", "80",
            "--terms", "edges, mutual",
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert (tmp_path / "out" / "ergm.csv").exists()

    def test_tergm_over_two_panels_needs_node_mode(self, course_files, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"breakpoints": [[1, 36], [37, 72]]}))
        argv = (
            "tergm",
            "--config", str(cfg_path),
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--terms", "edges, mutual",
            "--replications", "20",
        )
        assert run_cli(*argv, "--out-dir", str(tmp_path / "temporal")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "use mode='node' or more periods" in err
        out = tmp_path / "node"
        assert run_cli(*argv, "--bootstrap-mode", "node", "--out-dir", str(out)) == 0
        assert any(out.iterdir())

    def test_missing_edges_flag(self, course_files, capsys):
        code = run_cli("describe", "--attrs", course_files["attrs"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--edges" in err

    def test_unreadable_input_file(self, course_files, tmp_path, capsys):
        code = run_cli(
            "describe",
            "--edges", str(tmp_path / "missing.csv"),
            "--attrs", course_files["attrs"],
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_term_reports_error(self, course_files, tmp_path, capsys):
        code = run_cli(
            "fit",
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--terms", "edges,wizardry",
            "--out-dir", str(tmp_path),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key_reports_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"sede": 1}))
        code = run_cli("describe", "--config", str(cfg_path))
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("theta", "1,2", "a list"),
            ("horizon", "72", "an integer"),
            ("terms", "edges, mutual", "a list"),
            ("lagged_tie", "false", "true or false"),
        ],
    )
    def test_config_value_of_the_wrong_json_type_reports_error(
        self, course_files, tmp_path, capsys, key, value, kind
    ):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({key: value}))
        code = run_cli(
            "fit",
            "--config", str(cfg_path),
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--out-dir", str(tmp_path / "out"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {cfg_path}: config key {key!r} must be {kind}, got {value!r}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, raw, message",
        [
            ("simulate", {"theta": ["a"]}, "'theta'[0] must be a number, got 'a'"),
            ("simulate", {"theta": [1, "1"]}, "'theta'[1] must be a number, got '1'"),
            ("simulate", {"theta": [True]}, "'theta'[0] must be a number, got True"),
            ("describe", {"breakpoints": [1, 2]},
             "'breakpoints'[0] must be a pair of integers, got 1"),
            ("describe", {"breakpoints": [[1, 2, 3]]},
             "'breakpoints'[0] must be a pair of integers, got [1, 2, 3]"),
            ("describe", {"breakpoints": [[1, 36], [37, "72"]]},
             "'breakpoints'[1][1] must be an integer, got '72'"),
            ("describe", {"breakpoints": [[1, True]]},
             "'breakpoints'[0][1] must be an integer, got True"),
            ("fit", {"terms": ["edges", 3]}, "'terms'[1] must be a string, got 3"),
        ],
    )
    def test_config_list_entry_of_the_wrong_json_type_reports_error(
        self, course_files, tmp_path, capsys, command, raw, message
    ):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(raw))
        code = run_cli(
            command,
            "--config", str(cfg_path),
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--out-dir", str(tmp_path / "out"),
            *(("--terms", "edges", "--samples", "1") if command == "simulate" else ()),
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg_path}: config key {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("fit", ("--max-iterations", "-1"), "max_iterations must be >= 0"),
            ("fit", ("--tolerance", "nan"), "tolerance must be finite and >= 0"),
            ("tergm", ("--seed", "-1"), "seed must be >= 0"),
        ],
    )
    def test_out_of_range_fit_option_reports_error(
        self, course_files, tmp_path, capsys, command, flags, message
    ):
        code = run_cli(
            command,
            "--edges", course_files["edges"],
            "--attrs", course_files["attrs"],
            "--terms", "edges, mutual",
            "--replications", "2",
            "--out-dir", str(tmp_path),
            *flags,
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}, got {flags[1]}\n"

    def test_every_flag_sets_a_config_field(self):
        known = {f.name for f in dataclasses.fields(RunConfig)}
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {
            "describe", "fit", "tergm", "formation", "simulate", "export"
        }
        for name, command in sub.choices.items():
            dests = {a.dest for a in command._actions} - {"help", "config"}
            assert dests <= known, (name, sorted(dests - known))

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip()
