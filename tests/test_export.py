import json
import xml.etree.ElementTree as ET

import pytest

from netergm import build_graph, export_graph, read_json_edgelist
from netergm.errors import ConfigError, DimensionError, ValidationError
from helpers import DEMO_OUTPUT, simple_table, with_bom

NS = {"g": "http://graphml.graphdrawing.org/xmlns"}


def fixture_graph():
    g = build_graph(4, [(0, 1), (1, 0), (1, 2), (3, 0)])
    table = simple_table(
        ("p1", "p2", "p3", "p4"),
        levels={"role": ("Student", "Teacher"), "team": ("blue", "red")},
        role=("Teacher", "Student", "Student", "Teacher"),
        team=("red", "blue", "blue", "red"),
    )
    return g, table


class TestGraphml:
    def test_structure(self, tmp_path):
        g, table, path = *fixture_graph(), tmp_path / "net.graphml"
        export_graph(g, table, path, "graphml")
        tree = ET.parse(path)
        root = tree.getroot()
        keys = root.findall("g:key", NS)
        assert [k.get("attr.name") for k in keys] == ["role", "team"]
        assert all(k.get("for") == "node" for k in keys)
        graph = root.find("g:graph", NS)
        assert graph.get("edgedefault") == "directed"
        nodes = graph.findall("g:node", NS)
        assert [n.get("id") for n in nodes] == ["p1", "p2", "p3", "p4"]
        by_key = {k.get("attr.name"): k.get("id") for k in keys}
        first = {d.get("key"): d.text for d in nodes[0].findall("g:data", NS)}
        assert first[by_key["role"]] == "Teacher"
        assert first[by_key["team"]] == "red"

    def test_edges_sorted_and_directed(self, tmp_path):
        g, table, path = *fixture_graph(), tmp_path / "net.graphml"
        export_graph(g, table, path, "graphml")
        graph = ET.parse(path).getroot().find("g:graph", NS)
        edges = [
            (e.get("source"), e.get("target"))
            for e in graph.findall("g:edge", NS)
        ]
        assert edges == [("p1", "p2"), ("p2", "p1"), ("p2", "p3"), ("p4", "p1")]

    def test_without_attribute_table(self, tmp_path):
        g = build_graph(3, [(0, 2)])
        path = tmp_path / "bare.graphml"
        export_graph(g, None, path, "graphml")
        root = ET.parse(path).getroot()
        assert root.findall("g:key", NS) == []
        graph = root.find("g:graph", NS)
        ids = [n.get("id") for n in graph.findall("g:node", NS)]
        assert ids == ["n000", "n001", "n002"]
        edge = graph.find("g:edge", NS)
        assert (edge.get("source"), edge.get("target")) == ("n000", "n002")


class TestDot:
    def test_mutual_dyad_gets_two_statements(self, tmp_path):
        g, table, path = *fixture_graph(), tmp_path / "net.dot"
        export_graph(g, table, path, "dot")
        text = path.read_text()
        assert text.startswith("digraph G {")
        assert text.rstrip().endswith("}")
        assert '"p1" -> "p2";' in text
        assert '"p2" -> "p1";' in text
        assert text.count("->") == 4

    def test_node_statements_carry_attributes(self, tmp_path):
        g, table, path = *fixture_graph(), tmp_path / "net.dot"
        export_graph(g, table, path, "dot")
        lines = path.read_text().splitlines()
        node_lines = [l for l in lines if "[" in l]
        assert len(node_lines) == 4
        assert '  "p1" [role="Teacher", team="red"];' in lines

    def test_quoting_of_awkward_ids(self, tmp_path):
        g = build_graph(2, [(0, 1)])
        table = simple_table(('he said "hi"', "back\\slash"))
        path = tmp_path / "odd.dot"
        export_graph(g, table, path, "dot")
        text = path.read_text()
        assert '"he said \\"hi\\""' in text
        assert '"back\\\\slash"' in text


class TestJsonEdgelist:
    def test_round_trip(self, tmp_path):
        g, table, path = *fixture_graph(), tmp_path / "net.json"
        export_graph(g, table, path, "json-edgelist")
        g2, table2 = read_json_edgelist(path)
        assert g2.node_count == g.node_count
        assert g2.edges == g.edges
        assert table2.ids == table.ids
        assert table2.levels == table.levels
        assert table2.columns == table.columns

    def test_a_byte_order_mark_reads_like_the_original(self, tmp_path):
        source = DEMO_OUTPUT / "cli" / "network.json"
        g, table = read_json_edgelist(with_bom(source, tmp_path / "network.json"))
        assert (g, table) == read_json_edgelist(source)

    def test_payload_shape(self, tmp_path):
        g, table, path = *fixture_graph(), tmp_path / "net.json"
        export_graph(g, table, path, "json-edgelist")
        payload = json.loads(path.read_text())
        assert payload["directed"] is True
        assert payload["nodes"][0] == {"id": "p1", "role": "Teacher", "team": "red"}
        assert payload["edges"][0] == {"source": "p1", "target": "p2"}

    def test_rejects_undirected_payload(self, tmp_path):
        path = tmp_path / "undirected.json"
        path.write_text(json.dumps({"directed": False, "nodes": [], "edges": []}))
        with pytest.raises(ValidationError, match="directed"):
            read_json_edgelist(path)

    def test_rejects_dangling_edge_endpoint(self, tmp_path):
        payload = {
            "directed": True,
            "levels": {},
            "nodes": [{"id": "a"}, {"id": "b"}],
            "edges": [{"source": "a", "target": "ghost"}],
        }
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="endpoint"):
            read_json_edgelist(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"directed": true, "nodes": [', "invalid JSON"),
            ("[1, 2]", "must be a JSON object"),
            ('{"directed": true, "nodes": [{"id": "a"}, {"role": "x"}]}',
             "nodes[1] must be an object with 'id'"),
            ('{"directed": true, "nodes": [{"id": "a"}, {"id": "b"}],'
             ' "edges": [{"source": "a"}]}',
             "edges[0] must be an object with 'source' and 'target'"),
            ('{"directed": true, "nodes": [{"id": "a"}, {"id": "b"}],'
             ' "edges": [{"source": "a", "target": "b"}, {"target": "a"}]}',
             "edges[1] must be an object with 'source' and 'target'"),
        ],
        ids=["bad-json", "top-level-list", "node-without-id", "edge-without-target",
             "edge-without-source"],
    )
    def test_malformed_file_raises_validation_error_naming_it(
        self, tmp_path, text, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_json_edgelist(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"levels": [1]}, "'levels' must be an object of lists"),
            ({"levels": {"role": 5}}, "'levels' must be an object of lists"),
            ({"edges": 3}, "'edges' must be a list"),
            ({"nodes": {"a": 1}}, "'nodes' must be a list"),
        ],
        ids=["levels-list", "level-not-a-list", "edges-number", "nodes-object"],
    )
    def test_malformed_container_raises_validation_error_naming_the_key(
        self, tmp_path, payload, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"directed": True, **payload}))
        with pytest.raises(ValidationError) as info:
            read_json_edgelist(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"nodes": [{"id": "a"}, {"id": "a"}]}, "duplicate participant ids"),
            ({"levels": {"role": ["x"]}, "nodes": [{"id": "a", "role": "x"}, {"id": "b"}]},
             "column 'role' has values outside declared levels"),
            ({"nodes": [{"id": "a"}, {"id": "b"}], "edges": [{"source": "a", "target": "a"}]},
             "loop edge on node 'a'"),
        ],
        ids=["duplicate-id", "missing-level-value", "self-loop"],
    )
    def test_inconsistent_payload_raises_validation_error_naming_it(
        self, tmp_path, payload, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"directed": True, **payload}))
        with pytest.raises(ValidationError) as info:
            read_json_edgelist(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)


class TestErrors:
    def test_unknown_format(self, tmp_path):
        g, table, _ = *fixture_graph(), None
        with pytest.raises(ConfigError, match="format"):
            export_graph(g, table, tmp_path / "x", "yaml")

    def test_table_size_must_match_graph(self, tmp_path):
        g, _, _ = *fixture_graph(), None
        small = simple_table(("p1", "p2"))
        with pytest.raises(DimensionError):
            export_graph(g, small, tmp_path / "x.graphml", "graphml")
