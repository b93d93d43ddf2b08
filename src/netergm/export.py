"""Graph export: GraphML, DOT, and a JSON edge-list that round-trips.

Node identity in exports is the participant id from the node table, never
the internal index, so files remain meaningful next to the raw inputs.
Output is deterministic: nodes in index order, edges sorted.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from .errors import DimensionError, ValidationError, _one_of
from .graph import DirectedGraph
from .ingest import NodeTable

__all__ = ["GRAPH_FORMATS", "export_graph", "read_json_edgelist"]


def _check(g: DirectedGraph, attrs: NodeTable):
    if attrs.size != g.node_count:
        raise DimensionError(
            f"node table has {attrs.size} rows, graph has {g.node_count} nodes"
        )


def _write_graphml(g: DirectedGraph, attrs: NodeTable, path):
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    cols = sorted(attrs.columns)
    for k, name in enumerate(cols):
        ET.SubElement(
            root,
            "key",
            id=f"d{k}",
            attrib={"for": "node", "attr.name": name, "attr.type": "string"},
        )
    graph = ET.SubElement(root, "graph", id="G", edgedefault="directed")
    for idx, pid in enumerate(attrs.ids):
        node = ET.SubElement(graph, "node", id=pid)
        for k, name in enumerate(cols):
            data = ET.SubElement(node, "data", key=f"d{k}")
            data.text = attrs.columns[name][idx]
    for i, j in sorted(g.edges):
        ET.SubElement(graph, "edge", source=attrs.ids[i], target=attrs.ids[j])
    ET.indent(root)
    ET.ElementTree(root).write(path, encoding="unicode", xml_declaration=True)


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_dot(g: DirectedGraph, attrs: NodeTable, path):
    lines = ["digraph G {"]
    cols = sorted(attrs.columns)
    for idx, pid in enumerate(attrs.ids):
        props = ", ".join(
            f"{name}={_dot_quote(attrs.columns[name][idx])}" for name in cols
        )
        lines.append(f"  {_dot_quote(pid)} [{props}];" if props else f"  {_dot_quote(pid)};")
    for i, j in sorted(g.edges):
        lines.append(f"  {_dot_quote(attrs.ids[i])} -> {_dot_quote(attrs.ids[j])};")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json_edgelist(g: DirectedGraph, attrs: NodeTable, path):
    payload = {
        "directed": True,
        "levels": {name: list(vals) for name, vals in sorted(attrs.levels.items())},
        "nodes": [
            {"id": pid, **{name: attrs.columns[name][idx] for name in sorted(attrs.columns)}}
            for idx, pid in enumerate(attrs.ids)
        ],
        "edges": [
            {"source": attrs.ids[i], "target": attrs.ids[j]}
            for i, j in sorted(g.edges)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# each format's writer and file extension
_WRITERS = {
    "graphml": (_write_graphml, "graphml"),
    "dot": (_write_dot, "dot"),
    "json-edgelist": (_write_json_edgelist, "json"),
}
GRAPH_FORMATS = tuple(_WRITERS)


def export_graph(g: DirectedGraph, attrs: NodeTable, path, fmt: str = "graphml"):
    """Write ``g`` with its node attributes to ``path`` in ``fmt``.

    ``attrs`` may be None, in which case nodes get synthetic ids and no
    attribute payload.
    """
    write, _ = _WRITERS[_one_of("format", fmt, GRAPH_FORMATS)]
    if attrs is None:
        ids = tuple(f"n{k:03d}" for k in range(g.node_count))
        attrs = NodeTable(ids, {}, {})
    _check(g, attrs)
    write(g, attrs, path)


def read_json_edgelist(path) -> tuple:
    """Read a json-edgelist export back into (DirectedGraph, NodeTable).

    A file that is not such an export raises a ValidationError naming it.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: a json-edgelist must be a JSON object")
    if not payload.get("directed", False):
        raise ValidationError(f"{path}: only directed graphs are supported")
    levels = payload.get("levels", {})
    if not isinstance(levels, dict) or not all(
        isinstance(vals, list) for vals in levels.values()
    ):
        raise ValidationError(f"{path}: 'levels' must be an object of lists")
    for what, keys in (("nodes", ("id",)), ("edges", ("source", "target"))):
        items = payload.get(what, [])
        if not isinstance(items, list):
            raise ValidationError(f"{path}: {what!r} must be a list")
        for k, item in enumerate(items):
            if not isinstance(item, dict) or any(key not in item for key in keys):
                need = " and ".join(repr(key) for key in keys)
                raise ValidationError(f"{path}: {what}[{k}] must be an object with {need}")
    nodes = payload.get("nodes", [])
    ids = tuple(str(n["id"]) for n in nodes)
    levels = {name: tuple(vals) for name, vals in levels.items()}
    columns = {
        name: tuple(str(n.get(name, "")) for n in nodes) for name in levels
    }
    try:
        table = NodeTable(ids, columns, levels)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    idx = table.index_of
    pairs = set()
    for e in payload.get("edges", []):
        src, dst = str(e["source"]), str(e["target"])
        if src not in idx or dst not in idx:
            raise ValidationError(f"{path}: edge endpoint missing from nodes")
        if src == dst:
            raise ValidationError(f"{path}: loop edge on node {src!r}")
        pairs.add((idx[src], idx[dst]))
    return DirectedGraph(len(ids), frozenset(pairs)), table
