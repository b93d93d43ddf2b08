"""Reading event logs and participant attributes; assembling networks.

Input files are delimited text, comma or tab, sniffed from the header. The
event log holds one directed interaction per row with a day stamp inside the
observation window; the attribute file holds one participant per row with
categorical columns. Attribute values are validated against declared level
sets so that later homophily terms can rely on a closed vocabulary.
"""

from __future__ import annotations

import csv
import warnings
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    UnknownAttributeError,
    UnknownNodeError,
    ValidationError,
)
from .graph import DirectedGraph, build_graph

__all__ = [
    "InteractionEvent",
    "NodeTable",
    "NetworkSeries",
    "DEFAULT_LEVELS",
    "DEFAULT_HORIZON",
    "QUARTER_BREAKPOINTS",
    "load_events",
    "load_attributes",
    "assemble_network",
    "slice_periods",
]

DEFAULT_HORIZON = 72

# Four course quarters over a 72-day window, inclusive day ranges.
QUARTER_BREAKPOINTS = ((1, 18), (19, 36), (37, 55), (56, 72))

# Declared level sets for the participant attribute columns. Binary flags
# are normalized to Yes/No on load.
DEFAULT_LEVELS = {
    "region": ("International", "Midwest", "Northeast", "South", "West"),
    "country": ("Non-US", "US"),
    "gender": ("Female", "Male"),
    "role": ("Administrator", "Other", "Teacher", "Technology/Media Staff"),
    "grade": ("Generalist", "Post-Secondary", "Primary", "Secondary"),
    "experience": ("11-20", "20+", "<=10"),
    "expert": ("No", "Yes"),
    "willing": ("No", "Yes"),
    "group": ("AC", "DL", "M", "N", "PD", "PS"),
    "facilitator": ("No", "Yes"),
}

_BOOL_ALIASES = {
    "yes": "Yes", "y": "Yes", "true": "Yes", "1": "Yes",
    "no": "No", "n": "No", "false": "No", "0": "No",
}

_BINARY_COLUMNS = ("expert", "willing", "facilitator")


class InteractionEvent(NamedTuple):
    """One directed interaction: sender wrote to receiver on a given day."""

    sender: str
    receiver: str
    day: int


@dataclass(frozen=True)
class NodeTable:
    """Participant attributes, one row per node, aligned with graph indices.

    Parameters
    ----------
    ids : tuple of str
        Participant identifiers in node-index order.
    columns : dict
        Column name -> tuple of per-node string values.
    levels : dict
        Column name -> declared level vocabulary (tuple of str).
    """

    ids: tuple
    columns: dict
    levels: dict

    def __post_init__(self):
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("duplicate participant ids in node table")
        for name, vals in self.columns.items():
            if len(vals) != len(self.ids):
                raise DimensionError(f"column {name!r} length != id count")
            allowed = set(self.levels.get(name, ()))
            bad = sorted({v for v in vals if v not in allowed})
            if bad:
                raise ValidationError(
                    f"column {name!r} has values outside declared levels: {bad}"
                )

    @property
    def size(self) -> int:
        return len(self.ids)

    @cached_property
    def index_of(self) -> dict:
        return {pid: k for k, pid in enumerate(self.ids)}

    def values(self, attr: str) -> tuple:
        try:
            return self.columns[attr]
        except KeyError:
            raise UnknownAttributeError(
                f"attribute {attr!r} not in node table; have {sorted(self.columns)}"
            ) from None

    def codes(self, attr: str) -> np.ndarray:
        """Values of ``attr`` as integer codes into its level vocabulary."""
        vals = self.values(attr)
        lut = {lev: k for k, lev in enumerate(self.levels[attr])}
        return np.array([lut[v] for v in vals], dtype=np.int64)

    def level_code(self, attr: str, level: str) -> int:
        """Resolve one level of ``attr`` case-insensitively to its code."""
        levels = self.levels.get(attr)
        if levels is None:
            self.values(attr)  # raises UnknownAttributeError
        for k, lev in enumerate(levels):
            if lev.lower() == level.lower():
                return k
        raise ConfigError(
            f"level {level!r} not among declared levels of {attr!r}: {list(levels)}"
        )

    def flags(self, attr: str) -> np.ndarray:
        """Boolean vector for a Yes/No column."""
        vals = self.values(attr)
        return np.array([v == "Yes" for v in vals], dtype=bool)

    def restrict(self, ids: Sequence) -> "NodeTable":
        """Rows for ``ids`` in the given order; unknown ids raise."""
        missing = [pid for pid in ids if pid not in self.index_of]
        if missing:
            raise UnknownNodeError(f"ids not in node table: {missing[:5]}")
        rows = [self.index_of[pid] for pid in ids]
        cols = {
            name: tuple(vals[r] for r in rows) for name, vals in self.columns.items()
        }
        return NodeTable(tuple(ids), cols, dict(self.levels))


@dataclass(frozen=True)
class NetworkSeries:
    """An ordered panel of same-node-set snapshots with period labels."""

    node_count: int
    labels: tuple
    graphs: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.graphs):
            raise DimensionError("labels and graphs length mismatch")
        for g in self.graphs:
            if g.node_count != self.node_count:
                raise DimensionError("all panels must share the node set")

    def __len__(self) -> int:
        return len(self.graphs)


def _open_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise ValidationError(f"{path}: empty file")
        fh.seek(0)
        reader = csv.DictReader(fh, delimiter="\t" if "\t" in first else ",")
        yield from enumerate(reader, start=2)  # header is line 1


def load_events(
    path,
    horizon: int = DEFAULT_HORIZON,
) -> list:
    """Read an interaction log into a list of :class:`InteractionEvent`.

    Parameters
    ----------
    path : str or Path
        Delimited text file, comma or tab, sniffed from the header, with
        columns ``sender_id``, ``receiver_id``, ``day``.
    horizon : int
        Last valid day; day stamps must fall in ``1..horizon``.

    Rows with self-interactions are kept here and handled during assembly.
    """
    events = []
    for lineno, row in _open_rows(path):
        try:
            sender = row["sender_id"]
            receiver = row["receiver_id"]
            raw_day = row["day"]
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: missing column {exc}") from None
        if sender is None or receiver is None or raw_day is None:
            raise ValidationError(f"{path}:{lineno}: short row")
        sender = sender.strip()
        receiver = receiver.strip()
        if not sender or not receiver:
            raise ValidationError(f"{path}:{lineno}: blank participant id")
        try:
            day = int(str(raw_day).strip())
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: day {raw_day!r} is not an integer"
            ) from None
        if not 1 <= day <= horizon:
            raise ValidationError(
                f"{path}:{lineno}: day {day} outside 1..{horizon}"
            )
        events.append(InteractionEvent(sender, receiver, day))
    return events


def _normalize_value(column, value):
    v = value.strip()
    if column in _BINARY_COLUMNS:
        return _BOOL_ALIASES.get(v.lower(), v)
    return v


def load_attributes(path, level_config: Mapping | None = None) -> NodeTable:
    """Read the participant table, validating every value against its levels.

    The delimiter is sniffed as for the event log. ``level_config`` maps
    column name -> iterable of allowed levels and defaults to
    :data:`DEFAULT_LEVELS`. The file must carry an ``id`` column plus every
    configured column; extra columns are ignored.
    """
    levels = {
        name: tuple(vals)
        for name, vals in (level_config or DEFAULT_LEVELS).items()
    }
    ids = []
    columns = {name: [] for name in levels}
    seen = set()
    for lineno, row in _open_rows(path):
        pid = (row.get("id") or "").strip()
        if not pid:
            raise ValidationError(f"{path}:{lineno}: missing participant id")
        if pid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate id {pid!r}")
        seen.add(pid)
        ids.append(pid)
        for name in levels:
            raw = row.get(name)
            if raw is None or not raw.strip():
                raise ValidationError(f"{path}:{lineno}: missing value for {name!r}")
            val = _normalize_value(name, raw)
            if val not in levels[name]:
                raise ValidationError(
                    f"{path}:{lineno}: id {pid!r} has unknown {name} level {raw!r}"
                )
            columns[name].append(val)
    return NodeTable(
        tuple(ids),
        {name: tuple(vals) for name, vals in columns.items()},
        levels,
    )


def assemble_network(
    events: Iterable,
    attrs: NodeTable,
    exclude_facilitators: bool = True,
) -> tuple:
    """Aggregate events into one directed graph plus its aligned node table.

    Nodes are the participants that appear in at least one retained event,
    indexed in lexicographic id order. Facilitator-touching events are
    dropped when ``exclude_facilitators`` (the default); self-interactions
    are always dropped, with a counted warning.

    Returns
    -------
    (DirectedGraph, NodeTable)
    """
    events = list(events)
    for ev in events:
        if ev.sender not in attrs.index_of:
            raise UnknownNodeError(f"event sender {ev.sender!r} not in node table")
        if ev.receiver not in attrs.index_of:
            raise UnknownNodeError(f"event receiver {ev.receiver!r} not in node table")
    if exclude_facilitators and "facilitator" in attrs.columns:
        fac = {pid for pid, f in zip(attrs.ids, attrs.flags("facilitator")) if f}
        kept = [e for e in events if e.sender not in fac and e.receiver not in fac]
        if len(kept) != len(events):
            warnings.warn(
                f"dropped {len(events) - len(kept)} facilitator event(s)",
                stacklevel=2,
            )
        events = kept
    selfies = sum(1 for e in events if e.sender == e.receiver)
    if selfies:
        warnings.warn(f"dropped {selfies} self-interaction event(s)", stacklevel=2)
    events = [e for e in events if e.sender != e.receiver]
    node_ids = sorted({e.sender for e in events} | {e.receiver for e in events})
    if not node_ids:
        return DirectedGraph(0, frozenset()), attrs.restrict(())
    idx = {pid: k for k, pid in enumerate(node_ids)}
    pairs = {(idx[e.sender], idx[e.receiver]) for e in events}
    graph = build_graph(len(node_ids), pairs)
    return graph, attrs.restrict(node_ids)


def _validate_breakpoints(breakpoints, horizon):
    if not breakpoints:
        raise ConfigError("at least one period range is required")
    cursor = 1
    for k, (lo, hi) in enumerate(breakpoints):
        if lo != cursor:
            raise ConfigError(
                f"period ranges must tile 1..{horizon}; range {k + 1} starts at "
                f"{lo}, expected {cursor}"
            )
        if hi < lo:
            raise ConfigError(f"period range {k + 1} is empty: ({lo}, {hi})")
        cursor = hi + 1
    if cursor != horizon + 1:
        raise ConfigError(
            f"breakpoints end at day {cursor - 1}, expected horizon {horizon}; "
            f"give breakpoints that tile 1..{horizon}"
        )


def slice_periods(
    events: Iterable,
    attrs: NodeTable,
    breakpoints: Sequence = QUARTER_BREAKPOINTS,
    horizon: int = DEFAULT_HORIZON,
) -> NetworkSeries:
    """Slice events into per-period snapshots over a fixed node set.

    ``attrs`` is the node table of the assembled (and already subsampled)
    network: its ids define the node set of every panel, and events touching
    ids outside it are ignored. A dyad with events in several periods
    contributes an edge to each of them. The periods are labelled ``Q1``,
    ``Q2``, ... in order. An event dated outside ``1..horizon`` raises
    :class:`ValidationError`.
    """
    _validate_breakpoints(breakpoints, horizon)
    idx = attrs.index_of
    per_period = [set() for _ in breakpoints]
    for ev in events:
        if not 1 <= ev.day <= horizon:
            raise ValidationError(
                f"event {ev.sender} -> {ev.receiver} on day {ev.day} lies "
                f"outside the window 1..{horizon}"
            )
        if ev.sender == ev.receiver:
            continue
        si = idx.get(ev.sender)
        ri = idx.get(ev.receiver)
        if si is None or ri is None:
            continue
        for k, (lo, hi) in enumerate(breakpoints):
            if lo <= ev.day <= hi:
                per_period[k].add((si, ri))
                break
    graphs = tuple(
        DirectedGraph(attrs.size, frozenset(pairs)) for pairs in per_period
    )
    labels = tuple(f"Q{k + 1}" for k in range(len(breakpoints)))
    return NetworkSeries(attrs.size, labels, graphs)
