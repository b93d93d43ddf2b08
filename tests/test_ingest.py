import numpy as np
import pytest

from netergm import (
    ConfigError,
    InteractionEvent,
    UnknownAttributeError,
    UnknownNodeError,
    ValidationError,
    assemble_network,
    load_attributes,
    load_events,
    slice_periods,
)
from netergm.ingest import DEFAULT_LEVELS
from helpers import simple_table


TEAM_LEVELS = {"team": ("blue", "red"), "facilitator": ("No", "Yes")}


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadEvents:
    def test_comma_and_tab_files(self, tmp_path):
        c = write(tmp_path / "c.csv", "sender_id,receiver_id,day\na,b,3\nb,a,70\n")
        t = write(tmp_path / "t.tsv", "sender_id\treceiver_id\tday\na\tb\t3\nb\ta\t70\n")
        for path in (c, t):
            events = load_events(path)
            assert events == [
                InteractionEvent("a", "b", 3),
                InteractionEvent("b", "a", 70),
            ]

    def test_missing_column(self, tmp_path):
        p = write(tmp_path / "x.csv", "sender_id,day\na,3\n")
        with pytest.raises(ValidationError, match="receiver_id"):
            load_events(p)

    def test_blank_id_reports_line(self, tmp_path):
        p = write(tmp_path / "x.csv", "sender_id,receiver_id,day\na,b,3\n,b,4\n")
        with pytest.raises(ValidationError, match=r"x\.csv:3"):
            load_events(p)

    def test_non_integer_day_reports_line(self, tmp_path):
        p = write(tmp_path / "x.csv", "sender_id,receiver_id,day\na,b,oops\n")
        with pytest.raises(ValidationError, match=r"x\.csv:2"):
            load_events(p)

    def test_day_outside_horizon(self, tmp_path):
        p = write(tmp_path / "x.csv", "sender_id,receiver_id,day\na,b,73\n")
        with pytest.raises(ValidationError, match="73"):
            load_events(p)
        p2 = write(tmp_path / "y.csv", "sender_id,receiver_id,day\na,b,0\n")
        with pytest.raises(ValidationError):
            load_events(p2)
        # a shorter horizon tightens the bound
        p3 = write(tmp_path / "z.csv", "sender_id,receiver_id,day\na,b,20\n")
        with pytest.raises(ValidationError):
            load_events(p3, horizon=10)

    def test_self_events_are_kept_at_load_time(self, tmp_path):
        p = write(tmp_path / "x.csv", "sender_id,receiver_id,day\na,a,3\n")
        assert load_events(p) == [InteractionEvent("a", "a", 3)]


class TestLoadAttributes:
    def test_default_vocabulary(self, tmp_path):
        cols = list(DEFAULT_LEVELS)
        header = "id," + ",".join(cols)
        row = "p1," + ",".join(DEFAULT_LEVELS[c][0] for c in cols)
        p = write(tmp_path / "a.csv", header + "\n" + row + "\n")
        table = load_attributes(p)
        assert table.ids == ("p1",)
        assert table.values("region") == ("International",)

    def test_custom_level_config(self, tmp_path):
        p = write(tmp_path / "a.csv", "id,team,facilitator\na,red,no\nb,blue,YES\n")
        table = load_attributes(p, level_config=TEAM_LEVELS)
        assert table.values("team") == ("red", "blue")
        # boolean-ish spellings normalize to the declared Yes/No levels
        assert table.values("facilitator") == ("No", "Yes")
        np.testing.assert_array_equal(table.flags("facilitator"), [False, True])

    def test_boolean_aliases(self, tmp_path):
        p = write(
            tmp_path / "a.csv",
            "id,facilitator\na,true\nb,0\nc,y\nd,FALSE\n",
        )
        table = load_attributes(p, level_config={"facilitator": ("No", "Yes")})
        assert table.values("facilitator") == ("Yes", "No", "Yes", "No")

    def test_unknown_level_reports_line(self, tmp_path):
        p = write(tmp_path / "a.csv", "id,team,facilitator\na,red,No\nb,green,No\n")
        with pytest.raises(ValidationError, match=r"a\.csv:3"):
            load_attributes(p, level_config=TEAM_LEVELS)

    def test_duplicate_id(self, tmp_path):
        p = write(tmp_path / "a.csv", "id,team,facilitator\na,red,No\na,blue,No\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_attributes(p, level_config=TEAM_LEVELS)

    def test_missing_value(self, tmp_path):
        p = write(tmp_path / "a.csv", "id,team,facilitator\na,,No\n")
        with pytest.raises(ValidationError, match="team"):
            load_attributes(p, level_config=TEAM_LEVELS)


class TestNodeTable:
    def test_codes_and_levels(self):
        t = simple_table(("a", "b", "c"), team=("red", "blue", "red"))
        np.testing.assert_array_equal(t.codes("team"), [1, 0, 1])
        assert t.level_code("team", "RED") == 1

    def test_unknown_column(self):
        t = simple_table(("a",), team=("red",))
        with pytest.raises(UnknownAttributeError):
            t.values("height")

    def test_unknown_level(self):
        t = simple_table(("a",), team=("red",))
        with pytest.raises(ConfigError):
            t.level_code("team", "green")

    def test_restrict_preserves_order_and_levels(self):
        t = simple_table(("a", "b", "c"), team=("red", "blue", "red"))
        sub = t.restrict(("c", "a"))
        assert sub.ids == ("c", "a")
        assert sub.values("team") == ("red", "red")
        assert sub.levels["team"] == t.levels["team"]

    def test_restrict_unknown_id(self):
        t = simple_table(("a",), team=("red",))
        with pytest.raises(UnknownNodeError):
            t.restrict(("zz",))

    def test_index_of(self):
        t = simple_table(("a", "b"), team=("red", "blue"))
        assert t.index_of == {"a": 0, "b": 1}
        assert t.size == 2


def course_table():
    return simple_table(
        ("a", "b", "c", "f1"),
        facilitator=("No", "No", "No", "Yes"),
    )


class TestAssembleNetwork:
    def test_basic_assembly_sorted_ids(self):
        events = [
            InteractionEvent("c", "a", 1),
            InteractionEvent("a", "b", 2),
            InteractionEvent("c", "a", 30),
        ]
        g, table = assemble_network(events, course_table())
        assert table.ids == ("a", "b", "c")
        assert g.edges == frozenset({(2, 0), (0, 1)})

    def test_facilitator_events_dropped_with_warning(self):
        events = [
            InteractionEvent("a", "b", 1),
            InteractionEvent("f1", "a", 2),
            InteractionEvent("b", "f1", 3),
        ]
        with pytest.warns(UserWarning, match="facilitator"):
            g, table = assemble_network(events, course_table())
        assert table.ids == ("a", "b")
        assert g.edge_count == 1

    def test_facilitators_kept_when_asked(self):
        events = [
            InteractionEvent("a", "b", 1),
            InteractionEvent("f1", "a", 2),
        ]
        g, table = assemble_network(events, course_table(), exclude_facilitators=False)
        assert "f1" in table.ids
        assert g.edge_count == 2

    def test_self_events_warned_and_dropped(self):
        events = [InteractionEvent("a", "a", 1), InteractionEvent("a", "b", 2)]
        with pytest.warns(UserWarning, match="self"):
            g, _ = assemble_network(events, course_table())
        assert g.edge_count == 1

    def test_unknown_sender(self):
        with pytest.raises(UnknownNodeError, match="zz"):
            assemble_network([InteractionEvent("zz", "a", 1)], course_table())

    def test_all_events_excluded_gives_empty_graph(self):
        events = [InteractionEvent("f1", "a", 1)]
        with pytest.warns(UserWarning):
            g, table = assemble_network(events, course_table())
        assert g.node_count == 0
        assert table.size == 0


class TestSlicePeriods:
    def test_quarter_boundaries(self):
        table = course_table()
        events = [
            InteractionEvent("a", "b", 1),
            InteractionEvent("a", "c", 18),
            InteractionEvent("b", "c", 19),
            InteractionEvent("b", "a", 36),
            InteractionEvent("c", "a", 37),
            InteractionEvent("c", "b", 55),
            InteractionEvent("a", "b", 56),
            InteractionEvent("b", "c", 72),
        ]
        series = slice_periods(events, table)
        assert series.labels == ("Q1", "Q2", "Q3", "Q4")
        counts = [g.edge_count for g in series.graphs]
        assert counts == [2, 2, 2, 2]
        assert series.graphs[0].has_edge(0, 2)  # day 18 lands in Q1
        assert series.graphs[1].has_edge(1, 2)  # day 19 lands in Q2

    def test_repeated_contact_within_period_is_one_edge(self):
        table = course_table()
        events = [InteractionEvent("a", "b", d) for d in (2, 3, 4)]
        series = slice_periods(events, table)
        assert series.graphs[0].edge_count == 1

    def test_breakpoints_must_tile_horizon(self):
        table = course_table()
        ev = [InteractionEvent("a", "b", 1)]
        for bad in (
            ((1, 18), (20, 72)),        # gap
            ((1, 18), (18, 72)),        # overlap
            ((1, 18), (19, 71)),        # short of the horizon
            ((2, 18), (19, 72)),        # late start
        ):
            with pytest.raises(ConfigError):
                slice_periods(ev, table, breakpoints=bad)

    def test_an_event_outside_the_window_names_its_day(self):
        table = course_table()
        for day in (0, 90):
            events = [InteractionEvent("a", "b", 1), InteractionEvent("b", "c", day)]
            with pytest.raises(
                ValidationError, match=rf"b -> c on day {day} lies outside the window 1\.\.72"
            ):
                slice_periods(events, table)
        # the same event lies inside a longer window
        series = slice_periods(
            [InteractionEvent("b", "c", 90)], table, ((1, 50), (51, 100)), horizon=100
        )
        assert [g.edge_count for g in series.graphs] == [0, 1]

    def test_union_of_periods_matches_aggregate(self):
        rng = np.random.default_rng(5)
        ids = tuple(f"n{k}" for k in range(10))
        table = simple_table(ids, facilitator=tuple("No" for _ in ids))
        events = [
            InteractionEvent(
                ids[rng.integers(0, 10)], ids[rng.integers(0, 10)],
                int(rng.integers(1, 73)),
            )
            for _ in range(120)
        ]
        events = [e for e in events if e.sender != e.receiver]
        series = slice_periods(events, table)
        union = set()
        for g in series.graphs:
            union |= set(g.edges)
        agg, agg_table = assemble_network(events, table)
        # same id universe, so indices line up
        assert agg_table.ids == table.ids
        assert union == set(agg.edges)

    def test_ignores_ids_missing_from_table(self):
        table = course_table()
        events = [
            InteractionEvent("a", "b", 1),
            InteractionEvent("ghost", "a", 2),
        ]
        series = slice_periods(events, table)
        assert series.graphs[0].edge_count == 1
