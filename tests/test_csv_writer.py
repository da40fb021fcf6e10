"""The panel and ground-truth CSV writers: files that read back as written,
and the stdlib csv writer's bytes wherever that writer's output reads back."""

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reviewaudit import ReviewRecord, SimulationConfig, inject_review_change
from reviewaudit import report
from reviewaudit.model import FIELDS, RecordColumns
from reviewaudit.report import (
    _quoted,
    ingest_csv,
    ingest_csv_groups,
    read_ground_truth_csv,
    write_ground_truth_csv,
    write_panel_csv,
)

from _helpers import rec, traced_peak

QUOTE_NEEDING = ["x,y", 'say "hi"', "two\nlines", "p\r1", "a\r\nb", '"', ","]
PLAIN = ["a", "p1", "Zürich", "中文", "r 2"]


def _labels(alphabet: str) -> st.SearchStrategy[str]:
    """Non-blank labels over alphabet that ingest keeps as they are: it
    strips surrounding whitespace."""
    drawn = st.text(alphabet, min_size=1, max_size=5).filter(
        lambda s: s == s.strip() and s != "")
    fixed = [s for s in QUOTE_NEEDING + PLAIN if set(s) <= set(alphabet)]
    return st.one_of(st.sampled_from(fixed), drawn)


ROUND_TRIP_LABELS = _labels('ab1,"\n\r éü中')
STDLIB_LABELS = _labels('ab1,"\n éü中')  # csv.writer leaves a bare CR unquoted


def _records(labels) -> st.SearchStrategy[list[ReviewRecord]]:
    record = st.builds(
        ReviewRecord, labels, labels, labels, labels, labels,
        st.none() | labels, st.none() | st.integers(-3, 12),
    )
    return st.lists(record, min_size=1, max_size=12)


def _panels(labels) -> st.SearchStrategy[list[tuple[str, list[ReviewRecord]]]]:
    """One to three panels under distinct group names."""
    return st.lists(labels, min_size=1, max_size=3, unique=True).flatmap(
        lambda groups: st.tuples(*(st.tuples(st.just(g), _records(labels)) for g in groups))
    ).map(list)


def _written(panels) -> str:
    stream = io.StringIO()
    write_panel_csv(stream, panels)
    return stream.getvalue()


def _assert_same_columns(got: RecordColumns, records: list[ReviewRecord]) -> None:
    want = RecordColumns.from_records(records)
    got = got.compact()
    assert got.labels == want.labels
    for got_codes, want_codes in zip(got.codes, want.codes):
        np.testing.assert_array_equal(got_codes, want_codes)


class TestQuoted:
    @pytest.mark.parametrize("value, field", [
        (None, ""), ("", ""), ("a b", "a b"), (7, "7"), (-1, "-1"),
        ("x,y", '"x,y"'), ('say "hi"', '"say ""hi"""'), ("two\nlines", '"two\nlines"'),
        ("p\r1", '"p\r1"'), ("a\r\nb", '"a\r\nb"'),
    ])
    def test_field(self, value, field):
        assert _quoted(value) == field


class TestRoundTrip:
    def test_bare_cr_label_reads_back(self):
        records = [rec("p\r1", "r1", "q1", "yes"), rec("p2", "r\r1", "q1", "n\ro")]
        _assert_same_columns(ingest_csv(io.StringIO(_written([(None, records)]))), records)

    def test_through_a_file(self, tmp_path):
        records = [rec("a\r\nb", "r,1", 'q"1', "yes", "o\rk", team="t\n1", period=2)]
        path = tmp_path / "panel.csv"
        with open(path, "w", encoding="utf-8", newline="") as stream:
            write_panel_csv(stream, [(None, records)])
        _assert_same_columns(ingest_csv(str(path)), records)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_records(ROUND_TRIP_LABELS))
    @example([rec("p\r1", "r1", "q1", "yes", "ok", team=None, period=None)])
    def test_panel_without_group(self, records):
        _assert_same_columns(ingest_csv(io.StringIO(_written([(None, records)]))), records)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_panels(ROUND_TRIP_LABELS))
    def test_panels_with_group(self, panels):
        groups = ingest_csv_groups(io.StringIO(_written(panels)))
        assert list(groups) == [group for group, _ in panels]
        for group, records in panels:
            _assert_same_columns(groups[group], records)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.dictionaries(ROUND_TRIP_LABELS, ROUND_TRIP_LABELS, min_size=1, max_size=10))
    @example({"p\r1": "a\rb", "p2": "ok"})
    def test_ground_truth(self, truth):
        stream = io.StringIO()
        write_ground_truth_csv(stream, truth)
        assert read_ground_truth_csv(io.StringIO(stream.getvalue())) == truth

    def test_surrounding_whitespace_is_stripped(self):
        records = [rec(" p1 ", "r1\t", "q1", " yes", "ok", team="  t1 ", period=3)]
        text = _written([(" g ", records)])
        assert text.splitlines()[1] == " p1 ,r1\t,q1, yes,ok,  t1 ,3, g "
        assert ingest_csv_groups(io.StringIO(text))["g"][0] == rec(
            "p1", "r1", "q1", "yes", "ok", team="t1", period=3)
        stream = io.StringIO()
        write_ground_truth_csv(stream, {" p1 ": " ok "})
        assert read_ground_truth_csv(io.StringIO(stream.getvalue())) == {"p1": "ok"}


def _stdlib_panel_csv(panels) -> str:
    """The panel as csv.writer writes it, row by row from record objects."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    with_group = any(group is not None for group, _ in panels)
    writer.writerow(FIELDS + (("group",) if with_group else ()))
    for group, records in panels:
        for record in records:
            row = list(dataclasses.astuple(record))
            writer.writerow(row + [group] if with_group else row)
    return stream.getvalue()


class TestStdlibBytes:
    @pytest.mark.parametrize("panels", [
        [],
        [(None, [])],
        [("control", [])],
        [(None, [rec("p1", "r1", "q1", "yes")]), ("a,b", [rec("p2", "r1", "q1", "no", period=0)])],
        [("control", [rec("p1", "r1", "q1", "yes", team="t", period=1)]),
         (None, [rec("p2", "r2", "q2", "no", period=None)])],
        [(None, [rec("p1", "r1", "q1", "yes", "ok", team="t"),
                 rec("p,2", "r1", "q1", 'say "no"', "o\nk", team="t,2", period=3),
                 rec("p3", "r1", "q1", "no", "ok", period=-1)])],
    ], ids=["no-panels", "empty", "empty-group", "group-with-comma", "mixed-groups",
            "some-labels-quoted"])
    def test_edges(self, panels):
        assert _written(panels) == _stdlib_panel_csv(panels)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_panels(STDLIB_LABELS), st.booleans(), st.booleans())
    def test_panels(self, panels, as_columns, named):
        panels = [(group if named else None,
                   RecordColumns.from_records(records) if as_columns else records)
                  for group, records in panels]
        assert _written(panels) == _stdlib_panel_csv(panels)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.dictionaries(STDLIB_LABELS, STDLIB_LABELS, max_size=10))
    @example({"p1": "ok", "p,2": "ok", 'p"3': "fl,ag", "p4": "flag", "p5": "fl,ag"})
    def test_ground_truth(self, truth):
        stream = io.StringIO()
        write_ground_truth_csv(stream, truth)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["product_id", "classification"])
        writer.writerows(sorted(truth.items()))
        assert stream.getvalue() == expected.getvalue()


# UTF-8 widths of 1 to 4 bytes a character, and NUL, which is a byte the
# fixed-width batches pad with.
WIDE_LABELS = _labels('a1,"\n éü中€😀\x00')


def _batch_panels() -> st.SearchStrategy[list[tuple[str | None, list[ReviewRecord]]]]:
    """Up to three panels, some empty, under named or unnamed groups."""
    record = st.builds(
        ReviewRecord, WIDE_LABELS, WIDE_LABELS, WIDE_LABELS, WIDE_LABELS, WIDE_LABELS,
        st.none() | WIDE_LABELS, st.none() | st.integers(-3, 12),
    )
    return st.lists(st.tuples(st.none() | WIDE_LABELS, st.lists(record, max_size=12)), max_size=3)


class TestBatches:
    """Rows are built _WRITE_BATCH at a time from fixed-width fields; with
    batches of a few rows, every edge falls inside the drawn panels."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_batch_panels(), st.integers(1, 5), st.booleans())
    @example(  # widths differ within a column and a batch; team and period never None
        [("g,1", [rec("p1", "r1", "q1", "a", "c", team="t", period=1),
                  rec("p€2", "r1", "q10", "ü", "c,1", team="t", period=12),
                  rec("p😀", "r2", "q1", "a", "c", team="t", period=1)])], 2, False)
    @example([(None, [rec("p1", "r1", "q1", "a"), rec("p22", "r1", "q1", "b")])], 1, True)
    @example([("control", []), ("a\n\"b\"", [rec("p1", "r1", "q1", "a")])], 5, False)
    def test_panels(self, panels, batch, blank_team):
        if blank_team:
            panels = [(group, [dataclasses.replace(r, team=None) for r in records])
                      for group, records in panels]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report, "_WRITE_BATCH", batch)
            assert _written(panels) == _stdlib_panel_csv(panels)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.dictionaries(WIDE_LABELS, WIDE_LABELS, max_size=12), st.integers(1, 5))
    def test_ground_truth(self, truth, batch):
        stream = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report, "_WRITE_BATCH", batch)
            write_ground_truth_csv(stream, truth)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["product_id", "classification"])
        writer.writerows(sorted(truth.items()))
        assert stream.getvalue() == expected.getvalue()


def test_memory_holds_about_one_batch(tmp_path):
    # A treated/control pair at the criterion-10 shape, four panels of
    # 41,256 records (7.1 MB of CSV): besides the label tables, the writer
    # holds one batch's rows, keep-mask and text at a time.
    config = SimulationConfig.from_dict({
        "n_products": 1528, "n_reviewers": 3, "anchoring": 0.2, "seed": 5,
        "questions": [{"id": f"q{i + 1}", "n_categories": 2, "difficulty": 0.05 * (i + 1)}
                      for i in range(9)],
        "treatment": {"change_period": 1, "error_rate_delta": 0.08},
    })
    pair = inject_review_change(config)
    panels = [("control", pair.control.records), ("treated", pair.treated.records)]
    path = tmp_path / "panel.csv"
    with open(path, "w", encoding="utf-8", newline="") as stream:
        _, peak = traced_peak(lambda: write_panel_csv(stream, panels))
    assert path.read_bytes().count(b"\n") == 1 + 4 * 1528 * 3 * 9
    assert peak <= 2 << 20
