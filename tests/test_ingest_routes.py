"""The two routes of review CSV ingest: bytes read by blocks with numpy
(a regular file, or a pipe's bytes or a stream's text copied into a
temporary file), and the csv module, which reads the bytes the block reader
hands back. Both must give the same codes, label tables and summaries, or
the same error."""

import codecs
import csv
import io
import os
import random
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reviewaudit import (CsvFormatError, QuestionSpec, ReviewRecord, SimulationConfig, ingest_csv,
                         simulate_panel, validate_dataset)
from reviewaudit import report
from reviewaudit.model import REQUIRED_FIELDS
from reviewaudit.report import ingest_csv_groups, write_panel_csv

from _helpers import csv_outcome, read_outcome, traced_peak

# Labels of one to 27 bytes, so a column holds several widths and fields on
# both sides of the 8-byte key and of a 24-character field size limit; some
# strip to another one.
LABELS = ["p1", "a", "r 2", "ab", "reject", "rejected", "rejection-pending", "Zürich",
          "中文标签", "中文标签中文标签中", "abcdefgh", "abcdefghi", " p1 ", "p1\t", "\u00a0a",
          "a-label-over-24-bytes-long"]
PERIODS = ["", " ", "1", " 7 ", "+3", "-2", "1_0", "0", "٣"]
FIELD = {name: st.sampled_from(LABELS) for name in REQUIRED_FIELDS} | {
    "period": st.sampled_from(PERIODS),
    "team": st.sampled_from(LABELS + ["", " "]),
    "group": st.sampled_from(["treated", "control", " treated", "Kontrollgruppe-ü"]),
    "extra": st.sampled_from(LABELS + ["", "x" * 30]),
}
DAMAGE = ["blank line", "short row", "long row", "comma moved down", "quoted field",
          "quoted comma", "quoted newline", "bare CR", "blank field", "not an integer",
          "bad byte", "NUL", "doubled quote", "empty quoted field", "quotes doubled around",
          "quote in a field", "text after a closing quote", "quoted CR", "quoted CRLF",
          "quoted newlines over a block", "comma moved within a line",
          "comma in place of a field byte", "field over the limit"]


def _damaged(lines: list[str], kind: str, at: int) -> list[str]:
    """lines with one damaged, chosen by at. A byte that is not UTF-8 is
    written as a lone surrogate, which the file's encoder turns back into
    that byte."""
    lines = list(lines)
    if kind == "blank line":
        lines.insert(at % (len(lines) + 1), "")
        return lines
    if len(lines) < 2:
        return lines
    i = at % (len(lines) - 1)
    fields = lines[i].split(",")
    j = at // 7 % len(fields)
    if kind == "field over the limit":  # 25 characters in every line, so a fixed layout stays
        return [",".join(field.ljust(25, "x") if k == j else field
                         for k, field in enumerate(line.split(","))) for line in lines]
    if kind == "comma moved within a line":  # swapped with a neighbour: same length and count
        line, commas = lines[i], [k for k, char in enumerate(lines[i]) if char == ","]
        k = commas[at // 7 % len(commas)] if commas else 0
        other = k - 1 if k and line[k - 1] != "," else k + 1
        if commas and other < len(line) and line[other] != ",":
            lo, hi = sorted((k, other))
            lines[i] = line[:lo] + line[hi] + line[lo] + line[hi + 1:]
        return lines
    if kind == "short row":
        fields.pop()
    elif kind == "long row":
        fields.append("x")
    elif kind == "comma moved down":  # as many commas as lines, in the wrong place
        fields.append("x")
        lines[i + 1] = lines[i + 1].rsplit(",", 1)[0]
    else:
        fields[j] = {
            "quoted field": f'"{fields[j]}"',
            "quoted comma": f'"{fields[j]},x"',
            "quoted newline": f'"{fields[j]}\n{fields[j]}"',
            "doubled quote": f'"{fields[j]}""x"',
            "empty quoted field": '""',
            "quotes doubled around": f'""{fields[j]}""',  # csv reads p1 as p1""
            "quote in a field": f'{fields[j]}"x',
            "text after a closing quote": f'"{fields[j]}"x',
            "quoted CR": f'"{fields[j]}\rx"',
            "quoted CRLF": f'"{fields[j]}\r\nx"',
            # long enough that a block is likely to end between its quotes
            "quoted newlines over a block": f'"{fields[j]}' + "\n" * 40 + f'{fields[j]}"',
            "bare CR": fields[j] + "\rx",
            "blank field": "",
            "comma in place of a field byte": fields[j][:-1] + ",",
            "not an integer": "1.5",  # a label, or a bad period
            "bad byte": fields[j] + "\udcff",
            "NUL": fields[j] + "\0",
        }[kind]
    lines[i] = ",".join(fields)
    return lines


def _encoded(header, lines, end: str, final_end: bool, bom: bool) -> bytes:
    text = end.join([",".join(header)] + lines) + (end if final_end else "")
    return (codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8", "surrogateescape")


@st.composite
def csv_files(draw) -> bytes:
    """Bytes of a review CSV: required columns in any order, some optional
    and unread ones, CRLF or LF, a BOM, and a few damaged lines."""
    extra = draw(st.lists(st.sampled_from(["team", "period", "group", "extra", "answer"]),
                          max_size=3))
    header = draw(st.permutations(list(REQUIRED_FIELDS) + extra))
    rows = draw(st.lists(st.tuples(*(FIELD[name] for name in header)), max_size=40))
    lines = [",".join(row) for row in rows]
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(DAMAGE), st.integers(0, 999)),
                                  max_size=2)):
        lines = _damaged(lines, kind, at)
    return _encoded(header, lines, draw(st.sampled_from(["\n", "\r\n"])), draw(st.booleans()),
                    draw(st.booleans()))


def _summary(source):
    return validate_dataset(ingest_csv(source)).summary


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("routes") / "input.csv"


def _assert_routes_agree(path, data: bytes, block: int, field_limit: int | None = None):
    """The file read by path, the file opened as a stream and the csv module
    alone on the file agree on records, groups and summary, or on the error."""
    path.write_bytes(data)
    limit = csv.field_size_limit()
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        with mock.patch.object(report, "_BLOCK", block):
            for reader in (ingest_csv, ingest_csv_groups, _summary):
                on_path = read_outcome(reader, str(path))[0]
                with open(path, encoding="utf-8-sig", newline="") as stream:
                    on_stream = read_outcome(reader, stream)[0]
                assert on_path == on_stream == csv_outcome(reader, str(path))
    finally:
        csv.field_size_limit(limit)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=csv_files(), block=st.sampled_from([64, 256, report._BLOCK]),
       field_limit=st.sampled_from([None, 24]))
def test_path_and_stream_routes_agree(path, data, block, field_limit):
    _assert_routes_agree(path, data, block, field_limit)


@pytest.mark.parametrize("kind", DAMAGE)
def test_each_damage_on_both_routes(path, kind):
    # One damaged line amid plain ones in a file of several blocks, so the
    # block reader meets it after coding earlier blocks.
    header = list(REQUIRED_FIELDS) + ["team", "period", "group"]
    lines = [",".join((f"p{i}", f"r{i % 3}", "q1", LABELS[i % len(LABELS)],
                       "rejection-pending", "", str(i % 2), "treated"))
             for i in range(30)]
    for at, end in [(700, "\n"), (700, "\r\n"), (45, "\n")]:  # a classification, a period
        _assert_routes_agree(path, _encoded(header, _damaged(lines, kind, at), end, True, False),
                             block=256)


@pytest.mark.parametrize("kind", DAMAGE)
def test_each_damage_on_a_fixed_layout_file(path, kind):
    # As above, in a file whose lines all have one length and the same comma
    # offsets, with a blank team, so that the block reader reads its blocks
    # as tables, until a damaged line sends its block to the separator search
    # or the file to the csv path. A field of 25 characters is over a
    # 24-character field size limit.
    header = list(REQUIRED_FIELDS) + ["team", "period", "group"]
    lines = [f"p{i:02d},r{i % 3},q1,{'xy'[i % 2]},rejection-pending,,{i % 2},treated"
             for i in range(30)]
    limit = 24 if kind == "field over the limit" else None
    # Blocks of 1 KiB hold about 22 lines, so the damaged line is amid its
    # block's lines, or the first, whose layout the others are checked against.
    for at, end in [(700, "\n"), (700, "\r\n"), (45, "\n"), (0, "\n")]:
        _assert_routes_agree(path, _encoded(header, _damaged(lines, kind, at), end, True, False),
                             block=1024, field_limit=limit)


@pytest.mark.parametrize("data", [
    # a byte that is not UTF-8 in a column ingest does not read
    b"product_id,reviewer_id,question_id,answer,final_classification,x\np,r,q,a,c,\xff\n",
    # and in a repeated header name's first column, which it ignores
    b"answer,product_id,reviewer_id,question_id,answer,final_classification\n"
    b"\xe4,p,r,q,a,c\n",
])
def test_routes_agree_on_unread_columns(path, data):
    path.write_bytes(data)
    with open(path, encoding="utf-8-sig", newline="") as stream:
        on_stream = read_outcome(ingest_csv, stream)[0]
    assert on_stream[:2] == ("error", UnicodeDecodeError)
    assert read_outcome(ingest_csv, str(path))[0] == on_stream


def test_a_file_that_grows_while_read_goes_to_the_csv_path(path, monkeypatch):
    # The block reader counts the lines before coding them; lines appended
    # after that do not fit, so the csv module reads the file as it is then.
    header = ",".join(REQUIRED_FIELDS)
    path.write_text(header + "\n" + "p1,r1,q1,a,c\n" * 20)
    plain_blocks = report._plain_blocks

    def growing(file):
        blocks = plain_blocks(file)
        yield next(blocks)
        with open(path, "a") as out:
            out.write("p2,r1,q1,a,c\n" * 20)
        yield from blocks

    monkeypatch.setattr(report, "_BLOCK", 64)
    monkeypatch.setattr(report, "_plain_blocks", growing)
    records = ingest_csv(str(path))
    assert [r.product_id for r in records] == ["p1"] * 20 + ["p2"] * 20


def test_a_header_name_over_the_field_limit_goes_to_the_csv_path(path):
    # The block reader hands a header-only file whose header holds a name
    # over the csv module's field size limit to the csv path, which refuses
    # it on row 1, as a stream of the same bytes is refused.
    data = (",".join(REQUIRED_FIELDS) + "," + "x" * 30 + "\n").encode()
    _assert_routes_agree(path, data, block=report._BLOCK, field_limit=24)
    limit = csv.field_size_limit(24)
    try:
        with open(path, "rb") as file:
            assert report._read_plain_file(file, "utf-8-sig", False) is None
        assert read_outcome(ingest_csv, str(path))[0][1:] == (
            CsvFormatError, "malformed CSV on row 1: field larger than field limit (24)",
            1, None)
    finally:
        csv.field_size_limit(limit)


def test_a_field_far_wider_than_its_block_goes_to_the_csv_path(path, monkeypatch):
    # 200 answers of 1 byte and one of 100: gathering the answer column at
    # its widest field's width would take over _GATHER_LIMIT times the
    # block's bytes, so the block reader hands the file to the csv module.
    lines = [",".join(REQUIRED_FIELDS)] + [f"p{i:03d},r1,q1,a,c" for i in range(200)]
    path.write_text("\n".join(lines + ["p200,r1,q1," + "a" * 100 + ",c", ""]))
    with open(path, encoding="utf-8-sig", newline="") as stream:
        on_stream = ingest_csv(stream)
    read = mock.Mock(wraps=report._read_csv_stream)
    monkeypatch.setattr(report, "_read_csv_stream", read)
    assert ingest_csv(str(path)) == on_stream
    assert read.call_count == 1
    # under a limit the gather stays within, the block reader reads it
    monkeypatch.setattr(report, "_GATHER_LIMIT", 100)
    assert ingest_csv(str(path)) == on_stream
    assert read.call_count == 1


def _no_csv_path(stream, group):
    raise AssertionError("the csv module read a plain file")


def _no_coding(*args):
    raise AssertionError("the block reader coded a block")


@pytest.mark.parametrize("last", ["p9,r1,q1,a,c\0", "p9,r1,q1,a,c\rx"])
def test_bytes_the_block_reader_cannot_read_are_found_before_any_coding(path, monkeypatch,
                                                                        last):
    # A NUL or a bare CR on the last line of a file of many blocks sends it
    # to the csv path after one scan of its bytes.
    lines = [",".join(REQUIRED_FIELDS)] + ["p1,r1,q1,a,c"] * 200 + [last]
    path.write_text("\n".join(lines) + "\n", newline="")
    with open(path, encoding="utf-8-sig", newline="") as stream:
        on_stream = read_outcome(ingest_csv, stream)[0]
    monkeypatch.setattr(report, "_BLOCK", 64)
    monkeypatch.setattr(report, "_code_block", _no_coding)
    assert read_outcome(ingest_csv, str(path))[0] == on_stream


def test_a_quoted_crlf_goes_to_the_csv_path_after_blocks_are_coded(path, monkeypatch):
    # A quoted CRLF passes the scan of bytes, since its CR ends a CRLF, but
    # the csv module keeps the CR in the field. The block that holds it sends
    # the file to the csv path, after the blocks before it were coded.
    lines = [",".join(REQUIRED_FIELDS)] + ["p1,r1,q1,a,c"] * 200 + ['p9,r1,q1,a,"c\r\nx"']
    path.write_text("\n".join(lines) + "\n", newline="")
    expected = csv_outcome(ingest_csv, str(path))
    assert expected[0] == "ok"
    monkeypatch.setattr(report, "_BLOCK", 64)
    coded = mock.Mock(wraps=report._code_block)
    read = mock.Mock(wraps=report._read_csv_stream)
    monkeypatch.setattr(report, "_code_block", coded)
    monkeypatch.setattr(report, "_read_csv_stream", read)
    assert read_outcome(ingest_csv, str(path))[0] == expected
    assert coded.call_count > 1 and read.call_count == 1


def test_a_bad_last_row_is_read_by_the_csv_module_once(path, monkeypatch):
    # An empty answer on the last row of a file of several blocks fails the
    # block reader's check of the last block. The csv module then reads the
    # file once: one csv.reader over the stream, which is never rewound,
    # names the row and column.
    lines = [",".join(REQUIRED_FIELDS)] + [f"p{i},r1,q1,a,c" for i in range(200)]
    path.write_text("\n".join(lines + ["p9,r1,q1,,c"]) + "\n")
    seeks, readers = [], []
    csv_reader, read_csv_stream = csv.reader, report._read_csv_stream

    class Recorded:
        """A text stream, read as an iterator of lines, whose seeks are recorded."""

        def __init__(self, stream):
            self.stream = stream

        def __iter__(self):
            return self

        def __next__(self):
            return next(self.stream)

        def seek(self, *args):
            seeks.append(args)
            return self.stream.seek(*args)

    def reader(source, *args, **kwargs):
        if isinstance(source, Recorded):
            readers.append(source)
        return csv_reader(source, *args, **kwargs)

    coded = mock.Mock(wraps=report._code_block)
    monkeypatch.setattr(report, "_BLOCK", 64)
    monkeypatch.setattr(report, "_code_block", coded)
    monkeypatch.setattr(csv, "reader", reader)
    monkeypatch.setattr(report, "_read_csv_stream",
                        lambda stream, group: read_csv_stream(Recorded(stream), group))
    assert read_outcome(ingest_csv, str(path))[0] == (
        "error", CsvFormatError, "empty answer on row 202", 202, "answer")
    assert coded.call_count > 1
    assert len(readers) == 1 and not seeks


def test_a_pipe_reports_a_bad_row_before_a_later_bad_byte(tmp_path):
    # A pipe's bytes are read as a regular file's: a bad row is reported
    # before bytes that are not UTF-8 thousands of rows later are decoded.
    rows = ["p1,r1,q1,a,c"] * 3000
    rows[1] = "p1,r1,q1,,c"
    data = (",".join(REQUIRED_FIELDS) + "\n" + "\n".join(rows) + "\np\xff,r1,q1,a,c\n").encode(
        "latin-1")
    regular, fifo = tmp_path / "panel.csv", tmp_path / "panel.fifo"
    regular.write_bytes(data)
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    expected = read_outcome(ingest_csv, str(regular))[0]
    assert expected[1:3] == (CsvFormatError, "empty answer on row 3")
    assert read_outcome(ingest_csv, str(fifo))[0] == expected
    writer.join(timeout=30)
    assert not writer.is_alive()


def _quoted_rows(end: str) -> str:
    """A review CSV as spreadsheets write it: fields quoted where they hold
    a comma, a quote or a line end, inner quotes doubled, end after rows."""
    teams = ("t", '"t,1"')
    rows = [",".join(REQUIRED_FIELDS + ("team",))]
    rows += [f'p{i},r{i % 3},q1,"yes, {i % 4}","say ""{i % 2}""",{teams[i % 2]}'
             for i in range(200)]
    note = "two\n" * 8 + "lines"
    for i in range(1, len(rows), 9):  # quoted LFs, some across the end of a block
        rows[i] = f'p{i},r0,q1,"{note}",ok,"{"x" * 30}"'
    return end.join(rows) + end


@pytest.mark.parametrize("kind", ["quoted file", "Excel-style file", "stream", "named pipe"])
def test_quoted_files_streams_and_pipes_take_the_block_reader(tmp_path, monkeypatch, kind):
    # Quoted commas, doubled quotes and a quoted LF, in a file with LF or
    # CRLF ends, a text stream or a pipe, are read by blocks, as the csv
    # module reads them.
    text = _quoted_rows("\r\n" if kind == "Excel-style file" else "\n")
    expected = read_outcome(lambda s: report._read_csv_stream(s, False)[0],
                            io.StringIO(text, newline=""))[0]
    assert expected[0] == "ok"
    source = tmp_path / "panel.csv"
    writer = None
    if kind == "stream":
        source = io.StringIO(text)
    elif kind == "named pipe":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes")
        os.mkfifo(source)
        writer = threading.Thread(target=source.write_bytes, args=(text.encode(),), daemon=True)
        writer.start()
    else:
        source.write_bytes(text.encode())
    monkeypatch.setattr(report, "_BLOCK", 256)
    monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    assert read_outcome(ingest_csv, source)[0] == expected
    if writer is not None:
        writer.join(timeout=30)
        assert not writer.is_alive()


def test_a_stream_keeps_its_lone_surrogates():
    # A stream opened with errors="surrogateescape" may hold lone surrogates:
    # its copy keeps them, and they read back as part of their labels.
    text = ",".join(REQUIRED_FIELDS) + "\np\udcff,r1,q1,a,c\n"
    assert [r.product_id for r in ingest_csv(io.StringIO(text))] == ["p\udcff"]


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_blank_lines_take_the_block_reader(path, monkeypatch, end):
    # Blank lines after the header, in runs, at the start of a block and at
    # the end are skipped by the block reader as the csv path skips them.
    lines = [",".join(REQUIRED_FIELDS), "", ""]
    for i in range(60):
        lines += [f"p{i},r{i % 3},q1,a,c"] + [""] * (i % 4 == 0) * (1 + i % 3)
    path.write_bytes(end.join(lines + ["", ""]).encode())
    on_csv = csv_outcome(ingest_csv, str(path))
    monkeypatch.setattr(report, "_BLOCK", 64)
    monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    records = ingest_csv(str(path))
    assert read_outcome(ingest_csv, str(path))[0] == on_csv
    assert len(records) == 60


def test_a_crlf_split_between_blocks_takes_the_block_reader(path, monkeypatch):
    # Lines of 17 bytes after a 64-byte header put a CR last in some 64-byte
    # read, with the LF that ends its line first in the next.
    products = [f"p{i:04d}" for i in range(64)]
    lines = [",".join(REQUIRED_FIELDS)] + [f"{p},r1,q1,a,c" for p in products]
    path.write_bytes("\r\n".join(lines + [""]).encode())
    assert ord("\r") in path.read_bytes()[63::64]
    monkeypatch.setattr(report, "_BLOCK", 64)
    monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    assert [r.product_id for r in ingest_csv(str(path))] == products


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_opened_once(tmp_path, monkeypatch):
    # The block reader leaves a pipe unopened: opened and closed unread, it
    # would lose what its writer sent, and a second open could wait for a
    # writer that never comes.
    fifo = tmp_path / "panel.fifo"
    os.mkfifo(fifo)
    data = ",".join(REQUIRED_FIELDS) + "\n" + "p1,r1,q1,a,c\n" * 5000
    outcome = {}
    opened = []

    def counted_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(report, "open", counted_open, raising=False)

    def write():
        try:
            with open(fifo, "w") as out:
                out.write(data)
        except OSError as exc:
            outcome["write"] = exc

    def read():
        outcome["read"] = read_outcome(ingest_csv, str(fifo))[0]

    threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert opened == [str(fifo)] and "write" not in outcome
    assert outcome["read"] == read_outcome(ingest_csv, io.StringIO(data))[0]


def test_written_panels_take_the_block_reader(tmp_path, monkeypatch):
    # Labels over 8 bytes, non-ASCII, of several widths in one column, in a
    # file of several blocks with a BOM and CRLF line ends.
    records = [
        ReviewRecord(f"produkt-{p:05d}-ü", f"prüfer-{r}", f"frage-{q}", ["ja", "nein"][p % 2],
                     ["zulässig", "abgelehnt-wegen-verstoß"][(p + r) % 2],
                     ["team-süd", None][r % 2], [None, 0, 12][q % 3])
        for p in range(400) for r in range(3) for q in range(4)
    ]
    stream = tmp_path / "panel.csv"
    with open(stream, "w", encoding="utf-8-sig", newline="\r\n") as out:
        write_panel_csv(out, [("behandelt-gruppe", records[:2400]),
                              ("kontrolle", records[2400:])])
    assert stream.stat().st_size > 2 * report._BLOCK
    monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    assert ingest_csv(str(stream)) == records
    groups = ingest_csv_groups(str(stream))
    assert list(groups) == ["behandelt-gruppe", "kontrolle"]
    assert groups["kontrolle"] == records[2400:]


def _layouts(monkeypatch) -> list[bool]:
    """For each block the block reader reads from here on, whether it was
    read as a table of fixed layout."""
    layouts = []
    fixed_keys = report._fixed_keys

    def spy(block, width):
        keys = fixed_keys(block, width)
        layouts.append(keys is not None)
        return keys

    monkeypatch.setattr(report, "_fixed_keys", spy)
    return layouts


def test_written_simulated_panels_take_the_fixed_layout(tmp_path, monkeypatch):
    # A simulated panel with one-digit reviewer and question ids, written by
    # write_panel_csv, has lines of one length and comma offsets (products
    # zero-padded, team and period blank), so every block is read as a
    # table. Labels of varying width in every block send each block to the
    # separator search instead.
    questions = tuple(QuestionSpec(f"q{i}", 3, 0.2) for i in range(1, 10))
    dataset, _ = simulate_panel(SimulationConfig(150, 5, questions, seed=3))
    fixed, varying = tmp_path / "fixed.csv", tmp_path / "varying.csv"
    with open(fixed, "w", newline="") as out:
        write_panel_csv(out, [(None, dataset.records)])
    records = [ReviewRecord(f"p{p}", f"r{r}", "q1", ["yes", "no"][(p + r) % 2], "ok")
               for p in range(300) for r in range(5)]
    with open(varying, "w", newline="") as out:
        write_panel_csv(out, [(None, records)])
    monkeypatch.setattr(report, "_BLOCK", 4096)
    monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    layouts = _layouts(monkeypatch)
    assert ingest_csv(str(fixed)) == dataset.records
    assert len(layouts) > 10 and all(layouts)
    layouts.clear()
    assert ingest_csv(str(varying)) == records
    assert len(layouts) > 3 and not any(layouts)


def _no_gather(*args):
    raise AssertionError("a field was gathered from a block of fixed layout")


@pytest.mark.parametrize("kind", ["LF", "CRLF", "blank lines", "empty fields", "quoted fields",
                                  "text after a closing quote"])
def test_fixed_layout_files_on_both_routes(path, monkeypatch, kind):
    # Lines of one length with their commas at the same offsets are read as
    # tables: after their CRs are dropped, after blank lines are dropped, and
    # with zero-width fields first, amid and last in a line. A quote sends
    # its block to the separator search, which reads a quoted field and
    # hands text after a closing quote to the csv path.
    header = ["extra", *REQUIRED_FIELDS, "team", "period"]
    answer = {"quoted fields": '"a""{}"', "text after a closing quote": '"a"{}'}.get(kind, "a{}")
    lines = [f"x,p{i:02d},r{i % 3},q1,{answer.format(i % 2)},c{i % 3},t{i % 2},{i % 5}"
             for i in range(40)]
    if kind == "empty fields":
        lines = [line.replace("x", "").rsplit(",", 2)[0] + ",," for line in lines]
    elif kind == "blank lines":
        lines = [line + "\n" * (i % 7 == 3) for i, line in enumerate(lines)]
    path.write_bytes(_encoded(header, lines, "\r\n" if kind == "CRLF" else "\n", True, False))
    expected = csv_outcome(ingest_csv, str(path))
    assert expected[0] == "ok"
    monkeypatch.setattr(report, "_BLOCK", 256)
    if "quote" not in kind:
        monkeypatch.setattr(report, "_field_keys", _no_gather)
    if kind != "text after a closing quote":
        monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    layouts = _layouts(monkeypatch)
    assert read_outcome(ingest_csv, str(path))[0] == expected
    assert any(layouts) != ("quote" in kind)


def _key_table_file(kind: str) -> bytes:
    """A plain review file whose columns stress the block reader's table of
    field keys coded before."""
    header = ",".join(REQUIRED_FIELDS + ("team",))
    rows = [[f"p{i // 6:03d}", f"r{i % 3}", f"q{i // 3 % 2}", "ab"[i % 2], "ok", "t1"]
            for i in range(600)]
    if kind == "shuffled rows":
        random.Random(5).shuffle(rows)
    elif kind == "value back after blocks without it":
        for i, row in enumerate(rows):  # t1 on the first and last rows only
            row[5] = "t1" if i < 20 or i >= 580 else f"t{2 + i // 150}"
    elif kind == "key width changes":
        # Runs of rows whose keys are all up to 8 bytes, all 10, all 15 (a
        # 15-byte key cut short to 10 bytes would equal one of those) or
        # mixed, so that the table changes kind and width. Team's short
        # values sort one way as bytes and the other way as uint64 keys,
        # and its runs of 11-byte keys are followed by runs of 17.
        for i, row in enumerate(rows):
            k = i // 6 % 5
            row[0] = [f"p{k}", f"product-{k:02d}", f"product-{k:02d}-more",
                      [f"p{k}", f"product-{k:02d}", f"product-{k:02d}-more"][i % 3]][i // 40 % 4]
            row[5] = [["t1", "u0"][i % 2], "team-over-8", "team-over-8-bytes"][i // 50 % 3]
    elif kind == "never repeats":
        for i, row in enumerate(rows):
            row[0] = f"product-{i:05d}"
    elif kind == "runs that recur":
        # Runs of 30 rows of four products over 8 bytes, each back after
        # runs of the other three, a blank team, and a reviewer that keeps
        # one value for 60 rows, then changes on every row for 60, so that
        # blocks of long runs and blocks without runs alternate.
        for i, row in enumerate(rows):
            row[0] = f"product-{i // 30 % 4}"
            row[1] = f"r{i % 3}" if i // 60 % 2 else "r0"
            row[5] = ""
    return "\n".join([header] + [",".join(row) for row in rows]).encode() + b"\n"


KEY_TABLE_FILES = ["shuffled rows", "value back after blocks without it", "key width changes",
                   "never repeats", "runs that recur"]


@pytest.mark.parametrize("kind", KEY_TABLE_FILES)
@pytest.mark.parametrize("block", [64, 256, 1024])
def test_key_table_on_both_routes(path, monkeypatch, kind, block):
    # The table holds no more keys than the longest block coded has rows.
    data = _key_table_file(kind)
    _assert_routes_agree(path, data, block)
    with open(path, encoding="utf-8-sig", newline="") as stream:
        on_stream = ingest_csv(stream)
    code = report._BlockColumn.code
    sizes, rows = [], [0]

    def bounded(column, keys, *args):
        code(column, keys, *args)
        rows[0] = max(rows[0], len(keys))
        sizes.append(len(column.keys) <= rows[0] and len(column.keys) == len(column.index))

    monkeypatch.setattr(report, "_BLOCK", block)
    monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    monkeypatch.setattr(report._BlockColumn, "code", bounded)
    assert ingest_csv(str(path)) == on_stream
    assert sizes and all(sizes)


@pytest.mark.parametrize("kind", KEY_TABLE_FILES)
def test_each_distinct_value_is_decoded_once(path, monkeypatch, kind):
    # A column with no more distinct values than each block has rows hands
    # label_codes each value once, in whatever blocks and widths they come.
    path.write_bytes(_key_table_file(kind))
    added = []
    label_codes = report.label_codes

    def spy(values, *args):
        added.append(list(values))
        return label_codes(values, *args)

    monkeypatch.setattr(report, "_BLOCK", 256)
    monkeypatch.setattr(report, "label_codes", spy)
    monkeypatch.setattr(report, "_read_csv_stream", _no_csv_path)
    ingest_csv(str(path))
    few = [values for values in added if len(set(values)) <= 5]
    assert len(few) >= 5 and all(len(set(values)) == len(values) for values in few)


def test_memory_holds_about_one_block(tmp_path):
    # Besides the int32 code columns it returns, ingest holds one more
    # column of codes while finishing them, and the block reader one block's
    # arrays at a time: less than the file itself, which it never holds whole.
    # So does a file whose rows are shuffled: the table of keys seen before
    # holds no more than a block's rows, and values are decoded about once.
    path = tmp_path / "panel.csv"
    rows = 45 * 2700
    lines = [f"p{i // 45:05d},r{i // 9 % 5},q{i % 9},a{i % 2},c{i % 3},t{i % 4}\n"
             for i in range(rows)]
    for shuffled in (False, True):
        if shuffled:
            random.Random(0).shuffle(lines)
        with open(path, "w", encoding="utf-8", newline="") as out:
            out.write("product_id,reviewer_id,question_id,answer,final_classification,team\n")
            out.writelines(lines)
        records, peak = traced_peak(lambda: ingest_csv(str(path)))
        codes = sum(c.nbytes for c in records.codes)
        assert len(records) == rows and codes == 7 * 4 * rows
        assert peak - codes < 4 * rows + 16 * report._BLOCK < path.stat().st_size
        assert np.array_equal(records.codes[0], [int(line[1:6]) for line in lines])
