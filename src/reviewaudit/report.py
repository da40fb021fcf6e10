"""CSV ingestion, audit orchestration, and report serialization.

The audit pipeline runs each analysis section independently: agreement,
per-question chi-square, team comparison (t test for two teams, ANOVA for
more), error-rate extrapolation (overall and per reviewer), bias factors,
and optionally difference-in-differences. A section that fails is recorded
as a structured error without aborting the others.

Reports are plain JSON-compatible structures. Floating-point values are
rounded to 12 significant digits when the report is assembled, which makes
emission byte-deterministic and the emit/parse round trip lossless. The
JSON schema is documented in docs/report_schema.md and versioned by the
top-level schema_version field.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import shutil
import stat
import tempfile
from array import array
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from . import __version__
from .agreement import OVERALL_KAPPA_MODES, analyze_agreement
from .did import GROUPS, DidPanel, did_estimate, did_with_error_rates
from .errors import CsvFormatError, DatasetValidationError, ReviewAuditError
from .estimation import CI_METHODS, bias_factor_report, binomial_ci
from .hypotheses import _check_alpha, chi_square_independence, one_way_anova, two_sample_t
from .model import (
    FIELDS,
    REQUIRED_FIELDS,
    REVIEWER,
    TEAM,
    RecordColumns,
    ReviewDataset,
    ReviewRecord,
    contingency_from,
    is_label,
    label_codes,
)
from .simulate import DidPair

SCHEMA_VERSION = 1
GROUND_TRUTH_COLUMNS = ("product_id", "classification")

# A CSV source: a path, as a str or an os.PathLike, or an open text stream.
Source = Union[str, "os.PathLike[str]", IO[str]]


@functools.lru_cache(maxsize=64)
def _field_names(kind: type) -> tuple[str, ...]:
    """A result dataclass's field names, read once per type."""
    return tuple(f.name for f in fields(kind))


def _fields(result) -> dict:
    return {name: getattr(result, name) for name in _field_names(type(result))}


def _plain(value, round_floats: bool = True):
    """JSON-ready data: result dataclasses become dicts of their fields (in
    field order), mappings dicts and tuples lists, recursively; floats are
    rounded to 12 significant digits unless round_floats is False."""
    if isinstance(value, float):
        return float(f"{value:.12g}") if round_floats else value
    if value is None or isinstance(value, (int, str)):
        return value
    if is_dataclass(value):
        value = _fields(value)
    if isinstance(value, Mapping):
        return {k: _plain(v, round_floats) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, round_floats) for v in value]
    raise TypeError(f"unsupported report value type {type(value)!r}")


def _ok(result) -> dict:
    """A section body: status ok, then the result's fields in field order."""
    return {"status": "ok", **_fields(result)}


# --- ingestion ---------------------------------------------------------------

def _check_header(fieldnames: Sequence[str] | None, required: Sequence[str]) -> None:
    """Raise unless a header row exists and names every required column."""
    if fieldnames is None:
        raise CsvFormatError("empty file: no header row")
    missing = [c for c in required if c not in fieldnames]
    if missing:
        raise CsvFormatError(
            f"missing required column(s): {', '.join(missing)}",
            column=missing[0],
        )


@contextlib.contextmanager
def _csv_errors(reader) -> Iterator[None]:
    """Raise csv module errors in the block as CsvFormatError naming the file line."""
    try:
        yield
    except csv.Error as exc:
        line = reader.line_num
        raise CsvFormatError(f"malformed CSV on row {line}: {exc}", row=line) from None


@contextlib.contextmanager
def _csv_reader(
    source: Source, required: Sequence[str]
) -> Iterator[tuple[Iterator[list[str]], list[str]]]:
    """A csv reader past a header row that names every required column, and
    that header; csv module errors in the block are raised as CsvFormatError."""
    with _byte_file(source) as (file, text), io.TextIOWrapper(file, **text) as stream:
        reader = csv.reader(stream)
        with _csv_errors(reader):
            header = next(reader, None)
            _check_header(header, required)
            yield reader, header


def _named_rows(reader: Iterator[list[str]], header: Sequence[str],
                columns: Sequence[str]) -> Iterator[tuple[str, ...]]:
    """The named columns of each non-blank row, read as csv.DictReader reads
    them: a repeated header name means its last column, and a field the row
    lacks is blank."""
    position = {name: i for i, name in enumerate(header)}
    indices = [position[column] for column in columns]
    get, width = itemgetter(*indices), max(indices) + 1
    for row in filter(None, reader):
        if len(row) < width:
            row += [""] * (width - len(row))
        yield get(row)


# A text stream is copied into a file of bytes this many lines at a time
# (see _byte_file).
_BATCH = 512

# How a column's distinct raw values become labels: stripped, and for the
# optional columns "" is blank (int strips whitespace itself).
_LABELS = {
    "team": lambda value: value.strip() or None,
    "period": lambda value: int(value) if value.strip() else None,
}


def _valid(name: str, values: Iterable[str], required: Sequence[str]) -> bool:
    """Whether raw values of the named column are all valid: a required
    column's are labels, and a period's parse as an int where not blank."""
    if name in required:
        return all(map(is_label, values))
    if name == "period":
        try:
            list(map(_LABELS[name], values))
        except ValueError:
            return False
    return True


def _review_layout(
    header: Sequence[str] | None, group: bool
) -> tuple[dict[str, int], tuple[str, ...], list[str]]:
    """The header's column positions, the columns that must hold a label
    (the group column too when group is set), and the columns read: the
    required ones in that order, then the optional ones the header names."""
    _check_header(header, REQUIRED_FIELDS)
    position = {name: i for i, name in enumerate(header)}
    if group and "group" not in position:
        raise CsvFormatError("review-format DiD input needs a 'group' column", column="group")
    required = REQUIRED_FIELDS + (("group",) if group else ())
    return position, required, [*required, *(name for name in FIELDS
                                             if name not in required and name in position)]


_GATHER = 1 << 14  # codes recoded by one np.take in _finish


def _finish(
    columns: Mapping[str, tuple[np.ndarray, Sequence[str]]]
) -> tuple[RecordColumns, tuple[np.ndarray, tuple[str, ...]] | None]:
    """The records read, and the group column's codes and labels when it
    was read. Each column comes as codes into its distinct raw values (one
    label may be two values, as "a" quoted and not), and its codes are
    recoded in place into its sorted label table, so no second array of
    codes is made."""
    n_rows = len(columns[REQUIRED_FIELDS[0]][0])
    coded = {name: (np.zeros(n_rows, np.int32), (None,)) for name in FIELDS if name not in columns}
    for name, (codes, values) in columns.items():
        table, recode = label_codes(values, _LABELS.get(name, str.strip), name in _LABELS)
        # np.take casts the codes to intp, so it is given _GATHER at a time.
        # They index recode by construction; mode="raise" would check them
        # and gather through a temporary copy of the codes.
        for lo in range(0, len(codes), _GATHER):
            part = codes[lo:lo + _GATHER]
            np.take(recode, part, out=part, mode="wrap")
        coded[name] = codes, table
    return RecordColumns(*zip(*map(coded.get, FIELDS))), coded.get("group")


def _read_csv_stream(
    stream: IO[str], group: bool
) -> tuple[RecordColumns, tuple[np.ndarray, tuple[str, ...]] | None]:
    """_read_review_csv by the csv module, one row at a time. Each column's
    values are coded in order of first sight, and each is checked when first
    seen, so the first bad row raises from this one read: for a row's first
    bad field, an empty required column, in required order, then an
    unparseable period."""
    reader = csv.reader(stream)
    with _csv_errors(reader):
        header = next(reader, None)
        _, required, names = _review_layout(header, group)
        columns = [(name, {}, array("i")) for name in names]
        for row in _named_rows(reader, header, names):
            for value, (name, seen, codes) in zip(row, columns):
                code = seen.get(value)
                if code is None:
                    if not _valid(name, (value,), required):
                        line = reader.line_num
                        if name == "period":
                            raise CsvFormatError(f"unparseable period {value.strip()!r} on row "
                                                 f"{line}", row=line, column=name)
                        raise CsvFormatError(f"empty {name} on row {line}", row=line, column=name)
                    code = seen[value] = len(seen)
                codes.append(code)
    return _finish({name: (np.frombuffer(codes, np.int32), list(seen))
                    for name, seen, codes in columns})


# A file is read in blocks of this many bytes, each cut after its last line
# end outside quotes, so that one block's arrays are held at a time. 128 KiB
# reads faster than 64 KiB only since fields are located per column.
_BLOCK = 1 << 17
# A column with a field over 8 bytes in a block is gathered at its longest
# field's width only while that takes at most this many times the block's
# bytes; past that the file goes to the csv path.
_GATHER_LIMIT = 4


class _NotPlain(Exception):
    """The file fails a check of the block reader; the csv path reads it."""


def _in_quotes(data: np.ndarray) -> np.ndarray:
    """Whether each byte of data (which starts outside quotes) is in quotes."""
    return np.logical_xor.accumulate(data == ord('"'))


def _count_plain_lines(file: IO[bytes]) -> int:
    """The file's LFs, counted in one pass that also checks every byte the
    block reader cannot read: a NUL or a CR outside CRLF raises _NotPlain,
    so that such a file goes to the csv path before any coding."""
    lines = 0
    for chunk in iter(lambda: file.read(_BLOCK), b""):
        if chunk.endswith(b"\r"):
            chunk += file.read(1)  # a CRLF is counted within one chunk
        if b"\0" in chunk or (
                b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n")):
            raise _NotPlain
        lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
    return lines


def _plain_blocks(file: IO[bytes]) -> Iterator[bytes]:
    """The bytes of a file that _count_plain_lines passed, as blocks of whole
    records, each ending in LF: a block is cut after its last LF outside
    quotes, and a last line without an end gets one. A record longer than
    _BLOCK (128 KiB) raises _NotPlain, so the csv path reads the file, and
    bytes that are not UTF-8 raise UnicodeDecodeError, in any column."""
    rest, more = b"", True
    while more:
        chunk = file.read(_BLOCK)
        data, more = rest + chunk, bool(chunk)
        cut = data.rfind(b"\n") + 1 if more else len(data)
        if more and b'"' in data and data.count(b'"', 0, cut) % 2:  # that LF is quoted
            array = np.frombuffer(data, np.uint8)
            cut = 1 + int(np.flatnonzero((array == ord("\n")) & ~_in_quotes(array)).max(initial=-1))
            del array
        block, rest = data[:cut], data[cut:]
        del chunk, data  # so that the block alone is held while it is coded
        if len(rest) > _BLOCK:
            raise _NotPlain
        if not block.isascii():
            block.decode()
        if block:
            yield block if block.endswith(b"\n") else block + b"\n"


# _WORD_MASKS[n] keeps the first n bytes of a little-endian uint64.
_WORD_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)


def _field_keys(buffer: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """One key per field, equal for equal bytes: the bytes zero-padded to 8
    and read as a uint64, or, when a field is longer, zero-padded to the
    longest as S<width>. buffer ends in at least 8 zero bytes; the data holds
    no NUL, so the padding cannot make two fields equal."""
    width = int(lengths.max())
    if width <= 8:
        words = np.ndarray((len(buffer) - 7,), "<u8", buffer, strides=(1,))
        return words[starts] & _WORD_MASKS[lengths]
    if len(starts) * width > _GATHER_LIMIT * len(buffer):
        raise _NotPlain
    padded = np.frombuffer(buffer + bytes(width), np.uint8)
    fields = np.lib.stride_tricks.sliding_window_view(padded, width)[starts]
    fields[np.arange(width) >= lengths[:, None]] = 0
    return fields.view(f"S{width}").ravel()


class _BlockColumn:
    """One column of a file read by blocks. codes[i] indexes values, the
    column's distinct fields decoded, unquoted and checked so far; a quoted
    and an unquoted field of one text are two keys and two values, which
    _finish gives one code. keys, sorted, are
    the field keys (see _field_keys) of some of those fields, and index
    their positions in values, so that a field seen before is coded by one
    search. A block whose new keys would take the table past its own row
    count starts it afresh from its own keys, so the table holds no more
    keys than the longest block has rows."""

    def __init__(self, name: str, position: int, rows: int):
        self.name, self.position = name, position
        self.codes = np.empty(rows, np.int32)
        self.values: list[str] = []
        self.keys = np.empty(0, np.uint64)
        self.index = np.empty(0, np.int32)

    def _comparable(self, keys: np.ndarray) -> np.ndarray:
        """keys in the key table's dtype, the table first widened if need
        be: both become S at the larger width when either is S, a uint64
        key read as its 8 bytes. Zero padding keeps order and equality,
        since the data holds no NUL."""
        table = self.keys
        if table.dtype == keys.dtype:
            return keys
        width = max(table.itemsize, keys.itemsize)
        if table.dtype.kind == "u":  # sorted again: uint64 order is not byte order
            table = table.view("S8").astype(f"S{width}")
            order = np.argsort(table)
            self.keys, self.index = table[order], self.index[order]
        elif table.itemsize < width:
            self.keys = table.astype(f"S{width}")
        if keys.dtype.kind == "u":
            keys = keys.view("S8")
        return keys.astype(f"S{width}", copy=False)

    def code(self, keys: np.ndarray, row: int, required: Sequence[str]) -> None:
        """Set codes[row:] for one block's fields, given their keys. Only
        fields whose keys are not in the table are decoded, unquoted, checked
        and added to values; raises _NotPlain if one fails _valid. Where
        the keys change at fewer than a quarter of the fields (a sorted or
        blank column), only the first field of each run is coded, and its
        code repeated."""
        codes = self.codes[row:row + len(keys)]
        changes = keys[1:] != keys[:-1]
        if 4 * np.count_nonzero(changes) < len(keys):  # code the first field of each run
            heads = np.flatnonzero(np.concatenate(([True], changes)))
            head_codes = np.empty(len(heads), np.int32)
            self._code(keys[heads], head_codes, len(keys), required)
            codes[:] = np.repeat(head_codes, np.diff(heads, append=len(keys)))
        else:
            self._code(keys, codes, len(keys), required)

    def _code(self, keys: np.ndarray, codes: np.ndarray, rows: int,
              required: Sequence[str]) -> None:
        """code's search and decoding for some of a block's fields (all, or
        the first of each run), into codes; rows is the block's row count.
        A new value is decoded from its key: the field's bytes, zero-padded."""
        keys = self._comparable(keys)
        table, index = self.keys, self.index
        if len(table):
            pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
            found = table[pos] == keys
            if found.all():
                codes[:] = index[pos]
                return
            missing = np.flatnonzero(~found)
            codes[found] = index[pos[found]]
        else:  # every key is new
            missing = slice(None)
        # return_index, though unused, makes np.unique sort stably: its
        # quicksort of uint64 pages in about 0.3 MB more of numpy's code.
        new_keys, _, inverse = np.unique(keys[missing], return_index=True, return_inverse=True)
        fields = new_keys.view("S8") if new_keys.dtype.kind == "u" else new_keys
        new = [field.decode() for field in fields.tolist()]
        new = [text[1:-1].replace('""', '"') if text[:1] == '"' else text for text in new]
        if not _valid(self.name, new, required):
            raise _NotPlain
        new_index = np.arange(len(self.values), len(self.values) + len(new), dtype=np.int32)
        self.values += new
        codes[missing] = new_index[inverse]
        if len(table) + len(new_keys) > rows:  # afresh from this block's keys
            used = np.zeros(len(table), bool)
            used[pos[found]] = True
            table, index = table[used], index[used]
        if len(table):
            slots = np.searchsorted(table, new_keys)
            new_keys = np.insert(table, slots, new_keys)
            new_index = np.insert(index, slots, new_index)
        self.keys, self.index = new_keys, new_index


def _fixed_keys(block: bytes, width: int) -> tuple[int, Callable[[int], np.ndarray]] | None:
    """The line count of a block of fixed layout (see _code_block) and the
    keys (see _field_keys) of the column at a position, each a strided view
    of the block read as a masked uint64 or as S<w>; None for any other
    block. Raises _NotPlain if a field is over the csv module's size limit."""
    length = block.find(b"\n") + 1
    if not length or len(block) % length or b'"' in block:
        return None
    data = np.frombuffer(block, np.uint8)
    table, first = data.reshape(-1, length), data[:length]
    ends = np.flatnonzero((first == ord(",")) | (first == ord("\n")))  # the line's separators
    if len(ends) != width or not (table[:, ends] == first[ends]).all() or np.count_nonzero(
            data == ord(",")) + np.count_nonzero(data == ord("\n")) != width * len(table):
        return None  # a line with other separators, or a separator amid a field
    starts = np.concatenate(([0], ends[:-1] + 1)).tolist()
    sizes = (ends - starts).tolist()
    if max(sizes) > csv.field_size_limit():
        raise _NotPlain  # a field over the csv module's limit, in any column
    lines, buffer = len(table), block + bytes(8)

    def keys(c: int) -> np.ndarray:
        if sizes[c] <= 8:
            words = np.ndarray((lines,), "<u8", buffer, starts[c], (length,))
            return words & _WORD_MASKS[sizes[c]]
        return np.ndarray((lines,), f"S{sizes[c]}", buffer, starts[c], (length,))
    return lines, keys


def _separated_keys(raw: bytes, block: bytes,
                    width: int) -> tuple[int, Callable[[int], np.ndarray]]:
    """_fixed_keys for any block, block being raw without its CRs: fields
    are located by the offsets of the separators and gathered. Blank lines
    are dropped. Raises _NotPlain unless every quoted field is wholly quoted
    with its inner quotes doubled and holds no CR (RFC 4180), every other
    line has width fields and no field is over the csv module's size limit."""
    data = np.frombuffer(block, np.uint8)
    line_ends, seps = data == ord("\n"), data == ord(",")
    seps |= line_ends
    if b'"' in block:  # a comma or LF between a field's quotes is part of it
        quotes = data == ord('"')
        inside = _in_quotes(data)  # from each opening quote up to its closing one
        edges = seps | quotes  # what may come before an opening quote or after a closing one
        if inside[-1] or (quotes[1:] & inside[1:] & ~edges[:-1]).any() or (
                quotes[:-1] & ~inside[:-1] & ~edges[1:]).any():
            raise _NotPlain  # an open quote, a quote in a field or text after a closing one
        if raw is not block and (line_ends & inside).any():  # a quoted LF: was it a CRLF?
            raw_data = np.frombuffer(raw, np.uint8)
            if _in_quotes(raw_data)[raw_data == ord("\r")].any():
                raise _NotPlain  # a quoted CR, which the csv module keeps
        seps &= ~inside
        line_ends &= ~inside
    # Every field ends at a separator: a comma, or the LF that ends its line.
    ends = np.flatnonzero(seps)
    lines = np.count_nonzero(line_ends)
    line_end = ends[width - 1::width]
    if len(ends) != width * lines or not line_ends[line_end].all():  # a ragged or blank line
        lf = np.flatnonzero(line_ends)
        blank = lf[np.diff(lf, prepend=-1) == 1]  # which the csv path skips too
        if not len(blank):
            raise _NotPlain
        block = np.delete(data, blank).tobytes()
        return _fixed_keys(block, width) or _separated_keys(block, block, width)
    limit = csv.field_size_limit() + 1  # the farthest a separator may be from the one before
    if (len(block) > limit and np.diff(line_end, prepend=-1).max() > limit
            and np.diff(ends, prepend=-1).max() > limit):
        raise _NotPlain  # a field over the csv module's limit, in any column
    buffer = block + bytes(8)

    def keys(c: int) -> np.ndarray:
        at = ends[c - 1::width] + 1 if c else np.concatenate(([0], line_end[:-1] + 1))
        return _field_keys(buffer, at, ends[c::width] - at)
    return lines, keys


def _code_block(block: bytes, width: int, row: int, columns: Sequence[_BlockColumn],
                required: Sequence[str]) -> int:
    """Code a block's rows from row on into each column, and return the row
    after them. CRLF is read as LF, and blank lines are skipped. A block has
    a fixed layout when it holds no quote and every line has the first
    line's length, with its commas at the first line's offsets (and no other
    comma or LF): it is then a table of lines, and each column's keys a
    strided view of it, so no separator is searched for and no field
    gathered (_fixed_keys). Any other block is read by _separated_keys.
    Raises _NotPlain unless the block passes their checks, every field
    passes _valid and the rows fit."""
    raw = block
    if b"\r" in raw:  # each CR ends a CRLF (see _count_plain_lines)
        block = raw.replace(b"\r", b"")
    lines, keys = _fixed_keys(block, width) or _separated_keys(raw, block, width)
    if not lines:
        return row
    end = row + lines
    for column in columns:
        if end > len(column.codes):
            raise _NotPlain  # the file grew after its lines were counted
        column.code(keys(column.position), row, required)
    return end


def _read_plain_file(
    file: IO[bytes], encoding: str, group: bool
) -> tuple[RecordColumns, tuple[np.ndarray, tuple[str, ...]] | None] | None:
    """_read_review_csv of a seekable file of bytes read by blocks with
    numpy, without an object per row or field, its header decoded with
    encoding; None when a check fails, for the csv path."""
    try:
        # Lines are counted first, so that each column's codes fill one
        # array and nothing made per block outlives the block: small
        # arrays kept per block fragment the heap and raise peak RSS.
        bound = 1 + _count_plain_lines(file)
        file.seek(0)
        blocks = _plain_blocks(file)
        head, _, first = next(blocks, b"").partition(b"\n")
        # strict, so that an open quote in the header sends the file to the csv path
        header = next(csv.reader([head.decode(encoding)], strict=True))
        position, required, names = _review_layout(header, group)
        columns = [_BlockColumn(name, position[name], bound) for name in names]
        rows = 0
        for block in chain((first,), blocks):
            rows = _code_block(block, len(header), rows, columns, required)
    except (_NotPlain, csv.Error, CsvFormatError, UnicodeDecodeError, OSError):
        return None
    return _finish({column.name: (column.codes[:rows], column.values) for column in columns})


@contextlib.contextmanager
def _byte_file(source: Source) -> Iterator[tuple[IO[bytes], dict[str, str]]]:
    """source as a seekable file of bytes, and the TextIOWrapper arguments its
    text is read with. A regular file is opened. A path that is not a regular
    file (a pipe) is copied as it is into an unnamed temporary file, and read
    as a regular file. An open file of bytes, such as one this gave, is read
    as its path would be, from its start, through its descriptor, which is
    left open. A text stream is copied as UTF-8: line by line, so that the
    copy splits at a lone CR only if the stream does (as one opened with
    newline="" does, and an io.StringIO does not), with lone surrogates
    kept. Only a path's BOM is dropped."""
    with contextlib.ExitStack() as files:
        if isinstance(source, (str, os.PathLike, io.BufferedIOBase)):
            opened = isinstance(source, io.BufferedIOBase)
            file = files.enter_context(
                open(source.fileno() if opened else source, "rb", closefd=not opened))
            text = {"encoding": "utf-8-sig", "newline": ""}
            if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                file.seek(0)
                yield file, text
                return
            copy = files.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(file, copy, _BLOCK)
        else:
            copy = files.enter_context(tempfile.TemporaryFile())
            text = {"encoding": "utf-8", "errors": "surrogatepass", "newline": "\n"}
            lines = iter(source)
            while batch := list(islice(lines, _BATCH)):
                chunk = "".join(batch)
                if "\r" in chunk and any(line.endswith("\r") for line in batch):
                    text["newline"] = ""
                copy.write(chunk.encode("utf-8", "surrogatepass"))
        copy.seek(0)
        yield copy, text


def _read_review_csv(
    source: Source, group: bool = False
) -> tuple[RecordColumns, tuple[np.ndarray, tuple[str, ...]] | None]:
    """Parse a review CSV straight into code columns, and the group column's
    codes and labels when group is set.

    Rows are read as csv.DictReader reads them: blank lines are skipped,
    missing trailing fields read as empty, extra fields are ignored and a
    repeated header name means its last column. Values are stripped; team
    and period may be blank.

    _read_plain_file reads the bytes that _byte_file gives; when one of its
    checks fails, a bad value's among them, _read_csv_stream reads them once
    and names the first bad row and column (see ingest_csv).
    """
    with _byte_file(source) as (file, text):
        read = _read_plain_file(file, text["encoding"], group)
        if read is not None:
            return read
        file.seek(0)
        with io.TextIOWrapper(file, **text) as stream:
            return _read_csv_stream(stream, group)


def ingest_csv(source: Source) -> RecordColumns:
    """Read long-format review records from a CSV path or stream.

    Required columns: product_id, reviewer_id, question_id, answer,
    final_classification. Optional: team (blank means none) and period
    (integer). Errors name the offending column and file line. The result
    is a RecordColumns: a sequence of ReviewRecord held as code columns,
    which validate_dataset keeps without making a record object per row.

    The source is a path (a str or an os.PathLike) or a text stream; a
    stream, or a path that is not a regular file, is first copied into an
    unnamed temporary file (see _byte_file). The bytes are read in 128 KiB
    blocks with numpy, each distinct field value decoded and checked once
    per file (see _BlockColumn), a column whose values run on over rows
    (sorted or blank) looked up once per run. A block of fixed layout (no
    quote, and every line of the first line's length with its commas at the
    first line's offsets) is read as a table whose columns are strided
    views, without a separator search or a gather (see _code_block). The
    csv module reads the bytes once from their start instead when they hold
    a NUL, a lone CR, a quote inside an unquoted field, a quoted CR, a
    ragged row, a record over 128 KiB, a field too wide to gather or a bad
    value, which it names in that one read by its first bad row and column,
    so both routes give identical records and errors. Only a path's BOM is
    dropped: a stream whose text starts with U+FEFF fails on its header.
    """
    records, _ = _read_review_csv(source)
    if not len(records):
        raise CsvFormatError("no data rows")
    return records


def ingest_csv_groups(source: Source) -> dict[str, RecordColumns]:
    """Read a review CSV with a group column into records per group, in
    order of each group's first row, each over the labels it uses. A blank
    group is an error."""
    records, (codes, labels) = _read_review_csv(source, group=True)
    first_rows = np.unique(codes, return_index=True)[1]
    return {
        labels[code]: records.take(np.flatnonzero(codes == code)).compact()
        for code in np.argsort(first_rows).tolist()
    }


def read_ground_truth_csv(source: Source) -> dict[str, str]:
    """Read product_id -> classification pairs. A product may repeat only
    with the same classification."""
    with _csv_reader(source, GROUND_TRUTH_COLUMNS) as (reader, header):
        truth: dict[str, str] = {}
        for product, label in _named_rows(reader, header, GROUND_TRUTH_COLUMNS):
            if not (is_label(product) and is_label(label)):
                raise CsvFormatError(f"blank ground-truth entry on row {reader.line_num}",
                                     row=reader.line_num)
            product, label = product.strip(), label.strip()
            if truth.setdefault(product, label) != label:
                raise CsvFormatError(
                    f"conflicting ground truth for product {product!r} on row "
                    f"{reader.line_num}: {label!r} after {truth[product]!r}",
                    row=reader.line_num, column="classification",
                )
        if not truth:
            raise CsvFormatError("ground-truth file has no data rows")
        return truth


_QUOTE_NEEDING = re.compile('[,"\r\n]')  # the characters that make csv.writer quote a field


def _quoted(value) -> str:
    """A CSV field as csv.writer writes it under QUOTE_MINIMAL: None is
    empty, and a field holding a comma, quote, CR or LF is quoted with each
    quote doubled. (csv.writer with an LF line terminator leaves a bare CR
    unquoted, which a reader then rejects.)"""
    text = "" if value is None else str(value)
    if _QUOTE_NEEDING.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# Rows are written in batches of this many; one batch's bytes, its keep-mask
# and its text are all that the writer holds beyond the label tables.
_WRITE_BATCH = 4096


def _encoded_table(table: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """The labels of a table as _quoted writes them, UTF-8 encoded into an
    S<w> array, and each label's length in bytes. The table is checked as
    one string, so only a table that holds a comma, quote, CR or LF quotes
    label by label."""
    text = ["" if label is None else str(label) for label in table]
    if _QUOTE_NEEDING.search("".join(text)):
        text = list(map(_quoted, text))
    data = [label.encode() for label in text]
    return np.array(data, np.bytes_), np.fromiter(map(len, data), np.intp, len(data))


def _write_rows(stream: IO[str], codes: Sequence[np.ndarray], tables: Sequence[Sequence],
                end: str = "\n") -> None:
    """Write one CSV row per position of the code columns: each column's
    label, quoted, joined by commas, then end; one write per _WRITE_BATCH rows.

    A batch is one structured array with an S<w> field per column and one per
    separator, so each column is filled by one np.take of its codes. Where a
    label is shorter than its column, a keep-mask of the same layout, taken
    from per-table mask rows, drops the padding in one compress.
    """
    n = len(codes[0])
    if n == 0:
        return
    separators = [b","] * (len(codes) - 1) + [end.encode()]
    layout, columns = [], []
    for i, (c, table, separator) in enumerate(zip(codes, tables, separators)):
        labels, lengths = _encoded_table(table)
        width = int(lengths.max())
        if width:  # a column of empty labels has no field, only its separator
            # Only labels from the smallest code to the largest can occur, so a
            # team or period table's unused None does not make a column short.
            short = lengths[c.min():c.max() + 1].min() < width
            mask = (np.arange(width) < lengths[:, None]).view(labels.dtype)[:, 0] if short else None
            layout.append((f"c{i}", labels.dtype))
            columns.append((f"c{i}", c, labels, mask))
        layout.append((f"s{i}", f"S{len(separator)}"))
    rows = np.empty(min(n, _WRITE_BATCH), layout)
    for i, separator in enumerate(separators):
        rows[f"s{i}"] = separator
    keep = None
    if any(mask is not None for *_, mask in columns):
        keep = np.ones(rows.nbytes, np.uint8).view(rows.dtype)
    for start in range(0, n, len(rows)):
        m = min(len(rows), n - start)
        # The codes index their tables by construction; mode="raise" would
        # check them and gather through a temporary copy of the field.
        for name, c, labels, mask in columns:
            np.take(labels, c[start:start + m], out=rows[name][:m], mode="wrap")
            if mask is not None:
                np.take(mask, c[start:start + m], out=keep[name][:m], mode="wrap")
        data = rows[:m].view(np.uint8)
        if keep is not None:
            data = data.compress(keep[:m].view(np.bool_))
        stream.write(str(data, "utf-8"))


def write_panel_csv(
    stream: IO[str],
    panels: Sequence[tuple[str | None, Iterable[ReviewRecord]]],
) -> None:
    """Write records as CSV; a group column is added when any panel names one.

    Rows are written from code columns and label tables; records given as
    objects are coded first. Fields are quoted as _quoted says, so the file
    reads back through ingest_csv with the same labels.
    """
    with_group = any(group is not None for group, _ in panels)
    header = FIELDS + (("group",) if with_group else ())
    stream.write(",".join(header) + "\n")
    for group, records in panels:
        if not isinstance(records, RecordColumns):
            records = RecordColumns.from_records(list(records))
        # The group cell ends every row of the panel.
        end = f",{_quoted(group)}\n" if with_group else "\n"
        _write_rows(stream, records.codes, records.labels, end)


def write_ground_truth_csv(stream: IO[str], truth: Mapping[str, str]) -> None:
    """Write product_id -> classification pairs as CSV, one row per product
    in sorted order, quoted as write_panel_csv quotes."""
    products = sorted(truth)
    stream.write(",".join(GROUND_TRUTH_COLUMNS) + "\n")
    classes, codes = label_codes(list(map(truth.__getitem__, products)))
    _write_rows(stream, (np.arange(len(products)), codes), (products, classes))


def read_outcome_panel_csv(source: Source) -> list[tuple[str, int, float]]:
    """Read (group, period, outcome) observations for DiD estimation. A
    group outside did.GROUPS, a period outside int64 or an outcome that is
    not finite is a CsvFormatError."""
    columns = ("group", "period", "outcome")
    with _csv_reader(source, columns) as (reader, header):
        rows: list[tuple[str, int, float]] = []
        for group, period, outcome in _named_rows(reader, header, columns):
            line, group = reader.line_num, group.strip()
            try:
                period, value = int(period.strip()), float(outcome.strip())
            except ValueError:
                raise CsvFormatError(
                    f"unparseable period/outcome on row {line}", row=line
                ) from None
            if group not in GROUPS:
                raise CsvFormatError(f"unknown group {group!r} on row {line}",
                                     row=line, column="group")
            if not -(1 << 63) <= period < 1 << 63:
                raise CsvFormatError(f"period {period} on row {line} does not fit in 64 bits",
                                     row=line, column="period")
            if not math.isfinite(value):
                raise CsvFormatError(f"outcome {outcome.strip()} on row {line} is not finite",
                                     row=line, column="outcome")
            rows.append((group, period, value))
        if not rows:
            raise CsvFormatError("no data rows")
        return rows


# --- audit pipeline ----------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    """Assembled audit report; all fields are JSON-compatible structures."""

    schema_version: int
    toolkit_version: str
    config: dict
    dataset_summary: dict
    sections: dict

    def section(self, name: str) -> dict:
        return self.sections[name]

    def statuses(self) -> dict[str, str]:
        return {name: body["status"] for name, body in self.sections.items()}


def _with_partial(exc: Exception, **partial) -> Exception:
    """Attach what a section computed before failing; the error body keeps it."""
    exc.partial = partial
    return exc


# Each section builder returns its body or raises, except that chi-square
# returns its own error body; run_audit turns a raised error into the
# section's error body, and the CLI subcommands project the same bodies.

def _agreement_section(dataset: ReviewDataset, mode: str) -> dict:
    return _ok(analyze_agreement(dataset, mode))


def _chi_square_section(
    dataset: ReviewDataset, alpha: float, yates: bool,
    questions: Sequence[str] | None = None,
) -> dict:
    per_question = {}
    for q in dataset.questions if questions is None else questions:
        try:
            table = contingency_from(dataset, q)
            result = chi_square_independence(table, alpha=alpha, yates=yates)
            per_question[q] = _ok(result)
        except ReviewAuditError as exc:
            per_question[q] = {"status": "error", "error": str(exc)}
    if all(body["status"] == "error" for body in per_question.values()):
        return {"status": "error", "error": "no question yields a testable contingency table",
                "per_question": per_question}
    return {"status": "ok", "per_question": per_question}


def _team_section(
    dataset: ReviewDataset,
    ground_truth: Mapping[str, str] | None,
    alpha: float,
    test: str | None = None,
    variant: str = "welch",
    tail: str = "two_sided",
) -> dict:
    """Error rates by team, compared by a t test (two teams) or ANOVA (more).

    test forces "t" or "anova"; variant and tail apply to the t test.
    """
    unit_team = dataset.units.team
    table = dataset.records.labels[TEAM]
    codes = np.unique(unit_team[unit_team > 0])  # code 0 is no team
    teams = list(map(table.__getitem__, codes.tolist()))
    if not teams:
        return {"status": "skipped", "reason": "no team data"}
    if len(teams) == 1:
        return {"status": "skipped", "reason": f"single team {teams[0]!r}"}
    outcomes, basis = dataset.unit_errors(ground_truth)
    groups = {team: outcomes[unit_team == code].astype(float).tolist()
              for team, code in zip(teams, codes.tolist())}
    payload = {
        "outcome_basis": basis,
        "teams": teams,
        "group_sizes": {team: len(groups[team]) for team in teams},
        "group_error_rates": {team: sum(groups[team]) / len(groups[team]) for team in teams},
    }
    test = test or ("t" if len(teams) == 2 else "anova")
    if test == "t" and len(teams) != 2:
        raise DatasetValidationError(
            f"t test compares exactly 2 teams, found {len(teams)}; use anova"
        )
    try:
        if test == "t":
            result = two_sample_t(
                groups[teams[0]], groups[teams[1]], variant=variant, tail=tail, alpha=alpha
            )
            return {"status": "ok", "test": result, **payload}
        result, decomposition = one_way_anova([groups[t] for t in teams], alpha=alpha)
        return {"status": "ok", "test": result, "anova": decomposition, **payload}
    except (ReviewAuditError, ValueError) as exc:
        raise _with_partial(exc, **payload)


def _extrapolation_section(
    dataset: ReviewDataset,
    ground_truth: Mapping[str, str] | None,
    method: str,
    level: float,
) -> dict:
    outcomes, basis = dataset.unit_errors(ground_truth)
    if not len(outcomes):
        return {"status": "skipped", "reason": "no units to extrapolate"}
    # "all" sorts before every "reviewer:<id>", and reviewer codes in id order
    reviewer, table = dataset.units.reviewer, dataset.records.labels[REVIEWER]
    sizes = np.bincount(reviewer, minlength=len(table))
    errors = np.bincount(reviewer, weights=outcomes, minlength=len(table))
    intervals = {"all": binomial_ci(int(outcomes.sum()), len(outcomes), level=level, method=method)}
    for code in np.flatnonzero(sizes).tolist():
        intervals[f"reviewer:{table[code]}"] = binomial_ci(
            int(errors[code]), int(sizes[code]), level=level, method=method)
    return {"status": "ok", "outcome_basis": basis, "groups": intervals}


def _bias_section(dataset: ReviewDataset, factors: Sequence[str] | None = None) -> dict:
    return _ok(bias_factor_report(dataset, factors))


def _did_section(did_panel: DidPanel | DidPair | Callable[[], DidPanel] | None,
                 period_balanced: bool = False) -> dict:
    if did_panel is None:
        return {"status": "skipped", "reason": "no difference-in-differences input"}
    if callable(did_panel):  # a panel that cannot be made is this section's error
        did_panel = did_panel()
    if isinstance(did_panel, DidPair):
        result = did_with_error_rates(did_panel.treated, did_panel.control, did_panel.ground_truth,
                                      did_panel.change_period, period_balanced=period_balanced)
    else:
        result = did_estimate(did_panel, period_balanced=period_balanced)
    return _ok(result)


def _run_section(build, *args) -> dict:
    """The section's body, or its error body when the builder raises."""
    try:
        return build(*args)
    except (ReviewAuditError, ValueError) as exc:
        return {"status": "error", "error": str(exc), **getattr(exc, "partial", {})}


def run_audit(
    dataset: ReviewDataset,
    ground_truth: Mapping[str, str] | None = None,
    alpha: float = 0.05,
    overall_kappa_mode: str = "pooled",
    ci_method: str = "clopper_pearson",
    ci_level: float = 0.95,
    yates: bool = False,
    did_panel: DidPanel | DidPair | Callable[[], DidPanel] | None = None,
) -> AuditReport:
    """Run every audit section over a validated dataset.

    Sections are independent: one failing is recorded as a structured
    error and the rest still run. The call itself raises only if the
    arguments are invalid. did_panel may be a function that makes the
    panel; the did section calls it, so an unusable panel is its error.
    """
    _check_alpha(alpha)
    if overall_kappa_mode not in OVERALL_KAPPA_MODES:
        raise ValueError(
            f"overall_kappa_mode must be one of {OVERALL_KAPPA_MODES}, "
            f"got {overall_kappa_mode!r}"
        )
    if ci_method not in CI_METHODS:
        raise ValueError(f"ci_method must be one of {CI_METHODS}, got {ci_method!r}")
    if not (0.0 < ci_level < 1.0):
        raise ValueError(f"ci_level must be in (0, 1), got {ci_level}")

    sections = {
        "agreement": _run_section(_agreement_section, dataset, overall_kappa_mode),
        "chi_square": _run_section(_chi_square_section, dataset, alpha, yates),
        "team_comparison": _run_section(_team_section, dataset, ground_truth, alpha),
        "error_extrapolation": _run_section(
            _extrapolation_section, dataset, ground_truth, ci_method, ci_level
        ),
        "bias_factors": _run_section(_bias_section, dataset),
        "did": _run_section(_did_section, did_panel),
    }
    config = {
        "alpha": alpha,
        "overall_kappa_mode": overall_kappa_mode,
        "ci_method": ci_method,
        "ci_level": ci_level,
        "yates": yates,
        "ground_truth_provided": ground_truth is not None,
    }
    summary = dataset.summary
    dataset_summary = {
        "n_records": summary.n_records,
        "n_input_records": summary.n_input_records,
        "n_dropped_cells": summary.n_dropped_cells,
        "n_dropped_records": summary.n_dropped_records,
        "incomplete_cell_policy": summary.policy,
        "n_products": len(dataset.products),
        "n_reviewers": len(dataset.reviewers),
        "n_questions": len(dataset.questions),
        "n_raters": dataset.n_raters,
    }
    return AuditReport(
        schema_version=SCHEMA_VERSION,
        toolkit_version=__version__,
        config=_plain(config),
        dataset_summary=_plain(dataset_summary),
        sections=_plain(sections),
    )


# --- serialization -----------------------------------------------------------

_json_string = json.encoder.encode_basestring_ascii  # json's C escaper


def _json_text(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, and never NaN or Infinity.

    The text of json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    plus a newline, written here because json.dumps takes its pure-Python
    encoder once an indent is set. Keys must be str, as every report key is.
    """
    parts: list[str] = []
    _write_json(payload, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, write) -> None:
    """Write value's JSON; newline is the line break and indent of its level."""
    if isinstance(value, str):
        write(_json_string(value))
    elif value is None or value is True or value is False:
        write("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        write(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(value):  # the escaper refuses a key that is not a str
            write(f"{sep}{inner}{_json_string(key)}: ")
            _write_json(value[key], inner, write)
            sep = ","
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            write(sep + inner)
            _write_json(item, inner, write)
            sep = ","
        write(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_report(report: AuditReport, fmt: str = "json") -> str:
    """Serialize a report: canonical JSON (sorted keys) or readable text."""
    if fmt == "json":
        return _json_text(_fields(report))
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"format must be 'json' or 'text', got {fmt!r}")


def parse_report(text: str) -> AuditReport:
    """Inverse of emit_report(fmt="json")."""
    payload = json.loads(text)
    return AuditReport(**{f.name: payload[f.name] for f in fields(AuditReport)})


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _ranking_text(agreement: dict, w) -> None:
    for rank, q in enumerate(agreement["disagreement_ranking"], start=1):
        w(f"  {rank}. {q}  kappa={_fmt(agreement['per_question'][q]['kappa'])}\n")
    for q, note in agreement["annotations"].items():
        w(f"  -- {q}: {note}\n")


def _agreement_text(agreement: dict, w) -> None:
    w(f"  overall kappa ({agreement['overall_mode']}): {_fmt(agreement['overall_kappa'])}\n")
    w(f"  consensus agreement rate: {_fmt(agreement['agreement_rate'])}\n")
    for note in agreement["notes"]:
        w(f"  note: {note}\n")


def _chi_square_text(chi: dict, w) -> None:
    for q, body in chi["per_question"].items():
        if body["status"] != "ok":
            w(f"  {q}: error: {body['error']}\n")
            continue
        w(f"  {q}: statistic={_fmt(body['statistic'])} df={body['df']} "
          f"p={_fmt(body['p_value'])} reject@{body['alpha']}={body['reject_null']}")
        if body["warnings"]:
            w(f"  [{'; '.join(body['warnings'])}]")
        w("\n")


def _team_text(team: dict, w) -> None:
    test = team["test"]
    w(f"  {test['test_kind']}: statistic={_fmt(test['statistic'])} df={test['df']} "
      f"p={_fmt(test['p_value'])} reject@{test['alpha']}={test['reject_null']}\n")
    w(f"  outcome basis: {team['outcome_basis']}\n")
    for t in team["teams"]:
        w(f"  team {t}: n={team['group_sizes'][t]} "
          f"error_rate={_fmt(team['group_error_rates'][t])}\n")


def _extrapolation_text(extrapolation: dict, w) -> None:
    w(f"  outcome basis: {extrapolation['outcome_basis']}\n")
    for name, body in extrapolation["groups"].items():
        w(f"  {name}: {body['x']}/{body['n']} errors, "
          f"{body['level']:.0%} CI [{_fmt(body['lower'])}, {_fmt(body['upper'])}] "
          f"({body['method']})\n")


def _bias_text(bias: dict, w) -> None:
    w(f"  target: {bias['target_labels'][0]} vs {bias['target_labels'][1]} "
      f"over {bias['n_rows']} units, ranked by {bias['ranked_by']}\n")
    for effect in bias["effects"]:
        w(f"  {effect['name']}: ols={_fmt(effect['ols_coefficient'])} "
          f"logistic={_fmt(effect['logistic_coefficient'])}\n")
    for fit in ("ols", "logistic"):
        if bias[f"{fit}_error"]:
            w(f"  {fit} error: {bias[f'{fit}_error']}\n")


def _did_text(did: dict, w) -> None:
    w(f"  effect: {_fmt(did['effect'])}\n")
    w(f"  treated: pre={_fmt(did['treated_pre_mean'])} post={_fmt(did['treated_post_mean'])}; "
      f"control: pre={_fmt(did['control_pre_mean'])} post={_fmt(did['control_post_mean'])}\n")
    series = [(f"actual {group}", s) for group, s in did["per_group_series"].items()]
    for name, pairs in series + [("counterfactual", did["counterfactual"])]:
        w(f"  {name} series: {' '.join(f'({p}, {_fmt(v)})' for p, v in pairs)}\n")
    if did["effect_se"] is not None:
        w(f"  bootstrap SE: {_fmt(did['effect_se'])}\n")


# The text report's blocks in order: (section, heading, body writer, the word
# that leads a failed section's error, or None to write nothing for it).
_TEXT_BLOCKS = (
    ("agreement", "Disagreement ranking (highest disagreement first)", _ranking_text,
     "unavailable"),
    ("agreement", "Agreement", _agreement_text, None),
    ("chi_square", "Chi-square: answer vs classification", _chi_square_text, "unavailable"),
    ("team_comparison", "Team comparison", _team_text, "error"),
    ("error_extrapolation", "Error-rate extrapolation", _extrapolation_text, "error"),
    ("bias_factors", "Bias factors (ranked by influence)", _bias_text, "error"),
    ("did", "Difference-in-differences", _did_text, "error"),
)


def render_text(report: AuditReport) -> str:
    """Human-readable rendering; the disagreement ranking leads."""
    out = io.StringIO()
    w = out.write
    w(f"REVIEW AUDIT REPORT (schema {report.schema_version}, "
      f"toolkit {report.toolkit_version})\n")
    ds = report.dataset_summary
    w(f"dataset: {ds['n_records']} records, {ds['n_products']} products, "
      f"{ds['n_reviewers']} reviewers, {ds['n_questions']} questions")
    if ds["n_dropped_cells"]:
        w(f" ({ds['n_dropped_cells']} incomplete cells dropped)")
    w("\n")
    for name, heading, write_body, failure in _TEXT_BLOCKS:
        body = report.sections[name]
        w(f"\n== {heading} ==\n")
        if body["status"] == "skipped":
            w(f"  skipped: {body['reason']}\n")
        elif body["status"] == "ok" or "per_question" in body:
            # a failed chi-square body still lists the questions it kept
            write_body(body, w)
        elif failure:
            w(f"  {failure}: {body.get('error')}\n")
    return out.getvalue()
