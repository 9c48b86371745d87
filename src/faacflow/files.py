"""File formats every stage shares: YAML config mappings and CSV sheets.

Configs are UTF-8 YAML whose top level is a mapping; an empty file reads as
an empty mapping. They are parsed by libyaml when PyYAML was built with it and
by PyYAML's pure-Python parser otherwise; both build documents with the same
safe constructor and resolver. Sheets are UTF-8 CSV in the ``excel`` dialect
with ``\\n`` line ends. Readers and writers take a path or an open text handle
(readers also any iterable of lines); a path is opened with ``newline=""``.
Flow files move a block of rows at a time through ``read_csv_blocks`` and
``write_csv_blocks``, with the csv module's rows and bytes.
A file that exists but cannot be read as UTF-8 text is a ConfigError (a
config) or a DataError (a sheet) naming the file; a missing file stays a
FileNotFoundError.
"""

from __future__ import annotations

import csv
import functools
import io
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import TextIO, TypeVar

import yaml

from .errors import ConfigError, DataError

# either loader builds the same documents; tests/test_files.py compares them
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Config = TypeVar("_Config")  # what a config loader returns


def read_yaml_mapping(path: str | Path) -> dict:
    """The top-level mapping of a YAML file; an empty file is ``{}``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:  # a UnicodeDecodeError, or a NUL in the path
        raise ConfigError(f"{path}: cannot read as UTF-8 text: {exc}") from exc
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    return doc


def names_its_file(load: Callable[[str | Path], _Config]) -> Callable[[str | Path], _Config]:
    """A config loader whose every ConfigError names the file it read once, at the start."""
    @functools.wraps(load)
    def named(path: str | Path) -> _Config:
        try:
            return load(path)
        except ConfigError as exc:
            if str(exc).startswith(f"{path}: "):
                raise
            raise ConfigError(f"{path}: {exc}") from exc
    return named


def check_keys(doc: dict, known: Sequence[str], what: str, where: object = None) -> None:
    """Reject a ``doc`` that is not a mapping, or its first key that is not in ``known``."""
    prefix = "" if where is None else f"{where}: "
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix}expected a mapping of {what}s, got {doc!r}")
    for k in doc:
        if k not in known:
            raise ConfigError(f"{prefix}unknown {what} {k!r}; expected one of {', '.join(known)}")


def as_mapping(value: object, key: str, where: object) -> dict:
    """``value`` if it is a mapping; otherwise a ConfigError naming ``where`` and ``key``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: {key} must be a mapping, got {value!r}")
    return value


def as_list(value: object, key: str, where: object) -> list:
    """``value`` if it is a list; otherwise a ConfigError naming ``where`` and ``key``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {key} must be a list, got {value!r}")
    return value


def as_int(value: object, key: str, where: object) -> int:
    """``value`` if it is an integer and not a boolean; otherwise a ConfigError naming ``where`` and ``key``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")
    return value


def as_bool(value: object, key: str, where: object) -> bool:
    """``value`` if it is a boolean; otherwise a ConfigError naming ``where`` and ``key``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")
    return value


@contextmanager
def _lines(source: str | Path | TextIO | Iterable[str]) -> Iterator[Iterator[str]]:
    """The lines of a path, open handle or iterable of lines; reading a path
    that is not UTF-8 text raises a DataError naming it."""
    if not isinstance(source, (str, Path)):
        yield iter(source)
        return
    try:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{source}: cannot read as UTF-8 text: {exc}") from exc


def read_csv(source: str | Path | TextIO | Iterable[str]) -> Iterator[list[str]]:
    """Rows of a CSV file, open handle or iterable of lines, in order."""
    with _lines(source) as lines:
        yield from csv.reader(lines)


def write_csv(dest: str | Path | TextIO, header: Sequence[object], rows: Iterable[Sequence[object]]) -> int:
    """Write a header line and then ``rows``; returns the number of rows."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            return write_csv(fh, header, rows)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    n = 0
    for row in rows:
        writer.writerow(row)
        n += 1
    return n


# Blocks of rows move between text and columns with one str.split or str.join
# when that gives the csv module's rows or bytes: no field holds a delimiter,
# a quote, a line end or NUL. Every other block goes through the csv module.
_NOT_PLAIN = (",", '"', "\r", "\n", "\0")
_JOINED_ROWS = 1024  # rows a block writes with one str.join, which bounds the text held at once


@dataclass(frozen=True, slots=True)
class CsvBlock:
    """Consecutive rows of a CSV source.

    ``columns`` holds one list of fields per column when every row has the
    same number of fields, at least two; otherwise it is None and ``rows``
    holds the rows, a blank one as an empty list.
    """

    columns: list[list[str]] | None
    rows: list[list[str]] | None = None

    def __len__(self) -> int:
        return len(self.rows) if self.columns is None else len(self.columns[0])  # type: ignore[arg-type]

    def row(self, i: int) -> list[str]:
        return self.rows[i] if self.columns is None else [c[i] for c in self.columns]  # type: ignore[index]


class CsvBlockReader:
    """The rows of CSV lines, read one at a time or a block at a time.

    A block of lines is split with ``str.split`` when it provably is plain
    text: every line ends in ``\\n``, no line holds a quote, CR or NUL, all
    lines hold the same number of commas, at least one, and no field is
    longer than ``csv.field_size_limit()``. After the first quote, CR or NUL
    the csv module reads the rest of the lines, because a quoted field may
    span lines; any other block that is not plain goes through the csv module
    on its own. Either way the rows are those of ``csv.reader``.
    """

    def __init__(self, lines: Iterator[str]) -> None:
        self._lines = lines
        # a text stream's lines each hold at most one LF, at their end
        self._stream = isinstance(lines, io.TextIOBase)
        self._rows: Iterator[list[str]] | None = None  # the csv module's rows of the rest, once it reads them
        self._head: list[str] | None = None

    def row(self) -> list[str] | None:
        """The next row, read by the csv module; None at the end."""
        return next(self._rows or csv.reader(self._lines), None)

    def unread(self, row: list[str]) -> None:
        """Make ``row`` the first row of the next block."""
        self._head = row

    def block(self, size: int) -> CsvBlock:
        """The next ``size`` rows, fewer at the end; an empty block when none are left."""
        head, self._head = self._head, None
        if head is None:
            return self._read(size)
        block = self._read(size - 1)
        if block.columns is not None and len(head) == len(block.columns):
            return CsvBlock([[field, *col] for field, col in zip(head, block.columns)])
        return CsvBlock(None, [head, *map(block.row, range(len(block)))])

    def _read(self, size: int) -> CsvBlock:
        if self._rows is None:
            lines = list(islice(self._lines, size))
            text = "".join(lines)
            if '"' in text or "\r" in text or "\0" in text:
                self._rows = csv.reader(chain(lines, self._lines))  # a quoted field may span lines
            else:
                columns = self._split(lines, text)
                return CsvBlock(None, list(csv.reader(lines))) if columns is None else CsvBlock(columns)
        return CsvBlock(None, list(islice(self._rows, size)))

    def _split(self, lines: list[str], text: str) -> list[list[str]] | None:
        """The columns of ``lines`` joined as ``text``; None unless they are plain."""
        n = len(lines)
        width = lines[0].count(",") + 1 if lines else 0
        limit = csv.field_size_limit()  # a field is shorter than its line
        if (width < 2 or text.count("\n") != n or not (self._stream or all(map(str.endswith, lines, repeat("\n"))))
                or (len(text) > limit and max(map(len, lines)) > limit)):
            return None
        # each LF stays at the end of the field before it, which must be its line's last
        fields = text.replace("\n", "\n,").split(",")
        if len(fields) != n * width + 1:
            return None
        fields.pop()  # after the last line end
        ends = "".join(fields[width - 1 :: width])
        if ends.count("\n") != n:  # some line holds more or fewer commas than the first
            return None
        last = ends.split("\n")
        last.pop()
        return [*(fields[j::width] for j in range(width - 1)), last]


@contextmanager
def read_csv_blocks(source: str | Path | TextIO | Iterable[str]) -> Iterator[CsvBlockReader]:
    """A CsvBlockReader over a CSV file, open handle or iterable of lines."""
    with _lines(source) as lines:
        yield CsvBlockReader(lines)


def write_csv_blocks(
    dest: str | Path | TextIO, header: Sequence[object], blocks: Iterable[Sequence[Iterable[str]]]
) -> int:
    """Write a header line and then the rows of each block; returns the number of rows.

    A block is a sequence of columns of str fields, each the same length. A
    column that is a list is scanned for fields holding a comma, quote, CR,
    LF or NUL; any other iterable, such as a ``map`` of ``float.__repr__``,
    must hold none. A block of two or more columns with no such field is
    written with one ``str.join`` per ``_JOINED_ROWS`` rows; any other goes
    through the csv module. Either way the bytes are those of ``csv.writer``.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            return write_csv_blocks(fh, header, blocks)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    n = 0
    for columns in blocks:
        listed = map("".join, (c for c in columns if isinstance(c, list)))
        if len(columns) > 1 and not any(ch in text for text in listed for ch in _NOT_PLAIN):
            lines = map(",".join, zip(*columns))
            while text := "\n".join(islice(lines, _JOINED_ROWS)):
                dest.write(text)
                dest.write("\n")
                n += text.count("\n") + 1
        else:
            rows = list(zip(*columns))
            writer.writerows(rows)
            n += len(rows)
    return n
