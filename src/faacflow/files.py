"""File formats every stage shares: YAML config mappings and CSV sheets.

Configs are UTF-8 YAML whose top level is a mapping; an empty file reads as
an empty mapping. They are parsed by libyaml when PyYAML was built with it and
by PyYAML's pure-Python parser otherwise; both build documents with the same
safe constructor and resolver. Sheets are UTF-8 CSV in the ``excel`` dialect
with ``\\n`` line ends. Readers and writers take a path or an open text handle
(readers also any iterable of lines); a path is opened with ``newline=""``.
A file that exists but cannot be read as UTF-8 text is a ConfigError (a
config) or a DataError (a sheet) naming the file; a missing file stays a
FileNotFoundError.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import TextIO

import yaml

from .errors import ConfigError, DataError

# either loader builds the same documents; tests/test_files.py compares them
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml_mapping(path: str | Path) -> dict:
    """The top-level mapping of a YAML file; an empty file is ``{}``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
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


def read_csv(source: str | Path | TextIO | Iterable[str]) -> Iterator[list[str]]:
    """Rows of a CSV file, open handle or iterable of lines, in order."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                yield from csv.reader(fh)
        except FileNotFoundError:
            raise
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"{source}: cannot read as UTF-8 text: {exc}") from exc
    else:
        yield from csv.reader(source)


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
