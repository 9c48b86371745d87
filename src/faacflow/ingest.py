"""Flow-record ingestion: CSV parsing, schema mapping, synthetic generation.

A source dataset is described by a :class:`SourceSchema` loaded from a YAML
file. Flows move between stages as :class:`FlowChunk` objects: up to
``CHUNK_RECORDS`` consecutive flows held one column per variable, so
generating, formatting, parsing and counting each work a column at a time.
A stream holds one source: every chunk carries its dataset id as its
origin. Parsing maps each source label to a canonical class name through the
schema's ``class_map``, or else reads it as a class name of the schema's
taxonomy, and streams chunks in file order with memory bounded by one
chunk; a row it skips is a warning on this module's logger.
:func:`as_chunks` and :func:`iter_records` convert between chunks and the
one-flow-at-a-time :class:`FlowRecord` form.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ConfigError, DataError
from .files import (CsvBlock, as_int, as_list, as_mapping, check_keys, names_its_file, read_csv_blocks,
                    read_yaml_mapping, write_csv_blocks)

log = logging.getLogger(__name__)

CATEGORICAL = "categorical"
NUMERIC = "numeric"

#: rows per FlowChunk that synthesis, parsing and the record adapter produce; derivation
#: counts this many records per numpy pass, rounded down to whole batches (at least one batch)
CHUNK_RECORDS = 4096

#: Canonical class order used when a config does not override it.
DEFAULT_CLASSES = ("Background", "DoS", "PortScanning")


@dataclass(frozen=True)
class CanonicalTaxonomy:
    """Ordered canonical class list; index 0 is always Background."""

    classes: tuple[str, ...] = DEFAULT_CLASSES

    def __post_init__(self) -> None:
        if not self.classes or self.classes[0] != "Background":
            raise ConfigError("taxonomy must start with 'Background'")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError("taxonomy classes must be unique")

    @property
    def attacks(self) -> tuple[str, ...]:
        return self.classes[1:]

    def index_of(self, name: str) -> int:
        try:
            return self.classes.index(name)
        except ValueError:
            raise DataError(f"class {name!r} not in taxonomy {list(self.classes)}") from None

    def __contains__(self, name: object) -> bool:
        return name in self.classes


DEFAULT_TAXONOMY = CanonicalTaxonomy()


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One raw flow: variable values, canonical class label, origin tag.

    ``values`` maps variable name -> raw value in schema order. A value is
    a non-empty string token (categorical), a finite float (numeric), or
    None for an explicit missing marker.
    """

    values: dict[str, object]
    label: str
    origin: str


@dataclass(frozen=True, slots=True, eq=False)
class FlowChunk:
    """Consecutive flows of one source, one column per variable.

    ``columns`` maps variable name -> one value per row in the form of
    :func:`as_column`: a float64 array, NaN for None, when each value is None
    or a float that is not NaN, as in every numeric column of a synthetic or
    parsed source; otherwise a list of :class:`FlowRecord` values. ``labels``
    holds each row's canonical class, and ``origin`` the source's tag, which
    every row shares. Every row has every column. A chunk equals only itself:
    a field-wise ``==`` would ask an array column for one truth value.
    """

    columns: dict[str, np.ndarray | list[object]]
    labels: list[str]
    origin: str

    def __len__(self) -> int:
        return len(self.labels)


def as_column(values: np.ndarray | list[object]) -> np.ndarray | list[object]:
    """A chunk's column of ``values``: a float64 array, NaN for None, when each value is None or a float
    that is not NaN; otherwise the list itself. An array passes through."""
    if isinstance(values, np.ndarray):
        return values
    kinds = {float, type(None)}
    # a first value of another type, a categorical token say, settles it without a scan of the rest
    if values and type(values[0]) not in kinds or not set(map(type, values)) <= kinds:
        return values
    x = np.array(values, dtype=np.float64)
    nan_at = np.flatnonzero(np.isnan(x)).tolist()
    return x if all(values[i] is None for i in nan_at) else values  # else a NaN value is present


def column_values(column: np.ndarray | list[object]) -> list[object]:
    """A column's values in the FlowRecord form: a list passes through, and an array's values
    are floats, None for NaN, with one shared object per distinct value."""
    if isinstance(column, list):
        return column
    # keyed by bits, not by value: np.unique merges -0.0 and 0.0
    keys, inverse = np.unique(column.view(np.int64), return_inverse=True)
    distinct = keys.view(np.float64)
    shared = np.empty(len(distinct), dtype=object)
    shared[:] = distinct.tolist()
    shared[np.isnan(distinct)] = None
    return shared[inverse].tolist()


def as_chunks(stream: Iterable[FlowRecord] | Iterable[FlowChunk]) -> Iterator[FlowChunk]:
    """The stream as chunks, in order.

    A stream of chunks passes through. A stream of records is gathered into
    chunks of up to ``CHUNK_RECORDS`` rows. A stream has one source and one
    column set: a record whose origin or variable names differ from those of
    the stream's first record is a DataError.
    """
    it = iter(stream)
    first = next(it, None)
    if isinstance(first, FlowChunk):
        yield first
        yield from it
        return
    names = () if first is None else tuple(first.values)
    origin = "" if first is None else first.origin
    pending = [] if first is None else [first, *islice(it, CHUNK_RECORDS - 1)]
    seen = 0  # records in the chunks yielded
    while pending:
        dicts = [rec.values for rec in pending]
        try:
            columns = {name: [d[name] for d in dicts] for name in names}
        except KeyError:
            columns = None
        # equal sizes and every name of the first record present: equal names
        if (columns is None or list(map(len, dicts)).count(len(names)) != len(dicts)
                or [rec.origin for rec in pending].count(origin) != len(pending)):
            i, rec = next((i, rec) for i, rec in enumerate(pending)
                          if rec.values.keys() != set(names) or rec.origin != origin)
            if rec.origin != origin:
                raise DataError(f"record {seen + i + 1} has origin {rec.origin!r}, not the stream's {origin!r}; "
                                "derive each source separately")
            raise DataError(
                f"record {seen + i + 1} names columns {sorted(rec.values)}, not the stream's {sorted(names)}"
            )
        yield FlowChunk(
            columns={name: as_column(values) for name, values in columns.items()},
            labels=[rec.label for rec in pending],
            origin=origin,
        )
        seen += len(pending)
        pending = list(islice(it, CHUNK_RECORDS))


def iter_records(chunks: Iterable[FlowChunk]) -> Iterator[FlowRecord]:
    """The rows of each chunk as FlowRecords, in order; see :func:`column_values`."""
    for chunk in chunks:
        names = tuple(chunk.columns)
        rows = zip(*map(column_values, chunk.columns.values())) if names else repeat((), len(chunk))
        for values, label in zip(rows, chunk.labels):
            yield FlowRecord(values=dict(zip(names, values)), label=label, origin=chunk.origin)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # CATEGORICAL or NUMERIC

    def __post_init__(self) -> None:
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")


# the keys each distribution kind reads, besides kind and missing_rate
_DISTRIBUTION_ARGS = {
    "choice": ("values",),
    "uniform_int": ("lo", "hi"),
    "uniform_float": ("lo", "hi"),
    "constant": ("value",),
    "mixture": ("components",),
}


@dataclass(frozen=True)
class Distribution:
    """Per-variable sampling rule for the synthetic generator.

    kinds: ``choice`` (weighted values), ``uniform_int`` ([lo, hi)),
    ``uniform_float`` ([lo, hi)), ``constant``, ``mixture`` (weighted
    sub-distributions). ``missing_rate`` replaces that fraction of draws
    with the missing marker.
    """

    kind: str
    values: tuple[tuple[object, float], ...] = ()
    lo: float = 0.0
    hi: float = 1.0
    value: object = None
    components: tuple[tuple[float, "Distribution"], ...] = ()
    missing_rate: float = 0.0

    def __post_init__(self) -> None:
        what = f"{self.kind} distribution"
        if self.kind not in _DISTRIBUTION_ARGS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if not 0.0 <= self.missing_rate <= 1.0:
            raise ConfigError(f"{what}: missing_rate {self.missing_rate!r} is not in [0, 1]")
        weights = [w for _, w in self.values] + [w for w, _ in self.components]
        if weights and (min(weights) < 0 or not 0 < sum(weights) < math.inf):
            raise ConfigError(f"{what}: weights {weights} must be non-negative with a positive sum")
        if self.kind.startswith("uniform") and not (self.lo < self.hi and math.isfinite(self.hi - self.lo)):
            raise ConfigError(f"{self.kind} requires finite lo < hi and hi - lo, got [{self.lo}, {self.hi})")
        if self.kind == "uniform_int" and not -(2**63) <= int(self.lo) < int(self.hi) <= 2**63:
            raise ConfigError(f"{what}: [int(lo), int(hi)) must hold an int64, got [{self.lo}, {self.hi})")

    def configured_values(self) -> list[object]:
        """Its choice values and constant as configured, and those of its components."""
        own = [v for v, _ in self.values] + ([self.value] if self.kind == "constant" else [])
        return own + [v for _, dist in self.components for v in dist.configured_values()]

    def draw(self, rng: np.random.Generator, size: int, numeric: bool) -> np.ndarray | list[object]:
        """``size`` values: numeric ones as a float64 array with NaN for missing, others as a list with None."""
        if self.kind == "choice":
            opts = [_flow_value(v, numeric) for v, _ in self.values]
            weights = np.array([w for _, w in self.values], dtype=float)
            weights = weights / weights.sum()
            idx = rng.choice(len(opts), size=size, p=weights)
            out = np.array(opts, dtype=np.float64)[idx] if numeric else list(map(opts.__getitem__, idx.tolist()))
        elif self.kind == "uniform_int":
            draws = rng.integers(int(self.lo), int(self.hi), size=size)
            out = draws.astype(np.float64) if numeric else list(map(str, draws.tolist()))
        elif self.kind == "uniform_float":
            draws = rng.uniform(self.lo, self.hi, size=size)
            out = draws if numeric else [str(v) for v in draws]
        elif self.kind == "constant":
            value = _flow_value(self.value, numeric)
            out = np.full(size, value, dtype=np.float64) if numeric else [value] * size
        else:  # mixture
            weights = np.array([w for w, _ in self.components], dtype=float)
            weights = weights / weights.sum()
            which = rng.choice(len(self.components), size=size, p=weights)
            scattered = np.empty(size, dtype=np.float64 if numeric else object)
            for ci, (_, dist) in enumerate(self.components):
                slots = np.flatnonzero(which == ci)
                scattered[slots] = dist.draw(rng, len(slots), numeric)
            out = scattered if numeric else scattered.tolist()
        if self.missing_rate > 0.0:
            mask = rng.random(size) < self.missing_rate
            if numeric:
                out[mask] = np.nan
            elif mask.any():
                masked = np.array(out, dtype=object)
                masked[mask] = None
                out = masked.tolist()
        return out


def _flow_value(v: object, numeric: bool, where: str = "") -> object:
    """A configured value in the record form, which a flows CSV carries unchanged: '' is the missing marker.
    A ConfigError for a value that is not in that form starts with ``where``."""
    if not numeric:
        return str(v) or None
    try:
        if math.isfinite(x := float(v)):  # type: ignore[arg-type]
            return x
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where}numeric value {v!r} is not a finite number")


#: One named variant of a class: (name, weight, per-variable overrides).
Variant = tuple[str, float, dict[str, Distribution]]


@dataclass(frozen=True)
class SyntheticProfile:
    """Class proportions plus per-class value distributions and a seed.

    ``variants`` optionally splits a class into named sub-behaviours (attack
    tool flavours, background traffic modes). One variant is drawn per run of
    the class sequence, so all variables of a segment come from the same
    variant and cross-variable structure survives into the batch counters.
    A variant only lists the variables it overrides; lookups fall back to the
    class distributions and then to the ``default`` class.
    """

    proportions: tuple[tuple[str, float], ...]
    distributions: dict[str, dict[str, Distribution]]
    total: int
    seed: int
    attack_run_mean: float | None = None  # None -> iid class draws
    background_run_mean: float | None = None  # burst mode only: mode churn inside background stretches
    variants: dict[str, tuple[Variant, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        fracs = [f for _, f in self.proportions]
        if any(f < 0 for f in fracs):
            raise ConfigError("profile proportions must be non-negative")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"profile proportions sum to {sum(fracs)!r}, expected 1")
        if self.total < 1:
            raise ConfigError("profile total must be positive")
        names = {c for c, _ in self.proportions}
        for cls, vs in self.variants.items():
            if cls not in names:
                raise ConfigError(f"variants given for unknown class {cls!r}")
            if not vs:
                raise ConfigError(f"class {cls!r}: empty variant list")
            if any(w <= 0 for _, w, _ in vs):
                raise ConfigError(f"class {cls!r}: variant weights must be positive")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"profile seed must be a non-negative integer, got {self.seed!r}")
        if self.attack_run_mean is not None and "Background" not in names:
            raise ConfigError("burst profiles require a Background class")
        means = (self.attack_run_mean, self.background_run_mean)
        if not all(-math.inf < m < 2.0**63 for m in means if m is not None):  # run lengths are drawn as int64
            raise ConfigError(f"burst run means must be finite and below 2**63, got {means}")


@dataclass(frozen=True)
class SourceSchema:
    """Column layout, label mapping and optional synthetic profile for one source."""

    dataset_id: str
    columns: tuple[Column, ...]
    label_column: str
    class_map: dict[str, str]
    taxonomy: CanonicalTaxonomy = DEFAULT_TAXONOMY
    record_count_hint: int | None = None
    profile: SyntheticProfile | None = None

    def __post_init__(self) -> None:
        if "/" in self.dataset_id or "\0" in self.dataset_id:  # it names output files
            raise ConfigError(f"dataset id {self.dataset_id!r} cannot name a file")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ConfigError(f"schema {self.dataset_id!r}: duplicate column names")
        if self.label_column in names:
            raise ConfigError(f"schema {self.dataset_id!r}: label column duplicates a variable column")
        if not self.label_column:
            raise ConfigError(f"schema {self.dataset_id!r}: label column required")
        for src, dst in self.class_map.items():
            if dst not in self.taxonomy:
                raise ConfigError(
                    f"schema {self.dataset_id!r}: class_map target {dst!r} (from {src!r}) not in taxonomy"
                )
        if self.profile is not None:
            profile_distributions(self.profile, self)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)


def _convert_column(tokens: Sequence[str], col: Column, bad: dict[int, str]) -> np.ndarray | list[object]:
    """Values of one column's tokens, a numeric column's as a float64 array with NaN for missing; a
    numeric token that is not a finite number reads as missing and its row's first message goes into ``bad``."""
    if col.kind != NUMERIC:
        return [t or None for t in tokens] if "" in tokens else list(tokens)
    empty = tokens.count("")
    try:
        floats = (float(t) if t else math.nan for t in tokens) if empty else map(float, tokens)
        values = np.fromiter(floats, dtype=np.float64, count=len(tokens))
    except ValueError:
        pass  # some token is not a number
    else:
        # each empty token reads as NaN; any other value that is not finite is a fault
        if len(values) - np.count_nonzero(np.isfinite(values)) == empty:
            return values
    values = np.full(len(tokens), np.nan)
    for j, token in enumerate(tokens):
        try:
            v = float(token) if token else math.nan
        except ValueError:
            bad.setdefault(j, f"non-numeric token {token!r} in numeric column {col.name!r}")
            continue
        if token and not math.isfinite(v):
            bad.setdefault(j, f"non-finite value {token!r} in numeric column {col.name!r}")
        values[j] = v
    return values


def parse_chunks(source: str | Path | TextIO | Iterable[str], schema: SourceSchema) -> Iterator[FlowChunk]:
    """Stream the FlowChunks of one source, whose origin is the schema's dataset id, from comma-separated text.

    The first line may be a header naming the schema columns (any order);
    without one, fields are positional: variable columns in schema order,
    label last. A malformed row is skipped with a warning on the
    ``faacflow.ingest`` logger, ``skipping row: line <n>: <why>``; an
    unmapped class name is fatal. Rows are read ``CHUNK_RECORDS`` at a time
    and each block's skipped rows are logged before its chunk is yielded; a
    fatal row ends the stream after the chunk of the rows before it.
    """
    # a label maps by the class map, else as a class name of the taxonomy
    class_map = {**{name: name for name in schema.taxonomy.classes}, **schema.class_map}

    def parse(block: CsvBlock, first_line: int) -> tuple[FlowChunk, DataError | None]:
        """The block's records and, when a row's class has no mapping, the fatal error.

        Rows from the fatal one on are left out, and so are their warnings.
        ``positions``, ``label_pos`` and ``width`` are read from the first line below.
        """
        short: dict[int, str] = {}  # block index -> message
        if block.columns is not None and len(block.columns) >= width:
            where: Sequence[int] = range(len(block))
            tokens: Sequence[Sequence[str]] = block.columns
        else:
            rows = block.rows if block.columns is None else list(zip(*block.columns))
            if min(map(len, rows)) >= width:
                where = range(len(rows))
                good = rows
            else:
                where = [i for i, row in enumerate(rows) if len(row) >= width]
                short = {i: f"expected at least {width} fields, got {len(row)}"
                         for i, row in enumerate(rows) if 0 < len(row) < width}
                good = [rows[i] for i in where]
            tokens = list(zip(*good)) or [()] * width  # rows may be longer than width, never shorter
        bad: dict[int, str] = {}  # index into the rows of tokens -> message
        columns = {col.name: _convert_column(tokens[p], col, bad) for col, p in zip(schema.columns, positions)}
        raw_labels = list(map(str.strip, tokens[label_pos]))
        labels = list(map(class_map.get, raw_labels))

        end = len(labels)  # the first row whose class has no mapping, if any
        if None in labels:
            end = next((j for j, name in enumerate(labels) if name is None and j not in bad), end)
        fatal = None
        if end < len(labels):
            fatal = DataError(
                f"line {first_line + where[end]}: class {raw_labels[end]!r} has no mapping "
                f"in schema {schema.dataset_id!r}"
            )
        stop = where[end] if fatal else len(block)
        for i, message in sorted([*short.items(), *((where[j], msg) for j, msg in bad.items())]):
            if i < stop:
                log.warning("skipping row: line %d: %s", first_line + i, message)
        if bad or fatal:
            keep = [j for j in range(end) if j not in bad]
            columns = {name: values[keep] if isinstance(values, np.ndarray) else [values[j] for j in keep]
                       for name, values in columns.items()}
            labels = [labels[j] for j in keep]
        columns = {name: as_column(values) for name, values in columns.items()}
        return FlowChunk(columns=columns, labels=labels, origin=schema.dataset_id), fatal

    with read_csv_blocks(source) as reader:
        line_no = 0
        while (row := reader.row()) is not None:
            line_no += 1
            if row:
                break
        else:
            return
        stripped = [t.strip() for t in row]
        if set(stripped) >= set(schema.column_names) | {schema.label_column}:
            header_index = {name: i for i, name in enumerate(stripped)}
            *positions, label_pos = (header_index[name] for name in (*schema.column_names, schema.label_column))
            line_no += 1
        else:
            *positions, label_pos = range(len(schema.columns) + 1)
            reader.unread(row)
        width = max([label_pos, *positions]) + 1
        while block := reader.block(CHUNK_RECORDS):
            chunk, fatal = parse(block, line_no)
            line_no += len(block)
            del block  # free the rows before the next block is read
            if len(chunk):
                yield chunk
            del chunk  # nor keep a chunk the caller let go while the next is parsed
            if fatal is not None:
                raise fatal


def parse_flows(source: str | Path | TextIO | Iterable[str], schema: SourceSchema) -> Iterator[FlowRecord]:
    """Stream FlowRecords from comma-separated text: :func:`parse_chunks` row by row."""
    return iter_records(parse_chunks(source, schema))


def _format_value(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return float.__repr__(v)  # a numpy float's own repr names its type
    return str(v)


def _format_column(column: np.ndarray | list[object]) -> Iterable[str]:
    """The column's CSV fields, formatted as they are written."""
    if isinstance(column, np.ndarray):
        fields = list(map(float.__repr__, column.tolist()))
        for i in np.flatnonzero(np.isnan(column)).tolist():
            fields[i] = ""
        return fields
    kinds = set(map(type, column))
    if kinds <= {str}:
        return column  # type: ignore[return-value]
    if kinds <= {str, type(None)}:
        return [v or "" for v in column]  # type: ignore[misc]
    return list(map(_format_value, column))


def write_flows(
    records: Iterable[FlowRecord] | Iterable[FlowChunk], schema: SourceSchema, dest: str | Path | TextIO
) -> int:
    """Write flows in the canonical CSV form (header, variables in schema order, label last).

    Takes chunks or records, and picks one formatter per column of a chunk.
    Returns the number of rows written. ``parse_flows`` on the result with
    ``schema`` reproduces the records exactly.
    """
    names = schema.column_names
    blocks = ([*(_format_column(chunk.columns[c]) for c in names), chunk.labels] for chunk in as_chunks(records))
    return write_csv_blocks(dest, [*names, schema.label_column], blocks)


def _class_sequence(profile: SyntheticProfile, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Class index and segment id per record, iid or bursty.

    Segments are the unit of variant assignment: every record of a segment
    shares one variant draw. In iid mode each record is its own segment; in
    burst mode each attack burst is a segment and background stretches form
    one segment each, or several of mean length ``background_run_mean`` when
    that knob is set.
    """
    names = [c for c, _ in profile.proportions]
    fracs = np.array([f for _, f in profile.proportions], dtype=float)
    fracs = fracs / fracs.sum()
    n = profile.total
    if profile.attack_run_mean is None:
        return rng.choice(len(names), size=n, p=fracs), np.arange(n, dtype=np.int64)

    # Alternating background runs and single-class attack bursts. Run-length
    # means are chosen so expected class fractions still match the profile.
    bg = names.index("Background")
    attack_idx = [i for i in range(len(names)) if i != bg and fracs[i] > 0]
    if not attack_idx or fracs[bg] >= 1.0:
        return np.full(n, bg, dtype=np.int64), np.zeros(n, dtype=np.int64)
    attack_fracs = fracs[attack_idx] / fracs[attack_idx].sum()
    l_attack = max(1.0, float(profile.attack_run_mean))
    l_background = l_attack * fracs[bg] / (1.0 - fracs[bg])
    l_mode = profile.background_run_mean or l_background
    seq = np.empty(n, dtype=np.int64)
    seg = np.empty(n, dtype=np.int64)
    sid = 0
    pos = 0
    while pos < n:
        stretch = int(rng.geometric(min(1.0, 1.0 / max(l_background, 1.0))))
        stretch = min(stretch, n - pos)
        while stretch > 0:
            run = min(int(rng.geometric(min(1.0, 1.0 / max(l_mode, 1.0)))), stretch)
            seq[pos : pos + run] = bg
            seg[pos : pos + run] = sid
            sid += 1
            pos += run
            stretch -= run
        if pos >= n:
            break
        cls = attack_idx[int(rng.choice(len(attack_idx), p=attack_fracs))]
        run = min(int(rng.geometric(min(1.0, 1.0 / l_attack))), n - pos)
        seq[pos : pos + run] = cls
        seg[pos : pos + run] = sid
        sid += 1
        pos += run
    return seq, seg


def profile_distributions(profile: SyntheticProfile, schema: SourceSchema) -> dict[str, list[dict[str, Distribution]]]:
    """Per profile class, one mapping per variant (one for a class without variants) from variable
    to distribution: the variant's, else the class's, else ``default``'s. Raises ConfigError for a
    class outside the taxonomy, a column nothing serves, or a value its column cannot hold."""
    served: dict[str, list[dict[str, Distribution]]] = {}
    for cname, _ in profile.proportions:
        if cname not in schema.taxonomy:
            raise ConfigError(f"profile class {cname!r} not in taxonomy")
        for vname, _, overrides in profile.variants.get(cname) or (("", 1.0, {}),):
            dists = {**profile.distributions.get("default", {}), **profile.distributions.get(cname, {}), **overrides}
            what = f"class {cname!r}" + (f", variant {vname!r}" if vname else "")
            for col in schema.columns:
                if col.name not in dists:
                    raise ConfigError(f"no distribution for variable {col.name!r} ({what})")
                for v in dists[col.name].configured_values():
                    _flow_value(v, col.kind == NUMERIC, f"variable {col.name!r} ({what}): ")
            served.setdefault(cname, []).append(dists)
    return served


def generate_chunks(profile: SyntheticProfile, schema: SourceSchema) -> Iterator[FlowChunk]:
    """Generate a deterministic synthetic flow stream for one source, as chunks.

    Variables are drawn per class segment; a segment's variant (when the
    class declares variants) decides which distribution serves each variable,
    as :func:`profile_distributions` resolves it. Each variable is drawn for
    the whole source and then cut into chunks of ``CHUNK_RECORDS`` rows. The
    seed fully determines the output.
    """
    served = profile_distributions(profile, schema)
    rng = np.random.default_rng(profile.seed)
    names = [c for c, _ in profile.proportions]
    seq, seg = _class_sequence(profile, rng)

    # one variant draw per segment, assigned class by class in profile order
    seg_first = np.unique(seg, return_index=True)[1]
    seg_class = seq[seg_first]
    seg_variant = np.zeros(len(seg_first), dtype=np.int64)
    for ci, cname in enumerate(names):
        vs = profile.variants.get(cname)
        segs_c = np.flatnonzero(seg_class == ci)
        if not vs or len(segs_c) == 0:
            continue
        weights = np.array([w for _, w, _ in vs], dtype=float)
        seg_variant[segs_c] = rng.choice(len(vs), size=len(segs_c), p=weights / weights.sum())
    row_variant = seg_variant[seg]

    # the rows of each (class, variant) pair, in draw order
    groups = []
    for ci, cname in enumerate(names):
        in_class = seq == ci
        for vi, dists in enumerate(served[cname]):
            slots = np.flatnonzero(in_class & (row_variant == vi))
            if len(slots):
                groups.append((dists, slots))

    columns: dict[str, np.ndarray | list[object]] = {}
    for col in schema.columns:
        numeric = col.kind == NUMERIC
        vals = np.empty(profile.total, dtype=np.float64 if numeric else object)  # the groups fill every row
        for dists, slots in groups:
            vals[slots] = dists[col.name].draw(rng, len(slots), numeric)
        columns[col.name] = vals if numeric else vals.tolist()

    labels = list(map(names.__getitem__, seq.tolist()))
    for start in range(0, profile.total, CHUNK_RECORDS):
        rows = slice(start, start + CHUNK_RECORDS)
        yield FlowChunk(
            columns={name: as_column(vals[rows]) for name, vals in columns.items()},
            labels=labels[rows],
            origin=schema.dataset_id,
        )


def generate_synthetic(profile: SyntheticProfile, schema: SourceSchema) -> Iterator[FlowRecord]:
    """Generate a deterministic synthetic record stream: :func:`generate_chunks` row by row."""
    return iter_records(generate_chunks(profile, schema))


# ---------------------------------------------------------------------------
# Config loading


def _parse_distribution(node: dict) -> Distribution:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"distribution must be a mapping with a 'kind': {node!r}")
    kind = node["kind"]
    check_keys(node, ("kind", *_DISTRIBUTION_ARGS.get(kind, ()), "missing_rate"), f"{kind} distribution key")
    fields = {"kind": kind, "missing_rate": float(node.get("missing_rate", 0.0))}
    if kind == "choice":
        raw = node.get("values")
        if not isinstance(raw, dict) or not raw:
            raise ConfigError("choice distribution needs a non-empty 'values' mapping")
        fields["values"] = tuple((v, float(w)) for v, w in raw.items())
    elif kind in ("uniform_int", "uniform_float"):
        fields.update(lo=float(node["lo"]), hi=float(node["hi"]))
    elif kind == "constant":
        fields["value"] = node["value"]
    elif kind == "mixture":
        comps = node.get("components")
        if not isinstance(comps, list) or not comps:
            raise ConfigError("mixture distribution needs a 'components' list")
        for c in comps:
            check_keys(c, ("weight", "dist"), "mixture component key")
        fields["components"] = tuple((float(c["weight"]), _parse_distribution(c["dist"])) for c in comps)
    return Distribution(**fields)


def _parse_distributions(node: object, key: str, path: str | Path) -> dict[str, Distribution]:
    return {str(var): _parse_distribution(d) for var, d in as_mapping(node, key, path).items()}


def taxonomy_from(doc: dict, path: str | Path) -> CanonicalTaxonomy:
    """The config's ``taxonomy`` list, or the default taxonomy when it has none."""
    if "taxonomy" not in doc:
        return DEFAULT_TAXONOMY
    return CanonicalTaxonomy(tuple(str(c) for c in as_list(doc["taxonomy"], "taxonomy", path)))


_SOURCE_KEYS = ("dataset", "columns", "label_column", "class_map", "taxonomy", "profile", "record_count_hint")
_PROFILE_KEYS = ("proportions", "distributions", "variants", "burst", "seed", "total")


@names_its_file
def load_source_config(path: str | Path) -> SourceSchema:
    """Load a SourceSchema (and optional synthetic profile) from YAML."""
    doc = read_yaml_mapping(path)
    check_keys(doc, _SOURCE_KEYS, "source key", path)
    try:
        check_keys(doc["dataset"], ("id",), "dataset key", path)
        dataset_id = str(doc["dataset"]["id"])
        for c in doc["columns"]:
            check_keys(c, ("name", "kind"), "column key", path)
        columns = tuple(Column(name=str(c["name"]), kind=str(c["kind"])) for c in doc["columns"])
        label_column = str(doc["label_column"])
        class_map = {str(k): str(v) for k, v in as_mapping(doc["class_map"], "class_map", path).items()}
        hint = as_int(doc["record_count_hint"], "record_count_hint", path) if "record_count_hint" in doc else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: missing or malformed key: {exc}") from exc
    if hint is not None and hint < 1:
        raise ConfigError(f"{path}: record_count_hint must be at least 1, got {hint}")
    taxonomy = taxonomy_from(doc, path)
    profile = None
    if "profile" in doc:
        p = doc["profile"]
        check_keys(p, _PROFILE_KEYS, "profile key", path)
        try:
            distributions = {
                str(cls): _parse_distributions(per_class, f"profile.distributions.{cls}", path)
                for cls, per_class in as_mapping(p.get("distributions") or {}, "profile.distributions", path).items()
            }
            variants = {}
            for cls, per_class in as_mapping(p.get("variants") or {}, "profile.variants", path).items():
                for node in as_mapping(per_class, key := f"profile.variants.{cls}", path).values():
                    check_keys(node, ("weight", "distributions"), "variant key", path)
                variants[str(cls)] = tuple(
                    (
                        str(vname),
                        float(node.get("weight", 1.0)),
                        _parse_distributions(node.get("distributions") or {}, f"{key}.{vname}.distributions", path),
                    )
                    for vname, node in per_class.items()
                )
            burst = p.get("burst") or {}
            check_keys(burst, ("attack_run_mean", "background_run_mean"), "burst key", path)
            profile = SyntheticProfile(
                proportions=tuple(
                    (str(k), float(v)) for k, v in as_mapping(p["proportions"], "profile.proportions", path).items()
                ),
                distributions=distributions,
                total=as_int(p["total"], "profile.total", path),
                seed=as_int(p["seed"], "profile.seed", path),
                attack_run_mean=float(burst["attack_run_mean"]) if "attack_run_mean" in burst else None,
                background_run_mean=float(burst["background_run_mean"]) if "background_run_mean" in burst else None,
                variants=variants,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: malformed profile: {exc}") from exc
    return SourceSchema(
        dataset_id=dataset_id,
        columns=columns,
        label_column=label_column,
        class_map=class_map,
        taxonomy=taxonomy,
        record_count_hint=hint,
        profile=profile,
    )
