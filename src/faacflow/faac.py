"""Counter derivation: variable matchers, batch planning, dataset derivation.

Raw flow records are grouped into fixed-size batches. Within a batch each
feature counts the records whose variable value satisfies its matcher, and
the count is divided by the batch size, so every derived value lies in
[0, 1]. A batch is labeled Background only when it contains no attack
records; otherwise it takes the most frequent attack class, with ties
broken by a configured priority order.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TextIO

import numpy as np
import yaml

from .errors import ConfigError, DataError
from .ingest import CanonicalTaxonomy, DEFAULT_TAXONOMY, FlowRecord

EQUALS = "equals"
IN_SET = "in_set"
NUMERIC_RANGE = "numeric_range"
MISSING = "missing"
CATCH_ALL = "catch_all"

_MATCHER_KINDS = (EQUALS, IN_SET, NUMERIC_RANGE, MISSING, CATCH_ALL)


@dataclass(frozen=True)
class Matcher:
    """Predicate over a single variable value.

    ``equals`` and ``in_set`` compare tokens: a number (float, int or
    bool) matches a token with the same float value, a string matches a
    token whose string form it is. ``numeric_range`` tests lo <= v < hi on
    the value read as a float (numeric-looking strings included), with
    infinite endpoints allowed; NaN and non-numeric values are in no range.
    ``missing`` matches only the missing marker ``None`` (not NaN).
    ``catch_all`` matches any present value that no sibling matcher on the
    same variable accepts.
    """

    kind: str
    tokens: tuple[object, ...] = ()
    lo: float = -math.inf
    hi: float = math.inf
    allow_overlap: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _MATCHER_KINDS:
            raise ConfigError(f"unknown matcher kind {self.kind!r}")
        if self.kind == EQUALS and len(self.tokens) != 1:
            raise ConfigError("equals matcher requires exactly one value")
        if self.kind == IN_SET and not self.tokens:
            raise ConfigError("in_set matcher requires a non-empty value list")
        if self.kind == NUMERIC_RANGE:
            if math.isnan(self.lo) or math.isnan(self.hi):
                raise ConfigError("numeric_range endpoints must not be NaN")
            if not self.lo < self.hi:
                raise ConfigError(f"numeric_range requires lo < hi, got [{self.lo}, {self.hi})")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    variable: str
    matcher: Matcher


def _token_forms(tok: object) -> list[object]:
    """Keys a token counts under: its string form, and its float value when it has one."""
    forms: list[object] = [str(tok)]
    try:
        forms.append(float(tok))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        pass
    return forms


def _validate_variable(variable: str, specs: list[FeatureSpec]) -> None:
    n_missing = sum(1 for s in specs if s.matcher.kind == MISSING)
    if n_missing > 1:
        raise ConfigError(f"variable {variable!r}: more than one missing matcher")
    n_catch = sum(1 for s in specs if s.matcher.kind == CATCH_ALL)
    if n_catch > 1:
        raise ConfigError(f"variable {variable!r}: more than one catch_all matcher")

    # a value counts once per token form it equals, so no form may repeat within a feature
    token_forms: dict[str, set[object]] = {}
    for spec in specs:
        if spec.matcher.kind in (EQUALS, IN_SET):
            forms = token_forms[spec.name] = set()
            for tok in spec.matcher.tokens:
                if forms.intersection(_token_forms(tok)):
                    raise ConfigError(f"variable {variable!r}: feature {spec.name!r} lists token {tok!r} twice")
                forms.update(_token_forms(tok))
    strict = [s for s in specs if not s.matcher.allow_overlap]
    token_specs = [s for s in strict if s.name in token_forms]
    for i, a in enumerate(token_specs):
        for b in token_specs[i + 1 :]:
            shared = token_forms[a.name] & token_forms[b.name]
            if shared:
                raise ConfigError(
                    f"variable {variable!r}: features {a.name!r} and {b.name!r} "
                    f"share tokens {sorted(map(str, shared))}"
                )
    range_specs = [s for s in strict if s.matcher.kind == NUMERIC_RANGE]
    for i, a in enumerate(range_specs):
        for b in range_specs[i + 1 :]:
            if a.matcher.lo < b.matcher.hi and b.matcher.lo < a.matcher.hi:
                raise ConfigError(
                    f"variable {variable!r}: ranges of {a.name!r} and {b.name!r} overlap"
                )


@dataclass(frozen=True)
class FaacConfig:
    """Feature list, taxonomy, batch label priority, and column aliases."""

    features: tuple[FeatureSpec, ...]
    taxonomy: CanonicalTaxonomy = DEFAULT_TAXONOMY
    class_priority: tuple[str, ...] = ()
    aliases: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.features:
            raise ConfigError("at least one feature is required")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(f"duplicate feature names: {dupes}")
        by_var: dict[str, list[FeatureSpec]] = {}
        for spec in self.features:
            by_var.setdefault(spec.variable, []).append(spec)
        for variable, specs in by_var.items():
            _validate_variable(variable, specs)
        for name in self.class_priority:
            if name not in self.taxonomy.attacks:
                raise ConfigError(f"class_priority entry {name!r} is not an attack class")
        if len(set(self.class_priority)) != len(self.class_priority):
            raise ConfigError("class_priority contains duplicates")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def full_priority(self) -> tuple[str, ...]:
        """class_priority padded with the remaining attacks in taxonomy order."""
        rest = tuple(a for a in self.taxonomy.attacks if a not in self.class_priority)
        return self.class_priority + rest


@dataclass(frozen=True)
class BatchPlan:
    n_records: int
    target_batches: int
    batch_size: int
    full_batches: int

    @property
    def dropped_records(self) -> int:
        return self.n_records - self.batch_size * self.full_batches


def plan_batches(n_records: int, target_batches: int) -> BatchPlan:
    """Fix the batch size as floor(N / M); the tail that does not fill a batch is dropped."""
    if target_batches < 1:
        raise ConfigError(f"target batch count must be positive, got {target_batches}")
    if n_records < 1:
        raise DataError(f"record count must be positive, got {n_records}")
    batch_size = n_records // target_batches
    if batch_size == 0:
        raise DataError(
            f"batch size would be zero: {n_records} records cannot fill {target_batches} batches"
        )
    return BatchPlan(
        n_records=n_records,
        target_batches=target_batches,
        batch_size=batch_size,
        full_batches=n_records // batch_size,
    )


#: records counted per numpy pass, rounded down to whole batches (at least one batch)
CHUNK_RECORDS = 4096

_FLOAT_OR_MISSING = {float, type(None)}


class _VariableCounter:
    """Compiled matchers for one canonical variable.

    Slots are local: position ``j`` is feature ``slots[j]`` of the config.
    """

    __slots__ = ("variable", "slots", "token_map", "float_tokens", "ranges", "missing_idx", "catch_idx")

    def __init__(self, variable: str, specs: list[tuple[int, Matcher]]) -> None:
        self.variable = variable
        self.slots = np.array([slot for slot, _ in specs], dtype=np.intp)
        # token -> tuple of local slots; both string and float forms are
        # registered so lookups hit whichever type the parsed value carries
        token_map: dict[object, list[int]] = {}
        ranges: list[tuple[float, float, int]] = []
        self.missing_idx: int | None = None
        self.catch_idx: int | None = None
        for j, (_, m) in enumerate(specs):
            if m.kind in (EQUALS, IN_SET):
                for tok in m.tokens:
                    for form in _token_forms(tok):
                        token_map.setdefault(form, []).append(j)
            elif m.kind == NUMERIC_RANGE:
                ranges.append((m.lo, m.hi, j))
            elif m.kind == MISSING:
                self.missing_idx = j
            elif m.kind == CATCH_ALL:
                self.catch_idx = j
        self.token_map = {k: tuple(v) for k, v in token_map.items()}
        self.float_tokens = tuple((k, v) for k, v in self.token_map.items() if isinstance(k, float))
        self.ranges = tuple(ranges)

    def hits_of(self, value: object) -> list[int]:
        """Local slots one value counts into."""
        if value is None:
            return [] if self.missing_idx is None else [self.missing_idx]
        hits = list(self.token_map.get(value, ()))
        if self.ranges:
            if isinstance(value, float):
                v = value
            else:
                try:
                    v = float(value)  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    v = None
            if v is not None:
                hits.extend(j for lo, hi, j in self.ranges if lo <= v < hi)
        if not hits and self.catch_idx is not None:
            hits.append(self.catch_idx)
        return hits

    def count(self, values: list[object], n_batches: int, batch_size: int) -> np.ndarray:
        """(n_batches, len(slots)) hit counts of consecutive whole batches."""
        if self.ranges and set(map(type, values)) <= _FLOAT_OR_MISSING:
            hits = self._float_hits(values)
        else:
            hits = self._value_hits(values)
        return hits.reshape(n_batches, batch_size, len(self.slots)).sum(axis=1)

    def _float_hits(self, values: list[object]) -> np.ndarray:
        """Per-record hits when every present value is a float: one comparison per range and token."""
        x = np.array(values, dtype=np.float64)
        # None reads as NaN, but a NaN value is present: take missing from `is None`
        missing = np.zeros(len(x), dtype=bool)
        nan_at = np.flatnonzero(np.isnan(x))
        missing[nan_at] = [values[i] is None for i in nan_at]
        hits = np.zeros((len(x), len(self.slots)), dtype=np.int64)
        for key, local in self.float_tokens:
            hit = x == key
            for j in local:
                hits[:, j] += hit
        for lo, hi, j in self.ranges:
            hits[:, j] += (lo <= x) & (x < hi)
        if self.missing_idx is not None:
            hits[:, self.missing_idx] += missing
        if self.catch_idx is not None:
            hits[:, self.catch_idx] += ~(hits.any(axis=1) | missing)
        return hits

    def _value_hits(self, values: list[object]) -> np.ndarray:
        """Per-record hits through ``hits_of``, applied once per distinct value."""
        index = dict.fromkeys(values)
        table = np.zeros((len(index), len(self.slots)), dtype=np.int64)
        for code, value in enumerate(index):
            index[value] = code
            for j in self.hits_of(value):
                table[code, j] += 1
        return table[np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))]


class _CompiledFaac:
    """Config compiled for counting chunks of whole batches."""

    def __init__(self, config: FaacConfig) -> None:
        self.config = config
        by_var: dict[str, list[tuple[int, Matcher]]] = {}
        for slot, spec in enumerate(config.features):
            by_var.setdefault(spec.variable, []).append((slot, spec.matcher))
        self.counters = tuple(_VariableCounter(v, specs) for v, specs in by_var.items())
        self.n_features = len(config.features)
        taxonomy = config.taxonomy
        self.class_index = {name: i for i, name in enumerate(taxonomy.classes)}
        # Background, then the attacks by priority: the first maximal count wins
        self.ranked = np.array(
            [0] + [taxonomy.index_of(name) for name in config.full_priority()], dtype=np.int64
        )
        self._key_cache: dict[tuple[str, frozenset[str]], dict[str, str | None]] = {}

    def _resolve_keys(self, record: FlowRecord) -> dict[str, str | None]:
        """Map canonical variable -> key present in this record's value dict."""
        cache_key = (record.origin, frozenset(record.values))
        hit = self._key_cache.get(cache_key)
        if hit is not None:
            return hit
        aliases = self.config.aliases
        canon_of = {col: aliases.get(col, col) for col in record.values}
        resolved: dict[str, str | None] = {}
        for counter in self.counters:
            keys = [col for col, canon in canon_of.items() if canon == counter.variable]
            if len(keys) > 1:
                raise DataError(
                    f"origin {record.origin!r}: columns {sorted(keys)} all alias variable "
                    f"{counter.variable!r}"
                )
            resolved[counter.variable] = keys[0] if keys else None
        self._key_cache[cache_key] = resolved
        return resolved

    def _check_batch(self, batch: list[FlowRecord]) -> None:
        """Raise for the first record that leaves the batch's origin or the taxonomy."""
        origin = batch[0].origin
        for rec in batch:
            if rec.origin != origin:
                raise DataError(
                    f"batch mixes origins {origin!r} and {rec.origin!r}; derive each source separately"
                )
            self.config.taxonomy.index_of(rec.label)

    def count_chunk(
        self, chunk: list[FlowRecord], batch_size: int
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Hit counts, label indices and origins of a chunk of whole batches.

        Each batch reads every variable from the column its first record
        resolves; a later record without that column counts as missing.
        """
        n = len(chunk)
        n_batches = n // batch_size
        origins = [rec.origin for rec in chunk]
        labels = [rec.label for rec in chunk]
        unknown_label = not set(labels) <= self.class_index.keys()
        # batches that resolve the same keys are read together
        runs: list[list] = []
        for start in range(0, n, batch_size):
            stop = start + batch_size
            keys = self._resolve_keys(chunk[start])
            if unknown_label or origins[start:stop].count(origins[start]) != batch_size:
                self._check_batch(chunk[start:stop])
            if runs and runs[-1][2] is keys:
                runs[-1][1] = stop
            else:
                runs.append([start, stop, keys])

        counts = np.zeros((n_batches, self.n_features), dtype=np.int64)
        dicts = [rec.values for rec in chunk]
        for counter in self.counters:
            values: list[object] = []
            for start, stop, keys in runs:
                key = keys[counter.variable]
                if key is None:
                    values.extend([None] * (stop - start))
                else:
                    values.extend([d.get(key) for d in dicts[start:stop]])
            counts[:, counter.slots] += counter.count(values, n_batches, batch_size)

        n_classes = len(self.class_index)
        codes = np.fromiter(map(self.class_index.__getitem__, labels), dtype=np.int64, count=n)
        batch_of = np.repeat(np.arange(n_batches, dtype=np.int64), batch_size)
        class_counts = np.bincount(batch_of * n_classes + codes, minlength=n_batches * n_classes)
        ranked = class_counts.reshape(n_batches, n_classes)[:, self.ranked]
        # Background wins only when the batch holds no attack record
        ranked[:, 0] = 0
        return counts, self.ranked[ranked.argmax(axis=1)], origins[::batch_size]


@dataclass(eq=False)
class DerivedDataset:
    """Matrix of normalized counters with per-row label, origin, batch size."""

    feature_names: tuple[str, ...]
    X: np.ndarray  # (n_rows, n_features) float64 in [0, 1]
    y: np.ndarray  # (n_rows,) int indices into classes
    classes: tuple[str, ...]
    origins: tuple[str, ...]
    batch_sizes: np.ndarray  # (n_rows,) int

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if not (len(self.y) == n and len(self.origins) == n and len(self.batch_sizes) == n):
            raise DataError("row metadata length does not match the matrix")
        if self.X.shape[1] != len(self.feature_names):
            raise DataError("feature name count does not match the matrix width")
        if n and (self.X.min() < 0.0 or self.X.max() > 1.0):
            raise DataError("derived counters must lie in [0, 1]")
        if n and (self.y.min() < 0 or self.y.max() >= len(self.classes)):
            raise DataError("label index out of range")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def label_names(self) -> tuple[str, ...]:
        return tuple(self.classes[i] for i in self.y)

    def class_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name in self.label_names():
            out[name] = out.get(name, 0) + 1
        return out

    def take(self, rows: np.ndarray) -> "DerivedDataset":
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        return DerivedDataset(
            feature_names=self.feature_names,
            X=self.X[rows],
            y=self.y[rows],
            classes=self.classes,
            origins=tuple(self.origins[i] for i in rows),
            batch_sizes=self.batch_sizes[rows],
        )


def derive_dataset(
    records: Iterable[FlowRecord],
    target_batches: int,
    config: FaacConfig,
    n_records: int | None = None,
) -> DerivedDataset:
    """Derive the normalized counter matrix from a record stream.

    Records are counted in chunks of whole batches: ``CHUNK_RECORDS``
    rounded down to a multiple of the batch size, or one batch when a
    batch is larger. ``n_records`` enables single-pass streaming with
    memory proportional to one chunk; when omitted it is taken from
    ``len(records)`` if available, otherwise the stream is materialized to
    count it.
    """
    if n_records is None:
        try:
            n_records = len(records)  # type: ignore[arg-type]
        except TypeError:
            records = list(records)
            n_records = len(records)
    plan = plan_batches(n_records, target_batches)
    compiled = _CompiledFaac(config)
    size = plan.batch_size
    chunk_records = max(1, CHUNK_RECORDS // size) * size

    rows = np.empty((plan.full_batches, compiled.n_features), dtype=np.float64)
    y = np.empty(plan.full_batches, dtype=np.int64)
    origins: list[str] = []
    stream = iter(records)
    done = 0
    while done < plan.full_batches:
        want = min(chunk_records, (plan.full_batches - done) * size)
        chunk = list(islice(stream, want))
        received = done * size + len(chunk)
        n_full = len(chunk) // size
        if n_full:
            counts, labels, chunk_origins = compiled.count_chunk(chunk[: n_full * size], size)
            rows[done : done + n_full] = counts / size
            y[done : done + n_full] = labels
            origins.extend(chunk_origins)
            done += n_full
        if len(chunk) < want:
            raise DataError(f"stream ended after {received} records; {plan.n_records} were declared")
    return DerivedDataset(
        feature_names=config.feature_names,
        X=rows,
        y=y,
        classes=config.taxonomy.classes,
        origins=tuple(origins),
        batch_sizes=np.full(plan.full_batches, size, dtype=np.int64),
    )


_META_COLUMNS = ("label", "origin", "batch_size")


def write_derived(dataset: DerivedDataset, dest: str | Path | TextIO) -> int:
    """Write the derived matrix as CSV: feature columns then label, origin, batch_size."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            return write_derived(dataset, fh)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(list(dataset.feature_names) + list(_META_COLUMNS))
    names = dataset.classes
    for i in range(dataset.n_rows):
        writer.writerow(
            ["%.9g" % v for v in dataset.X[i]]
            + [names[dataset.y[i]], dataset.origins[i], str(int(dataset.batch_sizes[i]))]
        )
    return dataset.n_rows


def read_derived(path: str | Path | TextIO, taxonomy: CanonicalTaxonomy | None = None) -> DerivedDataset:
    """Read a derived CSV back into memory.

    With a taxonomy, labels index into it (unknown labels are fatal);
    without one, classes are collected in first-seen order with Background
    moved to the front when present.
    """
    if isinstance(path, (str, Path)):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return read_derived(fh, taxonomy=taxonomy)
    reader = csv.reader(path)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("derived file is empty") from None
    if len(header) < 4 or tuple(header[-3:]) != _META_COLUMNS:
        raise DataError(f"derived header must end with {','.join(_META_COLUMNS)}")
    feature_names = tuple(header[:-3])
    data: list[list[float]] = []
    label_names: list[str] = []
    origins: list[str] = []
    batch_sizes: list[int] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            data.append([float(t) for t in row[: len(feature_names)]])
            batch_sizes.append(int(row[-1]))
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
        label_names.append(row[-3])
        origins.append(row[-2])
    if taxonomy is not None:
        classes = taxonomy.classes
    else:
        seen: list[str] = []
        for name in label_names:
            if name not in seen:
                seen.append(name)
        if "Background" in seen:
            seen.remove("Background")
            seen.insert(0, "Background")
        classes = tuple(seen)
    index = {name: i for i, name in enumerate(classes)}
    try:
        y = np.array([index[name] for name in label_names], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"label {exc.args[0]!r} not in taxonomy {list(classes)}") from None
    X = np.array(data, dtype=np.float64) if data else np.empty((0, len(feature_names)))
    return DerivedDataset(
        feature_names=feature_names,
        X=X,
        y=y,
        classes=classes,
        origins=tuple(origins),
        batch_sizes=np.array(batch_sizes, dtype=np.int64),
    )


# args each matcher kind reads, besides allow_overlap
_MATCHER_ARGS = {EQUALS: ("value",), IN_SET: ("values",), NUMERIC_RANGE: ("lo", "hi"), MISSING: (), CATCH_ALL: ()}


def _parse_matcher(node: dict) -> Matcher:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"matcher must be a mapping with a 'kind': {node!r}")
    kind = node["kind"]
    if kind not in _MATCHER_ARGS:
        raise ConfigError(f"unknown matcher kind {kind!r}")
    args = node.get("args") or {}
    if not isinstance(args, dict):
        raise ConfigError(f"matcher args must be a mapping: {args!r}")
    known = _MATCHER_ARGS[kind] + ("allow_overlap",)
    unknown = [k for k in args if k not in known]
    if unknown:
        raise ConfigError(f"unknown {kind} matcher arg {unknown[0]!r}; expected one of {', '.join(known)}")
    allow_overlap = bool(args.get("allow_overlap", False))
    if kind == EQUALS:
        if "value" not in args:
            raise ConfigError("equals matcher needs args.value")
        return Matcher(kind=EQUALS, tokens=(args["value"],), allow_overlap=allow_overlap)
    if kind == IN_SET:
        values = args.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("in_set matcher needs a non-empty args.values list")
        return Matcher(kind=IN_SET, tokens=tuple(values), allow_overlap=allow_overlap)
    if kind == NUMERIC_RANGE:
        try:
            lo = float(args.get("lo", -math.inf))
            hi = float(args.get("hi", math.inf))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"numeric_range endpoints must be numbers: {exc}") from exc
        return Matcher(kind=NUMERIC_RANGE, lo=lo, hi=hi, allow_overlap=allow_overlap)
    return Matcher(kind=kind, allow_overlap=allow_overlap)


_CONFIG_KEYS = ("features", "taxonomy", "class_priority", "aliases")


def load_faac_config(path: str | Path) -> FaacConfig:
    """Load a counter configuration from YAML."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict) or "features" not in doc:
        raise ConfigError(f"{path}: expected a mapping with a 'features' list")
    unknown = [k for k in doc if k not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(
            f"{path}: unknown counter config key {unknown[0]!r}; expected one of {', '.join(_CONFIG_KEYS)}"
        )
    features = []
    for node in doc["features"]:
        try:
            features.append(
                FeatureSpec(
                    name=str(node["name"]),
                    variable=str(node["variable"]),
                    matcher=_parse_matcher(node["matcher"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: malformed feature entry {node!r}: {exc}") from exc
    taxonomy = (
        CanonicalTaxonomy(tuple(str(c) for c in doc["taxonomy"])) if "taxonomy" in doc else DEFAULT_TAXONOMY
    )
    return FaacConfig(
        features=tuple(features),
        taxonomy=taxonomy,
        class_priority=tuple(str(c) for c in doc.get("class_priority", ())),
        aliases={str(k): str(v) for k, v in (doc.get("aliases") or {}).items()},
    )
