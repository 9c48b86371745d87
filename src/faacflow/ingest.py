"""Flow-record ingestion: CSV parsing, schema mapping, synthetic generation.

A source dataset is described by a :class:`SourceSchema` loaded from a YAML
file. Parsing maps each source label to a canonical class name through the
schema's ``class_map`` and yields immutable :class:`FlowRecord` objects in
file order with constant memory in the number of rows.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

import numpy as np
import yaml

from .errors import ConfigError, DataError, RowError

log = logging.getLogger(__name__)

CATEGORICAL = "categorical"
NUMERIC = "numeric"

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

    def __len__(self) -> int:
        return len(self.classes)


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


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # CATEGORICAL or NUMERIC

    def __post_init__(self) -> None:
        if self.kind not in (CATEGORICAL, NUMERIC):
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")


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

    def draw(self, rng: np.random.Generator, size: int, numeric: bool) -> list[object]:
        if self.kind == "choice":
            opts = [v for v, _ in self.values]
            weights = np.array([w for _, w in self.values], dtype=float)
            weights = weights / weights.sum()
            idx = rng.choice(len(opts), size=size, p=weights)
            out = [float(opts[i]) if numeric else str(opts[i]) for i in idx]
        elif self.kind == "uniform_int":
            draws = rng.integers(int(self.lo), int(self.hi), size=size)
            out = [float(v) for v in draws] if numeric else [str(int(v)) for v in draws]
        elif self.kind == "uniform_float":
            draws = rng.uniform(self.lo, self.hi, size=size)
            out = [float(v) for v in draws] if numeric else [str(v) for v in draws]
        elif self.kind == "constant":
            out = [float(self.value) if numeric else str(self.value)] * size  # type: ignore[arg-type]
        elif self.kind == "mixture":
            weights = np.array([w for w, _ in self.components], dtype=float)
            weights = weights / weights.sum()
            which = rng.choice(len(self.components), size=size, p=weights)
            out = [None] * size
            for ci, (_, dist) in enumerate(self.components):
                slots = np.flatnonzero(which == ci)
                vals = dist.draw(rng, len(slots), numeric)
                for s, v in zip(slots, vals):
                    out[s] = v
        else:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        if self.missing_rate > 0.0:
            mask = rng.random(size) < self.missing_rate
            out = [None if m else v for v, m in zip(out, mask)]
        return out


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

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def canonicalized(self) -> "SourceSchema":
        """Schema for re-parsing the canonical CSV form (identity class map)."""
        return SourceSchema(
            dataset_id=self.dataset_id,
            columns=self.columns,
            label_column=self.label_column,
            class_map={c: c for c in self.taxonomy.classes},
            taxonomy=self.taxonomy,
            record_count_hint=self.record_count_hint,
            profile=self.profile,
        )


def _convert(token: str, col: Column, line_no: int) -> object:
    if token == "":
        return None  # explicit missing marker
    if col.kind == NUMERIC:
        try:
            v = float(token)
        except ValueError:
            raise DataError(f"non-numeric token {token!r} in numeric column {col.name!r}") from None
        if not math.isfinite(v):
            raise DataError(f"non-finite value {token!r} in numeric column {col.name!r}")
        return v
    return token


def parse_flows(
    source: str | Path | TextIO | Iterable[str],
    schema: SourceSchema,
    on_error: Callable[[RowError], None] | None = None,
) -> Iterator[FlowRecord]:
    """Stream FlowRecords from comma-separated text.

    The first line may be a header naming the schema columns (any order);
    without one, fields are positional: variable columns in schema order,
    label last. Malformed rows are reported through ``on_error`` (default:
    warning log) and skipped; an unmapped class name is fatal.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield from parse_flows(fh, schema, on_error=on_error)
        return

    reader = csv.reader(source)
    positions: list[int] | None = None
    label_pos: int | None = None
    expected = set(schema.column_names) | {schema.label_column}
    cols = schema.columns
    origin = schema.dataset_id

    def report(line_no: int, message: str, row: list[str]) -> None:
        err = RowError(line_no=line_no, message=message, raw=tuple(row))
        if on_error is not None:
            on_error(err)
        else:
            log.warning("skipping row: %s", err)

    for line_no, row in enumerate(reader, start=1):
        if not row:
            continue
        if positions is None:
            stripped = [t.strip() for t in row]
            if set(stripped) >= expected:
                header_index = {name: i for i, name in enumerate(stripped)}
                positions = [header_index[c.name] for c in cols]
                label_pos = header_index[schema.label_column]
                continue
            positions = list(range(len(cols)))
            label_pos = len(cols)
        assert label_pos is not None
        width = max(max(positions), label_pos) + 1
        if len(row) < width:
            report(line_no, f"expected at least {width} fields, got {len(row)}", row)
            continue
        try:
            values = {c.name: _convert(row[p], c, line_no) for c, p in zip(cols, positions)}
        except DataError as exc:
            report(line_no, str(exc), row)
            continue
        src_label = row[label_pos].strip()
        if src_label not in schema.class_map:
            raise DataError(
                f"line {line_no}: class {src_label!r} has no mapping in schema {schema.dataset_id!r}"
            )
        yield FlowRecord(values=values, label=schema.class_map[src_label], origin=origin)


def _format_value(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_flows(records: Iterable[FlowRecord], schema: SourceSchema, dest: str | Path | TextIO) -> int:
    """Write records in the canonical CSV form (header, variables in schema order, label last).

    Returns the number of rows written. ``parse_flows`` on the result with
    ``schema.canonicalized()`` reproduces the records exactly.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            return write_flows(records, schema, fh)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(list(schema.column_names) + [schema.label_column])
    n = 0
    for rec in records:
        writer.writerow([_format_value(rec.values[c]) for c in schema.column_names] + [rec.label])
        n += 1
    return n


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
    try:
        bg = names.index("Background")
    except ValueError:
        raise ConfigError("burst profiles require a Background class") from None
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


def generate_synthetic(profile: SyntheticProfile, schema: SourceSchema) -> Iterator[FlowRecord]:
    """Generate a deterministic synthetic record stream for one source.

    Variables are drawn per class segment; a segment's variant (when the
    class declares variants) decides which distribution serves each variable,
    falling back to the class entry and then to ``default``. The seed fully
    determines the output.
    """
    rng = np.random.default_rng(profile.seed)
    names = [c for c, _ in profile.proportions]
    for cname in names:
        if cname not in schema.taxonomy:
            raise ConfigError(f"profile class {cname!r} not in taxonomy")
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

    no_variants: tuple[Variant, ...] = (("", 1.0, {}),)
    columns: dict[str, list[object]] = {}
    for col in schema.columns:
        vals: list[object] = [None] * profile.total
        for ci, cname in enumerate(names):
            in_class = seq == ci
            for vi, (vname, _, overrides) in enumerate(profile.variants.get(cname) or no_variants):
                slots = np.flatnonzero(in_class & (row_variant == vi))
                if len(slots) == 0:
                    continue
                dist = overrides.get(col.name)
                if dist is None:
                    dist = profile.distributions.get(cname, {}).get(col.name)
                if dist is None:
                    dist = profile.distributions.get("default", {}).get(col.name)
                if dist is None:
                    what = f"class {cname!r}" + (f", variant {vname!r}" if vname else "")
                    raise ConfigError(f"no distribution for variable {col.name!r} ({what})")
                drawn = dist.draw(rng, len(slots), numeric=col.kind == NUMERIC)
                for s, v in zip(slots, drawn):
                    vals[s] = v
        columns[col.name] = vals

    col_names = schema.column_names
    for i in range(profile.total):
        yield FlowRecord(
            values={c: columns[c][i] for c in col_names},
            label=names[seq[i]],
            origin=schema.dataset_id,
        )


def class_histogram(records: Iterable[FlowRecord]) -> dict[str, int]:
    """Count records per canonical class."""
    return dict(Counter(rec.label for rec in records))


# ---------------------------------------------------------------------------
# Config loading


def _parse_distribution(node: dict) -> Distribution:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"distribution must be a mapping with a 'kind': {node!r}")
    kind = node["kind"]
    if kind == "choice":
        raw = node.get("values")
        if not isinstance(raw, dict) or not raw:
            raise ConfigError("choice distribution needs a non-empty 'values' mapping")
        return Distribution(
            kind="choice",
            values=tuple((v, float(w)) for v, w in raw.items()),
            missing_rate=float(node.get("missing_rate", 0.0)),
        )
    if kind in ("uniform_int", "uniform_float"):
        lo, hi = float(node["lo"]), float(node["hi"])
        if not lo < hi:
            raise ConfigError(f"{kind} requires lo < hi, got [{lo}, {hi})")
        return Distribution(kind=kind, lo=lo, hi=hi, missing_rate=float(node.get("missing_rate", 0.0)))
    if kind == "constant":
        return Distribution(kind="constant", value=node["value"], missing_rate=float(node.get("missing_rate", 0.0)))
    if kind == "mixture":
        comps = node.get("components")
        if not isinstance(comps, list) or not comps:
            raise ConfigError("mixture distribution needs a 'components' list")
        parsed = tuple((float(c["weight"]), _parse_distribution(c["dist"])) for c in comps)
        return Distribution(kind="mixture", components=parsed, missing_rate=float(node.get("missing_rate", 0.0)))
    raise ConfigError(f"unknown distribution kind {kind!r}")


_SOURCE_KEYS = ("dataset", "columns", "label_column", "class_map", "taxonomy", "profile", "record_count_hint")
_PROFILE_KEYS = ("proportions", "distributions", "variants", "burst", "seed", "total")


def load_source_config(path: str | Path) -> SourceSchema:
    """Load a SourceSchema (and optional synthetic profile) from YAML."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    unknown = [k for k in doc if k not in _SOURCE_KEYS]
    if unknown:
        raise ConfigError(
            f"{path}: unknown source key {unknown[0]!r}; expected one of {', '.join(_SOURCE_KEYS)}"
        )
    try:
        dataset_id = str(doc["dataset"]["id"])
        columns = tuple(Column(name=str(c["name"]), kind=str(c["kind"])) for c in doc["columns"])
        label_column = str(doc["label_column"])
        class_map = {str(k): str(v) for k, v in doc["class_map"].items()}
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: missing or malformed key: {exc}") from exc
    taxonomy = (
        CanonicalTaxonomy(tuple(str(c) for c in doc["taxonomy"])) if "taxonomy" in doc else DEFAULT_TAXONOMY
    )
    profile = None
    if "profile" in doc:
        p = doc["profile"]
        if not isinstance(p, dict):
            raise ConfigError(f"{path}: malformed profile: expected a mapping")
        unknown = [k for k in p if k not in _PROFILE_KEYS]
        if unknown:
            raise ConfigError(
                f"{path}: unknown profile key {unknown[0]!r}; expected one of {', '.join(_PROFILE_KEYS)}"
            )
        try:
            distributions = {
                str(cls): {str(var): _parse_distribution(d) for var, d in per_class.items()}
                for cls, per_class in p.get("distributions", {}).items()
            }
            variants = {
                str(cls): tuple(
                    (
                        str(vname),
                        float(node.get("weight", 1.0)),
                        {str(var): _parse_distribution(d) for var, d in (node.get("distributions") or {}).items()},
                    )
                    for vname, node in per_class.items()
                )
                for cls, per_class in (p.get("variants") or {}).items()
            }
            burst = p.get("burst") or {}
            profile = SyntheticProfile(
                proportions=tuple((str(k), float(v)) for k, v in p["proportions"].items()),
                distributions=distributions,
                total=int(p["total"]),
                seed=int(p["seed"]),
                attack_run_mean=float(burst["attack_run_mean"]) if "attack_run_mean" in burst else None,
                background_run_mean=float(burst["background_run_mean"]) if "background_run_mean" in burst else None,
                variants=variants,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: malformed profile: {exc}") from exc
    return SourceSchema(
        dataset_id=dataset_id,
        columns=columns,
        label_column=label_column,
        class_map=class_map,
        taxonomy=taxonomy,
        record_count_hint=int(doc["record_count_hint"]) if "record_count_hint" in doc else None,
        profile=profile,
    )
