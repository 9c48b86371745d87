"""Row-wise integration of derived datasets over their shared classes.

Inputs must share the exact feature list. Rows whose class is outside the
shared set are dropped; surviving rows are concatenated in input order
without re-scaling, since every row is already normalized by its own
origin's batch size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np
import yaml

from .errors import ConfigError, DataError
from .faac import DerivedDataset

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class IntegrationSpec:
    """Shared class set for integration; None means the observed intersection."""

    shared_classes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.shared_classes is not None:
            if "Background" not in self.shared_classes:
                raise ConfigError("shared_classes must include 'Background'")
            if len(set(self.shared_classes)) != len(self.shared_classes):
                raise ConfigError("shared_classes contains duplicates")


def shared_classes(datasets: Sequence[DerivedDataset], spec: IntegrationSpec) -> tuple[str, ...]:
    """Background, then the spec's classes (default: those seen in every input) in the
    first input's order; spec classes absent from that taxonomy follow in spec order."""
    if spec.shared_classes is not None:
        shared = set(spec.shared_classes)
    else:
        shared = set(datasets[0].label_names())
        for ds in datasets[1:]:
            shared &= set(ds.label_names())
        if "Background" not in shared:
            raise DataError("datasets share no Background rows; nothing to integrate")
    ordered = ["Background"] + [c for c in datasets[0].classes if c in shared and c != "Background"]
    if spec.shared_classes is not None:
        for c in spec.shared_classes:
            if c not in ordered:
                ordered.append(c)
    return tuple(ordered)


def restrict(ds: DerivedDataset, classes: Sequence[str]) -> DerivedDataset:
    """The rows whose class is in ``classes``, labels re-indexed onto that list."""
    index = {name: i for i, name in enumerate(classes)}
    y = np.array([index.get(name, -1) for name in ds.classes], dtype=np.int64)[ds.y]
    rows = np.flatnonzero(y >= 0)
    return replace(ds.take(rows), y=y[rows], classes=tuple(classes))


def integrate(datasets: Sequence[DerivedDataset], spec: IntegrationSpec | None = None) -> DerivedDataset:
    """Concatenate datasets row-wise, keeping only shared-class rows."""
    if not datasets:
        raise DataError("no datasets to integrate")
    spec = spec or IntegrationSpec()
    names = datasets[0].feature_names
    for ds in datasets[1:]:
        if ds.feature_names != names:
            raise DataError(
                "incompatible derived schemas: feature lists differ between inputs; "
                "derive all sources with one configuration"
            )
    classes = shared_classes(datasets, spec)
    parts = []
    for ds in datasets:
        part = restrict(ds, classes)
        if part.n_rows == 0:
            log.warning("input with origins %s contributes no shared-class rows", sorted(set(ds.origins)))
            continue
        parts.append(part)
    if not parts:
        raise DataError(f"no rows remain after filtering to shared classes {list(classes)}")
    return DerivedDataset(
        feature_names=names,
        X=np.concatenate([p.X for p in parts], axis=0),
        y=np.concatenate([p.y for p in parts]),
        classes=classes,
        origins=tuple(o for p in parts for o in p.origins),
        batch_sizes=np.concatenate([p.batch_sizes for p in parts]),
    )


def distribution_report(dataset: DerivedDataset) -> list[dict[str, object]]:
    """Per (origin, class) row counts and fractions, in taxonomy order."""
    total = dataset.n_rows
    counts: dict[tuple[str, str], int] = {}
    for origin, name in zip(dataset.origins, dataset.label_names()):
        counts[(origin, name)] = counts.get((origin, name), 0) + 1
    out = []
    for origin in sorted(set(dataset.origins)):
        for name in dataset.classes:
            c = counts.get((origin, name), 0)
            if c:
                out.append(
                    {"origin": origin, "class": name, "rows": c, "fraction": c / total if total else 0.0}
                )
    return out


def load_integration_spec(path: str | Path) -> IntegrationSpec:
    """Load an integration spec from YAML (key: shared_classes)."""
    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if doc is None:
        return IntegrationSpec()
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a mapping at top level")
    unknown = [k for k in doc if k != "shared_classes"]
    if unknown:
        raise ConfigError(f"{path}: unknown integration key {unknown[0]!r}; expected shared_classes")
    shared = doc.get("shared_classes")
    if shared is None:
        return IntegrationSpec()
    if not isinstance(shared, list) or not all(isinstance(c, str) for c in shared):
        raise ConfigError(f"{path}: shared_classes must be a list of class names")
    return IntegrationSpec(shared_classes=tuple(shared))
