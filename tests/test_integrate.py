"""Row-wise integration of derived datasets over shared classes."""

from __future__ import annotations

import numpy as np
import pytest

from faacflow.errors import ConfigError, DataError
from faacflow.faac import DerivedDataset
from faacflow.integrate import (
    IntegrationSpec,
    distribution_report,
    integrate,
    load_integration_spec,
    restrict,
    shared_classes,
)

FULL = ("Background", "DoS", "PortScanning")


def mk(labels, classes=FULL, origin="a", features=("f1", "f2"), seed=0):
    rng = np.random.default_rng(seed)
    classes = tuple(classes)
    n = len(labels)
    return DerivedDataset(
        feature_names=tuple(features),
        X=rng.random((n, len(features))),
        y=np.array([classes.index(name) for name in labels], dtype=np.int64),
        classes=classes,
        origins=(origin,) * n,
        batch_sizes=np.full(n, 100, dtype=np.int64),
    )


def test_spec_validation():
    with pytest.raises(ConfigError, match="Background"):
        IntegrationSpec(shared_classes=("DoS",))
    with pytest.raises(ConfigError, match="duplicates"):
        IntegrationSpec(shared_classes=("Background", "DoS", "DoS"))


def test_integration_keeps_only_the_observed_intersection():
    a = mk(["Background", "DoS", "PortScanning", "DoS"], origin="a", seed=1)
    b = mk(["Background", "DoS", "Background"], classes=("Background", "DoS"), origin="b", seed=2)
    merged = integrate([a, b])
    # PortScanning only appears in a; its row is dropped
    assert merged.n_rows == 6
    assert merged.classes == ("Background", "DoS")
    assert merged.label_names() == ("Background", "DoS", "DoS", "Background", "DoS", "Background")
    assert merged.origins == ("a", "a", "a", "b", "b", "b")
    kept = [0, 1, 3]
    assert np.array_equal(merged.X[:3], a.X[kept])
    assert np.array_equal(merged.X[3:], b.X)
    assert np.array_equal(merged.batch_sizes, np.full(6, 100))


def test_explicit_shared_classes_filter_rows():
    a = mk(["Background", "DoS", "PortScanning"], origin="a")
    b = mk(["Background", "PortScanning", "DoS"], origin="b")
    merged = integrate([a, b], IntegrationSpec(shared_classes=("Background", "DoS")))
    assert merged.classes == ("Background", "DoS")
    assert merged.n_rows == 4
    assert set(merged.label_names()) == {"Background", "DoS"}


def test_spec_classes_missing_from_inputs_stay_in_the_taxonomy():
    a = mk(["Background", "DoS"], classes=("Background", "DoS"), origin="a")
    b = mk(["Background"], classes=("Background", "DoS"), origin="b")
    merged = integrate([a, b], IntegrationSpec(shared_classes=("Background", "DoS", "Botnet")))
    assert merged.classes == ("Background", "DoS", "Botnet")
    assert merged.class_counts().get("Botnet", 0) == 0


def test_no_shared_background_is_an_error():
    a = mk(["DoS", "DoS"], origin="a")
    b = mk(["Background", "DoS"], origin="b")
    with pytest.raises(DataError, match="Background"):
        integrate([a, b])


def test_restrict_keeps_listed_classes_and_reindexes_labels():
    a = mk(["PortScanning", "Background", "DoS", "PortScanning"], origin="a", seed=5)
    b = mk(["DoS", "Background"], classes=("Background", "DoS"), origin="b")
    classes = shared_classes([a, b], IntegrationSpec())
    assert classes == ("Background", "DoS")
    sub = restrict(a, ("Background", "PortScanning"))
    assert sub.classes == ("Background", "PortScanning")
    assert sub.y.tolist() == [1, 0, 1]
    assert np.array_equal(sub.X, a.X[[0, 1, 3]])
    assert restrict(b, ("Background", "PortScanning")).label_names() == ("Background",)


def test_feature_list_mismatch_is_an_error():
    a = mk(["Background"], features=("f1", "f2"), origin="a")
    b = mk(["Background"], features=("f1", "f3"), origin="b")
    with pytest.raises(DataError, match="feature lists differ"):
        integrate([a, b])


def test_empty_input_list_is_an_error():
    with pytest.raises(DataError, match="no datasets"):
        integrate([])


def test_counters_pass_through_unscaled():
    a = mk(["Background", "DoS"], origin="a", seed=3)
    merged = integrate([a, mk(["Background", "DoS"], origin="b", seed=4)])
    assert np.array_equal(merged.X[:2], a.X)


def test_distribution_report_counts_and_fractions():
    a = mk(["Background", "Background", "DoS", "PortScanning"], origin="a")
    b = mk(["Background", "PortScanning", "DoS"], origin="b")
    merged = integrate([a, b])
    rows = distribution_report(merged)
    by_key = {(r["origin"], r["class"]): r for r in rows}
    assert by_key[("a", "Background")]["rows"] == 2
    assert by_key[("a", "DoS")]["rows"] == 1
    assert by_key[("b", "Background")]["rows"] == 1
    assert sum(r["fraction"] for r in rows) == pytest.approx(1.0)
    # taxonomy order within each origin
    assert [r["class"] for r in rows if r["origin"] == "a"] == ["Background", "DoS", "PortScanning"]


def test_load_integration_spec(tmp_path, config_dir):
    spec = load_integration_spec(config_dir / "integration.yaml")
    assert spec.shared_classes == ("Background", "DoS", "PortScanning")
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    assert load_integration_spec(empty).shared_classes is None
    bad = tmp_path / "bad.yaml"
    bad.write_text("shared_classes: notalist\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_integration_spec(bad)


def test_unknown_integration_keys_are_rejected(tmp_path):
    typo = tmp_path / "typo.yaml"
    typo.write_text("shared_clases: [Background, DoS]\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="'shared_clases'"):
        load_integration_spec(typo)
