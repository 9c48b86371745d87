"""Batch planning, matcher semantics, batch labeling, and derived-file IO."""

from __future__ import annotations

import hashlib
import io
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faacflow import faac
from faacflow.errors import ConfigError, DataError
from faacflow.faac import (
    DerivedDataset,
    FaacConfig,
    FeatureSpec,
    Matcher,
    derive_dataset,
    load_faac_config,
    plan_batches,
    read_derived,
    write_derived,
)
from faacflow.ingest import (
    CanonicalTaxonomy,
    FlowRecord,
    generate_synthetic,
    load_source_config,
    parse_flows,
    write_flows,
)

from oracles import batch_label_recount

TAX = CanonicalTaxonomy(classes=("Background", "DoS", "PortScanning"))


def rec(label="Background", origin="src", **values):
    return FlowRecord(values=values, label=label, origin=origin)


def small_config(priority=("DoS",)):
    # port deliberately carries a token group overlaying the range partition,
    # so one value can hit two features of the same variable
    feats = (
        FeatureSpec("proto_tcp", "proto", Matcher(kind="equals", tokens=("tcp",))),
        FeatureSpec("proto_udp", "proto", Matcher(kind="equals", tokens=("udp",))),
        FeatureSpec("proto_other", "proto", Matcher(kind="catch_all")),
        FeatureSpec("port_low", "port", Matcher(kind="numeric_range", lo=0, hi=1024)),
        FeatureSpec("port_high", "port", Matcher(kind="numeric_range", lo=1024, hi=65536)),
        FeatureSpec("port_web", "port", Matcher(kind="in_set", tokens=(80, 443))),
        FeatureSpec("port_missing", "port", Matcher(kind="missing")),
    )
    return FaacConfig(features=feats, taxonomy=TAX, class_priority=priority)


def one_batch(records, config=None):
    """Derive with the whole record list as a single batch; return the row."""
    ds = derive_dataset(records, 1, config or small_config())
    assert ds.n_rows == 1
    return dict(zip(ds.feature_names, ds.X[0])), ds.label_names()[0]


# ---------------------------------------------------------------------------
# Batch planning


def test_plan_batches_fixes_size_by_integer_division():
    plan = plan_batches(2_540_044, 10_000)
    assert plan.batch_size == 254
    assert plan.full_batches == 10_000
    assert plan.dropped_records == 44

    plan = plan_batches(2_540_044, 20_000)
    assert plan.batch_size == 127
    assert plan.full_batches == 20_000
    assert plan.dropped_records == 44


def test_plan_batches_rejects_degenerate_inputs():
    with pytest.raises(ConfigError):
        plan_batches(100, 0)
    with pytest.raises(DataError):
        plan_batches(0, 10)
    with pytest.raises(DataError, match="batch size would be zero"):
        plan_batches(5, 10)


@given(n=st.integers(min_value=1, max_value=10**9), m=st.integers(min_value=1, max_value=10**6))
def test_plan_batches_matches_integer_division(n, m):
    if n < m:
        with pytest.raises(DataError):
            plan_batches(n, m)
        return
    plan = plan_batches(n, m)
    assert plan.batch_size == n // m
    assert plan.full_batches == n // (n // m)
    assert plan.full_batches >= m
    assert 0 <= plan.dropped_records < plan.batch_size


# ---------------------------------------------------------------------------
# Matcher and variable validation


def test_matcher_constructor_contracts():
    with pytest.raises(ConfigError):
        Matcher(kind="sometimes")
    with pytest.raises(ConfigError):
        Matcher(kind="equals", tokens=())
    with pytest.raises(ConfigError):
        Matcher(kind="in_set", tokens=())
    with pytest.raises(ConfigError):
        Matcher(kind="numeric_range", lo=5, hi=5)
    with pytest.raises(ConfigError):
        Matcher(kind="numeric_range", lo=float("nan"), hi=1)


def _cfg(*feats):
    return FaacConfig(features=feats, taxonomy=TAX)


def test_token_token_overlap_is_rejected():
    with pytest.raises(ConfigError, match="share tokens"):
        _cfg(
            FeatureSpec("a", "v", Matcher(kind="in_set", tokens=(80, 443))),
            FeatureSpec("b", "v", Matcher(kind="equals", tokens=("80",))),
        )


def test_token_listed_twice_in_one_feature_is_rejected():
    # 80 and "80" both count under 80.0, so a port of 80 would count twice in one batch slot
    with pytest.raises(ConfigError, match="feature 'web' lists token '80' twice"):
        _cfg(FeatureSpec("web", "v", Matcher(kind="in_set", tokens=(80, "80"))))


def test_bool_token_overlaps_the_number_it_counts_as():
    # true counts under 1.0, so a value of 1.0 would hit both features
    with pytest.raises(ConfigError, match="features 'flag' and 'one' share tokens"):
        _cfg(
            FeatureSpec("flag", "v", Matcher(kind="in_set", tokens=(True,))),
            FeatureSpec("one", "v", Matcher(kind="equals", tokens=(1,))),
        )


def test_range_range_overlap_is_rejected_unless_allowed():
    with pytest.raises(ConfigError, match="overlap"):
        _cfg(
            FeatureSpec("a", "v", Matcher(kind="numeric_range", lo=0, hi=10)),
            FeatureSpec("b", "v", Matcher(kind="numeric_range", lo=5, hi=20)),
        )
    _cfg(
        FeatureSpec("a", "v", Matcher(kind="numeric_range", lo=0, hi=10)),
        FeatureSpec("b", "v", Matcher(kind="numeric_range", lo=5, hi=20, allow_overlap=True)),
    )


def test_token_over_range_overlay_is_allowed():
    _cfg(
        FeatureSpec("a", "v", Matcher(kind="numeric_range", lo=0, hi=1024)),
        FeatureSpec("b", "v", Matcher(kind="in_set", tokens=(80,))),
    )


def test_duplicate_missing_or_catch_all_rejected():
    with pytest.raises(ConfigError, match="missing"):
        _cfg(
            FeatureSpec("a", "v", Matcher(kind="missing")),
            FeatureSpec("b", "v", Matcher(kind="missing")),
        )
    with pytest.raises(ConfigError, match="catch_all"):
        _cfg(
            FeatureSpec("a", "v", Matcher(kind="catch_all")),
            FeatureSpec("b", "v", Matcher(kind="catch_all")),
        )


def test_duplicate_feature_names_rejected():
    with pytest.raises(ConfigError, match="duplicate feature names"):
        _cfg(
            FeatureSpec("a", "v", Matcher(kind="equals", tokens=("x",))),
            FeatureSpec("a", "w", Matcher(kind="equals", tokens=("y",))),
        )


def test_class_priority_must_name_attacks():
    feats = (FeatureSpec("a", "v", Matcher(kind="catch_all")),)
    with pytest.raises(ConfigError):
        FaacConfig(features=feats, taxonomy=TAX, class_priority=("Background",))
    cfg = FaacConfig(features=feats, taxonomy=TAX, class_priority=("PortScanning",))
    assert cfg.full_priority() == ("PortScanning", "DoS")


# ---------------------------------------------------------------------------
# Counting semantics


def test_value_may_hit_token_and_range_features():
    counts, _ = one_batch([rec(proto="tcp", port=80.0)])
    assert counts["port_low"] == 1.0
    assert counts["port_web"] == 1.0
    assert counts["port_high"] == 0.0
    assert counts["proto_tcp"] == 1.0


def test_string_token_matches_numeric_range_and_token_set():
    counts, _ = one_batch([rec(proto="udp", port="80")])
    assert counts["port_low"] == 1.0
    assert counts["port_web"] == 1.0


def test_missing_counts_only_into_missing_feature():
    counts, _ = one_batch([rec(proto="tcp", port=None)])
    assert counts["port_missing"] == 1.0
    assert counts["port_low"] == counts["port_high"] == counts["port_web"] == 0.0
    # proto has no missing matcher: a missing proto counts nowhere
    counts, _ = one_batch([rec(proto=None, port=80.0)])
    assert counts["proto_tcp"] == counts["proto_udp"] == counts["proto_other"] == 0.0


def test_catch_all_takes_only_unclaimed_present_values():
    counts, _ = one_batch([rec(proto="gre", port=99999.0)])
    assert counts["proto_other"] == 1.0
    # port 99999 escapes both ranges and the token set
    assert counts["port_missing"] == 0.0
    assert counts["port_low"] == counts["port_high"] == counts["port_web"] == 0.0


def test_counters_are_batch_fractions():
    records = [rec(proto="tcp", port=80.0), rec(proto="udp", port=53.0), rec(proto="tcp", port=2048.0)]
    counts, _ = one_batch(records)
    assert counts["proto_tcp"] == pytest.approx(2 / 3)
    assert counts["port_low"] == pytest.approx(2 / 3)
    assert counts["port_web"] == pytest.approx(1 / 3)
    assert counts["port_high"] == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# Batch labels


def test_clean_batch_is_background():
    _, label = one_batch([rec(), rec(), rec()])
    assert label == "Background"


def test_single_attack_record_flips_the_label():
    _, label = one_batch([rec(), rec(), rec(label="PortScanning")])
    assert label == "PortScanning"


def test_attack_count_tie_resolved_by_priority():
    batch = [rec(label="DoS"), rec(label="PortScanning"), rec()]
    _, label = one_batch(batch, small_config(priority=("DoS", "PortScanning")))
    assert label == "DoS"
    _, label = one_batch(batch, small_config(priority=("PortScanning", "DoS")))
    assert label == "PortScanning"


def test_majority_attack_wins_over_priority():
    batch = [rec(label="DoS"), rec(label="PortScanning"), rec(label="PortScanning")]
    _, label = one_batch(batch, small_config(priority=("DoS", "PortScanning")))
    assert label == "PortScanning"


@settings(max_examples=200, deadline=None)
@given(
    counts=st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
)
def test_label_matches_brute_force_recount(counts):
    n_dos, n_scan, n_bg = counts
    batch = (
        [rec(label="DoS", proto="tcp", port=80.0)] * n_dos
        + [rec(label="PortScanning", proto="udp", port=1.0)] * n_scan
        + [rec(proto="tcp", port=443.0)] * n_bg
    )
    cfg = small_config(priority=("DoS", "PortScanning"))
    counts_row, label = one_batch(batch, cfg)
    labels = [r.label for r in batch]
    assert label == batch_label_recount(labels, TAX.classes, cfg.full_priority())
    assert all(0.0 <= v <= 1.0 for v in counts_row.values())
    # proto features partition every present value
    proto_sum = counts_row["proto_tcp"] + counts_row["proto_udp"] + counts_row["proto_other"]
    assert proto_sum == pytest.approx(1.0, abs=1e-12)


def test_mixed_origin_batch_is_rejected():
    records = [rec(origin="a", proto="tcp", port=80.0), rec(origin="b", proto="tcp", port=80.0)]
    with pytest.raises(DataError, match="mixes origins"):
        derive_dataset(records, 1, small_config())


# ---------------------------------------------------------------------------
# Dataset derivation


def test_derive_drops_the_tail():
    records = [rec(proto="tcp", port=float(i)) for i in range(10)]
    ds = derive_dataset(records, 3, small_config())
    assert ds.n_rows == 3
    assert list(ds.batch_sizes) == [3, 3, 3]


def test_derive_declared_count_must_be_met():
    records = [rec(proto="tcp", port=1.0) for _ in range(7)]
    with pytest.raises(DataError, match="were declared"):
        derive_dataset(iter(records), 5, small_config(), n_records=10)


def test_derive_streams_with_bounded_memory():
    cfg = small_config()
    n = 200_000

    def stream():
        for i in range(n):
            yield rec(proto="tcp" if i % 3 else "udp", port=float(i % 70_000))

    tracemalloc.start()
    ds = derive_dataset(stream(), 2_000, cfg, n_records=n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert ds.n_rows == 2_000
    # materializing the stream would need dozens of MB; one batch plus the
    # output matrix stays far below that
    assert peak < 25 * 1024 * 1024


# ---------------------------------------------------------------------------
# Counting against a brute-force recount

NAN = float("nan")
PROP_CONFIG = FaacConfig(
    features=(
        FeatureSpec("port_low", "port", Matcher(kind="numeric_range", lo=0, hi=1024)),
        FeatureSpec("port_high", "port", Matcher(kind="numeric_range", lo=1024, hi=65536)),
        FeatureSpec("port_mid", "port", Matcher(kind="numeric_range", lo=500, hi=2000, allow_overlap=True)),
        FeatureSpec("port_web", "port", Matcher(kind="in_set", tokens=(80, "443", "1e3"))),
        FeatureSpec("port_name", "port", Matcher(kind="equals", tokens=("http",))),
        FeatureSpec("port_missing", "port", Matcher(kind="missing")),
        FeatureSpec("port_other", "port", Matcher(kind="catch_all")),
        FeatureSpec("proto_tcp", "proto", Matcher(kind="equals", tokens=("tcp",))),
        FeatureSpec("proto_one", "proto", Matcher(kind="in_set", tokens=("udp", 1))),
        FeatureSpec("proto_other", "proto", Matcher(kind="catch_all")),
        FeatureSpec("size_small", "size", Matcher(kind="numeric_range", lo=-math.inf, hi=0.5)),
        FeatureSpec("size_big", "size", Matcher(kind="numeric_range", lo=0.5, hi=math.inf)),
        FeatureSpec("size_other", "size", Matcher(kind="catch_all")),
        FeatureSpec("gone_missing", "gone", Matcher(kind="missing")),
        FeatureSpec("gone_other", "gone", Matcher(kind="catch_all")),
    ),
    taxonomy=TAX,
    class_priority=("PortScanning",),
    aliases={"dport": "port", "protocol": "proto"},
)

FLOATS = st.one_of(
    st.none(),
    st.just(NAN),
    st.sampled_from([0.0, -0.0, 0.5, 80.0, 443.0, 499.5, 500.0, 1000.0, 1023.5, 1024.0, 2000.0, 65536.0]),
    st.floats(min_value=-1e5, max_value=1e5),
)
MIXED = st.one_of(
    FLOATS,
    st.sampled_from(["80", "1e3", "443", "1000", "0.5", "-0", "tcp", "udp", "http", "x"]),
    st.integers(min_value=-3, max_value=70_000),
    st.booleans(),
)
LAYOUTS = {"port": ("port", "dport", None), "proto": ("proto", "protocol", None), "size": ("size", None)}


def token_hit(value, token):
    # numbers (bools included) compare by float value; strings by the token's string form
    if isinstance(value, str):
        return value == str(token)
    try:
        return float(value) == float(token)
    except ValueError:
        return False


def matcher_hit(m, value):
    if m.kind in ("equals", "in_set"):
        return any(token_hit(value, t) for t in m.tokens)
    try:
        v = float(value)
    except ValueError:
        return False
    return m.lo <= v < m.hi


def accepts(spec, value, config):
    if spec.matcher.kind == "missing":
        return value is None
    if value is None:
        return False
    if spec.matcher.kind == "catch_all":
        siblings = [s for s in config.features if s.variable == spec.variable and s is not spec]
        return not any(s.matcher.kind not in ("missing", "catch_all") and matcher_hit(s.matcher, value)
                       for s in siblings)
    return matcher_hit(spec.matcher, value)


def recount(records, batch_size, n_batches, config):
    """Counter rows, labels and origins, one record and one feature at a time."""
    rows, labels, origins = [], [], []
    for b in range(n_batches):
        batch = records[b * batch_size : (b + 1) * batch_size]
        columns = {config.aliases.get(c, c): c for c in batch[0].values}
        row = []
        for spec in config.features:
            col = columns.get(spec.variable)
            hits = sum(accepts(spec, r.values.get(col) if col else None, config) for r in batch)
            row.append(hits / batch_size)
        rows.append(row)
        labels.append(batch_label_recount([r.label for r in batch], TAX.classes, config.full_priority()))
        origins.append(batch[0].origin)
    return rows, labels, origins


@st.composite
def mixed_streams(draw):
    batch_size = draw(st.integers(min_value=1, max_value=6))
    records = []
    for s in range(draw(st.integers(min_value=1, max_value=4))):
        layout = {var: draw(st.sampled_from(cols)) for var, cols in LAYOUTS.items()}
        # size always takes the float path; port and proto may hold any type
        kinds = {var: FLOATS if var == "size" else draw(st.sampled_from([FLOATS, MIXED])) for var in layout}
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            for i in range(batch_size):
                values = {}
                for var, col in layout.items():
                    # later records of a batch may lack a column the first one has
                    if col is not None and (i == 0 or draw(st.integers(0, 5)) > 0):
                        values[col] = draw(kinds[var])
                label = draw(st.sampled_from(TAX.classes))
                records.append(FlowRecord(values=values, label=label, origin=f"src{s}"))
    n_batches = len(records) // batch_size
    # a tail shorter than the batch count leaves the batch size at floor(N / M)
    for _ in range(draw(st.integers(min_value=0, max_value=min(batch_size, n_batches) - 1))):
        records.append(FlowRecord(values={"port": 1.0}, label="DoS", origin=records[-1].origin))
    return records, batch_size, n_batches


@settings(max_examples=200, deadline=None)
@given(stream=mixed_streams(), as_list=st.booleans(), chunk=st.sampled_from([1, 4, 9, faac.CHUNK_RECORDS]))
def test_counters_match_brute_force_recount(stream, as_list, chunk):
    records, batch_size, n_batches = stream
    source = records if as_list else iter(records)
    # small chunks split streams into several chunks, most with a short last one
    with mock.patch.object(faac, "CHUNK_RECORDS", chunk):
        ds = derive_dataset(source, n_batches, PROP_CONFIG, n_records=len(records))
    rows, labels, origins = recount(records, batch_size, n_batches, PROP_CONFIG)
    assert list(ds.batch_sizes) == [batch_size] * n_batches
    assert ds.X.tolist() == rows
    assert list(ds.label_names()) == labels
    assert list(ds.origins) == origins


def derived_digest(ds):
    joined = "\n".join(ds.origins).encode()
    return hashlib.sha256(ds.X.tobytes() + ds.y.tobytes() + joined).hexdigest()


# recorded with the per-record counter, before counting became columnar; the
# batch sizes (100, 4285, 9 records) divide the chunk, exceed it, and do not
# divide it
DERIVED_DIGESTS = {
    ("alpha", 300): "9891670f31d2b145b0fb18d409de6ecc1cd57e3df3a51ad7e1e6bc06f8d78024",
    ("alpha", 7): "ec68dae8d365375af83148877f89991ed7c5706039d94fc7fb79489c7f22f4bb",
    ("alpha", 3001): "4178afb8cb346b147df6c85ab01be5ee8e8faa0ba0570893c1ae8493e350c4a1",
    ("beta", 300): "d88bea24e44b354b3bf69b8e30b46f158bf43785e4bfb92bcb1b5433ebe68ea2",
    ("beta", 7): "328578b83225bfd055b17697e0a759e57fe6f935e093a3dd9b7363d709a07ae5",
    ("beta", 3001): "3f88af41dfcb2165d6333be6316f7e1c847e4db55ba7929328b9b52edf1a9aa4",
    ("gamma", 300): "5880d1c341aa7578b6058bc004fc3af3bcf68db6b84599e2d3a441148293d104",
    ("gamma", 7): "401e2ae544cc631303d91918687710b0b413592a8482f299ba9647d994df9176",
    ("gamma", 3001): "506b33666b8a75ae62fa94dfba8af9f42ca092eff992f94cba5dc7830787258d",
}
PARSED_DIGEST = "401e2ae544cc631303d91918687710b0b413592a8482f299ba9647d994df9176"


def synth_records(config_dir, name):
    schema = load_source_config(config_dir / f"source_{name}.yaml")
    profile = replace(schema.profile, seed=4242)
    return schema, list(generate_synthetic(profile, schema))


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_derived_bytes_match_the_recorded_digests(config_dir, name):
    faac = load_faac_config(config_dir / "faac_reference.yaml")
    _, records = synth_records(config_dir, name)
    for target in (300, 7, 3001):
        ds = derive_dataset(records, target, faac)
        assert derived_digest(ds) == DERIVED_DIGESTS[(name, target)], (name, target)


def test_parsed_stream_bytes_match_the_recorded_digest(config_dir, tmp_path):
    faac = load_faac_config(config_dir / "faac_reference.yaml")
    schema, records = synth_records(config_dir, "gamma")
    path = tmp_path / "gamma.csv"
    write_flows(records, schema, path)
    stream = parse_flows(path, schema.canonicalized())
    ds = derive_dataset(stream, 7, faac, n_records=len(records))
    assert derived_digest(ds) == PARSED_DIGEST


# ---------------------------------------------------------------------------
# Derived-file round trip


def make_derived():
    records = (
        [rec(label="DoS", proto="tcp", port=80.0)] * 4
        + [rec(proto="udp", port=53.0)] * 8
        + [rec(label="PortScanning", proto="tcp", port=22.0)] * 4
    )
    return derive_dataset(records, 4, small_config())


def test_derived_round_trip_with_taxonomy():
    ds = make_derived()
    buf = io.StringIO()
    write_derived(ds, buf)
    buf.seek(0)
    back = read_derived(buf, taxonomy=TAX)
    assert back.feature_names == ds.feature_names
    assert back.classes == ds.classes
    assert np.array_equal(back.y, ds.y)
    assert back.origins == ds.origins
    assert np.array_equal(back.batch_sizes, ds.batch_sizes)
    assert np.allclose(back.X, ds.X, atol=1e-9)


def test_read_without_taxonomy_puts_background_first():
    ds = make_derived()
    buf = io.StringIO()
    write_derived(ds, buf)
    buf.seek(0)
    back = read_derived(buf)
    assert back.classes[0] == "Background"
    assert set(back.classes) == set(ds.label_names())
    assert back.label_names() == ds.label_names()


def test_read_derived_rejects_empty_and_malformed():
    with pytest.raises(DataError, match="empty"):
        read_derived(io.StringIO(""))
    with pytest.raises(DataError, match="header"):
        read_derived(io.StringIO("a,b,c\n1,2,3\n"))


def test_derived_dataset_validation():
    base = make_derived()
    with pytest.raises(DataError, match=r"\[0, 1\]"):
        DerivedDataset(
            feature_names=base.feature_names,
            X=base.X + 2.0,
            y=base.y,
            classes=base.classes,
            origins=base.origins,
            batch_sizes=base.batch_sizes,
        )
    with pytest.raises(DataError, match="metadata"):
        DerivedDataset(
            feature_names=base.feature_names,
            X=base.X,
            y=base.y[:-1],
            classes=base.classes,
            origins=base.origins,
            batch_sizes=base.batch_sizes,
        )


def test_take_subsets_rows():
    ds = make_derived()
    sub = ds.take(np.array([0, 2]))
    assert sub.n_rows == 2
    assert sub.label_names() == (ds.label_names()[0], ds.label_names()[2])
    assert np.array_equal(sub.X, ds.X[[0, 2]])


# ---------------------------------------------------------------------------
# Reference configuration


def test_reference_config_loads(config_dir):
    cfg = load_faac_config(config_dir / "faac_reference.yaml")
    assert len(cfg.features) == 32
    assert len(set(cfg.feature_names)) == 32
    assert cfg.taxonomy.classes == ("Background", "DoS", "PortScanning")
    assert cfg.full_priority() == ("DoS", "PortScanning")
    assert cfg.aliases["sport"] == "src_port"
    assert cfg.aliases["protocol_type"] == "proto"


def test_unknown_matcher_args_are_rejected(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text(
        "features:\n"
        "  - {name: mid, variable: dst_port, matcher: {kind: numeric_range, args: {low: 5, hi: 10}}}\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="'low'"):
        load_faac_config(path)


@pytest.mark.parametrize("typo", ["class_priorty", "aliasses"])
def test_unknown_config_keys_are_rejected(config_dir, tmp_path, typo):
    text = (config_dir / "faac_reference.yaml").read_text(encoding="utf-8")
    key = "class_priority" if typo == "class_priorty" else "aliases"
    assert f"\n{key}:" in text
    path = tmp_path / "typo.yaml"
    path.write_text(text.replace(f"\n{key}:", f"\n{typo}:", 1), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"unknown counter config key '{typo}'"):
        load_faac_config(path)
