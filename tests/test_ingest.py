"""Flow parsing, synthetic generation, and source-config loading."""

from __future__ import annotations

import io

import numpy as np
import pytest

from faacflow.errors import ConfigError, DataError
from faacflow.ingest import (
    CATEGORICAL,
    NUMERIC,
    CanonicalTaxonomy,
    Column,
    Distribution,
    FlowRecord,
    SourceSchema,
    SyntheticProfile,
    class_histogram,
    generate_synthetic,
    load_source_config,
    parse_flows,
    write_flows,
)


def tiny_schema(profile=None):
    return SourceSchema(
        dataset_id="tiny",
        columns=(Column("proto", CATEGORICAL), Column("bytes", NUMERIC)),
        label_column="cls",
        class_map={"bg": "Background", "dos": "DoS", "scan": "PortScanning"},
        profile=profile,
    )


# ---------------------------------------------------------------------------
# Taxonomy and schema contracts


def test_taxonomy_must_start_with_background():
    with pytest.raises(ConfigError):
        CanonicalTaxonomy(classes=("DoS", "Background"))
    with pytest.raises(ConfigError):
        CanonicalTaxonomy(classes=("Background", "DoS", "DoS"))
    tax = CanonicalTaxonomy(classes=("Background", "DoS"))
    assert tax.index_of("DoS") == 1
    with pytest.raises(DataError):
        tax.index_of("Worm")


def test_column_kind_is_checked():
    with pytest.raises(ConfigError):
        Column("x", "text")


def test_schema_rejects_duplicate_and_label_collisions():
    with pytest.raises(ConfigError, match="duplicate"):
        SourceSchema(
            dataset_id="s",
            columns=(Column("a", NUMERIC), Column("a", NUMERIC)),
            label_column="cls",
            class_map={"bg": "Background"},
        )
    with pytest.raises(ConfigError, match="label column"):
        SourceSchema(
            dataset_id="s",
            columns=(Column("a", NUMERIC),),
            label_column="a",
            class_map={"bg": "Background"},
        )
    with pytest.raises(ConfigError, match="not in taxonomy"):
        SourceSchema(
            dataset_id="s",
            columns=(Column("a", NUMERIC),),
            label_column="cls",
            class_map={"bad": "Worm"},
        )


# ---------------------------------------------------------------------------
# Parsing


def test_parse_with_header_in_any_column_order():
    text = "cls,bytes,proto\nbg,100,tcp\ndos,5.5,udp\n"
    records = list(parse_flows(io.StringIO(text), tiny_schema()))
    assert [r.label for r in records] == ["Background", "DoS"]
    assert records[0].values == {"proto": "tcp", "bytes": 100.0}
    assert records[1].values == {"proto": "udp", "bytes": 5.5}
    assert records[0].origin == "tiny"


def test_parse_positional_without_header():
    text = "tcp,100,bg\nudp,200,scan\n"
    records = list(parse_flows(io.StringIO(text), tiny_schema()))
    assert [r.label for r in records] == ["Background", "PortScanning"]


def test_parse_empty_field_is_missing():
    records = list(parse_flows(io.StringIO("tcp,,bg\n"), tiny_schema()))
    assert records[0].values["bytes"] is None


def test_parse_skips_malformed_rows_and_reports_them():
    text = "tcp,100,bg\ntcp,notanumber,bg\nshortrow\nudp,1e999,bg\nudp,50,dos\n"
    errors = []
    records = list(parse_flows(io.StringIO(text), tiny_schema(), on_error=errors.append))
    assert len(records) == 2
    assert [e.line_no for e in errors] == [2, 3, 4]
    assert "numeric" in errors[0].message
    assert "fields" in errors[1].message
    assert "non-finite" in errors[2].message


def test_parse_unknown_class_is_fatal():
    with pytest.raises(DataError, match="no mapping"):
        list(parse_flows(io.StringIO("tcp,100,mystery\n"), tiny_schema()))


def test_write_then_parse_round_trip():
    records = [
        FlowRecord(values={"proto": "tcp", "bytes": 123.5}, label="Background", origin="tiny"),
        FlowRecord(values={"proto": "udp", "bytes": None}, label="DoS", origin="tiny"),
    ]
    buf = io.StringIO()
    assert write_flows(records, tiny_schema(), buf) == 2
    buf.seek(0)
    back = list(parse_flows(buf, tiny_schema().canonicalized()))
    assert back == records


def test_class_histogram_counts_labels():
    records = [
        FlowRecord(values={}, label="Background", origin="t"),
        FlowRecord(values={}, label="DoS", origin="t"),
        FlowRecord(values={}, label="Background", origin="t"),
    ]
    assert class_histogram(records) == {"Background": 2, "DoS": 1}


# ---------------------------------------------------------------------------
# Distributions


def test_distribution_draws_stay_in_bounds():
    rng = np.random.default_rng(0)
    d = Distribution(kind="uniform_int", lo=10, hi=20)
    vals = d.draw(rng, 500, numeric=True)
    assert all(10 <= v < 20 for v in vals)
    d = Distribution(kind="constant", value=7)
    assert d.draw(rng, 3, numeric=False) == ["7", "7", "7"]


def test_distribution_missing_rate():
    rng = np.random.default_rng(1)
    d = Distribution(kind="constant", value=1, missing_rate=0.5)
    vals = d.draw(rng, 2_000, numeric=True)
    frac = sum(v is None for v in vals) / len(vals)
    assert 0.45 < frac < 0.55


def test_mixture_distribution_blends_components():
    rng = np.random.default_rng(2)
    d = Distribution(
        kind="mixture",
        components=(
            (0.8, Distribution(kind="constant", value=1)),
            (0.2, Distribution(kind="constant", value=2)),
        ),
    )
    vals = d.draw(rng, 5_000, numeric=True)
    frac_one = sum(v == 1.0 for v in vals) / len(vals)
    assert 0.75 < frac_one < 0.85


def test_unknown_distribution_kind_raises():
    with pytest.raises(ConfigError):
        Distribution(kind="zipf").draw(np.random.default_rng(0), 1, numeric=True)


# ---------------------------------------------------------------------------
# Synthetic profiles


def flat_profile(total=6_000, seed=5, **kwargs):
    dists = {
        "default": {
            "proto": Distribution(kind="choice", values=(("tcp", 0.7), ("udp", 0.3))),
            "bytes": Distribution(kind="uniform_float", lo=0, hi=100),
        },
        "DoS": {"bytes": Distribution(kind="uniform_float", lo=1_000, hi=2_000)},
    }
    return SyntheticProfile(
        proportions=(("Background", 0.8), ("DoS", 0.15), ("PortScanning", 0.05)),
        distributions=dists,
        total=total,
        seed=seed,
        **kwargs,
    )


def test_profile_validation():
    with pytest.raises(ConfigError, match="sum"):
        SyntheticProfile(proportions=(("Background", 0.5),), distributions={}, total=10, seed=0)
    with pytest.raises(ConfigError, match="total"):
        SyntheticProfile(proportions=(("Background", 1.0),), distributions={}, total=0, seed=0)
    with pytest.raises(ConfigError, match="unknown class"):
        SyntheticProfile(
            proportions=(("Background", 1.0),),
            distributions={},
            total=10,
            seed=0,
            variants={"DoS": (("v", 1.0, {}),)},
        )
    with pytest.raises(ConfigError, match="weights"):
        SyntheticProfile(
            proportions=(("Background", 1.0),),
            distributions={},
            total=10,
            seed=0,
            variants={"Background": (("v", 0.0, {}),)},
        )


def test_generate_is_deterministic_and_respects_total():
    a = list(generate_synthetic(flat_profile(), tiny_schema()))
    b = list(generate_synthetic(flat_profile(), tiny_schema()))
    assert a == b
    assert len(a) == 6_000
    c = list(generate_synthetic(flat_profile(seed=6), tiny_schema()))
    assert c != a


def test_generate_honors_proportions_and_class_distributions():
    records = list(generate_synthetic(flat_profile(), tiny_schema()))
    hist = class_histogram(records)
    assert abs(hist["Background"] / 6_000 - 0.8) < 0.02
    assert abs(hist["DoS"] / 6_000 - 0.15) < 0.02
    # DoS bytes come from the class override, everything else from default
    dos_bytes = [r.values["bytes"] for r in records if r.label == "DoS"]
    bg_bytes = [r.values["bytes"] for r in records if r.label == "Background"]
    assert min(dos_bytes) >= 1_000
    assert max(bg_bytes) < 100


def test_generate_requires_a_distribution_somewhere():
    profile = SyntheticProfile(
        proportions=(("Background", 1.0),),
        distributions={"Background": {"proto": Distribution(kind="constant", value="tcp")}},
        total=5,
        seed=0,
    )
    with pytest.raises(ConfigError, match="no distribution for variable 'bytes'"):
        list(generate_synthetic(profile, tiny_schema()))


def test_variant_overrides_beat_class_and_default():
    profile = flat_profile(
        variants={
            "DoS": (
                ("flood", 3.0, {"bytes": Distribution(kind="constant", value=9_999)}),
                ("drip", 1.0, {}),
            )
        }
    )
    records = list(generate_synthetic(profile, tiny_schema()))
    dos_bytes = np.array([r.values["bytes"] for r in records if r.label == "DoS"])
    flood = dos_bytes == 9_999.0
    # drip falls back to the DoS class distribution
    assert np.all((dos_bytes[~flood] >= 1_000) & (dos_bytes[~flood] < 2_000))
    frac = flood.mean()
    assert 0.65 < frac < 0.85  # 3:1 weights


def test_burst_mode_groups_attacks_into_runs():
    iid = flat_profile(total=20_000, seed=9)
    bursty = flat_profile(total=20_000, seed=9, attack_run_mean=50.0)

    def run_count(records, cls):
        runs = 0
        prev = None
        for r in records:
            if r.label == cls and prev != cls:
                runs += 1
            prev = r.label
        return runs

    iid_runs = run_count(list(generate_synthetic(iid, tiny_schema())), "DoS")
    burst_runs = run_count(list(generate_synthetic(bursty, tiny_schema())), "DoS")
    # ~3000 DoS records: iid scatters them into thousands of runs, bursts
    # of mean length 50 leave roughly sixty
    assert iid_runs > 1_000
    assert burst_runs < 300


def test_variants_are_constant_within_a_segment():
    profile = flat_profile(
        total=20_000,
        attack_run_mean=40.0,
        variants={
            "DoS": (
                ("a", 1.0, {"bytes": Distribution(kind="constant", value=1)}),
                ("b", 1.0, {"bytes": Distribution(kind="constant", value=2)}),
            )
        },
    )
    records = list(generate_synthetic(profile, tiny_schema()))
    # inside one contiguous DoS run all rows carry the same variant value
    current: list[float] = []
    for r in records + [FlowRecord(values={}, label="end", origin="t")]:
        if r.label == "DoS":
            current.append(r.values["bytes"])
        elif current:
            assert len(set(current)) == 1
            current = []


# ---------------------------------------------------------------------------
# Source configs on disk


def test_load_source_alpha(config_dir):
    schema = load_source_config(config_dir / "source_alpha.yaml")
    assert schema.dataset_id == "alpha"
    assert schema.label_column == "label"
    assert schema.column_names[0] == "proto"
    assert schema.class_map["dos"] == "DoS"
    profile = schema.profile
    assert profile is not None
    assert profile.total == 30_000
    assert profile.attack_run_mean == 110.0
    assert profile.background_run_mean == 130.0
    assert set(profile.variants) == {"Background", "DoS", "PortScanning"}
    names = [v[0] for v in profile.variants["Background"]]
    assert names == ["web", "resolver", "bulk"]
    weights = {v[0]: v[1] for v in profile.variants["DoS"]}
    assert weights == {"syn_flood": 0.5, "amp_flood": 0.5}
    # overrides parsed into Distribution objects
    web = profile.variants["Background"][0][2]
    assert web["proto"].kind in ("choice", "constant")


def test_three_bundled_sources_share_the_taxonomy(config_dir):
    ids = set()
    for name in ("alpha", "beta", "gamma"):
        schema = load_source_config(config_dir / f"source_{name}.yaml")
        ids.add(schema.dataset_id)
        assert schema.taxonomy.classes == ("Background", "DoS", "PortScanning")
        assert schema.profile is not None and schema.profile.total == 30_000
    assert len(ids) == 3


@pytest.mark.parametrize("name", ["nslkdd_like", "ugr16_like", "unsw_like"])
def test_benchmark_shaped_source_configs_load(config_dir, name):
    schema = load_source_config(config_dir / f"{name}.yaml")
    assert schema.profile is not None


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("\nprofile:", "\nprofiles:", "unknown source key 'profiles'"),
        ("\n  burst:", "\n  bursts:", "unknown profile key 'bursts'"),
    ],
    ids=["profiles", "bursts"],
)
def test_unknown_source_keys_are_rejected(config_dir, tmp_path, old, new, match):
    text = (config_dir / "source_alpha.yaml").read_text(encoding="utf-8")
    assert text.count(old) == 1
    path = tmp_path / "typo.yaml"
    path.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        load_source_config(path)


def test_load_source_config_rejects_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("dataset_id: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_source_config(p)
    p.write_text("- a\n- b\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mapping"):
        load_source_config(p)
