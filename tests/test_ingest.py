"""Flow parsing, synthetic generation, and source-config loading."""

from __future__ import annotations

import csv
import io
import logging
import logging.handlers
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faacflow import ingest
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
    generate_synthetic,
    load_source_config,
    parse_flows,
    write_flows,
)

from oracles import parse_flows_one_row_at_a_time


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


@contextmanager
def skipped_rows():
    """A list that, once the block ends, holds the (level, text) of each record logged on faacflow.ingest
    in it; a handler, not the caplog fixture, so that a hypothesis test can use it once per example."""
    handler = logging.handlers.BufferingHandler(capacity=1 << 30)
    logger = logging.getLogger("faacflow.ingest")
    logger.addHandler(handler)
    seen: list[tuple[int, str]] = []
    try:
        yield seen
    finally:
        logger.removeHandler(handler)
        seen.extend((record.levelno, record.getMessage()) for record in handler.buffer)


def skip_warnings(errors):
    """The warning each (line number, message) of the oracle's skipped rows is logged as."""
    return [(logging.WARNING, f"skipping row: line {line_no}: {message}") for line_no, message, *_ in errors]


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
    with skipped_rows() as warnings:
        records = list(parse_flows(io.StringIO(text), tiny_schema()))
    assert len(records) == 2
    assert warnings == skip_warnings([(2, "non-numeric token 'notanumber' in numeric column 'bytes'"),
                                      (3, "expected at least 3 fields, got 1"),
                                      (4, "non-finite value '1e999' in numeric column 'bytes'")])


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
    back = list(parse_flows(buf, tiny_schema()))
    assert back == records


def test_a_label_maps_by_the_class_map_else_as_a_class_name():
    schema = replace(tiny_schema(), class_map={"bg": "Background", "DoS": "PortScanning"})
    back = parse_flows(io.StringIO("tcp,1,bg\ntcp,1,DoS\ntcp,1,Background\ntcp,1,PortScanning\n"), schema)
    assert [r.label for r in back] == ["Background", "PortScanning", "Background", "PortScanning"]
    with pytest.raises(DataError, match="line 1: class 'dos' has no mapping"):
        list(parse_flows(io.StringIO("tcp,1,dos\n"), schema))


def test_a_numpy_float_is_written_as_the_float_it_is():
    # its own repr, np.float64(1.5), would read back as a non-numeric token and skip the row
    record = FlowRecord(values={"proto": "tcp", "bytes": np.float64(1.5)}, label="Background", origin="tiny")
    chunk = ingest.FlowChunk({"proto": ["tcp"], "bytes": [np.float64(1.5)]}, ["Background"], "tiny")
    for flows in ([record], [chunk]):
        buf = io.StringIO()
        assert write_flows(flows, tiny_schema(), buf) == 1
        assert buf.getvalue() == "proto,bytes,cls\ntcp,1.5,Background\n"
        buf.seek(0)
        with skipped_rows() as warnings:
            (back,) = parse_flows(buf, tiny_schema())
        assert back.values == {"proto": "tcp", "bytes": 1.5} and warnings == []


PROP_SCHEMA = SourceSchema(
    dataset_id="prop",
    columns=(Column("proto", CATEGORICAL), Column("bytes", NUMERIC), Column("port", NUMERIC), Column("flags", CATEGORICAL)),
    label_column="cls",
    class_map={"bg": "Background", "dos": "DoS", "scan": "PortScanning"},
)
NUMERIC_TOKENS = st.one_of(
    st.sampled_from(["0", "-0", "1", "2.5", "1e3", "1_0", " 3 ", "\t4", "+.5", "1e999", "nan", "-inf", "Infinity",
                     "", "x", "0x10", "1__0", "_1", "\u0661\u0662", "--1", "1e"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
TEXT_TOKENS = st.sampled_from(["tcp", "udp", "", " tcp ", "S", "nan"])
LABEL_TOKENS = st.sampled_from(["bg", "dos", "scan", " bg ", "dos ", "worm", ""])
FIELD_NAMES = ("proto", "bytes", "port", "flags", "cls")


def quoted(token):
    return '"' + token.replace('"', '""') + '"'


# fields the csv module reads otherwise than a split at commas would: quoted
# fields holding a comma, a doubled quote, a line end or nothing, a quote
# inside an unquoted field, and a quote that is never closed
CSV_TOKENS = st.one_of(
    st.sampled_from(["t,cp", 'a"b', "x\ny", "1,0", "bg\r\n", "", "dos"]).map(quoted),
    st.sampled_from(['x"y', '"open']),
)
LINE_ENDS = st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])


@st.composite
def flow_texts(draw):
    """CSV text with an optional header in any column order, blank lines,
    short and long rows, odd numeric tokens and now and then an unmapped label;
    now and then a quoted or otherwise csv-only field, a CRLF or lone CR line
    end, or no final line end."""
    header = draw(st.one_of(st.none(), st.permutations(FIELD_NAMES)))
    order = header or FIELD_NAMES
    kinds = {"proto": TEXT_TOKENS, "flags": TEXT_TOKENS, "bytes": NUMERIC_TOKENS, "port": NUMERIC_TOKENS,
             "cls": LABEL_TOKENS}
    csv_only = draw(st.booleans())

    def field(name):
        if csv_only and draw(st.integers(0, 9)) == 0:
            return draw(st.one_of(CSV_TOKENS, kinds[name].map(quoted)))
        return draw(kinds[name])

    lines = [] if header is None else [",".join(f" {n}" if draw(st.booleans()) else n for n in header)]
    for _ in range(draw(st.integers(0, 30))):
        shape = draw(st.sampled_from(["row"] * 6 + ["blank", "short", "long"]))
        if shape == "blank":
            lines.append("")
            continue
        fields = [field(name) for name in order]
        if shape == "short":
            fields = fields[: draw(st.integers(1, len(fields) - 1))]
        elif shape == "long":
            fields.append("extra")
        lines.append(",".join(fields))
    ends = [draw(LINE_ENDS) if csv_only else "\n" for _ in lines]
    if lines and csv_only and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)) if lines else "\n"


def parsed_with_chunk_rows(text, chunk_rows):
    records, fatal = [], None
    with mock.patch.object(ingest, "CHUNK_RECORDS", chunk_rows), skipped_rows() as warnings:
        try:
            # newline="" as files are opened: a lone CR ends a line
            for rec in parse_flows(io.StringIO(text, newline=""), PROP_SCHEMA):
                records.append(rec)
        except DataError as exc:
            fatal = str(exc)
    return records, warnings, fatal


@settings(max_examples=300, deadline=None)
@given(text=flow_texts(), chunk_rows=st.sampled_from([1, 4, 9, ingest.CHUNK_RECORDS]))
def test_parser_matches_the_one_row_at_a_time_oracle(text, chunk_rows):
    records, warnings, fatal = parsed_with_chunk_rows(text, chunk_rows)
    want_records, want_errors, want_fatal = parse_flows_one_row_at_a_time(text, PROP_SCHEMA)
    # repr tells -0.0 from 0.0 and keeps each record's key order
    assert [repr((r.values, r.label, r.origin)) for r in records] == [repr(r) for r in want_records]
    assert warnings == skip_warnings(want_errors)
    assert fatal == (None if want_fatal is None else want_fatal[1])


# categorical values the csv module quotes (or, for a lone CR, writes as it is)
CATEGORICAL_VALUES = st.one_of(
    st.none(), st.sampled_from(["tcp", "udp", "", '""', "a,b", 'say "hi"', "x\ry", "x\ny", "\r\n", " S "])
)
NUMERIC_VALUES = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(CATEGORICAL_VALUES, NUMERIC_VALUES, NUMERIC_VALUES, CATEGORICAL_VALUES,
                  st.sampled_from(["Background", "DoS", "PortScanning"])),
        max_size=14,
    ),
    chunk_rows=st.sampled_from([1, 3, 4, ingest.CHUNK_RECORDS]),
)
def test_write_flows_writes_the_bytes_of_the_csv_module(rows, chunk_rows):
    names = PROP_SCHEMA.column_names
    records = [FlowRecord(values=dict(zip(names, row[:-1])), label=row[-1], origin="prop") for row in rows]
    got = io.StringIO()
    with mock.patch.object(ingest, "CHUNK_RECORDS", chunk_rows):
        assert write_flows(records, PROP_SCHEMA, got) == len(rows)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")  # writes None as an empty field and a float as its repr
    writer.writerow([*names, PROP_SCHEMA.label_column])
    writer.writerows(rows)
    assert got.getvalue() == want.getvalue()


def test_parser_oracle_sees_every_kind_of_row():
    text = "cls, port,flags,bytes,proto\n\nbg,1_0,S,\t4,tcp\nbg,80\ndos,nan,,1,udp\nscan,1,,x,tcp\nbg, 2 ,A,,tcp\nworm,1,,1,tcp\nbg,1,,1,tcp\n"
    want = (
        [({"proto": "tcp", "bytes": 4.0, "port": 10.0, "flags": "S"}, "Background", "prop"),
         ({"proto": "tcp", "bytes": None, "port": 2.0, "flags": "A"}, "Background", "prop")],
        [(4, "expected at least 5 fields, got 2", ("bg", "80")),
         (5, "non-finite value 'nan' in numeric column 'port'", ("dos", "nan", "", "1", "udp")),
         (6, "non-numeric token 'x' in numeric column 'bytes'", ("scan", "1", "", "x", "tcp"))],
        (8, "line 8: class 'worm' has no mapping in schema 'prop'"),
    )
    assert parse_flows_one_row_at_a_time(text, PROP_SCHEMA) == want
    for chunk_rows in (1, 4, 9, ingest.CHUNK_RECORDS):
        records, warnings, fatal = parsed_with_chunk_rows(text, chunk_rows)
        assert [(r.values, r.label, r.origin) for r in records] == want[0]
        assert warnings == skip_warnings(want[1])
        assert fatal == want[2][1]


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
    # a numeric draw is a float64 array with NaN for missing, a categorical one a list with None
    vals = d.draw(rng, 2_000, numeric=True)
    assert vals.dtype == np.float64 and set(vals[~np.isnan(vals)].tolist()) == {1.0}
    assert 0.45 < np.isnan(vals).mean() < 0.55
    tokens = d.draw(rng, 2_000, numeric=False)
    assert set(tokens) == {"1", None}
    assert 0.45 < tokens.count(None) / len(tokens) < 0.55


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


def test_drawn_values_take_the_form_a_flows_csv_carries():
    # '' is the CSV's missing marker, and the parser rejects a number that is not finite
    rng = np.random.default_rng(3)
    assert Distribution(kind="choice", values=(("", 1.0),)).draw(rng, 2, numeric=False) == [None, None]
    assert Distribution(kind="constant", value="").draw(rng, 1, numeric=False) == [None]
    for bad in (float("nan"), "inf", "-Infinity", "http", None):
        with pytest.raises(ConfigError, match="not a finite number"):
            Distribution(kind="constant", value=bad).draw(rng, 1, numeric=True)
        with pytest.raises(ConfigError, match="not a finite number"):
            Distribution(kind="choice", values=(("1", 0.5), (bad, 0.5))).draw(rng, 1, numeric=True)
    for kind in ("uniform_int", "uniform_float"):
        with pytest.raises(ConfigError, match="finite lo < hi"):
            ingest._parse_distribution({"kind": kind, "lo": 0, "hi": float("inf")})


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


def test_generated_chunks_are_the_chunks_parsed_from_their_csv():
    # the pipeline derives the chunks it generates; a recorded source, the chunks parsed from the file written
    proto = Distribution(kind="choice", values=(("tcp", 0.4), ("", 0.2), (" udp", 0.2), ('a,"b"', 0.2)),
                         missing_rate=0.1)
    dists = {"default": {"proto": proto, "bytes": Distribution(kind="uniform_float", lo=-1, hi=1e6, missing_rate=0.1)}}
    profile = SyntheticProfile(proportions=(("Background", 0.7), ("DoS", 0.3)), distributions=dists, total=5_000, seed=9)
    schema = tiny_schema(profile)
    chunks = list(ingest.generate_chunks(profile, schema))
    assert all(np.isnan(c.columns["bytes"]).any() and None in c.columns["proto"] for c in chunks)
    buf = io.StringIO()
    write_flows(chunks, schema, buf)
    buf.seek(0)
    assert_same_chunks(list(ingest.parse_chunks(buf, schema)), chunks)


def assert_same_chunks(got, want):
    """Chunks alike column by column: a list by its values, an array bit for bit, so NaN in the same places."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.labels, a.origin) == (b.labels, b.origin)
        assert list(a.columns) == list(b.columns)
        for name, x in a.columns.items():
            y = b.columns[name]
            assert type(x) is type(y), name
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype == np.float64, name
                assert np.array_equal(np.isnan(x), np.isnan(y)) and x.tobytes() == y.tobytes(), name
            else:
                assert repr(x) == repr(y), name


def test_a_chunk_equals_only_itself():
    # a field-wise == would ask the dict of array columns for one truth value and raise
    a = ingest.FlowChunk({"bytes": np.array([1.0, 2.0])}, ["Background", "DoS"], "s")
    b = ingest.FlowChunk({"bytes": np.array([1.0, 2.0])}, ["Background", "DoS"], "s")
    assert (a == b) is False and (a != b) is True
    assert a == a and [a] == [a] and a in [b, a]


def test_generated_numeric_columns_are_float64_arrays_that_read_back_as_records():
    numeric = {
        "bytes": Distribution(kind="uniform_float", lo=-1, hi=1, missing_rate=0.2),
        "port": Distribution(kind="mixture", components=(
            (1.0, Distribution(kind="choice", values=((-0.0, 1.0), (0.0, 1.0), (80, 1.0)))),
            (1.0, Distribution(kind="uniform_int", lo=1024, hi=1030, missing_rate=0.3)),
            (1.0, Distribution(kind="constant", value="4e3")),
        )),
    }
    dists = {"default": {"proto": Distribution(kind="choice", values=(("tcp", 1.0), ("", 1.0))), **numeric}}
    profile = SyntheticProfile(proportions=(("Background", 1.0),), distributions=dists, total=9_000, seed=3)
    schema = SourceSchema(
        dataset_id="arrays",
        columns=(Column("proto", CATEGORICAL), Column("bytes", NUMERIC), Column("port", NUMERIC)),
        label_column="cls",
        class_map={},
        profile=profile,
    )
    chunks = list(ingest.generate_chunks(profile, schema))
    records = list(ingest.iter_records(chunks))
    assert len(records) == 9_000 and len(chunks) == 3
    assert all(isinstance(c.columns["proto"], list) for c in chunks)
    for name in numeric:
        columns = [c.columns[name] for c in chunks]
        assert all(isinstance(x, np.ndarray) and x.dtype == np.float64 for x in columns)
        x = np.concatenate(columns)
        # repr tells -0.0 from 0.0
        want = [None if np.isnan(v) else v for v in x.tolist()]
        assert repr([r.values[name] for r in records]) == repr(want)
        assert {type(r.values[name]) for r in records} == {float, type(None)}
    ports = [r.values["port"] for r in records[:4096]]
    distinct = {"-0.0", "0.0", "80.0", "4000.0", "None", *(f"{p}.0" for p in range(1024, 1030))}
    assert {repr(v) for v in ports} == distinct
    # one float object per distinct value of a chunk's column
    assert len(set(map(id, ports))) == len(distinct)


def test_generate_honors_proportions_and_class_distributions():
    records = list(generate_synthetic(flat_profile(), tiny_schema()))
    hist = Counter(r.label for r in records)
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
