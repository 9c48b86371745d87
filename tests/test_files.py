"""The file edge: YAML config mappings, key checks, and CSV sheets."""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faacflow import files
from faacflow.cli import main, orchestrate
from faacflow.errors import ConfigError
from faacflow.faac import load_faac_config
from faacflow.files import check_keys, read_csv, read_csv_blocks, read_yaml_mapping, write_csv
from faacflow.ingest import load_source_config
from faacflow.integrate import IntegrationSpec, load_integration_spec


def test_yaml_mapping_reads_empty_files_as_empty_mappings(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("", encoding="utf-8")
    assert read_yaml_mapping(path) == {}
    path.write_text("# only a comment\n", encoding="utf-8")
    assert read_yaml_mapping(path) == {}
    path.write_text("a: 1\n", encoding="utf-8")
    assert read_yaml_mapping(str(path)) == {"a": 1}
    path.write_text("- a\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected a mapping at top level"):
        read_yaml_mapping(path)
    path.write_text("a: [1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid YAML"):
        read_yaml_mapping(path)


# YAML documents at the edges of the format: (id, text)
EDGE_DOCUMENTS = [
    ("bom", "\ufeffa: 1\n"),
    ("duplicate_key", "a: 1\na: 2\n"),
    ("yaml11_scalars", "a: yes\nb: 0x10\nc: 012\nd: .inf\ne: -.inf\nf: .nan\ng: off\nh: 1_000\n"
                       "i: 190:20:30\nj: ~\nk: 1e3\nl: 1.0e+3\nm: 2001-12-14\n"
                       "n: 2001-12-14t21:59:43.10-05:00\n"),
    ("nel", "a: b\x85c: d\ne: [1,\x852]\n"),
    ("crlf", "a: 1\r\nb: 2\r\n"),
    ("anchors", "a: &x {b: 1}\nc: *x\nd: {<<: *x, e: 2}\n"),
    ("quoting", "\u00e9: \"\\u00e9\\x41\"\nz: 'it''s'\nf: >\n  x\n  y\ng: |-\n  p\n  q\n"),
    ("tags", "a: !!str 1\nb: !!float 2\n"),
    ("empty", ""),
    ("comment_only", "# only a comment\n"),
    ("tab_indent", "a:\n\tb: 1\n"),
    ("two_documents", "a: 1\n---\nb: 2\n"),
    ("non_printable", "a: \x07\n"),
    ("long_key", "k" * 1100 + ": 1\n"),
    ("unclosed_flow", "a: [1\n"),
    ("unsafe_tag", "a: !!python/object:os.system x\n"),
]


def _pure(text: str) -> object:
    return yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml")), ids=lambda p: p.name
)
def test_every_bundled_config_reads_as_the_pure_python_parser_reads_it(path):
    # repr tells 1 from 1.0 and True, and keeps the key order
    assert repr(read_yaml_mapping(path)) == repr(_pure(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("text", [t for _, t in EDGE_DOCUMENTS], ids=[k for k, _ in EDGE_DOCUMENTS])
def test_edge_documents_read_as_the_pure_python_parser_reads_them(tmp_path, text):
    path = tmp_path / "edge.yaml"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = _pure(text)
    except yaml.YAMLError as exc:
        with pytest.raises(ConfigError, match="invalid YAML") as info:
            read_yaml_mapping(path)
        assert type(info.value.__cause__) is type(exc)
        return
    assert repr(read_yaml_mapping(path)) == repr({} if expected is None else expected)


def test_configs_are_parsed_by_libyaml_when_pyyaml_has_it():
    assert files._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    if yaml.__with_libyaml__:
        assert files._YAML_LOADER is yaml.CSafeLoader


def test_check_keys_names_the_first_unknown_key():
    check_keys({"a": 1}, ("a", "b"), "thing key")
    with pytest.raises(ConfigError, match=r"^f\.yaml: unknown thing key 'c'; expected one of a, b$"):
        check_keys({"a": 1, "c": 2, "d": 3}, ("a", "b"), "thing key", "f.yaml")
    with pytest.raises(ConfigError, match=r"^unknown thing key 'c'"):
        check_keys({"c": 2}, ("a", "b"), "thing key")
    with pytest.raises(ConfigError, match="expected a mapping of thing keys"):
        check_keys([1, 2], ("a",), "thing key")


def test_csv_sheets_round_trip_through_paths_handles_and_lines(tmp_path):
    header = ["name", "value"]
    rows = [["a", "1"], ["b,c", "2"], ['quote "q"', ""]]
    path = tmp_path / "s.csv"
    assert write_csv(path, header, iter(rows)) == 3
    buf = io.StringIO()
    assert write_csv(buf, header, rows) == 3
    data = path.read_bytes()
    assert data == buf.getvalue().encode("utf-8")
    assert data == b'name,value\na,1\n"b,c",2\n"quote ""q""",\n'
    assert list(read_csv(path)) == [header, *rows]
    assert list(read_csv(str(path))) == [header, *rows]
    assert list(read_csv(io.StringIO(buf.getvalue()))) == [header, *rows]
    assert list(read_csv(buf.getvalue().splitlines())) == [header, *rows]
    assert write_csv(tmp_path / "e.csv", header, []) == 0
    assert (tmp_path / "e.csv").read_text(encoding="utf-8") == "name,value\n"


# one typo per nested block of the bundled configs: (file, text, typo, key named)
NESTED_TYPOS = [
    ("source_alpha.yaml", "missing_rate: 0.8}", "missing_rte: 0.8}", "missing_rte"),
    ("source_alpha.yaml", "{kind: uniform_int, lo:", "{kind: uniform_int, low:", "low"),
    ("source_alpha.yaml", "lo: 0.1, hi: 6.0}", "lo: 0.1, hi: 6.0, step: 1}", "step"),
    ("source_alpha.yaml", "{kind: constant, value: 53}", "{kind: constant, values: 53}", "values"),
    ("source_alpha.yaml", "kind: mixture\n            components:", "kind: mixture\n            component:",
     "component"),
    ("source_alpha.yaml", "{weight: 0.85, dist:", "{wieght: 0.85, dist:", "wieght"),
    ("source_alpha.yaml", "web:\n        weight: 0.6", "web:\n        weigth: 0.6", "weigth"),
    ("source_alpha.yaml", "burst: {attack_run_mean:", "burst: {attack_run_men:", "attack_run_men"),
    ("source_alpha.yaml", "  id: alpha", "  name: alpha", "name"),
    ("source_alpha.yaml", "{name: proto, kind: categorical}", "{name: proto, knd: categorical}", "knd"),
    ("faac_reference.yaml", "{name: proto_tcp, variable:", "{name: proto_tcp, varible:", "varible"),
    ("faac_reference.yaml", "matcher: {kind: equals, args: {value: tcp}}",
     "matcher: {kind: equals, knd: equals, args: {value: tcp}}", "knd"),
]


@pytest.mark.parametrize(
    "name, old, new, key",
    NESTED_TYPOS,
    ids=["choice", "uniform_int", "uniform_float", "constant", "mixture", "component", "variant", "burst",
         "dataset", "column", "feature", "matcher"],
)
def test_nested_block_typos_are_rejected(config_dir, tmp_path, name, old, new, key):
    text = (config_dir / name).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    load = load_source_config if name.startswith("source") else load_faac_config
    with pytest.raises(ConfigError, match=f"unknown [a-z_ ]+ key '{key}'; expected one of "):
        load(path)


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("missing_rate: 0.8}", "missing_rate: 1.5}", r"missing_rate 1\.5 is not in \[0, 1\]"),
        ("{tcp: 0.9, udp: 0.08,", "{tcp: 0.9, udp: -0.9,", "must be non-negative"),
        ("{weight: 0.85, dist:", "{weight: -0.85, dist:", "must be non-negative"),
        ("{tcp: 0.9, udp: 0.08, icmp: 0.02}", "{tcp: 0, udp: 0, icmp: 0}", "positive sum"),
    ],
    ids=["missing_rate", "choice_weight", "mixture_weight", "zero_sum"],
)
def test_distribution_values_are_checked_on_load(config_dir, tmp_path, old, new, match):
    text = (config_dir / "source_alpha.yaml").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "bad.yaml"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        load_source_config(path)


def _one_source_plan(path: Path, faac: Path, source: Path, flows: Path | None = None) -> Path:
    """Write to ``path`` a plan of one source at 4 batches and no evaluation: ``source`` is synthetic, or with
    ``flows`` the config of that recorded flows file."""
    entry = str(source) if flows is None else {"config": str(source), "flows": str(flows)}
    path.write_text(yaml.safe_dump({"batches": 4, "faac": str(faac), "sources": {"s": entry}}), encoding="utf-8")
    return path


def test_a_negative_weight_in_a_plan_source_is_a_configuration_error(config_dir, tmp_path, capsys):
    text = (config_dir / "source_alpha.yaml").read_text(encoding="utf-8")
    path = tmp_path / "negative.yaml"
    path.write_text(text.replace("{tcp: 0.9, udp: 0.08,", "{tcp: 0.9, udp: -0.9,", 1), encoding="utf-8")
    out = tmp_path / "out"
    plan = _one_source_plan(tmp_path / "plan.yaml", config_dir / "faac_reference.yaml", path)
    assert main(["pipeline", "--config", str(plan), "--seed", "1", "--out", str(out)]) == 2
    assert "must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_empty_config_files_fail_on_what_they_miss(config_dir, tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="'features'"):
        load_faac_config(empty)
    with pytest.raises(ConfigError, match="missing or malformed key: 'dataset'"):
        load_source_config(empty)
    with pytest.raises(ConfigError, match="needs 'faac' and 'sources'"):
        orchestrate(empty, tmp_path / "pipe", seed=1)
    assert load_integration_spec(empty) == IntegrationSpec()

    out = str(tmp_path / "out")
    assert main(["pipeline", "--config", str(empty), "--out", out]) == 2
    assert "needs 'faac' and 'sources'" in capsys.readouterr().err
    source = _one_source_plan(tmp_path / "source.yaml", config_dir / "faac_reference.yaml", empty)
    assert main(["pipeline", "--config", str(source), "--out", out]) == 2
    assert "'dataset'" in capsys.readouterr().err
    faac = _one_source_plan(tmp_path / "faac.yaml", empty, empty, flows=tmp_path / "flows.csv")
    assert main(["pipeline", "--config", str(faac), "--out", out]) == 2
    assert "'features'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _faacflow(argv: list[str]) -> subprocess.CompletedProcess:
    """``python -m faacflow`` in a fresh interpreter, as a user runs it."""
    # a fresh interpreter does not see pytest's pythonpath; hand it the source tree
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "faacflow", *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize(
    "command, name, code, kind",
    [
        ("source", "bytes.yaml", 2, "configuration error"),
        ("source", "directory.yaml", 2, "configuration error"),
        ("flows", "bytes.csv", 3, "data error"),
        ("report", "bytes.csv", 3, "data error"),
    ],
    ids=["source_config_not_utf8", "source_config_directory", "flows_not_utf8", "report_input_not_utf8"],
)
def test_unreadable_files_exit_with_their_code_without_a_traceback(config_dir, tmp_path, command, name, code, kind):
    path = tmp_path / name
    if name.startswith("directory"):
        path.mkdir()
    elif name.endswith(".yaml"):
        path.write_bytes(b"dataset:\n  id: \xff\n")
    else:
        path.write_bytes(b"src_port,label\n\xff,Background\n")
    out = str(tmp_path / "out")
    faac, plan = config_dir / "faac_reference.yaml", tmp_path / "plan.yaml"
    if command == "source":
        argv = ["pipeline", "--config", str(_one_source_plan(plan, faac, path)), "--out", out]
    elif command == "flows":
        recorded = _one_source_plan(plan, faac, config_dir / "source_alpha.yaml", flows=path)
        argv = ["pipeline", "--config", str(recorded), "--out", out]
    else:
        argv = ["report", "--input", str(path), "--out", out]
    proc = _faacflow(argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"{kind}: {path}: cannot read as UTF-8 text: " in proc.stderr


def test_missing_files_stay_data_errors(config_dir, tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    with pytest.raises(FileNotFoundError):
        read_yaml_mapping(missing)
    with pytest.raises(FileNotFoundError):
        list(read_csv(tmp_path / "missing.csv"))
    plan = _one_source_plan(tmp_path / "plan.yaml", config_dir / "faac_reference.yaml", missing)
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == 3
    assert str(missing) in capsys.readouterr().err


# one block of the wrong YAML type per case: (file, key path, value, key named)
TYPE_ERRORS = [
    ("source_alpha.yaml", ("class_map",), ["a", "b"], "class_map"),
    ("source_alpha.yaml", ("profile", "proportions"), [0.8], "profile.proportions"),
    ("source_alpha.yaml", ("profile", "distributions", "Background"), ["src_port"], "profile.distributions.Background"),
    ("source_alpha.yaml", ("profile", "variants", "Background"), ["web"], "profile.variants.Background"),
    ("source_alpha.yaml", ("taxonomy",), 5, "taxonomy"),
    ("faac_reference.yaml", ("aliases",), ["a", "b"], "aliases"),
    ("faac_reference.yaml", ("taxonomy",), 5, "taxonomy"),
]


@pytest.mark.parametrize(
    "name, keys, value, key",
    TYPE_ERRORS,
    ids=["class_map", "proportions", "distributions", "variants", "source_taxonomy", "aliases", "faac_taxonomy"],
)
def test_blocks_of_the_wrong_type_exit_2_without_a_traceback(config_dir, tmp_path, name, keys, value, key):
    doc = yaml.safe_load((config_dir / name).read_text(encoding="utf-8"))
    node = doc
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    out = tmp_path / "out"
    plan = tmp_path / "plan.yaml"
    if name.startswith("source"):
        _one_source_plan(plan, config_dir / "faac_reference.yaml", path)
    else:
        _one_source_plan(plan, path, config_dir / "source_alpha.yaml", flows=tmp_path / "flows.csv")
    proc = _faacflow(["pipeline", "--config", str(plan), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"configuration error: {path}: {key} must be a " in proc.stderr


def test_plan_blocks_of_the_wrong_type_are_configuration_errors(config_dir, tmp_path, capsys):
    plan = tmp_path / "eval.yaml"
    plan.write_text(f"batches: 4\nfaac: {config_dir / 'faac_reference.yaml'}\nsources: {{}}\n"
                    "evaluation: {models: [lr], fixed_hyper: [a, b]}\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == 2
    assert f"{plan}: evaluation.fixed_hyper must be a mapping, got ['a', 'b']" in capsys.readouterr().err
    pipeline = tmp_path / "pipeline.yaml"
    pipeline.write_text(f"batches: 4\nfaac: {config_dir / 'faac_reference.yaml'}\nsources: [a, b]\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="sources must be a mapping"):
        orchestrate(pipeline, tmp_path / "pipe", seed=1)


def _rows_in_blocks(lines, size, unread):
    """The rows of ``lines`` read through read_csv_blocks, or csv.Error."""
    rows = []
    try:
        with read_csv_blocks(lines) as reader:
            if unread:
                first = reader.row()
                if first is not None:
                    reader.unread(first)
            while block := reader.block(size):
                rows += map(block.row, range(len(block)))
    except csv.Error:
        return csv.Error
    return [list(row) for row in rows]


# lines a block may split at commas, mostly with one comma each; lines whose
# line ends are not one at the end; and any lines
PLAIN_LINES = st.sampled_from(["a,b\n", ",\n", "ab,\n", "b,a\n", "a,,b\n"])
ODD_LINES = st.sampled_from(["a,b\nc,d", "a\nb,c\n", "a,", "b\n", "a,b\n\n", "a,b", "\n"])
ANY_LINES = st.text(alphabet='ab,"\r\n\0', max_size=8)


@settings(max_examples=400, deadline=None)
@given(
    lines=st.lists(st.one_of(PLAIN_LINES, PLAIN_LINES, ODD_LINES, ANY_LINES), max_size=12),
    size=st.integers(1, 5),
    unread=st.booleans(),
)
@example(lines=["a,b\nc,d", "\n"], size=2, unread=False)  # the csv module rejects an LF inside a line
@example(lines=["a,", "b\n", "c,d\n"], size=3, unread=False)
def test_block_reader_gives_the_rows_of_the_csv_module(lines, size, unread):
    try:
        want = list(csv.reader(lines))
    except csv.Error:
        want = csv.Error
    assert _rows_in_blocks(lines, size, unread) == want
    # the same lines as a text stream, where a line ends at each line end
    text = "".join(lines)
    try:
        want = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error:
        want = csv.Error
    assert _rows_in_blocks(io.StringIO(text, newline=""), size, unread) == want


@settings(max_examples=300, deadline=None)
@given(
    width=st.integers(1, 3),
    rows=st.lists(st.lists(st.text(alphabet='ab,"\r\n\0 ', max_size=4), min_size=3, max_size=3), max_size=5),
)
def test_block_writer_writes_the_bytes_of_the_csv_module(width, rows):
    rows = [row[:width] for row in rows]
    blocks = [[list(col) for col in zip(*rows[i:i + 2])] for i in range(0, len(rows), 2)]  # two rows a block
    got = io.StringIO()
    assert files.write_csv_blocks(got, ["h"] * width, blocks) == len(rows)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["h"] * width)
    writer.writerows(rows)
    assert got.getvalue() == want.getvalue()
