"""End-to-end command line checks on a miniature three-source corpus."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from faacflow.cli import main, orchestrate
from faacflow.errors import ConfigError
from faacflow.evaluation import EvalSettings, run_holdout_study, run_single_dataset, write_report_csv
from faacflow.faac import load_faac_config, read_derived
from faacflow.files import read_csv
from faacflow.ingest import load_source_config
from faacflow.learning import load_model

MINI_FAAC = """\
taxonomy: [Background, DoS, PortScanning]
class_priority: [DoS, PortScanning]

aliases:
  protocol: proto
  port: dst_port
  size: bytes

features:
  - {name: proto_tcp, variable: proto, matcher: {kind: equals, args: {value: tcp}}}
  - {name: proto_udp, variable: proto, matcher: {kind: equals, args: {value: udp}}}
  - {name: proto_other, variable: proto, matcher: {kind: catch_all}}
  - {name: port_low, variable: dst_port, matcher: {kind: numeric_range, args: {lo: 0, hi: 1024}}}
  - {name: port_high, variable: dst_port, matcher: {kind: numeric_range, args: {lo: 1024, hi: 65536}}}
  - {name: bytes_small, variable: bytes, matcher: {kind: numeric_range, args: {lo: 0, hi: 1000}}}
  - {name: bytes_large, variable: bytes, matcher: {kind: numeric_range, args: {lo: 1000, hi: .inf}}}
"""

SOURCE_TEMPLATE = """\
dataset:
  id: {sid}

columns:
  - {{name: {proto}, kind: categorical}}
  - {{name: {port}, kind: numeric}}
  - {{name: {size}, kind: numeric}}

label_column: label

class_map:
  {bg}: Background
  {dos}: DoS
  {scan}: PortScanning

profile:
  total: 4000
  seed: {seed}
  burst: {{attack_run_mean: 150, background_run_mean: 250}}
  proportions:
    Background: 0.6
    DoS: 0.25
    PortScanning: 0.15
  distributions:
    Background:
      {proto}: {{kind: choice, values: {{tcp: 0.85, udp: 0.15}}}}
      {port}: {{kind: choice, values: {{80: 0.5, 443: 0.3, 53: 0.2}}}}
      {size}: {{kind: uniform_int, lo: 200, hi: 2000}}
    DoS:
      {proto}: {{kind: choice, values: {{udp: 0.9, tcp: 0.1}}}}
      {port}: {{kind: uniform_int, lo: 49152, hi: 65536}}
      {size}: {{kind: uniform_int, lo: 5000, hi: 20000}}
    PortScanning:
      {proto}: {{kind: constant, value: tcp}}
      {port}: {{kind: uniform_int, lo: 1, hi: 1024}}
      {size}: {{kind: uniform_int, lo: 40, hi: 120}}
"""

PIPELINE = """\
seed: 5
batches: 40
faac: mini_faac.yaml

sources:
  s1: source_s1.yaml
  s2: source_s2.yaml

evaluation:
  models: [lr]
  k: 2
  repetitions: 2
  singles: [integrated]
  transfer: true
"""

HOLDOUT_PIPELINE = """\
seed: 5
batches: 40
faac: mini_faac.yaml

sources:
  s1: source_s1.yaml
  s2: source_s2.yaml
  s3: source_s3.yaml

evaluation:
  models: {models}
  k: 2
  repetitions: 1
  fixed_hyper:
    rf: {{n_trees: 5, max_depth: 4}}
  singles: [integrated]
  transfer: holdout
"""


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("mini_configs")
    (d / "mini_faac.yaml").write_text(MINI_FAAC, encoding="utf-8")
    # s1 uses canonical column names, s2 goes through the alias table
    (d / "source_s1.yaml").write_text(
        SOURCE_TEMPLATE.format(sid="s1", proto="proto", port="dst_port", size="bytes",
                               bg="background", dos="dos", scan="scan", seed=101),
        encoding="utf-8",
    )
    (d / "source_s2.yaml").write_text(
        SOURCE_TEMPLATE.format(sid="s2", proto="protocol", port="port", size="size",
                               bg="benign", dos="flood", scan="probe", seed=202),
        encoding="utf-8",
    )
    # s3 is held out against the merged s1 and s2 in the held-out study
    (d / "source_s3.yaml").write_text(
        SOURCE_TEMPLATE.format(sid="s3", proto="proto", port="port", size="bytes",
                               bg="normal", dos="ddos", scan="sweep", seed=303),
        encoding="utf-8",
    )
    # a source whose dataset id names the merged outputs of a plan
    (d / "source_integrated.yaml").write_text(
        SOURCE_TEMPLATE.format(sid="integrated", proto="proto", port="port", size="bytes",
                               bg="normal", dos="ddos", scan="sweep", seed=404),
        encoding="utf-8",
    )
    (d / "pipeline.yaml").write_text(PIPELINE, encoding="utf-8")
    return d


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mini_plan(cfg_dir, path: Path, text: str, flows: Path | None = None) -> Path:
    """Write the mini plan ``text`` to ``path`` over the configs in ``cfg_dir``; with ``flows``,
    each source is the recorded flows file ``<flows>/<key>_flows.csv``."""
    plan = yaml.safe_load(text)
    plan["faac"] = str(cfg_dir / plan["faac"])
    plan["sources"] = {
        sid: str(cfg_dir / src) if flows is None
        else {"config": str(cfg_dir / src), "flows": str(flows / f"{sid}_flows.csv")}
        for sid, src in plan["sources"].items()
    }
    path.write_text(yaml.safe_dump(plan), encoding="utf-8")
    return path


def _one_source_plan(path: Path, faac: Path, key: str, source: Path, flows: Path | None = None,
                     batches: int = 40, seed: int = 5) -> Path:
    """Write to ``path`` a plan of one source and no evaluation: ``source`` keyed by ``key`` is synthetic, or
    with ``flows`` the config of that recorded flows file."""
    entry = str(source) if flows is None else {"config": str(source), "flows": str(flows)}
    plan = {"seed": seed, "batches": batches, "faac": str(faac), "sources": {key: entry}}
    path.write_text(yaml.safe_dump(plan), encoding="utf-8")
    return path


def _with_count(source: Path, path: Path, count: int) -> Path:
    """Write to ``path`` a copy of the source config ``source`` that declares ``count`` records."""
    path.write_text(source.read_text(encoding="utf-8") + f"record_count_hint: {count}\n", encoding="utf-8")
    return path


def test_module_help_runs():
    # a fresh interpreter does not see pytest's pythonpath; hand it the source tree
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "faacflow", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "{pipeline,report}" in proc.stdout


def test_subcommand_round_trip(cfg_dir, tmp_path, capsys):
    out = tmp_path / "run"
    faac = cfg_dir / "mini_faac.yaml"
    for sid in ("s1", "s2"):
        source = cfg_dir / f"source_{sid}.yaml"
        plan = _one_source_plan(tmp_path / f"synth_{sid}.yaml", faac, sid, source)
        assert main(["pipeline", "--config", str(plan), "--out", str(out)]) == 0
        assert (out / f"{sid}_flows.csv").exists()
        plan = _one_source_plan(tmp_path / f"derive_{sid}.yaml", faac, sid, source, flows=out / f"{sid}_flows.csv")
        assert main(["pipeline", "--config", str(plan), "--out", str(out / "parsed")]) == 0
        ds = read_derived(out / "parsed" / f"{sid}_derived.csv")
        assert ds.n_rows == 40 and ds.n_features == 7
        assert int(ds.batch_sizes[0]) == 100

    plan = _mini_plan(cfg_dir, tmp_path / "plan.yaml", PIPELINE, flows=out)
    rc = main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(out)])
    assert rc == 0
    merged = read_derived(out / "integrated_derived.csv")
    assert merged.n_rows == 80
    assert set(merged.origins) == {"s1", "s2"}
    report_lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert len(report_lines) > 1

    rc = main(["report", "--input", str(out / "report.csv"), "--out", str(out)])
    assert rc == 0
    for name in ("aggregate.csv", "plot_auc_distribution.csv", "plot_class_distribution.csv"):
        assert (out / name).exists(), name
    agg = (out / "aggregate.csv").read_text(encoding="utf-8").splitlines()
    # 1 single-dataset group + 2 transfer directions, plus the header
    assert len(agg) == 4
    summary = capsys.readouterr().out
    assert "weighted AUC" in summary


def test_one_source_plans_write_the_bytes_a_two_source_plan_writes(cfg_dir, tmp_path, capsys):
    sub = tmp_path / "sub"
    faac = cfg_dir / "mini_faac.yaml"
    for sid in ("s1", "s2"):
        source = cfg_dir / f"source_{sid}.yaml"
        plan = _one_source_plan(tmp_path / f"synth_{sid}.yaml", faac, sid, source)
        assert main(["pipeline", "--config", str(plan), "--out", str(sub)]) == 0
        plan = _one_source_plan(tmp_path / f"derive_{sid}.yaml", faac, sid, source, flows=sub / f"{sid}_flows.csv")
        assert main(["pipeline", "--config", str(plan), "--out", str(sub / "parsed")]) == 0
    # PIPELINE over the flows that the one-source plans wrote
    plan = _mini_plan(cfg_dir, tmp_path / "plan.yaml", PIPELINE, flows=sub)
    assert main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(sub / "plan")]) == 0

    pipe = tmp_path / "pipe"
    orchestrate(cfg_dir / "pipeline.yaml", pipe, seed=5)
    capsys.readouterr()
    names = [f"{d}{stem}_{kind}.csv" for stem in ("s1", "s2") for d in ("", "parsed/")
             for kind in ("derived", "distribution")]
    names += ["s1_flows.csv", "s2_flows.csv"]
    names += ["plan/integrated_derived.csv", "plan/integrated_distribution.csv", "plan/report.csv"]
    for name in names:
        assert (sub / name).read_bytes() == (pipe / Path(name).name).read_bytes(), name


def test_pipeline_sheets_are_the_sheets_a_one_source_plan_makes_of_its_flows(cfg_dir, tmp_path, capsys):
    # pipeline derives each source from the flows in memory, a recorded source from the CSV the pipeline wrote
    pipe, sub = tmp_path / "pipe", tmp_path / "sub"
    assert main(["pipeline", "--config", str(cfg_dir / "pipeline.yaml"), "--out", str(pipe)]) == 0
    for sid in ("s1", "s2"):
        plan = _one_source_plan(tmp_path / f"{sid}.yaml", cfg_dir / "mini_faac.yaml", sid,
                                cfg_dir / f"source_{sid}.yaml", flows=pipe / f"{sid}_flows.csv")
        assert main(["pipeline", "--config", str(plan), "--out", str(sub)]) == 0
        for name in (f"{sid}_derived.csv", f"{sid}_distribution.csv"):
            assert (sub / name).read_bytes() == (pipe / name).read_bytes(), name


TUNED_PIPELINE = PIPELINE.replace("repetitions: 2\n", "repetitions: 1\n  tune: true\n  n_init: 2\n  n_iter: 2\n")


@pytest.mark.parametrize(
    "text", [PIPELINE, TUNED_PIPELINE, HOLDOUT_PIPELINE.format(models="[lr, rf]")], ids=["transfer", "tuned", "holdout"]
)
def test_a_plan_over_the_flows_files_it_wrote_writes_the_same_bytes(cfg_dir, tmp_path, capsys, text):
    first = orchestrate(_mini_plan(cfg_dir, tmp_path / "synth.yaml", text), tmp_path / "synth", seed=5)
    plan = _mini_plan(cfg_dir, tmp_path / "recorded.yaml", text, flows=tmp_path / "synth")
    out = tmp_path / "recorded"
    assert main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(out)]) == 0
    flows = sorted(p for p in first.values() if p.name.endswith("_flows.csv"))
    kept = sorted(p.name for p in first.values() if p not in flows and p.name != "manifest.json")
    assert sorted(p.name for p in out.iterdir()) == sorted([*kept, "manifest.json"])
    for name in kept:
        assert (out / name).read_bytes() == (tmp_path / "synth" / name).read_bytes(), name
    kinds = {name.split("_")[0].split(".")[0] for name in kept}
    assert {"report", "model", "integrated"} <= kinds and ("trials" in kinds) == ("tune: true" in text)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    # keyed by path relative to the plan, which sits beside synth/
    assert manifest["inputs"] == {f"synth/{p.name}": sha256(p) for p in flows}


def test_the_pipeline_manifest_keys_files_by_their_path_relative_to_the_plan(cfg_dir, tmp_path, capsys):
    # two sources whose config files and flows files each share one name
    for sid, sub in (("s1", "a"), ("s2", "b")):
        synth = _one_source_plan(tmp_path / f"synth_{sid}.yaml", cfg_dir / "mini_faac.yaml", sid,
                                 cfg_dir / f"source_{sid}.yaml")
        assert main(["pipeline", "--config", str(synth), "--out", str(tmp_path / sub)]) == 0
        (tmp_path / sub / f"{sid}_flows.csv").rename(tmp_path / sub / "flows.csv")
        (tmp_path / sub / "source.yaml").write_bytes((cfg_dir / f"source_{sid}.yaml").read_bytes())
    plan = tmp_path / "plan.yaml"
    plan.write_text(f"batches: 40\nfaac: {cfg_dir / 'mini_faac.yaml'}\nsources:\n"
                    "  s1: {config: a/source.yaml, flows: a/flows.csv}\n"
                    "  s2: {config: b/source.yaml, flows: b/flows.csv}\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["inputs"] == {f"{d}/flows.csv": sha256(tmp_path / d / "flows.csv") for d in "ab"}
    assert manifest["inputs"]["a/flows.csv"] != manifest["inputs"]["b/flows.csv"]
    assert manifest["configs"] == {
        "plan.yaml": sha256(plan),
        os.path.relpath(cfg_dir / "mini_faac.yaml", tmp_path): sha256(cfg_dir / "mini_faac.yaml"),
        **{f"{d}/source.yaml": sha256(tmp_path / d / "source.yaml") for d in "ab"},
    }


FLOWS_HEADER, FLOW = "proto,dst_port,bytes,label\n", "tcp,80,500,background\n"
FLOWS = FLOWS_HEADER + FLOW * 400
RECORDED_FAULTS = {
    # s1's value in the plan, its flows file's text, batches, exit code, the file named and what is said of it
    "missing_flows_file": ("{config: <cfg>/source_s1.yaml, flows: s1.csv}", None, 40, 3, "s1.csv",
                           "No such file or directory"),
    "unknown_key": ("{config: <cfg>/source_s1.yaml, flows: s1.csv, label: x}", FLOWS, 40, 2, "plan.yaml",
                    "unknown sources.s1 key 'label'; expected one of config, flows"),
    "config_not_a_string": ("{config: 7, flows: s1.csv}", FLOWS, 40, 2, "plan.yaml",
                            "sources.s1.config must be a path, got 7"),
    "flows_not_a_string": ("{config: <cfg>/source_s1.yaml, flows: [s1.csv]}", FLOWS, 40, 2, "plan.yaml",
                           "sources.s1.flows must be a path, got ['s1.csv']"),
    "unmapped_class": ("{config: <cfg>/source_s1.yaml, flows: s1.csv}", FLOWS + "tcp,80,500,worm\n", 40, 3, "s1.csv",
                       "line 402: class 'worm' has no mapping in schema 's1'"),
    "too_few_records": ("{config: <cfg>/source_s1.yaml, flows: s1.csv}", FLOWS_HEADER + FLOW * 20, 40, 3, "s1.csv",
                        "batch size would be zero: 20 records cannot fill 40 batches"),
    "no_batches": ("{config: <cfg>/source_s1.yaml, flows: s1.csv}", FLOWS, 0, 2, "plan.yaml",
                   "batches: target batch count must be positive, got 0 (source 's1')"),
}


@pytest.mark.parametrize(
    "source, text, batches, code, named, message", RECORDED_FAULTS.values(), ids=RECORDED_FAULTS
)
def test_recorded_source_faults_exit_naming_their_file_before_any_output(cfg_dir, tmp_path, capsys, source, text,
                                                                         batches, code, named, message):
    if text is not None:
        (tmp_path / "s1.csv").write_text(text, encoding="utf-8")
    plan = tmp_path / "plan.yaml"
    plan.write_text(f"batches: {batches}\nfaac: {cfg_dir / 'mini_faac.yaml'}\n"
                    f"sources: {{s1: {source.replace('<cfg>', str(cfg_dir))}, s2: {cfg_dir / 'source_s2.yaml'}}}\n",
                    encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(tmp_path / named) in err and message in err, err
    assert not (tmp_path / "out").exists()


def test_a_single_source_may_be_named_integrated(cfg_dir, tmp_path, capsys):
    # with one source there is no merge, so nothing else writes integrated_derived.csv
    plan = tmp_path / "plan.yaml"
    plan.write_text(f"batches: 40\nfaac: {cfg_dir / 'mini_faac.yaml'}\n"
                    f"sources:\n  only: {cfg_dir / 'source_integrated.yaml'}\n", encoding="utf-8")
    artifacts = orchestrate(plan, tmp_path / "out", seed=5)
    assert artifacts["derived:only"] == tmp_path / "out" / "integrated_derived.csv"


def test_two_source_transfer_with_two_models_skips_the_significance_sheet(cfg_dir, tmp_path, capsys):
    # one transfer row per model and direction: two paired differences, too few for a test
    out = tmp_path / "run"
    for sid in ("s1", "s2"):
        synth = _one_source_plan(tmp_path / f"synth_{sid}.yaml", cfg_dir / "mini_faac.yaml", sid,
                                 cfg_dir / f"source_{sid}.yaml")
        assert main(["pipeline", "--config", str(synth), "--out", str(out)]) == 0
    evaluation = "evaluation: {models: [lr, rf], fixed_hyper: {rf: {n_trees: 5, max_depth: 4}}, transfer: true}\n"
    plan = _mini_plan(cfg_dir, tmp_path / "plan.yaml", PIPELINE.split("evaluation:")[0] + evaluation, flows=out)
    capsys.readouterr()
    rc = main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(out)])
    assert rc == 0
    report = (out / "report.csv").read_text(encoding="utf-8")
    assert "cross-dataset,lr,s1,s2" in report and "cross-dataset,rf,s2,s1" in report
    assert not (out / "significance.csv").exists()
    summary = capsys.readouterr().out
    assert "lr vs rf: not tested, 2 nonzero paired differences" in summary
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert "significance.csv" not in manifest["outputs"]


def test_exit_codes(cfg_dir, tmp_path):
    faac = cfg_dir / "mini_faac.yaml"
    assert main(["pipeline", "--out", str(tmp_path)]) == 2  # no config given
    missing = _one_source_plan(tmp_path / "missing.yaml", faac, "s1", cfg_dir / "source_s1.yaml",
                               flows=tmp_path / "missing.csv", batches=10)
    assert main(["pipeline", "--config", str(missing), "--out", str(tmp_path)]) == 3
    bad = tmp_path / "bad.yaml"
    bad.write_text("taxonomy: [Background\n", encoding="utf-8")
    plan = _one_source_plan(tmp_path / "plan.yaml", faac, "s1", bad)
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path)]) == 2
    empty = tmp_path / "empty_report.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["report", "--input", str(empty), "--out", str(tmp_path)]) == 4


def test_unknown_evaluation_keys_are_rejected(cfg_dir, tmp_path, capsys):
    # a removed setting fails before any source is synthesized
    pipeline = tmp_path / "pipeline.yaml"
    pipeline.write_text(
        f"batches: 40\nfaac: {cfg_dir / 'mini_faac.yaml'}\nsources:\n  s1: {cfg_dir / 'source_s1.yaml'}\n"
        "evaluation:\n  models: [lr]\n  n_candidates: 64\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="'n_candidates'"):
        orchestrate(pipeline, tmp_path / "out", seed=5)
    assert not (tmp_path / "out").exists()


def test_a_models_value_that_is_not_a_list_names_the_key(cfg_dir, tmp_path, capsys):
    # a string is not read one character at a time as the models 'l' and 'r'
    plan = tmp_path / "plan.yaml"
    plan.write_text(_plan_with(cfg_dir, "evaluation.models", "lr"), encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == 2
    assert "models must be a list, got 'lr'" in capsys.readouterr().err
    pipeline = tmp_path / "pipeline.yaml"
    pipeline.write_text(
        f"batches: 40\nfaac: {cfg_dir / 'mini_faac.yaml'}\nsources:\n  s1: {cfg_dir / 'source_s1.yaml'}\n"
        "evaluation:\n  models: rf\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="evaluation.models must be a list, got 'rf'"):
        orchestrate(pipeline, tmp_path / "out", seed=5)
    assert not (tmp_path / "out").exists()


def test_unknown_pipeline_keys_are_rejected(cfg_dir, tmp_path):
    pipeline = tmp_path / "pipeline.yaml"
    pipeline.write_text(
        f"batches: 40\nfaac: {cfg_dir / 'mini_faac.yaml'}\nsources:\n  s1: {cfg_dir / 'source_s1.yaml'}\n"
        "integrations: integration.yaml\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError, match="'integrations'"):
        orchestrate(pipeline, tmp_path / "out", seed=5)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, source, code, kind",
    [("bogus: 1\n", "source_s1.yaml", 2, "configuration error"), ("", "missing.yaml", 3, "data error")],
    ids=["unknown_pipeline_key", "missing_source_config"],
)
def test_pipeline_script_exits_with_the_cli_codes_without_a_traceback(cfg_dir, tmp_path, extra, source, code, kind):
    plan = tmp_path / "pipeline.yaml"
    plan.write_text(
        f"batches: 40\nfaac: {cfg_dir / 'mini_faac.yaml'}\nsources:\n  s1: {cfg_dir / source}\n{extra}",
        encoding="utf-8",
    )
    # a fresh interpreter does not see pytest's pythonpath; hand it the source tree
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "faacflow", "pipeline", "--config", str(plan), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"{kind}: ")
    assert ("'bogus'" if extra else "missing.yaml") in proc.stderr


def test_pipeline_subcommand_writes_the_manifest_orchestrate_writes(cfg_dir, tmp_path, capsys):
    out = tmp_path / "cmd"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(cfg_dir / "pipeline.yaml"), "--seed", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    artifacts = orchestrate(cfg_dir / "pipeline.yaml", tmp_path / "lib", seed=5)
    capsys.readouterr()
    listed = printed[printed.index(f"wrote {len(artifacts)} artifacts under {out}:") + 1 :]
    assert [line.split()[0] for line in listed] == sorted(artifacts)
    assert (out / "manifest.json").read_bytes() == artifacts["manifest"].read_bytes()
    assert main(["pipeline", "--out", str(tmp_path / "none")]) == 2
    assert "pipeline requires --config" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


def _plan_with(cfg_dir, key: str, value: str) -> str:
    """A small pipeline plan whose ``key`` (``evaluation.k`` for a key of the evaluation block) holds ``value``,
    or lacks it for the value ``<absent>``."""
    sources = ", ".join(f"{sid}: {cfg_dir / f'source_{sid}.yaml'}" for sid in ("s1", "s2", "s3"))
    top = {"seed": "5", "batches": "40", "faac": str(cfg_dir / "mini_faac.yaml"), "sources": f"{{{sources}}}"}
    evaluation = {"models": "[lr]", "k": "2", "repetitions": "1", "singles": "[integrated]"}
    block, _, name = key.rpartition(".")
    (evaluation if block else top)[name] = value.replace("<cfg>", str(cfg_dir))
    if value == "<absent>":
        del (evaluation if block else top)[name]
    top["evaluation"] = "{" + ", ".join(f"{k}: {v}" for k, v in evaluation.items()) + "}"
    return "".join(f"{k}: {v}\n" for k, v in top.items())


BAD_PLAN_VALUES = [
    ("batches", "lots", "must be an integer, got 'lots'"),
    ("seed", "seven", "must be an integer, got 'seven'"),
    ("evaluation.k", "five", "must be an integer, got 'five'"),
    ("evaluation.repetitions", "true", "must be an integer, got True"),
    ("evaluation.n_init", "2.5", "must be an integer, got 2.5"),
    ("evaluation.tune", "1", "must be true or false, got 1"),
    ("evaluation.tune_once", "'yes'", "must be true or false, got 'yes'"),
    ("evaluation.fixed_hyper", "[rf]", "must be a mapping, got ['rf']"),
    ("evaluation.transfer", "1", "must be true, false or holdout, got 1"),
    ("evaluation.transfer", "matrix", "must be true, false or holdout, got 'matrix'"),
    ("evaluation.n_iter", "'4'", "must be an integer, got '4'"),
    ("faac", "[a, b]", "must be a path, got ['a', 'b']"),
    ("faac", "7", "must be a path, got 7"),
    ("integration", "{shared_classes: [DoS]}", "must be a path, got {'shared_classes': ['DoS']}"),
    ("evaluation.k", "1", "must be at least 2, got 1"),
    ("evaluation.n_init", "0", "must be at least 1, got 0"),
    ("evaluation.n_iter", "-1", "must be at least 0, got -1"),
    ("evaluation.k", "0", "must be at least 2, got 0"),
    ("evaluation.n_init", "-2", "must be at least 1, got -2"),
    ("evaluation.repetitions", "0", "must be at least 1, got 0"),
]


@pytest.mark.parametrize("key, value, message", BAD_PLAN_VALUES, ids=[f"{k}-{v}" for k, v, _ in BAD_PLAN_VALUES])
def test_wrongly_typed_plan_values_exit_2_before_any_work(cfg_dir, tmp_path, capsys, key, value, message):
    plan = tmp_path / "plan.yaml"
    plan.write_text(_plan_with(cfg_dir, key, value), encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {plan}: {key} {message}")
    assert not (tmp_path / "out").exists()


BAD_PLAN_ENTRIES = [
    ("evaluation.fixed_hyper", "{lr: 5}", "evaluation.fixed_hyper.lr must be a mapping, got 5"),
    ("evaluation.fixed_hyper", "{lr: {lamda: 0.1}}", "evaluation.fixed_hyper.lr: unknown hyperparameter 'lamda'"),
    ("evaluation.singles", "[s9]", "evaluation.singles: unknown target 's9'"),
    ("sources", "{s1: {x: 1}, s2: s2.yaml}", "unknown sources.s1 key 'x'; expected one of config, flows"),
    ("sources", "{s1: null, s2: s2.yaml}", "sources.s1 must be a path, got None"),
    ("evaluation.repetiton", "3", "unknown evaluation key 'repetiton'"),
    ("evaluation.n_iter", "1000", "evaluation.n_init + n_iter must be at most the candidate set size 256"),
    ("batches", "10000000", "batches: batch size would be zero: 4000 records cannot fill 10000000 batches"),
    ("batches", "0", "batches: target batch count must be positive, got 0 (source 's1')"),
    ("sources", "{a: <cfg>/source_s1.yaml, b: <cfg>/source_s1.yaml}", "sources: a and b both name dataset 's1'"),
    ("evaluation.models", "[svm]", "evaluation.models: unknown model kind 'svm'; expected 'lr' or 'rf'"),
    ("sources", "{s1: <cfg>/source_s1.yaml, s2: <cfg>/source_integrated.yaml}",
     "sources: the merged sources and s2 both name dataset 'integrated'"),
    ("sources", "{}", "sources: a plan needs at least one source"),
    ("evaluation.models", "[lr, lr]", "evaluation.models lists an entry twice: ['lr', 'lr']"),
    ("evaluation.singles", "[integrated, integrated]",
     "evaluation.singles lists an entry twice: ['integrated', 'integrated']"),
    ("evaluation.models", "[]", "evaluation.models: an evaluation needs at least one model"),
    ("batches", "<absent>", "batches: a plan needs a target batch count"),
]


@pytest.mark.parametrize("key, value, message", BAD_PLAN_ENTRIES, ids=[v for _, v, _ in BAD_PLAN_ENTRIES])
def test_bad_plan_entries_exit_2_before_any_work(cfg_dir, tmp_path, capsys, key, value, message):
    plan = tmp_path / "plan.yaml"
    plan.write_text(_plan_with(cfg_dir, key, value), encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {plan}: {message}")
    assert not (tmp_path / "out").exists()


BAD_HYPERPARAMETERS = [
    ("lr", "lambda", "-0.1", "must be at least 0.0, got -0.1"),
    ("rf", "lambda", "-1", "must be at least 0.0, got -1"),
    ("rf", "n_trees", "-3", "must be at least 1, got -3"),
    ("rf", "max_depth", "0", "must be at least 1, got 0"),
    ("rf", "min_leaf", "0", "must be at least 1, got 0"),
    ("rf", "m_features", "-1", "must be at least 0, got -1"),
    ("rf", "n_trees", "2.5", "must be an integer, got 2.5"),
    ("lr", "lambda", "small", "must be a number, got 'small'"),
]


@pytest.mark.parametrize(
    "kind, name, value, message", BAD_HYPERPARAMETERS, ids=[f"{k}-{n}-{v}" for k, n, v, _ in BAD_HYPERPARAMETERS]
)
def test_hyperparameters_out_of_range_exit_2_before_any_work(cfg_dir, tmp_path, capsys, kind, name, value, message):
    plan = tmp_path / "plan.yaml"
    plan.write_text(_plan_with(cfg_dir, "evaluation.fixed_hyper", f"{{{kind}: {{{name}: {value}}}}}"),
                    encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {plan}: evaluation.fixed_hyper.{kind}.{name} {message}")
    assert not (tmp_path / "out").exists()


PLAN_SHAPE_FAULTS = [
    ("s1, s2", "{models: [lr], transfer: holdout}", "evaluation.transfer: holdout needs 3 or more sources"),
    ("s1", "{models: [lr], transfer: true}", "evaluation.transfer: true needs 2 or more sources"),
    ("s1, s2", "[a]", "expected a mapping of evaluation keys, got ['a']"),
    ("s1, s2", "0", "expected a mapping of evaluation keys, got 0"),
    ("s1, s2", "false", "expected a mapping of evaluation keys, got False"),
    ("s1, s2", "''", "expected a mapping of evaluation keys, got ''"),
    ("s1, s2", "[]", "expected a mapping of evaluation keys, got []"),
]


@pytest.mark.parametrize(
    "sources, evaluation, message", PLAN_SHAPE_FAULTS,
    ids=["holdout_with_two_sources", "transfer_with_one_source", "evaluation_not_a_mapping", "evaluation_zero",
         "evaluation_false", "evaluation_empty_text", "evaluation_empty_list"],
)
def test_plan_shape_faults_exit_2_before_any_work(cfg_dir, tmp_path, capsys, sources, evaluation, message):
    plan = tmp_path / "plan.yaml"
    named = ", ".join(f"{sid}: {cfg_dir / f'source_{sid}.yaml'}" for sid in sources.split(", "))
    faac = cfg_dir / "mini_faac.yaml"
    plan.write_text(f"batches: 40\nfaac: {faac}\nsources: {{{named}}}\nevaluation: {evaluation}\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {plan}: {message}")
    assert not (tmp_path / "out").exists()


NAMED_FILE_FAULTS = [
    ("integration", "shared_classes: [DoS]\nbogus: 1\n", 2, "unknown integration key 'bogus'"),
    ("faac", MINI_FAAC + "bogus: 1\n", 2, "unknown counter config key 'bogus'"),
    ("s3", "dataset: {id: s3}\n", 2, "missing or malformed key"),
    ("s3", SOURCE_TEMPLATE.split("profile:")[0].format(sid="s3", proto="p", port="q", size="r", bg="b", dos="d",
                                                        scan="s"), 2, "has no synthetic profile"),
    ("s3", None, 3, "named.yaml"),
    ("integration", None, 3, "named.yaml"),
]


@pytest.mark.parametrize(
    "key, text, code, message", NAMED_FILE_FAULTS,
    ids=["bad_integration", "bad_faac", "bad_source", "source_without_profile", "missing_source",
         "missing_integration"],
)
def test_named_configs_are_read_before_any_work(cfg_dir, tmp_path, capsys, key, text, code, message):
    # the faulty file is the counter config, the last source or the integration spec
    if text is not None:
        (tmp_path / "named.yaml").write_text(text, encoding="utf-8")
    files = {sid: cfg_dir / f"source_{sid}.yaml" for sid in ("s1", "s2", "s3")}
    files.update({"faac": cfg_dir / "mini_faac.yaml", "integration": None, key: "named.yaml"})
    plan = tmp_path / "plan.yaml"
    plan.write_text(
        f"batches: 40\nfaac: {files['faac']}\nsources: {{s1: {files['s1']}, s2: {files['s2']}, s3: {files['s3']}}}\n"
        + (f"integration: {files['integration']}\n" if files["integration"] else "")
        + "evaluation: {models: [lr], k: 2, repetitions: 1, singles: [integrated], transfer: holdout}\n",
        encoding="utf-8",
    )
    assert main(["pipeline", "--config", str(plan), "--seed", "5", "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err
    assert not (tmp_path / "out").exists()


def _mini_source(sid: str = "s3") -> dict:
    """The parsed form of a mini plan's source: s3 unless ``sid`` says otherwise."""
    return yaml.safe_load(SOURCE_TEMPLATE.format(sid=sid, proto="proto", port="port", size="bytes", bg="normal",
                                                 dos="ddos", scan="sweep", seed=303))


def _plan_ending_with(cfg_dir, tmp_path, source: Path, **named: Path) -> Path:
    """A mini plan whose last source is ``source``, so that s1's and s2's files would be written before it."""
    plan = tmp_path / "plan.yaml"
    files = {"faac": cfg_dir / "mini_faac.yaml", **named}
    plan.write_text(
        "".join(f"{key}: {path}\n" for key, path in files.items())
        + f"batches: 40\nsources: {{s1: {cfg_dir / 'source_s1.yaml'}, s2: {cfg_dir / 'source_s2.yaml'}, "
        f"s3: {source}}}\n",
        encoding="utf-8",
    )
    return plan


DROP = object()  # an edit value that deletes its key
SCAN_VARIANT = {"syn_scan": {"weight": 1.0, "distributions": {"port": {"kind": "uniform_int", "lo": 1, "hi": 1024}}}}
# each fault: the edits to the mini source (key path, new value) and what its message says
SOURCE_FAULTS = {
    "variant_that_nothing_serves": (
        [(("profile", "variants"), {"PortScanning": SCAN_VARIANT}),
         (("profile", "distributions", "PortScanning", "bytes"), DROP)],
        "no distribution for variable 'bytes' (class 'PortScanning', variant 'syn_scan')",
    ),
    "class_outside_the_taxonomy": ([(("profile", "proportions", "Exploits"), 0.0)],
                                   "profile class 'Exploits' not in taxonomy"),
    "text_in_a_numeric_choice": (
        [(("profile", "distributions", "DoS", "port"), {"kind": "choice", "values": {"http": 0.85, 443: 0.15}})],
        "variable 'port' (class 'DoS'): numeric value 'http' is not a finite number",
    ),
    "burst_without_background": ([(("profile", "proportions"), {"DoS": 0.6, "PortScanning": 0.4})],
                                 "burst profiles require a Background class"),
    "proportions_short_of_one": ([(("profile", "proportions", "Background"), 0.57)], "profile proportions sum to 0.9"),
    "int_range_without_an_integer": (
        [(("profile", "distributions", "PortScanning", "port"), {"kind": "uniform_int", "lo": 1, "hi": 1.5})],
        "[int(lo), int(hi)) must hold an int64, got [1.0, 1.5)",
    ),
    "int_range_beyond_int64": (
        [(("profile", "distributions", "DoS", "bytes"), {"kind": "uniform_int", "lo": 1e289, "hi": 1e290})],
        "[int(lo), int(hi)) must hold an int64",
    ),
    "float_range_that_overflows": (
        [(("profile", "distributions", "Background", "bytes"), {"kind": "uniform_float", "lo": -1e308, "hi": 1e308})],
        "uniform_float requires finite lo < hi and hi - lo",
    ),
    "infinite_attack_runs": ([(("profile", "burst", "attack_run_mean"), float("inf"))],
                             "burst run means must be finite and below 2**63, got (inf, 250.0)"),
    "infinite_background_runs": ([(("profile", "burst", "background_run_mean"), float("inf"))],
                                 "burst run means must be finite and below 2**63, got (150.0, inf)"),
    "negative_seed": ([(("profile", "seed"), -2)], "profile seed must be a non-negative integer, got -2"),
    "infinite_seed": ([(("profile", "seed"), float("inf"))], "profile.seed must be an integer, got inf"),
    "boolean_seed": ([(("profile", "seed"), True)], "profile.seed must be an integer, got True"),
    "fractional_total": ([(("profile", "total"), 4000.7)], "profile.total must be an integer, got 4000.7"),
    "boolean_total": ([(("profile", "total"), True)], "profile.total must be an integer, got True"),
    "renamed_column": ([(("columns", 2, "name"), "octets")],
                       "no distribution for variable 'octets' (class 'Background')"),
    "dataset_id_with_a_slash": ([(("dataset", "id"), "s/3")], "dataset id 's/3' cannot name a file"),
    "infinite_record_count_hint": ([(("record_count_hint",), float("inf"))],
                                   "record_count_hint must be an integer, got inf"),
    "negative_record_count_hint": ([(("record_count_hint",), -5)], "record_count_hint must be at least 1, got -5"),
    "zero_record_count_hint": ([(("record_count_hint",), 0)], "record_count_hint must be at least 1, got 0"),
    "boolean_record_count_hint": ([(("record_count_hint",), True)], "record_count_hint must be an integer, got True"),
    "variant_distributions_in_a_list": (
        [(("profile", "variants"), {"DoS": {"flood": {"distributions": ["port"]}}})],
        "profile.variants.DoS.flood.distributions must be a mapping, got ['port']",
    ),
}


@pytest.mark.parametrize("plan", ["last_of_three", "alone"])
@pytest.mark.parametrize("edits, message", SOURCE_FAULTS.values(), ids=SOURCE_FAULTS)
def test_source_profile_faults_exit_2_naming_the_source_before_any_output(cfg_dir, tmp_path, capsys, plan, edits,
                                                                          message):
    source = _mini_source()
    for (*parents, last), value in edits:
        node = source
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    path = tmp_path / "source_s3.yaml"
    path.write_text(yaml.safe_dump(source), encoding="utf-8")
    if plan == "alone":
        config = _one_source_plan(tmp_path / "plan.yaml", cfg_dir / "mini_faac.yaml", "s3", path)
    else:
        config = _plan_ending_with(cfg_dir, tmp_path, path)
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: ") and err.count(str(path)) == 1, err
    assert message in err
    assert not (tmp_path / "out").exists()


def test_a_counter_config_outside_a_source_taxonomy_exits_2_naming_both_before_any_output(cfg_dir, tmp_path, capsys):
    # s3 counts scans as DoS, and the counter configuration ranks PortScanning
    source = _mini_source()
    source.update(taxonomy=["Background", "DoS"], class_map={"normal": "Background", "ddos": "DoS", "sweep": "DoS"})
    source["profile"]["proportions"] = {"Background": 0.6, "DoS": 0.4}
    path = tmp_path / "source_s3.yaml"
    path.write_text(yaml.safe_dump(source), encoding="utf-8")
    faac = cfg_dir / "mini_faac.yaml"
    message = f"{faac}: class_priority entry 'PortScanning' is not an attack class under the taxonomy of {path}"
    recorded = _one_source_plan(tmp_path / "recorded.yaml", faac, "s3", path, flows=tmp_path / "s3_flows.csv")
    for plan in (_plan_ending_with(cfg_dir, tmp_path, path), recorded):
        assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("plan", ["last_of_three", "recorded_alone"])
def test_two_columns_that_alias_one_variable_exit_2_naming_both_configs_before_any_output(cfg_dir, tmp_path, capsys,
                                                                                          plan):
    # the counter configuration aliases port onto dst_port, which s3 also names
    source = _mini_source()
    source["columns"].append({"name": "dst_port", "kind": "numeric"})
    source["profile"]["distributions"]["default"] = {"dst_port": {"kind": "uniform_int", "lo": 1, "hi": 1024}}
    path = tmp_path / "source_s3.yaml"
    path.write_text(yaml.safe_dump(source), encoding="utf-8")
    faac = cfg_dir / "mini_faac.yaml"
    if plan == "recorded_alone":
        config = _one_source_plan(tmp_path / "plan.yaml", faac, "s3", path, flows=tmp_path / "s3_flows.csv")
    else:
        config = _plan_ending_with(cfg_dir, tmp_path, path)
    assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    message = f"{faac}: columns ['dst_port', 'port'] all alias variable 'dst_port' in {path}"
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("batches, code", [(0, 2), (100000, 3)], ids=["no_batches", "empty_batches"])
def test_a_recorded_source_with_a_declared_count_plans_its_batches_before_any_output(cfg_dir, tmp_path, batches,
                                                                                     code):
    source = _with_count(cfg_dir / "source_s1.yaml", tmp_path / "source_s1.yaml", 4000)
    plan = _one_source_plan(tmp_path / "plan.yaml", cfg_dir / "mini_faac.yaml", "s1", source,
                            flows=tmp_path / "s1_flows.csv", batches=batches)
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == code
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flows, batches, code, message",
    [("missing.csv", 40, 3, "missing.csv"),
     ("s1.csv", 0, 2, "batches: target batch count must be positive, got 0 (source 's1')")],
    ids=["missing_input", "no_batches"],
)
def test_a_recorded_source_rejects_its_input_and_batches_before_any_output(cfg_dir, tmp_path, capsys, flows, batches,
                                                                            code, message):
    # without a declared count the batches could only be planned once the whole file was read
    (tmp_path / "s1.csv").write_text(FLOWS, encoding="utf-8")
    plan = _one_source_plan(tmp_path / "plan.yaml", cfg_dir / "mini_faac.yaml", "s1", cfg_dir / "source_s1.yaml",
                            flows=tmp_path / flows, batches=batches)
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


LOADER_FAULTS = [
    ("faac", MINI_FAAC.replace("lo: 1024, hi: 65536", "lo: 1000, hi: 65536"),
     "variable 'dst_port': ranges of 'port_low' and 'port_high' overlap"),
    ("integration", "shared_classes: [DoS]\n", "shared_classes must include 'Background'"),
]


@pytest.mark.parametrize("key, text, message", LOADER_FAULTS, ids=["overlapping_ranges", "no_background"])
def test_counter_and_integration_faults_name_their_file_once(cfg_dir, tmp_path, capsys, key, text, message):
    named = tmp_path / "named.yaml"
    named.write_text(text, encoding="utf-8")
    plan = _plan_ending_with(cfg_dir, tmp_path, cfg_dir / "source_s3.yaml", **{key: named})
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {named}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("models", [["lr"], ["lr", "rf"]], ids=["one_model", "two_models"])
def test_holdout_pipeline_writes_the_report_of_the_study_run_directly(cfg_dir, tmp_path, capsys, models):
    plan = cfg_dir / f"holdout_{len(models)}.yaml"
    plan.write_text(HOLDOUT_PIPELINE.format(models=f"[{', '.join(models)}]"), encoding="utf-8")
    capsys.readouterr()
    artifacts = orchestrate(plan, tmp_path / "pipe", seed=5)
    printed = capsys.readouterr().out.splitlines()

    derived = {sid: read_derived(artifacts[f"derived:{sid}"]) for sid in ("s1", "s2", "s3")}
    rf = {"n_trees": 5, "max_depth": 4}
    settings = EvalSettings(k=2, repetitions=1, models=tuple(models), fixed_hyper={"rf": rf})
    report = run_single_dataset(read_derived(artifacts["derived:integrated"]), settings, seed=5, name="integrated")
    study = run_holdout_study(derived, settings, seed=5)
    report.extend(study)
    buf = io.StringIO()
    write_report_csv(report, buf)
    assert artifacts["eval:report.csv"].read_bytes() == buf.getvalue().encode("utf-8")

    held_out = [line for line in printed if line.startswith("    held-out ")]
    assert len(held_out) == 3 * len(models)
    for held in derived:
        for model in models:
            pair, *alone = [r for r in study.rows if r.test_origin == held and r.model == model]
            assert pair.train_origin == "+".join(sid for sid in derived if sid != held)
            tag = f" ({model})" if len(models) > 1 else ""
            best = max(r.weighted_auc for r in alone)
            assert f"    held-out {held}{tag}: pair {pair.weighted_auc:.4f} vs best single {best:.4f}" in held_out


def test_options_before_the_command_are_rejected_not_dropped(cfg_dir, tmp_path, capsys):
    # a subparser's default None would replace a --config or --out given before the command
    for argv in (["--config", str(cfg_dir / "pipeline.yaml"), "pipeline"], ["--out", str(tmp_path / "out"), "pipeline"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("faacflow: error: ")
    assert not (tmp_path / "out").exists()


def test_each_command_takes_only_the_options_it_reads(cfg_dir, tmp_path, capsys):
    plan = tmp_path / "plan.yaml"
    plan.write_text(_plan_with(cfg_dir, "seed", "5"), encoding="utf-8")
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "run")]) == 0
    report = tmp_path / "run" / "report.csv"
    # report reads no plan and draws nothing; pipeline reads no report
    for argv in (["report", "--config", str(plan), "--input", str(report)],
                 ["report", "--seed", "3", "--input", str(report)],
                 ["pipeline", "--config", str(plan), "--input", str(report)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("faacflow: error: unrecognized arguments: ")
    assert not (tmp_path / "out").exists()
    assert main(["report", "--input", str(report), "--out", str(tmp_path / "summary")]) == 0
    assert json.loads((tmp_path / "summary" / "manifest.json").read_text(encoding="utf-8"))["seed"] is None


def test_thread_counts_other_than_one_are_rejected(cfg_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ConfigError, match="threads"):
        orchestrate(cfg_dir / "pipeline.yaml", out, seed=5, threads=2)
    assert list(out.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_declared_count_mismatch_is_a_data_error(cfg_dir, tmp_path):
    out = tmp_path / "d"
    faac = cfg_dir / "mini_faac.yaml"
    synth = _one_source_plan(tmp_path / "synth.yaml", faac, "s1", cfg_dir / "source_s1.yaml", seed=1)
    assert main(["pipeline", "--config", str(synth), "--out", str(out)]) == 0
    source = _with_count(cfg_dir / "source_s1.yaml", tmp_path / "source_s1.yaml", 999999)
    plan = _one_source_plan(tmp_path / "plan.yaml", faac, "s1", source, flows=out / "s1_flows.csv")
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "counted")]) == 3
    assert not (tmp_path / "counted").exists()


def test_manifest_digests_are_reproducible(cfg_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    plan = _one_source_plan(tmp_path / "plan.yaml", cfg_dir / "mini_faac.yaml", "s1", cfg_dir / "source_s1.yaml")
    for out in (out_a, out_b):
        assert main(["pipeline", "--config", str(plan), "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "pipeline" and manifest["seed"] == 9
    source = cfg_dir / "source_s1.yaml"
    assert manifest["configs"][os.path.relpath(source, tmp_path)] == sha256(source)
    entry = manifest["outputs"]["s1_flows.csv"]
    assert entry["sha256"] == sha256(out_a / "s1_flows.csv")
    assert entry["bytes"] == (out_a / "s1_flows.csv").stat().st_size
    # same seed, different directory: byte-identical outputs and manifest
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    out_c = tmp_path / "c"
    assert main(["pipeline", "--config", str(plan), "--seed", "10", "--out", str(out_c)]) == 0
    changed = json.loads((out_c / "manifest.json").read_text(encoding="utf-8"))
    assert changed["outputs"]["s1_flows.csv"]["sha256"] != entry["sha256"]


def test_orchestrate_produces_models_and_reports(cfg_dir, tmp_path, capsys):
    out = tmp_path / "pipe"
    artifacts = orchestrate(cfg_dir / "pipeline.yaml", out, seed=5)
    for key in ("flows:s1", "derived:s1", "derived:s2", "derived:integrated",
                "distribution:integrated", "eval:report.csv", "model:lr", "manifest"):
        assert key in artifacts, key
        assert artifacts[key].exists(), key
    capsys.readouterr()

    model = load_model(artifacts["model:lr"])
    assert model.kind == "lr"
    assert model.provenance.get("dataset") == "integrated"
    merged = read_derived(artifacts["derived:integrated"])
    proba = model.predict_proba(merged.X)
    assert proba.shape == (merged.n_rows, len(merged.classes))
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    # the exported model should separate the training classes comfortably
    acc = float((proba.argmax(axis=1) == merged.y).mean())
    assert acc > 0.9

    manifest = json.loads(artifacts["manifest"].read_text(encoding="utf-8"))
    assert manifest["command"] == "pipeline"
    assert "model_lr.json" in manifest["outputs"]


def test_tuned_pipeline_runs_are_byte_identical(cfg_dir, tmp_path, capsys):
    plan = tmp_path / "tuned.yaml"
    plan.write_text(
        f"seed: 5\nbatches: 40\nfaac: {cfg_dir / 'mini_faac.yaml'}\n"
        f"sources:\n  s1: {cfg_dir / 'source_s1.yaml'}\n  s2: {cfg_dir / 'source_s2.yaml'}\n"
        "evaluation:\n  models: [lr]\n  k: 2\n  repetitions: 1\n  tune: true\n"
        "  tune_once: false\n  n_init: 2\n  n_iter: 2\n  singles: [integrated]\n",
        encoding="utf-8",
    )
    runs = [orchestrate(plan, tmp_path / name, seed=5) for name in ("a", "b")]
    capsys.readouterr()
    trial_logs = sorted(k for k in runs[0] if k.startswith("eval:trials_"))
    assert len(trial_logs) == 2  # one search per fold
    for key in trial_logs + ["manifest"]:
        assert runs[0][key].read_bytes() == runs[1][key].read_bytes(), key


@pytest.mark.parametrize("name", ["nslkdd_like", "unsw_like", "ugr16_like"])
def test_benchmark_shaped_sources_derive_under_their_own_taxonomy(config_dir, tmp_path, capsys, name):
    text = (config_dir / f"{name}.yaml").read_text(encoding="utf-8")
    total = load_source_config(config_dir / f"{name}.yaml").profile.total
    assert text.count(f" {total}\n") == 2  # the profile total and the record count hint
    source = tmp_path / f"{name}.yaml"
    source.write_text(text.replace(f" {total}\n", " 3000\n"), encoding="utf-8")
    schema = load_source_config(source)
    faac = config_dir / "faac_reference.yaml"
    synth = _one_source_plan(tmp_path / "synth.yaml", faac, schema.dataset_id, source, batches=200)
    assert main(["pipeline", "--config", str(synth), "--out", str(tmp_path)]) == 0
    flows = tmp_path / f"{schema.dataset_id}_flows.csv"
    _, *rows = read_csv(flows)
    # flows of classes the counter configuration's taxonomy lacks
    assert {row[-1] for row in rows} - set(load_faac_config(faac).taxonomy.classes)
    plan = _one_source_plan(tmp_path / "plan.yaml", faac, schema.dataset_id, source, flows=flows, batches=200)
    assert main(["pipeline", "--config", str(plan), "--out", str(tmp_path / "derived")]) == 0
    dataset = read_derived(tmp_path / "derived" / f"{schema.dataset_id}_derived.csv")
    assert set(dataset.classes) <= set(schema.taxonomy.classes)
    assert dataset.n_rows >= 200


# any value a YAML plan can hold: a small int (a valid repetitions or k stays cheap), a float,
# bool, null or short text, or a small list or map of those
SCALARS = st.integers(-2, 4) | st.none() | st.booleans() | st.floats() | st.text(max_size=6)
YAML_VALUES = st.one_of(
    st.integers(-2, 4), SCALARS,
    st.lists(SCALARS, max_size=3) | st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
)


def _leaves(node, path=()):
    """The key paths of every scalar in a plan."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else None
    if items is None:
        return [path]
    return [leaf for k, v in items for leaf in _leaves(v, (*path, k))]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_plan_with_any_one_leaf_replaced_never_crashes(cfg_dir, tmp_path, data):
    plan = yaml.safe_load(PIPELINE)
    plan["faac"] = str(cfg_dir / plan["faac"])
    plan["sources"] = {sid: str(cfg_dir / path) for sid, path in plan["sources"].items()}
    plan["integration"] = str(tmp_path / "integration.yaml")
    (tmp_path / "integration.yaml").write_text("shared_classes: [Background, DoS, PortScanning]\n", encoding="utf-8")
    *parents, last = data.draw(st.sampled_from(_leaves(plan)), label="leaf")
    node = plan
    for k in parents:
        node = node[k]
    node[last] = data.draw(YAML_VALUES, label="value")
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    (run / "plan.yaml").write_text(yaml.safe_dump(plan), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main(["pipeline", "--config", str(run / "plan.yaml"), "--out", str(run / "out")])
    event(f"exit {rc}")
    # 3 and 4 stay open to faults only the data shows, such as k above a class's row count
    assert rc in (0, 2, 3, 4), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if rc == 2:
        assert not (run / "out").exists(), stderr.getvalue()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_source_with_any_one_leaf_replaced_never_crashes(cfg_dir, tmp_path, data):
    source = _mini_source("s1")
    *parents, last = data.draw(st.sampled_from(_leaves(source)), label="leaf")
    node = source
    for k in parents:
        node = node[k]
    # any positive total fills one batch, and the plan generates that many flows
    node[last] = data.draw(st.integers(-2, 4) if last == "total" else YAML_VALUES, label="value")
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    (run / "source.yaml").write_text(yaml.safe_dump(source), encoding="utf-8")
    plan = _one_source_plan(run / "plan.yaml", cfg_dir / "mini_faac.yaml", "s1", run / "source.yaml", batches=1)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main(["pipeline", "--config", str(plan), "--out", str(run / "out")])
    event(f"exit {rc}")
    assert rc in (0, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if rc == 2:
        assert not (run / "out").exists(), stderr.getvalue()
