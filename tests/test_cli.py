"""End-to-end command line checks on a miniature two-source corpus."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faacflow.cli import main, orchestrate
from faacflow.errors import ConfigError
from faacflow.faac import read_derived
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
    (d / "pipeline.yaml").write_text(PIPELINE, encoding="utf-8")
    return d


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_module_help_runs():
    # a fresh interpreter does not see pytest's pythonpath; hand it the source tree
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "faacflow", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "evaluate" in proc.stdout


def test_subcommand_round_trip(cfg_dir, tmp_path, capsys):
    out = tmp_path / "run"
    for sid in ("s1", "s2"):
        rc = main(["synth", "--config", str(cfg_dir / f"source_{sid}.yaml"),
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        assert (out / f"{sid}_flows.csv").exists()
        rc = main(["derive", "--config", str(cfg_dir / "mini_faac.yaml"),
                   "--source", str(cfg_dir / f"source_{sid}.yaml"),
                   "--input", str(out / f"{sid}_flows.csv"),
                   "--batches", "40", "--out", str(out)])
        assert rc == 0
        ds = read_derived(out / f"{sid}_derived.csv")
        assert ds.n_rows == 40 and ds.n_features == 7
        assert int(ds.batch_sizes[0]) == 100

    rc = main(["integrate", "--out", str(out),
               str(out / "s1_derived.csv"), str(out / "s2_derived.csv")])
    assert rc == 0
    merged = read_derived(out / "integrated_derived.csv")
    assert merged.n_rows == 80
    assert set(merged.origins) == {"s1", "s2"}

    eval_cfg = out / "eval.yaml"
    eval_cfg.write_text(
        "models: [lr]\nk: 2\nrepetitions: 2\n"
        "single:\n  - {path: integrated_derived.csv, name: integrated}\n"
        "transfer:\n  s1: s1_derived.csv\n  s2: s2_derived.csv\n",
        encoding="utf-8",
    )
    rc = main(["evaluate", "--config", str(eval_cfg), "--seed", "5", "--out", str(out)])
    assert rc == 0
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


def test_subcommands_write_the_bytes_orchestrate_writes(cfg_dir, tmp_path, capsys):
    sub = tmp_path / "sub"
    for sid in ("s1", "s2"):
        assert main(["synth", "--config", str(cfg_dir / f"source_{sid}.yaml"),
                     "--seed", "5", "--out", str(sub)]) == 0
        assert main(["derive", "--config", str(cfg_dir / "mini_faac.yaml"),
                     "--source", str(cfg_dir / f"source_{sid}.yaml"),
                     "--input", str(sub / f"{sid}_flows.csv"),
                     "--batches", "40", "--out", str(sub)]) == 0
    assert main(["integrate", "--out", str(sub),
                 str(sub / "s1_derived.csv"), str(sub / "s2_derived.csv")]) == 0
    # the same plan as PIPELINE's evaluation block
    (sub / "eval.yaml").write_text(
        "models: [lr]\nk: 2\nrepetitions: 2\n"
        "single:\n  - {path: integrated_derived.csv, name: integrated}\n"
        "transfer:\n  s1: s1_derived.csv\n  s2: s2_derived.csv\n",
        encoding="utf-8",
    )
    assert main(["evaluate", "--config", str(sub / "eval.yaml"), "--seed", "5", "--out", str(sub)]) == 0

    pipe = tmp_path / "pipe"
    orchestrate(cfg_dir / "pipeline.yaml", pipe, seed=5)
    capsys.readouterr()
    names = [f"{stem}_{kind}.csv" for stem in ("s1", "s2") for kind in ("flows", "derived", "distribution")]
    names += ["integrated_derived.csv", "integrated_distribution.csv", "report.csv"]
    for name in names:
        assert (sub / name).read_bytes() == (pipe / name).read_bytes(), name


def test_two_source_transfer_with_two_models_skips_the_significance_sheet(cfg_dir, tmp_path, capsys):
    # one transfer row per model and direction: two paired differences, too few for a test
    out = tmp_path / "run"
    for sid in ("s1", "s2"):
        assert main(["synth", "--config", str(cfg_dir / f"source_{sid}.yaml"),
                     "--seed", "5", "--out", str(out)]) == 0
        assert main(["derive", "--config", str(cfg_dir / "mini_faac.yaml"),
                     "--source", str(cfg_dir / f"source_{sid}.yaml"),
                     "--input", str(out / f"{sid}_flows.csv"),
                     "--batches", "40", "--out", str(out)]) == 0
    eval_cfg = out / "eval.yaml"
    eval_cfg.write_text(
        "models: [lr, rf]\n"
        "fixed_hyper:\n  rf: {n_trees: 5, max_depth: 4}\n"
        "transfer:\n  s1: s1_derived.csv\n  s2: s2_derived.csv\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    rc = main(["evaluate", "--config", str(eval_cfg), "--seed", "5", "--out", str(out)])
    assert rc == 0
    report = (out / "report.csv").read_text(encoding="utf-8")
    assert "cross-dataset,lr,s1,s2" in report and "cross-dataset,rf,s2,s1" in report
    assert not (out / "significance.csv").exists()
    summary = capsys.readouterr().out
    assert "lr vs rf: not tested, 2 nonzero paired differences" in summary
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert "significance.csv" not in manifest["outputs"]


def test_exit_codes(cfg_dir, tmp_path):
    assert main(["synth", "--out", str(tmp_path)]) == 2  # no config given
    assert main(["derive", "--config", str(cfg_dir / "mini_faac.yaml"),
                 "--source", str(cfg_dir / "source_s1.yaml"),
                 "--input", str(tmp_path / "missing.csv"),
                 "--batches", "10", "--out", str(tmp_path)]) == 3
    bad = tmp_path / "bad.yaml"
    bad.write_text("taxonomy: [Background\n", encoding="utf-8")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2
    empty = tmp_path / "empty_report.csv"
    empty.write_text("", encoding="utf-8")
    assert main(["report", "--input", str(empty), "--out", str(tmp_path)]) == 4


def test_unknown_evaluation_keys_are_rejected(cfg_dir, tmp_path, capsys):
    plan = tmp_path / "typo.yaml"
    plan.write_text("repetiton: 3\nsingle: [missing.csv]\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(plan), "--out", str(tmp_path)]) == 2
    assert "'repetiton'" in capsys.readouterr().err
    # a removed setting fails too, before any source is synthesized
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
    plan.write_text("models: lr\nsingle: [missing.csv]\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(plan), "--out", str(tmp_path)]) == 2
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


def test_thread_counts_other_than_one_are_rejected(cfg_dir, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ConfigError, match="threads"):
        orchestrate(cfg_dir / "pipeline.yaml", out, seed=5, threads=2)
    assert list(out.iterdir()) == []
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_declared_count_mismatch_is_a_data_error(cfg_dir, tmp_path):
    out = tmp_path / "d"
    assert main(["synth", "--config", str(cfg_dir / "source_s1.yaml"),
                 "--seed", "1", "--out", str(out)]) == 0
    rc = main(["derive", "--config", str(cfg_dir / "mini_faac.yaml"),
               "--source", str(cfg_dir / "source_s1.yaml"),
               "--input", str(out / "s1_flows.csv"),
               "--batches", "40", "--count", "999999", "--out", str(out)])
    assert rc == 3


def test_manifest_digests_are_reproducible(cfg_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["synth", "--config", str(cfg_dir / "source_s1.yaml"),
                     "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "synth" and manifest["seed"] == 9
    assert manifest["configs"]["source_s1.yaml"] == sha256(cfg_dir / "source_s1.yaml")
    entry = manifest["outputs"]["s1_flows.csv"]
    assert entry["sha256"] == sha256(out_a / "s1_flows.csv")
    assert entry["bytes"] == (out_a / "s1_flows.csv").stat().st_size
    # same seed, different directory: byte-identical outputs and manifest
    assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    out_c = tmp_path / "c"
    assert main(["synth", "--config", str(cfg_dir / "source_s1.yaml"),
                 "--seed", "10", "--out", str(out_c)]) == 0
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
