"""Command line interface and end-to-end pipeline driver.

Subcommands: ``synth`` (generate flows), ``derive`` (flows to counters),
``integrate`` (merge derived sets), ``evaluate`` (cross-validation and
transfer), ``report`` (summarize an evaluation CSV). Exit codes: 0 success,
2 configuration problem, 3 data problem, 4 evaluation problem.

Every command that writes files also writes ``manifest.json`` holding the
sha256 digest and byte size of each output (never a timestamp), so two runs
with identical inputs and seed produce identical manifests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import re
import sys
from collections import Counter
from dataclasses import replace
from itertools import chain
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import ConfigError, DataError, EvaluationError, FaacflowError
from .evaluation import (
    MIN_SIGNED_RANK_PAIRS,
    Comparison,
    EvalReport,
    EvalSettings,
    aggregate_report,
    compare_models,
    read_report_csv,
    run_single_dataset,
    run_transfer_matrix,
    write_report_csv,
    write_significance_csv,
)
from .faac import derive_dataset, load_faac_config, read_derived, write_derived
from .files import as_list, as_mapping, check_keys, read_yaml_mapping, write_csv
from .hyperopt import write_trial_log
from .ingest import SourceSchema, generate_chunks, load_source_config, parse_chunks, write_flows
# cli no longer calls the record-stream forms; perfbench's traced pass still wraps them here
from .ingest import generate_synthetic, parse_flows  # noqa: F401
from .integrate import IntegrationSpec, distribution_report, integrate, load_integration_spec
from .learning import fit_pipeline, resolve_hyperparams, save_model
from .seeds import derive_seed

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EVAL = 4


def _configure_logging() -> None:
    level_name = os.environ.get("FAACFLOW_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    outputs: list[Path],
    configs: list[Path],
    seed: int | None,
    inputs: list[Path] | None = None,
) -> Path:
    doc = {
        "command": command,
        "package_version": __version__,
        "seed": seed,
        "configs": {p.name: _sha256(p) for p in configs},
        "inputs": {p.name: _sha256(p) for p in (inputs or [])},
        "outputs": {
            p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size} for p in sorted(outputs)
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _reading_schema(schema: SourceSchema) -> SourceSchema:
    """Accept canonical class names on input alongside the raw mapping."""
    merged = dict(schema.class_map)
    for name in schema.taxonomy.classes:
        merged.setdefault(name, name)
    return replace(schema, class_map=merged)


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


def _load_plan(path: Path) -> tuple[dict, Callable[[object], Path]]:
    """The top-level mapping of a YAML plan and a resolver for paths relative to it."""
    doc = read_yaml_mapping(path)

    def resolve(p: object) -> Path:
        target = Path(str(p))
        return target if target.is_absolute() else path.parent / target

    return doc, resolve


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigError("synth requires --config pointing at a source description")
    schema = load_source_config(args.config)
    if schema.profile is None:
        raise ConfigError(f"{args.config}: source has no synthetic profile")
    profile = schema.profile
    if args.seed is not None:
        profile = replace(profile, seed=derive_seed(args.seed, "synth", schema.dataset_id))
    out = _out_dir(args)
    path = out / f"{schema.dataset_id}_flows.csv"
    chunks = list(generate_chunks(profile, schema))
    n = write_flows(chunks, schema, path)
    counts = Counter(chain.from_iterable(chunk.labels for chunk in chunks))
    _write_manifest(out, "synth", [path], [Path(args.config)], args.seed)
    print(f"wrote {n} flows to {path}")
    for name in sorted(counts):
        print(f"  {name}: {counts[name]} ({counts[name] / n:.4%})")
    return EXIT_OK


def cmd_derive(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigError("derive requires --config pointing at a counter configuration")
    config = load_faac_config(args.config)
    schema = load_source_config(args.source)
    out = _out_dir(args)
    n_records = args.count if args.count is not None else schema.record_count_hint
    chunks = parse_chunks(args.input, _reading_schema(schema))
    dataset = derive_dataset(chunks, args.batches, config, n_records=n_records)
    path, dist_path = _write_dataset(dataset, out, schema.dataset_id)
    _write_manifest(
        out,
        "derive",
        [path, dist_path],
        [Path(args.config), Path(args.source)],
        args.seed,
        inputs=[Path(args.input)],
    )
    print(
        f"wrote {dataset.n_rows} rows x {dataset.n_features} features to {path} "
        f"(batch size {int(dataset.batch_sizes[0]) if dataset.n_rows else 0})"
    )
    for name, c in sorted(dataset.class_counts().items()):
        print(f"  {name}: {c}")
    return EXIT_OK


def _write_dataset(dataset, out: Path, stem: str) -> tuple[Path, Path]:
    """Write ``<stem>_derived.csv`` and the class sheet ``<stem>_distribution.csv``."""
    path = out / f"{stem}_derived.csv"
    write_derived(dataset, path)
    dist_path = out / f"{stem}_distribution.csv"
    rows = ([r["origin"], r["class"], r["rows"], "%.9g" % r["fraction"]] for r in distribution_report(dataset))
    write_csv(dist_path, ["origin", "class", "rows", "fraction"], rows)
    return path, dist_path


def cmd_integrate(args: argparse.Namespace) -> int:
    if len(args.inputs) < 2:
        raise ConfigError("integrate needs at least two derived files")
    spec = load_integration_spec(args.config) if args.config else IntegrationSpec()
    datasets = [read_derived(p) for p in args.inputs]
    merged = integrate(datasets, spec)
    out = _out_dir(args)
    path, dist_path = _write_dataset(merged, out, "integrated")
    configs = [Path(args.config)] if args.config else []
    _write_manifest(
        out, "integrate", [path, dist_path], configs, args.seed, inputs=[Path(p) for p in args.inputs]
    )
    print(f"wrote {merged.n_rows} rows over classes {list(merged.classes)} to {path}")
    for row in distribution_report(merged):
        print(
            f"  {row['origin']} {row['class']}: {row['rows']} rows ({row['fraction']:.4%})"
        )
    return EXIT_OK


_SETTINGS_KEYS = ("models", "k", "repetitions", "tune", "tune_once", "n_init", "n_iter", "fixed_hyper")


def _settings_from_doc(doc: dict, input_keys: tuple[str, ...], where: object, prefix: str = "") -> EvalSettings:
    """Evaluation settings from a plan whose other keys must be among ``input_keys``.

    ``where`` and ``prefix`` name the file and the block in type errors.
    """
    check_keys(doc, _SETTINGS_KEYS + input_keys, "evaluation key")
    fields = {k: doc[k] for k in _SETTINGS_KEYS if k in doc}
    if "models" in fields:
        fields["models"] = tuple(str(m) for m in as_list(fields["models"], prefix + "models", where))
        for m in fields["models"]:
            if m not in ("lr", "rf"):
                raise ConfigError(f"unknown model {m!r}; expected 'lr' or 'rf'")
    try:
        return EvalSettings(**fields)
    except TypeError as exc:
        raise ConfigError(f"malformed evaluation settings: {exc}") from exc


def _write_significance(report: EvalReport, out: Path, outputs: list[Path]) -> Comparison:
    """Model comparisons; the tested rows go to significance.csv when there are any."""
    rows, skipped = compare_models(report)
    if rows:
        sig_path = out / "significance.csv"
        write_significance_csv(rows, sig_path)
        outputs.append(sig_path)
    return rows, skipped


def _write_eval_outputs(report: EvalReport, out: Path) -> tuple[list[Path], Comparison]:
    """Report, significance and trial-log files; returns their paths and the model comparisons."""
    outputs = []
    report_path = out / "report.csv"
    write_report_csv(report, report_path)
    outputs.append(report_path)
    sig = _write_significance(report, out, outputs)
    for run in report.trial_runs:
        name = f"trials_{_slug(run.label)}_{run.model}_r{run.repetition}_f{run.fold}.csv"
        path = out / name
        write_trial_log(run.trials, path)
        outputs.append(path)
    return outputs, sig


def _print_eval_summary(report: EvalReport, sig: Comparison) -> None:
    for row in aggregate_report(report):
        print(
            f"{row['setting']} {row['model']} {row['train_origin']}->{row['test_origin']}: "
            f"weighted AUC {row['mean_weighted_auc']:.4f} +/- {row['std_weighted_auc']:.4f} "
            f"over {row['n_folds']} folds"
        )
    rows, skipped = sig
    for row in rows:
        verdict = "significant" if row["significant_at_0.05"] else "not significant"
        print(
            f"{row['model_a']} vs {row['model_b']}: n={row['n']} W={row['W']} "
            f"p={row['p_two_sided']:.4g} ({verdict} at 0.05)"
        )
    for a, b, nonzero in skipped:
        print(
            f"{a} vs {b}: not tested, {nonzero} nonzero paired differences "
            f"(a two-sided test needs at least {MIN_SIGNED_RANK_PAIRS})"
        )


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigError("evaluate requires --config pointing at an evaluation plan")
    cfg_path = Path(args.config)
    doc, resolve = _load_plan(cfg_path)
    settings = _settings_from_doc(doc, ("single", "transfer", "seed"), cfg_path)
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    report = EvalReport()
    data_paths: list[Path] = []
    for entry in as_list(doc.get("single") or [], "single", cfg_path):
        if isinstance(entry, str):
            entry = {"path": entry}
        path = resolve(entry["path"])
        data_paths.append(path)
        ds = read_derived(path)
        name = str(entry["name"]) if "name" in entry else None
        report.extend(run_single_dataset(ds, settings, seed=seed, name=name))
    transfer = as_mapping(doc.get("transfer") or {}, "transfer", cfg_path)
    if transfer:
        datasets = {}
        for name, p in transfer.items():
            path = resolve(p)
            data_paths.append(path)
            datasets[str(name)] = read_derived(path)
        report.extend(run_transfer_matrix(datasets, settings, seed=seed))
    if not report.rows:
        raise ConfigError(f"{cfg_path}: no 'single' or 'transfer' inputs given")

    out = _out_dir(args)
    outputs, sig = _write_eval_outputs(report, out)
    _write_manifest(out, "evaluate", outputs, [cfg_path], seed, inputs=data_paths)
    _print_eval_summary(report, sig)
    return EXIT_OK


def _write_plot_data(report: EvalReport, out: Path) -> list[Path]:
    """Plot-ready CSVs: one per-fold AUC sample sheet, one class-count sheet."""
    auc_path = out / "plot_auc_distribution.csv"
    write_csv(
        auc_path,
        ["setting", "model", "train_origin", "test_origin", "repetition", "fold", "weighted_auc"],
        (
            [r.setting, r.model, r.train_origin, r.test_origin, r.repetition, r.fold, "%.9g" % r.weighted_auc]
            for r in report.rows
        ),
    )

    # test folds are shared across models, so count each fold cell once
    seen: set[tuple] = set()
    totals: dict[tuple[str, str, str], dict[str, int]] = {}
    for r in report.rows:
        cell = (r.setting, r.train_origin, r.test_origin, r.repetition, r.fold)
        if cell in seen:
            continue
        seen.add(cell)
        group = totals.setdefault((r.setting, r.train_origin, r.test_origin), {})
        for cname, q in r.class_counts:
            group[cname] = group.get(cname, 0) + q
    cls_path = out / "plot_class_distribution.csv"
    write_csv(
        cls_path,
        ["setting", "train_origin", "test_origin", "class", "rows", "fraction"],
        (
            [*key, cname, group[cname], "%.9g" % (group[cname] / sum(group.values()))]
            for key, group in sorted(totals.items())
            for cname in sorted(group)
        ),
    )
    return [auc_path, cls_path]


def cmd_report(args: argparse.Namespace) -> int:
    report = read_report_csv(args.input)
    out = _out_dir(args)
    agg_path = out / "aggregate.csv"
    keys = ("setting", "model", "train_origin", "test_origin", "n_folds")
    aucs = ("mean_weighted_auc", "std_weighted_auc")
    rows = (
        [*(row[k] for k in keys), *("%.9g" % float(row[k]) for k in aucs)]
        for row in aggregate_report(report)
    )
    write_csv(agg_path, [*keys, *aucs], rows)
    outputs = [agg_path]
    outputs.extend(_write_plot_data(report, out))
    sig = _write_significance(report, out, outputs)
    _write_manifest(out, "report", outputs, [], args.seed, inputs=[Path(args.input)])
    _print_eval_summary(report, sig)
    return EXIT_OK


# ---------------------------------------------------------------------------
# One-config pipeline


_PIPELINE_KEYS = ("seed", "batches", "faac", "sources", "integration", "evaluation")


def orchestrate(
    config_path: str | Path,
    out_dir: str | Path,
    seed: int | None = None,
    threads: int = 1,
) -> dict[str, Path]:
    """Run synth, derive, integrate, and evaluate from a single pipeline config.

    Returns the paths of everything written. Paths inside the config
    resolve relative to the config file.
    """
    # forests grow serially; the keyword stays only for callers that pass threads=1
    if threads != 1:
        raise ConfigError(f"threads must be 1 (forests are grown serially), got {threads}")
    config_path = Path(config_path)
    doc, resolve = _load_plan(config_path)
    check_keys(doc, _PIPELINE_KEYS, "pipeline key", config_path)
    if "faac" not in doc or "sources" not in doc:
        raise ConfigError(f"{config_path}: pipeline needs 'faac' and 'sources' keys")
    if seed is None:
        seed = int(doc.get("seed", 0))
    batches = int(doc.get("batches", 0))
    if batches < 1:
        raise ConfigError(f"{config_path}: 'batches' must be a positive target batch count")
    eval_doc = doc.get("evaluation")
    settings = (
        _settings_from_doc(eval_doc, ("singles", "transfer"), config_path, "evaluation.") if eval_doc else None
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    faac_config = load_faac_config(resolve(doc["faac"]))
    artifacts: dict[str, Path] = {}
    config_files = [config_path, resolve(doc["faac"])]

    derived: dict[str, "object"] = {}
    for name, src in as_mapping(doc["sources"], "sources", config_path).items():
        name = str(name)
        schema = load_source_config(resolve(src))
        config_files.append(resolve(src))
        if schema.profile is None:
            raise ConfigError(f"source {name!r} has no synthetic profile to generate from")
        profile = replace(schema.profile, seed=derive_seed(seed, "synth", name))
        flows_path = out / f"{schema.dataset_id}_flows.csv"
        write_flows(generate_chunks(profile, schema), schema, flows_path)
        artifacts[f"flows:{name}"] = flows_path
        chunks = parse_chunks(flows_path, _reading_schema(schema))
        ds = derive_dataset(chunks, batches, faac_config, n_records=profile.total)
        paths = _write_dataset(ds, out, schema.dataset_id)
        artifacts[f"derived:{name}"], artifacts[f"distribution:{name}"] = paths
        derived[name] = ds

    if "integration" in doc:
        spec = load_integration_spec(resolve(doc["integration"]))
        config_files.append(resolve(doc["integration"]))
    else:
        spec = IntegrationSpec()
    merged = None
    if len(derived) >= 2:
        merged = integrate(list(derived.values()), spec)
        paths = _write_dataset(merged, out, "integrated")
        artifacts["derived:integrated"], artifacts["distribution:integrated"] = paths

    if eval_doc:
        report = EvalReport()
        for target in as_list(eval_doc.get("singles") or [], "evaluation.singles", config_path):
            target = str(target)
            if target == "integrated":
                if merged is None:
                    raise ConfigError("'integrated' evaluation target needs at least two sources")
                ds = merged
            elif target in derived:
                ds = derived[target]
            else:
                raise ConfigError(f"unknown evaluation target {target!r}")
            report.extend(run_single_dataset(ds, settings, seed=seed, name=target))
        if eval_doc.get("transfer", False):
            report.extend(run_transfer_matrix(dict(derived), settings, seed=seed))
        if report.rows:
            paths, sig = _write_eval_outputs(report, out)
            for path in paths:
                artifacts[f"eval:{path.name}"] = path
            _print_eval_summary(report, sig)
        if derived:
            # export one deployable model per kind, fit on the widest dataset
            primary_name = "integrated" if merged is not None else next(iter(derived))
            primary = merged if merged is not None else derived[primary_name]
            for kind in settings.models:
                model = fit_pipeline(
                    primary.X,
                    primary.y,
                    primary.classes,
                    kind,
                    hyperparams=resolve_hyperparams(kind, settings.fixed_hyper.get(kind)),
                    seed=derive_seed(seed, "final", kind),
                    provenance={"dataset": primary_name},
                )
                model_path = out / f"model_{kind}.json"
                save_model(model, model_path)
                artifacts[f"model:{kind}"] = model_path

    manifest = _write_manifest(out, "pipeline", list(artifacts.values()), config_files, seed)
    artifacts["manifest"] = manifest
    return artifacts


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the command's YAML configuration")
    common.add_argument("--seed", type=int, default=None, help="root random seed")
    common.add_argument("--out", default=None, help="output directory (default: current)")

    parser = argparse.ArgumentParser(
        prog="faacflow",
        description="Harmonize flow datasets into counter matrices and evaluate classifiers on them.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate synthetic flows for a source")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("derive", parents=[common], help="derive the counter matrix from flows")
    p.add_argument("--source", required=True, help="source schema YAML")
    p.add_argument("--input", required=True, help="flows CSV to read")
    p.add_argument("--batches", required=True, type=int, help="target number of batches")
    p.add_argument("--count", type=int, default=None, help="declared record count (enables streaming)")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("integrate", parents=[common], help="merge derived datasets over shared classes")
    p.add_argument("inputs", nargs="*", help="derived CSV files")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("evaluate", parents=[common], help="cross-validate and transfer-test models")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", parents=[common], help="summarize an evaluation report CSV")
    p.add_argument("--input", required=True, help="report.csv produced by evaluate")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except FaacflowError as exc:  # base-class fallback keeps exit codes stable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
