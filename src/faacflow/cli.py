"""Command line interface and end-to-end pipeline driver.

Subcommands: ``pipeline`` (derive, integrate and evaluate the sources of one
plan, through :func:`orchestrate`) and ``report`` (summarize an evaluation
CSV). A plan source is a synthetic profile or a recorded flows file, so a plan
of one source and no evaluation generates or derives that source alone. Every
evaluation runs on the datasets that derivation made, never on a derived sheet
read back, which keeps 9 significant digits. Exit codes: 0 success, 2
configuration problem, 3 data problem, 4 evaluation problem.

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
from dataclasses import replace
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
    check_fold_count,
    check_repetitions,
    compare_models,
    read_report_csv,
    run_holdout_study,
    run_single_dataset,
    run_transfer_matrix,
    write_report_csv,
    write_significance_csv,
)
from .faac import (DerivedDataset, FaacConfig, check_batch_count, derive_dataset, load_faac_config, plan_batches,
                   resolve_columns, write_derived)
from .files import as_bool, as_int, as_list, as_mapping, check_keys, read_yaml_mapping, write_csv
from .hyperopt import check_budget, write_trial_log
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
    base: Path | None = None,
) -> Path:
    """Write ``manifest.json``; it keys each config and input by its path relative to ``base``, by default its name."""
    doc = {
        "command": command,
        "package_version": __version__,
        "seed": seed,
        "configs": {os.path.relpath(p, base or p.parent): _sha256(p) for p in configs},
        "inputs": {os.path.relpath(p, base or p.parent): _sha256(p) for p in (inputs or [])},
        "outputs": {
            p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size} for p in sorted(outputs)
        },
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


def _load_plan(path: Path) -> tuple[dict, Callable[[str, object], Path]]:
    """The top-level mapping of a YAML plan and a resolver of its path values (strings) relative to it."""
    doc = read_yaml_mapping(path)

    def resolve(key: str, p: object) -> Path:
        if not isinstance(p, str):
            raise ConfigError(f"{path}: {key} must be a path, got {p!r}")
        target = Path(p)
        return target if target.is_absolute() else path.parent / target

    return doc, resolve


# ---------------------------------------------------------------------------
# Subcommands


def _source_counters(config: FaacConfig, config_path: object, schema: SourceSchema, source_path: object) -> FaacConfig:
    """The counter config under the source's own taxonomy, which derivation counts its flows by, once
    the source's columns resolve onto its variables: no two columns may alias one variable."""
    try:
        counters = replace(config, taxonomy=schema.taxonomy)
        resolve_columns(counters, schema.column_names)
    except ConfigError as exc:
        raise ConfigError(f"{config_path}: {exc} under the taxonomy of {source_path}") from None
    except DataError as exc:
        raise ConfigError(f"{config_path}: {exc} in {source_path}") from None
    return counters


def _derive_flows(path: Path, schema: SourceSchema, config: FaacConfig, batches: int,
                  n_records: int | None) -> DerivedDataset:
    """Derive a recorded flows file, whose labels may be raw or canonical class names, by ``config``
    from :func:`_source_counters`; ``n_records`` is the declared count, if any. A data fault names the file."""
    try:
        return derive_dataset(parse_chunks(path, schema), batches, config, n_records=n_records)
    except DataError as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise DataError(f"{path}: {exc}") from None


def _write_dataset(dataset: DerivedDataset, out: Path, stem: str) -> tuple[Path, Path]:
    """Write ``<stem>_derived.csv`` and the class sheet ``<stem>_distribution.csv``."""
    path = out / f"{stem}_derived.csv"
    write_derived(dataset, path)
    dist_path = out / f"{stem}_distribution.csv"
    rows = ([r["origin"], r["class"], r["rows"], "%.9g" % r["fraction"]] for r in distribution_report(dataset))
    write_csv(dist_path, ["origin", "class", "rows", "fraction"], rows)
    return path, dist_path


_SETTINGS_CHECKS = {"models": as_list, "k": as_int, "repetitions": as_int, "tune": as_bool, "tune_once": as_bool,
                    "n_init": as_int, "n_iter": as_int, "fixed_hyper": as_mapping}


def _settings_from_doc(doc: dict, where: object) -> EvalSettings:
    """Evaluation settings from a plan's ``evaluation`` block, whose other keys are ``singles`` and ``transfer``.

    ``where`` names the plan file in errors. Each ``fixed_hyper`` entry must
    be a mapping of hyperparameters its model kind has, each within the range
    ``learning.check_hyperparam`` allows, and ``k``, ``repetitions``, ``n_init``
    and ``n_iter`` within ``check_fold_count``'s, ``check_repetitions``' and
    ``check_budget``'s.
    """
    check_keys(doc, (*_SETTINGS_CHECKS, "singles", "transfer"), "evaluation key", where)
    prefix = "evaluation."
    fields = {k: check(doc[k], prefix + k, where) for k, check in _SETTINGS_CHECKS.items() if k in doc}
    fields["models"] = tuple(str(m) for m in fields.get("models", EvalSettings.models))
    settings = EvalSettings(**fields)
    if not settings.models:  # nothing would be evaluated
        raise ConfigError(f"{where}: {prefix}models: an evaluation needs at least one model")
    if len(set(settings.models)) != len(settings.models):  # each would fit every fold twice
        raise ConfigError(f"{where}: {prefix}models lists an entry twice: {list(settings.models)}")
    hypers = {kind: as_mapping(h, f"{prefix}fixed_hyper.{kind}", where) for kind, h in settings.fixed_hyper.items()}
    try:
        for kind in settings.models:
            resolve_hyperparams(kind, None, prefix + "models")
        for kind, hyper in hypers.items():
            resolve_hyperparams(str(kind), hyper, f"{prefix}fixed_hyper.{kind}")
        check_fold_count(settings.k, prefix + "k")
        check_repetitions(settings.repetitions, prefix + "repetitions")
        check_budget(settings.n_init, settings.n_iter, prefix)
    except (ConfigError, EvaluationError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return settings


def _write_significance(report: EvalReport, out: Path, outputs: list[Path]) -> Comparison:
    """Model comparisons; the tested rows go to significance.csv when there are any."""
    rows, skipped = compare_models(report)
    if rows:
        sig_path = out / "significance.csv"
        write_significance_csv(rows, sig_path)
        outputs.append(sig_path)
    return rows, skipped


def _evaluate(
    singles: list[tuple[str, DerivedDataset]],
    transfer: dict[str, DerivedDataset] | None,
    settings: EvalSettings, seed: int, out: Path, holdout: bool = False,
) -> list[Path]:
    """Cross-validate each (name, dataset) single and, unless ``transfer`` is None, run
    the transfer matrix over it, or with ``holdout`` the held-out study; write the report,
    significance and trial-log files, print the summary, and return the paths written."""
    report = EvalReport()
    for name, ds in singles:
        report.extend(run_single_dataset(ds, settings, seed=seed, name=name))
    if transfer is not None:
        # looked up per call: the benchmark's traced pass patches cli.run_transfer_matrix
        study = (run_holdout_study if holdout else run_transfer_matrix)(transfer, settings, seed=seed)
        report.extend(study)
    if not report.rows:
        return []
    report_path = out / "report.csv"
    write_report_csv(report, report_path)
    outputs = [report_path]
    sig = _write_significance(report, out, outputs)
    for run in report.trial_runs:
        path = out / f"trials_{_slug(run.label)}_{run.model}_r{run.repetition}_f{run.fold}.csv"
        write_trial_log(run.trials, path)
        outputs.append(path)
    _print_eval_summary(report, sig)
    if holdout:  # rows per held-out source and model: the merged others first, then each other alone
        for held in transfer:
            for model in settings.models:
                pair, *alone = (r.weighted_auc for r in study.rows if (r.test_origin, r.model) == (held, model))
                tag = f" ({model})" if len(settings.models) > 1 else ""
                print(f"    held-out {held}{tag}: pair {pair:.4f} vs best single {max(alone):.4f}")
    return outputs


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
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
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
    _write_manifest(out, "report", outputs, [], None, inputs=[Path(args.input)])
    _print_eval_summary(report, sig)
    return EXIT_OK


# ---------------------------------------------------------------------------
# One-config pipeline


_PIPELINE_KEYS = ("seed", "batches", "faac", "sources", "integration", "evaluation")


def orchestrate(
    config_path: str | Path, out_dir: str | Path, seed: int | None = None, threads: int = 1
) -> dict[str, Path]:
    """Derive, integrate and evaluate the sources of a single pipeline config.

    Returns the paths of everything written. Every value is checked and every
    path, relative to the config file, read before the output directory is made.
    A source named by its config alone is synthetic: its flows go to
    ``<id>_flows.csv`` and are derived from memory. A source ``{config, flows}``
    is a recorded flows file, derived by :func:`_derive_flows` before the output
    directory is made; it is not copied, and the manifest lists it as an input.
    The manifest keys each config and input by its path relative to the plan's directory.
    """
    # forests grow serially; the keyword stays only for callers that pass threads=1
    if threads != 1:
        raise ConfigError(f"threads must be 1 (forests are grown serially), got {threads}")
    config_path = Path(config_path)
    doc, resolve = _load_plan(config_path)
    check_keys(doc, _PIPELINE_KEYS, "pipeline key", config_path)
    if "faac" not in doc or "sources" not in doc:
        raise ConfigError(f"{config_path}: pipeline needs 'faac' and 'sources' keys")
    if "batches" not in doc:
        raise ConfigError(f"{config_path}: batches: a plan needs a target batch count")
    doc_seed = as_int(doc.get("seed", 0), "seed", config_path)
    seed = doc_seed if seed is None else seed
    batches = as_int(doc["batches"], "batches", config_path)
    eval_doc = doc.get("evaluation")
    if eval_doc is not None:  # checked even when falsy; {} runs no evaluation below
        settings = _settings_from_doc(eval_doc, config_path)
    transfer = eval_doc.get("transfer", False) if eval_doc else False
    if not isinstance(transfer, bool) and transfer != "holdout":
        raise ConfigError(f"{config_path}: evaluation.transfer must be true, false or holdout, got {transfer!r}")
    sources = as_mapping(doc["sources"], "sources", config_path)
    if not sources:
        raise ConfigError(f"{config_path}: sources: a plan needs at least one source")
    if len(sources) < (needed := {True: 2, "holdout": 3}.get(transfer, 0)):
        raise ConfigError(f"{config_path}: evaluation.transfer: {str(transfer).lower()} needs {needed} or more sources")
    targets = [str(t) for t in as_list((eval_doc or {}).get("singles") or [], "evaluation.singles", config_path)]
    if len(set(targets)) != len(targets):  # each would be evaluated twice
        raise ConfigError(f"{config_path}: evaluation.singles lists an entry twice: {targets}")
    for target in targets:
        if target == "integrated" and len(sources) < 2:
            raise ConfigError(f"{config_path}: evaluation.singles: 'integrated' needs at least two sources")
        if target != "integrated" and target not in {str(name) for name in sources}:
            raise ConfigError(
                f"{config_path}: evaluation.singles: unknown target {target!r}; expected a source or 'integrated'"
            )
    configs = [config_path, resolve("faac", doc["faac"])]
    faac_config = load_faac_config(configs[-1])
    schemas: dict[str, SourceSchema] = {}
    counters: dict[str, FaacConfig] = {}
    # dataset id -> the source key whose outputs it names; the merge of two or more names 'integrated'
    owners = {"integrated": "the merged sources"} if len(sources) >= 2 else {}
    flows: dict[str, Path] = {}  # source key -> the recorded flows file of a file source
    for name, src in sources.items():
        key = f"sources.{name}"
        if isinstance(src, dict):
            check_keys(src, ("config", "flows"), f"{key} key", config_path)
            flows[str(name)] = resolve(f"{key}.flows", src.get("flows"))
            key, src = f"{key}.config", src.get("config")
        configs.append(resolve(key, src))
        schema = schemas[str(name)] = load_source_config(configs[-1])
        if (owner := owners.setdefault(schema.dataset_id, str(name))) != str(name):
            raise ConfigError(f"{config_path}: sources: {owner} and {name} both name dataset {schema.dataset_id!r}")
        if str(name) not in flows and schema.profile is None:
            raise ConfigError(f"{configs[-1]}: source {name!r} has no synthetic profile to generate from")
        counters[str(name)] = _source_counters(faac_config, configs[1], schema, configs[-1])
        try:
            check_batch_count(batches)
            if str(name) not in flows:
                plan_batches(schema.profile.total, batches)
        except (ConfigError, DataError) as exc:
            raise ConfigError(f"{config_path}: batches: {exc} (source {name!r})") from None
    spec = IntegrationSpec()
    if "integration" in doc:
        configs.append(resolve("integration", doc["integration"]))
        spec = load_integration_spec(configs[-1])
    recorded = {name: _derive_flows(path, schemas[name], counters[name], batches, schemas[name].record_count_hint)
                for name, path in flows.items()}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    derived: dict[str, DerivedDataset] = {}
    for name, schema in schemas.items():
        if name in recorded:
            derived[name] = recorded[name]
        else:
            profile = replace(schema.profile, seed=derive_seed(seed, "synth", name))
            flows_path = artifacts[f"flows:{name}"] = out / f"{schema.dataset_id}_flows.csv"
            chunks = list(generate_chunks(profile, schema))  # the whole source, held until it is derived
            write_flows(chunks, schema, flows_path)
            derived[name] = derive_dataset(chunks, batches, counters[name], n_records=profile.total)
            del chunks
        paths = _write_dataset(derived[name], out, schema.dataset_id)
        artifacts[f"derived:{name}"], artifacts[f"distribution:{name}"] = paths

    merged = None
    if len(derived) >= 2:
        merged = integrate(list(derived.values()), spec)
        paths = _write_dataset(merged, out, "integrated")
        artifacts["derived:integrated"], artifacts["distribution:integrated"] = paths

    if eval_doc:
        singles = [(t, merged if t == "integrated" else derived[t]) for t in targets]
        studied = dict(derived) if transfer else None
        for path in _evaluate(singles, studied, settings, seed, out, holdout=transfer == "holdout"):
            artifacts[f"eval:{path.name}"] = path
        if derived:
            # export one deployable model per kind, fit on the widest dataset
            primary_name, primary = ("integrated", merged) if merged is not None else next(iter(derived.items()))
            for kind in settings.models:
                model = fit_pipeline(
                    primary.X, primary.y, primary.classes, kind, hyperparams=settings.fixed_hyper.get(kind),
                    seed=derive_seed(seed, "final", kind), provenance={"dataset": primary_name},
                )
                model_path = out / f"model_{kind}.json"
                save_model(model, model_path)
                artifacts[f"model:{kind}"] = model_path

    manifest = _write_manifest(out, "pipeline", list(artifacts.values()), configs, seed, inputs=list(flows.values()),
                               base=config_path.parent)
    artifacts["manifest"] = manifest
    return artifacts


def cmd_pipeline(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigError("pipeline requires --config pointing at a pipeline configuration")
    out = args.out or "."
    artifacts = orchestrate(args.config, out, seed=args.seed)
    print(f"wrote {len(artifacts)} artifacts under {out}:")
    for key in sorted(artifacts):
        print(f"  {key:28s} {artifacts[key]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    # the options follow the command, and each command takes only the options it reads
    parser = argparse.ArgumentParser(
        prog="faacflow",
        description="Harmonize flow datasets into counter matrices and evaluate classifiers on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="derive, integrate and evaluate the sources of one plan")
    p.add_argument("--config", help="path to the pipeline plan (YAML)")
    p.add_argument("--seed", type=int, default=None, help="root random seed (default: the plan's seed)")
    p.add_argument("--out", default=None, help="output directory (default: current)")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="summarize an evaluation report CSV")
    p.add_argument("--input", required=True, help="report.csv written by pipeline")
    p.add_argument("--out", default=None, help="output directory (default: current)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """The command's exit code; a faacflow error or a missing file is reported on
    stderr, without a traceback, as exit 2 (configuration), 3 (data) or 4 (evaluation)."""
    _configure_logging()
    args = build_parser().parse_args(argv)
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
