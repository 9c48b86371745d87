"""The benchmark workloads and the output checks each run must pass.

Every workload is a closed-loop batch job in one process with threads = 1.
``setup`` builds the inputs from the workload seed (counted in setup_s),
``run`` is the timed section and calls faacflow only through its public
functions, looked up on the module at call time so that ``probes.Recorder``
can wrap them, and ``check`` verifies the outputs and returns their digests.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from faacflow import cli, evaluation, faac, ingest, integrate
from faacflow.seeds import derive_seed

SOURCES = ("alpha", "beta", "gamma")
CLASSES = {"Background", "DoS", "PortScanning"}


@dataclass
class Context:
    root: Path  # checkout root: holds src/ and configs/
    work: Path  # scratch directory for this run's files
    seed: int

    @property
    def configs(self) -> Path:
        return self.root / "configs"


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_dataset(ds: faac.DerivedDataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.X).tobytes())
    h.update(np.ascontiguousarray(ds.y).tobytes())
    h.update("\n".join(ds.origins).encode())
    return h.hexdigest()


def _digest_report(rows: list[evaluation.FoldResult]) -> str:
    buf = io.StringIO()
    evaluation.write_report_csv(evaluation.EvalReport(rows=list(rows)), buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _check_dataset(name: str, ds: faac.DerivedDataset, n_records: int, batches: int) -> list[str]:
    errors = []
    plan = faac.plan_batches(n_records, batches)
    if ds.X.shape != (plan.full_batches, len(ds.feature_names)):
        errors.append(f"{name}: matrix shape {ds.X.shape}, plan_batches gives {plan.full_batches} rows")
    if ds.X.size and (ds.X.min() < 0.0 or ds.X.max() > 1.0):
        errors.append(f"{name}: counters outside [0, 1]")
    return errors


def _check_report(rows: list, expected: int, floor: float, what: str, counts: Counter) -> list[str]:
    errors = []
    if len(rows) != expected:
        errors.append(f"{what}: {len(rows)} report rows, expected {expected}")
    if rows:
        mean = float(np.mean([r.weighted_auc for r in rows]))
        counts[f"mean weighted AUC, {what} (floor {floor})"] = mean
        if not mean >= floor:
            errors.append(f"{what}: mean weighted AUC {mean:.4f} below floor {floor}")
    return errors


def _check_merged(merged: faac.DerivedDataset) -> list[str]:
    found = set(merged.label_names())
    if found != CLASSES or set(merged.classes) != CLASSES:
        return [f"merged class set {sorted(found)}, expected {sorted(CLASSES)}"]
    return []


class Workload:
    name = ""
    RUN_REPS = 1  # repetitions per benchmark run, each on its own seed
    REP_LIMIT_S = 25.0  # a timed section still running after this is stopped and failed

    def setup(self, ctx: Context) -> dict:
        raise NotImplementedError

    def run(self, ctx: Context, inputs: dict) -> dict:
        """Timed section. Returns the outputs, plus 'harmonise_s', 'evaluate_s'
        and 'folds' when the workload times its own stages."""
        raise NotImplementedError

    def check(self, ctx: Context, inputs: dict, out: dict) -> tuple[list[str], dict[str, str], Counter]:
        """(failed checks, artifact digests, counts read from the outputs)."""
        raise NotImplementedError

    def records(self, inputs: dict) -> int:
        """Raw flow records the timed section takes to a derived matrix."""
        raise NotImplementedError

    def records_parsed(self, inputs: dict) -> int:
        """Records the timed section reads from CSV, each a row that could be skipped."""
        return self.records(inputs)


class Desk(Workload):
    """``cli.orchestrate`` on the desk pipeline, with a smaller evaluation plan.

    Sources, batch count, counter configuration and integration come from
    ``configs/pipeline_desk.yaml`` unchanged. The evaluation keeps tuning and
    the transfer matrix but evaluates the logistic model only, and tunes per
    fold. The desk plan's tuned forest costs 57-84 s per run on a 2-core
    machine depending on which configurations the seed's search tries, far
    over the time one run may take; the forest is measured by ``transfer``.
    """

    name = "desk"
    RUN_REPS = 6
    REP_LIMIT_S = 18.0  # normal repetitions take 5-12 s; a stalled lasso takes 40-100 s
    PLAN = {
        "models": ["lr"],
        "k": 5,
        "repetitions": 1,
        "tune": True,
        "tune_once": False,
        "n_init": 2,
        "n_iter": 4,
        "singles": ["integrated"],
        "transfer": True,
    }
    AUC_FLOOR = 0.8

    def setup(self, ctx: Context) -> dict:
        base = ctx.configs / "pipeline_desk.yaml"
        doc = yaml.safe_load(base.read_text(encoding="utf-8"))
        for key in ("faac", "integration"):
            doc[key] = str((ctx.configs / doc[key]).resolve())
        doc["sources"] = {k: str((ctx.configs / v).resolve()) for k, v in doc["sources"].items()}
        doc["evaluation"] = dict(self.PLAN)
        doc["seed"] = ctx.seed
        path = ctx.work / "pipeline_desk_bench.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=True), encoding="utf-8")
        totals = {
            name: ingest.load_source_config(src).profile.total for name, src in doc["sources"].items()
        }
        return {"config": path, "out": ctx.work / "desk_out", "batches": int(doc["batches"]), "totals": totals}

    def run(self, ctx: Context, inputs: dict) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            artifacts = cli.orchestrate(inputs["config"], inputs["out"], seed=ctx.seed, threads=1)
        return {"artifacts": artifacts}

    def records(self, inputs: dict) -> int:
        return sum(inputs["totals"].values())

    def expected_rows(self) -> int:
        n_sources = len(SOURCES)
        transfers = n_sources * (n_sources - 1) if self.PLAN["transfer"] else 0
        per_model = self.PLAN["k"] * self.PLAN["repetitions"] + transfers
        return per_model * len(self.PLAN["models"])

    def check(self, ctx, inputs, out):
        artifacts: dict[str, Path] = out["artifacts"]
        errors: list[str] = []
        counts: Counter = Counter()
        for name in SOURCES:
            ds = faac.read_derived(artifacts[f"derived:{name}"])
            errors += _check_dataset(name, ds, inputs["totals"][name], inputs["batches"])
        merged = faac.read_derived(artifacts["derived:integrated"])
        errors += _check_merged(merged)
        report = evaluation.read_report_csv(artifacts["eval:report.csv"])
        errors += _check_report(report.rows, self.expected_rows(), self.AUC_FLOOR, "desk report", counts)
        counts["folds"] = len(report.rows)
        for path in artifacts.values():
            counts["cli.artifact_bytes"] += path.stat().st_size
            if path.name.startswith("trials_"):
                with open(path, encoding="utf-8", newline="") as fh:
                    for row in csv.DictReader(fh):
                        counts["hyperopt.trials"] += 1
                        counts["hyperopt.trials_failed"] += not math.isfinite(float(row["score"]))
                        counts["hyperopt.rf_trees_tried"] += int(json.loads(row["config_json"]).get("n_trees", 0))
        # trials_*.csv hold wall-clock seconds, and manifest.json digests them,
        # so neither repeats byte for byte between identical runs
        digests = {
            p.name: _sha256_file(p)
            for p in artifacts.values()
            if not p.name.startswith("trials_") and p.name != "manifest.json"
        }
        return errors, digests, counts


def _synth(ctx: Context, schema: ingest.SourceSchema, name: str, total: int | None = None):
    profile = replace(schema.profile, seed=derive_seed(ctx.seed, "synth", name))
    if total is not None:
        profile = replace(profile, total=total)
    return profile, ingest.generate_synthetic(profile, schema)


class Transfer(Workload):
    """Criterion-9 study for one root: derive from in-memory records, fixed
    forest (60 trees, depth 10) 5x3 CV on the merged set, then pair->held
    and single->held transfers for each held-out source."""

    name = "transfer"
    BATCHES = 300
    RF = {"n_trees": 20, "max_depth": 10}
    K, CV_REPS = 5, 3
    RUN_REPS = 5
    AUC_FLOOR = 0.9
    TRANSFER_FLOOR = 0.8

    def setup(self, ctx: Context) -> dict:
        config = faac.load_faac_config(ctx.configs / "faac_reference.yaml")
        records = {}
        for name in SOURCES:
            schema = ingest.load_source_config(ctx.configs / f"source_{name}.yaml")
            _, stream = _synth(ctx, schema, name)
            records[name] = list(stream)
        return {"config": config, "records": records}

    def records(self, inputs: dict) -> int:
        return sum(len(r) for r in inputs["records"].values())

    def records_parsed(self, inputs: dict) -> int:
        return 0

    def run(self, ctx: Context, inputs: dict) -> dict:
        t0 = time.perf_counter()
        derived = {
            name: faac.derive_dataset(recs, self.BATCHES, inputs["config"], n_records=len(recs))
            for name, recs in inputs["records"].items()
        }
        merged = integrate.integrate(list(derived.values()), integrate.IntegrationSpec())
        t1 = time.perf_counter()
        cv = evaluation.EvalSettings(k=self.K, repetitions=self.CV_REPS, models=("rf",), fixed_hyper={"rf": self.RF})
        cv_rows = evaluation.run_single_dataset(merged, cv, seed=ctx.seed, name="integrated").rows
        tr = evaluation.EvalSettings(models=("rf",), fixed_hyper={"rf": self.RF})
        transfer_rows = []
        for held in derived:
            others = [n for n in derived if n != held]
            pair = integrate.integrate([derived[n] for n in others], integrate.IntegrationSpec())
            trains = [("+".join(others), pair)] + [(n, derived[n]) for n in others]
            for train_name, train in trains:
                part = evaluation.run_cross_dataset(
                    train, derived[held], tr, seed=ctx.seed, train_name=train_name, test_name=held
                )
                transfer_rows.extend(part.rows)
        t2 = time.perf_counter()
        return {
            "derived": derived,
            "merged": merged,
            "cv_rows": cv_rows,
            "transfer_rows": transfer_rows,
            "harmonise_s": t1 - t0,
            "evaluate_s": t2 - t1,
            "folds": len(cv_rows) + len(transfer_rows),
        }

    def check(self, ctx, inputs, out):
        errors: list[str] = []
        counts = Counter(folds=out["folds"])
        for name, ds in out["derived"].items():
            errors += _check_dataset(name, ds, len(inputs["records"][name]), self.BATCHES)
        errors += _check_merged(out["merged"])
        errors += _check_report(out["cv_rows"], self.K * self.CV_REPS, self.AUC_FLOOR, "transfer CV", counts)
        n_sources = len(out["derived"])
        errors += _check_report(out["transfer_rows"], n_sources * n_sources, self.TRANSFER_FLOOR, "transfer matrix", counts)
        digests = {f"derived:{n}": _digest_dataset(ds) for n, ds in out["derived"].items()}
        digests["derived:integrated"] = _digest_dataset(out["merged"])
        digests["report"] = _digest_report(out["cv_rows"] + out["transfer_rows"])
        return errors, digests, counts


WORKLOADS = {w.name: w for w in (Desk(), Transfer())}
