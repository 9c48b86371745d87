#!/usr/bin/env python3
"""faacflow benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload transfer --seed 3 --seconds 50 --trace 0

``--trace 0`` repeats set-up and the timed section until ``--seconds`` are
used (at least once) and prints the end-to-end metrics, medians over the
repetitions. ``--trace 1`` runs the timed section once untraced and once
with every layer wrapped, prints the per-layer metrics and writes the spans
to ``perfbench/_out/``. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when an output check fails and 2 when the checkout holds no faacflow source.
See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# A repetition is stopped after the workload's REP_LIMIT_S (twice that when
# traced) and no new one starts after GIVE_UP_S (TRACE_GIVE_UP_S in the traced
# pass), so that a run ends well inside 180 s even when a tuned lasso fit
# stalls at its iteration cap for a minute or more.
GIVE_UP_S = 100.0
TRACE_GIVE_UP_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "records_per_s": "1/s",
    "folds_per_s": "1/s",
    "fit_p50_s": "s",
    "fit_tail_s": "s",
}

LAYERS = ("ingest", "faac", "integrate", "learning", "evaluation", "hyperopt", "cli")

PER_LAYER = {
    "ingest.synth_s": "s",
    "ingest.write_flows_s": "s",
    "ingest.parse_s": "s",
    "ingest.records": "count",
    "ingest.rows_skipped": "count",
    "faac.derive_self_s": "s",
    "faac.records_per_s": "1/s",
    "faac.batches": "count",
    "faac.records_dropped": "count",
    "faac.write_derived_s": "s",
    "integrate.s": "s",
    "integrate.rows_kept_frac": "ratio",
    "learning.lasso_s": "s",
    "learning.lasso_calls": "count",
    "learning.lasso_iters": "count",
    "learning.lasso_unconverged": "count",
    "learning.support_size_mean": "count",
    "learning.lr_fit_s": "s",
    "learning.lr_fit_calls": "count",
    "learning.rf_fit_s": "s",
    "learning.rf_trees": "count",
    "learning.rf_nodes": "count",
    "learning.rf_max_depth": "count",
    "learning.rf_nodes_per_s": "1/s",
    "learning.rf_predict_s": "s",
    "learning.rf_predict_rows_per_s": "1/s",
    "evaluation.score_self_s": "s",
    "evaluation.folds": "count",
    "evaluation.auc_calls": "count",
    "evaluation.wilcoxon_s": "s",
    "hyperopt.optimize_self_s": "s",
    "hyperopt.objective_s": "s",
    "hyperopt.trials": "count",
    "hyperopt.trials_failed": "count",
    "hyperopt.rf_trees_tried": "count",
    "cli.orchestrate_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.artifacts_changed": "count",
    **{f"{layer}.self_total_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="faacflow benchmark (see perfbench/NOTES.md)")
    ap.add_argument("--workload", required=True, choices=("desk", "transfer"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0, help="measuring budget for --trace 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-digests", action="store_true",
        help="store this run's artifact digests in perfbench/digests.json as the reference",
    )
    return ap.parse_args(argv)


def import_seconds(root: Path) -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    code = "import time; t = time.perf_counter(); import faacflow.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout.strip().splitlines()[-1])


class RepetitionTimeout(Exception):
    """Raised in the main thread when a repetition passes its time limit."""


def _on_alarm(signum, frame):
    raise RepetitionTimeout


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Runner:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        from faacflow.errors import FaacflowError
        from faacflow.seeds import derive_seed

        import probes
        import workloads

        self.args = args
        self.root = root
        self.probes = probes
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[args.workload]
        self.work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.program_error = FaacflowError
        signal.signal(signal.SIGALRM, _on_alarm)
        self.derive_seed = derive_seed
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def rep_seed(self, rep: int) -> int:
        """Repetition 0 runs on the workload seed; later ones on seeds derived from it."""
        return self.args.seed if rep == 0 else self.derive_seed(self.args.seed, "repetition", rep)

    # -- probes --------------------------------------------------------------

    def install(self, rec, full: bool) -> None:
        """Wrap public functions where their callers look them up.

        The light set (always on) times fits, scoring and the harmonisation
        and evaluation stages that end-to-end metrics need; the full set
        wraps every layer for the traced run.
        """
        from faacflow import cli, evaluation, faac, ingest, integrate, learning

        obs = Observers(faac.plan_batches)

        def wrap(module, attr, name, observe=None):
            rec.patch(module, attr, rec.timed(name, getattr(module, attr), observe))

        wrap(evaluation, "fit_pipeline", "learning.fit_pipeline", obs.pipeline)
        wrap(evaluation, "score_fold", "evaluation.score_fold")
        wrap(cli, "derive_dataset", "faac.derive_dataset", obs.derive)
        wrap(cli, "integrate", "integrate.integrate", obs.integrate)
        wrap(cli, "run_single_dataset", "evaluation.run_single_dataset")
        wrap(cli, "run_transfer_matrix", "evaluation.run_transfer_matrix")
        if not full:
            return
        wrap(cli, "orchestrate", "cli.orchestrate")
        wrap(cli, "write_flows", "ingest.write_flows")
        wrap(cli, "write_derived", "faac.write_derived")
        wrap(cli, "write_report_csv", "evaluation.write_report_csv")
        wrap(cli, "write_trial_log", "hyperopt.write_trial_log")
        wrap(cli, "fit_pipeline", "learning.fit_pipeline", obs.pipeline)
        wrap(cli, "save_model", "learning.save_model")
        parse = rec.timed_iter("ingest.parse_flows", ingest.parse_flows, "ingest.records")
        for module in (cli, ingest):
            rec.patch(module, "parse_flows", parse)
        rec.patch(cli, "generate_synthetic", rec.timed_iter("ingest.generate_synthetic", cli.generate_synthetic))
        wrap(faac, "derive_dataset", "faac.derive_dataset", obs.derive)
        wrap(integrate, "integrate", "integrate.integrate", obs.integrate)
        wrap(evaluation, "run_single_dataset", "evaluation.run_single_dataset")
        wrap(evaluation, "run_cross_dataset", "evaluation.run_cross_dataset")
        wrap(evaluation, "auc_binary", "evaluation.auc_binary")
        wrap(evaluation, "wilcoxon_signed_rank", "evaluation.wilcoxon_signed_rank")
        wrap(learning, "fit_lasso", "learning.fit_lasso")
        wrap(learning, "fit_lr", "learning.fit_lr")
        wrap(learning, "fit_rf", "learning.fit_rf", obs.forest)
        wrap(learning, "predict_proba_rf", "learning.predict_proba_rf", obs.predict_rf)
        wrap(learning, "predict_proba_lr", "learning.predict_proba_lr")

        optimize = evaluation.optimize

        def traced_optimize(objective, *args, **kwargs):
            return optimize(rec.timed("hyperopt.objective", objective), *args, **kwargs)

        rec.patch(evaluation, "optimize", rec.timed("hyperopt.optimize", traced_optimize, obs.search))

    # -- one repetition --------------------------------------------------------

    def iteration(self, rep: int, full: bool, limit_s: float) -> dict:
        """Set up and run one repetition; the timed section is stopped after limit_s."""
        rp = self.probes
        ctx = self.workloads.Context(root=self.root, work=self.work, seed=self.rep_seed(rep))
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        imports = import_seconds(self.root)
        t1 = time.perf_counter()
        inputs = self.workload.setup(ctx)
        setup_s = imports + (time.perf_counter() - t1)

        rec = rp.Recorder(run=rep)
        self.install(rec, full)
        errors: list[str] = []
        out = None
        timed_out = False
        gc.collect()  # start every timed section with the same collector state
        try:
            with rp.LogCounter() as logs, rp.PeakRss() as rss:
                t = time.perf_counter()
                try:
                    try:
                        signal.setitimer(signal.ITIMER_REAL, limit_s)
                        out = self.workload.run(ctx, inputs)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except RepetitionTimeout:
                    timed_out = True
                except self.program_error as exc:
                    errors.append(f"run raised {type(exc).__name__}: {exc}")
                wall = time.perf_counter() - t
        finally:
            rec.restore()
        if timed_out:
            print(f"# repetition {rep} (seed {ctx.seed}) stopped at its {limit_s:.0f} s limit; counted as failed")

        digests: dict[str, str] = {}
        counts = {}
        if out is not None:
            errors_c, digests, counts = self.workload.check(ctx, inputs, out)
            errors += errors_c
        latencies = rp.fit_latencies(rec)
        if out is not None and "harmonise_s" in out:
            harmonise, evaluate = out["harmonise_s"], out["evaluate_s"]
        else:
            harmonise = rec.busy("faac.derive_dataset", "integrate.integrate")
            evaluate = rec.busy("evaluation.run_single_dataset", "evaluation.run_transfer_matrix")
        self.attempted += 1 + len(latencies) + self.workload.records_parsed(inputs)
        self.failed += bool(errors) + timed_out + sum(logs.counts.values())
        self.errors += errors
        return {
            "timed_out": timed_out,
            "seed": ctx.seed,
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": rss.peak_mb,
            "records": self.workload.records(inputs),
            "harmonise_s": harmonise,
            "folds": counts.get("folds", 0),
            "evaluate_s": evaluate,
            "latencies": latencies,
            "rec": rec,
            "logs": logs.counts,
            "counts": counts,
            "digests": digests,
        }

    # -- the two modes -------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Repetitions until RUN_REPS complete or --seconds are used.

        A repetition that passes the time limit counts as failed, is left out
        of the medians and does not use up --seconds; if none completes, the
        run is not correct.
        """
        start = time.perf_counter()
        runs, done = [], []
        lost = 0.0
        while len(done) < self.workload.RUN_REPS and not self.errors:
            elapsed = time.perf_counter() - start
            if done and elapsed - lost >= self.args.seconds or elapsed >= GIVE_UP_S:
                break
            t = time.perf_counter()
            runs.append(self.iteration(len(runs), full=False, limit_s=self.workload.REP_LIMIT_S))
            if runs[-1]["timed_out"]:
                lost += time.perf_counter() - t
            else:
                done.append(runs[-1])
        if not done:
            self.errors.append("no repetition finished within its time limit")
            return {}
        metrics = {name: statistics.median(r[name] for r in done) for name in ("wall_s", "setup_s", "peak_rss_mb")}
        # rates are pooled over the run: total work over total time in the stage
        metrics["records_per_s"] = sum(r["records"] for r in done) / sum(r["harmonise_s"] for r in done)
        metrics["folds_per_s"] = sum(r["folds"] for r in done) / sum(r["evaluate_s"] for r in done)
        latencies = [x for r in done for x in r["latencies"]]
        if latencies:
            metrics["fit_p50_s"] = statistics.median(latencies)
            metrics["fit_tail_s"], pct = tail(latencies)
            print(f"# fit_tail_s is the p{pct:.1f} latency of {len(latencies)} fits")
        print(f"# {self.args.workload} seed {self.args.seed}: {len(done)} of {len(runs)} repetitions finished; wall_s "
              + " ".join(f"{r['wall_s']:.3f}" for r in runs))
        print(f"# failed_frac = {self.failed}/{self.attempted} = {self.failed / self.attempted:.6g}")
        for key in done[0]["counts"]:
            if key.startswith("mean weighted AUC"):
                print(f"# lowest {key}: {min(r['counts'][key] for r in done):.4f}")
        compared = [self.compare_digests(r["seed"], r["digests"]) for r in done if r["digests"]]
        checked = [c for c in compared if c is not None]
        print(f"# artifacts differing from the stored reference: {sum(checked)} "
              f"({len(checked)} of {len(compared)} repetition seeds have a reference)")
        return metrics

    def traced(self) -> dict[str, float]:
        """The first repetition that finishes untraced, run again with every layer wrapped."""
        start = time.perf_counter()
        rep = 0
        while True:
            plain = self.iteration(rep, full=False, limit_s=self.workload.REP_LIMIT_S)
            if self.errors:
                return {}
            if not plain["timed_out"]:
                break
            rep += 1
            if time.perf_counter() - start >= TRACE_GIVE_UP_S:
                self.errors.append("no repetition finished within its time limit")
                return {}
        traced = self.iteration(rep, full=True, limit_s=2 * self.workload.REP_LIMIT_S)
        if traced["timed_out"]:
            self.errors.append("the traced repetition did not finish within its time limit")
        if traced["digests"] != plain["digests"]:
            diff = sorted(k for k in traced["digests"] if traced["digests"][k] != plain["digests"].get(k))
            self.errors.append(f"artifacts differ between two runs of one seed: {diff}")
        changed = self.compare_digests(traced["seed"], traced["digests"])
        metrics = layer_metrics(traced, plain["wall_s"], changed or 0)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps({"spans": traced["rec"].dump(), "metrics": metrics}) + "\n")
        print(f"# spans written to {path.relative_to(self.root)}")
        shares = ", ".join(
            f"{layer} {metrics[layer + '.self_total_s'] / metrics['trace.wall_s']:.1%}" for layer in LAYERS
        )
        print(f"# share of traced wall by layer self time: {shares}")
        return metrics

    def compare_digests(self, seed: int, digests: dict[str, str]) -> int | None:
        """Artifacts whose digest differs from the stored reference for this seed,
        or None when the seed has no reference.

        A difference is reported, not failed: a change may alter report
        bytes on purpose. ``--record-digests`` stores the reference.
        """
        path = HERE / "digests.json"
        stored = json.loads(path.read_text()) if path.exists() else {}
        table = stored.setdefault(self.args.workload, {})
        if self.args.record_digests:
            table[str(seed)] = digests
            path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        reference = table.get(str(seed))
        if reference is None:
            return None
        changed = set(reference) ^ set(digests)
        changed |= {k for k in reference if k in digests and digests[k] != reference[k]}
        return len(changed)


class Observers:
    """Counts read from return values and arguments of wrapped calls."""

    def __init__(self, plan_batches) -> None:
        self.plan_batches = plan_batches

    @staticmethod
    def pipeline(args, kwargs, model, counts) -> None:
        sel = model.selector
        counts["learning.lasso_calls"] += 1
        counts["learning.lasso_iters"] += sum(sel.n_iter)
        counts["learning.lasso_unconverged"] += sum(not ok for ok in sel.converged)
        counts["support_total"] += len(sel.support)

    def derive(self, args, kwargs, ds, counts) -> None:
        plan = self.plan_batches(kwargs["n_records"], args[1])
        counts["faac.batches"] += plan.full_batches
        counts["faac.records_dropped"] += plan.dropped_records
        counts["derived_records"] += plan.batch_size * plan.full_batches

    @staticmethod
    def integrate(args, kwargs, merged, counts) -> None:
        counts["integrate_rows_in"] += sum(ds.n_rows for ds in args[0])
        counts["integrate_rows_out"] += merged.n_rows

    @staticmethod
    def forest(args, kwargs, forest, counts) -> None:
        counts["learning.rf_trees"] += len(forest.trees)
        for tree in forest.trees:
            stack = [(tree, 0)]
            while stack:
                node, depth = stack.pop()
                counts["learning.rf_nodes"] += 1
                if depth > counts["learning.rf_max_depth"]:
                    counts["learning.rf_max_depth"] = depth
                if "n" not in node:
                    stack.append((node["l"], depth + 1))
                    stack.append((node["r"], depth + 1))

    @staticmethod
    def predict_rf(args, kwargs, proba, counts) -> None:
        counts["rf_predict_rows"] += proba.shape[0]

    @staticmethod
    def search(args, kwargs, result, counts) -> None:
        for t in result.trials:
            counts["hyperopt.trials"] += 1
            counts["hyperopt.trials_failed"] += t.score == float("-inf")
            counts["hyperopt.rf_trees_tried"] += int(t.config.get("n_trees", 0))


def layer_metrics(run: dict, untraced_wall: float, artifacts_changed: int) -> dict[str, float]:
    rec, c, logs = run["rec"], run["rec"].counts, run["logs"]
    own = rec.self_by_name()

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    m = {
        "ingest.synth_s": rec.busy("ingest.generate_synthetic"),
        "ingest.write_flows_s": own.get("ingest.write_flows", 0.0),
        "ingest.parse_s": rec.busy("ingest.parse_flows"),
        "ingest.records": c["ingest.records"],
        "ingest.rows_skipped": logs["faacflow.ingest"],
        "faac.derive_self_s": own.get("faac.derive_dataset", 0.0),
        "faac.batches": c["faac.batches"],
        "faac.records_dropped": c["faac.records_dropped"],
        "faac.write_derived_s": rec.busy("faac.write_derived"),
        "integrate.s": own.get("integrate.integrate", 0.0),
        "integrate.rows_kept_frac": ratio(c["integrate_rows_out"], c["integrate_rows_in"]),
        "learning.lasso_s": own.get("learning.fit_lasso", 0.0),
        "learning.lasso_calls": c["learning.lasso_calls"],
        "learning.lasso_iters": c["learning.lasso_iters"],
        "learning.lasso_unconverged": c["learning.lasso_unconverged"],
        "learning.support_size_mean": ratio(c["support_total"], c["learning.lasso_calls"]),
        "learning.lr_fit_s": own.get("learning.fit_lr", 0.0),
        "learning.lr_fit_calls": len(rec.by_name("learning.fit_lr")),
        "learning.rf_fit_s": own.get("learning.fit_rf", 0.0),
        "learning.rf_trees": c["learning.rf_trees"],
        "learning.rf_nodes": c["learning.rf_nodes"],
        "learning.rf_max_depth": c["learning.rf_max_depth"],
        "learning.rf_predict_s": own.get("learning.predict_proba_rf", 0.0),
        "evaluation.score_self_s": own.get("evaluation.score_fold", 0.0),
        "evaluation.folds": run["counts"].get("folds", 0),
        "evaluation.auc_calls": len(rec.by_name("evaluation.auc_binary")),
        "evaluation.wilcoxon_s": rec.busy("evaluation.wilcoxon_signed_rank"),
        "hyperopt.optimize_self_s": own.get("hyperopt.optimize", 0.0),
        "hyperopt.objective_s": rec.busy("hyperopt.objective"),
        "hyperopt.trials": c["hyperopt.trials"],
        "hyperopt.trials_failed": c["hyperopt.trials_failed"],
        "hyperopt.rf_trees_tried": c["hyperopt.rf_trees_tried"],
        "cli.orchestrate_s": own.get("cli.orchestrate", 0.0),
        "cli.write_s": rec.busy(
            "faac.write_derived", "evaluation.write_report_csv", "hyperopt.write_trial_log", "learning.save_model"
        ),
        "cli.artifact_bytes": run["counts"].get("cli.artifact_bytes", 0),
        "cli.artifacts_changed": artifacts_changed,
    }
    m["faac.records_per_s"] = ratio(c["derived_records"], m["faac.derive_self_s"])
    m["learning.rf_nodes_per_s"] = ratio(m["learning.rf_nodes"], m["learning.rf_fit_s"])
    m["learning.rf_predict_rows_per_s"] = ratio(c["rf_predict_rows"], m["learning.rf_predict_s"])
    for layer in LAYERS:
        m[f"{layer}.self_total_s"] = sum(v for k, v in own.items() if k.startswith(layer + "."))
    wall = run["wall_s"]
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_frac"] = wall / untraced_wall - 1.0
    m["trace.unattributed_s"] = wall - sum(own.values())
    m["trace.unattributed_frac"] = m["trace.unattributed_s"] / wall
    return {k: float(m[k]) for k in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "faacflow" / "__init__.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a faacflow checkout (src/faacflow and configs/ missing)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))

    runner = Runner(args, root)
    try:
        metrics = runner.traced() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for err in runner.errors:
        print(f"# CHECK FAILED: {err}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    correct = not runner.errors
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
