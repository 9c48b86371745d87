"""Evaluation: stratified folds, rank AUC, signed-rank tests, CV, transfer and held-out studies.

Fold indices for a repetition depend only on the data, the fold count, and
the seed, never on the model, so per-fold scores of two models form valid
matched pairs. AUC and the signed-rank statistic are computed with integer
midrank arithmetic, so tied scores cost no precision.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import DataError, EvaluationError
from .faac import DerivedDataset
from .files import read_csv, write_csv
from .hyperopt import TrialRow, default_space, optimize
from .integrate import IntegrationSpec, integrate, restrict, shared_classes
from .learning import PipelineModel, fit_pipeline
from .seeds import derive_seed

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Folds


def check_fold_count(k: int, key: str = "fold count") -> None:
    """Raise an EvaluationError naming ``key`` unless ``k`` is at least 2."""
    if k < 2:
        raise EvaluationError(f"{key} must be at least 2, got {k}")


def check_repetitions(n: int, key: str = "repetitions") -> None:
    """Raise an EvaluationError naming ``key`` unless ``n`` is at least 1."""
    if n < 1:
        raise EvaluationError(f"{key} must be at least 1, got {n}")


def stratified_folds(y: np.ndarray, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint validation folds preserving class proportions.

    Each class is shuffled under its own derived seed and dealt round-robin
    across folds. A class with fewer rows than folds is an error: such a
    split could not keep every class on both sides.
    """
    y = np.asarray(y)
    check_fold_count(k)
    folds: list[list[int]] = [[] for _ in range(k)]
    for ci in np.unique(y):
        rows = np.flatnonzero(y == ci)
        if len(rows) < k:
            raise EvaluationError(
                f"class index {int(ci)} has {len(rows)} rows, fewer than {k} folds"
            )
        rng = np.random.default_rng(derive_seed(seed, "stratum", int(ci)))
        perm = rng.permutation(rows)
        for i, row in enumerate(perm):
            folds[i % k].append(int(row))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


# ---------------------------------------------------------------------------
# Rank statistics


def _doubled_midranks(values: np.ndarray) -> np.ndarray:
    """Twice the midrank of each value: an exact integer even under ties.

    One stable sort; a run of equal values starts wherever a sorted value
    differs from the one before it, so -0.0 and 0.0 share a run and each
    NaN (sorted last, equal to nothing) is a run of its own. Every value of
    the run over sorted positions i to j - 1 gets (i + 1) + j.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.append(starts[1:], len(values))
    out = np.empty(len(values), dtype=np.int64)
    out[order] = np.repeat(starts + ends + 1, ends - starts)
    return out


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Computed from integer doubled midranks, so the result is the exact
    pair-counting value up to one final division.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = int(len(labels) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs both a positive and a negative example")
    s2 = int(_doubled_midranks(scores)[pos].sum())
    return (s2 - n_pos * (n_pos + 1)) / (2 * n_pos * n_neg)


def weighted_avg_auc(aucs: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted mean with weights renormalized over the included entries."""
    if len(aucs) != len(weights) or not aucs:
        raise EvaluationError("need matching, non-empty AUC and weight lists")
    total = float(sum(weights))
    if total <= 0:
        raise EvaluationError("weights must sum to a positive value")
    return float(sum(a * w for a, w in zip(aucs, weights)) / total)


#: fewest nonzero paired differences for which a two-sided signed-rank test is run
MIN_SIGNED_RANK_PAIRS = 5


@dataclass(frozen=True)
class WilcoxonResult:
    n: int  # nonzero differences
    w: float  # smaller signed-rank sum
    p: float  # two-sided
    method: str  # "exact", "normal", or "degenerate"


def wilcoxon_signed_rank(
    a: Sequence[float], b: Sequence[float], method: str = "auto"
) -> WilcoxonResult:
    """Paired two-sided signed-rank test of a versus b.

    Zero differences are dropped. All differences zero is reported as
    no evidence (p = 1) rather than an error; one to four nonzero pairs is
    too few for any two-sided significance and is an error. Up to twenty
    pairs the null distribution is enumerated exactly over the doubled
    integer ranks; beyond that a tie-corrected normal approximation with
    continuity correction is used. ``method`` forces one branch
    ("exact" or "normal") regardless of size.
    """
    if method not in ("auto", "exact", "normal"):
        raise EvaluationError(f"unknown method {method!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise EvaluationError("paired test needs two equally long score lists")
    d = a - b
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return WilcoxonResult(n=0, w=0.0, p=1.0, method="degenerate")
    if n < MIN_SIGNED_RANK_PAIRS:
        raise EvaluationError(
            f"only {n} nonzero differences; at least {MIN_SIGNED_RANK_PAIRS} are needed for a two-sided test"
        )
    ranks2 = _doubled_midranks(np.abs(d))
    w2_pos = int(ranks2[d > 0].sum())
    w2_neg = int(ranks2.sum()) - w2_pos
    w2 = min(w2_pos, w2_neg)

    if method == "exact" or (method == "auto" and n <= 20):
        # subset-sum enumeration over doubled ranks; all integers, no rounding
        total2 = int(ranks2.sum())
        dp = [0] * (total2 + 1)
        dp[0] = 1
        for r in ranks2:
            r = int(r)
            for s in range(total2 - r, -1, -1):
                if dp[s]:
                    dp[s + r] += dp[s]
        lo_mass = sum(dp[: w2 + 1])
        p = min(1.0, 2.0 * lo_mass / (2**n))
        return WilcoxonResult(n=n, w=w2 / 2.0, p=p, method="exact")

    mu = n * (n + 1) / 4.0
    tie_term = 0.0
    _, counts = np.unique(np.abs(d), return_counts=True)
    for t in counts:
        tie_term += (t**3 - t) / 48.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    z = (w2 / 2.0 - mu + 0.5) / sigma
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
    return WilcoxonResult(n=n, w=w2 / 2.0, p=p, method="normal")


# ---------------------------------------------------------------------------
# Per-fold results


@dataclass(frozen=True)
class FoldResult:
    setting: str  # "single-dataset" or "cross-dataset"
    model: str
    train_origin: str
    test_origin: str
    repetition: int
    fold: int
    class_aucs: tuple[tuple[str, float], ...]
    class_counts: tuple[tuple[str, int], ...]  # per-class true counts among test rows
    weighted_auc: float
    hyperparams_json: str


def score_fold(
    model: PipelineModel,
    X_test: np.ndarray,
    y_test: np.ndarray,
    classes: Sequence[str],
) -> tuple[tuple[tuple[str, float], ...], tuple[tuple[str, int], ...], float]:
    """Per-class one-vs-rest AUCs, true-count weights, and the weighted mean.

    A class with no positive or no negative test rows has no AUC; it is
    reported as missing with a warning and its count drops out of the
    weighted mean. The remaining counts sum to the test-fold size.
    """
    proba = model.predict_proba(X_test)
    n = len(y_test)
    aucs: list[tuple[str, float]] = []
    counts: list[tuple[str, int]] = []
    for ci, name in enumerate(classes):
        pos = (np.asarray(y_test) == ci).astype(np.int64)
        n_pos = int(pos.sum())
        if n_pos == 0 or n_pos == n:
            log.warning("class %s has no AUC on these test rows (%d of %d); skipped", name, n_pos, n)
            continue
        aucs.append((name, auc_binary(proba[:, ci], pos)))
        counts.append((name, n_pos))
    if not aucs:
        raise EvaluationError("test rows contain a single class; no AUC is defined")
    wavg = weighted_avg_auc([a for _, a in aucs], [q for _, q in counts])
    return tuple(aucs), tuple(counts), wavg


# ---------------------------------------------------------------------------
# Settings and tuning


@dataclass(frozen=True)
class EvalSettings:
    """Knobs for the evaluation drivers.

    ``tune_once`` tunes at the first repetition and fold per model and
    reuses the winner elsewhere; fixed_hyper (model -> hyperparams) applies
    when tuning is off. Tuning searches the built-in space of each model.
    With ``tune_once``, cross-validation tunes on fold 1's training rows,
    which later folds test on, so their scores may lean optimistic.
    """

    k: int = 5
    repetitions: int = 20
    models: tuple[str, ...] = ("lr", "rf")
    tune: bool = False
    tune_once: bool = True
    n_init: int = 5
    n_iter: int = 20
    fixed_hyper: dict = field(default_factory=dict)


@dataclass
class TrialRun:
    model: str
    repetition: int
    fold: int
    trials: tuple[TrialRow, ...]
    label: str = ""


@dataclass
class EvalReport:
    rows: list[FoldResult] = field(default_factory=list)
    trial_runs: list[TrialRun] = field(default_factory=list)

    def extend(self, other: EvalReport) -> None:
        """Append another report's rows and trial runs, in order."""
        self.rows.extend(other.rows)
        self.trial_runs.extend(other.trial_runs)


def _tune_on_train(
    X: np.ndarray,
    y: np.ndarray,
    classes: Sequence[str],
    kind: str,
    settings: EvalSettings,
    tune_seed: int,
    fit_seed: int,
) -> tuple[dict, tuple[TrialRow, ...]]:
    """Pick hyperparameters by weighted AUC on an inner validation split.

    The training rows are split once, stratified, with a fifth held out for
    validation; every candidate configuration is fit on the remainder under
    one shared seed so scores differ only through the configuration.

    Each trial after the first starts its l1 selection from the
    coefficients of the trial already fit whose log penalty is nearest (the
    earliest on ties), as a path solver does; the first starts from zero.
    At small penalties on collinear columns a trial may then end on another
    support than a cold start would, both within ``OPT_TOL``. The fits are
    kept only for this search, and the caller's final fit starts from zero.
    """
    inner = stratified_folds(y, 5, derive_seed(tune_seed, "inner-split"))
    val_idx = inner[0]
    fit_mask = np.ones(len(y), dtype=bool)
    fit_mask[val_idx] = False
    fit_idx = np.flatnonzero(fit_mask)
    fitted: list[tuple[float, np.ndarray]] = []  # (log penalty, selection coefficients) per trial fit

    def objective(config: dict) -> float:
        log_lam = math.log(config["lambda"])  # the search space is logarithmic in the penalty, so it is positive
        start = min(fitted, key=lambda f: abs(f[0] - log_lam))[1] if fitted else None
        model = fit_pipeline(X[fit_idx], y[fit_idx], classes, kind, hyperparams=config, seed=fit_seed, start=start)
        fitted.append((log_lam, model.selector.betas))
        _, _, wavg = score_fold(model, X[val_idx], y[val_idx], classes)
        return wavg

    result = optimize(
        objective,
        default_space(kind, X.shape[1]),
        seed=tune_seed,
        n_init=settings.n_init,
        n_iter=settings.n_iter,
    )
    return result.best_config, result.trials


def _dataset_name(ds: DerivedDataset) -> str:
    return "+".join(sorted(set(ds.origins))) if ds.origins else "empty"


def _fit_and_score(
    report: EvalReport,
    setting: str,
    names: tuple[str, str],
    kind: str,
    hyper: dict | None,
    train: tuple[np.ndarray, np.ndarray],
    test: tuple[np.ndarray, np.ndarray],
    classes: Sequence[str],
    settings: EvalSettings,
    seed: int,
    repetition: int = 1,
    fold: int = 1,
) -> dict:
    """Tune (when ``hyper`` is None), fit, and score one model; append its row.

    Seeds derive from (repetition, fold) in the single-dataset setting and
    from the (train, test) names in the cross-dataset one. Returns the
    configuration used, so a tuned one can be reused.
    """
    train_name, test_name = names
    if setting == "single-dataset":
        labels: tuple = (repetition, fold)
        where, trial_label = f"repetition {repetition} fold {fold}", train_name
    else:
        labels = names
        where, trial_label = f"transfer {train_name} to {test_name}", f"{train_name}-to-{test_name}"
    try:
        if hyper is None:
            hyper, trials = _tune_on_train(
                *train, classes, kind, settings,
                tune_seed=derive_seed(seed, "tune", kind, *labels),
                fit_seed=derive_seed(seed, "tune-fit", kind, *labels),
            )
            report.trial_runs.append(
                TrialRun(model=kind, repetition=repetition, fold=fold, trials=trials, label=trial_label)
            )
        model = fit_pipeline(
            *train, classes, kind,
            hyperparams=hyper,
            seed=derive_seed(seed, "fit", kind, *labels),
            provenance={"dataset": train_name, "repetition": repetition, "fold": fold},
        )
        aucs, counts, wavg = score_fold(model, *test, classes)
    except EvaluationError as exc:
        raise EvaluationError(f"{where} model {kind}: {exc}") from exc
    report.rows.append(
        FoldResult(
            setting=setting, model=kind, train_origin=train_name, test_origin=test_name,
            repetition=repetition, fold=fold, class_aucs=aucs, class_counts=counts,
            weighted_auc=wavg, hyperparams_json=json.dumps(model.hyperparams, sort_keys=True),
        )
    )
    return hyper


def run_single_dataset(
    dataset: DerivedDataset,
    settings: EvalSettings,
    seed: int,
    name: str | None = None,
) -> EvalReport:
    """Repeated stratified k-fold cross-validation on one dataset.

    Folds are drawn once per repetition and shared by all models, so the
    per-fold scores of two models are matched pairs.
    """
    check_repetitions(settings.repetitions)
    name = name or _dataset_name(dataset)
    report = EvalReport()
    X, y, classes = dataset.X, dataset.y, dataset.classes
    tuned: dict[str, dict] = {}
    for r in range(1, settings.repetitions + 1):
        folds = stratified_folds(y, settings.k, derive_seed(seed, "folds", r))
        for f, val_idx in enumerate(folds, start=1):
            train_mask = np.ones(len(y), dtype=bool)
            train_mask[val_idx] = False
            train_idx = np.flatnonzero(train_mask)
            for kind in settings.models:
                if not settings.tune:
                    hyper = settings.fixed_hyper.get(kind, {})
                else:
                    hyper = tuned.get(kind) if settings.tune_once else None
                tuned[kind] = _fit_and_score(
                    report, "single-dataset", (name, name), kind, hyper,
                    (X[train_idx], y[train_idx]), (X[val_idx], y[val_idx]), classes,
                    settings, seed, repetition=r, fold=f,
                )
    return report


def _shared_class_views(train: DerivedDataset, test: DerivedDataset) -> tuple[DerivedDataset, DerivedDataset]:
    """Restrict both sides to the classes observed on both, Background first."""
    try:
        classes = shared_classes([train, test], IntegrationSpec())
    except DataError:
        raise EvaluationError("train and test share no Background rows") from None
    return restrict(train, classes), restrict(test, classes)


def run_cross_dataset(
    train: DerivedDataset,
    test: DerivedDataset,
    settings: EvalSettings,
    seed: int,
    train_name: str | None = None,
    test_name: str | None = None,
) -> EvalReport:
    """Fit on one dataset, score on another, over their shared classes."""
    if train.feature_names != test.feature_names:
        raise EvaluationError("train and test datasets use different feature lists")
    train_name = train_name or _dataset_name(train)
    test_name = test_name or _dataset_name(test)
    tr, te = _shared_class_views(train, test)
    report = EvalReport()
    for kind in settings.models:
        hyper = None if settings.tune else settings.fixed_hyper.get(kind, {})
        _fit_and_score(
            report, "cross-dataset", (train_name, test_name), kind, hyper,
            (tr.X, tr.y), (te.X, te.y), tr.classes, settings, seed,
        )
    return report


def run_transfer_matrix(
    datasets: dict[str, DerivedDataset],
    settings: EvalSettings,
    seed: int,
) -> EvalReport:
    """Every ordered train/test pair of distinct datasets."""
    if len(datasets) < 2:
        raise EvaluationError("transfer needs at least two datasets")
    report = EvalReport()
    for a in datasets:
        for b in datasets:
            if a == b:
                continue
            report.extend(
                run_cross_dataset(
                    datasets[a],
                    datasets[b],
                    settings,
                    seed,
                    train_name=a,
                    test_name=b,
                )
            )
    return report


def run_holdout_study(
    datasets: dict[str, DerivedDataset],
    settings: EvalSettings,
    seed: int,
) -> EvalReport:
    """Hold each source out in turn; train on the merged others and on each alone.

    Rows come per held-out source, in dict order: first the merged-others
    entry, named ``"+".join(others)``, then one entry per other source in
    dict order. Each entry is one ``run_cross_dataset`` call, so it holds
    one row per model in ``settings.models``.
    """
    if len(datasets) < 3:
        raise EvaluationError("a held-out study needs at least three datasets")
    report = EvalReport()
    for held in datasets:
        others = [n for n in datasets if n != held]
        trains = [("+".join(others), integrate([datasets[n] for n in others]))]
        trains += [(n, datasets[n]) for n in others]
        for name, train in trains:
            report.extend(
                run_cross_dataset(train, datasets[held], settings, seed, train_name=name, test_name=held)
            )
    return report


# ---------------------------------------------------------------------------
# Report serialization and comparison


REPORT_HEADER = (
    "setting,model,train_origin,test_origin,repetition,fold,class,auc,q,weighted_auc,hyperparams_json"
)


def write_report_csv(report: EvalReport, dest: str | Path | TextIO) -> int:
    """One CSV line per evaluated (fold, class); returns the line count."""

    def rows():
        for row in report.rows:
            counts = dict(row.class_counts)
            for cname, auc in row.class_aucs:
                yield [
                    row.setting,
                    row.model,
                    row.train_origin,
                    row.test_origin,
                    row.repetition,
                    row.fold,
                    cname,
                    "%.9g" % auc,
                    counts[cname],
                    "%.9g" % row.weighted_auc,
                    row.hyperparams_json,
                ]

    return write_csv(dest, REPORT_HEADER.split(","), rows())


def read_report_csv(path: str | Path | TextIO) -> EvalReport:
    """Rebuild an EvalReport from its CSV form (fold rows regroup by identity)."""
    reader = read_csv(path)
    try:
        header = next(reader)
    except StopIteration:
        raise EvaluationError("report file is empty") from None
    if header != REPORT_HEADER.split(","):
        raise EvaluationError(f"unexpected report header: {','.join(header)}")
    groups: dict[tuple, dict] = {}
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise EvaluationError(f"line {line_no}: expected {len(header)} fields, got {len(row)}")
        try:
            key = (row[0], row[1], row[2], row[3], int(row[4]), int(row[5]))
            cname, auc, q, wavg = row[6], float(row[7]), int(row[8]), float(row[9])
        except ValueError as exc:
            raise EvaluationError(f"line {line_no}: {exc}") from exc
        if key not in groups:
            groups[key] = {"aucs": [], "counts": [], "wavg": wavg, "hyper": row[10]}
        groups[key]["aucs"].append((cname, auc))
        groups[key]["counts"].append((cname, q))
    report = EvalReport()
    for key, g in groups.items():
        report.rows.append(
            FoldResult(
                setting=key[0],
                model=key[1],
                train_origin=key[2],
                test_origin=key[3],
                repetition=key[4],
                fold=key[5],
                class_aucs=tuple(g["aucs"]),
                class_counts=tuple(g["counts"]),
                weighted_auc=g["wavg"],
                hyperparams_json=g["hyper"],
            )
        )
    return report


def aggregate_report(report: EvalReport) -> list[dict[str, object]]:
    """Mean and sample standard deviation of weighted AUC per group."""
    groups: dict[tuple[str, str, str, str], list[float]] = {}
    for row in report.rows:
        key = (row.setting, row.model, row.train_origin, row.test_origin)
        groups.setdefault(key, []).append(row.weighted_auc)
    out = []
    for key in sorted(groups):
        vals = np.array(groups[key])
        out.append(
            {
                "setting": key[0],
                "model": key[1],
                "train_origin": key[2],
                "test_origin": key[3],
                "n_folds": len(vals),
                "mean_weighted_auc": float(vals.mean()),
                "std_weighted_auc": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
            }
        )
    return out


def paired_weighted_aucs(
    report: EvalReport, model_a: str, model_b: str
) -> tuple[np.ndarray, np.ndarray]:
    """Matched per-fold weighted AUCs of two models, aligned by fold identity."""
    def key(row: FoldResult) -> tuple:
        return (row.setting, row.train_origin, row.test_origin, row.repetition, row.fold)

    a_rows = {key(r): r.weighted_auc for r in report.rows if r.model == model_a}
    b_rows = {key(r): r.weighted_auc for r in report.rows if r.model == model_b}
    shared = sorted(set(a_rows) & set(b_rows))
    if not shared:
        raise EvaluationError(f"no matched folds between {model_a!r} and {model_b!r}")
    return (
        np.array([a_rows[k] for k in shared]),
        np.array([b_rows[k] for k in shared]),
    )


#: significance rows, and (model_a, model_b, nonzero differences) of the pairs left untested
Comparison = tuple[list[dict[str, object]], list[tuple[str, str, int]]]


def compare_models(report: EvalReport) -> Comparison:
    """Signed-rank comparison for every unordered model pair in the report.

    A pair with one to ``MIN_SIGNED_RANK_PAIRS - 1`` nonzero paired
    differences is too small for a two-sided test; it is left out of the
    rows and returned as (model_a, model_b, nonzero count) instead. A pair
    whose differences are all zero keeps its degenerate p = 1 row.
    """
    models = sorted({r.model for r in report.rows})
    rows = []
    skipped = []
    for i, a in enumerate(models):
        for b in models[i + 1 :]:
            sa, sb = paired_weighted_aucs(report, a, b)
            nonzero = int(np.count_nonzero(sa - sb))
            if 0 < nonzero < MIN_SIGNED_RANK_PAIRS:
                skipped.append((a, b, nonzero))
                continue
            res = wilcoxon_signed_rank(sa, sb)
            rows.append(
                {
                    "model_a": a,
                    "model_b": b,
                    "n": res.n,
                    "W": res.w,
                    "p_two_sided": res.p,
                    "significant_at_0.05": res.p < 0.05,
                }
            )
    return rows, skipped


def write_significance_csv(rows: list[dict[str, object]], dest: str | Path | TextIO) -> None:
    lines = (
        [
            row["model_a"],
            row["model_b"],
            row["n"],
            "%.9g" % float(row["W"]),
            "%.9g" % float(row["p_two_sided"]),
            str(bool(row["significant_at_0.05"])).lower(),
        ]
        for row in rows
    )
    write_csv(dest, ["model_a", "model_b", "n", "W", "p_two_sided", "significant_at_0.05"], lines)
