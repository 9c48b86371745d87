"""Folds, ranking metrics, the signed-rank test, and the evaluation drivers."""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faacflow.errors import EvaluationError
from faacflow.evaluation import (
    EvalReport,
    EvalSettings,
    FoldResult,
    aggregate_report,
    auc_binary,
    compare_models,
    paired_weighted_aucs,
    read_report_csv,
    run_cross_dataset,
    run_holdout_study,
    run_single_dataset,
    run_transfer_matrix,
    score_fold,
    significance_rows,
    stratified_folds,
    weighted_avg_auc,
    wilcoxon_signed_rank,
    write_report_csv,
    write_significance_csv,
)
from faacflow.faac import DerivedDataset, derive_dataset, load_faac_config
from faacflow.ingest import generate_synthetic, load_source_config
from faacflow.learning import fit_pipeline
from faacflow.seeds import derive_seed

from oracles import auc_by_pairs, auc_trapezoid, wilcoxon_exact_enum

FULL = ("Background", "DoS", "PortScanning")


def counter_dataset(n_per=30, p=6, origin="syn", seed=0, classes=FULL):
    """Class-separable rows that satisfy the [0, 1] counter contract."""
    rng = np.random.default_rng(seed)
    blocks, ys = [], []
    for ci in range(len(classes)):
        block = rng.uniform(0.05, 0.35, (n_per, p))
        block[:, ci % p] += 0.5
        blocks.append(block)
        ys.append(np.full(n_per, ci, dtype=np.int64))
    X = np.clip(np.vstack(blocks), 0.0, 1.0)
    y = np.concatenate(ys)
    perm = rng.permutation(len(y))
    n = len(y)
    return DerivedDataset(
        feature_names=tuple(f"c{i}" for i in range(p)),
        X=X[perm],
        y=y[perm],
        classes=tuple(classes),
        origins=(origin,) * n,
        batch_sizes=np.full(n, 100, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Stratified folds


def test_folds_cover_and_partition():
    y = np.array([0] * 20 + [1] * 11 + [2] * 7)
    folds = stratified_folds(y, 4, seed=1)
    allidx = np.concatenate(folds)
    assert len(allidx) == len(y)
    assert len(set(allidx.tolist())) == len(y)


def test_folds_balance_every_class():
    y = np.array([0] * 23 + [1] * 9 + [2] * 6)
    folds = stratified_folds(y, 5, seed=2)
    for c in range(3):
        per_fold = [int((y[f] == c).sum()) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 3  # one straggler per class at most


def test_folds_are_deterministic_per_seed():
    y = np.array([0, 1] * 15)
    a = stratified_folds(y, 3, seed=7)
    b = stratified_folds(y, 3, seed=7)
    assert all(np.array_equal(x, z) for x, z in zip(a, b))
    c = stratified_folds(y, 3, seed=8)
    assert any(not np.array_equal(x, z) for x, z in zip(a, c))


def test_folds_need_k_rows_per_class():
    y = np.array([0] * 10 + [1] * 2)
    with pytest.raises(EvaluationError):
        stratified_folds(y, 3, seed=0)
    with pytest.raises(EvaluationError):
        stratified_folds(y, 1, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=4, max_value=20), min_size=2, max_size=4),
    seed=st.integers(0, 1000),
)
def test_fold_property_per_class_counts_differ_by_at_most_one(counts, seed):
    y = np.concatenate([np.full(c, i) for i, c in enumerate(counts)])
    folds = stratified_folds(y, 4, seed=seed)
    for ci in range(len(counts)):
        per_fold = [int((y[f] == ci).sum()) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


# ---------------------------------------------------------------------------
# AUC


def test_auc_hand_case():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert auc_binary(scores, labels) == 0.75


def test_auc_extremes_and_ties():
    assert auc_binary(np.array([0.0, 1.0]), np.array([0, 1])) == 1.0
    assert auc_binary(np.array([1.0, 0.0]), np.array([0, 1])) == 0.0
    assert auc_binary(np.array([0.5, 0.5]), np.array([0, 1])) == 0.5


def test_auc_needs_both_classes():
    with pytest.raises(EvaluationError):
        auc_binary(np.array([0.1, 0.2]), np.array([1, 1]))


@settings(max_examples=150, deadline=None)
@given(
    pos=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=8),
    neg=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=8),
)
def test_auc_equals_pair_counting_and_trapezoid(pos, neg):
    scores = np.array(pos + neg)
    labels = np.array([1] * len(pos) + [0] * len(neg))
    auc = auc_binary(scores, labels)
    assert auc == auc_by_pairs(scores, labels)
    assert abs(auc - auc_trapezoid(scores, labels)) <= 1e-12
    flipped = auc_binary(scores, 1 - labels)
    assert auc + flipped == pytest.approx(1.0, abs=1e-12)


def test_weighted_auc_hand_cases():
    assert weighted_avg_auc([1.0, 0.5], [3, 1]) == 0.875
    assert weighted_avg_auc([0.9, 0.8], [1, 1]) == pytest.approx(0.85)
    aucs = [0.6, 0.9, 0.75]
    w = weighted_avg_auc(aucs, [5, 2, 3])
    assert min(aucs) <= w <= max(aucs)


def test_weighted_auc_contracts():
    with pytest.raises(EvaluationError):
        weighted_avg_auc([0.5], [1, 2])
    with pytest.raises(EvaluationError):
        weighted_avg_auc([], [])
    with pytest.raises(EvaluationError):
        weighted_avg_auc([0.5], [0])


# ---------------------------------------------------------------------------
# Signed-rank test


def test_wilcoxon_all_positive_n6():
    a = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    res = wilcoxon_signed_rank([x + 1 for x in a], [1.0] * 6)
    assert res.n == 6
    assert res.w == 0.0
    assert res.p == 0.03125
    assert res.method == "exact"


def test_wilcoxon_matches_full_enumeration():
    rng = np.random.default_rng(11)
    grid = np.array([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
    for _ in range(60):
        n = int(rng.integers(5, 13))
        d = rng.choice(grid, size=n)
        b = rng.normal(0, 1, n)
        a = b + d
        res = wilcoxon_signed_rank(a, b)
        n_o, w_o, p_o = wilcoxon_exact_enum(a, b)
        assert res.n == n_o
        assert res.w == w_o
        assert res.p == p_o


def test_wilcoxon_normal_branch_tracks_the_exact_one():
    rng = np.random.default_rng(12)
    for _ in range(5):
        d = rng.normal(0.2, 1.0, 20)
        d[d == 0] = 0.1
        b = rng.normal(0, 1, 20)
        a = b + d
        exact = wilcoxon_signed_rank(a, b, method="exact")
        normal = wilcoxon_signed_rank(a, b, method="normal")
        assert exact.method == "exact" and normal.method == "normal"
        assert abs(exact.p - normal.p) <= 0.01


def test_wilcoxon_is_symmetric_in_its_arguments():
    a = [0.3, 0.5, 0.1, 0.9, 0.7, 0.2, 0.8]
    b = [0.1, 0.6, 0.2, 0.4, 0.5, 0.3, 0.6]
    assert wilcoxon_signed_rank(a, b).p == wilcoxon_signed_rank(b, a).p


def test_wilcoxon_degenerate_and_tiny_inputs():
    res = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
    assert res.p == 1.0 and res.method == "degenerate"
    with pytest.raises(EvaluationError, match="nonzero differences"):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(EvaluationError):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])
    with pytest.raises(EvaluationError):
        wilcoxon_signed_rank([1.0] * 5, [0.0] * 5, method="median")


def test_wilcoxon_zero_differences_are_dropped():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    b = [1.0, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]  # first pair ties
    res = wilcoxon_signed_rank(a, b)
    assert res.n == 6


# ---------------------------------------------------------------------------
# Fold scoring


def test_score_fold_reports_per_class_aucs_and_counts():
    ds = counter_dataset(seed=20)
    model = fit_pipeline(ds.X, ds.y, ds.classes, "lr", hyperparams={"lambda": 0.01})
    aucs, counts, wavg = score_fold(model, ds.X, ds.y, ds.classes)
    assert [name for name, _ in aucs] == list(FULL)
    assert sum(q for _, q in counts) == ds.n_rows
    assert wavg > 0.9


def test_score_fold_skips_absent_classes():
    ds = counter_dataset(seed=21)
    model = fit_pipeline(ds.X, ds.y, ds.classes, "lr", hyperparams={"lambda": 0.01})
    keep = ds.y != 2
    aucs, counts, _ = score_fold(model, ds.X[keep], ds.y[keep], ds.classes)
    assert [name for name, _ in aucs] == ["Background", "DoS"]
    assert sum(q for _, q in counts) == int(keep.sum())


def test_score_fold_needs_two_classes():
    ds = counter_dataset(seed=22)
    model = fit_pipeline(ds.X, ds.y, ds.classes, "lr", hyperparams={"lambda": 0.01})
    only = ds.y == 0
    with pytest.raises(EvaluationError, match="single class"):
        score_fold(model, ds.X[only], ds.y[only], ds.classes)


# ---------------------------------------------------------------------------
# Evaluation drivers


FAST_RF = {"rf": {"n_trees": 8, "max_depth": 4}}


def test_single_dataset_emits_k_times_r_rows_per_model():
    ds = counter_dataset(seed=23)
    settings_ = EvalSettings(k=3, repetitions=2, models=("lr", "rf"), fixed_hyper=FAST_RF)
    report = run_single_dataset(ds, settings_, seed=5, name="unit")
    assert len(report.rows) == 3 * 2 * 2
    for model in ("lr", "rf"):
        keys = {(r.repetition, r.fold) for r in report.rows if r.model == model}
        assert keys == {(r, f) for r in (1, 2) for f in (1, 2, 3)}
    # folds are shared between models: matched rows carry identical counts
    by_key = {}
    for r in report.rows:
        by_key.setdefault((r.repetition, r.fold), set()).add(r.class_counts)
    assert all(len(v) == 1 for v in by_key.values())
    row = report.rows[0]
    assert row.setting == "single-dataset"
    assert row.train_origin == row.test_origin == "unit"
    assert "lambda" in json.loads(row.hyperparams_json)
    assert 0.0 <= row.weighted_auc <= 1.0


def test_single_dataset_is_deterministic():
    ds = counter_dataset(seed=24)
    settings_ = EvalSettings(k=3, repetitions=1, models=("lr",))
    a = run_single_dataset(ds, settings_, seed=9)
    b = run_single_dataset(ds, settings_, seed=9)
    assert a.rows == b.rows


def test_tuning_runs_once_per_model_and_reuses_the_config():
    ds = counter_dataset(seed=25)
    settings_ = EvalSettings(
        k=3, repetitions=2, models=("lr",), tune=True, tune_once=True,
        n_init=2, n_iter=2,
    )
    report = run_single_dataset(ds, settings_, seed=6, name="unit")
    assert len(report.trial_runs) == 1
    run = report.trial_runs[0]
    assert run.model == "lr"
    assert len(run.trials) == 4
    tuned = {r.hyperparams_json for r in report.rows}
    assert len(tuned) == 1  # every fold reuses the tuned configuration


def test_tuned_forest_runs_on_one_feature():
    ds = counter_dataset(seed=31, p=1, classes=FULL[:2])
    settings_ = EvalSettings(k=2, repetitions=1, models=("rf",), tune=True, n_init=2, n_iter=1)
    report = run_single_dataset(ds, settings_, seed=4, name="unit")
    assert len(report.rows) == 2
    assert all("m_features" not in t.config for t in report.trial_runs[0].trials)


def test_cross_dataset_scores_the_held_out_source():
    train = counter_dataset(seed=26, origin="a")
    test = counter_dataset(seed=27, origin="b")
    settings_ = EvalSettings(models=("lr", "rf"), fixed_hyper=FAST_RF)
    report = run_cross_dataset(train, test, settings_, seed=3)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.setting == "cross-dataset"
        assert row.train_origin == "a" and row.test_origin == "b"
        assert row.repetition == row.fold == 1
        assert row.weighted_auc > 0.8  # same generative recipe transfers


def test_cross_dataset_requires_matching_features():
    train = counter_dataset(seed=28, p=6)
    test = counter_dataset(seed=29, p=5)
    with pytest.raises(EvaluationError, match="different feature lists"):
        run_cross_dataset(train, test, EvalSettings(models=("lr",)), seed=0)


def test_transfer_matrix_covers_all_ordered_pairs():
    datasets = {name: counter_dataset(seed=30 + i, origin=name) for i, name in enumerate("abc")}
    settings_ = EvalSettings(models=("lr",))
    report = run_transfer_matrix(datasets, settings_, seed=4)
    pairs = {(r.train_origin, r.test_origin) for r in report.rows}
    assert len(report.rows) == 6
    assert pairs == {(a, b) for a in "abc" for b in "abc" if a != b}
    with pytest.raises(EvaluationError):
        run_transfer_matrix({"a": datasets["a"]}, settings_, seed=0)


def test_holdout_study_bytes_match_the_recorded_digest(config_dir):
    # recorded from the hand-written merged-then-singles loop the study replaced;
    # pins the row order across models and the seeds drawn from train/test names
    faac = load_faac_config(config_dir / "faac_reference.yaml")
    derived = {}
    for name in ("alpha", "beta", "gamma"):
        schema = load_source_config(config_dir / f"source_{name}.yaml")
        profile = replace(schema.profile, seed=derive_seed(11, "synth", name))
        derived[name] = derive_dataset(generate_synthetic(profile, schema), 100, faac, n_records=profile.total)
    settings_ = EvalSettings(models=("lr", "rf"), fixed_hyper={"rf": {"n_trees": 10, "max_depth": 6}})
    report = run_holdout_study(derived, settings_, seed=11)
    assert [(r.train_origin, r.test_origin, r.model) for r in report.rows[:6]] == [
        ("beta+gamma", "alpha", "lr"), ("beta+gamma", "alpha", "rf"),
        ("beta", "alpha", "lr"), ("beta", "alpha", "rf"),
        ("gamma", "alpha", "lr"), ("gamma", "alpha", "rf"),
    ]
    assert [r.test_origin for r in report.rows[::6]] == ["alpha", "beta", "gamma"]
    buf = io.StringIO()
    write_report_csv(report, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "c9120295013e58560b5ddcabb7dcfc9421c268ddff76baf612d5277503d7bcf1"
    )
    with pytest.raises(EvaluationError, match="at least three"):
        run_holdout_study({n: derived[n] for n in ("alpha", "beta")}, settings_, seed=11)


# ---------------------------------------------------------------------------
# Report files


def small_report():
    ds = counter_dataset(seed=31)
    settings_ = EvalSettings(k=3, repetitions=2, models=("lr", "rf"), fixed_hyper=FAST_RF)
    return run_single_dataset(ds, settings_, seed=7, name="unit")


def test_report_csv_round_trip_reaches_a_fixed_point():
    report = small_report()
    buf = io.StringIO()
    n_lines = write_report_csv(report, buf)
    assert n_lines == sum(len(r.class_aucs) for r in report.rows)
    buf.seek(0)
    back = read_report_csv(buf)
    assert len(back.rows) == len(report.rows)
    for r1, r2 in zip(back.rows, report.rows):
        assert (r1.setting, r1.model, r1.repetition, r1.fold) == (
            r2.setting, r2.model, r2.repetition, r2.fold)
        assert r1.weighted_auc == pytest.approx(r2.weighted_auc, abs=1e-8)
    again = io.StringIO()
    write_report_csv(back, again)
    assert again.getvalue() == buf.getvalue()


def test_reading_an_empty_report_is_an_error(tmp_path):
    p = tmp_path / "report.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(EvaluationError, match="report file is empty"):
        read_report_csv(p)
    p.write_text("setting,who\nx,y\n", encoding="utf-8")
    with pytest.raises(EvaluationError, match="header"):
        read_report_csv(p)


def mk_row(model, rep, fold, wauc, setting="single"):
    return FoldResult(
        setting=setting, model=model, train_origin="d", test_origin="d",
        repetition=rep, fold=fold,
        class_aucs=(("Background", wauc), ("DoS", wauc)),
        class_counts=(("Background", 3), ("DoS", 1)),
        weighted_auc=wauc, hyperparams_json="{}",
    )


def test_aggregate_report_mean_and_sample_std():
    report = EvalReport(rows=[mk_row("lr", 1, 1, 0.8), mk_row("lr", 1, 2, 0.9)])
    agg = aggregate_report(report)
    assert len(agg) == 1
    assert agg[0]["mean_weighted_auc"] == pytest.approx(0.85)
    assert agg[0]["std_weighted_auc"] == pytest.approx(np.std([0.8, 0.9], ddof=1))
    assert agg[0]["n_folds"] == 2


def test_paired_aucs_align_by_fold_identity():
    rows = [mk_row("lr", r, f, 0.8 + 0.01 * f) for r in (1, 2) for f in (1, 2, 3)]
    rows += [mk_row("rf", r, f, 0.9 + 0.01 * f) for r in (1, 2) for f in (1, 2, 3)]
    a, b = paired_weighted_aucs(EvalReport(rows=rows), "lr", "rf")
    assert len(a) == 6
    assert np.all(b - a == pytest.approx(0.1))
    with pytest.raises(EvaluationError, match="no matched folds"):
        paired_weighted_aucs(EvalReport(rows=rows[:6]), "lr", "rf")


def test_significance_rows_flag_consistent_differences():
    rows = []
    deltas = [0.02, 0.03, 0.025, 0.04, 0.03, 0.05, 0.02, 0.03]
    for i, d in enumerate(deltas):
        rows.append(mk_row("lr", 1, i + 1, 0.85))
        rows.append(mk_row("rf", 1, i + 1, 0.85 + d))
    sig = significance_rows(EvalReport(rows=rows))
    assert len(sig) == 1
    assert sig[0]["model_a"] == "lr" and sig[0]["model_b"] == "rf"
    assert sig[0]["n"] == 8
    assert sig[0]["p_two_sided"] < 0.05
    assert sig[0]["significant_at_0.05"] is True
    buf = io.StringIO()
    write_significance_csv(sig, buf)
    assert buf.getvalue().splitlines()[0] == "model_a,model_b,n,W,p_two_sided,significant_at_0.05"


def test_model_pairs_with_too_few_differences_are_left_untested():
    rows = []
    for i, d in enumerate([0.02, -0.01, 0.03, 0.0]):
        rows.append(mk_row("lr", 1, i + 1, 0.85))
        rows.append(mk_row("rf", 1, i + 1, 0.85 + d))
    report = EvalReport(rows=rows)
    assert compare_models(report) == ([], [("lr", "rf", 3)])
    assert significance_rows(report) == []
    # all-zero differences stay a degenerate p = 1 row
    tied = EvalReport(rows=[mk_row(m, 1, i + 1, 0.9) for i in range(3) for m in ("lr", "rf")])
    (row,), skipped = compare_models(tied)
    assert skipped == [] and row["n"] == 0 and row["p_two_sided"] == 1.0
