"""Acceptance suite: one test per release criterion, one verdict line each.

Each criterion runs inside the ``criterion`` context from conftest, which
records PASS/FAIL for the terminal banner and enforces the runtime budget.
Numeric checks compare against the independent oracles in ``oracles.py``
or against hand-computed constants.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np

from conftest import criterion
from faacflow.cli import orchestrate
from faacflow.evaluation import (
    EvalSettings,
    auc_binary,
    run_holdout_study,
    run_single_dataset,
    run_transfer_matrix,
    weighted_avg_auc,
    wilcoxon_signed_rank,
)
from faacflow.faac import (
    DerivedDataset,
    FaacConfig,
    FeatureSpec,
    Matcher,
    derive_dataset,
    load_faac_config,
    plan_batches,
)
from faacflow.hyperopt import (
    N_CANDIDATES,
    Dimension,
    SearchSpace,
    halton_candidates,
    optimize,
    posterior_variance,
)
from faacflow.ingest import FlowRecord, generate_synthetic, load_source_config
from faacflow.integrate import IntegrationSpec, integrate
from faacflow.learning import (
    build_tree,
    fit_lasso,
    fit_lr,
    fit_pipeline,
    fit_rf,
    logistic_nll_grad,
    predict_proba_lr,
)
from faacflow.seeds import derive_seed

from oracles import (
    auc_by_pairs,
    batch_label_recount,
    best_gini_split,
    fd_gradient,
    wilcoxon_exact_enum,
)

CLASSES = ("Background", "DoS", "PortScanning")


def blobs(n_per=60, p=6, seed=0, spread=0.8):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3, (3, p))
    X = np.vstack([centers[c] + rng.normal(0, spread, (n_per, p)) for c in range(3)])
    y = np.repeat(np.arange(3), n_per)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def counter_dataset(n_per=60, p=6, origin="syn", seed=0):
    rng = np.random.default_rng(seed)
    blocks, ys = [], []
    for ci in range(3):
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
        X=X[perm], y=y[perm], classes=CLASSES,
        origins=(origin,) * n,
        batch_sizes=np.full(n, 100, dtype=np.int64),
    )


# ---------------------------------------------------------------------------


def test_criterion_01_batch_sizing():
    with criterion(1, "batch sizing is exact integer division with a dropped tail", budget_s=1.0):
        plan = plan_batches(2_540_044, 10_000)
        assert plan.batch_size == 254
        assert plan.full_batches == 10_000
        plan = plan_batches(2_540_044, 20_000)
        assert plan.batch_size == 127
        assert plan.full_batches == 20_000
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 10_000_000))
            m = int(rng.integers(1, n + 1))
            p = plan_batches(n, m)
            assert p.batch_size == n // m
            assert p.full_batches == n // (n // m)


# value pools for random flows; dst_port stays out of the partition checks
# because its configured buckets deliberately overlap with the service sets
PARTITIONS = {
    "proto": ("proto_tcp", "proto_udp", "proto_icmp", "proto_other"),
    "src_port": ("src_port_well_known", "src_port_registered", "src_port_ephemeral", "src_port_other"),
    "flags": ("flags_syn", "flags_synack", "flags_ack", "flags_missing", "flags_other"),
    "duration": ("duration_instant", "duration_short", "duration_medium", "duration_long"),
    "packets": ("packets_one", "packets_few", "packets_some", "packets_many"),
    "bytes": ("bytes_small", "bytes_medium", "bytes_large"),
}


def _random_flows(rng, n):
    protos = rng.choice(np.array(["tcp", "udp", "icmp", "gre", "6"]), size=n,
                        p=[0.4, 0.2, 0.1, 0.2, 0.1]).tolist()
    src = rng.integers(-5, 70_000, size=n).astype(float).tolist()
    dst = rng.integers(0, 70_000, size=n).astype(float).tolist()
    dst_gone = (rng.random(n) < 0.2).tolist()
    flags = rng.choice(np.array(["S", "SA", "A", "FA", "R"]), size=n).tolist()
    flags_gone = (rng.random(n) < 0.15).tolist()
    dur = rng.uniform(0.0, 20.0, size=n).tolist()
    pkts = rng.integers(0, 300, size=n).astype(float).tolist()
    byts = rng.integers(0, 100_000, size=n).astype(float).tolist()
    labels = rng.choice(np.array(CLASSES), size=n, p=[0.78, 0.12, 0.10]).tolist()
    records = [
        FlowRecord(
            values={
                "proto": protos[i],
                "src_port": src[i],
                "dst_port": None if dst_gone[i] else dst[i],
                "flags": None if flags_gone[i] else flags[i],
                "duration": dur[i],
                "packets": pkts[i],
                "bytes": byts[i],
            },
            label=labels[i],
            origin="synth",
        )
        for i in range(n)
    ]
    return records, labels


def test_criterion_02_counter_contracts(config_dir):
    with criterion(
        2, "random batches: counters bounded, partitions sum to one, labels match a recount",
        budget_s=30.0,
    ):
        config = load_faac_config(config_dir / "faac_reference.yaml")
        classes = config.taxonomy.classes
        priority = config.full_priority()
        rng = np.random.default_rng(202)
        total_batches = 0
        for B in (3, 5, 9, 17):
            n = 2500 * B
            records, labels = _random_flows(rng, n)
            ds = derive_dataset(records, 2500, config)
            assert ds.n_rows == 2500
            assert np.all(ds.batch_sizes == B)
            total_batches += ds.n_rows

            assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)
            idx = {name: i for i, name in enumerate(ds.feature_names)}
            for group in PARTITIONS.values():
                sums = ds.X[:, [idx[g] for g in group]].sum(axis=1)
                assert float(np.max(np.abs(sums - 1.0))) <= 1e-9

            for i in range(ds.n_rows):
                batch = labels[i * B:(i + 1) * B]
                got = ds.classes[int(ds.y[i])]
                assert got == batch_label_recount(batch, classes, priority)
                clean = all(lbl == "Background" for lbl in batch)
                assert (got == "Background") == clean
        assert total_batches == 10_000


def test_criterion_03_rebalancing():
    with criterion(3, "batch labeling lifts rare attack classes by an order of magnitude"):
        config = FaacConfig(
            features=(
                FeatureSpec("proto_tcp", "proto", Matcher("equals", tokens=("tcp",))),
                FeatureSpec("proto_other", "proto", Matcher("catch_all")),
            ),
            class_priority=("DoS", "PortScanning"),
        )
        total, target = 60_000, 500
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            labels = rng.choice(np.array(CLASSES), size=total,
                                p=[0.9714, 0.0157, 0.0129]).tolist()
            raw_attack = sum(lbl != "Background" for lbl in labels) / total
            records = [
                FlowRecord(values={"proto": "tcp"}, label=lbl, origin="s") for lbl in labels
            ]
            ds = derive_dataset(records, target, config)
            assert int(ds.batch_sizes[0]) == 120  # well above the B >= 100 floor
            derived_attack = float(np.mean(ds.y != 0))
            assert derived_attack >= 10.0 * raw_attack, f"seed {seed}"


def test_criterion_04_logistic_machinery():
    with criterion(
        4, "logistic gradients match finite differences; the l1 path shrinks to empty",
        budget_s=120.0,
    ):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(5, 31))
            p = int(rng.integers(1, 6))
            X1 = np.hstack([np.ones((n, 1)), rng.normal(0, 1, (n, p))])
            y = rng.integers(0, 2, n).astype(np.float64)
            beta = rng.normal(0, 1, p + 1)
            _, g = logistic_nll_grad(beta, X1, y)
            g_fd = fd_gradient(lambda b: logistic_nll_grad(b, X1, y)[0], beta)
            rel = float(np.max(np.abs(g - g_fd))) / max(1.0, float(np.max(np.abs(g))))
            assert rel <= 1e-5

        X, y = blobs(seed=41)
        betas = fit_lr(X, y, 3)
        proba = predict_proba_lr(betas, X)
        assert float(np.max(np.abs(proba.sum(axis=1) - 1.0))) <= 1e-9

        sizes = [len(fit_lasso(X, y, 3, lam).support) for lam in np.logspace(-3, 2, 10)]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == X.shape[1]

        # at the intercept-only optimum the subgradient bound gives the
        # smallest penalty that keeps every coefficient at zero
        X1 = np.hstack([np.ones((len(y), 1)), X])
        bound = 0.0
        for c in range(3):
            yc = (y == c).astype(np.float64)
            pbar = float(yc.mean())
            beta0 = np.zeros(X.shape[1] + 1)
            beta0[0] = np.log(pbar / (1.0 - pbar))
            _, g = logistic_nll_grad(beta0, X1, yc)
            bound = max(bound, float(np.max(np.abs(g[1:]))))
        result = fit_lasso(X, y, 3, 1.01 * bound)
        assert result.support == ()
        assert np.all(result.betas[:, 1:] == 0.0)


def test_criterion_05_tree_splits():
    with criterion(
        5, "tree splits match exhaustive Gini search; forests are seed-stable",
        budget_s=60.0,
    ):
        rng = np.random.default_rng(50)
        for case in range(20):
            Z = rng.integers(0, 5, (50, 4)).astype(np.float64) / 4.0
            y = rng.integers(0, 3, 50)
            tree_seed = 1000 + case
            # replay the bootstrap draw; with m_features = p the tree uses
            # no further randomness, so the resample is the whole story
            idx = np.random.default_rng(tree_seed).integers(0, 50, size=50)
            tree = build_tree(Z, y, 3, tree_seed, max_depth=1, m_features=4, min_leaf=1)
            expected = best_gini_split(Z, y, idx, 3)
            if expected is None:
                assert "f" not in tree
            else:
                assert (tree["f"], tree["t"]) == expected

        X, y = blobs(seed=51)
        a = fit_rf(X, y, 3, n_trees=12, max_depth=6, m_features=2, min_leaf=1, seed=5)
        b = fit_rf(X, y, 3, n_trees=12, max_depth=6, m_features=2, min_leaf=1, seed=5)
        assert json.dumps(a.trees) == json.dumps(b.trees)


def test_criterion_06_rank_statistics():
    with criterion(
        6, "ranking and signed-rank statistics match enumeration oracles",
        budget_s=60.0,
    ):
        rng = np.random.default_rng(60)
        for _ in range(1000):
            n_pos = int(rng.integers(1, 9))
            n_neg = int(rng.integers(1, 9))
            scores = rng.integers(0, 6, n_pos + n_neg).astype(np.float64) / 5.0
            labels = np.array([1] * n_pos + [0] * n_neg)
            assert auc_binary(scores, labels) == auc_by_pairs(scores, labels)

        assert weighted_avg_auc([1.0, 0.5], [3, 1]) == 0.875

        grid = np.array([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0])
        for _ in range(60):
            n = int(rng.integers(5, 13))
            b = rng.normal(0, 1, n)
            a = b + rng.choice(grid, size=n)
            res = wilcoxon_signed_rank(a, b)
            n_o, w_o, p_o = wilcoxon_exact_enum(a, b)
            assert res.n == n_o and res.w == w_o and res.p == p_o

        res = wilcoxon_signed_rank([1.1, 1.2, 1.3, 1.4, 1.5, 1.6], [1.0] * 6)
        assert res.p == 0.03125


def test_criterion_07_surrogate_search():
    with criterion(
        7, "surrogate search recovers a quadratic optimum within tolerance",
        budget_s=60.0,
    ):
        space = SearchSpace((Dimension("x", "float", 0.0, 1.0),))
        errors = []
        for seed in range(10):
            res = optimize(lambda cfg: -(cfg["x"] - 0.3) ** 2, space,
                           seed=seed, n_init=3, n_iter=12)
            errors.append(abs(res.best_config["x"] - 0.3))
        assert float(np.median(errors)) <= 0.05

        res = optimize(lambda cfg: float(np.sin(2.0 * cfg["x"])), space, seed=71, n_init=5, n_iter=1)
        cands = halton_candidates(N_CANDIDATES, 1, seed=derive_seed(71, "candidates"))
        var = posterior_variance(cands[:5], cands)
        var[:5] = -1.0  # grid scan over the still-available candidates
        assert res.trials[5].config == space.decode(cands[int(np.argmax(var))])


def test_criterion_08_evaluation_bookkeeping():
    with criterion(8, "cross-validation bookkeeping is exact and fitting never sees test rows"):
        ds = counter_dataset(seed=80)
        settings = EvalSettings(
            k=5, repetitions=20, models=("lr", "rf"),
            fixed_hyper={"rf": {"n_trees": 8, "max_depth": 4}},
        )
        report = run_single_dataset(ds, settings, seed=8, name="unit")
        for model in ("lr", "rf"):
            rows = [r for r in report.rows if r.model == model]
            assert len(rows) == 100
            assert len({(r.repetition, r.fold) for r in rows}) == 100

        datasets = {name: counter_dataset(seed=81 + i, origin=name)
                    for i, name in enumerate("abc")}
        transfer = run_transfer_matrix(datasets, EvalSettings(models=("lr",)), seed=8)
        assert len(transfer.rows) == 6
        assert {(r.train_origin, r.test_origin) for r in transfer.rows} == {
            (a, b) for a in "abc" for b in "abc" if a != b
        }

        # leakage canary: a column that is constant on train rows but would
        # separate the test rows perfectly must never enter the support
        rng = np.random.default_rng(82)
        X_tr, y_tr = blobs(seed=83)
        y_te = rng.integers(0, 3, 60)
        canary_te = y_te.astype(np.float64) / 2.0 + rng.normal(0, 0.01, 60)
        assert abs(np.corrcoef(canary_te, y_te)[0, 1]) > 0.9
        base = fit_pipeline(X_tr, y_tr, CLASSES, "lr", hyperparams={"lambda": 0.05})
        aug_tr = np.hstack([X_tr, np.full((len(y_tr), 1), 0.37)])
        aug = fit_pipeline(aug_tr, y_tr, CLASSES, "lr", hyperparams={"lambda": 0.05})
        assert aug.support == base.support
        assert X_tr.shape[1] not in aug.support


def test_criterion_09_transfer_study(config_dir):
    with criterion(
        9, "three-source integration clears 0.95 weighted AUC and pairs beat singles",
        budget_s=300.0,
    ):
        faac = load_faac_config(config_dir / "faac_reference.yaml")
        schemas = {
            name: load_source_config(config_dir / f"source_{name}.yaml")
            for name in ("alpha", "beta", "gamma")
        }
        rf = {"n_trees": 60, "max_depth": 10}
        cv_settings = EvalSettings(k=5, repetitions=3, models=("rf",), fixed_hyper={"rf": rf})
        tr_settings = EvalSettings(models=("rf",), fixed_hyper={"rf": rf})
        passed = 0
        for root in (11, 12, 13, 14, 15):
            derived = {}
            for name, schema in schemas.items():
                profile = replace(schema.profile, seed=derive_seed(root, "synth", name))
                records = generate_synthetic(profile, schema)
                derived[name] = derive_dataset(records, 300, faac, n_records=profile.total)
            merged = integrate(list(derived.values()), IntegrationSpec())

            report = run_single_dataset(merged, cv_settings, seed=root, name="integrated")
            cv_auc = float(np.mean([r.weighted_auc for r in report.rows]))
            ok = cv_auc >= 0.95
            study = run_holdout_study(derived, tr_settings, seed=root)
            for held in derived:
                pair_auc, *singles = (r.weighted_auc for r in study.rows if r.test_origin == held)
                ok = ok and (pair_auc > max(singles))
            passed += int(ok)
        assert passed >= 4, f"only {passed}/5 root seeds passed"


MINI_FAAC = """\
taxonomy: [Background, DoS, PortScanning]
class_priority: [DoS, PortScanning]
features:
  - {name: proto_tcp, variable: proto, matcher: {kind: equals, args: {value: tcp}}}
  - {name: proto_udp, variable: proto, matcher: {kind: equals, args: {value: udp}}}
  - {name: proto_other, variable: proto, matcher: {kind: catch_all}}
  - {name: port_low, variable: dst_port, matcher: {kind: numeric_range, args: {lo: 0, hi: 1024}}}
  - {name: port_high, variable: dst_port, matcher: {kind: numeric_range, args: {lo: 1024, hi: 65536}}}
  - {name: bytes_small, variable: bytes, matcher: {kind: numeric_range, args: {lo: 0, hi: 1000}}}
  - {name: bytes_large, variable: bytes, matcher: {kind: numeric_range, args: {lo: 1000, hi: .inf}}}
"""

MINI_SOURCE = """\
dataset:
  id: {sid}
columns:
  - {{name: proto, kind: categorical}}
  - {{name: dst_port, kind: numeric}}
  - {{name: bytes, kind: numeric}}
label_column: label
class_map:
  background: Background
  dos: DoS
  scan: PortScanning
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
      proto: {{kind: choice, values: {{tcp: 0.85, udp: 0.15}}}}
      dst_port: {{kind: choice, values: {{80: 0.5, 443: 0.3, 53: 0.2}}}}
      bytes: {{kind: uniform_int, lo: 200, hi: 2000}}
    DoS:
      proto: {{kind: choice, values: {{udp: 0.9, tcp: 0.1}}}}
      dst_port: {{kind: uniform_int, lo: 49152, hi: 65536}}
      bytes: {{kind: uniform_int, lo: 5000, hi: 20000}}
    PortScanning:
      proto: {{kind: constant, value: tcp}}
      dst_port: {{kind: uniform_int, lo: 1, hi: 1024}}
      bytes: {{kind: uniform_int, lo: 40, hi: 120}}
"""

MINI_PIPELINE = """\
seed: 77
batches: 40
faac: mini_faac.yaml
sources:
  s1: source_s1.yaml
  s2: source_s2.yaml
evaluation:
  models: [lr, rf]
  k: 2
  repetitions: 2
  fixed_hyper:
    rf: {n_trees: 10, max_depth: 4}
  singles: [integrated]
  transfer: true
"""


def test_criterion_10_reproducibility(tmp_path):
    with criterion(10, "identical seeds reproduce every artifact byte for byte"):
        cfg = tmp_path / "cfg"
        cfg.mkdir()
        (cfg / "mini_faac.yaml").write_text(MINI_FAAC, encoding="utf-8")
        (cfg / "source_s1.yaml").write_text(MINI_SOURCE.format(sid="s1", seed=101),
                                            encoding="utf-8")
        (cfg / "source_s2.yaml").write_text(MINI_SOURCE.format(sid="s2", seed=202),
                                            encoding="utf-8")
        (cfg / "pipeline.yaml").write_text(MINI_PIPELINE, encoding="utf-8")

        hashes = []
        for run in ("run1", "run2"):
            out = tmp_path / run
            orchestrate(cfg / "pipeline.yaml", out, seed=77)
            digest = {
                p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            hashes.append(digest)
        first, second = hashes
        assert first.keys() == second.keys()
        for name in ("s1_derived.csv", "integrated_derived.csv", "model_lr.json",
                     "model_rf.json", "report.csv", "manifest.json"):
            assert name in first, name
        mismatched = [k for k in first if first[k] != second[k]]
        assert mismatched == []
