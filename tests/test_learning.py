"""Standardizer, l1 selection, logistic and forest fits, model artifacts."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from faacflow import learning
from faacflow.errors import ConfigError, DataError, EvaluationError
from faacflow.hyperopt import Dimension, SearchSpace, optimize
from faacflow.learning import (
    apply_tree,
    build_tree,
    fit_lasso,
    fit_lr,
    fit_pipeline,
    fit_rf,
    load_model,
    logistic_nll_grad,
    model_to_dict,
    predict_proba_lr,
    predict_proba_rf,
    renormalize_scores,
    resolve_hyperparams,
    save_model,
    standardize_apply,
    standardize_fit,
)

from oracles import best_gini_split, fd_gradient, l1_quadratic_min_enum


def blobs(n_per=40, p=5, n_classes=3, seed=0, spread=1.0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, (n_classes, p))
    X = np.vstack([centers[c] + rng.normal(0.0, spread, (n_per, p)) for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes), n_per)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


# ---------------------------------------------------------------------------
# Standardizer


def test_standardizer_population_std():
    X = np.array([[1.0], [2.0], [3.0]])
    mean, scale = standardize_fit(X)
    assert mean[0] == 2.0
    assert scale[0] == pytest.approx(math.sqrt(2.0 / 3.0))
    z = standardize_apply(X, mean, scale)
    assert z[:, 0] == pytest.approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])
    assert abs(abs(z[0, 0]) - 1.2247) < 1e-4


def test_zero_variance_column_maps_to_zero():
    X = np.array([[5.0, 1.0], [5.0, 2.0]])
    mean, scale = standardize_fit(X)
    z = standardize_apply(X, mean, scale)
    assert np.all(z[:, 0] == 0.0)
    assert scale[0] == 0.0


def test_standardizer_rejects_empty():
    with pytest.raises(DataError):
        standardize_fit(np.empty((0, 3)))


# ---------------------------------------------------------------------------
# Logistic numerics


def test_nll_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    X1 = np.hstack([np.ones((25, 1)), rng.normal(0, 1, (25, 4))])
    y = (rng.random(25) < 0.4).astype(np.float64)
    beta = rng.normal(0, 0.5, 5)
    _, grad = logistic_nll_grad(beta, X1, y)
    fd = fd_gradient(lambda b: logistic_nll_grad(b, X1, y)[0], beta)
    assert np.max(np.abs(grad - fd)) / max(1.0, np.max(np.abs(grad))) < 1e-6


def test_fit_lr_reaches_a_stationary_point():
    X, y = blobs(n_per=30, p=4, seed=1)
    mean, scale = standardize_fit(X)
    Z = standardize_apply(X, mean, scale)
    betas = fit_lr(Z, y, 3)
    X1 = np.hstack([np.ones((Z.shape[0], 1)), Z])
    for c in range(3):
        _, g = logistic_nll_grad(betas[c], X1, (y == c).astype(np.float64))
        assert np.max(np.abs(g)) < 1e-5


def test_fit_lr_probabilities_and_accuracy():
    X, y = blobs(seed=2, spread=0.5)
    Z = standardize_apply(X, *standardize_fit(X))
    betas = fit_lr(Z, y, 3)
    proba = predict_proba_lr(betas, Z)
    assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)
    assert (proba.argmax(axis=1) == y).mean() > 0.95


def test_fit_lr_rejects_single_class():
    Z = np.random.default_rng(0).normal(0, 1, (10, 2))
    with pytest.raises(EvaluationError, match="single class"):
        fit_lr(Z, np.zeros(10, dtype=np.int64), 2)


def test_renormalize_keeps_the_argmax():
    rng = np.random.default_rng(4)
    scores = rng.random((50, 3)) + 1e-6
    out = renormalize_scores(scores)
    assert np.allclose(out.sum(axis=1), 1.0)
    assert np.array_equal(out.argmax(axis=1), scores.argmax(axis=1))


# ---------------------------------------------------------------------------
# l1 selection


def lasso_instance(seed=5):
    X, y = blobs(n_per=40, p=8, seed=seed)
    Z = standardize_apply(X, *standardize_fit(X))
    return Z, y


def kkt_violation(Z, y, betas, lam):
    X1 = np.hstack([np.ones((Z.shape[0], 1)), Z])
    worst = 0.0
    for c in range(betas.shape[0]):
        _, g = logistic_nll_grad(betas[c], X1, (y == c).astype(np.float64))
        worst = max(worst, abs(g[0]))
        for j in range(1, len(g)):
            if betas[c, j] != 0.0:
                worst = max(worst, abs(g[j] + lam * np.sign(betas[c, j])))
            else:
                worst = max(worst, max(abs(g[j]) - lam, 0.0))
    return worst


def test_lasso_satisfies_its_optimality_conditions():
    Z, y = lasso_instance()
    lam = 5.0
    result = fit_lasso(Z, y, 3, lam)
    assert result.converged
    assert kkt_violation(Z, y, result.betas, lam) < 5e-6


def test_lasso_support_shrinks_with_the_penalty():
    Z, y = lasso_instance(seed=6)
    sizes = [len(fit_lasso(Z, y, 3, lam).support) for lam in np.logspace(-3, 2, 6)]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == Z.shape[1]


def penalty_max(Z, y, n_classes):
    """Smallest penalty at which every coefficient of every class is zero."""
    X1 = np.hstack([np.ones((Z.shape[0], 1)), Z])
    lam_max = 0.0
    for c in range(n_classes):
        yc = (y == c).astype(np.float64)
        pbar = yc.mean()
        beta0 = np.zeros(Z.shape[1] + 1)
        beta0[0] = math.log(pbar / (1 - pbar))
        _, g = logistic_nll_grad(beta0, X1, yc)
        lam_max = max(lam_max, np.max(np.abs(g[1:])))
    return lam_max


def test_huge_penalty_empties_the_support():
    Z, y = lasso_instance(seed=7)
    result = fit_lasso(Z, y, 3, penalty_max(Z, y, 3) * 1.01)
    assert result.support == ()
    assert np.all(result.betas[:, 1:] == 0.0)


def test_unpenalized_lasso_agrees_with_plain_logistic():
    Z, y = lasso_instance(seed=8)
    betas_l = fit_lasso(Z, y, 3, 0.0).betas
    betas_r = fit_lr(Z, y, 3)
    pl = predict_proba_lr(betas_l, Z)
    pr = predict_proba_lr(betas_r, Z)
    assert np.max(np.abs(pl - pr)) < 1e-4


def test_lasso_input_contracts():
    Z, y = lasso_instance()
    with pytest.raises(ConfigError):
        fit_lasso(Z, y, 3, -0.1)
    bad = Z.copy()
    bad[0, 0] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        fit_lasso(bad, y, 3, 0.1)


def lasso_digest(result):
    h = hashlib.sha256(result.betas.tobytes())
    h.update(repr((result.support, result.converged, result.n_iter)).encode())
    return h.hexdigest()


def duplicated_and_constant_instance():
    """Blobs plus a copy of column 0 and a constant column (zero curvature once standardized)."""
    X, y = blobs(n_per=30, p=5, seed=13, spread=2.0)
    X = np.hstack([X, X[:, :1], np.full((len(y), 1), 4.0)])
    return standardize_apply(X, *standardize_fit(X)), y


def test_lasso_and_lr_bytes_match_the_recorded_digests():
    # recorded before the pivot and line search were vectorised; every float may change only on purpose.
    # Between them these fits flip signs, release pinned coordinates and ridge a singular Hessian.
    Z, y = lasso_instance(seed=9)
    Zd, yd = duplicated_and_constant_instance()
    fits = {
        "lambda 0": (Z, y, 0.0),
        "lambda 1e-3": (Z, y, 1e-3),
        "lambda 1": (Z, y, 1.0),
        "just under lambda max": (Z, y, 0.97 * penalty_max(Z, y, 3)),
        "duplicated and constant columns": (Zd, yd, 0.05),
    }
    digests = {name: lasso_digest(fit_lasso(Zc, yc, 3, lam)) for name, (Zc, yc, lam) in fits.items()}
    digests["lr"] = hashlib.sha256(fit_lr(Z, y, 3).tobytes()).hexdigest()
    digests["lr, duplicated and constant columns"] = hashlib.sha256(fit_lr(Zd, yd, 3).tobytes()).hexdigest()
    assert digests == {
        "lambda 0": "ecf657e1cf308a9e707a16d10bf588aa24c7c55dc3a97ae96dd04d74c35c2a5c",
        "lambda 1e-3": "2b95dabac333a07ec4504714dd66e2f5c2cef825d7a318da672e7ee5b534bdde",
        "lambda 1": "271de1f9cff7dc7f8461704f10d31e5e5ccb8adbef293cd6d6e7774f80f2172a",
        "just under lambda max": "1fae88e449b913e6dad24e06eab33a45bacb3839a0243437f6a60631410c8fba",
        "duplicated and constant columns": "16c71751a08e658a656d413fd7022bc68f8c61c7411f0f68d7abe0c390f27af9",
        "lr": "4ceada17f6008ca97b3f0d542c08821b76383087fcd309c0e2cd0d375971f20e",
        "lr, duplicated and constant columns": "f797a95751874f1cce4df3db767ea44c2c78bda02dbb23db9083695f5c69bb19",
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pivot_returns_the_enumerated_l1_quadratic_minimizer(data):
    p1 = data.draw(st.integers(2, 6), label="intercept plus coefficients")
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    A = data.draw(hnp.arrays(np.float64, (p1 + 2, p1), elements=unit), label="A")
    G = A.T @ A + np.eye(p1)
    # coordinates without curvature: zero rows and columns keep G positive semidefinite
    flat = data.draw(hnp.arrays(np.bool_, p1), label="uncurved")
    G[flat, :] = 0.0
    G[:, flat] = 0.0
    slope = st.floats(-3.0, 3.0, allow_subnormal=False)
    g = data.draw(hnp.arrays(np.float64, p1, elements=slope), label="g")
    beta0 = data.draw(hnp.arrays(np.float64, p1, elements=st.just(0.0) | unit), label="beta0")
    lam = data.draw(st.just(0.0) | st.floats(0.0, 2.0, allow_subnormal=False), label="lambda")
    b = learning._pivot_quadratic(beta0, g, G, lam)
    ref = l1_quadratic_min_enum(beta0, g, G, lam)
    assert b is not None
    assert np.max(np.abs(b - ref)) <= 1e-8 * max(1.0, np.max(np.abs(ref)))


def test_a_failed_pivot_is_an_evaluation_error(monkeypatch):
    Z, y = lasso_instance()
    monkeypatch.setattr(learning, "_pivot_quadratic", lambda *args: None)
    with pytest.raises(EvaluationError, match="no stationary pattern"):
        fit_lasso(Z, y, 3, 0.1)

    # inside a search the failure scores the trial -inf instead of aborting
    space = SearchSpace((Dimension("lambda", "float", 1e-3, 1.0, log=True),))

    def objective(cfg):
        if cfg["lambda"] < 0.03:
            fit_lasso(Z, y, 3, cfg["lambda"])
        return cfg["lambda"]

    result = optimize(objective, space, seed=2, n_init=4, n_iter=2)
    failed = [t for t in result.trials if t.score == float("-inf")]
    assert failed
    assert all(t.config["lambda"] < 0.03 for t in failed)
    assert all(t.config["lambda"] >= 0.03 for t in result.trials if t not in failed)


# ---------------------------------------------------------------------------
# Trees and forests


def test_root_split_matches_the_exhaustive_oracle():
    rng = np.random.default_rng(9)
    for trial in range(8):
        n, p = 40, 4
        # coarse value grid forces ties the comparison must resolve exactly
        Z = rng.integers(0, 5, (n, p)).astype(np.float64) / 4.0
        y = rng.integers(0, 3, n)
        tree = build_tree(Z, y, 3, tree_seed=trial, max_depth=1, m_features=p, min_leaf=1,
                          bootstrap=False)
        expect = best_gini_split(Z, y, np.arange(n), 3, min_leaf=1)
        if expect is None:
            assert "n" in tree
        else:
            assert (tree["f"], tree["t"]) == expect


def test_min_leaf_limits_split_candidates():
    Z = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 1, 0, 1])
    rows = np.arange(4)
    # unrestricted, the purest cut isolates the first row; two-row leaves force the middle cut
    assert best_gini_split(Z, y, rows, 2, min_leaf=1) == (0, 0.0)
    expect = best_gini_split(Z, y, rows, 2, min_leaf=2)
    assert expect == (0, 1.0)
    tree = build_tree(Z, y, 2, tree_seed=0, max_depth=3, m_features=1, min_leaf=2,
                      bootstrap=False)
    assert (tree["f"], tree["t"]) == expect
    assert tree["l"] == {"n": [1, 1]} and tree["r"] == {"n": [1, 1]}


def assert_splits_match_oracle(node, Z, y, rows, depth, n_classes, max_depth, min_leaf):
    """Every internal node holds the oracle's split over the rows reaching it;
    every leaf holds those rows' class counts and stops for a stated reason."""
    counts = np.bincount(y[rows], minlength=n_classes)
    if "n" in node:
        assert node["n"] == counts.tolist()
        if depth < max_depth and len(rows) >= 2 * min_leaf and counts.max() < len(rows):
            assert best_gini_split(Z, y, rows, n_classes, min_leaf=min_leaf) is None
        return
    expect = best_gini_split(Z, y, rows, n_classes, min_leaf=min_leaf)
    assert (node["f"], node["t"]) == expect, f"depth {depth}, {len(rows)} rows"
    go_left = Z[rows, node["f"]] <= node["t"]
    for child, part in ((node["l"], rows[go_left]), (node["r"], rows[~go_left])):
        assert_splits_match_oracle(child, Z, y, part, depth + 1, n_classes, max_depth, min_leaf)


def test_deep_splits_match_the_exhaustive_oracle():
    rng = np.random.default_rng(22)
    instances = []
    for grid in (4, 100):
        # counters on a 1/grid lattice, as FaaC derives them; the coarse grid forces ties
        for _ in range(3):
            Z = rng.integers(0, grid + 1, (48, 4)).astype(np.float64) / grid
            y = rng.integers(0, 3, 48)
            instances.append((Z, y))
    instances.append(blobs(n_per=16, p=4, seed=23, spread=2.5))
    for trial, (Z, y) in enumerate(instances):
        for min_leaf in (1, 2, 3):
            tree = build_tree(Z, y, 3, tree_seed=trial, max_depth=4, m_features=Z.shape[1],
                              min_leaf=min_leaf, bootstrap=False)
            assert "f" in tree
            assert_splits_match_oracle(tree, Z, y, np.arange(len(y)), 0, 3, 4, min_leaf)


def test_split_pick_compares_near_maximal_ratios_exactly():
    # cell 0 is exactly 2**55 + 3.5 and cell 1 exactly 2**55 + 3, but their float
    # quotients round the other way; a pick by float maximum alone would return 1
    num = np.array([2**56 + 7, 3 * 2**55 + 9], dtype=np.int64)
    den = np.array([2, 3], dtype=np.int64)
    q = num / den
    assert q[1] > q[0]
    assert learning._first_exact_max(num, den) == 0
    # in (feature, code) order the first of equal ratios wins; zero cells never do
    assert learning._first_exact_max(np.array([0, 6, 3, 9]), np.array([1, 2, 1, 3])) == 1


def test_tree_determinism_and_bootstrap_variety():
    Z, y = lasso_instance(seed=10)
    a = build_tree(Z, y, 3, tree_seed=42, max_depth=6, m_features=4, min_leaf=1)
    b = build_tree(Z, y, 3, tree_seed=42, max_depth=6, m_features=4, min_leaf=1)
    assert a == b
    c = build_tree(Z, y, 3, tree_seed=43, max_depth=6, m_features=4, min_leaf=1)
    assert c != a


def test_deep_tree_fits_the_training_data():
    X, y = blobs(n_per=25, p=4, seed=11)
    tree = build_tree(X, y, 3, tree_seed=0, max_depth=50, m_features=4, min_leaf=1,
                      bootstrap=False)
    assert np.array_equal(apply_tree(tree, X), y)


def test_forest_seed_determinism_is_byte_exact():
    Z, y = lasso_instance(seed=12)
    a = fit_rf(Z, y, 3, n_trees=12, max_depth=5, m_features=3, min_leaf=1, seed=7)
    b = fit_rf(Z, y, 3, n_trees=12, max_depth=5, m_features=3, min_leaf=1, seed=7)
    assert json.dumps(a.trees) == json.dumps(b.trees)
    assert a.tree_seeds == b.tree_seeds
    assert len({json.dumps(t) for t in a.trees}) > 1


def quantized_instance():
    """Counters on a 1/100 lattice with a noisy three-class rule over them."""
    rng = np.random.default_rng(21)
    X = rng.integers(0, 101, (240, 7)) / 100.0
    y = np.where(X[:, 0] > 0.6, 0, np.where(X[:, 2] + X[:, 4] > 1.0, 1, 2))
    flip = rng.random(len(y)) < 0.15
    y[flip] = rng.integers(0, 3, int(flip.sum()))
    return X, y


def test_forest_bytes_match_the_recorded_digests():
    # recorded before the split search became a histogram search; tree bytes may change only on purpose
    Z, y = lasso_instance(seed=20)
    forest = fit_rf(Z, y, 3, n_trees=10, max_depth=8, m_features=3, min_leaf=1, seed=4)
    assert hashlib.sha256(json.dumps(forest.trees).encode()).hexdigest() == (
        "c440c5a58d92489cd03d0ff45725e2f0afbf972bd2cfce4a38162b3a08ac5376"
    )
    X, y = quantized_instance()
    forest = fit_rf(X, y, 3, n_trees=10, max_depth=8, m_features=3, min_leaf=2, seed=9)
    assert hashlib.sha256(json.dumps(forest.trees).encode()).hexdigest() == (
        "8ecab921e5845ea54222c72b4cb4cc16fc9e4a43976515b278ad8547ee5eb049"
    )


def tree_depth(node):
    return 0 if "n" in node else 1 + max(tree_depth(node["l"]), tree_depth(node["r"]))


def test_deep_and_ragged_forest_bytes_match_the_recorded_digests():
    # recorded before trees were grown together; every column searched, trees of unequal depth
    X, y = quantized_instance()
    forest = fit_rf(X, y, 3, n_trees=30, max_depth=20, m_features=X.shape[1], min_leaf=3, seed=5)
    assert hashlib.sha256(json.dumps(forest.trees).encode()).hexdigest() == (
        "110335c3ff2bf93cdb66d76aced5c14f9065dde6071109b14db96d3a26d23878"
    )
    # one row each of classes 1 and 2: some bootstrap draws are pure and stop at a root leaf
    rng = np.random.default_rng(31)
    X = rng.integers(0, 41, (24, 4)) / 40.0
    y = np.zeros(24, dtype=np.int64)
    y[5], y[17] = 1, 2
    forest = fit_rf(X, y, 3, n_trees=40, max_depth=8, m_features=2, min_leaf=1, seed=2)
    depths = [tree_depth(tree) for tree in forest.trees]
    assert min(depths) == 0 and max(depths) >= 3
    assert hashlib.sha256(json.dumps(forest.trees).encode()).hexdigest() == (
        "c569843f9435c8a8abf8d63e84bbb4680c0aef7cc7953a5334f651d287a8b860"
    )


def test_forest_votes_match_the_recorded_digest():
    # recorded before prediction became a level-by-level descent
    X, y = quantized_instance()
    forest = fit_rf(X, y, 3, n_trees=10, max_depth=8, m_features=3, min_leaf=2, seed=9)

    def thresholds(node):
        return [] if "n" in node else [(node["f"], node["t"])] + thresholds(node["l"]) + thresholds(node["r"])

    # thresholds are training values, so training rows sit exactly on them
    assert any((X[:, f] == t).any() for tree in forest.trees for f, t in thresholds(tree))
    proba = predict_proba_rf(forest, X)
    assert hashlib.sha256(proba.tobytes()).hexdigest() == (
        "1eb0e491aa59109f5bda6b239067b0c6f68b7723a9d850b529712924a4aa8879"
    )


def transfer_shaped_instance():
    """720 rows, 25 counter-like columns of about 100 values each, three classes."""
    rng = np.random.default_rng(12)
    X = rng.integers(0, 101, (720, 25)) / 100.0
    s = X[:, 0] + X[:, 3] - X[:, 7] + 0.5 * X[:, 11] * X[:, 19]
    y = np.digitize(s, np.quantile(s, [1 / 3, 2 / 3]))
    flip = rng.random(720) < 0.1
    y[flip] = rng.integers(0, 3, int(flip.sum()))
    return X, y


def test_wide_sampled_forest_bytes_match_the_recorded_digests():
    # recorded before the split search picked and partitioned whole groups; shaped like
    # the transfer study's forests: 5 of 25 wide columns sampled per node, depth 10
    X, y = transfer_shaped_instance()
    forest = fit_rf(X, y, 3, n_trees=20, max_depth=10, m_features=5, min_leaf=1, seed=13)
    assert hashlib.sha256(json.dumps(forest.trees).encode()).hexdigest() == (
        "48e84589f5212237b4ea66083a46fc59e408a984fbfb423422564f4a87153418"
    )
    assert hashlib.sha256(predict_proba_rf(forest, X).tobytes()).hexdigest() == (
        "d5de4e66ec887b86196a1cc707f8fe1e7dc3b55fc5ed120815507dc1be1a2731"
    )


def test_forest_zero_thresholds_keep_the_sign_of_the_last_drawn_row():
    # a threshold is the value of the node's last-drawn row in its cell, so on a column
    # holding both -0.0 and 0.0 the bootstrap draw order decides each zero threshold's sign
    rng = np.random.default_rng(43)
    X = np.empty((36, 2))
    X[:, 0] = rng.integers(1, 9, 36) / 8.0
    X[:12, 0] = np.where(np.arange(12) % 2 == 0, -0.0, 0.0)
    X[:, 1] = rng.integers(0, 5, 36) / 4.0
    y = np.where(X[:, 0] == 0.0, 0, 1 + (X[:, 0] > 0.5))
    y[rng.random(36) < 0.15] = 0
    forest = fit_rf(X, y, 3, n_trees=6, max_depth=4, m_features=2, min_leaf=1, seed=2)

    def zero_thresholds(node):
        if "n" in node:
            return []
        here = [math.copysign(1.0, node["t"])] if node["f"] == 0 and node["t"] == 0.0 else []
        return here + zero_thresholds(node["l"]) + zero_thresholds(node["r"])

    signs = [s for tree in forest.trees for s in zero_thresholds(tree)]
    assert -1.0 in signs and 1.0 in signs
    assert hashlib.sha256(json.dumps(forest.trees).encode()).hexdigest() == (
        "3659c096ec8048c953e32ee6af4b66bb2ea41e337743adae60c9d4e6f00185cc"
    )


def test_forest_hyperparameter_contracts():
    Z, y = lasso_instance()
    with pytest.raises(ConfigError):
        fit_rf(Z, y, 3, n_trees=0, max_depth=5, m_features=3, min_leaf=1, seed=0)
    with pytest.raises(ConfigError):
        fit_rf(Z, y, 3, n_trees=5, max_depth=0, m_features=3, min_leaf=1, seed=0)
    with pytest.raises(ConfigError):
        fit_rf(Z, y, 3, n_trees=5, max_depth=5, m_features=99, min_leaf=1, seed=0)
    with pytest.raises(ConfigError):
        fit_rf(Z, y, 3, n_trees=5, max_depth=5, m_features=3, min_leaf=0, seed=0)


def test_tree_features_per_split_are_checked_like_the_forest():
    Z, y = lasso_instance()
    for m in (0, Z.shape[1] + 1):
        with pytest.raises(ConfigError, match="features per split"):
            build_tree(Z, y, 3, tree_seed=0, max_depth=3, m_features=m, min_leaf=1)
    # no columns at all (an empty l1 support) still grows a root leaf
    empty = np.empty((len(y), 0))
    assert "n" in build_tree(empty, y, 3, tree_seed=0, max_depth=3, m_features=0, min_leaf=1)
    forest = fit_rf(empty, y, 3, n_trees=2, max_depth=3, m_features=0, min_leaf=1, seed=0)
    assert all("n" in tree for tree in forest.trees)


def test_forest_probabilities_are_vote_fractions():
    Z, y = lasso_instance(seed=14)
    forest = fit_rf(Z, y, 3, n_trees=10, max_depth=6, m_features=3, min_leaf=1, seed=3)
    proba = predict_proba_rf(forest, Z)
    assert np.allclose(proba.sum(axis=1), 1.0)
    votes = proba * 10
    assert np.allclose(votes, np.round(votes))


# ---------------------------------------------------------------------------
# Pipeline models and artifacts


def test_pipeline_excludes_constant_columns():
    X, y = blobs(n_per=30, p=4, seed=15)
    X = np.hstack([X, np.full((X.shape[0], 1), 3.7)])
    model = fit_pipeline(X, y, ("Background", "DoS", "PortScanning"), "lr",
                         hyperparams={"lambda": 0.05})
    assert 4 not in model.support
    proba = model.predict_proba(X)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert model.n_features_in == 5


def test_pipeline_transform_checks_width():
    X, y = blobs(n_per=20, p=3, seed=16)
    model = fit_pipeline(X, y, ("a", "b", "c"), "lr")
    with pytest.raises(DataError):
        model.predict_proba(X[:, :2])


def test_model_round_trip_preserves_predictions(tmp_path):
    X, y = blobs(n_per=30, p=5, seed=17)
    classes = ("Background", "DoS", "PortScanning")
    for kind, hp in (("lr", {"lambda": 0.1}), ("rf", {"n_trees": 8, "max_depth": 4})):
        model = fit_pipeline(X, y, classes, kind, hyperparams=hp, seed=11,
                             provenance={"dataset": "unit"})
        path = tmp_path / f"{kind}.json"
        save_model(model, path)
        back = load_model(path)
        assert back.kind == kind
        assert back.classes == classes
        assert back.provenance == {"dataset": "unit"}
        assert np.allclose(back.predict_proba(X), model.predict_proba(X))
        assert np.array_equal(back.predict(X), model.predict(X))


def test_model_file_is_deterministic(tmp_path):
    X, y = blobs(n_per=25, p=4, seed=18)
    paths = []
    for i in range(2):
        model = fit_pipeline(X, y, ("a", "b", "c"), "rf",
                             hyperparams={"n_trees": 6, "max_depth": 4}, seed=5)
        p = tmp_path / f"m{i}.json"
        save_model(model, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_load_model_rejects_foreign_files(tmp_path):
    p = tmp_path / "x.json"
    p.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(DataError, match="artifact"):
        load_model(p)


def test_model_dict_carries_the_format_tag():
    X, y = blobs(n_per=20, p=3, seed=19)
    model = fit_pipeline(X, y, ("a", "b", "c"), "lr")
    doc = model_to_dict(model)
    assert doc["format"] == "faacflow-model-v1"
    assert doc["n_features_in"] == 3
    assert "standardizer" in doc and "classifier" in doc


def test_resolve_hyperparams_merges_and_validates():
    assert resolve_hyperparams("lr", None)["lambda"] == 0.1
    merged = resolve_hyperparams("rf", {"n_trees": 250})
    assert merged["n_trees"] == 250
    assert merged["max_depth"] == 10
    with pytest.raises(ConfigError, match="unknown hyperparameter"):
        resolve_hyperparams("lr", {"depth": 3})
    with pytest.raises(ConfigError, match="unknown model kind"):
        resolve_hyperparams("svm", None)


@settings(max_examples=40, deadline=None)
@given(
    scores=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(2, 4)),
        elements=st.floats(min_value=1e-9, max_value=1e6),
    )
)
def test_renormalized_rows_always_sum_to_one(scores):
    out = renormalize_scores(scores)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
