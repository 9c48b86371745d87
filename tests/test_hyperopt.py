"""Search space arithmetic, GP surrogate numerics, and the trial loop."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from faacflow.errors import ConfigError, EvaluationError
from faacflow.hyperopt import (
    Dimension,
    SearchSpace,
    TrialRow,
    default_space,
    gp_fit,
    gp_predict,
    halton_candidates,
    optimize,
    propose_next,
    write_trial_log,
)

from oracles import gp_posterior_dense


# ---------------------------------------------------------------------------
# Dimensions and spaces


def test_float_dimension_interpolates_linearly():
    d = Dimension("x", "float", 0.0, 10.0)
    assert d.from_unit(0.25) == 2.5
    assert d.to_unit(2.5) == 0.25
    assert d.from_unit(-0.5) == 0.0  # clamped
    assert d.from_unit(1.5) == 10.0


def test_log_dimension_interpolates_geometrically():
    d = Dimension("lam", "float", 1e-4, 1e0, log=True)
    assert d.from_unit(0.5) == pytest.approx(1e-2)
    assert d.to_unit(1e-2) == pytest.approx(0.5)
    assert d.from_unit(0.0) == pytest.approx(1e-4)


def test_int_dimension_rounds_and_clamps():
    d = Dimension("n", "int", 1, 10)
    assert d.from_unit(0.0) == 1
    assert d.from_unit(1.0) == 10
    assert d.from_unit(0.5) == round(1 + 0.5 * 9)
    assert isinstance(d.from_unit(0.3), int)


def test_dimension_validation():
    with pytest.raises(ConfigError):
        Dimension("x", "enum", 0, 1)
    with pytest.raises(ConfigError):
        Dimension("x", "float", 2, 2)
    with pytest.raises(ConfigError):
        Dimension("x", "float", 0, 1, log=True)


def test_space_decode_encode_round_trip():
    space = SearchSpace((Dimension("a", "float", 0, 1), Dimension("b", "int", 2, 8)))
    u = np.array([0.3, 0.7])
    cfg = space.decode(u)
    back = space.encode(cfg)
    assert back[0] == pytest.approx(0.3)
    assert space.decode(back) == cfg
    with pytest.raises(ConfigError):
        SearchSpace(())
    with pytest.raises(ConfigError):
        SearchSpace((Dimension("a", "float", 0, 1), Dimension("a", "float", 0, 1)))


def test_default_spaces():
    lr = default_space("lr", 10)
    assert [d.name for d in lr.dimensions] == ["lambda"]
    assert lr.dimensions[0].log
    rf = default_space("rf", 10)
    names = [d.name for d in rf.dimensions]
    assert "n_trees" in names and "max_depth" in names and "m_features" in names
    m = next(d for d in rf.dimensions if d.name == "m_features")
    assert m.hi == 10
    with pytest.raises(ConfigError):
        default_space("svm", 3)


# ---------------------------------------------------------------------------
# Candidate sets


def test_halton_candidates_shape_and_range():
    c = halton_candidates(64, 3, seed=1)
    assert c.shape == (64, 3)
    assert np.all((c >= 0.0) & (c < 1.0))
    assert np.array_equal(c, halton_candidates(64, 3, seed=1))
    assert not np.array_equal(c, halton_candidates(64, 3, seed=2))
    with pytest.raises(ConfigError):
        halton_candidates(10, 16, seed=0)


def test_halton_candidates_cover_the_cube_evenly():
    c = halton_candidates(256, 2, seed=3)
    for dim in range(2):
        hist, _ = np.histogram(c[:, dim], bins=4, range=(0, 1))
        assert hist.min() >= 48  # 64 expected per bin


# ---------------------------------------------------------------------------
# GP surrogate


def test_gp_posterior_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for d in (1, 2):
        X = rng.random((7, d))
        y = rng.normal(0, 1, 7)
        Xq = rng.random((23, d))
        gp = gp_fit(X, y, lengthscale=0.2, signal_var=1.0, noise=1e-6)
        mean, var = gp_predict(gp, Xq)
        mean_o, var_o = gp_posterior_dense(X, y, Xq, 0.2, 1.0, 1e-6)
        assert np.allclose(mean, mean_o, atol=1e-8)
        assert np.allclose(var, var_o, atol=1e-8)


def test_noise_free_gp_interpolates():
    X = np.array([[0.1], [0.45], [0.8]])
    y = np.array([1.0, -0.5, 0.25])
    gp = gp_fit(X, y, noise=0.0)
    mean, var = gp_predict(gp, X)
    assert np.max(np.abs(mean - y)) <= 1e-8
    assert np.all(var < 1e-6)


def test_contradictory_noise_free_observations_are_fatal():
    X = np.array([[0.5], [0.5]])
    y = np.array([0.0, 1.0])
    with pytest.raises(EvaluationError):
        gp_fit(X, y, noise=0.0)


def test_gp_fit_checks_lengths():
    with pytest.raises(EvaluationError, match="count"):
        gp_fit(np.zeros((3, 1)), np.zeros(2))


# ---------------------------------------------------------------------------
# Acquisition


def test_proposal_is_the_variance_maximizer():
    rng = np.random.default_rng(6)
    grid = np.linspace(0, 1, 41)[:, None]
    for trial in range(5):
        X = rng.random((4, 1))
        y = rng.normal(0, 1, 4)
        gp = gp_fit(X, y)
        _, var = gp_predict(gp, grid)
        assert propose_next(gp, grid) == int(np.argmax(var))


def test_proposal_respects_exclusions():
    grid = np.linspace(0, 1, 9)[:, None]
    assert propose_next(None, grid) == 0
    assert propose_next(None, grid, excluded=[0, 1]) == 2
    gp = gp_fit(np.array([[0.5]]), np.array([1.0]))
    _, var = gp_predict(gp, grid)
    best = int(np.argmax(var))
    second = propose_next(gp, grid, excluded=[best])
    assert second != best
    with pytest.raises(EvaluationError, match="exhausted"):
        propose_next(gp, grid, excluded=list(range(9)))


# ---------------------------------------------------------------------------
# Trial loop


def quad_space():
    return SearchSpace((Dimension("x", "float", 0.0, 1.0),))


def test_optimize_budget_validation():
    objective = lambda cfg: 0.0  # noqa: E731
    with pytest.raises(ConfigError):
        optimize(objective, quad_space(), seed=0, n_init=0)
    with pytest.raises(ConfigError):
        optimize(objective, quad_space(), seed=0, n_iter=-1)
    with pytest.raises(ConfigError):
        optimize(objective, quad_space(), seed=0, n_init=5, n_iter=20, n_candidates=10)


def test_optimize_never_repeats_a_configuration():
    seen = []

    def objective(cfg):
        seen.append(cfg["x"])
        return -((cfg["x"] - 0.3) ** 2)

    result = optimize(objective, quad_space(), seed=1, n_init=3, n_iter=9)
    assert len(seen) == len(set(seen))
    assert len(result.trials) == len(seen)
    assert result.best_score == max(t.score for t in result.trials)


def test_optimize_is_deterministic():
    objective = lambda cfg: math.sin(7 * cfg["x"])  # noqa: E731
    a = optimize(objective, quad_space(), seed=9, n_init=3, n_iter=5)
    b = optimize(objective, quad_space(), seed=9, n_init=3, n_iter=5)
    assert [t.config for t in a.trials] == [t.config for t in b.trials]
    assert a.best_config == b.best_config


def test_failed_trials_stay_in_the_log_but_not_the_surrogate():
    def objective(cfg):
        if cfg["x"] < 0.4:
            raise EvaluationError("unstable fit")
        return cfg["x"]

    result = optimize(objective, quad_space(), seed=2, n_init=4, n_iter=6)
    failed = [t for t in result.trials if t.score == float("-inf")]
    assert failed  # the head of the candidate set hits the failing region
    assert result.best_config["x"] >= 0.4
    assert result.best_score >= 0.4
    assert result.trials[result.best_trial - 1].config == result.best_config


def test_every_trial_failing_is_an_error():
    def objective(cfg):
        raise EvaluationError("never works")

    with pytest.raises(EvaluationError, match="every trial failed"):
        optimize(objective, quad_space(), seed=3, n_init=2, n_iter=2)


def test_tied_scores_pick_the_earliest_trial():
    result = optimize(lambda cfg: 1.0, quad_space(), seed=4, n_init=3, n_iter=3)
    assert result.best_trial == 1


def test_trial_log_format():
    trials = (
        TrialRow(trial=0, config={"x": 0.5, "n": 3}, score=0.9),
        TrialRow(trial=1, config={"x": 0.1, "n": 7}, score=float("-inf")),
    )
    buf = io.StringIO()
    write_trial_log(trials, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "trial,config_json,score"
    assert len(lines) == 3
    cfg = json.loads(lines[1].split(",", 1)[1].rsplit(",", 1)[0].strip('"').replace('""', '"'))
    assert cfg == {"n": 3, "x": 0.5}
