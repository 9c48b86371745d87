"""Search space arithmetic, GP posterior variance, and the trial loop."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from faacflow.errors import ConfigError, EvaluationError
from faacflow.hyperopt import (
    GP_LENGTHSCALE,
    GP_NOISE,
    GP_SIGNAL_VAR,
    N_CANDIDATES,
    Dimension,
    SearchSpace,
    TrialRow,
    default_space,
    halton_candidates,
    optimize,
    posterior_variance,
    write_trial_log,
)
from faacflow.learning import resolve_hyperparams
from faacflow.seeds import derive_seed

from oracles import gp_posterior_dense


# ---------------------------------------------------------------------------
# Dimensions and spaces


def test_float_dimension_interpolates_linearly():
    d = Dimension("x", "float", 0.0, 10.0)
    assert d.from_unit(0.25) == 2.5
    assert d.from_unit(-0.5) == 0.0  # clamped
    assert d.from_unit(1.5) == 10.0


def test_log_dimension_interpolates_geometrically():
    d = Dimension("lam", "float", 1e-4, 1e0, log=True)
    assert d.from_unit(0.5) == pytest.approx(1e-2)
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


def test_space_decode_and_validation():
    space = SearchSpace((Dimension("a", "float", 0, 1), Dimension("b", "int", 2, 8)))
    assert space.decode(np.array([0.3, 0.7])) == {"a": 0.3, "b": round(2 + 0.7 * 6)}
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
# GP posterior variance


def test_gp_posterior_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for d in (1, 2):
        X = rng.random((7, d))
        Xq = rng.random((23, d))
        var = posterior_variance(X, Xq)
        _, var_o = gp_posterior_dense(X, rng.normal(0, 1, 7), Xq, GP_LENGTHSCALE, GP_SIGNAL_VAR, GP_NOISE)
        assert np.allclose(var, var_o, atol=1e-8)


# ---------------------------------------------------------------------------
# Proposals


def _candidate_index(space, candidates, config):
    return next(i for i in range(len(candidates)) if space.decode(candidates[i]) == config)


def test_proposal_is_the_variance_maximizer():
    """After the initial design, each trial takes the oracle's variance argmax.

    The variance is that of the GP observed at the finitely scored earlier
    trials, over the candidates not yet taken; before anything has scored,
    a trial takes the first candidate not yet taken.
    """
    space = SearchSpace((Dimension("a", "float", 0.0, 1.0), Dimension("b", "float", -1.0, 1.0)))
    cases = [
        (11, 3, lambda n, cfg: False),
        (12, 2, lambda n, cfg: cfg["a"] < 0.35),  # a failing region
        (13, 2, lambda n, cfg: n <= 4),  # nothing scores until after the initial design
    ]
    for seed, n_init, fails in cases:
        calls = []

        def objective(cfg):
            calls.append(cfg)
            if fails(len(calls), cfg):
                raise EvaluationError("unstable fit")
            return math.sin(5.0 * cfg["a"]) + cfg["b"]

        result = optimize(objective, space, seed=seed, n_init=n_init, n_iter=12)
        cands = halton_candidates(N_CANDIDATES, space.n_dims, derive_seed(seed, "candidates"))
        picks = [_candidate_index(space, cands, t.config) for t in result.trials]
        assert len(picks) == n_init + 12
        assert any(t.score == float("-inf") for t in result.trials) == (seed != 11)
        for t, pick in enumerate(picks):
            remaining = [i for i in range(N_CANDIDATES) if i not in picks[:t]]
            scored = [p for p, tr in zip(picks[:t], result.trials) if math.isfinite(tr.score)]
            if t < n_init or not scored:
                assert pick == remaining[0]
                continue
            ys = np.zeros(len(scored))  # the variance never reads the scores
            _, var = gp_posterior_dense(
                cands[scored], ys, cands[remaining], GP_LENGTHSCALE, GP_SIGNAL_VAR, GP_NOISE
            )
            assert var[remaining.index(pick)] >= var.max() - 1e-9


def test_proposal_respects_exclusions(caplog):
    # three integer values: candidates decoding to a tried value are skipped,
    # and the search stops early once every value has been tried
    space = SearchSpace((Dimension("n", "int", 1, 3),))
    result = optimize(lambda cfg: float(cfg["n"]), space, seed=5, n_init=2, n_iter=4)
    assert sorted(t.config["n"] for t in result.trials) == [1, 2, 3]
    assert "candidate set exhausted after 3 trials" in caplog.text


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
    with pytest.raises(ConfigError, match="candidate set size"):
        optimize(objective, quad_space(), seed=0, n_init=N_CANDIDATES, n_iter=1)


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


def test_the_hyperparameters_the_search_proposes_pass_the_range_checks():
    for kind in ("lr", "rf"):
        space = default_space(kind, n_features=6)
        for u in np.linspace(0.0, 1.0, 11):
            config = space.decode(np.full(space.n_dims, u))
            assert resolve_hyperparams(kind, config) == {**resolve_hyperparams(kind, None), **config}
