"""Hyperparameter search: GP surrogate over a unit cube, quasi-random candidates.

The search space maps every dimension onto [0, 1] (log dimensions through
their logarithm, integer dimensions by rounding on the way back). A
zero-mean Gaussian process with a squared-exponential kernel is fit to the
observed trials; the next trial is the candidate with the largest posterior
variance, drawn from one seeded low-discrepancy candidate set that also
provides the initial design.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ConfigError, EvaluationError
from .seeds import derive_seed

log = logging.getLogger(__name__)

GP_LENGTHSCALE = 0.2
GP_SIGNAL_VAR = 1.0
GP_NOISE = 1e-6
INTERP_TOL = 1e-8


@dataclass(frozen=True)
class Dimension:
    """One search dimension; ``log`` interpolates geometrically."""

    name: str
    kind: str  # "float" or "int"
    lo: float
    hi: float
    log: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("float", "int"):
            raise ConfigError(f"dimension {self.name!r}: unknown kind {self.kind!r}")
        if not self.lo < self.hi:
            raise ConfigError(f"dimension {self.name!r}: requires lo < hi")
        if self.log and self.lo <= 0:
            raise ConfigError(f"dimension {self.name!r}: log scale needs lo > 0")

    def from_unit(self, u: float) -> float | int:
        u = min(max(u, 0.0), 1.0)
        if self.log:
            value = math.exp(math.log(self.lo) + u * (math.log(self.hi) - math.log(self.lo)))
        else:
            value = self.lo + u * (self.hi - self.lo)
        if self.kind == "int":
            return int(min(max(round(value), math.ceil(self.lo)), math.floor(self.hi)))
        return value

    def to_unit(self, value: float) -> float:
        if self.log:
            u = (math.log(value) - math.log(self.lo)) / (math.log(self.hi) - math.log(self.lo))
        else:
            u = (value - self.lo) / (self.hi - self.lo)
        return min(max(u, 0.0), 1.0)


@dataclass(frozen=True)
class SearchSpace:
    dimensions: tuple[Dimension, ...]

    def __post_init__(self) -> None:
        names = [d.name for d in self.dimensions]
        if not names:
            raise ConfigError("search space needs at least one dimension")
        if len(set(names)) != len(names):
            raise ConfigError("search space has duplicate dimension names")

    @property
    def n_dims(self) -> int:
        return len(self.dimensions)

    def decode(self, u: np.ndarray) -> dict[str, float | int]:
        return {d.name: d.from_unit(float(u[i])) for i, d in enumerate(self.dimensions)}

    def encode(self, config: dict) -> np.ndarray:
        return np.array([d.to_unit(float(config[d.name])) for d in self.dimensions])


def default_space(kind: str, n_features: int) -> SearchSpace:
    """Built-in search space per model kind over ``n_features`` input columns."""
    lam = Dimension("lambda", "float", 1e-4, 1e1, log=True)
    if kind == "lr":
        return SearchSpace((lam,))
    if kind == "rf":
        return SearchSpace(
            (
                lam,
                Dimension("n_trees", "int", 50, 300),
                Dimension("max_depth", "int", 2, 20),
                Dimension("m_features", "int", 1, max(1, n_features)),
            )
        )
    raise ConfigError(f"no default search space for model kind {kind!r}")


# ---------------------------------------------------------------------------
# Candidate generation

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _radical_inverse(i: int, base: int) -> float:
    inv = 0.0
    denom = 1.0
    while i > 0:
        denom *= base
        i, digit = divmod(i, base)
        inv += digit / denom
    return inv


def halton_candidates(n: int, d: int, seed: int) -> np.ndarray:
    """n low-discrepancy points in [0, 1)^d with a seeded per-dimension shift."""
    if d > len(_PRIMES):
        raise ConfigError(f"candidate generator supports up to {len(_PRIMES)} dimensions")
    shift = np.random.default_rng(seed).random(d)
    pts = np.empty((n, d))
    for j in range(d):
        base = _PRIMES[j]
        col = np.array([_radical_inverse(i + 1, base) for i in range(n)])
        pts[:, j] = (col + shift[j]) % 1.0
    return pts


# ---------------------------------------------------------------------------
# Gaussian process surrogate


def _sq_exp_kernel(A: np.ndarray, B: np.ndarray, lengthscale: float, signal_var: float) -> np.ndarray:
    d2 = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
    return signal_var * np.exp(-np.maximum(d2, 0.0) / (2.0 * lengthscale * lengthscale))


@dataclass(frozen=True)
class GPSurrogate:
    X: np.ndarray
    y: np.ndarray
    lengthscale: float
    signal_var: float
    noise: float
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)


def gp_fit(
    X: np.ndarray,
    y: np.ndarray,
    lengthscale: float = GP_LENGTHSCALE,
    signal_var: float = GP_SIGNAL_VAR,
    noise: float = GP_NOISE,
) -> GPSurrogate:
    """Fit the zero-mean GP; factorization jitter escalates only as needed.

    With ``noise=0`` the posterior must interpolate the observations; a
    residual above the tolerance after jitter means the kernel matrix is
    numerically unusable, which is fatal rather than silently smoothed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] != len(y):
        raise EvaluationError("surrogate inputs and scores disagree on count")
    K = _sq_exp_kernel(X, X, lengthscale, signal_var)
    K[np.diag_indices_from(K)] += noise
    jitter = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(K + jitter * np.eye(len(y)))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-3:
                raise EvaluationError("kernel matrix is not positive definite even with jitter")
    if jitter > 0.0:
        log.debug("kernel factorization needed jitter %.1e", jitter)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    gp = GPSurrogate(
        X=X, y=y, lengthscale=lengthscale, signal_var=signal_var, noise=noise, chol=chol, alpha=alpha
    )
    if noise == 0.0:
        mean, _ = gp_predict(gp, X)
        resid = float(np.max(np.abs(mean - y))) if len(y) else 0.0
        if resid > INTERP_TOL:
            raise EvaluationError(
                f"noise-free surrogate fails to interpolate its observations (residual {resid:.2e})"
            )
    return gp


def gp_predict(gp: GPSurrogate, Xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of the latent function at query points."""
    Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
    Ks = _sq_exp_kernel(gp.X, Xq, gp.lengthscale, gp.signal_var)
    mean = Ks.T @ gp.alpha
    V = np.linalg.solve(gp.chol, Ks)
    var = gp.signal_var - np.sum(V * V, axis=0)
    return mean, np.maximum(var, 0.0)


def propose_next(
    gp: GPSurrogate | None,
    candidates: np.ndarray,
    excluded: Sequence[int] = (),
) -> int:
    """Index of the most informative unexcluded candidate.

    Without observations this is the first available candidate (the seeded
    initial design is simply the front of the candidate set); with them it
    is the posterior-variance maximizer, earliest index winning ties.
    """
    mask = np.ones(len(candidates), dtype=bool)
    mask[list(excluded)] = False
    avail = np.flatnonzero(mask)
    if len(avail) == 0:
        raise EvaluationError("candidate set exhausted; enlarge it or lower the budget")
    if gp is None:
        return int(avail[0])
    _, var = gp_predict(gp, candidates[avail])
    return int(avail[int(np.argmax(var))])


# ---------------------------------------------------------------------------
# Optimization loop


@dataclass(frozen=True)
class TrialRow:
    trial: int
    config: dict
    score: float

    @property
    def config_json(self) -> str:
        return json.dumps(self.config, sort_keys=True)


@dataclass(frozen=True)
class OptResult:
    best_config: dict
    best_score: float
    best_trial: int
    trials: tuple[TrialRow, ...]


def write_trial_log(trials: Sequence[TrialRow], dest: str | Path | TextIO) -> None:
    import csv

    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_trial_log(trials, fh)
            return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["trial", "config_json", "score"])
    for t in trials:
        writer.writerow([t.trial, t.config_json, "%.9g" % t.score])


def optimize(
    objective: Callable[[dict], float],
    space: SearchSpace,
    seed: int,
    n_init: int = 5,
    n_iter: int = 20,
    n_candidates: int = 256,
) -> OptResult:
    """Budgeted maximization of ``objective`` over ``space``.

    The first ``n_init`` trials take the head of the candidate set; each of
    the ``n_iter`` refinement trials queries the surrogate. A configuration
    is never evaluated twice: candidates decoding to an already-tried
    configuration are skipped.
    """
    if n_init < 1:
        raise ConfigError(f"initial design needs at least one trial, got {n_init}")
    if n_iter < 0:
        raise ConfigError(f"refinement budget must be non-negative, got {n_iter}")
    total = n_init + n_iter
    if total > n_candidates:
        raise ConfigError(f"budget {total} exceeds the candidate set size {n_candidates}")
    candidates = halton_candidates(n_candidates, space.n_dims, derive_seed(seed, "candidates"))

    trials: list[TrialRow] = []
    seen_configs: set[str] = set()
    excluded: set[int] = set()
    obs_X: list[np.ndarray] = []
    obs_y: list[float] = []

    def run_trial(idx: int) -> None:
        config = space.decode(candidates[idx])
        key = json.dumps(config, sort_keys=True)
        excluded.add(idx)
        seen_configs.add(key)
        try:
            score = float(objective(config))
        except EvaluationError as exc:
            log.warning("trial %d failed: %s", len(trials) + 1, exc)
            score = float("-inf")
        trials.append(TrialRow(trial=len(trials) + 1, config=config, score=score))
        # failed trials stay in the log but never feed the surrogate
        if math.isfinite(score):
            obs_X.append(candidates[idx])
            obs_y.append(score)

    def next_unseen(start_gp: GPSurrogate | None) -> int | None:
        # skip candidates whose decoded configuration was already tried
        while True:
            try:
                idx = propose_next(start_gp, candidates, excluded=sorted(excluded))
            except EvaluationError:
                return None
            key = json.dumps(space.decode(candidates[idx]), sort_keys=True)
            if key in seen_configs:
                excluded.add(idx)
                continue
            return idx

    for _ in range(n_init):
        idx = next_unseen(None)
        if idx is None:
            break
        run_trial(idx)
    for _ in range(n_iter):
        gp = gp_fit(np.array(obs_X), np.array(obs_y)) if obs_X else None
        idx = next_unseen(gp)
        if idx is None:
            log.warning("candidate set exhausted after %d trials", len(trials))
            break
        run_trial(idx)

    finite = [t for t in trials if math.isfinite(t.score)]
    if not finite:
        raise EvaluationError("every trial failed; nothing to select")
    best = max(finite, key=lambda t: t.score)  # max keeps the earliest on ties
    return OptResult(best_config=best.config, best_score=best.score, best_trial=best.trial, trials=tuple(trials))
