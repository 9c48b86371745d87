"""Hyperparameter search: a greedy variance design over quasi-random candidates.

The search space maps every dimension onto [0, 1] (log dimensions through
their logarithm, integer dimensions by rounding on the way back). One
seeded Halton candidate set provides the initial design; after it, each
trial takes the candidate with the largest posterior variance of a
zero-mean Gaussian process with a squared-exponential kernel, observed at
the trials that scored. That variance does not depend on the scores, so
the trial sequence is fixed by the seed, the space and which trials fail.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import ConfigError, EvaluationError
from .seeds import derive_seed

log = logging.getLogger(__name__)

GP_LENGTHSCALE = 0.2
GP_SIGNAL_VAR = 1.0
GP_NOISE = 1e-6
N_CANDIDATES = 256


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


def default_space(kind: str, n_features: int) -> SearchSpace:
    """Built-in search space per model kind over ``n_features`` input columns.

    With fewer than two columns the forest has no ``m_features`` to choose;
    the fit's default then takes the one column there is.
    """
    lam = Dimension("lambda", "float", 1e-4, 1e1, log=True)
    if kind == "lr":
        return SearchSpace((lam,))
    if kind == "rf":
        dims = (lam, Dimension("n_trees", "int", 50, 300), Dimension("max_depth", "int", 2, 20))
        if n_features >= 2:
            dims += (Dimension("m_features", "int", 1, n_features),)
        return SearchSpace(dims)
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
# Gaussian process posterior variance


def _sq_exp_kernel(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    d2 = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * (A @ B.T)
    return GP_SIGNAL_VAR * np.exp(-np.maximum(d2, 0.0) / (2.0 * GP_LENGTHSCALE * GP_LENGTHSCALE))


def posterior_variance(X_scored: np.ndarray, Xq: np.ndarray) -> np.ndarray:
    """Posterior variance at ``Xq`` of the zero-mean GP observed at ``X_scored``.

    The variance depends only on where the GP has observed, never on the
    observed values, so no scores are taken. Factorization jitter escalates
    only as needed.
    """
    X = np.atleast_2d(np.asarray(X_scored, dtype=np.float64))
    Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
    K = _sq_exp_kernel(X, X)
    K[np.diag_indices_from(K)] += GP_NOISE
    jitter = 0.0
    while True:
        try:
            chol = np.linalg.cholesky(K + jitter * np.eye(len(X)))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > 1e-3:
                raise EvaluationError("kernel matrix is not positive definite even with jitter")
    if jitter > 0.0:
        log.debug("kernel factorization needed jitter %.1e", jitter)
    V = np.linalg.solve(chol, _sq_exp_kernel(X, Xq))
    return np.maximum(GP_SIGNAL_VAR - np.sum(V * V, axis=0), 0.0)


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
) -> OptResult:
    """Budgeted maximization of ``objective`` over ``space``.

    The first ``n_init`` trials, and any trial before one has scored, take
    the first available candidate; every other trial takes the available
    candidate of largest posterior variance given the scored trials, the
    earliest index winning ties. A configuration is never evaluated twice:
    candidates decoding to an already-tried configuration are skipped.
    """
    if n_init < 1:
        raise ConfigError(f"initial design needs at least one trial, got {n_init}")
    if n_iter < 0:
        raise ConfigError(f"refinement budget must be non-negative, got {n_iter}")
    total = n_init + n_iter
    if total > N_CANDIDATES:
        raise ConfigError(f"budget {total} exceeds the candidate set size {N_CANDIDATES}")
    candidates = halton_candidates(N_CANDIDATES, space.n_dims, derive_seed(seed, "candidates"))

    trials: list[TrialRow] = []
    seen_configs: set[str] = set()
    available = np.ones(N_CANDIDATES, dtype=bool)
    scored: list[int] = []  # candidate indices of the trials with a finite score
    while len(trials) < total:
        avail = np.flatnonzero(available)
        if len(avail) == 0:
            log.warning("candidate set exhausted after %d trials", len(trials))
            break
        if len(trials) < n_init or not scored:
            idx = int(avail[0])
        else:
            var = posterior_variance(candidates[scored], candidates[avail])
            idx = int(avail[int(np.argmax(var))])
        available[idx] = False
        config = space.decode(candidates[idx])
        key = json.dumps(config, sort_keys=True)
        if key in seen_configs:
            continue
        seen_configs.add(key)
        try:
            score = float(objective(config))
        except EvaluationError as exc:
            log.warning("trial %d failed: %s", len(trials) + 1, exc)
            score = float("-inf")
        trials.append(TrialRow(trial=len(trials) + 1, config=config, score=score))
        # failed trials stay in the log but never feed the variance
        if math.isfinite(score):
            scored.append(idx)

    finite = [t for t in trials if math.isfinite(t.score)]
    if not finite:
        raise EvaluationError("every trial failed; nothing to select")
    best = max(finite, key=lambda t: t.score)  # max keeps the earliest on ties
    return OptResult(best_config=best.config, best_score=best.score, best_trial=best.trial, trials=tuple(trials))
