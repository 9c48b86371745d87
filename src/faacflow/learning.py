"""Models: standardizer, l1 logistic feature selection, LR and RF classifiers.

Every model is trained on one pipeline: z-score standardization fit on the
training rows, one-vs-all l1-penalized logistic regression whose nonzero
coefficients select the feature support, then the classifier proper on the
selected columns. Fits are deterministic given the data, hyperparameters,
and seed, and serialize to a self-describing JSON artifact.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, EvaluationError
from .seeds import derive_seed

log = logging.getLogger(__name__)

MODEL_FORMAT = "faacflow-model-v1"

OPT_TOL = 1e-6
MAX_SELECT_ITER = 10_000
MAX_LR_ITER = 100
SUPPORT_EPSILON = 1e-8

DEFAULT_HYPER_LR = {"lambda": 0.1}
DEFAULT_HYPER_RF = {"lambda": 0.1, "n_trees": 100, "max_depth": 10, "m_features": 0, "min_leaf": 1}
#: the smallest value of each hyperparameter; all but lambda are integers,
#: and m_features 0 takes the square root of the support size
HYPER_MIN = {"lambda": 0.0, "n_trees": 1, "max_depth": 1, "m_features": 0, "min_leaf": 1}


def check_hyperparam(name: str, value: object, key: str | None = None) -> None:
    """Raise a ConfigError naming ``key`` (default ``name``) unless ``value`` is
    a number of the hyperparameter's kind and at least its ``HYPER_MIN``."""
    low = HYPER_MIN[name]
    kind = numbers.Real if name == "lambda" else numbers.Integral
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "a number" if name == "lambda" else "an integer"
        raise ConfigError(f"{key or name} must be {what}, got {value!r}")
    if not value >= low:
        raise ConfigError(f"{key or name} must be at least {low}, got {value!r}")


# ---------------------------------------------------------------------------
# Standardizer


def standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("standardizer needs a non-empty 2-d matrix")
    return X.mean(axis=0), X.std(axis=0)


def standardize_apply(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(x - mean) / scale; columns with zero scale map to 0."""
    X = np.asarray(X, dtype=np.float64)
    out = X - mean
    nonzero = scale > 0.0
    out[:, nonzero] /= scale[nonzero]
    out[:, ~nonzero] = 0.0
    return out


# ---------------------------------------------------------------------------
# Logistic primitives


def _sigmoid(s: np.ndarray) -> np.ndarray:
    # exp(-|s|) <= 1 never overflows; each branch equals the textbook form on its half
    e = np.exp(-np.abs(s))
    d = 1.0 + e
    return np.where(s >= 0, 1.0 / d, e / d)


def _nll(s: np.ndarray, y: np.ndarray) -> float:
    """Summed negative log-likelihood at linear scores ``s``."""
    return float(np.sum(np.logaddexp(0.0, s) - y * s))


def logistic_nll_grad(beta: np.ndarray, X1: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed negative log-likelihood and its gradient for binary labels.

    ``X1`` carries the intercept column; the return is differentiable in
    ``beta`` and exposed for finite-difference checks.
    """
    s = X1 @ beta
    return _nll(s, y), X1.T @ (_sigmoid(s) - y)


def _kkt_violation(beta: np.ndarray, grad: np.ndarray, lam: float) -> float:
    """Largest first-order optimality violation; 0 at an exact optimum."""
    v = abs(float(grad[0]))
    coef, g = beta[1:], grad[1:]
    nz = coef != 0.0
    if nz.any():
        v = max(v, float(np.max(np.abs(g[nz] + lam * np.sign(coef[nz])))))
    if (~nz).any():
        v = max(v, float(np.max(np.maximum(np.abs(g[~nz]) - lam, 0.0))))
    return v


@dataclass(frozen=True)
class LassoResult:
    betas: np.ndarray  # (n_classes, p + 1); column 0 is the intercept
    support: tuple[int, ...]
    converged: tuple[bool, ...]
    n_iter: tuple[int, ...]


def _penalized_objective(
    beta: np.ndarray, X1: np.ndarray, y: np.ndarray, lam: float
) -> tuple[float, np.ndarray]:
    """Penalized objective at ``beta`` and the linear scores ``X1 @ beta`` behind it."""
    s = X1 @ beta
    return _nll(s, y) + lam * float(np.sum(np.abs(beta[1:]))), s


def _pivot_quadratic(beta0: np.ndarray, g: np.ndarray, G: np.ndarray, lam: float) -> np.ndarray | None:
    """Minimizer of the local l1 quadratic model by sign pivoting.

    Model: g.(b - beta0) + 0.5 (b - beta0)' G (b - beta0) + lam * |b[1:]|_1.
    Maintains a free set with fixed signs, solves the reduced linear
    system (lightly ridged against near-singularity), then either pins the
    worst sign-crossing coordinate at zero or releases the worst
    subgradient violator. A coordinate that keeps flip-flopping under
    extreme ill-conditioning exhausts its release budget and stays pinned;
    the slightly inexact direction is safe because the caller line-searches
    on the true objective and re-checks first-order conditions there.
    Returns None only if no stationary pattern is found in the budget.
    """
    p1 = len(beta0)
    a = np.diag(G)
    curved = a > 1e-12
    free = curved & (beta0 != 0.0)
    free[0] = curved[0]
    # every free coefficient has a sign: a nonzero start, or the one it is released with
    sigma = np.sign(beta0)
    pen = lam * sigma
    pen[0] = 0.0  # the intercept is unpenalized
    neg_slope = -(g + pen)
    # fixed coords: curved ones are pinned at zero, uncurved ones stay put
    b_fixed = np.where(curved, 0.0, beta0)
    u_fixed = np.where(curved, -beta0, 0.0)
    releasable = curved.copy()  # coefficients with release budget left
    releasable[0] = False
    releases = np.zeros(p1, dtype=np.int64)
    ridge = 1e-10 * float(a.max()) if a.max() > 0 else 0.0
    G_ridged = G + ridge * np.eye(p1)
    min_gain = 1e-9 * max(1.0, lam)
    for _ in range(6 * p1 + 16):
        F = free.nonzero()[0]
        b = b_fixed.copy()
        if len(F):
            fixed = (~free).nonzero()[0]
            # C-ordered gathers: the BLAS summation order, and so every bit, depends on the layout
            rhs = neg_slope[F] - G.take(F, 0).take(fixed, 1) @ u_fixed[fixed]
            GFF = G_ridged.take(F, 0).take(F, 1)
            try:
                uF = np.linalg.solve(GFF, rhs)
            except np.linalg.LinAlgError:
                uF = np.linalg.lstsq(GFF, rhs, rcond=None)[0]
            b[F] = beta0[F] + uF
        flips = free & (b * sigma < 0)
        flips[0] = False
        if np.count_nonzero(flips):
            free[np.where(flips, np.abs(b), -1.0).argmax()] = False  # the first largest crossing
            continue
        r = g + G @ (b - beta0)
        gain = np.abs(r) - lam
        violators = releasable & ~free & (gain > min_gain)
        if np.count_nonzero(violators):
            j = np.where(violators, gain, -1.0).argmax()  # the first largest violation
            free[j] = True
            sigma[j] = -np.sign(r[j])
            neg_slope[j] = -(g[j] + lam * sigma[j])
            releases[j] += 1
            releasable[j] = releases[j] < 3
            continue
        return b
    return None


def fit_lasso(
    Z: np.ndarray, y: np.ndarray, n_classes: int, lam: float, start: np.ndarray | None = None
) -> LassoResult:
    """One-vs-all l1 logistic regression solved by proximal Newton steps.

    Each outer iteration builds the local quadratic model at the current
    point, solves it by sign pivoting, and line-searches on the true
    penalized objective. The penalty applies to coefficients only, never
    the intercept. A class converges when its largest first-order violation
    drops to ``OPT_TOL``; the support is the union over classes of
    coefficients above ``SUPPORT_EPSILON`` in magnitude.

    ``start`` holds the ``(n_classes, p + 1)`` coefficients the iterations
    begin from, such as another penalty's ``betas`` on the same ``Z``; None
    begins from zero.
    """
    check_hyperparam("lambda", lam)
    Z = np.asarray(Z, dtype=np.float64)
    if not np.all(np.isfinite(Z)):
        raise DataError("selection input contains non-finite values")
    n, p = Z.shape
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != (n_classes, p + 1):
            raise ConfigError(f"selection start must have shape {(n_classes, p + 1)}, got {start.shape}")
    X1 = np.hstack([np.ones((n, 1)), Z])

    betas = np.zeros((n_classes, p + 1))
    converged: list[bool] = []
    iters: list[int] = []
    for c in range(n_classes):
        yc = (np.asarray(y) == c).astype(np.float64)
        beta = np.zeros(p + 1) if start is None else start[c].copy()
        obj, s = _penalized_objective(beta, X1, yc, lam)
        ok = False
        it = 0
        for it in range(1, MAX_SELECT_ITER + 1):
            prob = _sigmoid(s)
            grad = X1.T @ (prob - yc)
            if _kkt_violation(beta, grad, lam) <= OPT_TOL:
                ok = True
                it -= 1
                break
            w = np.clip(prob * (1.0 - prob), 1e-9, None)
            G = X1.T @ (X1 * w[:, None])
            target = _pivot_quadratic(beta, grad, G, lam)
            if target is None:
                raise EvaluationError(f"class {c} selection: sign pivoting found no stationary pattern")
            direction = target - beta
            # directional-derivative bound for the composite Armijo test
            dd = float(grad @ direction) + lam * (
                float(np.sum(np.abs(target[1:]))) - float(np.sum(np.abs(beta[1:])))
            )
            t = 1.0
            stepped = False
            while t > 1e-12:
                cand = beta + t * direction
                cand_obj, cand_s = _penalized_objective(cand, X1, yc, lam)
                if cand_obj <= obj + 0.25 * t * dd:
                    beta, obj, s = cand, cand_obj, cand_s
                    stepped = True
                    break
                t /= 2.0
            if not stepped:
                break  # no descent left at machine precision; re-check below
        if not ok:
            _, grad = logistic_nll_grad(beta, X1, yc)
            ok = _kkt_violation(beta, grad, lam) <= OPT_TOL
        if not ok:
            log.warning(
                "class %d selection stopped at %d iterations without reaching tol %.1e", c, it, OPT_TOL
            )
        betas[c] = beta
        converged.append(ok)
        iters.append(it)

    support = sorted({j for c in range(n_classes) for j in range(p) if abs(betas[c, j + 1]) > SUPPORT_EPSILON})
    return LassoResult(
        betas=betas, support=tuple(support), converged=tuple(converged), n_iter=tuple(iters)
    )


# ---------------------------------------------------------------------------
# Logistic classifier (Newton iterations with step halving)


def fit_lr(Z: np.ndarray, y: np.ndarray, n_classes: int) -> np.ndarray:
    """Unpenalized one-vs-all logistic fits; returns (n_classes, p + 1) betas.

    Newton steps with step halving; an ill-conditioned Hessian falls back
    to a small ridge that escalates until the solve succeeds.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y)
    if np.unique(y).size < 2:
        raise EvaluationError("degenerate label set: training rows contain a single class")
    n, p = Z.shape
    X1 = np.hstack([np.ones((n, 1)), Z])
    eye = np.eye(p + 1)
    betas = np.zeros((n_classes, p + 1))
    for c in range(n_classes):
        yc = (y == c).astype(np.float64)
        beta = np.zeros(p + 1)
        s = X1 @ beta
        nll = _nll(s, yc)
        prob = _sigmoid(s)
        grad = X1.T @ (prob - yc)
        for _ in range(MAX_LR_ITER):
            if float(np.max(np.abs(grad))) <= OPT_TOL:
                break
            w = prob * (1.0 - prob)
            H = X1.T @ (X1 * w[:, None])
            ridge = 0.0
            while True:
                try:
                    delta = np.linalg.solve(H + ridge * eye, grad)
                    if np.all(np.isfinite(delta)):
                        break
                except np.linalg.LinAlgError:
                    pass
                ridge = 1e-8 if ridge == 0.0 else ridge * 100.0
                if ridge > 1.0:
                    raise EvaluationError("logistic solve failed even with heavy damping")
            step = 1.0
            slope = float(grad @ delta)
            while step > 1e-10:
                cand = beta - step * delta
                s = X1 @ cand
                cand_nll = _nll(s, yc)
                if cand_nll <= nll - 1e-4 * step * slope:
                    break
                step /= 2.0
            # the last candidate is taken even when no step passed the test
            prob = _sigmoid(s)
            grad = X1.T @ (prob - yc)
            stalled = abs(nll - cand_nll) <= 1e-12 * max(1.0, abs(nll))
            beta, nll = cand, cand_nll
            if stalled:
                break
        betas[c] = beta
    return betas


def renormalize_scores(scores: np.ndarray) -> np.ndarray:
    """Rescale non-negative per-class scores so each row sums to one.

    Rescaling is order-preserving within a row, so the predicted class is
    unchanged by any monotone per-row adjustment applied before it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return scores / scores.sum(axis=1, keepdims=True)


def predict_proba_lr(betas: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Per-class sigmoid scores rescaled to sum to one per row."""
    Z = np.asarray(Z, dtype=np.float64)
    X1 = np.hstack([np.ones((Z.shape[0], 1)), Z])
    return renormalize_scores(_sigmoid(X1 @ betas.T))


# ---------------------------------------------------------------------------
# Random forest


def _leaf(counts: list[int]) -> dict:
    # the full class-count vector is kept so ties stay inspectable
    return {"n": counts}


def _code_columns(Z: np.ndarray) -> np.ndarray:
    """Rank code of every value within its column, feature-major: ``codes[j, i]`` is
    row i's code in column j, 0 for the column's smallest value, and so on.

    FaaC counters are multiples of 1/B, so a column holds few distinct
    values and its codes index a short class histogram.
    """
    codes = np.empty(Z.shape[::-1], dtype=np.int64)
    for j in range(Z.shape[1]):
        codes[j] = np.unique(Z[:, j], return_inverse=True)[1]
    # the narrowest unsigned type: gathers then move a byte per code, not eight
    return codes.astype(np.min_scalar_type(codes.max(initial=0)))


#: work per group while trees grow, counted as the cells of a dense (node x class x sampled
#: feature x code) histogram plus the drawn (row, sampled feature) codes; bounds the memory of
#: a step of many trees. Only the occupied cells are counted, cut and ranked. Prediction moves
#: at most this many (tree, row) positions per pass.
HIST_CELLS = 1 << 16

#: the largest weighted node size whose best cut is the first cell at its float maximum;
#: N^5 < 2^56 holds up to here (see ``_pick_cuts``)
EXACT_FLOAT_ROWS = 2352


def _first_exact_max(num: np.ndarray, den: np.ndarray) -> int:
    """Index of the first cell whose ratio num/den is exactly the largest.

    Cells come in (feature, code) order, so the first maximum is the
    lowest-feature, lowest-threshold split. Floats only preselect the cells
    within 1e-9 of the float maximum; integer cross-multiplication decides
    among them, so the pick never depends on rounding. A cell with num 0
    never wins while any cell is positive.

    ``_pick_cuts`` calls this for nodes of more than ``EXACT_FLOAT_ROWS``
    weighted rows only: up to that size different ratios round to different
    doubles, in order, so the float maximum alone is exact. Above it two
    different ratios can round to one double;
    ``test_split_pick_breaks_float_ties_of_large_nodes_exactly`` holds such
    a pair, from a node of 22 000 rows.
    """
    q = num / den
    best_num = -1
    best_den = 1
    best = 0
    for k in np.flatnonzero(q >= q.max() * (1.0 - 1e-9)):
        cnum, cden = int(num[k]), int(den[k])
        if cnum * best_den > best_num * cden:
            best_num, best_den, best = cnum, cden, int(k)
    return best


def _draw_features(rngs: Sequence[np.random.Generator], p: int, m: int, k: int) -> np.ndarray:
    """The next ``k`` draws ``rng.choice(p, m, False)`` of every generator, each sorted:
    shape (len(rngs), k, m), and every generator left as those calls leave it.

    Up to 10 000 columns numpy's ``Generator.choice`` without replacement
    runs Floyd's algorithm: for j = p-m, ..., p-1 it draws an integer u on
    [0, j] and keeps u, or j when u is already kept. It then shuffles the m
    kept values with m-1 more draws on [0, i], i = m-1, ..., 1. One
    ``integers`` call with those bounds, k times over, consumes a generator
    as k ``choice`` calls do; Floyd's rule is replayed on every draw at
    once, and the sort drops the shuffle's order. A test holds this against
    ``choice`` itself.
    """
    if p > 10_000:  # choice may tail-shuffle arange(p) instead
        return np.array([[np.sort(rng.choice(p, m, False)) for _ in range(k)] for rng in rngs])
    bounds = np.tile(np.concatenate([np.arange(p - m, p), np.arange(m - 1, 0, -1)]) + 1, k)
    u = np.array([rng.integers(0, bounds) for rng in rngs]).reshape(-1, 2 * m - 1)
    out = np.empty((len(u), m), dtype=np.int64)
    for s in range(m):
        taken = (out[:, :s] == u[:, s, None]).any(axis=1)
        out[:, s] = np.where(taken, p - m + s, u[:, s])
    out.sort(axis=1)
    return out.reshape(len(rngs), k, m)


@dataclass(slots=True)
class _Node:
    """A node waiting for its split search: its dict (filled in place), its sample, depth
    and class counts. The sample holds the node's distinct rows, in the order of their
    last bootstrap draw, over their multiplicities."""

    out: dict
    sample: np.ndarray
    depth: int
    counts: list[int]


def _stops(depth: int | np.ndarray, counts: np.ndarray, max_depth: int, min_leaf: int) -> np.ndarray:
    """Which nodes, one per row of ``counts``, are leaves: too deep, too small to split, or pure."""
    sizes = counts.sum(axis=-1)
    return (depth >= max_depth) | (sizes < 2 * min_leaf) | (counts.max(axis=-1) == sizes)


def _grow_forest(
    Z: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    tree_seeds: Sequence[int],
    max_depth: int,
    m_features: int,
    min_leaf: int,
    bootstrap: bool,
) -> tuple[dict, ...]:
    """Grow every tree together, one node per tree and step, each tree as if grown alone.

    Each tree keeps its own generator (bootstrap draw first, then one
    feature draw per searched node), and its own stack, popped depth-first
    with the left child first. A node holds its bootstrap sample as distinct
    rows with their multiplicities, which weight every histogram, so each
    row is gathered once however often it was drawn. The rows stay in the
    order of their last draw: a threshold is the value of the last-drawn
    row in its cell, so on a column holding both -0.0 and 0.0 the draw
    order fixes the threshold's sign.

    Only nodes that need a split search go onto a stack; a leaf (too deep,
    too small or pure) settles where it is made and draws nothing. Each
    step pops one node per tree, so every tree still growing at step s
    searches its s-th node then and takes its s-th feature draw; the draws
    are made for all those trees a block of steps ahead (see
    ``_draw_features``). The popped nodes are handled a group at a time,
    each group at most ``HIST_CELLS`` of work: one class histogram over the
    group's occupied (node, sampled feature, code) cells, one pick of every
    node's best cut, and one partition of every node's rows (see
    ``_split_group``).
    """
    n, p = Z.shape
    codes = _code_columns(Z)
    width = int(codes.max(initial=0)) + 1
    rngs = [np.random.default_rng(s) for s in tree_seeds]
    roots = [{} for _ in tree_seeds]
    stacks: list[list[_Node]] = [[] for _ in tree_seeds]
    for rng, root, stack in zip(rngs, roots, stacks):
        if bootstrap:
            # each drawn row once, in the order of its last draw: the last draws are distinct
            # positions, so one scatter by position sorts the rows
            draw = rng.integers(0, n, size=n)
            last = np.full(n, -1)
            np.maximum.at(last, draw, np.arange(n))
            drawn = (last >= 0).nonzero()[0]
            by_last = np.full(n, -1)
            by_last[last[drawn]] = drawn
            rows = by_last[by_last >= 0]
            sample = np.stack([rows, np.bincount(draw, minlength=n)[rows]])
        else:
            sample = np.stack([np.arange(n), np.ones(n, dtype=np.int64)])
        counts = np.bincount(y[sample[0]], weights=sample[1], minlength=n_classes).astype(np.int64)
        if p == 0 or _stops(0, counts, max_depth, min_leaf):
            root.update(_leaf(counts.tolist()))
        else:
            stack.append(_Node(root, sample, 0, counts.tolist()))
    sampled = m_features < p
    draws = np.empty((len(rngs), 0, m_features), dtype=np.int64)
    first = step = 0  # draws[:, s - first] belongs to step s

    def split(group: list[tuple[int, _Node]]) -> None:
        trees = [tree for tree, _ in group]
        feats = draws[trees, step - first] if sampled else np.tile(np.arange(p), (len(group), 1))
        _split_group(Z, codes, y, width, group, feats, stacks, max_depth, min_leaf)

    live = [tree for tree, stack in enumerate(stacks) if stack]
    while live:
        if sampled and step == first + draws.shape[1]:
            first = step
            draws = np.empty((len(rngs), max(32, step), m_features), dtype=np.int64)
            draws[live] = _draw_features([rngs[tree] for tree in live], p, m_features, draws.shape[1])
        group: list[tuple[int, _Node]] = []
        work = 0
        for tree in live:
            node = stacks[tree].pop()
            cost = m_features * (n_classes * width + node.sample.shape[1])
            if group and work + cost > HIST_CELLS:
                split(group)
                group, work = [], 0
            group.append((tree, node))
            work += cost
        split(group)
        live = [tree for tree in live if stacks[tree]]
        step += 1
    return tuple(roots)


def _split_group(
    Z: np.ndarray,
    codes: np.ndarray,
    y: np.ndarray,
    width: int,
    group: list[tuple[int, _Node]],
    feats: np.ndarray,
    stacks: list[list[_Node]],
    max_depth: int,
    min_leaf: int,
) -> None:
    """Search, pick and partition the group's nodes at once; split each or make it a leaf.

    ``feats[i]`` holds node i's sampled columns in ascending order. One
    gather of each row's chosen column and one stable sort by (node, side)
    keep every child's rows in their parent's order; the sort key is
    narrowed to the fewest unsigned bits, which makes it numpy's radix
    sort. Each threshold is the value of the last row in its node's picked
    cell. Children take their class counts from the histogram and own
    copies of their samples; a child that is a leaf settles on the spot.
    """
    nodes = [node for _, node in group]
    k, m = feats.shape
    sample = np.concatenate([node.sample for node in nodes], axis=1)
    rows = sample[0]
    sizes = [node.sample.shape[1] for node in nodes]
    owner = np.repeat(np.arange(k), sizes)
    counts = np.array([node.counts for node in nodes])
    occ, left = _cut_counts(codes, y, width, sample, sizes, feats, counts)
    pick, found = _pick_cuts(left, counts, occ // (m * width), min_leaf)
    cell, left_counts = occ[pick], left.take(pick, axis=1).T
    del occ, left  # free the cells before the partition allocates its own
    # every picked cell holds a row of its node, found or not; only found nodes use theirs
    chosen = feats[np.arange(k), cell // width % m]
    code = (cell % width)[owner]
    col = codes.take((chosen * codes.shape[1])[owner] + rows)
    in_cell = (col == code).nonzero()[0]
    last = in_cell[np.searchsorted(owner[in_cell], np.arange(1, k + 1)) - 1]
    thr = Z[rows[last], chosen]
    side = owner * 2
    side += col > code
    side = side.astype(np.min_scalar_type(2 * k - 1))
    sample = sample.take(np.argsort(side, kind="stable"), axis=1)
    at = [0] + np.bincount(side, minlength=2 * k).cumsum().tolist()
    kids = np.concatenate([left_counts, counts - left_counts], axis=1).reshape(k, 2, -1)
    stops = _stops(np.array([node.depth + 1 for node in nodes])[:, None], kids, max_depth, min_leaf)
    per_node = zip(
        group, found.tolist(), chosen.tolist(), thr.tolist(), kids.tolist(), stops.tolist(),
        at[:-1:2], at[1::2], at[2::2],
    )
    for (tree, node), ok, f, th, (lc, rc), (lstop, rstop), lo, mid, hi in per_node:
        if not ok:
            node.out.update(_leaf(node.counts))
            continue
        l, r = _leaf(lc) if lstop else {}, _leaf(rc) if rstop else {}
        node.out.update(f=f, t=th, l=l, r=r)
        if not rstop:
            stacks[tree].append(_Node(r, sample[:, mid:hi].copy(), node.depth + 1, rc))
        if not lstop:
            stacks[tree].append(_Node(l, sample[:, lo:mid].copy(), node.depth + 1, lc))


def _cut_counts(
    codes: np.ndarray,
    y: np.ndarray,
    width: int,
    sample: np.ndarray,
    sizes: list[int],
    feats: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The group's occupied cells and the left class counts of a cut at each.

    One flat ``take`` gathers every (distinct row, sampled feature) code
    from the feature-major codes. ``occ`` holds the flat (node, sampled
    feature, code) index of every cell some row falls in, in that order,
    and one ``bincount`` weighted by the rows' multiplicities counts the
    classes over those cells only. ``left[c, i]`` is the number of class-c
    rows of cell i's node coded at most cell i's code: one cumulative sum,
    segmented by (node, feature).
    """
    k, m = feats.shape
    n_classes = counts.shape[1]
    plane = k * m * width
    rows, mult = sample
    # each node's sampled columns: where they start in the codes, and in the plane of cells
    tab = np.concatenate([feats.T * codes.shape[1], np.arange(0, plane, width).reshape(k, m).T])
    tab = np.repeat(tab, sizes, axis=1)
    at = tab[:m]
    at += rows
    cells = np.add(codes.take(at), tab[m:], out=tab[m:])
    seen = np.zeros(plane, dtype=bool)
    seen[cells] = True
    occ = seen.nonzero()[0]
    index = np.empty(plane, dtype=np.intp)
    index[occ] = np.arange(len(occ))
    cells = index.take(cells)
    cells += y[rows] * len(occ)
    weights = np.empty(cells.shape)  # float weights spare bincount a conversion
    weights[:] = mult
    hist = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=n_classes * len(occ))
    hist = hist.reshape(n_classes, len(occ))
    # a (node, feature) run's cells sum to its node's class counts: taking the previous run's
    # counts off each run's first cell restarts one cumulative sum at every run. Multiplicities
    # are whole numbers, so the float sums are exact counts.
    hist[:, np.searchsorted(occ, np.arange(width, plane, width))] -= np.repeat(counts, m, axis=0)[:-1].T
    left = np.cumsum(hist, axis=1, dtype=np.int64)
    return occ, left


def _pick_cuts(
    left: np.ndarray, counts: np.ndarray, node_of: np.ndarray, min_leaf: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each node's best cut, as an index into ``left``'s cells, and whether it has any.

    The Gini ranking ratio num/den = (A(N-t) + Bt) / (t(N-t)), with A and B
    the summed squared child class counts, is formed in int64 for every
    cell, and ties go to the first (feature, code). One segmented maximum
    per node serves all nodes, and rounding never decides the pick:

    - A node of weighted size N has den <= N^2/4 and num/den <= N, so two
      different ratios differ by at least 16/N^4, while doubles in (0, N]
      lie at most N 2^-52 apart, and num < 2^53 converts exactly. For
      N^5 < 2^56, that is N <= ``EXACT_FLOAT_ROWS``, different ratios round
      to different doubles in the same order, so the node's first cell
      equal to its float maximum is the exact pick.
    - A larger node goes through ``_first_exact_max``, which compares the
      cells within 1e-9 of its float maximum in integers.
    """
    k = len(counts)
    starts = np.searchsorted(node_of, np.arange(k + 1))
    right = counts.T.take(node_of, axis=1) - left
    t = left.sum(axis=0)
    nt = right.sum(axis=0)
    valid = (t >= min_leaf) & (nt >= min_leaf)
    num = np.where(valid, (left * left).sum(axis=0) * nt + (right * right).sum(axis=0) * t, 0)
    den = np.where(valid, t * nt, 1)
    q = num / den
    qmax = np.maximum.reduceat(q, starts[:-1])
    at_max = (q == qmax[node_of]).nonzero()[0]
    pick = at_max[np.searchsorted(node_of[at_max], np.arange(k))]
    for i in (counts.sum(axis=1) > EXACT_FLOAT_ROWS).nonzero()[0]:
        s, e = starts[i], starts[i + 1]
        pick[i] = s + _first_exact_max(num[s:e], den[s:e])
    return pick, qmax > 0.0


def build_tree(
    Z: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    tree_seed: int,
    max_depth: int,
    m_features: int,
    min_leaf: int,
    bootstrap: bool = True,
) -> dict:
    """One decision tree on a bootstrap resample drawn from ``tree_seed``."""
    Z = np.asarray(Z, dtype=np.float64)
    m = _features_per_split(m_features, Z.shape[1])
    return _grow_forest(Z, np.asarray(y), n_classes, (tree_seed,), max_depth, m, min_leaf, bootstrap)[0]


def _features_per_split(m_features: int, p: int) -> int:
    """``m_features`` checked against the p columns; 0 when there are none."""
    if p and not 1 <= m_features <= p:
        raise ConfigError(f"features per split must lie in [1, {p}], got {m_features}")
    return m_features if p else 0


def _descend(trees: Sequence[dict], Z: np.ndarray) -> np.ndarray:
    """Class prediction of every tree for every row, shape (trees, rows); leaf ties go
    to the lowest index.

    The dict trees are flattened into one set of arrays; then every
    (tree, row) position moves down one level per pass, at most
    ``HIST_CELLS`` positions at a time. A leaf sends its positions back to
    itself, and ``nxt[2i + 1]`` / ``nxt[2i]`` are node i's left / right
    child, so a failed ``<=`` (NaN included) goes right.
    """
    feat, thr, nxt, leaf, roots = [], [], [], [], []
    depth = 0
    for tree in trees:
        base = len(feat)
        roots.append(base)
        nodes, depths = [tree], [0]
        for i, nd in enumerate(nodes):
            if "n" in nd:
                feat.append(0)
                thr.append(0.0)
                nxt += [base + i, base + i]
                leaf.append(nd["n"].index(max(nd["n"])))
                continue
            feat.append(nd["f"])
            thr.append(nd["t"])
            nxt += [base + len(nodes), base + len(nodes) + 1]
            nodes += [nd["r"], nd["l"]]
            depths += [depths[i] + 1] * 2
            leaf.append(0)
        depth = max(depth, max(depths))
    feat_a, thr_a, nxt_a, leaf_a = np.array(feat), np.array(thr), np.array(nxt), np.array(leaf)
    n, p = Z.shape
    flat = np.ascontiguousarray(Z).ravel()
    out = np.empty((len(roots), n), dtype=np.int64)
    chunk = max(1, HIST_CELLS // len(roots))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        at = np.tile(np.arange(lo, hi) * p, len(roots))
        pos = np.repeat(roots, hi - lo)
        for _ in range(depth):
            pos = nxt_a[2 * pos + (flat.take(at + feat_a[pos]) <= thr_a[pos])]
        out[:, lo:hi] = leaf_a[pos].reshape(len(roots), hi - lo)
    return out


def apply_tree(node: dict, Z: np.ndarray) -> np.ndarray:
    """Class prediction of one tree for every row; leaf ties go to the lowest index."""
    return _descend([node], np.asarray(Z, dtype=np.float64))[0]


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[dict, ...]
    n_classes: int
    tree_seeds: tuple[int, ...]


def fit_rf(
    Z: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    n_trees: int,
    max_depth: int,
    m_features: int,
    min_leaf: int,
    seed: int,
) -> ForestModel:
    """Bootstrap forest; tree t draws all randomness from a seed derived for t."""
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(y)
    for name, value in (("n_trees", n_trees), ("max_depth", max_depth), ("min_leaf", min_leaf)):
        check_hyperparam(name, value)
    m = _features_per_split(m_features, Z.shape[1])
    seeds = tuple(derive_seed(seed, "tree", t) for t in range(n_trees))
    trees = _grow_forest(Z, y, n_classes, seeds, max_depth, m, min_leaf, bootstrap=True)
    return ForestModel(trees=trees, n_classes=n_classes, tree_seeds=seeds)


def predict_proba_rf(forest: ForestModel, Z: np.ndarray) -> np.ndarray:
    """Fraction of trees voting for each class."""
    Z = np.asarray(Z, dtype=np.float64)
    n, c = Z.shape[0], forest.n_classes
    votes = _descend(forest.trees, Z)
    votes += np.arange(0, n * c, c)
    return np.bincount(votes.ravel(), minlength=n * c).reshape(n, c) / len(forest.trees)


# ---------------------------------------------------------------------------
# Pipeline model


@dataclass(eq=False)
class PipelineModel:
    """Selected support, standardizer on that support, and the classifier.

    ``mean`` and ``scale`` are stored per support column, so the artifact
    carries exactly the parameters prediction needs; ``n_features_in`` pins
    the full input width for validation.
    """

    kind: str  # "lr" or "rf"
    classes: tuple[str, ...]
    n_features_in: int
    support: tuple[int, ...]
    mean: np.ndarray
    scale: np.ndarray
    hyperparams: dict
    seed: int
    provenance: dict = field(default_factory=dict)
    lr_betas: np.ndarray | None = None
    forest: ForestModel | None = None
    selector: LassoResult | None = field(default=None, repr=False)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_in:
            raise DataError(
                f"expected {self.n_features_in} feature columns, got "
                f"{X.shape[1] if X.ndim == 2 else 'non-2d'}"
            )
        return standardize_apply(X[:, list(self.support)], self.mean, self.scale)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Zs = self.transform(X)
        if self.kind == "lr":
            assert self.lr_betas is not None
            return predict_proba_lr(self.lr_betas, Zs)
        assert self.forest is not None
        return predict_proba_rf(self.forest, Zs)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def resolve_hyperparams(kind: str, hyperparams: dict | None, key: str | None = None) -> dict:
    """The defaults of model ``kind`` updated by ``hyperparams``, each checked
    by ``check_hyperparam``; errors name the mapping as ``key`` when given."""
    where = f"{key}: " if key else ""
    if kind == "lr":
        merged = dict(DEFAULT_HYPER_LR)
    elif kind == "rf":
        merged = dict(DEFAULT_HYPER_RF)
    else:
        raise ConfigError(f"{where}unknown model kind {kind!r}; expected 'lr' or 'rf'")
    for k, v in (hyperparams or {}).items():
        if k not in merged:
            raise ConfigError(f"{where}unknown hyperparameter {k!r} for model {kind!r}")
        check_hyperparam(k, v, f"{key}.{k}" if key else k)
        merged[k] = v
    return merged


def fit_pipeline(
    X: np.ndarray,
    y: np.ndarray,
    classes: Sequence[str],
    kind: str,
    hyperparams: dict | None = None,
    seed: int = 0,
    provenance: dict | None = None,
    start: np.ndarray | None = None,
) -> PipelineModel:
    """Standardize, select features, and fit the classifier on the support.

    ``start`` is handed to ``fit_lasso``: selection coefficients on the
    standardized columns of these same rows to begin from, or None for zero.
    """
    hp = resolve_hyperparams(kind, hyperparams)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] != len(y):
        raise DataError("matrix and labels disagree on row count")
    n_classes = len(classes)
    mean, scale = standardize_fit(X)
    Z = standardize_apply(X, mean, scale)
    selector = fit_lasso(Z, y, n_classes, float(hp["lambda"]), start=start)
    cols = list(selector.support)
    Zs = Z[:, cols]

    model = PipelineModel(
        kind=kind,
        classes=tuple(classes),
        n_features_in=X.shape[1],
        support=selector.support,
        mean=mean[cols],
        scale=scale[cols],
        hyperparams=hp,
        seed=seed,
        provenance=dict(provenance or {}),
        selector=selector,
    )
    if kind == "lr":
        model.lr_betas = fit_lr(Zs, y, n_classes)
    else:
        s = len(selector.support)
        m = min(int(hp["m_features"]) or max(1, round(math.sqrt(s))), s)
        model.forest = fit_rf(
            Zs,
            y,
            n_classes,
            n_trees=int(hp["n_trees"]),
            max_depth=int(hp["max_depth"]),
            m_features=m,
            min_leaf=int(hp["min_leaf"]),
            seed=seed,
        )
    return model


# ---------------------------------------------------------------------------
# Artifacts


def model_to_dict(model: PipelineModel) -> dict:
    out: dict = {
        "format": MODEL_FORMAT,
        "kind": model.kind,
        "classes": list(model.classes),
        "n_features_in": model.n_features_in,
        "support": list(model.support),
        "standardizer": {"mean": [float(v) for v in model.mean], "scale": [float(v) for v in model.scale]},
        "hyperparams": model.hyperparams,
        "seed": model.seed,
        "provenance": model.provenance,
    }
    if model.kind == "lr":
        assert model.lr_betas is not None
        out["classifier"] = {"betas": [[float(v) for v in row] for row in model.lr_betas]}
    else:
        assert model.forest is not None
        out["classifier"] = {
            "trees": list(model.forest.trees),
            "tree_seeds": list(model.forest.tree_seeds),
        }
    return out


def save_model(model: PipelineModel, path: str | Path) -> None:
    """Write the model as deterministic JSON (identical fits give identical bytes)."""
    payload = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(payload + "\n", encoding="utf-8")


def load_model(path: str | Path) -> PipelineModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid model JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: not a {MODEL_FORMAT} artifact")
    kind = doc["kind"]
    model = PipelineModel(
        kind=kind,
        classes=tuple(doc["classes"]),
        n_features_in=int(doc["n_features_in"]),
        support=tuple(int(j) for j in doc["support"]),
        mean=np.array(doc["standardizer"]["mean"], dtype=np.float64),
        scale=np.array(doc["standardizer"]["scale"], dtype=np.float64),
        hyperparams=dict(doc["hyperparams"]),
        seed=int(doc["seed"]),
        provenance=dict(doc.get("provenance", {})),
    )
    clf = doc["classifier"]
    if kind == "lr":
        model.lr_betas = np.array(clf["betas"], dtype=np.float64)
    elif kind == "rf":
        model.forest = ForestModel(
            trees=tuple(clf["trees"]),
            n_classes=len(model.classes),
            tree_seeds=tuple(int(s) for s in clf["tree_seeds"]),
        )
    else:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    return model
