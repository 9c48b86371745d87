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


def fit_lasso(Z: np.ndarray, y: np.ndarray, n_classes: int, lam: float) -> LassoResult:
    """One-vs-all l1 logistic regression solved by proximal Newton steps.

    Each outer iteration builds the local quadratic model at the current
    point, solves it by sign pivoting, and line-searches on the true
    penalized objective. The penalty applies to coefficients only, never
    the intercept. A class converges when its largest first-order violation
    drops to ``OPT_TOL``; the support is the union over classes of
    coefficients above ``SUPPORT_EPSILON`` in magnitude.
    """
    if lam < 0:
        raise ConfigError(f"penalty weight must be non-negative, got {lam}")
    Z = np.asarray(Z, dtype=np.float64)
    if not np.all(np.isfinite(Z)):
        raise DataError("selection input contains non-finite values")
    n, p = Z.shape
    X1 = np.hstack([np.ones((n, 1)), Z])

    betas = np.zeros((n_classes, p + 1))
    converged: list[bool] = []
    iters: list[int] = []
    for c in range(n_classes):
        yc = (np.asarray(y) == c).astype(np.float64)
        beta = np.zeros(p + 1)
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


def predict_scores_lr(betas: np.ndarray, Z: np.ndarray) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    X1 = np.hstack([np.ones((Z.shape[0], 1)), Z])
    return _sigmoid(X1 @ betas.T)


def renormalize_scores(scores: np.ndarray) -> np.ndarray:
    """Rescale non-negative per-class scores so each row sums to one.

    Rescaling is order-preserving within a row, so the predicted class is
    unchanged by any monotone per-row adjustment applied before it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    return scores / scores.sum(axis=1, keepdims=True)


def predict_proba_lr(betas: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Per-class sigmoid scores rescaled to sum to one per row."""
    return renormalize_scores(predict_scores_lr(betas, Z))


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
    return codes


#: work per group while trees grow, counted as the cells of a dense (node x class x sampled
#: feature x code) histogram plus the drawn (row, sampled feature) codes; bounds the memory of
#: a step of many trees. Only the occupied cells are counted, cut and ranked.
HIST_CELLS = 1 << 16


def _first_exact_max(num: np.ndarray, den: np.ndarray) -> int:
    """Index of the first cell whose ratio num/den is exactly the largest.

    Cells come in (feature, code) order, so the first maximum is the
    lowest-feature, lowest-threshold split. Floats only preselect the cells
    within 1e-9 of the float maximum; integer cross-multiplication decides
    among them, so the pick never depends on rounding. A cell with num 0
    never wins while any cell is positive.

    No tree-level test can reach the window: num <= t(n-t)n <= n^3/4, so
    below about 330k rows in a node every value stays under 2^53, rounding
    is monotone, and ``q >= q.max()`` would pick the same cells. Only the
    crafted ratios in the unit test tell the two apart.
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


@dataclass
class _Node:
    """A node waiting for its split search: its dict (filled in place), its sample, depth
    and class counts. The sample holds the node's distinct rows, in the order of their
    last bootstrap draw, over their multiplicities."""

    out: dict
    sample: np.ndarray
    depth: int
    counts: list[int]
    feats: np.ndarray | None = None


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
    step pops one node per tree. The popped nodes are handled a group at a
    time, each group at most ``HIST_CELLS`` of work: one class histogram
    over the group's occupied (node, sampled feature, code) cells, one pick
    of every node's best cut, and one partition of every node's rows (see
    ``_split_group``).
    """
    n, p = Z.shape
    codes = _code_columns(Z)
    width = int(codes.max(initial=0)) + 1
    all_feats = np.arange(p)
    rngs = [np.random.default_rng(s) for s in tree_seeds]
    roots = [{} for _ in tree_seeds]
    stacks: list[list[_Node]] = [[] for _ in tree_seeds]
    for rng, root, stack in zip(rngs, roots, stacks):
        if bootstrap:
            # each drawn row once, in the order of its last draw
            rows, first_from_end, mult = np.unique(
                rng.integers(0, n, size=n)[::-1], return_index=True, return_counts=True
            )
            sample = np.stack([rows, mult])[:, np.argsort(-first_from_end)]
        else:
            sample = np.stack([np.arange(n), np.ones(n, dtype=np.int64)])
        counts = np.bincount(y[sample[0]], weights=sample[1], minlength=n_classes).astype(np.int64)
        if p == 0 or _stops(0, counts, max_depth, min_leaf):
            root.update(_leaf(counts.tolist()))
        else:
            stack.append(_Node(root, sample, 0, counts.tolist()))
    live = [tree for tree, stack in enumerate(stacks) if stack]
    while live:
        group: list[tuple[int, _Node]] = []
        work = 0
        for tree in live:
            node = stacks[tree].pop()
            if m_features < p:
                node.feats = rngs[tree].choice(p, size=m_features, replace=False)
                node.feats.sort()
            else:
                node.feats = all_feats
            cost = m_features * (n_classes * width + sum(node.counts))
            if group and work + cost > HIST_CELLS:
                _split_group(Z, codes, y, width, group, stacks, max_depth, min_leaf)
                group, work = [], 0
            group.append((tree, node))
            work += cost
        _split_group(Z, codes, y, width, group, stacks, max_depth, min_leaf)
        live = [tree for tree in live if stacks[tree]]
    return tuple(roots)


def _split_group(
    Z: np.ndarray,
    codes: np.ndarray,
    y: np.ndarray,
    width: int,
    group: list[tuple[int, _Node]],
    stacks: list[list[_Node]],
    max_depth: int,
    min_leaf: int,
) -> None:
    """Search, pick and partition the group's nodes at once; split each or make it a leaf.

    One gather of each row's chosen column and one stable sort by (node,
    side) keep every child's rows in their parent's order. Each threshold
    is the value of the last row in its node's chosen cell. Children take
    their class counts from the histogram and own copies of their samples;
    a child that is a leaf settles on the spot.
    """
    nodes = [node for _, node in group]
    k = len(nodes)
    sample = np.concatenate([node.sample for node in nodes], axis=1)
    rows = sample[0]
    owner = np.repeat(np.arange(k), [node.sample.shape[1] for node in nodes])
    feats = np.array([node.feats for node in nodes])
    counts = np.array([node.counts for node in nodes])
    m = feats.shape[1]
    n = codes.shape[1]
    occ, left = _cut_counts(codes, y, width, sample, owner, feats, counts)
    pick, found = _pick_cuts(left, counts, occ // (m * width), min_leaf)
    cell, left_counts = occ[pick], left[:, pick].T
    del occ, left  # free the cells before the partition allocates its own
    chosen = feats[np.arange(k), cell // width % m]
    # a node without a split takes no row to its cell and every row to its left
    code = np.where(found, cell % width, width)[owner]
    col = codes.take((chosen * n)[owner] + rows)
    in_cell = (col == code).nonzero()[0]
    split = found.nonzero()[0]
    last = in_cell[np.searchsorted(owner[in_cell], split, side="right") - 1]
    thr = np.zeros(k)
    thr[split] = Z[rows[last], chosen[split]]
    side = owner * 2 + (col > code)
    sample = sample[:, np.argsort(side, kind="stable")]
    bounds = np.zeros(2 * k + 1, dtype=np.int64)
    np.cumsum(np.bincount(side, minlength=2 * k), out=bounds[1:])
    kids = np.concatenate([left_counts, counts - left_counts], axis=1).reshape(k, 2, -1)
    stops = _stops(np.array([node.depth + 1 for node in nodes])[:, None], kids, max_depth, min_leaf)
    per_node = zip(range(k), group, found.tolist(), chosen.tolist(), thr.tolist(), kids.tolist(), stops.tolist())
    for i, (tree, node), ok, f, th, kid_counts, kid_stops in per_node:
        if not ok:
            node.out.update(_leaf(node.counts))
            continue
        node.out.update(f=f, t=th, l={}, r={})
        for s, key in ((1, "r"), (0, "l")):
            if kid_stops[s]:
                node.out[key].update(_leaf(kid_counts[s]))
            else:
                lo, hi = bounds[2 * i + s], bounds[2 * i + s + 1]
                stacks[tree].append(_Node(node.out[key], sample[:, lo:hi].copy(), node.depth + 1, kid_counts[s]))


def _cut_counts(
    codes: np.ndarray,
    y: np.ndarray,
    width: int,
    sample: np.ndarray,
    owner: np.ndarray,
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
    cells = (feats * codes.shape[1])[owner]
    cells += rows[:, None]
    cells = codes.take(cells)
    cells += (owner * (m * width))[:, None]
    cells += np.arange(0, m * width, width)
    seen = np.zeros(plane, dtype=bool)
    seen[cells] = True
    occ = seen.nonzero()[0]
    index = np.empty(plane, dtype=np.intp)
    index[occ] = np.arange(len(occ))
    cells = index.take(cells)
    cells += (y[rows] * len(occ))[:, None]
    hist = np.bincount(cells.ravel(), weights=mult.astype(np.float64).repeat(m), minlength=n_classes * len(occ))
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

    The Gini ranking ratio (A(n-t) + Bt) / (t(n-t)), with A and B the
    summed squared child class counts, is formed in int64 for every cell.
    One segmented maximum per node and one 1e-9 window serve all nodes. A
    node whose window holds one cell takes it; only a node with more goes
    through ``_first_exact_max``, so ties still go to the first (feature,
    code) and rounding never decides.
    """
    k = len(counts)
    starts = np.searchsorted(node_of, np.arange(k + 1))
    right = np.repeat(counts.T, starts[1:] - starts[:-1], axis=1) - left
    t = left.sum(axis=0)
    nt = right.sum(axis=0)
    valid = (t >= min_leaf) & (nt >= min_leaf)
    num = np.where(valid, (left * left).sum(axis=0) * nt + (right * right).sum(axis=0) * t, 0)
    den = np.where(valid, t * nt, 1)
    q = num / den
    qmax = np.maximum.reduceat(q, starts[:-1])
    found = qmax > 0.0
    window = (q >= (qmax * (1.0 - 1e-9))[node_of]).nonzero()[0]
    firsts = np.searchsorted(node_of[window], np.arange(k + 1))
    pick = window[firsts[:-1]]
    for i in (found & (firsts[1:] - firsts[:-1] > 1)).nonzero()[0]:
        s, e = starts[i], starts[i + 1]
        pick[i] = s + _first_exact_max(num[s:e], den[s:e])
    return pick, found


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


def apply_tree(node: dict, Z: np.ndarray) -> np.ndarray:
    """Class prediction of one tree for every row; leaf ties go to the lowest index.

    The dict tree is flattened into arrays once; then every row moves down
    one level per pass. A leaf sends its rows back to itself, and
    ``nxt[2i + 1]`` / ``nxt[2i]`` are node i's left / right child, so a
    failed ``<=`` (NaN included) goes right.
    """
    feat, thr, nxt, leaf = [], [], [], []
    nodes, depths = [node], [0]
    for i, nd in enumerate(nodes):
        if "n" in nd:
            feat.append(0)
            thr.append(0.0)
            nxt += [i, i]
            leaf.append(nd["n"].index(max(nd["n"])))
            continue
        feat.append(nd["f"])
        thr.append(nd["t"])
        nxt += [len(nodes), len(nodes) + 1]
        nodes += [nd["r"], nd["l"]]
        depths += [depths[i] + 1] * 2
        leaf.append(0)
    feat_a, thr_a, nxt_a = np.array(feat), np.array(thr), np.array(nxt)
    rows = np.arange(Z.shape[0])
    pos = np.zeros(Z.shape[0], dtype=np.int64)
    for _ in range(max(depths)):
        pos = nxt_a[2 * pos + (Z[rows, feat_a[pos]] <= thr_a[pos])]
    return np.array(leaf)[pos]


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
    if n_trees < 1:
        raise ConfigError(f"forest needs at least one tree, got {n_trees}")
    if max_depth < 1:
        raise ConfigError(f"tree depth must be positive, got {max_depth}")
    if min_leaf < 1:
        raise ConfigError(f"minimum leaf size must be positive, got {min_leaf}")
    m = _features_per_split(m_features, Z.shape[1])
    seeds = tuple(derive_seed(seed, "tree", t) for t in range(n_trees))
    trees = _grow_forest(Z, y, n_classes, seeds, max_depth, m, min_leaf, bootstrap=True)
    return ForestModel(trees=trees, n_classes=n_classes, tree_seeds=seeds)


def predict_proba_rf(forest: ForestModel, Z: np.ndarray) -> np.ndarray:
    """Fraction of trees voting for each class."""
    Z = np.asarray(Z, dtype=np.float64)
    votes = np.zeros((Z.shape[0], forest.n_classes))
    for tree in forest.trees:
        preds = apply_tree(tree, Z)
        votes[np.arange(Z.shape[0]), preds] += 1.0
    return votes / len(forest.trees)


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


def resolve_hyperparams(kind: str, hyperparams: dict | None) -> dict:
    if kind == "lr":
        merged = dict(DEFAULT_HYPER_LR)
    elif kind == "rf":
        merged = dict(DEFAULT_HYPER_RF)
    else:
        raise ConfigError(f"unknown model kind {kind!r}; expected 'lr' or 'rf'")
    for k, v in (hyperparams or {}).items():
        if k not in merged:
            raise ConfigError(f"unknown hyperparameter {k!r} for model {kind!r}")
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
) -> PipelineModel:
    """Standardize, select features, and fit the classifier on the support."""
    hp = resolve_hyperparams(kind, hyperparams)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.shape[0] != len(y):
        raise DataError("matrix and labels disagree on row count")
    n_classes = len(classes)
    mean, scale = standardize_fit(X)
    Z = standardize_apply(X, mean, scale)
    selector = fit_lasso(Z, y, n_classes, float(hp["lambda"]))
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
        m = int(hp["m_features"])
        if m <= 0:
            m = max(1, round(math.sqrt(s))) if s else 0
        m = min(m, s) if s else 0
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
