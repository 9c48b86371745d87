"""Independent reference implementations the tests check the package against.

Everything here favors brute force and textbook formulas over speed, and
shares no code with the package: pair counting for AUC, full sign-vector
enumeration for the signed-rank test, Fraction arithmetic for Gini splits,
dense linear algebra for the GP posterior, support and sign enumeration for
the l1 quadratic model, and the csv module read one row at a time for flow
parsing.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np


def auc_by_pairs(scores, labels) -> float:
    """AUC as the fraction of (positive, negative) pairs ranked correctly."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    assert len(pos) and len(neg)
    wins = 0
    ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    # one division of exact integers, same rational value as the rank form
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


def auc_trapezoid(scores, labels) -> float:
    """Area under the empirical ROC curve by trapezoidal integration."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = len(labels) - n_pos
    points = [(0.0, 0.0)]
    for thr in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= thr
        tpr = float((sel & (labels == 1)).sum()) / n_pos
        fpr = float((sel & (labels != 1)).sum()) / n_neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def doubled_midranks(values) -> list[int]:
    """Twice the average rank of each value; integers even under ties."""
    values = list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks2 = [0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        # positions i+1 .. j (1-based); doubled average = (i+1) + j
        for k in range(i, j):
            ranks2[order[k]] = (i + 1) + j
        i = j
    return ranks2


def doubled_midranks_loop(values) -> list[int]:
    """Doubled midranks run by run after numpy's stable argsort, one value at a time.

    A run holds the values equal to its first one, so each NaN (sorted
    last, equal to nothing) ranks alone and -0.0 and 0.0 share a run.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    n = len(values)
    out = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        for pos in range(i, j + 1):
            out[order[pos]] = (i + 1) + (j + 1)  # first 1-based rank + last 1-based rank
        i = j + 1
    return out


def wilcoxon_exact_enum(a, b) -> tuple[int, float, float]:
    """(n, W, two-sided p) by enumerating all 2^n sign assignments."""
    d = [x - y for x, y in zip(a, b) if x - y != 0.0]
    n = len(d)
    assert 0 < n <= 16, "enumeration oracle only for small n"
    ranks2 = doubled_midranks([abs(x) for x in d])
    w2_pos = sum(r for r, x in zip(ranks2, d) if x > 0)
    w2 = min(w2_pos, sum(ranks2) - w2_pos)
    lo_mass = 0
    for signs in itertools.product((0, 1), repeat=n):
        s = sum(r for r, keep in zip(ranks2, signs) if keep)
        if s <= w2:
            lo_mass += 1
    return n, w2 / 2.0, min(1.0, 2.0 * lo_mass / 2**n)


def gini_weighted(counts: list[int]) -> Fraction:
    t = sum(counts)
    if t == 0:
        return Fraction(0)
    return 1 - sum(Fraction(c, t) ** 2 for c in counts)


def best_gini_split(Z, y, rows, n_classes: int, min_leaf: int = 1):
    """Exhaustive minimum-weighted-child-Gini split over the given rows.

    Scans features in ascending order and thresholds in ascending value
    order, keeping strictly better candidates only, so ties resolve to the
    lowest feature then the lowest threshold. Thresholds are the last value
    of the left group and rows go left when value <= threshold. Fraction
    arithmetic makes the comparison exact. Returns (feature, threshold) or
    None when no split satisfies min_leaf.
    """
    Z = np.asarray(Z)
    y = np.asarray(y)
    rows = np.asarray(rows)
    n = len(rows)
    best = None
    best_score = None
    for f in range(Z.shape[1]):
        vals = sorted(set(Z[rows, f].tolist()))
        for thr in vals[:-1]:
            left = [int(y[i]) for i in rows if Z[i, f] <= thr]
            right = [int(y[i]) for i in rows if Z[i, f] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            lc = [left.count(c) for c in range(n_classes)]
            rc = [right.count(c) for c in range(n_classes)]
            score = (
                Fraction(len(left), n) * gini_weighted(lc)
                + Fraction(len(right), n) * gini_weighted(rc)
            )
            if best_score is None or score < best_score:
                best_score = score
                best = (f, float(thr))
    return best


def fd_gradient(fun, x, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(len(x)):
        step = np.zeros_like(x)
        step[j] = eps
        g[j] = (fun(x + step) - fun(x - step)) / (2.0 * eps)
    return g


def l1_quadratic_min_enum(beta0, g, G, lam: float) -> np.ndarray:
    """Minimizer of g.(b - beta0) + 0.5 (b - beta0)' G (b - beta0) + lam * |b[1:]|_1.

    Coordinate 0 is an unpenalized intercept. A coordinate whose diagonal
    entry of G is zero carries no curvature and is held at beta0; every other
    coordinate is solved for. Each support of the penalized coordinates and
    each sign vector on it gives the stationary point of the smooth model with
    those signs; it is a candidate when no coordinate has crossed its sign,
    and the candidate with the least objective wins. The minimizer itself is
    such a point, so enumeration finds it when G is positive definite on the
    curved coordinates. Meant for at most five penalized coordinates.
    """
    beta0 = np.asarray(beta0, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    G = np.asarray(G, dtype=np.float64)
    curved = [j for j in range(len(beta0)) if G[j, j] != 0.0]
    intercept = [0] if 0 in curved else []
    penalized = [j for j in curved if j != 0]

    def objective(b):
        u = b - beta0
        return float(g @ u + 0.5 * u @ G @ u + lam * np.sum(np.abs(b[1:])))

    best, best_obj = None, np.inf
    for k in range(len(penalized) + 1):
        for support in itertools.combinations(penalized, k):
            for signs in itertools.product((-1.0, 1.0), repeat=k):
                b = beta0.copy()
                b[[j for j in penalized if j not in support]] = 0.0
                S = intercept + list(support)
                if S:
                    pen = np.array([0.0] * len(intercept) + [lam * s for s in signs])
                    # stationarity on S; b - beta0 is zero on S, so only coordinates off S enter
                    rhs = -(g[S] + pen) - (G @ (b - beta0))[S]
                    b[S] = beta0[S] + np.linalg.solve(G[np.ix_(S, S)], rhs)
                if any(b[j] * s < 0.0 for j, s in zip(support, signs)):
                    continue
                obj = objective(b)
                if obj < best_obj:
                    best, best_obj = b, obj
    return best


def gp_posterior_dense(X, y, Xq, lengthscale: float, signal_var: float, noise: float):
    """GP posterior via the direct (inverse-based) formulas."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)

    def kern(A, B):
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return signal_var * np.exp(-0.5 * d2 / lengthscale**2)

    K = kern(X, X) + noise * np.eye(len(y))
    Ks = kern(X, Xq)
    Kinv_y = np.linalg.solve(K, y)
    mean = Ks.T @ Kinv_y
    var = signal_var - np.einsum("ij,ij->j", Ks, np.linalg.solve(K, Ks))
    return mean, np.maximum(var, 0.0)


def batch_label_recount(labels: list[str], classes: tuple[str, ...], priority: tuple[str, ...]) -> str:
    """Brute-force batch label: Background iff no attack record, else the
    most frequent attack, ties to the earlier entry in the priority list."""
    attacks = [c for c in classes if c != "Background"]
    counts = {c: labels.count(c) for c in attacks}
    if all(v == 0 for v in counts.values()):
        return "Background"
    rank = {c: i for i, c in enumerate(priority)}
    return max(attacks, key=lambda c: (counts[c], -rank[c]))


def parse_flows_one_row_at_a_time(text: str, schema):
    """Records, row errors and fatal error of parsing CSV ``text`` one row at a time.

    Records are ``(values, label, origin)``, row errors ``(line_no, message,
    raw)`` and the fatal error ``(line_no, message)`` or None. Fields follow
    the header when the first non-blank row names every schema column,
    otherwise the schema order with the label last. A short row, a
    non-numeric or non-finite token in a numeric column (the first such
    column names the row's error) is skipped and reported; an empty token
    is missing; a class without a mapping ends parsing.
    """
    records, errors = [], []
    names = [c.name for c in schema.columns]
    positions = label_pos = None
    for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not row:
            continue
        if positions is None:
            stripped = [t.strip() for t in row]
            if set(stripped) >= set(names) | {schema.label_column}:
                index = {name: i for i, name in enumerate(stripped)}
                positions = [index[n] for n in names]
                label_pos = index[schema.label_column]
                continue
            positions, label_pos = list(range(len(names))), len(names)
        width = max(positions + [label_pos]) + 1
        if len(row) < width:
            errors.append((line_no, f"expected at least {width} fields, got {len(row)}", tuple(row)))
            continue
        values, message = {}, None
        for col, p in zip(schema.columns, positions):
            token = row[p]
            if token == "":
                values[col.name] = None
            elif col.kind != "numeric":
                values[col.name] = token
            else:
                try:
                    v = float(token)
                except ValueError:
                    message = f"non-numeric token {token!r} in numeric column {col.name!r}"
                    break
                if not math.isfinite(v):
                    message = f"non-finite value {token!r} in numeric column {col.name!r}"
                    break
                values[col.name] = v
        if message is not None:
            errors.append((line_no, message, tuple(row)))
            continue
        label = row[label_pos].strip()
        if label not in schema.class_map:
            return records, errors, (line_no, f"line {line_no}: class {label!r} has no mapping in schema "
                                              f"{schema.dataset_id!r}")
        records.append((values, schema.class_map[label], schema.dataset_id))
    return records, errors, None
