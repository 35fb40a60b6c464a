"""Gradient-boosted regression trees for pinball and absolute losses.

Each round fits a shallow tree to the negative loss gradient at the current
predictions, then replaces every leaf value with the loss-minimizing constant
for the residuals routed there (median for absolute loss, the tau-quantile
for pinball). With line-searched leaves and a learning rate in (0, 1] the
training loss is non-increasing round over round by convexity.

Trees are grown by exact greedy split search over presorted columns (Chen &
Guestrin 2016, XGBoost's column blocks). Each fit ranks every column once;
each round stably argsorts the ranks of its subsample, which orders the rows
as a stable sort of their values would. A child node inherits its parent's
column orders filtered to its own rows; filtering keeps a stable order
stable, so every node sees the order a fresh stable argsort of its rows
would give, and the same prefix sums. Within a node the gains of all cuts
of all features come from one numpy expression over those prefix sums.
A round costs one sort, a radix sort in O(d·n) up to 65 536 rows, and
O(d·n) per tree level.

Trees are stored as perfect depth-3 heaps of arrays (the perfect-tree
traversal of Hummingbird, Nakandala et al. 2020), so prediction is three
vectorised comparisons per tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _best_split(
    X: np.ndarray, g: np.ndarray, rows: np.ndarray, order: np.ndarray, min_leaf: int
):
    """Exact greedy (feature, threshold) search maximizing SSE reduction on g.

    The node holds the rows `rows` of X and g, in ascending order; row f of
    `order` holds the same indices sorted stably by X[:, f]. A cut after the
    i-th sorted value is admissible when both sides keep at least min_leaf
    rows and the values on either side differ. With L the prefix sum of g up
    to the cut and T the node total, its gain is
    L²/i + (T−L)²/(n−i) − T²/n, computed for every cut of every feature at
    once. The cut is placed midway between the two values.

    Returns None when no cut gains more than 1e-12. Ties go to the lowest
    feature index, then the lowest threshold, so trees are deterministic.
    Cost per node: O(n·d) gathers, prefix sums and gains; no sorting.
    """
    n = len(rows)
    if n < 2 * min_leaf:
        return None
    total = g[rows].sum()
    base = total * total / n
    d = X.shape[1]
    xs = X[order, np.arange(d)[:, None]]
    left = np.cumsum(g[order], axis=1)[:, min_leaf - 1 : n - min_leaf]
    size = np.arange(min_leaf, n - min_leaf + 1, dtype=np.float64)
    right = total - left
    gain = left * left / size + right * right / (n - size) - base
    tied = xs[:, min_leaf - 1 : n - min_leaf] == xs[:, min_leaf : n - min_leaf + 1]
    gain[tied] = -np.inf
    cut = gain.argmax(axis=1)
    feature_gain = gain[np.arange(d), cut]
    f = int(feature_gain.argmax())
    if not feature_gain[f] > 1e-12:
        return None
    i = min_leaf + int(cut[f])
    return f, (xs[f, i - 1] + xs[f, i]) / 2.0


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Row f holds the dense rank of each value of X[:, f] among the column's.

    Equal values share a rank (-0.0 and 0.0, and all NaNs, included), so a
    stable argsort of any rows' ranks is the stable float argsort of the same
    rows. numpy radix-sorts 16-bit keys, and no column of at most 65 536 rows
    holds more distinct values than fit in one.
    """
    dtype = np.uint16 if len(X) <= 1 << 16 else np.uint32
    ranks = [np.unique(col, return_inverse=True)[1] for col in X.T]
    return np.stack(ranks).astype(dtype)


def _fit_tree(Xs, gs, order, X, resid, depth, min_leaf, leaf_value):
    """One round's tree as a depth-3 heap, and its output on all rows of X.

    Splits are searched on the subsample (Xs, gs); row f of `order` sorts its
    column f stably. Node k's children are 2k+1, for rows with
    x[feature[k]] <= threshold[k], and 2k+2; a node that did not split keeps
    threshold +inf. Each split partitions the rows of all of X by the same
    test, and each leaf's value is line-searched on the residuals of the rows
    that reach it: fitting leaf values on all rows keeps each round a true
    descent step on the training loss (for any learning rate in (0, 1], by
    convexity). The value fills every heap leaf the leaf spans, so a row sent
    right at a padded node (NaN) gets it too.
    """
    feature = np.zeros(7, dtype=np.intp)
    threshold = np.full(7, np.inf)
    value = np.empty(8)
    step = np.empty(len(X))

    stack = [(0, 0, np.arange(len(Xs)), order, np.arange(len(X)))]
    while stack:
        node, level, rows, order, full_rows = stack.pop()
        split = _best_split(Xs, gs, rows, order, min_leaf) if level < depth else None
        if split is None:
            v = float(leaf_value(resid[full_rows])) if full_rows.size else 0.0
            span = 1 << (3 - level)
            first = (node + 1) * span - 8
            value[first : first + span] = v
            step[full_rows] = v
            continue
        f, thr = split
        feature[node], threshold[node] = f, thr
        goes_left = Xs[:, f] <= thr
        in_left = goes_left[order]
        d = len(order)
        full_left = X[full_rows, f] <= thr
        stack.append((2 * node + 1, level + 1, rows[goes_left[rows]],
                      order[in_left].reshape(d, -1), full_rows[full_left]))
        stack.append((2 * node + 2, level + 1, rows[~goes_left[rows]],
                      order[~in_left].reshape(d, -1), full_rows[~full_left]))
    return (feature, threshold, value), step


def _quantile_leaf(res: np.ndarray, tau: float) -> float:
    """np.quantile(res, tau, method="inverted_cdf") of finite res, by one partition.

    k is the order statistic numpy's inverted_cdf method picks.
    """
    k = max(0, math.ceil(len(res) * tau - 1))
    return np.partition(res, k)[k]


def _median_leaf(res: np.ndarray) -> float:
    """np.median(res) for finite res, by one partition."""
    h = len(res) // 2
    if len(res) % 2:
        return np.partition(res, h)[h]
    part = np.partition(res, (h - 1, h))
    return (part[h - 1] + part[h]) / 2.0


def pinball_loss(y: np.ndarray, pred: np.ndarray, tau: float) -> float:
    u = y - pred
    return float(np.maximum(tau * u, (tau - 1.0) * u).mean())


def absolute_loss(y: np.ndarray, pred: np.ndarray) -> float:
    return float(np.abs(y - pred).mean())


def pinball_gradient(y: np.ndarray, pred: np.ndarray, tau: float) -> np.ndarray:
    """Negative subgradient of mean pinball loss w.r.t. predictions (unscaled).

    Exact ties take the midpoint subgradient tau - 1/2. Integer labels make
    ties common: a one-sided choice would zero out the split signal whenever
    the current prediction sits on the boundary label.
    """
    u = y - pred
    return np.where(u > 0, tau, np.where(u < 0, tau - 1.0, tau - 0.5))


def absolute_gradient(y: np.ndarray, pred: np.ndarray) -> np.ndarray:
    return np.sign(y - pred)


@dataclass(frozen=True)
class BoostedModel:
    """Boosted trees, one per round. A tree is (feature[7], threshold[7],
    value[8]): a perfect depth-3 heap, as `_fit_tree` lays it out."""

    loss: str  # "absolute" or "pinball"
    tau: float | None
    base_prediction: float
    trees: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    learning_rate: float

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Three comparisons per row and tree (NaN goes right); trees are
        added in round order."""
        # Column-major, so a feature past X's last column is out of bounds.
        n = len(X)
        flat, rows = X.ravel(order="F"), np.arange(n)
        pred = np.full(n, self.base_prediction)
        for feature, threshold, value in self.trees:
            node = np.zeros(n, dtype=np.intp)
            for _ in range(3):
                node = 2 * node + 2 - (flat[feature[node] * n + rows] <= threshold[node])
            pred += self.learning_rate * value[node - 7]
        return pred


def fit_boosted(
    X: np.ndarray,
    y: np.ndarray,
    loss: str,
    rounds: int,
    depth: int = 3,
    rate: float = 0.1,
    tau: float | None = None,
    min_leaf: int = 5,
    subsample: float = 0.7,
    seed: int = 42,
) -> BoostedModel:
    """Boosted shallow trees; each round sees a seeded random subsample.

    Subsampling diversifies split thresholds across rounds, so the ensemble
    prediction surface is fine-grained rather than a coarse leaf lattice
    (coarse lattices put large atoms in downstream nonconformity scores).
    """
    if len(X) == 0:
        raise ValueError("cannot fit on an empty training set")
    if depth > 3 or depth < 0:
        raise ValueError(f"tree depth must be in [0, 3], got {depth}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if not 0.0 < subsample <= 1.0:
        raise ValueError(f"subsample must be in (0, 1], got {subsample}")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets must be finite")
    if loss == "pinball":
        if tau is None or not 0.0 < tau < 1.0:
            raise ValueError("pinball loss needs tau in (0, 1)")
        base = float(np.quantile(y, tau, method="inverted_cdf"))
        grad_fn = lambda r: pinball_gradient(y, r, tau)
        leaf_value = lambda res: _quantile_leaf(res, tau)
    elif loss == "absolute":
        base = float(np.median(y))
        grad_fn = lambda r: absolute_gradient(y, r)
        leaf_value = _median_leaf
    else:
        raise ValueError(f"unknown loss {loss!r}")

    rng = np.random.default_rng(seed)
    n = len(y)
    n_sub = max(2 * min_leaf, int(round(subsample * n)))
    ranks = _dense_ranks(X)
    pred = np.full(n, base)
    trees = []
    for _ in range(rounds):
        g = grad_fn(pred)
        if n_sub < n:
            idx = rng.choice(n, size=n_sub, replace=False)
            Xs, gs, rs = X[idx], g[idx], ranks[:, idx]
        else:
            Xs, gs, rs = X, g, ranks
        order = np.argsort(rs, axis=1, kind="stable")
        tree, step = _fit_tree(Xs, gs, order, X, y - pred, depth, min_leaf, leaf_value)
        pred = pred + rate * step
        trees.append(tree)
    return BoostedModel(
        loss=loss,
        tau=tau,
        base_prediction=base,
        trees=tuple(trees),
        learning_rate=rate,
    )
