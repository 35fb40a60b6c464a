"""Gradient-boosted regression trees for pinball and absolute losses.

Each round fits a shallow tree to the negative loss gradient at the current
predictions, then replaces every leaf value with the loss-minimizing constant
for the residuals routed there (median for absolute loss, the tau-quantile
for pinball). With line-searched leaves and a learning rate in (0, 1] the
training loss is non-increasing round over round by convexity.

Trees are grown by exact greedy split search over presorted columns (Chen &
Guestrin 2016, XGBoost's column blocks). Each round argsorts every feature
once, stably, on the round's subsample. A child node inherits its parent's
column orders filtered to its own rows; filtering keeps a stable order
stable, so every node sees the order a fresh stable argsort of its rows
would give, and the same prefix sums. Within a node the gains of all cuts
of all features come from one numpy expression over those prefix sums.
A round costs one O(d·n log n) sort and O(d·n) per tree level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


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


def _fit_tree(X: np.ndarray, g: np.ndarray, depth: int, min_leaf: int) -> TreeNode:
    """The splits of one tree on all rows of X, with each column sorted once.

    Leaf values are left at 0.0 for `_fit_leaves` to set.
    """
    order = np.argsort(X.T, axis=1, kind="stable")
    return _grow(X, g, np.arange(len(X)), order, depth, min_leaf)


def _grow(X, g, rows, order, depth, min_leaf) -> TreeNode:
    split = _best_split(X, g, rows, order, min_leaf) if depth > 0 else None
    if split is None:
        return TreeNode()
    f, thr = split
    goes_left = X[:, f] <= thr
    in_left = goes_left[order]
    d = len(order)
    left_rows, right_rows = rows[goes_left[rows]], rows[~goes_left[rows]]
    left_order = order[in_left].reshape(d, -1)
    right_order = order[~in_left].reshape(d, -1)
    return TreeNode(
        feature=f,
        threshold=thr,
        left=_grow(X, g, left_rows, left_order, depth - 1, min_leaf),
        right=_grow(X, g, right_rows, right_order, depth - 1, min_leaf),
    )


def _route(node: TreeNode, X: np.ndarray):
    """Yield each leaf with the ascending indices of the rows of X it holds."""
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, idx = stack.pop()
        if nd.is_leaf:
            yield nd, idx
            continue
        mask = X[idx, nd.feature] <= nd.threshold
        stack.append((nd.left, idx[mask]))
        stack.append((nd.right, idx[~mask]))


def _tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    for leaf, idx in _route(node, X):
        out[idx] = leaf.value
    return out


def _fit_leaves(
    node: TreeNode, X: np.ndarray, resid: np.ndarray, leaf_value
) -> np.ndarray:
    """Line-search every leaf value on the full training residuals.

    Tree structure may come from a subsample; fitting leaf values on all
    routed samples keeps each round a true descent step on the training
    loss (for any learning rate in (0, 1], by convexity of the losses).
    Returns the tree's predictions on X.
    """
    out = np.empty(len(X))
    for leaf, idx in _route(node, X):
        leaf.value = float(leaf_value(resid[idx])) if idx.size else 0.0
        out[idx] = leaf.value
    return out


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
    loss: str  # "absolute" or "pinball"
    tau: float | None
    base_prediction: float
    trees: tuple[TreeNode, ...]
    learning_rate: float
    train_losses: tuple[float, ...] = field(default=())

    def predict(self, X: np.ndarray) -> np.ndarray:
        pred = np.full(len(X), self.base_prediction)
        for tree in self.trees:
            pred += self.learning_rate * _tree_predict(tree, X)
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
        loss_fn = lambda r: pinball_loss(y, r, tau)
        leaf_value = lambda res: _quantile_leaf(res, tau)
    elif loss == "absolute":
        base = float(np.median(y))
        grad_fn = lambda r: absolute_gradient(y, r)
        loss_fn = lambda r: absolute_loss(y, r)
        leaf_value = _median_leaf
    else:
        raise ValueError(f"unknown loss {loss!r}")

    rng = np.random.default_rng(seed)
    n = len(y)
    n_sub = max(2 * min_leaf, int(round(subsample * n)))
    pred = np.full(n, base)
    trees: list[TreeNode] = []
    losses = [loss_fn(pred)]
    for _ in range(rounds):
        g = grad_fn(pred)
        if n_sub < n:
            idx = rng.choice(n, size=n_sub, replace=False)
            tree = _fit_tree(X[idx], g[idx], depth, min_leaf)
        else:
            tree = _fit_tree(X, g, depth, min_leaf)
        pred = pred + rate * _fit_leaves(tree, X, y - pred, leaf_value)
        trees.append(tree)
        losses.append(loss_fn(pred))
    return BoostedModel(
        loss=loss,
        tau=tau,
        base_prediction=base,
        trees=tuple(trees),
        learning_rate=rate,
        train_losses=tuple(losses),
    )
