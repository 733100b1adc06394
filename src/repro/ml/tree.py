"""CART decision tree with vectorised split search.

The tree serves three roles in the reproduction: the DT model of use case 1,
the base learner of the random forest, and (as a regression variant) the weak
learner inside the gradient-boosted ensembles standing in for
LightGBM/XGBoost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.ml.flattree import FlatTree, _Node
from repro.ml.model import Classifier, check_Xy, encode_labels


def _gini_from_counts(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _entropy_from_counts(counts: np.ndarray, total: float) -> float:
    if total <= 0:
        return 0.0
    p = counts / total
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@dataclass
class _SplitResult:
    feature: int
    threshold: float
    gain: float
    left_mask: np.ndarray = field(repr=False, default=None)


def _best_split_classification(
    X: np.ndarray,
    y_idx: np.ndarray,
    n_classes: int,
    feature_indices: np.ndarray,
    min_samples_leaf: int,
    criterion: str,
) -> Optional[_SplitResult]:
    """Exact best split over the candidate features (sorted prefix-sum scan)."""
    n = X.shape[0]
    impurity_fn = _gini_from_counts if criterion == "gini" else _entropy_from_counts
    parent_counts = np.bincount(y_idx, minlength=n_classes).astype(np.float64)
    parent_impurity = impurity_fn(parent_counts, float(n))
    best: Optional[_SplitResult] = None
    for f in feature_indices:
        order = np.argsort(X[:, f], kind="mergesort")
        values = X[order, f]
        labels = y_idx[order]
        # prefix class counts: counts[i, c] = #{labels[:i] == c}
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), labels] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        # candidate cut between position i-1 and i wherever the value changes
        diff = np.flatnonzero(values[1:] != values[:-1]) + 1
        if diff.size == 0:
            continue
        valid = diff[(diff >= min_samples_leaf) & (n - diff >= min_samples_leaf)]
        if valid.size == 0:
            continue
        left_counts = prefix[valid - 1]
        right_counts = parent_counts - left_counts
        left_n = valid.astype(np.float64)
        right_n = n - left_n
        if criterion == "gini":
            left_imp = 1.0 - np.sum((left_counts / left_n[:, None]) ** 2, axis=1)
            right_imp = 1.0 - np.sum((right_counts / right_n[:, None]) ** 2, axis=1)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                pl = left_counts / left_n[:, None]
                pr = right_counts / right_n[:, None]
                left_imp = -np.nansum(np.where(pl > 0, pl * np.log2(pl), 0.0), axis=1)
                right_imp = -np.nansum(np.where(pr > 0, pr * np.log2(pr), 0.0), axis=1)
        weighted = (left_n * left_imp + right_n * right_imp) / n
        gains = parent_impurity - weighted
        k = int(np.argmax(gains))
        if gains[k] <= 1e-12:
            continue
        cut = valid[k]
        threshold = 0.5 * (values[cut - 1] + values[cut])
        if best is None or gains[k] > best.gain:
            best = _SplitResult(
                feature=int(f),
                threshold=float(threshold),
                gain=float(gains[k]),
                left_mask=X[:, f] <= threshold,
            )
    return best


class DecisionTreeClassifier(Classifier):
    """CART classifier (gini or entropy) with depth and leaf-size controls.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until pure or leaf-size limited.
    min_samples_split:
        Minimum samples a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum samples each child must retain.
    criterion:
        ``"gini"`` or ``"entropy"``.
    max_features:
        If set, the number of features sampled (without replacement) at every
        node — the randomisation that powers the random forest.
    seed:
        RNG seed for the per-node feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
        max_features: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self._record_params(locals())
        if criterion not in {"gini", "entropy"}:
            raise ValueError(f"unknown criterion {criterion!r}")
        if min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid leaf/split minimums")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed
        self.nodes_: List[_Node] = []
        self.classes_ = np.empty(0)
        self.n_features_: int = 0
        self._flat: Optional[FlatTree] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = check_Xy(X, y)
        self.classes_, y_idx = encode_labels(y)
        self.n_features_ = X.shape[1]
        n_classes = len(self.classes_)
        rng = np.random.default_rng(self.seed)
        self.nodes_ = []
        self._flat = None
        self._grow(X, y_idx, n_classes, depth=0, rng=rng)
        self._flat = FlatTree.from_nodes(self.nodes_)
        return self

    @property
    def flat_(self) -> FlatTree:
        """The compiled flat-array form (built on fit/load, cached)."""
        if not self.nodes_:
            raise RuntimeError("model used before fit()")
        if self._flat is None or self._flat.n_nodes != len(self.nodes_):
            self._flat = FlatTree.from_nodes(self.nodes_)
        return self._flat

    def _grow(
        self,
        X: np.ndarray,
        y_idx: np.ndarray,
        n_classes: int,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        node_id = len(self.nodes_)
        counts = np.bincount(y_idx, minlength=n_classes).astype(np.float64)
        node = _Node(value=counts / counts.sum(), n_samples=len(y_idx))
        self.nodes_.append(node)
        depth_ok = self.max_depth is None or depth < self.max_depth
        if (
            depth_ok
            and len(y_idx) >= self.min_samples_split
            and np.count_nonzero(counts) > 1
        ):
            if self.max_features is not None and self.max_features < X.shape[1]:
                feats = rng.choice(X.shape[1], size=self.max_features, replace=False)
            else:
                feats = np.arange(X.shape[1])
            split = _best_split_classification(
                X, y_idx, n_classes, feats, self.min_samples_leaf, self.criterion
            )
            if split is not None:
                left_mask = split.left_mask
                node.feature = split.feature
                node.threshold = split.threshold
                node.left = self._grow(
                    X[left_mask], y_idx[left_mask], n_classes, depth + 1, rng
                )
                node.right = self._grow(
                    X[~left_mask], y_idx[~left_mask], n_classes, depth + 1, rng
                )
        return node_id

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.nodes_:
            raise RuntimeError("model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected (n, {self.n_features_}) input, got {X.shape}"
            )
        return self.flat_.predict_value(X)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (root = 0)."""
        if not self.nodes_:
            return 0

        def walk(node_id: int) -> int:
            node = self.nodes_[node_id]
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes in the fitted tree."""
        return sum(1 for node in self.nodes_ if node.is_leaf)


class DecisionTreeRegressor:
    """Variance-reduction CART regressor (weak learner for boosting).

    Minimal interface: ``fit(X, residuals)`` / ``predict(X)``.  Supports the
    leaf-wise ("best-first", LightGBM-like) and level-wise (depth-first,
    XGBoost-like) growth strategies via ``growth``.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        max_leaves: Optional[int] = None,
        growth: str = "level",
        l2: float = 0.0,
        seed: int = 0,
    ) -> None:
        if growth not in {"level", "leaf"}:
            raise ValueError(f"unknown growth {growth!r}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_leaves = max_leaves
        self.growth = growth
        self.l2 = l2
        self.seed = seed
        self.nodes_: List[_Node] = []
        self._flat: Optional[FlatTree] = None

    def _leaf_value(self, residuals: np.ndarray, hessian: np.ndarray) -> float:
        return float(residuals.sum() / (hessian.sum() + self.l2))

    def _best_split(
        self, X: np.ndarray, g: np.ndarray, h: np.ndarray
    ) -> Optional[_SplitResult]:
        """Best squared-error (Newton gain) split over all features."""
        n = X.shape[0]
        g_total, h_total = g.sum(), h.sum()
        parent_score = g_total * g_total / (h_total + self.l2)
        best: Optional[_SplitResult] = None
        for f in range(X.shape[1]):
            order = np.argsort(X[:, f], kind="mergesort")
            values = X[order, f]
            g_prefix = np.cumsum(g[order])
            h_prefix = np.cumsum(h[order])
            diff = np.flatnonzero(values[1:] != values[:-1]) + 1
            if diff.size == 0:
                continue
            valid = diff[
                (diff >= self.min_samples_leaf) & (n - diff >= self.min_samples_leaf)
            ]
            if valid.size == 0:
                continue
            gl = g_prefix[valid - 1]
            hl = h_prefix[valid - 1]
            gr = g_total - gl
            hr = h_total - hl
            gains = (
                gl * gl / (hl + self.l2)
                + gr * gr / (hr + self.l2)
                - parent_score
            )
            k = int(np.argmax(gains))
            if gains[k] <= 1e-12:
                continue
            cut = valid[k]
            threshold = 0.5 * (values[cut - 1] + values[cut])
            if best is None or gains[k] > best.gain:
                best = _SplitResult(
                    feature=int(f),
                    threshold=float(threshold),
                    gain=float(gains[k]),
                    left_mask=X[:, f] <= threshold,
                )
        return best

    def fit(
        self,
        X: np.ndarray,
        gradients: np.ndarray,
        hessians: Optional[np.ndarray] = None,
    ) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        g = np.asarray(gradients, dtype=np.float64)
        h = (
            np.ones_like(g)
            if hessians is None
            else np.asarray(hessians, dtype=np.float64)
        )
        self.nodes_ = []
        self._flat = None
        if self.growth == "level":
            self._grow_level(X, g, h, depth=0)
        else:
            self._grow_leafwise(X, g, h)
        self._flat = FlatTree.from_nodes(self.nodes_)
        return self

    @property
    def flat_(self) -> FlatTree:
        """The compiled flat-array form (built on fit/load, cached)."""
        if not self.nodes_:
            raise RuntimeError("model used before fit()")
        if self._flat is None or self._flat.n_nodes != len(self.nodes_):
            self._flat = FlatTree.from_nodes(self.nodes_)
        return self._flat

    def _grow_level(
        self, X: np.ndarray, g: np.ndarray, h: np.ndarray, depth: int
    ) -> int:
        node_id = len(self.nodes_)
        node = _Node(value=np.array([self._leaf_value(g, h)]), n_samples=len(g))
        self.nodes_.append(node)
        if depth < self.max_depth and len(g) >= 2 * self.min_samples_leaf:
            split = self._best_split(X, g, h)
            if split is not None:
                mask = split.left_mask
                node.feature = split.feature
                node.threshold = split.threshold
                node.left = self._grow_level(X[mask], g[mask], h[mask], depth + 1)
                node.right = self._grow_level(
                    X[~mask], g[~mask], h[~mask], depth + 1
                )
        return node_id

    def _grow_leafwise(self, X: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
        """Best-first growth: always expand the leaf with the largest gain."""
        max_leaves = self.max_leaves or (2**self.max_depth)
        root = _Node(value=np.array([self._leaf_value(g, h)]), n_samples=len(g))
        self.nodes_.append(root)
        # frontier entries: (node_id, row index array, depth, cached split)
        idx_all = np.arange(X.shape[0])
        frontier = [(0, idx_all, 0, self._best_split(X, g, h))]
        n_leaves = 1
        while n_leaves < max_leaves:
            candidates = [f for f in frontier if f[3] is not None]
            if not candidates:
                break
            best_i = max(range(len(candidates)), key=lambda i: candidates[i][3].gain)
            node_id, idx, depth, split = candidates[best_i]
            frontier.remove(candidates[best_i])
            mask = split.left_mask
            left_idx, right_idx = idx[mask], idx[~mask]
            node = self.nodes_[node_id]
            node.feature = split.feature
            node.threshold = split.threshold
            for child_idx in (left_idx, right_idx):
                child_id = len(self.nodes_)
                gc, hc = g[child_idx], h[child_idx]
                child = _Node(
                    value=np.array([self._leaf_value(gc, hc)]),
                    n_samples=len(child_idx),
                )
                self.nodes_.append(child)
                if node.left < 0:
                    node.left = child_id
                else:
                    node.right = child_id
                child_split = None
                if (
                    depth + 1 < self.max_depth
                    and len(child_idx) >= 2 * self.min_samples_leaf
                ):
                    child_split = self._best_split(X[child_idx], gc, hc)
                frontier.append((child_id, child_idx, depth + 1, child_split))
            n_leaves += 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.nodes_:
            raise RuntimeError("model used before fit()")
        X = np.asarray(X, dtype=np.float64)
        return self.flat_.predict_value(X)[:, 0]
