"""Kernel SHAP reference implementations — the equivalence oracles.

This module preserves two earlier forms of the estimator that
``repro.xai.shap`` replaced:

* the loop reference (``loop_shap_values``), essentially verbatim the
  per-coalition estimator — one model call per coalition — that the
  batched single-call engine replaced;
* the vectorized reference (``VectorizedShapReference``,
  ``vectorized_exact_shap_values``), the batched engine as it was before
  its coalition design was built once per explainer: it reseeds the
  sampler and re-factorises ``pinv(ZᵀWZ)`` on every call and stacks the
  model input with one broadcast ``np.where``.

Consumers:

* the equivalence property tests — the loop reference to 1e-8 (same
  seed → same masks), the vectorized reference byte for byte, down to
  every matrix handed to ``predict_fn``;
* ``benchmarks/bench_inference.py``, which measures the speedup against
  the loop reference.

Both are deliberately unoptimised, which is why they live with the tests
rather than in the shipped package.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.xai.shap import (
    PredictFn,
    _MAX_ROWS_PER_CALL,
    _enumerate_masks,
    _kernel_weights_by_size,
    _predict_2d,
)


def _coalition_weight(d: int, size: int) -> float:
    """Shapley kernel weight for a coalition of ``size`` of ``d`` players."""
    if size == 0 or size == d:
        return 1e9  # enforced via near-infinite weight (standard trick)
    return (d - 1) / (math.comb(d, size) * size * (d - size))


def _marginalised_prediction(
    predict_fn: PredictFn,
    x: np.ndarray,
    background: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """E_b[f(x with masked-off features replaced by background rows)]."""
    tiled = np.array(background, copy=True)
    tiled[:, mask] = x[mask]
    return np.asarray(predict_fn(tiled)).mean(axis=0)


def _solve_weighted(
    Z: np.ndarray, y: np.ndarray, weights: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """Constrained weighted least squares (single-instance loop variant)."""
    W = weights[:, None]
    A = Z.T @ (W * Z)
    A_inv = np.linalg.pinv(A)
    ones = np.ones(Z.shape[1])
    b = Z.T @ (W * y)
    denom = ones @ A_inv @ ones
    lam = (ones @ A_inv @ b - total) / denom
    return A_inv @ (b - np.outer(ones, lam))


def loop_shap_values(
    predict_fn: PredictFn,
    background: np.ndarray,
    x: np.ndarray,
    n_coalitions: int = 256,
    seed: int = 0,
    class_index: Optional[int] = None,
) -> np.ndarray:
    """One-instance Kernel SHAP, one model call per coalition (reference)."""
    background = np.asarray(background, dtype=np.float64)
    base_values = np.atleast_1d(np.asarray(predict_fn(background)).mean(axis=0))
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d = x.shape[0]
    f_x = np.atleast_1d(np.asarray(predict_fn(x.reshape(1, -1)))[0])
    total = f_x - base_values

    rng = np.random.default_rng(seed)
    n_possible = 2**d - 2 if d < 30 else np.inf
    if n_possible <= n_coalitions:
        masks = np.array(
            [[(i >> j) & 1 for j in range(d)] for i in range(1, 2**d - 1)],
            dtype=bool,
        )
    else:
        # paired antithetic sampling over coalition sizes
        sizes = rng.integers(1, d, size=n_coalitions // 2)
        rows = []
        for size in sizes:
            mask = np.zeros(d, dtype=bool)
            mask[rng.choice(d, size=size, replace=False)] = True
            rows.append(mask)
            rows.append(~mask)
        masks = np.unique(np.array(rows, dtype=bool), axis=0)
        interior = (masks.sum(axis=1) > 0) & (masks.sum(axis=1) < d)
        masks = masks[interior]

    weights = np.array([_coalition_weight(d, int(m.sum())) for m in masks])
    values = np.vstack(
        [
            _marginalised_prediction(predict_fn, x, background, m)
            for m in masks
        ]
    )
    y = values - base_values
    phi = _solve_weighted(masks.astype(np.float64), y, weights, total)
    if class_index is not None:
        return phi[:, class_index]
    return phi


def loop_shap_values_batch(
    predict_fn: PredictFn,
    background: np.ndarray,
    X: np.ndarray,
    n_coalitions: int = 256,
    seed: int = 0,
    class_index: Optional[int] = None,
) -> np.ndarray:
    """Row-at-a-time batch explanation: one loop-reference call per row."""
    X = np.asarray(X, dtype=np.float64)
    return np.array(
        [
            loop_shap_values(
                predict_fn, background, x, n_coalitions, seed, class_index
            )
            for x in X
        ]
    )


# -- the vectorized path before the design was built once per explainer ----


def vectorized_coalitions(d: int, n_coalitions: int, seed: int):
    """Coalition design for one explanation run: (masks, weights).

    Reseeded per call.  Small feature counts enumerate every non-trivial
    mask; larger ones use paired antithetic sampling with the loop
    reference's RNG call sequence.
    """
    rng = np.random.default_rng(seed)
    n_possible = 2**d - 2 if d < 30 else np.inf
    if n_possible <= n_coalitions:
        masks = _enumerate_masks(d)
    else:
        # paired antithetic sampling over coalition sizes
        sizes = rng.integers(1, d, size=n_coalitions // 2)
        rows = np.zeros((2 * sizes.shape[0], d), dtype=bool)
        for i, size in enumerate(sizes):
            rows[2 * i, rng.choice(d, size=size, replace=False)] = True
        rows[1::2] = ~rows[::2]
        masks = np.unique(rows, axis=0)
        counts = masks.sum(axis=1)
        masks = masks[(counts > 0) & (counts < d)]
    weights = _kernel_weights_by_size(d)[masks.sum(axis=1)]
    return masks, weights


def grouped_marginal_means(
    predict_fn: PredictFn,
    X: np.ndarray,
    background: np.ndarray,
    masks: np.ndarray,
) -> np.ndarray:
    """E_b[f(x_i with off-coalition features from b)] per (instance, mask).

    Builds the stacked ``(n_instances · n_masks · n_background, d)`` input
    by broadcasting ``np.where(mask, x, background)``, evaluates it in
    chunks of ``_MAX_ROWS_PER_CALL // n_background`` groups, and reduces
    each background block with one grouped ``np.add.reduceat``.  Returns
    shape (n_instances, n_masks, n_outputs).
    """
    n_inst, d = X.shape
    n_masks = masks.shape[0]
    n_bg = background.shape[0]
    n_groups = n_inst * n_masks
    # one group per (instance, mask) pair; instances vary slowest
    group_mask = np.broadcast_to(masks, (n_inst, n_masks, d)).reshape(n_groups, d)
    group_x = np.repeat(X, n_masks, axis=0)
    groups_per_call = max(1, _MAX_ROWS_PER_CALL // n_bg)
    chunks = []
    for start in range(0, n_groups, groups_per_call):
        gm = group_mask[start : start + groups_per_call]
        gx = group_x[start : start + groups_per_call]
        stacked = np.where(gm[:, None, :], gx[:, None, :], background[None, :, :])
        preds = _predict_2d(predict_fn, stacked.reshape(-1, d))
        offsets = np.arange(0, preds.shape[0], n_bg)
        chunks.append(np.add.reduceat(preds, offsets, axis=0) / n_bg)
    means = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)
    return means.reshape(n_inst, n_masks, -1)


class VectorizedShapReference:
    """``KernelShapExplainer``'s entry points, rebuilding the design per call.

    With d = 1 there is no non-trivial coalition, and the stacking above
    has nothing to evaluate (the original explainer raised there); the
    additivity constraint alone then fixes the one player's value at
    ``f(x) − base``, which is what this reference returns.
    """

    def __init__(self, predict_fn, background, n_coalitions=256, seed=0):
        self.predict_fn = predict_fn
        self.background = np.asarray(background, dtype=np.float64)
        self.n_coalitions = n_coalitions
        self.seed = seed
        self.base_values_ = np.atleast_1d(
            np.asarray(predict_fn(self.background)).mean(axis=0)
        )

    def _marginals(self, X):
        f_X = _predict_2d(self.predict_fn, X)
        total = f_X - self.base_values_
        masks, weights = vectorized_coalitions(
            X.shape[1], self.n_coalitions, self.seed
        )
        if masks.shape[0] == 0:
            return total, None, None, None
        means = grouped_marginal_means(self.predict_fn, X, self.background, masks)
        return total, means - self.base_values_, masks, weights

    def shap_values(self, x, class_index=None):
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return self.shap_values_batch_exact(x.reshape(1, -1), class_index)[0]

    def shap_values_batch_exact(self, X, class_index=None):
        X = np.asarray(X, dtype=np.float64)
        n_inst, d = X.shape
        total, y, masks, weights = self._marginals(X)
        if y is None:
            phi = total[:, None, :]
        else:
            Z = masks.astype(np.float64)
            phi = np.empty((n_inst, d, self.base_values_.shape[0]))
            for i in range(n_inst):
                phi[i] = _solve_weighted(Z, y[i], weights, total[i])
        return phi if class_index is None else phi[:, :, class_index]

    def mean_abs_importance(self, X, class_index):
        return np.abs(self.shap_values_batch_exact(X, class_index)).mean(axis=0)


def vectorized_exact_shap_values(predict_fn, x, background):
    """Exact Shapley values by enumeration over the ``np.where`` stacker."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    background = np.asarray(background, dtype=np.float64)
    d = x.shape[0]
    masks = _enumerate_masks(d, include_trivial=True)
    v = grouped_marginal_means(predict_fn, x.reshape(1, -1), background, masks)[0]
    fact = np.array([math.factorial(k) for k in range(d + 1)], dtype=np.float64)
    coeff = fact[:d] * fact[d - 1 - np.arange(d)] / fact[d] if d else fact[:0]
    sizes = masks.sum(axis=1)
    ids = np.arange(2**d, dtype=np.int64)
    phi = np.zeros((d, v.shape[1]))
    for j in range(d):
        without = ids[(ids >> j) & 1 == 0]
        with_j = without | (1 << j)
        phi[j] = coeff[sizes[without]] @ (v[with_j] - v[without])
    return phi
