"""Loop-based Kernel SHAP reference — the pre-vectorization implementation.

This module preserves, essentially verbatim, the per-coalition estimator
that ``repro.xai.shap`` replaced with the batched single-call engine.  It
exists for exactly two consumers:

* the equivalence property tests, which assert that the vectorized engine
  reproduces these numbers (same seed → same masks → matching attributions),
* ``benchmarks/bench_inference.py``, which measures the speedup against it.

It is deliberately slow — one model call per coalition — which is why it
lives with the tests rather than in the shipped package.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.xai.shap import PredictFn


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
    """Row-at-a-time batch explanation (the old ``shap_values_batch``)."""
    X = np.asarray(X, dtype=np.float64)
    return np.array(
        [
            loop_shap_values(
                predict_fn, background, x, n_coalitions, seed, class_index
            )
            for x in X
        ]
    )
