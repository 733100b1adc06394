"""Kernel SHAP: model-agnostic Shapley-value feature attributions.

Same estimator family as Lundberg & Lee's KernelExplainer: sample feature
coalitions, evaluate the model with absent features marginalised over a
background dataset, and solve the Shapley-kernel-weighted linear regression
under the additivity constraint.  For small feature counts the exact
enumeration over all 2^d coalitions is used, which makes the additivity and
symmetry axioms hold to numerical precision (property-tested in the suite).

The estimation pipeline is fully vectorized: all (coalition × background)
model inputs are stacked into one matrix by broadcasting and evaluated in a
single ``predict_fn`` call (chunked only past a fixed row budget), per-
coalition means come from one grouped ``np.add.reduceat``, kernel weights
are a per-size table lookup, and mask enumeration is arithmetic on an
``arange``.  :meth:`KernelShapExplainer.shap_values_batch` explains a whole
batch through one shared coalition sample and one KKT solve whose
factorisation is reused across every instance and output column.  The
per-coalition loop implementation is preserved verbatim in
``tests/xai/reference_shap.py`` as the equivalence oracle for tests and
benches.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

PredictFn = Callable[[np.ndarray], np.ndarray]

# One batched model call covers at most this many stacked rows; above it the
# (n_groups × n_background) stack is chunked so peak memory stays bounded
# and the model's working set stays cache-resident (very large single calls
# measurably degrade per-row throughput), while typical workloads
# (256 coalitions × 100 background rows) remain a single call.
_MAX_ROWS_PER_CALL = 1 << 15


def _kernel_weights_by_size(d: int) -> np.ndarray:
    """Shapley kernel weight per coalition *size*: a (d + 1,) lookup table.

    The weight depends on the mask only through its popcount, so it is
    computed once per size here and applied to every mask by indexing —
    not recomputed per coalition.  Empty and full coalitions get a
    near-infinite weight (the standard constraint-enforcement trick).
    """
    table = np.full(d + 1, 1e9)
    for size in range(1, d):
        table[size] = (d - 1) / (math.comb(d, size) * size * (d - size))
    return table


def _enumerate_masks(d: int, include_trivial: bool = False) -> np.ndarray:
    """All coalition masks as a (n_masks, d) bool matrix, in id order.

    Row ``i`` holds the bits of integer ``i`` (column ``j`` = bit ``j``),
    produced by shifting an ``arange`` — no Python-level double loop.  By
    default the empty and full coalitions are excluded (the Kernel SHAP
    regression constrains them exactly); ``include_trivial`` keeps them for
    exact enumeration.
    """
    start, stop = (0, 2**d) if include_trivial else (1, 2**d - 1)
    ids = np.arange(start, stop, dtype=np.int64)
    return ((ids[:, None] >> np.arange(d, dtype=np.int64)) & 1).astype(bool)


def _predict_2d(predict_fn: PredictFn, X: np.ndarray) -> np.ndarray:
    """Evaluate the model and normalise the output to (n, n_outputs)."""
    preds = np.asarray(predict_fn(X), dtype=np.float64)
    if preds.ndim == 1:
        preds = preds[:, None]
    return preds


def _grouped_marginal_means(
    predict_fn: PredictFn,
    X: np.ndarray,
    background: np.ndarray,
    masks: np.ndarray,
) -> np.ndarray:
    """E_b[f(x_i with off-coalition features from b)] per (instance, mask).

    Builds the stacked ``(n_instances · n_masks · n_background, d)`` input
    by broadcasting ``np.where(mask, x, background)``, evaluates the model
    in as few calls as the row budget allows (one, typically), and reduces
    each contiguous background block to its mean with one grouped
    ``np.add.reduceat``.  Returns shape (n_instances, n_masks, n_outputs).
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


def _solve_weighted(
    Z: np.ndarray, y: np.ndarray, weights: np.ndarray, total: np.ndarray
) -> np.ndarray:
    """Constrained weighted least squares: min ||Zφ−y||_W s.t. Σφ = total.

    ``y`` and ``total`` may be matrices (one column per instance × output
    pair); the factorisation ``pinv(ZᵀWZ)`` depends only on the coalition
    design, so a whole batch shares one solve.
    """
    W = weights[:, None]
    A = Z.T @ (W * Z)
    A_inv = np.linalg.pinv(A)
    ones = np.ones(Z.shape[1])
    b = Z.T @ (W * y)
    # KKT multiplier per output column
    denom = ones @ A_inv @ ones
    lam = (ones @ A_inv @ b - total) / denom
    return A_inv @ (b - np.outer(ones, lam))


def exact_shap_values(
    predict_fn: PredictFn,
    x: np.ndarray,
    background: np.ndarray,
) -> np.ndarray:
    """Exact Shapley values by full enumeration (use for d ≤ ~12).

    Returns an array of shape (d, n_outputs): the attribution of each feature
    to each model output, satisfying ``base + Σφ = f(x)`` exactly.

    All 2^d coalition values come from one batched model evaluation; the
    Shapley sum per feature is a weighted dot product between the
    marginal-contribution matrix and a precomputed factorial-coefficient
    table indexed by coalition size.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    background = np.asarray(background, dtype=np.float64)
    d = x.shape[0]
    if d > 16:
        raise ValueError(f"exact enumeration infeasible for d={d}; use KernelShapExplainer")

    masks = _enumerate_masks(d, include_trivial=True)  # row i == subset bits of i
    v = _grouped_marginal_means(predict_fn, x.reshape(1, -1), background, masks)[0]

    fact = np.array([math.factorial(k) for k in range(d + 1)], dtype=np.float64)
    # coeff[s] = s!(d-s-1)!/d! for a coalition of size s that excludes j
    coeff = fact[:d] * fact[d - 1 - np.arange(d)] / fact[d] if d else fact[:0]
    sizes = masks.sum(axis=1)
    ids = np.arange(2**d, dtype=np.int64)
    phi = np.zeros((d, v.shape[1]))
    for j in range(d):
        without = ids[(ids >> j) & 1 == 0]
        with_j = without | (1 << j)
        phi[j] = coeff[sizes[without]] @ (v[with_j] - v[without])
    return phi


class KernelShapExplainer:
    """Sampling-based Kernel SHAP explainer.

    Parameters
    ----------
    predict_fn:
        Callable mapping (n, d) inputs to (n, n_outputs) predictions —
        typically ``model.predict_proba``.
    background:
        Background dataset used to marginalise absent features; a
        representative sample of ~50-200 training rows.
    n_coalitions:
        Sampled coalitions per explanation (ignored when full enumeration is
        cheaper).  More samples → tighter attributions.
    seed:
        RNG seed for coalition sampling.
    """

    def __init__(
        self,
        predict_fn: PredictFn,
        background: np.ndarray,
        n_coalitions: int = 256,
        seed: int = 0,
    ) -> None:
        background = np.asarray(background, dtype=np.float64)
        if background.ndim != 2 or background.shape[0] == 0:
            raise ValueError("background must be a non-empty 2-D array")
        if n_coalitions < 8:
            raise ValueError("n_coalitions must be >= 8")
        self.predict_fn = predict_fn
        self.background = background
        self.n_coalitions = n_coalitions
        self.seed = seed
        self.base_values_ = np.atleast_1d(
            np.asarray(predict_fn(background)).mean(axis=0)
        )

    @property
    def n_features(self) -> int:
        return self.background.shape[1]

    def _coalitions(self, d: int):
        """Coalition design for one explanation run: (masks, weights).

        Reseeded per call, exactly like the per-row estimator always was —
        which is what lets a whole batch share one coalition sample.  Small
        feature counts enumerate every non-trivial mask (vectorized bit
        arithmetic); larger ones use paired antithetic sampling, whose RNG
        call sequence is kept verbatim so seeded runs match the loop
        reference implementation mask-for-mask.
        """
        rng = np.random.default_rng(self.seed)
        n_possible = 2**d - 2 if d < 30 else np.inf
        if n_possible <= self.n_coalitions:
            masks = _enumerate_masks(d)
        else:
            # paired antithetic sampling over coalition sizes
            sizes = rng.integers(1, d, size=self.n_coalitions // 2)
            rows = np.zeros((2 * sizes.shape[0], d), dtype=bool)
            for i, size in enumerate(sizes):
                rows[2 * i, rng.choice(d, size=size, replace=False)] = True
            rows[1::2] = ~rows[::2]
            masks = np.unique(rows, axis=0)
            counts = masks.sum(axis=1)
            masks = masks[(counts > 0) & (counts < d)]
        weights = _kernel_weights_by_size(d)[masks.sum(axis=1)]
        return masks, weights

    def _explain_batch(
        self, X: np.ndarray, class_index: Optional[int]
    ) -> np.ndarray:
        """Shared-design batch estimation: returns (n, d) or (n, d, n_out)."""
        n_inst, d = X.shape
        f_X = _predict_2d(self.predict_fn, X)
        total = f_X - self.base_values_
        masks, weights = self._coalitions(d)
        means = _grouped_marginal_means(self.predict_fn, X, self.background, masks)
        y = means - self.base_values_  # (n_inst, n_masks, n_out)
        n_out = f_X.shape[1]
        # fold (instance, output) into columns: one KKT solve for everything
        y_cols = y.transpose(1, 0, 2).reshape(masks.shape[0], n_inst * n_out)
        phi = _solve_weighted(
            masks.astype(np.float64), y_cols, weights, total.reshape(-1)
        )
        phi = phi.reshape(d, n_inst, n_out).transpose(1, 0, 2)
        if class_index is not None:
            return phi[:, :, class_index]
        return phi

    def shap_values(
        self,
        x: np.ndarray,
        class_index: Optional[int] = None,
        tracer=None,
        parent=None,
    ) -> np.ndarray:
        """Attribution per feature for one instance.

        Returns shape (d,) when ``class_index`` is given, else (d, n_outputs).
        ``tracer``/``parent`` are duck-typed (``xai`` may not import the
        tracing package): when given, the whole estimation runs inside an
        ``xai.shap`` span timed by the tracer's injected clock.
        """
        if tracer is not None:
            with tracer.span("xai.shap", parent=parent) as span:
                span.set_attribute("n_coalitions", float(self.n_coalitions))
                span.set_attribute("n_features", float(self.n_features))
                return self._shap_values(x, class_index)
        return self._shap_values(x, class_index)

    def _shap_values(
        self, x: np.ndarray, class_index: Optional[int] = None
    ) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        d = x.shape[0]
        if d != self.n_features:
            raise ValueError(
                f"instance has {d} features, background has {self.n_features}"
            )
        return self._explain_batch(x.reshape(1, -1), class_index)[0]

    def shap_values_batch(
        self, X: np.ndarray, class_index: Optional[int] = None
    ) -> np.ndarray:
        """Explain many instances through one shared coalition design.

        Every row reuses the same sampled masks, the same stacked model
        evaluation and the same KKT factorisation (instances are extra
        columns of the weighted least-squares solve) — numerically the same
        estimate the per-row path produces, since that path reseeds its
        sampler per call anyway.  Returns (n, d) with ``class_index``, else
        (n, d, n_outputs).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D (n, d) array")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"instance has {X.shape[1]} features, background has {self.n_features}"
            )
        if X.shape[0] == 0:
            n_out = self.base_values_.shape[0]
            shape = (0, X.shape[1]) if class_index is not None else (0, X.shape[1], n_out)
            return np.zeros(shape)
        return self._explain_batch(X, class_index)

    def shap_values_batch_exact(
        self, X: np.ndarray, class_index: Optional[int] = None
    ) -> np.ndarray:
        """Batch explanation bitwise-equal to per-row ``shap_values``.

        The serving layer promises that batching never changes a result
        (benchmarks/bench_serving.py asserts bitwise equality), which
        :meth:`shap_values_batch` cannot: folding instances into extra
        columns of one KKT solve changes BLAS blocking, so results drift
        at ~1e-7 from the per-row path.  This variant shares everything
        that *is* row-stable — the coalition design and the grouped
        marginal evaluation (``np.add.reduceat`` reduces each
        instance's segments independently, and the compiled forests are
        row-stable under stacking) — then runs the weighted solve per
        instance with exactly the shapes the per-row path uses.  The
        cost kept by sharing dominates (model evaluation), so this stays
        within ~2x of the fully-fused solve while matching the
        per-request oracle bit for bit.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D (n, d) array")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"instance has {X.shape[1]} features, background has {self.n_features}"
            )
        n_inst, d = X.shape
        n_out = self.base_values_.shape[0]
        if n_inst == 0:
            shape = (0, d) if class_index is not None else (0, d, n_out)
            return np.zeros(shape)
        f_X = _predict_2d(self.predict_fn, X)
        total = f_X - self.base_values_
        masks, weights = self._coalitions(d)
        means = _grouped_marginal_means(self.predict_fn, X, self.background, masks)
        y = means - self.base_values_  # (n_inst, n_masks, n_out)
        Z = masks.astype(np.float64)
        phi = np.empty((n_inst, d, n_out))
        for i in range(n_inst):
            phi[i] = _solve_weighted(Z, y[i], weights, total[i])
        if class_index is not None:
            return phi[:, :, class_index]
        return phi

    def mean_abs_importance(
        self, X: np.ndarray, class_index: int
    ) -> np.ndarray:
        """Global importance: mean |SHAP| per feature over a set of rows.

        This is the ranking the Fig. 7(a/b) before/after-evasion comparison
        is built from.
        """
        return np.abs(self.shap_values_batch(X, class_index)).mean(axis=0)
