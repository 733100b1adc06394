"""Kernel SHAP: model-agnostic Shapley-value feature attributions.

Same estimator family as Lundberg & Lee's KernelExplainer: sample feature
coalitions, evaluate the model with absent features marginalised over a
background dataset, and solve the Shapley-kernel-weighted linear regression
under the additivity constraint.  For small feature counts the exact
enumeration over all 2^d coalitions is used, which makes the additivity and
symmetry axioms hold to numerical precision (property-tested in the suite).

Everything that depends only on the explainer — the coalition masks, their
kernel weights and the KKT factors of the weighted regression — is fixed by
(d, ``n_coalitions``, ``seed``), so :class:`KernelShapExplainer` builds it
once, at construction, as one private design; explaining never reseeds an
RNG or re-factorises.  Per call, all (coalition × background) model inputs
are stacked into one matrix — a broadcast copy of the background, then one
indexed write per feature of the instance values into that feature's
on-mask rows — and evaluated in a single ``predict_fn`` call (chunked only
past a fixed row budget); per-coalition means come from one grouped
``np.add.reduceat``.  Every attribution :class:`KernelShapExplainer`
returns comes from one path: its ``shap_values_batch_exact`` solves each
instance on its own, :meth:`~KernelShapExplainer.shap_values` is its
one-row case and :meth:`~KernelShapExplainer.mean_abs_importance` averages
its output, so a batched attribution carries exactly the bits of the
per-row one.  A per-coalition loop implementation and a vectorized one
that rebuilds the design on every call live in
``tests/xai/reference_shap.py`` as the equivalence oracles for tests and
benches.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

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


def _on_rows(masks: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per feature, the ascending indices of the masks that include it."""
    return tuple(np.flatnonzero(column) for column in masks.T)


def _predict_2d(predict_fn: PredictFn, X: np.ndarray) -> np.ndarray:
    """Evaluate the model and normalise the output to (n, n_outputs)."""
    preds = np.asarray(predict_fn(X), dtype=np.float64)
    if preds.ndim == 1:
        preds = preds[:, None]
    return preds


class _CoalitionDesign:
    """Kernel SHAP's explainer-fixed work, built once per explainer.

    Holds the coalition masks and kernel weights, the regression matrix
    ``Z`` with ``A⁻¹ = pinv(Zᵀ W Z)``, ``1ᵀA⁻¹`` and ``1ᵀA⁻¹1``, and each
    feature's on-mask rows for the stacking helper.  Small feature counts
    enumerate every non-trivial mask; larger ones use paired antithetic
    sampling, whose RNG call sequence is kept verbatim so seeded runs match
    the loop reference implementation mask-for-mask.  With d = 1 there is
    no non-trivial coalition: the design holds zero masks and explaining
    skips the solve.
    """

    def __init__(self, d: int, n_coalitions: int, seed: int) -> None:
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
        self.masks = masks
        self.n_masks = masks.shape[0]
        self.weights = _kernel_weights_by_size(d)[masks.sum(axis=1)]
        self.on_rows = _on_rows(masks)
        self.Z = masks.astype(np.float64)
        self.W = self.weights[:, None]
        self.A_inv = np.linalg.pinv(self.Z.T @ (self.W * self.Z))
        ones = np.ones(d)
        self.ones_A_inv = ones @ self.A_inv
        self.denom = self.ones_A_inv @ ones

    def solve(self, y: np.ndarray, total: np.ndarray) -> np.ndarray:
        """Constrained weighted least squares: min ||Zφ−y||_W s.t. Σφ = total.

        One instance per call: ``y`` is (n_masks, n_outputs) and ``total``
        (n_outputs,), one column per output.  The operations are the
        per-call factorisation's, in its order, with the factors read from
        the design — so the result is bitwise the one a fresh ``pinv``
        would give: ``b - lam`` broadcasts the row of multipliers, which
        is exactly the ``outer(1, lam)`` the factorisation subtracts, since
        1.0 × λ = λ.
        """
        b = self.Z.T @ (self.W * y)
        # KKT multiplier per output column
        lam = (self.ones_A_inv @ b - total) / self.denom
        return self.A_inv @ (b - lam)


def _stack_chunk(
    X: np.ndarray,
    background: np.ndarray,
    on_rows: Tuple[np.ndarray, ...],
    n_masks: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Groups ``[start, stop)`` of the stacked input, as (groups, n_bg, d).

    Group ``g`` is (instance ``g // n_masks``, mask ``g % n_masks``): the
    background with the mask's on-features set to the instance's values.
    The chunk starts as a broadcast copy of the background; each
    instance-aligned segment (a partial first instance, whole instances, a
    partial last one) then takes one indexed write per feature.
    """
    n_bg, d = background.shape
    stacked = np.empty((stop - start, n_bg, d))
    stacked[...] = background
    pos = start
    while pos < stop:
        inst, lo = divmod(pos, n_masks)
        if lo == 0 and stop - pos >= n_masks:
            n_inst, hi = (stop - pos) // n_masks, n_masks
        else:
            n_inst, hi = 1, min(n_masks, lo + stop - pos)
        end = pos + n_inst * (hi - lo)
        segment = stacked[pos - start : end - start].reshape(n_inst, hi - lo, n_bg, d)
        xs = X[inst : inst + n_inst]
        for j, rows in enumerate(on_rows):
            if hi - lo < n_masks:
                first, last = np.searchsorted(rows, (lo, hi))
                rows = rows[first:last] - lo
            segment[..., j][:, rows] = xs[:, j, None, None]
        pos = end
    return stacked


def _marginal_means(
    predict_fn: PredictFn,
    X: np.ndarray,
    background: np.ndarray,
    on_rows: Tuple[np.ndarray, ...],
    n_masks: int,
) -> np.ndarray:
    """E_b[f(x_i with off-coalition features from b)] per (instance, mask).

    The stacked ``(n_instances · n_masks · n_background, d)`` input is
    evaluated in as few calls as the row budget allows (one, typically):
    chunks hold ``_MAX_ROWS_PER_CALL // n_background`` whole groups, so a
    chunk may cut an instance.  Each contiguous background block is then
    reduced to its mean with one grouped ``np.add.reduceat``.  Returns
    shape (n_instances, n_masks, n_outputs).
    """
    n_inst, d = X.shape
    n_bg = background.shape[0]
    n_groups = n_inst * n_masks
    groups_per_call = max(1, _MAX_ROWS_PER_CALL // n_bg)
    chunks = []
    for start in range(0, n_groups, groups_per_call):
        stop = min(start + groups_per_call, n_groups)
        stacked = _stack_chunk(X, background, on_rows, n_masks, start, stop)
        preds = _predict_2d(predict_fn, stacked.reshape(-1, d))
        offsets = np.arange(0, preds.shape[0], n_bg)
        chunks.append(np.add.reduceat(preds, offsets, axis=0) / n_bg)
    means = chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)
    return means.reshape(n_inst, n_masks, -1)


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
    v = _marginal_means(
        predict_fn, x.reshape(1, -1), background, _on_rows(masks), masks.shape[0]
    )[0]

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

    The coalition design — masks, kernel weights and the regression's KKT
    factors — is built once here from the background's width,
    ``n_coalitions`` and ``seed``; every later call reuses it, so assign
    those attributes only through a new explainer.  Building it makes no
    model call.

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
        if background.ndim != 2 or 0 in background.shape:
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
        self._design = _CoalitionDesign(background.shape[1], n_coalitions, seed)

    @property
    def n_features(self) -> int:
        return self.background.shape[1]

    def _check_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D (n, d) array")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"instance has {X.shape[1]} features, background has {self.n_features}"
            )
        return X

    def _marginals(self, X: np.ndarray):
        """(total, y): ``f(X) − base`` as (n, n_out), and each mask's
        marginal mean minus base as (n, n_masks, n_out) — ``None`` when the
        design has no mask (d = 1)."""
        total = _predict_2d(self.predict_fn, X) - self.base_values_
        design = self._design
        if not design.n_masks:
            return total, None
        means = _marginal_means(
            self.predict_fn, X, self.background, design.on_rows, design.n_masks
        )
        return total, means - self.base_values_

    def shap_values(
        self,
        x: np.ndarray,
        class_index: Optional[int] = None,
        tracer=None,
        parent=None,
    ) -> np.ndarray:
        """Attribution per feature for one instance.

        Returns shape (d,) when ``class_index`` is given, else (d, n_outputs).
        The one-row case of :meth:`shap_values_batch_exact` (both run
        ``_explain_exact``), so a batch equals per-row calls by
        construction.  ``tracer``/``parent`` are
        duck-typed (``xai`` may not import the tracing package): when
        given, the whole estimation runs inside an ``xai.shap`` span timed
        by the tracer's injected clock.
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
        return self._explain_exact(x.reshape(1, -1), class_index)[0]

    def shap_values_batch_exact(
        self, X: np.ndarray, class_index: Optional[int] = None
    ) -> np.ndarray:
        """Batch explanation bitwise-equal to per-row ``shap_values``.

        Returns (n, d) with ``class_index``, else (n, d, n_outputs).  The
        rows share everything that *is* row-stable — the design and the
        grouped marginal evaluation (``np.add.reduceat`` reduces each
        instance's segments independently, and the compiled forests are
        row-stable under stacking) — and each instance then gets its own
        KKT solve, which is all the per-row path does.  Instances are not
        folded into extra columns of one solve, whose wider BLAS blocking
        would move the last bits; the solve is cheap next to the model
        evaluation the rows do share.  The serving layer's promise
        that batching never changes a result rests on this
        (``benchmarks/bench_serving.py`` asserts bitwise equality).
        """
        return self._explain_exact(self._check_batch(X), class_index)

    def _explain_exact(
        self, X: np.ndarray, class_index: Optional[int]
    ) -> np.ndarray:
        """Per-instance solves over shared marginals, for a checked batch.

        Every attribution the explainer returns comes from here —
        :meth:`shap_values`, :meth:`shap_values_batch_exact` and
        :meth:`mean_abs_importance` — so they agree by construction, yet
        the entry points stay separate: a fault injected into the batched
        one still shows against the per-row one.
        """
        n_inst, d = X.shape
        n_out = self.base_values_.shape[0]
        if n_inst == 0:
            shape = (0, d) if class_index is not None else (0, d, n_out)
            return np.zeros(shape)
        total, y = self._marginals(X)
        if y is None:
            phi = total[:, None, :]
        else:
            phi = np.empty((n_inst, d, n_out))
            for i in range(n_inst):
                phi[i] = self._design.solve(y[i], total[i])
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
        return np.abs(self.shap_values_batch_exact(X, class_index)).mean(axis=0)
