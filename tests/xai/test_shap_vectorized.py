"""Equivalence contract of the vectorized Kernel SHAP engine.

The single-call batched engine must reproduce the per-coalition loop
reference (``tests/xai/reference_shap.py``) given the same seed: the coalition
masks are identical by construction (same RNG call sequence), so the only
admissible differences are summation-order effects in the grouped mean —
bounded far below 1e-8.  Efficiency (``base + Σφ ≈ f(x)``) is asserted
directly; ``test_shap_batch_exact.py`` holds the batch path to the per-row
bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import RandomForestClassifier
from repro.ml.gbdt import xgboost_like
from repro.xai.shap import (
    KernelShapExplainer,
    _enumerate_masks,
    _kernel_weights_by_size,
    exact_shap_values,
)

from tests.xai.reference_shap import loop_shap_values, loop_shap_values_batch


def _softmax_predict(w):
    def predict(X):
        z = np.asarray(X) @ w
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    return predict


class TestMaskAndWeightVectorization:
    def test_enumeration_matches_bit_twiddling(self):
        for d in (2, 3, 5, 8):
            expected = np.array(
                [[(i >> j) & 1 for j in range(d)] for i in range(1, 2**d - 1)],
                dtype=bool,
            )
            assert np.array_equal(_enumerate_masks(d), expected)

    def test_trivial_masks_included_on_request(self):
        masks = _enumerate_masks(3, include_trivial=True)
        assert masks.shape == (8, 3)
        assert not masks[0].any() and masks[-1].all()

    def test_weight_table_matches_per_mask_formula(self):
        import math

        for d in (2, 4, 9, 15):
            table = _kernel_weights_by_size(d)
            assert table[0] == table[d] == 1e9
            for size in range(1, d):
                expected = (d - 1) / (math.comb(d, size) * size * (d - size))
                assert table[size] == expected


class TestLoopEquivalence:
    @pytest.mark.parametrize("d,n_coalitions", [(5, 256), (12, 64)])
    def test_single_instance_matches_reference(self, d, n_coalitions):
        # d=5 exercises full enumeration, d=12 the antithetic sampler
        gen = np.random.default_rng(7)
        w = gen.normal(size=(d, 3))
        predict = _softmax_predict(w)
        background = gen.normal(size=(60, d))
        x = gen.normal(size=d)
        explainer = KernelShapExplainer(
            predict, background, n_coalitions=n_coalitions, seed=11
        )
        phi = explainer.shap_values(x)
        ref = loop_shap_values(
            predict, background, x, n_coalitions=n_coalitions, seed=11
        )
        np.testing.assert_allclose(phi, ref, atol=1e-8)

    def test_batch_matches_reference_rows(self):
        gen = np.random.default_rng(3)
        w = gen.normal(size=(10, 2))
        predict = _softmax_predict(w)
        background = gen.normal(size=(40, 10))
        X = gen.normal(size=(5, 10))
        explainer = KernelShapExplainer(predict, background, n_coalitions=48, seed=5)
        batch = explainer.shap_values_batch_exact(X, class_index=1)
        ref = loop_shap_values_batch(
            predict, background, X, n_coalitions=48, seed=5, class_index=1
        )
        assert batch.shape == (5, 10)
        np.testing.assert_allclose(batch, ref, atol=1e-8)

    def test_exact_matches_reference_implementation(self):
        gen = np.random.default_rng(1)
        w = gen.normal(size=5)

        def predict(X):
            return (np.asarray(X) @ w).reshape(-1, 1)

        background = gen.normal(size=(25, 5))
        x = gen.normal(size=5)
        phi = exact_shap_values(predict, x, background)
        # a linear model's exact Shapley value has a closed form:
        # phi_j = w_j * (x_j - mean(background_j))
        closed = w * (x - background.mean(axis=0))
        np.testing.assert_allclose(phi[:, 0], closed, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), d=st.integers(2, 9))
def test_efficiency_property(seed, d):
    """base + Σφ = f(x) to 1e-8 across random models and widths."""
    gen = np.random.default_rng(seed)
    w = gen.normal(size=(d, 2))
    predict = _softmax_predict(w)
    background = gen.normal(size=(20, d))
    x = gen.normal(size=d)
    explainer = KernelShapExplainer(predict, background, n_coalitions=64, seed=seed)
    phi = explainer.shap_values(x)
    reconstructed = explainer.base_values_ + phi.sum(axis=0)
    np.testing.assert_allclose(reconstructed, predict(x.reshape(1, -1))[0], atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 300))
def test_sampled_batch_equals_loop_reference_property(seed):
    gen = np.random.default_rng(seed)
    w = gen.normal(size=(11, 2))
    predict = _softmax_predict(w)
    background = gen.normal(size=(15, 11))
    X = gen.normal(size=(3, 11))
    explainer = KernelShapExplainer(predict, background, n_coalitions=32, seed=seed)
    np.testing.assert_allclose(
        explainer.shap_values_batch_exact(X),
        loop_shap_values_batch(predict, background, X, n_coalitions=32, seed=seed),
        atol=1e-8,
    )


class TestChunkedForestRowStability:
    """The serving layer's batching contract, through the chunked kernel.

    ``shap_values_batch_exact`` evaluates one stacked matrix for the whole
    batch; with forest models that matrix crosses the bitvector leaf
    kernel's chunk boundaries mid-instance, while a per-row call fits in
    one chunk.  Each row's leaves and sums must not depend on the chunk it
    landed in, so the batch still equals the per-row path bit for bit.
    """

    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: RandomForestClassifier(n_estimators=10, max_depth=6, seed=0),
            lambda: xgboost_like(n_estimators=5),
        ],
        ids=["forest", "gbdt"],
    )
    def test_batch_spanning_chunks_matches_per_row_bitwise(self, make_model):
        gen = np.random.default_rng(7)
        X_train = gen.normal(size=(400, 6))
        y = (X_train[:, 0] + X_train[:, 1] * X_train[:, 2] > 0).astype(int)
        model = make_model().fit(X_train, y)
        kernel = model.flat_forest_.bitvectors
        assert kernel is not None
        explainer = KernelShapExplainer(
            model.predict_proba, X_train[:32], n_coalitions=64, seed=0
        )
        X = gen.normal(size=(5, 6))
        stacked_rows = len(X) * (2**6 - 2) * 32  # every coalition enumerated
        assert stacked_rows > 2 * kernel.chunk_rows
        batch = explainer.shap_values_batch_exact(X)
        singles = np.stack([explainer.shap_values(x) for x in X])
        assert np.array_equal(batch, singles)
