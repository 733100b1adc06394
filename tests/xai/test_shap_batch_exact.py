"""``shap_values_batch_exact``: bitwise-faithful batch explanation.

The serving layer's fusion promise rests on this method: a batch must
return *exactly* the bits the per-row path would, for any batch width
and row order.  It is the explainer's only batch entry point, so the
serving engine, the kernel pool, the SHAP sensors and
``mean_abs_importance`` all return per-row bits.
"""

import numpy as np
import pytest

from repro.xai.shap import KernelShapExplainer

D = 5


def _predict(X):
    X = np.asarray(X, dtype=np.float64)
    # row-wise reductions only: bitwise row-stable across batch widths
    return np.stack(
        [X.sum(axis=1), np.abs(X).sum(axis=1), (X * X).sum(axis=1)], axis=1
    )


@pytest.fixture()
def explainer():
    rng = np.random.default_rng(0)
    return KernelShapExplainer(
        _predict, rng.normal(size=(24, D)), n_coalitions=32, seed=0
    )


class TestBitwiseEquality:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_matches_per_row_path_bitwise(self, explainer, n):
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, D))
        batch = explainer.shap_values_batch_exact(X)
        singles = np.stack([explainer.shap_values(x) for x in X])
        assert np.array_equal(batch, singles)  # no tolerance: same bits

    def test_row_order_does_not_change_bits(self, explainer):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, D))
        forward = explainer.shap_values_batch_exact(X)
        reversed_ = explainer.shap_values_batch_exact(X[::-1])
        assert np.array_equal(forward, reversed_[::-1])

    def test_class_index_slice_matches(self, explainer):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(4, D))
        sliced = explainer.shap_values_batch_exact(X, class_index=1)
        full = explainer.shap_values_batch_exact(X)
        assert np.array_equal(sliced, full[:, :, 1])


class TestShapesAndValidation:
    def test_empty_batch(self, explainer):
        assert explainer.shap_values_batch_exact(
            np.zeros((0, D))
        ).shape == (0, D, 3)
        assert explainer.shap_values_batch_exact(
            np.zeros((0, D)), class_index=0
        ).shape == (0, D)

    def test_rejects_bad_shapes(self, explainer):
        with pytest.raises(ValueError):
            explainer.shap_values_batch_exact(np.zeros(D))
        with pytest.raises(ValueError):
            explainer.shap_values_batch_exact(np.zeros((2, D + 1)))

    def test_additivity_holds_per_row(self, explainer):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(3, D))
        phi = explainer.shap_values_batch_exact(X)
        reconstructed = explainer.base_values_ + phi.sum(axis=1)
        np.testing.assert_allclose(reconstructed, _predict(X), atol=1e-7)
