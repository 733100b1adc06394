"""Tests for Kernel SHAP: additivity, symmetry, null-player, sampling."""

import numpy as np
import pytest

from repro.ml import MLPClassifier
from repro.xai.shap import KernelShapExplainer, exact_shap_values


@pytest.fixture(scope="module")
def linear_predict():
    """A known linear function f(x) = 2*x0 - 3*x1 + x2 (single output)."""
    weights = np.array([2.0, -3.0, 1.0])

    def predict(X):
        X = np.asarray(X)
        return (X @ weights).reshape(-1, 1)

    return predict, weights


class TestExactShap:
    def test_linear_model_recovers_weights(self, linear_predict):
        """For a linear model with independent background features the
        Shapley value of feature j is w_j * (x_j - E[x_j])."""
        predict, weights = linear_predict
        gen = np.random.default_rng(0)
        background = gen.normal(size=(100, 3))
        x = np.array([1.0, 2.0, -1.0])
        phi = exact_shap_values(predict, x, background)
        expected = weights * (x - background.mean(axis=0))
        assert np.allclose(phi[:, 0], expected, atol=1e-9)

    def test_additivity(self, linear_predict):
        predict, __ = linear_predict
        gen = np.random.default_rng(1)
        background = gen.normal(size=(40, 3))
        x = gen.normal(size=3)
        phi = exact_shap_values(predict, x, background)
        base = predict(background).mean(axis=0)
        assert np.allclose(base + phi.sum(axis=0), predict(x.reshape(1, -1))[0])

    def test_null_player_gets_zero(self):
        """A feature the model ignores must get zero attribution."""

        def predict(X):
            X = np.asarray(X)
            return X[:, [0]]  # only feature 0 matters

        gen = np.random.default_rng(2)
        background = gen.normal(size=(30, 3))
        phi = exact_shap_values(predict, np.array([1.0, 5.0, -3.0]), background)
        assert abs(phi[1, 0]) < 1e-9
        assert abs(phi[2, 0]) < 1e-9

    def test_symmetry(self):
        """Two interchangeable features get equal attributions."""

        def predict(X):
            X = np.asarray(X)
            return (X[:, [0]] + X[:, [1]])

        background = np.zeros((10, 2))
        phi = exact_shap_values(predict, np.array([3.0, 3.0]), background)
        assert phi[0, 0] == pytest.approx(phi[1, 0])

    def test_too_many_features_raises(self):
        with pytest.raises(ValueError):
            exact_shap_values(lambda X: np.zeros((len(X), 1)), np.zeros(20), np.zeros((5, 20)))


class TestKernelShapExplainer:
    def test_matches_exact_on_small_d(self, linear_predict):
        predict, __ = linear_predict
        gen = np.random.default_rng(3)
        background = gen.normal(size=(50, 3))
        x = gen.normal(size=3)
        explainer = KernelShapExplainer(predict, background, n_coalitions=64)
        phi_kernel = explainer.shap_values(x)
        phi_exact = exact_shap_values(predict, x, background)
        assert np.allclose(phi_kernel, phi_exact, atol=1e-6)

    def test_additivity_on_mlp(self, trained_mlp, blobs):
        X, __ = blobs
        explainer = KernelShapExplainer(
            trained_mlp.predict_proba, X[:30], n_coalitions=64, seed=0
        )
        phi = explainer.shap_values(X[0])
        f_x = trained_mlp.predict_proba(X[:1])[0]
        assert np.allclose(explainer.base_values_ + phi.sum(axis=0), f_x, atol=1e-8)

    def test_class_index_slices(self, trained_mlp, blobs):
        X, __ = blobs
        explainer = KernelShapExplainer(
            trained_mlp.predict_proba, X[:20], n_coalitions=32, seed=0
        )
        phi_all = explainer.shap_values(X[0])
        phi_1 = explainer.shap_values(X[0], class_index=1)
        assert phi_1.shape == (X.shape[1],)
        assert np.allclose(phi_all[:, 1], phi_1)

    def test_batch_shape(self, trained_mlp, blobs):
        X, __ = blobs
        explainer = KernelShapExplainer(
            trained_mlp.predict_proba, X[:20], n_coalitions=32, seed=0
        )
        batch = explainer.shap_values_batch_exact(X[:4], class_index=0)
        assert batch.shape == (4, X.shape[1])

    def test_sampling_mode_on_larger_d(self):
        """d=18 forces coalition sampling; additivity must still hold
        (it is enforced by the constraint)."""
        gen = np.random.default_rng(4)
        weights = gen.normal(size=18)

        def predict(X):
            return (np.asarray(X) @ weights).reshape(-1, 1)

        background = gen.normal(size=(30, 18))
        x = gen.normal(size=18)
        explainer = KernelShapExplainer(predict, background, n_coalitions=300, seed=0)
        phi = explainer.shap_values(x)
        base = predict(background).mean(axis=0)
        assert np.allclose(base + phi.sum(axis=0), predict(x.reshape(1, -1))[0], atol=1e-6)
        # linear case: sampled values close to analytic
        expected = weights * (x - background.mean(axis=0))
        assert np.corrcoef(phi[:, 0], expected)[0, 1] > 0.95

    def test_mean_abs_importance_ranks_signal_feature(self, blobs):
        X, y = blobs
        m = MLPClassifier(hidden_layers=(8,), n_epochs=30, seed=0).fit(X, y)
        explainer = KernelShapExplainer(
            m.predict_proba, X[:30], n_coalitions=64, seed=0
        )
        imp = explainer.mean_abs_importance(X[:10], class_index=1)
        assert imp.shape == (X.shape[1],)
        assert (imp >= 0).all()

    def test_wrong_feature_count_raises(self, trained_mlp, blobs):
        X, __ = blobs
        explainer = KernelShapExplainer(
            trained_mlp.predict_proba, X[:10], n_coalitions=32
        )
        with pytest.raises(ValueError):
            explainer.shap_values(np.zeros(X.shape[1] + 1))

    def test_empty_background_raises(self, trained_mlp):
        with pytest.raises(ValueError):
            KernelShapExplainer(trained_mlp.predict_proba, np.empty((0, 5)))

    def test_too_few_coalitions_raises(self, trained_mlp, blobs):
        X, __ = blobs
        with pytest.raises(ValueError):
            KernelShapExplainer(trained_mlp.predict_proba, X[:5], n_coalitions=4)
