"""The explainer-fixed coalition design: built once, byte-equal outputs.

``KernelShapExplainer`` builds its coalition design and KKT factors once,
at construction, and stacks the model input with a background copy plus
per-feature writes.  The oracle is the path it replaced, kept in
``tests/xai/reference_shap.py`` (``VectorizedShapReference``): every
result and every matrix handed to ``predict_fn`` must be byte-equal to it
— ``tobytes()`` comparisons, so NaN payloads and the sign of zero count.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import RandomForestClassifier
from repro.ml.gbdt import xgboost_like
from repro.xai.shap import (
    _MAX_ROWS_PER_CALL,
    KernelShapExplainer,
    exact_shap_values,
)

from tests.xai.reference_shap import (
    VectorizedShapReference,
    vectorized_coalitions,
    vectorized_exact_shap_values,
)
from tests.xai.test_shap_vectorized import _softmax_predict

SPECIALS = (np.nan, np.inf, -np.inf, -0.0)


@functools.lru_cache(maxsize=None)
def _forest(kind: str, d: int):
    gen = np.random.default_rng(d)
    X = gen.normal(size=(200, d))
    y = (X[:, 0] + X[:, -1] * X[:, d // 2] > 0).astype(int)
    if kind == "forest":
        model = RandomForestClassifier(n_estimators=5, max_depth=4, seed=0)
    else:
        model = xgboost_like(n_estimators=5)
    return model.fit(X, y).predict_proba


def _model(kind: str, d: int, gen):
    if kind == "softmax":
        return _softmax_predict(gen.normal(size=(d, 3)))
    return _forest(kind, d)


class _Recorder:
    """A predict_fn that logs the bytes and shape of every matrix it gets."""

    def __init__(self, predict_fn):
        self.predict_fn = predict_fn
        self.calls = []

    def __call__(self, X):
        X = np.asarray(X)
        self.calls.append((X.shape, X.dtype.str, X.tobytes()))
        return self.predict_fn(X)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _plant(gen, array, count):
    for flat in gen.integers(0, array.size, size=count):
        array.flat[flat] = SPECIALS[gen.integers(0, len(SPECIALS))]


def _pair(model, background, n_coalitions, seed):
    """(explainer, oracle) over one model, each with its own call log."""
    new, old = _Recorder(model), _Recorder(model)
    return (
        KernelShapExplainer(new, background, n_coalitions=n_coalitions, seed=seed),
        VectorizedShapReference(old, background, n_coalitions=n_coalitions, seed=seed),
        new,
        old,
    )


def _check_entry_points(explainer, oracle, X, class_index):
    checks = [
        ("shap_values", X[0], class_index),
        ("shap_values_batch_exact", X, class_index),
    ]
    if class_index is not None:
        checks.append(("mean_abs_importance", X, class_index))
    for name, arg, ci in checks:
        got = getattr(explainer, name)(arg, ci)
        want = getattr(oracle, name)(arg, ci)
        assert _same(got, want), name


@settings(max_examples=60, deadline=None)
@given(
    d=st.one_of(st.integers(1, 6), st.integers(7, 13)),
    n_coalitions=st.integers(8, 300),
    n_background=st.integers(1, 40),
    n_instances=st.integers(1, 9),
    kind=st.sampled_from(["softmax", "forest", "gbdt"]),
    class_choice=st.sampled_from(["none", "first", "last"]),
    n_specials=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_byte_equal_to_per_call_design(
    d, n_coalitions, n_background, n_instances, kind, class_choice, n_specials, seed
):
    gen = np.random.default_rng(seed)
    model = _model(kind, d, gen)
    background = gen.normal(size=(n_background, d))
    X = gen.normal(size=(n_instances, d))
    _plant(gen, background, n_specials)
    _plant(gen, X, n_specials)
    with np.errstate(all="ignore"):
        explainer, oracle, new, old = _pair(model, background, n_coalitions, seed)
        n_out = explainer.base_values_.shape[0]
        class_index = {"none": None, "first": 0, "last": n_out - 1}[class_choice]
        _check_entry_points(explainer, oracle, X, class_index)
        if d <= 10:
            assert _same(
                exact_shap_values(new, X[0], background),
                vectorized_exact_shap_values(old, X[0], background),
            )
    assert new.calls == old.calls


@pytest.mark.parametrize("kind", ["softmax", "forest", "gbdt"])
def test_chunk_boundary_inside_an_instance(kind):
    """A batch whose stack is cut mid-instance: same chunks, same bits."""
    gen = np.random.default_rng(5)
    d, n_background = 10, 40
    model = _model(kind, d, gen)
    background = gen.normal(size=(n_background, d))
    X = gen.normal(size=(3, d))
    explainer, oracle, new, old = _pair(model, background, 600, 3)
    n_masks = vectorized_coalitions(d, 600, 3)[0].shape[0]
    groups_per_call = _MAX_ROWS_PER_CALL // n_background
    boundaries = range(groups_per_call, len(X) * n_masks, groups_per_call)
    assert any(b % n_masks for b in boundaries)  # a chunk cuts an instance
    for class_index in (None, 0, 1):
        _check_entry_points(explainer, oracle, X, class_index)
    assert new.calls == old.calls
    full_chunk = (groups_per_call * n_background, d)
    assert any(shape == full_chunk for shape, __, __ in new.calls)


class TestDesignBuiltOnce:
    def test_explaining_neither_reseeds_nor_refactorises(self, monkeypatch):
        gen = np.random.default_rng(0)
        predict = _softmax_predict(gen.normal(size=(12, 2)))
        background = gen.normal(size=(20, 12))
        X = gen.normal(size=(3, 12))
        explainer = KernelShapExplainer(predict, background, n_coalitions=64, seed=1)
        narrow = _softmax_predict(gen.normal(size=(6, 2)))

        def forbidden(*args, **kwargs):
            raise AssertionError("per-call design work after construction")

        monkeypatch.setattr(np.linalg, "pinv", forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        explainer.shap_values(X[0])
        explainer.shap_values_batch_exact(X)
        explainer.mean_abs_importance(X, 0)
        exact_shap_values(narrow, X[0, :6], background[:, :6])

    def test_construction_calls_the_model_once(self):
        gen = np.random.default_rng(1)
        recorder = _Recorder(_softmax_predict(gen.normal(size=(5, 2))))
        background = gen.normal(size=(8, 5))
        KernelShapExplainer(recorder, background, n_coalitions=16)
        assert recorder.calls == [
            (background.shape, background.dtype.str, background.tobytes())
        ]


class TestOneFeature:
    """d = 1 has no non-trivial coalition: φ is f(x) − base exactly.
    d = 0 is rejected at construction."""

    @pytest.fixture()
    def case(self):
        gen = np.random.default_rng(2)
        predict = _softmax_predict(gen.normal(size=(1, 3)))
        background = gen.normal(size=(10, 1))
        X = gen.normal(size=(4, 1))
        explainer = KernelShapExplainer(predict, background, n_coalitions=8)
        return explainer, predict, background, X

    def test_batch_paths_return_output_minus_base(self, case):
        explainer, predict, __, X = case
        want = (predict(X) - explainer.base_values_)[:, None, :]
        assert _same(explainer.shap_values_batch_exact(X), want)
        assert _same(
            explainer.shap_values_batch_exact(X, class_index=2), want[:, :, 2]
        )

    def test_single_row_returns_output_minus_base(self, case):
        explainer, predict, __, X = case
        want = predict(X[:1])[0] - explainer.base_values_
        assert _same(explainer.shap_values(X[0]), want[None, :])
        assert _same(explainer.shap_values(X[0], class_index=1), want[None, 1])

    def test_matches_exact_enumeration(self, case):
        explainer, predict, background, X = case
        for x in X:
            np.testing.assert_allclose(
                explainer.shap_values(x),
                exact_shap_values(predict, x, background),
                rtol=0,
                atol=1e-12,
            )

    def test_zero_column_background_rejected(self):
        with pytest.raises(ValueError, match="non-empty 2-D array"):
            KernelShapExplainer(lambda X: np.zeros((len(X), 1)), np.zeros((5, 0)))
