"""The flat evaluation kernel's contract: *bitwise* equality with `_route`.

The recursive walk and the flat iterative traversal evaluate the same
``X[i, feature] <= threshold`` comparisons on the same float64 values and
copy the same leaf-value vectors, so their outputs must agree to the last
ulp — ``np.array_equal``, not ``allclose``.  Hypothesis drives random
datasets and tree shapes through single trees, the forest and the GBDT;
serialization must round-trip the flat form with the same guarantee.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml.flattree import (
    CHUNK_ROWS,
    LEAF_BITS,
    MIN_CHUNK_ROWS,
    TABLE_WORDS_PER_NODE,
    FlatForest,
    FlatTree,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.gbdt import (
    GradientBoostedTreesClassifier,
    lightgbm_like,
    xgboost_like,
)
from repro.ml.serialization import load_model, save_model
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class TestFlatTreeStructure:
    def test_compiled_on_fit(self, blobs):
        X, y = blobs
        model = DecisionTreeClassifier(max_depth=4).fit(X, y)
        flat = model.flat_
        assert flat.n_nodes == len(model.nodes_)
        assert flat.value_width == len(model.classes_)
        # leaves are exactly the feature == -1 rows
        leaves = [i for i, node in enumerate(model.nodes_) if node.is_leaf]
        assert np.array_equal(np.flatnonzero(flat.feature < 0), leaves)

    def test_round_trips_through_nodes(self, blobs):
        X, y = blobs
        model = DecisionTreeClassifier(max_depth=5).fit(X, y)
        rebuilt = FlatTree.from_nodes(model.flat_.to_nodes())
        for name in ("feature", "threshold", "left", "right", "value", "n_samples"):
            assert np.array_equal(getattr(rebuilt, name), getattr(model.flat_, name))

    def test_single_leaf_tree(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        model = DecisionTreeClassifier().fit(X, y)
        assert model.flat_.n_nodes == 1
        assert np.array_equal(model.flat_.apply(np.ones((3, 2))), np.zeros(3))

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            FlatTree(
                feature=np.array([-1], dtype=np.int64),
                threshold=np.zeros(2),
                left=np.array([-1], dtype=np.int64),
                right=np.array([-1], dtype=np.int64),
                value=np.zeros((1, 1)),
                n_samples=np.array([1], dtype=np.int64),
            )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 1000),
    n_classes=st.integers(2, 4),
    depth=st.integers(1, 8),
    min_leaf=st.integers(1, 5),
)
def test_flat_tree_bitwise_equals_recursive(seed, n_classes, depth, min_leaf):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(80, 4))
    y = gen.integers(0, n_classes, size=80)
    model = DecisionTreeClassifier(
        max_depth=depth, min_samples_leaf=min_leaf
    ).fit(X, y)
    X_test = gen.normal(size=(40, 4))
    assert np.array_equal(
        model.predict_proba(X_test), model.predict_proba_recursive(X_test)
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1000), growth=st.sampled_from(["level", "leaf"]))
def test_flat_regressor_bitwise_equals_recursive(seed, growth):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(60, 3))
    g = gen.normal(size=60)
    h = np.abs(gen.normal(size=60)) + 0.1
    model = DecisionTreeRegressor(
        max_depth=4, growth=growth, max_leaves=7 if growth == "leaf" else None
    ).fit(X, g, h)
    X_test = gen.normal(size=(30, 3))
    assert np.array_equal(model.predict(X_test), model.predict_recursive(X_test))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500))
def test_flat_forest_bitwise_equals_recursive(seed):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(70, 4))
    y = gen.integers(0, 3, size=70)
    model = RandomForestClassifier(n_estimators=7, max_depth=5, seed=seed).fit(X, y)
    X_test = gen.normal(size=(25, 4))
    assert np.array_equal(
        model.predict_proba(X_test), model.predict_proba_recursive(X_test)
    )


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 500))
def test_flat_gbdt_bitwise_equals_recursive(seed):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(60, 3))
    y = gen.integers(0, 3, size=60)
    model = GradientBoostedTreesClassifier(n_estimators=3, seed=seed).fit(X, y)
    X_test = gen.normal(size=(20, 3))
    assert np.array_equal(
        model.decision_function(X_test), model.decision_function_recursive(X_test)
    )


class TestSerializationKeepsFlatForm:
    def test_tree_round_trip_is_bitwise(self, tmp_path, blobs):
        X, y = blobs
        model = DecisionTreeClassifier(max_depth=6).fit(X, y)
        path = tmp_path / "tree.npz"
        save_model(model, path)
        loaded = load_model(path)
        for name in ("feature", "threshold", "left", "right", "value", "n_samples"):
            assert np.array_equal(
                getattr(loaded.flat_, name), getattr(model.flat_, name)
            )
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))

    def test_forest_round_trip_is_bitwise(self, tmp_path, blobs):
        X, y = blobs
        model = RandomForestClassifier(n_estimators=5, max_depth=4).fit(X, y)
        path = tmp_path / "forest.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))

    def test_gbdt_round_trip_is_bitwise(self, tmp_path, three_blobs):
        X, y = three_blobs
        model = GradientBoostedTreesClassifier(n_estimators=3).fit(X, y)
        path = tmp_path / "gbdt.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(
            loaded.decision_function(X), model.decision_function(X)
        )


# -- the bitvector leaf kernel -------------------------------------------
#
# FlatForest picks its kernel from tree shape when it is built: trees of at
# most 64 leaves take the bitvector kernel unless its rank tables would
# outgrow TABLE_WORDS_PER_NODE words per arena node; anything else takes the
# traversal.
# Both must equal the recursive walk bit for bit on any input, including
# NaN, ±inf, -0.0 and values sitting exactly on a split threshold, and on
# row counts either side of the kernel's chunk boundary.

CHUNK_EDGES = [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]


def _flats(model):
    if isinstance(model, RandomForestClassifier):
        return [tree.flat_ for tree in model.trees_]
    return [tree.flat_ for round_trees in model.trees_ for tree in round_trees]


def _expects_bitvectors(flats):
    leaves = max(int((flat.feature < 0).sum()) for flat in flats)
    splits = [
        (int(f), float(t))
        for flat in flats
        for f, t in zip(flat.feature, flat.threshold)
        if f >= 0
    ]
    if leaves > LEAF_BITS or not splits:
        return False
    # one table row per distinct (feature, threshold) plus one per feature
    rows = len({(f, t) for f, t in splits if not np.isnan(t)})
    rows += len({f for f, __ in splits})
    nodes = sum(flat.n_nodes for flat in flats)
    return rows * len(flats) <= TABLE_WORDS_PER_NODE * nodes


def _salted(gen, flats, n_rows, d):
    """Normal rows with NaN, ±inf, -0.0 and exact split thresholds mixed in."""
    X = gen.normal(size=(n_rows, d))
    splits = np.concatenate(
        [flat.threshold[flat.feature >= 0] for flat in flats] + [[0.0]]
    )
    specials = np.concatenate([[np.nan, np.inf, -np.inf, -0.0], splits])
    salt = gen.random(size=X.shape) < 0.3
    X[salt] = gen.choice(specials, size=int(salt.sum()))
    return X


def _assert_kernels_agree(model, X):
    kernel = model.flat_forest_.bitvectors
    assert (kernel is not None) == _expects_bitvectors(_flats(model))
    if isinstance(model, RandomForestClassifier):
        assert np.array_equal(
            model.predict_proba(X), model.predict_proba_recursive(X)
        )
    else:
        assert np.array_equal(
            model.decision_function(X), model.decision_function_recursive(X)
        )


def _assert_chunks_of(model, rows):
    """Few-tree forests pass CHUNK_ROWS rows at a time: CHUNK_EDGES are edges."""
    kernel = model.flat_forest_.bitvectors
    assert kernel is None or kernel.chunk_rows == rows


def _checkerboard(gen, n_rows, d, n_classes):
    """Labels that keep trees splitting, so depth 9 outgrows 64 leaves."""
    X = gen.normal(size=(n_rows, d))
    y = np.floor(3 * X[:, :3]).sum(axis=1).astype(int) % n_classes
    return X, y


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_classes=st.integers(2, 4),
    depth=st.integers(1, 9),
    n_rows=st.sampled_from(CHUNK_EDGES),
)
@example(seed=0, n_classes=3, depth=3, n_rows=2 * CHUNK_ROWS + 1)
@example(seed=0, n_classes=3, depth=9, n_rows=2 * CHUNK_ROWS + 1)
def test_forest_kernel_bitwise_equals_recursive(seed, n_classes, depth, n_rows):
    gen = np.random.default_rng(seed)
    X, y = _checkerboard(gen, 600, 4, n_classes)
    model = RandomForestClassifier(n_estimators=4, max_depth=depth, seed=seed)
    model.fit(X, y)
    _assert_chunks_of(model, CHUNK_ROWS)
    _assert_kernels_agree(model, _salted(gen, _flats(model), n_rows, 4))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_classes=st.integers(2, 4),
    preset=st.sampled_from(["xgboost", "lightgbm"]),
    size=st.integers(1, 9),
    learning_rate=st.sampled_from([0.05, 0.2, 0.7, 1.3]),
    n_rows=st.sampled_from(CHUNK_EDGES),
)
@example(
    seed=0, n_classes=3, preset="lightgbm", size=9, learning_rate=0.2,
    n_rows=2 * CHUNK_ROWS + 1,
)
@example(
    seed=0, n_classes=2, preset="xgboost", size=4, learning_rate=0.7,
    n_rows=2 * CHUNK_ROWS + 1,
)
def test_gbdt_kernel_bitwise_equals_recursive(
    seed, n_classes, preset, size, learning_rate, n_rows
):
    gen = np.random.default_rng(seed)
    X, y = _checkerboard(gen, 600, 3, n_classes)
    if preset == "xgboost":
        model = xgboost_like(
            n_estimators=2,
            learning_rate=learning_rate,
            max_depth=size,
            min_samples_leaf=2,
            seed=seed,
        )
    else:  # leaf-wise growth: leaf ids are not in left-to-right order
        model = lightgbm_like(
            n_estimators=2,
            learning_rate=learning_rate,
            max_leaves=12 * size,
            min_samples_leaf=2,
            seed=seed,
        )
    model.fit(X, y)
    _assert_chunks_of(model, CHUNK_ROWS)
    _assert_kernels_agree(model, _salted(gen, _flats(model), n_rows, 3))


class TestKernelSelection:
    def test_constant_labels_keep_single_leaf_trees_on_traversal(self):
        gen = np.random.default_rng(0)
        X = gen.normal(size=(40, 3))
        for model in (
            RandomForestClassifier(n_estimators=3, seed=0).fit(X, np.zeros(40)),
            xgboost_like(n_estimators=2).fit(X, np.zeros(40)),
        ):
            assert model.flat_forest_.depth == 0
            X_eval = _salted(gen, _flats(model), CHUNK_ROWS + 1, 3)
            _assert_kernels_agree(model, X_eval)

    def test_deep_forest_keeps_traversal(self):
        gen = np.random.default_rng(1)
        X = gen.normal(size=(1500, 4))
        y = gen.integers(0, 2, size=1500)
        model = RandomForestClassifier(n_estimators=3, max_depth=14, seed=0)
        model.fit(X, y)
        assert model.flat_forest_.bitvectors is None
        _assert_kernels_agree(model, _salted(gen, _flats(model), 300, 4))

    @pytest.mark.parametrize("n_stumps, selected", [(150, True), (250, False)])
    def test_table_size_bounds_the_selection(self, n_stumps, selected):
        # distinct-threshold stumps: (n + 1) table rows x n trees against
        # 3n arena nodes, so the tables outgrow 64 words per node past ~190
        gen = np.random.default_rng(6)
        cuts = np.sort(gen.normal(size=n_stumps))
        flats = [
            FlatTree.from_arrays(
                feature=np.array([0, -1, -1]),
                threshold=np.array([cut, 0.0, 0.0]),
                left=np.array([1, -1, -1]),
                right=np.array([2, -1, -1]),
                value=gen.normal(size=(3, 2)),
                n_samples=np.ones(3, dtype=np.int64),
            )
            for cut in cuts
        ]
        forest = FlatForest.from_trees(flats)
        assert (forest.bitvectors is not None) == selected
        assert _expects_bitvectors(flats) == selected
        if selected:
            words = sum(mask.size for mask in forest.bitvectors.masks)
            assert words <= TABLE_WORDS_PER_NODE * forest.threshold.shape[0]
        X = _salted(gen, flats, 300, 1)
        expected = np.zeros((300, 2))
        for flat in flats:
            expected += flat.predict_value(X)
        assert np.array_equal(forest.accumulate(X, np.zeros((300, 2))), expected)

    @pytest.mark.parametrize("method", ["predict_proba", "decision_function"])
    def test_one_dimensional_input_raises(self, method):
        # a single vector must fail loudly, not broadcast one row's answer
        gen = np.random.default_rng(7)
        X = gen.normal(size=(300, 5))
        y = (X[:, 0] > 0).astype(int)
        model = (
            RandomForestClassifier(n_estimators=5, max_depth=4, seed=0)
            if method == "predict_proba"
            else xgboost_like(n_estimators=5)
        ).fit(X, y)
        assert model.flat_forest_.bitvectors is not None
        with pytest.raises(ValueError):
            getattr(model, method)(X[0])

    def test_many_trees_take_shorter_chunks(self):
        # 80 trees: 65,536 state words // 80 = 819 rows, raised to 1,024
        gen = np.random.default_rng(8)
        X, y = _checkerboard(gen, 600, 4, 2)
        model = xgboost_like(n_estimators=40, seed=0).fit(X, y)
        forest = model.flat_forest_
        assert forest.n_trees == 80
        _assert_chunks_of(model, MIN_CHUNK_ROWS)
        traversal = dataclasses.replace(forest, bitvectors=None)
        chunk = forest.bitvectors.chunk_rows
        for n_rows in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            X_eval = _salted(gen, _flats(model), n_rows, 4)
            expected = traversal.accumulate(X_eval, np.zeros((n_rows, 2)))
            got = forest.accumulate(X_eval, np.zeros((n_rows, 2)))
            assert np.array_equal(got, expected)
        _assert_kernels_agree(model, X_eval[:300])

    def test_ufunc_buffer_size_is_restored(self):
        gen = np.random.default_rng(9)
        X = gen.normal(size=(300, 3))
        model = RandomForestClassifier(n_estimators=3, max_depth=3, seed=0)
        model.fit(X, (X[:, 0] > 0).astype(int))
        with np.errstate():  # restores the caller's buffer size on exit
            np.setbufsize(4096)
            model.predict_proba(X)
            with pytest.raises(ValueError):
                model.predict_proba(X[0])
            assert np.getbufsize() == 4096

    def test_mixed_single_leaf_and_split_trees(self):
        gen = np.random.default_rng(2)
        X = gen.normal(size=(200, 2))
        split = DecisionTreeRegressor(max_depth=3).fit(
            X, gen.normal(size=200), np.ones(200)
        )
        leaf = DecisionTreeRegressor(max_depth=0).fit(
            X, gen.normal(size=200), np.ones(200)
        )
        flats = [leaf.flat_, split.flat_, leaf.flat_]
        forest = FlatForest.from_trees(flats)
        assert forest.bitvectors is not None
        X_eval = _salted(gen, flats, 50, 2)
        expected = np.zeros((50, 1))
        for flat in flats:
            expected += flat.predict_value(X_eval)
        assert np.array_equal(forest.accumulate(X_eval, np.zeros((50, 1))), expected)


class TestRankingEdges:
    def test_signed_zero_threshold(self):
        # ±1 features put a split exactly at 0.0; -0.0 <= 0.0 must go left
        gen = np.random.default_rng(3)
        X = gen.choice([-1.0, 1.0], size=(200, 3))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        model = RandomForestClassifier(n_estimators=5, max_depth=4, seed=0).fit(X, y)
        blocks = model.flat_forest_.bitvectors.thresholds
        assert any((block == 0.0).any() for block in blocks)
        X_eval = gen.choice([-0.0, 0.0, -1.0, 1.0, np.nan], size=(500, 3))
        _assert_kernels_agree(model, X_eval)

    def test_over_255_thresholds_count_past_uint8(self):
        gen = np.random.default_rng(4)
        X = gen.normal(size=(2000, 1))
        y = gen.integers(0, 2, size=2000)
        model = RandomForestClassifier(n_estimators=12, max_depth=6, seed=0)
        model.fit(X, y)
        (block,) = model.flat_forest_.bitvectors.thresholds
        assert block.shape[1] > np.iinfo(np.uint8).max
        _assert_kernels_agree(model, _salted(gen, _flats(model), CHUNK_ROWS + 1, 1))

    def test_groups_pad_at_most_twofold(self):
        # features with 1 to ~45 thresholds land in several compare groups
        gen = np.random.default_rng(5)
        X = gen.normal(size=(1500, 6))
        X[:, 4:] = gen.integers(0, [2, 4], size=(1500, 2))
        y = (X[:, 0] + X[:, 1] * X[:, 4] + X[:, 5] > 1).astype(int)
        model = xgboost_like(n_estimators=20, seed=0).fit(X, y)
        blocks = model.flat_forest_.bitvectors.thresholds
        assert len(blocks) > 1
        for block in blocks:
            counts = (~np.isnan(block[:, :, 0])).sum(axis=1)
            assert counts[0] == block.shape[1]
            assert (2 * counts >= block.shape[1]).all()
        _assert_kernels_agree(model, _salted(gen, _flats(model), 700, 6))

    def test_nan_threshold_always_goes_right(self):
        # a persisted tree may carry a NaN split: x <= NaN never holds
        tree = FlatTree.from_arrays(
            feature=np.array([0, 1, -1, -1, -1]),
            threshold=np.array([np.nan, 0.5, 0.0, 0.0, 0.0]),
            left=np.array([1, 3, -1, -1, -1]),
            right=np.array([2, 4, -1, -1, -1]),
            value=np.array([[0.0], [0.0], [1.0], [2.0], [3.0]]),
            n_samples=np.ones(5, dtype=np.int64),
        )
        forest = FlatForest.from_trees([tree])
        assert forest.bitvectors is not None
        X = np.array([[-np.inf, 0.0], [np.nan, 0.0], [0.0, 1.0], [np.inf, np.nan]])
        got = forest.accumulate(X, np.zeros((4, 1)))
        assert np.array_equal(got, tree.predict_value(X))
        assert np.array_equal(got[:, 0], [1.0, 1.0, 1.0, 1.0])
