"""Flat-array tree representation and the vectorized evaluation kernels.

Fitted CART trees are compiled into five contiguous numpy arrays
(``feature``, ``threshold``, ``left``, ``right``, ``value``) indexed by
node id.  A single tree is evaluated by an *iterative* traversal that
advances every row one level per step via fancy indexing — no Python
recursion, no per-node index bookkeeping — until all rows have landed on
leaves.  An ensemble (:class:`FlatForest`) takes one of two kernels,
chosen from tree shape when it is built: a bitvector leaf kernel
(:class:`LeafBitvectors`) when every tree has at most 64 leaves and the
kernel's tables stay within a fixed size per node, else the same
level-synchronous traversal over all trees at once.

These kernels are the evaluation path for :class:`DecisionTreeClassifier`,
:class:`DecisionTreeRegressor`, the random forest and the gradient-boosted
ensembles.  Their contract is *bitwise* equivalence with the recursive
reference walk (``tests/ml/reference_trees.py``, property-tested in
``tests/ml/test_flattree.py``):
each decides ``X[i, feature] <= threshold`` exactly as the walk does on the
same float64 values and adds the identical leaf-value vectors in the same
order, so not even the last ulp may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["FlatForest", "FlatTree", "LeafBitvectors"]

#: A tree enters the leaf kernel only if its leaves fit one uint64 word.
LEAF_BITS = 64
#: The kernel's rank tables may hold at most this many uint64 words per
#: arena node (512 B, several times the arena's own 4 + width words), so
#: their size stays linear in the forest (DESIGN.md §10.1).
TABLE_WORDS_PER_NODE = 64
#: Rows per leaf-kernel pass: as many as keep the ``(rows, n_trees)``
#: uint64 state within ``STATE_WORDS`` (512 KiB, cache-resident), but
#: between ``MIN_CHUNK_ROWS`` and ``CHUNK_ROWS``; shorter passes repeat
#: the per-feature and per-tree calls too often (DESIGN.md §10.1).
STATE_WORDS = 65536
MIN_CHUNK_ROWS = 1024
CHUNK_ROWS = 4096
#: Most leaf values one gather materialises: 8,192 float64s (64 KiB) stay
#: under glibc's 128 KiB mmap threshold, so the block comes from the heap
#: instead of freshly faulted pages (DESIGN.md §10.1).  A one-row call
#: gathers every tree at once, a 4,096-row chunk of a 2-class forest one
#: tree at a time.
GATHER_VALUES = 8192
#: ufunc buffer (elements) while the kernel runs.  numpy buffers a
#: broadcast compare over fewer rows than a third of its buffer and then
#: runs it ~5x slower; at 512 that cliff sits at 171 rows instead of 2,731.
KERNEL_BUFSIZE = 512
_ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
#: float64 exponent bias: ``2.0**k`` carries ``k + 1023`` in bits 52..62.
_EXPONENT_BIAS = 1023


@dataclass
class _Node:
    """One tree node; leaves keep a class-probability (or value) vector.

    This is the *grow-time* (and introspection) representation; prediction
    goes through the compiled :class:`FlatTree` arrays.
    """

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    value: Optional[np.ndarray] = None
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


@dataclass(frozen=True)
class FlatTree:
    """One fitted tree as parallel arrays (the serialized form, too).

    ``feature[i] == -1`` marks node ``i`` as a leaf; interior nodes carry
    the split feature, threshold and both child ids.  ``value`` holds one
    row per node — the class-probability (or regression-value) vector the
    recursive representation keeps on ``_Node.value`` — and ``n_samples``
    the training rows that reached the node (used by importances).
    """

    feature: np.ndarray  # (n_nodes,) int64, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int64, -1 for leaves
    right: np.ndarray  # (n_nodes,) int64, -1 for leaves
    value: np.ndarray  # (n_nodes, value_width) float64
    n_samples: np.ndarray  # (n_nodes,) int64

    def __post_init__(self) -> None:
        n = self.feature.shape[0]
        for name in ("threshold", "left", "right", "n_samples"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} disagrees with feature on node count")
        if self.value.ndim != 2 or self.value.shape[0] != n:
            raise ValueError("value must be a (n_nodes, width) matrix")
        # navigation arrays: leaves self-loop (and gather feature 0, which
        # is harmless — both branches lead back to the leaf), so traversal
        # advances every row unconditionally with flat gathers and no
        # per-level row filtering.  Children are interleaved — right child
        # at 2i, left child at 2i+1 — so the step is one gather indexed by
        # ``2*node + go_left`` instead of two gathers plus a select.
        nodes = np.arange(n, dtype=np.int64)
        is_leaf = self.left < 0
        object.__setattr__(self, "_nav_feature", np.where(is_leaf, 0, self.feature))
        object.__setattr__(self, "_nav_left", np.where(is_leaf, nodes, self.left))
        object.__setattr__(self, "_nav_right", np.where(is_leaf, nodes, self.right))
        children = np.empty(2 * n, dtype=np.int64)
        children[0::2] = self._nav_right
        children[1::2] = self._nav_left
        object.__setattr__(self, "_nav_children", children)
        object.__setattr__(self, "_depth", self._compute_depth())

    def _compute_depth(self) -> int:
        """Levels below the root, via a breadth-first frontier sweep."""
        depth = 0
        frontier = np.array([0], dtype=np.int64)
        while True:
            children = np.concatenate(
                [self.left[frontier], self.right[frontier]]
            )
            children = children[children >= 0]
            if children.size == 0:
                return depth
            frontier = children
            depth += 1

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def value_width(self) -> int:
        return self.value.shape[1]

    @classmethod
    def from_nodes(cls, nodes: List) -> "FlatTree":
        """Compile a ``_Node`` list (ids are already list positions)."""
        if not nodes:
            raise ValueError("cannot compile an empty tree")
        n = len(nodes)
        feature = np.fromiter(
            (node.feature for node in nodes), dtype=np.int64, count=n
        )
        threshold = np.fromiter(
            (node.threshold for node in nodes), dtype=np.float64, count=n
        )
        left = np.fromiter((node.left for node in nodes), dtype=np.int64, count=n)
        right = np.fromiter(
            (node.right for node in nodes), dtype=np.int64, count=n
        )
        n_samples = np.fromiter(
            (node.n_samples for node in nodes), dtype=np.int64, count=n
        )
        width = max(len(node.value) for node in nodes)
        value = np.zeros((n, width))
        for i, node in enumerate(nodes):
            value[i, : len(node.value)] = node.value
        # leaves are exactly the nodes with no left child in the recursive
        # form; normalise their feature to -1 so apply() terminates on it
        feature = np.where(left < 0, -1, feature)
        return cls(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            value=value,
            n_samples=n_samples,
        )

    @classmethod
    def from_arrays(
        cls,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        n_samples: np.ndarray,
    ) -> "FlatTree":
        """Adopt persisted arrays (the ``.npz`` payload) as a tree."""
        left = np.asarray(left, dtype=np.int64)
        return cls(
            feature=np.where(
                left < 0, -1, np.asarray(feature, dtype=np.int64)
            ),
            threshold=np.asarray(threshold, dtype=np.float64),
            left=left,
            right=np.asarray(right, dtype=np.int64),
            value=np.asarray(value, dtype=np.float64),
            n_samples=np.asarray(n_samples, dtype=np.int64),
        )

    def to_nodes(self) -> List["_Node"]:
        """Rebuild the ``_Node`` list (introspection, depth/leaf queries)."""
        return [
            _Node(
                feature=int(self.feature[i]),
                threshold=float(self.threshold[i]),
                left=int(self.left[i]),
                right=int(self.right[i]),
                value=self.value[i].copy(),
                n_samples=int(self.n_samples[i]),
            )
            for i in range(self.n_nodes)
        ]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id per row: advance all rows one level per step.

        Each of the (at most ``depth``) iterations is three flat gathers
        and a compare over every row — leaves self-loop via the navigation
        arrays, so no per-level row bookkeeping is needed and the per-row
        Python recursion is gone entirely.  The interleaved ``_nav_children``
        table turns the branch select into index arithmetic
        (``2*node + go_left``), saving one random gather per level.
        """
        n, d = X.shape
        node = np.zeros(n, dtype=np.int64)
        if self.n_nodes == 1:  # single-leaf tree: everything is at the root
            return node
        X_flat = np.ascontiguousarray(X).reshape(-1)
        row_base = np.arange(n, dtype=np.int64) * d
        for __ in range(self._depth):
            go_left = X_flat[row_base + self._nav_feature[node]] <= (
                self.threshold[node]
            )
            node = self._nav_children[(node << 1) + go_left]
        return node

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Leaf-value matrix per row, shape (n_rows, value_width)."""
        return self.value[self.apply(X)]


def _bit_span(first: np.ndarray, width: np.ndarray) -> np.ndarray:
    """uint64 words with bits ``first .. first + width - 1`` set (width >= 1)."""
    return (_ALL_BITS >> (LEAF_BITS - width).astype(np.uint64)) << first.astype(
        np.uint64
    )


@dataclass(frozen=True)
class LeafBitvectors:
    """QuickScorer-style leaf kernel for trees with at most 64 leaves.

    Each tree numbers its leaves left to right, so every subtree owns a
    contiguous run of bits in one uint64 word.  An interior node on
    feature ``f`` with threshold ``t`` clears its right subtree's bits for
    rows with ``x[f] <= t`` and its left subtree's bits for the others.
    Those decisions depend on ``x[f]`` only through ``c``, the number of
    ``f``'s distinct thresholds that are ``>= x[f]``: a node sends a row
    left exactly when ``c`` reaches the count of ``f``'s thresholds
    ``>= t`` (NaN reaches none, so it goes right, as ``NaN <= t`` does).
    ``masks[i][c, tree]`` is therefore the AND of every node's clearing
    word on feature ``features[i]``, precomputed per ``c``, and a row's
    leaf in each tree is the AND over the used features of one gathered
    table row.  Exactly one bit survives: any other leaf is cleared at
    its lowest common ancestor with the exit leaf, which the row leaves
    towards the exit leaf.  The bit's index is read from the float64
    exponent of the word.

    ``c`` is counted with one broadcast compare per group of features:
    features are ordered by threshold count, most first, and a group
    takes features with at least half its first feature's count, padded
    with NaN (which no ``x`` is ``<=``), so padding at most doubles the
    compares.  Leaf values are laid out ``(n_trees * 64, width)``, row
    ``64 * tree + leaf``, holding the arena's output-aligned (and
    pre-scaled) vectors; a chunk gathers them tree-major, in blocks of
    trees of at most ``GATHER_VALUES`` values, and adds them tree by tree
    in ensemble order, the reference's additions exactly.
    """

    features: np.ndarray  # (n_used,) split features, most thresholds first
    thresholds: Tuple[np.ndarray, ...]  # per group: (n_group, m_max, 1)
    masks: Tuple[np.ndarray, ...]  # per used feature: (m + 1, n_trees) uint64
    leaf_value: np.ndarray  # (n_trees * 64, width) output-aligned values
    leaf_base: np.ndarray  # (n_trees,) 64 * tree - exponent bias
    chunk_rows: int  # rows per pass, from the tree count

    @classmethod
    def build(
        cls,
        nav_feature: np.ndarray,
        threshold: np.ndarray,
        children: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
    ) -> Optional["LeafBitvectors"]:
        """Compile an arena; ``None`` if a tree has over 64 leaves, none
        splits (a forest of single leaves needs no ranking), or the rank
        tables would outgrow ``TABLE_WORDS_PER_NODE`` words per node."""
        n_nodes, n_trees = threshold.shape[0], roots.shape[0]
        left, right = children[1::2], children[0::2]
        interior = left != np.arange(n_nodes)  # leaves self-loop
        n_leaves = np.add.reduceat(~interior, roots, dtype=np.int64)
        if n_leaves.max() > LEAF_BITS or not interior.any():
            return None
        nodes = np.flatnonzero(interior)
        node_feature, node_threshold = nav_feature[nodes], threshold[nodes]
        unordered = np.isnan(node_threshold)  # x <= NaN never holds
        used = np.unique(node_feature)
        sorted_thresholds = [
            np.unique(node_threshold[(node_feature == f) & ~unordered])
            for f in used
        ]
        counts = np.array([thr.shape[0] for thr in sorted_thresholds])
        # one (m + 1, n_trees) table per feature: quadratic in trees unless
        # bounded by the arena it indexes
        if (counts + 1).sum() * n_trees > TABLE_WORDS_PER_NODE * n_nodes:
            return None
        order = np.argsort(-counts, kind="stable")
        groups: List[List[int]] = []
        for i in order:
            if not groups or 2 * counts[i] < counts[groups[-1][0]]:
                groups.append([])
            groups[-1].append(i)
        thresholds = []
        for group in groups:
            block = np.full((len(group), counts[group[0]], 1), np.nan)
            for row, i in enumerate(group):
                block[row, : counts[i], 0] = sorted_thresholds[i]
            thresholds.append(block)
        # interior nodes level by level, so sizes fold bottom-up and leaf
        # ranks propagate top-down without recursion
        levels = []
        frontier = roots[interior[roots]]
        while frontier.size:
            levels.append(frontier)
            below = np.concatenate([left[frontier], right[frontier]])
            frontier = below[interior[below]]
        size = np.ones(n_nodes, dtype=np.int64)  # leaves under each node
        for level in reversed(levels):
            size[level] = size[left[level]] + size[right[level]]
        first = np.zeros(n_nodes, dtype=np.int64)  # leftmost leaf's rank
        for level in levels:
            first[left[level]] = first[level]
            first[right[level]] = first[level] + size[left[level]]
        tree = np.repeat(np.arange(n_trees), np.diff(np.append(roots, n_nodes)))
        node_tree = tree[nodes]
        # x <= t keeps the left subtree: clear the right one, and vice versa
        go_left = ~_bit_span(first[right[nodes]], size[right[nodes]])
        go_right = ~_bit_span(first[left[nodes]], size[left[nodes]])
        all_leaves = _bit_span(np.zeros(n_trees, dtype=np.int64), n_leaves)
        masks = []
        for i in order:
            on_f = node_feature == used[i]
            thr, m = sorted_thresholds[i], counts[i]
            # a node sends x left iff at least `need` thresholds are >= x
            need = np.where(
                unordered[on_f],
                m + 1,
                m - np.searchsorted(thr, node_threshold[on_f]),
            )
            rows = np.broadcast_to(all_leaves, (m + 2, n_trees))
            low, high = rows.copy(), rows.copy()
            np.bitwise_and.at(low, (need - 1, node_tree[on_f]), go_right[on_f])
            np.bitwise_and.at(high, (need, node_tree[on_f]), go_left[on_f])
            # row c: go_right of nodes needing more than c, go_left of the rest
            below_need = np.bitwise_and.accumulate(low[m::-1], axis=0)[::-1]
            met_need = np.bitwise_and.accumulate(high[: m + 1], axis=0)
            masks.append(below_need & met_need)
        leaves = np.flatnonzero(~interior)
        leaf_value = np.zeros((n_trees * LEAF_BITS, value.shape[1]))
        leaf_value[tree[leaves] * LEAF_BITS + first[leaves]] = value[leaves]
        return cls(
            features=used[order],
            thresholds=tuple(thresholds),
            masks=tuple(masks),
            leaf_value=leaf_value,
            leaf_base=np.arange(n_trees, dtype=np.int64) * LEAF_BITS
            - _EXPONENT_BIAS,
            chunk_rows=int(
                np.clip(STATE_WORDS // n_trees, MIN_CHUNK_ROWS, CHUNK_ROWS)
            ),
        )

    def accumulate(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add every tree's leaf values into ``out``, in ensemble order."""
        n_rows, __ = X.shape  # a 1-D vector raises here, as in apply_all
        previous = np.setbufsize(KERNEL_BUFSIZE)
        try:
            for start in range(0, n_rows, self.chunk_rows):
                stop = start + self.chunk_rows
                self._accumulate_chunk(X[start:stop], out[start:stop])
        finally:
            np.setbufsize(previous)
        return out

    def _accumulate_chunk(self, X: np.ndarray, out: np.ndarray) -> None:
        columns = X.T[self.features][:, None, :]  # (n_used, 1, rows)
        ranks, first = [], 0
        for block in self.thresholds:
            last = first + block.shape[0]
            # branch-free count of each feature's thresholds >= x
            at_or_above = np.less_equal(columns[first:last], block)
            ranks.extend(
                np.add.reduce(
                    at_or_above.view(np.uint8),
                    axis=1,
                    dtype=np.min_scalar_type(block.shape[1]),
                )
            )
            first = last
        alive = self.masks[0].take(ranks[0], axis=0)
        for rank, mask in zip(ranks[1:], self.masks[1:]):
            alive &= mask.take(rank, axis=0)
        leaf = alive.astype(np.float64).view(np.int64)
        leaf >>= 52  # one bit set: the exponent is its index + bias
        leaf += self.leaf_base
        # tree-major gathers, so each tree's add reads contiguous rows
        step = max(1, GATHER_VALUES // out.size)
        for first in range(0, leaf.shape[1], step):
            trees = leaf[:, first : first + step].T
            for values in self.leaf_value.take(trees, axis=0):
                out += values


@dataclass(frozen=True)
class FlatForest:
    """Every tree of an ensemble in one arena, evaluated by one of two kernels.

    All trees' node arrays are concatenated into one arena (child pointers
    rebased to arena-absolute ids, leaves self-looping).  Leaf-value rows
    are pre-expanded to the ensemble's output width (and pre-scaled, for
    boosted trees, by the learning rate), so accumulation is a plain
    sequential sum over trees — the same additions in the same order as
    the per-tree reference, keeping outputs bit-for-bit equal.

    The kernel is chosen from tree shape at build time.  When every tree
    has at most 64 leaves (and the rank tables stay within
    ``TABLE_WORDS_PER_NODE`` words per node), :class:`LeafBitvectors`
    finds each row's leaves with one rank per used feature and an AND of
    gathered table rows.  Otherwise a single ``(n_rows, n_trees)`` state
    matrix advances every row through every tree simultaneously —
    ``max_depth`` iterations of wide flat gathers for the whole ensemble.
    """

    nav_feature: np.ndarray  # (total_nodes,) split feature, 0 on leaves
    threshold: np.ndarray  # (total_nodes,)
    children: np.ndarray  # (2*total_nodes,) arena-absolute, interleaved:
    #   children[2i] = right child of node i, children[2i+1] = left child
    #   (leaves self-loop), so the next node is children[2*node + go_left]
    value: np.ndarray  # (total_nodes, width) output-aligned leaf values
    roots: np.ndarray  # (n_trees,) arena id of each tree's root
    depth: int  # max depth across trees
    bitvectors: Optional[LeafBitvectors]  # leaf kernel, None: traversal

    @property
    def n_trees(self) -> int:
        return self.roots.shape[0]

    @property
    def width(self) -> int:
        return self.value.shape[1]

    @classmethod
    def from_trees(
        cls,
        flats: List["FlatTree"],
        width: Optional[int] = None,
        columns: Optional[List[np.ndarray]] = None,
        scales: Optional[List[float]] = None,
    ) -> "FlatForest":
        """Concatenate compiled trees into one arena and pick its kernel.

        ``columns[i]`` maps tree ``i``'s value columns into the ensemble's
        output columns (a forest tree that never saw a class contributes
        zeros there); ``scales[i]`` pre-multiplies tree ``i``'s leaf values
        (the GBDT learning rate — the same per-element product the
        reference computes per prediction, so bits are unchanged).
        """
        if not flats:
            raise ValueError("cannot build an arena from zero trees")
        counts = np.array([f.n_nodes for f in flats], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        if width is None:
            width = max(f.value_width for f in flats)
        value = np.zeros((int(counts.sum()), width))
        for i, (flat, off) in enumerate(zip(flats, offsets)):
            rows = value[off : off + flat.n_nodes]
            v = flat.value if scales is None else flat.value * scales[i]
            cols = (
                np.arange(flat.value_width) if columns is None else columns[i]
            )
            rows[:, cols] = v
        nav_feature = np.concatenate([f._nav_feature for f in flats])
        threshold = np.concatenate([f.threshold for f in flats])
        children = np.concatenate(
            [f._nav_children + off for f, off in zip(flats, offsets)]
        )
        return cls(
            nav_feature=nav_feature,
            threshold=threshold,
            children=children,
            value=value,
            roots=offsets,
            depth=max(f._depth for f in flats),
            bitvectors=LeafBitvectors.build(
                nav_feature, threshold, children, value, offsets
            ),
        )

    def apply_all(self, X: np.ndarray) -> np.ndarray:
        """Arena leaf id per (row, tree): one (n, n_trees) state matrix.

        Each level is three wide gathers and a compare; the interleaved
        ``children`` table resolves the branch with index arithmetic
        (``2*node + go_left``) instead of two gathers plus a select.
        """
        n, d = X.shape
        node = np.repeat(self.roots[None, :], n, axis=0)
        if self.depth == 0:
            return node
        X_flat = np.ascontiguousarray(X).reshape(-1)
        row_base = (np.arange(n, dtype=np.int64) * d)[:, None]
        for __ in range(self.depth):
            go_left = X_flat[row_base + self.nav_feature[node]] <= (
                self.threshold[node]
            )
            node = self.children[(node << 1) + go_left]
        return node

    def accumulate(self, X: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Add every tree's output-aligned leaf values into ``out``, in order.

        Through :class:`LeafBitvectors` when the forest has one, else via
        :meth:`apply_all`; either way the per-tree loop is over
        ``(n, width)`` adds only, in ensemble order, so float summation
        matches the sequential reference exactly.
        """
        if self.bitvectors is not None:
            return self.bitvectors.accumulate(X, out)
        values = self.value[self.apply_all(X)]  # (n, n_trees, width)
        for t in range(self.n_trees):
            out += values[:, t, :]
        return out
