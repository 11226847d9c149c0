"""Split search and tree growing of the forest against reference builders.

The split search is checked against a brute-force oracle.  ``RandomForest.fit``
grows every tree of a forest level by level in padded blocks; it is checked
byte for byte against the recursive per-node builder it replaced, kept here
as the reference.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ptzkit import forest
from ptzkit.forest import BLOCK_CELLS, ForestConfig, RandomForest, Tree, best_split


def brute_force_best_split(x, y, idx, min_leaf):
    """Quadratic-time oracle for the split search."""
    best = (-1, 0.0, np.inf)
    m = idx.shape[0]
    for f in range(x.shape[1]):
        xv = x[idx, f]
        for thr in np.unique(xv)[:-1]:
            # midpoints between consecutive distinct values
            above = np.unique(xv)[np.unique(xv) > thr][0]
            mid = (thr + above) / 2.0
            mask = xv <= mid
            nl = int(mask.sum())
            if nl < min_leaf or m - nl < min_leaf:
                continue
            yl, yr = y[idx][mask], y[idx][~mask]
            sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
            if sse < best[2] - 1e-9:
                best = (f, mid, sse)
    return best


def test_best_split_matches_brute_force():
    rng = np.random.default_rng(11)
    for trial in range(20):
        m = int(rng.integers(12, 60))
        x = rng.normal(size=(m, 3))
        y = x[:, 0] * 2.0 + rng.normal(size=m) * 0.3
        idx = np.arange(m, dtype=np.int64)
        feat, thr, sse = best_split(x, y, idx, 2)
        bf_feat, bf_thr, bf_sse = brute_force_best_split(x, y, idx, 2)
        assert feat == bf_feat
        assert thr == pytest.approx(bf_thr)
        assert sse == pytest.approx(bf_sse, abs=1e-8)


def test_best_split_degenerate():
    x = np.ones((10, 2))
    y = np.arange(10.0)
    feat, thr, sse = best_split(x, y, np.arange(10, dtype=np.int64), 2)
    assert feat == -1
    feat, _, _ = best_split(
        np.random.default_rng(0).normal(size=(3, 2)), y[:3], np.arange(3, dtype=np.int64), 2
    )
    assert feat == -1  # too few samples for two leaves


def reference_best_split(x, y, idx, min_leaf):
    """Per-node split search: one stable sort and prefix sums per feature."""
    m = idx.shape[0]
    best_f, best_thr, best_sse = -1, 0.0, np.inf
    if m < 2 * min_leaf:
        return best_f, best_thr, best_sse
    for f in range(x.shape[1]):
        xv = x[idx, f]
        order = np.argsort(xv, kind="stable")
        xs = xv[order]
        if xs[0] == xs[m - 1]:
            continue
        yo = y[idx][order]
        cy = np.cumsum(yo)
        cy2 = np.cumsum(yo * yo)
        total_y = cy[m - 1]
        total_y2 = cy2[m - 1]
        ks = np.arange(min_leaf, m - min_leaf + 1, dtype=np.int64)
        valid = xs[ks] > xs[ks - 1]
        if not np.any(valid):
            continue
        ks = ks[valid]
        sl = cy[ks - 1]
        sl2 = cy2[ks - 1]
        sr = total_y - sl
        sr2 = total_y2 - sl2
        sse = (sl2 - sl * sl / ks) + (sr2 - sr * sr / (m - ks))
        j = int(np.argmin(sse))
        if sse[j] < best_sse:
            best_sse = float(sse[j])
            best_f = f
            k = int(ks[j])
            best_thr = (xs[k - 1] + xs[k]) / 2.0
            if best_thr == xs[k]:  # the midpoint rounded onto the upper value
                best_thr = xs[k - 1]
    return best_f, best_thr, best_sse


def reference_build_tree(x, y, idx, cfg):
    """Recursive depth-first builder, nodes numbered in preorder."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add_leaf(sub):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y[sub])))
        return node

    def grow(sub, depth):
        m = sub.shape[0]
        if depth >= cfg.max_depth or m < 2 * cfg.min_samples_leaf:
            return add_leaf(sub)
        ys = y[sub]
        total = float(np.sum(ys))
        total2 = float(np.sum(ys * ys))
        parent_sse = total2 - total * total / m
        feat, thr, sse = reference_best_split(x, y, sub, cfg.min_samples_leaf)
        if feat < 0 or not (parent_sse - sse > 1e-12 * max(1.0, abs(parent_sse))):
            return add_leaf(sub)
        node = len(feature)
        feature.append(feat)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        mask = x[sub, feat] <= thr
        left[node] = grow(sub[mask], depth + 1)
        right[node] = grow(sub[~mask], depth + 1)
        return node

    grow(idx, 0)
    return Tree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
    )


def reference_fit(x, y, cfg, seed_seq):
    """The same bootstraps as ``RandomForest.fit``, each tree grown recursively."""
    n = x.shape[0]
    trees = []
    for child in seed_seq.spawn(cfg.n_trees):
        boot = np.random.default_rng(child).integers(0, n, size=n)
        trees.append(reference_build_tree(x, y, boot, cfg))
    return RandomForest(config=cfg, trees=trees)


def forest_bytes(model):
    """A head as ``save_model`` serializes it into model.json."""
    return json.dumps(model.to_dict()).encode()


def make_data(seed, n_rows, n_features, x_kind, y_kind, const_feature):
    rng = np.random.default_rng(seed)
    if x_kind == "dup":  # few distinct values: many ties in every sort
        x = rng.integers(0, 4, size=(n_rows, n_features)).astype(np.float64)
    elif x_kind == "adjacent":  # neighbouring doubles: midpoints round onto a value
        x = 1.0 + rng.integers(0, 4, size=(n_rows, n_features)) * np.finfo(np.float64).eps
    else:
        x = rng.normal(size=(n_rows, n_features))
    if const_feature:
        x[:, -1] = 0.5
    if y_kind == "const":
        y = np.full(n_rows, 2.5)
    else:
        y = x[:, 0] * 3.0 + rng.normal(size=n_rows)
    return x, y


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    n_rows=hst.integers(2, 90),
    n_features=hst.integers(1, 4),
    min_leaf=hst.integers(1, 6),
    max_depth=hst.integers(1, 7),
    n_trees=hst.sampled_from([1, 2, 5]),
    x_kind=hst.sampled_from(["float", "dup", "adjacent"]),
    y_kind=hst.sampled_from(["noise", "const"]),
    const_feature=hst.booleans(),
)
@example(seed=1, n_rows=10, n_features=2, min_leaf=5, max_depth=3, n_trees=5,
         x_kind="float", y_kind="noise", const_feature=False)  # root of exactly 2 * min_leaf
@example(seed=2, n_rows=40, n_features=3, min_leaf=2, max_depth=1, n_trees=1,
         x_kind="dup", y_kind="noise", const_feature=True)
@example(seed=3, n_rows=60, n_features=2, min_leaf=1, max_depth=6, n_trees=5,
         x_kind="float", y_kind="const", const_feature=False)
@example(seed=0, n_rows=60, n_features=2, min_leaf=1, max_depth=6, n_trees=2,
         x_kind="adjacent", y_kind="noise", const_feature=False)  # thresholds equal to a value
@example(seed=4, n_rows=3000, n_features=3, min_leaf=4, max_depth=5, n_trees=5,
         x_kind="dup", y_kind="noise", const_feature=True)  # several padded blocks per depth
def test_fit_matches_reference_builder(
    seed, n_rows, n_features, min_leaf, max_depth, n_trees, x_kind, y_kind, const_feature
):
    if n_rows < 2 * min_leaf:
        min_leaf = n_rows // 2
    x, y = make_data(seed, n_rows, n_features, x_kind, y_kind, const_feature)
    cfg = ForestConfig(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=min_leaf)
    got = RandomForest.fit(x, y, cfg, np.random.SeedSequence(seed))
    want = reference_fit(x, y, cfg, np.random.SeedSequence(seed))
    assert forest_bytes(got) == forest_bytes(want)
    for a, b in zip(got.trees, want.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_midpoint_rounding_onto_upper_value_leaves_no_empty_leaf():
    # (1 + eps + 1 + 2 eps) / 2 rounds to 1 + 2 eps; split there, every sample
    # went left, and the empty right leaf predicted NaN: [0.5, 0.5, nan]
    eps = np.finfo(np.float64).eps
    y = np.array([0.0, 1.0] * 5)
    x = np.where(y == 0.0, 1.0 + eps, 1.0 + 2 * eps)[:, None]
    cfg = ForestConfig(n_trees=1, max_depth=2, min_samples_leaf=1)
    model = RandomForest.fit(x, y, cfg, np.random.SeedSequence(3))
    assert model.predict(np.array([[1.0 + eps], [1.0 + 2 * eps], [5.0]])).tolist() == [0.0, 1.0, 1.0]
    assert model.trees[0].threshold[0] == 1.0 + eps


def test_wide_nodes_split_over_several_blocks(monkeypatch):
    shapes = []
    search = forest._split_block

    def record(xt, y_pad, idx, sizes, min_leaf):
        shapes.append(idx.shape)
        return search(xt, y_pad, idx, sizes, min_leaf)

    monkeypatch.setattr(forest, "_split_block", record)
    x, y = make_data(4, 3000, 3, "float", "noise", False)
    cfg = ForestConfig(n_trees=5, max_depth=3, min_samples_leaf=4)
    got = RandomForest.fit(x, y, cfg, np.random.SeedSequence(4))
    assert shapes[:5] == [(1, 3000)] * 5  # one root per block
    assert all(k == 1 or k * w <= BLOCK_CELLS for k, w in shapes)
    assert any(k > 1 for k, _ in shapes)
    assert forest_bytes(got) == forest_bytes(reference_fit(x, y, cfg, np.random.SeedSequence(4)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    n_rows=hst.integers(1, 60),
    n_features=hst.integers(1, 4),
    min_leaf=hst.integers(1, 6),
    x_kind=hst.sampled_from(["float", "dup", "adjacent"]),
    y_kind=hst.sampled_from(["noise", "const"]),
    const_feature=hst.booleans(),
)
def test_best_split_matches_reference(seed, n_rows, n_features, min_leaf, x_kind, y_kind, const_feature):
    x, y = make_data(seed, n_rows, n_features, x_kind, y_kind, const_feature)
    idx = np.random.default_rng(seed).integers(0, n_rows, size=n_rows)
    got = best_split(x, y, idx, min_leaf)
    want = reference_best_split(x, y, idx, min_leaf)
    assert (got[0], float(got[1]), float(got[2])) == (want[0], float(want[1]), float(want[2]))
