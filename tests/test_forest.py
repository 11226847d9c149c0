"""Split search, tree growing and prediction of the forest against references.

The split search is checked against a brute-force oracle.  ``fit_heads``
grows the trees of every head level by level, on presorted columns, in padded
blocks; it is checked byte for byte against the recursive per-node builder it
replaced, kept here as the reference.  ``RandomForest.predict`` walks every
tree at once; it is checked bit for bit against a walk of one tree at a time.
The reference takes each node's sums in ``np.add.reduceat``'s order, the
first sample plus numpy's pairwise sum of the rest; on codec-range integer
labels, which every sum holds exactly, the grower also matches the builder
that took them as ``np.sum`` does.
"""

import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ptzkit import forest
from ptzkit.forest import BLOCK_CELLS, ForestConfig, RandomForest, Tree, best_split, fit_heads


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


def reduceat_sum(values):
    """The sum ``np.add.reduceat`` takes of one segment: its first item plus
    numpy's pairwise sum of the rest."""
    return values[0] + np.add.reduce(values[1:])


def reference_build_tree(x, y, idx, cfg, node_sum=reduceat_sum):
    """Recursive depth-first builder, nodes numbered in preorder, each node's
    total, total of squares and leaf mean summed by ``node_sum``."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add_leaf(sub):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(node_sum(y[sub]) / sub.shape[0]))
        return node

    def grow(sub, depth):
        m = sub.shape[0]
        if depth >= cfg.max_depth or m < 2 * cfg.min_samples_leaf:
            return add_leaf(sub)
        ys = y[sub]
        total = float(node_sum(ys))
        total2 = float(node_sum(ys * ys))
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


def reference_fit(x, y, cfg, seed_seq, node_sum=reduceat_sum):
    """The same bootstraps as ``RandomForest.fit``, each tree grown recursively."""
    n = x.shape[0]
    trees = []
    for child in seed_seq.spawn(cfg.n_trees):
        boot = np.random.default_rng(child).integers(0, n, size=n)
        trees.append(reference_build_tree(x, y, boot, cfg, node_sum))
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
    elif y_kind == "labels":  # integers in the codec range, as the program fits
        y = np.clip(np.round(x[:, 0] * 300.0 + rng.normal(size=n_rows) * 200.0), -999, 999)
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
    y_kind=hst.sampled_from(["noise", "const", "labels"]),
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
@example(seed=5, n_rows=3000, n_features=3, min_leaf=1, max_depth=7, n_trees=2,
         x_kind="float", y_kind="labels", const_feature=False)  # labels in nodes over 128 samples
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
    if y_kind == "labels":  # exact sums: the order of the additions cannot show
        assert forest_bytes(got) == forest_bytes(reference_fit(x, y, cfg, np.random.SeedSequence(seed), np.sum))


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
    search = forest._split_sorted

    def record(xs, ys, sizes, min_leaf):
        shapes.append(xs.shape[1:])
        return search(xs, ys, sizes, min_leaf)

    monkeypatch.setattr(forest, "_split_sorted", record)
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


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    n_rows=hst.integers(2, 70),
    n_features=hst.integers(1, 3),
    n_heads=hst.integers(1, 3),
    n_trees=hst.integers(1, 4),
    trees_per_pass=hst.integers(1, 5),
    min_leaf=hst.integers(1, 4),
    max_depth=hst.integers(1, 6),
    x_kind=hst.sampled_from(["float", "dup", "adjacent"]),
)
@example(seed=5, n_rows=40, n_features=2, n_heads=3, n_trees=3, trees_per_pass=2, min_leaf=2, max_depth=5,
         x_kind="dup")  # passes of two trees: a pass boundary inside each head
@example(seed=6, n_rows=50, n_features=3, n_heads=2, n_trees=2, trees_per_pass=3, min_leaf=1, max_depth=6,
         x_kind="adjacent")  # one pass holds head 0 and the first tree of head 1
def test_heads_in_one_pass_match_each_heads_reference(
    seed, n_rows, n_features, n_heads, n_trees, trees_per_pass, min_leaf, max_depth, x_kind
):
    min_leaf = min(min_leaf, n_rows // 2)
    x, _ = make_data(seed, n_rows, n_features, x_kind, "noise", False)
    rng = np.random.default_rng(seed + 1)
    # one y per head: a trend with noise, few distinct values (ties in every
    # prefix sum), and a constant
    ys = np.stack([x[:, 0] * 3.0 + rng.normal(size=n_rows), rng.integers(0, 3, n_rows) * 1.5, np.full(n_rows, 2.5)])
    ys = ys[np.arange(n_heads) % 3].T
    cfg = ForestConfig(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=min_leaf)
    with mock.patch.object(forest, "PASS_SAMPLES", trees_per_pass * n_rows):
        got = fit_heads(x, ys, cfg, np.random.SeedSequence(seed).spawn(n_heads))
    want_seqs = np.random.SeedSequence(seed).spawn(n_heads)
    assert len(got) == n_heads
    for h, head in enumerate(got):
        assert forest_bytes(head) == forest_bytes(reference_fit(x, ys[:, h], cfg, want_seqs[h]))


def reference_tree_predict(tree, x):
    """One tree's leaf value per row, walking only the rows not yet at a leaf."""
    node = np.zeros(x.shape[0], dtype=np.int64)
    active = tree.feature[node] >= 0
    while np.any(active):
        idx = np.flatnonzero(active)
        cur = node[idx]
        go_left = x[idx, tree.feature[cur]] <= tree.threshold[cur]
        node[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
        active = tree.feature[node] >= 0
    return tree.value[node]


def reference_predict(model, x):
    """The per-tree loop: leaf values summed in tree order from 0.0, then averaged."""
    acc = np.zeros(x.shape[0], dtype=np.float64)
    with np.errstate(over="ignore"):
        for tree in model.trees:
            acc += reference_tree_predict(tree, x)
        return acc / len(model.trees)


def random_tree(rng, n_features, max_depth, huge):
    """A tree of random shape in preorder; leaves are huge where ``huge``."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(rng.choice([1.0, -1.0]) * 1.5e308) if huge else float(rng.normal()))
        if depth < max_depth and rng.random() < 0.7:
            feature[node] = int(rng.integers(0, n_features))
            threshold[node] = float(rng.choice([0.0, rng.normal()]))
            value[node] = 0.0
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    return Tree(np.array(feature), np.array(threshold), np.array(left), np.array(right), np.array(value))


def leaf_tree(value):
    return Tree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([value]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    n_rows=hst.integers(0, 40),
    n_features=hst.integers(1, 4),
    n_trees=hst.integers(1, 6),
    max_depth=hst.integers(0, 7),
    huge=hst.booleans(),
)
def test_one_walk_predict_matches_the_per_tree_loop(seed, n_rows, n_features, n_trees, max_depth, huge):
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, n_features, int(rng.integers(0, max_depth + 1)), huge) for _ in range(n_trees)]
    trees.insert(int(rng.integers(0, n_trees + 1)), leaf_tree(0.25))
    model = RandomForest(config=ForestConfig(n_trees=len(trees)), trees=trees)
    # rows on the thresholds as well as between them
    x = np.where(rng.random((n_rows, n_features)) < 0.3, 0.0, rng.normal(size=(n_rows, n_features)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.predict(x)
    assert got.tobytes() == reference_predict(model, x).tobytes()


def test_overflowing_leaf_sum_is_inf_without_a_warning():
    leaf = [leaf_tree(1.5e308)] * 2
    stump = Tree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]), np.array([1, -1, -1]), np.array([2, -1, -1]),
                 np.array([0.0, 1.5e308, -1.0]))
    model = RandomForest(config=ForestConfig(n_trees=3), trees=[*leaf, stump])
    x = np.array([[0.0], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.predict(x)
    assert got.tolist() == [np.inf, np.inf]
    assert got.tobytes() == reference_predict(model, x).tobytes()


# tracemalloc peak of this fit when the grower took one head at a time and
# held all of a head's trees at once; growing every head in one unbounded pass
# peaked at 88 MB
ONE_HEAD_AT_A_TIME_PEAK_MB = 14.0


def test_fitting_many_heads_and_trees_holds_its_memory_in_passes():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1800, 3))
    ys = np.stack([x[:, 0] * 3.0 + rng.normal(size=1800), rng.integers(-50, 50, 1800), rng.normal(size=1800)], axis=1)
    tracemalloc.start()
    try:
        fit_heads(x, ys, ForestConfig(n_trees=100), np.random.SeedSequence(7).spawn(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ONE_HEAD_AT_A_TIME_PEAK_MB * 1e6
