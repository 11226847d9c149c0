"""Bagged CART regression trees with variance-reduction splits.

Trees are stored as flat parallel arrays so predictions vectorize and the
whole forest serializes to plain JSON, nodes numbered in depth-first preorder.

A forest grows all of its trees together, breadth first.  At each depth the
open nodes of every tree are sorted by size and padded into ``[nodes, width]``
blocks of at most ``BLOCK_CELLS`` cells (+inf in x, 0 in y), and each block
takes, for all features at once, one stable argsort per row, prefix sums of y
and y^2 and the sse of every valid cut.  The parent sse, the gain test and
the leaf means are pairwise sums over each node's own samples.  The
floating-point evaluation order is therefore that of one node searched alone
(stable sort, sequential prefix sums), and every tree draws its bootstrap
sample from a spawned seed sequence, so a forest is bit-reproducible given
(seed, data).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 5

    def __post_init__(self):
        if self.n_trees < 1 or self.max_depth < 1 or self.min_samples_leaf < 1:
            raise ValueError("forest hyperparameters must be positive")


@dataclass
class Tree:
    """Flat node arrays; feature == -1 marks a leaf whose prediction is ``value``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        node = np.zeros(x.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.flatnonzero(active)
            cur = node[idx]
            feat = self.feature[cur]
            go_left = x[idx, feat] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active = self.feature[node] >= 0
        return self.value[node]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int64),
            threshold=np.asarray(d["threshold"], dtype=np.float64),
            left=np.asarray(d["left"], dtype=np.int64),
            right=np.asarray(d["right"], dtype=np.int64),
            value=np.asarray(d["value"], dtype=np.float64),
        )


# Upper bound on the cells (nodes x widest node) of one padded block of the
# split search.  A depth's open nodes are sorted by size and searched in blocks
# of at most this many cells (or one node, if it alone is wider), so a few
# large nodes never pad many small ones to their width.
BLOCK_CELLS = 4096


def _padded_columns(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` as ``[features, n + 1]`` and ``y`` as ``[n + 1]``; the extra sample
    ``n`` is the padding, +inf in every feature and 0 in y."""
    xt = np.empty((x.shape[1], x.shape[0] + 1), dtype=np.float64)
    xt[:, :-1] = x.T
    xt[:, -1] = np.inf
    return xt, np.append(y, 0.0)


def _split_block(xt, y_pad, idx, sizes, min_leaf: int):
    """Best split of every row of one padded block.

    ``idx`` is ``[k, w]`` sample indices, row ``r`` holding its node's
    ``sizes[r]`` samples in order and then the padding sample.  Every feature
    takes one stable sort per row; the +inf padding sorts last, so each row's
    prefix sums over its real samples are those of the node alone.  Returns
    (feature, threshold, sse) per row, feature -1 where no valid split exists.
    Ties keep the lowest feature index and then the lowest threshold.
    """
    k, w = idx.shape
    xv = xt[:, idx]  # [features, k, w]
    order = np.argsort(xv, axis=2, kind="stable")
    xs = np.take_along_axis(xv, order, axis=2)
    yo = y_pad[np.take_along_axis(idx[None], order, axis=2)]
    cy = np.cumsum(yo, axis=2)
    cy2 = np.cumsum(yo * yo, axis=2)
    rows = np.arange(k)
    total_y = cy[:, rows, sizes - 1][..., None]
    total_y2 = cy2[:, rows, sizes - 1][..., None]
    # cut ks puts samples [0, ks) of the sorted row on the left
    ks = np.arange(min_leaf, w - min_leaf + 1, dtype=np.int64)
    sl = cy[:, :, min_leaf - 1 : w - min_leaf]
    sl2 = cy2[:, :, min_leaf - 1 : w - min_leaf]
    sr = total_y - sl
    sr2 = total_y2 - sl2
    with np.errstate(divide="ignore", invalid="ignore"):  # cuts past a row's end
        sse = (sl2 - sl * sl / ks) + (sr2 - sr * sr / (sizes[:, None] - ks))
    valid = (xs[:, :, min_leaf : w - min_leaf + 1] > xs[:, :, min_leaf - 1 : w - min_leaf]) & (
        ks <= (sizes - min_leaf)[:, None]
    )
    sse = np.where(valid, sse, np.inf)
    cut = np.argmin(sse, axis=2)  # first minimum: lowest threshold
    best = np.take_along_axis(sse, cut[..., None], axis=2)[..., 0]
    best[np.isnan(best)] = np.inf  # a NaN never beats the running best
    feat = np.argmin(best, axis=0)  # first minimum: lowest feature
    best_sse = best[feat, rows]
    k_cut = cut[feat, rows] + min_leaf
    below, above = xs[feat, rows, k_cut - 1], xs[feat, rows, k_cut]
    # the midpoint of neighbouring doubles can round onto the upper one,
    # which would send every sample left; the lower value splits them as cut
    threshold = (below + above) / 2.0
    threshold = np.where(threshold == above, below, threshold)
    found = best_sse < np.inf
    return np.where(found, feat, -1), np.where(found, threshold, 0.0), best_sse


def best_split(x, y, idx, min_leaf: int):
    """Best variance-reducing axis-aligned split over samples ``idx``.

    Returns (feature, threshold, sse) with sse the summed child squared error,
    or (-1, 0.0, inf) when no valid split exists.  Candidate thresholds are
    midpoints between consecutive distinct sorted values, or the lower value
    where the midpoint rounds onto the upper one; children must keep at least
    ``min_leaf`` samples.  Ties keep the lowest feature index and then the
    lowest threshold.  This is one node of the level-wise search that fits
    the forests.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    m = idx.shape[0]
    if m < 2 * min_leaf:
        return -1, 0.0, np.inf
    xt, y_pad = _padded_columns(x, y)
    feat, thr, sse = _split_block(xt, y_pad, idx[None], np.array([m]), min_leaf)
    if feat[0] < 0:
        return -1, 0.0, np.inf
    return int(feat[0]), float(thr[0]), float(sse[0])


def _grow_forest(x: np.ndarray, y: np.ndarray, boots: list[np.ndarray], cfg: ForestConfig) -> list[Tree]:
    """Grow one tree per bootstrap, breadth first, every tree at once.

    Each depth holds the open nodes of all trees as one flat list of sample
    indices, node after node, each in its bootstrap order.  The split search
    takes a depth in padded blocks; the parent sse and the leaf means come
    from each node's own pairwise sums, as ``np.sum`` and ``np.mean`` take
    them (a padded row would regroup them).  The nodes are numbered level by
    level while growing and renumbered into depth-first preorder at the end.
    """
    min_leaf = cfg.min_samples_leaf
    xt, y_pad = _padded_columns(x, y)
    n_trees = len(boots)
    members = np.concatenate(boots)
    sizes = np.array([b.shape[0] for b in boots], dtype=np.int64)
    tree_of = np.arange(n_trees, dtype=np.int64)
    levels = []  # per depth: (tree, feature, threshold, value, first child id or -1)
    next_id = n_trees
    for depth in range(cfg.max_depth + 1):
        n_nodes = sizes.shape[0]
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        open_nodes = np.flatnonzero(sizes >= 2 * min_leaf) if depth < cfg.max_depth else np.empty(0, np.int64)
        feature, threshold, sse = _search_depth(xt, y_pad, members, starts, sizes, open_nodes, min_leaf)
        # parent sse, gain test and leaf mean, each over one node's samples
        # in its own order: np.add.reduce is the pairwise sum that np.sum and
        # np.mean run, and np.mean divides that sum by the count
        begin = starts.tolist()
        end = (starts + sizes).tolist()
        ys = y[members]
        total = np.array([np.add.reduce(ys[a:b]) for a, b in zip(begin, end)])
        cand = np.flatnonzero(feature >= 0)
        ys2 = ys * ys
        total2 = np.array([np.add.reduce(ys2[begin[i] : end[i]]) for i in cand.tolist()])
        parent_sse = total2 - total[cand] * total[cand] / sizes[cand]
        weak = ~(parent_sse - sse[cand] > 1e-12 * np.maximum(1.0, np.abs(parent_sse)))
        feature[cand[weak]] = -1
        threshold[cand[weak]] = 0.0
        value = np.where(feature < 0, total / sizes, 0.0)
        split = feature >= 0
        n_split = int(np.count_nonzero(split))
        first_child = np.full(n_nodes, -1, dtype=np.int64)
        first_child[split] = next_id + 2 * np.arange(n_split)
        levels.append((tree_of, feature, threshold, value, first_child))
        if n_split == 0:
            break
        next_id += 2 * n_split
        # children of the split nodes: left then right, samples in parent order
        node_of = np.repeat(np.arange(n_nodes), sizes)
        keep = split[node_of]
        members, node_of = members[keep], node_of[keep]
        go_right = ~(xt[feature[node_of], members] <= threshold[node_of])
        child = 2 * (np.cumsum(split) - 1)[node_of] + go_right
        members = members[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * n_split)
        tree_of = np.repeat(tree_of[split], 2)
    return _preorder_trees(levels, n_trees)


def _search_depth(xt, y_pad, members, starts, sizes, open_nodes, min_leaf: int):
    """Best split of each open node of one depth, searched in padded blocks.

    Node ``i`` holds ``members[starts[i] : starts[i] + sizes[i]]``.  Nodes not
    in ``open_nodes`` get feature -1 and sse inf.
    """
    feature = np.full(sizes.shape[0], -1, dtype=np.int64)
    threshold = np.zeros(sizes.shape[0], dtype=np.float64)
    sse = np.full(sizes.shape[0], np.inf)
    ordered = open_nodes[np.argsort(sizes[open_nodes], kind="stable")]
    ordered_sizes = sizes[ordered].tolist()
    # one entry past the members: the padding sample, last column of xt
    members_ext = np.append(members, xt.shape[1] - 1)
    lo = 0
    while lo < len(ordered):
        hi = lo + 1
        while hi < len(ordered) and (hi + 1 - lo) * ordered_sizes[hi] <= BLOCK_CELLS:
            hi += 1
        block = ordered[lo:hi]
        cols = np.arange(ordered_sizes[hi - 1])
        pos = np.where(cols < sizes[block][:, None], starts[block][:, None] + cols, members.shape[0])
        feature[block], threshold[block], sse[block] = _split_block(
            xt, y_pad, members_ext[pos], sizes[block], min_leaf
        )
        lo = hi
    return feature, threshold, sse


def _preorder_trees(levels, n_trees: int) -> list[Tree]:
    """Split level-numbered nodes into trees numbered in depth-first preorder.

    ``levels`` holds one (tree, feature, threshold, value, first child)
    tuple of arrays per depth; ids run level after level, and a split node's
    children are ``first_child`` (left) and ``first_child + 1`` (right).
    """
    tree_of, feature, threshold, value, first_child = (np.concatenate(a) for a in zip(*levels))
    bounds = np.cumsum([0] + [lv[0].shape[0] for lv in levels])
    inner = [lo + np.flatnonzero(lv[4] >= 0) for lo, lv in zip(bounds, levels)]
    size = np.ones(tree_of.shape[0], dtype=np.int64)
    for nodes in reversed(inner):
        size[nodes] += size[first_child[nodes]] + size[first_child[nodes] + 1]
    pre = np.zeros(tree_of.shape[0], dtype=np.int64)
    for nodes in inner:
        left = first_child[nodes]
        pre[left] = pre[nodes] + 1
        pre[left + 1] = pre[nodes] + 1 + size[left]
    nodes = np.concatenate(inner)
    left = np.full(tree_of.shape[0], -1, dtype=np.int64)
    right = np.full(tree_of.shape[0], -1, dtype=np.int64)
    left[nodes] = pre[first_child[nodes]]
    right[nodes] = pre[first_child[nodes] + 1]
    columns = {"feature": feature, "threshold": threshold, "left": left, "right": right, "value": value}
    tree_start = np.concatenate(([0], np.cumsum(size[:n_trees])))
    order = np.argsort(tree_start[tree_of] + pre)
    return [
        Tree(**{name: col[order[tree_start[t] : tree_start[t + 1]]] for name, col in columns.items()})
        for t in range(n_trees)
    ]


@dataclass
class RandomForest:
    config: ForestConfig
    trees: list[Tree] = field(default_factory=list)

    @classmethod
    def fit(
        cls, x: np.ndarray, y: np.ndarray, cfg: ForestConfig, seed_seq: np.random.SeedSequence
    ) -> "RandomForest":
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        n = x.shape[0]
        if n < 2 * cfg.min_samples_leaf:
            raise ValueError(
                f"need at least {2 * cfg.min_samples_leaf} samples, got {n}"
            )
        boots = [np.random.default_rng(child).integers(0, n, size=n) for child in seed_seq.spawn(cfg.n_trees)]
        return cls(config=cfg, trees=_grow_forest(x, y, boots, cfg))

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        acc = np.zeros(x.shape[0], dtype=np.float64)
        for tree in self.trees:
            acc += tree.predict(x)
        return acc / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.config.n_trees,
            "max_depth": self.config.max_depth,
            "min_samples_leaf": self.config.min_samples_leaf,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RandomForest":
        cfg = ForestConfig(
            n_trees=d["n_trees"],
            max_depth=d["max_depth"],
            min_samples_leaf=d["min_samples_leaf"],
        )
        return cls(config=cfg, trees=[Tree.from_dict(t) for t in d["trees"]])
