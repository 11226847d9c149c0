"""Bagged CART regression trees with variance-reduction splits.

Trees are stored as flat parallel arrays so predictions vectorize and the
whole forest serializes to plain JSON, nodes numbered in depth-first preorder.
``from_dict`` is the one reader of that JSON: it accepts a tree only when
every walk from the root ends at a leaf, in bounds.

``fit_heads`` grows the trees of every head of a fit together, breadth
first, in passes of at most ``PASS_SAMPLES`` bootstrap samples;
``RandomForest.fit`` is its one-head call.  Each bootstrap is stably sorted
once per feature at the root, and every split carries the sorted lists down
by a stable partition into its children (the presorted attribute lists of
SLIQ), so each node holds, per feature, its own samples stably sorted, ties
in bootstrap order, with no sort after the root.  At each depth the open
nodes of every tree are sorted by size and padded into ``[nodes, width]``
blocks of at most ``BLOCK_CELLS`` cells (+inf in x, 0 in y), and each block
takes, for all features at once, prefix sums of y and y^2 and the sse of
every valid cut.  The parent sse, the gain test and the leaf means take
each node's sums over its own samples, in bootstrap order, from one
``np.add.reduceat`` per depth: the first sample plus numpy's pairwise sum of
the rest, as a reduceat of the node alone takes them.  On the labels the
program fits, integers in the codec range, those sums are exact in any
order.  The floating-point evaluation order is therefore that of one node
searched alone (stable sort, sequential prefix sums), and every tree draws
its bootstrap sample from a spawned seed sequence, so a forest is
bit-reproducible given (seed, data).

``RandomForest.predict`` walks every tree over every row in one walk, over
the trees' node arrays laid end to end, and sums the leaf values in tree
order from 0.0, as a loop over the trees would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ptzkit import jsonl


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

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int, what: str) -> "Tree":
        """A tree as ``to_dict`` writes it, over rows of ``n_features``
        features.  ``ValueError``, starting with ``what``, unless the five
        arrays are non-empty and of one length, thresholds and values finite,
        indices integers, features in [-1, n_features), each inner node's
        children later nodes of the tree (so every walk ends) and each leaf's
        children -1."""
        arrays = [d[name] for name in ("feature", "threshold", "left", "right", "value")]
        if not all(type(a) is list and a for a in arrays) or len(set(map(len, arrays))) != 1:
            raise ValueError(f"{what} arrays must be non-empty lists of one length")
        n = len(arrays[0])
        numbers = jsonl.finite(d["threshold"] + d["value"], f"{what} thresholds and values")
        feature, left, right = (_indices(d[name], f"{what} {name}") for name in ("feature", "left", "right"))
        if np.any((feature < -1) | (feature >= n_features)):
            raise ValueError(f"{what} features must lie in [-1, {n_features})")
        node, inner = np.arange(n), feature >= 0
        if np.any(inner & ((left <= node) | (right <= node) | (left >= n) | (right >= n))):
            raise ValueError(f"{what} children must be later nodes of the tree")
        if np.any(~inner & ((left != -1) | (right != -1))):
            raise ValueError(f"{what} leaf children must be -1")
        return cls(feature, np.array(numbers[:n]), left, right, np.array(numbers[n:]))


def _indices(values: list, what: str) -> np.ndarray:
    out, check = jsonl.integer_rows(values, what)
    if check is not None:
        raise ValueError(check[1](int(np.argmax(check[0]))))
    return out


# Upper bound on the cells (nodes x widest node) of one padded block of the
# split search.  A depth's open nodes are sorted by size and searched in blocks
# of at most this many cells (or one node, if it alone is wider), so a few
# large nodes never pad many small ones to their width.
BLOCK_CELLS = 4096

# Upper bound on the bootstrap samples of one pass of the grower (or one tree,
# if it alone holds more).  A fit grows its trees in passes of consecutive
# trees, so a fit of many trees never holds every tree's sorted lists at once;
# the trees are independent, so the passes cannot change a tree.
PASS_SAMPLES = 1 << 16


def _split_sorted(xs, ys, sizes, min_leaf: int):
    """Best split of every row of one padded block of presorted columns.

    ``xs`` and ``ys`` are ``[features, k, w]``: row ``r`` of feature ``f``
    holds the x and y of its node's ``sizes[r]`` samples, stably sorted by
    feature ``f``, and then padding of +inf in x and 0 in y.  So each row's
    prefix sums over its real samples are those of the node alone.  Returns
    (feature, threshold, sse) per row, feature -1 where no valid split exists.
    Ties keep the lowest feature index and then the lowest threshold.
    """
    _, k, w = xs.shape
    cy = np.cumsum(ys, axis=2)
    cy2 = np.cumsum(ys * ys, axis=2)
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
    rows = idx[np.argsort(x[idx].T, axis=1, kind="stable")]  # [features, m]
    xs = x[rows, np.arange(x.shape[1])[:, None]]
    feat, thr, sse = _split_sorted(xs[:, None], y[rows][:, None], np.array([m]), min_leaf)
    if feat[0] < 0:
        return -1, 0.0, np.inf
    return int(feat[0]), float(thr[0]), float(sse[0])


def fit_heads(
    x: np.ndarray, ys: np.ndarray, cfg: ForestConfig, seed_seqs: list[np.random.SeedSequence]
) -> list[RandomForest]:
    """One forest per column of ``ys``, its trees drawn from ``seed_seqs``.

    Head ``h`` fits ``ys[:, h]`` on ``x``, and tree ``t`` of it draws its
    bootstrap from child ``t`` of ``seed_seqs[h].spawn(cfg.n_trees)``.  The
    trees of every head grow together, in passes of at most ``PASS_SAMPLES``
    bootstrap samples: sample ``i`` of head ``h`` is sample ``h * n + i`` of
    one set of columns, so a pass needs no per-head path.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    ys = np.asarray(ys, dtype=np.float64)
    if n < 2 * cfg.min_samples_leaf:
        raise ValueError(f"need at least {2 * cfg.min_samples_leaf} samples, got {n}")
    n_heads = ys.shape[1]
    # the extra last sample is the padding, +inf in every feature and 0 in y
    xt = np.full((x.shape[1], n_heads * n + 1), np.inf)
    xt[:, :-1] = np.tile(x.T, n_heads)
    y = np.append(ys.T, 0.0)
    draws = [(h * n, child) for h, seq in enumerate(seed_seqs) for child in seq.spawn(cfg.n_trees)]
    per_pass = max(1, PASS_SAMPLES // n)
    trees = []
    for lo in range(0, len(draws), per_pass):
        rngs = [(first, np.random.default_rng(child)) for first, child in draws[lo : lo + per_pass]]
        boots = np.stack([first + rng.integers(0, n, size=n) for first, rng in rngs])
        trees += _grow_pass(xt, y, boots, cfg)
    return [RandomForest(config=cfg, trees=trees[lo : lo + cfg.n_trees]) for lo in range(0, len(trees), cfg.n_trees)]


def _grow_pass(xt, y, boots, cfg: ForestConfig) -> list[Tree]:
    """Grow one tree per row of ``boots``, breadth first, every tree at once.

    ``xt`` is ``[features, samples]`` and ``y`` ``[samples]``, the last sample
    the padding.  Each depth holds the open nodes of all trees in the rows of
    ``lists``, node after node, and then the padding sample: row 0 holds each
    node's samples in bootstrap order, row ``1 + f`` the same samples stably
    sorted by feature ``f``.  The rows are sorted once, at the root, and every
    split partitions each row stably into its children; a node's samples are
    a subsequence of its bootstrap, so row ``1 + f`` is what a stable sort of
    row 0 would give.  The split search takes a depth in padded blocks; the
    parent sse and the leaf means come from each node's own sums over row 0,
    all nodes' in one ``np.add.reduceat`` call.  The nodes are numbered level
    by level while growing and renumbered into depth-first preorder at the
    end.
    """
    min_leaf = cfg.min_samples_leaf
    n_trees, n = boots.shape
    lists = np.empty((xt.shape[0] + 1, n_trees * n + 1), dtype=np.int64)
    lists[0, :-1] = boots.ravel()
    for f in range(xt.shape[0]):
        order = np.argsort(xt[f, boots], axis=1, kind="stable")
        lists[1 + f, :-1] = np.take_along_axis(boots, order, axis=1).ravel()
    lists[:, -1] = xt.shape[1] - 1
    sizes = np.full(n_trees, n, dtype=np.int64)
    tree_of = np.arange(n_trees, dtype=np.int64)
    levels = []  # per depth: (tree, feature, threshold, value, first child id or -1)
    next_id = n_trees
    for depth in range(cfg.max_depth + 1):
        n_nodes = sizes.shape[0]
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        open_nodes = np.flatnonzero(sizes >= 2 * min_leaf) if depth < cfg.max_depth else np.empty(0, np.int64)
        feature, threshold, sse = _search_depth(xt, y, lists[1:], starts, sizes, open_nodes, min_leaf)
        # parent sse, gain test and leaf mean, each over one node's samples
        # in bootstrap order; every node holds at least min_leaf >= 1 samples,
        # so starts increase strictly and no segment is empty
        ys = y[lists[0, :-1]]
        cand = np.flatnonzero(feature >= 0)
        total, total2 = np.add.reduceat(np.stack((ys, ys * ys)), starts, axis=1)
        parent_sse = total2[cand] - total[cand] * total[cand] / sizes[cand]
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
        lists, sizes = _partition(xt, lists, sizes, feature, threshold)
        tree_of = np.repeat(tree_of[split], 2)
    return _preorder_trees(levels, n_trees)


def _partition(xt, lists, sizes, feature, threshold):
    """The samples of the split nodes' children, in the layout of ``lists``.

    Node ``i`` of ``lists`` has ``sizes[i]`` samples in every row, node after
    node, then the padding sample; it is split where ``feature[i] >= 0``.
    Each split node's samples at or below its threshold and then the rest
    take its place, each in the order of their row, and the other nodes'
    samples are dropped.  Returns the new rows and the children's sizes,
    left then right per split node.  O(samples): one slot index, the same
    for every row, picks from the row's left samples and then its right
    ones.
    """
    split = feature >= 0
    node_of = np.repeat(np.arange(sizes.shape[0]), sizes)
    keep = split[node_of]
    cell = np.where(split, feature, 0)[node_of] * xt.shape[1]
    limit = threshold[node_of]
    below = [xt.ravel()[cell + row[:-1]] <= limit for row in lists]
    n_left = np.bincount(node_of[below[0] & keep], minlength=sizes.shape[0])[split]
    n_right = sizes[split] - n_left
    child_sizes = np.stack([n_left, n_right], axis=1).ravel()
    # where each child starts among a row's left-then-right samples, less
    # where it starts in the new row
    first = np.stack([np.cumsum(n_left) - n_left, n_left.sum() + np.cumsum(n_right) - n_right], axis=1)
    slot = np.repeat(first.ravel() - (np.cumsum(child_sizes) - child_sizes), child_sizes)
    slot += np.arange(slot.shape[0])
    out = np.empty((lists.shape[0], slot.shape[0] + 1), dtype=np.int64)
    for row, left, new in zip(lists, below, out):
        marked = np.concatenate((np.flatnonzero(left & keep), np.flatnonzero(keep & ~left)))
        np.take(row, marked[slot], out=new[:-1])
    out[:, -1] = lists[:, -1]
    return out, child_sizes


def _search_depth(xt, y, sorted_lists, starts, sizes, open_nodes, min_leaf: int):
    """Best split of each open node of one depth, searched in padded blocks.

    Row ``f`` of ``sorted_lists`` holds node ``i``'s samples sorted by feature
    ``f`` in columns ``starts[i] : starts[i] + sizes[i]``, and the padding
    sample last.  Nodes not in ``open_nodes`` get feature -1 and sse inf.
    """
    feature = np.full(sizes.shape[0], -1, dtype=np.int64)
    threshold = np.zeros(sizes.shape[0], dtype=np.float64)
    sse = np.full(sizes.shape[0], np.inf)
    ordered = open_nodes[np.argsort(sizes[open_nodes], kind="stable")]
    ordered_sizes = sizes[ordered].tolist()
    feature_start = (np.arange(xt.shape[0]) * xt.shape[1])[:, None, None]
    lo = 0
    while lo < len(ordered):
        hi = lo + 1
        while hi < len(ordered) and (hi + 1 - lo) * ordered_sizes[hi] <= BLOCK_CELLS:
            hi += 1
        block = ordered[lo:hi]
        cols = np.arange(ordered_sizes[hi - 1])
        idx = sorted_lists[:, np.where(cols < sizes[block][:, None], starts[block][:, None] + cols, -1)]
        feature[block], threshold[block], sse[block] = _split_sorted(
            xt.ravel()[feature_start + idx], y[idx], sizes[block], min_leaf
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
        """``fit_heads`` of the one head ``y``."""
        return fit_heads(x, np.asarray(y)[:, None], cfg, [seed_seq])[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf values, summed in tree order.

        Every tree walks every row together, one depth per step, over the
        trees' node arrays laid end to end; a leaf is its own child on both
        sides, so a walk that reaches one stays there.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        n_rows, n_features = x.shape
        trees = self.trees
        offset = np.cumsum([0] + [t.feature.shape[0] for t in trees[:-1]])
        feature = np.concatenate([t.feature for t in trees])
        threshold = np.concatenate([t.threshold for t in trees])
        leaf = feature < 0
        node_id = np.arange(feature.shape[0])
        # child[2 * i + 1] is node i's left child and child[2 * i] its right one
        child = np.empty((feature.shape[0], 2), dtype=np.int64)
        child[:, 0] = np.where(leaf, node_id, np.concatenate([t.right + o for t, o in zip(trees, offset)]))
        child[:, 1] = np.where(leaf, node_id, np.concatenate([t.left + o for t, o in zip(trees, offset)]))
        child = child.ravel()
        column = np.where(leaf, 0, feature)  # a leaf reads any column and stays
        node = np.repeat(offset, n_rows)  # tree after tree, row after row
        row_start = np.tile(np.arange(n_rows) * n_features, len(trees))
        while not np.all(leaf[node]):
            node = child[2 * node + (x.ravel()[row_start + column[node]] <= threshold[node])]
        acc = np.zeros(n_rows, dtype=np.float64)
        # finite leaves can still overflow in the sum; the inf that results
        # is rejected where the prediction is rounded
        with np.errstate(over="ignore"):
            for leaves in np.concatenate([t.value for t in trees])[node].reshape(len(trees), n_rows):
                acc += leaves
            return acc / len(trees)

    def to_dict(self) -> dict:
        return {
            "n_trees": self.config.n_trees,
            "max_depth": self.config.max_depth,
            "min_samples_leaf": self.config.min_samples_leaf,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int, head: str) -> "RandomForest":
        """A forest as ``to_dict`` writes it, each tree read by ``Tree.from_dict``;
        ``n_trees`` must count its trees, at least one, and ``max_depth`` and
        ``min_samples_leaf`` are integers >= 1.  Errors name ``head`` and the key."""
        n_trees, trees = jsonl.integer(d["n_trees"], f"{head} n_trees"), d["trees"]
        if type(trees) is not list or n_trees != len(trees) or n_trees < 1:
            raise ValueError(f"{head} n_trees must count its trees, at least one")
        limits = {key: jsonl.integer(d[key], f"{head} {key}") for key in ("max_depth", "min_samples_leaf")}
        for key, value in limits.items():
            if value < 1:
                raise ValueError(f"{head} {key} must be >= 1, got {value}")
        cfg = ForestConfig(n_trees=n_trees, **limits)
        return cls(config=cfg, trees=[Tree.from_dict(t, n_features, f"{head} tree {i}") for i, t in enumerate(trees)])
