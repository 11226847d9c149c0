"""Bagged CART regression trees with variance-reduction splits.

Trees are stored as flat parallel arrays so predictions vectorize and the
whole forest serializes to plain JSON.  The split search fixes its
floating-point evaluation order (stable argsort, sequential prefix sums), and
every tree draws its bootstrap sample from a spawned seed sequence, so a
forest is bit-reproducible given (seed, data).
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


def best_split(x, y, idx, min_leaf: int):
    """Best variance-reducing axis-aligned split over samples ``idx``.

    Returns (feature, threshold, sse) with sse the summed child squared error,
    or (-1, 0.0, inf) when no valid split exists.  Candidate thresholds are
    midpoints between consecutive distinct sorted values; children must keep
    at least ``min_leaf`` samples.  Ties keep the lowest feature index and
    then the lowest threshold.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    m = idx.shape[0]
    best_f = -1
    best_thr = 0.0
    best_sse = np.inf
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
    return best_f, best_thr, best_sse


def _build_tree(x: np.ndarray, y: np.ndarray, idx: np.ndarray, cfg: ForestConfig) -> Tree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def add_leaf(sub: np.ndarray) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(np.mean(y[sub])))
        return node

    def grow(sub: np.ndarray, depth: int) -> int:
        m = sub.shape[0]
        if depth >= cfg.max_depth or m < 2 * cfg.min_samples_leaf:
            return add_leaf(sub)
        ys = y[sub]
        total = float(np.sum(ys))
        total2 = float(np.sum(ys * ys))
        parent_sse = total2 - total * total / m
        feat, thr, sse = best_split(x, y, sub, cfg.min_samples_leaf)
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
        trees = []
        for child in seed_seq.spawn(cfg.n_trees):
            rng = np.random.default_rng(child)
            boot = rng.integers(0, n, size=n)
            trees.append(_build_tree(x, y, boot, cfg))
        return cls(config=cfg, trees=trees)

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
