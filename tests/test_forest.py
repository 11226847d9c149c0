"""Split search of the regression trees against a brute-force oracle."""

import numpy as np
import pytest

from ptzkit.forest import best_split


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
