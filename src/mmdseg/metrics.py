"""Success metrics comparing estimated and true changepoint sets."""

from __future__ import annotations

import numpy as np

from .rng import check_integer
from .segment import Segmentation


def _boundaries(seg) -> np.ndarray:
    bs = seg.boundaries if isinstance(seg, Segmentation) else seg
    return np.sort(np.array([check_integer("boundary", b) for b in bs], dtype=np.int64))


def match(est, truth) -> bool:
    """Same count and each sorted estimate within one index of its true point."""
    e, t = _boundaries(est), _boundaries(truth)
    if e.size != t.size:
        return False
    if e.size == 0:
        return True
    return bool(np.max(np.abs(e - t)) <= 1)


def superset_match(est, truth) -> bool:
    """Strictly more estimates, and every true point has an estimate within one."""
    e, t = _boundaries(est), _boundaries(truth)
    if e.size <= t.size or t.size == 0:
        return False
    return bool(all(np.min(np.abs(e - ti)) <= 1 for ti in t))


def subset_match(est, truth) -> bool:
    """Strictly fewer estimates, each within one of some true point (vacuous if none)."""
    e, t = _boundaries(est), _boundaries(truth)
    if e.size >= t.size:
        return False
    return bool(all(np.min(np.abs(t - ei)) <= 1 for ei in e))


def hausdorff(a, b) -> float:
    """Hausdorff distance between two non-empty sets of breakfractions."""
    av = np.asarray(list(a), dtype=np.float64)
    bv = np.asarray(list(b), dtype=np.float64)
    if av.size == 0 or bv.size == 0:
        raise ValueError("Hausdorff distance is undefined for empty sets")
    gaps = np.abs(av[:, None] - bv[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))
