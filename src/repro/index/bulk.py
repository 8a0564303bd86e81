"""Array-based bulk loaders for grouping SoA objects into leaves.

The recursive pointer builds of :class:`repro.index.KdTree` /
:class:`repro.index.RTree` construct one Python node per subtree; the
query planner only ever needs the *leaf level* — a partition of the
object indices into spatially coherent groups plus one aggregate bbox
per group.  These builders produce exactly that, straight from the SoA
arrays with ``np.argsort`` / ``np.argpartition`` and no recursion:

* :func:`str_leaves` — Sort-Tile-Recursive packing of bbox centers (the
  classic R-tree bulk load);
* :func:`kd_leaves` — iterative median splits of a point/center array
  (the kd-tree layout, medians via ``np.argpartition``).

Both return a list of index arrays partitioning ``range(n)``;
:func:`group_bboxes` aggregates member bboxes per group.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

__all__ = ["str_leaves", "kd_leaves", "group_bboxes", "str_hierarchy"]


def str_leaves(bboxes, capacity: int = 16) -> List[np.ndarray]:
    """Partition bbox indices into STR tiles of at most ``capacity``."""
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    B = np.asarray(bboxes, dtype=np.float64)
    if B.ndim != 2 or B.shape[1] != 4:
        raise ValueError(f"bbox array of shape {B.shape}; expected (n, 4)")
    n = B.shape[0]
    if n == 0:
        return []
    cx = B[:, 0] + B[:, 2]
    cy = B[:, 1] + B[:, 3]
    order = np.argsort(cx, kind="stable")
    n_leaves = math.ceil(n / capacity)
    slices = math.ceil(math.sqrt(n_leaves))
    per_slice = math.ceil(n / slices)
    leaves: List[np.ndarray] = []
    for s in range(0, n, per_slice):
        tile = order[s : s + per_slice]
        tile = tile[np.argsort(cy[tile], kind="stable")]
        for t in range(0, tile.shape[0], capacity):
            leaves.append(tile[t : t + capacity])
    return leaves


def kd_leaves(points, leaf_size: int = 16) -> List[np.ndarray]:
    """Partition point indices by iterative kd median splits.

    Medians are found with ``np.argpartition`` (linear time), alternating
    the split axis by depth exactly as the recursive build would; the
    work list replaces the call stack.
    """
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    P = np.asarray(points, dtype=np.float64)
    if P.ndim != 2 or P.shape[1] != 2:
        raise ValueError(f"point array of shape {P.shape}; expected (n, 2)")
    n = P.shape[0]
    if n == 0:
        return []
    leaves: List[np.ndarray] = []
    work = [(np.arange(n, dtype=np.intp), 0)]
    while work:
        idxs, depth = work.pop()
        if idxs.shape[0] <= leaf_size:
            leaves.append(idxs)
            continue
        axis = depth % 2
        mid = idxs.shape[0] // 2
        part = np.argpartition(P[idxs, axis], mid)
        work.append((idxs[part[:mid]], depth + 1))
        work.append((idxs[part[mid:]], depth + 1))
    return leaves


def str_hierarchy(
    bboxes, leaf_size: int = 32, fanout: int = 8
) -> List[Tuple[List[np.ndarray], np.ndarray]]:
    """Bottom-up STR packing of ``bboxes`` into a full level hierarchy.

    Level 0 partitions the items into leaves of at most ``leaf_size``
    (exactly :func:`str_leaves`); each subsequent level STR-packs the
    level below by ``fanout`` until a single root group remains.  Every
    level is a ``(groups, group_bboxes)`` pair where ``groups`` indexes
    the level below (level 0 indexes the items themselves).  This is the
    array-form tree behind the dual-tree candidate generator
    (:mod:`repro.core.dual_tree`) — no node objects, no recursion.
    """
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    groups = str_leaves(bboxes, leaf_size)
    if not groups:
        return []
    gb = group_bboxes(bboxes, groups)
    levels = [(groups, gb)]
    while len(groups) > 1:
        groups = str_leaves(gb, fanout)
        gb = group_bboxes(gb, groups)
        levels.append((groups, gb))
    return levels


def group_bboxes(bboxes, groups: List[np.ndarray]) -> np.ndarray:
    """Aggregate member bboxes per group, shape ``(len(groups), 4)``.
    Groups must be non-empty."""
    B = np.asarray(bboxes, dtype=np.float64)
    if not groups:
        return np.empty((0, 4), dtype=np.float64)
    starts = np.zeros(len(groups), dtype=np.intp)
    np.cumsum([g.size for g in groups[:-1]], out=starts[1:])
    sub = B[np.concatenate(groups)]
    return np.column_stack(
        [
            np.minimum.reduceat(sub[:, 0], starts),
            np.minimum.reduceat(sub[:, 1], starts),
            np.maximum.reduceat(sub[:, 2], starts),
            np.maximum.reduceat(sub[:, 3], starts),
        ]
    )
