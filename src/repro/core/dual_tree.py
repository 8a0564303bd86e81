"""Dual-tree candidate generation: an output-sensitive prune pass.

The flat pruned tier evaluates the envelope bracket of **every**
(query, object) pair — O(m·n) bound work even when almost everything is
pruned.  This module replaces that dense pass with a per-row descent of
one cached object-envelope STR tree (:class:`EnvelopeObjectTree`,
packed straight from the SoA arrays by :func:`repro.index.bulk.
str_hierarchy` — no node objects, no recursion), processed one level at
a time so every step is a handful of vectorized kernels over the
surviving frontier.  One pass serves every batch size, from a single
point query to a large batch.

The frontier holds ``(query row, object node)`` pairs, grouped by row in
ascending order.  Per level the descent

1. brackets every pair with ``node_lb <= lb_i(q)`` and
   ``node_ub >= ub_i(q)`` for every member ``i`` of the node (point–rect
   distances to the node's support bbox, to the bbox of its
   enclosing-disk centers widened by the largest radius, and — for the
   expected criterion — to the bbox of its first moments widened by the
   largest mean reach);
2. keeps a running best upper bound per row: scanning the row's pairs by
   ascending ``node_ub`` until ``k`` members are covered bounds the
   row's ``k``-th smallest ``ub_j(q)`` (a segment minimum when
   ``k == 1``), and the bound only tightens from level to level;
3. drops pairs with ``node_lb > best`` and expands the rest into their
   children.

At the leaf level each row is refined **nearest leaf first**: its leaves
are taken in ascending ``node_ub`` order until they hold ``k`` members,
those members get the flat tier's exact bounds
(:meth:`~repro.uncertain.ModelColumns.member_pair_bounds`), and the
``k``-th smallest member ``ub`` among them, ``cutoff0``, drops every
other leaf with ``node_lb > cutoff0``; only the remaining leaves are
refined.  A member of a dropped leaf has ``ub >= lb >= node_lb >
cutoff0 >=`` the row's true ``k``-th smallest ``ub``, so every member
among the ``k`` smallest upper bounds is refined, the final cutoff is
the flat tier's float bit for bit, and every dropped member fails the
flat test too.  The emitted survivor sets are therefore **exactly the
flat tier's survivor sets** — a CSR layout feeding the existing
evaluators unchanged.

Node brackets use ``np.hypot`` on aggregates while member bounds replay
the flat tier's float sequence, so node-level tests carry a relative
margin (:data:`_NODE_MARGIN`) on top of the cutoff slack: the few-ulp
difference between the two can never drop a member the flat test keeps.

Rows are independent, so the batch runs as contiguous row chunks sized
to the ``tile_bytes`` budget (a row's frontier never exceeds the leaf
count), which the ``thread`` backend fans out through
:func:`repro.core.parallel.map_tiles`; within a chunk the leaf
refinement runs in contiguous row groups sized to the same budget from
the actual leaf counts.  No survivor set depends on either split, so
every backend and budget returns identical CSR bytes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import EXECUTION
from ..errors import QueryError
from ..geometry import kernels
from ..index.bulk import str_hierarchy
from .. import resilience as _resilience
from . import parallel as _parallel

__all__ = [
    "DualTreeCandidates",
    "EnvelopeObjectTree",
    "dual_tree_candidates",
]

#: Mirrors the planner's cutoff slack so a bound a few ulps above its
#: true value can never discard a genuine candidate.
_CUTOFF_SLACK = 1.0 + 1e-12

#: Extra relative margin on node-level prune tests (see module doc).
_NODE_MARGIN = 1.0 + 1e-12

#: Telemetry counters of one pass, summed over rows (see
#: :class:`DualTreeCandidates`).
_COUNTERS = (
    "node_pairs_visited",
    "node_pairs_pruned",
    "point_node_pairs",
    "refined_pairs",
    "survivors",
)


def _padded(groups: List[np.ndarray]) -> np.ndarray:
    """Index groups as one ``(len(groups), largest group)`` table, each
    row padded with ``-1``."""
    lens = np.asarray([g.size for g in groups], dtype=np.intp)
    table = np.full((len(groups), int(lens.max())), -1, dtype=np.intp)
    table[np.arange(table.shape[1]) < lens[:, None]] = np.concatenate(groups)
    return table


def _expand(table: np.ndarray, idx: np.ndarray, row: np.ndarray):
    """Entries of rows ``idx`` of a ``-1``-padded table, with the query
    row each came from: ``(entries, rows)``, grouped as ``row`` is."""
    sub = table[idx]
    valid = sub >= 0
    return sub[valid], np.repeat(row, sub.shape[1])[valid.ravel()]


class EnvelopeObjectTree:
    """Array-form STR hierarchy over the object envelopes of a
    :class:`~repro.uncertain.ModelColumns` store.

    Levels are stored **root-first**: level ``0`` is the root,
    ``depth - 1`` the leaves.  ``children[l]`` lists the level-``l + 1``
    children of every level-``l`` node and ``members`` the object
    indices of every leaf, both as ``-1``-padded tables;
    ``sizes[l]`` is the member count under every node.

    Every node aggregates three rectangles: the union of member support
    bboxes, the bbox of member enclosing-disk centers, and the bbox of
    member first moments.  ``brackets[l]`` has shape ``(6, 3, nodes)``:
    rows ``lo_x, lo_y, hi_x, hi_y`` of the three rectangles, then the
    ``widen_lb`` / ``widen_ub`` terms that turn point–rect distances to
    them into member brackets — ``0`` for the support bbox, the largest
    radius for the centers, and for the means ``0`` / the largest mean
    reach, or ``inf`` when some member has no known mean (which disables
    that term).  The tree depends only on the column store — one build
    serves every criterion, ``k``, and query batch, which is why the
    :class:`repro.Engine` registry caches it per generation.
    """

    def __init__(self, columns, leaf_size: int = 32, fanout: int = 8):
        levels = str_hierarchy(columns.bboxes, leaf_size, fanout)
        if not levels:
            raise QueryError("cannot pack a tree over zero items")
        self.n = int(columns.n)
        self.leaf_size = int(leaf_size)
        self.fanout = int(fanout)
        depth = self.depth = len(levels)
        self.children = [_padded(groups) for groups, _ in levels[:0:-1]]
        members = self.members = _padded(levels[0][0])
        # Per-level aggregates, leaves first, then reduced up the tree:
        # member count, min/max of (centers, means), max radius, max
        # reach, all-mean.
        sizes = np.count_nonzero(members >= 0, axis=1)
        order = members[members >= 0]
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        pts = np.stack([columns.centers[order], columns.means[order]], axis=1)
        agg = [
            sizes,
            np.minimum.reduceat(pts, starts),
            np.maximum.reduceat(pts, starts),
            np.maximum.reduceat(columns.radii[order], starts),
            np.maximum.reduceat(columns.mean_reach[order], starts),
            np.minimum.reduceat(columns.has_mean[order], starts),
        ]
        ufuncs = (np.add, np.minimum, np.maximum, np.maximum, np.maximum,
                  np.minimum)
        per_level = [agg]
        for table in self.children[::-1]:
            idx = table[table >= 0]
            ptr = np.concatenate(
                ([0], np.cumsum(np.count_nonzero(table >= 0, axis=1))[:-1])
            )
            per_level.append(
                [f.reduceat(a[idx], ptr) for f, a in zip(ufuncs, per_level[-1])]
            )
        per_level.reverse()
        self.sizes: List[np.ndarray] = []
        self.brackets: List[np.ndarray] = []
        for l, (size, plo, phi, radius, reach, all_mean) in enumerate(per_level):
            bb = levels[depth - 1 - l][1]
            zero = np.zeros_like(radius)
            lo = np.stack([bb[:, :2], plo[:, 0], plo[:, 1]]).transpose(2, 0, 1)
            hi = np.stack([bb[:, 2:], phi[:, 0], phi[:, 1]]).transpose(2, 0, 1)
            widen = np.array(
                [
                    [zero, radius, np.where(all_mean, 0.0, np.inf)],
                    [zero, radius, np.where(all_mean, reach, np.inf)],
                ]
            )
            self.sizes.append(size)
            self.brackets.append(np.concatenate([lo, hi, widen]))

    def n_nodes(self, level: int) -> int:
        return self.sizes[level].shape[0]

    @property
    def node_count(self) -> int:
        return sum(s.shape[0] for s in self.sizes)

    @property
    def nbytes(self) -> int:
        arrays = [self.members]
        for group in (self.children, self.sizes, self.brackets):
            arrays.extend(group)
        return int(sum(a.nbytes for a in arrays))

    def stats(self) -> Dict[str, int]:
        return {
            "n": self.n,
            "depth": self.depth,
            "nodes": self.node_count,
            "leaves": self.members.shape[0],
            "leaf_size": self.leaf_size,
            "fanout": self.fanout,
        }


@dataclasses.dataclass
class DualTreeCandidates:
    """CSR survivor sets of one prune pass.

    ``indptr`` has shape ``(m + 1,)``; ``indices[indptr[r]:indptr[r+1]]``
    are query ``r``'s surviving object columns in ascending order —
    exactly the flat tier's survivors.  ``stats`` holds the pass's
    telemetry, each counter summed over the batch's rows:

    ``node_pairs_visited``
        ``(row, tree node)`` pairs bracketed by the descent, over all
        levels.
    ``node_pairs_pruned``
        those dropped, by a row's running best bound or by its
        nearest-leaf cutoff.
    ``point_node_pairs``
        ``(row, leaf)`` pairs that reached the leaf refinement.
    ``refined_pairs``
        ``(row, object)`` pairs given the exact member bounds.
    ``survivors``
        ``(row, object)`` pairs emitted (``nnz``).

    plus ``object_tree_depth``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    stats: Dict[str, float]

    @property
    def m(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def counts(self) -> np.ndarray:
        """Survivor count per query, shape ``(m,)``."""
        return np.diff(self.indptr)

    def lists(self) -> List[np.ndarray]:
        """Per-query survivor index arrays (views into ``indices``)."""
        return [
            self.indices[self.indptr[r] : self.indptr[r + 1]]
            for r in range(self.m)
        ]

    def mask(self, n: int, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Densify rows ``lo:hi`` to a boolean ``(hi - lo, n)`` mask."""
        hi = self.m if hi is None else hi
        out = np.zeros((hi - lo, n), dtype=bool)
        ptr = self.indptr[lo : hi + 1]
        rows = np.repeat(np.arange(hi - lo, dtype=np.intp), np.diff(ptr))
        out[rows, self.indices[ptr[0] : ptr[-1]]] = True
        return out


def _node_bounds(
    tree: EnvelopeObjectTree, lvl: int, qx: np.ndarray, qy: np.ndarray,
    on: np.ndarray, terms: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(node_lb, node_ub)`` for query points ``(qx, qy)`` against nodes
    ``on`` of level ``lvl``: ``node_lb`` lower-bounds ``lb_i(q)`` and
    ``node_ub`` upper-bounds ``ub_i(q)`` for every member ``i`` — the
    containment argument behind
    :meth:`ModelColumns.envelope_bounds_many` lifted to node aggregates.
    ``terms`` is 2 for the support criterion, 3 to add the first-moment
    (Jensen) terms of the expected criterion.
    """
    lox, loy, hix, hiy, widen_lb, widen_ub = tree.brackets[lvl][:, :terms].take(
        on, axis=2
    )
    # Per axis, with a = lo - q and b = q - hi: the near gap is
    # max(a, b, 0) and the far gap is -min(a, b).
    ax, bx = lox - qx, qx - hix
    ay, by = loy - qy, qy - hiy
    fx, fy = np.minimum(ax, bx), np.minimum(ay, by)
    nx = np.maximum(np.maximum(ax, bx, out=ax), 0.0, out=ax)
    ny = np.maximum(np.maximum(ay, by, out=ay), 0.0, out=ay)
    lb = np.sqrt(nx * nx + ny * ny) - widen_lb
    ub = np.sqrt(fx * fx + fy * fy) + widen_ub
    return np.maximum(lb.max(axis=0), 0.0), ub.min(axis=0)


def _segment_starts(row: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in a grouped array."""
    return np.concatenate(([0], np.nonzero(row[1:] != row[:-1])[0] + 1))


def _by_row_then_ub(row: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """The permutation sorting pairs by ``(row, ub)`` — ``np.lexsort``'s
    order up to ties in ``ub``, as one integer-key sort (several times
    faster than the two-key lexsort)."""
    p = ub.shape[0]
    rank = np.empty(p, dtype=np.intp)
    rank[np.argsort(ub)] = np.arange(p, dtype=np.intp)
    return np.argsort(row * p + rank)


def _covering_ub(
    row: np.ndarray, ub: np.ndarray, sizes: np.ndarray, starts: np.ndarray,
    k: int,
) -> np.ndarray:
    """Per-row bound on the ``k``-th smallest member ub: scan each row's
    pairs by ascending ``ub`` until the covered member count (``sizes``)
    reaches ``k``.  Rows are grouped in ascending order; ``starts`` are
    their segment offsets."""
    if k == 1:
        return np.minimum.reduceat(ub, starts)
    order = _by_row_then_ub(row, ub)
    cs = np.cumsum(sizes[order])
    base = cs[starts] - sizes[order][starts]
    ends = np.append(starts[1:], row.shape[0])
    pos = np.minimum(np.searchsorted(cs, base + k, side="left"), ends - 1)
    return ub[order][pos]


def _kth_per_row(ub: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """The ``k``-th smallest ``ub`` of every row segment (rows grouped,
    each holding at least ``k`` entries) — through the flat tier's own
    selector, so the cutoff is the identical float."""
    if k == 1:
        return np.minimum.reduceat(ub, starts)
    # Pad the ragged segments into one (rows, maxlen) matrix: +inf
    # padding never reaches the k-th slot.
    lens = np.diff(np.append(starts, ub.shape[0]))
    dense = np.full((starts.shape[0], int(lens.max())), np.inf)
    seg = np.repeat(np.arange(starts.shape[0], dtype=np.intp), lens)
    dense[seg, np.arange(ub.shape[0]) - np.repeat(starts, lens)] = ub
    return kernels.kth_smallest_rowwise(dense, k)


def _member_bounds(tree, columns, Q, row, on, criterion):
    """Expand ``(row, leaf)`` pairs into ``(row, object)`` pairs with the
    flat tier's exact bounds; returns ``(rows, cols, lb, ub)``."""
    col, mrow = _expand(tree.members, on, row)
    lb, ub = columns.member_pair_bounds(Q[mrow, 0], Q[mrow, 1], col, criterion)
    return mrow, col, lb, ub


def _row_range_candidates(
    Q: np.ndarray,
    tree: EnvelopeObjectTree,
    columns,
    k: int,
    criterion: str,
    slack: float,
    pair_budget: int,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, int]]:
    """Descent plus leaf refinement for the rows of ``Q``; returns
    ``(per-row survivor counts, survivor columns, counters)``."""
    stats = dict.fromkeys(_COUNTERS, 0)
    mq = Q.shape[0]
    terms = 3 if criterion == "expected" else 2
    node_slack = slack * _NODE_MARGIN
    qx, qy = Q[:, 0].copy(), Q[:, 1].copy()
    # The root and its at most `fanout` children rarely prune anything,
    # so the descent starts two levels down: every row against every
    # level-2 node (or the leaves of a shallower tree).
    lvl = min(2, tree.depth - 1)
    width = tree.n_nodes(lvl)
    row = np.repeat(np.arange(mq, dtype=np.intp), width)
    on = np.tile(np.arange(width, dtype=np.intp), mq)
    best = np.full(mq, np.inf)
    while True:
        _resilience.checkpoint("dual_tree.level")
        lb, ub = _node_bounds(tree, lvl, qx[row], qy[row], on, terms)
        sizes = tree.sizes[lvl][on]
        # Every row keeps >= 1 pair at every level (its k best members
        # always survive), so the segments cover all rows in order.
        starts = _segment_starts(row)
        best = np.minimum(best, _covering_ub(row, ub, sizes, starts, k))
        keep = lb <= best[row] * node_slack
        stats["node_pairs_visited"] += row.shape[0]
        stats["node_pairs_pruned"] += row.shape[0] - int(np.count_nonzero(keep))
        row, on, lb, ub, sizes = row[keep], on[keep], lb[keep], ub[keep], sizes[keep]
        if lvl == tree.depth - 1:
            break
        on, row = _expand(tree.children[lvl], on, row)
        lvl += 1
    # Nearest leaf first: order each row's leaves by node ub and mark the
    # prefix that first covers k members.
    order = _by_row_then_ub(row, ub)
    row, on, lb, sizes = row[order], on[order], lb[order], sizes[order]
    starts = _segment_starts(row)
    lens = np.diff(np.append(starts, row.shape[0]))
    before = np.cumsum(sizes) - sizes
    first = before - np.repeat(before[starts], lens) < k
    # Refine in contiguous chunks of whole rows whose member-pair count
    # stays near the budget: the refinement's per-pair temporaries are
    # the pass's only large allocations, so peak memory stays O(budget).
    row_pairs = np.add.reduceat(sizes, starts)
    chunk_of_row = (np.cumsum(row_pairs) - row_pairs) // pair_budget
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(chunk_of_row)) + 1, [mq])
    )
    pair_at = np.append(starts, row.shape[0])
    counts, cols = [], []
    for ci in range(bounds.shape[0] - 1):
        _resilience.checkpoint("dual_tree.refine", ci)
        r0, r1 = int(bounds[ci]), int(bounds[ci + 1])
        sl = slice(int(pair_at[r0]), int(pair_at[r1]))
        c, s = _refine(
            Q, tree, columns, k, criterion, slack, node_slack,
            row[sl], on[sl], lb[sl], first[sl], r0, r1, stats,
        )
        counts.append(c)
        cols.append(s)
    return np.concatenate(counts), np.concatenate(cols), stats


def _refine(
    Q, tree, columns, k, criterion, slack, node_slack,
    row, on, node_lb, first, r0, r1, stats,
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-leaf-first member refinement of rows ``r0:r1`` (their
    ``(row, leaf)`` pairs, grouped by row); returns
    ``(per-row survivor counts, survivor columns)``."""
    r_a, c_a, lb_a, ub_a = _member_bounds(
        tree, columns, Q, row[first], on[first], criterion
    )
    cutoff0 = _kth_per_row(ub_a, _segment_starts(r_a), k)
    rest = ~first & (node_lb <= cutoff0[row - r0] * node_slack)
    stats["point_node_pairs"] += row.shape[0]
    stats["node_pairs_pruned"] += int(np.count_nonzero(~first & ~rest))
    r_b, c_b, lb_b, ub_b = _member_bounds(
        tree, columns, Q, row[rest], on[rest], criterion
    )
    # Merge both stages per row; the refined set holds every member
    # among the k smallest ubs, so this cutoff is the flat tier's.
    order = np.argsort(np.concatenate([r_a, r_b]), kind="stable")
    mrow = np.concatenate([r_a, r_b])[order]
    col = np.concatenate([c_a, c_b])[order]
    lb = np.concatenate([lb_a, lb_b])[order]
    ub = np.concatenate([ub_a, ub_b])[order]
    stats["refined_pairs"] += mrow.shape[0]
    cut = _kth_per_row(ub, _segment_starts(mrow), k) * slack
    keep = lb <= cut[mrow - r0]
    srow, scol = mrow[keep] - r0, col[keep]
    # Ascending columns per row (rows are already grouped in order).
    scol = scol[np.argsort(srow * tree.n + scol)]
    return np.bincount(srow, minlength=r1 - r0), scol


def dual_tree_candidates(
    qs,
    columns,
    object_tree: Optional[EnvelopeObjectTree] = None,
    k: int = 1,
    criterion: str = "support",
    leaf_size: int = 32,
    fanout: int = 8,
    slack: float = _CUTOFF_SLACK,
    backend: str = "serial",
    workers: Optional[int] = None,
    tile_bytes: Optional[int] = None,
) -> DualTreeCandidates:
    """The prune pass: CSR survivor sets for a query batch.

    Parameters
    ----------
    qs:
        Query matrix (anything :func:`as_query_array` accepts).
    columns:
        The :class:`~repro.uncertain.ModelColumns` store.
    object_tree:
        Optional prebuilt :class:`EnvelopeObjectTree` over ``columns``
        (built here with ``leaf_size`` / ``fanout`` when omitted;
        sessions cache one per generation).
    k / criterion:
        The prune test — survivors of query ``q`` are exactly the flat
        tier's ``lb_i(q) <= k``-th smallest ``ub_j(q)`` set, with
        ``criterion`` selecting the support or expected-distance
        bracket.
    backend / workers:
        ``"serial"`` or ``"thread"`` — threads fan out over contiguous
        row ranges (the pass's closures are not picklable, so the
        process backend is rejected exactly like the planner's tiles).
    tile_bytes:
        Peak-memory budget for the pass's per-pair temporaries (defaults
        to :data:`repro.config.EXECUTION`'s ``tile_bytes``): the batch
        runs in contiguous row chunks sized to it from the worst-case
        descent frontier, and each chunk's leaf refinement in row groups
        sized to it from the actual leaf counts, mirroring the planner's
        row tiles.
    """
    Q = kernels.as_query_array(qs)
    m = Q.shape[0]
    n = int(columns.n)
    k = min(max(int(k), 1), n)
    if criterion not in ("support", "expected"):
        raise QueryError(f"unknown pruning criterion {criterion!r}")
    if backend == "process":
        raise QueryError(
            "the dual-tree traversal's closures are not picklable; use "
            "parallel_backend='thread' (the process backend serves "
            "picklable workloads via repro.core.parallel.map_tiles)"
        )
    if object_tree is None:
        object_tree = EnvelopeObjectTree(columns, leaf_size, fanout)
    if object_tree.n != n:
        raise QueryError("object tree was built over a different column store")
    stats = dict.fromkeys(_COUNTERS, 0.0)
    stats["object_tree_depth"] = float(object_tree.depth)
    if m == 0:
        return DualTreeCandidates(
            np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), stats
        )
    if tile_bytes is None:
        tile_bytes = EXECUTION.tile_bytes
    # ~128 simultaneous bytes per (query, member) refinement pair across
    # the bound kernels' float temporaries and the CSR index arrays.
    pair_budget = max(4096, int(tile_bytes) // 128)
    # Row chunks bound the descent: a row's frontier never exceeds the
    # leaf count, and a (row, node) pair holds ~4 refinement pairs'
    # worth of temporaries.  Threads take one chunk at a time.
    rows = max(1, pair_budget // (4 * object_tree.n_nodes(object_tree.depth - 1)))
    if backend == "thread":
        rows = min(rows, -(-m // _parallel.resolve_workers(workers)))
    chunks = _parallel.tile_ranges(m, rows)
    run = lambda lo, hi: _row_range_candidates(  # noqa: E731
        Q[lo:hi], object_tree, columns, k, criterion, slack, pair_budget
    )
    if backend == "thread" and len(chunks) > 1:
        results = _parallel.map_tiles(run, chunks, backend=backend, workers=workers)
    else:
        results = [run(lo, hi) for lo, hi in chunks]
    for _, _, counters in results:
        for key, value in counters.items():
            stats[key] += float(value)
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(np.concatenate([c for c, _, _ in results]), out=indptr[1:])
    indices = np.concatenate([s for _, s, _ in results]).astype(np.intp, copy=False)
    stats["survivors"] = float(indptr[-1])
    return DualTreeCandidates(indptr, indices, stats)
