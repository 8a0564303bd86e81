"""The three-tier query planner: exact / pruned / approx.

Every exact structure in this library admits the same pruning argument:
an object ``P_i`` cannot be the (probable / expected / nonzero) nearest
neighbor of ``q`` when ``dmin_i(q) > min_j dmax_j(q)``.  The planner
evaluates that test **vectorized over the whole query matrix** using the
precomputed envelope brackets of :class:`repro.uncertain.ModelColumns`
(``lb <= dmin``, ``dmax <= ub`` ⇒ pruning on ``lb > min_j ub_j`` is
always safe), shrinks each query's candidate set, and dispatches only
the survivors to the existing batched evaluators.  Results are exactly
identical to the unpruned paths:

* the realized / expected winner always survives (its own ``lb`` is at
  most its ``dmax``, which bounds the cutoff);
* every pruned object is *strictly* farther than the per-query cutoff,
  so it can neither win nor tie any evaluator's minimum, and for
  Lemma 2.1 the minimum (and decisive second minimum) of the ``dmax``
  row is always attained at a candidate.

Tiered execution
----------------
The answer-producing methods take ``tier=``:

``"pruned"`` (default)
    Prune-then-evaluate, exactly identical to the unpruned answers.
``"exact"``
    Skip pruning; evaluate every object (the cross-check tier).
``"approx"``
    Point location in a lazily built
    :class:`repro.core.quant_index.QuantizedEnvelopeIndex` (pass
    ``eps=``, optionally ``rel=``): certified ε-approximate answers in
    O(log) per query, with the index's exact-fallback rows transparently
    resolved by the pruned tier.

Tiled execution
---------------
The exact and pruned tiers never materialize ``(m, n)`` floating-point
matrices.  Queries are processed in row tiles sized from
``config.EXECUTION.tile_bytes`` (so the bound pass's simultaneous
``(rows, n)`` float64 temporaries fit the configured budget — the
default keeps a tile inside a cache slice), and the tiles can be fanned
out across cores by :func:`repro.core.parallel.map_tiles`
(``parallel_backend="thread"``; results are assembled in tile order, so
parallel answers are bit-identical to serial — the ``"process"``
backend serves picklable workloads through ``map_tiles`` directly, and
the planner rejects it since its tile closures hold model objects).  A
single
scalar-style query is exactly one tile and allocates only ``(1, n)``
rows — no full-matrix staging, no copies.

Candidate generation
--------------------
The pruned tier's default candidate generator is the per-row descent of
:mod:`repro.core.dual_tree` (``method="dual"``), one path for every
batch size: each query row walks a cached object-envelope STR tree
level by level, dropping ``(row, node)`` pairs whose node lower bound
exceeds the row's running best upper bound.  At the leaves each row is
refined nearest leaf first — the leaves with the smallest node upper
bounds that hold ``k`` members get the flat tier's exact bounds, and
the ``k``-th smallest of those drops every other leaf whose node lower
bound exceeds it.  A dropped member's upper bound is at least its lower
bound, hence above that cutoff and so above the true ``k``-th smallest
upper bound; the final cutoff therefore equals the flat pass's float,
and the emitted CSR survivor sets equal the flat pass's survivors bit
for bit, while the bound work is proportional to the surviving
frontier instead of ``m * n``.  The flat ``(rows, n)`` pass
(``method="flat"`` / ``prune="flat"``) and the bulk leaf groupings
(``"kdtree"`` / ``"rtree"`` from :mod:`repro.index.bulk`) remain as
escape hatches; whatever the generator, evaluation runs over the same
tiled blocks, so answers are identical across methods.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import EXECUTION
from ..errors import QueryError
from ..geometry import kernels
from .. import resilience as _resilience
from ..index.bulk import group_bboxes, kd_leaves, str_leaves
from ..uncertain.columns import TAG_DISCRETE, ModelColumns
from . import evaluators as _evaluators
from . import parallel as _parallel
from .dual_tree import DualTreeCandidates, EnvelopeObjectTree, dual_tree_candidates
from .nonzero import nonzero_from_matrices, support_report
from .quantification import quantification_probabilities, sweep_quantification

__all__ = ["QueryPlanner"]

#: Relative slack applied to every pruning cutoff so a bound computed a
#: few ulps above its true value can never discard a genuine candidate.
_CUTOFF_SLACK = 1.0 + 1e-12

#: Object-envelope tree parameters of the dual-tree candidate
#: generator (``method="dual"``).
_DUAL_LEAF_SIZE = 16
_DUAL_FANOUT = 8

#: Peak float64 working-set bytes per (query, object) pair in a tile's
#: bound-plus-evaluate pass (lb/ub/center-distance temporaries in the
#: kernels, plus the evaluator's value matrix): 8 simultaneous arrays.
_BYTES_PER_PAIR = 64

#: Per-pair bytes when the dual generator feeds the tiles: the bound
#: temporaries never materialize per tile (the traversal is
#: output-sensitive and budgets its own chunks), so a tile only holds
#: the evaluator's value matrix, the densified candidate mask, and the
#: evaluators' row-sized scratch — larger tiles, same memory budget,
#: less per-tile dispatch overhead.
_BYTES_PER_PAIR_DUAL = 24

_TIERS = ("exact", "pruned", "approx")


class QueryPlanner:
    """Three-tier (exact / pruned / approx) planner over a fixed set.

    Parameters
    ----------
    points:
        The uncertain points (any mix of models).
    columns:
        Optional precomputed :class:`ModelColumns` for ``points`` (built
        once here when omitted).
    method:
        ``"dual"`` (the ``"auto"`` default) — dual-tree candidate
        generation (:mod:`repro.core.dual_tree`): output-sensitive,
        bit-identical survivors to the flat pass; ``"flat"`` — one
        vectorized pass over the tile's ``(rows, n)`` bound matrices;
        ``"kdtree"`` / ``"rtree"`` — group objects into bulk leaves
        (argpartition kd splits / STR tiles) and prune whole groups
        first.
    prune:
        Convenience escape hatch: ``prune="dual"`` / ``prune="flat"``
        overrides ``method`` (the two spellings name the same
        strategies).
    leaf_size:
        Group capacity for the kd/rtree methods (the dual trees use
        their own packing parameters).
    object_tree:
        Optional prebuilt
        :class:`~repro.core.dual_tree.EnvelopeObjectTree` over the same
        columns, adopted instead of building lazily — the
        :class:`repro.Engine` registry shares one per generation across
        batches and criteria.
    tile_bytes / parallel_backend / parallel_workers:
        Per-planner overrides of :data:`repro.config.EXECUTION` (``None``
        reads the live config at call time).
    approx_cache:
        Optional mutable mapping holding the approx tier's
        :class:`~repro.core.quant_index.QuantizedEnvelopeIndex` per
        ``(eps, rel, criterion)`` key.  The :class:`repro.Engine`
        registry passes an instrumented, generation-tagged view here so
        quantized envelopes built through the planner are owned (and
        counted) by the session; a plain private dict is used when
        omitted.
    """

    def __init__(
        self,
        points: Sequence,
        columns: Optional[ModelColumns] = None,
        method: str = "auto",
        prune: Optional[str] = None,
        leaf_size: int = 32,
        tile_bytes: Optional[int] = None,
        parallel_backend: Optional[str] = None,
        parallel_workers: Optional[int] = None,
        approx_cache: Optional[Dict[Tuple[float, float, str], object]] = None,
        object_tree: Optional[EnvelopeObjectTree] = None,
        object_tree_supplier=None,
        eval_cache_supplier=None,
        evaluator: Optional[str] = None,
    ):
        self.points = list(points)
        if not self.points:
            raise QueryError("QueryPlanner requires at least one point")
        self.columns = columns if columns is not None else ModelColumns(self.points)
        if self.columns.n != len(self.points):
            raise QueryError("columns were built over a different point set")
        if prune is not None:
            if prune not in ("dual", "flat"):
                raise QueryError(
                    f"unknown prune strategy {prune!r}; expected 'dual' or 'flat'"
                )
            method = prune
        if method not in ("auto", "dual", "flat", "kdtree", "rtree"):
            raise QueryError(f"unknown planner method {method!r}")
        if method == "auto":
            method = "dual"
        self.method = method
        self.leaf_size = int(leaf_size)
        self.tile_bytes = tile_bytes
        self.parallel_backend = parallel_backend
        self.parallel_workers = parallel_workers
        self._leaves: Optional[List[np.ndarray]] = None
        self._leaf_bboxes: Optional[np.ndarray] = None
        self._approx_cache = approx_cache if approx_cache is not None else {}
        if object_tree is not None and object_tree.n != self.columns.n:
            raise QueryError("object tree was built over a different point set")
        self._object_tree = object_tree
        #: Optional hook called as ``supplier(build)`` on the first lazy
        #: object-tree build — the Engine registry passes one so the
        #: tree is owned (and counted) by the session, like the approx
        #: cache view.
        self._object_tree_supplier = object_tree_supplier
        if evaluator is not None and evaluator not in ("grouped", "object"):
            raise QueryError(
                f"unknown evaluator {evaluator!r}; expected 'grouped' or 'object'"
            )
        #: Per-planner override of ``config.EXECUTION.evaluator``
        #: (``None`` reads the live config at call time).  ``"grouped"``
        #: routes survivor evaluation through the tag-grouped pair
        #: kernels of :mod:`repro.core.evaluators`; ``"object"`` keeps
        #: the historical one-batched-call-per-object dispatch (the
        #: bit-identity reference).
        self.evaluator = evaluator
        #: Optional registry hook for the lazily built
        #: :class:`~repro.core.evaluators.EvalCache`, mirroring
        #: ``object_tree_supplier``.
        self._eval_cache = None
        self._eval_cache_supplier = eval_cache_supplier
        #: Cumulative dual-tree telemetry across this planner's prune
        #: passes (surfaced by :meth:`repro.Engine.stats`).
        self.dual_totals: Dict[str, float] = {
            "traversals": 0.0,
            "node_pairs_visited": 0.0,
            "node_pairs_pruned": 0.0,
            "point_node_pairs": 0.0,
            "refined_pairs": 0.0,
            "survivors": 0.0,
        }
        self.last_dual_stats: Optional[Dict[str, float]] = None
        #: Cumulative evaluation-phase telemetry: grouped kernel passes,
        #: pairs they evaluated, and the prune / evaluate wall-time
        #: split (prune seconds cover the dual traversal passes).
        self.eval_totals: Dict[str, float] = {
            "grouped_calls": 0.0,
            "pairs": 0.0,
            "prune_seconds": 0.0,
            "eval_seconds": 0.0,
        }
        self.last_eval_stats: Optional[Dict[str, float]] = None
        self._last_prune_seconds = 0.0
        #: After an approx-tier ``expected_nn_many`` under
        #: ``EXECUTION.dtype="float32"``: per-query certified float32
        #: error bounds for the fallback rows (``None`` when the
        #: fallback ran in float64 and is exact).
        self.last_fallback_bounds: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.points)

    # -- tiled execution -----------------------------------------------------
    def _tile_rows(self, tier: str = "pruned") -> int:
        tb = self.tile_bytes if self.tile_bytes is not None else EXECUTION.tile_bytes
        # The reduced estimate only applies where the dual generator
        # actually replaces the per-tile bound pass (the pruned tier);
        # exact-tier tiles still stage their own full extremal matrices.
        per_pair = (
            _BYTES_PER_PAIR_DUAL
            if self.method == "dual" and tier == "pruned"
            else _BYTES_PER_PAIR
        )
        rows = max(1, int(tb) // max(len(self.points) * per_pair, 1))
        # Admission control: when a memory budget is configured, the
        # tile height is clamped so one tile's working set fits it (or
        # the request is rejected when even a single row cannot).
        return _resilience.clamp_tile_rows(
            rows, len(self.points), per_pair,
            what=f"{tier}-tier bound-pass tile",
        )

    def _run_tiles(self, m: int, fn, tier: str = "pruned") -> List:
        """``fn(lo, hi)`` over cache-sized row tiles, optionally fanned
        out across workers; results in tile order."""
        backend = (
            self.parallel_backend
            if self.parallel_backend is not None
            else EXECUTION.parallel_backend
        )
        if backend == "process":
            # Planner tile functions close over the planner (model
            # objects, bound state) and are not picklable; a process
            # pool would die inside the workers with an opaque error.
            raise QueryError(
                "the planner's tile functions are not picklable; use "
                "parallel_backend='thread' (the process backend serves "
                "picklable workloads via repro.core.parallel.map_tiles)"
            )
        if self.method in ("kdtree", "rtree"):
            # Materialize the lazily built leaf grouping before tiles
            # fan out, so concurrent tile closures only read shared
            # state (a half-initialized _groups() would race).
            self._groups()
        tiles = _parallel.tile_ranges(m, self._tile_rows(tier))
        return _parallel.map_tiles(
            fn,
            tiles,
            backend=backend,
            workers=self.parallel_workers,
        )

    @staticmethod
    def _check_tier(tier: str, eps: Optional[float]) -> None:
        if tier not in _TIERS:
            raise QueryError(f"unknown planner tier {tier!r}; expected {_TIERS}")
        if tier == "approx" and eps is None:
            raise QueryError("the approx tier requires eps")

    def approx_index(self, eps: float, rel: float = 0.0, criterion: str = "expected"):
        """The lazily built (and cached)
        :class:`~repro.core.quant_index.QuantizedEnvelopeIndex` behind
        ``tier="approx"`` — one per ``(eps, rel, criterion)``."""
        from .quant_index import QuantizedEnvelopeIndex

        key = (float(eps), float(rel), criterion)
        try:
            return self._approx_cache[key]
        except KeyError:
            index = QuantizedEnvelopeIndex(
                self.points,
                eps=eps,
                rel=rel,
                criterion=criterion,
                columns=self.columns,
            )
            self._approx_cache[key] = index
            return index

    # -- candidate generation ------------------------------------------------
    def object_tree(self) -> EnvelopeObjectTree:
        """The (lazily built) object-envelope STR tree behind
        ``method="dual"`` — one per planner, shared across batches,
        criteria, and ``k`` (the tree depends only on the column
        store)."""
        if self._object_tree is None:
            def build() -> EnvelopeObjectTree:
                return EnvelopeObjectTree(
                    self.columns, _DUAL_LEAF_SIZE, _DUAL_FANOUT
                )

            self._object_tree = (
                self._object_tree_supplier(build)
                if self._object_tree_supplier is not None
                else build()
            )
        return self._object_tree

    def eval_cache(self) -> "_evaluators.EvalCache":
        """The (lazily built) :class:`~repro.core.evaluators.EvalCache`
        behind the grouped evaluator — one per planner, shared across
        batches, criteria, and query methods (it depends only on the
        point set and its column store)."""
        if self._eval_cache is None:
            def build() -> _evaluators.EvalCache:
                return _evaluators.EvalCache(self.points, self.columns)

            self._eval_cache = (
                self._eval_cache_supplier(build)
                if self._eval_cache_supplier is not None
                else build()
            )
        return self._eval_cache

    def _use_grouped(self) -> bool:
        mode = self.evaluator if self.evaluator is not None else EXECUTION.evaluator
        if mode not in ("grouped", "object"):
            raise QueryError(
                f"unknown evaluator {mode!r}; expected 'grouped' or 'object'"
            )
        return mode == "grouped"

    @staticmethod
    def _use_float32() -> bool:
        dtype = EXECUTION.dtype
        if dtype not in ("float64", "float32"):
            raise QueryError(
                f"unknown execution dtype {dtype!r}; expected 'float64' or "
                "'float32'"
            )
        return dtype == "float32"

    def _note_eval(self, pairs: int, seconds: float) -> None:
        self.eval_totals["grouped_calls"] += 1.0
        self.eval_totals["pairs"] += float(pairs)
        self.eval_totals["eval_seconds"] += float(seconds)
        self.last_eval_stats = {
            "pairs": float(pairs),
            "eval_seconds": float(seconds),
            "prune_seconds": float(self._last_prune_seconds),
        }

    def _dual_csr(self, Q: np.ndarray, k: int, criterion: str) -> DualTreeCandidates:
        """One dual-tree prune pass over the whole batch (the pass is
        output-sensitive and budgets its own row chunks, so it is not
        row-tiled here; threads fan out over contiguous row ranges)."""
        # Admission gate: the pass is not row-tiled here, so the clamp
        # result is unused — the call rejects requests whose single-row
        # worst case (every object surviving) already exceeds the
        # configured memory budget.
        _resilience.clamp_tile_rows(
            Q.shape[0] if Q.shape[0] else 1,
            len(self.points),
            _BYTES_PER_PAIR_DUAL,
            what="dual-tree refinement working set",
        )
        backend = (
            self.parallel_backend
            if self.parallel_backend is not None
            else EXECUTION.parallel_backend
        )
        t0 = time.perf_counter()
        res = dual_tree_candidates(
            Q,
            self.columns,
            object_tree=self.object_tree(),
            k=k,
            criterion=criterion,
            leaf_size=_DUAL_LEAF_SIZE,
            fanout=_DUAL_FANOUT,
            slack=_CUTOFF_SLACK,
            backend=backend,
            workers=self.parallel_workers,
            tile_bytes=self.tile_bytes,
        )
        self._last_prune_seconds = time.perf_counter() - t0
        self.eval_totals["prune_seconds"] += self._last_prune_seconds
        self.dual_totals["traversals"] += 1.0
        for key in (
            "node_pairs_visited",
            "node_pairs_pruned",
            "point_node_pairs",
            "refined_pairs",
            "survivors",
        ):
            self.dual_totals[key] += res.stats[key]
        self.last_dual_stats = dict(res.stats)
        return res

    def _groups(self) -> Tuple[List[np.ndarray], np.ndarray]:
        if self._leaves is None:
            if self.method == "rtree":
                self._leaves = str_leaves(self.columns.bboxes, self.leaf_size)
            else:
                self._leaves = kd_leaves(self.columns.centers, self.leaf_size)
            self._leaf_bboxes = group_bboxes(self.columns.bboxes, self._leaves)
        return self._leaves, self._leaf_bboxes

    def _member_bounds(
        self, Qsub: np.ndarray, members: Optional[np.ndarray], criterion: str
    ):
        """The criterion's ``(lb, ub)`` bracket, optionally on a column
        subset (``members=None`` is the full set)."""
        if criterion == "expected":
            return self.columns.expected_bounds_many(Qsub, members=members)
        return self.columns.envelope_bounds_many(Qsub, members=members)

    def _mask_block(self, Q: np.ndarray, k: int, criterion: str) -> np.ndarray:
        """The boolean candidate mask of one query tile."""
        if self.method == "flat" or Q.shape[0] == 0:
            lb, ub = self._member_bounds(Q, None, criterion)
            cutoff = self._kth_smallest(ub, k) * _CUTOFF_SLACK
            return lb <= cutoff[:, None]
        return self._grouped_mask(Q, k, criterion)

    def candidate_mask(
        self, qs, k: int = 1, criterion: str = "support"
    ) -> np.ndarray:
        """Boolean ``(m, n)`` mask of objects surviving the prune.

        Object ``i`` survives query ``q`` when its lower bound does not
        exceed the ``k``-th smallest upper bound over the set (``k = 1``
        is the nearest-neighbor test ``dmin <= min dmax``); ``criterion``
        selects the support (``dmin``/``dmax``) or expected-distance
        bracket.  Every query keeps at least ``k`` candidates, and the
        mask is identical across every ``method``.

        The non-dual generators compute tile by tile: only the boolean
        mask spans the full batch; the float64 bound temporaries stay
        O(tile).  The dual generator is output-sensitive (O(survivors)
        work and memory) and densifies its CSR only because the mask is
        the requested product here — prefer :meth:`candidate_csr` when
        a sparse layout will do.
        """
        Q = kernels.as_query_array(qs)
        n = len(self.points)
        k = min(max(int(k), 1), n)
        if criterion not in ("support", "expected"):
            raise QueryError(f"unknown pruning criterion {criterion!r}")
        _resilience.require_bytes(
            Q.shape[0] * n,
            f"candidate mask output (m={Q.shape[0]}, n={n})",
        )
        if self.method == "dual":
            return self._dual_csr(Q, k, criterion).mask(n)
        blocks = self._run_tiles(
            Q.shape[0], lambda lo, hi: self._mask_block(Q[lo:hi], k, criterion)
        )
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def candidate_csr(
        self, qs, k: int = 1, criterion: str = "support"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The prune survivors in CSR form: ``(indptr, indices)`` with
        ``indices[indptr[r]:indptr[r+1]]`` query ``r``'s surviving
        columns in ascending order.

        Native output of the dual generator (no ``(m, n)`` boolean is
        ever materialized); derived from the tiled mask for the other
        methods.  The Monte-Carlo candidate rounds consume this layout
        directly.
        """
        Q = kernels.as_query_array(qs)
        n = len(self.points)
        k = min(max(int(k), 1), n)
        if criterion not in ("support", "expected"):
            raise QueryError(f"unknown pruning criterion {criterion!r}")
        if self.method == "dual":
            res = self._dual_csr(Q, k, criterion)
            return res.indptr, res.indices
        mask = self.candidate_mask(Q, k=k, criterion=criterion)
        rows, cols = np.nonzero(mask)
        indptr = np.searchsorted(rows, np.arange(Q.shape[0] + 1)).astype(np.intp)
        return indptr, cols.astype(np.intp, copy=False)

    #: Shared with the dual-tree leaf refinement so both generators
    #: select the identical cutoff float (bit-parity of survivor sets).
    _kth_smallest = staticmethod(kernels.kth_smallest_rowwise)

    def _grouped_mask(self, Q: np.ndarray, k: int, criterion: str) -> np.ndarray:
        """Two-stage prune: leaf-level bbox bounds, then member bounds.

        Stage 1 bounds each group by its aggregate bbox (``maxdist`` to
        the group bbox dominates every member's ``dmax``, so the k-th
        smallest group bound is a valid cutoff) and drops dead groups per
        query; stage 2 tightens the cutoff with surviving members' upper
        bounds and emits the member-level mask.
        """
        m = Q.shape[0]
        n = len(self.points)
        leaves, leaf_bb = self._groups()
        leaf_lb = kernels.rect_mindist_many(Q, leaf_bb)
        leaf_ub = kernels.rect_maxdist_many(Q, leaf_bb)
        # Each group bound dominates >= |group| member dmax values, so
        # scanning groups by ascending ub until k members are covered
        # yields a valid (if loose) k-th-smallest-dmax upper bound.
        sizes = np.asarray([len(g) for g in leaves], dtype=np.intp)
        order = np.argsort(leaf_ub, axis=1, kind="stable")
        covered = np.cumsum(sizes[order], axis=1)
        need = np.argmax(covered >= k, axis=1)
        cutoff0 = leaf_ub[np.arange(m), order[np.arange(m), need]]
        alive = leaf_lb <= (cutoff0 * _CUTOFF_SLACK)[:, None]
        # Stage 2a: tighten the cutoff from surviving members' ubs.
        lb = np.full((m, n), np.inf)
        ub = np.full((m, n), np.inf)
        for g, members in enumerate(leaves):
            rows = np.flatnonzero(alive[:, g])
            if not rows.size:
                continue
            glb, gub = self._member_bounds(Q[rows], members, criterion)
            lb[rows[:, None], members[None, :]] = glb
            ub[rows[:, None], members[None, :]] = gub
        cutoff = self._kth_smallest(
            np.minimum(ub, cutoff0[:, None]), k
        ) * _CUTOFF_SLACK
        return lb <= cutoff[:, None]

    def candidate_lists(
        self, qs, k: int = 1, criterion: str = "support"
    ) -> List[np.ndarray]:
        """Per-query arrays of surviving object indices."""
        indptr, indices = self.candidate_csr(qs, k=k, criterion=criterion)
        return [
            indices[indptr[r] : indptr[r + 1]]
            for r in range(indptr.shape[0] - 1)
        ]

    # -- tiled evaluation blocks ---------------------------------------------
    def _pruned_masks(self, Q: np.ndarray, k: int, criterion: str, tier: str):
        """For the dual generator, run the (output-sensitive) prune pass
        once for the whole batch and hand the evaluation tiles densified
        row slices of its CSR; ``None`` lets tiles compute their own
        bound-pass masks (the flat / grouped generators)."""
        if tier != "pruned" or self.method != "dual":
            return None
        n = len(self.points)
        res = self._dual_csr(Q, min(max(int(k), 1), n), criterion)
        return lambda lo, hi: res.mask(n, lo, hi)

    def _expected_block(
        self,
        Q: np.ndarray,
        tier: str,
        k: int = 1,
        mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The tile's ``(rows, n)`` expectation matrix: survivors only
        for the pruned tier (``+inf`` elsewhere), everyone for exact."""
        n = len(self.points)
        mt = Q.shape[0]
        E = np.full((mt, n), np.inf)
        if tier == "exact":
            for i, p in enumerate(self.points):
                E[:, i] = p.expected_distance_many(Q)
            return E
        if mask is None:
            mask = self._mask_block(Q, k, "expected")
        if self._use_grouped():
            # np.nonzero walks row-major: rows ascend, columns ascend
            # within each row — exactly the CSR pair order the grouped
            # kernels scatter back from.
            rows, cols = np.nonzero(mask)
            t0 = time.perf_counter()
            vals, _ = _evaluators.expected_distance_pairs(
                self.eval_cache(), Q, rows, cols
            )
            E[rows, cols] = vals
            self._note_eval(cols.shape[0], time.perf_counter() - t0)
            return E
        for i in np.flatnonzero(mask.any(axis=0)):
            rows = np.flatnonzero(mask[:, i])
            E[rows, i] = self.points[i].expected_distance_many(Q[rows])
        return E

    def _support_matrices(
        self, Q: np.ndarray, tier: str, mask: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The tile's ``(rows, n)`` dmin/dmax matrices: survivors only
        for the pruned tier (``+inf`` elsewhere), everyone for exact."""
        n = len(self.points)
        mt = Q.shape[0]
        dmins = np.full((mt, n), np.inf)
        dmaxs = np.full((mt, n), np.inf)
        if tier == "exact":
            for i, p in enumerate(self.points):
                dmins[:, i] = p.dmin_many(Q)
                dmaxs[:, i] = p.dmax_many(Q)
        else:
            if mask is None:
                mask = self._mask_block(Q, 1, "support")
            if self._use_grouped():
                rows, cols = np.nonzero(mask)
                t0 = time.perf_counter()
                dmin, dmax = _evaluators.support_bounds_pairs(
                    self.eval_cache(), Q, rows, cols
                )
                dmins[rows, cols] = dmin
                dmaxs[rows, cols] = dmax
                self._note_eval(cols.shape[0], time.perf_counter() - t0)
            else:
                for i in np.flatnonzero(mask.any(axis=0)):
                    rows = np.flatnonzero(mask[:, i])
                    dmins[rows, i] = self.points[i].dmin_many(Q[rows])
                    dmaxs[rows, i] = self.points[i].dmax_many(Q[rows])
        return dmins, dmaxs

    def _nonzero_block(
        self, Q: np.ndarray, tier: str, mask: Optional[np.ndarray] = None
    ) -> List[FrozenSet[int]]:
        dmins, dmaxs = self._support_matrices(Q, tier, mask)
        return nonzero_from_matrices(dmins, dmaxs)

    # -- dispatch ------------------------------------------------------------
    @staticmethod
    def _check_fallback_flag(return_fallback: bool, tier: str) -> None:
        if return_fallback and tier != "approx":
            raise QueryError("return_fallback requires tier='approx'")

    def nonzero_nn_many(
        self,
        qs,
        tier: str = "pruned",
        eps: Optional[float] = None,
        rel: float = 0.0,
        return_fallback: bool = False,
    ) -> Union[
        List[FrozenSet[int]], Tuple[List[FrozenSet[int]], np.ndarray]
    ]:
        """``NN!=0(q)`` (Lemma 2.1) per query row.

        ``exact`` and ``pruned`` are identical to
        :meth:`repro.UncertainSet.nonzero_nn_many`; ``approx`` returns
        the quantized index's ε-relaxed sets (exact on settled cells)
        with its fallback rows resolved by the pruned tier —
        ``return_fallback=True`` (approx only) additionally returns the
        mask of rows that needed that exact resolution, so session
        callers can surface per-row certificates without re-running the
        point location.
        """
        self._check_tier(tier, eps)
        self._check_fallback_flag(return_fallback, tier)
        Q = kernels.as_query_array(qs)
        if tier == "approx":
            ans = self.approx_index(eps, rel, "support").nonzero_nn_many(Q)
            out = list(ans.sets)
            rows = np.flatnonzero(ans.fallback)
            if rows.size:
                resolved = self.nonzero_nn_many(Q[rows], tier="pruned")
                for r, s in zip(rows, resolved):
                    out[r] = s
            if return_fallback:
                return out, ans.fallback
            return out
        masks = self._pruned_masks(Q, 1, "support", tier)
        blocks = self._run_tiles(
            Q.shape[0],
            lambda lo, hi: self._nonzero_block(
                Q[lo:hi], tier, None if masks is None else masks(lo, hi)
            ),
            tier=tier,
        )
        return [s for block in blocks for s in block]

    def nonzero_report_many(self, qs, tier: str = "pruned") -> dict:
        """The shard-mergeable ``NN!=0`` report (see
        :func:`repro.core.nonzero.support_report`): per-row two smallest
        ``dmax`` values (with the argmin's local index) plus the local
        membership CSR with each member's ``dmin``.

        Runs the same tiled support-matrix pass as
        :meth:`nonzero_nn_many`, so the floats in the report are the
        exact values the local sets were decided by — the cluster
        supervisor merges reports from contiguous shards into the
        global sets bit-identically.
        """
        if tier not in ("exact", "pruned"):
            raise QueryError(
                f"nonzero_report_many supports exact/pruned, got {tier!r}")
        self._check_tier(tier, None)
        Q = kernels.as_query_array(qs)
        masks = self._pruned_masks(Q, 1, "support", tier)

        def run(lo: int, hi: int) -> dict:
            dmins, dmaxs = self._support_matrices(
                Q[lo:hi], tier, None if masks is None else masks(lo, hi)
            )
            return support_report(dmins, dmaxs)

        blocks = self._run_tiles(Q.shape[0], run, tier=tier)
        if len(blocks) == 1:
            return blocks[0]
        indptr = blocks[0]["indptr"]
        for b in blocks[1:]:
            indptr = np.concatenate([indptr, indptr[-1] + b["indptr"][1:]])
        return {
            "best": np.concatenate([b["best"] for b in blocks]),
            "best_idx": np.concatenate([b["best_idx"] for b in blocks]),
            "second": np.concatenate([b["second"] for b in blocks]),
            "indptr": indptr,
            "members": np.concatenate([b["members"] for b in blocks]),
            "member_dmins": np.concatenate(
                [b["member_dmins"] for b in blocks]
            ),
        }

    def expected_nn_many(
        self,
        qs,
        tier: str = "pruned",
        eps: Optional[float] = None,
        rel: float = 0.0,
        return_fallback: bool = False,
    ) -> Union[
        Tuple[np.ndarray, np.ndarray],
        Tuple[np.ndarray, np.ndarray, np.ndarray],
    ]:
        """Expected-distance NN winners: ``(indices, values)``.

        ``exact`` and ``pruned`` return identical winners and values
        (the full ``expected_distance_matrix`` argmin); ``approx``
        returns ε-certified winners/values from the quantized envelope
        (fallback rows resolved by the pruned tier;
        ``return_fallback=True`` appends the resolved-row mask).
        """
        self._check_tier(tier, eps)
        self._check_fallback_flag(return_fallback, tier)
        Q = kernels.as_query_array(qs)
        if tier == "approx":
            self.last_fallback_bounds = None
            # Validate the execution dtype up front so a bad config
            # fails loudly even when no row needs the fallback.
            use_f32 = self._use_float32() and self._use_grouped()
            ans = self.approx_index(eps, rel, "expected").expected_nn_many(Q)
            winners = ans.winners.copy()
            values = ans.values.copy()
            rows = np.flatnonzero(ans.fallback)
            if rows.size:
                if use_f32:
                    # Certified float32 mode: fallback rows resolve
                    # through the grouped kernels in single precision;
                    # the per-row certificates land in
                    # ``last_fallback_bounds`` for the session layer to
                    # fold into the tier's eps budget.
                    wi, vv, bounds = self._expected_nn_pairs_f32(Q[rows])
                    self.last_fallback_bounds = bounds
                else:
                    wi, vv = self.expected_nn_many(Q[rows], tier="pruned")
                winners[rows] = wi
                values[rows] = vv
            if return_fallback:
                return winners, values, ans.fallback
            return winners, values

        if tier == "pruned" and self.method == "dual":
            return self._expected_nn_streaming(Q)
        masks = self._pruned_masks(Q, 1, "expected", tier)

        def run(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
            E = self._expected_block(
                Q[lo:hi], tier, mask=None if masks is None else masks(lo, hi)
            )
            arg = E.argmin(axis=1) if E.shape[0] else np.zeros(0, dtype=np.intp)
            return arg, E[np.arange(E.shape[0]), arg]

        blocks = self._run_tiles(Q.shape[0], run, tier=tier)
        if len(blocks) == 1:
            return blocks[0]
        return (
            np.concatenate([b[0] for b in blocks]),
            np.concatenate([b[1] for b in blocks]),
        )

    def _expected_nn_streaming(
        self, Q: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Winner evaluation over the dual CSR survivors: one
        ``expected_distance_many`` call per surviving object (its rows
        gathered from the CSR), folded into per-row running minima —
        no ``(m, n)`` expectation matrix, no per-tile re-dispatch.
        Ascending column order with a strict ``<`` update reproduces the
        dense argmin's lowest-index tie-breaking, so winners and values
        are bit-identical to the tiled path.  Under the thread backend
        the fold fans out over ascending *object* chunks (each with its
        own running minima) and merges them in chunk order with the same
        strict ``<`` — identical winners, parallel evaluator work.
        """
        m = Q.shape[0]
        res = self._dual_csr(Q, 1, "expected")
        if self._use_grouped():
            # Tag-grouped pair evaluation: flatten the survivor CSR into
            # (row, object) pair arrays, one vectorized kernel call per
            # model family present, then a per-row CSR min reduction
            # whose tie-breaking equals the strict-< fold below.
            rows = kernels.csr_rows(res.indptr)
            t0 = time.perf_counter()
            values, _ = _evaluators.expected_distance_pairs(
                self.eval_cache(), Q, rows, res.indices
            )
            winners, best = _evaluators.min_reduce_csr(
                res.indptr, res.indices, values, m
            )
            self._note_eval(res.indices.shape[0], time.perf_counter() - t0)
            return winners, best
        rows = kernels.csr_rows(res.indptr)
        order = np.argsort(res.indices, kind="stable")
        cols_sorted = res.indices[order]
        rows_sorted = rows[order]
        uniq, starts = np.unique(cols_sorted, return_index=True)
        ends = np.append(starts[1:], cols_sorted.shape[0])

        def fold(group_range: Tuple[int, int]) -> Tuple[np.ndarray, np.ndarray]:
            best = np.full(m, np.inf)
            arg = np.zeros(m, dtype=np.intp)
            for g in range(group_range[0], group_range[1]):
                i = uniq[g]
                r = rows_sorted[starts[g] : ends[g]]
                v = self.points[i].expected_distance_many(Q[r])
                upd = v < best[r]
                if np.any(upd):
                    rr = r[upd]
                    best[rr] = v[upd]
                    arg[rr] = i
            return best, arg

        backend = (
            self.parallel_backend
            if self.parallel_backend is not None
            else EXECUTION.parallel_backend
        )
        workers = _parallel.resolve_workers(self.parallel_workers)
        if backend == "thread" and workers > 1 and uniq.shape[0] > 1:
            chunks = _parallel.tile_ranges(
                uniq.shape[0],
                -(-uniq.shape[0] // min(workers, uniq.shape[0])),
            )
            parts = _parallel.map_ordered(
                fold, chunks, backend=backend, workers=workers
            )
            best, arg = parts[0]
            for best_c, arg_c in parts[1:]:
                # Ascending chunk order + strict < keeps the lowest
                # winning column on exact ties.
                upd = best_c < best
                best[upd] = best_c[upd]
                arg[upd] = arg_c[upd]
            return arg, best
        best, arg = fold((0, uniq.shape[0]))
        return arg, best

    def _expected_nn_pairs_f32(
        self, Q: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grouped expected-NN resolution in certified float32.

        Same prune pass and CSR reduction as the float64 streaming path,
        but the pair kernels run in single precision and return per-pair
        error bounds; a row's certificate is its worst surviving pair
        bound (the min reduction is 1-Lipschitz in the sup norm, so a
        row value moves by at most the largest pair perturbation — and
        the reported winner's true value is within bound + bound of the
        true minimum).
        """
        indptr, cols = self.candidate_csr(Q, k=1, criterion="expected")
        rows = kernels.csr_rows(indptr)
        t0 = time.perf_counter()
        values, pair_bounds = _evaluators.expected_distance_pairs(
            self.eval_cache(), Q, rows, cols, use_float32=True
        )
        winners, best = _evaluators.min_reduce_csr(
            indptr, cols, values, Q.shape[0]
        )
        self._note_eval(cols.shape[0], time.perf_counter() - t0)
        bounds = _evaluators.max_reduce_csr(indptr, pair_bounds, Q.shape[0])
        return winners, best, bounds

    def expected_distance_matrix(
        self, qs, k: int = 1, tier: str = "pruned"
    ) -> np.ndarray:
        """``E[d(q, P_i)]`` on survivors, ``+inf`` on pruned pairs.

        The ``(m, n)`` output is the requested product here; it is still
        filled tile by tile so no *additional* full-size temporaries are
        staged.
        """
        if tier == "approx":
            raise QueryError("expected_distance_matrix has no approx tier")
        self._check_tier(tier, None)
        Q = kernels.as_query_array(qs)
        _resilience.require_bytes(
            Q.shape[0] * len(self.points) * 8,
            f"expected_distance_matrix output "
            f"(m={Q.shape[0]}, n={len(self.points)})",
        )
        masks = self._pruned_masks(Q, k, "expected", tier)
        blocks = self._run_tiles(
            Q.shape[0],
            lambda lo, hi: self._expected_block(
                Q[lo:hi], tier, k, None if masks is None else masks(lo, hi)
            ),
            tier=tier,
        )
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def expected_knn_many(
        self, qs, k: int, tier: str = "pruned"
    ) -> np.ndarray:
        """Expected-distance kNN ranking, ``(m, k)`` indices."""
        n = len(self.points)
        if not 1 <= k <= n:
            raise QueryError(f"k must lie in [1, {n}]")
        if tier == "approx":
            raise QueryError("expected_knn_many has no approx tier")
        self._check_tier(tier, None)
        Q = kernels.as_query_array(qs)

        masks = self._pruned_masks(Q, k, "expected", tier)

        def run(lo: int, hi: int) -> np.ndarray:
            E = self._expected_block(
                Q[lo:hi], tier, k, None if masks is None else masks(lo, hi)
            )
            return np.argsort(E, axis=1, kind="stable")[:, :k]

        blocks = self._run_tiles(Q.shape[0], run, tier=tier)
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def expected_knn_report_many(
        self, qs, k: int, tier: str = "pruned"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`expected_knn_many` plus the ranked expectations:
        ``(indices, values)``, each ``(m, k)``.

        The values are gathered from the very expectation matrix the
        ranking was argsorted from, so a cross-shard merge can re-sort
        candidates by ``(value, global index)`` and reproduce the
        single-process stable ranking exactly.
        """
        n = len(self.points)
        if not 1 <= k <= n:
            raise QueryError(f"k must lie in [1, {n}]")
        if tier not in ("exact", "pruned"):
            raise QueryError(
                f"expected_knn_report_many supports exact/pruned, "
                f"got {tier!r}")
        self._check_tier(tier, None)
        Q = kernels.as_query_array(qs)

        masks = self._pruned_masks(Q, k, "expected", tier)

        def run(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
            E = self._expected_block(
                Q[lo:hi], tier, k, None if masks is None else masks(lo, hi)
            )
            idx = np.argsort(E, axis=1, kind="stable")[:, :k]
            return idx, np.take_along_axis(E, idx, axis=1)

        blocks = self._run_tiles(Q.shape[0], run, tier=tier)
        if len(blocks) == 1:
            return blocks[0]
        return (
            np.vstack([b[0] for b in blocks]),
            np.vstack([b[1] for b in blocks]),
        )

    def threshold_nn_exact_many(
        self,
        qs,
        tau: float,
        tier: str = "pruned",
        eps: Optional[float] = None,
        rel: float = 0.0,
        return_fallback: bool = False,
    ) -> Union[
        List[Dict[int, float]], Tuple[List[Dict[int, float]], np.ndarray]
    ]:
        """Exact threshold queries ([DYM+05] semantics).

        Only survivors can have ``pi_i(q) > 0`` and the realized NN is
        always a survivor, so the Eq. (2) sweep over the candidate
        subset returns the same probabilities as the full sweep.  The
        ``approx`` tier answers certified rows from the quantized index
        (settled cells report their certain winner with probability
        exactly ``1.0``) and sweeps only the fallback rows: the answer
        *sets* equal the pruned tier's, and the probabilities agree up
        to the sweep's float accumulation (which can land a certain
        winner at ``1.0 ± a few ulps``).
        """
        if not 0.0 <= tau < 1.0:
            raise QueryError("tau must lie in [0, 1)")
        self._check_tier(tier, eps)
        self._check_fallback_flag(return_fallback, tier)
        Q = kernels.as_query_array(qs)
        if tier == "approx":
            ans = self.approx_index(eps, rel, "support").threshold_nn_many(
                Q, tau
            )
            out = list(ans.answers)
            rows = np.flatnonzero(ans.fallback)
            if rows.size:
                resolved = self.threshold_nn_exact_many(
                    Q[rows], tau, tier="pruned"
                )
                for r, d in zip(rows, resolved):
                    out[r] = d
            if return_fallback:
                return out, ans.fallback
            return out
        if tier == "exact":
            out = []
            for q in Q:
                pi = quantification_probabilities(self.points, tuple(q))
                out.append({i: v for i, v in enumerate(pi) if v > tau})
            return out
        indptr, cols = self.candidate_csr(Q, criterion="support")
        if self._use_grouped() and not (
            cols.size and np.any(self.columns.tags[cols] != TAG_DISCRETE)
        ):
            # All candidates are discrete-tagged: gather every sweep
            # entry from the column store in one vectorized pass, then
            # run the unchanged per-query Eq. (2) sweep.  Mixed sets
            # (including duck-typed discrete models the column store
            # tags "other") fall through to the per-object path, which
            # preserves the historical validation / error semantics.
            t0 = time.perf_counter()
            entries = _evaluators.gather_sweep_entries(
                self.columns, Q, indptr, cols
            )
            out: List[Dict[int, float]] = []
            for r in range(indptr.shape[0] - 1):
                idx = cols[indptr[r] : indptr[r + 1]]
                pi = sweep_quantification(entries[r], idx.shape[0])
                out.append(
                    {int(idx[j]): v for j, v in enumerate(pi) if v > tau}
                )
            self._note_eval(cols.shape[0], time.perf_counter() - t0)
            return out
        out: List[Dict[int, float]] = []
        for r, q in enumerate(Q):
            idx = cols[indptr[r] : indptr[r + 1]]
            sub = [self.points[i] for i in idx]
            pi = quantification_probabilities(sub, tuple(q))
            out.append(
                {int(idx[j]): v for j, v in enumerate(pi) if v > tau}
            )
        return out

    # -- introspection -------------------------------------------------------
    def prune_stats(
        self, qs, criterion: str = "support", k: int = 1
    ) -> Dict[str, float]:
        """Mean/max candidate counts for a query matrix (diagnostics).

        ``criterion`` / ``k`` must match the answer path being diagnosed
        (``k`` is the expected-kNN neighbor count; 1 otherwise).  With
        the dual generator the result additionally carries the prune
        pass's telemetry, each counter summed over query rows:
        ``node_pairs_visited`` / ``node_pairs_pruned`` ((row, tree
        node) pairs bracketed / dropped), ``point_node_pairs`` ((row,
        leaf) pairs reaching the leaf refinement), ``refined_pairs``
        ((row, object) pairs given exact bounds), and ``survivors``
        (see :class:`~repro.core.dual_tree.DualTreeCandidates`).
        """
        indptr, _ = self.candidate_csr(qs, k=k, criterion=criterion)
        counts = np.diff(indptr)
        n = float(len(self.points))
        out = {
            "n": n,
            "queries": float(indptr.shape[0] - 1),
            "mean_candidates": float(counts.mean()) if counts.size else 0.0,
            "max_candidates": float(counts.max()) if counts.size else 0.0,
            "mean_fraction": float(counts.mean() / n) if counts.size else 0.0,
        }
        if self.method == "dual" and self.last_dual_stats is not None:
            out.update(self.last_dual_stats)
        return out
