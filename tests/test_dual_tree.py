"""Dual-tree candidate generation: survivor parity, answer identity,
output sensitivity, and the session/Monte-Carlo integrations.

The acceptance property of the per-row descent is twofold: the emitted
CSR survivor sets must be a superset-of-or-equal-to the flat prune's
survivors (so no winner is ever discarded — in fact they are *exactly
equal*, byte for byte, which these tests pin for every batch size,
refinement budget and backend), and every answer produced through the
dual generator must be bit-identical to the flat generator's across all
six uncertainty model types and all four query methods.
"""

import random

import numpy as np
import pytest

from repro import (
    DiscreteUncertainPoint,
    Engine,
    EnvelopeObjectTree,
    HistogramPoint,
    ModelColumns,
    MonteCarloPNN,
    QueryPlanner,
    QuerySpec,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    dual_tree_candidates,
)
from repro.constructions import (
    cluster_centers,
    clustered_disk_points,
    clustered_queries,
    random_discrete_points,
    random_disk_points,
    random_queries,
)
from repro.core import dual_tree as dual_tree_module
from repro.errors import QueryError


def six_model_points(seed, n_per=5, box=90.0):
    """A set mixing all six model families (incl. histogram)."""
    rng = random.Random(seed)
    pts = []
    pts += random_discrete_points(n_per, k=4, seed=seed, box=box)
    pts += random_disk_points(n_per, seed=seed + 1, box=box, radius_range=(0.4, 3))
    for _ in range(n_per):
        x, y = rng.uniform(0, box), rng.uniform(0, box)
        pts.append(
            UniformRectPoint((x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4)))
        )
        pts.append(
            TruncatedGaussianPoint(
                (rng.uniform(0, box), rng.uniform(0, box)),
                sigma=rng.uniform(0.5, 2),
            )
        )
        pts.append(
            UniformPolygonPoint(
                [(x, y), (x + 3, y), (x + 2.5, y + 2.5), (x + 0.5, y + 3)]
            )
        )
        pts.append(
            HistogramPoint(
                (rng.uniform(0, box), rng.uniform(0, box)),
                1.0 + rng.uniform(0, 1),
                [[0.2, 0.1], [0.3, 0.4]],
            )
        )
    return pts


def queries_for(seed, m=60, box=90.0):
    qs = random_queries(
        m - 4, seed=seed, bbox=(-0.3 * box, -0.3 * box, 1.3 * box, 1.3 * box)
    )
    qs += [(0.0, 0.0), (box / 2, box / 2), (-5 * box, 3 * box), (box, box)]
    return np.asarray(qs)


def clustered_workload(n=400, m=200, clusters=10, seed=70):
    centers = cluster_centers(clusters, seed=seed, box=250.0)
    points = clustered_disk_points(n, centers=centers, seed=seed + 1)
    Q = np.asarray(clustered_queries(m, centers=centers, seed=seed + 2))
    return points, Q


FAMILIES = [
    DiscreteUncertainPoint,
    UniformDiskPoint,
    UniformRectPoint,
    TruncatedGaussianPoint,
    UniformPolygonPoint,
    HistogramPoint,
    None,  # the six-family mix
]

#: Run modes of the prune pass: serial with the default budget, serial
#: with a tiny refinement budget (many row chunks), and row ranges fanned
#: out over four threads.
RUN_MODES = {
    "serial": {},
    "tiny_budget": {"tile_bytes": 1},
    "thread": {"backend": "thread", "workers": 4},
}


def assert_same_csr(res, indptr, indices):
    assert res.indptr.dtype == indptr.dtype
    assert res.indices.dtype == indices.dtype
    assert res.indptr.tobytes() == indptr.tobytes()
    assert res.indices.tobytes() == indices.tobytes()


def spy_checkpoints(monkeypatch):
    """Patch the pass's checkpoint hook; returns the list of sites hit."""
    seen = []
    real = dual_tree_module._resilience.checkpoint

    def spy(site, index=None):
        seen.append(site)
        real(site, index)

    monkeypatch.setattr(dual_tree_module._resilience, "checkpoint", spy)
    return seen


@pytest.mark.parametrize(
    "family", FAMILIES, ids=lambda f: "mixed" if f is None else f.__name__
)
@pytest.mark.parametrize("criterion", ["support", "expected"])
def test_csr_equals_flat_every_batch_size(family, criterion):
    """Byte-for-byte CSR parity with the flat pass for each model family
    and the mix, k in {1, 3, 8}, m in {1, 2, 7, 64, 1000}, under every
    run mode."""
    points = six_model_points(11, n_per=40)
    if family is not None:
        points = [p for p in points if type(p) is family]
    cols = ModelColumns(points)
    tree = EnvelopeObjectTree(cols, leaf_size=8, fanout=4)
    assert tree.depth >= 3
    flat = QueryPlanner(points, method="flat", columns=cols)
    Q_all = queries_for(12, m=1000)
    for m in (1, 2, 7, 64, 1000):
        Q = Q_all[:m]
        for k in (1, 3, 8):
            indptr, indices = flat.candidate_csr(Q, k=k, criterion=criterion)
            for mode, kwargs in RUN_MODES.items():
                res = dual_tree_candidates(
                    Q, cols, tree, k=k, criterion=criterion, **kwargs
                )
                try:
                    assert_same_csr(res, indptr, indices)
                except AssertionError:
                    pytest.fail(f"m={m} k={k} mode={mode}: CSR differs")


def test_tiny_budget_runs_several_row_chunks(monkeypatch):
    points = six_model_points(13, n_per=40)
    cols = ModelColumns(points)
    Q = queries_for(14, m=1000)
    seen = spy_checkpoints(monkeypatch)
    want = dual_tree_candidates(Q, cols, criterion="expected", tile_bytes=1 << 30)
    big = {site: seen.count(site) for site in set(seen)}
    assert big["dual_tree.refine"] == 1
    seen.clear()
    got = dual_tree_candidates(Q, cols, criterion="expected", tile_bytes=1)
    # More descent chunks (level checkpoints) and more refinement groups.
    assert seen.count("dual_tree.level") > big["dual_tree.level"]
    assert seen.count("dual_tree.refine") > 1
    assert_same_csr(got, want.indptr, want.indices)


@pytest.mark.parametrize("criterion", ["support", "expected"])
def test_ties_duplicates_and_bbox_edges(criterion):
    """Exact ties: every object appears three times, and queries sit on
    support-bbox edges and corners and on disk centers, where bounds of
    different objects coincide (lb = 0, equal ubs)."""
    base = [
        UniformRectPoint((0.0, 0.0, 2.0, 1.0)),
        UniformRectPoint((2.0, 0.0, 4.0, 1.0)),
        UniformDiskPoint((1.0, 3.0), 1.0),
        UniformDiskPoint((3.0, 3.0), 1.0),
        DiscreteUncertainPoint([(0.0, 5.0), (2.0, 5.0)], [0.5, 0.5]),
        DiscreteUncertainPoint([(2.0, 5.0), (4.0, 5.0)], [0.5, 0.5]),
    ]
    points = [p for p in base for _ in range(3)]
    cols = ModelColumns(points)
    Q = np.asarray(
        [
            (2.0, 0.5), (2.0, 1.0), (0.0, 0.0), (4.0, 1.0), (1.0, 1.0),
            (2.0, 3.0), (1.0, 3.0), (3.0, 2.0), (2.0, 5.0), (2.0, 2.0),
            (0.0, 5.0), (4.0, 5.0), (2.0, 4.0), (-1.0, 0.5), (5.0, 3.0),
        ]
    )
    flat = QueryPlanner(points, method="flat", columns=cols)
    for leaf_size, fanout in ((2, 2), (3, 2), (32, 8)):
        tree = EnvelopeObjectTree(cols, leaf_size=leaf_size, fanout=fanout)
        for k in (1, 2, 3, 4, 8, len(points)):
            indptr, indices = flat.candidate_csr(Q, k=k, criterion=criterion)
            for kwargs in RUN_MODES.values():
                res = dual_tree_candidates(
                    Q, cols, tree, k=k, criterion=criterion, **kwargs
                )
                assert_same_csr(res, indptr, indices)
                assert res.counts().min() >= k


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("criterion", ["support", "expected"])
class TestSurvivorParity:
    """Dual survivors must contain — and in fact equal — flat survivors."""

    def test_superset_and_equality(self, seed, criterion):
        points = six_model_points(seed)
        Q = queries_for(seed + 10)
        cols = ModelColumns(points)
        flat = QueryPlanner(points, method="flat", columns=cols)
        for k in (1, 2, 7):
            mask = flat.candidate_mask(Q, k=k, criterion=criterion)
            res = dual_tree_candidates(Q, cols, k=k, criterion=criterion)
            dual_mask = res.mask(len(points))
            assert np.all(mask <= dual_mask), (k, "flat survivor was pruned")
            assert np.array_equal(mask, dual_mask), k

    def test_every_query_keeps_k(self, seed, criterion):
        points = six_model_points(seed)
        Q = queries_for(seed + 20, m=30)
        cols = ModelColumns(points)
        for k in (1, 3):
            res = dual_tree_candidates(Q, cols, k=k, criterion=criterion)
            assert res.counts().min() >= k


class TestSurvivorEdgeCases:
    def test_single_query(self):
        points = six_model_points(4)
        cols = ModelColumns(points)
        Q = queries_for(5)[:1]
        flat = QueryPlanner(points, method="flat", columns=cols)
        res = dual_tree_candidates(Q, cols)
        assert res.indptr.shape == (2,)
        assert np.array_equal(res.mask(len(points)), flat.candidate_mask(Q))

    def test_empty_batch(self):
        cols = ModelColumns(six_model_points(6))
        res = dual_tree_candidates(np.zeros((0, 2)), cols)
        assert res.indptr.tolist() == [0]
        assert res.nnz == 0
        assert res.mask(cols.n).shape == (0, cols.n)

    def test_single_object(self):
        cols = ModelColumns([UniformDiskPoint((1.0, 2.0), 0.5)])
        Q = queries_for(7, m=20)
        res = dual_tree_candidates(Q, cols)
        assert np.all(res.counts() == 1)
        assert np.all(res.indices == 0)

    def test_planner_empty_queries_dual(self):
        planner = QueryPlanner(six_model_points(8))
        assert planner.method == "dual"  # auto default
        assert planner.candidate_mask([]).shape == (0, len(planner.points))
        indptr, indices = planner.candidate_csr([])
        assert indptr.tolist() == [0] and indices.size == 0


@pytest.mark.parametrize("seed", [1, 2])
class TestAnswerIdentity:
    """Dual-vs-flat bit-identity for all four query methods over the
    six-model mix."""

    def planners(self, points):
        cols = ModelColumns(points)
        return (
            QueryPlanner(points, prune="dual", columns=cols),
            QueryPlanner(points, prune="flat", columns=cols),
        )

    def test_expected_nn(self, seed):
        points = six_model_points(seed)
        Q = queries_for(seed + 30, m=40)
        dual, flat = self.planners(points)
        di, dv = dual.expected_nn_many(Q)
        fi, fv = flat.expected_nn_many(Q)
        assert np.array_equal(di, fi) and np.array_equal(dv, fv)

    def test_nonzero(self, seed):
        points = six_model_points(seed)
        Q = queries_for(seed + 40, m=40)
        dual, flat = self.planners(points)
        assert dual.nonzero_nn_many(Q) == flat.nonzero_nn_many(Q)

    def test_threshold(self, seed):
        # The exact quantification sweep is defined for discrete models.
        points = random_discrete_points(30, k=4, seed=seed, box=60)
        Q = queries_for(seed + 50, m=25, box=60.0)
        dual, flat = self.planners(points)
        for tau in (0.0, 0.3):
            assert dual.threshold_nn_exact_many(Q, tau) == (
                flat.threshold_nn_exact_many(Q, tau)
            )

    def test_expected_knn(self, seed):
        points = six_model_points(seed)
        Q = queries_for(seed + 60, m=30)
        dual, flat = self.planners(points)
        for k in (1, 4, len(points)):
            assert np.array_equal(
                dual.expected_knn_many(Q, k), flat.expected_knn_many(Q, k)
            )

    def test_monte_carlo_csr_rounds(self, seed):
        points = six_model_points(seed)
        Q = queries_for(seed + 70, m=30)
        dual, flat = self.planners(points)
        mc = MonteCarloPNN(points, s=80, rng=seed)
        full = mc.query_matrix(Q)
        assert np.array_equal(mc.query_matrix(Q, planner=dual), full)
        assert np.array_equal(mc.query_matrix(Q, planner=flat), full)
        # Adaptive early stopping consumes the CSR layout directly too.
        adaptive = mc.query_matrix(Q, planner=dual, adaptive=True, tol=0.2)
        assert np.array_equal(
            adaptive, mc.query_matrix(Q, planner=flat, adaptive=True, tol=0.2)
        )


class TestOutputSensitivity:
    def test_visits_fewer_node_pairs_than_dense(self):
        points, Q = clustered_workload()
        cols = ModelColumns(points)
        res = dual_tree_candidates(Q, cols, criterion="expected")
        dense = Q.shape[0] * len(points)
        assert res.stats["node_pairs_visited"] < dense
        assert res.stats["refined_pairs"] < dense
        assert res.stats["survivors"] == res.nnz

    def test_planner_totals_accumulate(self):
        points, Q = clustered_workload(n=120, m=60)
        planner = QueryPlanner(points)
        planner.candidate_csr(Q)
        planner.candidate_csr(Q, criterion="expected")
        assert planner.dual_totals["traversals"] == 2.0
        assert planner.dual_totals["node_pairs_visited"] > 0
        stats = planner.prune_stats(Q, criterion="expected")
        assert "node_pairs_visited" in stats and "refined_pairs" in stats

    def test_object_tree_reused_across_criteria(self):
        points, Q = clustered_workload(n=120, m=60)
        planner = QueryPlanner(points)
        planner.candidate_csr(Q)
        tree = planner.object_tree()
        planner.candidate_csr(Q, criterion="expected", k=3)
        assert planner.object_tree() is tree

    def test_memory_budget_chunks_are_invisible(self):
        points, Q = clustered_workload(n=200, m=120)
        cols = ModelColumns(points)
        want = dual_tree_candidates(Q, cols, tile_bytes=1 << 30)
        got = dual_tree_candidates(Q, cols, tile_bytes=4096)
        assert np.array_equal(want.indptr, got.indptr)
        assert np.array_equal(want.indices, got.indices)


class TestBackends:
    def test_thread_backend_identical(self):
        points, Q = clustered_workload(n=150, m=90)
        cols = ModelColumns(points)
        serial = dual_tree_candidates(Q, cols)
        threaded = dual_tree_candidates(Q, cols, backend="thread", workers=4)
        assert np.array_equal(serial.indptr, threaded.indptr)
        assert np.array_equal(serial.indices, threaded.indices)

    def test_process_backend_rejected(self):
        points, Q = clustered_workload(n=40, m=10)
        with pytest.raises(QueryError, match="thread"):
            dual_tree_candidates(Q, ModelColumns(points), backend="process")
        planner = QueryPlanner(points, parallel_backend="process")
        with pytest.raises(QueryError, match="thread"):
            planner.candidate_mask(Q)

    def test_planner_thread_backend_identical(self):
        points, Q = clustered_workload(n=150, m=90)
        serial = QueryPlanner(points)
        threaded = QueryPlanner(points, parallel_backend="thread")
        si, sv = serial.expected_nn_many(Q)
        ti, tv = threaded.expected_nn_many(Q)
        assert np.array_equal(si, ti) and np.array_equal(sv, tv)


class TestPruneKnob:
    def test_prune_escape_hatch(self):
        points = six_model_points(9)
        assert QueryPlanner(points).method == "dual"
        assert QueryPlanner(points, prune="flat").method == "flat"
        assert QueryPlanner(points, prune="dual").method == "dual"
        with pytest.raises(QueryError, match="prune"):
            QueryPlanner(points, prune="bogus")

    def test_object_tree_validation(self):
        points = six_model_points(10)
        other = EnvelopeObjectTree(ModelColumns(points[:4]))
        with pytest.raises(QueryError, match="different"):
            QueryPlanner(points, object_tree=other)


class TestEngineIntegration:
    def test_object_tree_built_once_per_generation(self):
        points, Q = clustered_workload(n=120, m=50)
        engine = Engine(points)
        engine.expected_nn_many(Q)
        tree = engine.object_tree()
        builds = engine.stats()["registry_builds"]
        # A different criterion / method reuses the same tree.
        engine.nonzero_nn_many(Q + 0.5)
        assert engine.object_tree() is tree
        assert engine.stats()["registry_builds"] == builds
        assert "dual_tree" in engine.stats()["built_indexes"]
        # Updates invalidate it lazily.
        engine.insert([UniformDiskPoint((1.0, 1.0), 0.2)])
        engine.expected_nn_many(Q)
        assert engine.object_tree() is not tree

    def test_stats_expose_dual_totals(self):
        points, Q = clustered_workload(n=120, m=50)
        engine = Engine(points)
        engine.expected_nn_many(Q)
        stats = engine.stats()
        assert stats["dual_tree"]["traversals"] >= 1
        assert stats["dual_tree"]["node_pairs_visited"] > 0
        assert stats["dual_tree"]["survivors"] > 0

    def test_query_diagnostics_include_traversal(self):
        points, Q = clustered_workload(n=120, m=50)
        engine = Engine(points)
        res = engine.query(Q, QuerySpec("expected_nn", diagnostics=True))
        for key in (
            "node_pairs_visited",
            "node_pairs_pruned",
            "refined_pairs",
            "survivors",
        ):
            assert key in res.diagnostics
        assert res.diagnostics["node_pairs_visited"] < Q.shape[0] * len(points)
