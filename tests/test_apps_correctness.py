"""The core correctness contract: every app, on every partitioning policy,
under both execution models, matches the single-machine reference exactly
(pagerank: numerically).

This is the distributed-systems heart of the reproduction — partitioning,
proxy synchronization, invariant filtering, update tracking, and async
execution must compose without changing answers.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.apps import get_app, registry
from repro.apps.bfs import DirectionOptBFS
from repro.apps.kcore import KCore
from repro.comm import CommConfig
from repro.engine import BASPEngine, BSPEngine
from repro.fuzz.cases import Case, CaseFailure, run_case
from repro.hw import bridges
from repro.partition import partition
from repro.validation import (
    pagerank_close,
    reference_bfs,
    reference_cc,
    reference_kcore_mask,
    reference_pagerank,
    reference_sssp,
)

POLICIES = ["oec", "iec", "hvc", "cvc"]


def run(app_name, graph, policy, ctx, engine_cls=BSPEngine, parts=8, **kw):
    app = get_app(app_name)
    pg = partition(graph, policy, parts)
    eng = engine_cls(pg, bridges(parts), app, check_memory=False, **kw)
    return eng.run(ctx)


# --------------------------------------------------------------------------- #
# BSP x every policy
# --------------------------------------------------------------------------- #
class TestBSPAcrossPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bfs(self, small_graph, ctx, policy):
        res = run("bfs", small_graph, policy, ctx)
        assert np.array_equal(res.labels, reference_bfs(small_graph, ctx.source))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sssp(self, small_graph, ctx, policy):
        res = run("sssp", small_graph, policy, ctx)
        assert np.array_equal(res.labels, reference_sssp(small_graph, ctx.source))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cc(self, small_sym, ctx, policy):
        res = run("cc", small_sym, policy, ctx)
        assert np.array_equal(res.labels, reference_cc(small_sym))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_kcore(self, small_sym, ctx, policy):
        res = run("kcore", small_sym, policy, ctx)
        mask = KCore.in_core(res.labels.astype(np.int64), ctx.k)
        assert np.array_equal(mask, reference_kcore_mask(small_sym, ctx.k))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pr(self, small_graph, ctx, policy):
        res = run("pr", small_graph, policy, ctx)
        ref = reference_pagerank(small_graph, tol=1e-6, max_iter=2000)
        assert pagerank_close(res.labels, ref)


# --------------------------------------------------------------------------- #
# BASP x every policy (async must not change answers)
# --------------------------------------------------------------------------- #
class TestBASPAcrossPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bfs(self, small_graph, ctx, policy):
        res = run("bfs", small_graph, policy, ctx, engine_cls=BASPEngine)
        assert np.array_equal(res.labels, reference_bfs(small_graph, ctx.source))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sssp(self, small_graph, ctx, policy):
        res = run("sssp", small_graph, policy, ctx, engine_cls=BASPEngine)
        assert np.array_equal(res.labels, reference_sssp(small_graph, ctx.source))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cc(self, small_sym, ctx, policy):
        res = run("cc", small_sym, policy, ctx, engine_cls=BASPEngine)
        assert np.array_equal(res.labels, reference_cc(small_sym))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_kcore(self, small_sym, ctx, policy):
        res = run("kcore", small_sym, policy, ctx, engine_cls=BASPEngine)
        mask = KCore.in_core(res.labels.astype(np.int64), ctx.k)
        assert np.array_equal(mask, reference_kcore_mask(small_sym, ctx.k))

    @pytest.mark.parametrize("policy", ["cvc", "iec"])
    def test_pr(self, small_graph, ctx, policy):
        res = run("pr", small_graph, policy, ctx, engine_cls=BASPEngine)
        ref = reference_pagerank(small_graph, tol=1e-6, max_iter=2000)
        assert pagerank_close(res.labels, ref)


# --------------------------------------------------------------------------- #
# communication configs must not change answers
# --------------------------------------------------------------------------- #
class TestCommConfigsPreserveAnswers:
    @pytest.mark.parametrize(
        "cfg",
        [
            CommConfig(update_only=False),
            CommConfig(update_only=False, memoize_addresses=False),
            CommConfig(invariant_filtering=False),
        ],
        ids=["AS", "AS+explicit-ids", "no-invariant-filter"],
    )
    def test_bfs_all_configs(self, small_graph, ctx, cfg):
        res = run("bfs", small_graph, "cvc", ctx, comm_config=cfg)
        assert np.array_equal(res.labels, reference_bfs(small_graph, ctx.source))

    @pytest.mark.parametrize(
        "cfg",
        [CommConfig(update_only=False), CommConfig(invariant_filtering=False)],
        ids=["AS", "no-invariant-filter"],
    )
    def test_pr_all_configs(self, small_graph, ctx, cfg):
        res = run("pr", small_graph, "cvc", ctx, comm_config=cfg)
        ref = reference_pagerank(small_graph, tol=1e-6, max_iter=2000)
        assert pagerank_close(res.labels, ref)

    @pytest.mark.parametrize(
        "cfg",
        [CommConfig(update_only=False), CommConfig(invariant_filtering=False)],
        ids=["AS", "no-invariant-filter"],
    )
    def test_kcore_all_configs(self, small_sym, ctx, cfg):
        res = run("kcore", small_sym, "hvc", ctx, comm_config=cfg)
        mask = KCore.in_core(res.labels.astype(np.int64), ctx.k)
        assert np.array_equal(mask, reference_kcore_mask(small_sym, ctx.k))


# --------------------------------------------------------------------------- #
# framework-specific algorithm variants
# --------------------------------------------------------------------------- #
class TestVariantAlgorithms:
    def test_direction_optimizing_bfs(self, small_graph, ctx):
        res = run("bfs-do", small_graph, "random", ctx)
        assert np.array_equal(res.labels, reference_bfs(small_graph, ctx.source))

    def test_pointer_jumping_cc(self, small_sym, ctx):
        res = run("cc-pj", small_sym, "metis-like", ctx)
        assert np.array_equal(res.labels, reference_cc(small_sym))

    def test_pointer_jumping_converges_in_fewer_rounds(self, small_sym, ctx):
        plain = run("cc", small_sym, "metis-like", ctx)
        pj = run("cc-pj", small_sym, "metis-like", ctx)
        assert pj.stats.rounds <= plain.stats.rounds

    def test_pr_push(self, small_graph, ctx):
        res = run("pr-push", small_graph, "oec", ctx)
        ref = reference_pagerank(small_graph, tol=1e-6, max_iter=2000)
        # residual push leaves <= tol unapplied residual per vertex
        assert pagerank_close(res.labels, ref, rtol=1e-2)

    def test_single_partition_trivial(self, small_graph, ctx):
        res = run("bfs", small_graph, "oec", ctx, parts=1)
        assert np.array_equal(res.labels, reference_bfs(small_graph, ctx.source))


# --------------------------------------------------------------------------- #
# different GPU counts
# --------------------------------------------------------------------------- #
class TestScaleInvariance:
    @pytest.mark.parametrize("parts", [2, 4, 16, 32])
    def test_bfs_any_scale(self, small_graph, ctx, parts):
        res = run("bfs", small_graph, "cvc", ctx, parts=parts)
        assert np.array_equal(res.labels, reference_bfs(small_graph, ctx.source))

    @pytest.mark.parametrize("parts", [2, 16])
    def test_kcore_any_scale(self, small_sym, ctx, parts):
        res = run("kcore", small_sym, "cvc", ctx, parts=parts)
        mask = KCore.in_core(res.labels.astype(np.int64), ctx.k)
        assert np.array_equal(mask, reference_kcore_mask(small_sym, ctx.k))


# --------------------------------------------------------------------------- #
# why bfs-do stays BSP-only
# --------------------------------------------------------------------------- #
def test_bfsdo_stays_bsp_only(monkeypatch):
    """The committed fuzz reproducer still diverges under forced-async pull.

    Beamer pull finalizes a vertex at its first reached parent, which is
    only the true BFS parent level-synchronously — an algorithmic
    precondition of the pull, not of how it is coded.  If this test ever
    starts failing because the replay *passes*, the pull has become
    async-sound and bfs-do can be re-enabled under BASP; until then it
    stays ``async_capable=False``.
    """
    assert DirectionOptBFS.async_capable is False

    class AsyncDO(DirectionOptBFS):
        async_capable = True

    monkeypatch.setitem(registry.APPS, "bfs-do", AsyncDO)
    case = Case.load(
        str(Path(__file__).parent / "cases" / "bfsdo_async_pull_finalize.json")
    )
    with pytest.raises(CaseFailure):
        run_case(case, check="full")
