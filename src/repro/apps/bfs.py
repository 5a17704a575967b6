"""Breadth-first search: push-style data-driven (D-IrGL/Lux/Groute) and the
direction-optimizing variant Gunrock uses.

Labels are hop distances; the reduction is ``min`` (concurrent relaxations
of the same vertex keep the shortest).  The source is the maximum
out-degree vertex, as the paper specifies.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (
    expand_frontier,
    expand_frontier_blocks,
    merge_touched,
    scatter_min,
)
from repro.comm.gluon import FieldSpec
from repro.constants import INF
from repro.engine.operator import RoundOutput, RunContext, SyncStep, VertexProgram
from repro.partition.base import LocalPartition

__all__ = ["BFS", "DirectionOptBFS"]

_EMPTY = np.empty(0, dtype=np.int64)


class BFS(VertexProgram):
    """Data-driven push BFS."""

    name = "bfs"
    style = "push"
    driven = "data"
    output_field = "dist"

    def fields(self):
        return [
            FieldSpec(
                name="dist", dtype=np.uint32, reduce_op="min",
                read_at="src", write_at="dst", identity=INF,
            )
        ]

    def sync_plan(self):
        return [SyncStep("reduce", "dist"), SyncStep("broadcast", "dist")]

    def init_state(self, part: LocalPartition, ctx: RunContext):
        dist = np.full(part.num_local, INF, dtype=np.uint32)
        if ctx.source is not None:
            l = part.global_to_local[ctx.source]
            if l >= 0:
                dist[l] = 0
        return {"dist": dist}

    def initial_frontier(self, part, ctx, state):
        if ctx.source is None:
            return _EMPTY
        l = part.global_to_local[ctx.source]
        return np.asarray([l], dtype=np.int64) if l >= 0 else _EMPTY

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        dist = state["dist"]
        degrees = self.frontier_degrees(part, frontier)
        # blocked expansion: bounded per-edge temporaries on huge
        # frontiers, a single block (the exact unblocked kernel) otherwise.
        # Relaxations are monotone min, so per-block application changes
        # nothing about the final labels.
        parts, edges = [], 0
        for blk, rep, dsts, _ in expand_frontier_blocks(part.graph, frontier):
            cand = dist[blk[rep]].astype(np.int64) + 1
            parts.append(scatter_min(dist, dsts, cand.astype(np.uint32)))
            edges += len(dsts)
        changed = merge_touched(parts)
        return RoundOutput(
            updated={"dist": changed},
            activated=changed,
            edges_processed=edges,
            frontier_degrees=degrees,
        )


class DirectionOptBFS(BFS):
    """Gunrock's direction-optimizing BFS (Beamer-style push/pull switch).

    When the frontier's out-edges exceed a fraction of the partition's
    edges, a round switches to *pull*: unvisited vertices scan their local
    in-edges for a visited parent.  On low-diameter power-law graphs this
    skips the few giant middle frontiers — Gunrock's algorithmic edge in
    Table II.
    """

    name = "bfs-do"

    #: Beamer-style pull is only sound level-synchronously: a pull round
    #: finalizes a vertex on its *first* visited parent, which is the true
    #: BFS parent only when every partition sits at the same frontier
    #: depth.  Under BASP a partition can race ahead on a long local path,
    #: finalize a vertex too deep, and drop it from the pull pool before
    #: the short cross-partition path arrives — whose activated parent
    #: then lands in a pull round that never rescans visited vertices
    #: (found by repro-fuzz; see tests/cases/bfsdo_async_pull_finalize.json).
    #: Real Gunrock is bulk-synchronous for exactly this reason.
    async_capable = False

    #: switch to pull when frontier out-edges exceed |E_local| / alpha
    alpha: float = 20.0

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        graph = part.graph
        frontier_edges = int(graph.out_degrees()[frontier].sum())
        if frontier_edges * self.alpha <= graph.num_edges:
            return super().compute(part, ctx, state, frontier)

        # ---- pull round: unvisited scan their in-edges ------------------ #
        # The reverse graph and the pool of unvisited vertices with
        # in-edges live in private state (leading underscore: never
        # synchronized).  Distances only drop, so a vertex leaves the pool
        # for good once reached: filtering last round's pool gives the same
        # sorted set a full rescan would, without paying for it every round.
        dist = state["dist"]
        pull = state.get("_do_pull")
        if pull is None:
            rev = graph.reverse()
            rdeg = rev.out_degrees()
            pull = state["_do_pull"] = [rev, rdeg, np.flatnonzero(rdeg > 0)]
        rev, rdeg, pool = pull
        unvisited = pull[2] = pool[dist[pool] == INF]
        step = _pull_candidates(rev, unvisited, dist)
        if step is None:
            return RoundOutput({"dist": _EMPTY}, _EMPTY, 0, np.zeros(0))
        cand, hit, edges = step
        changed = scatter_min(dist, unvisited[hit], cand[hit].astype(np.uint32))
        return RoundOutput(
            updated={"dist": changed},
            activated=changed,
            edges_processed=edges,
            frontier_degrees=rdeg[unvisited].astype(np.float64),
        )


def _pull_candidates(rev, rows: np.ndarray, dist: np.ndarray):
    """One pull round's candidates: each row's minimum ``dist + 1`` over
    its in-neighbours, reached parents only (``INF`` is "unreached").

    Returns ``(cand, hit, edges)`` — the int64 candidate per row, the mask
    of rows that found a reached parent, and the in-edges scanned — or
    ``None`` when the rows have no in-edges at all.
    """
    rep, parents, _ = expand_frontier(rev, rows)
    if len(parents) == 0:
        return None
    src = dist[parents].astype(np.int64)
    valid = src < INF
    cand = np.full(len(rows), INF, dtype=np.int64)
    np.minimum.at(cand, rep[valid], src[valid] + 1)
    return cand, cand < INF, len(parents)
