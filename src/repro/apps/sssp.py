"""Single-source shortest paths: data-driven push relaxation over the
randomized edge weights the paper attaches to every input."""

from __future__ import annotations

import numpy as np

from repro.apps.bfs import BFS
from repro.apps.common import expand_frontier, scatter_min
from repro.engine.operator import RoundOutput

__all__ = ["SSSP"]


class SSSP(BFS):
    """Chaotic-relaxation SSSP (Bellman-Ford style, frontier-driven).

    Identical sync contract to bfs (min-reduced ``dist``); the candidate
    distance adds the edge weight instead of 1 — the same min-plus
    semiring, with the explicit weight.
    """

    name = "sssp"
    needs_weights = True

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        dist = state["dist"]
        degrees = self.frontier_degrees(part, frontier)
        rep, dsts, w = expand_frontier(part.graph, frontier, with_weights=True)
        cand = dist[frontier[rep]].astype(np.int64) + w.astype(np.int64)
        changed = scatter_min(dist, dsts, cand.astype(np.uint32))
        return RoundOutput(
            updated={"dist": changed},
            activated=changed,
            edges_processed=len(dsts),
            frontier_degrees=degrees,
        )
