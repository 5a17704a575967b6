"""Seeded random graph generation for the fuzzer.

Each shape is a function ``(rng) -> CSRGraph`` drawing its parameters from
the supplied :class:`numpy.random.Generator`; determinism therefore hangs
entirely on the fuzzer's seed.  The catalog deliberately over-weights the
degenerate shapes that three PRs of optimization never exercised: empty
graphs, single vertices, pure self-loop graphs, disconnected unions, and
duplicate (multi-)edges — alongside scaled-down versions of the study's
real distributions (R-MAT, power-law, small-world).

Weights are always attached so every app (sssp included) can run on every
generated graph.
"""

from __future__ import annotations

import numpy as np

from repro.generators.powerlaw import powerlaw_social
from repro.generators.rmat import rmat
from repro.generators.smallworld import small_world
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.transform import add_random_weights

__all__ = ["SHAPES", "random_graph", "build_shape", "dense_graph"]

_MAX_N = 40


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _gnm(rng) -> CSRGraph:
    n = int(rng.integers(2, _MAX_N + 1))
    m = int(rng.integers(0, 4 * n + 1))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return from_edges(src, dst, num_vertices=n, name="fuzz-gnm")


def _rmat(rng) -> CSRGraph:
    scale = int(rng.integers(2, 6))  # 4..32 vertices
    return rmat(scale, edge_factor=float(rng.integers(1, 6)), seed=_seed(rng))


def _powerlaw(rng) -> CSRGraph:
    n = int(rng.integers(4, _MAX_N + 1))
    return powerlaw_social(n, avg_degree=float(rng.integers(1, 5)),
                           seed=_seed(rng))


def _smallworld(rng) -> CSRGraph:
    n = int(rng.integers(4, _MAX_N + 1))
    k = min(2 * int(rng.integers(1, 3)), n - 1)
    return small_world(n, k=k,
                       rewire_p=float(rng.uniform(0.0, 0.5)), seed=_seed(rng))


def _empty(rng) -> CSRGraph:
    n = int(rng.integers(1, _MAX_N + 1))
    e = np.empty(0, dtype=np.int64)
    return from_edges(e, e, num_vertices=n, name="fuzz-empty")


def _single_vertex(rng) -> CSRGraph:
    if rng.integers(0, 2):
        return from_edges([0], [0], num_vertices=1, name="fuzz-single-loop")
    e = np.empty(0, dtype=np.int64)
    return from_edges(e, e, num_vertices=1, name="fuzz-single")


def _self_loops(rng) -> CSRGraph:
    n = int(rng.integers(2, _MAX_N + 1))
    v = np.arange(n)
    return from_edges(v, v, num_vertices=n, name="fuzz-selfloops")


def _disconnected(rng) -> CSRGraph:
    """Two components: a path and a cycle, no edge between them."""
    a = int(rng.integers(2, _MAX_N // 2 + 1))
    b = int(rng.integers(2, _MAX_N // 2 + 1))
    src = np.concatenate([np.arange(a - 1), a + np.arange(b)])
    dst = np.concatenate([np.arange(1, a), a + (np.arange(b) + 1) % b])
    return from_edges(src, dst, num_vertices=a + b, name="fuzz-disconnected")


def _duplicates(rng) -> CSRGraph:
    n = int(rng.integers(2, 16))
    m = int(rng.integers(1, 3 * n))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    rep = int(rng.integers(2, 4))
    return from_edges(np.tile(src, rep), np.tile(dst, rep),
                      num_vertices=n, name="fuzz-duplicates")


def _star(rng) -> CSRGraph:
    n = int(rng.integers(3, _MAX_N + 1))
    hub_out = bool(rng.integers(0, 2))
    spokes = np.arange(1, n)
    hub = np.zeros(n - 1, dtype=np.int64)
    src, dst = (hub, spokes) if hub_out else (spokes, hub)
    return from_edges(src, dst, num_vertices=n, name="fuzz-star")


def _path(rng) -> CSRGraph:
    n = int(rng.integers(2, _MAX_N + 1))
    return from_edges(np.arange(n - 1), np.arange(1, n),
                      num_vertices=n, name="fuzz-path")


def _cycle(rng) -> CSRGraph:
    n = int(rng.integers(3, _MAX_N + 1))
    v = np.arange(n)
    return from_edges(v, (v + 1) % n, num_vertices=n, name="fuzz-cycle")


def _complete(rng) -> CSRGraph:
    n = int(rng.integers(2, 9))
    src, dst = np.divmod(np.arange(n * n), n)
    keep = src != dst
    return from_edges(src[keep], dst[keep], num_vertices=n,
                      name="fuzz-complete")


#: shape name -> generator; names are recorded in case files for triage
SHAPES = {
    "gnm": _gnm,
    "rmat": _rmat,
    "powerlaw": _powerlaw,
    "smallworld": _smallworld,
    "empty": _empty,
    "single-vertex": _single_vertex,
    "self-loops": _self_loops,
    "disconnected": _disconnected,
    "duplicate-edges": _duplicates,
    "star": _star,
    "path": _path,
    "cycle": _cycle,
    "complete": _complete,
}


def dense_graph(n: int, seed: int = 0) -> CSRGraph:
    """Deterministic weighted complete digraph (no self-loops).

    Every frontier is edge-heavy relative to ``|E|`` (``frontier_edges *
    alpha > |E|`` whenever ``n < alpha``), so direction-optimized
    traversal *pulls from round one* — the mutation battery uses this to
    pin the pull path deterministically.
    """
    src, dst = np.divmod(np.arange(n * n), n)
    keep = src != dst
    g = from_edges(src[keep], dst[keep], num_vertices=n,
                   name=f"fuzz-dense{n}")
    return add_random_weights(g, seed=seed)


def build_shape(name: str, rng) -> CSRGraph:
    graph = SHAPES[name](rng)
    return add_random_weights(graph, seed=_seed(rng))


def random_graph(rng) -> tuple[str, CSRGraph]:
    """Draw a shape (degenerates over-weighted 2x) and build it."""
    names = list(SHAPES)
    degenerate = ["empty", "single-vertex", "self-loops", "disconnected",
                  "duplicate-edges"]
    weights = np.asarray(
        [2.0 if n in degenerate else 1.0 for n in names]
    )
    name = str(rng.choice(names, p=weights / weights.sum()))
    return name, build_shape(name, rng)
