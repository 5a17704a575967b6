"""The three workloads: inputs from the seed, set-up, one timed pass.

Every op's deterministic outputs are compared against ``expected.json``.
So that a stored answer exists for any seed, each workload draws its
inputs from a fixed, finite universe and the seed picks from it:

* ``dense-matrix`` runs the whole configuration matrix; the seed picks
  the order.
* ``crawl-queries`` draws sources from a fixed pool of vertices with
  out-degree > 0, without repeats until the pool is used up; the seed
  picks the sources and the order.
* ``serve-mutate`` serves a fixed set of traffic traces; the seed picks
  the order.  (Letting the seed pick the traces from a larger pool moved
  ``ops_per_s`` by about 20% between seeds: each trace's hot keys fall
  on different apps, so the traces differ several-fold in cost.)

Load comes from this one process: the serial engine executor and a
``jobs=1`` sweep executor, so no process pool is started.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import time
import zlib
from dataclasses import dataclass

import numpy as np

from repro.comm.gluon import GluonComm
from repro.errors import ReproError
from repro.frameworks.dirgl import DIrGL
from repro.generators import datasets
from repro.partition import cache as pcache
from repro.partition import partition
from repro.runtime.sweep import SweepExecutor
from repro.serve.service import AnalyticsService, ServeConfig
from repro.serve.traffic import TrafficConfig, generate_trace
from repro.apps import get_app

__all__ = ["WORKLOADS", "Op", "run_op"]


def _clear_load_cache() -> None:
    fn = datasets.load_dataset
    # while traced, the module attribute is the wrapper around the cache
    (getattr(fn, "cache_clear", None) or fn.__wrapped__.cache_clear)()


@dataclass(frozen=True)
class Op:
    """One engine run: ``DIrGL(policy, ...).run(app, dataset, parts)``."""

    app: str
    dataset: str
    policy: str
    execution: str  # "sync" (BSP) | "async" (BASP)
    update_only: bool  # UO, else AS
    parts: int
    source: int | None = None

    @property
    def key(self) -> str:
        comm = "uo" if self.update_only else "as"
        model = "bsp" if self.execution == "sync" else "basp"
        src = "" if self.source is None else f"/src={self.source}"
        return (
            f"{self.app}/{self.dataset}/{self.policy}/{model}/{comm}"
            f"/p{self.parts}{src}"
        )


def run_op(op: Op, data: dict) -> dict:
    """Run one op; returns its deterministic outputs."""
    fw = DIrGL(op.policy, update_only=op.update_only, execution=op.execution)
    overrides = {} if op.source is None else {"source": op.source}
    try:
        res = fw.run(op.app, data[op.dataset], op.parts, **overrides)
    except ReproError as e:
        return {"failure": type(e).__name__}
    s = res.stats
    return {
        "crc": zlib.crc32(np.ascontiguousarray(res.labels).tobytes()),
        "rounds": int(s.rounds),
        "messages": int(s.num_messages),
        "wire_bytes": float(s.comm_volume_bytes),
        "sim_s": float(s.execution_time),
        "failure": "",
    }


class EngineWorkload:
    """Shared shape of the two engine workloads (op = ``Framework.run``)."""

    name = ""
    datasets: tuple[str, ...] = ()

    def ops(self, seed: int, data: dict) -> list[Op]:
        raise NotImplementedError

    def universe(self, data: dict) -> list[Op]:
        """Every op any seed can draw (what ``expected.json`` covers)."""
        raise NotImplementedError

    def setup(self, seed: int, workdir: str) -> dict:
        """Cold set-up: generate, symmetrize, partition, memoize plans."""
        _clear_load_cache()
        pcache.clear()
        data = {name: datasets.load_dataset(name) for name in self.datasets}
        for ds in data.values():
            # every run reads the symmetrized degrees (kcore's k, the
            # balancer's degree view), so the first would pay for it
            ds.symmetric()
        ops = self.ops(seed, data)
        seen = set()
        for op in ops:
            ds = data[op.dataset]
            app = get_app(op.app)
            graph = ds.symmetric() if app.needs_symmetric else ds.graph
            key = (op.dataset, app.needs_symmetric, op.policy, op.parts, op.app)
            if key in seen:
                continue
            seen.add(key)
            # constructing the sync substrate memoizes its plans on the
            # cached partitioning, as the first run would
            GluonComm(partition(graph, op.policy, op.parts), app.fields())
        data["ops"] = ops
        return data

    def run_pass(self, data: dict, expected: dict, on_op, between) -> dict:
        """Run every op once.  ``on_op(op, fn)`` makes the call (tracing
        wraps it); ``between()`` runs after each op, outside its time.
        Each op is one unit ``(wall, [op wall])``."""
        units, failed = [], 0
        for op in data["ops"]:
            t = time.perf_counter()
            out = on_op(op, lambda op=op: run_op(op, data))
            t = time.perf_counter() - t
            units.append((t, [t]))
            between()
            if out["failure"] or out != expected.get(op.key):
                failed += 1
        return {"ops": len(units), "failed": failed, "units": units}

    def teardown(self, data: dict) -> None:
        data.clear()

    def extra(self, data: dict) -> dict:
        return {}


class DenseMatrix(EngineWorkload):
    name = "dense-matrix"
    datasets = ("orkut-s",)
    APPS = ("bfs", "pr", "cc", "kcore")
    POLICIES = ("iec", "oec", "hvc", "cvc")
    PARTS = (4, 8)

    def universe(self, data=None) -> list[Op]:
        return [
            Op(app, "orkut-s", pol, ex, uo, parts)
            for app in self.APPS
            for pol in self.POLICIES
            for ex in ("sync", "async")
            for uo in (False, True)
            for parts in self.PARTS
        ]

    def ops(self, seed: int, data: dict) -> list[Op]:
        ops = self.universe()
        order = np.random.default_rng([seed, 1]).permutation(len(ops))
        return [ops[i] for i in order]


class CrawlQueries(EngineWorkload):
    name = "crawl-queries"
    datasets = ("uk07-s",)
    PARTS = 32
    #: (app, policy, execution) -> queries per pass
    MIX = {
        ("bfs", "cvc", "sync"): 80,
        ("bfs", "hvc", "async"): 18,
        ("sssp", "cvc", "sync"): 2,
    }
    POOL = 48
    POOL_SEED = 20260

    def pool(self, data: dict) -> list[int]:
        graph = data["uk07-s"].graph
        cand = np.flatnonzero(graph.out_degrees() > 0)
        rng = np.random.default_rng(self.POOL_SEED)
        return sorted(int(v) for v in rng.choice(cand, self.POOL, replace=False))

    def universe(self, data: dict) -> list[Op]:
        return [
            Op(app, "uk07-s", pol, ex, True, self.PARTS, src)
            for (app, pol, ex) in self.MIX
            for src in self.pool(data)
        ]

    def ops(self, seed: int, data: dict) -> list[Op]:
        rng = np.random.default_rng([seed, 2])
        pool = self.pool(data)
        # each kind of query walks a seeded permutation of the pool, so a
        # run repeats no source before it has used every one: a few
        # expensive sources cannot pile up in one seed's BASP queries
        ops = [
            Op(app, "uk07-s", pol, ex, True, self.PARTS, int(src))
            for (app, pol, ex), n in self.MIX.items()
            for src in np.resize(rng.permutation(pool), n)
        ]
        return [ops[i] for i in rng.permutation(len(ops))]


class _CellLog(logging.Handler):
    """Collects each engine run's host seconds from the sweep executor's
    progress records (``CellOutcome.elapsed``), without patching."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.elapsed: list[float] = []

    def emit(self, record) -> None:
        self.elapsed.append(float(record.args[-1]))


class ServeMutate:
    name = "serve-mutate"
    #: traffic seeds of the traces a pass serves, each by a fresh service
    TRACES = tuple(range(10))
    REQUESTS = 100

    def __init__(self):
        self._setups = 0

    def traffic(self, traffic_seed: int) -> TrafficConfig:
        return TrafficConfig(
            seed=traffic_seed,
            num_clients=4,
            num_requests=self.REQUESTS,
            mean_interarrival=0.002,
            apps=("bfs", "sssp", "cc", "pr"),
            graphs=((12, 4.0), (13, 4.0)),
            mutate_every=5,
        )

    def traffic_seeds(self, seed: int) -> list[int]:
        order = np.random.default_rng([seed, 3]).permutation(len(self.TRACES))
        return [self.TRACES[i] for i in order]

    def setup(self, seed: int, workdir: str, traffic_seeds=None) -> dict:
        """Trace generation plus construction of the executor and one
        service per trace (cold partition cache, empty spool)."""
        if traffic_seeds is None:
            traffic_seeds = self.traffic_seeds(seed)
        # a fresh directory per set-up: the executor then installs a new,
        # cold partition cache over it
        self._setups += 1
        spool = os.path.join(workdir, f"spool{self._setups}")
        executor = SweepExecutor(
            jobs=1, cache_dir=os.path.join(spool, "partition-cache")
        )
        config = ServeConfig(workers=2, parts=4)
        runs = []
        for ts in traffic_seeds:
            trace = generate_trace(self.traffic(ts))
            service = AnalyticsService(
                config, executor, os.path.join(spool, f"t{ts}")
            )
            runs.append((ts, trace, service))
        return {"executor": executor, "runs": runs, "spool": spool,
                "reports": []}

    def run_pass(self, data: dict, expected: dict, on_op, between) -> dict:
        """Serve every trace once; each trace is one unit ``(wall, host
        seconds of the engine runs it made)``."""
        cells = _CellLog()
        sweep_log = logging.getLogger("repro.runtime.sweep")
        level = sweep_log.level
        sweep_log.addHandler(cells)
        sweep_log.setLevel(logging.INFO)
        requests, failed, units = 0, 0, []
        try:
            for ts, trace, service in data["runs"]:
                first = len(cells.elapsed)
                t = time.perf_counter()
                report = on_op(None, lambda s=service, tr=trace: s.run(tr))
                units.append((time.perf_counter() - t, cells.elapsed[first:]))
                between()
                data["reports"].append(report)
                requests += len(report.requests)
                failed += self.check(report, expected.get(str(ts)))
        finally:
            sweep_log.removeHandler(cells)
            sweep_log.setLevel(level)
        return {"ops": requests, "failed": failed, "units": units}

    @staticmethod
    def outputs(report) -> dict:
        return {
            "counters": report.counters,
            "latency": report.latency,
            "requests": [
                zlib.crc32(json.dumps(r, sort_keys=True).encode())
                for r in report.requests
            ],
        }

    def check(self, report, want: dict | None) -> int:
        """Requests that failed, were rejected, or differ from ``want``;
        every request when the report's counters or latencies differ."""
        got = self.outputs(report)
        n = len(report.requests)
        if want is None or got["counters"] != want["counters"] \
                or got["latency"] != want["latency"] \
                or len(want["requests"]) != n:
            return n
        return sum(
            1 for r, g, w in zip(report.requests, got["requests"],
                                 want["requests"])
            if g != w or r["served_by"] in ("failed", "rejected")
        )

    def teardown(self, data: dict) -> None:
        data["executor"].close()
        shutil.rmtree(data["spool"], ignore_errors=True)
        data.clear()

    def extra(self, data: dict) -> dict:
        c = {k: 0 for k in ("requests", "cache_hits", "delta_runs",
                            "executions")}
        for report in data["reports"]:
            for k in c:
                c[k] += report.counters[k]
        return {f"serve_{k}": v for k, v in c.items()}


WORKLOADS = {w.name: w for w in (DenseMatrix(), CrawlQueries(), ServeMutate())}
