"""Per-layer host-time attribution, recorded from outside the program.

Every layer boundary is a public callable of a ``repro`` module.  While a
:class:`SpanLog` is installed, each one is replaced *at the name its
caller resolves* (a module attribute, a class attribute or a registry
entry) by a wrapper that records one span: layer name, start, end and
parent.  Spans live in flat arrays in memory and are written to an
``.npz`` file when the run ends.  Uninstalling restores the originals;
:func:`unpatched` checks that an untraced run never saw a wrapper.

A layer's *self* time is its span's duration minus the durations of its
direct child spans.  A call into a layer that is already the innermost
open span (a subclass calling ``super()``, ``SweepExecutor.map`` calling
``run_task``) is not recorded again, so ``calls`` counts entries into the
layer.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from repro.apps.registry import APPS
from repro.comm import gluon
from repro.engine import basp, bsp, costmodel
from repro.generators import datasets
from repro.graph import mutable
from repro.partition import cache as pcache
from repro.partition import cusp
from repro.runtime import sweep
from repro.serve import backend

__all__ = ["ROOT", "SpanLog", "targets", "unpatched", "layer_metrics"]

#: name of the span the benchmark opens around each timed op
ROOT = "op"

#: policies the workloads partition with (their builders are wrapped in
#: the partitioner's registry, which is the name ``partition`` resolves)
_POLICIES = ("iec", "oec", "hvc", "cvc")


def _count_batch(log, args, out):
    log.counts["engine.price.msgs"] += len(args[1])


def _count_one(log, args, out):
    log.counts["engine.price.msgs"] += 1


def _count_useful(log, args, out):
    if out:
        log.counts["comm.extract.useful"] += 1


def _count_edges(log, args, out):
    log.counts["apps.edges"] += int(out.edges_processed)


def _count_rounds(log, args, out):
    rounds = int(out.stats.rounds)
    log.counts["engine.rounds"] += rounds
    log.counts["engine.part_rounds"] += rounds * args[0].pg.num_partitions


def targets():
    """``(owner, attribute, layer, on_result)`` for every wrapped callable.

    ``owner`` is a module, a class or a dict; ``on_result`` (or ``None``)
    is called as ``on_result(log, args, result)`` after the call returns.
    """
    out = [
        (datasets, "load_dataset", "generators.load", None),
        (datasets.Dataset, "symmetric", "graph.symmetrize", None),
        (mutable.MutableGraph, "snapshot", "graph.snapshot", None),
        (backend, "write_csr_store", "graph.store", None),
        (backend, "build_partitions", "partition.build", None),
        (backend, "partition_stats", "partition.stats", None),
        (pcache.PartitionCache, "lookup_or_build", "partition.cache.lookup", None),
        (pcache.PartitionCache, "get", "partition.cache.lookup", None),
        (pcache.PartitionCache, "_store", "partition.cache.store", None),
        (gluon.GluonComm, "__init__", "comm.plan", None),
        (gluon.GluonComm, "make_reduce_messages", "comm.extract", _count_useful),
        (gluon.GluonComm, "make_broadcast_messages", "comm.extract", _count_useful),
        (gluon.GluonComm, "apply_reduce", "comm.apply", None),
        (gluon.GluonComm, "apply_broadcast", "comm.apply", None),
        (costmodel.CostModel, "compute_time", "loadbalance.cost", None),
        (costmodel.CostModel, "price_batch", "engine.price", _count_batch),
        (costmodel.CostModel, "price_batch_scalar", "engine.price", _count_batch),
        (costmodel.CostModel, "legs", "engine.price", _count_one),
        (costmodel.CostModel, "route_step", "engine.price", None),
        (bsp.BSPEngine, "run", "engine", _count_rounds),
        (basp.BASPEngine, "run", "engine", _count_rounds),
        (sweep.SweepExecutor, "map", "runtime.run_task", None),
        (sweep, "run_task", "runtime.run_task", None),
        (backend, "incremental_run", "serve.incremental", None),
    ]
    out += [(cusp.POLICIES, p, "partition.build", None) for p in _POLICIES]
    seen = set()
    for cls in APPS.values():
        for klass in cls.__mro__:
            for attr, layer, hook in (
                ("compute", "apps.compute", _count_edges),
                ("master_compute", "apps.master", None),
            ):
                if attr in vars(klass) and (klass, attr) not in seen:
                    seen.add((klass, attr))
                    out.append((klass, attr, layer, hook))
    return out


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


#: the callables as imported, before any run could patch them
_ORIGINALS = [(o, a, _get(o, a)) for o, a, _, _ in targets()]


def unpatched() -> list[str]:
    """Names of wrapped targets that do not hold their original callable."""
    return [
        f"{getattr(o, '__name__', 'registry')}.{a}"
        for o, a, fn in _ORIGINALS
        if _get(o, a) is not fn
    ]


class SpanLog:
    """Flat in-memory span store plus the per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {
            "engine.price.msgs": 0,
            "comm.extract.useful": 0,
            "apps.edges": 0,
            "engine.rounds": 0,
            "engine.part_rounds": 0,
        }
        self._saved: list = []

    # ------------------------------------------------------------------ #
    def begin(self, layer: str) -> int:
        nid = self._ids.get(layer)
        if nid is None:
            nid = self._ids[layer] = len(self.names)
            self.names.append(layer)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer: str, hook):
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = log.stack
            if stack and log.names[log.name[stack[-1]]] == layer:
                return fn(*args, **kwargs)
            idx = log.begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.finish(idx)
            if hook is not None:
                hook(log, args, out)
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, layer, hook in targets():
            fn = _get(owner, attr)
            self._saved.append((owner, attr, fn))
            _set(owner, attr, self._wrap(fn, layer, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            _set(owner, attr, fn)

    def __enter__(self) -> "SpanLog":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per-layer ``{"s": self seconds, "incl": inclusive seconds,
        "calls": count}`` over spans ``lo..hi``; a span's duration is
        subtracted from its direct parent's self time only."""
        a = self.arrays()
        hi = len(a["start"]) if hi is None else hi
        name, parent = a["name"][lo:hi], a["parent"][lo:hi]
        dur = a["end"][lo:hi] - a["start"][lo:hi]
        self_t = dur.copy()
        inside = parent >= lo
        np.subtract.at(self_t, parent[inside] - lo, dur[inside])
        out = {}
        for nid, layer in enumerate(self.names):
            sel = name == nid
            out[layer] = {
                "s": float(self_t[sel].sum()),
                "incl": float(dur[sel].sum()),
                "calls": int(sel.sum()),
            }
        return out


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(setup: dict, timed: dict, counts: dict, extra: dict) -> dict:
    """The per-layer metric table: ``name -> (value, unit, note)``.

    ``setup`` and ``timed`` are :meth:`SpanLog.totals` of the two phases,
    ``counts`` the counters of the timed phase, ``extra`` the workload's
    own figures (cache statistics, serve counters, the two walls).
    """

    def t(layer, key="s"):
        return timed.get(layer, {}).get(key, 0)

    def st(layer):
        return setup.get(layer, {}).get("s", 0.0)

    lookups = t("partition.cache.lookup", "calls")
    extract_calls = t("comm.extract", "calls")
    price_calls = t("engine.price", "calls")
    part_rounds = counts["engine.part_rounds"]
    op_wall = t(ROOT, "incl")
    m = {}
    for layer in (
        "generators.load", "graph.symmetrize", "partition.build", "comm.plan"
    ):
        m[f"setup.{layer}.s"] = (st(layer), "s", "")
    m.update({
        "generators.load.s": (t("generators.load"), "s", ""),
        "graph.symmetrize.s": (t("graph.symmetrize"), "s", ""),
        "graph.snapshot.s": (t("graph.snapshot"), "s", ""),
        "graph.snapshot.calls": (t("graph.snapshot", "calls"), "count", ""),
        "graph.store.s": (t("graph.store"), "s", ""),
        "partition.build.s": (t("partition.build"), "s", ""),
        "partition.build.calls": (t("partition.build", "calls"), "count", ""),
        "partition.cache.hit_ratio": (
            _ratio(extra["cache_hits"], lookups), "ratio",
            f"base partition.cache.lookups={lookups}",
        ),
        "partition.cache.lookups": (lookups, "count", ""),
        "partition.cache.store.s": (t("partition.cache.store"), "s", ""),
        "comm.plan.s": (t("comm.plan"), "s", ""),
        "apps.compute.s": (t("apps.compute"), "s", ""),
        "apps.compute.calls": (t("apps.compute", "calls"), "count", ""),
        "apps.master.s": (t("apps.master"), "s", ""),
        "apps.edges_per_s": (
            _ratio(counts["apps.edges"], t("apps.compute")), "edges/s",
            f"base apps.edges={counts['apps.edges']}",
        ),
        "loadbalance.cost.s": (t("loadbalance.cost"), "s", ""),
        "loadbalance.cost.calls": (t("loadbalance.cost", "calls"), "count", ""),
        "comm.extract.s": (t("comm.extract"), "s", ""),
        "comm.extract.calls": (extract_calls, "count", ""),
        "comm.extract.useful_ratio": (
            _ratio(counts["comm.extract.useful"], extract_calls), "ratio",
            f"base comm.extract.calls={extract_calls}",
        ),
        "comm.apply.s": (t("comm.apply"), "s", ""),
        "comm.apply.calls": (t("comm.apply", "calls"), "count", ""),
        "engine.price.s": (t("engine.price"), "s", ""),
        "engine.price.calls": (price_calls, "count", ""),
        "engine.price.msgs_per_call": (
            _ratio(counts["engine.price.msgs"], price_calls), "msgs",
            f"base engine.price.calls={price_calls}",
        ),
        "engine.self.s": (t("engine"), "s", ""),
        "engine.rounds": (counts["engine.rounds"], "count", ""),
        "engine.host_us_per_part_round": (
            1e6 * _ratio(t("engine", "incl"), part_rounds), "us",
            f"base rounds*partitions={part_rounds}",
        ),
        "runtime.run_task.s": (t("runtime.run_task"), "s", ""),
        "runtime.run_task.calls": (t("runtime.run_task", "calls"), "count", ""),
        "serve.incremental.s": (t("serve.incremental"), "s", ""),
        "serve.incremental.calls": (
            t("serve.incremental", "calls"), "count", ""
        ),
        "serve.cache_hit_ratio": (
            _ratio(extra["serve_cache_hits"], extra["serve_requests"]), "ratio",
            f"base serve requests={extra['serve_requests']}",
        ),
        "serve.delta_ratio": (
            _ratio(extra["serve_delta_runs"], extra["serve_executions"]),
            "ratio", f"base serve executions={extra['serve_executions']}",
        ),
        "op.wall.s": (op_wall, "s", ""),
        "trace.overhead_frac": (
            extra["traced_wall"] / extra["untraced_wall"] - 1.0, "frac",
            f"base untraced wall={extra['untraced_wall']:.3f}s at reference speed",
        ),
        "trace.unattributed_frac": (
            _ratio(t(ROOT), op_wall), "frac", f"base op wall={op_wall:.3f}s"
        ),
    })
    return m
