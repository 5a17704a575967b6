"""The round step both execution engines share (Section III-B).

The paper's BSP and BASP models differ only in *when* partitions
synchronize.  Everything else is one pipeline, defined here once:

    compute -> merge (dirty bits, candidates) -> master -> extract
            -> price -> apply -> account

together with the run bracket around it: construction checks,
``RunStats`` and memory set-up, per-partition state and label views, the
invariant-check hooks, the paper's time breakdown, the run summary and
the master-label gather.  :class:`~repro.engine.bsp.BSPEngine` schedules
the step behind a global barrier; :class:`~repro.engine.basp.BASPEngine`
schedules it from per-partition local clocks.  Each engine's ``run`` is
its scheduler and nothing else.

The step is deliberately phase-granular, not one opaque call: a BSP round
runs every partition's compute before any sync step, while a BASP local
round runs one partition through all of them.  The phase methods below
are what both schedulers compose; per-message loops (apply, drain) stay
inline in the schedulers so the hot paths pay no extra call layer.
"""

from __future__ import annotations

import numpy as np

from repro.comm.gluon import CommConfig, GluonComm
from repro.engine.costmodel import CostModel
from repro.engine.operator import RunContext, VertexProgram
from repro.engine.result import RunResult
from repro.errors import ConfigurationError
from repro.hw.cluster import Cluster
from repro.hw.memory import MemoryModel, MemoryProfile, DIRGL_PROFILE
from repro.loadbalance.base import LoadBalancer, get_balancer
from repro.metrics.stats import RunStats
from repro.partition.base import PartitionedGraph

__all__ = ["RoundPipeline"]


class RoundPipeline:
    """Engine base class: the shared round step and run bracket.

    Subclasses set ``execution_model`` and implement ``run`` as
    ``_open`` -> their schedule of the phase methods -> ``_close``.
    """

    execution_model = ""

    def __init__(
        self,
        pg: PartitionedGraph,
        cluster: Cluster,
        app: VertexProgram,
        comm_config: CommConfig = CommConfig(),
        balancer: LoadBalancer | str = "alb",
        scale_factor: float = 1.0,
        memory_profile: MemoryProfile = DIRGL_PROFILE,
        check_memory: bool = True,
        overlap_comm: float = 0.0,
        fault_plan=None,
        tracer=None,
        check=None,
    ):
        """``overlap_comm`` in [0, 1] hides that fraction of host-device
        communication under computation (async cudaMemcpy + double
        buffering, Section V-C); each engine documents how it spends the
        hiding budget.  ``fault_plan`` (a
        :class:`~repro.engine.faults.FaultPlan`) injects deterministic
        simulated crashes.  ``tracer`` (a :class:`repro.obs.Tracer`)
        records spans; disabled tracers are normalized to ``None`` so the
        hot loops pay one ``is not None`` test.  ``check`` selects the
        runtime invariant-checking level (see :mod:`repro.check`);
        ``None`` reads the ambient level."""
        from repro.check.level import resolve_check_level

        if isinstance(balancer, str):
            balancer = get_balancer(balancer)
        if not 0.0 <= overlap_comm <= 1.0:
            raise ConfigurationError("overlap_comm must be within [0, 1]")
        self.tracer = tracer if (tracer is not None and tracer.enabled) else None
        self.check_level = resolve_check_level(check)
        self.pg = pg
        self.cluster = cluster
        self.app = app
        self.comm = GluonComm(
            pg, app.fields(), comm_config, tracer=self.tracer,
            check=self.check_level,
        )
        self.cost = CostModel(cluster, balancer, scale_factor)
        self.memory = MemoryModel(memory_profile, scale_factor)
        self.check_memory = check_memory
        self.overlap_comm = float(overlap_comm)
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------ #
    # run bracket
    # ------------------------------------------------------------------ #
    def _open(self, ctx: RunContext) -> None:
        """Set up one run: statistics, memory check, state, label views,
        the sync plan, the invariant checks and the run span."""
        pg, app, comm, cost = self.pg, self.app, self.comm, self.cost
        P = pg.num_partitions
        tracer = self.tracer
        if tracer is not None:
            for p in range(P):
                tracer.thread_name(p, f"partition {p}")
            tracer.thread_name(P, "engine")

        self.ctx = ctx
        self.stats = stats = RunStats(
            benchmark=app.name,
            dataset=pg.global_graph.name,
            policy=pg.policy,
            num_gpus=P,
            replication_factor=pg.replication_factor,
        )
        usage = self.memory.usage(
            self.cluster,
            pg.local_vertex_counts(),
            pg.local_edge_counts(),
            num_label_fields=len(app.fields()),
            weighted=pg.global_graph.has_weights,
            check=self.check_memory,
        )
        stats.memory_max_bytes = usage.max_bytes
        stats.memory_mean_bytes = usage.mean_bytes

        self.state = state = [app.init_state(p, ctx) for p in pg.parts]
        self.views = {
            f: [state[p][f] for p in range(P)] for f in app.field_names()
        }
        self.plan = app.sync_plan()
        self.activating = app.activating_fields()
        # resolved per run, not per construction: callers may switch a
        # constructed engine to scalar-reference pricing before running
        self.sync_ops = {
            "reduce": (comm.make_reduce_messages, comm.apply_reduce),
            "broadcast": (comm.make_broadcast_messages, comm.apply_broadcast),
        }
        self.price = (
            cost.price_batch_scalar if comm.use_scalar_extraction
            else cost.price_batch
        )
        # host-aware communication: two-level sync and/or shared-resource
        # queues schedule the network legs through the router; with both
        # off the flat per-message legs are used untouched
        self.hier = comm.config.hierarchical
        self.netmode = self.hier or cost.contention is not None
        self.host_of = np.asarray(self.cluster.host_of, dtype=np.int64)

        # invariant checking: two precomputed booleans keep the per-round
        # cost at OFF to exactly these falsy tests
        self.check_cheap = bool(self.check_level)
        self.check_full = self.check_level >= 2  # CheckLevel.FULL
        self.watch = None
        if self.check_cheap:
            from repro.check import MonotoneWatch, check_partition

            check_partition(pg, self.check_level)
            if self.check_full:
                self.watch = MonotoneWatch(app.fields(), P)

        self.run_ev = None
        if tracer is not None:
            self.run_ev = tracer.begin(
                f"{self.execution_model}.run",
                "engine",
                tid=P,
                args={"benchmark": app.name, "dataset": pg.global_graph.name},
            )

    def _close(self) -> RunResult:
        """Derive the time breakdown, run the final checks, emit the run
        summary and gather the answer from the master proxies."""
        pg, app, state, stats = self.pg, self.app, self.state, self.stats
        P = pg.num_partitions
        stats.finalize_breakdown()
        if self.check_cheap:
            from repro.check import check_final_stats

            check_final_stats(stats)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant(
                "run_summary",
                "run",
                tid=P,
                args={
                    "execution_time": stats.execution_time,
                    "max_compute": stats.max_compute,
                    "min_wait": stats.min_wait,
                    "device_comm": stats.device_comm,
                    "rounds": stats.rounds,
                    "num_messages": stats.num_messages,
                    "inter_host_messages": stats.inter_host_messages,
                    "comm_volume_bytes": stats.comm_volume_bytes,
                },
            )
            contention = self.cost.contention
            if contention is not None:
                # per-resource busy/queue spans for `repro-trace summarize`
                for key, rst in sorted(contention.stats.items()):
                    base = f"contention.{key[0]}.{key[1]}"
                    tracer.count(f"{base}.busy_s", rst.busy_s)
                    tracer.count(f"{base}.queue_s", rst.queue_s)
                    tracer.count(f"{base}.messages", rst.messages)
            tracer.end(self.run_ev, rounds=stats.rounds)
        labels = pg.gather_master_labels(
            [state[p][app.output_field] for p in range(P)]
        )
        extra = {
            f: pg.gather_master_labels([state[p][f] for p in range(P)])
            for f in app.extra_outputs
        }
        return RunResult(labels=labels, stats=stats, extra=extra)

    def _check_synced(self) -> None:
        """FULL checks once a sync is complete: masters dominate their
        plan partners (and ``write_at="master"`` fields agree exactly) on
        every broadcast field."""
        from repro.check import check_post_sync

        for step in self.plan:
            if step.kind == "broadcast":
                check_post_sync(self.comm, step.field, self.views[step.field])

    # ------------------------------------------------------------------ #
    # the round step
    # ------------------------------------------------------------------ #
    def _compute(self, p: int, frontier: np.ndarray, sink: list, rnd=None):
        """Compute on partition ``p``'s frontier and merge the result:
        updated ids into the dirty bits, activated ids into ``sink``.
        Returns ``(RoundOutput, priced compute seconds)``."""
        tracer = self.tracer
        if tracer is not None:
            args = {"frontier_size": len(frontier)}
            if rnd is not None:
                args["round"] = rnd
            ev = tracer.begin("compute", "compute", tid=p, args=args)
        out = self.app.compute(self.pg.parts[p], self.ctx, self.state[p], frontier)
        if tracer is not None:
            tracer.end(ev, edges=out.edges_processed)
        for fname, ids in out.updated.items():
            if len(ids):
                self.comm.mark_updated(fname, p, ids)
        if len(out.activated):
            sink.append(out.activated)
        return out, self.cost.compute_time(p, out.frontier_degrees)

    def _master(self, p: int, sink: list):
        """Partition ``p``'s master phase, merged like :meth:`_compute`.
        Returns ``(residual, masters touched, priced seconds)``."""
        mout = self.app.master_compute(self.pg.parts[p], self.ctx, self.state[p])
        for fname, ids in mout.updated.items():
            if len(ids):
                self.comm.mark_updated(fname, p, ids)
        if len(mout.activated):
            sink.append(mout.activated)
        touched = sum(len(i) for i in mout.updated.values())
        return mout.residual, touched, self.cost.master_time(p, touched)

    def _network(self, pr, departs=None, msgs=None):
        """Network legs and wire accounting for one priced batch.

        Without ``departs`` (BSP) the legs are step-relative network spans
        that start when each message clears its device; with absolute
        ``departs`` (BASP) they are absolute arrival times, and resource
        queues persist across the run.  Returns ``(legs, wire messages,
        inter-host wire messages, aggregates, wire bytes)``.  Under
        two-level sync BASP aggregates per (field, phase) too: one async
        flush can mix them, unlike a BSP sync step.
        """
        nbytes = float(pr.scaled_bytes.sum())
        if not self.netmode:
            host_of = self.host_of
            legs = pr.inter if departs is None else departs + pr.inter
            inter_n = int(np.count_nonzero(host_of[pr.src] != host_of[pr.dst]))
            return legs, len(pr.src), inter_n, 0, nbytes
        if departs is None:
            net = self.cost.route_step(pr, hierarchical=self.hier)
            legs = net.eff_inter
        else:
            keys = None
            if self.hier:
                keys = [(m.header.field, m.header.phase) for m in msgs]
            net = self.cost.router.schedule_network(pr, departs, self.hier, keys)
            legs = net.done
        return (
            legs,
            len(pr.src) - net.messages_saved,
            net.inter_host_messages,
            net.aggregates,
            nbytes - net.saved_bytes,
        )
