"""Bulk-synchronous parallel (BSP) execution engine (Section III-B).

BSP is one of the two schedulers of the shared round step
(:mod:`repro.engine.pipeline`).  Each round runs the step's compute phase
on every partition (each applies the operator to its local frontier),
then the communication phase (the app's sync plan: reduce /
master-compute / broadcast, each step extracted from every partition,
priced as one batch and applied), closed by a global barrier.  The
engine executes the *real* algorithm — labels move through the actual Gluon
substrate and the final answer is gathered from master proxies — while a
per-partition clock prices every phase on the simulated cluster:

* compute time: load-balancer makespan model on the frontier's degrees;
* device communication: UO extraction scans + PCIe D2H/H2D legs, serialized
  on each device's link;
* wait time: gap between a host finishing its sends and the last straggler
  message arriving — the quantity whose minimum the paper plots;
* the barrier: the slowest partition's ready time plus a termination
  allreduce.
"""

from __future__ import annotations

import numpy as np

from repro.engine.operator import RunContext
from repro.engine.pipeline import RoundPipeline
from repro.engine.result import RunResult
from repro.errors import ConvergenceError
from repro.metrics.stats import RoundRecord

__all__ = ["BSPEngine"]


class BSPEngine(RoundPipeline):
    """Runs one vertex program bulk-synchronously over a partitioned graph."""

    execution_model = "bsp"

    def __init__(self, *args, recorder=None, **kwargs):
        """Takes the :class:`~repro.engine.pipeline.RoundPipeline`
        arguments.  ``overlap_comm`` hides part of each round's
        host-device communication under its computation phase.
        ``recorder`` (a :class:`repro.metrics.Recorder`) captures
        per-round telemetry."""
        super().__init__(*args, **kwargs)
        self.recorder = recorder

    # ------------------------------------------------------------------ #
    def run(self, ctx: RunContext) -> RunResult:
        self._open(ctx)
        pg, app, cost = self.pg, self.app, self.cost
        P = pg.num_partitions
        tracer = self.tracer
        stats, state, views = self.stats, self.state, self.views
        plan, activating, sync_ops = self.plan, self.activating, self.sync_ops
        check_cheap, check_full, watch = (
            self.check_cheap, self.check_full, self.watch
        )
        if check_cheap:
            from repro.check import check_round_record
        frontier = [
            app.initial_frontier(pg.parts[p], ctx, state[p]) for p in range(P)
        ]

        for rnd in range(ctx.max_rounds):
            active = sum(len(f) for f in frontier)
            if app.driven == "data" and active == 0:
                break
            round_ev = None
            if tracer is not None:
                round_ev = tracer.begin(
                    f"round {rnd}", "round", tid=P, args={"active": active}
                )

            compute_t = np.zeros(P)
            device_t = np.zeros(P)
            candidates: list[list[np.ndarray]] = [[] for _ in range(P)]
            edges = 0

            # ---------------- compute phase ---------------------------- #
            feat_bytes = np.zeros(P)
            feat_hits = 0
            feat_misses = 0
            for p in range(P):
                if self.fault_plan is not None:
                    self.fault_plan.check(p, rnd)
                if len(frontier[p]) or app.driven != "data":
                    out, dt = self._compute(p, frontier[p], candidates[p], rnd)
                    compute_t[p] += dt
                    edges += out.edges_processed
                    feat_bytes[p] += out.feature_bytes
                    feat_hits += out.feature_cache_hits
                    feat_misses += out.feature_cache_misses

            # feature-gather leg: per-device bulk H2D loads, priced
            # through the router (contention-aware when the cluster has a
            # model).  The load precedes the kernel, so it delays both
            # compute completion and the send phase behind it.
            feat_h2d_bytes = 0.0
            if feat_bytes.any():
                feat_t = cost.feature_load_time(feat_bytes)
                compute_t += feat_t
                device_t += feat_t
                feat_h2d_bytes = float(feat_bytes.sum()) * cost.scale_factor
                if tracer is not None:
                    tracer.count("feature.h2d_bytes", feat_h2d_bytes)
            if tracer is not None and (feat_hits or feat_misses):
                tracer.count("cache.hit", feat_hits)
                tracer.count("cache.miss", feat_misses)

            # ---------------- sync plan -------------------------------- #
            inter_m = np.zeros((P, P))  # (src,dst) -> summed inter legs
            has_msg = np.zeros((P, P), dtype=bool)
            send_t = np.zeros(P)  # extraction + D2H, serialized per device
            recv_t = np.zeros(P)  # H2D, serialized per device
            n_msgs = 0
            n_inter_host = 0
            n_aggregates = 0
            comm_bytes = 0.0
            residual = 0.0

            for step in plan:
                if step.kind == "master":
                    m_ev = None
                    if tracer is not None:
                        m_ev = tracer.begin(
                            "master", "sync", tid=P, args={"round": rnd}
                        )
                    for p in range(P):
                        res, _, dt = self._master(p, candidates[p])
                        residual = max(residual, res)
                        compute_t[p] += dt
                    if tracer is not None:
                        tracer.end(m_ev)
                    continue

                field = step.field
                labels = views[field]
                make, apply = sync_ops[step.kind]
                s_ev = None
                if tracer is not None:
                    s_ev = tracer.begin(
                        f"sync:{step.kind}:{field}",
                        "sync",
                        tid=P,
                        args={"round": rnd},
                    )
                # Extract every partition's messages first, then price the
                # whole step in one vectorized pass.  Safe to reorder
                # against the applies: extraction send sets (mirrors for
                # reduce, masters for broadcast) are disjoint from apply
                # target sets, so results are bit-identical to the
                # extract/apply-per-partition interleaving.
                msgs = []
                for p in range(P):
                    msgs += make(field, p, labels)
                if not msgs:
                    if tracer is not None:
                        tracer.end(s_ev, messages=0)
                    continue
                pr = self.price(msgs)
                np.add.at(send_t, pr.src, pr.extraction + pr.d2h)
                np.add.at(recv_t, pr.dst, pr.h2d)
                # a BSP sync step is single-field single-phase, so
                # aggregates key on (src host, dst host) alone
                inter, step_wire, step_inter, step_aggs, step_bytes = (
                    self._network(pr)
                )
                np.add.at(inter_m, (pr.src, pr.dst), inter)
                n_inter_host += step_inter
                n_aggregates += step_aggs
                if tracer is not None and step_aggs:
                    tracer.count(f"comm.hier.{field}.aggregates", step_aggs)
                    tracer.count(
                        f"comm.hier.{field}.messages_saved",
                        len(msgs) - step_wire,
                    )
                has_msg[pr.src, pr.dst] = True
                comm_bytes += step_bytes
                n_msgs += step_wire
                # per-message Python survives only here: reductions must
                # combine message by message
                for msg in msgs:
                    ch = apply(msg, labels)
                    if len(ch) and field in activating:
                        candidates[msg.header.dst].append(ch)
                if tracer is not None:
                    tracer.end(s_ev, messages=len(msgs), bytes=step_bytes)

            # ---------------- round timing ------------------------------ #
            # with overlap, part of the host-device traffic hides under the
            # compute phase.  Send and recv share ONE hiding budget (the
            # compute time available): PCIe is full duplex, but both
            # directions hide under the same kernels, so the total hidden
            # traffic per device is bounded by compute_t, not 2x compute_t.
            # Send-side D2H hides first (it is what double buffering
            # overlaps in practice); recv-side H2D takes the remainder.
            if self.overlap_comm > 0.0:
                hidden_s = np.minimum(self.overlap_comm * send_t, compute_t)
                hidden_r = np.minimum(
                    self.overlap_comm * recv_t, compute_t - hidden_s
                )
                eff_send = send_t - hidden_s
                eff_recv = recv_t - hidden_r
            else:
                eff_send, eff_recv = send_t, recv_t
            depart = compute_t + eff_send
            # arrive[q] = max(depart[q], max over senders p of
            # depart[p] + inter_m[p, q]) — pairs without messages excluded
            contrib = np.where(has_msg, depart[:, None] + inter_m, -np.inf)
            arrive = np.maximum(depart, contrib.max(axis=0))
            ready = np.maximum(depart, arrive) + eff_recv
            duration = float(ready.max()) + cost.allreduce_time()
            wait = np.maximum(arrive - depart, 0.0)
            device_t += eff_send + eff_recv

            rec = RoundRecord(
                round_index=rnd,
                active_vertices=active,
                edges_processed=edges,
                messages=n_msgs,
                comm_bytes=comm_bytes,
                compute_times=compute_t,
                wait_times=wait,
                device_comm_times=device_t,
                duration=duration,
                inter_host_messages=n_inter_host,
                hier_aggregates=n_aggregates,
                feature_h2d_bytes=feat_h2d_bytes,
                feature_cache_hits=feat_hits,
                feature_cache_misses=feat_misses,
            )
            stats.accumulate_round(rec)
            if check_cheap:
                check_round_record(rec)
            if check_full:
                # the sync plan is complete: masters must dominate their
                # plan partners, and no label may have moved against its
                # reduce direction this round
                self._check_synced()
                watch.observe(views)
            if self.recorder is not None:
                self.recorder.on_round(rec)
            if tracer is not None:
                # Simulated per-phase seconds ride along as an instant so
                # `repro-trace summarize` can rebuild the paper's stacked
                # breakdown; the spans themselves are wall-timed.
                tracer.instant(
                    "round_sim",
                    "round",
                    tid=P,
                    args={
                        "round": rnd,
                        "compute_s": compute_t.tolist(),
                        "wait_s": wait.tolist(),
                        "device_s": device_t.tolist(),
                        "duration_s": duration,
                    },
                )
                tracer.end(
                    round_ev,
                    messages=n_msgs,
                    bytes=comm_bytes,
                    edges=edges,
                )

            # ---------------- next frontier ----------------------------- #
            if app.driven == "data":
                nxt = []
                for p in range(P):
                    if candidates[p]:
                        cand = np.unique(np.concatenate(candidates[p]))
                        cand = app.frontier_filter(
                            pg.parts[p], ctx, state[p], cand
                        )
                    else:
                        cand = np.empty(0, dtype=np.int64)
                    nxt.append(cand)
                frontier = nxt
            else:
                # topology-driven: the app derives the active set from the
                # current state each round
                frontier = [
                    app.initial_frontier(pg.parts[p], ctx, state[p])
                    for p in range(P)
                ]
                if app.converged(ctx, residual):
                    break
        else:
            if app.driven == "data":
                raise ConvergenceError(
                    f"{app.name} did not converge in {ctx.max_rounds} rounds"
                )

        stats.local_rounds_min = stats.rounds
        stats.local_rounds_max = stats.rounds
        return self._close()
