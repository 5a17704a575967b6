"""Bulk-asynchronous parallel (BASP) execution engine (Section III-B,
Gluon-Async).

BASP is the other scheduler of the shared round step
(:mod:`repro.engine.pipeline`).  There is no global round barrier.  Each
partition runs *local rounds*: drain whatever messages have arrived by its
local clock, apply the operator to its frontier, run its master phase, and
send messages — then continue immediately.  A partition with nothing to do blocks until its next message
arrives (that gap is its wait time).

The engine is a deterministic discrete-event simulation ordered by local
clocks: the runnable partition with the smallest local time executes next.
Because partitions compute with whatever values have *arrived* (possibly
stale), redundant work appears organically — extra local rounds and extra
work items versus BSP, exactly the effect behind the paper's bfs/uk14
anecdote where Async loses (Section V-B4).  Monotone apps still converge to
the identical fixpoint, which the integration tests assert.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.engine.operator import RunContext
from repro.engine.pipeline import RoundPipeline
from repro.engine.result import RunResult
from repro.errors import ConfigurationError, ConvergenceError

__all__ = ["BASPEngine"]

_EMPTY = np.empty(0, dtype=np.int64)


class BASPEngine(RoundPipeline):
    """Runs one vertex program bulk-asynchronously."""

    execution_model = "basp"

    def __init__(
        self, pg, cluster, app, *args,
        throttle_wait: float = 0.0,
        poll_interval: float = 1e-3,
        **kwargs,
    ):
        """Takes the :class:`~repro.engine.pipeline.RoundPipeline`
        arguments plus the async pacing knobs.

        ``throttle_wait`` implements the paper's proposed *dynamic
        throttling* of asynchronous execution (Section VII): before each
        local round a partition lingers this many (simulated) seconds so
        more partner messages arrive, trading blocked time for less
        redundant computation from stale reads.  ``0`` (the default) is
        unthrottled BASP as shipped in D-IrGL.

        ``overlap_comm`` in [0, 1] mirrors BSP's async-copy hiding for
        local rounds: within one local round, the drained H2D legs and the
        outgoing extraction+D2H legs share a single hiding budget equal to
        that round's compute time (recv hides first — it precedes the
        sends on the local clock — then sends split the remainder).  The
        default 0 leaves the event schedule bit-identical to before."""
        if not app.async_capable:
            raise ConfigurationError(
                f"{app.name} cannot run bulk-asynchronously"
            )
        super().__init__(pg, cluster, app, *args, **kwargs)
        if throttle_wait < 0:
            raise ConfigurationError("throttle_wait must be non-negative")
        self.throttle_wait = float(throttle_wait)
        #: Gluon-Async polls for messages once per local round; an idle
        #: partition that blocks on a receive therefore batches everything
        #: arriving within roughly one round's pacing into its next round,
        #: rather than waking per message.
        self.poll_interval = float(poll_interval)

    # ------------------------------------------------------------------ #
    def run(self, ctx: RunContext) -> RunResult:
        self._open(ctx)
        pg, app, comm, cost = self.pg, self.app, self.comm, self.cost
        P = pg.num_partitions
        tracer = self.tracer
        stats, state, views = self.stats, self.state, self.views
        plan, activating, sync_ops = self.plan, self.activating, self.sync_ops
        watch = self.watch
        pending: list[list[np.ndarray]] = [
            [app.initial_frontier(pg.parts[p], ctx, state[p])] for p in range(P)
        ]
        topology = app.driven == "topology"

        local_time = np.zeros(P)
        compute_t = np.zeros(P)
        wait_t = np.zeros(P)
        device_t = np.zeros(P)
        local_rounds = np.zeros(P, dtype=np.int64)
        residual = np.full(P, np.inf)  # last master residual per partition

        # inbox[q] = heap of (arrival, seq, message)
        inbox: list[list] = [[] for _ in range(P)]
        seq = 0
        in_flight = 0
        max_local_rounds = ctx.max_rounds * max(P, 1) * 4

        def runnable(p: int) -> bool:
            if any(len(a) for a in pending[p]):
                return True
            if inbox[p] and inbox[p][0][0] <= local_time[p]:
                return True
            if topology and not _topo_done(p):
                return True
            return False

        def _topo_done(p: int) -> bool:
            return residual[p] < ctx.tolerance

        while True:
            cand = [p for p in range(P) if runnable(p)]
            if not cand:
                if in_flight == 0:
                    break  # global quiescence
                # everyone idle: jump the earliest receiver to its arrival,
                # plus one poll interval so co-arriving partner messages
                # batch into a single local round
                nxt, q = min(
                    (inbox[p][0][0], p) for p in range(P) if inbox[p]
                )
                nxt += self.poll_interval
                wait_t[q] += max(nxt - local_time[q], 0.0)
                local_time[q] = max(local_time[q], nxt)
                continue

            p = min(cand, key=lambda i: (local_time[i], i))
            if self.fault_plan is not None:
                self.fault_plan.check(p, int(local_rounds[p]))
            t = float(local_time[p])
            part = pg.parts[p]
            r_ev = None
            if tracer is not None:
                r_ev = tracer.begin(
                    "local_round",
                    "round",
                    tid=p,
                    args={"local_round": int(local_rounds[p])},
                )

            if self.throttle_wait > 0.0:
                # dynamic async throttle: linger so straggler messages
                # land in this round instead of triggering redundant later
                # rounds (the control knob of the paper's conclusion)
                wait_t[p] += self.throttle_wait
                t += self.throttle_wait

            # -------- drain arrived messages: apply -------------------- #
            drained_candidates = []
            round_h2d = 0.0  # drained recv legs, candidate for overlap hiding
            round_compute = 0.0  # this round's hiding budget
            while inbox[p] and inbox[p][0][0] <= t:
                _, _, msg = heapq.heappop(inbox[p])
                in_flight -= 1
                legs = cost.legs(msg)
                t += legs.h2d
                device_t[p] += legs.h2d
                round_h2d += legs.h2d
                field = msg.header.field
                ch = sync_ops[msg.header.phase][1](msg, views[field])
                if len(ch) and field in activating:
                    drained_candidates.append(ch)

            # -------- frontier ------------------------------------------ #
            if topology:
                frontier = app.initial_frontier(part, ctx, state[p])
                pending[p] = []
            else:
                bufs = [a for a in pending[p] if len(a)] + drained_candidates
                pending[p] = []
                if bufs:
                    candv = np.unique(np.concatenate(bufs))
                    frontier = app.frontier_filter(part, ctx, state[p], candv)
                else:
                    frontier = _EMPTY

            # Every local round launches the full kernel pipeline (worklist
            # compaction, per-field extraction/apply, bitset maintenance)
            # whether or not much work exists — this pacing is what batches
            # message arrivals into rounds on real hardware and keeps the
            # local-round count within a small multiple of BSP's.
            t += self.poll_interval

            did_work = False
            # -------- compute + merge ------------------------------------ #
            if len(frontier):
                out, dt = self._compute(p, frontier, pending[p])
                t += dt
                compute_t[p] += dt
                round_compute += dt
                stats.work_items += out.edges_processed
                did_work = True

            # -------- master + extract (local sync plan) ----------------- #
            out_msgs = []
            for step in plan:
                if step.kind == "master":
                    residual[p], touched, dt = self._master(p, pending[p])
                    if touched:
                        t += dt
                        compute_t[p] += dt
                        round_compute += dt
                        did_work = True
                    continue
                if (
                    not comm.config.update_only
                    and not comm.pending_sends(step.field, step.kind, p)
                ):
                    # Async AS: there is no global round clock, so "send
                    # every round" degenerates into message ping-pong that
                    # never quiesces.  A partition therefore sends only
                    # when the field was written since its last send (the
                    # dirty bits are maintained under AS too); each send
                    # still ships the full exchange list in AS's wire
                    # format.
                    continue
                out_msgs += sync_ops[step.kind][0](
                    step.field, p, views[step.field]
                )

            hidden = 0.0
            if self.overlap_comm > 0.0 and round_compute > 0.0:
                # async-copy hiding, one budget per local round: drained
                # H2D first (it preceded the compute on this clock), then
                # sends take the remainder below
                hidden = min(self.overlap_comm * round_h2d, round_compute)
                t -= hidden
                device_t[p] -= hidden

            # -------- price + account, then post to the inboxes --------- #
            if out_msgs:
                # price the batch in one vectorized pass; each message still
                # departs after the previous one finished its extraction and
                # D2H leg (the device link is serialized), so arrivals ride
                # on the running prefix sum of those send-side costs.
                pr = self.price(out_msgs)
                send_cost = pr.extraction + pr.d2h
                if self.overlap_comm > 0.0:
                    total = float(send_cost.sum())
                    hidden_s = min(
                        self.overlap_comm * total, round_compute - hidden
                    )
                    if total > 0.0 and hidden_s > 0.0:
                        send_cost = send_cost * ((total - hidden_s) / total)
                departs = t + np.cumsum(send_cost)
                t = float(departs[-1])
                device_t[p] += float(send_cost.sum())
                arrivals, wire_n, inter_n, aggs, wire_bytes = self._network(
                    pr, departs, out_msgs
                )
                stats.hier_aggregates += aggs
                stats.comm_volume_bytes += wire_bytes
                stats.num_messages += wire_n
                stats.inter_host_messages += inter_n
                for i, msg in enumerate(out_msgs):
                    heapq.heappush(
                        inbox[msg.header.dst], (float(arrivals[i]), seq, msg)
                    )
                    seq += 1
                    in_flight += 1
                did_work = True

            if tracer is not None:
                tracer.end(
                    r_ev,
                    messages=len(out_msgs),
                    drained=len(drained_candidates),
                    did_work=did_work,
                )
            if did_work or len(frontier):
                local_rounds[p] += 1
            local_time[p] = t
            if watch is not None:
                watch.observe(views, pid=p)

            if local_rounds.sum() > max_local_rounds:
                raise ConvergenceError(
                    f"{app.name} (BASP) exceeded {max_local_rounds} local rounds"
                )

            if topology and not did_work and not len(frontier):
                # quiescent topology partition: mark converged this pass
                residual[p] = 0.0

        # ------------------------------------------------------------------ #
        if self.check_full:
            # quiescence: no message in flight and every dirty bit drained,
            # so the mid-flight exemption ends
            self._check_synced()
        stats.execution_time = float(local_time.max())
        stats.per_partition_compute = compute_t
        stats.per_partition_wait = wait_t
        stats.per_partition_device_comm = device_t
        stats.rounds = int(local_rounds.max())
        stats.local_rounds_min = int(local_rounds.min())
        stats.local_rounds_max = int(local_rounds.max())
        if tracer is not None:
            tracer.instant(
                "round_sim",
                "round",
                tid=P,
                args={
                    "compute_s": compute_t.tolist(),
                    "wait_s": wait_t.tolist(),
                    "device_s": device_t.tolist(),
                },
            )
        return self._close()
