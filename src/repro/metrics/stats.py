"""Execution statistics collected by the engines.

The figures' stacked bars decompose execution time exactly as Section V
describes:

* **Max Compute** — computation time measured on each device, maximum
  reported;
* **Min Wait**    — time each host blocks waiting to receive messages,
  minimum reported;
* **Device Comm.** — "the rest of the execution time", i.e. the
  non-overlapped device-host communication (extraction scans + PCIe legs);

plus the communication volume label printed on each bar, the round count,
and the work items the async analysis quotes (Section V-B4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import GIB
from repro.errors import AccountingError

__all__ = ["RoundRecord", "RunStats"]


@dataclass
class RoundRecord:
    """Telemetry for one (global or local) round."""

    round_index: int
    active_vertices: int
    edges_processed: int
    messages: int
    comm_bytes: float  # paper-scale wire bytes
    compute_times: np.ndarray  # per-partition seconds
    wait_times: np.ndarray
    device_comm_times: np.ndarray
    duration: float  # wall-clock of the round (barrier to barrier)
    inter_host_messages: int = 0  # wire messages crossing hosts
    hier_aggregates: int = 0  # two-level sync envelopes formed
    #: priced (paper-scale) host->device feature bytes loaded this round
    feature_h2d_bytes: float = 0.0
    feature_cache_hits: int = 0  # partition feature-buffer hits
    feature_cache_misses: int = 0  # misses (each costs an H2D load)


@dataclass
class RunStats:
    """Aggregated statistics for one benchmark run."""

    benchmark: str = ""
    dataset: str = ""
    policy: str = ""
    variant: str = ""
    num_gpus: int = 0

    execution_time: float = 0.0  # simulated seconds (paper scale)
    max_compute: float = 0.0
    min_wait: float = 0.0
    device_comm: float = 0.0
    comm_volume_bytes: float = 0.0
    num_messages: int = 0
    #: wire messages that crossed hosts — the communication-partner load
    #: the CVC analysis bounds; under two-level sync these are aggregates
    inter_host_messages: int = 0
    #: two-level sync envelopes formed (0 when hierarchical sync is off)
    hier_aggregates: int = 0
    #: priced (paper-scale) host->device feature bytes across the run —
    #: the quantity the gnnflow placement study ranks policies by
    feature_h2d_bytes: float = 0.0
    feature_cache_hits: int = 0
    feature_cache_misses: int = 0
    rounds: int = 0
    local_rounds_min: int = 0  # BASP: min local rounds across partitions
    local_rounds_max: int = 0
    work_items: float = 0.0  # total edge traversals (redundancy metric)
    replication_factor: float = 0.0
    memory_max_bytes: float = 0.0
    memory_mean_bytes: float = 0.0

    per_partition_compute: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )
    per_partition_wait: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_partition_device_comm: np.ndarray = field(
        default_factory=lambda: np.zeros(0)
    )

    @property
    def comm_volume_gb(self) -> float:
        return self.comm_volume_bytes / GIB

    @property
    def memory_max_gb(self) -> float:
        return self.memory_max_bytes / GIB

    @property
    def dynamic_balance(self) -> float:
        """max/mean compute time across GPUs — Table IV "Dynamic"."""
        c = self.per_partition_compute
        if len(c) == 0 or c.mean() <= 0:
            return 1.0
        return float(c.max() / c.mean())

    @property
    def memory_balance(self) -> float:
        """max/mean memory across GPUs — Table IV "Memory"."""
        if self.memory_mean_bytes <= 0:
            return 1.0
        return self.memory_max_bytes / self.memory_mean_bytes

    def accumulate_round(self, rec: RoundRecord) -> None:
        """Fold one round's record into the aggregates."""
        P = len(rec.compute_times)
        if len(self.per_partition_compute) == 0:
            self.per_partition_compute = np.zeros(P)
            self.per_partition_wait = np.zeros(P)
            self.per_partition_device_comm = np.zeros(P)
        self.per_partition_compute += rec.compute_times
        self.per_partition_wait += rec.wait_times
        self.per_partition_device_comm += rec.device_comm_times
        self.rounds += 1
        self.num_messages += rec.messages
        self.inter_host_messages += rec.inter_host_messages
        self.hier_aggregates += rec.hier_aggregates
        self.comm_volume_bytes += rec.comm_bytes
        self.feature_h2d_bytes += rec.feature_h2d_bytes
        self.feature_cache_hits += rec.feature_cache_hits
        self.feature_cache_misses += rec.feature_cache_misses
        self.work_items += rec.edges_processed
        self.execution_time += rec.duration

    def finalize_breakdown(self) -> None:
        """Derive the paper's three buckets from per-partition sums.

        Device Comm. is defined as the residual (execution time minus max
        compute minus min wait), exactly the paper's methodology.  Float
        noise below zero is clamped; anything beyond it raises
        :class:`~repro.errors.AccountingError`.
        """
        if len(self.per_partition_compute):
            self.max_compute = float(self.per_partition_compute.max())
            self.min_wait = float(self.per_partition_wait.min())
        residual = self.execution_time - self.max_compute - self.min_wait
        if residual < -1e-9 * max(self.execution_time, 1e-12):
            raise AccountingError(
                f"execution time {self.execution_time!r}s is shorter than "
                f"max compute {self.max_compute!r}s plus min wait "
                f"{self.min_wait!r}s"
            )
        self.device_comm = max(residual, 0.0)

    def summary(self) -> str:
        return (
            f"{self.benchmark}/{self.dataset} {self.policy}/{self.variant} "
            f"x{self.num_gpus}: {self.execution_time:.3f}s "
            f"(compute {self.max_compute:.3f}, wait {self.min_wait:.3f}, "
            f"devcomm {self.device_comm:.3f}) "
            f"{self.comm_volume_gb:.1f}GB, {self.rounds} rounds"
        )
