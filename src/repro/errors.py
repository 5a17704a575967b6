"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch everything from this package with a single ``except`` clause.
``SimulatedOOMError`` deserves special mention: it is *not* a bug signal but
the mechanism by which the performance simulator reproduces the paper's
"missing data points" — configurations whose partitions do not fit in GPU
memory at paper scale fail exactly the way the real runs did.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphFormatError(ReproError):
    """A graph file or in-memory structure is malformed."""


class PartitioningError(ReproError):
    """A partitioning policy could not produce a valid partition."""


class CommunicationError(ReproError):
    """The communication substrate detected an inconsistency."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its round budget."""


class ConfigurationError(ReproError):
    """An engine/framework configuration is invalid or unsupported."""


class UnsupportedFeatureError(ConfigurationError):
    """A framework facade was asked for a feature the real system lacks.

    For example Lux supports only the IEC partitioning policy; asking the
    Lux facade for CVC raises this error rather than silently substituting.
    """


class AccountingError(ReproError):
    """An engine's simulated-time breakdown does not add up.

    Device Comm. is the residual of execution time after max compute and
    min wait; a residual below float noise means the engine charged some
    partition more compute plus wait than the run lasted — a pricing bug,
    never a data point.
    """


class InvariantViolation(ReproError):
    """A runtime invariant checker (:mod:`repro.check`) found a breach.

    Unlike the simulated-failure classes this *is* a bug signal: either the
    framework broke one of its structural contracts (proxy consistency,
    exactly-once edge ownership, label monotonicity, ...) or a checker is
    over-strict.  ``checker`` names the invariant that fired so fuzz cases
    and sweep reports can aggregate by class.
    """

    def __init__(self, message: str, checker: str = ""):
        self.checker = checker
        super().__init__(f"[{checker}] {message}" if checker else message)


class SimulatedOOMError(ReproError):
    """A simulated GPU ran out of device memory at paper scale.

    Attributes
    ----------
    gpu_index:
        Index of the GPU (partition) that overflowed.
    required_bytes:
        Paper-scale bytes the partition needed.
    capacity_bytes:
        Device capacity of the simulated GPU.
    """

    def __init__(self, gpu_index: int, required_bytes: float, capacity_bytes: float):
        self.gpu_index = int(gpu_index)
        self.required_bytes = float(required_bytes)
        self.capacity_bytes = float(capacity_bytes)
        super().__init__(
            f"simulated OOM on GPU {gpu_index}: needs "
            f"{required_bytes / 2**30:.2f} GiB > capacity "
            f"{capacity_bytes / 2**30:.2f} GiB"
        )


class SimulatedCrashError(ReproError):
    """A framework facade models a configuration the real system crashed on.

    Like :class:`SimulatedOOMError` this is a data point, not a bug: the
    paper's figures have points missing because "the benchmarks failed
    ... due to crashes".  The crash site is preserved so drivers (and
    :class:`repro.runtime.cells.CellOutcome`) can report *where* the
    simulated run died, not just that it did.

    Attributes
    ----------
    gpu_index:
        Index of the GPU (partition) that crashed, or ``None`` if the
        crash is not attributed to a specific device.
    round_index:
        (Local) round at which the crash fired, or ``None``.
    """

    def __init__(self, message: str, gpu_index=None, round_index=None):
        self.gpu_index = None if gpu_index is None else int(gpu_index)
        self.round_index = None if round_index is None else int(round_index)
        super().__init__(message)
