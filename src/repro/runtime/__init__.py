"""Parallel execution runtime: sweep fan-out and cell specs.

The cell / sweep modules pull in frameworks, which pull in the engines,
so this package initializer exposes them lazily (PEP 562) instead of
importing them eagerly.
"""

__all__ = [
    "SweepExecutor",
    "default_start_method",
    "SystemSpec",
    "CellSpec",
    "PartitionStatsSpec",
    "CellOutcome",
    "run_task",
]

_LAZY = {
    "SweepExecutor": "repro.runtime.sweep",
    "default_start_method": "repro.runtime.sweep",
    "SystemSpec": "repro.runtime.cells",
    "CellSpec": "repro.runtime.cells",
    "PartitionStatsSpec": "repro.runtime.cells",
    "CellOutcome": "repro.runtime.cells",
    "run_task": "repro.runtime.cells",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)
