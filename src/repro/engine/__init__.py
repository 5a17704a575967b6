"""Execution engines: the operator protocol, the cost model, and one round
pipeline scheduled two ways (BSP and BASP)."""

from repro.engine.operator import (
    RoundOutput,
    RunContext,
    SyncStep,
    VertexProgram,
)
from repro.engine.costmodel import CostModel
from repro.engine.bsp import BSPEngine
from repro.engine.basp import BASPEngine
from repro.engine.result import RunResult
from repro.engine.faults import FaultPlan

__all__ = [
    "RoundOutput",
    "RunContext",
    "SyncStep",
    "VertexProgram",
    "CostModel",
    "BSPEngine",
    "BASPEngine",
    "RunResult",
    "FaultPlan",
]
