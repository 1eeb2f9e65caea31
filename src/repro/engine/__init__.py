"""Pluggable execution engine: one harness, two clocks.

The engine package decouples *what* a deployment runs (replicas, clients,
workloads) from *how* it is executed (deterministic simulation vs real TCP
on the wall clock).  See :mod:`repro.engine.protocols` for the structural interfaces,
:mod:`repro.engine.backends` for the two built-in backends, and
:mod:`repro.engine.deployment` for the unified harness.
"""

from repro.engine.backends import (
    BACKENDS,
    ExecutionBackend,
    SimBackend,
    SocketBackend,
    backend_by_name,
)
from repro.engine.deployment import Deployment, RunResult
from repro.engine.driver import (
    OpenLoopWorkloadDriver,
    PoissonSaturationDriver,
    SustainedLoadDriver,
    WorkloadDriver,
    run_protocol_workload,
    run_sustained_load,
)
from repro.engine.protocols import Clock, Scheduler, TimerCancelHandle, Transport

__all__ = [
    "BACKENDS",
    "Clock",
    "Deployment",
    "ExecutionBackend",
    "OpenLoopWorkloadDriver",
    "PoissonSaturationDriver",
    "RunResult",
    "Scheduler",
    "SimBackend",
    "SocketBackend",
    "SustainedLoadDriver",
    "TimerCancelHandle",
    "Transport",
    "WorkloadDriver",
    "backend_by_name",
    "run_protocol_workload",
    "run_sustained_load",
]
