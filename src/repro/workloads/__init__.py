"""Workload generation: YCSB-style transactions.

The client drivers that feed them to a deployment live in
:mod:`repro.engine.driver`.
"""

from repro.workloads.ycsb import YcsbWorkloadGenerator, ZipfianGenerator

__all__ = [
    "YcsbWorkloadGenerator",
    "ZipfianGenerator",
]
