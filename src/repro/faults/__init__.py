"""Deterministic media-fault injection (uncorrectable errors,
bandwidth windows, device stalls) and the kernel hardening it
exercises — badblocks, extent remap, ``memory_failure()``/SIGBUS and
DAX clear-poison.

Public surface::

    from repro.faults import FaultPlan, FaultKind, MediaFaults, run_faults

    summary = run_faults(MachineSpec(device_gib=1).build,
                         "syncbench", seed=7, max_sites=64)
    assert not summary.violations
"""

from repro.faults.injector import (
    FAULT_WORKLOADS,
    FaultInjector,
    FaultSummary,
    run_faults,
)
from repro.faults.model import MediaFaults, SiteOutcome
from repro.faults.plan import FaultKind, FaultPlan, FaultSite

__all__ = [
    "FAULT_WORKLOADS",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultSite",
    "FaultSummary",
    "MediaFaults",
    "SiteOutcome",
    "run_faults",
]
