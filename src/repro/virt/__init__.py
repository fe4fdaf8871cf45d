"""Guest VMs over DAX files with post-copy live migration.

See :mod:`repro.virt.hypervisor` for the guest/hypervisor layer,
:mod:`repro.virt.migration` for the migration state machine,
:mod:`repro.virt.audit` for the crash/fault hardening audit; the
pass-through equivalence gate is the ``virt`` golden of
:mod:`repro.goldens`.
"""

from repro.virt.audit import (
    AUDIT_WORKLOADS,
    MigrateAuditSummary,
    MigrateCrashInjector,
    MigrateFaultInjector,
    link_targeted_plan,
    migrate_factory,
    run_migrate_audit,
)
from repro.virt.hypervisor import GuestAddressSpace, Hypervisor, VirtConfig
from repro.virt.migration import MigrationJob, MigrationState
from repro.virt.runner import MIGRATE_WORKLOADS, run_migrate

__all__ = [
    "AUDIT_WORKLOADS",
    "GuestAddressSpace",
    "Hypervisor",
    "MIGRATE_WORKLOADS",
    "MigrateAuditSummary",
    "MigrateCrashInjector",
    "MigrateFaultInjector",
    "MigrationJob",
    "MigrationState",
    "VirtConfig",
    "link_targeted_plan",
    "migrate_factory",
    "run_migrate",
    "run_migrate_audit",
]
