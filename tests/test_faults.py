"""Tests for the media-fault injection subsystem (``repro.faults``).

The contract under test has three layers:

1. deterministic planning — the same probe and seed always arm the
   same sites, and UE sites only land where the probe said they could;
2. device/extent mechanics — badblocks, quarantine and single-block
   remap keep the allocator and extent tree consistent;
3. the kernel-path audit — every armed uncorrectable error ends
   *handled* (remapped with accounted loss, cleared in place, or
   SIGBUS-delivered and repaired).  That the fault hooks are
   bit-for-bit free with nothing armed is the ``faults`` case of
   ``tests/test_goldens.py``.
"""

import pytest

from repro.errors import InvalidArgumentError, PoisonedPageError
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSite,
    MediaFaults,
    run_faults,
)
from repro.faults.plan import TouchRecord, UE_KINDS
from repro.fs.block import BLOCK_SIZE, BlockDevice
from repro.fs.extent import ExtentTree
from repro.system import System


def factory() -> System:
    return System(device_bytes=1 << 30)


def probe_records(workload: str):
    return FaultInjector(factory, workload).probe()


# ---------------------------------------------------------------------------
# Fault plans.
# ---------------------------------------------------------------------------
def synthetic_probe(n: int = 40):
    """Alternating FS/map touches, UE-eligible on even indices."""
    return [TouchRecord(index=i,
                        category="map-write" if i % 3 == 0 else "read",
                        ue_eligible=i % 2 == 0, targets=1 + i % 4)
            for i in range(n)]


def test_plan_generate_is_seed_deterministic():
    probe = synthetic_probe()
    a = FaultPlan.generate(probe, seed=11, max_sites=16)
    b = FaultPlan.generate(probe, seed=11, max_sites=16)
    assert a.to_state() == b.to_state()
    other = FaultPlan.generate(probe, seed=12, max_sites=16)
    assert other.to_state() != a.to_state()


def test_plan_respects_ue_eligibility_and_budget():
    probe = synthetic_probe()
    plan = FaultPlan.generate(probe, seed=3, max_sites=16,
                              bw_windows=2, stalls=2)
    assert len(plan) <= 16
    eligible = {r.index for r in probe if r.ue_eligible}
    for site in plan.ordered():
        if site.kind in UE_KINDS:
            assert site.touch in eligible
        if site.kind is FaultKind.UE_MAP:
            assert probe[site.touch].category.startswith("map")
    kinds = [s.kind for s in plan.ordered()]
    assert kinds.count(FaultKind.BW_WINDOW) <= 2
    assert kinds.count(FaultKind.STALL) <= 2


def test_plan_rejects_duplicates_and_negative_touches():
    site = FaultSite(touch=4, kind=FaultKind.STALL, stall_cycles=1.0)
    with pytest.raises(InvalidArgumentError):
        FaultPlan([site, FaultSite(touch=4, kind=FaultKind.UE_BLOCK)])
    with pytest.raises(InvalidArgumentError):
        FaultPlan([FaultSite(touch=-1, kind=FaultKind.UE_BLOCK)])
    assert not FaultPlan.empty()
    assert len(FaultPlan([site])) == 1


# ---------------------------------------------------------------------------
# Device badblocks / quarantine and extent remap mechanics.
# ---------------------------------------------------------------------------
def test_device_badblocks_and_quarantine_split_free_space():
    device = BlockDevice(1 << 20)
    (start, length), = device.alloc(8, prefer_contiguous=True)
    assert length == 8
    bad = start + 3
    device.mark_bad(bad)
    assert device.is_bad(bad)
    assert device.bad_in_run(start, 8) == [bad]
    device.quarantine(bad)
    assert not device.is_bad(bad)  # quarantine retires the badblock
    free_before = device.free_blocks
    device.free(start, 8)
    # The quarantined block never returns to the free pool.
    assert device.free_blocks == free_before + 7
    assert device.free_overlap(bad, 1) == 0
    device.check_invariants()


def test_extent_replace_block_splits_around_the_bad_block():
    tree = ExtentTree()
    tree.append(100, 8)
    old = tree.replace_block(3, 500)
    assert old == 103
    assert tree.physical_block(3) == 500
    assert tree.physical_block(2) == 102
    assert tree.physical_block(4) == 104
    assert tree.block_count == 8
    tree.check_invariants()
    with pytest.raises(InvalidArgumentError):
        tree.replace_block(8, 600)  # past EOF: a hole


# ---------------------------------------------------------------------------
# Kernel poison-handling paths, one outcome each.
# ---------------------------------------------------------------------------
def site_outcome(workload: str, site: FaultSite):
    injector = FaultInjector(factory, workload)
    return injector.run_site(site)


def first_touch(workload: str, category: str, eligible=True) -> int:
    for record in probe_records(workload):
        if record.category == category and record.ue_eligible == eligible:
            return record.index
    raise AssertionError(
        f"{workload} probe has no {category!r} touch "
        f"(eligible={eligible})")


def test_read_ue_remaps_and_accounts_the_loss():
    touch = first_touch("readbench", "read")
    outcome = site_outcome(
        "readbench", FaultSite(touch=touch, kind=FaultKind.UE_BLOCK))
    assert outcome.outcome == "remapped"
    assert outcome.violations == []
    assert outcome.bytes_lost == BLOCK_SIZE
    assert outcome.handling_cycles > 0


def test_full_block_write_ue_clears_poison_in_place():
    touch = first_touch("readbench", "write")
    outcome = site_outcome(
        "readbench", FaultSite(touch=touch, kind=FaultKind.UE_BLOCK))
    assert outcome.outcome == "cleared"
    assert outcome.violations == []
    assert outcome.bytes_lost == 0  # overwrite supplied fresh data


def test_map_ue_delivers_sigbus_then_repair_clears_it():
    touch = first_touch("syncbench", "map-write")
    outcome = site_outcome(
        "syncbench", FaultSite(touch=touch, kind=FaultKind.UE_MAP))
    assert outcome.outcome == "sigbus-cleared"
    assert outcome.violations == []


def test_sigbus_carries_the_poisoned_location():
    injector = FaultInjector(factory, "syncbench")
    touch = first_touch("syncbench", "map-write")
    faults = MediaFaults(FaultPlan(
        [FaultSite(touch=touch, kind=FaultKind.UE_MAP)]))
    system = injector._build(faults)
    with pytest.raises(PoisonedPageError) as excinfo:
        injector.workload(system)
    err = excinfo.value
    assert err.signal_name == "SIGBUS"
    assert err.path and err.file_page >= 0 and err.frame >= 0
    assert faults.sigbus == 1 and faults.memory_failures == 1
    assert system.stats.get("faults.sigbus_delivered") == 1
    assert system.stats.get("faults.memory_failures") == 1


def test_bw_window_and_stall_fire_and_unwind():
    read_touch = first_touch("readbench", "read", eligible=True)
    window = site_outcome("readbench", FaultSite(
        touch=0, kind=FaultKind.BW_WINDOW, factor=3.0, duration=4))
    assert window.outcome == "bw-window" and not window.violations
    stall = site_outcome("readbench", FaultSite(
        touch=read_touch, kind=FaultKind.STALL, stall_cycles=50_000.0))
    assert stall.outcome == "stall" and not stall.violations
    assert stall.handling_cycles >= 50_000.0


# ---------------------------------------------------------------------------
# The full audit: no armed error may end unhandled.
# ---------------------------------------------------------------------------
def test_fault_sweep_is_deterministic():
    a = run_faults(factory, "syncbench", seed=3, max_sites=12)
    b = run_faults(factory, "syncbench", seed=3, max_sites=12)
    assert a.to_state() == b.to_state()
    assert ([o.to_state() for o in a.outcomes]
            == [o.to_state() for o in b.outcomes])


def test_acceptance_syncbench_seed7_explores_sites_without_loss():
    summary = run_faults(factory, "syncbench", seed=7, max_sites=64)
    assert summary.sites_explored >= 50
    assert summary.violations == []
    state = summary.to_state()
    assert state["sites_explored"] == summary.sites_explored
    # Every UE ended in a handled outcome.
    counts = summary.outcome_counts()
    ue_sites = sum(1 for o in summary.outcomes if o.kind in UE_KINDS)
    handled = (counts.get("remapped", 0) + counts.get("cleared", 0)
               + counts.get("sigbus-cleared", 0))
    assert handled == ue_sites
