"""Interfaces across memory tiers (`sweep tiering`).

The paper's thesis — memory-as-a-file beats copy-based access — was
argued on one device (Optane DC).  The pluggable tier model lets the
same sweep ask where each interface *breaks even* as file data moves
across DRAM, local PMem and a CXL expander behind a 1.4x link, with
and without the hot/cold migration daemon.  Asserted shape:

* every interface is fastest with data in DRAM;
* the expander inverts per interface: copy-based ``read()`` pays the
  link on every byte, so CXL costs *more* than local PMem — but DaxVM
  in-place access on CXL *beats* local PMem, because the expander
  escapes the Optane DIMM-pool contention that throttles in-place
  PMem loads.  Break-even is an interface property, not a device one;
* ktierd helps hot mmap workloads (promotion moves the steady-state
  working set to DRAM rates) and cannot help read-once ``read()``
  traffic (every file is cold by the time it is promoted);
* the tier config rides in the cache key: 20 distinct keys, warm
  replay byte-exact.
"""

import json

from conftest import once

from repro.analysis.report import format_sweep
from repro.machine import MachineSpec
from repro.obs import CostDomain
from repro.runner import ResultCache, build_sweep, run_sweep

OPS = 64
SIZE = 64 << 10


def test_tiering_break_even_sweep(benchmark, tmp_path, bench_extra):
    def build():
        return build_sweep("tiering", ops=OPS, size=SIZE,
                           base=MachineSpec(device_gib=1, aged=False))

    def experiment():
        cold = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        warm = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        return cold, warm

    cold, warm = once(benchmark, experiment)
    print(format_sweep(cold.sweep.title, cold.series(), cold.sweep.axis,
                       cold.hits, cold.misses, cold.wall_seconds))

    assert not cold.failed
    assert len(cold.points) == 20

    # Tier config (data medium, daemon knobs, node kinds) is part of
    # the payload, hence of the cache key — and a warm replay is exact.
    keys = {p.point.cache_key("fp") for p in cold.points}
    assert len(keys) == len(cold.points)
    assert warm.hits == len(warm.points) and warm.misses == 0
    for a, b in zip(cold.points, warm.points):
        assert (json.dumps(a.comparable_state(), sort_keys=True)
                == json.dumps(b.comparable_state(), sort_keys=True))

    def cycles(series, tier):
        for p in cold.points:
            if (p.point.series == series
                    and p.point.machine.tier == tier):
                return p.run.cycles
        raise AssertionError(f"missing point {series}@{tier}")

    # DRAM is the floor for every interface.
    for series in ("read", "mmap", "daxvm"):
        assert cycles(series, "dram") < cycles(series, "pmem")
        assert cycles(series, "dram") < cycles(series, "cxl")

    # The expander break-even inverts per interface: read() pays the
    # 1.4x link on every copied byte (worse than local Optane), while
    # DaxVM's in-place loads escape the shared Optane DIMM pool
    # (better than local Optane).
    assert cycles("read", "cxl") > cycles("read", "pmem")
    assert cycles("daxvm", "cxl") < cycles("daxvm", "pmem")

    # ktierd: promotion pays for hot mmap working sets on both slow
    # tiers, and buys nothing for read-once read() traffic.
    for tier in ("pmem", "cxl"):
        assert cycles("mmap+ktierd", tier) < cycles("mmap", tier)
        assert cycles("read+ktierd", tier) >= cycles("read", tier)

    # The daemon actually ran on daemon points: scans, migrations and
    # ledger charges in the tiering domain — and zero on static points
    # (the overlay-only model has no kthread).
    for p in cold.points:
        scans = p.stats.get("tiering.scans")
        tier_cycles = p.ledger.domain_total(CostDomain.TIERING)
        if p.point.machine.ktierd is not None:
            assert scans > 0 and tier_cycles > 0
        else:
            assert scans == 0 and tier_cycles == 0
    assert any(p.stats.get("tiering.promoted_pages") > 0
               for p in cold.points if p.point.machine.ktierd is not None)

    bench_extra["break_even"] = {
        tier: {series: cycles(series, tier)
               for series in ("read", "mmap", "daxvm")}
        for tier in ("dram", "pmem", "cxl")}
    bench_extra["ktierd_speedup"] = {
        tier: {series: round(cycles(series, tier)
                             / cycles(f"{series}+ktierd", tier), 4)
               for series in ("read", "mmap", "daxvm")}
        for tier in ("pmem", "cxl")}
