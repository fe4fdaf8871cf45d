"""Table III: the MMU performance monitor rule.

AvgPageWalk = walk cycles / TLB misses; MMU overhead = walk cycles /
execution cycles; migrate when AvgPageWalk > 200 and overhead > 5 %.
The bench drives workloads that should and should not trigger the rule
and checks the monitor's decisions.
"""

from conftest import once

from repro.analysis.results import Table
from repro.analysis.report import format_table
from repro.machine import MachineSpec
from repro.paging.tlb import AccessPattern
from repro.workloads import (
    DaxVMOptions,
    Interface,
    RepetitiveConfig,
    run_repetitive,
)


def _windowed(pattern):
    """Run one access phase and return (avg walk, overhead, fired)."""
    system = MachineSpec(device_gib=4).build()
    system.fs.allow_huge = False
    cfg = RepetitiveConfig(
        file_size=32 << 20, op_size=4096, num_ops=8192,
        pattern=pattern, interface=Interface.DAXVM,
        daxvm=DaxVMOptions(ephemeral=False, unmap_async=False,
                           nosync=True))
    result = run_repetitive(system, cfg)
    walk = result.counters.get("vm.walk_cycles", 0.0)
    misses = result.counters.get("vm.tlb_misses", 1.0)
    avg = walk / misses
    overhead = walk / result.cycles
    costs = system.costs
    fired = (avg > costs.monitor_walk_cycles
             and overhead > costs.monitor_mmu_overhead)
    return avg, overhead, fired


def test_table3_monitor_rule(benchmark):
    def experiment():
        return {
            "seq": _windowed(AccessPattern.SEQUENTIAL),
            "rand": _windowed(AccessPattern.RANDOM),
        }

    out = once(benchmark, experiment)
    table = Table("Table III: monitor inputs on PMem file tables",
                  ["pattern", "AvgPageWalk (cycles)", "MMU overhead",
                   "rule fires"])
    for pattern, (avg, overhead, fired) in out.items():
        table.add_row(pattern, avg, f"{overhead:.1%}", fired)
    print(format_table(table))

    # Sequential access over PMem tables: walks are cheap per miss —
    # the rule must NOT fire.
    seq_avg, _seq_ov, seq_fired = out["seq"]
    assert seq_avg < 200
    assert not seq_fired
    # Random access: dear walks, heavy MMU share — the rule fires.
    rand_avg, rand_ov, rand_fired = out["rand"]
    assert rand_avg > 200
    assert rand_ov > 0.05
    assert rand_fired
