"""Table II: average page-walk cycles, DRAM vs PMem file tables.

The paper measures (with perf) the average walk cost of sequential and
random 4 KB reads over a 10 GB memory-mapped file whose page tables
live in DRAM or in PMem.  Here the same quantity comes out of the
simulator's stats: walk cycles / TLB misses during the access phase of
a repetitive workload over a DaxVM mapping with volatile vs persistent
file tables.
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

PAPER = {("seq", "dram"): 28, ("rand", "dram"): 111,
         ("seq", "pmem"): 103, ("rand", "pmem"): 821}


def _avg_walk(pattern, tables):
    system = MachineSpec(device_gib=4).build()
    system.fs.allow_huge = False  # 4 KB PTE walks, as in the paper
    cfg = RepetitiveConfig(
        file_size=64 << 20, op_size=4096, num_ops=16384,
        pattern=pattern, interface=Interface.DAXVM,
        daxvm=DaxVMOptions(ephemeral=False, unmap_async=False,
                           nosync=True))
    if tables == "dram":
        # Keep tables volatile regardless of size (the DRAM column).
        system.costs = system.costs.replace(
            filetable_volatile_max=1 << 30)
        system.fs.costs = system.costs
    result = run_repetitive(system, cfg)
    return (result.counters["vm.walk_cycles"]
            / result.counters["vm.tlb_misses"])


def test_table2_walk_cycles(benchmark):
    def experiment():
        out = {}
        for pattern in (AccessPattern.SEQUENTIAL, AccessPattern.RANDOM):
            for tables in ("dram", "pmem"):
                out[(pattern.value, tables)] = _avg_walk(pattern, tables)
        return out

    out = once(benchmark, experiment)
    table = Table("Table II: average page-walk cycles",
                  ["benchmark", "DRAM tables", "PMem tables",
                   "paper DRAM", "paper PMem"])
    for pat in ("seq", "rand"):
        table.add_row(f"{pat} read", out[(pat, "dram")],
                      out[(pat, "pmem")], PAPER[(pat, "dram")],
                      PAPER[(pat, "pmem")])
    print(format_table(table))

    for key, expected in PAPER.items():
        assert abs(out[key] - expected) / expected < 0.25, \
            f"{key}: {out[key]} vs paper {expected}"


def test_table2_shape_assertions(benchmark):
    def experiment():
        return {
            "seq_dram": _avg_walk(AccessPattern.SEQUENTIAL, "dram"),
            "rand_dram": _avg_walk(AccessPattern.RANDOM, "dram"),
            "seq_pmem": _avg_walk(AccessPattern.SEQUENTIAL, "pmem"),
            "rand_pmem": _avg_walk(AccessPattern.RANDOM, "pmem"),
        }

    out = once(benchmark, experiment)
    # Random access walks cost several times sequential walks.
    assert out["rand_dram"] > 2.5 * out["seq_dram"]
    # PMem-resident tables multiply the walk cost (up to ~800 cycles).
    assert out["rand_pmem"] > 5 * out["rand_dram"]
    assert out["rand_pmem"] > 600
    # Within 25 % of every Table II cell.
    for key, expected in [("seq_dram", 28), ("rand_dram", 111),
                          ("seq_pmem", 103), ("rand_pmem", 821)]:
        assert abs(out[key] - expected) / expected < 0.25
