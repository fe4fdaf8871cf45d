"""§VI: DaxVM beyond persistent memory (extension study).

Not a numbered figure — the paper's discussion section argues DaxVM's
mechanisms transfer to any byte-addressable storage (CXL
memory-semantic SSDs) and matter even more as media approach DRAM.
This bench runs the ephemeral microbenchmark on three media presets
(the ``media`` sweep) and checks both claims: the DaxVM-over-read
advantage survives a slow CXL flash device, and *grows* on a near-DRAM
NVM (where software is all that is left to optimise).
"""

from conftest import AGED, once, sweep_runs

from repro.analysis.results import Table
from repro.analysis.report import format_table
from repro.config import MEDIA_PRESETS


def test_beyond_pmem_media_sweep(benchmark):
    def experiment():
        runs = sweep_runs("media", ops=400, size=32 << 10, base=AGED)
        out = {}
        for media in MEDIA_PRESETS:
            read, mmap, daxvm = (runs[(f"{media}:{interface}", 32)].run
                                 for interface in ("read", "mmap",
                                                   "daxvm"))
            out[media] = {
                "read_us": read.latency_us,
                "mmap_rel": mmap.mb_per_second / read.mb_per_second,
                "daxvm_rel": daxvm.mb_per_second / read.mb_per_second,
            }
        return out

    out = once(benchmark, experiment)
    table = Table("§VI: 32KB ephemeral access across media",
                  ["media", "read us/file", "mmap rel. read",
                   "daxvm rel. read"])
    for media, row in out.items():
        table.add_row(media, row["read_us"], row["mmap_rel"],
                      row["daxvm_rel"])
    print(format_table(table))

    # DaxVM beats read on every medium; default mmap never does.
    for media, row in out.items():
        assert row["daxvm_rel"] > 1.0, media
        assert row["mmap_rel"] < 1.0, media
    # As media approach DRAM, the software stack dominates and the
    # DaxVM advantage grows (fast-nvm > optane).
    assert out["fast-nvm"]["daxvm_rel"] > out["optane"]["daxvm_rel"]
    # Even on microsecond-scale CXL flash the O(1) interface wins.
    assert out["cxl-flash"]["daxvm_rel"] > 1.0
