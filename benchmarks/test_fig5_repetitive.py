"""Figure 5: repetitive 1 KB / 4 KB access over a large aged file.

One pass over the file (as in the paper's setup, where op count x op
size ~ file size).  Paper shapes: at 1 KB every mmap interface is at
or above the syscalls (default mmap only ~11 % ahead sequentially); at
4 KB default mmap falls *below* the syscalls; DaxVM (nosync) beats
syscalls by 1.3-3.9x and mmap by up to ~2x.
"""

from conftest import AGED, once, sweep_runs

from repro.analysis.results import Table
from repro.analysis.report import format_table

VARIANTS = ["syscall", "mmap", "populate", "daxvm"]


def test_fig5_repetitive_access(benchmark):
    def experiment():
        # One pass over the 96 MB file at both op sizes.
        runs = sweep_runs("repetitive", ops=96 << 10, base=AGED,
                          keep=lambda point: (point.series.split(
                              ":")[-1] in VARIANTS))
        return {(op_size, *series.split(":")): pr.run.ops_per_second / 1e3
                for (series, op_size), pr in runs.items()}

    out = once(benchmark, experiment)
    table = Table("Fig 5: repetitive access (Kops/s)",
                  ["op", "pattern", "mode"] + VARIANTS)
    for op_size in (1024, 4096):
        for pat in ("seq", "rand"):
            for mode in ("read", "write"):
                table.add_row(op_size, pat, mode,
                              *[out[(op_size, pat, mode, v)]
                                for v in VARIANTS])
    print(format_table(table))

    def ratio(op, pat, mode, a, b):
        return out[(op, pat, mode, a)] / out[(op, pat, mode, b)]

    # 1 KB: mmap competitive with syscalls (within ~15 %), DaxVM well
    # ahead of both.
    for pat in ("seq", "rand"):
        for mode in ("read", "write"):
            assert ratio(1024, pat, mode, "mmap", "syscall") > 0.85
            assert ratio(1024, pat, mode, "daxvm", "syscall") > 1.3
            assert ratio(1024, pat, mode, "daxvm", "mmap") > 1.4

    # 4 KB: default mmap falls below the syscall path (sequential),
    # DaxVM restores a 1.3-2.7x advantage.
    assert ratio(4096, "seq", "read", "mmap", "syscall") < 1.0
    assert ratio(4096, "seq", "write", "mmap", "syscall") < 1.0
    for pat in ("seq", "rand"):
        for mode in ("read", "write"):
            assert 1.3 < ratio(4096, pat, mode, "daxvm", "syscall") < 4.2
            assert ratio(4096, pat, mode, "daxvm", "mmap") > 1.25


def test_fig5_monitor_migration_helps_random_access(benchmark):
    """§V-B: migrating file tables to DRAM buys ~10 % on irregular
    access (Table III policy in action)."""

    def experiment():
        runs = sweep_runs("repetitive", ops=96 << 10, base=AGED,
                          keep=lambda point: point.series.startswith(
                              "monitor:"))
        return tuple(runs[(f"monitor:{monitor}", 4096)].run.ops_per_second
                     for monitor in (0, 2048))

    without, with_monitor = once(benchmark, experiment)
    gain = with_monitor / without
    print(f"Fig 5 monitor ablation: migration gain = {gain:.3f}x "
          f"(paper: ~1.10x)")
    assert 1.02 < gain < 1.35
