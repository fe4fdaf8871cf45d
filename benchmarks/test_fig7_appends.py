"""Figure 7: append throughput on ext4-DAX and NOVA.

Single-op appends of 4 KB - 4 MB onto empty files.  Paper shapes:

* ext4 zeroes on *both* paths, so DaxVM's pre-zeroing turns into an
  outright win over write() (up to ~2x at larger sizes) and nosync
  adds more; at 4 KB DaxVM trails (table construction overhead);
* NOVA skips zeroing on the write path, so write() leads MM by >2x —
  pre-zeroing narrows the gap and pre-zero+nosync overtakes write()
  by up to ~45 %.
"""

from conftest import once, sweep_runs

from repro.analysis.results import Table
from repro.analysis.report import format_table
from repro.machine import MachineSpec

SIZES = [4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]


def _runs(fs_type, keep=lambda point: True):
    """The ``appends`` sweep's ``fs_type`` points that ``keep`` accepts
    (40 appends each on a fresh 4 GiB image), as
    ``{(size, variant): RunResult}``."""
    runs = sweep_runs(
        "appends", ops=320, base=MachineSpec(device_gib=4),
        keep=lambda point: (point.series.startswith(f"{fs_type}:")
                            and keep(point)))
    return {(int(kb) << 10, series.split(":", 1)[1]): pr.run
            for (series, kb), pr in runs.items()}


def _sweep(fs_type):
    runs = _runs(fs_type)
    return {(size, variant): run.mb_per_second
            / runs[(size, "write")].mb_per_second
            for (size, variant), run in runs.items()}


def _print(fs_type, out):
    table = Table(f"Fig 7 ({fs_type}): append throughput rel. write()",
                  ["KB", "mmap", "daxvm", "daxvm+pz", "daxvm+pz+ns"])
    for size in SIZES:
        table.add_row(size >> 10, out[(size, "mmap")],
                      out[(size, "daxvm")],
                      out[(size, "daxvm+prezero")],
                      out[(size, "daxvm+prezero+nosync")])
    print(format_table(table))


def test_fig7_ext4(benchmark):
    out = once(benchmark, lambda: _sweep("ext4"))
    _print("ext4-DAX", out)

    # Pre-zeroing improves DaxVM MM appends up to ~2x at larger sizes.
    big = 1 << 20
    assert out[(big, "daxvm+prezero")] > 1.6 * out[(big, "mmap")]
    assert out[(big, "daxvm+prezero")] / out[(big, "daxvm")] > 1.5
    # On ext4 this beats the (conservatively zeroing) write syscall.
    assert out[(big, "daxvm+prezero")] > 1.5
    # nosync adds on top.
    assert out[(big, "daxvm+prezero+nosync")] >= \
        out[(big, "daxvm+prezero")]
    # Tiny appends: DaxVM pays table construction and trails write().
    assert out[(4 << 10, "daxvm")] < 1.0


def test_fig7_nova(benchmark):
    out = once(benchmark, lambda: _sweep("nova"))
    _print("NOVA", out)

    # NOVA write() (no zeroing) leads default MM by ~2x at large sizes.
    big = 1 << 20
    assert out[(big, "mmap")] < 0.65
    # Pre-zeroing narrows the gap; +nosync overtakes write() (paper:
    # up to +45 %).
    assert out[(big, "daxvm+prezero")] > out[(big, "daxvm")]
    assert 1.0 < out[(4 << 20, "daxvm+prezero+nosync")] < 1.8


def test_fig7_zeroing_share_of_append_latency(benchmark):
    """§III-B: 30-40 % of an MM append's latency is block zeroing."""

    sizes = (64 << 10, 256 << 10, 1 << 20)

    def experiment():
        runs = _runs("ext4", lambda point: (
            int(point.x) << 10 in sizes
            and point.series in ("ext4:daxvm", "ext4:daxvm+prezero")))
        return [1 - (runs[(size, "daxvm+prezero")].latency_us
                     / runs[(size, "daxvm")].latency_us)
                for size in sizes]

    shares = once(benchmark, experiment)
    print("Fig 7 zeroing share of MM append latency:",
          [f"{s:.0%}" for s in shares], "(paper: ~30-40%)")
    for share in shares:
        assert 0.2 < share < 0.6
