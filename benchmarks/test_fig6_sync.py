"""Figure 6: kernel-space and user-space sync disciplines.

Sequential 1 KB writes over an aged-image file (huge pages off, as in
the paper), syncing at varying intervals.  Paper shapes:

* mmap+fsync loses to write()+fsync (up to ~68 %);
* DaxVM's fixed 2 MB flush granularity is up to an order of magnitude
  worse than default MM for sub-2 MB sync intervals, and at parity
  from 2 MB up;
* with user-space durability, default MM still trails write()+fsync
  (dirty-tracking faults it gets nothing for) while DaxVM nosync wins
  outright (paper: up to +80 %).
"""

from conftest import AGED, once, sweep_runs

from repro.analysis.results import Series
from repro.analysis.report import format_series
from repro.runner.sweeps import SYNC_INTERVALS
from repro.workloads import SyncDiscipline


def test_fig6_sync_disciplines(benchmark):
    def experiment():
        # About 2000 1 KB writes per point, at least 10 syncs.
        runs = sweep_runs("sync", ops=2000, base=AGED)
        series = {d: Series(d.value) for d in SyncDiscipline}
        for k in SYNC_INTERVALS:
            base = runs[(SyncDiscipline.WRITE_FSYNC.value, k)]
            for d in SyncDiscipline:
                value = (runs[(d.value, k)].run.mb_per_second
                         / base.run.mb_per_second
                         if d is not SyncDiscipline.WRITE_FSYNC else 1.0)
                series[d].add(k, value)
        return series

    series = once(benchmark, experiment)
    print(format_series(
        "Fig 6: throughput relative to write()+fsync (1KB writes)",
        series.values(), x_label="ops/sync"))

    mmap_fsync = series[SyncDiscipline.MMAP_FSYNC]
    daxvm_fsync = series[SyncDiscipline.DAXVM_FSYNC]
    mmap_user = series[SyncDiscipline.MMAP_USER]
    daxvm_nosync = series[SyncDiscipline.DAXVM_NOSYNC]

    # Kernel syncing of a mapping loses to write()+fsync at larger
    # intervals (paper: up to 68 % slowdown).
    for k in (64, 512, 2048, 8192):
        assert mmap_fsync.y_at(k) < 1.0
    assert min(mmap_fsync.ys()) > 0.3

    # DaxVM's 2 MB flushes: order-of-magnitude worse below 2 MB...
    assert daxvm_fsync.y_at(4) < 0.35
    # ... but at parity once the interval reaches 2 MB.
    assert daxvm_fsync.y_at(2048) > 0.8 * mmap_fsync.y_at(2048)

    # User-space durability: default MM still pays tracking faults and
    # trails write()+fsync; DaxVM nosync beats everything.
    for k in (64, 512, 2048):
        assert mmap_user.y_at(k) < 1.0
        assert daxvm_nosync.y_at(k) > 1.5
        assert daxvm_nosync.y_at(k) > mmap_user.y_at(k)
