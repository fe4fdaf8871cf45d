"""Figure 4: read-once (ephemeral) throughput relative to read().

Single thread, aged ext4 image, file sizes 4 KB - 64 MB.  The paper's
shapes: mmap ~20 % below read for small files; MAP_POPULATE between;
DaxVM above read (up to ~1.5x) across the range and robust to
fragmentation where baseline mmap's large-file throughput decays.
"""

from dataclasses import replace

from conftest import AGED, once, sweep_runs

from repro.analysis.results import Series
from repro.analysis.report import format_series

SIZES = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20,
         16 << 20, 64 << 20]
INTERFACES = ["mmap", "populate", "daxvm"]


def _mb_per_second(base, kbs, interfaces):
    """``{(interface, KB): MB/s}`` of the ephemeral sweep's cells."""
    runs = sweep_runs("ephemeral", ops=300, base=base,
                      keep=lambda point: (point.x in kbs
                                          and point.series in interfaces))
    return {key: pr.run.mb_per_second for key, pr in runs.items()}


def test_fig4_relative_throughput(benchmark):
    def experiment():
        kbs = [size >> 10 for size in SIZES]
        mbs = _mb_per_second(AGED, kbs, ["read"] + INTERFACES)
        rel = {i: Series(i) for i in INTERFACES}
        for kb in kbs:
            for interface in INTERFACES:
                rel[interface].add(kb, mbs[(interface, kb)]
                                   / mbs[("read", kb)])
        return rel

    rel = once(benchmark, experiment)
    print(format_series(
        "Fig 4: ephemeral throughput relative to read (aged ext4)",
        rel.values(), x_label="KB"))

    mmap = rel["mmap"]
    populate = rel["populate"]
    daxvm = rel["daxvm"]
    # Small files: mmap below read (the small-files problem).
    for kb in (4, 16, 64):
        assert mmap.y_at(kb) < 1.0
        assert mmap.y_at(kb) > 0.55   # ~20-30 % worse, not collapsed
    # Populate helps as size grows.
    assert populate.y_at(1024) > mmap.y_at(1024)
    # DaxVM above read from 16 KB on, approaching the paper's ~1.5x.
    for kb in (16, 64, 256, 1024, 4096):
        assert daxvm.y_at(kb) > 1.0
    assert max(daxvm.ys()) > 1.35
    # DaxVM's benefit is robust across large (fragmented) files.
    assert daxvm.y_at(16 << 10) > 1.3
    assert daxvm.y_at(64 << 10) > 1.3


def test_fig4_daxvm_robust_to_fragmentation(benchmark):
    """The fresh-vs-aged comparison: baseline mmap's large-file edge
    erodes on the aged image, DaxVM's does not."""

    def experiment():
        kb = 16 << 10
        out = {}
        for aged in (False, True):
            mbs = _mb_per_second(replace(AGED, aged=aged), [kb],
                                 ["read", "mmap", "daxvm"])
            read = mbs[("read", kb)]
            out[aged] = (mbs[("mmap", kb)] / read,
                         mbs[("daxvm", kb)] / read)
        return out

    out = once(benchmark, experiment)
    print(f"16MB files    mmap/read  daxvm/read")
    print(f"  fresh image   {out[False][0]:.2f}      {out[False][1]:.2f}")
    print(f"  aged image    {out[True][0]:.2f}      {out[True][1]:.2f}")
    mmap_drop = out[False][0] - out[True][0]
    daxvm_drop = out[False][1] - out[True][1]
    assert mmap_drop > 0.15          # fragmentation hurts baseline MM
    assert daxvm_drop < mmap_drop / 2  # DaxVM barely moves
