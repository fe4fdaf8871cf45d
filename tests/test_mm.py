"""MMStruct tests: mmap/munmap, demand paging, dirty tracking, msync."""

import pytest

from repro.errors import NotSupportedError
from repro.paging.tlb import AccessPattern
from repro.vm.vma import MapFlags, Protection

PAGE = 4096


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def make_file(system, size, path="/f"):
    def flow():
        f = yield from system.fs.open(path, create=True)
        yield from system.fs.write(f, 0, size)
        return f

    return run(system, flow())


def test_mmap_inserts_vma_and_munmap_removes(system):
    f = make_file(system, 64 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 64 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        assert proc.mm.find_vma(vma.start) is vma
        assert vma in f.inode.i_mmap
        yield from proc.mm.munmap(vma)
        assert proc.mm.find_vma(vma.start) is None
        assert vma not in f.inode.i_mmap

    run(system, flow())
    assert system.stats.get("vm.mmap_calls") == 1
    assert system.stats.get("vm.munmap_calls") == 1


def test_demand_faults_install_translations_once(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        first = system.stats.get("vm.faults")
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        return first, system.stats.get("vm.faults")

    first, second = run(system, flow())
    assert first == 8
    assert second == 8  # warm accesses take no faults


def test_populate_prefaults(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 * PAGE, Protection.READ,
            MapFlags.SHARED | MapFlags.POPULATE)
        before = system.stats.get("vm.faults")
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        return before, system.stats.get("vm.faults")

    before, after = run(system, flow())
    assert before == after == 0  # populate is not a fault


def test_huge_page_mapping_on_fresh_image(system):
    f = make_file(system, 4 << 20)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4 << 20,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 4 << 20)
        return vma

    vma = run(system, flow())
    assert len(vma.huge_regions) == 2
    assert system.stats.get("vm.huge_faults") == 2
    assert system.stats.get("vm.pte_faults") == 0


def test_huge_disabled_falls_back_to_ptes(system):
    system.fs.allow_huge = False
    f = make_file(system, 2 << 20)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 2 << 20,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 2 << 20)
        return vma

    vma = run(system, flow())
    assert not vma.huge_regions
    assert len(vma.populated) == 512


def test_write_tracking_takes_permission_faults(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 4 * PAGE, write=True)
        return vma

    vma = run(system, flow())
    assert system.stats.get("vm.dirty_faults") == 4
    assert proc.mm.page_cache.dirty_count(f.inode) == 4
    assert len(vma.writable) == 4


def test_mapsync_write_fault_commits_journal(system):
    f = make_file(system, 4 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 4 * PAGE, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC)
        yield from proc.mm.access(vma, 0, 2 * PAGE, write=True)

    run(system, flow())
    assert system.stats.get("journal.sync_commits") == 2


def test_msync_flushes_and_restarts_tracking(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 4 * PAGE, write=True)
        faults1 = system.stats.get("vm.dirty_faults")
        yield from proc.mm.msync(vma)
        yield from proc.mm.access(vma, 0, 4 * PAGE, write=True)
        return faults1, system.stats.get("vm.dirty_faults")

    faults1, faults2 = run(system, flow())
    assert faults1 == 4
    assert faults2 == 8  # re-protected after msync: faults repeat
    assert system.stats.get("vm.msync_flushed") == 4
    assert proc.mm.page_cache.dirty_count(f.inode) == 4


def test_msync_fault_blowup_matches_paper_section3(system):
    """§III-A4: 1 msync / 10 writes => ~2.8x more faults than no sync."""
    f = make_file(system, 4 << 20, path="/blow")
    proc = system.new_process()

    def flow(sync_every):
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 4 << 20,
                                      Protection.rw(), MapFlags.SHARED)
        before = system.stats.get("vm.faults")
        # 1 KB writes revisiting a 40-page working set, as the random
        # writes over the paper's 10 GB file revisit pages over time.
        for i in range(200):
            offset = (i * 7 * PAGE) % (40 * PAGE)
            yield from proc.mm.access(vma, offset, 1024, write=True)
            if sync_every and (i + 1) % sync_every == 0:
                yield from proc.mm.msync(vma)
        count = system.stats.get("vm.faults") - before
        yield from proc.mm.munmap(vma)
        return count

    system.fs.allow_huge = False
    no_sync = run(system, flow(0))
    with_sync = run(system, flow(10))
    assert with_sync / no_sync > 1.5


def test_nosync_mapping_takes_no_tracking_faults(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 * PAGE, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC | MapFlags.NO_MSYNC)
        yield from proc.mm.access(vma, 0, 8 * PAGE, write=True)
        yield from proc.mm.msync(vma)

    run(system, flow())
    assert system.stats.get("vm.dirty_faults") == 0
    assert system.stats.get("vm.msync_noop") == 1


def test_munmap_triggers_shootdown_on_other_cores(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()
    proc.mm.register_thread(0)
    proc.mm.register_thread(1)

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        yield from proc.mm.munmap(vma)

    run(system, flow())
    assert system.stats.get("tlb.shootdowns") >= 1
    assert system.stats.get("tlb.ipis") >= 1


def test_mprotect_full_range(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 8 * PAGE,
                                      Protection.rw(), MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 8 * PAGE)
        yield from proc.mm.mprotect(vma, 0, 8 * PAGE, Protection.READ)
        return vma

    vma = run(system, flow())
    assert vma.prot == Protection.READ
    assert not proc.mm.scheme.translate(vma.start).flags.writable


def test_mprotect_rejected_on_ephemeral(system):
    f = make_file(system, 8 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 * PAGE, Protection.rw(),
            MapFlags.SHARED | MapFlags.EPHEMERAL)
        yield from proc.mm.mprotect(vma, 0, 8 * PAGE, Protection.READ)

    with pytest.raises(NotSupportedError):
        run(system, flow())


def test_mremap_shrink(system):
    f = make_file(system, 16 * PAGE)
    proc = system.new_process()

    def flow():
        vma = yield from proc.mm.mmap(system.fs, f.inode, 0, 16 * PAGE,
                                      Protection.READ, MapFlags.SHARED)
        yield from proc.mm.access(vma, 0, 16 * PAGE)
        yield from proc.mm.mremap(vma, 8 * PAGE)
        return vma

    vma = run(system, flow())
    assert vma.length == 8 * PAGE
    assert max(vma.populated) < 8


def test_random_access_charges_more_tlb_than_sequential(system):
    f = make_file(system, 8 << 20, path="/tlb")
    system.fs.allow_huge = False
    proc = system.new_process()

    def flow(pattern):
        vma = yield from proc.mm.mmap(
            system.fs, f.inode, 0, 8 << 20, Protection.READ,
            MapFlags.SHARED | MapFlags.POPULATE)
        before = system.stats.get("vm.walk_cycles")
        yield from proc.mm.access(vma, 0, 4096, pattern=pattern,
                                  ops=500)
        cost = system.stats.get("vm.walk_cycles") - before
        yield from proc.mm.munmap(vma)
        return cost

    seq = run(system, flow(AccessPattern.SEQUENTIAL))
    rand = run(system, flow(AccessPattern.RANDOM))
    assert rand > seq
