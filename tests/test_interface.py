"""daxvm_mmap/daxvm_munmap interface semantics (paper §IV-F)."""

import pytest

from repro.errors import InvalidArgumentError, NotSupportedError
from repro.mem.physmem import Medium
from repro.vm.vma import MapFlags, Protection

PAGE = 4096
PMD = 2 << 20


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def make_file(system, size, path="/f"):
    def flow():
        f = yield from system.fs.open(path, create=True)
        yield from system.fs.write(f, 0, size)
        return f.inode

    return run(system, flow())


def setup(system):
    proc = system.new_process()
    dax = system.daxvm_for(proc)
    return proc, dax


def test_mmap_rounds_to_pmd_and_returns_requested_offset(system):
    proc, dax = setup(system)
    inode = make_file(system, 4 << 20)

    def flow():
        vma = yield from dax.mmap(inode, offset=PAGE, length=PAGE,
                                  prot=Protection.READ)
        return vma

    vma = run(system, flow())
    assert vma.start % PMD == 0
    assert vma.length == PMD          # silently maps the whole 2 MB
    assert vma.user_addr == vma.start + PAGE
    assert vma.fully_populated


def test_o1_attachment_count_scales_with_regions_not_pages(system):
    proc, dax = setup(system)
    small = make_file(system, 64 << 10, path="/s")
    big = make_file(system, 8 << 20, path="/b")

    def flow(inode, size):
        vma = yield from dax.mmap(inode, 0, size, Protection.READ)
        return vma

    v_small = run(system, flow(small, 64 << 10))
    v_big = run(system, flow(big, 8 << 20))
    assert len(v_small.attachments) == 1
    assert len(v_big.attachments) == 4  # one per 2 MB, not per page
    # No faults are ever taken on DaxVM mappings.
    assert system.stats.get("vm.faults") == 0


def test_mmap_latency_near_constant_in_file_size(system):
    """The headline O(1) property: mapping 16 MB costs about the same
    as mapping 64 KB (far less than proportionally more)."""
    proc, dax = setup(system)
    small = make_file(system, 64 << 10, path="/s")
    big = make_file(system, 16 << 20, path="/b")

    def timed(inode, size):
        def flow():
            t0 = system.engine.now
            vma = yield from dax.mmap(inode, 0, size, Protection.READ)
            return system.engine.now - t0
        return run(system, flow())

    t_small = timed(small, 64 << 10)
    t_big = timed(big, 16 << 20)
    assert t_big < t_small * 8  # 256x the size, < 8x the cost


def test_pud_level_attachment_for_gb_files(system):
    proc, dax = setup(system)
    # Use a sparse trick: fallocate > 1 GB needs a big device; instead
    # check the granule selection logic on a ~1.5 GB request backed by
    # a smaller filled table (attachments only cover filled regions).
    inode = make_file(system, 64 << 20, path="/big")

    def flow():
        vma = yield from dax.mmap(inode, 0, (1 << 30) + (512 << 20),
                                  Protection.READ)
        return vma

    vma = run(system, flow())
    assert vma.start % (1 << 30) == 0
    # PUD-level: one attachment per GB-level PMD node present.
    assert len(vma.attachments) == 1


def test_per_process_permissions_on_shared_tables(system):
    """Two processes share file tables with different rights (§IV-A2)."""
    proc1 = system.new_process("p1")
    proc2 = system.new_process("p2")
    dax1 = system.daxvm_for(proc1)
    dax2 = system.daxvm_for(proc2)
    inode = make_file(system, 1 << 20)
    system.fs.allow_huge = False  # force shared PTE fragments

    def flow():
        ro = yield from dax1.mmap(inode, 0, 1 << 20, Protection.READ)
        rw = yield from dax2.mmap(
            inode, 0, 1 << 20, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC | MapFlags.NO_MSYNC)
        return ro, rw

    ro, rw = run(system, flow())
    assert not proc1.mm.scheme.translate(ro.user_addr).flags.writable
    assert proc2.mm.scheme.translate(rw.user_addr).flags.writable
    # Same shared fragment object underneath.
    assert ro.attachments[0][2] is rw.attachments[0][2]


def test_daxvm_leaf_medium_reflects_table_placement(system):
    proc, dax = setup(system)
    system.fs.allow_huge = False
    small = make_file(system, 16 << 10, path="/v")
    big = make_file(system, 1 << 20, path="/p")

    def flow(inode, size):
        return (yield from dax.mmap(inode, 0, size, Protection.READ))

    v = run(system, flow(small, 16 << 10))
    p = run(system, flow(big, 1 << 20))
    assert v.leaf_medium is Medium.DRAM
    assert p.leaf_medium is Medium.PMEM


def test_private_mappings_rejected(system):
    proc, dax = setup(system)
    inode = make_file(system, PAGE)

    def flow():
        yield from dax.mmap(inode, 0, PAGE, Protection.READ,
                            MapFlags.PRIVATE)

    with pytest.raises(NotSupportedError):
        run(system, flow())


def test_no_msync_requires_sync(system):
    proc, dax = setup(system)
    inode = make_file(system, PAGE)

    def flow():
        yield from dax.mmap(inode, 0, PAGE, Protection.rw(),
                            MapFlags.SHARED | MapFlags.NO_MSYNC)

    with pytest.raises(InvalidArgumentError):
        run(system, flow())


def test_partial_mprotect_fails_whole_mapping_works(system):
    proc, dax = setup(system)
    inode = make_file(system, 4 << 20)

    def flow():
        vma = yield from dax.mmap(inode, 0, 4 << 20, Protection.rw(),
                                  MapFlags.SHARED | MapFlags.SYNC
                                  | MapFlags.NO_MSYNC)
        with pytest.raises(NotSupportedError):
            yield from dax.mprotect(vma, PMD, PMD, Protection.READ)
        yield from dax.mprotect(vma, 0, vma.length, Protection.READ)
        return vma

    vma = run(system, flow())
    assert vma.prot == Protection.READ


def test_madvise_unsupported(system):
    proc, dax = setup(system)
    inode = make_file(system, PAGE)

    def flow():
        vma = yield from dax.mmap(inode, 0, PAGE, Protection.READ)
        return vma

    vma = run(system, flow())
    with pytest.raises(NotSupportedError):
        dax.madvise(vma, "dontneed")


def test_msync_noop_under_no_msync(system):
    proc, dax = setup(system)
    inode = make_file(system, 1 << 20)

    def flow():
        vma = yield from dax.mmap(
            inode, 0, 1 << 20, Protection.rw(),
            MapFlags.SHARED | MapFlags.SYNC | MapFlags.NO_MSYNC)
        yield from proc.mm.access(vma, vma.user_addr - vma.start,
                                  1 << 20, write=True)
        yield from dax.msync(vma)

    run(system, flow())
    assert system.stats.get("vm.msync_noop") == 1
    assert system.stats.get("vm.dirty_faults") == 0


def test_dirty_tracking_at_2mb_granularity(system):
    """§IV-D: one permission fault per 2 MB, not per 4 KB."""
    proc, dax = setup(system)
    inode = make_file(system, 4 << 20)

    def flow():
        vma = yield from dax.mmap(inode, 0, 4 << 20, Protection.rw(),
                                  MapFlags.SHARED | MapFlags.SYNC)
        yield from proc.mm.access(vma, vma.user_addr - vma.start,
                                  4 << 20, write=True)
        return vma

    vma = run(system, flow())
    assert system.stats.get("vm.dirty_faults") == 2  # 4 MB / 2 MB
    assert proc.mm.page_cache.dirty_count(inode) == 2


def test_user_space_persistence_helper(system):
    proc, dax = setup(system)

    def flow():
        yield from dax.persist_user(1 << 20)

    run(system, flow())
    assert system.stats.get("daxvm.user_flush_bytes") == 1 << 20


def test_sync_unmap_detaches_and_flushes(system):
    proc, dax = setup(system)
    inode = make_file(system, 1 << 20)

    def flow():
        vma = yield from dax.mmap(inode, 0, 1 << 20, Protection.READ)
        yield from dax.munmap(vma)
        return vma

    vma = run(system, flow())
    assert system.stats.get("tlb.shootdowns") >= 1
    assert vma not in inode.i_mmap
    # The file table itself survives the unmap (it is shared state).
    assert system.filetables.table_for(inode).filled_pages == 256
