"""Crash consistency and reboot recovery tests (paper §IV-A1)."""

from repro.core.recovery import (
    RecoveryLog,
    simulate_crash,
    verify_table_consistency,
)
from repro.mem.physmem import Medium
from repro.vm.vma import Protection


def run(system, gen):
    thread = system.spawn(gen, core=0)
    system.run()
    return thread.result


def make_files(system, specs):
    def flow():
        inodes = []
        for path, size in specs:
            f = yield from system.fs.open(path, create=True)
            yield from system.fs.write(f, 0, size)
            yield from system.fs.close(f)
            inodes.append(f.inode)
        return inodes

    return run(system, flow())


def test_persistent_tables_survive_clean_power_cycle(system):
    manager = system.filetables
    (big,) = make_files(system, [("/big", 2 << 20)])
    small, = make_files(system, [("/small", 16 << 10)])
    assert big.persistent_file_table is not None
    assert small.volatile_file_table is not None

    report = system.power_cycle()
    # Volatile tables died with DRAM; persistent ones survive intact.
    assert small.volatile_file_table is None
    assert big.persistent_file_table is not None
    assert report.tables_intact >= 1
    assert report.tables_repaired == 0
    assert verify_table_consistency(big)


def test_crash_tears_and_recovery_replays(system):
    manager = system.filetables
    system.fs.allow_huge = False  # PTE-level tables, tearable tails
    inodes = make_files(system, [(f"/f{i}", 1 << 20) for i in range(6)])

    lost = simulate_crash(system.vfs, seed=3)
    assert lost > 0
    torn = [i for i in inodes
            if i.persistent_file_table.filled_pages
            != i.extents.block_count]
    assert torn, "the crash should have torn at least one table"

    report = RecoveryLog(system.vfs, manager).recover_all()
    assert report.tables_repaired == len(torn)
    assert report.ptes_replayed == lost
    for inode in inodes:
        assert inode.persistent_file_table.filled_pages == \
            inode.extents.block_count
        assert verify_table_consistency(inode)


def test_crash_recovery_via_power_cycle(system):
    manager = system.filetables
    system.fs.allow_huge = False
    make_files(system, [("/a", 512 << 10), ("/b", 512 << 10)])
    report = system.power_cycle(crash=True, seed=1)
    assert report is not None
    assert report.inodes_scanned == 2
    assert report.tables_intact + report.tables_repaired == 2


def test_recovered_tables_are_mappable(system):
    manager = system.filetables
    system.fs.allow_huge = False
    (inode,) = make_files(system, [("/x", 1 << 20)])
    system.power_cycle(crash=True, seed=7)

    proc = system.new_process()
    dax = system.daxvm_for(proc)

    def flow():
        vma = yield from dax.mmap(inode, 0, 1 << 20, Protection.READ)
        yield from proc.mm.access(vma, vma.user_addr - vma.start,
                                  1 << 20)
        return vma

    vma = run(system, flow())
    assert vma.leaf_medium is Medium.PMEM
    # Every page of the recovered mapping translates correctly.
    tr = proc.mm.scheme.translate(vma.user_addr + 100 * 4096)
    assert tr.frame == system.device.frame_of(
        inode.extents.physical_block(100))


def test_leading_table_truncated_back(system):
    """A table that *leads* the extent map (torn after table flush)
    is truncated back to the metadata's truth."""
    manager = system.filetables
    system.fs.allow_huge = False
    (inode,) = make_files(system, [("/lead", 256 << 10)])
    table = inode.persistent_file_table
    # Fake a lead: pretend the extents lost their last block.
    freed = inode.extents.truncate_to(inode.extents.block_count - 4)
    assert table.filled_pages > inode.extents.block_count

    report_holder = []
    log = RecoveryLog(system.vfs, manager)
    report = log.recover_all()
    assert report.tables_repaired == 1
    assert table.filled_pages == inode.extents.block_count
