"""Crash consistency and reboot recovery for persistent file tables.

Paper §IV-A1: persistent file tables are updated inside the file
system's journal transaction (ext4) or before the log commit (NOVA);
their PTEs are flushed on write and reuse the commit's fence.  After a
crash, replaying open transactions recovers incomplete PTEs — a table
can only ever lag or lead its inode's extent map by the contents of
one uncommitted transaction, and recovery walks both back into sync.

:func:`simulate_crash` models the power failure itself: it randomly
truncates the *tail* of each persistent table's most recent extension
(the unflushed cache lines of the last transaction), which is exactly
the damage the persistence discipline permits.  :meth:`RecoveryLog.
recover_all` is the mount-time replay that repairs it.  Volatile
tables simply vanish with DRAM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.core.filetable import FileTableManager
from repro.fs.vfs import Inode, VFS
from repro.obs import Counter


@dataclass
class RecoveryReport:
    """What a mount-time recovery pass found and fixed."""

    inodes_scanned: int = 0
    tables_intact: int = 0
    tables_repaired: int = 0
    ptes_replayed: int = 0
    volatile_dropped: int = 0
    repaired_paths: List[str] = field(default_factory=list)


def simulate_crash(vfs: VFS, seed: int = 0,
                   max_lost_ptes: int = 64) -> int:
    """Power-fail the machine: drop volatile state, tear the tails of
    persistent tables within the window the journal discipline allows.

    Returns the number of PTEs lost (to be recovered by replay).
    """
    rng = random.Random(seed)
    lost = 0
    for path in vfs.paths():
        inode = vfs.lookup(path)
        # DRAM contents are gone.
        if inode.volatile_file_table is not None:
            inode.volatile_file_table.destroy()
            inode.volatile_file_table = None
        table = inode.persistent_file_table
        if table is None or table.filled_pages == 0:
            continue
        # At most the last (unfenced) batch of PTE fills can be torn.
        torn = rng.randrange(0, max_lost_ptes + 1)
        torn = min(torn, table.filled_pages)
        if torn:
            table.truncate(table.filled_pages - torn)
            lost += torn
    vfs.inode_cache.evict_all()
    return lost


class RecoveryLog:
    """Mount-time replay: re-sync persistent tables with extent maps."""

    def __init__(self, vfs: VFS, manager: FileTableManager):
        self.vfs = vfs
        self.manager = manager

    def recover_inode(self, inode: Inode,
                      report: RecoveryReport) -> None:
        report.inodes_scanned += 1
        table = inode.persistent_file_table
        if table is None:
            # Policy may want one (the file is large): rebuild lazily
            # on first mmap; nothing to replay now.
            return
        expected = inode.extents.block_count
        if table.filled_pages == expected:
            report.tables_intact += 1
            return
        if table.filled_pages > expected:
            # The table leads the extent map (transaction torn after
            # the table flush): truncate it back.
            table.truncate(expected)
        missing_before = expected - table.filled_pages
        self.manager.fs.stats.add(
            Counter.DAXVM_RECOVERY_PTES, max(0, missing_before))
        table.extend(self.manager.fs)
        report.tables_repaired += 1
        report.ptes_replayed += max(0, missing_before)
        report.repaired_paths.append(inode.path)

    def recover_all(self) -> RecoveryReport:
        """The mount-time scan over every inode.

        Iterates in inode-number order — the order a real mount scan
        walks the inode table — so recovery reports are stable across
        runs regardless of path names, and usable in golden files.
        """
        report = RecoveryReport()
        for inode in self.vfs.inodes():
            self.recover_inode(inode, report)
        return report


def verify_table_consistency(inode: Inode) -> bool:
    """Invariant check: every filled translation matches the extents.

    Used by tests and by the recovery pass's post-condition: for each
    file page below ``filled_pages``, the table's frame (huge or PTE)
    must equal the extent map's physical frame.
    """
    table = inode.persistent_file_table or inode.volatile_file_table
    if table is None:
        return True  # no table: nothing to disagree with the extents
    if table.filled_pages != inode.extents.block_count:
        return False
    for region, node in table.pte_nodes.items():
        for idx, entry in node.entries.items():
            page = region * 512 + idx
            phys = inode.extents.physical_block(page)
            if phys is None:
                return False
            expected_frame = table._allocator.device.frame_of(phys) \
                if hasattr(table._allocator, "device") else None
            if expected_frame is not None and \
                    entry.frame != expected_frame:
                return False
    return True
