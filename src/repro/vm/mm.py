"""``MMStruct`` — the simulated Linux memory manager for one process.

This is the baseline whose inherent costs §III of the paper dissects:

* one global ``mmap_sem`` reader/writer semaphore serialising every
  address-space operation (writers: mmap/munmap; readers: faults);
* a red-black tree recording every VMA;
* demand paging — each first touch of a page takes a fault that
  installs a PTE (or a PMD leaf when extent geometry allows);
* software dirty tracking — shared writable file pages start
  write-protected; the first store takes a permission fault that tags
  the page-cache tree (plus, under MAP_SYNC on ext4, a synchronous
  journal commit);
* synchronous munmap with IPI TLB shootdowns to every core running
  the process.

DaxVM (in :mod:`repro.core`) subclasses none of this; it *composes*
with it, replacing exactly the pieces the paper replaces and leaving
the rest (the semaphore, the VMA tree for non-ephemeral mappings, the
shootdown controller) shared — which is what lets the benchmarks turn
individual optimisations on and off (Fig. 8a's incremental bars).

Cost-fidelity note: operations touching few pages are simulated as
true per-page events through the semaphore (preserving lock contention
across threads); bulk operations over many pages aggregate their
per-page costs into one event under a single semaphore hold, which is
exact for the single-threaded large-file workloads that use them.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.config import CostModel
from repro.errors import (
    AddressSpaceError,
    InvalidArgumentError,
    NotSupportedError,
    PoisonedPageError,
)
from repro.fs.base import FileSystem
from repro.fs.vfs import Inode
from repro.mem.latency import MemoryModel
from repro.mem.physmem import Medium, PhysicalMemory
from repro.paging.pagetable import PMD_LEVEL
from repro.paging.flags import PageFlags
from repro.paging.schemes import make_scheme
from repro.obs import Counter, CostDomain, charge, charge_span
from repro.obs.counters import counter_key
from repro.paging.tlb import AccessPattern, ShootdownController, TLBModel
from repro.paging.walker import PageWalker
from repro.sim.engine import Engine
from repro.sim.locks import RWSemaphore
from repro.sim.stats import Stats
from repro.vm.dirty import DirtyTracker
from repro.vm.layout import AddressSpaceLayout
from repro.vm.rbtree import RBTree
from repro.vm.vma import PAGE_SIZE, VMA, MapFlags, Protection

PMD_SIZE = 2 << 20
PAGES_PER_PMD = PMD_SIZE // PAGE_SIZE
#: Above this many pending faults, aggregate them into one bulk event.
BULK_FAULT_THRESHOLD = 64

#: Counter keys pre-resolved for the demand-fault path: these three
#: fire once per 4 KB fault and the ``Stats.add`` call frame plus enum
#: lookup are measurable at millions of faults per sweep.
_VM_FAULTS_KEY = counter_key(Counter.VM_FAULTS)
_VM_PTE_FAULTS_KEY = counter_key(Counter.VM_PTE_FAULTS)
_VM_HUGE_FAULTS_KEY = counter_key(Counter.VM_HUGE_FAULTS)


class MMStruct:
    """One process's memory manager."""

    def __init__(self, engine: Engine, costs: CostModel,
                 physmem: PhysicalMemory, mem: MemoryModel, stats: Stats,
                 aslr_seed: int = 0, name: str = "mm",
                 topology=None, home_node: int = 0,
                 scheme: str = "radix4"):
        self.engine = engine
        self.costs = costs
        self.physmem = physmem
        self.mem = mem
        self.stats = stats
        self.name = name
        #: repro.topology.MachineTopology (duck-typed; None = uniform)
        #: and the process's home socket: private page tables allocate
        #: there, and it is the fallback accessor node.
        self.topology = topology
        self.home_node = home_node
        #: The process's translation architecture.  ``radix4`` *is* the
        #: pre-refactor ``PageTable`` (same allocation order, same
        #: costs); the alternative MMUs plug in behind the same hooks.
        self.scheme = make_scheme(scheme, physmem, costs, Medium.DRAM,
                                  node=home_node)
        self.mmap_sem = RWSemaphore(engine, costs, f"{name}.mmap_sem")
        #: The trap-entry charge is a constant; the engine only reads
        #: effects, so one shared instance serves every demand fault.
        self._fault_entry_charge = charge(CostDomain.FAULT, "fault-entry",
                                          costs.fault_entry)
        self.vmas = RBTree()
        self.layout = AddressSpaceLayout(aslr_seed)
        self.page_cache = DirtyTracker()
        self.walker = PageWalker(costs)
        self.tlb = TLBModel(costs, costs.machine)
        self.shootdowns = ShootdownController(engine, costs, stats,
                                              topology=topology)
        #: Cores currently running this process's threads (cpumask).
        self.active_cores: Set[int] = set()
        #: :class:`repro.virt.GuestAddressSpace` when this mm *is* a
        #: guest under a hypervisor; ``None`` (bare machine) skips
        #: every virt hook.  A pass-through guest installs the hook
        #: but yields nothing, keeping the event stream bit-identical.
        self.guest = None

    # ------------------------------------------------------------------
    # Thread registration (cpumask maintenance).
    # ------------------------------------------------------------------
    def register_thread(self, core_index: int) -> None:
        self.active_cores.add(core_index)

    def _initiator_core(self) -> int:
        current = self.engine.current
        return current.core.index if current is not None else 0

    def _numa_info(self, vma: VMA, first_page: int,
                   medium: Medium = Medium.PMEM):
        """(latency factor, bandwidth factor, target node, is-remote)
        for the running thread touching a mapping — or ``None`` on
        uniform machines, keeping the single-socket path untouched.
        ``medium`` is where the data actually resides (the device's
        native medium unless a tier overlay promoted it)."""
        if self.topology is None or self.topology.num_nodes == 1:
            return None
        frame = None
        if vma.fs is not None and vma.inode is not None:
            try:
                frame = vma.fs.frame_for_page(
                    vma.inode, vma.file_page(first_page))
            except Exception:
                frame = None  # hole/ephemeral: fall back to uniform
        return self.mem.numa_factors(
            self._initiator_core(), frame, medium)

    # ------------------------------------------------------------------
    # VMA lookup.
    # ------------------------------------------------------------------
    def find_vma(self, addr: int) -> Optional[VMA]:
        hit = self.vmas.floor(addr)
        if hit is None:
            return None
        vma = hit[1]
        return vma if vma.contains(addr) else None

    # ------------------------------------------------------------------
    # mmap / munmap.
    # ------------------------------------------------------------------
    def mmap(self, fs: FileSystem, inode: Inode, offset: int, length: int,
             prot: Protection, flags: MapFlags):
        """Map ``length`` bytes of a file; returns the VMA."""
        if length <= 0:
            raise InvalidArgumentError("mmap length must be positive")
        length = -(-length // PAGE_SIZE) * PAGE_SIZE
        yield charge(CostDomain.SYSCALL, "mmap",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        yield charge(CostDomain.SYSCALL, "vma-alloc", self.costs.vma_alloc)
        start = self.layout.allocate(length)
        vma = VMA(start, start + length, inode, offset, prot, flags)
        vma.fs = fs
        vma.mm = self
        self.vmas.insert(start, vma)
        inode.i_mmap.append(vma)
        if self.guest is not None:
            self.guest.note_mapping(vma)
        yield from self.mmap_sem.release_write()
        if flags & MapFlags.POPULATE:
            # mm_populate runs after the map is installed, holding the
            # semaphore only as a reader (as Linux does).
            yield from self.mmap_sem.acquire_read()
            yield from self._populate_locked(
                vma, 0, vma.num_pages, write=bool(prot & Protection.WRITE))
            yield from self.mmap_sem.release_read()
        self.stats.add(Counter.VM_MMAP_CALLS)
        return vma

    def munmap(self, vma: VMA):
        """Synchronously unmap a VMA (the POSIX-faithful path)."""
        yield charge(CostDomain.SYSCALL, "munmap",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        yield from self._teardown_locked(vma)
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_MUNMAP_CALLS)

    def _teardown_locked(self, vma: VMA, flush: bool = True):
        """Clear translations, flush TLBs, drop the VMA (sem held)."""
        pages = self.scheme.clear_range(vma.start, vma.length)
        teardown = pages * self.costs.pte_teardown
        teardown += self.scheme.detach_cost(len(vma.attachments))
        yield charge(CostDomain.SYSCALL, "pte-teardown",
                     teardown + self.costs.vma_free)
        if flush and pages + len(vma.attachments) > 0:
            flush_pages = pages + len(vma.attachments) * PAGES_PER_PMD
            yield from self.shootdowns.flush(
                self._initiator_core(), self.active_cores, flush_pages)
        self._drop_vma(vma)

    def _drop_vma(self, vma: VMA) -> None:
        self.vmas.delete(vma.start)
        if vma.inode is not None and vma in vma.inode.i_mmap:
            vma.inode.i_mmap.remove(vma)
        self.layout.free(vma.start, vma.length)
        vma.populated.clear()
        vma.writable.clear()
        vma.huge_regions.clear()

    # ------------------------------------------------------------------
    # Demand paging.
    # ------------------------------------------------------------------
    def _page_state(self, vma: VMA, page: int) -> bool:
        """Is this VMA-relative page populated?"""
        return (vma.fully_populated
                or page // PAGES_PER_PMD in vma.huge_regions
                or page in vma.populated)

    def _install_page(self, vma: VMA, page: int,
                      writable: bool) -> Tuple[float, bool]:
        """Install translation(s) for one page; returns (cycles, huge).

        Prefers a PMD huge leaf when the extent geometry and alignment
        allow covering the whole 2 MB region.
        """
        fs: FileSystem = vma.fs
        file_page = vma.file_page(page)
        region = page // PAGES_PER_PMD
        vaddr_region = vma.start + region * PMD_SIZE
        flags = PageFlags.rw() if writable else PageFlags.ro()

        region_first_page = region * PAGES_PER_PMD
        file_region_page = vma.file_page(region_first_page)
        faults = self.mem.faults
        can_huge = (
            vaddr_region % PMD_SIZE == 0
            and vaddr_region + PMD_SIZE <= vma.end
            and file_region_page % PAGES_PER_PMD == 0
            and fs.pmd_capable(vma.inode, file_region_page)
            and not any(p in vma.populated
                        for p in range(region_first_page,
                                       region_first_page + PAGES_PER_PMD))
            # A PMD leaf must never cover a poisoned frame — the region
            # falls back to 4 KB PTEs so the poisoned page alone traps.
            and not (faults is not None
                     and faults.poisoned_in(
                         vma.inode, file_region_page,
                         file_region_page + PAGES_PER_PMD - 1)))
        lookup = fs.fault_lookup_cost(vma.inode)
        if can_huge:
            frame = fs.frame_for_page(vma.inode, file_region_page)
            self.scheme.map_page(vaddr_region, frame, flags, PMD_LEVEL)
            vma.huge_regions.add(region)
            self.stats.counters[_VM_HUGE_FAULTS_KEY] += 1.0
            return self.costs.fault_dax_pmd + lookup, True
        frame = fs.frame_for_page(vma.inode, file_page)
        if frame is None:
            raise InvalidArgumentError(
                f"{vma.inode.path}: fault beyond allocated blocks "
                f"(file page {file_page})")
        if faults is not None and faults.poisoned_frame(frame):
            # Raced arming: the frame went bad after the pre-lock check.
            self._raise_sigbus(vma.inode, frame, file_page)
        self.scheme.map_page(vma.start + page * PAGE_SIZE, frame, flags)
        vma.populated.add(page)
        self.stats.counters[_VM_PTE_FAULTS_KEY] += 1.0
        return self.costs.fault_dax_pte + lookup, False

    def fault(self, vma: VMA, page: int, write: bool):
        """One demand fault, fully simulated through the semaphore."""
        yield self._fault_entry_charge
        faults = self.mem.faults
        if faults is not None and vma.inode is not None:
            # Poison check *before* taking mmap_sem: the common SIGBUS
            # path must not leave the semaphore held when it raises.
            file_page = vma.file_page(page)
            hit = faults.find_poisoned(vma.inode, file_page, file_page)
            if hit is not None:
                self._raise_sigbus(vma.inode, hit[0], hit[1])
        yield from self.mmap_sem.acquire_read()
        cost = 0.0
        if not self._page_state(vma, page):
            install, _huge = self._install_page(
                vma, page, writable=not vma.tracks_dirty)
            cost += install
        if write and vma.tracks_dirty:
            cost += yield from self._dirty_fault_locked(vma, page)
        yield charge(CostDomain.FAULT, "fault-install", cost)
        yield from self.mmap_sem.release_read()
        self.stats.counters[_VM_FAULTS_KEY] += 1.0

    def _dirty_fault_locked(self, vma: VMA, page: int):
        """Write-protect fault: tag page cache, maybe commit metadata."""
        granule = vma.dirty_granule or PAGE_SIZE
        gindex = (vma.file_offset + page * PAGE_SIZE) // granule
        track_key = gindex
        if track_key in vma.writable:
            if self.page_cache.in_sync(vma.inode, gindex):
                # The PTE is still writable only because an in-flight
                # msync has not reprotected it yet; this write lands
                # after that sync's flush swept the lines, so the
                # granule must come back dirty *after* the sync epoch.
                self.page_cache.remark_after_sync(vma.inode, gindex)
            return 0.0
        vma.writable.add(track_key)
        self.page_cache.mark(vma.inode, gindex)
        cost = self.costs.dirty_track_per_page
        self.stats.add(Counter.VM_DIRTY_FAULTS)
        if vma.flags & MapFlags.SYNC:
            fs: FileSystem = vma.fs
            yield from fs.mapsync_fault()
        return cost

    def _populate_locked(self, vma: VMA, first_page: int, npages: int,
                         write: bool):
        """Bulk PTE installation under one semaphore hold.

        Used by MAP_POPULATE and by bulk demand faulting; charges the
        per-page fault body (no trap entry for populate).  Returns the
        number of install events (huge installs cover 512 pages each),
        so demand-fault callers can charge one trap per event.
        """
        cost = 0.0
        installs = 0
        page = first_page
        end = first_page + npages
        while page < end:
            if self._page_state(vma, page):
                page += 1
                continue
            install, huge = self._install_page(
                vma, page, writable=write and not vma.tracks_dirty)
            cost += install
            installs += 1
            page += PAGES_PER_PMD - page % PAGES_PER_PMD if huge else 1
        yield charge(CostDomain.FAULT, "bulk-install", cost)
        return installs

    # ------------------------------------------------------------------
    # The data access path used by every workload.
    # ------------------------------------------------------------------
    def access(self, vma: VMA, offset: int, length: int, *,
               write: bool = False,
               pattern: AccessPattern = AccessPattern.SEQUENTIAL,
               ops: Optional[int] = None,
               data_cached: bool = False,
               ntstore: bool = True,
               copy: bool = False,
               touch_bytes: Optional[int] = None):
        """Access ``[offset, offset+length)`` of a mapping.

        Performs demand faulting for unpopulated pages, write-protect
        (dirty-tracking) faults for tracked writable mappings, charges
        the data movement itself, and charges TLB miss costs.

        ``ops`` — for RANDOM pattern: the number of random operations
        of size ``length`` issued within the VMA window starting at
        ``offset`` (default 1 sequential pass).  ``touch_bytes`` lets a
        caller touch less data than the faulted window (e.g. a 1 KB
        write into a 4 KB page).  ``copy=True`` models memcpy between
        the mapping and a DRAM buffer (the database access idiom of
        Figs. 1c/5) instead of in-place scanning; with ``write=True``
        and ``ntstore=False`` the stores stay in the cache and
        durability is deferred to a later sync.
        """
        if length <= 0:
            raise InvalidArgumentError("access length must be positive")
        first_page = offset // PAGE_SIZE
        last_page = (offset + length - 1) // PAGE_SIZE
        npages = last_page - first_page + 1

        # -- media faults (before any translation is touched) -------------
        if self.mem.faults is not None and vma.inode is not None:
            yield from self._media_map_check(vma, first_page, last_page,
                                             write=write)

        # -- hypervisor intercept (post-copy page pulls) -------------------
        if self.guest is not None:
            yield from self.guest.on_access(vma, first_page, last_page,
                                            write=write)

        # -- demand faults ------------------------------------------------
        if vma.fully_populated:
            missing = []
        else:
            # ``_page_state`` inlined: this scan runs for every access
            # of every workload and the predicate is pure.
            populated = vma.populated
            huge_regions = vma.huge_regions
            missing = [p for p in range(first_page, last_page + 1)
                       if p // PAGES_PER_PMD not in huge_regions
                       and p not in populated]
        if missing:
            if len(missing) <= BULK_FAULT_THRESHOLD:
                for page in missing:
                    yield from self.fault(vma, page, write=False)
            else:
                yield from self.mmap_sem.acquire_read()
                installs = yield from self._populate_locked(
                    vma, first_page, npages, write=False)
                yield from self.mmap_sem.release_read()
                yield charge(CostDomain.FAULT, "fault-entry",
                             self.costs.fault_entry * installs)
                self.stats.add(Counter.VM_FAULTS, installs)

        # -- dirty-tracking write faults -----------------------------------
        if write and vma.tracks_dirty:
            yield from self._write_track(vma, first_page, last_page)
            self.page_cache.add_bytes(
                vma.inode, (touch_bytes or length) * (ops or 1))
        elif write:
            self.stats.add(Counter.VM_UNTRACKED_WRITES)

        # -- data movement ---------------------------------------------------
        nbytes = touch_bytes if touch_bytes is not None else length
        num_ops = ops or 1
        # The tier overlay (when attached) may have migrated this
        # window off the device's native medium; `None` — the default —
        # resolves to PMem, reproducing the pre-tiering model exactly.
        tiers = self.mem.tiers
        if tiers is None or vma.inode is None:
            data_medium = Medium.PMEM
        else:
            data_medium = tiers.medium_for(vma.inode,
                                           vma.file_page(first_page))
            tiers.note_touch(vma.inode, vma.file_page(first_page),
                             vma.file_page(last_page), write=write)
        numa = self._numa_info(vma, first_page, data_medium)
        lat_f, bw_f, target_node, numa_remote = numa or (1.0, 1.0, 0, False)
        # One registry lookup prices the whole access: every helper
        # below takes the resolved spec (the buffer side is DRAM's).
        mem = self.mem
        data_spec = mem.spec(data_medium)

        def movement(lat_factor: float, bw_factor: float) -> float:
            """Pure data-movement cycles under given NUMA factors (the
            uniform call reproduces the pre-topology costs bit for
            bit — every factor is exactly 1.0)."""
            if write and copy:
                return mem.memcpy_spec(
                    nbytes, mem.dram_spec, data_spec, ntstore=ntstore,
                    bw_factor=bw_factor) * num_ops
            if write:
                return mem.stream_write_spec(
                    nbytes, data_spec, ntstore=ntstore,
                    node=target_node, bw_factor=bw_factor) * num_ops
            if copy:
                cycles = mem.memcpy_spec(nbytes, data_spec, mem.dram_spec,
                                         bw_factor=bw_factor)
                if pattern is AccessPattern.RANDOM:
                    cycles += mem.load_latency_spec(data_spec,
                                                    factor=lat_factor)
                return cycles * num_ops
            if pattern is AccessPattern.RANDOM:
                return (mem.load_latency_spec(data_spec, factor=lat_factor)
                        + mem.stream_read_spec(
                            nbytes, data_spec, cached=data_cached,
                            node=target_node,
                            bw_factor=bw_factor)) * num_ops
            return mem.stream_read_spec(
                nbytes, data_spec, cached=data_cached, node=target_node,
                bw_factor=bw_factor) * num_ops

        data = movement(lat_f, bw_f)
        # The cycles added by crossing the UPI link are ledgered
        # separately so perf breakdowns can show the remote tax.
        numa_extra = data - movement(1.0, 1.0) if numa_remote else 0.0

        # -- device bandwidth contention ------------------------------------
        # Only media sharing the PMem DIMM pools contend there; data a
        # tier overlay moved to DRAM/CXL rides its own channel.
        total_bytes = nbytes * num_ops
        if not data_cached and data_spec.device_pooled:
            wait = mem.device_delay(
                0 if write else total_bytes,
                total_bytes if write else 0, self.engine.now,
                node=target_node)
            data = max(data, wait)

        # -- TLB misses --------------------------------------------------------
        tlb_cost = self._tlb_cost(vma, first_page, npages, pattern,
                                  num_ops, nbytes, leaf_factor=lat_f)
        # One yield for the whole burst: there is no kernel code
        # between these charges, so span-merging them is bit-identical
        # (the engine interprets span entries with per-entry arithmetic).
        entries = [(CostDomain.COPY if copy else CostDomain.USERSPACE,
                    "data-access", data - numa_extra)]
        if numa_extra:
            entries.append((CostDomain.NUMA, "remote-access", numa_extra))
        entries.append((CostDomain.WALK, "tlb-walk", tlb_cost))
        yield charge_span(entries)

        # -- durability shadowing and sync-epoch races ----------------------
        if write and vma.inode is not None:
            if vma.tracks_dirty:
                granule = vma.dirty_granule or PAGE_SIZE
                lo = (vma.file_offset + offset) // granule
                hi = (vma.file_offset + offset + length - 1) // granule
                for gindex in range(lo, hi + 1):
                    if self.page_cache.in_sync(vma.inode, gindex):
                        self.page_cache.remark_after_sync(vma.inode, gindex)
            domain = getattr(self.mem, "persistence", None)
            if domain is not None:
                domain.data_store(vma.inode.number, nbytes * num_ops,
                                  nt=ntstore)
        self.stats.add(Counter.VM_ACCESS_BYTES, nbytes * num_ops)
        if numa is not None:
            if numa_remote:
                self.stats.add(Counter.NUMA_REMOTE_ACCESSES, num_ops)
                self.stats.add(Counter.NUMA_REMOTE_BYTES, total_bytes)
            else:
                self.stats.add(Counter.NUMA_LOCAL_ACCESSES, num_ops)
                self.stats.add(Counter.NUMA_LOCAL_BYTES, total_bytes)

    # ------------------------------------------------------------------
    # Media-fault handling (repro.faults).
    # ------------------------------------------------------------------
    def _raise_sigbus(self, inode: Inode, frame: int, file_page: int):
        """Deliver the simulated SIGBUS for a poisoned mapped page."""
        faults = self.mem.faults
        faults.note_sigbus()
        raise PoisonedPageError(
            f"{inode.path}: SIGBUS touching poisoned file page "
            f"{file_page} (frame {frame:#x})",
            frame=frame, inode=inode.number, path=inode.path,
            file_page=file_page)

    def _media_map_check(self, vma: VMA, first_page: int, last_page: int,
                         write: bool):
        """Advance the fault clock for one mapped-access window.

        A UE arming here models the machine check a real load takes on
        a dead line: ``memory_failure()`` tears the frame out of every
        address space, then the access itself gets SIGBUS.  Poison left
        by earlier touches also SIGBUSes before any data moves.
        """
        faults = self.mem.faults
        inode = vma.inode
        first_fp = vma.file_page(first_page)
        last_fp = vma.file_page(last_page)
        stall, armed = faults.map_touch(
            "map-write" if write else "map-read", inode, first_fp,
            last_fp, allow_ue=not vma.fully_populated)
        if stall:
            # Device-wide freeze: other live threads' cores absorb the
            # window as FAULTS/stall-stolen (see Engine.broadcast_interrupt).
            self.engine.broadcast_interrupt(
                stall, CostDomain.FAULTS, "stall-stolen")
            yield charge(CostDomain.FAULTS, "device-stall", stall)
        if armed is not None:
            yield from self.memory_failure(inode, armed[1], armed[0])
        hit = faults.find_poisoned(inode, first_fp, last_fp)
        if hit is not None:
            self._raise_sigbus(inode, hit[0], hit[1])

    def memory_failure(self, inode: Inode, file_page: int, frame: int):
        """The kernel poison handler (``mm/memory-failure.c``).

        Unmaps the poisoned frame from *every* process mapping the
        file — one shootdown over the union of the owners' cpumasks —
        so no stale translation can reach the dead line; subsequent
        touches fault and receive SIGBUS.  A PMD leaf covering the
        frame is torn down whole: the region's surviving pages fault
        back in as 4 KB PTEs (the poison check in ``_install_page``
        keeps the region from going huge again).
        """
        ptes = 0
        flush_cores: Set[int] = set(self.active_cores)
        for mapping in inode.i_mmap:
            if mapping.fully_populated:
                # DaxVM file-table attachment: its translations live in
                # the shared file table, handled by the FS remap path;
                # arming (`allow_ue`) never poisons these mappings.
                continue
            page = file_page - mapping.file_offset // PAGE_SIZE
            if not 0 <= page < mapping.num_pages:
                continue
            mm = mapping.mm if mapping.mm is not None else self
            vaddr = mapping.start + page * PAGE_SIZE
            cleared = mm.scheme.clear_range(vaddr, PAGE_SIZE)
            if not cleared:
                continue
            ptes += cleared
            mapping.populated.discard(page)
            mapping.huge_regions.discard(page // PAGES_PER_PMD)
            if mm is not self:
                flush_cores |= mm.active_cores
        faults = self.mem.faults
        faults.note_memory_failure(ptes)
        yield charge(CostDomain.FAULTS, "memory-failure",
                     self.costs.memory_failure_base
                     + ptes * self.costs.pte_teardown)
        if ptes:
            yield from self.shootdowns.flush(
                self._initiator_core(), flush_cores, ptes)

    def _write_track(self, vma: VMA, first_page: int, last_page: int):
        """Take write-protect faults for untracked granules in range."""
        granule = vma.dirty_granule or PAGE_SIZE
        granules = sorted({
            (vma.file_offset + p * PAGE_SIZE) // granule
            for p in range(first_page, last_page + 1)})
        pending = [g for g in granules if g not in vma.writable]
        if not pending:
            return
        if len(pending) <= BULK_FAULT_THRESHOLD:
            for gindex in pending:
                page = (gindex * granule - vma.file_offset) // PAGE_SIZE
                page = max(first_page, page)
                yield charge(CostDomain.FAULT, "fault-entry",
                             self.costs.fault_entry)
                yield from self.mmap_sem.acquire_read()
                cost = yield from self._dirty_fault_locked(vma, page)
                yield charge(CostDomain.FAULT, "dirty-track", cost)
                yield from self.mmap_sem.release_read()
                self.stats.add(Counter.VM_FAULTS)
        else:
            yield from self.mmap_sem.acquire_read()
            cost = len(pending) * (self.costs.fault_entry
                                   + self.costs.dirty_track_per_page)
            for gindex in pending:
                vma.writable.add(gindex)
                self.page_cache.mark(vma.inode, gindex)
            self.stats.add(Counter.VM_DIRTY_FAULTS, len(pending))
            self.stats.add(Counter.VM_FAULTS, len(pending))
            if vma.flags & MapFlags.SYNC:
                fs: FileSystem = vma.fs
                if fs.mapsync_needs_commit:
                    yield charge(CostDomain.JOURNAL, "mapsync-commit",
                                 len(pending) * self.costs.journal_commit)
                    fs.stats.add(Counter.JOURNAL_SYNC_COMMITS,
                                 len(pending))
            yield charge(CostDomain.FAULT, "dirty-track", cost)
            yield from self.mmap_sem.release_read()

    def _tlb_cost(self, vma: VMA, first_page: int, npages: int,
                  pattern: AccessPattern, num_ops: int,
                  op_bytes: int, leaf_factor: float = 1.0) -> float:
        """TLB miss cycles for an access window.

        ``leaf_factor`` is the NUMA latency multiplier on PMem-resident
        leaf reads: a persistent file table lives on the file's socket,
        so remote mappings pay the cross-socket penalty on every walk.
        DRAM-resident (process-private) tables sit on the home node and
        stay at factor 1.
        """
        leaf_medium = getattr(vma, "leaf_medium", Medium.DRAM)
        if leaf_medium is not Medium.PMEM:
            leaf_factor = 1.0
        # Split the window into huge-covered and 4 KB-covered pages.
        huge_pages = sum(
            1 for p in range(first_page, first_page + npages)
            if p // PAGES_PER_PMD in vma.huge_regions)
        small_pages = npages - huge_pages
        huge_fraction = huge_pages / npages if npages else 0.0

        if pattern is AccessPattern.SEQUENTIAL and num_ops == 1:
            misses_small = small_pages
            misses_huge = max(1, huge_pages // PAGES_PER_PMD) if huge_pages else 0
        else:
            footprint = npages * PAGE_SIZE
            total = self.tlb.random_op_misses(num_ops, op_bytes,
                                              PAGE_SIZE, footprint)
            misses_small = total * (1 - huge_fraction)
            hfoot = huge_pages * PAGE_SIZE
            misses_huge = (self.tlb.random_op_misses(
                int(num_ops * huge_fraction) or 0, op_bytes, PMD_SIZE, hfoot)
                if huge_fraction else 0)
        # Schemes whose TLB entries span more than one page (the
        # range MMU: one entry per contiguous run) cap the per-page
        # miss count here; radix/hashed return it unchanged.
        misses_small = self.scheme.coalesce_tlb_misses(
            misses_small, vma.start + first_page * PAGE_SIZE,
            npages)
        walk_small = self.scheme.walk_cost(self.walker, pattern, leaf_medium,
                                           leaf_factor=leaf_factor)
        cost = (misses_small * walk_small
                + misses_huge * self.scheme.huge_walk_cost(self.walker))
        guest = self.guest
        if guest is not None and guest.nested:
            # Two-dimensional (guest-over-host) walk pricing: the same
            # misses, each walking both trees.  The surcharge over the
            # native walk is tracked so perf tables can show the
            # virtualisation tax; the cycles stay in the walk domain
            # (they *are* walk cycles).
            nested = (misses_small * self.scheme.nested_walk_cost(
                          self.walker, pattern, leaf_medium,
                          leaf_factor=leaf_factor)
                      + misses_huge
                      * self.scheme.nested_huge_walk_cost(self.walker))
            self.stats.add(Counter.VIRT_NESTED_WALK_CYCLES, nested - cost)
            cost = nested
        self.stats.add(Counter.VM_TLB_MISSES, misses_small + misses_huge)
        self.stats.add(Counter.VM_WALK_CYCLES, cost)
        return cost

    # ------------------------------------------------------------------
    # Sync operations.
    # ------------------------------------------------------------------
    def msync(self, vma: VMA):
        """Flush the mapping's dirty granules and restart tracking."""
        yield charge(CostDomain.SYSCALL, "msync",
                     self.costs.syscall_crossing)
        if vma.flags & MapFlags.NO_MSYNC:
            # DaxVM nosync mode: msync is a no-op (§IV-D).
            self.stats.add(Counter.VM_MSYNC_NOOP)
            return
        granule = vma.dirty_granule or PAGE_SIZE
        inode = vma.inode
        domain = getattr(self.mem, "persistence", None)
        upto = (domain.cursor()
                if domain is not None and inode is not None else None)
        written = self.page_cache.written_bytes(inode)
        # Open a sync epoch: between collecting the tags here and the
        # reprotect below, racing writes find their PTEs still writable
        # and must be re-marked dirty after the epoch closes.
        dirty = self.page_cache.begin_sync(inode)
        # Every line of a dirty granule must be swept with clwb, but
        # only lines actually written generate write-back traffic.
        swept_lines = len(dirty) * granule / 64
        writeback = min(written, len(dirty) * granule)
        flush_cost = (swept_lines * self.costs.clwb_issue_per_line
                      + self.mem.clwb_flush(int(writeback)))
        # Write-protect again for every process mapping the file.  The
        # reprotect touches *every* owner's page tables, so the
        # shootdown must reach the union of their active cores — an
        # IPI only to the caller's cpumask would leave stale writable
        # TLB entries live in the other processes.  Only the granules
        # this sync collected are reprotected; granules dirtied by
        # writes racing the epoch keep their writable PTEs and their
        # (re-marked) dirty tags.
        reprotect = 0.0
        protected_pages = 0
        flush_cores: Set[int] = set(self.active_cores)
        for mapping in inode.i_mmap:
            synced = mapping.writable & dirty
            if not synced:
                continue
            if mapping.mm is not None:
                flush_cores |= mapping.mm.active_cores
            protected_pages += len(synced) * (
                (mapping.dirty_granule or PAGE_SIZE) // PAGE_SIZE)
            reprotect += len(synced) * self.costs.pte_teardown
            mapping.writable -= synced
        yield charge(CostDomain.COPY, "msync-flush", flush_cost)
        yield charge(CostDomain.SYSCALL, "msync-reprotect", reprotect)
        if protected_pages:
            yield from self.shootdowns.flush(
                self._initiator_core(), flush_cores, protected_pages)
        self.page_cache.end_sync(inode)
        if upto is not None:
            # msync returned: the stores issued before it are promised
            # durable — flush, fence and acknowledge them.
            domain.sync_data(inode.number, upto)
        self.stats.add(Counter.VM_MSYNC_CALLS)
        self.stats.add(Counter.VM_MSYNC_FLUSHED, len(dirty))

    # ------------------------------------------------------------------
    # Other POSIX memory operations (baseline supports them fully).
    # ------------------------------------------------------------------
    def mprotect(self, vma: VMA, offset: int, length: int,
                 prot: Protection):
        if vma.is_ephemeral:
            raise NotSupportedError("mprotect on an ephemeral mapping")
        yield charge(CostDomain.SYSCALL, "mprotect",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        first = offset // PAGE_SIZE
        npages = -(-length // PAGE_SIZE)
        flags = (PageFlags.rw() if prot & Protection.WRITE
                 else PageFlags.ro())
        changed = self.scheme.protect_range(
            vma.start + first * PAGE_SIZE, npages * PAGE_SIZE, flags)
        yield charge(CostDomain.SYSCALL, "mprotect-ptes",
                     changed * self.costs.pte_teardown
                     + self.costs.vma_alloc)
        vma.prot = prot
        yield from self.shootdowns.flush(
            self._initiator_core(), self.active_cores, max(changed, 1))
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_MPROTECT_CALLS)

    def fork(self, child: "MMStruct"):
        """Duplicate this address space into ``child`` (fork()).

        Holds the semaphore as a writer (Table IV, set D) and copies
        every VMA plus its installed translations.  Shared file
        mappings stay shared (both mm's PTEs point at the same PMem
        frames); DaxVM attachments are *not* duplicated — a forked
        child re-establishes them with daxvm_mmap, which is O(1)
        anyway (and is what the paper's multi-process servers do).
        """
        yield charge(CostDomain.SYSCALL, "fork",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        copy_cost = 0.0
        for start, vma in list(self.vmas.items()):
            if vma.is_ephemeral or vma.attachments:
                continue
            clone = VMA(vma.start, vma.end, vma.inode, vma.file_offset,
                        vma.prot, vma.flags)
            clone.fs = vma.fs
            clone.mm = child
            clone.dirty_granule = vma.dirty_granule
            clone.leaf_medium = vma.leaf_medium
            child.vmas.insert(start, clone)
            child.layout.allocated_bytes += clone.length
            if vma.inode is not None:
                vma.inode.i_mmap.append(clone)
            copy_cost += self.costs.vma_alloc
            # Copy installed translations (write-protected in both
            # address spaces so dirty tracking restarts cleanly).
            fs: FileSystem = vma.fs
            for page in vma.populated:
                frame = fs.frame_for_page(vma.inode, vma.file_page(page))
                child.scheme.map_page(
                    vma.start + page * PAGE_SIZE, frame, PageFlags.ro())
                clone.populated.add(page)
                copy_cost += self.costs.pte_teardown
            for region in vma.huge_regions:
                frame = fs.frame_for_page(
                    vma.inode, vma.file_page(region * PAGES_PER_PMD))
                child.scheme.map_page(
                    vma.start + region * PMD_SIZE, frame,
                    PageFlags.ro(), PMD_LEVEL)
                clone.huge_regions.add(region)
                copy_cost += self.costs.pte_teardown
            vma.writable.clear()
        yield charge(CostDomain.COPY, "fork-copy", copy_cost)
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_FORKS)
        return child

    def mremap(self, vma: VMA, new_length: int):
        """Grow/shrink a mapping in place (whole-mapping resize)."""
        if vma.is_ephemeral:
            raise NotSupportedError("mremap on an ephemeral mapping")
        new_length = -(-new_length // PAGE_SIZE) * PAGE_SIZE
        yield charge(CostDomain.SYSCALL, "mremap",
                     self.costs.syscall_crossing)
        yield from self.mmap_sem.acquire_write()
        yield charge(CostDomain.SYSCALL, "vma-alloc", self.costs.vma_alloc)
        if new_length < vma.length:
            drop_start = vma.start + new_length
            pages = self.scheme.clear_range(
                drop_start, vma.length - new_length)
            yield charge(CostDomain.SYSCALL, "pte-teardown",
                         pages * self.costs.pte_teardown)
            if pages:
                yield from self.shootdowns.flush(
                    self._initiator_core(), self.active_cores, pages)
            vma.populated = {p for p in vma.populated
                             if p < new_length // PAGE_SIZE}
            # Return the dropped tail to the layout so later mmaps can
            # reuse it and teardown frees exactly what stays mapped.
            self.layout.free(drop_start, vma.length - new_length)
        elif new_length > vma.length:
            # Growing in place is only legal if the extension is still
            # free in the layout; reserve it (or fail, as Linux does
            # without MREMAP_MAYMOVE) before moving the VMA's end, or a
            # later mmap could allocate overlapping addresses.
            if not self.layout.reserve_range(vma.end,
                                             new_length - vma.length):
                yield from self.mmap_sem.release_write()
                raise AddressSpaceError(
                    f"mremap: cannot grow [{vma.start:#x}, {vma.end:#x}) "
                    f"in place; the range above it is already in use")
        vma.end = vma.start + new_length
        yield from self.mmap_sem.release_write()
        self.stats.add(Counter.VM_MREMAP_CALLS)
