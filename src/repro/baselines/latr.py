"""LATR (Kumar et al., ASPLOS'18): lazy TLB coherence via messages.

LATR replaces synchronous shootdown IPIs with per-core message queues:
the unmapping core posts an invalidation record for every other core,
and each core applies pending invalidations at its next context
switch/tick.  The paper compares DaxVM's asynchronous unmapping
against LATR (Fig. 8a discussion) and finds LATR helps by ~10 % at 8
cores but stops scaling because:

* shootdowns are not the only bottleneck (paging and ``mmap_sem``
  remain), and
* LATR's own state tracking is protected by locks that become the new
  contention point.

Both properties are reproduced here: the unmapper still takes
``mmap_sem`` as a writer (it replaces only the TLB-coherence step) and
serialises on a global LATR state lock, while remote cores are charged
a small deferred apply cost instead of an IPI.
"""

from __future__ import annotations

from repro.config import CostModel
from repro.obs import Counter, CostDomain, charge
from repro.sim.engine import Engine
from repro.sim.locks import Spinlock
from repro.sim.stats import Stats
from repro.vm.mm import MMStruct
from repro.vm.vma import VMA

#: Posting one invalidation record to a remote core's queue.
LATR_MSG_POST = 160.0
#: Deferred apply cost charged to each remote core (sweep at tick).
LATR_APPLY = 300.0


class LatrUnmapper:
    """munmap with LATR lazy invalidation instead of IPIs."""

    def __init__(self, engine: Engine, mm: MMStruct, costs: CostModel,
                 stats: Stats):
        self.engine = engine
        self.mm = mm
        self.costs = costs
        self.stats = stats
        #: LATR's global state lock — its documented scalability wart.
        self.state_lock = Spinlock(engine, costs, "latr.state")
        self.lazy_invalidations = 0

    def munmap(self, vma: VMA):
        """Unmap with lazy TLB coherence.  Generator."""
        yield charge(CostDomain.SYSCALL, "latr-munmap",
                     self.costs.syscall_crossing)
        yield from self.mm.mmap_sem.acquire_write()
        pages = self.mm.scheme.clear_range(vma.start, vma.length)
        yield charge(CostDomain.SYSCALL, "pte-teardown",
                     pages * self.costs.pte_teardown
                     + self.costs.vma_free)
        # Post invalidation records instead of sending IPIs.
        yield from self.state_lock.acquire()
        remote = [c for c in self.mm.active_cores
                  if c != self.mm._initiator_core()]
        yield charge(CostDomain.TLB_SHOOTDOWN, "latr-msg-post",
                     LATR_MSG_POST * len(remote)
                     + self.costs.tlb_invlpg * min(
                         pages, self.costs.full_flush_threshold))
        self.engine.interrupt_cores(remote, LATR_APPLY)
        self.lazy_invalidations += len(remote)
        self.stats.add(Counter.LATR_LAZY_INVALIDATIONS, len(remote))
        yield from self.state_lock.release()
        self.mm._drop_vma(vma)
        yield from self.mm.mmap_sem.release_write()
        self.stats.add(Counter.VM_MUNMAP_CALLS)
