"""Memory access cost functions and bandwidth throttling.

These pure functions translate "touch N bytes on medium M in pattern P"
into cycles, encoding the micro-architectural observations of §III-C of
the paper:

* user-space code reading a fresh DAX mapping pays PMem latency /
  bandwidth, while a ``read()`` system call's copy prefetches the data
  into the cache hierarchy, so subsequent user-space processing runs at
  cache speed;
* nt-stores deliver roughly double the PMem write bandwidth of regular
  stores followed by clwb/sfence flushes (Yang et al., FAST'20);
* kernel copies cannot use AVX-512 (register save/restore across the
  boundary), so they run at a discounted bandwidth.

Since the memory-tier refactor every cost here dispatches through the
:class:`~repro.mem.tiers.MediumSpec` registry — no function branches on
a specific :class:`~repro.mem.physmem.Medium` member, and an unknown
medium raises instead of silently pricing as PMem.  For DRAM and PMem
the specs carry the historical constants verbatim and the expressions
below combine them in the historical order, so DRAM+PMem-only machines
are bit-identical to the pre-refactor model (held by the ``tier``
golden of :mod:`repro.goldens`, replayed by ``tests/test_goldens.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.config import CostModel
from repro.errors import InvalidArgumentError
from repro.mem.physmem import Medium
from repro.mem.tiers import MediumSpec, medium_specs, spec_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology import MachineTopology


class SharedBandwidth:
    """The PMem device's aggregate read/write bandwidth ceilings.

    Single-threaded runs never feel these (one thread's streaming rate
    sits well below the device total); at high thread counts they are
    what flattens every interface's scaling curve, read() included.
    """

    def __init__(self, read_bw: float, write_bw: float, freq_hz: float):
        self.read_bw = read_bw
        self.write_bw = write_bw
        self.freq_hz = freq_hz
        self._read = BandwidthThrottle(read_bw, freq_hz)
        self._write = BandwidthThrottle(write_bw, freq_hz)
        #: Optional proportional-admission hook (duck-typed, installed
        #: by repro.tenancy when quotas are on): ``extra_delay(pool,
        #: read_bytes, write_bytes, now)`` rate-caps the *current
        #: tenant's* traffic at its weighted share of the pool without
        #: consuming anyone else's tokens.  ``None`` = unweighted.
        self.admission = None

    def delay(self, read_bytes: float, write_bytes: float,
              now: float) -> float:
        """Cycles until the device can complete this transfer."""
        wait = 0.0
        if read_bytes:
            wait = max(wait, self._read.delay_for(int(read_bytes), now))
        if write_bytes:
            wait = max(wait, self._write.delay_for(int(write_bytes), now))
        if self.admission is not None:
            wait = max(wait, self.admission.extra_delay(
                self, read_bytes, write_bytes, now))
        return wait

    def bytes_moved(self) -> float:
        """Cumulative bytes admitted through this pool (telemetry for
        the tiering daemon's expander-side rate limiter)."""
        return self._read.total_bytes + self._write.total_bytes


class MemoryModel:
    """Cycle costs for loads, stores, copies and flushes."""

    def __init__(self, costs: CostModel):
        self.costs = costs
        #: The pluggable tier registry: every pricing decision below
        #: reads the touched medium's spec instead of branching on the
        #: enum.
        self.specs = medium_specs(costs)
        #: DRAM's spec, resolved once: the CPU-side buffer of every
        #: copy the hot paths price (the registry is built above and
        #: never changes).
        self.dram_spec = self.spec(Medium.DRAM)
        #: Optional :class:`repro.tiering.TierMap` — the hot/cold data
        #: placement overlay consulted by the VM access path and the
        #: FS copy paths.  ``None`` (the default) means all file data
        #: lives on the device's native medium, which reproduces the
        #: pre-tiering model exactly.
        self.tiers = None
        #: Per-node device-level contention pools; set by System,
        #: absent in unit use.  Node 0's pool doubles as the legacy
        #: single-socket ``shared`` attribute.
        self._pools: List[Optional[SharedBandwidth]] = [None]
        #: Optane media interference: background write streams
        #: (pre-zeroing) disturb concurrent accesses beyond their
        #: bandwidth share (FAST'20's mixed-traffic penalty).  Kept as
        #: a per-node stack of active factors so multiple background
        #: streams compose (enter/exit) instead of clobbering a scalar.
        self._interference: List[List[float]] = [[]]
        #: Static NUMA description + frame->node recovery; wired by
        #: System via :meth:`set_topology`, absent in unit use (which
        #: then behaves exactly like the uniform pre-topology model).
        self.topology: Optional["MachineTopology"] = None
        self.node_of_frame: Optional[Callable[[int], int]] = None
        #: Optional :class:`repro.crash.PersistenceDomain`: durability
        #: state rides the same calls that price the data movement.
        #: Purely passive byte accounting — the cost results are
        #: untouched, so performance runs are bit-identical with or
        #: without a domain attached.
        self.persistence = None
        #: Optional :class:`repro.faults.MediaFaults`; the VM access
        #: path consults it for poisoned frames (SIGBUS) and it drives
        #: bandwidth-degradation windows through the interference
        #: stack.  ``None`` in ordinary performance runs.
        self.faults = None

    # -- NUMA wiring --------------------------------------------------------
    def set_topology(self, topology: "MachineTopology",
                     node_of_frame: Callable[[int], int]) -> None:
        """Teach the model the socket layout and frame ownership."""
        self.topology = topology
        self.node_of_frame = node_of_frame
        grow = topology.num_nodes - len(self._interference)
        for _ in range(grow):
            self._interference.append([])

    def numa_factors(self, core: Optional[int], frame: Optional[int],
                     medium: Medium) -> Tuple[float, float, int, bool]:
        """(latency factor, bandwidth factor, target node, is remote)
        for a core touching a frame.

        Uniform (no/1-node topology, or caller without placement info)
        degenerates to ``(1.0, 1.0, 0, False)`` — and multiplying by
        exactly 1.0 is bit-exact, so the uniform path reproduces the
        pre-topology numbers.
        """
        if (self.topology is None or self.topology.num_nodes == 1
                or core is None or frame is None):
            return 1.0, 1.0, 0, False
        core_node = self.topology.node_of_core(core)
        target = (self.node_of_frame(frame)
                  if self.node_of_frame is not None else core_node)
        return (self.topology.latency_factor(core_node, target, medium),
                self.topology.bandwidth_factor(core_node, target, medium),
                target, core_node != target)

    # -- per-node device bandwidth pools ------------------------------------
    def set_pools(self, pools: List["SharedBandwidth"]) -> None:
        """Install one aggregate-bandwidth pool per NUMA node."""
        self._pools = list(pools)

    def pool(self, node: int) -> Optional["SharedBandwidth"]:
        # Device frames past the modelled regions clamp to the last
        # node (mirrors PhysicalMemory.node_of for synthetic devices).
        return self._pools[min(node, len(self._pools) - 1)]

    @property
    def pools(self) -> List[Optional["SharedBandwidth"]]:
        """Every per-node bandwidth pool (entries may be ``None``)."""
        return list(self._pools)

    def device_delay(self, read_bytes: float, write_bytes: float,
                     now: float, node: int = 0) -> float:
        """Extra wait imposed by one node's aggregate PMem bandwidth
        (0 if the shared model is not wired up)."""
        pool = self.pool(node)
        if pool is None:
            return 0.0
        return pool.delay(read_bytes, write_bytes, now)

    # -- media interference (enter/exit, per node) --------------------------
    def interference_for(self, node: int) -> float:
        """Effective factor on a node: the worst active stream, 1.0
        when nothing is interfering."""
        if node >= len(self._interference):
            return 1.0
        stack = self._interference[node]
        return max(stack) if stack else 1.0

    def enter_interference(self, factor: float, node: int = 0) -> None:
        """A background stream starts disturbing a node's media."""
        while node >= len(self._interference):
            self._interference.append([])
        self._interference[node].append(float(factor))

    def exit_interference(self, factor: float, node: int = 0) -> None:
        """The matching end of :meth:`enter_interference` — removes one
        instance of the factor, leaving other streams' penalties
        untouched (raises if there is nothing to exit)."""
        try:
            self._interference[node].remove(float(factor))
        except (IndexError, ValueError):
            raise InvalidArgumentError(
                f"exit_interference({factor}, node={node}) without a "
                f"matching enter") from None

    def reset_interference(self) -> None:
        """Forget all active streams (power cycle)."""
        self._interference = [[] for _ in self._interference]

    # -- tier registry ------------------------------------------------------
    def spec(self, medium: Medium) -> MediumSpec:
        """The medium's pricing spec; unknown media raise loudly."""
        return spec_for(self.specs, medium)

    # Each pricing helper below comes in two forms: one taking a
    # ``Medium`` (resolved through :meth:`spec`) and a ``*_spec`` twin
    # taking the resolved :class:`MediumSpec`.  Hot paths resolve each
    # medium once per priced access and call the twins, so one access
    # costs one registry lookup instead of one per helper; the twins
    # read the same frozen spec, so the numbers are identical.

    # -- scalar access ------------------------------------------------------
    def load_latency(self, medium: Medium, cached: bool = False,
                     factor: float = 1.0) -> float:
        """Latency of one dependent load from ``medium``; ``factor``
        is the NUMA latency multiplier (cache hits never pay it)."""
        return self.load_latency_spec(self.spec(medium), cached, factor)

    def load_latency_spec(self, spec: MediumSpec, cached: bool = False,
                          factor: float = 1.0) -> float:
        if cached:
            return self.costs.cache_load_latency
        return spec.load_latency * factor

    # -- streaming access ---------------------------------------------------
    def stream_read(self, nbytes: int, medium: Medium,
                    cached: bool = False, node: int = 0,
                    bw_factor: float = 1.0) -> float:
        """Sequentially scan ``nbytes`` (AVX-512 width reads) living on
        ``node``; ``bw_factor`` < 1 models the off-socket link."""
        return self.stream_read_spec(nbytes, self.spec(medium), cached,
                                     node, bw_factor)

    def stream_read_spec(self, nbytes: int, spec: MediumSpec,
                         cached: bool = False, node: int = 0,
                         bw_factor: float = 1.0) -> float:
        if cached:
            bandwidth = self.costs.dram_read_bw * 2.5  # LLC-resident
        else:
            bandwidth = spec.read_bw * bw_factor
            if spec.interference_prone:
                bandwidth /= self.interference_for(node)
        return self.costs.copy_cycles(nbytes, bandwidth)

    def stream_write(self, nbytes: int, medium: Medium,
                     ntstore: bool = True, node: int = 0,
                     bw_factor: float = 1.0) -> float:
        """Write ``nbytes`` sequentially.

        ``ntstore=True`` streams past the cache at nt-store bandwidth
        (immediately durable on PMem).  ``ntstore=False`` models plain
        cached stores: they complete at near-DRAM speed and the data
        sits dirty in the cache — durability costs are paid later by
        whoever flushes (msync/fsync via :meth:`clwb_flush`).
        """
        return self.stream_write_spec(nbytes, self.spec(medium), ntstore,
                                      node, bw_factor)

    def stream_write_spec(self, nbytes: int, spec: MediumSpec,
                          ntstore: bool = True, node: int = 0,
                          bw_factor: float = 1.0) -> float:
        if self.persistence is not None and spec.persistent:
            self.persistence.note_stream(nbytes, ntstore)
        if not ntstore or not spec.ntstore_streams:
            # DRAM-class media (and non-temporal bypass disabled): the
            # cache hierarchy absorbs the stores at DRAM drain speed.
            bandwidth = self.costs.dram_write_bw
        else:
            bandwidth = spec.ntstore_bw * bw_factor
            if spec.interference_prone:
                bandwidth /= self.interference_for(node)
        return self.costs.copy_cycles(nbytes, bandwidth)

    def random_read(self, nbytes: int, granule: int, medium: Medium,
                    node: int = 0, lat_factor: float = 1.0,
                    bw_factor: float = 1.0) -> float:
        """Read ``nbytes`` in random ``granule``-sized chunks."""
        spec = self.spec(medium)
        chunks = max(1, nbytes // granule)
        per_chunk = (self.load_latency_spec(spec, factor=lat_factor)
                     + self.stream_read_spec(granule, spec, node=node,
                                             bw_factor=bw_factor) * 0.55)
        return chunks * per_chunk

    # -- copies ---------------------------------------------------------------
    def memcpy(self, nbytes: int, src: Medium, dst: Medium,
               kernel: bool = False, ntstore: bool = True,
               bw_factor: float = 1.0) -> float:
        """Copy ``nbytes``; bandwidth is the min of source and sink.

        ``kernel=True`` applies the no-AVX discount of syscall-path
        copies (§III-C, Vectorization).  ``bw_factor`` discounts the
        whole pipe when either end sits across the UPI link.
        """
        return self.memcpy_spec(nbytes, self.spec(src), self.spec(dst),
                                kernel, ntstore, bw_factor)

    def memcpy_spec(self, nbytes: int, src: MediumSpec, dst: MediumSpec,
                    kernel: bool = False, ntstore: bool = True,
                    bw_factor: float = 1.0) -> float:
        if self.persistence is not None and dst.persistent:
            self.persistence.note_stream(nbytes, ntstore)
        if not ntstore or not dst.ntstore_streams:
            # Cached stores: the cache absorbs them at DRAM-like speed
            # (device durability, if needed, is a later clwb flush).
            write_bw = self.costs.dram_write_bw
        else:
            write_bw = dst.ntstore_bw
        bandwidth = min(src.read_bw, write_bw) * bw_factor
        if kernel:
            bandwidth *= self.costs.kernel_copy_ratio
        return self.costs.copy_cycles(nbytes, bandwidth)

    # -- persistence ------------------------------------------------------
    def clwb_flush(self, nbytes: int, bw_factor: float = 1.0,
                   medium: Medium = Medium.PMEM) -> float:
        """Flush ``nbytes`` of dirty cache lines to the device
        (clwb+sfence)."""
        if self.persistence is not None:
            self.persistence.note_flush(nbytes)
        return self.costs.copy_cycles(
            nbytes, self.spec(medium).clwb_bw * bw_factor)

    def zero(self, nbytes: int, bw_factor: float = 1.0,
             medium: Medium = Medium.PMEM) -> float:
        """Zero ``nbytes`` of device memory with nt-stores."""
        return self.costs.copy_cycles(
            nbytes, self.spec(medium).zero_bw * bw_factor)


class BandwidthThrottle:
    """A token bucket limiting a background consumer's PMem bandwidth.

    DaxVM's pre-zeroing kthread is rate limited so zeroing does not
    saturate PMem bandwidth and stall foreground operations (§IV-E).
    The bucket accrues budget in simulated time; ``delay_for`` returns
    how long the consumer must wait before it may move ``nbytes``.
    """

    def __init__(self, bytes_per_second: float, freq_hz: float):
        if bytes_per_second <= 0:
            raise ValueError("throttle bandwidth must be positive")
        self.bytes_per_cycle = bytes_per_second / freq_hz
        self._paid_until = 0.0
        #: Cumulative bytes charged through this bucket — pure
        #: telemetry (never read back into pricing decisions here).
        self.total_bytes = 0.0

    def delay_for(self, nbytes: int, now: float) -> float:
        """Cycles to wait (possibly 0) before moving ``nbytes`` now."""
        self.total_bytes += nbytes
        cost_cycles = nbytes / self.bytes_per_cycle
        start = max(now, self._paid_until)
        self._paid_until = start + cost_cycles
        return self._paid_until - now
