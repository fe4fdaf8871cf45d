"""`System` — one simulated machine: engine, memory, FS, processes.

This is the package's main entry point.  A ``System`` owns the
discrete-event engine, physical memory, the (optionally aged) PMem
block device and a file system; ``new_process()`` creates an
``mm_struct`` per process and ``daxvm_for()`` equips a process with
the DaxVM interface (sharing one FS-wide file-table manager).

Typical use::

    sys = System(fs_type="ext4", aged=True)
    proc = sys.new_process()
    dax = sys.daxvm_for(proc)

    def worker():
        f = yield from sys.fs.open("/data", create=True)
        yield from sys.fs.write(f, 0, 1 << 20)
        vma = yield from dax.mmap(f.inode)
        yield from proc.mm.access(vma, 0, 1 << 20)
        yield from dax.munmap(vma)
        yield from sys.fs.close(f)

    sys.spawn(worker(), core=0)
    sys.run()
    print(sys.seconds(), "simulated seconds")
"""

from __future__ import annotations

from typing import Optional

from repro.config import DEFAULT_COSTS, CostModel
from repro.core.filetable import FileTableManager
from repro.core.interface import DaxVM
from repro.errors import InvalidArgumentError
from repro.fs.aging import AgingProfile, aged_device
from repro.fs.block import BlockDevice
from repro.fs.ext4 import Ext4Dax
from repro.fs.nova import Nova
from repro.fs.xfs import XfsDax
from repro.fs.vfs import VFS
from repro.mem.latency import MemoryModel, SharedBandwidth
from repro.mem.physmem import PhysicalMemory
from repro.obs import Ledger, Tracer
from repro.sim.engine import Engine, KernelGen, SimThread
from repro.sim.stats import Stats
from repro.topology import MachineTopology, device_placement
from repro.vm.mm import MMStruct

_FS_TYPES = {"ext4": Ext4Dax, "nova": Nova, "xfs": XfsDax}


class Process:
    """A simulated process: an mm_struct and (optionally) DaxVM."""

    def __init__(self, system: "System", mm: MMStruct, name: str):
        self.system = system
        self.mm = mm
        self.name = name
        self.daxvm: Optional[DaxVM] = None


class System:
    """One simulated machine (single-socket by default; pass a
    :class:`~repro.topology.MachineTopology` for NUMA configurations)."""

    def __init__(self, costs: CostModel = DEFAULT_COSTS,
                 num_cores: Optional[int] = None,
                 device_bytes: int = 8 << 30,
                 fs_type: str = "ext4",
                 aged: bool = False,
                 aging_profile: AgingProfile = AgingProfile(),
                 topology: Optional[MachineTopology] = None,
                 placement: str = "local",
                 pin_node: int = 0,
                 scheme: str = "radix4"):
        self.costs = costs
        #: Translation architecture for every process on this machine
        #: (see repro.paging.schemes); ``radix4`` is the pre-refactor
        #: x86-64 radix simulator, bit for bit.
        self.scheme = scheme
        if topology is None:
            topology = MachineTopology.single_node(costs.machine)
        self.topology = topology
        #: File/device placement relative to ``pin_node`` (see
        #: repro.topology.device_placement); a no-op on one node.
        self.placement = placement
        self.pin_node = pin_node
        cores = num_cores or topology.num_cores
        self.engine = Engine(cores, topology=topology,
                             freq_hz=costs.machine.freq_hz)
        self.stats = Stats()
        self.physmem = PhysicalMemory(topology=topology)
        self.mem = MemoryModel(costs)
        self.mem.set_topology(topology, self.physmem.node_of)
        self.mem.set_pools(self._make_pools())
        base_frame, frame_map = device_placement(
            topology, self.physmem.pmem_bases(),
            self.physmem.pmem_frames(), placement, pin_node)
        if aged:
            self.device = aged_device(device_bytes, aging_profile,
                                      base_frame=base_frame,
                                      frame_map=frame_map)
        else:
            self.device = BlockDevice(device_bytes, base_frame=base_frame,
                                      frame_map=frame_map)
        self.vfs = VFS()
        fs_cls = _FS_TYPES.get(fs_type)
        if fs_cls is None:
            raise InvalidArgumentError(
                f"unknown fs_type {fs_type!r}; use one of {set(_FS_TYPES)}")
        self.fs = fs_cls(self.device, self.vfs, costs, self.mem, self.stats)
        self.fs.engine = self.engine
        self.trace = self._make_tracer()
        self._filetables: Optional[FileTableManager] = None
        self._process_count = 0
        #: Attached :class:`repro.crash.PersistenceDomain`, if any.
        self.persistence = None
        #: Attached :class:`repro.faults.MediaFaults`, if any.
        self.faults = None
        #: Attached :class:`repro.tiering.TieringDaemon`, if any.
        self.tiering = None
        #: Attached :class:`repro.tenancy.TenancyRuntime`, if any.
        self.tenancy = None
        #: Attached :class:`repro.virt.Hypervisor`, if any.
        self.hypervisor = None

    def _make_pools(self) -> "list[SharedBandwidth]":
        """One aggregate PMem bandwidth pool per socket.  The machine
        total is shared equally — splitting the DIMMs across sockets
        splits their aggregate bandwidth — so one node reproduces the
        historical single pool exactly."""
        n = self.topology.num_nodes
        return [SharedBandwidth(self.costs.pmem_total_read_bw / n,
                                self.costs.pmem_total_write_bw / n,
                                self.costs.machine.freq_hz)
                for _ in range(n)]

    def _make_tracer(self, ring: int = 256) -> Tracer:
        """Span tracer bound to the current engine's clock/scheduler."""
        return Tracer(
            clock=lambda: self.engine.now,
            current=lambda: (self.engine.current.name
                             if self.engine.current is not None else "main"),
            stats=self.stats,
            ring=ring,
        )

    @property
    def ledger(self) -> Ledger:
        """The engine's per-domain cycle-attribution ledger."""
        return self.engine.ledger

    # -- processes -----------------------------------------------------------
    def new_process(self, name: str = "", aslr_seed: int = 0,
                    home_node: int = 0) -> Process:
        """Create a process; its private page tables (and fallback
        accessor node) live on ``home_node``."""
        self._process_count += 1
        pname = name or f"proc{self._process_count}"
        mm = MMStruct(self.engine, self.costs, self.physmem, self.mem,
                      self.stats, aslr_seed=aslr_seed, name=pname,
                      topology=self.topology, home_node=home_node,
                      scheme=self.scheme)
        process = Process(self, mm, pname)
        if self.hypervisor is not None:
            self.hypervisor.enroll(process)
        return process

    @property
    def filetables(self) -> FileTableManager:
        """The FS-wide file-table manager (created on first use).
        Volatile tables are placed on the device's home socket so
        walks from co-located threads stay local."""
        if self._filetables is None:
            self._filetables = FileTableManager(
                self.fs, self.physmem, self.costs, self.stats,
                table_node=self.physmem.node_of(self.device.base_frame))
        return self._filetables

    def daxvm_for(self, process: Process, enable_prezero: bool = True,
                  batch_pages: Optional[int] = None,
                  start_prezero_thread: bool = False) -> DaxVM:
        """Equip a process with the DaxVM interface."""
        dax = DaxVM(self.engine, process.mm, self.fs, self.physmem,
                    self.mem, self.costs, self.stats,
                    filetables=self.filetables,
                    enable_prezero=enable_prezero,
                    batch_pages=batch_pages)
        if enable_prezero and start_prezero_thread:
            dax.prezero.start(core=self.engine.cores[-1].index)
        process.daxvm = dax
        return dax

    # -- execution -----------------------------------------------------------
    def spawn(self, gen: KernelGen, core: Optional[int] = None,
              name: str = "", process: Optional[Process] = None,
              daemon: bool = False) -> SimThread:
        """Start a simulated thread (registering its core in the
        process cpumask when one is given)."""
        thread = self.engine.spawn(gen, core=core, name=name, daemon=daemon)
        if process is not None:
            process.mm.register_thread(thread.core.index)
        return thread

    def run(self, max_events: Optional[int] = None) -> float:
        return self.engine.run(max_events=max_events)

    # -- power cycling -----------------------------------------------------
    def power_cycle(self, crash: bool = False, seed: int = 0):
        """Reboot the machine: volatile state dies, storage persists.

        A fresh engine replaces the old one (all processes and kernel
        threads are gone); the inode cache is dropped, which destroys
        volatile file tables; persistent file tables and every block
        on the device survive.  With ``crash=True`` the power failure
        tears the unfenced tail of recent persistent-table updates
        (within the journal discipline's window) and a mount-time
        recovery pass replays them — returns the RecoveryReport.
        """
        from repro.core.recovery import RecoveryLog, simulate_crash

        report = None
        if crash:
            simulate_crash(self.vfs, seed=seed)
        else:
            self.vfs.inode_cache.evict_all()
        self._reboot()
        if self._filetables is not None:
            report = RecoveryLog(self.vfs, self._filetables).recover_all()
        return report

    def _reboot(self) -> None:
        """Replace the volatile machine state after a power cycle.

        A fresh engine replaces the old one (all processes and kernel
        threads are gone); bandwidth pools, interference stacks, free
        interceptors and barriers reset.  Storage — the device, the
        VFS namespace, persistent tables — is untouched.  Callers that
        model a *crash* (rather than a clean shutdown) must discard
        non-durable state first; the crash injector does this through
        its PersistenceDomain before rebooting.
        """
        self.engine = Engine(len(self.engine.cores),
                             topology=self.topology,
                             freq_hz=self.costs.machine.freq_hz)
        self.fs.engine = self.engine
        # The tracer's clock closes over ``self.engine``, so it follows
        # the new engine automatically; open spans died with the boot.
        self.trace.reset()
        self.mem.set_pools(self._make_pools())
        self.mem.reset_interference()
        self.fs.free_interceptor = None
        self.fs.free_barriers.clear()

    # -- crash exploration -------------------------------------------------
    def attach_persistence(self, domain) -> None:
        """Wire a :class:`repro.crash.PersistenceDomain` into every
        layer that moves durable state: the file system (metadata and
        journal transactions), the memory model (stream/copy/flush byte
        accounting) and physical memory (PMem frame lifecycle).  A
        second domain is refused: it would orphan the first's crash point."""
        if self.persistence is not None:
            raise ValueError("attach_persistence: a persistence domain "
                             "is already attached; build a fresh System")
        self.persistence = domain
        self.fs.persistence = domain
        self.mem.persistence = domain
        self.physmem.persistence = domain

    # -- media-fault injection ----------------------------------------------
    def attach_faults(self, faults) -> None:
        """Wire a :class:`repro.faults.MediaFaults` into the layers that
        touch media: the file system (badblocks scans on read/append)
        and the memory model (poisoned-frame checks and bandwidth
        windows on the mapped-access path).

        Attaching twice is refused: the second plan would silently
        replace the first's hooks mid-run, leaving armed sites that can
        never fire (and a fault clock that jumps backwards).
        """
        if self.faults is not None:
            raise ValueError(
                "attach_faults: a MediaFaults plan is already attached; "
                "build a fresh System per plan")
        self.faults = faults
        self.fs.faults = faults
        self.mem.faults = faults
        faults.bind(self)

    # -- memory tiering ------------------------------------------------------
    def attach_tiering(self, data_medium=None, daemon: bool = False,
                       config=None, core: Optional[int] = None):
        """Attach a data-placement overlay (and optionally start the
        migration daemon).

        ``data_medium`` picks where file data is priced by default —
        ``Medium.PMEM`` reproduces the untierd machine, ``Medium.CXL``
        models the file system backed by an expander, ``Medium.DRAM``
        a DRAM-resident (tmpfs-like) placement.  With ``daemon=True``
        a ktierd thread scans hotness tags every ``config.
        scan_interval`` cycles and migrates 2 MB granules between the
        device tier and ``config.hot_medium``.  Returns the TierMap.
        """
        from repro.mem.physmem import Medium
        from repro.tiering import TierMap, TieringDaemon

        if self.mem.tiers is not None or self.tiering is not None:
            raise ValueError(
                "attach_tiering: a tier overlay is already attached; "
                "a second TierMap would silently orphan the first's "
                "residency state")
        tiers = TierMap(default=data_medium or Medium.PMEM)
        self.mem.tiers = tiers
        if daemon:
            self.tiering = TieringDaemon(self.engine, self.mem,
                                         self.costs, self.stats,
                                         tiers, config=config)
            self.tiering.start(core=core if core is not None
                               else self.engine.cores[-1].index)
        return tiers

    # -- multi-tenant consolidation ------------------------------------------
    def attach_tenancy(self, config):
        """Attach a :class:`repro.tenancy.TenancyRuntime` for
        ``config`` and install its enforcement hooks.

        Passive configs (one plain tenant, no quotas) install nothing
        — the machine stays bit-identical to an un-tenanted one (the
        ``tenancy`` golden of :mod:`repro.goldens`).  Returns the
        runtime.  A second runtime would stack its hooks on the first's
        accountants and throttles, so attaching twice is refused.
        """
        from repro.tenancy import TenancyRuntime

        if self.tenancy is not None:
            raise ValueError("attach_tenancy: a tenancy runtime is "
                             "already attached; build a fresh System")
        self.tenancy = TenancyRuntime(self, config)
        self.tenancy.install()
        return self.tenancy

    # -- guest VMs / live migration ------------------------------------------
    def attach_hypervisor(self, config=None):
        """Attach a :class:`repro.virt.Hypervisor` to this machine.

        A pass-through hypervisor (``VirtConfig()`` — no nested
        pricing, no migration) installs hooks that never fire, keeping
        the machine bit-identical to a bare one (the ``virt`` golden of
        :mod:`repro.goldens`).  Returns the hypervisor.
        """
        from repro.virt import Hypervisor, VirtConfig

        if self.hypervisor is not None:
            raise ValueError(
                "attach_hypervisor: a hypervisor is already attached; "
                "a second one would double-price guest walks and race "
                "the first's migration state machine")
        self.hypervisor = Hypervisor(self, config or VirtConfig())
        return self.hypervisor

    def seconds(self, cycles: Optional[float] = None) -> float:
        value = self.engine.now if cycles is None else cycles
        return value / self.costs.machine.freq_hz
