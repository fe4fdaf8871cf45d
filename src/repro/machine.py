"""`MachineSpec` — the one descriptor of a simulated machine's shape.

A frozen :class:`MachineSpec` holds exactly the machine knobs the
experiments vary: media preset, device size and age, file system, NUMA
node layout and placement, translation scheme, and the optional tier,
tenancy and guest overlays.  :meth:`MachineSpec.build` is the one place
that derives the topology, constructs the :class:`~repro.system.System`
and attaches the overlays (always in the same order), so equal specs
are the same machine.  Sweep points carry a spec (its state is part of
the cache key), the CLI builds one from its flags, and the replica
audits rebuild it per replica.  Faults and persistence are not part of
the shape: injectors arm them on each replica after the build.

Overlay configs are imported only when a spec carries one, so importing
this module (and the sweep worker) loads no tiering, tenancy or virt
code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.config import MEDIA_PRESETS
from repro.errors import InvalidArgumentError
from repro.system import System
from repro.topology import MachineTopology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tenancy import TenancyConfig
    from repro.tiering import TieringConfig
    from repro.virt import VirtConfig


@dataclass(frozen=True)
class MachineSpec:
    """Media, device, FS, topology, MMU and overlays of one machine.

    The defaults are :class:`~repro.system.System`'s, so
    ``MachineSpec().build()`` is ``System()``.
    """

    #: Media preset naming the :class:`~repro.config.CostModel`.
    media: str = "optane"
    #: Device size in GiB.
    device_gib: int = 8
    #: Aged (fragmented) file-system image?
    aged: bool = False
    #: File system (``ext4``, ``nova`` or ``xfs``).
    fs: str = "ext4"
    #: Memory-node kinds, one per node (see
    #: :meth:`repro.topology.MachineTopology.with_kinds`).  ``("ddr",)``
    #: is the historical single-socket machine; ``("ddr", "ddr")`` two
    #: sockets; ``("ddr", "cxl")`` one socket plus a CXL expander.
    nodes: Tuple[str, ...] = ("ddr",)
    #: File/device placement relative to ``pin_node`` — one of
    #: :data:`repro.topology.PLACEMENTS`; a no-op on one node.
    placement: str = "local"
    #: Socket the placement is defined against.
    pin_node: int = 0
    #: Translation architecture (see :data:`repro.paging.schemes.
    #: SCHEMES`).
    scheme: str = "radix4"
    #: Medium file data is priced on (``dram``/``pmem``/``cxl``/``far``);
    #: ``None`` attaches no tier overlay (the pre-tiering machine).
    tier: Optional[str] = None
    #: Policy of the hot/cold migration daemon; ``None`` runs none.
    #: Needs ``tier``.
    ktierd: Optional["TieringConfig"] = None
    #: Tenant set and quotas; ``None`` is an un-tenanted machine.
    tenancy: Optional["TenancyConfig"] = None
    #: Hypervisor shape; ``None`` is a bare machine.  Processes created
    #: after the build enroll as guests.
    virt: Optional["VirtConfig"] = None

    def __post_init__(self):
        if self.ktierd is not None and self.tier is None:
            raise InvalidArgumentError(
                "ktierd needs a tier overlay to migrate from")

    def build(self) -> System:
        """A fresh machine of this shape, overlays attached."""
        costs = MEDIA_PRESETS[self.media]()
        # One ddr node is System's default single_node topology, the
        # pre-topology machine the numa golden pins.
        topology = (None if self.nodes == ("ddr",) else
                    MachineTopology.with_kinds(costs.machine, self.nodes))
        system = System(costs=costs, device_bytes=self.device_gib << 30,
                        fs_type=self.fs, aged=self.aged, topology=topology,
                        placement=self.placement, pin_node=self.pin_node,
                        scheme=self.scheme)
        system.spec = self
        if self.tier is not None:
            from repro.mem.physmem import Medium

            system.attach_tiering(data_medium=Medium(self.tier),
                                  daemon=self.ktierd is not None,
                                  config=self.ktierd)
        if self.tenancy is not None:
            # A passive config installs no hook: the degenerate machine
            # stays bit-identical to an un-tenanted one.
            system.attach_tenancy(self.tenancy)
        if self.virt is not None:
            system.attach_hypervisor(self.virt)
        return system

    def to_state(self) -> Dict[str, object]:
        """JSON-safe form (sweep payloads and cache keys)."""
        return {
            "media": self.media,
            "device_gib": self.device_gib,
            "aged": self.aged,
            "fs": self.fs,
            "nodes": list(self.nodes),
            "placement": self.placement,
            "pin_node": self.pin_node,
            "scheme": self.scheme,
            "tier": self.tier,
            "ktierd": (None if self.ktierd is None
                       else self.ktierd.to_state()),
            "tenancy": (None if self.tenancy is None
                        else self.tenancy.to_state()),
            "virt": None if self.virt is None else self.virt.to_state(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "MachineSpec":
        ktierd = tenancy = virt = None
        if state["ktierd"] is not None:
            from repro.tiering import TieringConfig

            ktierd = TieringConfig.from_state(state["ktierd"])
        if state["tenancy"] is not None:
            from repro.tenancy import TenancyConfig

            tenancy = TenancyConfig.from_state(state["tenancy"])
        if state["virt"] is not None:
            from repro.virt import VirtConfig

            virt = VirtConfig.from_state(state["virt"])
        return cls(**{**state, "nodes": tuple(state["nodes"]),
                      "ktierd": ktierd, "tenancy": tenancy, "virt": virt})
