"""The pluggable memory-tier registry (``MediumSpec``).

The paper's world has exactly two media — DRAM and Optane PMem — and
the original cost model priced them with ``if medium is Medium.DRAM …
else <PMem>`` branches.  ROADMAP item 3 adds CXL memory expanders and
NT-interleave/far-memory nodes to the hierarchy, which makes the
dichotomy untenable: every layer that branches on the enum would need
a third and fourth arm.  Instead, each medium carries one
:class:`MediumSpec` — its load latency, streaming bandwidths,
persistence flag, NT-store behaviour, page-walk leaf cost and
cross-socket topology factors — and every consumer dispatches through
the spec.

Equivalence contract: for DRAM and PMem the specs carry **exactly**
the constants the old branches read (same :class:`~repro.config.
CostModel` fields, combined downstream in the same expression order),
so a DRAM+PMem-only machine is bit-identical to the pre-refactor
simulator.  The ``tier`` golden of :mod:`repro.goldens` (replayed by
``tests/test_goldens.py``) holds the model to that.

Dispatch is exhaustive: an unregistered medium raises
:class:`~repro.errors.InvalidArgumentError` instead of silently
pricing as PMem (the old ``else`` arm's failure mode).

Calibration sources for the new tiers:

* ``cxl`` — a CXL 2.0 memory expander (DRAM behind an x8 link):
  load latency ~2.5x local DRAM (~220 ns; CXLRAMSim v1.0's measured
  points), streaming reads around the practical x8 link rate and
  writes somewhat below it.  Volatile: a power cycle clears it.
* ``far`` — an NT-interleave/far-memory node per "Emulating Hybrid
  Memory on NUMA Hardware": remote-socket DRAM used as a slow second
  tier, ~1.8x load latency and ~60 % of local DRAM bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.errors import InvalidArgumentError
from repro.mem.physmem import Medium

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import CostModel


@dataclass(frozen=True)
class MediumSpec:
    """Everything the cost model needs to know about one medium."""

    medium: Medium
    #: One dependent random load, cycles (NUMA factors multiply this).
    load_latency: float
    #: Single-thread sequential read bandwidth, bytes/s.
    read_bw: float
    #: nt-store streaming write bandwidth, bytes/s (used only when
    #: :attr:`ntstore_streams` is true).
    ntstore_bw: float
    #: clwb+sfence flush bandwidth, bytes/s.
    clwb_bw: float
    #: memset-zero (nt-store) bandwidth, bytes/s.
    zero_bw: float
    #: Reading the leaf PTE cache line on a page walk, cycles.
    walk_leaf: float
    #: Remote / local load-latency ratio across the UPI link.
    remote_latency: float
    #: Remote / local streaming-bandwidth ratio (< 1).
    remote_bw: float
    #: Contents survive a power cycle?
    persistent: bool = False
    #: Do nt-stores stream to the device at :attr:`ntstore_bw`?  When
    #: false (DRAM-class media) every store is absorbed by the cache
    #: hierarchy and drains at DRAM write bandwidth.
    ntstore_streams: bool = False
    #: Does Optane's mixed-traffic media interference apply?
    interference_prone: bool = False
    #: Does traffic contend on the per-node PMem device pools (the
    #: aggregate-DIMM bandwidth ceiling)?
    device_pooled: bool = False


def medium_specs(costs: "CostModel") -> Dict[Medium, MediumSpec]:
    """Build the per-medium registry from one calibrated cost model.

    DRAM and PMem lift the historical constants verbatim — the
    bit-identicality contract depends on it.  CXL and far-memory use
    the ``cxl_*`` / ``far_*`` constants of :class:`~repro.config.
    CostModel`.
    """
    from repro.config import (
        NUMA_REMOTE_CXL_BW,
        NUMA_REMOTE_CXL_LATENCY,
        NUMA_REMOTE_DRAM_BW,
        NUMA_REMOTE_DRAM_LATENCY,
        NUMA_REMOTE_FAR_BW,
        NUMA_REMOTE_FAR_LATENCY,
        NUMA_REMOTE_PMEM_BW,
        NUMA_REMOTE_PMEM_LATENCY,
    )

    return {
        Medium.DRAM: MediumSpec(
            medium=Medium.DRAM,
            load_latency=costs.dram_load_latency,
            read_bw=costs.dram_read_bw,
            ntstore_bw=costs.dram_write_bw,
            clwb_bw=costs.dram_write_bw,
            zero_bw=costs.dram_write_bw,
            walk_leaf=costs.walk_leaf_dram,
            remote_latency=NUMA_REMOTE_DRAM_LATENCY,
            remote_bw=NUMA_REMOTE_DRAM_BW,
            persistent=False,
            ntstore_streams=False,
            interference_prone=False,
            device_pooled=False,
        ),
        Medium.PMEM: MediumSpec(
            medium=Medium.PMEM,
            load_latency=costs.pmem_load_latency,
            read_bw=costs.pmem_read_bw,
            ntstore_bw=costs.pmem_ntstore_bw,
            clwb_bw=costs.pmem_clwb_bw,
            zero_bw=costs.pmem_zero_bw,
            walk_leaf=costs.walk_leaf_pmem,
            remote_latency=NUMA_REMOTE_PMEM_LATENCY,
            remote_bw=NUMA_REMOTE_PMEM_BW,
            persistent=True,
            ntstore_streams=True,
            interference_prone=True,
            device_pooled=True,
        ),
        Medium.CXL: MediumSpec(
            medium=Medium.CXL,
            load_latency=costs.cxl_load_latency,
            read_bw=costs.cxl_read_bw,
            ntstore_bw=costs.cxl_ntstore_bw,
            clwb_bw=costs.cxl_ntstore_bw,
            zero_bw=costs.cxl_ntstore_bw,
            walk_leaf=costs.walk_leaf_cxl,
            remote_latency=NUMA_REMOTE_CXL_LATENCY,
            remote_bw=NUMA_REMOTE_CXL_BW,
            persistent=False,
            ntstore_streams=True,
            interference_prone=False,
            device_pooled=False,
        ),
        Medium.FAR: MediumSpec(
            medium=Medium.FAR,
            load_latency=costs.far_load_latency,
            read_bw=costs.far_read_bw,
            ntstore_bw=costs.far_write_bw,
            clwb_bw=costs.far_write_bw,
            zero_bw=costs.far_write_bw,
            walk_leaf=costs.walk_leaf_far,
            remote_latency=NUMA_REMOTE_FAR_LATENCY,
            remote_bw=NUMA_REMOTE_FAR_BW,
            persistent=False,
            ntstore_streams=True,
            interference_prone=False,
            device_pooled=False,
        ),
    }


def spec_for(specs: Dict[Medium, MediumSpec], medium: Medium
             ) -> MediumSpec:
    """Exhaustive registry lookup: unknown media raise, loudly."""
    try:
        return specs[medium]
    except (KeyError, TypeError):
        raise InvalidArgumentError(
            f"no MediumSpec registered for {medium!r}; known media: "
            f"{sorted(m.value for m in specs)}") from None


#: Media ordered hot (fastest load) to cold — the tiering daemon's
#: promotion direction.  Recomputed per cost model by callers that
#: need the calibrated ordering; this is the default calibration's.
TIER_ORDER = (Medium.DRAM, Medium.CXL, Medium.FAR, Medium.PMEM)


__all__ = ["MediumSpec", "TIER_ORDER", "medium_specs", "spec_for"]
