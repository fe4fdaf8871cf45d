"""DaxVM under four translation architectures (`sweep mmu`).

The paper's O(1) mmap claim rests on x86-64's radix tree: shared
file-table fragments splice into the process tree in one step per
2 MB/1 GB slot.  This sweep re-runs two attach-heavy workloads under
the four schemes in :mod:`repro.paging.schemes` and asserts the shape
the refactor was built to expose:

* radix4/radix5 attach is O(attachments) — identical for both, since
  they share the same fragments;
* the hashed (inverted) MMU has nothing shareable, so attach degrades
  to per-page inserts — orders of magnitude more attach cycles;
* range translation attaches per contiguous run: as cheap as radix on
  a clean image, but an aged image fragments the extents and the cost
  climbs with the run count.

Also exercises the cache invariant this PR extends: the scheme name
rides in the ``SweepPoint`` payload, so switching schemes can never
serve a stale cache hit and a warm replay is byte-exact.
"""

import json

from conftest import once

from repro.analysis.report import format_sweep
from repro.machine import MachineSpec
from repro.obs import CostDomain
from repro.runner import ResultCache, build_sweep, run_sweep


def test_mmu_scheme_sweep(benchmark, tmp_path):
    def build():
        return build_sweep("mmu", ops=48, size=4 << 20,
                           base=MachineSpec(device_gib=1, aged=True))

    def experiment():
        cold = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        warm = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        return cold, warm

    cold, warm = once(benchmark, experiment)
    print(format_sweep(cold.sweep.title, cold.series(), cold.sweep.axis,
                       cold.hits, cold.misses, cold.wall_seconds))

    # Every scheme completes both workloads on clean and aged images.
    assert not cold.failed
    assert len(cold.points) == 16

    # The scheme is part of the payload, hence of the cache key.
    keys = {p.point.cache_key("fp") for p in cold.points}
    assert len(keys) == len(cold.points)
    assert warm.hits == len(warm.points) and warm.misses == 0
    for a, b in zip(cold.points, warm.points):
        assert (json.dumps(a.comparable_state(), sort_keys=True)
                == json.dumps(b.comparable_state(), sort_keys=True))

    def attach_cycles(workload, scheme, aged):
        for p in cold.points:
            if (p.point.series == f"{workload}+{scheme}"
                    and p.point.machine.aged is aged):
                return p.ledger.event_total(CostDomain.FILETABLE,
                                            "attach")
        raise AssertionError(f"missing point {workload}+{scheme}")

    for workload in ("syncbench", "kvstore"):
        for aged in (False, True):
            radix4 = attach_cycles(workload, "radix4", aged)
            radix5 = attach_cycles(workload, "radix5", aged)
            hashed = attach_cycles(workload, "hashed", aged)
            rng = attach_cycles(workload, "range", aged)
            # Radix fragments are shared by both tree heights.
            assert radix4 == radix5 > 0
            # The paper's O(1) attach dies on an inverted table:
            # per-page inserts cost orders of magnitude more.
            assert hashed > 50 * radix4
            assert hashed > 5 * rng

    # Range translation pays for fragmentation: aged images shatter
    # the 2 MB extents into many runs, clean images stay O(regions).
    for workload in ("syncbench", "kvstore"):
        assert (attach_cycles(workload, "range", True)
                > attach_cycles(workload, "range", False))
