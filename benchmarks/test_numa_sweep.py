"""NUMA file placement on a 2-socket split of the calibrated machine.

The paper pins its testbed to one socket; this extension splits the
machine in two and runs the read-once mmap workload (threads pinned to
socket 0) against local, remote and 2 MB-interleaved file placement.
The expected real-machine shape: remote placement pays the UPI latency
penalty hardest at low thread counts, and interleaving overtakes local
once one socket's PMem bandwidth pool saturates, because striping
draws on both pools.

Also exercises the runner invariant this PR extends: topology fields
ride in the ``SweepPoint`` payload, so the cold run and a warm replay
from the content-addressed cache must agree byte for byte.
"""

import json

from conftest import once

from repro.analysis.report import format_sweep
from repro.machine import MachineSpec
from repro.runner import ResultCache, build_sweep, run_sweep


def test_numa_placement_sweep(benchmark, tmp_path):
    def build():
        return build_sweep("numa", ops=800, size=32 << 10,
                           base=MachineSpec(device_gib=4, aged=True))

    def experiment():
        cold = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        warm = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        return cold, warm

    cold, warm = once(benchmark, experiment)
    print(format_sweep(cold.sweep.title, cold.series(), cold.sweep.axis,
                       cold.hits, cold.misses, cold.wall_seconds))

    # Cache keys cover the topology config: the replay is exact.
    assert warm.hits == len(warm.points) and warm.misses == 0
    for a, b in zip(cold.points, warm.points):
        assert (json.dumps(a.comparable_state(), sort_keys=True)
                == json.dumps(b.comparable_state(), sort_keys=True))

    by_label = {s.label: s for s in cold.series()}
    local, remote = by_label["local"], by_label["remote"]
    interleave = by_label["interleave"]
    # Uncontended, placement is pure latency: local > interleave >
    # remote throughput, with remote paying ~1.4x in cycles.
    for threads in (1, 2):
        assert remote.y_at(threads) < interleave.y_at(threads) \
            < local.y_at(threads)
    ratio = local.y_at(1) / remote.y_at(1)
    assert 1.2 < ratio < 1.8
    # Saturated, interleaving wins: it streams from both sockets'
    # bandwidth pools while local hammers one.
    assert interleave.y_at(16) > local.y_at(16)

    # The pinned workload's access mix is pure per placement.
    for point in cold.points:
        remote_accesses = point.stats.get("numa.remote_accesses")
        local_accesses = point.stats.get("numa.local_accesses")
        if point.point.series == "local":
            assert remote_accesses == 0 and local_accesses > 0
        elif point.point.series == "remote":
            assert local_accesses == 0 and remote_accesses > 0
        else:
            assert local_accesses + remote_accesses > 0
