"""Post-copy migration sweep (`sweep migrate`).

Guests run over DAX files while a live migration triggers after N
guest accesses; the sweep walks trigger point x prefetch on/off for
both guest workloads.  Asserted shape:

* the ``base`` series (nested guest, never migrated) is the cost
  floor: zero migrations, zero virt-domain cycles — and every
  migrating point costs at least that much wall-clock;
* every migration that starts also completes, with per-job downtime
  well under ``migrate_downtime_budget`` and independent of the
  trigger point (the handover payload is fixed);
* the prefetch kthread does real work — prefetched pages land only
  when it runs — and never makes the run slower than pulling every
  page on demand;
* a source forced into degraded mode aborts its migration and the
  guest serves accesses degraded instead;
* the virt config rides in the cache key: 20 distinct keys, warm
  replay byte-exact.
"""

import json

from conftest import once

from repro.analysis.report import format_sweep
from repro.config import CostModel
from repro.machine import MachineSpec
from repro.runner import ResultCache, build_sweep, run_sweep

OPS = 16
SIZE = 64 << 10


def test_migrate_sweep(benchmark, tmp_path, bench_extra):
    def build():
        return build_sweep("migrate", ops=OPS, size=SIZE,
                           base=MachineSpec(device_gib=1, aged=False))

    def experiment():
        cold = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        warm = run_sweep(build(), jobs=4,
                         cache=ResultCache(tmp_path / "cache"))
        return cold, warm

    cold, warm = once(benchmark, experiment)
    print(format_sweep(cold.sweep.title, cold.series(), cold.sweep.axis,
                       cold.hits, cold.misses, cold.wall_seconds))

    assert not cold.failed
    # 2 workloads x (1 base + 4x2 migrate + 1 degraded)
    assert len(cold.points) == 20

    # The virt payload is part of the cache key; warm replay byte-exact.
    keys = {p.point.cache_key("fp") for p in cold.points}
    assert len(keys) == len(cold.points)
    assert warm.hits == len(warm.points) and warm.misses == 0
    for a, b in zip(cold.points, warm.points):
        assert (json.dumps(a.comparable_state(), sort_keys=True)
                == json.dumps(b.comparable_state(), sort_keys=True))

    budget = CostModel().migrate_downtime_budget
    by_series = {}
    base_cycles = {}
    for p in cold.points:
        by_series.setdefault(p.point.series, {})[p.point.x] = p
        if p.point.series.endswith("+base"):
            base_cycles[p.point.series.split("+")[0]] = p.run.cycles

    downtimes = []
    for series, row in by_series.items():
        workload = series.split("+")[0]
        for x, p in row.items():
            c = p.run.counters
            assert c["virt.violations"] == 0, (series, x)
            if series.endswith("+base"):
                assert c["virt.migrations_started"] == 0
                assert p.run.domains.get("virt", 0.0) == 0.0
                assert c["virt.nested_walk_cycles"] > 0
                continue
            # A migrating point never undercuts the never-migrated
            # floor, and every started migration lands COMPLETED.
            assert p.run.cycles >= base_cycles[workload], (series, x)
            started = c["virt.migrations_started"]
            if series.endswith("+degraded"):
                assert started == c["virt.migrations_aborted"] == 1
                assert c["virt.migrations_completed"] == 0
                assert c["virt.degraded_accesses"] > 0, (series, x)
                continue
            assert c["virt.migrations_completed"] == started
            assert c["virt.migrations_aborted"] == 0
            if not started:
                continue  # trigger never reached (kvstore at x=64)
            per_job = c["virt.downtime_cycles"] / started
            downtimes.append(per_job)
            assert 0.0 < per_job < budget / 10, (series, x)
            assert c["virt.pages_pulled"] > 0
            if "+prefetch" in series:
                assert c["virt.prefetched_pages"] > 0, (series, x)
            else:
                assert c["virt.prefetched_pages"] == 0, (series, x)

    # Downtime is the fixed handover payload, not a function of the
    # trigger point: every job pays the same pause.
    assert max(downtimes) - min(downtimes) < 1.0

    # Prefetch streams pages in the background instead of eating
    # VM exits on the demand path: never slower end to end.
    speedups = {}
    for workload in ("syncbench", "kvstore"):
        pre = by_series[f"{workload}+prefetch"]
        nopre = by_series[f"{workload}+noprefetch"]
        for x in pre:
            assert pre[x].run.cycles <= nopre[x].run.cycles, (workload, x)
            if pre[x].run.counters["virt.migrations_started"]:
                speedups[f"{workload}@{x}"] = round(
                    nopre[x].run.cycles / pre[x].run.cycles, 4)

    bench_extra["downtime_cycles_per_job"] = round(downtimes[0], 1)
    bench_extra["downtime_budget_headroom"] = round(
        budget / downtimes[0], 2)
    bench_extra["prefetch_speedup_end_to_end"] = speedups
    bench_extra["migration_overhead_vs_base"] = {
        series: {str(x): round(p.run.cycles / base_cycles[
            series.split("+")[0]], 4) for x, p in row.items()}
        for series, row in by_series.items()
        if not series.endswith("+base")}
