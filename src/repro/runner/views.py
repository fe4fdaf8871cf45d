"""Perf targets as declarative views over registered sweeps.

A :class:`PerfView` names a registered sweep and its :class:`Panel` s:
the series and x values each keeps and the columns it reads off every
kept :class:`~repro.runner.manifest.PointResult`.  The kept points run
through ``run_sweep``; :func:`view_state` is every target's ``--json``
shape and :func:`render` prints it as tables.

A column is a spec string (see :func:`read`).  ``kops``, ``domain:D``,
``share:D`` and ``counter:NAME`` read the run's measured phase;
``pct:HIST:Q`` reads a latency histogram (the request and append
histograms only record in the measured phase); ``tenants:p50`` /
``tenants:p99`` are the mean p50 / max p99 of the foreground tenants'
requests; ``run_total:D/EVENT`` and
``run_total:tenant/D`` (``D`` = ``all`` sums every domain) read the
whole-run ledger, the only place per-event and per-thread splits live.
``{tenant}`` in a spec is the row's tenant on per-tenant panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.report import format_lock_report, format_table
from repro.analysis.results import Table
from repro.obs import DOMAIN_ORDER, CostDomain
from repro.runner.manifest import PointResult, SweepPoint
from repro.runner.pool import SweepResult


def read(pr: PointResult, spec: str, tenant=None) -> object:
    """One column of one row (see the module docstring)."""
    kind, _, arg = spec.partition(":")
    arg = arg.replace("{tenant}", getattr(tenant, "name", ""))
    run = pr.run
    if kind == "kops":
        return run.ops_per_second / 1e3
    if kind == "domain":
        return run.domains.get(arg, 0.0)
    if kind == "share":
        return run.domain_share(arg)
    if kind == "counter":
        return run.counters.get(arg, 0.0)
    if kind == "pct":
        hist, _, q = arg.rpartition(":")
        return run.percentiles.get(hist, {}).get(q, 0.0)
    if kind == "tenants":
        # A passive single-tenant point ran the plain apache runner.
        plain = run.percentiles.get("span.apache.request", {})
        qs = [run.percentiles.get(f"tenant.{t.name}.request",
                                  plain).get(arg, 0.0)
              for t in pr.point.machine.tenancy.tenants
              if t.kind != "antagonist"]
        return max(qs) if arg == "p99" else sum(qs) / len(qs)
    if kind != "run_total":
        raise KeyError(f"unknown column spec {spec!r}")
    domain, _, event = arg.partition("/")
    if domain != "tenant":
        return pr.ledger.event_total(CostDomain(domain), event)
    # The dot keeps t1's threads apart from t10's.
    return sum(cycles for thread, per in pr.ledger.per_thread().items()
               if thread.startswith(f"{tenant.name}.")
               for name, cycles in per.items() if event in ("all", name))


@dataclass(frozen=True)
class Panel:
    """One table: the points it keeps and the columns it reads."""

    title: str
    #: Series kept; empty keeps every series.
    series: Tuple[str, ...]
    columns: Tuple[str, ...]
    #: x values kept; empty keeps every x.
    xs: Tuple[float, ...] = ()
    #: One row per tenant of each kept point instead of one per point.
    per_tenant: bool = False
    #: Add each kept point's contended-lock reports.
    locks: bool = False

    def keeps(self, point: SweepPoint) -> bool:
        return ((not self.series or point.series in self.series)
                and (not self.xs or point.x in self.xs))

    def rows(self, result: SweepResult):
        """``(point_result, tenant or None)`` per table row."""
        return [(pr, tenant) for pr in result.points
                if self.keeps(pr.point)
                for tenant in (pr.point.machine.tenancy.tenants
                               if self.per_tenant else (None,))]


@dataclass(frozen=True)
class PerfView:
    help_text: str
    sweep: str
    panels: Tuple[Panel, ...]
    #: ``media -> {"title", "rows"}``: a table that simulates nothing.
    static: Optional[Callable[[str], Dict[str, object]]] = None

    def keeps(self, point: SweepPoint) -> bool:
        return any(panel.keeps(point) for panel in self.panels)


def view_state(name: str, view: PerfView, result: SweepResult,
               media: str) -> Dict[str, object]:
    """The ``--json`` shape of every perf target."""
    panels = []
    for panel in view.panels:
        rows = []
        for pr, tenant in panel.rows(result):
            row = {"series": pr.point.series, "x": pr.point.x}
            if tenant is None:
                row.update(label=pr.run.label, cycles=pr.run.cycles,
                           domains=pr.run.domains)
            else:
                row.update(tenant=tenant.name, kind=tenant.kind)
            if panel.locks:
                row["locks"] = pr.locks
            row.update((spec, read(pr, spec, tenant))
                       for spec in panel.columns)
            rows.append(row)
        panels.append({"title": panel.title, "rows": rows})
    state = {"target": name, "sweep": view.sweep,
             "axis": result.sweep.axis, "panels": panels}
    if view.static is not None:
        state["static"] = view.static(media)
    return state


def render(state: Dict[str, object]) -> str:
    """A :func:`view_state` as tables: each panel, its points' measured
    cycles by cost domain, and their lock reports where kept."""
    out = []
    if "static" in state:
        out.append(_table(state["static"]["rows"], state["static"]["title"]))
    for panel in (p for p in state["panels"] if p["rows"]):
        rows, title, axis = panel["rows"], panel["title"], state["axis"]
        out.append(_table(rows, title, axis, [
            key for key in rows[0]
            if key not in ("label", "domains", "locks")]))
        if "domains" in rows[0]:
            seen = [d.value for d in DOMAIN_ORDER
                    if any(d.value in row["domains"] for row in rows)]
            out.append(_table([
                {"series": row["series"], "x": row["x"],
                 **{d: round(row["domains"].get(d, 0.0)) for d in seen},
                 "total": round(sum(row["domains"].values()))}
                for row in rows], f"{title}: cycles by cost domain", axis))
        out.extend(format_lock_report(
            f"{row['series']}@{row['x']:g} locks", row["locks"])
            for row in rows if "locks" in row)
    return "\n\n".join(out)


def _table(rows, title: str, axis: str = "x", keys=None) -> str:
    keys = keys or list(rows[0])
    table = Table(title, [axis if key == "x" else
                          key.replace("tenant.{tenant}.", "")
                          for key in keys])
    for row in rows:
        table.add_row(*(row[key] for key in keys))
    return format_table(table)


def _walk_costs(media: str) -> Dict[str, object]:
    """Table II analogue per translation scheme: average cycles per
    4 KB TLB miss by access pattern and file-table medium (the leaf
    medium a DaxVM mapping on that scheme really walks), whether
    PMem-resident tables trip the Table III monitor rule, and the
    structure frames of mapping 2 MB of 4 KB pages."""
    from repro.config import MEDIA_PRESETS
    from repro.mem.physmem import Medium, PhysicalMemory
    from repro.paging.flags import PageFlags
    from repro.paging.pagetable import PAGE_SIZE
    from repro.paging.schemes import SCHEME_NAMES, make_scheme
    from repro.paging.tlb import AccessPattern
    from repro.paging.walker import PageWalker
    from repro.topology import MachineTopology

    costs = MEDIA_PRESETS[media]()
    walker = PageWalker(costs)
    cases = {"seq/DRAM": (AccessPattern.SEQUENTIAL, Medium.DRAM),
             "rand/DRAM": (AccessPattern.RANDOM, Medium.DRAM),
             "seq/PMem": (AccessPattern.SEQUENTIAL, Medium.PMEM),
             "rand/PMem": (AccessPattern.RANDOM, Medium.PMEM)}
    rows = []
    for name in SCHEME_NAMES:
        probe = make_scheme(name, PhysicalMemory(
            topology=MachineTopology.single_node(costs.machine)), costs)
        walks = [probe.walk_cost(walker, pattern,
                                 probe.effective_leaf_medium(medium))
                 for pattern, medium in cases.values()]
        for i in range(512):
            probe.map_page(0x40000000 + i * PAGE_SIZE, 1024 + i,
                           PageFlags.rw())
        rows.append({"scheme": name, **dict(zip(cases, walks)),
                     "huge": probe.huge_walk_cost(walker),
                     "PMem trips monitor":
                         "yes" if walks[-1] > costs.monitor_walk_cycles
                         else "no",
                     "frames/2MB": len(probe.structure_frames())})
    return {"title": f"Avg cycles per 4KB walk ({media})", "rows": rows}


#: ``python -m repro perf <name>`` targets.
PERF_TARGETS: Dict[str, PerfView] = {
    "fig7": PerfView(
        "per-domain cycle breakdown of ext4-DAX mmap appends", "appends",
        (Panel("ext4-DAX mmap appends by size", ("ext4:mmap",),
               ("domain:zeroing", "share:zeroing", "pct:span.append:p50",
                "pct:span.append:p95", "pct:span.append:p99")),)),
    "fig8a": PerfView(
        "mmap_sem wait-vs-hold under webserver load", "apache",
        (Panel("Apache mmap: workers x requests", ("mmap",),
               ("kops", "domain:lock_wait"), locks=True),)),
    "numa": PerfView(
        "local/remote access mix per placement on two sockets", "numa",
        (Panel("mmap read-once, threads pinned to node 0", (),
               ("kops", "domain:numa", "counter:numa.local_accesses",
                "counter:numa.remote_accesses", "counter:numa.local_bytes",
                "counter:numa.remote_bytes",
                "counter:numa.cross_socket_ipis",
                "counter:numa.cross_socket_ipi_cycles")),)),
    "mmu": PerfView(
        "Table II/III walk + attach costs per translation scheme", "mmu",
        (Panel("DaxVM syncbench (MAP_SYNC fsync) per scheme, clean (0) "
               "and aged (1) image",
               ("syncbench+radix4", "syncbench+radix5", "syncbench+hashed",
                "syncbench+range"),
               ("domain:filetable", "run_total:filetable/attach",
                "run_total:filetable/detach", "counter:vm.walk_cycles",
                "counter:vm.tlb_misses")),),
        static=_walk_costs),
    "tiering": PerfView(
        "hot/cold daemon breakdown: migrations and tier cycles",
        "tiering",
        (Panel("DaxVM syncbench per data tier (0 dram, 1 pmem, 2 cxl)",
               ("syncbench", "syncbench+ktierd"),
               ("domain:tiering", "counter:tiering.scans",
                "counter:tiering.promoted_pages",
                "counter:tiering.demoted_pages",
                "counter:tiering.migrated_bytes",
                "counter:tiering.writeback_bytes",
                "counter:tiering.shootdowns")),)),
    "consolidate": PerfView(
        "per-tenant breakdown + p99-vs-tenant-count knee", "consolidate",
        (Panel("Per-tenant latency vs tenant count (apache mix, no "
               "quotas)", ("apache+noq+nohog",),
               ("kops", "domain:lock_wait", "tenants:p50", "tenants:p99")),
         Panel("Fully loaded machine: 8 tenants + hog, quotas on",
               ("apache+q+hog",),
               ("counter:tenant.{tenant}.requests",
                "pct:tenant.{tenant}.request:p50",
                "pct:tenant.{tenant}.request:p99",
                "counter:tenant.{tenant}.cpu_throttle_cycles",
                "counter:tenant.{tenant}.peak_kernel_bytes",
                "run_total:tenant/lock_wait", "run_total:tenant/tenancy",
                "run_total:tenant/all"), xs=(8,), per_tenant=True))),
    "migrate": PerfView(
        "guest overheads: nested walks, migration downtime and pull "
        "traffic", "migrate",
        (Panel("Hypervisor layers over the guest workloads", (),
               ("domain:virt", "counter:virt.downtime_cycles",
                "counter:virt.pages_pulled",
                "counter:virt.prefetched_pages",
                "counter:virt.pull_retries",
                "counter:virt.degraded_accesses",
                "counter:virt.migrations_completed",
                "counter:virt.migrations_aborted")),)),
}
