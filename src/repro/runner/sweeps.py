"""The sweep registry: point runners and manifest builders.

A *point runner* maps ``(system, **params)`` to a
:class:`~repro.analysis.results.RunResult` — the unit of work a pool
worker executes.  A *sweep builder* expands CLI-level knobs and a base
:class:`~repro.machine.MachineSpec` into a
:class:`~repro.runner.manifest.Sweep` of independent points.  Both are
looked up by name, so the CLI, the benchmarks and the tests share one
definition of what "the apache sweep" means.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, replace
from typing import Callable, Dict, Optional, get_type_hints

from repro.analysis.results import RunResult
from repro.config import MEDIA_PRESETS
from repro.machine import MachineSpec
from repro.paging.tlb import AccessPattern
from repro.runner.manifest import Sweep, SweepPoint
from repro.system import System
from repro.topology import PLACEMENTS
from repro.workloads import (
    ApacheConfig,
    AppendConfig,
    AppendVariant,
    DaxVMOptions,
    EphemeralConfig,
    Interface,
    KVConfig,
    PRedisConfig,
    RepetitiveConfig,
    ServerInterface,
    SyncConfig,
    SyncDiscipline,
    TextSearchConfig,
    YCSBConfig,
    run_apache,
    run_append,
    run_ephemeral,
    run_predis,
    run_repetitive,
    run_sync,
    run_textsearch,
    run_ycsb,
)

PointRunner = Callable[..., RunResult]
POINT_RUNNERS: Dict[str, PointRunner] = {}
SWEEPS: Dict[str, Callable[..., Sweep]] = {}


def point_runner(name: str):
    def decorate(fn):
        POINT_RUNNERS[name] = fn
        return fn
    return decorate


def sweep(name: str, help_text: str):
    def decorate(fn):
        fn.help_text = help_text
        SWEEPS[name] = fn
        return fn
    return decorate


# ---------------------------------------------------------------------------
# Point runners (what a worker process executes).
# ---------------------------------------------------------------------------
def _config(cls, params: dict):
    """``cls`` from a point's JSON-safe params: enum fields arrive as
    their values, ``daxvm`` as a :class:`DaxVMOptions` field dict;
    absent fields keep the config's defaults."""
    types = get_type_hints(cls)
    return cls(**{key: DaxVMOptions(**value) if key == "daxvm"
                  else types[key](value)
                  if isinstance(types[key], enum.EnumMeta) else value
                  for key, value in params.items()})


def _config_runner(cls, run) -> PointRunner:
    def runner(system: System, **params) -> RunResult:
        return run(system, _config(cls, params))
    return runner


#: Runners whose params are exactly their workload config's fields.
POINT_RUNNERS.update(
    ephemeral=_config_runner(EphemeralConfig, run_ephemeral),
    apache=_config_runner(ApacheConfig, run_apache),
    append=_config_runner(AppendConfig, run_append),
    syncbench=_config_runner(SyncConfig, run_sync),
    repetitive=_config_runner(RepetitiveConfig, run_repetitive),
    textsearch=_config_runner(TextSearchConfig, run_textsearch),
)


@point_runner("predis")
def _predis_point(system: System, **params) -> RunResult:
    """The boot stall rides as the ``predis.boot_cycles`` run counter
    and the warm-up timeline as the ``predis.throughput`` sample
    series of the point's Stats: ``(seconds since boot, ops/s in the
    window)``."""
    result = run_predis(system, _config(PRedisConfig, params))
    result.run.counters["predis.boot_cycles"] = result.boot_cycles
    for when, ops_s in result.timeline.points:
        system.stats.sample("predis.throughput", when, ops_s)
    return result.run


@point_runner("kvstore")
def _kvstore_point(system: System, *, workload: str, num_ops: int,
                   preload_records: int, prezero: bool = False,
                   **kv) -> RunResult:
    """YCSB phase knobs by name; every other param is a
    :class:`KVConfig` field."""
    cfg = YCSBConfig(workload=workload, num_ops=num_ops,
                     preload_records=preload_records,
                     kv=_config(KVConfig, kv), prezero=prezero)
    return run_ycsb(system, cfg)


@point_runner("crash")
def _crash_point(system: System, *, workload: str, seed: int,
                 max_points: int) -> RunResult:
    """Crash sweeps rebuild a machine per crash point, so the pool's
    pre-built ``system`` is unused: every replica is built from the
    point's own spec.  Its image is fresh — aging churn per replica is
    pure overhead for durability coverage."""
    from repro.crash import run_crash

    summary = run_crash(system.spec.build, workload, seed=seed,
                        max_points=max_points)
    return summary.to_result()


@point_runner("faults")
def _faults_point(system: System, *, workload: str, seed: int,
                  max_sites: int) -> RunResult:
    """Media-fault sweeps rebuild a machine per armed site (same
    replica discipline as crash points), so the pool's pre-built
    ``system`` is unused: every replica is built from its spec."""
    from repro.faults import run_faults

    summary = run_faults(system.spec.build, workload, seed=seed,
                         max_sites=max_sites)
    return summary.to_result()


@point_runner("selftest")
def _selftest_point(system: System, *, mode: str,
                    hang_seconds: float = 3600.0) -> RunResult:
    """Runner-hardening diagnostics: each mode exercises one failure
    path of the sweep driver itself (quarantine, watchdog, retry).
    ``ok`` completes instantly; ``crash`` raises; ``hang`` sleeps past
    any sane watchdog; ``flaky`` raises a retryable error on attempt 0
    and succeeds on retries; ``oom``/``deadlock`` raise the simulator's
    ENOMEM/deadlock errors, exercising those surfaces end to end."""
    import time as _time

    from repro.errors import DeadlockError, DeviceStallError, MemoryError_
    from repro.runner import worker as _worker

    if mode == "crash":
        raise RuntimeError("selftest: injected worker crash")
    if mode == "hang":
        _time.sleep(hang_seconds)
    elif mode == "flaky":
        if _worker.CURRENT_ATTEMPT == 0:
            raise DeviceStallError("selftest: transient stall, retry me")
    elif mode == "oom":
        raise MemoryError_("selftest: simulated allocation failure")
    elif mode == "deadlock":
        raise DeadlockError("selftest: simulated lock cycle")
    elif mode != "ok":
        raise ValueError(f"unknown selftest mode {mode!r}")
    return RunResult(label=f"selftest:{mode}", cycles=1000.0,
                     operations=1.0)


# ---------------------------------------------------------------------------
# Sweep builders (figure -> list of points).
# ---------------------------------------------------------------------------
def _params(**fields) -> dict:
    """Runner params from config field values: enums by value, DaxVM
    options as a field dict; ``None`` fields are left out (the config
    keeps its default), so a knob added later never moves an existing
    point's payload, hence its cache key."""
    return {key: value.value if isinstance(value, enum.Enum)
            else asdict(value) if isinstance(value, DaxVMOptions)
            else value for key, value in fields.items() if value is not None}


#: DaxVM for long-lived mappings (databases, stores): no ephemeral
#: heap, no async unmap.
MAPPED_DAXVM = DaxVMOptions(ephemeral=False, unmap_async=False)
#: The three interfaces most read-once figures plot.
READ_MMAP_DAXVM = (Interface.READ, Interface.MMAP, Interface.DAXVM)


def _read_once(series: str, x: float, machine: MachineSpec, *,
               interface: Interface, size: int, files: int,
               threads: int = 1, **extra) -> SweepPoint:
    """One ``ephemeral`` point: ``files`` read-once accesses of
    ``size``-byte files by ``threads`` threads."""
    return SweepPoint(experiment="ephemeral", series=series, x=x,
                      params=_params(file_size=size, num_files=files,
                                     num_threads=threads,
                                     interface=interface, **extra),
                      machine=machine)


@sweep("scaling", "read-once throughput vs thread count (fig 1b)")
def _scaling_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    points = [_read_once(interface.value, threads, base,
                         interface=interface, size=size, files=ops,
                         threads=threads)
              for threads in (1, 2, 4, 8, 16)
              for interface in READ_MMAP_DAXVM]
    return Sweep(name="scaling",
                 title="Read-once throughput (Kops/s)",
                 points=points, axis="threads")


#: read, mmap and full DaxVM: the bars of the compact Fig. 8a and of
#: Fig. 8b.
APACHE_TRIO = (("read", ServerInterface.READ, None),
               ("mmap", ServerInterface.MMAP, None),
               ("daxvm", ServerInterface.DAXVM, DaxVMOptions.full()))


@sweep("apache", "webserver scalability, read/mmap/DaxVM (compact "
                 "fig 8a)")
def _apache_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    points = [SweepPoint(experiment="apache", series=series, x=workers,
                         params=_params(num_workers=workers, requests=ops,
                                        interface=interface, daxvm=opts),
                         machine=base)
              for workers in (1, 4, 8, 16)
              for series, interface, opts in APACHE_TRIO]
    return Sweep(name="apache",
                 title="Apache throughput (Kreq/s)",
                 points=points, axis="cores")


#: Fig. 8a's bars in legend order: (series, interface, DaxVM options).
APACHE_BARS = (
    ("read", ServerInterface.READ, None),
    ("mmap", ServerInterface.MMAP, None),
    ("populate", ServerInterface.MMAP_POPULATE, None),
    ("latr", ServerInterface.MMAP_LATR, None),
    ("mmap+async", ServerInterface.MMAP_ASYNC, None),
    ("dax-tables", ServerInterface.DAXVM, DaxVMOptions.filetables_only()),
    ("dax+eph", ServerInterface.DAXVM, DaxVMOptions.with_ephemeral()),
    ("dax+eph+async", ServerInterface.DAXVM, DaxVMOptions.full()),
)


@sweep("apache-scaling", "every fig 8a bar x cores, plus 8 worker "
                         "processes (§V-C)")
def _apache_scaling_sweep(*, ops: int, size: int,
                          base: MachineSpec) -> Sweep:
    """Fig. 8a in full: every bar at 1-16 cores, 32 KB pages, ``ops``
    requests per point; ``size`` is ignored.  The multiprocess
    discussion's two one-process-per-worker points (``mmap+procs``,
    ``daxvm+procs`` at 8 workers) come last; its threaded baselines
    are the figure's own ``mmap`` and ``read`` points at 8."""
    bars = [(cores, series, interface, opts, None)
            for cores in (1, 2, 4, 8, 16)
            for series, interface, opts in APACHE_BARS]
    bars += [(8, "mmap+procs", ServerInterface.MMAP, None, True),
             (8, "daxvm+procs", ServerInterface.DAXVM, DaxVMOptions.full(),
              True)]
    points = [SweepPoint(experiment="apache", series=series, x=cores,
                         params=_params(num_workers=cores, requests=ops,
                                        interface=interface, daxvm=opts,
                                        multiprocess=multiprocess),
                         machine=base)
              for cores, series, interface, opts, multiprocess in bars]
    return Sweep(name="apache-scaling",
                 title="Apache throughput (Kreq/s), 32KB pages",
                 points=points, axis="cores")


@sweep("apache-pages", "webserver throughput vs page size at 16 cores "
                       "(fig 8b)")
def _apache_pages_sweep(*, ops: int, size: int,
                        base: MachineSpec) -> Sweep:
    """read, mmap and DaxVM serving 4-64 KB pages with 16 workers
    (x = page KB).  Each point serves at most ``ops`` requests and at
    most 64 MB of pages, but the byte cap never cuts below 400
    requests; ``size`` is ignored: the page size is the axis."""
    points = [SweepPoint(
        experiment="apache", series=series, x=kb,
        params=_params(num_workers=16, interface=interface, daxvm=opts,
                       requests=min(ops, max(400, (64 << 20) // (kb << 10))),
                       page_size=kb << 10),
        machine=base)
        for kb in (4, 16, 32, 64)
        for series, interface, opts in APACHE_TRIO]
    return Sweep(name="apache-pages",
                 title="Apache throughput (Kreq/s), 16 cores",
                 points=points, axis="page KB")


#: Append sizes on the appends sweep's x axis (KB), Fig. 7's range.
APPEND_SIZES_KB = (4, 64, 256, 1024, 4096)


@sweep("appends", "append size x interface x file system (fig 7)")
def _appends_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Single-op appends onto empty files, every append variant on
    ext4-DAX and NOVA (series ``<fs>:<variant>``, x = append KB).
    ``ops`` sets appends per point (``ops // 8``, at least 8);
    ``size`` is ignored: the append size is the axis."""
    num_appends = max(8, ops // 8)
    points = []
    for fs in ("ext4", "nova"):
        machine = replace(base, fs=fs)
        for kb in APPEND_SIZES_KB:
            for variant in AppendVariant:
                points.append(SweepPoint(
                    experiment="append", series=f"{fs}:{variant.value}",
                    x=kb, params=_params(append_size=kb << 10,
                                         num_appends=num_appends,
                                         variant=variant),
                    machine=machine))
    return Sweep(name="appends",
                 title="Append throughput (Kops/s)",
                 points=points, axis="KB")


#: File sizes on the ephemeral sweep's x axis (KB): Fig. 1a's and
#: Fig. 4's together.
EPHEMERAL_SIZES_KB = (4, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
                      16384, 65536)


@sweep("ephemeral", "read-once latency/throughput vs file size "
                    "(figs 1a, 4)")
def _ephemeral_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """One thread reads each file once through every interface
    (x = file KB).  A point reads at most ``ops`` files and at most
    256 MB, but never fewer than 3 files; ``size`` is ignored: the file
    size is the axis."""
    points = [_read_once(interface.value, kb, base, interface=interface,
                         size=kb << 10,
                         files=max(3, min(ops, (256 << 20) // (kb << 10))))
              for kb in EPHEMERAL_SIZES_KB for interface in Interface]
    return Sweep(name="ephemeral",
                 title="Read-once throughput by file size (Kops/s)",
                 points=points, axis="KB")


@sweep("repetitive", "repetitive 1/4 KB ops over one large file "
                     "(figs 1c, 5)")
def _repetitive_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Fig. 5's op size (x, bytes) x pattern x read/write x variant
    over a 96 MB file (series ``<pattern>:<mode>:<variant>``; the
    ``daxvm`` variant ticks the MMU monitor every 8192 ops, as the
    figure does), then Fig. 1c's monitor-less DaxVM cells (variant
    ``daxvm-nomon``) and the §V-B monitor ablation: random 4 KB DaxVM
    reads of a 64 MB file without and with a 2048-op monitor (series
    ``monitor:<interval>``).  A point runs at most ``ops`` ops and at
    most one pass over its file; ``size`` is ignored."""
    big = 96 << 20
    points = []

    def add(series, interface, file_size, op_size, pattern, write,
            monitor_every):
        # Only DaxVM reads the monitor interval and the options, so the
        # syscall and mmap cells Figs. 1c and 5 share are one point each.
        daxvm = interface is Interface.DAXVM
        points.append(SweepPoint(
            experiment="repetitive", series=series, x=op_size,
            params=_params(file_size=file_size, op_size=op_size,
                           num_ops=min(ops, file_size // op_size),
                           pattern=pattern, write=write,
                           interface=interface,
                           monitor_every=monitor_every if daxvm else None,
                           daxvm=(replace(MAPPED_DAXVM, nosync=True)
                                  if daxvm else None)),
            machine=base))

    variants = (("syscall", Interface.READ), ("mmap", Interface.MMAP),
                ("populate", Interface.MMAP_POPULATE),
                ("daxvm", Interface.DAXVM))
    cells = [(pattern, write, f"{pattern.value}:"
              f"{'write' if write else 'read'}")
             for pattern in AccessPattern for write in (False, True)]
    for op_size in (1024, 4096):
        for pattern, write, cell in cells:
            for variant, interface in variants:
                add(f"{cell}:{variant}", interface, big, op_size, pattern,
                    write, 8192)
    for pattern, write, cell in cells:
        add(f"{cell}:daxvm-nomon", Interface.DAXVM, big, 4096, pattern,
            write, 0)
    for monitor_every in (0, 2048):
        add(f"monitor:{monitor_every}", Interface.DAXVM, 64 << 20, 4096,
            AccessPattern.RANDOM, False, monitor_every)
    return Sweep(name="repetitive",
                 title="Repetitive access (Kops/s)",
                 points=points, axis="op bytes")


#: Sync intervals on the sync sweep's x axis (1 KB writes per sync).
SYNC_INTERVALS = (4, 64, 512, 2048, 8192)


@sweep("sync", "sync discipline x sync interval, 1 KB writes (fig 6)")
def _sync_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Every sync discipline at every interval over a 384 MB file
    (x = writes per sync).  A point writes about ``ops`` KB, in at
    least 10 sync rounds; ``size`` is ignored."""
    points = [SweepPoint(
        experiment="syncbench", series=discipline.value, x=interval,
        params={"file_size": 384 << 20, "op_size": 1 << 10,
                "ops_per_sync": interval,
                "num_syncs": max(10, ops // interval),
                "discipline": discipline.value},
        machine=base)
        for interval in SYNC_INTERVALS for discipline in SyncDiscipline]
    return Sweep(name="sync", title="Sync disciplines (Kops/s)",
                 points=points, axis="ops/sync")


@sweep("textsearch", "text search over a source-tree file set vs "
                     "threads (fig 9a)")
def _textsearch_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """ag over a Linux-tree-like file set of at most ``ops`` (and at
    most 1200) files, 160 MB at 1200 files and scaled with the count;
    ``daxvm-sync-unmap`` turns async unmapping off.  ``size`` is
    ignored."""
    num_files = min(ops, 1200)
    total_bytes = (160 << 20) * num_files // 1200
    bars = [("read", Interface.READ, None),
            ("mmap", Interface.MMAP, None),
            ("daxvm", Interface.DAXVM, DaxVMOptions.full()),
            ("daxvm-sync-unmap", Interface.DAXVM,
             DaxVMOptions.with_ephemeral())]
    points = [SweepPoint(
        experiment="textsearch", series=series, x=threads,
        params=_params(num_files=num_files, total_bytes=total_bytes,
                       num_threads=threads, interface=interface,
                       daxvm=opts),
        machine=base)
        for threads in (1, 2, 4, 8, 16) for series, interface, opts in bars]
    return Sweep(name="textsearch", title="Text search (Kfiles/s)",
                 points=points, axis="threads")


@sweep("predis", "P-Redis boot stall + warm-up timeline (fig 9b)")
def _predis_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """A restarted P-Redis serving ``ops`` gets of 16 KB values from a
    cache of one value per get, capped at 768 MB (x = cache MB), in 20
    throughput windows; ``size`` is ignored."""
    cache_size = min(768 << 20, ops * (16 << 10))
    points = [SweepPoint(
        experiment="predis", series=interface.value, x=cache_size >> 20,
        params={"cache_size": cache_size, "num_gets": ops,
                "window": max(1, ops // 20),
                "interface": interface.value},
        machine=base)
        for interface in (Interface.MMAP, Interface.MMAP_POPULATE,
                          Interface.DAXVM)]
    return Sweep(name="predis", title="P-Redis gets (Kops/s)",
                 points=points, axis="cache MB")


#: YCSB phases on the ycsb sweep's x axis (x = index).
YCSB_WORKLOADS = ("load_a", "load_e", "run_a", "run_b", "run_c", "run_d",
                  "run_e", "run_f")
#: Fig. 9c's variants: (series, interface, DaxVM options, pre-zero).
YCSB_VARIANTS = (
    ("mmap", Interface.MMAP, None, False),
    ("populate", Interface.MMAP_POPULATE, None, False),
    ("daxvm", Interface.DAXVM, MAPPED_DAXVM, False),
    ("daxvm+pz", Interface.DAXVM, MAPPED_DAXVM, True),
    ("daxvm+pz+ns", Interface.DAXVM,
     replace(MAPPED_DAXVM, nosync=True), True),
)


@sweep("ycsb", "YCSB phases x variant over Pmem-RocksDB, ext4 and NOVA "
               "(fig 9c)")
def _ycsb_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Every phase x variant on ext4-DAX (series ``ext4:<variant>``,
    x = index into :data:`YCSB_WORKLOADS`), then the §V-C NOVA
    comparison: load_a and run_b, mmap vs pre-zero+nosync DaxVM.
    ``ops`` sets both the preloaded records and the measured ops;
    ``size`` is ignored."""
    points = []
    for fs, workloads, variants in (
            ("ext4", YCSB_WORKLOADS, YCSB_VARIANTS),
            ("nova", ("load_a", "run_b"),
             (YCSB_VARIANTS[0], YCSB_VARIANTS[-1]))):
        machine = replace(base, fs=fs)
        points += [SweepPoint(
            experiment="kvstore", series=f"{fs}:{series}",
            x=YCSB_WORKLOADS.index(workload),
            params=_params(workload=workload, num_ops=ops,
                           preload_records=ops, interface=interface,
                           daxvm=opts, prezero=prezero),
            machine=machine)
            for workload in workloads
            for series, interface, opts, prezero in variants]
    return Sweep(name="ycsb", title="YCSB over Pmem-RocksDB (Kops/s)",
                 points=points, axis="workload")


@sweep("media", "read-once access per storage medium (§VI)")
def _media_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """``ops`` single-thread read-once accesses of ``size``-byte files
    through read, mmap and DaxVM on every media preset (series
    ``<media>:<interface>``, x = file KB); every other machine knob
    comes from ``base``."""
    points = [_read_once(f"{media}:{interface.value}", size >> 10,
                         replace(base, media=media), interface=interface,
                         size=size, files=ops)
              for media in MEDIA_PRESETS for interface in READ_MMAP_DAXVM]
    return Sweep(name="media", title="Read-once across media (Kops/s)",
                 points=points, axis="KB")


@sweep("ablations", "incremental DaxVM mechanisms at 16 cores (§V-C)")
def _ablations_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    workers = 16
    bars = [
        ("read", ServerInterface.READ, None, None),
        ("mmap", ServerInterface.MMAP, None, None),
        ("+filetables", ServerInterface.DAXVM,
         DaxVMOptions.filetables_only(), None),
        ("+ephemeral", ServerInterface.DAXVM,
         DaxVMOptions.with_ephemeral(), None),
        ("+async", ServerInterface.DAXVM, DaxVMOptions.full(), None),
        ("+batch512", ServerInterface.DAXVM, DaxVMOptions.full(), 512),
    ]
    points = [SweepPoint(experiment="apache", series=series, x=workers,
                         params=_params(num_workers=workers, requests=ops,
                                        interface=interface, daxvm=opts,
                                        batch_pages=batch),
                         machine=base)
              for series, interface, opts, batch in bars]
    return Sweep(name="ablations",
                 title=f"Fig. 8a incremental bars, {workers} cores "
                       f"(Kreq/s)",
                 points=points, axis="cores")


def _audit_sweep(name: str, title: str, workloads, seeds, budget: dict,
                 base: MachineSpec) -> Sweep:
    """``workloads`` x ``seeds`` audit points on a fresh image (every
    point rebuilds the machine per replica; aging churn adds nothing
    to durability or poison-handling coverage)."""
    fresh = replace(base, aged=False)
    return Sweep(name=name, title=title, axis="seed", points=[
        SweepPoint(experiment=name, series=workload, x=seed,
                   params={"workload": workload, "seed": seed, **budget},
                   machine=fresh)
        for workload in workloads for seed in seeds])


@sweep("crash", "crash-point injection + recovery audit per workload")
def _crash_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Both crash workloads at three seeds each.  ``ops`` bounds the
    crash points explored per sweep point (every point is a full
    machine replay, so the budget matters)."""
    return _audit_sweep("crash", "Crash recovery audit (points explored)",
                        ("syncbench", "kvstore"), (0, 1, 2),
                        {"max_points": max(4, min(ops, 48))}, base)


@sweep("faults", "media-fault injection + poison-handling audit")
def _faults_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Every fault workload at two seeds.  ``ops`` bounds the armed
    sites per sweep point (each site is a full machine replica)."""
    return _audit_sweep("faults",
                        "Media-fault handling audit (sites explored)",
                        ("syncbench", "kvstore", "readbench"), (0, 1),
                        {"max_sites": max(4, min(ops, 64))}, base)


@sweep("selftest", "runner fault-isolation diagnostics (ok/crash/hang)")
def _selftest_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """One crashing point and one hung point among healthy ones: used
    by CI to prove a sweep survives both with exactly the bad points
    quarantined.  ``ops`` sets the healthy-point count."""
    modes = ["ok"] * max(2, min(ops, 8))
    modes.insert(1, "crash")
    modes.append("hang")
    fresh = replace(base, aged=False)
    points = [SweepPoint(experiment="selftest", series=mode, x=i,
                         params={"mode": mode}, machine=fresh)
              for i, mode in enumerate(modes)]
    return Sweep(name="selftest",
                 title="Runner isolation selftest",
                 points=points, axis="slot")


def _syncbench_params(ops: int, size: int) -> dict:
    """DaxVM syncbench over a file floored at 4 MB, so its file table
    goes persistent and walks pay PMem leaves; ``ops`` sync rounds
    (8 to 64)."""
    return {"file_size": max(size, 4 << 20), "op_size": 1 << 10,
            "ops_per_sync": 16, "num_syncs": max(8, min(ops, 64)),
            "discipline": "daxvm+fsync"}


@sweep("mmu", "four translation schemes x workload x clean/aged image")
def _mmu_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """DaxVM under four MMUs (see repro.paging.schemes).

    Two attach-heavy workloads — syncbench (one long-lived DaxVM
    mapping, walk-dominated) and the kvstore (small WAL/SSTable files
    rolled constantly, attach-dominated) — each on a clean and an aged
    image (x = 0/1), under every translation scheme.  ``base.aged`` is
    deliberately ignored: the clean/aged contrast *is* the experiment
    for the range scheme.  ``ops`` scales sync rounds and
    KV operations; ``size`` scales the syncbench file (floored at 4 MB
    so its file table goes persistent and walks pay PMem leaves).
    """
    from repro.paging.schemes import SCHEME_NAMES

    kv_ops = max(160, min(ops * 20, 3200))
    points = []
    for scheme in SCHEME_NAMES:
        for aged_image in (False, True):
            x = float(aged_image)
            machine = replace(base, aged=aged_image, scheme=scheme)
            points.append(SweepPoint(
                experiment="syncbench", series=f"syncbench+{scheme}",
                x=x, params=_syncbench_params(ops, size),
                machine=machine))
            points.append(SweepPoint(
                experiment="kvstore", series=f"kvstore+{scheme}",
                x=x,
                params=_params(workload="load_a", num_ops=kv_ops,
                               preload_records=0,
                               interface=Interface.DAXVM,
                               record_size=4096, memtable_limit=1 << 20,
                               sstable_size=1 << 20, wal_size=1 << 20,
                               daxvm=MAPPED_DAXVM),
                machine=machine))
    return Sweep(name="mmu",
                 title="DaxVM across translation architectures "
                       "(cycles/op)",
                 points=points, axis="aged")


@sweep("numa", "file placement vs thread count on two sockets")
def _numa_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Read-once mmap with workload threads pinned to socket 0 and the
    file placed local to them, on the remote socket, or interleaved
    across both — the dual-socket Optane placement experiment."""
    points = [_read_once(placement, threads,
                         replace(base, nodes=("ddr", "ddr"),
                                 placement=placement, pin_node=0),
                         interface=Interface.MMAP, size=size, files=ops,
                         threads=threads, pin_node=0)
              for threads in (1, 2, 4, 8, 16) for placement in PLACEMENTS]
    return Sweep(name="numa",
                 title="NUMA file placement, mmap read-once (Kops/s)",
                 points=points, axis="threads")


#: Data tiers of the tiering sweep, in x-axis order.  ``dram`` is the
#: tmpfs-like bound (no daemon variant: nothing faster to promote to).
TIERING_TIERS = ("dram", "pmem", "cxl")


@sweep("tiering", "interfaces x data tier (DRAM/PMem/CXL) x ktierd")
def _tiering_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Where does each interface break even as file data moves down
    the memory hierarchy?  Read-once (read/mmap/daxvm) plus syncbench
    at every data tier (x = tier index: 0 dram, 1 pmem, 2 cxl), with
    and without the hot/cold migration daemon.  CXL points carry an
    expander node, so the machine actually has the medium it prices.
    The daemon runs hair-triggered (one touch promotes, short scan
    interval) so short sweep points exercise real migrations, not just
    scans."""
    from repro.tiering import TieringConfig

    ktierd = TieringConfig(scan_interval=5e5, hot_touches=1, cold_scans=4)
    points = []
    for x, tier in enumerate(TIERING_TIERS):
        nodes = ("ddr", "cxl") if tier == "cxl" else base.nodes
        daemons = (False,) if tier == "dram" else (False, True)
        for daemon in daemons:
            machine = replace(base, nodes=nodes, tier=tier,
                              ktierd=ktierd if daemon else None)
            suffix = "+ktierd" if daemon else ""
            points += [_read_once(f"{interface.value}{suffix}", x,
                                  machine, interface=interface, size=size,
                                  files=ops, threads=4)
                       for interface in READ_MMAP_DAXVM]
            points.append(SweepPoint(
                experiment="syncbench", series=f"syncbench{suffix}",
                x=x, params=_syncbench_params(ops, size),
                machine=machine))
    return Sweep(name="tiering",
                 title="Interfaces across data tiers (Kops/s)",
                 points=points, axis="tier")


@point_runner("consolidate")
def _consolidate_point(system: System) -> RunResult:
    """One consolidated machine.  The tenant set, quotas and
    antagonist all come from the point's machine spec (whose build
    attached them), so the tenancy shape is part of the cache key by
    construction."""
    from repro.tenancy import run_consolidate

    return run_consolidate(system)


#: Tenant counts on the consolidation knee's x axis.
CONSOLIDATE_TENANTS = (1, 2, 4, 8, 16)


@sweep("consolidate", "tenant count x workload mix x quotas x antagonist")
def _consolidate_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """How does per-tenant p99 degrade as tenants pile onto one
    machine?  Each mix runs 1..16 closed-loop tenants, with quota
    enforcement on/off and with/without a stress-ng-style ``vm`` hog
    on top.  Quotas-on points come first at each (n, mix, hog) cell so
    a ``--max-points`` smoke always exercises enforcement.  The
    single-tenant no-quota apache/predis/kvstore points take the
    degenerate passive path and are golden-gated bit-identical to the
    un-tenanted runners (the ``tenancy`` golden of
    :mod:`repro.goldens`)."""
    from repro.tenancy import consolidate_config

    requests = max(8, min(ops, 64))
    points = []
    for n in CONSOLIDATE_TENANTS:
        for mix in ("apache", "predis", "kvstore"):
            for antagonist in (False, True):
                for quotas in (True, False):
                    config = consolidate_config(
                        n, mix, quotas=quotas, antagonist=antagonist,
                        requests=requests)
                    series = (f"{mix}+{'q' if quotas else 'noq'}"
                              f"+{'hog' if antagonist else 'nohog'}")
                    points.append(SweepPoint(
                        experiment="consolidate", series=series, x=n,
                        machine=replace(base, tenancy=config)))
    return Sweep(name="consolidate",
                 title="Consolidation: per-tenant p99 vs tenant count",
                 points=points, axis="tenants")


@point_runner("migrate")
def _migrate_point(system: System, *, workload: str) -> RunResult:
    """One guest run under the hypervisor the point's machine spec
    attached (so the hypervisor shape is part of the cache key by
    construction)."""
    from repro.virt import run_migrate

    return run_migrate(system, workload)


#: Migration trigger points on the migrate sweep's x axis (guest
#: accesses before the pause): earlier triggers migrate more residual
#: state under post-copy, later triggers shrink the pull window.
MIGRATE_AFTER = (8, 16, 32, 64)


@sweep("migrate", "post-copy live migration: trigger point x prefetch")
def _migrate_sweep(*, ops: int, size: int, base: MachineSpec) -> Sweep:
    """Downtime and pull traffic vs when the migration triggers, with
    and without the prefetch kthread, for both guest workloads.  The
    ``base`` series (x = 0) is the nested-but-never-migrated guest —
    the cost floor every migrating point is compared against; the
    ``degraded`` series forces the source into degraded mode, so its
    migration aborts and the guest serves accesses degraded.  ``ops``
    and ``size`` are deliberately ignored: guest workloads are the
    pinned crash workloads, so points stay byte-comparable across
    budget knobs."""
    from repro.virt import VirtConfig

    fresh = replace(base, aged=False)
    points = []
    for workload in ("syncbench", "kvstore"):
        points.append(SweepPoint(
            experiment="migrate", series=f"{workload}+base", x=0,
            params={"workload": workload},
            machine=replace(fresh, virt=VirtConfig(nested=True))))
        for after in MIGRATE_AFTER:
            for prefetch in (True, False):
                suffix = "+prefetch" if prefetch else "+noprefetch"
                points.append(SweepPoint(
                    experiment="migrate",
                    series=f"{workload}{suffix}", x=after,
                    params={"workload": workload},
                    machine=replace(fresh, virt=VirtConfig(
                        nested=True, migrate=True, migrate_after=after,
                        prefetch=prefetch, seed=0))))
    # Appended last so --max-points smokes keep the points above.
    for workload in ("syncbench", "kvstore"):
        points.append(SweepPoint(
            experiment="migrate", series=f"{workload}+degraded",
            x=MIGRATE_AFTER[1], params={"workload": workload},
            machine=replace(fresh, virt=VirtConfig(
                nested=True, migrate=True, migrate_after=MIGRATE_AFTER[1],
                force_degraded=True, seed=0))))
    return Sweep(name="migrate",
                 title="Post-copy migration: downtime and pull traffic",
                 points=points, axis="migrate_after")


def build_sweep(name: str, *, ops: int, size: int, base: MachineSpec,
                keep: Optional[Callable[[SweepPoint], bool]] = None
                ) -> Sweep:
    """Expand a named sweep with the given CLI-level knobs on machines
    derived from ``base``, keeping the points ``keep`` accepts (all by
    default)."""
    builder = SWEEPS.get(name)
    if builder is None:
        raise KeyError(f"unknown sweep {name!r}; known: {sorted(SWEEPS)}")
    sweep = builder(ops=ops, size=size, base=base)
    if keep is not None:
        sweep.points = [p for p in sweep.points if keep(p)]
    return sweep
