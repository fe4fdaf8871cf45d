"""Command-line interface: ``python -m repro <command>``.

Every paper figure is a registered sweep (:mod:`repro.runner.sweeps`):
``python -m repro sweep <name>`` runs it with the budget flags, fanned
across worker processes and cached, from the same definition the
figure benchmarks in ``benchmarks/`` assert shapes over.  ``perf
<target>`` prints instrumentation breakdowns over a sweep's points;
``crash``, ``faults`` and ``migrate`` are the replica audits.
``python -m repro list`` shows every entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict

from repro.analysis.report import format_sweep, format_table
from repro.analysis.results import Table
from repro.config import MEDIA_PRESETS
from repro.machine import MachineSpec
from repro.paging.schemes import SCHEME_NAMES
from repro.runner import (
    DEFAULT_CACHE_DIR,
    ResultCache,
    SWEEPS,
    build_sweep,
    run_sweep,
)
from repro.runner.manifest import Sweep
from repro.runner.views import PERF_TARGETS, render, view_state
from repro.topology import PLACEMENTS

EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], None]] = {}


def experiment(name: str, help_text: str):
    def decorate(fn):
        fn.help_text = help_text
        EXPERIMENTS[name] = fn
        return fn
    return decorate


def _cli_sweep(args, name: str, keep=None) -> Sweep:
    """A registered sweep expanded with the CLI knobs, on the points
    ``keep(point)`` accepts (all by default), cut to ``--max-points``.

    Sweeps take media, device size and age from the flags; every other
    machine knob is a sweep axis or pinned per point.
    """
    base = MachineSpec(media=args.media, device_gib=args.device,
                       aged=not args.fresh)
    sweep = build_sweep(name, ops=args.ops, size=args.size, base=base,
                        keep=keep)
    if args.max_points is not None and len(sweep.points) > args.max_points:
        print(f"sweep: truncating {name} to the first {args.max_points} "
              f"of {len(sweep.points)} points (--max-points)",
              file=sys.stderr)
        sweep.points = sweep.points[:args.max_points]
    return sweep


def _run_named_sweep(args, name: str, keep=None):
    """Execute :func:`_cli_sweep` with the runner flags."""
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return run_sweep(_cli_sweep(args, name, keep), jobs=args.jobs,
                     cache=cache, point_timeout=args.point_timeout,
                     max_retries=args.max_retries,
                     retry_seed=args.seed,
                     profile=getattr(args, "profile", False))


def _replica(args) -> MachineSpec:
    """The machine every crash/fault/migration replica is built from:
    the flags' machine on a fresh image (each replica rebuilds the
    machine from scratch, and aging churn adds nothing to durability
    or poison-handling coverage)."""
    if args.node_kinds:
        nodes = tuple(k.strip() for k in args.node_kinds.split(",")
                      if k.strip())
    else:
        nodes = ("ddr",) * max(1, args.nodes)
    tier = ktierd = None
    if args.tiering:
        tier, _, flag = args.tiering.partition(":")
        if flag == "daemon":
            from repro.tiering import TieringConfig

            ktierd = TieringConfig()
    return MachineSpec(media=args.media, device_gib=args.device,
                       aged=False, fs=args.fs, nodes=nodes,
                       placement=args.policy, pin_node=args.pin_node,
                       scheme=args.scheme, tier=tier, ktierd=ktierd)


def _audit_report(args, summary, title: str, keys, failures: int,
                  failure: str) -> None:
    """Print an audit summary as a table (or ``--json``); exit nonzero
    with ``failure`` if there were ``failures``."""
    state = summary.to_state()
    if args.json:
        print(json.dumps(state, indent=2, sort_keys=True))
    else:
        table = Table(title, ["metric", "value"])
        for key in keys:
            table.add_row(key, state[key])
        print(format_table(table))
        for line in summary.violations:
            print(f"VIOLATION: {line}")
    if failures:
        raise SystemExit(failure)


@experiment("crash", "crash-point injection + recovery audit")
def _crash(args):
    from repro.crash import run_crash

    summary = run_crash(_replica(args).build, args.workload,
                        seed=args.seed, max_points=args.max_points)
    _audit_report(
        args, summary,
        f"Crash sweep: {summary.workload}, seed {summary.seed}",
        ("total_transitions", "points_explored", "invariant_violations",
         "lost_records", "replayed_records", "rolled_back_txns",
         "orphan_blocks", "tables_repaired", "ptes_replayed"),
        summary.invariant_violations,
        f"crash: {summary.invariant_violations} invariant violation(s) "
        f"across {summary.points_explored} points")


@experiment("faults", "media-fault injection + poison-handling audit")
def _faults(args):
    from repro.faults import FAULT_WORKLOADS, run_faults

    if args.workload not in FAULT_WORKLOADS:
        raise SystemExit(
            f"faults: unknown workload {args.workload!r}; known: "
            + ", ".join(sorted(FAULT_WORKLOADS)))
    summary = run_faults(_replica(args).build, args.workload,
                         seed=args.seed, max_sites=args.max_sites)
    _audit_report(
        args, summary,
        f"Media-fault sweep: {summary.workload}, seed {summary.seed}",
        ("total_touches", "sites_explored", "remapped", "cleared",
         "sigbus_cleared", "bw_windows", "stalls", "bytes_lost",
         "violations"),
        len(summary.violations),
        f"faults: {len(summary.violations)} unhandled-poison "
        f"violation(s) across {summary.sites_explored} sites")


@experiment("migrate", "crash/fault hardening audit of post-copy live "
                       "migration")
def _migrate(args):
    from repro.virt import run_migrate_audit

    summary = run_migrate_audit(
        seeds=(args.seed, args.seed + 1),
        max_points=args.max_points, max_sites=args.max_sites,
        composed_points=max(2, min(args.max_points, 6)),
        machine=_replica(args))
    _audit_report(
        args, summary,
        f"Migration hardening audit, seeds {summary.seeds}, "
        f"trigger after {summary.migrate_after} accesses",
        ("crash_points", "fault_sites", "composed_points",
         "points_explored", "violations"),
        len(summary.violations),
        f"migrate: {len(summary.violations)} invariant violation(s) "
        f"across {summary.points_explored} points")


def _profile_table(result) -> Table:
    """Merge per-point cProfile tables into one sweep-wide top-N.

    Rows are summed by function across every profiled point, so the
    table answers "where did the whole sweep spend its time", not
    "where did one point".
    """
    from repro.runner.worker import PROFILE_TOP

    merged = {}
    for pr in result.points:
        for row in pr.state.get("profile", ()):
            bucket = merged.setdefault(
                row["function"], {"ncalls": 0, "tottime": 0.0,
                                  "cumtime": 0.0})
            bucket["ncalls"] += row["ncalls"]
            bucket["tottime"] += row["tottime"]
            bucket["cumtime"] += row["cumtime"]
    table = Table("Profile — top functions by own time (all points)",
                  ["function", "ncalls", "tottime s", "cumtime s"])
    ranked = sorted(merged.items(), key=lambda kv: -kv[1]["tottime"])
    for function, bucket in ranked[:PROFILE_TOP]:
        table.add_row(function, bucket["ncalls"],
                      round(bucket["tottime"], 4),
                      round(bucket["cumtime"], 4))
    return table


def _perf_cmd(args) -> int:
    """``python -m repro perf <target>`` — one view over its sweep."""
    view = PERF_TARGETS[args.target]
    result = _run_named_sweep(args, view.sweep, keep=view.keeps)
    state = view_state(args.target, view, result, args.media)
    print(json.dumps(state, indent=2, sort_keys=True) if args.json
          else render(state))
    if result.failed:
        print(format_table(result.failed_table()), file=sys.stderr)
        return 1
    return 0


def _sweep_cmd(args) -> int:
    """``python -m repro sweep <name>`` — parallel cached execution."""
    result = _run_named_sweep(args, args.target)
    print(format_sweep(result.sweep.title, result.series(),
                       result.sweep.axis, result.hits, result.misses,
                       result.wall_seconds))
    print()
    print(format_table(result.table()))
    if result.failed:
        print()
        print(format_table(result.failed_table()))
        print(f"sweep: {len(result.failed)} point(s) quarantined, "
              f"{len(result.points)} completed", file=sys.stderr)
    if args.profile:
        print()
        print(format_table(_profile_table(result)))
    if args.expect_failed is not None:
        if len(result.failed) != args.expect_failed:
            print(f"sweep: expected exactly {args.expect_failed} "
                  f"quarantined point(s), got {len(result.failed)}",
                  file=sys.stderr)
            return 1
    elif result.failed:
        return 1
    if args.verify_cache:
        if args.no_cache:
            print("sweep: --verify-cache needs the cache; "
                  "drop --no-cache", file=sys.stderr)
            return 2
        warm = _run_named_sweep(args, args.target)
        if warm.hits != len(warm.points):
            print(f"sweep: cache verify FAILED: only {warm.hits}/"
                  f"{len(warm.points)} points served from cache",
                  file=sys.stderr)
            return 1
        for cold, hot in zip(result.points, warm.points):
            a = json.dumps(cold.comparable_state(), sort_keys=True)
            b = json.dumps(hot.comparable_state(), sort_keys=True)
            if a != b:
                print(f"sweep: cache verify FAILED: point "
                      f"{cold.point.label} round-trips differently",
                      file=sys.stderr)
                return 1
        print(f"cache verify OK: {warm.hits}/{len(warm.points)} points "
              f"replayed identically")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DaxVM reproduction: paper-figure sweeps, perf "
                    "breakdowns and replica audits")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["perf", "sweep",
                                                       "list"],
                        help="what to run ('sweep' fans a registered "
                             "sweep, e.g. a paper figure, across worker "
                             "processes with result caching; 'perf' "
                             "drills into instrumentation breakdowns; "
                             "the rest are replica audits)")
    parser.add_argument("target", nargs="?",
                        choices=sorted(set(PERF_TARGETS) | set(SWEEPS)),
                        help="perf target (with 'perf') or sweep name "
                             "(with 'sweep')")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON (with 'perf', "
                             "'crash', 'faults' or 'migrate')")
    parser.add_argument("--ops", type=int, default=400,
                        help="operation/file/request budget per sweep "
                             "point (each sweep documents its use)")
    parser.add_argument("--size", type=int, default=32 << 10,
                        help="file size in bytes where applicable")
    parser.add_argument("--device", type=int, default=4,
                        help="device size in GiB")
    parser.add_argument("--fresh", action="store_true",
                        help="fresh (unaged) file system image for "
                             "sweeps and perf (replicas are always "
                             "fresh)")
    parser.add_argument("--fs", choices=("ext4", "nova", "xfs"),
                        default="ext4",
                        help="file system of the crash/faults/migrate "
                             "replicas (sweeps carry it per point)")
    parser.add_argument("--media", choices=sorted(MEDIA_PRESETS),
                        default="optane")
    parser.add_argument("--scheme", choices=SCHEME_NAMES,
                        default="radix4",
                        help="translation architecture of the "
                             "crash/faults/migrate replicas (sweeps "
                             "carry the scheme per point)")
    parser.add_argument("--nodes", type=int, default=1,
                        help="NUMA sockets of the crash/faults/migrate "
                             "replicas (1 = uniform machine)")
    parser.add_argument("--policy", choices=PLACEMENTS, default="local",
                        help="file/device placement relative to "
                             "--pin-node on multi-socket "
                             "crash/faults/migrate replicas")
    parser.add_argument("--pin-node", type=int, default=0,
                        help="socket the placement is defined against "
                             "(crash/faults/migrate replicas)")
    parser.add_argument("--node-kinds", default=None,
                        help="comma list of the crash/faults/migrate "
                             "replicas' memory-node kinds (ddr, cxl, "
                             "far), e.g. 'ddr,cxl' adds a CXL expander "
                             "beside the socket; overrides --nodes")
    parser.add_argument("--tiering", default=None,
                        help="price the crash/faults/migrate replicas' "
                             "file data on this tier instead of the "
                             "device medium (dram/pmem/cxl/far); append "
                             "':daemon' to start the hot/cold migration "
                             "kthread, e.g. 'cxl:daemon'")
    parser.add_argument("--workload",
                        choices=("syncbench", "kvstore", "readbench"),
                        default="syncbench",
                        help="crash/fault workload (with 'crash' or "
                             "'faults' only; 'readbench' is faults-only)")
    parser.add_argument("--seed", type=int, default=0,
                        help="crash/fault sampling seed (also seeds "
                             "sweep retry backoff)")
    parser.add_argument("--max-points", type=int, default=64,
                        help="crash points to explore (with 'crash' or "
                             "'migrate'); with 'sweep' or 'perf', run "
                             "only the first N points of the manifest "
                             "(CI smoke)")
    parser.add_argument("--max-sites", type=int, default=64,
                        help="fault sites to arm (with 'faults' or "
                             "'migrate')")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep execution")
    parser.add_argument("--point-timeout", type=float, default=None,
                        help="watchdog seconds per sweep point; hung "
                             "points are quarantined (needs --jobs >= 2 "
                             "for isolation)")
    parser.add_argument("--max-retries", type=int, default=0,
                        help="retries for retryable sweep-point "
                             "failures (seeded exponential backoff)")
    parser.add_argument("--expect-failed", type=int, default=None,
                        help="sweep exits 0 only if exactly this many "
                             "points were quarantined (CI isolation "
                             "checks); default: any failure exits 1")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the sweep result cache")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="sweep result cache directory")
    parser.add_argument("--verify-cache", action="store_true",
                        help="after a sweep, replay it from cache and "
                             "fail unless every point round-trips "
                             "identically")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile every sweep point and print a "
                             "merged top-functions table (bypasses the "
                             "result cache; simulated numbers are "
                             "unchanged, walls include profiler "
                             "overhead)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, fn in sorted(EXPERIMENTS.items()):
            print(f"{name:<12} {fn.help_text}")
        for name, view in sorted(PERF_TARGETS.items()):
            print(f"perf {name:<7} {view.help_text}")
        for name, fn in sorted(SWEEPS.items()):
            print(f"sweep {name:<14} {fn.help_text}")
        return 0
    if args.experiment == "perf":
        if args.target is None or args.target not in PERF_TARGETS:
            print("perf needs a target: " + ", ".join(sorted(PERF_TARGETS)),
                  file=sys.stderr)
            return 2
        return _perf_cmd(args)
    if args.experiment == "sweep":
        if args.target is None or args.target not in SWEEPS:
            print("sweep needs a name: " + ", ".join(sorted(SWEEPS)),
                  file=sys.stderr)
            return 2
        return _sweep_cmd(args)
    EXPERIMENTS[args.experiment](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
