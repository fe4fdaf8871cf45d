"""One registry for every pinned golden file in ``tests/golden/``.

Each entry is a ``run(variant) -> states`` function whose docstring
says why its numbers are pinned.  ``tests/test_goldens.py`` replays
every (golden, variant) pair byte for byte; ``python -m repro.goldens
[NAME ...]`` recaptures (all by default) — only when a change
intentionally moves simulated numbers, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.crash.injector import run_crash
from repro.crash.workloads import CRASH_WORKLOADS
from repro.faults import FaultPlan, MediaFaults
from repro.machine import MachineSpec
from repro.obs import CostDomain
from repro.runner.manifest import SweepPoint
from repro.runner.pool import run_sweep
from repro.runner.sweeps import POINT_RUNNERS, build_sweep
from repro.runner.views import PERF_TARGETS, view_state
from repro.runner.worker import (_reset_naming_counters, build_system,
                                 run_point, system_state)
from repro.tenancy.runtime import _run_untenanted
from repro.virt import VirtConfig
from repro.workloads import (ApacheConfig, EphemeralConfig, Interface,
                             ServerInterface, run_apache, run_ephemeral)

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "tests" / "golden"

States = Dict[str, object]


@dataclass(frozen=True)
class Golden:
    name: str
    file: str
    run: Callable[[str], States]
    #: Replays the gate runs; each must reproduce the file's bytes.
    variants: Tuple[str, ...]
    #: The variant the file is written from.
    capture_with: str

    @property
    def path(self) -> Path:
        return GOLDEN_DIR / self.file


REGISTRY: Dict[str, Golden] = {}


def _golden(file: str, variants: Sequence[str] = ("replay",),
            capture_with: Optional[str] = None):
    def register(run: Callable[[str], States]) -> Callable[[str], States]:
        REGISTRY[run.__name__] = Golden(run.__name__, file, run,
                                        tuple(variants),
                                        capture_with or variants[0])
        return run
    return register


def render(states: States) -> str:
    """The canonical bytes of a golden file."""
    return json.dumps(states, indent=2, sort_keys=True) + "\n"


# -- sweep points ------------------------------------------------------------
def _knobs(ops: int, aged: bool = False) -> Dict[str, object]:
    """Builder knobs of a pinned sweep (the CI smoke's machine shape)."""
    return {"ops": ops, "size": 64 << 10,
            "base": MachineSpec(device_gib=1, aged=aged)}


def _pinned_points(pinned: tuple) -> Iterator[Tuple[str, SweepPoint]]:
    """``(group, point)`` for every ``(sweep, knobs, xs, series or
    None)`` entry's kept points; aged sweeps group as ``<sweep>-aged``."""
    for name, knobs, xs, series in pinned:
        group = f"{name}-aged" if knobs["base"].aged else name
        for point in build_sweep(name, **knobs).points:
            if point.x in xs and (series is None or point.series in series):
                yield group, point


def _grouped(pinned: tuple,
             state_of: Callable[[SweepPoint], States]) -> States:
    """``{group: {label: state}}``; two pinned points sharing a label
    in one group would silently overwrite each other, so they raise."""
    out: Dict[str, Dict[str, object]] = {}
    for group, point in _pinned_points(pinned):
        states = out.setdefault(group, {})
        if point.label in states:
            raise ValueError(f"golden group {group!r} pins two points "
                             f"labelled {point.label!r}")
        states[point.label] = state_of(point)
    return out


def _without_wall(state: States) -> States:
    """The wall clock varies run to run; everything else is pinned."""
    return {k: v for k, v in state.items() if k != "wall_seconds"}


def _point_state(point: SweepPoint, empty_fault_plan: bool = False
                 ) -> States:
    """Run one point on its sweep machine."""
    system = build_system(point)
    if empty_fault_plan:
        system.attach_faults(MediaFaults(FaultPlan.empty()))
    run = POINT_RUNNERS[point.experiment](system, **point.params)
    return _without_wall(system_state(run, system))


@_golden("mmu_equivalence.json", variants=("default", "radix4"))
def mmu(variant: str) -> States:
    """``radix4`` is the pre-refactor paging code, bit for bit.

    The scheme refactor moved the 4-level radix walk behind
    :class:`~repro.paging.schemes.TranslationScheme`; every fault,
    attach, walk and teardown must still charge the cycles it charged
    when ``MMStruct`` called ``PageTable`` directly.  Captured before
    the interface landed.  ``default`` builds with ``MachineSpec``'s
    default scheme, ``radix4`` spells it out.  The points cross demand faults,
    DaxVM attach/detach, TLB walk charging and fork/teardown, on clean
    and aged images.
    """
    scheme = MachineSpec().scheme if variant == "default" else variant
    return _grouped((("scaling", _knobs(8), (1, 2), None),
                     ("scaling", _knobs(6, aged=True), (2,), None),
                     ("apache", _knobs(12, aged=True), (1, 4), None)),
                    lambda point: _point_state(replace(
                        point, machine=replace(point.machine,
                                               scheme=scheme))))


@_golden("engine_equivalence.json")
def engine(variant: str) -> States:
    """The drain moves no measured cycle.

    The drain (:meth:`repro.sim.engine.Engine._drain`) must reproduce
    the classic one-heap-pop-per-event engine byte for byte.  The file
    was captured from that classic heap path when the drain landed; the
    one engine, which drains whenever its popped thread is the sole
    runnable one, must replay it byte for byte.  The mmu points are deep
    single-runnable drains, scaling/apache mmap_sem-contended schedules
    (Block/Wake handoffs, mid-span preemption, interrupt debt), numa a
    split topology with remote-access charging.
    """
    return _grouped((("mmu", _knobs(8), (0.0,), None),
                     ("scaling", _knobs(8), (1, 2), None),
                     ("apache", _knobs(12), (4,), None),
                     ("numa", _knobs(6, aged=True), (1, 2), None)),
                    _point_state)


@_golden("faults_equivalence.json", variants=("empty-plan",),
         capture_with="bare")
def faults(variant: str) -> States:
    """Fault hooks are free when nothing is armed.

    The fault paths in ``fs``, ``vm`` and ``mem`` must charge exactly
    what every experiment charged before the subsystem existed.
    Captured before any hook landed (``bare``: no plan attached),
    replayed with an empty plan attached, across the
    read/write/mmap/DaxVM, NUMA and crash paths the hooks sit on.
    """
    return _grouped((("scaling", _knobs(8), (1, 2), None),
                     ("apache", _knobs(12), (1, 4), None),
                     ("numa", _knobs(6), (1, 2), None),
                     ("crash", _knobs(6), (0,), None)),
                    lambda point: _point_state(point,
                                               variant == "empty-plan"))


@_golden("tier_equivalence.json")
def tier(variant: str) -> States:
    """A DRAM+PMem machine is the pre-registry simulator, bit for bit.

    The tier refactor replaced every ``if medium is Medium.DRAM``
    branch (pricing, leaf-walk selection, topology factors, access
    charging, FS copies) with :class:`~repro.mem.tiers.MediumSpec`
    dispatch; the specs carry the branches' constants, combined in
    their expression order.  Captured before the registry landed.  The
    points cross every refactored layer: ephemeral read/mmap/DaxVM,
    aged Apache, radix4 syncbench/kvstore (PMem-leaf walks, msync) and
    a two-socket placement trio.  Range-scheme points are absent: the
    same change retuned range-TLB charging.
    """
    return _grouped((("scaling", _knobs(8), (1, 4), None),
                     ("apache", _knobs(12, aged=True), (4,), None),
                     ("mmu", _knobs(16), (0, 1),
                      ("syncbench+radix4", "kvstore+radix4")),
                     ("numa", _knobs(6), (2,), None)),
                    _point_state)


def _untenanted_state(point: SweepPoint) -> States:
    """The only tenant's plain runner on a machine without tenancy."""
    config = point.machine.tenancy
    assert config.passive, "pinned points must be degenerate"
    system = build_system(replace(
        point, machine=replace(point.machine, tenancy=None)))
    run = _run_untenanted(system, config.tenants[0])
    return _without_wall(system_state(run, system))


def _passive_state(point: SweepPoint) -> States:
    """The full sweep path, tenancy config attached."""
    assert point.machine.tenancy, "pinned points must carry tenancy"
    return _without_wall(run_point(point.to_payload()))


@_golden("tenancy_equivalence.json", variants=("untenanted", "passive"))
def tenancy(variant: str) -> States:
    """One plain tenant costs nothing.

    Tenancy hooks sit on hot paths — the frame allocator, bandwidth
    admission, the engine's charge path, lock holder tracking.  One
    plain tenant with no quotas and no antagonist must be
    bit-identical to a machine that never heard of tenants.  Captured
    from the un-tenanted runners for the three single-tenant no-quota
    ``consolidate`` points; ``passive`` replays them through
    ``run_point`` with the tenancy config attached (the degenerate
    dispatch in :func:`repro.tenancy.runtime.run_consolidate`).
    """
    pinned = (("consolidate", _knobs(8, aged=True), (1,),
               ("apache+noq+nohog", "predis+noq+nohog",
                "kvstore+noq+nohog")),)
    state_of = (_untenanted_state if variant == "untenanted"
                else _passive_state)
    return {point.label: state_of(point)
            for _, point in _pinned_points(pinned)}


@_golden("perf_views.json")
def perf(variant: str) -> States:
    """The ``perf`` JSON shape, every target at the CI smoke budget.

    Each entry is what ``python -m repro perf <target> --ops 8
    --device 1 --json`` prints: the target's kept points of its sweep,
    run through ``run_sweep`` and read by its view's columns.  A
    column, panel or kept point that moves shows up here by name.
    """
    base = MachineSpec(device_gib=1, aged=True)
    out: Dict[str, object] = {}
    for name, view in PERF_TARGETS.items():
        sweep = build_sweep(view.sweep, ops=8, size=32 << 10, base=base,
                            keep=view.keeps)
        out[name] = view_state(name, view, run_sweep(sweep), base.media)
    return out


# -- non-sweep state shapes --------------------------------------------------
@_golden("numa_equivalence.json")
def numa(variant: str) -> States:
    """The default 1-node machine is the pre-topology simulator.

    The topology refactor (DESIGN.md §8) must keep cycle counts, Stats
    counters, Ledger attribution and histogram buckets on one node.
    Two fixed runs captured before the refactor — an apache/fig-8a
    point and a scaling/fig-1b point — pin what "the same" means.
    """
    runs = {
        "apache": lambda system: run_apache(system, ApacheConfig(
            num_workers=4, requests=160,
            interface=ServerInterface.DAXVM)),
        "scaling": lambda system: run_ephemeral(system, EphemeralConfig(
            file_size=32 << 10, num_files=120, num_threads=4,
            interface=Interface.MMAP)),
    }
    out: Dict[str, object] = {}
    for name, runner in runs.items():
        _reset_naming_counters()
        system = MachineSpec(device_gib=2, aged=True).build()
        run = runner(system)
        out[name] = {
            "label": run.label,
            "cycles": run.cycles,
            "operations": run.operations,
            "bytes_processed": run.bytes_processed,
            "counters": dict(sorted(run.counters.items())),
            "domains": dict(sorted(run.domains.items())),
            "stats": system.stats.to_json(),
            "ledger": system.ledger.to_json(),
        }
    return out


@_golden("crash_smoke.json")
def crash(variant: str) -> States:
    """Crash recovery holds, deterministically.

    Two fixed crash sweeps, one per workload, through the
    integer-exact :meth:`~repro.crash.injector.CrashSummary.to_state`.
    They pin zero invariant violations at every explored crash point
    (the durability property itself) and replica determinism: the same
    transitions enumerated, points sampled and state lost, run after
    run.  Recapture only when a change alters what the tracked
    workloads persist.
    """
    out: Dict[str, object] = {}
    for workload, max_points in (("syncbench", 12), ("kvstore", 8)):
        state = run_crash(MachineSpec(device_gib=1).build, workload,
                          seed=0, max_points=max_points).to_state()
        assert state["invariant_violations"] == 0, (
            f"{workload}: crash recovery violated an invariant")
        assert state["points_explored"] > 0, workload
        out[f"{workload}/seed0"] = state
    return out


def _guest_state(workload: str, pass_through: bool) -> States:
    """Clock, counters and per-domain ledger after one guest run."""
    _reset_naming_counters()
    system = MachineSpec(device_gib=1,
                         virt=VirtConfig() if pass_through else None).build()
    if pass_through:
        assert system.hypervisor.config.passive
    CRASH_WORKLOADS[workload](system)
    if system.hypervisor is not None:
        system.hypervisor.finalize()
        assert not system.hypervisor.jobs, \
            "a passive hypervisor must never start a migration"
    return {
        "now": system.engine.now,
        "counters": dict(sorted(system.stats.counters.items())),
        "domains": {d.value: system.engine.ledger.domain_total(d)
                    for d in CostDomain},
    }


@_golden("virt_equivalence.json", variants=("bare", "pass-through"))
def virt(variant: str) -> States:
    """A pass-through guest is a bare machine.

    The hypervisor hooks every ``mmap`` and mapped access, and
    ``MMStruct._tlb_cost`` consults the guest for nested pricing.
    Under a pass-through hypervisor (``VirtConfig()``: no nesting, no
    migration) the guest must still land on the same clock, counters
    and ledger, to the last float.  Captured from the bare machine;
    ``pass-through`` replays with every process enrolled as a guest.
    """
    return {workload: _guest_state(workload, variant == "pass-through")
            for workload in ("syncbench", "kvstore")}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.goldens",
        description="Recapture pinned golden files (all by default).")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"one of: {', '.join(REGISTRY)}")
    names = parser.parse_args(argv).names or list(REGISTRY)
    unknown = sorted(set(names) - set(REGISTRY))
    if unknown:
        parser.error(f"unknown golden(s): {', '.join(unknown)}")
    for name in names:
        golden = REGISTRY[name]
        golden.path.write_text(render(golden.run(golden.capture_with)))
        print(f"captured {golden.path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
