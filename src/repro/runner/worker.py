"""Execution of one sweep point (in-process or in a pool worker).

The function crossing the ``multiprocessing`` boundary takes a plain
payload dict and returns a plain state dict — no simulator object is
ever pickled.  Each point builds a fresh :class:`~repro.system.System`
from its :class:`~repro.machine.MachineSpec`, exactly as the
sequential CLI experiments do, so a point's result is independent of
which process (and in which order) it runs.
"""

from __future__ import annotations

import itertools
import sys
import time
from typing import Dict

from repro.runner.manifest import SweepPoint, result_state
from repro.system import System

#: Which delivery attempt of the current point this worker is running
#: (0 = first try).  Published by the pool's guarded wrapper before
#: ``run_point``; diagnostic workloads (the ``selftest`` flaky mode)
#: read it to fail deterministically on early attempts only.
CURRENT_ATTEMPT = 0


def _reset_naming_counters() -> None:
    """Make point output independent of in-process run history.

    Workload modules draw file-set prefixes and process names from
    module-level ``itertools.count`` counters, and those names leak
    into lock reports (``eph3.mmap_sem`` vs ``eph0.mmap_sem``).  A
    point executed third in a sequential parent must produce the same
    bytes as the same point executed first in a pool worker, so every
    workload counter restarts from zero before a point runs.  The
    crash injector leans on the same reset for replica determinism:
    every crash point rebuilds the machine and must see identical
    file-set and store names.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.workloads"):
            continue
        for counter in ("_run_counter", "_store_counter"):
            if hasattr(module, counter):
                setattr(module, counter, itertools.count())


#: Rows kept from a per-point profile (sorted by tottime).
PROFILE_TOP = 15


def _profile_top(profiler, top: int = PROFILE_TOP):
    """Flatten a cProfile run into JSON-safe top-N rows."""
    import pstats

    rows = []
    for func, (_cc, ncalls, tottime, cumtime, _callers) in \
            pstats.Stats(profiler).stats.items():
        filename, line, name = func
        # Trim the path to the package-relative part when possible.
        marker = filename.rfind("repro/")
        where = filename[marker:] if marker >= 0 else filename
        rows.append({"function": f"{where}:{line}({name})",
                     "ncalls": ncalls,
                     "tottime": round(tottime, 6),
                     "cumtime": round(cumtime, 6)})
    rows.sort(key=lambda row: -row["tottime"])
    return rows[:top]


def build_system(point: SweepPoint) -> System:
    """The fresh machine one point runs on, overlays attached.

    :func:`run_point` and the golden registry (:mod:`repro.goldens`)
    both build here, so a pinned point is the sweep's machine.
    """
    _reset_naming_counters()
    return point.machine.build()


def system_state(run, system: System,
                 wall: float = 0.0) -> Dict[str, object]:
    """``run``'s JSON-safe result state plus the contended locks."""
    locks = [lock.report() for lock in system.engine.locks
             if lock.acquisitions]
    return result_state(run, system.stats, system.ledger, locks, wall)


def run_point(payload: Dict[str, object],
              profile: bool = False) -> Dict[str, object]:
    """Simulate one sweep point; returns its JSON-safe result state.

    ``profile=True`` wraps the simulation in :mod:`cProfile` and
    attaches the top functions by own-time as ``state["profile"]``.
    Profiled walls include the profiler's overhead, so the pool never
    caches a profiled state.
    """
    # Imported lazily: the registry module imports the workloads, and
    # a spawned worker must finish importing this module first.
    from repro.runner.sweeps import POINT_RUNNERS

    point = SweepPoint.from_payload(payload)
    runner = POINT_RUNNERS.get(point.experiment)
    if runner is None:
        raise KeyError(f"unknown point experiment {point.experiment!r}; "
                       f"known: {sorted(POINT_RUNNERS)}")
    system = build_system(point)
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
        try:
            run = runner(system, **point.params)
        finally:
            profiler.disable()
    else:
        run = runner(system, **point.params)
    wall = time.perf_counter() - started
    state = system_state(run, system, wall)
    if profiler is not None:
        state["profile"] = _profile_top(profiler)
    return state
