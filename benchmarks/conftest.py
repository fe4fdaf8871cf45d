"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper: it runs
the corresponding workloads in the simulator, prints the same rows or
series the paper reports, and asserts the *shape* (who wins, by
roughly what factor, where crossovers fall).  Absolute numbers are the
simulator's, not the authors' testbed's — see EXPERIMENTS.md.

Paper figures run as registered sweeps (:mod:`repro.runner.sweeps`)
through :func:`sweep_runs`: the benchmark holds only the figure's
budget, its printout and its shape assertions, and the CLI's
``python -m repro sweep <name>`` reads the same definition.

The pytest-benchmark fixture wraps each experiment in a single
``pedantic`` round so `pytest benchmarks/ --benchmark-only` also
records the (Python) runtime of regenerating each artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.machine import MachineSpec
from repro.runner import ResultCache, build_sweep, run_sweep
from repro.runner.cache import TELEMETRY
from repro.sim.stats import Stats
from repro.system import System

#: Per-bench instrumentation records (one JSON list for the whole
#: session), written under the repo's ignored ``.benchmarks/``.
BENCH_LOG = (Path(__file__).resolve().parent.parent / ".benchmarks"
             / "bench_log.json")
_records: list = []


def once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def sweep_runs(name, *, ops, base, size=0, keep=None):
    """Run the registered sweep ``name`` (the points ``keep`` accepts)
    on two worker processes through the default result cache, as
    ``{(series, x): PointResult}``."""
    sweep = build_sweep(name, ops=ops, size=size, base=base, keep=keep)
    result = run_sweep(sweep, jobs=2, cache=ResultCache())
    assert not result.failed, result.failed
    return {(pr.point.series, pr.point.x): pr for pr in result.points}


#: The paper's testbed image: an aged 4 GiB ext4-DAX device.
AGED = MachineSpec(device_gib=4, aged=True)


@pytest.fixture(autouse=True)
def _print_spacer():
    print()
    yield


@pytest.fixture
def bench_extra():
    """Dict a bench fills with extra fields for its BENCH log record.

    Whatever the test puts here (speedup ratios, profile tables, ...)
    is merged verbatim into its entry in ``BENCH_LOG``.
    """
    return {}


def pytest_configure(config):
    _records.clear()


@pytest.fixture(autouse=True)
def _bench_recorder(request, bench_extra):
    """Record each bench's simulated work to ``BENCH_LOG``.

    Every ``System`` built during the test is tracked; afterwards their
    :class:`~repro.sim.stats.Stats` are merged (satellite: Stats.merge)
    and the bench's total simulated cycles, wall time and largest
    counters are appended to the session log.  Benches that route
    through the sweep runner also report every point's cache hit/miss
    and wall time (drained from the runner telemetry).
    """
    created = []
    original_init = System.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        created.append(self)

    System.__init__ = tracking_init
    telemetry_mark = len(TELEMETRY)
    start = time.perf_counter()
    try:
        yield
    finally:
        System.__init__ = original_init
    wall = time.perf_counter() - start
    sweep_points = [dict(entry) for entry in TELEMETRY[telemetry_mark:]]
    if not created and not sweep_points:
        return
    merged = Stats()
    cycles = 0.0
    for system in created:
        merged.merge(system.stats)
        cycles += system.engine.now
    counters = merged.to_json()["counters"]
    top = sorted(counters.items(), key=lambda kv: -abs(kv[1]))[:12]
    record = {
        "bench": request.node.nodeid,
        "simulated_cycles": cycles,
        "wall_seconds": wall,
        "key_counters": dict(top),
    }
    if sweep_points:
        hits = sum(1 for entry in sweep_points if entry["hit"])
        record["sweep_points"] = sweep_points
        record["cache_hits"] = hits
        record["cache_misses"] = len(sweep_points) - hits
    record.update(bench_extra)
    _records.append(record)
    BENCH_LOG.parent.mkdir(exist_ok=True)
    BENCH_LOG.write_text(json.dumps(_records, indent=2) + "\n")
