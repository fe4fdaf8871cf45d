"""Standing benchmark: three paper-figure cells, timed on the host.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mmap-read --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats the workload's cell, untraced, for ``--seconds``
and prints the end-to-end metrics: the median host time of the
measured phase, the median set-up time of fresh interpreters, peak
resident memory and the simulated throughput.

Both times are CPU seconds scaled to a reference host.  On a shared
virtual machine the same run's wall time moves by up to 2x with the
neighbours' load: time the vCPU is stolen or held by another process,
which a thread's CPU clock leaves out, and a slower instruction rate
on a contended host, which it does not.  So every timed span (each
repetition, each set-up probe) sits between two passes of a fixed
pure-Python calibration load run in the same process, and its CPU
time is scaled by ``REFERENCE_CALIBRATION_S`` over the mean of those
two passes.

``--trace 1`` runs the cell once untraced, then traced for
``--seconds``, and prints host (wall) self time per package layer,
counts taken at the layer boundaries and the simulated model's exact
numbers; it also writes the last traced repetition's spans as Chrome
trace-event JSON under ``.perfbench/``.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds
diagnostics (every calibration pass, every repetition's unscaled CPU
and wall time, the digest, errors).  Every repetition is checked: the
program's invariant checkers must pass, and the digest of its
simulated result must equal the one pinned in ``pinned.json`` for the
seed or, on an unpinned seed, the run's first repetition's.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
PINNED = HERE / "pinned.json"
TRACE_DIR = ROOT / ".perfbench"
#: Fresh-interpreter set-up samples per untraced run.
SETUP_PROBES = 5
#: Iterations of the calibration's arithmetic loop and of its event
#: loop (together about 0.1 s of CPU on a quiet host).
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_EVENTS = 60_000
#: Calibration CPU seconds of the reference host, to which reported
#: times are scaled; chosen so that scaled times read about what the
#: 2-CPU Xeon VM of ``baseline.json`` measured unscaled when its
#: neighbours were quiet (mmap-read 0.42 s).
REFERENCE_CALIBRATION_S = 0.08
#: String hashing is randomised per interpreter, and the dict layouts
#: it produces moved the apache cell's median host time by about 4 %
#: between processes; every measuring process uses this one seed.
HASH_SEED = "0"

#: ``model.<domain>_cycles`` metrics, from the ledger's domains.
MODEL_DOMAINS = ("fault", "copy", "walk", "syscall", "journal",
                 "lock_wait", "tlb_shootdown", "filetable", "userspace")
#: ``model.<name>`` counts, from the program's counters.
MODEL_COUNTERS = {
    "vm_faults": "vm.faults",
    "tlb_misses": "vm.tlb_misses",
    "journal_commits": "journal.sync_commits",
    "tlb_ipis": "tlb.ipis",
    "daxvm_attachments": "daxvm.attachments",
}


def use_checkout_source() -> None:
    """Import the simulator from this checkout's ``src/`` and nowhere
    else; without it the benchmark has nothing to run."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro
    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not {SOURCE}")


def calibration_load() -> int:
    """A fixed pure-Python load: an arithmetic loop, then an event loop
    shaped like the simulator's (a heap of timestamps, lookups in a
    50k-entry dict, a generator stepped per event).  On the 2-CPU
    Xeon VM, when the neighbours' load slowed the mmap-read cell by
    1.45x, the first slowed 5 % less than the cell and the second 8 %
    more; their sum stayed within 2 %."""
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i & 7
    table = {i: (i, i * 3) for i in range(50_000)}
    heap = [(i * 7 % 1000, i) for i in range(2000)]
    heapq.heapify(heap)

    def accumulate():
        acc = 0
        while True:
            acc += yield acc

    stepper = accumulate()
    next(stepper)
    for i in range(CALIBRATION_EVENTS):
        when, key = heapq.heappop(heap)
        total = stepper.send(table[(key * 7919 + i) % 50_000][1] & 15)
        heapq.heappush(heap, (when + (total & 63) + 1, key))
    return total


class Calibration:
    """Passes of the calibration load, timed on the measuring thread's
    CPU clock, that scale the spans timed between them."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> float:
        began = time.thread_time()
        calibration_load()
        self.samples.append(time.thread_time() - began)
        return self.samples[-1]

    def scaled(self, timed: Callable[[], float]) -> float:
        """``timed()``'s CPU seconds at the reference host's speed,
        judged by a pass just before and one just after it."""
        before = self.samples[-1] if self.samples else self.sample()
        seconds = timed()
        after = self.sample()
        return seconds * REFERENCE_CALIBRATION_S / ((before + after) / 2)


# -- fresh interpreters: set-up time and memory --------------------------
def setup_probe(workload: str, seed: int) -> int:
    """Child side: build the cell, print the monotonic time at
    ``Measurement.start`` and exit there."""
    import cells

    def stop(_system) -> None:
        print(time.monotonic(), flush=True)
        os._exit(0)

    cells.phase_clock().on_begin = stop
    cells.run_cell(workload, seed)
    return 1  # unreachable unless the workload never started measuring


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, seed: int) -> Tuple[float, float]:
    """Host seconds, CPU and wall, from a fresh interpreter's launch
    to its first ``Measurement.start``: imports, the System, the aged
    image and the input files.  The child exits there, so its CPU time
    is the set-up's."""
    began, cpu_before = time.monotonic(), _children_cpu_s()
    stdout = probe("setup", workload, seed)
    return (_children_cpu_s() - cpu_before,
            float(stdout.split()[-1]) - began)


def memory_probe(workload: str, seed: int) -> int:
    """Child side: run the cell once, print the peak resident kB of
    this interpreter's own address space.  (``ru_maxrss`` would not
    do: exec carries the parent's peak into it.)"""
    import cells

    try:
        cells.run_cell(workload, seed)
    except Exception:  # counted as failed by the measuring process
        pass
    status = Path("/proc/self/status").read_text()
    print(next(line.split()[1] for line in status.splitlines()
               if line.startswith("VmHWM:")))
    return 0


def peak_rss_mb(workload: str, seed: int) -> float:
    """Peak resident memory of a fresh interpreter that runs the cell
    once: the program's, without the measuring process's calibration
    load (which outgrows the fsync-write cell)."""
    return int(probe("memory", workload, seed).split()[-1]) / 1024


def probe(kind: str, workload: str, seed: int) -> str:
    """Run ``--probe kind`` in a fresh interpreter; its stdout."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        check=True).stdout


# -- cells and the gate -------------------------------------------------
class Repeats:
    """Every repetition of one cell in a run, and what went wrong."""

    def __init__(self) -> None:
        self.cells: list = []
        self.errors: List[str] = []
        #: Each good cell's measured-phase CPU time, scaled.
        self.scaled_s: List[float] = []
        self.calibration = Calibration()

    @property
    def attempted(self) -> int:
        return len(self.cells) + len(self.errors)

    def run(self, workload: str, seed: int):
        import cells

        outcome = []

        def timed() -> float:
            try:
                outcome.append(cells.run_cell(workload, seed))
            except Exception:  # a failed cell is counted, the run goes on
                self.errors.append(traceback.format_exc(limit=6))
                return 0.0
            finally:
                gc.collect()
            return outcome[0].cpu_s

        scaled = self.calibration.scaled(timed)
        if not outcome:
            return None
        self.cells.append(outcome[0])
        self.scaled_s.append(scaled)
        return outcome[0]


def gate(workload: str, seed: int, cells_run: list) -> List[str]:
    """Digest mismatches, one per failing cell: each must equal the
    digest pinned for the seed or, unpinned, the run's first cell."""
    pinned = json.loads(PINNED.read_text()).get(workload, {})
    want = pinned.get(str(seed))
    if want is None and cells_run:
        want = cells_run[0].digest
    return [f"repetition {number}: digest {cell.digest} != {want}"
            for number, cell in enumerate(cells_run)
            if cell.digest != want]


def model_metrics(cell) -> Dict[str, tuple]:
    """The simulated model's exact numbers for one cell."""
    result = cell.result
    out = {"model.cycles": (result.cycles, "cycles")}
    for domain in MODEL_DOMAINS:
        out[f"model.{domain}_cycles"] = (result.domains.get(domain, 0.0),
                                         "cycles")
    for name, counter in MODEL_COUNTERS.items():
        out[f"model.{name}"] = (result.counters.get(counter, 0.0),
                                "count")
    timing = cell.request_timing
    out["model.request_p99_cycles"] = (
        timing.percentile(99) if timing is not None else 0.0, "cycles")
    return out


# -- runs ---------------------------------------------------------------
def untraced_run(workload: str, seed: int, seconds: float,
                 repeats: Repeats, diag: Dict[str, object]
                 ) -> Dict[str, tuple]:
    """The cell, repeated (at least twice) until ``seconds`` are spent;
    times are medians over the repetitions."""
    probes: List[Tuple[float, float]] = []

    def setup_cpu_s() -> float:
        probes.append(setup_seconds(workload, seed))
        return probes[-1][0]

    setups = [repeats.calibration.scaled(setup_cpu_s)
              for _ in range(SETUP_PROBES)]
    peak_mb = peak_rss_mb(workload, seed)
    deadline = time.monotonic() + seconds
    while repeats.attempted < 2 or time.monotonic() < deadline:
        repeats.run(workload, seed)
    diag["setup_cpu_s"] = [cpu for cpu, _wall in probes]
    diag["setup_wall_s"] = [wall for _cpu, wall in probes]
    done = repeats.cells
    return {
        "host_s": (statistics.median(repeats.scaled_s)
                   if done else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "sim_ops_per_s": (done[0].result.ops_per_second if done else 0.0,
                          "1/s"),
    }


def traced_run(workload: str, seed: int, seconds: float,
               repeats: Repeats, diag: Dict[str, object]
               ) -> Dict[str, tuple]:
    """The cell once untraced, then traced until ``seconds`` are spent;
    per-layer metrics are medians over the traced repetitions."""
    import cells
    import layertrace

    deadline = time.monotonic() + seconds
    reference = repeats.run(workload, seed)
    tracer = layertrace.LayerTracer()
    diag["wrapped_callables"] = layertrace.install(tracer)
    clock = cells.phase_clock()
    clock.on_begin = lambda system: tracer.begin_phase(system.engine)
    clock.on_end = tracer.end_phase
    samples: List[Dict[str, tuple]] = []
    while not samples or time.monotonic() < deadline:
        tracer.reset()
        cell = repeats.run(workload, seed)
        if cell is not None and reference is not None:
            samples.append(layer_metrics(tracer, cell, reference))
        elif repeats.attempted >= 4:
            break
    clock.on_begin = clock.on_end = None
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write_chrome_trace(trace_path)
    diag["trace_file"] = str(trace_path.relative_to(ROOT))
    # The last traced repetition, unaggregated: its layer self times
    # partition its measured phase.
    diag["traced_phase_s"] = tracer.phase_ns / 1e9
    diag["traced_self_s"] = tracer.layer_seconds()
    if not samples:
        return {}
    metrics = {name: (statistics.median(s[name][0] for s in samples),
                      unit)
               for name, (_value, unit) in samples[0].items()}
    metrics.update(model_metrics(reference))
    return metrics


def layer_metrics(tracer, cell, reference) -> Dict[str, tuple]:
    from layertrace import LAYERS, OTHER

    seconds = tracer.layer_seconds()
    calls = tracer.calls
    writes = calls["FileSystem.write"]
    traced_s = tracer.phase_ns / 1e9
    # Entries into spec resolution: MemoryModel.spec calls plus direct
    # spec_for calls (spec itself calls spec_for).
    spec_calls = (calls["MemoryModel.spec"] + calls["spec_for"]
                  - tracer.edges[("MemoryModel.spec", "spec_for")])
    out = {f"{layer}.self_s": (seconds[layer], "s")
           for layer in LAYERS + (OTHER,)}
    out.update({
        "mem.spec_per_op": (spec_calls / cell.result.operations,
                            "calls/op"),
        "fs.write_calls": (writes, "count"),
        "fs.block_count_per_write": (
            calls["ExtentTree.block_count"] / writes if writes else 0.0,
            "calls/op"),
        "sim.events": (cell.events, "count"),
        "sim.host_us_per_event": (seconds["sim"] * 1e6 / cell.events,
                                  "us"),
        "core.mmap_calls": (calls["DaxVM.mmap"], "count"),
        "obs.record_many_calls": (calls["Ledger.record_many"], "count"),
        "trace_overhead_x": (cell.cpu_s / reference.cpu_s, "x"),
        "trace_coverage": (sum(seconds[layer] for layer in LAYERS)
                           / traced_s, "ratio"),
    })
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup", "memory"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve())]
                  + (argv if argv is not None else sys.argv[1:]), env)

    use_checkout_source()
    import cells

    if args.workload not in cells.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(cells.WORKLOADS)}")
    if args.probe == "setup":
        return setup_probe(args.workload, args.seed)
    if args.probe == "memory":
        return memory_probe(args.workload, args.seed)

    diag: Dict[str, object] = {"workload": args.workload,
                               "seed": args.seed}
    repeats = Repeats()
    run = traced_run if args.trace else untraced_run
    metrics = run(args.workload, args.seed, args.seconds, repeats, diag)
    errors = repeats.errors + gate(args.workload, args.seed,
                                   repeats.cells)
    diag.update({
        "calibration_s": repeats.calibration.samples,
        "host_cpu_s": [cell.cpu_s for cell in repeats.cells],
        "host_wall_s": [cell.host_s for cell in repeats.cells],
        "digest": repeats.cells[0].digest if repeats.cells else None,
        "errors": errors,
    })
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({
        "correct": not errors,
        "attempted": repeats.attempted,
        "failed": min(len(errors), repeats.attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
