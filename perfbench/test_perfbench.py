"""Self-tests of the benchmark: tracer accounting, the correctness gate
and the bare-directory refusal.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run

run.use_checkout_source()

import cells  # noqa: E402  (needs the checkout's source on the path)
from repro.config import DEFAULT_COSTS  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_generator_step_self_time_excludes_children_and_suspension():
    clock = FakeClock()
    tracer = layertrace.LayerTracer(clock=clock)

    def inner():
        clock.advance(5)
        yield "inner-1"
        clock.advance(7)
        return 40

    def outer():
        clock.advance(2)
        value = yield from inner_traced()
        clock.advance(3)
        yield "outer-1"
        clock.advance(1)
        return value + 2

    inner_traced = tracer.wrap_generator_function(inner, "inner", "fs")
    outer_traced = tracer.wrap_generator_function(outer, "outer",
                                                  "workloads")
    tracer.begin_phase()
    gen = outer_traced()
    effects = []
    try:
        while True:
            effects.append(gen.send(None))
            clock.advance(100)  # the scheduler, between steps
    except StopIteration as stop:
        result = stop.value
    tracer.end_phase()

    assert effects == ["inner-1", "outer-1"]
    assert result == 42
    assert tracer.self_ns["workloads"] == 2 + 3 + 1
    assert tracer.self_ns["fs"] == 5 + 7
    assert tracer.self_ns[layertrace.OTHER] == 200
    assert sum(tracer.self_ns.values()) == tracer.phase_ns == clock.now
    spans = {span.name: span for span in tracer.spans}
    assert spans["inner"].parent == spans["outer"].id
    assert (spans["outer"].start, spans["outer"].end) == (0, 218)
    assert spans["inner"].self_ns == 12


def test_function_returning_generator_is_stepped_in_its_span():
    clock = FakeClock()
    tracer = layertrace.LayerTracer(clock=clock)

    def body():
        clock.advance(4)
        yield 1
        clock.advance(6)

    def make():
        clock.advance(1)
        return body()

    traced = tracer.wrap_function(make, "make", "vm")
    tracer.begin_phase()
    assert list(traced()) == [1]
    tracer.end_phase()
    assert tracer.self_ns["vm"] == 11
    assert tracer.calls["make"] == 1


def test_timed_span_is_scaled_by_the_passes_around_it(monkeypatch):
    calibration = run.Calibration()
    calibration.samples = [0.2]

    def sample():
        calibration.samples.append(0.6)
        return 0.6

    monkeypatch.setattr(calibration, "sample", sample)
    # 1.5 CPU seconds between passes of 0.2 and 0.6 s: the host ran
    # the load at 0.4 s, so at the reference speed the span is shorter.
    assert calibration.scaled(lambda: 1.5) == pytest.approx(
        1.5 * run.REFERENCE_CALIBRATION_S / 0.4)
    assert calibration.samples == [0.2, 0.6]


def _traced_run():
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "fsync-write", "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
        timeout=170).stdout.splitlines()
    return json.loads(out[-2])["diagnostics"], json.loads(out[-1])


def test_traced_layer_self_times_sum_to_measured_phase():
    diag, result = _traced_run()
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert sum(diag["traced_self_s"].values()) == pytest.approx(
        diag["traced_phase_s"], abs=1e-6)
    assert metrics["trace_coverage"] >= 0.95
    # The write path dominates this workload; the VM layers are idle.
    top = max(layertrace.LAYERS, key=lambda l: metrics[f"{l}.self_s"])
    assert top == "fs"
    for idle in ("vm", "paging", "core"):
        assert metrics[f"{idle}.self_s"] < 0.01 * metrics["fs.self_s"]

    trace = json.loads((run.ROOT / diag["trace_file"]).read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 for e in spans)
    assert {"FileSystem.write", "ExtentTree.block_count",
            "Engine.run"} <= {e["name"] for e in spans}


def test_pinned_seed_passes_gate_and_repeats_byte_identically():
    first = cells.run_cell("fsync-write", 0)
    second = cells.run_cell("fsync-write", 0)
    assert first.digest == second.digest
    assert run.gate("fsync-write", 0, [first, second]) == []


def test_perturbed_cost_constant_is_reported_as_failed():
    costs = dataclasses.replace(
        DEFAULT_COSTS, syscall_crossing=DEFAULT_COSTS.syscall_crossing + 1)
    cell = cells.run_cell("fsync-write", 0, costs=costs)
    errors = run.gate("fsync-write", 0, [cell])
    assert len(errors) == 1 and "digest" in errors[0]


def test_unpinned_seed_requires_repetitions_to_agree():
    seed = 12_345
    assert str(seed) not in json.loads(run.PINNED.read_text())["mmap-read"]
    cell = cells.run_cell("mmap-read", seed)
    changed = dataclasses.replace(cell, digest="0" * 16)
    assert run.gate("mmap-read", seed, [cell, cell]) == []
    assert len(run.gate("mmap-read", seed, [cell, changed])) == 1


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mmap-read",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
