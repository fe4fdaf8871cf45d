"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.obs import Charge, CostDomain, charge
from repro.sim.engine import Block, Compute, Engine, Spawn, Wake


def test_compute_advances_clock():
    engine = Engine(2)

    def worker():
        yield Compute(100)
        yield Compute(50)
        return "done"

    thread = engine.spawn(worker())
    final = engine.run()
    assert final == 150
    assert thread.result == "done"
    assert thread.finished
    assert thread.runtime == 150


def test_zero_compute_is_allowed():
    engine = Engine(1)

    def worker():
        yield Compute(0)

    engine.spawn(worker())
    assert engine.run() == 0


def test_negative_compute_rejected():
    with pytest.raises(SimulationError):
        Compute(-1)


def test_threads_interleave_by_time():
    engine = Engine(2)
    order = []

    def worker(name, step):
        for _ in range(3):
            yield Compute(step)
            order.append((name, engine.now))

    engine.spawn(worker("fast", 10), core=0)
    engine.spawn(worker("slow", 25), core=1)
    engine.run()
    assert order == [("fast", 10), ("fast", 20), ("slow", 25),
                     ("fast", 30), ("slow", 50), ("slow", 75)]


def test_block_and_wake():
    engine = Engine(2)
    events = []

    def sleeper():
        value = yield Block()
        events.append(("woke", engine.now, value))

    def waker(target):
        yield Compute(500)
        yield Wake(target, delay=20, value="hello")
        events.append(("waker-done", engine.now))

    t1 = engine.spawn(sleeper())
    engine.spawn(waker(t1))
    engine.run()
    assert ("woke", 520, "hello") in events


def test_wake_non_blocked_thread_fails():
    engine = Engine(2)

    def runner():
        yield Compute(10)
        yield Compute(10)

    def bad_waker(target):
        yield Wake(target)

    target = engine.spawn(runner())
    engine.spawn(bad_waker(target))
    with pytest.raises(SimulationError):
        engine.run()


def test_spawn_effect_returns_child():
    engine = Engine(2)
    seen = {}

    def child():
        yield Compute(5)
        return 42

    def parent():
        handle = yield Spawn(child(), name="kid")
        seen["child"] = handle
        yield Compute(1)

    engine.spawn(parent())
    engine.run()
    assert seen["child"].result == 42


def test_deadlock_detection():
    engine = Engine(1)

    def stuck():
        yield Block()

    engine.spawn(stuck())
    with pytest.raises(DeadlockError):
        engine.run()


def test_daemon_does_not_keep_engine_alive():
    engine = Engine(2)
    ticks = []

    def daemon():
        while True:
            yield Compute(10)
            ticks.append(engine.now)

    def fg():
        yield Compute(35)

    engine.spawn(daemon(), daemon=True)
    engine.spawn(fg())
    engine.run()
    assert engine.now == 35
    assert len(ticks) <= 4


def test_interrupt_steals_cycles():
    engine = Engine(2)

    def victim():
        yield Compute(100)
        yield Compute(100)

    thread = engine.spawn(victim(), core=1)
    engine.interrupt_cores([1], 40)
    engine.run()
    # First compute absorbs the 40-cycle interrupt.
    assert thread.finished_at == 240


def test_interrupt_debt_absorption_is_bounded():
    engine = Engine(2)
    times = []

    def victim():
        for _ in range(40):
            yield Compute(10)
            times.append(engine.now)

    engine.spawn(victim(), core=0)
    engine.cores[0].interrupt(50_000)
    engine.run()
    # A tiny compute must not absorb the entire 50k debt at once.
    assert times[0] <= 10 + (10 + 1000)
    # But the debt is eventually paid in full.
    assert times[-1] == pytest.approx(400 + 40 * 0 + 50_000, rel=0.3)


def test_determinism():
    def build():
        engine = Engine(4)

        def worker(i):
            for _ in range(5):
                yield Compute(7 * (i + 1))

        for i in range(4):
            engine.spawn(worker(i), core=i)
        return engine.run()

    assert build() == build()


def test_event_budget():
    engine = Engine(1)

    def spin():
        while True:
            yield Compute(1)

    engine.spawn(spin())
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_core_out_of_range():
    engine = Engine(2)

    def worker():
        yield Compute(1)

    with pytest.raises(SimulationError):
        engine.spawn(worker(), core=7)


def test_daemon_events_drain_at_shutdown():
    """Daemon events queued past the last foreground finish are
    discarded, and a re-entered run() is a no-op."""
    engine = Engine(2)
    ticks = []

    def daemon():
        while True:
            yield Compute(10)
            ticks.append(engine.now)

    def fg():
        yield Compute(25)

    engine.spawn(daemon(), daemon=True, core=0)
    engine.spawn(fg(), core=1)
    final = engine.run()
    assert final == 25
    assert all(t <= 25 for t in ticks)
    # The daemon's next event is still queued but must never execute:
    # no foreground work remains, so run() returns immediately.
    before = len(ticks)
    assert engine.run() == 25
    assert len(ticks) == before


def test_wake_already_runnable_thread_fails():
    """A second Wake racing the first must fail loudly, not double-
    schedule the sleeper."""
    engine = Engine(4)

    def sleeper():
        yield Block()
        yield Compute(1000)

    def waker(target, delay):
        yield Compute(delay)
        yield Wake(target)

    target = engine.spawn(sleeper())
    engine.spawn(waker(target, 10))
    engine.spawn(waker(target, 20))
    with pytest.raises(SimulationError):
        engine.run()


def test_wake_finished_thread_fails():
    engine = Engine(2)

    def quick():
        yield Compute(1)

    def late_waker(target):
        yield Compute(100)
        yield Wake(target)

    target = engine.spawn(quick())
    engine.spawn(late_waker(target))
    with pytest.raises(SimulationError):
        engine.run()


def test_equal_timestamp_tie_break_is_spawn_order():
    """Events at identical timestamps run in monotone sequence order
    (spawn order), so schedules are reproducible."""
    def build():
        engine = Engine(8)
        order = []

        def worker(i):
            yield Compute(10)
            order.append(i)
            yield Compute(10)
            order.append(i)

        for i in range(6):
            engine.spawn(worker(i), core=i)
        engine.run()
        return order

    first = build()
    assert first == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]
    assert first == build()


def test_ledger_attributes_charges_and_uncharged_compute():
    engine = Engine(2)

    def worker():
        yield charge(CostDomain.ZEROING, "zero-fill", 300)
        yield Compute(100)

    engine.spawn(worker(), core=0)
    engine.run()
    assert engine.ledger.domain_total(CostDomain.ZEROING) == 300
    assert engine.ledger.domain_total(CostDomain.USERSPACE) == 100
    assert engine.ledger.event_total(CostDomain.USERSPACE,
                                     "uncharged") == 100
    assert engine.ledger.total() == 400


def test_ledger_books_stolen_cycles_as_shootdown():
    engine = Engine(2)

    def victim():
        yield charge(CostDomain.COPY, "memcpy", 100)

    engine.spawn(victim(), core=1)
    engine.interrupt_cores([1], 40)
    engine.run()
    assert engine.ledger.domain_total(CostDomain.COPY) == 100
    assert engine.ledger.event_total(CostDomain.TLB_SHOOTDOWN,
                                     "ipi-stolen") == 40
    assert engine.now == 140


def test_seconds_conversion():
    engine = Engine(1)

    def worker():
        yield Compute(2.7e9)

    engine.spawn(worker())
    engine.run()
    assert engine.seconds() == pytest.approx(1.0)


def test_seconds_uses_configured_frequency():
    """seconds() must follow the engine's freq_hz, not a hardcoded
    2.7 GHz (the historical bug)."""
    engine = Engine(1, freq_hz=1e9)

    def worker():
        yield Compute(1e9)

    engine.spawn(worker())
    engine.run()
    assert engine.seconds() == pytest.approx(1.0)
    assert engine.seconds(5e8) == pytest.approx(0.5)
    # An explicit override still wins.
    assert engine.seconds(5e8, freq_hz=5e8) == pytest.approx(1.0)


def test_system_threads_machine_frequency_into_engine():
    import dataclasses

    from repro.config import CostModel, MachineConfig
    from repro.system import System

    costs = CostModel()
    costs = dataclasses.replace(
        costs, machine=dataclasses.replace(costs.machine, freq_hz=1e9))
    system = System(costs=costs, device_bytes=1 << 30)
    assert system.engine.freq_hz == 1e9
    assert system.engine.seconds(2e9) == pytest.approx(2.0)
    assert MachineConfig().freq_hz == 2.7e9  # default unchanged


def test_wake_race_within_delay_window_queues():
    """Two wakers inside the first wake's delay window: the target
    stays BLOCKED until delivery, so the second Wake queues instead of
    raising (the historical bug marked the target RUNNABLE at issue)."""
    engine = Engine(4)
    events = []

    def sleeper():
        first = yield Block()
        events.append(("woke", engine.now, first))
        yield Compute(100)
        second = yield Block()
        events.append(("woke", engine.now, second))

    def waker(target, at, value):
        yield Compute(at)
        yield Wake(target, delay=50, value=value)

    target = engine.spawn(sleeper())
    engine.spawn(waker(target, 10, "first"))
    engine.spawn(waker(target, 20, "second"))
    engine.run()
    # First token delivers at 60; the second fires at 70 while the
    # target is computing (until 160), is banked, and satisfies the
    # next Block() immediately.
    assert events == [("woke", 60, "first"), ("woke", 160, "second")]


def test_wake_delivery_order_is_deterministic():
    """Same-deadline tokens deliver in issue order (seq tie-break)."""
    engine = Engine(4)
    got = []

    def sleeper():
        while len(got) < 2:
            got.append((yield Block()))

    def waker(target, value):
        yield Wake(target, delay=30, value=value)

    target = engine.spawn(sleeper())
    engine.spawn(waker(target, "a"))
    engine.spawn(waker(target, "b"))
    engine.run()
    assert got == ["a", "b"]


def test_event_budget_is_per_call():
    """max_events budgets each run() call, not the engine lifetime
    (the historical bug compared the cumulative counter)."""
    engine = Engine(1)

    def phase():
        for _ in range(80):
            yield Compute(1)

    engine.spawn(phase())
    engine.run(max_events=100)
    assert engine.events_processed >= 80
    # A second phase gets its own 100-event budget; under the old
    # cumulative comparison this raised immediately.
    engine.spawn(phase())
    engine.run(max_events=100)


def test_event_budget_still_trips_within_one_call():
    engine = Engine(1)

    def spin():
        while True:
            yield Compute(1)

    engine.spawn(spin())
    with pytest.raises(SimulationError):
        engine.run(max_events=50)


def test_stolen_cycles_attributed_to_interrupting_source():
    """Mixed interrupt sources split FIFO into their own ledger
    buckets (the historical code booked everything to ipi-stolen)."""
    engine = Engine(2)

    def victim():
        yield charge(CostDomain.COPY, "memcpy", 100)

    engine.spawn(victim(), core=1)
    engine.interrupt_cores([1], 40)  # default: TLB shootdown IPI
    engine.cores[1].interrupt(25, domain=CostDomain.FAULTS,
                              event="stall-stolen")
    engine.run()
    assert engine.ledger.event_total(CostDomain.TLB_SHOOTDOWN,
                                     "ipi-stolen") == 40
    assert engine.ledger.event_total(CostDomain.FAULTS,
                                     "stall-stolen") == 25
    assert engine.now == 165


def test_stolen_attribution_respects_absorption_bound():
    """A bounded drain pays debts oldest-first; the remainder waits
    for the next charge."""
    engine = Engine(1)

    def victim():
        yield charge(CostDomain.COPY, "memcpy", 10)    # absorbs <= 1010
        yield charge(CostDomain.COPY, "memcpy", 1000)  # absorbs the rest

    engine.spawn(victim(), core=0)
    engine.cores[0].interrupt(600)
    engine.cores[0].interrupt(600, domain=CostDomain.FAULTS,
                              event="stall-stolen")
    engine.run()
    assert engine.ledger.event_total(CostDomain.TLB_SHOOTDOWN,
                                     "ipi-stolen") == 600
    assert engine.ledger.event_total(CostDomain.FAULTS,
                                     "stall-stolen") == 600
    assert engine.cores[0].stolen_cycles == 0.0


def test_broadcast_interrupt_spares_current_and_daemons():
    engine = Engine(4)

    def toucher():
        yield Compute(1)
        engine.broadcast_interrupt(50, CostDomain.FAULTS, "stall-stolen")
        yield Compute(1)

    def victim():
        yield Compute(5)
        yield Compute(200)  # absorbs the broadcast debt

    def daemon():
        while True:
            yield Compute(10)

    engine.spawn(toucher(), core=0)
    engine.spawn(victim(), core=1)
    engine.spawn(victim(), core=2)
    engine.spawn(daemon(), core=3, daemon=True)
    engine.run()
    assert engine.cores[0].total_interrupts == 0  # caller exempt
    assert engine.cores[3].total_interrupts == 0  # daemon exempt
    assert engine.ledger.event_total(CostDomain.FAULTS,
                                     "stall-stolen") == 100


def test_charge_span_matches_separate_charges():
    from repro.obs import charge_span

    entries = [(CostDomain.COPY, "data-access", 120.0),
               (CostDomain.NUMA, "remote-access", 30.0),
               (CostDomain.WALK, "tlb-walk", 7.5)]

    def spanned():
        yield charge_span(entries)

    def separate():
        for domain, event, cycles in entries:
            yield charge(domain, event, cycles)

    a = Engine(1)
    a.spawn(spanned(), core=0)
    a.run()
    b = Engine(1)
    b.spawn(separate(), core=0)
    b.run()
    assert a.now == b.now
    assert a.events_processed == b.events_processed
    assert a.ledger.to_state() == b.ledger.to_state()


def test_charge_span_validates_entries():
    from repro.obs import charge_span

    with pytest.raises(SimulationError):
        charge_span([("copy", "data", 1.0)])
    with pytest.raises(SimulationError):
        charge_span([(CostDomain.COPY, "data", -1.0)])
    # An empty span is a zero-cost scheduling point, like Compute(0).
    engine = Engine(1)

    def worker():
        yield charge_span([])
        yield Compute(5)

    engine.spawn(worker())
    assert engine.run() == 5


def test_contended_schedule_matches_classic_reference():
    """Three workers contending on a spinlock, with charge spans: the
    clock, event count and ledger are the classic one-pop-per-event
    engine's numbers, pinned from a run of it."""
    from repro.config import CostModel
    from repro.obs import charge_span
    from repro.sim.locks import Spinlock

    engine = Engine(4)
    lock = Spinlock(engine, CostModel(), "t-lock")

    def worker(n):
        for i in range(20):
            yield charge(CostDomain.COPY, "memcpy", 10.0 * (n + i))
            yield from lock.acquire()
            yield charge(CostDomain.JOURNAL, "commit", 5.0)
            yield from lock.release()
            yield charge_span([(CostDomain.WALK, "tlb-walk", 3.0),
                               (CostDomain.NUMA, "remote", 2.0)])

    for n in range(3):
        engine.spawn(worker(n), core=n)
    engine.run()
    assert engine.now == 10100.0
    assert engine.events_processed == 365
    assert engine.ledger.records == 300
    assert engine.ledger.to_state() == {
        "domains": {"copy": 6300.0, "journal": 300.0,
                    "lock_wait": 22805.0, "numa": 120.0, "walk": 180.0},
        "events": [["copy", "memcpy", 6300.0],
                   ["journal", "commit", 300.0],
                   ["lock_wait", "t-lock-acquire", 22480.0],
                   ["lock_wait", "t-lock-blocked", 325.0],
                   ["numa", "remote", 120.0],
                   ["walk", "tlb-walk", 180.0]],
        "threads": {
            "thread-0": {"copy": 1900.0, "journal": 100.0,
                         "lock_wait": 7605.0, "numa": 40.0, "walk": 60.0},
            "thread-1": {"copy": 2100.0, "journal": 100.0,
                         "lock_wait": 7600.0, "numa": 40.0, "walk": 60.0},
            "thread-2": {"copy": 2300.0, "journal": 100.0,
                         "lock_wait": 7600.0, "numa": 40.0, "walk": 60.0}},
        "records": 300,
    }


def test_single_threaded_mmap_run_is_drained(monkeypatch):
    """A sole runnable thread's events go through the drain, not one
    heap round-trip each."""
    from repro.paging.tlb import AccessPattern
    from repro.system import System
    from repro.workloads import Interface, RepetitiveConfig, run_repetitive

    drained = 0
    original = Engine._drain

    def counting_drain(self, thread, limit, max_events):
        nonlocal drained
        before = self.events_processed
        try:
            original(self, thread, limit, max_events)
        finally:
            # The pop that entered the drain counts as drained too.
            drained += self.events_processed - before + 1

    monkeypatch.setattr(Engine, "_drain", counting_drain)
    system = System(device_bytes=1 << 30)
    run_repetitive(system, RepetitiveConfig(
        file_size=4 << 20, op_size=4096, num_ops=200,
        interface=Interface.MMAP, pattern=AccessPattern.RANDOM))
    assert system.engine.events_processed > 200
    assert drained >= 0.99 * system.engine.events_processed


def test_compute_is_an_uncharged_charge():
    effect = Compute(7)
    assert effect.__class__ is Charge
    assert effect.domain is CostDomain.USERSPACE
    assert effect.event == "uncharged"
    assert effect.cycles == 7


def test_charges_before_a_raise_mid_drain_stay_in_the_ledger():
    """A generator that raises inside the drain keeps every charge it
    made before the raise (``reap_crashed`` callers read them)."""
    from repro.obs import charge_span

    engine = Engine(1)

    def worker():
        yield charge(CostDomain.COPY, "memcpy", 10.0)
        yield charge_span([(CostDomain.WALK, "tlb-walk", 3.0),
                           (CostDomain.NUMA, "remote", 2.0)])
        yield Compute(4.0)
        raise RuntimeError("simulated SIGBUS")

    thread = engine.spawn(worker())
    with pytest.raises(RuntimeError):
        engine.run()
    assert engine.now == 19.0
    assert engine.ledger.records == 4
    assert engine.ledger.to_state()["threads"] == {
        "thread-0": {"copy": 10.0, "numa": 2.0, "userspace": 4.0,
                     "walk": 3.0}}
    engine.reap_crashed()
    assert thread.finished
