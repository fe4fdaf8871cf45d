"""The discrete-event engine: simulated time, threads, cores, effects.

Simulated threads are Python generators.  A thread yields *effects*;
the engine interprets each effect, advances the global clock, and
resumes the generator with the effect's result.  The effects:

``Charge(domain, event, cycles)``
    Burn CPU time, attributed in the engine's :class:`Ledger` (yield
    ``repro.obs.charge(domain, event, cycles)``).  The thread resumes
    ``cycles`` later.  Any interrupt cycles stolen from the thread's
    core (e.g. by TLB-shootdown IPIs) are added on top, which is how
    remote-core interference appears in measured throughput.
    ``Compute(cycles)`` is the helper for unattributable time: it
    returns a ``Charge`` booked under ``userspace/uncharged`` and is
    reserved for the engine's own tests.

``ChargeSpan(entries)``
    Several consecutive charges delivered at one yield point (see
    ``repro.obs.charge_span``).  Interpreted entry by entry with the
    exact arithmetic of separate ``Charge`` yields, so hot kernel
    paths can collapse adjacent charges without changing a cycle.

``Block()``
    Suspend until another thread wakes this one via ``Wake``.  Used by
    the lock implementations.

``Wake(thread, delay=0.0, value=None)``
    Schedule ``thread`` (which must be blocked) to resume ``delay``
    cycles from now; its ``Block()`` yield returns ``value``.  The
    target stays blocked until the wake *delivers*, so a second waker
    racing within the delay window queues deterministically instead of
    failing; a wake delivered to a thread that already resumed is
    banked and satisfies its next ``Block()`` immediately.

``Spawn(generator, core=..., name=..., daemon=...)``
    Create and start a new simulated thread; returns the
    :class:`SimThread`.

The engine is deliberately sequential and deterministic: ties are
broken by a monotone sequence number, so a given workload always
produces the same schedule and the same measured cycle counts.

The drain: when the heap empties after a pop, the popped thread is
provably the only runnable entity — nothing can preempt it until it
yields a scheduling effect — so the engine interprets its consecutive
``Charge``/``ChargeSpan`` effects in a tight loop instead of round-
tripping each one through the heap (see :meth:`Engine._drain` and
DESIGN §12 for the invariants).  The drain's clock and ledger
arithmetic are bit-identical to the heap path; the ``engine`` golden
of :mod:`repro.goldens` replays a file captured from the classic
one-pop-per-event engine byte for byte.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from collections import deque
from typing import Any, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.obs import Charge, ChargeSpan, CostDomain, Ledger

KernelGen = Generator[Any, Any, Any]

def Compute(cycles: float) -> Charge:
    """Effect helper: ``cycles`` of unattributed CPU time on the
    thread's core, booked under ``userspace/uncharged``."""
    return Charge(CostDomain.USERSPACE, "uncharged", cycles)


class Block:
    """Effect: suspend the thread until a matching :class:`Wake`."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Block()"


class Wake:
    """Effect: resume a blocked thread ``delay`` cycles from now."""

    __slots__ = ("thread", "delay", "value")

    def __init__(self, thread: "SimThread", delay: float = 0.0,
                 value: Any = None):
        self.thread = thread
        self.delay = delay
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Wake({self.thread.name}, delay={self.delay})"


class Spawn:
    """Effect: start a new simulated thread; yields the SimThread."""

    __slots__ = ("gen", "core", "name", "daemon")

    def __init__(self, gen: KernelGen, core: Optional[int] = None,
                 name: str = "", daemon: bool = False):
        self.gen = gen
        self.core = core
        self.name = name
        self.daemon = daemon


class _WakeToken:
    """In-flight wake: heap payload between Wake issue and delivery.

    The target stays BLOCKED while its token is in flight, so a second
    waker inside the delay window queues another token instead of
    tripping the issue-time state check."""

    __slots__ = ("thread", "value")

    def __init__(self, thread: "SimThread", value: Any):
        self.thread = thread
        self.value = value


class Core:
    """A CPU core: tracks its NUMA node and the stolen-cycle debt
    charged by interrupts, attributed per interrupting source."""

    __slots__ = ("index", "node", "stolen_cycles", "total_interrupts",
                 "_debts")

    def __init__(self, index: int, node: int = 0):
        self.index = index
        self.node = node
        self.stolen_cycles = 0.0
        self.total_interrupts = 0
        #: FIFO of ``[cycles, domain, event]`` debts — drained oldest
        #: first, so a drain attributes its cycles to whichever
        #: interrupts actually ran first.
        self._debts: deque = deque()

    def interrupt(self, cycles: float,
                  domain: CostDomain = CostDomain.TLB_SHOOTDOWN,
                  event: str = "ipi-stolen") -> None:
        """Charge an interrupt handler to whatever runs here next,
        attributed to the interrupting ``domain``/``event``."""
        self.stolen_cycles += cycles
        self.total_interrupts += 1
        debts = self._debts
        if debts and debts[-1][1] is domain and debts[-1][2] == event:
            debts[-1][0] += cycles
        else:
            debts.append([cycles, domain, event])

    def drain_attributed(self, compute_cycles: float = float("inf")):
        """Absorb pending interrupt debt, proportionally to the
        computation being charged; returns ``(total, entries)`` where
        ``entries`` is ``[(domain, event, cycles), ...]`` FIFO.

        Interrupts arrive at random points in real time, so a long
        computation absorbs its full share while a short critical
        section is only stretched modestly — without this bound, debt
        would pile onto whatever tiny lock-held compute runs next and
        manufacture convoys that do not exist on real hardware.

        The drained *total* is computed from the scalar running debt
        exactly as it always was (``min(stolen_cycles, limit)``); the
        per-source split only feeds ledger attribution, and a drain
        that touches a single source reports the scalar total verbatim
        so single-source schedules stay bit-identical.
        """
        limit = compute_cycles + 1000.0
        total = min(self.stolen_cycles, limit)
        if total == 0.0:
            return 0.0, ()
        debts = self._debts
        if total == self.stolen_cycles and len(debts) == 1:
            # Common case — one source, fully absorbed: the scalar
            # total is the single bucket, nothing left to split.
            head = debts[0]
            self.stolen_cycles = 0.0
            debts.clear()
            return total, ((head[1], head[2], total),)
        self.stolen_cycles -= total
        entries = []
        remaining = total
        while debts and remaining > 0.0:
            head = debts[0]
            if head[0] <= remaining:
                debts.popleft()
                take, domain, event = head
                remaining -= take
            else:
                take = remaining
                head[0] -= take
                domain, event = head[1], head[2]
                remaining = 0.0
            if entries and entries[-1][0] is domain \
                    and entries[-1][1] == event:
                entries[-1][2] += take
            else:
                entries.append([domain, event, take])
        if self.stolen_cycles == 0.0:
            # Per-source residues can drift from the scalar total by a
            # rounding ulp; a fully-paid core must owe nothing.
            debts.clear()
        if len(entries) == 1:
            # Single attribution bucket: report the scalar total, not
            # the per-source re-summation (identical as reals, not
            # always as floats).
            entries[0][2] = total
        return total, [(d, e, c) for d, e, c in entries]


class SimThread:
    """A simulated thread: a generator plus scheduling state."""

    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    FINISHED = "finished"

    def __init__(self, engine: "Engine", gen: KernelGen, core: Core,
                 name: str, daemon: bool):
        self.engine = engine
        self.gen = gen
        self.core = core
        self.name = name
        self.daemon = daemon
        self.state = SimThread.RUNNABLE
        self.started_at = engine.now
        self.finished_at: Optional[float] = None
        self.result: Any = None
        self._wake_value: Any = None
        #: Tenant this thread is accounted to (a name string), set by
        #: the repro.tenancy runtime; ``None`` for un-tenanted threads.
        self.tenant: Optional[str] = None
        #: cgroup-style ``limits.cpu`` enforcement: an object with a
        #: ``stretch(cycles) -> extra`` method and an ``event`` label
        #: (repro.tenancy.CpuThrottle, duck-typed).  Every charge is
        #: stretched by ``extra`` cycles booked to the ``tenancy``
        #: domain; ``None`` (the default) leaves scheduling untouched.
        self.cpu_throttle = None
        #: Wake values that arrived while this thread was not blocked
        #: (racing wakers); each satisfies one future ``Block()``.
        self._pending_wakes: deque = deque()
        #: Remaining :class:`ChargeSpan` entries when the engine is
        #: replaying a span one scheduling point at a time (contended
        #: path); ``None`` outside a span.
        self._span_entries = None
        self._span_index = 0

    @property
    def finished(self) -> bool:
        return self.state == SimThread.FINISHED

    @property
    def runtime(self) -> float:
        """Cycles between start and finish (finish required)."""
        if self.finished_at is None:
            raise SimulationError(f"thread {self.name} still running")
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SimThread {self.name} {self.state} core={self.core.index}>"


class Engine:
    """Deterministic discrete-event executor for simulated threads."""

    def __init__(self, num_cores: int = 16, topology=None,
                 freq_hz: float = 2.7e9):
        self.now = 0.0
        # ``topology`` (a repro.topology.MachineTopology, duck-typed to
        # avoid an import cycle) pins each core to its socket; without
        # one, every core sits on node 0 as before.
        self.cores = [Core(i, topology.node_of_core(i) if topology
                           else 0) for i in range(num_cores)]
        #: Clock frequency used by :meth:`seconds`; ``System`` passes
        #: its cost model's ``MachineConfig.freq_hz`` through.
        self.freq_hz = freq_hz
        self._heap: list = []
        self._seq = itertools.count()
        self.threads: list[SimThread] = []
        #: The thread currently being stepped (valid inside kernel code).
        self.current: Optional[SimThread] = None
        self._live_foreground = 0
        self._next_core = 0
        self.events_processed = 0
        #: Per-thread, per-domain cycle attribution (see repro.obs).
        self.ledger = Ledger()
        #: Every lock constructed against this engine registers itself
        #: here so contention reports can enumerate them.
        self.locks: list = []
        #: Optional ``thread_name -> tenant_name`` callable installed
        #: by an active repro.tenancy runtime; locks consult it to
        #: attribute cross-tenant waits.  ``None`` = un-tenanted.
        self.tenant_resolver = None

    # -- thread management ------------------------------------------------
    def spawn(self, gen: KernelGen, core: Optional[int] = None,
              name: str = "", daemon: bool = False) -> SimThread:
        """Register a generator as a new runnable thread."""
        if core is None:
            core = self._next_core % len(self.cores)
            self._next_core += 1
        if not 0 <= core < len(self.cores):
            raise SimulationError(f"core {core} out of range")
        thread = SimThread(self, gen, self.cores[core],
                           name or f"thread-{len(self.threads)}", daemon)
        self.threads.append(thread)
        if not daemon:
            self._live_foreground += 1
        self._schedule(thread, 0.0)
        return thread

    def _schedule(self, thread: SimThread, delay: float) -> None:
        heappush(self._heap,
                 (self.now + delay, next(self._seq), thread))

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.state = SimThread.FINISHED
        thread.finished_at = self.now
        thread.result = result
        if not thread.daemon:
            self._live_foreground -= 1

    # -- effect interpretation --------------------------------------------
    def _charge_one(self, thread: SimThread, domain: CostDomain,
                    event: str, cycles: float) -> None:
        """Record one charge and reschedule: the shared arithmetic of
        a ``Charge`` and of each :class:`ChargeSpan` entry."""
        core = thread.core
        if core.stolen_cycles:
            stolen, stolen_entries = core.drain_attributed(cycles)
        else:
            stolen, stolen_entries = 0.0, ()
        ledger = self.ledger
        ledger.record(thread.name, domain, event, cycles)
        if stolen:
            # Time stolen by interrupts belongs to the interrupting
            # source (shootdown IPI, media-stall broadcast, ...),
            # whatever the interrupted thread was doing.
            for sdomain, sevent, took in stolen_entries:
                ledger.record(thread.name, sdomain, sevent, took)
        throttle = thread.cpu_throttle
        if throttle is not None:
            extra = throttle.stretch(cycles)
            if extra > 0.0:
                ledger.record(thread.name, CostDomain.TENANCY,
                              throttle.event, extra)
                self._schedule(thread, cycles + stolen + extra)
                return
        self._schedule(thread, cycles + stolen)

    def _apply_span(self, thread: SimThread, entries) -> None:
        """Inline a run of span entries inside a drain.

        Only legal while the heap is empty (nothing can interleave):
        each entry advances the clock, drains interrupt debt and lands
        in the ledger with exactly the arithmetic of a separate
        ``Charge`` yield — the same contiguous order an uncontended
        heap run produces.
        """
        core = thread.core
        record = self.ledger.record
        name = thread.name
        for domain, event, cycles in entries:
            record(name, domain, event, cycles)
            if core.stolen_cycles:
                stolen, stolen_entries = core.drain_attributed(cycles)
                for sdomain, sevent, took in stolen_entries:
                    record(name, sdomain, sevent, took)
                self.now += cycles + stolen
            else:
                self.now += cycles

    def _interpret(self, thread: SimThread, effect) -> None:
        """Interpret a scheduling effect (anything but pure compute)."""
        cls = effect.__class__
        if cls is Block:
            if thread._pending_wakes:
                # A racing waker already queued a credit for us: the
                # block is satisfied immediately and deterministically.
                thread._wake_value = thread._pending_wakes.popleft()
                self._schedule(thread, 0.0)
            else:
                thread.state = SimThread.BLOCKED
        elif cls is Wake:
            target = effect.thread
            if target.state != SimThread.BLOCKED:
                raise SimulationError(
                    f"Wake({target.name}): thread is {target.state}")
            # The target stays BLOCKED until the token delivers, so
            # further wakers inside the delay window queue behind it.
            heappush(self._heap,
                     (self.now + effect.delay, next(self._seq),
                      _WakeToken(target, effect.value)))
            thread._wake_value = None
            self._schedule(thread, 0.0)
        elif cls is Spawn:
            child = self.spawn(effect.gen, core=effect.core,
                               name=effect.name, daemon=effect.daemon)
            thread._wake_value = child
            self._schedule(thread, 0.0)
        else:
            raise SimulationError(f"unknown effect {effect!r} "
                                  f"from thread {thread.name}")

    def _drain(self, thread: SimThread, limit: float,
               max_events: Optional[int]) -> None:
        """Fast-forward ``thread`` while it is the sole runnable entity.

        Called with the heap empty after ``thread``'s pop: no other
        thread, daemon or wake token can run until this one yields a
        scheduling effect or its kernel code pushes something into the
        heap.  Consecutive ``Charge``/``ChargeSpan`` effects are
        interpreted in a tight loop — same clock floats, same ledger
        records in the same order, same event accounting — skipping
        only the heap round-trips.
        """
        self.current = thread
        heap = self._heap
        core = thread.core
        send = thread.gen.send
        name = thread.name
        record = self.ledger.record
        value = thread._wake_value
        thread._wake_value = None
        span = thread._span_entries
        if span is not None:
            # The thread was popped mid-span (the contended path
            # buffered the rest): this pop pays the next entry and
            # the drain inlines the remainder, one event each.
            rest = span[thread._span_index:]
            thread._span_entries = None
            self._apply_span(thread, rest)
            self.events_processed += len(rest) - 1
            if self.events_processed >= limit:
                self._schedule(thread, 0.0)
                raise SimulationError(
                    f"event budget {max_events} exhausted "
                    f"at t={self.now}")
            self.events_processed += 1
        while True:
            try:
                effect = send(value)
            except StopIteration as stop:
                self._finish(thread, stop.value)
                return
            value = None
            cls = effect.__class__
            if cls is Charge:
                cycles = effect.cycles
                record(name, effect.domain, effect.event, cycles)
                if core.stolen_cycles:
                    stolen, stolen_entries = core.drain_attributed(cycles)
                    for sdomain, sevent, took in stolen_entries:
                        record(name, sdomain, sevent, took)
                    self.now += cycles + stolen
                else:
                    self.now += cycles
            elif cls is ChargeSpan:
                entries = effect.entries
                if entries:
                    self._apply_span(thread, entries)
                    # Each entry is one scheduling point on the
                    # contended path; keep the event accounting
                    # identical (the loop bottom counts one).
                    self.events_processed += len(entries) - 1
            else:
                self._interpret(thread, effect)
                return
            if heap:
                # Kernel code scheduled something mid-effect (e.g.
                # a daemon spawned directly); re-enter the heap so
                # it can interleave.
                self._schedule(thread, 0.0)
                return
            if self.events_processed >= limit:
                self._schedule(thread, 0.0)
                raise SimulationError(
                    f"event budget {max_events} exhausted "
                    f"at t={self.now}")
            self.events_processed += 1

    # -- main loop ---------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> float:
        """Run until all foreground threads finish; returns final time.

        Daemon threads (e.g. the DaxVM pre-zeroing kthread) do not keep
        the simulation alive: once every foreground thread has
        finished, remaining events are discarded.  ``max_events``
        budgets *this call* — repeated phases (crash recovery, fault
        repair) each get their full budget.
        """
        limit = (self.events_processed + max_events
                 if max_events is not None else float("inf"))
        heap = self._heap
        ledger = self.ledger
        seq = self._seq
        while heap and self._live_foreground > 0:
            if self.events_processed >= limit:
                raise SimulationError(
                    f"event budget {max_events} exhausted at t={self.now}")
            when, _seq, item = heappop(heap)
            if item.__class__ is _WakeToken:
                thread = item.thread
                state = thread.state
                if state == SimThread.BLOCKED:
                    thread.state = SimThread.RUNNABLE
                    thread._wake_value = item.value
                elif state == SimThread.FINISHED:
                    continue
                else:
                    # The target already resumed (racing wakers): bank
                    # the credit for its next Block().
                    thread._pending_wakes.append(item.value)
                    continue
            else:
                thread = item
                if thread.state != SimThread.RUNNABLE:
                    # Stale entry: a finished thread's leftovers, or a
                    # thread that blocked after this event was queued
                    # (the wake token will resume it).
                    continue
            self.now = when
            self.events_processed += 1
            if not heap and thread.cpu_throttle is None:
                # Throttled tenant threads always take the heap path:
                # the drain's tight loop has no stretch hook, and a
                # sole-runnable throttled thread is rare enough that
                # skipping the drain costs nothing measurable.
                self._drain(thread, limit, max_events)
                continue
            # The contended path, inlined: this loop interprets every
            # contended-path event and the call frame alone is
            # measurable at tens of thousands of events per point.  A
            # thread mid-span is *not* resumed: its next buffered entry
            # is interpreted instead, so a ``ChargeSpan`` occupies one
            # scheduling point per entry — bit-identical to the
            # separate ``Charge`` yields it replaced, including how
            # other threads' records and interrupts interleave between
            # entries.
            span = thread._span_entries
            if span is not None:
                index = thread._span_index
                domain, event, cycles = span[index]
                index += 1
                if index == len(span):
                    thread._span_entries = None
                else:
                    thread._span_index = index
                self._charge_one(thread, domain, event, cycles)
                continue
            self.current = thread
            try:
                effect = thread.gen.send(thread._wake_value)
            except StopIteration as stop:
                self._finish(thread, stop.value)
                continue
            thread._wake_value = None
            cls = effect.__class__
            if cls is Charge:
                # _charge_one's body, inlined — including the ledger's
                # ``record`` (same defaultdict accumulation, same zero
                # skip) and the heap push: this is the contended path's
                # per-event cost and every call frame here is measurable.
                domain = effect.domain
                cycles = effect.cycles
                core = thread.core
                if core.stolen_cycles:
                    stolen, stolen_entries = \
                        core.drain_attributed(cycles)
                else:
                    stolen, stolen_entries = 0.0, ()
                if cycles != 0.0:
                    ledger._domains[domain] += cycles
                    ledger._events[(domain, effect.event)] += cycles
                    ledger._threads[thread.name][domain] += cycles
                    ledger.records += 1
                if stolen:
                    for sdomain, sevent, took in stolen_entries:
                        ledger.record(thread.name, sdomain, sevent, took)
                throttle = thread.cpu_throttle
                if throttle is not None:
                    extra = throttle.stretch(cycles)
                    if extra > 0.0:
                        ledger.record(thread.name, CostDomain.TENANCY,
                                      throttle.event, extra)
                        heappush(heap,
                                 (self.now + cycles + stolen + extra,
                                  next(seq), thread))
                        continue
                heappush(heap,
                         (self.now + cycles + stolen, next(seq), thread))
            elif cls is ChargeSpan:
                entries = effect.entries
                if not entries:
                    self._schedule(thread, 0.0)
                    continue
                if len(entries) > 1:
                    thread._span_entries = entries
                    thread._span_index = 1
                self._charge_one(thread, *entries[0])
            else:
                self._interpret(thread, effect)
        if self._live_foreground > 0:
            blocked = [t.name for t in self.threads
                       if t.state == SimThread.BLOCKED and not t.daemon]
            raise DeadlockError(
                f"{self._live_foreground} foreground thread(s) blocked "
                f"forever: {blocked}")
        return self.now

    def reap_crashed(self, thread: Optional[SimThread] = None) -> None:
        """Retire a thread whose generator raised out of :meth:`run`.

        An exception escaping a kernel path (a simulated SIGBUS, say)
        leaves the raising thread mid-step: still counted as live
        foreground, so a later :meth:`run` would diagnose a deadlock.
        Callers that catch the exception and keep using the simulation
        (the media-fault injector's repair phase) retire the crashed
        thread here first.  Defaults to the thread that was being
        stepped when the exception escaped.
        """
        thread = thread if thread is not None else self.current
        if thread is None or thread.state == SimThread.FINISHED:
            return
        thread.state = SimThread.FINISHED
        thread.finished_at = self.now
        if not thread.daemon:
            self._live_foreground -= 1

    # -- helpers for cross-core interference -------------------------------
    def interrupt_cores(self, core_indices: Iterable[int],
                        cycles: float,
                        domain: CostDomain = CostDomain.TLB_SHOOTDOWN,
                        event: str = "ipi-stolen") -> int:
        """Charge an interrupt handler to each listed core; returns
        count.  ``domain``/``event`` say who the stolen cycles belong
        to when a victim's next compute absorbs them (TLB-shootdown
        IPIs by default; media-stall broadcasts pass their own)."""
        count = 0
        for idx in core_indices:
            self.cores[idx].interrupt(cycles, domain, event)
            count += 1
        return count

    def broadcast_interrupt(self, cycles: float, domain: CostDomain,
                            event: str,
                            only: Optional[Iterable["SimThread"]] = None,
                            ) -> int:
        """Interrupt every core running another live non-daemon
        thread; returns the victim count.

        Device-wide events — a media-stall window freezing the DIMM,
        say — hit everyone touching the device, not just the thread
        that tripped them.  The caller's own core is exempt (it pays
        the cost in-line through its ``Charge``).  ``only`` restricts
        the blast radius to the listed threads' cores — a hypervisor
        pausing one guest freezes that guest's vCPUs, not the host —
        and ``None`` (the default) keeps the device-wide behaviour."""
        current = self.current
        skip = current.core.index if current is not None else -1
        pool = self.threads if only is None else only
        victims = {thread.core.index for thread in pool
                   if not thread.daemon
                   and thread.state != SimThread.FINISHED}
        victims.discard(skip)
        return self.interrupt_cores(sorted(victims), cycles,
                                    domain=domain, event=event)

    def seconds(self, cycles: Optional[float] = None,
                freq_hz: Optional[float] = None) -> float:
        """Convert cycles (default: current time) to seconds at the
        engine's configured clock (default: ``self.freq_hz``)."""
        value = self.now if cycles is None else cycles
        return value / (self.freq_hz if freq_hz is None else freq_hz)
