"""The per-thread, per-domain cycle ledger the engine accrues.

Every interpreted :class:`~repro.obs.charge.Charge` (and every stolen
interrupt cycle) lands here, keyed three ways: by domain, by
``(domain, event)``, and by ``(thread, domain)``.  Experiments read the
ledger to print the paper's cycle-attribution claims directly — e.g.
the ``zeroing`` share of an ext4 append (§III-B) or the ``walk`` cycles
behind Table II — without differencing configurations by hand.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Tuple

from repro.obs.domains import DOMAIN_ORDER, CostDomain


class Ledger:
    """Cycle attribution accumulated by the engine as effects run."""

    def __init__(self) -> None:
        self._domains: Dict[CostDomain, float] = defaultdict(float)
        self._events: Dict[Tuple[CostDomain, str], float] = \
            defaultdict(float)
        self._threads: Dict[str, Dict[CostDomain, float]] = \
            defaultdict(lambda: defaultdict(float))
        self.records = 0

    # -- recording ---------------------------------------------------------
    def record(self, thread: str, domain: CostDomain, event: str,
               cycles: float) -> None:
        """Attribute ``cycles`` of ``thread``'s time to a domain/event."""
        if cycles == 0.0:
            return
        self._domains[domain] += cycles
        self._events[(domain, event)] += cycles
        self._threads[thread][domain] += cycles
        self.records += 1

    # -- queries ----------------------------------------------------------
    def domain_total(self, domain: CostDomain) -> float:
        return self._domains.get(domain, 0.0)

    def event_total(self, domain: CostDomain, event: str) -> float:
        return self._events.get((domain, event), 0.0)

    def thread_total(self, thread: str,
                     domain: Optional[CostDomain] = None) -> float:
        per = self._threads.get(thread)
        if per is None:
            return 0.0
        if domain is None:
            return sum(per.values())
        return per.get(domain, 0.0)

    def total(self) -> float:
        """All cycles attributed so far (across every domain)."""
        return sum(self._domains.values())

    def domains(self) -> Dict[str, float]:
        """Snapshot ``{domain value: cycles}`` in presentation order."""
        out = {}
        for domain in DOMAIN_ORDER:
            value = self._domains.get(domain, 0.0)
            if value:
                out[domain.value] = value
        return out

    def events(self, domain: Optional[CostDomain] = None
               ) -> Dict[str, float]:
        """Snapshot ``{"domain/event": cycles}``, optionally filtered."""
        return {f"{d.value}/{e}": v
                for (d, e), v in sorted(self._events.items(),
                                        key=lambda kv: -kv[1])
                if domain is None or d is domain}

    def per_thread(self) -> Dict[str, Dict[str, float]]:
        return {thread: {d.value: v for d, v in per.items() if v}
                for thread, per in self._threads.items()}

    def share(self, domain: CostDomain) -> float:
        """Fraction of all attributed cycles belonging to ``domain``."""
        total = self.total()
        return self._domains.get(domain, 0.0) / total if total else 0.0

    # -- lifecycle ---------------------------------------------------------
    def merge(self, other: "Ledger") -> "Ledger":
        """Fold another ledger into this one (multi-system benches)."""
        for domain, value in other._domains.items():
            self._domains[domain] += value
        for key, value in other._events.items():
            self._events[key] += value
        for thread, per in other._threads.items():
            mine = self._threads[thread]
            for domain, value in per.items():
                mine[domain] += value
        self.records += other.records
        return self

    def reset(self) -> None:
        self._domains.clear()
        self._events.clear()
        self._threads.clear()
        self.records = 0

    def to_state(self) -> Dict[str, object]:
        """Lossless, JSON-ready state (inverse of :meth:`from_state`).

        Events are shipped as ``[domain, event, cycles]`` triples —
        event names may contain any separator, so no string key is
        safe to join them on."""
        return {
            "domains": {d.value: v for d, v in
                        sorted(self._domains.items(),
                               key=lambda kv: kv[0].value)},
            "events": [[d.value, e, v] for (d, e), v in
                       sorted(self._events.items(),
                              key=lambda kv: (kv[0][0].value, kv[0][1]))],
            "threads": {t: {d.value: v for d, v in
                            sorted(per.items(),
                                   key=lambda kv: kv[0].value)}
                        for t, per in sorted(self._threads.items())},
            "records": self.records,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Ledger":
        ledger = cls()
        for name, value in state.get("domains", {}).items():
            ledger._domains[CostDomain(name)] = float(value)
        for name, event, value in state.get("events", []):
            ledger._events[(CostDomain(name), event)] = float(value)
        for thread, per in state.get("threads", {}).items():
            mine = ledger._threads[thread]
            for name, value in per.items():
                mine[CostDomain(name)] = float(value)
        ledger.records = int(state.get("records", 0))
        return ledger

    def to_json(self) -> Dict[str, object]:
        """JSON-ready attribution snapshot (the ``BENCH_*`` seed)."""
        return {
            "total_cycles": self.total(),
            "domains": self.domains(),
            "events": self.events(),
            "threads": self.per_thread(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        top = ", ".join(f"{k}={v:.0f}"
                        for k, v in list(self.domains().items())[:4])
        return f"<Ledger {self.records} records: {top}>"
