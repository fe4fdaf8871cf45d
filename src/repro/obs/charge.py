"""The typed cost-charging effect: ``yield charge(domain, event, cycles)``.

:class:`Charge` is the engine's one pure-time effect.  It burns
``cycles`` of simulated time and carries a
:class:`~repro.obs.domains.CostDomain` and a short event name, which the
engine records into its per-thread, per-domain
:class:`~repro.obs.ledger.Ledger` as the effect is interpreted.

Kernel layers outside ``repro/sim`` and ``repro/obs`` must charge time
through this API.  The engine's ``Compute(cycles)`` is only a
:class:`Charge` helper for truly unattributable compute: it returns a
``Charge`` booked under ``userspace/uncharged`` (so nothing escapes the
ledger) and is reserved for the engine itself and its tests.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.obs.domains import CostDomain


class Charge:
    """Effect: consume ``cycles`` of CPU time, attributed to a domain."""

    __slots__ = ("cycles", "domain", "event")

    def __init__(self, domain: CostDomain, event: str, cycles: float):
        if not isinstance(domain, CostDomain):
            raise SimulationError(f"charge needs a CostDomain, "
                                  f"got {domain!r}")
        if cycles < 0:
            raise SimulationError(
                f"negative charge for {domain.value}/{event}: {cycles}")
        self.domain = domain
        self.event = event
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Charge({self.domain.value}/{self.event}, "
                f"{self.cycles:.0f})")


# The ergonomic yield helper: ``yield charge(domain, event, cycles)``.
# Bound straight to the class — building a Charge is the simulator's
# hottest allocation, and a forwarding frame would double its cost.
charge = Charge


class ChargeSpan:
    """Effect: several consecutive charges at one yield point.

    The engine interprets the entries one by one with exactly the
    arithmetic of separate :class:`Charge` yields — per-entry clock
    advance, per-entry interrupt-debt drain, per-entry ledger record —
    so merging is bit-identical *provided* the merged yields had no
    side-effecting kernel code between them (they form one atomic run
    on the thread).  Hot paths use this to collapse their charge
    bursts, cutting scheduler round-trips without moving a cycle.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        checked = []
        for domain, event, cycles in entries:
            if not isinstance(domain, CostDomain):
                raise SimulationError(f"charge_span needs CostDomains, "
                                      f"got {domain!r}")
            if cycles < 0:
                raise SimulationError(
                    f"negative charge for {domain.value}/{event}: "
                    f"{cycles}")
            checked.append((domain, event, cycles))
        self.entries = tuple(checked)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{d.value}/{e}:{c:.0f}"
                          for d, e, c in self.entries)
        return f"ChargeSpan({inner})"


def charge_span(entries) -> ChargeSpan:
    """Build a :class:`ChargeSpan` from ``(domain, event, cycles)``
    triples (the ergonomic yield helper for merged charge bursts)."""
    return ChargeSpan(entries)
