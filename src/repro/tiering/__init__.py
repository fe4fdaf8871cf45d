"""Memory tiering: the pluggable medium registry's kernel daemon.

The tier model itself (per-medium latency/bandwidth/persistence specs)
lives in :mod:`repro.mem.tiers`; this package holds the pieces that act
on it — the hot/cold migration daemon (:mod:`repro.tiering.daemon`).
The pre-refactor equivalence gate is the ``tier`` golden of
:mod:`repro.goldens`.
"""

from repro.tiering.daemon import (GRANULE_BYTES, GRANULE_PAGES, TierMap,
                                  TieringConfig, TieringDaemon)

__all__ = ["GRANULE_BYTES", "GRANULE_PAGES", "TierMap",
           "TieringConfig", "TieringDaemon"]
