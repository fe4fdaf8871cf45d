"""The golden gate: every pinned file, every replay variant.

:mod:`repro.goldens` registers one entry per file in ``tests/golden/``
— its pinned points, the variant it is captured with and the replays
that must reproduce it byte for byte.  Each entry's docstring says
which promise the numbers pin (DESIGN.md §8–§15).

If a case fails, the named variant moved a simulated number: a cost
leaked, a float expression was reordered or a charge moved.  Recapture
(``python -m repro.goldens NAME``) only when a change intentionally
moves simulated numbers, and say so in the change.
"""

import json

import pytest

from repro.goldens import GOLDEN_DIR, REGISTRY, render

CASES = [pytest.param(golden, variant, id=f"{golden.name}-{variant}")
         for golden in REGISTRY.values() for variant in golden.variants]


def _first_drift(current, reference, path=""):
    """The first field where two parsed states differ, or None."""
    if isinstance(reference, dict) and isinstance(current, dict):
        for key in sorted(set(reference) | set(current)):
            if key not in current or key not in reference:
                side = "missing" if key not in current else "unexpected"
                return f"{path}/{key} ({side})"
            drift = _first_drift(current[key], reference[key],
                                 f"{path}/{key}")
            if drift is not None:
                return drift
        return None
    if current == reference and type(current) is type(reference):
        return None
    return f"{path}: {current!r} != golden {reference!r}"


@pytest.mark.parametrize("golden, variant", CASES)
def test_replay_matches_golden(golden, variant):
    assert golden.path.exists(), (
        f"{golden.file} missing; capture it on a known-good commit with "
        f"`python -m repro.goldens {golden.name}`")
    current = render(golden.run(variant))
    expected = golden.path.read_text()
    if current != expected:
        drift = _first_drift(json.loads(current), json.loads(expected))
        pytest.fail(f"{golden.file} [{variant}] drifted from the golden "
                    f"at {drift or 'the byte level'}")


def test_every_golden_file_has_exactly_one_owner():
    owned = [golden.file for golden in REGISTRY.values()]
    assert len(owned) == len(set(owned)), "two entries share a file"
    on_disk = sorted(path.name for path in GOLDEN_DIR.glob("*.json"))
    assert sorted(owned) == on_disk, (
        "tests/golden/ and the registry disagree: orphaned "
        f"{sorted(set(on_disk) - set(owned))}, missing "
        f"{sorted(set(owned) - set(on_disk))}")
