"""Tests for :class:`repro.machine.MachineSpec`, the one machine
descriptor, and for the CLI paths that build through it.

* every field round-trips through JSON and reaches the sweep cache key;
* equal specs build machines that run to the same bytes;
* the crash/fault replica factories honour the machine flags (the
  ``--scheme`` of ``python -m repro crash`` reaches every replica);
* each rewired CLI path runs end to end with ``--json``;
* every ``perf`` target's JSON is the same at ``--jobs 1`` and
  ``--jobs 2``, and its domain columns read the row's measured phase.
"""

import contextlib
import functools
import io
import json
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.crash
import repro.faults
from repro.cli import PERF_TARGETS, main
from repro.config import MEDIA_PRESETS
from repro.errors import InvalidArgumentError
from repro.machine import MachineSpec
from repro.paging.schemes import SCHEME_NAMES
from repro.runner.manifest import SweepPoint
from repro.runner.worker import build_system, system_state
from repro.tenancy import consolidate_config
from repro.tiering import TieringConfig
from repro.topology import PLACEMENTS
from repro.virt import VirtConfig
from repro.workloads import EphemeralConfig, Interface, run_ephemeral

_TIER_CONFIGS = (TieringConfig(),
                 TieringConfig(scan_interval=5e5, hot_touches=1,
                               cold_scans=4))
_TENANCIES = (consolidate_config(1, "apache", requests=4),
              consolidate_config(2, "apache", quotas=True,
                                 antagonist=True, requests=4))
_VIRTS = (VirtConfig(), VirtConfig(nested=True),
          VirtConfig(nested=True, migrate=True, migrate_after=4))


@st.composite
def machine_specs(draw):
    ddr = draw(st.integers(1, 2))
    expanders = draw(st.lists(st.sampled_from(("cxl", "far")),
                              max_size=1))
    tier = draw(st.sampled_from((None, "dram", "pmem", "cxl")))
    # The daemon promotes to DRAM, so a DRAM tier has nothing to gain.
    ktierd = (draw(st.sampled_from((None,) + _TIER_CONFIGS))
              if tier not in (None, "dram") else None)
    return MachineSpec(
        media=draw(st.sampled_from(sorted(MEDIA_PRESETS))),
        device_gib=draw(st.integers(1, 2)),
        aged=draw(st.booleans()),
        fs=draw(st.sampled_from(("ext4", "nova", "xfs"))),
        nodes=("ddr",) * ddr + tuple(expanders),
        placement=draw(st.sampled_from(PLACEMENTS)),
        pin_node=draw(st.integers(0, ddr - 1)),
        scheme=draw(st.sampled_from(SCHEME_NAMES)),
        tier=tier, ktierd=ktierd,
        tenancy=draw(st.sampled_from((None,) + _TENANCIES)),
        virt=draw(st.sampled_from((None,) + _VIRTS)))


def _other(spec: MachineSpec, name: str):
    """A different valid value for one field (None: no valid change)."""
    value = getattr(spec, name)
    if name in ("device_gib", "pin_node"):
        return value + 1
    if name == "aged":
        return not value
    if name == "nodes":
        return value + ("ddr",)
    choices = {
        "media": sorted(MEDIA_PRESETS),
        "fs": ("ext4", "nova", "xfs"),
        "placement": PLACEMENTS,
        "scheme": SCHEME_NAMES,
        # A ktierd spec must keep some tier; a tierless one can't grow
        # a daemon alone.
        "tier": ("far",) if spec.ktierd else (None, "far"),
        "ktierd": (None,) + _TIER_CONFIGS if spec.tier else (),
        "tenancy": (None,) + _TENANCIES,
        "virt": (None,) + _VIRTS,
    }[name]
    return next((c for c in choices if c != value), None)


_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(machine_specs())
def test_spec_round_trips_through_json(spec):
    state = json.loads(json.dumps(spec.to_state()))
    assert MachineSpec.from_state(state) == spec


@_SETTINGS
@given(machine_specs())
def test_every_field_reaches_the_cache_key(spec):
    point = SweepPoint(experiment="ephemeral", series="s", x=1.0,
                       machine=spec)
    key = point.cache_key("fp")
    for f in fields(MachineSpec):
        other = _other(spec, f.name)
        if other is None:
            continue
        twin = replace(point, machine=replace(spec, **{f.name: other}))
        assert twin.cache_key("fp") != key, f.name


@_SETTINGS
@given(machine_specs())
def test_equal_specs_build_the_same_machine(spec):
    def state():
        system = build_system(SweepPoint("ephemeral", "s", 1.0,
                                         machine=spec))
        run = run_ephemeral(system, EphemeralConfig(
            file_size=8 << 10, num_files=4, num_threads=2,
            interface=Interface.MMAP))
        assert system.spec is spec
        return json.dumps(system_state(run, system), sort_keys=True)

    assert state() == state()


def test_one_ddr_node_is_the_single_node_machine():
    default = MachineSpec(device_gib=1).build()
    assert default.topology.num_nodes == 1
    two = MachineSpec(device_gib=1, nodes=("ddr", "ddr")).build()
    assert two.topology.num_nodes == 2


def test_ktierd_needs_a_tier():
    with pytest.raises(InvalidArgumentError, match="tier"):
        MachineSpec(ktierd=TieringConfig())


# -- replica factories honour the machine flags ------------------------------
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize("command", ["crash", "faults"])
def test_replicas_run_the_requested_scheme(monkeypatch, capsys, command,
                                           scheme):
    module = repro.crash if command == "crash" else repro.faults
    name = "run_crash" if command == "crash" else "run_faults"
    real = getattr(module, name)
    seen = []

    def spy(factory, *args, **kwargs):
        def replica():
            system = factory()
            seen.append(system.scheme)
            return system
        return real(replica, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    assert main([command, "--scheme", scheme, "--device", "1",
                 "--max-points", "6", "--max-sites", "6", "--json"]) == 0
    state = json.loads(capsys.readouterr().out)
    assert seen and set(seen) == {scheme}
    if command == "crash":
        assert state["points_explored"] > 0
        assert state["invariant_violations"] == 0
    else:
        assert state["sites_explored"] > 0
        assert state["violations"] == 0


# -- every rewired CLI path, end to end --------------------------------------
_TINY = ["--device", "1", "--ops", "8", "--json"]


@pytest.mark.parametrize("argv", [
    ["crash", "--max-points", "4"],
    ["faults", "--max-sites", "4"],
    ["migrate", "--max-points", "2", "--max-sites", "2"],
], ids=lambda argv: "-".join(argv[:2]))
def test_cli_json_paths_run(capsys, argv):
    assert main(argv + _TINY) == 0
    assert json.loads(capsys.readouterr().out)


# -- perf targets: views over registered sweeps ------------------------------
@functools.lru_cache(maxsize=None)
def _perf_json(target, jobs):
    """``perf <target> --json`` at the CI smoke budget (run once per
    argument pair; both perf tests read it)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["perf", target, "--jobs", str(jobs), "--no-cache"]
                    + _TINY) == 0
    return out.getvalue()


@pytest.mark.parametrize("target", sorted(PERF_TARGETS))
def test_perf_json_jobs_invariant(target):
    serial = _perf_json(target, 1)
    assert _perf_json(target, 2) == serial
    state = json.loads(serial)
    assert state["target"] == target
    assert all(panel["rows"] for panel in state["panels"])


@pytest.mark.parametrize("target", sorted(PERF_TARGETS))
def test_perf_domain_columns_match_row_domains(target):
    """One phase per row: a domain column is the row's own measured
    ``domains`` entry, never a whole-run ledger total."""
    state = json.loads(_perf_json(target, 1))
    checked = 0
    for panel in state["panels"]:
        for row in panel["rows"]:
            for key, value in row.items():
                if key.startswith("domain:"):
                    assert value == row["domains"].get(
                        key[len("domain:"):], 0.0), (key, row["series"])
                    checked += 1
    assert checked
