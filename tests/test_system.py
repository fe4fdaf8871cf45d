"""System facade tests: wiring, processes, power cycling basics."""

import pytest

from repro.errors import InvalidArgumentError
from repro.fs.ext4 import Ext4Dax
from repro.fs.nova import Nova
from repro.system import System


def test_fs_type_selection():
    assert isinstance(System(device_bytes=1 << 30).fs, Ext4Dax)
    assert isinstance(System(device_bytes=1 << 30, fs_type="nova").fs,
                      Nova)
    with pytest.raises(InvalidArgumentError):
        System(device_bytes=1 << 30, fs_type="btrfs")


def test_device_frames_live_in_pmem_range():
    system = System(device_bytes=1 << 30)
    frame = system.device.frame_of(0)
    assert system.physmem.medium_of(frame).value == "pmem"


def test_processes_have_independent_address_spaces():
    system = System(device_bytes=1 << 30)
    a = system.new_process()
    b = system.new_process()
    assert a.mm is not b.mm
    assert a.mm.mmap_sem is not b.mm.mmap_sem
    assert a.name != b.name


def test_filetable_manager_is_shared_across_processes():
    system = System(device_bytes=1 << 30)
    a = system.new_process()
    b = system.new_process()
    dax_a = system.daxvm_for(a)
    dax_b = system.daxvm_for(b)
    assert dax_a.filetables is dax_b.filetables
    # But the per-process machinery is private.
    assert dax_a.ephemeral is not dax_b.ephemeral
    assert dax_a.unmapper is not dax_b.unmapper


def test_spawn_registers_core_in_cpumask():
    system = System(device_bytes=1 << 30)
    proc = system.new_process()

    def idle():
        from repro.sim.engine import Compute
        yield Compute(1)

    system.spawn(idle(), core=3, process=proc)
    system.run()
    assert 3 in proc.mm.active_cores


def test_seconds_conversion():
    system = System(device_bytes=1 << 30)
    assert system.seconds(2.7e9) == pytest.approx(1.0)


def test_shared_bandwidth_is_wired():
    system = System(device_bytes=1 << 30)
    assert system.mem.pool(0) is not None
    assert system.fs.engine is system.engine


def test_power_cycle_resets_engine_and_caches():
    system = System(device_bytes=1 << 30)
    proc = system.new_process()

    def flow():
        from repro.sim.engine import Compute
        f = yield from system.fs.open("/x", create=True)
        yield from system.fs.write(f, 0, 4096)
        yield Compute(1000)

    system.spawn(flow(), core=0, process=proc)
    system.run()
    assert system.engine.now > 0
    old_engine = system.engine
    system.power_cycle()
    assert system.engine is not old_engine
    assert system.engine.now == 0.0
    assert len(system.vfs.inode_cache) == 0
    # Storage persisted.
    assert "/x" in system.vfs
    assert system.vfs.lookup("/x").block_count == 1


def test_power_cycle_without_filetables_returns_none():
    system = System(device_bytes=1 << 30)
    assert system.power_cycle() is None
