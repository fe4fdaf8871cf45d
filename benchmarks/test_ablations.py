"""§V-C ablations: unmap batching level, pre-zero throttle, table
migration."""

from conftest import AGED, once

from repro.machine import MachineSpec
from repro.workloads import (
    ApacheConfig,
    DaxVMOptions,
    Interface,
    KVConfig,
    ServerInterface,
    YCSBConfig,
    run_apache,
    run_ycsb,
)


def test_batch_level_ablation(benchmark):
    """§V-C: raising the zombie batch from 33 to 512 pages buys up to
    ~20 % — at the price of a longer vulnerability window."""

    def run_with(batch):
        system = AGED.build()
        cfg = ApacheConfig(num_workers=16, requests=2400,
                           interface=ServerInterface.DAXVM,
                           daxvm=DaxVMOptions.full(), batch_pages=batch)
        return run_apache(system, cfg).ops_per_second

    def experiment():
        return {batch: run_with(batch) for batch in (8, 33, 128, 512)}

    out = once(benchmark, experiment)
    print("Unmap batch-level ablation (Apache, 16 cores, Kreq/s):",
          {k: round(v / 1e3, 1) for k, v in out.items()})
    gain = out[512] / out[33]
    print(f"  33 -> 512 pages: {gain:.2f}x (paper: ~1.20x)")
    assert 1.02 < gain < 1.45
    # More batching is monotonically (weakly) better here.
    assert out[33] >= out[8] * 0.95
    assert out[512] >= out[128] * 0.98


def test_prezero_throttle_interference(benchmark):
    """§V-C: concurrent pre-zeroing at a 64 MB/s throttle costs the
    foreground ~5-10 %."""

    def run_load(concurrent_zeroing):
        system = MachineSpec(device_gib=6, aged=True).build()
        kv = KVConfig(interface=Interface.DAXVM,
                      daxvm=DaxVMOptions(ephemeral=False,
                                         unmap_async=False,
                                         nosync=True))
        cfg = YCSBConfig(workload="load_a", num_ops=8000,
                         preload_records=0, kv=kv, prezero=True)
        if concurrent_zeroing:
            # Feed the daemon a junk file and run it during the load.
            proc = system.new_process("junk")
            dax = system.daxvm_for(proc)
            dax.prezero.prezero_all_free()

            def junk():
                f = yield from system.fs.open("/junk", create=True)
                yield from system.fs.write(f, 0, 256 << 20)
                yield from system.fs.close(f)
                yield from system.fs.unlink("/junk")

            system.spawn(junk(), core=15, process=proc)
            system.run()
            dax.prezero.start(core=15)
        return run_ycsb(system, cfg).ops_per_second

    def experiment():
        return run_load(False), run_load(True)

    quiet, contended = once(benchmark, experiment)
    slowdown = 1 - contended / quiet
    print(f"Pre-zero throttle interference: {slowdown:.1%} "
          f"(paper: ~5-10%)")
    assert -0.02 < slowdown < 0.20


def test_filetable_policy_ablation(benchmark):
    """§IV-A1 policy: volatile-below-32 KB vs all-volatile vs
    all-persistent.  All-volatile costs cold-open rebuild work and
    DRAM; all-persistent costs construction flushes and PMem walks;
    the 32 KB split takes the best of both."""

    from repro.workloads import EphemeralConfig, Interface, run_ephemeral

    def run_policy(volatile_max):
        system = AGED.build()
        system.costs = system.costs.replace(
            filetable_volatile_max=volatile_max)
        system.fs.costs = system.costs
        cfg = EphemeralConfig(file_size=32 << 10, num_files=800,
                              interface=Interface.DAXVM)
        result = run_ephemeral(system, cfg)
        report = system.filetables.storage_report(
            [system.vfs.lookup(p) for p in system.vfs.paths()])
        return result.ops_per_second, report

    def experiment():
        return {
            "all-persistent": run_policy(0),
            "paper (32KB)": run_policy(32 << 10),
            "all-volatile": run_policy(1 << 30),
        }

    out = once(benchmark, experiment)
    print("File-table placement policy (32KB read-once files):")
    for name, (ops, report) in out.items():
        print(f"  {name:<16} {ops / 1e3:7.1f} Kops/s  "
              f"PMem {report['pmem_bytes'] >> 10} KB  "
              f"DRAM {report['dram_bytes'] >> 10} KB")
    # All-persistent puts every table in PMem; all-volatile in DRAM.
    assert out["all-persistent"][1]["dram_bytes"] == 0
    assert out["all-volatile"][1]["pmem_bytes"] == 0
    # The paper's threshold performs within a few % of the best.
    best = max(v[0] for v in out.values())
    assert out["paper (32KB)"][0] > 0.93 * best


def test_migration_ablation(benchmark):
    """§V-B: monitor-driven table migration ~10 % on irregular access
    (also asserted in the Fig. 5 bench; here against a larger file)."""

    from repro.paging.tlb import AccessPattern
    from repro.workloads import RepetitiveConfig, run_repetitive

    def run_with(monitor_every):
        system = AGED.build()
        cfg = RepetitiveConfig(
            file_size=128 << 20, op_size=4096, num_ops=32768,
            pattern=AccessPattern.RANDOM, interface=Interface.DAXVM,
            monitor_every=monitor_every,
            daxvm=DaxVMOptions(ephemeral=False, unmap_async=False,
                               nosync=True))
        return run_repetitive(system, cfg)

    def experiment():
        return run_with(0), run_with(4096)

    without, with_mon = once(benchmark, experiment)
    gain = with_mon.ops_per_second / without.ops_per_second
    migrations = with_mon.counters.get("daxvm.table_migrations", 0)
    print(f"Migration ablation: {gain:.2f}x with {migrations:.0f} "
          f"migration(s) (paper: ~1.10x)")
    assert migrations >= 1
    assert 1.03 < gain < 1.35
