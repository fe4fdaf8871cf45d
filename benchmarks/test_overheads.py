"""§V-B DaxVM overhead measurements: storage tax, construction latency,
plus §III's motivating measurements (msync fault blow-up, zeroing
share)."""

from conftest import once

from repro.machine import MachineSpec
from repro.vm.vma import MapFlags, Protection
from repro.workloads import (
    AppendConfig,
    AppendVariant,
    create_files,
    linux_tree_sizes,
    run_append,
)


def test_storage_overheads(benchmark):
    """§V-B: ~4 KB of table per 2 MB of data (0.2 %); for the 891 MB
    Linux tree of 68 K small files, 25 MB of PMem + up to 216 MB of
    DRAM (scaled here)."""

    def experiment():
        system = MachineSpec(device_gib=4).build()
        manager = system.filetables
        # A Linux-tree-like set, scaled to 128 MB.
        sizes = linux_tree_sizes(1200, total_bytes=128 << 20)
        inodes = create_files(system, sizes)
        report = manager.storage_report(inodes)
        big = create_files(system, [64 << 20], prefix="/big")
        big_report = manager.storage_report(big)
        return sum(sizes), report, big_report

    total, report, big_report = once(benchmark, experiment)
    pmem_tax = report["pmem_bytes"] / total
    dram_tax = report["dram_bytes"] / total
    big_tax = big_report["pmem_bytes"] / (64 << 20)
    print(f"Storage tax over {total >> 20} MB tree: "
          f"PMem {report['pmem_bytes'] >> 10} KB ({pmem_tax:.2%}), "
          f"DRAM {report['dram_bytes'] >> 10} KB ({dram_tax:.2%}); "
          f"64MB file: {big_report['pmem_bytes'] >> 10} KB "
          f"({big_tax:.3%}, paper ~0.2% ceiling)")
    # Small-file-dominated tree: a few percent of tax at most, split
    # between DRAM (small files) and PMem (large files).
    assert pmem_tax + dram_tax < 0.12
    assert report["dram_bytes"] > 0
    assert report["pmem_bytes"] > 0
    # A large fresh file is huge-page covered: PMD nodes only, well
    # under the 0.2 % 4K-PTE ceiling.
    assert big_tax < 0.002


def test_append_latency_overhead(benchmark):
    """§V-B: persistent file-table construction penalises appends by
    at most ~10 % (32 KB appends), amortised away by 256 KB."""

    def experiment():
        def cost(size, tables):
            system = MachineSpec(device_gib=4).build()
            if tables:
                system.filetables  # attach the manager's hooks
            cfg = AppendConfig(append_size=size, num_appends=60,
                               variant=AppendVariant.WRITE)
            return run_append(system, cfg).latency_us

        out = {}
        for size in (32 << 10, 64 << 10, 256 << 10, 1 << 20):
            out[size] = cost(size, True) / cost(size, False)
        return out

    out = once(benchmark, experiment)
    print("Append latency with/without file-table maintenance:")
    for size, ratio in out.items():
        print(f"  {size >> 10:>5} KB: {ratio:.3f}x")
    # Worst case ~10 % at 32 KB, declining with size.
    assert out[32 << 10] < 1.18
    assert out[1 << 20] < out[32 << 10]
    assert out[1 << 20] < 1.06


def test_msync_fault_blowup(benchmark):
    """§III-A4: one msync per 10 writes ~ 2.8x more faults."""

    def experiment():
        system = MachineSpec(device_gib=2).build()
        system.fs.allow_huge = False
        proc = system.new_process()

        def make():
            f = yield from system.fs.open("/blow", create=True)
            yield from system.fs.write(f, 0, 16 << 20)
            return f.inode

        thread = system.spawn(make(), core=0)
        system.run()
        inode = thread.result

        def flow(sync_every, out):
            vma = yield from proc.mm.mmap(
                system.fs, inode, 0, 16 << 20, Protection.rw(),
                MapFlags.SHARED)
            before = system.stats.get("vm.faults")
            # Random-ish 1 KB writes revisiting a window, as in the
            # paper's 10 GB experiment.
            for i in range(2000):
                offset = ((i * 179) % 400) * 4096
                yield from proc.mm.access(vma, offset, 1024, write=True)
                if sync_every and (i + 1) % sync_every == 0:
                    yield from proc.mm.msync(vma)
            out.append(system.stats.get("vm.faults") - before)
            yield from proc.mm.munmap(vma)

        counts = []
        for sync_every in (0, 10):
            system.spawn(flow(sync_every, counts), core=0, process=proc)
            system.run()
        return counts

    no_sync, with_sync = once(benchmark, experiment)
    ratio = with_sync / no_sync
    print(f"msync fault blow-up: {no_sync:.0f} -> {with_sync:.0f} "
          f"faults = {ratio:.2f}x (paper: ~2.8x)")
    assert 1.8 < ratio < 4.5


def test_zeroing_share_of_append(benchmark):
    """§III-B: ~30-40 % of MM append latency is block zeroing,
    roughly independent of append size."""

    def experiment():
        shares = {}
        for size in (64 << 10, 512 << 10, 2 << 20):
            base = run_append(
                MachineSpec(device_gib=4).build(),
                AppendConfig(append_size=size, num_appends=30,
                             variant=AppendVariant.DAXVM)).latency_us
            nozero = run_append(
                MachineSpec(device_gib=4).build(),
                AppendConfig(append_size=size, num_appends=30,
                             variant=AppendVariant.DAXVM_PREZERO)
            ).latency_us
            shares[size] = 1 - nozero / base
        return shares

    shares = once(benchmark, experiment)
    print("Zeroing share of MM append latency:",
          {f"{k >> 10}KB": f"{v:.0%}" for k, v in shares.items()})
    for share in shares.values():
        assert 0.25 < share < 0.55
