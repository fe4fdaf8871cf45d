"""Figure 8: Apache webserver on PMem-resident static pages.

(a) Scalability 1-16 cores, 32 KB pages, with DaxVM's optimisations
added incrementally (file tables -> +ephemeral heap -> +async unmap)
and the LATR comparison.  (b) Relative throughput vs page size at 16
cores, where read()'s extra copy grows with the page.
"""

from conftest import AGED, once, sweep_runs

from repro.analysis.results import Series
from repro.analysis.report import format_series
from repro.runner.sweeps import APACHE_BARS

REQUESTS = 2400


def test_fig8a_scalability(benchmark):
    def experiment():
        runs = sweep_runs("apache-scaling", ops=REQUESTS, base=AGED,
                          keep=lambda point: "+procs" not in point.series)
        series = {name: Series(name) for name, _i, _o in APACHE_BARS}
        for (name, cores), pr in runs.items():
            series[name].add(cores, pr.run.ops_per_second / 1e3)
        return series

    series = once(benchmark, experiment)
    print(format_series("Fig 8a: Apache throughput (Kreq/s), 32KB pages",
                        series.values(), x_label="cores"))

    at16 = {name: s.y_at(16) for name, s in series.items()}
    # Baseline MM stops scaling around 4-8 cores and declines; read
    # keeps scaling.
    assert at16["mmap"] < max(series["mmap"].ys())
    assert at16["mmap"] < 1.45 * series["mmap"].y_at(4)
    assert at16["read"] > 10 * series["read"].y_at(1)
    # Paging limits MM: file tables alone already help massively.
    assert at16["dax-tables"] > 2 * at16["populate"]
    # Ephemeral allocation extends scaling further.
    assert at16["dax+eph"] > 1.1 * at16["dax-tables"]
    # Async unmapping adds on top of ephemeral.
    assert at16["dax+eph+async"] >= at16["dax+eph"]
    # LATR helps the baseline but loses to DaxVM's async unmapping
    # (paper: by ~12 %) and to full DaxVM by a lot.
    assert at16["latr"] > at16["populate"]
    assert at16["mmap+async"] > 1.05 * at16["latr"]
    assert at16["dax+eph+async"] > 2 * at16["latr"]
    # Headline: DaxVM ~4-5x over baseline MM, at/above read.
    assert at16["dax+eph+async"] > 3.5 * at16["mmap"]
    assert at16["dax+eph+async"] > 0.95 * at16["read"]


def test_fig8b_webpage_size(benchmark):
    """At 16 cores, MM's zero-copy advantage grows with page size."""
    sizes = [4 << 10, 16 << 10, 32 << 10, 64 << 10]

    def experiment():
        runs = sweep_runs("apache-pages", ops=REQUESTS, base=AGED)
        rel = {"mmap": Series("mmap"), "daxvm": Series("daxvm")}
        for size in sizes:
            kb = size >> 10
            read = runs[("read", kb)].run.ops_per_second
            for name, series in rel.items():
                series.add(kb, runs[(name, kb)].run.ops_per_second / read)
        return rel

    rel = once(benchmark, experiment)
    print(format_series(
        "Fig 8b: Apache throughput relative to read, 16 cores",
        rel.values(), x_label="page KB"))

    daxvm = rel["daxvm"]
    # DaxVM at or above read for all sizes, advantage growing with
    # page size as read's extra copy grows (paper: up to ~50 %) until
    # the PMem device bandwidth ceiling pins both interfaces.
    assert daxvm.y_at(32) > daxvm.y_at(4)
    assert max(daxvm.ys()) > 1.05
    assert min(daxvm.ys()) > 0.95
    # Baseline mmap stays below read at every size (lock collapse).
    assert max(rel["mmap"].ys()) < 1.0


def test_fig8a_multiprocess_discussion(benchmark):
    """§V-C: single-thread processes relieve VM-lock contention for
    the baseline, but DaxVM wins in both configurations."""

    def experiment():
        runs = sweep_runs("apache-scaling", ops=REQUESTS, base=AGED,
                          keep=lambda point: point.x == 8 and point.series
                          in ("mmap", "mmap+procs", "daxvm+procs", "read"))
        return tuple(runs[(series, 8)].run.ops_per_second
                     for series in ("mmap", "mmap+procs", "daxvm+procs",
                                    "read"))

    mmap_mt, mmap_mp, dax_mp, read = once(benchmark, experiment)
    print(f"Apache 8 workers: mmap(threads)={mmap_mt/1e3:.0f}K "
          f"mmap(procs)={mmap_mp/1e3:.0f}K daxvm(procs)={dax_mp/1e3:.0f}K "
          f"read={read/1e3:.0f}K req/s")
    # Multi-processing helps the baseline (no shared mmap_sem)...
    assert mmap_mp > 1.3 * mmap_mt
    # ...to at best read-level performance, while DaxVM leads.
    assert mmap_mp < 1.1 * read
    assert dax_mp > mmap_mp
