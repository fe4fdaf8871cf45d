"""Extent tree tests: append/merge/truncate/lookup/huge geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.fs.block import BLOCKS_PER_PMD
from repro.fs.extent import Extent, ExtentTree


def test_extent_basics():
    e = Extent(0, 100, 10)
    assert e.logical_end == 10
    assert e.physical_for(3) == 103
    with pytest.raises(InvalidArgumentError):
        e.physical_for(10)
    with pytest.raises(InvalidArgumentError):
        Extent(0, 0, 0)


def test_append_dense_and_merge():
    tree = ExtentTree()
    tree.append(100, 5)
    tree.append(105, 5)  # physically contiguous -> merges
    assert len(tree) == 1
    assert tree.block_count == 10
    tree.append(500, 3)  # discontiguous -> new extent
    assert len(tree) == 2
    tree.check_invariants()


def test_lookup():
    tree = ExtentTree()
    tree.append(100, 10)
    tree.append(500, 10)
    assert tree.physical_block(0) == 100
    assert tree.physical_block(9) == 109
    assert tree.physical_block(10) == 500
    assert tree.physical_block(25) is None
    assert tree.find(12).physical == 500


def test_truncate_returns_freed_runs():
    tree = ExtentTree()
    tree.append(100, 10)
    tree.append(500, 10)
    freed = tree.truncate_to(15)
    assert freed == [(505, 5)]
    assert tree.block_count == 15
    freed = tree.truncate_to(0)
    assert sorted(freed) == [(100, 10), (500, 5)]
    assert tree.block_count == 0
    tree.check_invariants()


def test_pmd_capable_requires_double_alignment():
    tree = ExtentTree()
    # Physically aligned, covers a full region.
    tree.append(BLOCKS_PER_PMD * 4, BLOCKS_PER_PMD)
    assert tree.pmd_capable(0)

    misaligned = ExtentTree()
    misaligned.append(BLOCKS_PER_PMD * 4 + 1, BLOCKS_PER_PMD)
    assert not misaligned.pmd_capable(0)

    short = ExtentTree()
    short.append(BLOCKS_PER_PMD * 4, BLOCKS_PER_PMD - 1)
    assert not short.pmd_capable(0)


def test_huge_coverage_fraction():
    tree = ExtentTree()
    tree.append(0, BLOCKS_PER_PMD)          # aligned region
    tree.append(BLOCKS_PER_PMD * 3 + 7, BLOCKS_PER_PMD)  # misaligned
    assert tree.huge_coverage() == pytest.approx(0.5)
    assert ExtentTree().huge_coverage() == 0.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 600)),
                min_size=1, max_size=30))
def test_property_append_truncate_roundtrip(appends):
    """Appends keep logical density; truncate frees exactly the tail."""
    tree = ExtentTree()
    total = 0
    for phys, length in appends:
        tree.append(phys, length)
        total += length
        tree.check_invariants()
    assert tree.block_count == total
    keep = total // 2
    freed = tree.truncate_to(keep)
    assert sum(l for _p, l in freed) == total - keep
    assert tree.block_count == keep
    tree.check_invariants()


def _reference_truncate(runs, nblocks):
    """The original quadratic ``truncate_to`` loop, over a list of
    ``[physical, length]`` runs: re-sums the whole file per step."""
    runs = [list(run) for run in runs]
    freed = []
    while runs and sum(length for _p, length in runs) > nblocks:
        tail = runs[-1]
        excess = sum(length for _p, length in runs) - nblocks
        if tail[1] <= excess:
            freed.append((tail[0], tail[1]))
            runs.pop()
        else:
            keep = tail[1] - excess
            freed.append((tail[0] + keep, excess))
            tail[1] = keep
    return freed, [tuple(run) for run in runs]


_EXTENT_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 10_000),
              st.integers(1, 600)),
    st.tuples(st.just("replace"), st.integers(0, 1 << 20),
              st.integers(20_000, 30_000)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20)),
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_EXTENT_OPS)
def test_property_append_replace_truncate(ops):
    """Mixed appends, single-block remaps and truncates keep the tree
    dense; ``block_count`` (the tail's end) equals the summed lengths;
    every appended block is either kept or freed exactly once; and
    ``truncate_to`` frees the same runs, in the same order, as the
    original loop."""
    tree = ExtentTree()
    appended = freed_total = 0
    for op in ops:
        if op[0] == "append":
            tree.append(op[1], op[2])
            appended += op[2]
        elif op[0] == "replace":
            if tree.block_count == 0:
                continue
            block = op[1] % tree.block_count
            expected = tree.physical_block(block)
            assert tree.replace_block(block, op[2]) == expected
            assert tree.physical_block(block) == op[2]
        else:
            # Targets from -1 (frees everything) to one past the end
            # (frees nothing).
            before = tree.block_count
            nblocks = op[1] % (before + 3) - 1
            want_freed, want_runs = _reference_truncate(
                [(e.physical, e.length) for e in tree], nblocks)
            freed = tree.truncate_to(nblocks)
            assert freed == want_freed
            assert [(e.physical, e.length) for e in tree] == want_runs
            assert tree.block_count == min(max(nblocks, 0), before)
            freed_total += sum(length for _p, length in freed)
        tree.check_invariants()
        assert tree.block_count == sum(e.length for e in tree)
        assert freed_total + tree.block_count == appended

