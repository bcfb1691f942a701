"""Unit and property tests for the chunked kernel label representation
(paper Section 5.6)."""


import pytest
from hypothesis import example, given, strategies as st

from repro.core.chunks import CHUNK_CAPACITY, Chunk, ChunkedLabel, OpStats, shared_memory_bytes
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L1, L2, L3, STAR

levels = st.sampled_from(ALL_LEVELS)
labels = st.builds(
    Label,
    st.dictionaries(st.integers(min_value=0, max_value=300), levels, max_size=40),
    default=levels,
)


def big_label(n: int, level=L3, default=L1) -> Label:
    return Label({i * 7 + 1: level for i in range(n)}, default)


def interleaved_pair(n: int):
    """The join's worst case: no min/max hint applies, so the merge walks
    all 2n entries; half of each side rises to 3, the rest normalises."""
    return (
        Label({i * 2: L3 if i % 2 else L1 for i in range(n)}, L2),
        Label({i * 2 + 1: L1 if i % 2 else L3 for i in range(n)}, L2),
    )


# -- structure -----------------------------------------------------------------


def test_roundtrip():
    lab = Label({1: STAR, 2: L3, 900: L2}, default=L1)
    assert ChunkedLabel.from_label(lab).to_label() == lab


def test_chunking_splits_at_capacity():
    lab = big_label(CHUNK_CAPACITY * 2 + 5)
    cl = ChunkedLabel.from_label(lab)
    assert len(cl.chunks) == 3
    assert all(len(c) <= CHUNK_CAPACITY for c in cl.chunks)
    # Chunks are globally sorted runs.
    flat = [h for h, _ in cl.iter_entries()]
    assert flat == sorted(flat)


def test_chunk_overflow_rejected():
    with pytest.raises(ValueError):
        Chunk(tuple((i, L1) for i in range(CHUNK_CAPACITY + 1)))


def test_lookup_binary_search():
    lab = big_label(500)
    cl = ChunkedLabel.from_label(lab)
    assert cl(1) == L3          # first entry
    assert cl(499 * 7 + 1) == L3  # last entry
    assert cl(2) == L1          # default


def test_min_max_hints_include_default():
    cl = ChunkedLabel.from_label(Label({5: L3}, STAR))
    assert cl.min_level == STAR
    assert cl.max_level == L3
    assert cl.explicit_min == L3


def test_memory_bytes_smallest_label_about_300():
    # "The smallest label is about 300 bytes long, including space for one
    # chunk."
    empty = ChunkedLabel.from_label(Label({}, L1))
    assert 250 <= empty.memory_bytes() <= 350
    small = ChunkedLabel.from_label(Label({1: L3}, L1))
    assert 250 <= small.memory_bytes() <= 350


def test_memory_grows_with_entries():
    small = ChunkedLabel.from_label(big_label(10)).memory_bytes()
    large = ChunkedLabel.from_label(big_label(1000)).memory_bytes()
    assert large > small
    # Roughly 8 bytes per slot.
    assert large >= 1000 * 8


def test_shared_memory_counts_shared_chunks_once():
    base = ChunkedLabel.from_label(big_label(200))
    stats = OpStats()
    # A lub that short-circuits shares every chunk.
    other = ChunkedLabel.from_label(Label({}, STAR))
    merged = base.lub(other, stats)
    assert merged is base
    total_shared = shared_memory_bytes([base, merged])
    assert total_shared < 2 * base.memory_bytes()
    assert total_shared >= base.memory_bytes()


# -- operator equivalence against the reference Label ----------------------------------


@given(labels, labels)
def test_leq_matches_reference(a, b):
    assert ChunkedLabel.from_label(a).leq(ChunkedLabel.from_label(b)) == (a <= b)


@given(labels, labels)
@example(*interleaved_pair(64))
@example(*interleaved_pair(512))
@example(*interleaved_pair(4096))
@example(*interleaved_pair(16384))
def test_lub_matches_reference(a, b):
    got = ChunkedLabel.from_label(a).lub(ChunkedLabel.from_label(b))
    assert got.to_label() == (a | b)


@given(labels, labels)
def test_glb_matches_reference(a, b):
    got = ChunkedLabel.from_label(a).glb(ChunkedLabel.from_label(b))
    assert got.to_label() == (a & b)


@given(labels)
def test_stars_matches_reference(a):
    assert ChunkedLabel.from_label(a).stars().to_label() == a.stars()


# -- the paper's short-circuit -----------------------------------------------------------


def test_lub_short_circuit_returns_operand():
    # "if L2's maximum level is no larger than L1's minimum level, then
    # L1 ⊔ L2 = L1 by definition" — and no memory is allocated.
    big = ChunkedLabel.from_label(big_label(300, level=L2, default=L2))
    low = ChunkedLabel.from_label(Label({7: L1, 9: STAR}, STAR))
    stats = OpStats()
    assert big.lub(low, stats) is big
    assert stats.chunks_allocated == 0
    assert stats.entries_scanned == 0
    # The skip touches no entry at any size.
    bottom = ChunkedLabel.from_label(Label.bottom())
    for size in (64, 512, 4096, 16384):
        big = ChunkedLabel.from_label(big_label(size, level=L2, default=L2))
        stats = OpStats()
        assert big.lub(bottom, stats) is big
        assert stats.entries_scanned == 0


def test_glb_short_circuit_returns_operand():
    big = ChunkedLabel.from_label(big_label(300, level=L1, default=L1))
    high = ChunkedLabel.from_label(Label({7: L3}, L3))
    stats = OpStats()
    assert big.glb(high, stats) is big
    assert stats.chunks_allocated == 0


def test_merge_shares_unchanged_chunks():
    # Updating one handle in a 5-chunk label reuses the untouched chunks.
    from repro.core.labelops import sparse_update

    big = ChunkedLabel.from_label(big_label(CHUNK_CAPACITY * 5))
    stats = OpStats()
    updated = sparse_update(big, {1: STAR}, stats)
    assert updated.to_label() == big.to_label().with_entry(1, STAR)
    assert stats.chunks_shared >= 4
    assert stats.chunks_allocated == 1
    # Inserting one fresh handle into a 16,384-entry label stays chunk-local.
    huge = ChunkedLabel.from_label(big_label(16384))
    stats = OpStats()
    sparse_update(huge, {5: STAR}, stats)
    assert stats.entries_scanned < len(huge) / 10


def test_opstats_merge_and_reset():
    a = OpStats(entries_scanned=3, operations=1)
    b = OpStats(entries_scanned=2, chunks_allocated=5)
    a.merge(b)
    assert a.entries_scanned == 5
    assert a.chunks_allocated == 5
    a.reset()
    assert a.entries_scanned == 0
