"""Differential tests: the chunk-local copy-on-write update against the
naive ``Label`` oracle and against the whole-directory algorithm it
replaced (``tests/sparse_update_reference.py``).

The replacement must agree pointwise with the oracle, leave a structurally
sound label (every cached bound recomputable from the entries), and bill
exactly what the reference billed — same ``OpStats``, same chunk runs,
same chunks shared by identity — because those counts drive the simulated
cycle model.
"""

from typing import Dict, List

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import labelops as lo
from repro.core.chunks import CHUNK_CAPACITY, Chunk, ChunkedLabel, OpStats, level_bit
from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L1, L2, L3, STAR, Level
from tests.sparse_update_reference import sparse_update_reference

levels = st.sampled_from(ALL_LEVELS)


def _label_from_runs(runs: List[List[tuple]], default: Level) -> ChunkedLabel:
    return ChunkedLabel(tuple(Chunk(tuple(run)) for run in runs), default)


@st.composite
def multi_chunk_labels(draw):
    """A label of 3–7 chunks, each 1–64 entries (≤ ~400 in all): the
    fragmented shapes repeated updates leave behind, not just the packed
    runs ``from_label`` builds."""
    default = draw(levels)
    others = [lvl for lvl in ALL_LEVELS if lvl != default]
    sizes = draw(st.lists(st.integers(1, CHUNK_CAPACITY), min_size=3, max_size=7))
    while sum(sizes) > 400:
        sizes[sizes.index(max(sizes))] //= 2
    total = sum(sizes)
    gaps = draw(st.lists(st.integers(1, 12), min_size=total, max_size=total))
    # Mostly-⋆ labels are the netd/idd shape; mixed ones cover the rest.
    star_heavy = draw(st.booleans()) and default != STAR
    picks = draw(st.lists(st.integers(0, len(others) - 1), min_size=total, max_size=total))
    handle = draw(st.integers(0, 20))
    entries = []
    for gap, pick in zip(gaps, picks):
        handle += gap
        level = STAR if star_heavy and pick else others[pick]
        entries.append((handle, level))
    runs, pos = [], 0
    for size in sizes:
        runs.append(entries[pos : pos + size])
        pos += size
    return _label_from_runs(runs, default)


# An update is described abstractly and resolved against the label it is
# applied to, so every step of a sequence stays meaningful.
update_ops = st.one_of(
    st.tuples(
        st.just("random"),
        st.lists(st.tuples(st.floats(0, 1.1), levels, st.booleans()), min_size=1, max_size=8),
    ),
    st.tuples(st.just("clear_chunk"), st.integers(0, 10)),
    st.tuples(st.just("mass_delete"), st.integers(2, 8)),
    st.tuples(st.just("bulk_insert"), st.integers(0, 10), st.integers(1, 80), levels),
)


def _resolve(op, label: ChunkedLabel) -> Dict[Handle, Level]:
    entries = list(label.iter_entries())
    top = entries[-1][0] if entries else 0
    kind = op[0]
    if kind == "random":
        updates = {}
        for where, level, existing in op[1]:
            if existing and entries:
                handle = entries[min(int(where * len(entries)), len(entries) - 1)][0]
            else:
                handle = int(where * (top + 10))
            updates[handle] = level
        return updates
    if not label.chunks:
        return {}
    if kind == "clear_chunk":
        chunk = label.chunks[op[1] % len(label.chunks)]
        return {handle: label.default for handle, _ in chunk.entries}
    if kind == "mass_delete":
        # Keep one entry in op[1]: enough deletions to trip the rebalance.
        return {h: label.default for i, (h, _) in enumerate(entries) if i % op[1]}
    # bulk_insert: fresh handles just past one chunk's last entry, enough
    # to overflow it and force a split.
    index = op[1] % len(label.chunks)
    last = label.chunks[index].entries[-1][0]
    level = op[3] if op[3] != label.default else L3 if label.default != L3 else L1
    if index == len(label.chunks) - 1:
        return {last + 1000 + i: level for i in range(op[2])}
    room = label.chunks[index + 1].lo - last - 1
    return {last + 1 + i: level for i in range(min(op[2], room))}


def assert_sound(label: ChunkedLabel) -> None:
    """Every structural invariant, and every cached figure recomputed from
    the entries themselves."""
    entries = [entry for chunk in label.chunks for entry in chunk.entries]
    handles = [h for h, _ in entries]
    assert handles == sorted(set(handles)), "entries unsorted or duplicated"
    assert all(level != label.default for _, level in entries), "default-level entry"
    for chunk in label.chunks:
        assert 1 <= len(chunk.entries) <= CHUNK_CAPACITY
        assert chunk.lo == chunk.entries[0][0]
        chunk_levels = {level for _, level in chunk.entries}
        assert chunk.level_mask == sum(level_bit(lvl) for lvl in chunk_levels)
        assert (chunk.min_level, chunk.max_level) == (min(chunk_levels), max(chunk_levels))
    present = {level for _, level in entries}
    assert label.level_mask == sum(level_bit(lvl) for lvl in present)
    assert len(label) == len(entries)
    assert label.chunk_los() == [chunk.lo for chunk in label.chunks]
    assert label.explicit_min == (min(present) if present else L3)
    assert label.explicit_max == (max(present) if present else STAR)
    assert label.min_level == min(present | {label.default})
    assert label.max_level == max(present | {label.default})


def _provenance(result: ChunkedLabel, source: ChunkedLabel) -> List[int]:
    """For each result chunk, the index of the source chunk it *is*, or -1
    for a freshly allocated one."""
    index = {id(chunk): i for i, chunk in enumerate(source.chunks)}
    return [index.get(id(chunk), -1) for chunk in result.chunks]


def _step(label: ChunkedLabel, oracle: Label, updates: Dict[Handle, Level]):
    stats, ref_stats = OpStats(), OpStats()
    got = lo.sparse_update(label, updates, stats)
    want = sparse_update_reference(label, updates, ref_stats)
    for handle, level in updates.items():
        oracle = oracle.with_entry(handle, level)
    assert got.to_label() == oracle
    probes = set(updates) | {h + 1 for h in updates} | {max(h - 1, 0) for h in updates}
    probes.update(h for h, _ in oracle.entries())
    for handle in probes:
        assert got(handle) == oracle(handle)
    assert_sound(got)
    assert stats == ref_stats
    assert [c.entries for c in got.chunks] == [c.entries for c in want.chunks]
    assert _provenance(got, label) == _provenance(want, label)
    return got, oracle


@given(multi_chunk_labels(), st.lists(update_ops, min_size=1, max_size=5))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sparse_update_matches_oracle_and_reference(label, ops):
    assert_sound(label)
    oracle = label.to_label()
    for op in ops:
        updates = _resolve(op, label)
        label, oracle = _step(label, oracle, updates)


# -- each structural path, pinned by construction ------------------------------------


def _spaced(n: int, start: int = 0, step: int = 10, level: Level = STAR):
    return [(start + i * step, level) for i in range(n)]


def test_overflowing_chunk_splits_evenly():
    runs = [_spaced(40), _spaced(64, 1000), _spaced(40, 5000)]
    label = _label_from_runs(runs, L1)
    got, _ = _step(label, label.to_label(), {1001: STAR, 1003: L2})
    assert [len(c) for c in got.chunks] == [40, 33, 33, 40]
    assert got.chunks[0] is label.chunks[0] and got.chunks[3] is label.chunks[2]


def test_emptied_chunk_disappears():
    runs = [_spaced(30), _spaced(5, 1000, level=L3), _spaced(30, 5000)]
    label = _label_from_runs(runs, L1)
    got, _ = _step(label, label.to_label(), {h: L1 for h, _ in runs[1]})
    assert len(got.chunks) == 2
    # L3 lived only in the emptied chunk: the mask must lose it.
    assert not got.level_mask & level_bit(L3)
    assert got.explicit_max == STAR


def test_fragmented_label_rebalances():
    # Five chunks of 22 (110 entries) sit just above the rebalance
    # threshold of 21 per chunk; six deletions cross it.
    runs = [_spaced(22, 1000 * i) for i in range(5)]
    label = _label_from_runs(runs, L1)
    deletions = {h: L1 for h, _ in runs[2][:6]}
    got, _ = _step(label, label.to_label(), deletions)
    assert [len(c) for c in got.chunks] == [52, 52]


def test_update_below_first_chunk_routes_to_it():
    runs = [_spaced(10, 100), _spaced(10, 1000), _spaced(10, 5000)]
    label = _label_from_runs(runs, L2)
    got, _ = _step(label, label.to_label(), {3: STAR, 4000: L3})
    assert got.chunks[0].lo == 3
