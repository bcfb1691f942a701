"""The copy-on-write label update as it stood before the chunk-local
rewrite of :func:`repro.core.labelops.sparse_update`, kept verbatim as a
test-only reference.

It walks and rebuilds the whole chunk directory on every call.  The
differential tests require the live update to produce the same chunk
runs, the same chunk sharing and the same :class:`OpStats` bill, because
those counts feed the simulated cycle model behind Figures 7 and 9.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.chunks import CHUNK_CAPACITY, Chunk, ChunkedLabel, OpStats
from repro.core.handles import Handle
from repro.core.levels import Level


def _balanced_runs(
    entries: Sequence[Tuple[Handle, Level]]
) -> List[Tuple[Tuple[Handle, Level], ...]]:
    """Split *entries* into the minimum number of chunk runs, sized evenly."""
    entries = tuple(entries)
    if not entries:
        return []
    n_chunks = -(-len(entries) // CHUNK_CAPACITY)
    base = len(entries) // n_chunks
    extra = len(entries) % n_chunks
    runs: List[Tuple[Tuple[Handle, Level], ...]] = []
    pos = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        runs.append(entries[pos : pos + size])
        pos += size
    return runs


def sparse_update_reference(
    label: ChunkedLabel,
    updates: Dict[Handle, Level],
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Return *label* with ``label(h) = level`` for each update, rewriting
    only the chunks that contain touched handles and sharing the rest.

    The label's default is unchanged; updates equal to the default are
    normalised away (entry removed).
    """
    if not updates:
        return label
    if not label.chunks:
        entries = {h: lvl for h, lvl in updates.items() if lvl != label.default}
        return _from_entries(entries, label.default, stats, reuse=())

    # Route each updated handle to a chunk index: the chunk whose range
    # contains it, else the nearest chunk to its insertion point.
    los = [chunk.lo for chunk in label.chunks]
    per_chunk: Dict[int, Dict[Handle, Level]] = {}
    for handle, level in updates.items():
        idx = bisect_right(los, handle) - 1
        if idx < 0:
            idx = 0
        per_chunk.setdefault(idx, {})[handle] = level

    new_chunks: List[Chunk] = []
    for idx, chunk in enumerate(label.chunks):
        todo = per_chunk.get(idx)
        if todo is None:
            new_chunks.append(chunk)
            if stats is not None:
                stats.chunks_shared += 1
            continue
        merged: List[Tuple[Handle, Level]] = []
        existing = {h: lvl for h, lvl in chunk.entries}
        if stats is not None:
            stats.entries_scanned += len(chunk.entries)
        existing.update(todo)
        for handle in sorted(existing):
            level = existing[handle]
            if level != label.default:
                merged.append((handle, level))
        # Re-chunk this run.  Overflowing runs split *evenly* — a [64, 1]
        # split would leave a near-empty chunk owning half the handle
        # range, and repeated inserts then fragment the label (B-tree
        # median splits, same reason).
        for run in _balanced_runs(merged):
            if run == chunk.entries:
                new_chunks.append(chunk)
                if stats is not None:
                    stats.chunks_shared += 1
            else:
                new_chunks.append(Chunk(run))
                if stats is not None:
                    stats.chunks_allocated += 1
    if stats is not None:
        stats.labels_allocated += 1
    kept = [c for c in new_chunks if len(c)]
    total = sum(len(c) for c in kept)
    if len(kept) > 3 and total < len(kept) * (CHUNK_CAPACITY // 3):
        # Deletions (capability releases) have fragmented the label;
        # rebalance it wholesale.
        entries = []
        for chunk in kept:
            entries.extend(chunk.entries)
        kept = [Chunk(run) for run in _balanced_runs(entries)]
        if stats is not None:
            stats.chunks_allocated += len(kept)
            stats.entries_scanned += total
    return ChunkedLabel(kept, label.default)


def _from_entries(
    entries: Dict[Handle, Level],
    default: Level,
    stats: Optional[OpStats],
    reuse: Tuple[ChunkedLabel, ...] = (),
) -> ChunkedLabel:
    """Build a chunked label from an entries dict, sharing any chunk from
    *reuse* whose run is reproduced verbatim."""
    pool: Dict[Tuple[Tuple[Handle, Level], ...], Chunk] = {}
    for source in reuse:
        for chunk in source.chunks:
            pool.setdefault(chunk.entries, chunk)
    normalised = tuple(
        (h, entries[h]) for h in sorted(entries) if entries[h] != default
    )
    chunks: List[Chunk] = []
    for i in range(0, len(normalised), CHUNK_CAPACITY):
        run = normalised[i : i + CHUNK_CAPACITY]
        shared = pool.get(run)
        if shared is not None:
            chunks.append(shared)
            if stats is not None:
                stats.chunks_shared += 1
        else:
            chunks.append(Chunk(run))
            if stats is not None:
                stats.chunks_allocated += 1
    if stats is not None:
        stats.labels_allocated += 1
    return ChunkedLabel(chunks, default)
