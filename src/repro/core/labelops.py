"""Fused, sparsity-aware kernel label operations.

A series of label operations accompanies every IPC (Section 5.6), and in a
loaded server some of the labels involved are huge — netd's receive label
accumulates one taint-handle entry per user, idd's send label two.  The
naive operators in :mod:`repro.core.chunks` are linear in the *total* size
of their inputs; these fused operations exploit the structure of the
Figure 4 rules so the common case touches only the *small* labels, using:

- **level masks**: each label knows the set of levels occurring among its
  explicit entries, so "would this pointwise function change any entry?"
  is answerable in O(1);
- **chunk-granular copy-on-write**: an update that touches k handles
  rewrites only the chunks containing them and shares the rest, exactly
  the sharing design the paper describes.

The three entry points mirror Figure 4:

- :func:`check_send` — requirement (1): ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR``,
  evaluated pointwise without materialising the right-hand side.
- :func:`apply_send_effects` — ``QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*)``.
- :func:`raise_receive` — ``QR ← QR ⊔ DR``.

All are exact: a slow full-merge fallback handles every case the sparse
fast path cannot prove safe, and the property-based test suite checks the
fused results against the naive operators on random labels.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.chunks import (
    CHUNK_CAPACITY,
    Chunk,
    ChunkedLabel,
    OpStats,
    level_bit,
)
from repro.core.handles import Handle
from repro.core.labels import Label
from repro.core.levels import ALL_LEVELS, L3, STAR, Level


def _effect(q: Level, e: Level, d: Level) -> Level:
    """Figure 4's send-label effect at one handle,
    ``max(min(q, d), min(e, q*))``: a ``*`` entry is immune to
    contamination and nothing lies below it; otherwise ``q* = 3`` and the
    effect is ``max(min(q, d), e)``."""
    return STAR if q == STAR else max(min(q, d), e)


def _identity_mask(e: Level, d: Level) -> int:
    """Levels q on which the effect is the identity both for ES level *e*
    and for an explicit ES ``*`` (which reduces the effect to min(q, d))."""
    mask = 0
    for q in ALL_LEVELS:
        if _effect(q, e, d) == q and min(q, d) == q:
            mask |= level_bit(q)
    return mask


#: ``_IDENTITY[e][d]``: :func:`_identity_mask` for every pair of ES and DS
#: default levels.
_IDENTITY: Dict[Level, Dict[Level, int]] = {
    e: {d: _identity_mask(e, d) for d in ALL_LEVELS} for e in ALL_LEVELS
}


def _explicit_handles(*labels: ChunkedLabel) -> List[Handle]:
    """Sorted union of the labels' explicit handles."""
    handles = set()
    for label in labels:
        for handle, _ in label.iter_entries():
            handles.add(handle)
    return sorted(handles)


# -- requirement (1): the delivery check ------------------------------------------


def check_send(
    es: ChunkedLabel,
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    v: ChunkedLabel,
    pr: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> bool:
    """Evaluate ``ES ⊑ (QR ⊔ DR) ⊓ V ⊓ pR`` pointwise.

    ``QR`` may be huge (netd's accumulated decontaminations); ``ES``,
    ``DR``, ``V`` and ``pR`` are small in practice.  The QR-only handles
    are covered by a bound test on QR's explicit minimum; only when that
    test is inconclusive do we scan QR.
    """
    if stats is not None:
        stats.operations += 1
    scanned = 0

    # ES entries at * can never violate the check (⋆ is the global
    # minimum), so only its non-star entries need inspection — privileged
    # senders like netd carry one * per user and would otherwise make this
    # loop O(users).
    small = {h for h, _ in es.nonstar_entries()}
    for label in (dr, v, pr):
        for chunk in label.chunks:
            small.update([h for h, _ in chunk.entries])
    for handle in sorted(small):
        scanned += 1
        if es(handle) > min(max(qr(handle), dr(handle)), v(handle), pr(handle)):
            if stats is not None:
                stats.entries_scanned += scanned
            return False

    # Default-vs-default (handles explicit nowhere).
    if es.default > min(max(qr.default, dr.default), v.default, pr.default):
        if stats is not None:
            stats.entries_scanned += scanned
        return False

    # Handles explicit only in QR: need
    #   es.default <= min(max(qr(h), dr.default), v.default, pr.default).
    bound = min(v.default, pr.default)
    if es.default <= bound and (
        es.default <= dr.default or es.default <= qr.explicit_min
    ):
        if stats is not None:
            stats.entries_scanned += scanned
            stats.chunks_skipped += len(qr.chunks)
            stats.fast_path += 1
        return True

    if stats is not None:
        stats.full_merges += 1
    for handle, level in qr.iter_entries():
        if handle in small:
            continue
        scanned += 1
        # es(handle) rather than es.default: the handle may be explicit in
        # ES at * (skipped above precisely because * always passes).
        if es(handle) > min(max(level, dr.default), bound):
            if stats is not None:
                stats.entries_scanned += scanned
            return False
    if stats is not None:
        stats.entries_scanned += scanned
    return True


# -- contamination / decontamination effects ------------------------------------------


def apply_send_effects(
    qs: ChunkedLabel,
    es: ChunkedLabel,
    ds: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Compute ``(QS ⊓ DS) ⊔ (ES ⊓ QS*)`` — Figure 4's send-label effect.

    Pointwise this is ``f(qs(h), es(h), ds(h))`` with::

        f(q, e, d) = max(min(q, d), min(e, * if q == * else 3))

    i.e. contaminate with ES and grant DS, but a receiver's ``*`` entries
    are immune to contamination.  The fast path applies when the function
    is the identity on every level actually present in QS (checked exactly
    via the level mask) for the *default* levels of ES and DS — then only
    the handles explicit in ES or DS can change, and QS's chunks are
    rewritten copy-on-write at exactly those handles.
    """
    if stats is not None:
        stats.operations += 1
    # f must be the identity on every level present in QS (its default
    # included, so the default cannot move) both for ES's default and for
    # an explicit ES * (skipped-entry) value — the latter matters when
    # DS's default grants below 3.
    fast = not (
        (qs.level_mask | level_bit(qs.default)) & ~_IDENTITY[es.default][ds.default]
    )
    if stats is not None:
        if fast:
            stats.fast_path += 1
        else:
            stats.full_merges += 1
    if fast:
        # Only non-star ES entries and explicit DS entries can change the
        # receiver: an ES entry at * contributes min(*, ·) = *, which the
        # ⊔ absorbs (the fast-path precondition already guarantees the
        # identity at every level present in QS, and at QS's default for
        # handles QS leaves implicit).
        touched = {h for h, _ in es.nonstar_entries()}
        for chunk in ds.chunks:
            touched.update([h for h, _ in chunk.entries])
        if stats is not None:
            stats.entries_scanned += len(touched)
        updates: Dict[Handle, Level] = {}
        changed = False
        for handle in touched:
            old = qs(handle)
            new = _effect(old, es(handle), ds(handle))
            updates[handle] = new
            if new != old:
                changed = True
        if not changed:
            if stats is not None:
                stats.chunks_shared += len(qs.chunks)
            return qs
        return sparse_update(qs, updates, stats)

    # Slow path: full pointwise merge (star entries of ES included — with
    # a changed default they can matter).
    entries: Dict[Handle, Level] = {}
    for handle in _explicit_handles(qs, es, ds):
        entries[handle] = _effect(qs(handle), es(handle), ds(handle))
    if stats is not None:
        stats.entries_scanned += len(entries)
    new_default = _effect(qs.default, es.default, ds.default)
    return _from_entries(entries, new_default, stats, reuse=(qs,))


def raise_receive(
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Compute ``QR ⊔ DR``, sparsely when DR is small (the common case: one
    decontaminate-receive entry per message)."""
    if stats is not None:
        stats.operations += 1
    new_default = max(qr.default, dr.default)
    fast = new_default == qr.default and (
        not qr.chunks or dr.default <= qr.explicit_min
    )
    if stats is not None:
        if fast:
            stats.fast_path += 1
        else:
            stats.full_merges += 1
    if fast:
        if stats is not None:
            stats.entries_scanned += len(dr)
        updates: Dict[Handle, Level] = {}
        changed = False
        for chunk in dr.chunks:
            for handle, level in chunk.entries:
                old = qr(handle)
                new = max(old, level)
                updates[handle] = new
                if new != old:
                    changed = True
        if not changed:
            if stats is not None:
                stats.chunks_shared += len(qr.chunks)
            return qr
        return sparse_update(qr, updates, stats)

    entries: Dict[Handle, Level] = {}
    for handle in _explicit_handles(qr, dr):
        entries[handle] = max(qr(handle), dr(handle))
    if stats is not None:
        stats.entries_scanned += len(entries)
    return _from_entries(entries, new_default, stats, reuse=(qr,))


# -- chunk-granular copy-on-write update ------------------------------------------------


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


def sparse_update(
    label: ChunkedLabel,
    updates: Dict[Handle, Level],
    stats: Optional[OpStats] = None,
) -> ChunkedLabel:
    """Return *label* with ``label(h) = level`` for each update, rewriting
    only the chunks that contain touched handles and sharing the rest.

    The label's default is unchanged; updates equal to the default are
    normalised away (entry removed).  Host work is O(touched chunks + log
    chunks) plus one C-level copy of the chunk directory; the bill in
    *stats* counts what the copy-on-write design does per touched chunk.
    """
    if not updates:
        return label
    chunks = label.chunks
    default = label.default
    if not chunks:
        entries = {h: lvl for h, lvl in updates.items() if lvl != default}
        return _from_entries(entries, default, stats, reuse=())

    # Route each updated handle to a chunk index: the chunk whose range
    # contains it, else the nearest chunk to its insertion point.
    los = label.chunk_los()
    per_chunk: Dict[int, Dict[Handle, Level]] = {}
    for handle, level in updates.items():
        idx = bisect_right(los, handle) - 1
        if idx < 0:
            idx = 0
        todo = per_chunk.get(idx)
        if todo is None:
            per_chunk[idx] = {handle: level}
        else:
            todo[handle] = level

    new_chunks = list(chunks)
    new_los = list(los)
    size = len(label)
    shared = len(chunks) - len(per_chunk)
    allocated = 0
    scanned = 0
    old_mask = 0  # levels of the rewritten chunks...
    new_mask = 0  # ...and of their replacements
    # Highest index first, so splicing never shifts a pending index.
    for idx in sorted(per_chunk, reverse=True):
        chunk = chunks[idx]
        entries = chunk.entries
        scanned += len(entries)
        old_mask |= chunk.level_mask
        merged = list(entries)
        for handle, level in per_chunk[idx].items():
            pos = bisect_left(merged, (handle,))
            if pos < len(merged) and merged[pos][0] == handle:
                if level == default:
                    del merged[pos]
                else:
                    merged[pos] = (handle, level)
            elif level != default:
                merged.insert(pos, (handle, level))
        size += len(merged) - len(entries)
        # Re-chunk this run.  Overflowing runs split *evenly* — a [64, 1]
        # split would leave a near-empty chunk owning half the handle
        # range, and repeated inserts then fragment the label (B-tree
        # median splits, same reason).  An emptied chunk leaves no run.
        replacement: List[Chunk] = []
        for run in _balanced_runs(merged):
            if run == entries:
                replacement.append(chunk)
                shared += 1
            else:
                replacement.append(Chunk(run))
                allocated += 1
            new_mask |= replacement[-1].level_mask
        new_chunks[idx : idx + 1] = replacement
        new_los[idx : idx + 1] = [piece.lo for piece in replacement]
    if stats is not None:
        stats.chunks_shared += shared
        stats.chunks_allocated += allocated
        stats.entries_scanned += scanned
        stats.labels_allocated += 1
    if len(new_chunks) > 3 and size < len(new_chunks) * (CHUNK_CAPACITY // 3):
        # Deletions (capability releases) have fragmented the label;
        # rebalance it wholesale.
        flat: List[Tuple[Handle, Level]] = []
        for chunk in new_chunks:
            flat.extend(chunk.entries)
        rebalanced = [Chunk(run) for run in _balanced_runs(flat)]
        if stats is not None:
            stats.chunks_allocated += len(rebalanced)
            stats.entries_scanned += size
        return ChunkedLabel(tuple(rebalanced), default, size)
    # The label's mask changes only through the rewritten chunks; unless
    # a level vanished from them, no untouched chunk needs a look.
    mask = None if old_mask & ~new_mask else label.level_mask | new_mask
    return ChunkedLabel(tuple(new_chunks), default, size, mask, new_los)


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


# -- reference implementations (used by tests and the ablation bench) ----------------------


def check_send_reference(
    es: Label, qr: Label, dr: Label, v: Label, pr: Label
) -> bool:
    """Naive Figure 4 requirement (1), via the plain Label operators."""
    return es <= ((qr | dr) & v & pr)


# -- the paper's cost model ------------------------------------------------------
#
# The prototype's label operations are linear in the size of their inputs,
# with exactly one family of short-circuits: the per-label min/max level
# hints ("if L2's maximum level is no larger than L1's minimum level, then
# L1 ⊔ L2 = L1 by definition", Section 5.6).  The fused operations above
# are *our* optimisation — the kind the paper lists as future work ("for
# example when most of a label's handle levels are ⋆").  To reproduce
# Figure 9 faithfully, the kernel charges cycles for the work the paper's
# algorithms would do; the functions below compute those entry counts from
# operand sizes in O(1).  The fused ops still execute (the semantics are
# identical and the Python simulation stays fast); only the *bill* models
# the 2005 implementation.  ``KernelConfig(label_cost_mode="fused")`` bills the
# fused counts instead — the ablation measured by bench_label_ops.


# A label flowing through the modelled operator chain is abstracted as a
# ``(size, lo, hi)`` tuple.  Result sizes use max() — the operand handle
# sets overlap almost entirely in practice — and the min/max bounds are
# sound in the direction that matters (they may only *enable* extra
# short-circuits, modelling a competent implementation).
_Shape = Tuple[int, Level, Level]


def _shape(label: ChunkedLabel) -> _Shape:
    return len(label), label.min_level, label.max_level


def _lub_cost(a: _Shape, b: _Shape) -> Tuple[int, _Shape]:
    """(entries scanned, result) for the paper's a ⊔ b; the min/max hint
    skips the merge when one operand dominates the other."""
    if b[2] <= a[1]:
        return 0, a
    if a[2] <= b[1]:
        return 0, b
    return a[0] + b[0], (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def _glb_cost(a: _Shape, b: _Shape) -> Tuple[int, _Shape]:
    if b[1] >= a[2]:
        return 0, a
    if a[1] >= b[2]:
        return 0, b
    return a[0] + b[0], (max(a[0], b[0]), min(a[1], b[1]), min(a[2], b[2]))


def paper_cost_check_send(
    es: ChunkedLabel,
    qr: ChunkedLabel,
    dr: ChunkedLabel,
    v: ChunkedLabel,
    pr: ChunkedLabel,
) -> int:
    """Entries the 2005 implementation scans for requirements (1) and (4):
    materialise (QR ⊔ DR) ⊓ V ⊓ pR, then compare ES against it.

    ⊑ of a label against a bound whose minimum dominates the label's
    default only inspects the label's own entries (the same min/max hint
    family as ⊔/⊓)."""
    scanned, rhs = _lub_cost(_shape(qr), _shape(dr))
    cost, rhs = _glb_cost(rhs, _shape(v))
    scanned += cost
    cost, rhs = _glb_cost(rhs, _shape(pr))
    scanned += cost
    # Requirement (4): DR ⊑ pR.
    scanned += len(dr)
    if dr.default > pr.min_level:
        scanned += len(pr)
    # ES ⊑ rhs: always scans ES; scans the rhs only when ES's default is
    # not already bounded by the rhs's minimum.
    scanned += len(es)
    if es.default > rhs[1]:
        scanned += rhs[0]
    return scanned


def paper_cost_apply_effects(
    qs: ChunkedLabel,
    es: ChunkedLabel,
    ds: ChunkedLabel,
) -> int:
    """Entries scanned for QS ← (QS ⊓ DS) ⊔ (ES ⊓ QS*).

    The stars-only projection has no short-circuit when stars are present
    (the optimisation the paper explicitly defers), so a receiver like
    netd with one ⋆ per user pays O(users) on every delivery."""
    scanned = 0
    if qs.min_level == STAR:
        scanned += len(qs)                       # compute QS* by scanning
        cost, rhs = _glb_cost(_shape(es), (len(qs), STAR, L3))
        scanned += cost
    else:
        rhs = _shape(es)                         # QS* = {3}; ES ⊓ {3} = ES
    cost, t1 = _glb_cost(_shape(qs), _shape(ds))
    scanned += cost
    cost, _ = _lub_cost(t1, rhs)
    scanned += cost
    return scanned


def paper_cost_raise_receive(qr: ChunkedLabel, dr: ChunkedLabel) -> int:
    cost, _ = _lub_cost(_shape(qr), _shape(dr))
    return cost


def apply_send_effects_reference(qs: Label, es: Label, ds: Label) -> Label:
    """Naive Figure 4 send-label effect."""
    return (qs & ds) | (es & qs.stars())


def raise_receive_reference(qr: Label, dr: Label) -> Label:
    return qr | dr
