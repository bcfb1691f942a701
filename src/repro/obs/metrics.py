"""The metrics registry — counters, gauges and histograms for the kernel
and the OKWS components.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  A disabled registry hands out a
   single shared :data:`NULL` instrument whose mutators are no-ops, and
   the kernel's own instruments live in :class:`KernelMetrics`, an
   observer the kernel attaches only when ``metrics=True``, so a kernel
   with metrics off pays one falsy check per event.
2. **Out-of-band.**  Like the drop log, nothing inside the simulation can
   observe a metric — programs have no syscall for it.  Metrics are for
   the harness, the bench runner and the tests.
3. **Plain data out.**  :meth:`MetricsRegistry.snapshot` returns nested
   dicts of numbers, ready for JSON (the ``BENCH_*.json`` metrics block).

Names are dotted paths (``kernel.ipc.sends``, ``netd.connections``);
:meth:`MetricsRegistry.scope` gives a component a named prefix so netd,
ok-demux, idd, ok-dbproxy and the workers each own a subtree.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from repro.kernel.errors import DROP_REASONS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsScope",
    "KernelMetrics",
    "NullInstrument",
    "NULL",
    "kernel_snapshot",
]


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming summary of observations: count / sum / min / max / mean.

    Deliberately bucket-free: the simulator is deterministic, so tests
    want exact moments rather than bucketed approximations, and the bench
    JSON stays compact.
    """

    __slots__ = ("count", "total", "min", "max")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": (self.total / self.count) if self.count else 0,
        }


class NullInstrument:
    """The shared no-op instrument a disabled registry hands out."""

    __slots__ = ()
    kind = "null"

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> int:
        return 0


#: The singleton null instrument.
NULL = NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, NullInstrument]


class MetricsRegistry:
    """A flat namespace of named instruments.

    ``counter``/``gauge``/``histogram`` get-or-create; asking for an
    existing name with a different kind is an error (it would silently
    fork the series).  When the registry is disabled every accessor
    returns :data:`NULL`, so call sites can bind instruments once at
    setup and use them unconditionally.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: Dict[str, Instrument] = {}

    # -- instrument access -------------------------------------------------------

    def _get(self, name: str, factory) -> Instrument:
        if not self.enabled:
            return NULL
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, factory):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {factory.kind}"
            )
        return instrument

    def counter(self, name: str) -> Instrument:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Instrument:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Instrument:
        return self._get(name, Histogram)

    def scope(self, prefix: str) -> "MetricsScope":
        """A view that prefixes every name with ``prefix.`` — how each
        OKWS component gets its own metric subtree."""
        return MetricsScope(self, prefix)

    # -- reading -----------------------------------------------------------------

    def get(self, name: str) -> Any:
        """The snapshot value of one metric (0 / empty if never touched)."""
        instrument = self._instruments.get(name)
        return instrument.snapshot() if instrument is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as a flat ``{dotted.name: value}`` dict."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def __len__(self) -> int:
        return len(self._instruments)


class MetricsScope:
    """A registry view with a fixed name prefix."""

    __slots__ = ("_registry", "prefix")

    def __init__(self, registry: MetricsRegistry, prefix: str):
        self._registry = registry
        self.prefix = prefix

    def counter(self, name: str) -> Instrument:
        return self._registry.counter(f"{self.prefix}.{name}")

    def gauge(self, name: str) -> Instrument:
        return self._registry.gauge(f"{self.prefix}.{name}")

    def histogram(self, name: str) -> Instrument:
        return self._registry.histogram(f"{self.prefix}.{name}")

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self._registry, f"{self.prefix}.{prefix}")


class KernelMetrics:
    """The kernel's ``kernel.*`` instruments: the observer a kernel attaches
    when ``KernelConfig(metrics=True)`` (DESIGN.md §8.1 lists each one)."""

    def __init__(self, kernel) -> None:
        self._scheduler = kernel.scheduler
        counter = kernel.metrics.counter
        self._sends = counter("kernel.ipc.sends")
        self._injected = counter("kernel.ipc.injected")
        self._enqueued = counter("kernel.ipc.enqueued")
        self._delivered = counter("kernel.ipc.delivered")
        self._xshard = {way: counter(f"kernel.ipc.xshard_{way}") for way in ("out", "in")}
        self._drops = {reason: counter(f"kernel.ipc.drops.{reason}") for reason in DROP_REASONS}
        self._label_fast = counter("kernel.labels.fast_path")
        self._label_full = counter("kernel.labels.full_merges")
        self._label_entries = counter("kernel.labels.entries_scanned")
        self._steps = counter("kernel.sched.steps")
        self._queue_depth = kernel.metrics.histogram("kernel.sched.queue_depth")
        self._spawns = counter("kernel.proc.spawned")
        self._ep_created = counter("kernel.proc.ep_created")
        self._ep_switches = counter("kernel.proc.ep_switched")

    def on_spawn(self, process) -> None:
        self._spawns.inc()

    def on_inject(self, port, payload) -> None:
        self._injected.inc()

    def on_xshard(self, direction: str, port) -> None:
        self._xshard[direction].inc()

    def on_pick(self, task) -> None:
        self._steps.inc()
        self._queue_depth.observe(len(self._scheduler))

    def on_send(self, task, request) -> None:
        self._sends.inc()

    def on_enqueue(self, qmsg) -> None:
        self._enqueued.inc()

    def on_deliver(self, task, entry, qmsg, delivered: bool, *_labels_before) -> None:
        if delivered:
            self._delivered.inc()

    def on_drop(self, reason: str, sender: str, where: str, seq) -> None:
        self._drops[reason].inc()

    def on_label_work(self, stats) -> None:
        self._label_fast.inc(stats.fast_path)
        self._label_full.inc(stats.full_merges)
        self._label_entries.inc(stats.entries_scanned)

    def on_ep_create(self, ep, entry, qmsg) -> None:
        self._ep_created.inc()

    def on_ep_switch(self, ep) -> None:
        self._ep_switches.inc()


def kernel_snapshot(kernel) -> Dict[str, Any]:
    """One machine-readable snapshot of everything observable on *kernel*.

    Combines the live registry with the accounting the kernel already
    keeps — cycle clock, drop log, label-op stats, memory report — so a
    ``BENCH_*.json`` metrics block is complete even for sub-experiments
    run with metrics disabled.
    """
    stats = kernel.label_stats
    return {
        "config": {"label_cost_mode": kernel.config.label_cost_mode},
        "metrics": kernel.metrics.snapshot(),
        "clock": {
            "now_cycles": kernel.clock.now,
            "by_category": dict(kernel.clock.by_category),
        },
        "drops": dict(sorted(kernel.drop_log.by_reason.items())),
        "label_ops": {
            "operations": stats.operations,
            "entries_scanned": stats.entries_scanned,
            "chunks_skipped": stats.chunks_skipped,
            "chunks_allocated": stats.chunks_allocated,
            "chunks_shared": stats.chunks_shared,
            "labels_allocated": stats.labels_allocated,
            "fast_path": stats.fast_path,
            "full_merges": stats.full_merges,
        },
        "memory": kernel.memory_report(),
        "scheduler": {"queue_depth": len(kernel.scheduler)},
        "steps": kernel.steps_executed,
    }
