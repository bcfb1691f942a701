"""Per-layer tracing for the traced perfbench run, kept out of the program.

Two mechanisms, both applied from this file and removed afterwards:

- :class:`Tracer` wraps public functions of the program's layers
  (``repro.core.labelops``, ``Kernel.run``, ``Database.run``,
  ``LabeledStore.apply``, the cluster router, ``Kernel.inject``) with
  timing spans kept in memory.  A span's self time is its duration minus
  the spans it encloses, so ``Kernel.run`` self time excludes the label
  engine and the database.
- :func:`profile_shares` aggregates a :mod:`cProfile` run by ``repro``
  package.  It is used only for the generator-driven layers (``okws``,
  ``servers``, ``ipc``): their code runs as simulated processes inside
  ``Kernel.run``, where no call boundary exists to wrap.

Cluster shards are forked OS processes.  :class:`ShardProbe` wraps the
router's shard entry point so that each shard, after it has been told to
stop, writes its own spans, profile and kernel accounting to a JSON file
the benchmark reads back.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import resource
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``repro`` sub-packages reported as profiler shares; the rest of the
#: process (stdlib, the benchmark itself) is reported as ``harness``.
PACKAGES = ("core", "kernel", "okws", "servers", "ipc", "db", "store", "cluster", "sim")


class Tracer:
    """Timing spans around wrapped functions, aggregated by layer.

    Spans are recorded only while :attr:`active` is set, so set-up work
    and the benchmark's own oracle calls stay out of the numbers.
    """

    def __init__(self) -> None:
        self.active = False
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Inclusive time by (layer, enclosing layer).
        self.by_parent: Dict[Tuple[str, str], float] = defaultdict(float)
        #: Extra per-layer counts a wrapper derives from return values.
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[List[Any]] = [["", 0.0]]
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: str,
        count: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``owner.name`` (a module function or a class method)
        with a spanned version; *count* maps a return value to a number
        added to ``counts[layer]``."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        tracer = self
        stack = self._stack

        @functools.wraps(original)
        def span(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                tracer.total[layer] += elapsed
                tracer.self_time[layer] += elapsed - frame[1]
                tracer.calls[layer] += 1
                tracer.by_parent[(layer, parent[0])] += elapsed
            if count is not None:
                tracer.counts[layer] += count(result)
            return result

        setattr(owner, name, span)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def export(self) -> Dict[str, Any]:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "by_parent": {f"{a}<{b}": v for (a, b), v in self.by_parent.items()},
        }


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer perfbench reports."""
    from repro.cluster.facade import Cluster
    from repro.cluster.router import Router
    from repro.core import labelops
    from repro.db.engine import Database
    from repro.kernel.kernel import Kernel
    from repro.store.store import LabeledStore

    tracer.wrap(labelops, "check_send", "core.check")
    tracer.wrap(labelops, "apply_send_effects", "core.effects")
    tracer.wrap(labelops, "raise_receive", "core.raise")
    tracer.wrap(labelops, "sparse_update", "core.update")
    for name in ("paper_cost_check_send", "paper_cost_apply_effects", "paper_cost_raise_receive"):
        tracer.wrap(labelops, name, "core.cost_model")
    tracer.wrap(Kernel, "run", "kernel.run")
    tracer.wrap(Kernel, "inject", "sim.inject")
    tracer.wrap(Database, "run", "db.run", count=lambda result: len(result.rows))
    tracer.wrap(LabeledStore, "apply", "store.apply")
    tracer.wrap(Router, "call_all", "cluster.call_all")
    tracer.wrap(Router, "pump", "cluster.pump")
    tracer.wrap(Cluster, "run_courier", "cluster.courier")


def new_profiler() -> cProfile.Profile:
    """A profiler on process CPU time, so a cluster parent blocked on its
    shard pipes does not read as busy."""
    return cProfile.Profile(time.process_time)


def _package_of(filename: str) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    for i in range(len(parts) - 2, 0, -1):
        if parts[i] == "repro" and parts[i - 1] == "src":
            name = parts[i + 1]
            return name if name in PACKAGES else "harness"
    return "harness"


def profile_totals(profiler: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time (``tottime``) summed by ``repro`` package."""
    totals: Dict[str, float] = defaultdict(float)
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        totals[_package_of(filename)] += row[2]
    return dict(totals)


def profile_shares(totals: Dict[str, float]) -> Dict[str, float]:
    grand = sum(totals.values()) or 1.0
    return {name: totals.get(name, 0.0) / grand for name in PACKAGES + ("harness",)}


class ShardProbe:
    """Makes every forked cluster shard report on itself when it stops.

    Installed before :class:`~repro.cluster.Cluster` forks its shards.
    Each shard swaps in a :class:`~repro.cluster.shard.ShardRuntime`
    subclass that sums the billed clock of every batch since the last
    ``mark`` and, with *tracing*, activates the inherited
    :class:`Tracer` and an optional profiler at ``mark``.  On exit it
    writes ``shard-<pid>.json`` into *out_dir*.
    """

    def __init__(self, out_dir: str, tracer: Optional[Tracer] = None, profile: bool = False):
        self.out_dir = out_dir
        self.tracer = tracer
        self.profile = profile
        self._original: Optional[Callable] = None

    def install(self) -> None:
        from repro.cluster import router

        self._original = router.shard_main
        router.shard_main = functools.partial(_shard_entry, self._original, self)

    def uninstall(self) -> None:
        from repro.cluster import router

        if self._original is not None:
            router.shard_main = self._original
            self._original = None

    def collect(self) -> List[Dict[str, Any]]:
        """Read and delete every shard report written so far."""
        reports = []
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("shard-") and name.endswith(".json"):
                path = os.path.join(self.out_dir, name)
                with open(path) as handle:
                    reports.append(json.load(handle))
                os.remove(path)
        return sorted(reports, key=lambda report: report["shard"])


def _shard_entry(original: Callable, probe: ShardProbe, conn: Any, spec: Any) -> None:
    """Runs in the forked shard: observe the runtime, then report."""
    from repro.cluster import shard as shard_module
    from repro.obs.metrics import kernel_snapshot

    runtimes: List[Any] = []
    profiler = new_profiler() if probe.profile else None

    class ObservedRuntime(shard_module.ShardRuntime):
        def __init__(self, spec: Any) -> None:
            super().__init__(spec)
            self.batch_cycles: Dict[str, int] = {}
            self.mark_snapshot: Optional[Dict[str, Any]] = None
            runtimes.append(self)

        def mark_drops(self) -> None:
            super().mark_drops()
            self.batch_cycles = {}
            if probe.tracer is not None:
                self.mark_snapshot = kernel_snapshot(self.kernel)
                probe.tracer.active = True
            if profiler is not None:
                profiler.enable()

        def run_batch(self, requests: Any, concurrency: int) -> Dict[str, Any]:
            reply = super().run_batch(requests, concurrency)
            for category, cycles in reply["clock_delta"].items():
                self.batch_cycles[category] = self.batch_cycles.get(category, 0) + cycles
            return reply

    shard_module.ShardRuntime = ObservedRuntime
    try:
        original(conn, spec)
    finally:
        if profiler is not None:
            profiler.disable()
        if probe.tracer is not None:
            probe.tracer.active = False
        report: Dict[str, Any] = {
            "shard": spec.shard_id,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if runtimes:
            runtime = runtimes[0]
            report["batch_cycles"] = runtime.batch_cycles
            report["mark"] = runtime.mark_snapshot
            report["end"] = kernel_snapshot(runtime.kernel)
        if probe.tracer is not None:
            report["spans"] = probe.tracer.export()
        if profiler is not None:
            report["profile"] = profile_totals(profiler)
        path = os.path.join(probe.out_dir, f"shard-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(report, handle)
        os.replace(path + ".tmp", path)
