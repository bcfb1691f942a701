"""Runs one perfbench workload and turns what it observed into metrics.

An untraced run (``trace=False``) sets the workload up
``setup_repeats`` times, keeps the last set-up, measures it, and reports
the end-to-end metrics.  A traced run reports the per-layer
metrics from three phases, each on a fresh set-up of the same inputs:

1. untraced, as the reference for ``trace.overhead_ratio`` and the
   harness figures (wave times, error rate);
2. traced: layer spans (:mod:`tracer`) and the kernel metrics registry
   on, giving times and counts per layer;
3. profiled: :mod:`cProfile` on, giving the self-time share of each
   package, which is the only view into the generator-driven layers.

Phases 1 and 2 run half the work of an untraced run, phase 3 a quarter.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.kernel.clock import KERNEL_IPC, NETWORK, OKDB, OKWS, OTHER, CPU_HZ
from repro.kernel.config import KernelConfig
from repro.kernel.memory import PAGE_SIZE
from repro.obs.metrics import kernel_snapshot

from tracer import (
    PACKAGES,
    ShardProbe,
    Tracer,
    install_layer_spans,
    new_profiler,
    profile_shares,
    profile_totals,
)
from workloads import WORKLOADS, ClusterCourier, Phase

#: End-to-end metrics (untraced runs), with units.
END_TO_END = {
    "ok_rps": "1/s",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_kcycles_per_conn": "Kcycles",
    "sim_latency_us_p50": "sim_us",
    "sim_latency_us_p99": "sim_us",
    "sim_pages_per_session": "pages",
}

_CYCLE_CATEGORIES = {
    "network": NETWORK, "okws": OKWS, "okdb": OKDB, "kernel_ipc": KERNEL_IPC, "other": OTHER,
}

#: Per-layer metrics (traced runs), with units.
PER_LAYER = {
    "core.check_s_per_req": "s",
    "core.effects_s_per_req": "s",
    "core.raise_s_per_req": "s",
    "core.update_s_per_req": "s",
    "core.cost_model_s_per_req": "s",
    "core.calls_per_req": "count",
    "core.entries_scanned_per_op": "count",
    "core.fast_path_ratio": "ratio",
    "core.full_merges_per_req": "count",
    "core.chunks_allocated_per_req": "count",
    "core.chunks_shared_ratio": "ratio",
    "kernel.run_self_s_per_req": "s",
    **{f"{package}.self_share": "ratio" for package in PACKAGES + ("harness",)},
    "kernel.sends_per_req": "count",
    "kernel.delivered_ratio": "ratio",
    "kernel.drops.label_check_per_req": "count",
    "kernel.steps_per_req": "count",
    **{f"kernel.cycles.{name}_kcycles_per_conn": "Kcycles" for name in _CYCLE_CATEGORIES},
    "kernel.mem.label_bytes_per_session": "bytes",
    "kernel.mem.ep_bytes_per_session": "bytes",
    "kernel.mem.port_bytes_per_session": "bytes",
    "okws.degraded_per_req": "count",
    "okws.pending_timeouts": "count",
    "okws.stray_resumes_per_req": "count",
    "okws.session_reuse_ratio": "ratio",
    "okws.write_timeouts_per_req": "count",
    "okws.query_timeouts_per_req": "count",
    "servers.dbproxy.write_replays": "count",
    "db.queries_per_req": "count",
    "db.run_s_per_query": "s",
    "db.rows_per_query": "count",
    "store.apply_s_per_write": "s",
    "store.appends_per_req": "count",
    "store.bytes_per_req": "bytes",
    "cluster.call_all_s_per_wave": "s",
    "cluster.pump_s_per_round": "s",
    "cluster.courier_s_per_round": "s",
    "cluster.routed_per_round": "count",
    "cluster.busy_skew": "ratio",
    "sim.inject_s_per_req": "s",
    "sim.wave_ms_p50": "ms",
    "sim.wave_ms_p90": "ms",
    "sim.latency_samples": "count",
    "trace.overhead_ratio": "ratio",
    "error_rate": "ratio",
}


class Observed:
    """Everything one phase left behind for the metrics."""

    def __init__(self, phase: Phase, setup_s: List[float]):
        self.phase = phase
        self.setup_s = setup_s
        self.sessions = 0
        #: (snapshot at measure start, snapshot at the end), per kernel.
        self.pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        self.memory: List[Dict[str, int]] = []
        self.spans: List[Dict[str, Any]] = []
        self.profiles: List[Dict[str, float]] = []
        self.maxrss_kb: List[int] = []


def run_phase(
    name: str,
    plan: Dict[str, Any],
    config: KernelConfig,
    workdir: str,
    setups: int = 1,
    tracer: Optional[Tracer] = None,
    profile: bool = False,
    sizes: Optional[Dict[str, int]] = None,
) -> Observed:
    """Set the workload up *setups* times and measure the last set-up."""
    workload = WORKLOADS[name](**(sizes or {}))
    probe = (
        ShardProbe(workdir, tracer, profile) if isinstance(workload, ClusterCourier) else None
    )
    profiler = new_profiler() if profile else None
    if probe is not None:
        probe.install()
    try:
        setup_s: List[float] = []
        for repeat in range(setups):
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(plan, config, workdir)
            setup_s.append(time.perf_counter() - start)
            if repeat < setups - 1:
                workload.finish(state)
                if probe is not None:
                    probe.collect()
                del state
        observed = Observed(Phase(), setup_s)
        site = state.get("site")
        start_snapshot = kernel_snapshot(site.kernel) if site is not None and tracer else None
        try:
            workload.measure(state, plan, observed.phase, tracer, profiler)
        finally:
            report = workload.finish(state)
        observed.sessions = report["sessions"]
        observed.memory = report.get("memory", [])
        if start_snapshot is not None:
            observed.pairs.append((start_snapshot, report["snapshots"][0]))
        if tracer is not None:
            observed.spans.append(tracer.export())
        if profiler is not None:
            observed.profiles.append(profile_totals(profiler))
        for shard in probe.collect() if probe is not None else []:
            observed.maxrss_kb.append(shard["maxrss_kb"])
            observed.memory.append(shard["end"]["memory"])
            observed.phase.add_cycles(shard["batch_cycles"])
            if shard.get("mark") is not None:
                observed.pairs.append((shard["mark"], shard["end"]))
            if "spans" in shard:
                observed.spans.append(shard["spans"])
            if "profile" in shard:
                observed.profiles.append(shard["profile"])
    finally:
        if probe is not None:
            probe.uninstall()
    observed.maxrss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return observed


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (which must be non-empty)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def _sim_kcycles(phase: Phase) -> float:
    billed = sum(phase.busy) if phase.busy else sum(phase.cycles.values())
    return billed / phase.requests / 1000


def end_to_end(observed: Observed) -> Dict[str, float]:
    phase = observed.phase
    latencies_us = [cycles / CPU_HZ * 1e6 for cycles in phase.latencies]
    pages = sum(report["total_bytes"] for report in observed.memory) / PAGE_SIZE
    return {
        "ok_rps": phase.ok / phase.wall_s,
        "ok_ratio": 1 - phase.failed / phase.attempted,
        "setup_s": statistics.median(observed.setup_s),
        "peak_rss_mb": max(observed.maxrss_kb) / 1024,
        "sim_kcycles_per_conn": _sim_kcycles(phase),
        "sim_latency_us_p50": percentile(latencies_us, 50),
        "sim_latency_us_p99": percentile(latencies_us, 99),
        "sim_pages_per_session": pages / observed.sessions,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(baseline: Observed, traced: Observed, profiled: Observed) -> Dict[str, float]:
    phase = traced.phase
    requests = phase.requests
    rounds = max(phase.rounds, 1)

    def span(kind: str, layer: str) -> float:
        return sum(export[kind].get(layer, 0) for export in traced.spans)

    def delta(*path: str) -> float:
        total = 0
        for start, end in traced.pairs:
            a, b = start, end
            for key in path:
                a, b = a.get(key, {}), b.get(key, {})
            total += (b or 0) - (a or 0)
        return total

    def app(name: str) -> float:
        return delta("metrics", name)

    def memory(key: str) -> float:
        return sum(report[key] for report in traced.memory) / traced.sessions

    core = ("core.check", "core.effects", "core.raise", "core.update", "core.cost_model")
    operations = delta("label_ops", "operations")
    shared = delta("label_ops", "chunks_shared")
    allocated = delta("label_ops", "chunks_allocated")
    offered = app("kernel.ipc.sends") + app("kernel.ipc.injected") + app("kernel.ipc.xshard_in")
    queries = span("calls", "db.run")
    writes = span("calls", "store.apply")
    shares = profile_shares(_sum_dicts(profiled.profiles))
    waves_ms = [seconds * 1000 for seconds in baseline.phase.wave_s]
    return {
        "core.check_s_per_req": span("total", "core.check") / requests,
        "core.effects_s_per_req": span("total", "core.effects") / requests,
        "core.raise_s_per_req": span("total", "core.raise") / requests,
        "core.update_s_per_req": span("total", "core.update") / requests,
        "core.cost_model_s_per_req": span("total", "core.cost_model") / requests,
        "core.calls_per_req": sum(span("calls", layer) for layer in core) / requests,
        "core.entries_scanned_per_op": _ratio(delta("label_ops", "entries_scanned"), operations),
        "core.fast_path_ratio": _ratio(delta("label_ops", "fast_path"), operations),
        "core.full_merges_per_req": delta("label_ops", "full_merges") / requests,
        "core.chunks_allocated_per_req": allocated / requests,
        "core.chunks_shared_ratio": _ratio(shared, shared + allocated),
        "kernel.run_self_s_per_req": span("self", "kernel.run") / requests,
        **{f"{package}.self_share": share for package, share in shares.items()},
        "kernel.sends_per_req": app("kernel.ipc.sends") / requests,
        "kernel.delivered_ratio": _ratio(app("kernel.ipc.delivered"), offered),
        "kernel.drops.label_check_per_req": delta("drops", "label-check") / requests,
        "kernel.steps_per_req": delta("steps") / requests,
        **{
            f"kernel.cycles.{name}_kcycles_per_conn": phase.cycles.get(category, 0)
            / requests / 1000
            for name, category in _CYCLE_CATEGORIES.items()
        },
        "kernel.mem.label_bytes_per_session": memory("label_bytes"),
        "kernel.mem.ep_bytes_per_session": memory("ep_bytes"),
        "kernel.mem.port_bytes_per_session": memory("port_bytes"),
        "okws.degraded_per_req": app("app.OKWS.degraded") / requests,
        "okws.pending_timeouts": app("app.OKWS.pending_timeouts"),
        "okws.stray_resumes_per_req": app("app.OKWS.stray_resumes") / requests,
        "okws.session_reuse_ratio": _ratio(app("app.OKWS.session_reuse"), app("app.OKWS.connects")),
        "okws.write_timeouts_per_req": phase.failures["write failed: timed out"] / requests,
        "okws.query_timeouts_per_req": phase.failures["query timed out"] / requests,
        "servers.dbproxy.write_replays": app("app.OKDB.write_replays"),
        "db.queries_per_req": queries / requests,
        "db.run_s_per_query": _ratio(span("total", "db.run"), queries),
        "db.rows_per_query": _ratio(span("counts", "db.run"), queries),
        "store.apply_s_per_write": _ratio(span("total", "store.apply"), writes),
        "store.appends_per_req": app("kernel.store.appends") / requests,
        "store.bytes_per_req": app("kernel.store.bytes") / requests,
        # Fan-outs issued by run_batch itself, not by the courier.
        "cluster.call_all_s_per_wave": span("by_parent", "cluster.call_all<") / len(phase.wave_s),
        "cluster.pump_s_per_round": span("total", "cluster.pump") / rounds,
        "cluster.courier_s_per_round": span("total", "cluster.courier") / rounds,
        "cluster.routed_per_round": phase.routed / rounds,
        "cluster.busy_skew": _ratio(max(phase.busy), min(phase.busy)) if phase.busy else 0.0,
        "sim.inject_s_per_req": span("total", "sim.inject") / requests,
        "sim.wave_ms_p50": statistics.median(waves_ms),
        "sim.wave_ms_p90": percentile(waves_ms, 90),
        "sim.latency_samples": len(baseline.phase.latencies),
        # The same requests and outcomes in both phases, so the ratio of
        # their ok_rps is the inverse ratio of their measured wall time.
        "trace.overhead_ratio": baseline.phase.wall_s / phase.wall_s,
        "error_rate": baseline.phase.failed / baseline.phase.attempted,
    }


def _sum_dicts(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for entry in dicts:
        for key, value in entry.items():
            total[key] = total.get(key, 0.0) + value
    return total


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    sizes: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """One benchmark run; returns the result object the command prints."""
    workload = WORKLOADS[name](**(sizes or {}))
    units = workload.units_for(seconds)
    plan = workload.plan(seed, units)
    # Explicit defaults: REPRO_* variables must not change what is measured.
    config = KernelConfig()
    if not trace:
        observed = run_phase(name, plan, config, workdir, setups=workload.setup_repeats,
                             sizes=sizes)
        values, units_of, phase = end_to_end(observed), END_TO_END, observed.phase
    else:
        # Half the work per traced-run phase keeps the three phases near
        # the time of one untraced run.
        half = workload.plan(seed, max(1, units // 2))
        baseline = run_phase(name, half, config, workdir, sizes=sizes)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            traced = run_phase(name, half, KernelConfig(metrics=True), workdir,
                               tracer=tracer, sizes=sizes)
        finally:
            tracer.restore()
        quarter = workload.plan(seed, max(1, units // 4))
        profiled = run_phase(name, quarter, config, workdir, profile=True, sizes=sizes)
        values, units_of, phase = per_layer(baseline, traced, profiled), PER_LAYER, baseline.phase
    return {
        "correct": True,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units_of.items()},
        "failures": dict(phase.failures),
    }
