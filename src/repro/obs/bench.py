"""The machine-readable benchmark harness: ``python -m repro bench``.

Regenerates the paper's evaluation figures headlessly and writes one JSON
document per figure at the repository root (or ``--out``):

    BENCH_fig6.json       memory per cached/active session      (Figure 6)
    BENCH_fig7.json       throughput vs cached sessions         (Figure 7)
    BENCH_fig8.json       latency at concurrency 4              (Figure 8)
    BENCH_fig9.json       component Kcycles/connection          (Figure 9)
    BENCH_labelops.json   paper-mode vs fused label-op ablation  (§5.6/9.3)
    BENCH_scale.json      sharded-cluster scaling (``--scale``)  (DESIGN.md §13)

The scale figure is not part of the default run (it forks shard worker
processes); ``python -m repro bench --scale`` selects it.

Every document follows the ``repro-bench/v1`` schema (see
:data:`SCHEMA` and DESIGN.md §8): paper value, measured value and their
ratio for each headline quantity, the raw series, and a full
:func:`~repro.obs.metrics.kernel_snapshot` of an instrumented run so the
perf trajectory of the *kernel internals* (label fast-path rate, drop
counts, queue depths) is tracked alongside the headline numbers.

A comparison row that states one of the paper's shape claims carries a
verdict, ``ok``: whether the measurement lands in the claim's band.  A
claim that needs a grid the run did not use (the Figure 7 crossover
needs 10,000 sessions) records ``ok: null``.  ``python -m repro bench``
exits 1 when any row it wrote reads ``ok: false``.

The full grids are the paper's (1 to 10,000 sessions; about 8 minutes on
a 2-core host).
``--quick`` shrinks them to CI scale (tens of seconds); the document
records which grid produced it, so consumers never compare quick and full
runs against each other.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.kernel.config import KernelConfig
from repro.obs.metrics import kernel_snapshot

#: Schema identifier stamped into (and required of) every document.
SCHEMA = "repro-bench/v1"

#: Every figure this harness knows how to regenerate.
FIGURES = ("fig6", "fig7", "fig8", "fig9", "labelops", "scale")

#: The default ``run_bench`` selection: the paper figures.  ``scale``
#: (the multi-process cluster bench) runs only when asked for.
DEFAULT_FIGURES = ("fig6", "fig7", "fig8", "fig9", "labelops")

#: Keys every document must carry; see :func:`validate`.
REQUIRED_KEYS = ("schema", "figure", "title", "quick", "series", "comparisons")

#: Keys every comparison row must carry.  A row may also carry ``ok``, its
#: verdict: ``true``/``false``, or ``null`` where no band applies.
COMPARISON_KEYS = ("name", "paper", "measured", "ratio", "unit")


# -- document assembly ---------------------------------------------------------------


def _ratio(paper: Any, measured: Any) -> Optional[float]:
    if isinstance(paper, (int, float)) and isinstance(measured, (int, float)) and paper:
        return round(measured / paper, 4)
    return None


def comparison(
    name: str, paper: Any, measured: Any, unit: str = "", ok: Optional[bool] = None
) -> Dict[str, Any]:
    """One paper-vs-measured row; ``ratio`` is measured/paper when both
    are numeric (the number the perf trajectory tracks over time).  *ok*
    is the row's verdict: whether the measurement holds the paper's claim,
    or None where the row states no claim or the run's grid cannot test it."""
    if isinstance(measured, float):
        measured = round(measured, 4)
    return {
        "name": name,
        "paper": paper,
        "measured": measured,
        "ratio": _ratio(paper, measured),
        "unit": unit,
        "ok": ok,
    }


def _document(
    figure: str,
    title: str,
    quick: bool,
    series: Dict[str, Any],
    comparisons: List[Dict[str, Any]],
    metrics: Optional[Dict[str, Any]],
    meta: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "schema": SCHEMA,
        "figure": figure,
        "title": title,
        "quick": quick,
        "series": series,
        "comparisons": comparisons,
        "metrics": metrics,
        "meta": meta,
    }


def validate(doc: Dict[str, Any]) -> List[str]:
    """Check *doc* against the ``repro-bench/v1`` schema; returns the list
    of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, not an object"]
    for key in REQUIRED_KEYS:
        if key not in doc:
            problems.append(f"missing required key {key!r}")
    if problems:
        return problems
    if doc["schema"] != SCHEMA:
        problems.append(f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if doc["figure"] not in FIGURES:
        problems.append(f"unknown figure {doc['figure']!r}")
    if not isinstance(doc["title"], str) or not doc["title"]:
        problems.append("title must be a non-empty string")
    if not isinstance(doc["quick"], bool):
        problems.append("quick must be a boolean")
    if not isinstance(doc["series"], dict):
        problems.append("series must be an object")
    else:
        for name, ser in doc["series"].items():
            if not isinstance(ser, dict) or "x" not in ser or "y" not in ser:
                problems.append(f"series {name!r} must have x and y arrays")
            elif len(ser["x"]) != len(ser["y"]):
                problems.append(f"series {name!r}: len(x) != len(y)")
    if not isinstance(doc["comparisons"], list) or not doc["comparisons"]:
        problems.append("comparisons must be a non-empty array")
    else:
        for i, row in enumerate(doc["comparisons"]):
            for key in COMPARISON_KEYS:
                if not isinstance(row, dict) or key not in row:
                    problems.append(f"comparisons[{i}] missing key {key!r}")
            if isinstance(row, dict) and not isinstance(row.get("ok"), (bool, type(None))):
                problems.append(f"comparisons[{i}] ok must be a boolean or null")
    metrics = doc.get("metrics")
    if metrics is not None and not isinstance(metrics, dict):
        problems.append("metrics must be an object or null")
    return problems


def _series(xs: Iterable[Any], ys: Iterable[Any], unit: str = "") -> Dict[str, Any]:
    return {"x": list(xs), "y": [round(y, 4) if isinstance(y, float) else y for y in ys], "unit": unit}


# -- instrumented snapshot runs -------------------------------------------------------

_OBS_CONFIG = KernelConfig(metrics=True, spans=True, span_limit=50_000)


def _instrumented_snapshot(site, requests) -> Dict[str, Any]:
    """Run *requests* on a site built with ``_OBS_CONFIG``; return its
    kernel snapshot (metric counters, drops, label-op stats, memory, spans)."""
    from repro.sim.workload import HttpClient

    HttpClient(site).run_batch(requests, concurrency=16)
    snap = kernel_snapshot(site.kernel)
    snap["spans_recorded"] = len(site.kernel.spans)
    return snap


def _instrumented_echo_snapshot(n_users: int) -> Dict[str, Any]:
    from repro.sim.runner import build_echo_site

    requests = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(n_users)]
    return _instrumented_snapshot(build_echo_site(n_users, config=_OBS_CONFIG), requests * 2)


# -- the figures ---------------------------------------------------------------------


def _slope(points) -> float:
    first, last = points[0], points[-1]
    return (last.total_pages - first.total_pages) / (last.sessions - first.sessions)


def run_fig6(quick: bool) -> Dict[str, Any]:
    """Figure 6: memory used by cached and active web sessions, plus the
    Section 6 ablation of event processes against forked processes."""
    from dataclasses import asdict

    from repro.kernel.memory import PAGE_SIZE
    from repro.sim.runner import (
        build_cache_site,
        run_fork_vs_ep_experiment,
        run_memory_experiment,
    )

    grid = [0, 200, 400] if quick else [0, 1000, 3000, 5000, 10000]
    grid_active = [100, 300] if quick else [1000, 5000]
    n_cache = 50 if quick else 200
    cached = run_memory_experiment(grid)
    active = run_memory_experiment(grid_active, active=True)
    cached_slope = _slope(cached)
    active_slope = _slope(active)
    extra_slope = active_slope - cached_slope
    # "One complete page [user state]; the remainder ... kernel data
    # structures" (Section 9.1).
    last = cached[-1]
    kernel_pages = (last.kernel_bytes / PAGE_SIZE) / max(last.sessions, 1)
    fork = run_fork_vs_ep_experiment()
    fork_memory = fork.fork_pages / fork.ep_pages
    fork_creation = fork.fork_cycles / fork.ep_cycles
    return _document(
        "fig6",
        "Memory used by cached and active web sessions",
        quick,
        {
            "cached_pages": _series(
                [p.sessions for p in cached], [p.total_pages for p in cached], "pages"
            ),
            "active_pages": _series(
                [p.sessions for p in active], [p.total_pages for p in active], "pages"
            ),
        },
        [
            comparison(
                "pages per cached session",
                1.5,
                cached_slope,
                "pages",
                ok=1.2 <= cached_slope <= 1.8,
            ),
            comparison(
                "pages per active session",
                9.5,
                active_slope,
                "pages",
                ok=8.5 <= active_slope <= 10.5,
            ),
            comparison(
                "extra pages per active session",
                8.0,
                extra_slope,
                "pages",
                ok=7.0 <= extra_slope <= 9.0,
            ),
            comparison(
                "kernel pages per cached session",
                0.5,
                kernel_pages,
                "pages",
                ok=0.2 <= kernel_pages <= 0.8,
            ),
            # Section 6: "a forked server model ... burdens the OS with
            # many thousands of processes that need memory allocated and
            # CPU time scheduled".
            comparison(
                "pages per session, event processes",
                1.5,
                fork.ep_pages,
                "pages",
                ok=fork.ep_pages < 2.0,
            ),
            comparison(
                "memory per session, forked / event processes (> 2)",
                "n/a (resource-heavy)",
                fork_memory,
                "x",
                ok=fork_memory > 2.0,
            ),
            comparison(
                "creation cycles per session, forked / event processes (> 3)",
                "n/a (resource-heavy)",
                fork_creation,
                "x",
                ok=fork_creation > 3.0,
            ),
            comparison(
                "processes, forked model (one per session)",
                fork.sessions,
                fork.fork_processes,
                "processes",
                ok=fork.fork_processes >= fork.sessions,
            ),
            comparison(
                "processes, event-process model (< 5)",
                "n/a (one base process)",
                fork.ep_processes,
                "processes",
                ok=fork.ep_processes < 5,
            ),
        ],
        _instrumented_snapshot(
            build_cache_site(n_cache, config=_OBS_CONFIG),
            [(f"u{i}", f"pw{i}", "cache", b"s" * 900, None) for i in range(n_cache)],
        ),
        {"grid": grid, "grid_active": grid_active, "fork_vs_ep": asdict(fork)},
    )


def _sweep(quick: bool, label_cost_mode: str = "paper", config=None):
    from repro.sim.runner import run_session_sweep

    grid = [1, 100, 500] if quick else [1, 100, 1000, 3000, 5000, 7500, 10000]
    return grid, run_session_sweep(grid, label_cost_mode=label_cost_mode, config=config)


def _cluster_single_shard_point(sessions: int) -> float:
    """Throughput through the ``repro.cluster`` facade at ``n_shards=1``.

    The single-shard cluster drives the ordinary in-process kernel with
    the unmodified boot key, so this series pins the facade's identity
    path under the same one-sided guard as the direct-kernel series: a
    change that makes ``Cluster(n_shards=1)`` anything but a thin pass-
    through shows up as a throughput regression here.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.kernel.clock import CPU_HZ

    users = tuple((f"u{i}", f"pw{i}") for i in range(sessions))
    requests = [
        (f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(sessions)
    ] * 2
    with Cluster(ClusterConfig(n_shards=1, users=users)) as cluster:
        result = cluster.run_batch(requests)
    return len(requests) / (result.elapsed_cycles / CPU_HZ)


def _line_deviation(points) -> Optional[float]:
    """Largest relative distance of a sweep point's Kcycles/connection
    from the line through the first and last point at >= 100 sessions;
    None with fewer than three such points.  Section 9.3: "linear scaling
    factors ... no obviously quadratic or exponential factors"."""
    points = [p for p in points if p.sessions >= 100]
    if len(points) < 3:
        return None
    first, last = points[0], points[-1]
    slope = (last.total_kcycles - first.total_kcycles) / (last.sessions - first.sessions)
    worst = 0.0
    for p in points:
        predicted = first.total_kcycles + slope * (p.sessions - first.sessions)
        worst = max(worst, abs(p.total_kcycles - predicted) / predicted)
    return worst


def run_fig7(quick: bool, sweep=None) -> Dict[str, Any]:
    """Figure 7: throughput vs cached sessions, plus the single-shard
    cluster identity path.  Every number is simulated; perfbench measures
    host time, observation overhead included (``trace.overhead_ratio``)."""
    from repro.baselines import ApacheCgiModel, ModApacheModel

    if sweep is None:
        grid, points = _sweep(quick)
    else:
        grid, points = sweep
    apache = ApacheCgiModel().run(1000 if quick else 4000, concurrency=400)
    mod_apache = ModApacheModel().run(1000 if quick else 4000, concurrency=16)

    okws_1 = points[0].throughput
    okws_last = points[-1].throughput
    monotonic = all(a.throughput >= b.throughput for a, b in zip(points, points[1:]))
    deviation = _line_deviation(points)
    snapshot = _instrumented_echo_snapshot(50 if quick else 200)

    # The repro.cluster identity path (DESIGN.md §13), guarded like any
    # other series: n_shards=1 must stay a thin facade over this kernel.
    cluster_sessions = grid[1] if len(grid) > 1 else grid[0]
    cluster_conn_s = _cluster_single_shard_point(cluster_sessions)
    return _document(
        "fig7",
        "Throughput for various numbers of cached sessions",
        quick,
        {
            "okws_throughput": _series(
                [p.sessions for p in points], [p.throughput for p in points], "conn/s"
            ),
            "cluster_single_shard": _series(
                [cluster_sessions], [cluster_conn_s], "conn/s"
            ),
        },
        [
            comparison(
                "OKWS(1) / Mod-Apache",
                0.55,
                okws_1 / mod_apache.throughput,
                "x",
                ok=0.4 <= okws_1 / mod_apache.throughput <= 0.7,
            ),
            comparison(
                "OKWS(1) / Apache (paper: better, i.e. > 1)",
                1.0,
                okws_1 / apache.throughput,
                "x",
                ok=okws_1 > apache.throughput,
            ),
            comparison(
                "throughput degrades monotonically",
                True,
                monotonic,
                "",
                ok=monotonic,
            ),
            comparison(
                "Kcycles/conn off a line through >= 100 sessions (< 0.25)",
                "n/a (linear)",
                deviation,
                "",
                ok=None if deviation is None else deviation < 0.25,
            ),
            # Both need the paper's 10,000-session end point.
            comparison(
                f"OKWS({points[-1].sessions}) / Apache (paper: crossed below)",
                1.0,
                okws_last / apache.throughput,
                "x",
                ok=None if quick else okws_last < apache.throughput,
            ),
            comparison(
                f"OKWS({points[-1].sessions}) / Apache (paper: about half, > 0.35)",
                0.5,
                okws_last / apache.throughput,
                "x",
                ok=None if quick else okws_last / apache.throughput > 0.35,
            ),
            comparison(
                f"cluster facade (1 shard) at {cluster_sessions} sessions",
                "n/a (guarded series)",
                cluster_conn_s,
                "conn/s",
            ),
        ],
        snapshot,
        {
            "grid": grid,
            "apache_conn_s": round(apache.throughput, 1),
            "mod_apache_conn_s": round(mod_apache.throughput, 1),
            "cluster_single_shard_sessions": cluster_sessions,
        },
    )


def run_fig8(quick: bool) -> Dict[str, Any]:
    """Figure 8: median and 90th-percentile latency at concurrency 4."""
    from repro.baselines import ApacheCgiModel, ModApacheModel
    from repro.sim.runner import run_latency_experiment
    from repro.sim.stats import percentile

    n = 150 if quick else 400
    big = 200 if quick else 1000
    one, many = "OKWS, 1 session", f"OKWS, {big} sessions"
    rows: Dict[str, List[float]] = {
        "Mod-Apache": ModApacheModel().run(n, concurrency=4).latencies_us,
        "Apache": ApacheCgiModel().run(n, concurrency=4).latencies_us,
        one: run_latency_experiment(1, n_requests=n),
        many: run_latency_experiment(big, n_requests=n),
    }
    med = {label: percentile(lats, 50) for label, lats in rows.items()}
    p90 = {label: percentile(lats, 90) for label, lats in rows.items()}
    paper_medians = {"Mod-Apache": 999, "Apache": 3374, one: 1875}
    if not quick:
        paper_medians[many] = 3414
    # Absolute calibration sanity: generous bands, the shape is the claim.
    bands = {"Mod-Apache": (850, 1200), "Apache": (2800, 4200), one: (1100, 2600)}
    comparisons = [
        comparison(
            f"median latency: {label}",
            paper_medians.get(label, "n/a (reduced grid)"),
            med[label],
            "us",
            ok=bands[label][0] <= med[label] <= bands[label][1] if label in bands else None,
        )
        for label in rows
    ]
    ordered = med["Mod-Apache"] < med[one] < med["Apache"]
    spread = (p90[one] / med[one]) / (p90["Apache"] / med["Apache"])
    # "OKWS with 1000 cached sessions has latencies which are just a bit
    # worse than those of Apache."  The calibration puts it somewhat below
    # Apache instead (EXPERIMENTS.md); the trend, 1000 sessions cost real
    # latency, must hold.  The quick grid's 200 sessions cannot show it.
    many_vs_one = med[many] / med[one]
    many_vs_apache = med[many] / med["Apache"]
    comparisons += [
        comparison(
            "median ordering: Mod-Apache < OKWS(1) < Apache", True, ordered, "", ok=ordered
        ),
        comparison(
            "p90/median spread, OKWS(1) / Apache (paper: smaller)",
            1.0,
            spread,
            "x",
            ok=spread < 1.0,
        ),
        comparison(
            f"median OKWS({big}) / OKWS(1) (> 1.2)",
            "n/a (reduced grid)" if quick else round(3414 / 1875, 4),
            many_vs_one,
            "x",
            ok=None if quick else many_vs_one > 1.2,
        ),
        comparison(
            f"median OKWS({big}) / Apache (> 0.55)",
            "n/a (reduced grid)" if quick else round(3414 / 3374, 4),
            many_vs_apache,
            "x",
            ok=None if quick else many_vs_apache > 0.55,
        ),
    ]
    # Sharding the same operating point across two kernels (DESIGN.md
    # §13): each shard sees half the users, so per-connection label scans
    # shrink and median latency should drop below the single-kernel row.
    sharded_lats = _sharded_latencies(big, n_requests=n, concurrency=4)
    comparisons.append(
        comparison(
            f"median latency: OKWS, {big} sessions (2 shards)",
            "n/a (sharded)",
            percentile(sharded_lats, 50),
            "us",
        )
    )
    return _document(
        "fig8",
        "Request latency at a concurrency of four",
        quick,
        {label: _series([50, 90], [med[label], p90[label]], "us") for label in rows},
        comparisons,
        _instrumented_echo_snapshot(20 if quick else 100),
        {"n_requests": n, "big_sessions": big, "series_x_axis": "percentile"},
    )


def _sharded_latencies(
    sessions: int, n_requests: int, concurrency: int = 4
) -> List[float]:
    """Per-request latency (µs) for the fig8 workload on a 2-shard cluster."""
    from repro.cluster import Cluster, ClusterConfig
    from repro.kernel.clock import CPU_HZ

    users = tuple((f"u{i}", f"pw{i}") for i in range(max(sessions, 1)))
    requests = [
        (f"u{i % max(sessions, 1)}", f"pw{i % max(sessions, 1)}", "echo", None, None)
        for i in range(n_requests)
    ]
    config = ClusterConfig(n_shards=2, users=users, concurrency=concurrency)
    with Cluster(config) as cluster:
        result = cluster.run_batch(requests)
    return [cycles / CPU_HZ * 1e6 for cycles in result.latencies_cycles]


def _durability_overhead() -> Dict[str, float]:
    """Simulated per-connection cost of the board write workload with the
    in-memory dbproxy vs the ``wal/v1``-backed store (DESIGN.md §14).

    Both runs are the same deterministic four-request workload; the delta
    is exactly the store's append billing (``APPEND_BASE_CYCLES`` plus
    the per-byte charge), so the series quantifies what durability costs
    on the Figure 9 cycle scale."""
    import os
    import tempfile

    from repro.store.crashcheck import BOARD_REQUESTS, run_board_workload

    out: Dict[str, float] = {}
    requests = len(BOARD_REQUESTS)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as scratch:
        for key, store_path in (
            ("memory_kcycles_conn", None),
            ("store_kcycles_conn", os.path.join(scratch, "wal.log")),
        ):
            site = run_board_workload(store_path)
            out[key] = site.kernel.clock.now / requests / 1000.0
    return out


def _crossing(xs, a_series, b_series) -> Optional[float]:
    """The x where series a passes series b (linear interpolation), or None."""
    for i in range(1, len(xs)):
        d_prev = a_series[i - 1] - b_series[i - 1]
        d_here = a_series[i] - b_series[i]
        if d_prev < 0 <= d_here:
            frac = -d_prev / (d_here - d_prev)
            return xs[i - 1] + frac * (xs[i] - xs[i - 1])
    return None


def run_fig9(quick: bool, sweep=None) -> Dict[str, Any]:
    """Figure 9: component cost breakdown and label growth per session."""
    from repro.kernel.clock import CATEGORIES, KERNEL_IPC, NETWORK, OKDB, OKWS
    from repro.sim.runner import build_echo_site

    if sweep is None:
        grid, points = _sweep(quick)
    else:
        grid, points = sweep

    durability = _durability_overhead()

    # Section 9.3's structural label-growth claims, on live kernel state.
    n = 50 if quick else 200
    site = build_echo_site(n, config=_OBS_CONFIG)
    snapshot = _instrumented_snapshot(
        site, [(f"u{i}", f"pw{i}", "echo", None, None) for i in range(n)]
    )
    procs = {p.name: p for p in site.kernel.processes.values()}

    series = {
        f"kcycles_{category}": _series(
            [p.sessions for p in points],
            [p.components_kcycles.get(category, 0.0) for p in points],
            "Kcycles/conn",
        )
        for category in CATEGORIES
    }
    xs = [p.sessions for p in points]
    ipc, net, okws, okdb = (
        [p.components_kcycles.get(category, 0.0) for p in points]
        for category in (KERNEL_IPC, NETWORK, OKWS, OKDB)
    )
    first = points[0].components_kcycles
    share_1 = (first[NETWORK] + first[OKWS]) / sum(first.values())
    # Per-connection authentication scans the whole user table.
    okdb_grows = okdb[-1] > okdb[0] * 3 or okdb[-1] - okdb[0] > 100
    ipc_grows = ipc[-1] > ipc[0]
    ipc_x_net = _crossing(xs, ipc, net)
    ipc_x_okws = _crossing(xs, ipc, okws)
    durable_costs_more = (
        durability["store_kcycles_conn"] > durability["memory_kcycles_conn"]
    )
    per_user = {
        name: len(getattr(procs[proc], label)) / n
        for name, proc, label in (
            ("idd", "idd", "send_label"),
            ("dbproxy", "ok-dbproxy", "send_label"),
            ("netd", "netd", "receive_label"),
            ("demux", "ok-demux", "send_label"),
        )
    }
    series["kcycles_total"] = _series(
        [p.sessions for p in points], [p.total_kcycles for p in points], "Kcycles/conn"
    )
    # Durability overhead (DESIGN.md §14): x=0 is the in-memory dbproxy,
    # x=1 the wal/v1-backed store, same board write workload.
    series["durability_kcycles_conn"] = _series(
        [0, 1],
        [durability["memory_kcycles_conn"], durability["store_kcycles_conn"]],
        "Kcycles/conn",
    )
    return _document(
        "fig9",
        "Average cost of Asbestos components per connection",
        quick,
        series,
        [
            comparison(
                "idd send-label entries per user",
                2.0,
                per_user["idd"],
                "entries",
                ok=per_user["idd"] >= 2.0,
            ),
            comparison(
                "ok-dbproxy send-label entries per user",
                2.0,
                per_user["dbproxy"],
                "entries",
                ok=per_user["dbproxy"] >= 2.0,
            ),
            comparison(
                "netd receive-label entries per user",
                1.0,
                per_user["netd"],
                "entries",
                ok=per_user["netd"] >= 1.0,
            ),
            comparison(
                "ok-demux send-label entries per session",
                3.0,
                per_user["demux"],
                "entries",
                ok=per_user["demux"] >= 1.0,
            ),
            comparison(
                "OKWS + Network share of Kcycles/conn at 1 session (> 0.6)",
                "n/a (most)",
                share_1,
                "",
                ok=share_1 > 0.6,
            ),
            comparison(
                "OKDB Kcycles/conn, last / first point (> 3x or > +100 K)",
                "n/a (quickly significant)",
                okdb[-1] / okdb[0],
                "x",
                ok=None if quick else okdb_grows,
            ),
            comparison(
                "kernel IPC cost grows with sessions", True, ipc_grows, "", ok=ipc_grows
            ),
            # The crossings lie beyond the quick grid.
            comparison(
                "sessions where Kernel IPC passes Network (2000-4500)",
                3000,
                ipc_x_net,
                "sessions",
                ok=None if quick else ipc_x_net is not None and 2000 <= ipc_x_net <= 4500,
            ),
            comparison(
                "sessions where Kernel IPC meets OKWS (none or >= 5500)",
                7500,
                ipc_x_okws,
                "sessions",
                ok=None if quick else ipc_x_okws is None or ipc_x_okws >= 5500,
            ),
            comparison(
                "wal/v1 store costs more than in-memory (durable writes)",
                True,
                durable_costs_more,
                "",
                ok=durable_costs_more,
            ),
        ],
        snapshot,
        {"grid": grid, "label_growth_users": n},
    )


def run_labelops(quick: bool, sweep=None) -> Dict[str, Any]:
    """The §5.6/§9.3 ablation: paper-mode label costs vs fused operations,
    plus the fast-path/full-merge split from the instrumented counters.

    *sweep* is the shared paper-mode session sweep of Figures 7 and 9; its
    points are reused when it covers this ablation's grid (each point is an
    independent simulation, so the numbers are the same)."""
    from repro.kernel.clock import KERNEL_IPC
    from repro.sim.runner import run_session_sweep

    grid = [50, 200] if quick else [100, 1000, 5000]
    shared = {p.sessions: p for p in sweep[1]} if sweep is not None else {}
    if all(count in shared for count in grid):
        paper_mode = [shared[count] for count in grid]
    else:
        paper_mode = run_session_sweep(grid, label_cost_mode="paper")
    fused_mode = run_session_sweep(grid, label_cost_mode="fused")
    growth_paper = (
        paper_mode[-1].components_kcycles[KERNEL_IPC]
        - paper_mode[0].components_kcycles[KERNEL_IPC]
    )
    growth_fused = (
        fused_mode[-1].components_kcycles[KERNEL_IPC]
        - fused_mode[0].components_kcycles[KERNEL_IPC]
    )
    snapshot = _instrumented_echo_snapshot(50 if quick else 200)
    label_ops = snapshot.get("label_ops", {})
    fast = label_ops.get("fast_path", 0)
    full = label_ops.get("full_merges", 0)
    return _document(
        "labelops",
        "Label-operation costs: 2005 implementation vs fused operations",
        quick,
        {
            "kernel_ipc_paper_mode": _series(
                grid,
                [p.components_kcycles[KERNEL_IPC] for p in paper_mode],
                "Kcycles/conn",
            ),
            "kernel_ipc_fused_mode": _series(
                grid,
                [p.components_kcycles[KERNEL_IPC] for p in fused_mode],
                "Kcycles/conn",
            ),
        },
        [
            comparison(
                "fused/paper IPC growth (paper: well under half)",
                0.5,
                (growth_fused / growth_paper) if growth_paper else 0.0,
                "x",
                ok=growth_fused < 0.5 * growth_paper,
            ),
            comparison(
                "label fast-path share of checked operations",
                "n/a",
                fast / (fast + full) if (fast + full) else 0.0,
                "",
            ),
        ],
        snapshot,
        {"grid": grid, "fast_path": fast, "full_merges": full},
    )


def _scale_point(
    n_shards: int, n_users: int, n_conns: int, concurrency: int
) -> Dict[str, Any]:
    """One cell of the scale grid: a full cluster run at *n_shards*.

    Sanitizer sampled at 1/64 (the production-shaped setting the sharded
    deployment runs with) — the configuration DESIGN.md §13 describes.  Cluster throughput is total
    connections over the *slowest* shard's simulated busy time: shards
    run on independent simulated CPUs, so host scheduling of the worker
    processes cannot perturb the measurement.
    """
    from repro.cluster import Cluster, ClusterConfig
    from repro.kernel.clock import CPU_HZ
    from repro.sim.stats import percentile

    users = tuple((f"u{i}", f"pw{i}") for i in range(n_users))
    requests = [
        (f"u{i % n_users}", f"pw{i % n_users}", "echo", None, {"length": 11})
        for i in range(n_conns)
    ]
    config = ClusterConfig(
        n_shards=n_shards,
        users=users,
        kernel=KernelConfig(sanitize=True),
        sanitize_sample=64,
        concurrency=concurrency,
    )
    with Cluster(config) as cluster:
        cluster.mark()
        result = cluster.run_batch(requests)
        routed = cluster.run_courier()
        report = cluster.report()
    latencies = [cycles / CPU_HZ * 1e6 for cycles in result.latencies_cycles]
    return {
        "shards": n_shards,
        "throughput": n_conns / (result.elapsed_cycles / CPU_HZ),
        "p50_us": percentile(latencies, 50),
        "p99_us": percentile(latencies, 99),
        "busy_cycles": list(result.busy_cycles),
        "elapsed_cycles": result.elapsed_cycles,
        "routed": routed + result.routed,
        "board_messages": len(report["board_log"]),
        "drops": report["drops"],
        "sanitizer_violations": report["sanitizer_violations"],
    }


def run_scale(quick: bool) -> Dict[str, Any]:
    """The ``--scale`` figure: sharded-cluster throughput and latency.

    Runs the same OKWS echo workload (every connection routed to the
    shard owning its user) at each shard count and reports throughput,
    latency percentiles, and speedup over the single-shard baseline.
    The speedup can exceed the shard count: per-connection label work
    scans O(users-per-kernel) entries, so halving a shard's user
    partition more than halves its per-connection cost.

    Cross-shard correctness rides along: every run includes the courier
    phase (real labels over ``wire/v1``, Figure 4 checks re-run on the
    receiving shard), and the document asserts the sampled sanitizer saw
    zero violations and that board deliveries and label-check drops are
    invariant in the shard count.
    """
    shard_grid = [1, 2] if quick else [1, 2, 4]
    n_users = 64 if quick else 500
    n_conns = 400 if quick else 10_000
    rows = [_scale_point(s, n_users, n_conns, concurrency=16) for s in shard_grid]
    base = rows[0]
    speedups = [row["throughput"] / base["throughput"] for row in rows]
    speedup_4 = speedups[2] if len(rows) > 2 else None
    violations = sum(row["sanitizer_violations"] or 0 for row in rows)
    boards = len({row["board_messages"] for row in rows}) == 1
    drops = len({row["drops"].get("label-check", 0) for row in rows}) == 1
    routed = rows[-1]["routed"]
    comparisons = [
        comparison(
            "cluster speedup at 2 shards (target 1.6x)", 1.6, speedups[1], "x", speedups[1] >= 1.6
        ),
        comparison(
            "cluster speedup at 4 shards (target 2.5x; super-linear because each "
            "shard's labels hold 1/n of the users)",
            2.5,
            speedup_4,
            "x",
            None if speedup_4 is None else speedup_4 >= 2.5,
        ),
        comparison("sampled sanitizer violations (1/64)", 0, violations, "count", violations == 0),
        comparison(
            "cross-shard wire messages routed (max shards)",
            "n/a (>0 expected)",
            routed,
            "count",
            routed > 0,
        ),
        comparison("board deliveries invariant in shard count", True, boards, "", boards),
        comparison("label-check drops invariant in shard count", True, drops, "", drops),
    ]
    return _document(
        "scale",
        "Sharded-cluster throughput scaling (repro.cluster)",
        quick,
        {
            "throughput": _series(
                shard_grid, [row["throughput"] for row in rows], "conn/s"
            ),
            "speedup": _series(shard_grid, speedups, "x"),
            "p50_latency": _series(
                shard_grid, [row["p50_us"] for row in rows], "us"
            ),
            "p99_latency": _series(
                shard_grid, [row["p99_us"] for row in rows], "us"
            ),
        },
        comparisons,
        None,
        {
            "n_users": n_users,
            "n_conns": n_conns,
            "concurrency": 16,
            "sanitize_sample": 64,
            "rows": rows,
        },
    )


# -- the runner ---------------------------------------------------------------------

_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "labelops": run_labelops,
    "scale": run_scale,
}


def run_bench(
    out_dir: str = ".",
    quick: bool = False,
    only: Optional[List[str]] = None,
    echo: Callable[[str], None] = print,
) -> List[str]:
    """Run the selected figures and write ``BENCH_<figure>.json`` files.

    Returns the list of paths written.  Raises ValueError if any produced
    document fails its own schema validation (a bug, not an input error).
    """
    selected = list(only) if only else list(DEFAULT_FIGURES)
    for figure in selected:
        if figure not in _RUNNERS:
            raise ValueError(
                f"unknown figure {figure!r}; choose from {', '.join(FIGURES)}"
            )
    os.makedirs(out_dir, exist_ok=True)
    # Figures 7 and 9 share the expensive session sweep; labelops reuses
    # its points when the sweep was run.
    sweep = None
    if "fig7" in selected or "fig9" in selected:
        echo(f"bench: running session sweep ({'quick' if quick else 'full'} grid)")
        sweep = _sweep(quick)
    paths: List[str] = []
    for figure in selected:
        echo(f"bench: {figure}")
        runner = _RUNNERS[figure]
        if figure in ("fig7", "fig9", "labelops"):
            doc = runner(quick, sweep=sweep)
        else:
            doc = runner(quick)
        problems = validate(doc)
        if problems:
            raise ValueError(f"{figure} produced an invalid document: {problems}")
        path = os.path.join(out_dir, f"BENCH_{figure}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
        echo(f"bench: wrote {path}")
    return paths


def failed_verdicts(paths: List[str]) -> List[str]:
    """The ``ok: false`` rows in the documents at *paths*, one
    ``"<file>: <row name>"`` string each (empty = every verdict holds)."""
    failed: List[str] = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        failed += [
            f"{os.path.basename(path)}: {row['name']}"
            for row in doc["comparisons"]
            if row.get("ok") is False
        ]
    return failed


def validate_files(paths: List[str]) -> Dict[str, List[str]]:
    """Validate existing BENCH_*.json files; returns {path: problems}."""
    results: Dict[str, List[str]] = {}
    for path in paths:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            results[path] = [str(err)]
            continue
        results[path] = validate(doc)
    return results


#: Series units where *lower* is better: costs and latencies.  The guard
#: flips to a ceiling for these — a slowdown fails, an improvement never
#: does.  Everything else (throughput, speedups, counts) keeps the floor.
COST_UNITS = frozenset({"Kcycles/conn", "us", "pages"})


def guard_files(
    baseline_paths: List[str],
    fresh_dir: str,
    tolerance: float = 0.02,
) -> List[str]:
    """Regression guard: compare committed baseline documents against the
    freshly generated ones in *fresh_dir*, point by point.

    The guard is one-sided in the *good* direction per series unit.  For
    benefit series (throughput ``conn/s``, speedup ``x``) every ``y``
    value must stay ``>= (1 - tolerance)`` of the baseline; values above
    never fail.  For cost series (:data:`COST_UNITS` — ``Kcycles/conn``,
    ``us``, ``pages``) the sense flips: fresh must stay ``<= (1 +
    tolerance)`` of the baseline, so pinning ``BENCH_labelops.json``
    actually catches a label-op slowdown instead of rewarding it.  The
    CI use is pinning fig7 throughput and the label-op costs so
    machinery riding along in the kernel hot path cannot quietly tax it.

    Returns a list of human-readable problems (empty = guard passes).
    """
    problems: List[str] = []
    for base_path in baseline_paths:
        name = os.path.basename(base_path)
        fresh_path = os.path.join(fresh_dir, name)
        try:
            with open(base_path) as fh:
                base = json.load(fh)
            with open(fresh_path) as fh:
                fresh = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            problems.append(f"{name}: {err}")
            continue
        for series in fresh.get("series", {}):
            if series not in base.get("series", {}):
                problems.append(f"{name}: fresh series {series!r} missing from baseline")
        for series, base_ser in base.get("series", {}).items():
            fresh_ser = fresh.get("series", {}).get(series)
            if fresh_ser is None:
                problems.append(f"{name}: series {series!r} missing from fresh run")
                continue
            if fresh_ser.get("x") != base_ser.get("x"):
                problems.append(f"{name}: series {series!r} x-grid changed")
                continue
            cost = base_ser.get("unit", "") in COST_UNITS
            for x, base_y, fresh_y in zip(
                base_ser.get("x", []), base_ser.get("y", []), fresh_ser.get("y", [])
            ):
                if not isinstance(base_y, (int, float)) or base_y <= 0:
                    continue
                if cost:
                    ceiling = base_y * (1.0 + tolerance)
                    if fresh_y > ceiling:
                        problems.append(
                            f"{name}: {series}@x={x}: {fresh_y:.4f} > "
                            f"{ceiling:.4f} (baseline {base_y:.4f} + "
                            f"{tolerance:.0%})"
                        )
                else:
                    floor = base_y * (1.0 - tolerance)
                    if fresh_y < floor:
                        problems.append(
                            f"{name}: {series}@x={x}: {fresh_y:.4f} < "
                            f"{floor:.4f} (baseline {base_y:.4f} - "
                            f"{tolerance:.0%})"
                        )
    return problems
