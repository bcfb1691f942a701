"""End-to-end experiment drivers for the paper's evaluation (Section 9).

One function per experiment family:

- :func:`run_memory_experiment` — Figure 6: total memory (pages) after
  creating N cached or active web sessions.
- :func:`run_fork_vs_ep_experiment` — Section 6's motivation: per-session
  memory and creation cost of event processes vs forked processes.
- :func:`run_session_sweep` — Figures 7 and 9: throughput and the
  per-connection component cycle breakdown as the number of cached
  sessions varies (each user connects to its session exactly 4 times,
  matching Section 9.2.1's workload).
- :func:`run_latency_experiment` — Figure 8: request latencies at
  concurrency 4 for a given number of cached sessions.

Results are plain dataclasses so ``python -m repro bench`` can write the
paper's rows/series and the tests can assert on shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.labels import Label
from repro.kernel.clock import CPU_HZ
from repro.kernel.config import KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.memory import PAGE_SIZE
from repro.kernel.syscalls import (
    EpCheckpoint,
    EpClean,
    EpYield,
    NewPort,
    Recv,
    Send,
    SetPortLabel,
    Spawn,
)
from repro.okws.launcher import OkwsSite, ServiceConfig, launch
from repro.okws.services import echo_handler, session_cache_handler
from repro.sim.workload import HttpClient


def _users(n: int) -> List[Tuple[str, str]]:
    return [(f"u{i}", f"pw{i}") for i in range(n)]


def build_echo_site(
    n_users: int,
    label_cost_mode: str = "paper",
    config: Optional[KernelConfig] = None,
) -> OkwsSite:
    """An OKWS instance running the Section 9.2 echo service.

    Pass *config* to control every kernel option (observability included);
    *label_cost_mode* is honoured only when *config* is not given.
    """
    if config is None:
        config = KernelConfig.from_env(label_cost_mode=label_cost_mode)
    kernel = Kernel(config=config)
    return launch(
        kernel=kernel,
        services=[ServiceConfig("echo", echo_handler)],
        users=_users(n_users),
    )


def build_cache_site(
    n_users: int,
    no_clean: bool = False,
    config: Optional[KernelConfig] = None,
) -> OkwsSite:
    """An OKWS instance running the Section 9.1 session-cache service."""
    kernel = Kernel(config=config) if config is not None else None
    return launch(
        kernel=kernel,
        services=[ServiceConfig("cache", session_cache_handler, no_clean=no_clean)],
        users=_users(n_users),
    )


# -- Figure 6 -----------------------------------------------------------------------


@dataclass
class MemoryPoint:
    sessions: int
    total_pages: float
    user_pages: int
    kernel_bytes: int
    breakdown: Dict[str, int] = field(default_factory=dict)


def run_memory_experiment(
    session_counts: List[int],
    active: bool = False,
    concurrency: int = 16,
    config: Optional[KernelConfig] = None,
) -> List[MemoryPoint]:
    """Create N sessions (one connection each) and measure total memory.

    ``active=False`` measures *cached* sessions: the worker ep_cleans down
    to its session page before yielding.  ``active=True`` measures the
    worst case: the worker never cleans, so every session retains its
    stack, message-queue and scratch pages (Section 9.1).
    """
    points: List[MemoryPoint] = []
    for count in session_counts:
        site = build_cache_site(max(count, 1), no_clean=active, config=config)
        client = HttpClient(site)
        baseline = site.kernel.memory_report()
        requests = [
            (f"u{i}", f"pw{i}", "cache", b"s" * 900, None) for i in range(count)
        ]
        client.run_batch(requests, concurrency=concurrency)
        report = site.kernel.memory_report()
        points.append(
            MemoryPoint(
                sessions=count,
                total_pages=report["total_bytes"] / PAGE_SIZE,
                user_pages=report["user_pages"],
                kernel_bytes=report["kernel_bytes"],
                breakdown={
                    key: report[key]
                    for key in (
                        "process_bytes",
                        "ep_bytes",
                        "port_bytes",
                        "label_bytes",
                        "vnode_bytes",
                    )
                },
            )
        )
    return points


@dataclass
class ForkVsEpResult:
    sessions: int
    ep_pages: float          # pages per session, one event process each
    fork_pages: float        # pages per session, one forked process each
    ep_cycles: float         # creation cycles per session
    fork_cycles: float
    ep_processes: int        # schedulable processes left in each kernel
    fork_processes: int


# Size of the fork-vs-EP ablation: user sessions, and state bytes per session.
FORK_VS_EP_SESSIONS = 300
FORK_VS_EP_SESSION_BYTES = 1000


def run_fork_vs_ep_experiment() -> ForkVsEpResult:
    """Section 6's motivation as an ablation: the same per-user session
    state held by one event process per user vs one forked process per
    user (the "resource-heavy" pre-Asbestos design), on the same kernel.
    """
    # Event processes: one base process, one EP per user session.
    ep_kernel = Kernel()

    def event_body(ectx, msg):
        ectx.mem.store("session", b"s" * FORK_VS_EP_SESSION_BYTES)
        yield Send(msg.payload["reply"], {"ok": True})
        yield EpClean(keep=("session",))
        yield EpYield()

    def base(ctx):
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        ctx.env["port"] = port
        yield EpCheckpoint(event_body)

    def collector(ctx):
        reply = yield NewPort()
        yield SetPortLabel(reply, Label.top())
        ctx.env["reply"] = reply
        while True:
            yield Recv(port=reply)

    worker = ep_kernel.spawn(base, "worker")
    coll = ep_kernel.spawn(collector, "collector")
    ep_kernel.run()
    ep_baseline = ep_kernel.memory_report()["total_bytes"]
    ep_start = ep_kernel.clock.now
    for _ in range(FORK_VS_EP_SESSIONS):
        ep_kernel.inject(worker.env["port"], {"reply": coll.env["reply"]})
    ep_kernel.run()

    # Forked processes: one full process per user session.
    fork_kernel = Kernel()

    def session_proc(ctx):
        ctx.mem.store("session", b"s" * FORK_VS_EP_SESSION_BYTES)
        port = yield NewPort()
        yield SetPortLabel(port, Label.top())
        yield Send(ctx.env["reply"], {"ok": True})
        while True:
            yield Recv(port=port)

    def forker(ctx):
        reply = yield NewPort()
        yield SetPortLabel(reply, Label.top())
        for i in range(FORK_VS_EP_SESSIONS):
            yield Spawn(session_proc, name=f"session{i}", env={"reply": reply})
            yield Recv(port=reply)

    fork_baseline = fork_kernel.memory_report()["total_bytes"]
    fork_start = fork_kernel.clock.now
    fork_kernel.spawn(forker, "forker")
    fork_kernel.run()

    def per_session_pages(kernel, baseline):
        grown = kernel.memory_report()["total_bytes"] - baseline
        return grown / FORK_VS_EP_SESSIONS / PAGE_SIZE

    return ForkVsEpResult(
        sessions=FORK_VS_EP_SESSIONS,
        ep_pages=per_session_pages(ep_kernel, ep_baseline),
        fork_pages=per_session_pages(fork_kernel, fork_baseline),
        ep_cycles=(ep_kernel.clock.now - ep_start) / FORK_VS_EP_SESSIONS,
        fork_cycles=(fork_kernel.clock.now - fork_start) / FORK_VS_EP_SESSIONS,
        ep_processes=len(ep_kernel.processes),
        fork_processes=len(fork_kernel.processes),
    )


# -- Figures 7 and 9 -----------------------------------------------------------------


@dataclass
class SweepPoint:
    sessions: int
    connections: int
    throughput: float                      # completed connections/second
    components_kcycles: Dict[str, float]   # per-connection, by category
    total_kcycles: float
    latencies_us: List[float] = field(default_factory=list)


def run_session_sweep(
    session_counts: List[int],
    rounds: int = 4,
    concurrency: int = 16,
    min_connections: int = 64,
    label_cost_mode: str = "paper",
    config: Optional[KernelConfig] = None,
) -> List[SweepPoint]:
    """The Section 9.2.1 throughput experiment.

    For each point, S users each connect to their session *rounds* times
    (round-robin, so sessions are created in round one and resumed in the
    rest).  Throughput and component costs are measured over the entire
    run, matching the paper ("the throughput results thus contain data
    both for forwarding messages to existing event processes and for
    creating new event processes").
    """
    points: List[SweepPoint] = []
    for count in session_counts:
        site = build_echo_site(count, label_cost_mode=label_cost_mode, config=config)
        client = HttpClient(site)
        effective_rounds = max(rounds, -(-min_connections // count))
        requests = [
            (f"u{i}", f"pw{i}", "echo", None, {"length": 11})
            for _ in range(effective_rounds)
            for i in range(count)
        ]
        snap = site.kernel.clock.snapshot()
        responses = client.run_batch(requests, concurrency=concurrency)
        delta = site.kernel.clock.delta(snap)
        n = len(requests)
        total = sum(delta.values())
        points.append(
            SweepPoint(
                sessions=count,
                connections=n,
                throughput=n / (total / CPU_HZ),
                components_kcycles={k: v / n / 1000 for k, v in delta.items()},
                total_kcycles=total / n / 1000,
                latencies_us=[r.latency_cycles / CPU_HZ * 1e6 for r in responses],
            )
        )
    return points


# -- Figure 8 ----------------------------------------------------------------------------


@dataclass
class LatencyResult:
    label: str
    median_us: float
    p90_us: float


def run_latency_experiment(
    sessions: int,
    n_requests: int = 400,
    concurrency: int = 4,
    config: Optional[KernelConfig] = None,
) -> List[float]:
    """Per-request latencies for OKWS with *sessions* cached sessions, at
    the paper's measurement concurrency of four."""
    site = build_echo_site(max(sessions, 1), config=config)
    client = HttpClient(site)
    # Pre-create the cached sessions.
    warmup = [(f"u{i}", f"pw{i}", "echo", None, None) for i in range(sessions)]
    client.run_batch(warmup, concurrency=16)
    # Measure over a closed loop of existing sessions.
    requests = [
        (f"u{i % max(sessions, 1)}", f"pw{i % max(sessions, 1)}", "echo", None, None)
        for i in range(n_requests)
    ]
    responses = client.run_batch(requests, concurrency=concurrency)
    return [r.latency_cycles / CPU_HZ * 1e6 for r in responses]
