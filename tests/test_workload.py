"""The workload generator, the Wire boundary object, and the experiment
drivers' small moving parts."""

import pytest

from repro.okws import ServiceConfig, launch
from repro.okws.services import echo_handler, session_cache_handler
from repro.servers.netd import Wire
from repro.sim.runner import (
    run_latency_experiment,
    run_memory_experiment,
    run_session_sweep,
)
from repro.sim.stats import Series
from repro.sim.workload import HttpClient, HttpResponse


def test_wire_buffers_and_stamps():
    wire = Wire()
    wire.deliver(1, b"a", now=100)
    wire.deliver(1, b"b", now=200)
    wire.deliver(2, b"c", now=300)
    assert wire.take(1) == [b"a", b"b"]
    assert wire.take(1) == []           # drained
    assert wire.stamps[1] == [100, 200]
    wire.close(2)
    assert wire.closed[2] is True


def test_http_response_properties():
    ok = HttpResponse(conn_id=1, payload={"body": "x"}, open_cycles=100, done_cycles=400)
    assert ok.ok and ok.body == "x" and ok.latency_cycles == 300
    forbidden = HttpResponse(conn_id=2, payload={"status": 403}, open_cycles=0, done_cycles=1)
    assert not forbidden.ok
    dead = HttpResponse(conn_id=3, payload=None, open_cycles=0, done_cycles=0)
    assert dead.body is None


@pytest.fixture(scope="module")
def site():
    return launch(
        services=[
            ServiceConfig("echo", echo_handler),
            ServiceConfig("cache", session_cache_handler),
        ],
        users=[(f"u{i}", f"pw{i}") for i in range(8)],
    )


def test_request_assigns_fresh_conn_ids(site):
    client = HttpClient(site)
    r1 = client.request("u0", "pw0", "echo")
    r2 = client.request("u1", "pw1", "echo")
    assert r1.conn_id != r2.conn_id
    assert r1.latency_cycles > 0


def test_run_batch_returns_one_response_per_request(site):
    client = HttpClient(site)
    requests = [(f"u{i % 8}", f"pw{i % 8}", "echo", None, {"length": i % 5 + 1}) for i in range(24)]
    responses = client.run_batch(requests, concurrency=7)
    assert len(responses) == 24
    assert all(r.ok for r in responses)


def test_batch_sessions_accumulate(site):
    client = HttpClient(site)
    client.run_batch(
        [(f"u{i}", f"pw{i}", "cache", b"x", None) for i in range(8)], concurrency=4
    )
    worker = next(p for p in site.kernel.processes.values() if p.name == "worker-cache")
    assert len(worker.event_processes) == 8


def test_run_session_sweep_point_shape():
    points = run_session_sweep([2], rounds=2, min_connections=4)
    point = points[0]
    assert point.sessions == 2
    assert point.connections >= 4
    assert point.throughput > 0
    assert set(point.components_kcycles) >= {"Network", "OKWS", "Kernel IPC"}
    assert abs(sum(point.components_kcycles.values()) - point.total_kcycles) < 1


def test_run_memory_experiment_monotonic():
    points = run_memory_experiment([0, 50])
    assert points[1].total_pages > points[0].total_pages
    assert points[1].user_pages > points[0].user_pages
    # Labels, not EP structs, dominate a cached session's kernel bytes
    # (Section 9.1: "event processes, labels, and handles").
    assert points[1].breakdown["label_bytes"] > points[1].breakdown["ep_bytes"]


def test_run_latency_experiment_returns_microseconds():
    latencies = run_latency_experiment(1, n_requests=12, concurrency=4)
    assert len(latencies) == 12
    assert all(100 < l < 100_000 for l in latencies)


def test_series_formatting():
    series = Series("test", [1, 2], [3.0, 4.0])
    text = series.format()
    assert "test" in text and "3.00" in text
    series.add(5, 6.0)
    assert series.xs[-1] == 5
