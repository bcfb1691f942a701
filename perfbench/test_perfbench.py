"""Self-checks of the benchmark: seeded inputs, determinism of everything
but host time, fidelity to the Figure 7 sweep, the oracles, and the
``BENCHMARK.json`` contract.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.kernel.clock import CPU_HZ  # noqa: E402
from repro.kernel.config import KernelConfig  # noqa: E402
from repro.sim.runner import build_echo_site, run_session_sweep  # noqa: E402
from repro.sim.workload import HttpClient, HttpResponse  # noqa: E402

import harness  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Phase,
    ProfileOracle,
    check_echo,
    measure_site,
    waves,
)

#: Small instances of each workload, so the suite runs in about a minute.
SMALL = {
    "echo_warm": {"sessions": 48},
    "profile_mix": {"users": 32},
    "cluster_courier": {"users": 64},
}

#: Metrics that must repeat exactly for a given seed.
EXACT_E2E = ("ok_ratio", "sim_kcycles_per_conn", "sim_latency_us_p50",
             "sim_latency_us_p99", "sim_pages_per_session")


def _host_timed(name: str) -> bool:
    unit = harness.PER_LAYER[name]
    return unit in ("s", "ms") or name.endswith("self_share") or name == "trace.overhead_ratio"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_list_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name](**SMALL[name])
    assert workload.plan(7, 3) == workload.plan(7, 3)
    assert workload.plan(7, 3) != workload.plan(8, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_every_simulated_figure_and_count(name, tmp_path):
    runs = [harness.run(name, 5, 0.1, False, str(tmp_path), sizes=SMALL[name]) for _ in range(2)]
    for key in EXACT_E2E:
        assert runs[0]["metrics"][key] == runs[1]["metrics"][key], key
    assert runs[0]["attempted"] == runs[1]["attempted"]
    assert runs[0]["failed"] == runs[1]["failed"]
    assert runs[0]["failures"] == runs[1]["failures"]
    traced = [harness.run(name, 5, 0.1, True, str(tmp_path), sizes=SMALL[name]) for _ in range(2)]
    for key in harness.PER_LAYER:
        if not _host_timed(key):
            assert traced[0]["metrics"][key] == traced[1]["metrics"][key], key


def test_command_repeats_across_processes_and_hash_seeds():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "profile_mix",
             "--seed", "3", "--seconds", "0.5", "--trace", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = outputs
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for key in EXACT_E2E:
        assert first["metrics"][key] == second["metrics"][key], key


def test_echo_phase_reproduces_the_figure_7_sweep():
    sessions, rounds = 64, 4
    (point,) = run_session_sweep([sessions], rounds=rounds, concurrency=16, config=KernelConfig())
    requests = [
        (f"u{i}", f"pw{i}", "echo", None, {"length": 11})
        for _ in range(rounds)
        for i in range(sessions)
    ]
    site = build_echo_site(sessions, config=KernelConfig())
    phase = Phase()
    measure_site(site, HttpClient(site), waves(requests), check_echo, phase, None, None)
    assert phase.ok == phase.requests == point.connections
    assert harness._sim_kcycles(phase) == point.total_kcycles
    assert [c / CPU_HZ * 1e6 for c in phase.latencies] == point.latencies_us


def _response(payload):
    return HttpResponse(conn_id=1, payload=payload, open_cycles=0, done_cycles=1)


def test_profile_oracle_fails_a_leak_and_a_lost_write():
    from repro.okws.services import HEADER

    oracle = ProfileOracle(["u0", "u1", "u2"], ["u0"])
    oracle.public["u0"] = "u0:seed"
    set_u1 = ("u1", "pw1", "profile", "u1:1", {"op": "set"})
    assert oracle.check(set_u1, _response({"headers": HEADER, "body": "profile saved"})) is None
    get_u1 = ("u1", "pw1", "profile", None, {"op": "get"})
    stale = {"headers": HEADER, "body": {"u0": "u0:seed", "u1": "u1:0"}}
    assert oracle.check(get_u1, _response(stale)) == "wrong body"
    assert not oracle.leaks
    get_u2 = ("u2", "pw2", "profile", None, {"op": "get"})
    leaked = {"headers": HEADER, "body": {"u0": "u0:seed", "u1": "u1:1"}}
    oracle.check(get_u2, _response(leaked))
    assert oracle.leaks
    failed_set = ("u2", "pw2", "profile", "u2:5", {"op": "set"})
    assert oracle.check(failed_set, _response({"status": 503, "error": "write failed: timed out"}))
    assert oracle.own["u2"] == {None, "u2:5"}


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_command_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "echo_warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
