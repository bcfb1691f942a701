"""Cross-shard differential suite: shard count must not change semantics.

The same OKWS workload runs at ``n_shards=1`` (the in-process identity
path) and at 2 and 4 shards (real OS worker processes, cross-shard
courier traffic over ``wire/v1``).  Everything a user of the system can
observe must be invariant: per-session outcomes in request order, the
set of board-delivered digests, and the drop accounting — the doomed
``V = {0}`` couriers are rejected by Figure 4 requirement (1) *wherever*
the destination board lives, so ``label-check`` totals match even
though at 2+ shards some of those checks run on a different OS process
against labels decoded from wire/v1.

The per-shard sampled sanitizer (1/16 here) rides along and must stay
silent: decoded cross-shard labels go through the same differential
cross-check as home-grown ones.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.kernel.config import KernelConfig

USERS = tuple((f"user{i}", f"pw{i}") for i in range(8))
REQUESTS = [
    (f"user{i % len(USERS)}", f"pw{i % len(USERS)}", "echo", None, {"length": 7})
    for i in range(24)
]


def _run(n_shards):
    config = ClusterConfig(
        n_shards=n_shards,
        users=USERS,
        kernel=KernelConfig(sanitize=True),
        sanitize_sample=16,
    )
    with Cluster(config) as cluster:
        cluster.mark()
        result = cluster.run_batch(REQUESTS)
        routed = cluster.run_courier()
        report = cluster.report()
    return {
        "outcomes": [(user, status, body) for user, status, body, _ in result.outcomes],
        "board": sorted(
            (p["user"], p["seq"]) for p in report["board_log"]
        ),
        "drops": report["drops"],
        "violations": report["sanitizer_violations"],
        "routed": routed,
        "busy": result.busy_cycles,
    }


@pytest.fixture(scope="module")
def baseline():
    return _run(1)


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_run_matches_single_shard(baseline, n_shards):
    sharded = _run(n_shards)
    assert sharded["outcomes"] == baseline["outcomes"]
    assert sharded["board"] == baseline["board"]
    assert sharded["drops"] == baseline["drops"]
    assert sharded["violations"] == 0 and baseline["violations"] == 0
    # Real cross-shard traffic happened (the courier ring guarantees it
    # whenever two shards both own users) and the wire was exercised.
    assert sharded["routed"] > 0
    assert baseline["routed"] == 0


def test_sharding_reduces_the_critical_path():
    single, double = _run(1), _run(2)
    # Cluster time is the slowest shard's simulated busy time; splitting
    # the users must beat the single kernel (superlinear per-connection
    # label costs make this comfortably true even with CRC imbalance).
    assert max(double["busy"]) < max(single["busy"])


def test_doomed_couriers_drop_on_the_receiving_shard():
    report = _run(2)
    # len(USERS)//2 doomed messages were sent; every one must be dropped
    # by the delivery-side label check, never delivered to a board.
    assert report["drops"].get("label-check", 0) == len(USERS) // 2
    # Exactly one digest per user reached a board — had any doomed
    # variant been delivered, its (user, seq) would duplicate an entry.
    assert len(report["board"]) == len(USERS)
    assert len(set(report["board"])) == len(USERS)
