"""Bill-identity fence: the simulated bill of a small echo site is pinned
exactly, in both label cost modes.

Host-speed work on the label engine (chunk routing, cached bounds, the
cost model's data layout) must not move a single counted entry or cycle:
these totals are what Figures 7 and 9 are made of.  The figures below are
those the whole-directory ``sparse_update`` and the object-based cost
model produced; a change that shifts them changes the paper figures and
must say so by updating this file.
"""

import dataclasses

import pytest

from repro.kernel.config import KernelConfig
from repro.sim.runner import build_echo_site
from repro.sim.workload import HttpClient

SESSIONS = 64
WARM_ROUNDS = 2
CONCURRENCY = 16

LABEL_STATS = {
    "entries_scanned": 96794,
    "chunks_skipped": 3805,
    "labels_allocated": 2659,
    "chunks_allocated": 2747,
    "chunks_shared": 17817,
    "operations": 15632,
    "fast_path": 15568,
    "full_merges": 64,
}

CYCLES = {
    "paper": {
        "Kernel IPC": 39932693,
        "Network": 118848000,
        "OKDB": 6632800,
        "OKWS": 97884160,
        "Other": 17359600,
    },
    "fused": {
        "Kernel IPC": 42732699,
        "Network": 118848000,
        "OKDB": 6632800,
        "OKWS": 97884160,
        "Other": 17359600,
    },
}


@pytest.mark.parametrize("mode", ["paper", "fused"])
def test_echo_site_bill_is_pinned(mode):
    # An explicit config: REPRO_* variables must not change the plain path.
    site = build_echo_site(SESSIONS, config=KernelConfig(label_cost_mode=mode))
    client = HttpClient(site)
    requests = [(f"u{i}", f"pw{i}", "echo", None, {"length": 11}) for i in range(SESSIONS)]
    # One cold round creates the sessions; the warm rounds resume them.
    for _ in range(1 + WARM_ROUNDS):
        responses = client.run_batch(requests, concurrency=CONCURRENCY)
        assert [r.payload.get("body") for r in responses] == ["x" * 11] * SESSIONS
    kernel = site.kernel
    assert dataclasses.asdict(kernel.label_stats) == LABEL_STATS
    assert kernel.clock.by_category == CYCLES[mode]
    assert kernel.clock.now == sum(CYCLES[mode].values())
