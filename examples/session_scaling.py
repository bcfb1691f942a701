#!/usr/bin/env python3
"""A miniature of the paper's evaluation (Section 9), live.

Boots OKWS, creates a few hundred cached sessions, and prints the
quantities the paper measures: memory per cached session (Figure 6),
throughput (Figure 7), and the per-connection cycle breakdown by
component (Figure 9).  ``python -m repro bench`` regenerates the
full-scale figures, with a verdict on each of the paper's shape claims.

Run:  python examples/session_scaling.py
"""

from repro.sim.runner import (
    run_memory_experiment,
    run_session_sweep,
)


def main() -> None:
    print("== memory per cached session (Figure 6 in miniature) ==")
    points = run_memory_experiment([0, 100, 300])
    for p in points:
        print(f"  {p.sessions:>4} sessions: {p.total_pages:8.1f} pages total")
    slope = (points[-1].total_pages - points[0].total_pages) / points[-1].sessions
    print(f"  -> {slope:.2f} pages per cached session (paper: ~1.5)")

    print("\n== worst case: sessions that never ep_clean ==")
    active = run_memory_experiment([100, 300], active=True)
    slope = (active[-1].total_pages - active[0].total_pages) / 200
    print(f"  -> {slope:.2f} pages per active session (paper: 1.5 + 8)")

    print("\n== throughput and component costs vs cached sessions ==")
    print(f"  {'sessions':>8} {'conn/s':>8} {'total':>8}  per-connection Kcycles by component")
    for p in run_session_sweep([1, 100, 400]):
        comps = ", ".join(
            f"{k}={v:.0f}" for k, v in sorted(p.components_kcycles.items())
        )
        print(f"  {p.sessions:>8} {p.throughput:>8.0f} {p.total_kcycles:>7.0f}K  {comps}")
    print("\nAt full scale (python -m repro bench, BENCH_fig9.json) the label and")
    print("database costs grow linearly until kernel IPC overtakes the network")
    print("stack — the paper's Figure 9 in motion.")


if __name__ == "__main__":
    main()
