#!/usr/bin/env python3
"""CI gate for the multi-fidelity network ladder (DESIGN.md §12).

Usage: check_fidelity.py BENCH_sweep.json [MIN_SPEEDUP] [MAX_LATENCY_MAPE]

Consumes the `bench_sweep.fidelity.*` metrics written by
bench_sweep_scaling's fidelity-ladder section (a fault-free design-space
sweep run twice: cycle-accurate everywhere vs Auto — analytical
exploration with cycle-accurate frontier confirmation) and enforces the
ladder's contract:

  * speedup_auto >= MIN_SPEEDUP (default 5.0) — the throughput the
    analytical band was built to buy.  Wall-seconds are machine-specific
    but both sweeps ran on the same box in the same process, so the ratio
    is the portable signal (same reasoning as check_sweep_overhead.py).
  * latency_mape <= MAX_LATENCY_MAPE (default 0.15) — mean abs latency
    error of the analytical band across the explored points, the
    fault-free half of the accuracy contract.  (Faulty-config accuracy is
    enforced at its committed — wider — tolerance by
    tests/test_fidelity_xval.cpp, which runs in tier-1.)
  * frontier_match == 1 — Auto's confirmed EDP argmin is the
    cycle-accurate sweep's argmin, i.e. exploring analytically did not
    change the answer, only the cost of finding it.
  * counters_consistent == 1 — the NetworkEvaluator's per-band hit/miss
    counters sum to the totals and both bands saw traffic; a failure here
    means evaluations are escaping their band's accounting.
  * cycle_sims_cycle / cycle_sims_auto >= MIN_CYCLE_SIM_RATIO (5.0) — the
    cycle-accurate simulations the cycle-accurate sweep ran, over those
    Auto ran (each sweep's evaluator misses in that band).  A count, so it
    reads the same on any runner: the hardware-independent companion of
    speedup_auto, checked beside its wall-time floor, not instead of it.
"""

import json
import sys

PREFIX = "bench_sweep.fidelity."
MIN_CYCLE_SIM_RATIO = 5.0


def main(argv):
    if len(argv) < 2:
        print(
            "usage: check_fidelity.py BENCH_sweep.json"
            " [MIN_SPEEDUP] [MAX_LATENCY_MAPE]",
            file=sys.stderr,
        )
        sys.exit(1)
    min_speedup = float(argv[2]) if len(argv) > 2 else 5.0
    max_latency_mape = float(argv[3]) if len(argv) > 3 else 0.15

    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    def metric(name):
        key = PREFIX + name
        if key not in doc:
            print(f"check_fidelity: FAIL: {argv[1]} has no {key}",
                  file=sys.stderr)
            sys.exit(1)
        return float(doc[key])

    speedup = metric("speedup_auto")
    latency_mape = metric("latency_mape")
    frontier_match = metric("frontier_match")
    counters_consistent = metric("counters_consistent")
    points = metric("points")
    cycle_sims_cycle = metric("cycle_sims_cycle")
    cycle_sims_auto = metric("cycle_sims_auto")
    sim_ratio = (
        cycle_sims_cycle / cycle_sims_auto if cycle_sims_auto > 0 else 0.0
    )

    print(
        f"check_fidelity: {points:.0f} design points, "
        f"Auto speedup {speedup:.2f}x (floor {min_speedup:.2f}x), "
        f"latency MAPE {latency_mape:.2%} (cap {max_latency_mape:.2%}), "
        f"frontier_match={frontier_match:.0f}, "
        f"counters_consistent={counters_consistent:.0f}, "
        f"cycle-accurate simulations {cycle_sims_cycle:.0f} vs "
        f"{cycle_sims_auto:.0f} ({sim_ratio:.2f}x, "
        f"floor {MIN_CYCLE_SIM_RATIO:.2f}x)"
    )

    failures = []
    if speedup < min_speedup:
        failures.append(
            f"Auto speedup {speedup:.2f}x below floor {min_speedup:.2f}x"
        )
    if latency_mape > max_latency_mape:
        failures.append(
            f"latency MAPE {latency_mape:.2%} above cap "
            f"{max_latency_mape:.2%}"
        )
    if frontier_match != 1.0:
        failures.append("Auto frontier does not match the cycle-accurate one")
    if counters_consistent != 1.0:
        failures.append("per-band evaluator counters are inconsistent")
    if sim_ratio < MIN_CYCLE_SIM_RATIO:
        failures.append(
            f"Auto avoided too few cycle-accurate simulations: "
            f"{sim_ratio:.2f}x below floor {MIN_CYCLE_SIM_RATIO:.2f}x"
        )

    if failures:
        for f_msg in failures:
            print(f"check_fidelity: FAIL: {f_msg}", file=sys.stderr)
        sys.exit(1)
    print("check_fidelity: OK")


if __name__ == "__main__":
    main(sys.argv)
