#!/usr/bin/env python3
"""CI gate for the cluster serving tier (DESIGN.md §13).

Usage: check_cluster.py BENCH_cluster.json [MIN_JOBS_PER_SEC]

Consumes the `bench_cluster.*` metrics written by bench_cluster_serving and
enforces the serving tier's contract:

  * schema — every gated metric is present (a silently skipped section
    would otherwise pass vacuously).
  * determinism_identical == 1 — the headline cell replayed on a
    1-worker-evaluated and an 8-worker-evaluated service matrix produced
    bit-identical SLA percentiles, counters and completion-order digest.
    This is the ISSUE acceptance gate: worker threads only parallelize the
    batched matrix evaluation, never the serving event loop.
  * quantiles_monotone == 1 — p50 <= p99 <= p999 in every sweep cell with
    completions (all three are read off one log-bucketed latency sketch, so
    a crossing means a streaming-stats regression).
  * quantile_rel_err <= 0.005 — on the observability cell, the sketch's
    fleet p99 and p999 each lie within the sketch's relative error alpha
    (QuantileSketch::kRelativeError) of the exact nearest-rank thresholds
    the observer computes over the same completions.
  * admitted_jobs > 0 — the sweep actually served work.
  * jobs_per_sec >= MIN_JOBS_PER_SEC (default 10000) — serving throughput
    of the headline cell, wall-clock over completed jobs with a warm
    service matrix.  The floor is deliberately ~2 orders below a healthy
    run (millions/s): it catches an accidental simulator call inside the
    per-arrival path, not machine speed.

Also consumes the `bench_cluster.availability.*` section written by
bench_cluster_availability (DESIGN.md §14) into the same file:

  * availability.cells > 0 — the fault sweep ran.
  * availability.zero_fault_identity == 1 — a retry-enabled config with an
    empty fault plan replayed the fault-free serving loop bit-for-bit
    (digest, counters, latency/energy sums).
  * availability.goodput_monotone == 1 — within each (policy, fleet)
    column, goodput never rises with the fault rate (fault plans are
    superset-thinned, so this is structural).
  * availability.availability_monotone == 1 — down-time at the shared plan
    horizon grows exactly with the fault rate.
"""

import json
import sys

PREFIX = "bench_cluster."
# QuantileSketch::kRelativeError, plus rounding slack.
MAX_QUANTILE_REL_ERR = 0.005 + 1e-9


def main(argv):
    if len(argv) < 2:
        print(
            "usage: check_cluster.py BENCH_cluster.json [MIN_JOBS_PER_SEC]",
            file=sys.stderr,
        )
        sys.exit(1)
    min_jobs_per_sec = float(argv[2]) if len(argv) > 2 else 10_000.0

    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    def metric(name):
        key = PREFIX + name
        if key not in doc:
            print(f"check_cluster: FAIL: {argv[1]} has no {key}",
                  file=sys.stderr)
            sys.exit(1)
        return float(doc[key])

    cells = metric("config.cells")
    identical = metric("check.determinism_identical")
    monotone = metric("check.quantiles_monotone")
    quantile_err = metric("check.quantile_rel_err")
    admitted = metric("check.admitted_jobs")
    jobs = metric("throughput.jobs")
    jobs_per_sec = metric("throughput.jobs_per_sec")
    spot_err = metric("spotcheck.exec_rel_err")
    avail_cells = metric("availability.cells")
    zero_fault = metric("availability.zero_fault_identity")
    goodput_mono = metric("availability.goodput_monotone")
    avail_mono = metric("availability.availability_monotone")

    print(
        f"check_cluster: {cells:.0f} sweep cells, {admitted:.0f} admitted, "
        f"headline {jobs:.0f} jobs at {jobs_per_sec:,.0f} jobs/s "
        f"(floor {min_jobs_per_sec:,.0f}), 1v8-worker identical="
        f"{identical:.0f}, monotone={monotone:.0f}, sketch vs exact "
        f"{quantile_err:.3%} off, cycle spot check {spot_err:.2%} off"
    )
    print(
        f"check_cluster: availability sweep {avail_cells:.0f} cells, "
        f"zero-fault identity={zero_fault:.0f}, goodput monotone="
        f"{goodput_mono:.0f}, availability monotone={avail_mono:.0f}"
    )

    failures = []
    if identical != 1.0:
        failures.append("1-vs-8-worker SLA stats are not bit-identical")
    if monotone != 1.0:
        failures.append("p50 <= p99 <= p999 violated in some sweep cell")
    if not quantile_err <= MAX_QUANTILE_REL_ERR:
        failures.append(
            f"sketch p99/p999 {quantile_err:.4%} off the exact thresholds "
            f"(bound {MAX_QUANTILE_REL_ERR:.4%})"
        )
    if admitted <= 0:
        failures.append("sweep admitted no jobs")
    if jobs_per_sec < min_jobs_per_sec:
        failures.append(
            f"serving throughput {jobs_per_sec:,.0f} jobs/s below floor "
            f"{min_jobs_per_sec:,.0f}"
        )
    if avail_cells <= 0:
        failures.append("availability sweep ran no cells")
    if zero_fault != 1.0:
        failures.append(
            "zero-fault run is not bit-identical to the fault-free loop"
        )
    if goodput_mono != 1.0:
        failures.append("goodput rose with the fault rate in some column")
    if avail_mono != 1.0:
        failures.append(
            "down-time is not monotone in the fault rate (superset broken)"
        )

    if failures:
        for f_msg in failures:
            print(f"check_cluster: FAIL: {f_msg}", file=sys.stderr)
        sys.exit(1)
    print("check_cluster: OK")


if __name__ == "__main__":
    main(sys.argv)
