#!/usr/bin/env python3
"""CI gate for the persistent evaluation store (DESIGN.md §16).

Usage: check_store.py COLD.json WARM.json COLD.csv WARM.csv [MIN_SPEEDUP]

Consumes the `fig8.*` metrics written by two consecutive
`bench_fig8_full_system_edp --store-out` runs against one VFIMR_CACHE_DIR —
a cold pass that populates the store and a warm pass that must be served
entirely from it — plus the result CSV each pass wrote, and enforces the
tentpole contract:

  * schema — every gated metric is present in both files (a bench that
    silently skipped the incremental path would otherwise pass vacuously).
  * cold pass did the work — evaluated_points > 0, store.bytes_written > 0:
    the store really was populated by this job, not a stale artifact.
  * warm pass is disk-served — store hits > 0 and incremental.reused equals
    the cold pass's point count; evaluated_points == 0.
  * warm pass is read-only — store.bytes_written == 0: with every point
    stored there is nothing to commit, so any write is waste.
  * ZERO simulations on the warm pass — fig8.net_eval.misses == 0 (misses
    count simulations actually run; disk hits and sweep-point reuse do not
    increment it) and net_eval.disk_misses == 0.
  * nothing corrupt or stale was scanned — a nonzero count on a store this
    job just wrote means the record framing regressed.
  * byte-identical output — the warm CSV must equal the cold CSV exactly.
    This is the acceptance criterion: a disk hit is bit-identical to a
    fresh run, so the rendered table cannot differ in a single byte.
  * warm wall time >= MIN_SPEEDUP x faster than cold (default 5).  The
    small preset's cold pass simulates ~1s vs a few ms warm, so the floor
    is generous; it catches a warm pass that quietly re-simulates.
"""

import json
import sys


def fail(msg):
    print(f"check_store: FAIL: {msg}")
    sys.exit(1)


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics", doc)
    if not isinstance(metrics, dict) or not metrics:
        fail(f"{path}: no metrics object")
    return metrics


def need(metrics, path, key):
    if key not in metrics:
        fail(f"{path}: missing metric '{key}'")
    return metrics[key]


GATED = [
    "fig8.wall_s",
    "fig8.valid_points",
    "fig8.incremental.reused",
    "fig8.incremental.evaluated",
    "fig8.incremental.skipped",
    "fig8.net_eval.misses",
    "fig8.net_eval.disk_misses",
    "fig8.store.hits",
    "fig8.store.bytes_written",
    "fig8.store.corrupt_records",
    "fig8.store.stale_records",
]


def main():
    if len(sys.argv) < 5:
        print(__doc__)
        sys.exit(2)
    cold_json, warm_json, cold_csv, warm_csv = sys.argv[1:5]
    min_speedup = float(sys.argv[5]) if len(sys.argv) > 5 else 5.0

    cold = load_metrics(cold_json)
    warm = load_metrics(warm_json)
    for key in GATED:
        need(cold, cold_json, key)
        need(warm, warm_json, key)

    # Cold pass populated the store.
    cold_evaluated = cold["fig8.incremental.evaluated"]
    if cold_evaluated <= 0:
        fail(f"cold pass evaluated {cold_evaluated} points (expected > 0)")
    if cold["fig8.store.bytes_written"] <= 0:
        fail("cold pass wrote no store bytes")

    # Warm pass was served from disk, point for point.
    points = cold["fig8.valid_points"]
    if warm["fig8.incremental.reused"] != points:
        fail(
            f"warm pass reused {warm['fig8.incremental.reused']} of "
            f"{points} points"
        )
    if warm["fig8.incremental.evaluated"] != 0:
        fail(
            f"warm pass re-evaluated "
            f"{warm['fig8.incremental.evaluated']} points (expected 0)"
        )
    if warm["fig8.store.hits"] <= 0:
        fail("warm pass recorded no store hits")
    if warm["fig8.store.bytes_written"] != 0:
        fail(
            f"warm pass wrote {warm['fig8.store.bytes_written']} store bytes "
            "(expected 0: a replay commits nothing)"
        )

    # The hard gate: zero simulations ran on the warm pass.
    for key in ("fig8.net_eval.misses", "fig8.net_eval.disk_misses"):
        if warm[key] != 0:
            fail(f"warm pass {key} = {warm[key]} (expected 0: no simulation "
                 "may run when every point is stored)")

    # The store this job just wrote must scan back clean.
    for metrics, path in ((cold, cold_json), (warm, warm_json)):
        for key in ("fig8.store.corrupt_records", "fig8.store.stale_records"):
            if metrics[key] != 0:
                fail(f"{path}: {key} = {metrics[key]} on a freshly "
                     "written store")

    # Byte-identical rendered output.
    with open(cold_csv, "rb") as f:
        cold_bytes = f.read()
    with open(warm_csv, "rb") as f:
        warm_bytes = f.read()
    if cold_bytes != warm_bytes:
        fail(f"{warm_csv} differs from {cold_csv}: a disk hit must be "
             "bit-identical to a fresh run")
    if not cold_bytes:
        fail(f"{cold_csv} is empty")

    cold_s = cold["fig8.wall_s"]
    warm_s = warm["fig8.wall_s"]
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    if speedup < min_speedup:
        fail(
            f"warm pass speedup {speedup:.1f}x < {min_speedup:.1f}x "
            f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s)"
        )

    print(
        f"check_store: OK: {points} points, cold {cold_s:.3f}s -> "
        f"warm {warm_s:.3f}s ({speedup:.1f}x), 0 warm simulations, "
        f"CSVs byte-identical ({len(cold_bytes)} bytes)"
    )


if __name__ == "__main__":
    main()
