#!/usr/bin/env python3
"""CI guard: the telemetry layer must not slow the untraced hot paths.

Usage: check_sweep_overhead.py COMMITTED.json FRESH.json [MAX_REGRESSION]
           [KEY]

Compares a higher-is-better ratio metric between a committed snapshot and a
freshly measured run.  By default the key is
`bench_sweep.speedup.fast_vs_reference_1t`: wall seconds differ across
machines and presets, but both stepping paths run on the same box in the
same process, so their ratio is the portable signal.  Telemetry's disabled
path is a single null-pointer test per site; if the fresh ratio drops more
than MAX_REGRESSION (default 3%) below the committed one, some "zero
overhead when disabled" claim has regressed and the build fails.

Passing KEY reuses the same committed-vs-fresh floor for other
machine-portable ratios — CI points it at
`bench_cluster.obs.loop_vs_calibration` (serving-loop jobs/s divided by the
ops/s of a fixed-seed std::priority_queue kernel timed in the same process:
host speed moves both alike, and the kernel uses nothing from src/, so the
ratio flags a serving-loop slowdown, not a slower runner or a faster design
flow) with a correspondingly looser MAX_REGRESSION.
"""

import json
import sys

DEFAULT_KEY = "bench_sweep.speedup.fast_vs_reference_1t"


def load_ratio(path, key):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if key not in doc:
        print(f"check_sweep_overhead: FAIL: {path} has no {key}", file=sys.stderr)
        sys.exit(1)
    return float(doc[key]), doc


def main(argv):
    if len(argv) < 3:
        print(
            "usage: check_sweep_overhead.py COMMITTED.json FRESH.json"
            " [MAX_REGRESSION] [KEY]",
            file=sys.stderr,
        )
        sys.exit(1)
    max_regression = float(argv[3]) if len(argv) > 3 else 0.03
    key = argv[4] if len(argv) > 4 else DEFAULT_KEY

    committed, cdoc = load_ratio(argv[1], key)
    fresh, fdoc = load_ratio(argv[2], key)
    floor = (1.0 - max_regression) * committed

    if cdoc.get("bench_sweep.config.small") != fdoc.get(
        "bench_sweep.config.small"
    ):
        print(
            "check_sweep_overhead: note: committed and fresh runs use "
            "different presets; the speedup ratio is still comparable, "
            "wall seconds are not"
        )

    print(
        f"check_sweep_overhead: committed {key} = {committed:.3f}, "
        f"fresh = {fresh:.3f}, floor = {floor:.3f} "
        f"(max regression {max_regression:.0%})"
    )
    if fresh < floor:
        print(
            f"check_sweep_overhead: FAIL: fresh {key} {fresh:.3f} fell "
            f"below {floor:.3f} — the untraced path slowed down",
            file=sys.stderr,
        )
        sys.exit(1)
    print("check_sweep_overhead: OK")


if __name__ == "__main__":
    main(sys.argv)
