#!/usr/bin/env python3
"""CI guard for the phase-resolved network pipeline (DESIGN.md §11).

Usage: check_fig8_phase.py FIG8_PHASE.json [MAX_RATIO]

Reads the JSON written by `bench_fig8_full_system_edp --bench-out` and
enforces two invariants of the phase-resolved refactor:

* `fig8.runtime_ratio` — wall time of the phase-resolved sweep divided by
  the same sweep with phase traffic stripped (one whole-run evaluation per
  system, the other three phases served by its NetworkEvaluator), measured
  back to back in the same process (so the ratio is portable across
  machines even though the wall times are not) — must stay at or below
  MAX_RATIO (default 2.0).  The pipeline's budget math: four per-phase
  evaluations at half the injection window, minus the LibInit == Merge
  cache hit, ≈ 1.5x one whole-run evaluation.
* `net_eval.cache_hits` must be positive: every phase-resolved run of an
  application with a merge phase replays the LibInit traffic, so a sweep
  with zero hits means the memo key broke (e.g. struct padding or an
  unstable serialization leaked into it) and the NetworkEvaluator is
  silently re-simulating everything.
"""

import json
import sys


def need(doc, key, path):
    if key not in doc:
        print(f"check_fig8_phase: FAIL: {path} has no {key}", file=sys.stderr)
        sys.exit(1)
    return float(doc[key])


def main(argv):
    if len(argv) < 2:
        print("usage: check_fig8_phase.py FIG8_PHASE.json [MAX_RATIO]",
              file=sys.stderr)
        sys.exit(1)
    path = argv[1]
    max_ratio = float(argv[2]) if len(argv) > 2 else 2.0

    with open(path, encoding="utf-8") as f:
        doc = json.load(f)

    ratio = need(doc, "fig8.runtime_ratio", path)
    hits = need(doc, "net_eval.cache_hits", path)
    misses = need(doc, "net_eval.cache_misses", path)
    phase_ms = need(doc, "fig8.phase_resolved_ms", path)
    legacy_ms = need(doc, "fig8.legacy_ms", path)

    print(
        f"check_fig8_phase: phase-resolved {phase_ms:.0f} ms vs phase "
        f"traffic stripped {legacy_ms:.0f} ms -> ratio {ratio:.3f} "
        f"(budget {max_ratio:.2f}); "
        f"cache {hits:.0f} hits / {misses:.0f} misses"
    )

    ok = True
    if ratio > max_ratio:
        print(
            f"check_fig8_phase: FAIL: runtime ratio {ratio:.3f} exceeds "
            f"{max_ratio:.2f} — the per-phase pipeline got too expensive",
            file=sys.stderr,
        )
        ok = False
    if hits <= 0:
        print(
            "check_fig8_phase: FAIL: NetworkEvaluator recorded zero cache "
            "hits — the LibInit == Merge identity no longer hits the memo, "
            "so the cache key is unstable",
            file=sys.stderr,
        )
        ok = False
    if not ok:
        sys.exit(1)
    print("check_fig8_phase: OK")


if __name__ == "__main__":
    main(sys.argv)
