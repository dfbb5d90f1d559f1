#!/usr/bin/env python3
"""CI gate for a warm service-matrix replay (DESIGN.md §16).

Usage: check_cluster_store.py COLD.json WARM.json

Consumes the metric files of two consecutive
`bench_cluster_serving --small --cache-dir DIR` runs against one store: a
cold pass that populates it and a warm pass that must replay the service
matrix from it.  Fails unless

  * the cold pass did the work: it ran platform searches and NoC
    simulations (so the store really was filled by this job);
  * the warm pass ran ZERO platform searches (every platform, the NVFI
    baseline included, was assembled from its stored layout) and ZERO NoC
    simulations;
  * the warm pass's completion digest (the completion order of every
    serving cell and the headline run) equals the cold pass's.
"""

import sys

from check_store import fail, load_metrics, need

SEARCHES = "bench_cluster.matrix.platform_searches"
SIMULATIONS = "bench_cluster.matrix.cache_misses"
DIGEST = "bench_cluster.completion_digest"


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        sys.exit(2)
    cold_json, warm_json = sys.argv[1:3]
    cold = load_metrics(cold_json)
    warm = load_metrics(warm_json)
    for key in (SEARCHES, SIMULATIONS, DIGEST):
        need(cold, cold_json, key)
        need(warm, warm_json, key)

    for key in (SEARCHES, SIMULATIONS):
        if cold[key] <= 0:
            fail(f"cold pass {key} = {cold[key]} (expected > 0: the store "
                 "must be filled by this job)")
        if warm[key] != 0:
            fail(f"warm pass {key} = {warm[key]} (expected 0: the service "
                 "matrix must replay from the store)")
    if warm[DIGEST] != cold[DIGEST]:
        fail(f"warm completion digest {warm[DIGEST]} != cold "
             f"{cold[DIGEST]}: a replay must serve identical jobs")

    print(f"check_cluster_store: OK: cold {cold[SEARCHES]:.0f} searches + "
          f"{cold[SIMULATIONS]:.0f} simulations, warm 0 + 0, completion "
          "digests equal")


if __name__ == "__main__":
    main()
