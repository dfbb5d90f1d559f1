#!/usr/bin/env python3
"""Benchmark entry point for the VFI-MapReduce reproduction.

Builds the C++ driver (perfbench/CMakeLists.txt: the repository's libraries
under src/ plus perfbench/src) into the build directory, runs one workload and
prints one JSON result line last on stdout:

    python3 perfbench/run.py --workload fig8_cycle --seed 3 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (and writes a Chrome trace next to the build).  Seed 0 runs
the repository's default seeds, on which fig8_cycle checks the committed
goldens; any other seed is a held-out seed.

Two extra modes:
    --workload all   runs every workload and prints each end-to-end metric by
                     name with its unit (the one-command summary);
    --selftest       sabotages each output check in turn (--perturb) and
                     verifies that the check rejects the perturbed output.

The build directory is $CARGO_TARGET_DIR when set (relative paths resolve
against the checkout root), else .bench_build.  Everything the benchmark
writes stays under it: the build, scratch stores, traces and the exact counts
of earlier runs of the same driver binary, against which every run's counts
are compared.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_PREFIX = "PERFBENCH_RESULT "

WORKLOADS = ["fig8_cycle", "resilience_faults", "fleet_serving",
             "warm_replay", "mr_runtime"]

# Every output check, the workload that runs it and the seed it needs.
SELFTEST = [
    ("fig8_cycle", "fig8.golden", 0),
    ("fig8_cycle", "fig8.sanity", 1),
    ("resilience_faults", "resilience.zero_fault", 1),
    ("resilience_faults", "resilience.replay", 1),
    ("fleet_serving", "fleet.conservation", 1),
    ("fleet_serving", "fleet.admission", 1),
    ("fleet_serving", "fleet.quantiles", 1),
    ("warm_replay", "warm.identical", 1),
    ("warm_replay", "warm.no_simulation", 1),
    ("mr_runtime", "mr.wordcount", 1),
    ("mr_runtime", "mr.histogram", 1),
    ("mr_runtime", "mr.kmeans", 1),
    ("mr_runtime", "mr.resilient", 1),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then rebuilds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/CMakeLists.txt next to perfbench/ -- run from "
            "a full checkout of the repository")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def run_driver(binary, workload, seed, seconds, trace, perturb=None,
               quiet=False):
    out = build_dir()
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--repo-root", ROOT]
    if trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (workload, seed))]
    if perturb:
        cmd += ["--perturb", perturb]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_PREFIX):
            result = json.loads(line[len(RESULT_PREFIX):])
        elif not quiet:
            print(line)
    if not quiet and proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or result is None:
        if quiet:
            sys.stderr.write(proc.stderr)
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(1)
    return result


def check_counts(binary, workload, seed, counts):
    """Compares this run's exact counts with the first run of the same
    (workload, seed) by the same driver binary; returns the names that
    drifted, or None on the first run."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    d = os.path.join(build_dir(), "counts", build_id)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "%s-%d.json" % (workload, seed))
    if not os.path.isfile(path):
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return None
    with open(path) as f:
        earlier = json.load(f)
    return sorted(k for k in set(earlier) | set(counts)
                  if earlier.get(k) != counts.get(k))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one(args):
    binary = build()
    bench = spec()
    r = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    attempted, failed = r["attempted"], r["failed"]
    drift = check_counts(binary, args.workload, args.seed, r["counts"])
    if drift is not None:
        attempted += 1
        if drift:
            failed += 1
            log("perfbench: exact counts drifted from an earlier run: " +
                ", ".join(drift))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        # A layer that does no work on this workload reports 0.
        value = r["metrics"].get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %16.6g %s" % (m["name"], value, m["unit"]))
    print("checks: %d attempted, %d failed; nproc %s, %s, %s build" % (
        attempted, failed, r["info"]["nproc"], r["info"]["compiler"],
        r["info"]["build_type"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def all_workloads(args):
    binary = build()
    bench = spec()
    rows = []
    for w in WORKLOADS:
        r = run_driver(binary, w, args.seed, args.seconds, False, quiet=True)
        for m in bench["end_to_end"]:
            rows.append((w, m["name"], r["metrics"][m["name"]], m["unit"]))
        rows.append((w, "fail_ratio", r["failed"] / r["attempted"],
                     "ratio (%d checks)" % r["attempted"]))
        for name, value in r["extras"].items():
            rows.append((w, name, value, "pp"))
    for w, name, value, unit in rows:
        print("%-18s %-18s %16.6g %s" % (w, name, value, unit))


def selftest(args):
    binary = build()
    ok = True
    for workload, check, seed in SELFTEST:
        r = run_driver(binary, workload, seed, 0, False, perturb=check,
                       quiet=True)
        rejected = r["failed"] > 0
        ok = ok and rejected
        print("%-18s %-22s %s (%d of %d checks failed)" % (
            workload, check, "rejected" if rejected else "NOT REJECTED",
            r["failed"], r["attempted"]))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measured seconds (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.selftest:
        selftest(args)
    elif args.workload == "all":
        all_workloads(args)
    else:
        one(args)


if __name__ == "__main__":
    main()
