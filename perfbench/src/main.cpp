// perfbench driver: runs one workload through the program's public API and
// prints one result line (PERFBENCH_RESULT {json}) that perfbench/run.py
// turns into the benchmark's result.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--perturb CHECK] [--trace-out FILE] [--work-dir DIR]
//             [--repo-root DIR]
//
// Untraced (--trace 0): set-up, then whole passes run until --seconds have
// elapsed and every pass unit has run once, with set-ups of fresh workloads
// spread between them; setup_s is the fastest set-up and items_per_s uses
// each unit's fastest pass.  Traced (--trace 1): one traced setup, then one
// cycle of every pass unit untraced, traced and untraced again; outputs and
// exact counts must match bit for bit.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <type_traits>

#include "harness.hpp"

using namespace perfbench;

namespace {

// Set-up is timed kMinSetups to kMaxSetups times, taking about kSetupShare of
// the measured seconds: the measured workload's own set-up, then set-ups of
// fresh workloads spread evenly over the rest of the run.  setup_s is the
// fastest.  The shared host alternates between fast and ~1.5x slower phases
// lasting seconds, so the median of set-ups made within one second landed in
// either phase, while the fastest of set-ups spread over the run is as
// steady as the fastest pass.  The cap keeps millisecond set-ups from
// crowding out the passes.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 40;
constexpr double kSetupShare = 0.25;

bool optimized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return false;
#endif
#endif
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "fig8_cycle") return make_fig8_cycle(opt);
  if (opt.workload == "resilience_faults") return make_resilience_faults(opt);
  if (opt.workload == "warm_replay") return make_warm_replay(opt);
  if (opt.workload == "fleet_serving") return make_fleet_serving(opt);
  if (opt.workload == "mr_runtime") return make_mr_runtime(opt);
  return nullptr;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A flat JSON object; doubles keep all 17 significant digits.
template <typename Map>
void json_object(std::ostream& j, const Map& m) {
  j << "{";
  const char* sep = "";
  for (const auto& [name, value] : m) {
    j << sep << "\"" << name << "\": ";
    if constexpr (std::is_floating_point_v<typename Map::mapped_type>) {
      j << std::setprecision(17) << value;
    } else {
      j << value;
    }
    sep = ", ";
  }
  j << "}";
}

/// One cycle of pass units and the wall time of each pass.
struct Cycle {
  std::vector<double> seconds;
  std::vector<PassOutput> outputs;
};

Cycle run_cycle(Workload& w, Spans* spans, Checks& checks) {
  Cycle c;
  for (std::size_t u = 0; u < w.units(); ++u) {
    const int id =
        spans != nullptr ? spans->open("perfbench.pass", std::to_string(u)) : -1;
    const double t0 = now_s();
    c.outputs.push_back(w.pass(u, spans, checks));
    c.seconds.push_back(now_s() - t0);
    if (spans != nullptr) spans->close(id);
  }
  return c;
}

bool same_output(const PassOutput& a, const PassOutput& b) {
  return a.digest == b.digest && a.counts == b.counts;
}

/// The untraced run: set-up, then passes for opt.seconds with further timed
/// set-ups between them; returns the end-to-end metrics.
MetricMap measure(Workload& w, const Options& opt, Checks& checks,
                  MetricMap& extras, Counts& counts) {
  std::vector<double> setup_s;
  auto timed_setup = [&setup_s](Workload& x) {
    const double t0 = now_s();
    x.setup(nullptr);
    setup_s.push_back(now_s() - t0);
  };
  timed_setup(w);
  const int extra_setups =
      std::clamp(static_cast<int>(kSetupShare * opt.seconds / setup_s[0]),
                 kMinSetups - 1, kMaxSetups - 1);
  int done_setups = 0;
  double next_setup = 0.0;  // run-relative time the next one is due
  double spacing = 0.0;
  double rss = 0.0;
  std::vector<std::vector<double>> times(w.units());
  std::vector<PassOutput> first(w.units());
  const double start = now_s();
  for (std::size_t i = 0; i < w.units() || now_s() - start < opt.seconds; ++i) {
    const std::size_t u = i % w.units();
    const double t0 = now_s();
    PassOutput out = w.pass(u, nullptr, checks);
    times[u].push_back(now_s() - t0);
    if (i < w.units()) {
      for (const auto& [k, v] : out.counts) counts[k] += v;
      first[u] = std::move(out);
    } else {
      checks.expect(same_output(out, first[u]), "repeat.pass",
                    "pass unit " + std::to_string(u) + " drifted");
    }
    if (i + 1 == w.units()) {
      // The workload's own peak: one set-up and one cycle, before any
      // fresh workload shares the process.
      rss = peak_rss_mb();
      next_setup = now_s() - start;
      spacing = std::max(0.0, opt.seconds - next_setup) / extra_setups;
    }
    while (i + 1 >= w.units() && done_setups < extra_setups &&
           now_s() - start >= next_setup) {
      timed_setup(*make_workload(opt));
      ++done_setups;
      next_setup += spacing;
    }
  }
  for (; done_setups < extra_setups; ++done_setups) {
    timed_setup(*make_workload(opt));
  }
  // Units may differ in cost, so the rate is one cycle's items over the sum
  // of each unit's pass time.  A unit's time is its fastest pass: on a
  // shared host interference only ever adds time, and the fastest of many
  // passes is far steadier from run to run than their median.
  double items = 0.0;
  double seconds = 0.0;
  for (std::size_t u = 0; u < w.units(); ++u) {
    items += first[u].items;
    seconds += *std::min_element(times[u].begin(), times[u].end());
  }
  MetricMap unused_layers;
  w.finish(checks, extras, unused_layers, {});
  const double fastest_setup = *std::min_element(setup_s.begin(), setup_s.end());
  std::cout << "measured " << opt.workload << ": " << items
            << " items per cycle, fastest cycle " << seconds << " s; "
            << setup_s.size() << " set-ups, fastest " << fastest_setup
            << " s, median " << median(setup_s) << " s\n";
  return {{"setup_s", fastest_setup},
          {"items_per_s", items / seconds},
          {"peak_rss_mb", rss}};
}

/// The traced run: one traced set-up, then a cycle untraced, traced and
/// untraced again; returns the per-layer metrics.
MetricMap trace(Workload& w, const Options& opt, Checks& checks,
                MetricMap& extras, Counts& counts) {
  Spans spans;
  {
    Scope s{&spans, "perfbench.setup"};
    w.setup(&spans);
  }
  const Cycle before = run_cycle(w, nullptr, checks);
  const int cycle_id = spans.open("perfbench.cycle");
  const Cycle traced = run_cycle(w, &spans, checks);
  spans.close(cycle_id);
  const Cycle after = run_cycle(w, nullptr, checks);
  double wall_untraced = 0.0;
  double untraced_noise = 0.0;  // |before - after|: how well it is known
  for (std::size_t u = 0; u < w.units(); ++u) {
    wall_untraced += 0.5 * (before.seconds[u] + after.seconds[u]);
    untraced_noise += before.seconds[u] - after.seconds[u];
    checks.expect(same_output(before.outputs[u], traced.outputs[u]),
                  "trace.identical",
                  "traced pass unit " + std::to_string(u) +
                      " differs from the untraced run");
    checks.expect(same_output(before.outputs[u], after.outputs[u]),
                  "repeat.pass", "pass unit " + std::to_string(u) + " drifted");
    for (const auto& [k, v] : before.outputs[u].counts) counts[k] += v;
  }
  MetricMap layers;
  w.finish(checks, extras, layers, spans.self_seconds());

  // The traced cycle's layer self times (probes and benchmark glue
  // excluded) against the untraced wall time of the same cycle.
  double layer_sum = 0.0;
  for (const auto& [name, s] : spans.self_seconds(cycle_id)) {
    if (name.find('@') == std::string::npos &&
        name.rfind("perfbench.", 0) != 0) {
      layer_sum += s;
    }
  }
  const double overhead = spans.duration(cycle_id) - wall_untraced;
  const double tolerance = std::abs(overhead) + std::abs(untraced_noise);
  std::cout << "traced " << opt.workload << ": untraced cycle "
            << wall_untraced << " +- " << std::abs(untraced_noise)
            << " s, traced cycle " << spans.duration(cycle_id)
            << " s (probe calls " << spans.probe_seconds(cycle_id)
            << " s), tracing overhead " << overhead
            << " s; layer self times sum to " << layer_sum << " s, "
            << (std::abs(layer_sum - wall_untraced) <= tolerance ? "within"
                                                                 : "OUTSIDE")
            << " the overhead of the untraced cycle\n"
            << "per-layer breakdown (" << opt.workload << ")\n";
  for (const auto& [name, value] : layers) {
    std::cout << "  " << std::left << std::setw(40) << name << " " << value
              << "\n";
  }
  if (!opt.trace_out.empty()) spans.write_chrome_trace(opt.trace_out);
  return layers;
}

void print_result(const Checks& checks, const MetricMap& metrics,
                  const MetricMap& extras, const Counts& counts) {
  std::ostringstream j;
  j << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
    << ", \"attempted\": " << checks.attempted()
    << ", \"failed\": " << checks.failed() << ", \"metrics\": ";
  json_object(j, metrics);
  j << ", \"extras\": ";
  json_object(j, extras);
  j << ", \"counts\": ";
  json_object(j, counts);
  j << ", \"info\": {\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
    << PERFBENCH_BUILD_TYPE << "\"}}";
  std::cout << "PERFBENCH_RESULT " << j.str() << std::endl;
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--perturb CHECK] [--trace-out FILE] "
               "[--work-dir DIR] [--repo-root DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value == "1";
      } else if (flag == "--perturb") {
        opt.perturb = value;
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else if (flag == "--repo-root") {
        opt.repo_root = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!optimized_build()) {
    return usage("refusing to time an unoptimized or sanitizer build");
  }
  // Pinned environment: worker counts are explicit everywhere, and an
  // ambient evaluation store must never turn a cold workload warm.
  unsetenv("VFIMR_THREADS");
  unsetenv("VFIMR_CACHE_DIR");
  unsetenv("VFIMR_RESULTS_DIR");
  opt.mr_workers =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);

  std::unique_ptr<Workload> w = make_workload(opt);
  if (w == nullptr) return usage("unknown workload " + opt.workload);

  Checks checks{opt.perturb};
  MetricMap extras;
  Counts counts;
  try {
    const MetricMap metrics = opt.trace
                                  ? trace(*w, opt, checks, extras, counts)
                                  : measure(*w, opt, checks, extras, counts);
    print_result(checks, metrics, extras, counts);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
}
