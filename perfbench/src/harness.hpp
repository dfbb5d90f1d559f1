#pragma once
// perfbench harness: the pieces every workload shares.
//
//  * Spans   — the benchmark's own host-time spans around calls into the
//              program's public API, kept in memory and written at the end
//              as a Chrome trace (loads in Perfetto).  Layers nested inside
//              one public call are split "by difference": a probe call on the
//              same inputs is timed after the real call, and its duration is
//              recorded as a derived child of the real span.
//  * Checks  — output checks against oracles; failed / attempted feeds the
//              result line.
//  * Counts  — exact counts of simulated work (evaluations, cache hits,
//              fault events, ...) that must repeat bit-for-bit between passes,
//              between the traced and untraced run and between invocations.
//  * Workload — setup() once per repetition, then pass(i) repeated for the
//              measured phase; units of one cycle may differ in cost, so the
//              throughput is computed per unit (its fastest pass).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

double now_s();

/// splitmix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a over raw bytes, chained: digest = fnv(digest, value).
std::uint64_t fnv(std::uint64_t digest, const void* data, std::size_t size);
template <typename T>
std::uint64_t fnv(std::uint64_t digest, const T& value) {
  return fnv(digest, &value, sizeof(T));
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 = the repository's default seeds (goldens)
  double seconds = 10.0;
  bool trace = false;
  /// Name of an output check to sabotage (self-test: the check must fail).
  std::string perturb;
  std::string trace_out;  ///< Chrome trace path (traced runs)
  std::string work_dir = ".";  ///< scratch space inside the checkout
  std::string repo_root = ".";
  std::size_t mr_workers = 2;
};

class Spans {
 public:
  struct Span {
    std::string name;
    std::string request;  ///< design point, serving cell or app
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
    bool derived = false;  ///< duration measured by a probe call
  };

  int open(const std::string& name, const std::string& request = {});
  void close(int id);
  /// Child of `parent` whose duration was measured by a probe call on the
  /// same inputs; laid out after the parent's earlier derived children.
  int derive(int parent, const std::string& name, double seconds);
  /// Spans of probe calls: shown in the trace, excluded from every layer.
  int open_probe(const std::string& name, const std::string& request = {}) {
    return open("probe." + name, request);
  }

  /// Self time (duration minus children) summed per span name and per
  /// "name@request", over the descendants of `root` (every span when -1);
  /// probes and their children excluded.
  std::map<std::string, double> self_seconds(int root = -1) const;
  /// Summed duration of the probe spans under `root`.
  double probe_seconds(int root) const;
  double total_seconds(const std::string& name) const;
  double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return s.end - s.start;
  }
  const std::string& request(int id) const {
    return spans_[static_cast<std::size_t>(id)].request;
  }
  void write_chrome_trace(const std::string& path) const;

 private:
  void classify(int root, std::vector<double>& children,
                std::vector<char>& in_probe,
                std::vector<char>& under_root) const;

  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<int, double> derived_cursor_;
};

/// RAII span; a null recorder makes it free (the untraced path).
class Scope {
 public:
  Scope(Spans* spans, const std::string& name, const std::string& request = {})
      : spans_{spans}, id_{spans != nullptr ? spans->open(name, request) : -1} {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Spans* spans_;
  int id_;
};

class Checks {
 public:
  explicit Checks(std::string perturb) : perturb_{std::move(perturb)} {}
  /// Records one check.  `name` identifies it for --perturb self-tests.
  void expect(bool ok, const std::string& name, const std::string& detail = {});
  /// True when the self-test asked to sabotage the check `name`.
  bool perturbed(const std::string& name) const { return perturb_ == name; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::string perturb_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

using Counts = std::map<std::string, std::uint64_t>;

/// One measured pass: work items done, an output digest (bit-identity) and
/// the exact counts of simulated work.
struct PassOutput {
  double items = 0.0;
  std::uint64_t digest = kFnvBasis;
  Counts counts;
};

using MetricMap = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds inputs, oracles and warm state; timed as setup_s.  `spans` is
  /// non-null on the traced setup.
  virtual void setup(Spans* spans) = 0;
  /// Number of distinct pass units; pass(i) runs unit i % units().
  virtual std::size_t units() const { return 1; }
  virtual PassOutput pass(std::size_t index, Spans* spans, Checks& checks) = 0;
  /// Checks over a whole cycle of units plus workload-specific metrics:
  /// `extras` (reported beside the metrics) and the per-layer values, from
  /// the traced run's self times (empty when untraced).
  virtual void finish(Checks& checks, MetricMap& extras, MetricMap& layers,
                      const std::map<std::string, double>& self_s) = 0;
};

std::unique_ptr<Workload> make_fig8_cycle(const Options& opt);
std::unique_ptr<Workload> make_resilience_faults(const Options& opt);
std::unique_ptr<Workload> make_warm_replay(const Options& opt);
std::unique_ptr<Workload> make_fleet_serving(const Options& opt);
std::unique_ptr<Workload> make_mr_runtime(const Options& opt);

/// Median of a non-empty sample (copy).
double median(std::vector<double> v);
/// Ratio with a defined value (0) for an empty denominator.
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace perfbench
