// mr_runtime: the threaded Phoenix++-style runtime (src/mapreduce) on inputs
// generated in set-up, each app checked against a sequential oracle the
// benchmark computes itself.  One extra WordCount runs under a worker fault
// plan, which takes the scheduler's resilient path.

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "faults/faults.hpp"
#include "harness.hpp"
#include "mapreduce/apps/histogram.hpp"
#include "mapreduce/apps/kmeans.hpp"
#include "mapreduce/apps/wordcount.hpp"
#include "mapreduce/scheduler.hpp"

namespace perfbench {

using namespace vfimr;

namespace {

constexpr std::size_t kWords = 1'000'000;
constexpr std::size_t kPixels = 4'000'000;
constexpr std::size_t kPoints = 40'000;
constexpr std::size_t kSchedulerProbeTasks = 200'000;

using WordCounts = std::vector<std::pair<std::string, std::uint64_t>>;
using Bins = std::array<std::array<std::uint64_t, 256>, 3>;

/// Zipf(1)-distributed pseudo-words "w<rank>" over `vocabulary` ranks, drawn
/// by inverse-CDF lookup from a splitmix stream of `seed`.
std::string make_text(std::size_t words, std::size_t vocabulary,
                      std::uint64_t seed) {
  std::vector<double> cdf(vocabulary);
  double total = 0.0;
  for (std::size_t i = 0; i < vocabulary; ++i) {
    total += 1.0 / static_cast<double>(i + 1);
    cdf[i] = total;
  }
  std::string text;
  text.reserve(words * 6);
  for (std::size_t i = 0; i < words; ++i) {
    const double u = static_cast<double>(mix_seed(seed, i) >> 11) * 0x1p-53;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u * total) - cdf.begin());
    if (i > 0) text += ' ';
    text += 'w';
    text += std::to_string(std::min(rank, vocabulary - 1));
  }
  return text;
}

WordCounts oracle_word_count(const std::string& text) {
  std::unordered_map<std::string, std::uint64_t> m;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && text[i] == ' ') ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ') ++j;
    if (j > i) ++m[text.substr(i, j - i)];
    i = j;
  }
  WordCounts out(m.begin(), m.end());
  std::sort(out.begin(), out.end());
  return out;
}

Bins oracle_histogram(const std::vector<std::uint8_t>& rgb) {
  Bins bins{};
  for (std::size_t i = 0; i < rgb.size(); ++i) ++bins[i % 3][rgb[i]];
  return bins;
}

/// Sequential Lloyd iteration with the runtime's initialization (the first k
/// points), tie-breaking (lowest index) and stopping rule.
struct KmeansOracle {
  std::vector<std::vector<double>> centroids;
  std::vector<std::uint32_t> assignment;
  std::size_t iterations = 0;
};

std::uint32_t nearest(const std::vector<double>& p,
                      const std::vector<std::vector<double>>& centroids) {
  std::uint32_t best = 0;
  double best_d = std::numeric_limits<double>::max();
  for (std::uint32_t c = 0; c < centroids.size(); ++c) {
    double d = 0.0;
    for (std::size_t k = 0; k < p.size(); ++k) {
      const double t = p[k] - centroids[c][k];
      d += t * t;
    }
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

KmeansOracle oracle_kmeans(const std::vector<std::vector<double>>& points,
                           const mr::apps::KmeansConfig& cfg) {
  KmeansOracle o;
  const std::size_t dims = points[0].size();
  o.centroids.assign(points.begin(),
                     points.begin() + static_cast<std::ptrdiff_t>(cfg.clusters));
  for (std::size_t iter = 0; iter < cfg.max_iterations; ++iter) {
    std::vector<std::vector<double>> sum(cfg.clusters,
                                         std::vector<double>(dims, 0.0));
    std::vector<std::uint64_t> count(cfg.clusters, 0);
    for (const auto& p : points) {
      const std::uint32_t c = nearest(p, o.centroids);
      for (std::size_t k = 0; k < dims; ++k) sum[c][k] += p[k];
      ++count[c];
    }
    ++o.iterations;
    double max_shift = 0.0;
    for (std::size_t c = 0; c < cfg.clusters; ++c) {
      if (count[c] == 0) continue;
      double shift = 0.0;
      for (std::size_t k = 0; k < dims; ++k) {
        const double next = sum[c][k] / static_cast<double>(count[c]);
        shift += (next - o.centroids[c][k]) * (next - o.centroids[c][k]);
        o.centroids[c][k] = next;
      }
      max_shift = std::max(max_shift, std::sqrt(shift));
    }
    if (max_shift < cfg.convergence_eps) break;
  }
  for (const auto& p : points) o.assignment.push_back(nearest(p, o.centroids));
  return o;
}

std::uint64_t digest_counts(const WordCounts& counts) {
  std::uint64_t d = kFnvBasis;
  for (const auto& [word, n] : counts) {
    d = fnv(d, word.data(), word.size());
    d = fnv(d, n);
  }
  return d;
}

class MrRuntime final : public Workload {
 public:
  explicit MrRuntime(const Options& opt) : opt_{opt} {}

  void setup(Spans* spans) override {
    const std::uint64_t seed = opt_.seed;
    mr::SchedulerConfig sched;
    sched.workers = opt_.mr_workers;
    wc_.word_count = kWords;
    wc_.scheduler = sched;
    wc_.seed = seed == 0 ? wc_.seed : mix_seed(seed, 30);
    hist_.pixel_count = kPixels;
    hist_.scheduler = sched;
    hist_.seed = seed == 0 ? hist_.seed : mix_seed(seed, 31);
    km_.point_count = kPoints;
    km_.dimensions = 16;
    // Always max_iterations: with the default threshold the iteration count
    // (3 to 10) depended on the seed, and so did the cycle's mix of work.
    km_.convergence_eps = 0.0;
    km_.scheduler = sched;
    km_.seed = seed == 0 ? km_.seed : mix_seed(seed, 32);
    {
      Scope s{spans, "mapreduce.inputs"};
      text_ = make_text(kWords, wc_.vocabulary, wc_.seed);
      image_ = mr::apps::generate_image(hist_);
      points_ = mr::apps::generate_points(km_);
    }
    {
      Scope s{spans, "mapreduce.oracles"};
      wc_oracle_ = oracle_word_count(text_);
      hist_oracle_ = oracle_histogram(image_);
      km_oracle_ = oracle_kmeans(points_, km_);
    }
    // Every worker but the guaranteed survivor dies within its first five
    // tasks, so the resilient run costs about the same on every seed.
    plan_ = faults::make_worker_fault_plan(
        opt_.mr_workers, 1.0, 4, seed == 0 ? 11 : mix_seed(seed, 33));
    wc_faulty_ = wc_;
    wc_faulty_.scheduler.faults = &plan_;
    stats_.assign(units(), {});
  }

  std::size_t units() const override { return 4; }

  PassOutput pass(std::size_t index, Spans* spans, Checks& checks) override {
    const std::size_t u = index % units();
    PassOutput out;
    mr::JobProfile profile;
    if (u == 0 || u == 3) {
      const bool faulty = u == 3;
      mr::apps::WordCountResult r;
      {
        Scope s{spans, faulty ? "mapreduce.resilient" : "mapreduce.wordcount"};
        r = mr::apps::word_count(text_, faulty ? wc_faulty_ : wc_);
      }
      if (checks.perturbed(faulty ? "mr.resilient" : "mr.wordcount")) {
        r.counts.front().second += 1;
      }
      const std::uint64_t d = digest_counts(r.counts);
      if (faulty) {
        checks.expect(d == digest_counts(wc_oracle_), "mr.resilient",
                      "faulty WordCount differs from the clean output");
      } else {
        checks.expect(r.counts == wc_oracle_, "mr.wordcount");
      }
      out.items = static_cast<double>(kWords);
      out.digest = d;
      profile = r.profile;
    } else if (u == 1) {
      mr::apps::HistogramResult r;
      {
        Scope s{spans, "mapreduce.histogram"};
        r = mr::apps::histogram(image_, hist_);
      }
      if (checks.perturbed("mr.histogram")) r.bins[0][0] += 1;
      checks.expect(r.bins == hist_oracle_, "mr.histogram");
      out.items = static_cast<double>(kPixels);
      out.digest = fnv(out.digest, r.bins);
      profile = r.profile;
    } else {
      mr::apps::KmeansResult r;
      {
        Scope s{spans, "mapreduce.kmeans"};
        r = mr::apps::kmeans(points_, km_);
      }
      if (checks.perturbed("mr.kmeans")) r.centroids[0][0] += 1e-6;
      bool close = r.iterations == km_oracle_.iterations &&
                   r.assignment == km_oracle_.assignment;
      for (std::size_t c = 0; close && c < r.centroids.size(); ++c) {
        for (std::size_t k = 0; k < r.centroids[c].size(); ++k) {
          const double want = km_oracle_.centroids[c][k];
          close = close && std::abs(r.centroids[c][k] - want) <=
                               1e-9 * std::max(1.0, std::abs(want));
        }
      }
      checks.expect(close, "mr.kmeans");
      out.items = static_cast<double>(kPoints * r.iterations);
      for (const std::uint32_t a : r.assignment) out.digest = fnv(out.digest, a);
      out.digest = fnv(out.digest, r.iterations);
      profile = r.profile;
    }
    stats_[u] = profile;
    if (u != 3) {
      // Duplicate executions on the resilient path are timing-dependent, so
      // only the clean runs contribute exact task counts.
      const std::string k = std::string{"mapreduce."} + kUnitNames[u] + ".";
      std::uint64_t tasks = 0;
      for (const auto n : profile.map_stats.tasks_executed) tasks += n;
      for (const auto n : profile.reduce_stats.tasks_executed) tasks += n;
      out.counts[k + "tasks"] = tasks;
      out.counts[k + "emitted_pairs"] = profile.emitted_pairs;
      out.counts[k + "unique_keys"] = profile.unique_keys;
    }
    return out;
  }

  void finish(Checks&, MetricMap&, MetricMap& l,
              const std::map<std::string, double>& self_s) override {
    auto self = [&](const char* name) {
      const auto it = self_s.find(name);
      return it != self_s.end() ? it->second : 0.0;
    };
    double busy = 0.0;
    double capacity = 0.0;
    double stolen = 0.0;
    double executed = 0.0;
    for (std::size_t u = 0; u < 3; ++u) {
      for (const mr::SchedulerStats* s :
           {&stats_[u].map_stats, &stats_[u].reduce_stats}) {
        for (const double b : s->busy_seconds) busy += b;
        for (const auto n : s->tasks_stolen) stolen += static_cast<double>(n);
        for (const auto n : s->tasks_executed) executed += static_cast<double>(n);
        capacity += s->wall_seconds * static_cast<double>(s->busy_seconds.size());
      }
    }
    l["mapreduce.busy_ratio"] = ratio(busy, capacity);
    l["mapreduce.steal_ratio"] = ratio(stolen, executed);
    l["mapreduce.wordcount.s"] = self("mapreduce.wordcount");
    l["mapreduce.histogram.s"] = self("mapreduce.histogram");
    l["mapreduce.kmeans.s"] = self("mapreduce.kmeans");
    l["mapreduce.resilient.requeued"] =
        static_cast<double>(stats_[3].map_stats.tasks_requeued);
    l["mapreduce.resilient.speculated"] =
        static_cast<double>(stats_[3].map_stats.tasks_speculated);
    if (!self_s.empty()) {
      // Scheduler overhead alone: TaskScheduler::run over empty task bodies.
      mr::SchedulerConfig cfg;
      cfg.workers = opt_.mr_workers;
      mr::TaskScheduler sched{cfg};
      const double t = now_s();
      sched.run(kSchedulerProbeTasks, [](std::size_t, std::size_t) {});
      l["mapreduce.sched.tasks_per_s"] =
          static_cast<double>(kSchedulerProbeTasks) / (now_s() - t);
    }
  }

 private:
  static constexpr const char* kUnitNames[] = {"wordcount", "histogram",
                                               "kmeans", "resilient"};
  Options opt_;
  mr::apps::WordCountConfig wc_;
  mr::apps::WordCountConfig wc_faulty_;
  mr::apps::HistogramConfig hist_;
  mr::apps::KmeansConfig km_;
  faults::WorkerFaultPlan plan_;
  std::string text_;
  std::vector<std::uint8_t> image_;
  std::vector<std::vector<double>> points_;
  WordCounts wc_oracle_;
  Bins hist_oracle_{};
  KmeansOracle km_oracle_;
  std::vector<mr::JobProfile> stats_;
};

}  // namespace

std::unique_ptr<Workload> make_mr_runtime(const Options& opt) {
  return std::make_unique<MrRuntime>(opt);
}

}  // namespace perfbench
