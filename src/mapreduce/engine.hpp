#pragma once
// Phoenix++-style shared-memory MapReduce engine.
//
// Execution follows Fig. 1 of the paper: Split (caller decides task count),
// Map (work-stealing over map tasks, emitting into worker-local combining
// containers), Reduce (hash-partitioned key ranges reduced in parallel) and
// Merge (per-partition sort + k-way merge into one ordered result).
//
// The engine records a JobProfile: per-phase wall times, per-worker busy
// times and task counts, and the map-worker -> reduce-partition shuffle
// matrix.  The profile is what couples the real runtime to the VFI clustering
// (utilization vector u) and the WiNoC design (traffic matrix f_ip).
//
// Both phases run on TaskScheduler's single worker loop.  The engine stages map
// output in one of two ways, chosen by its own options: without a fault
// plan every task runs once, so workers combine into worker-local maps
// (cheapest; shuffle pairs counted per worker); with a plan, tasks may run
// twice, so each task's output is staged separately and committed once
// (shuffle pairs counted per committing task).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/matrix.hpp"
#include "common/require.hpp"
#include "mapreduce/scheduler.hpp"
#include "telemetry/telemetry.hpp"

namespace vfimr::mr {

/// Combiners fold repeated emissions of the same key (Phoenix++'s
/// "combining containers").  `operator()(acc, v)` must be associative.
template <typename V>
struct SumCombiner {
  void operator()(V& acc, const V& v) const { acc += v; }
};

template <typename V>
struct MinCombiner {
  void operator()(V& acc, const V& v) const {
    if (v < acc) acc = v;
  }
};

template <typename V>
struct MaxCombiner {
  void operator()(V& acc, const V& v) const {
    if (acc < v) acc = v;
  }
};

/// Last-writer-wins; for apps whose keys are emitted exactly once (e.g.
/// MatrixMultiply rows).
template <typename V>
struct ReplaceCombiner {
  void operator()(V& acc, const V& v) const { acc = v; }
};

struct PhaseTimes {
  double split_s = 0.0;
  double map_s = 0.0;
  double reduce_s = 0.0;
  double merge_s = 0.0;

  double total_s() const { return split_s + map_s + reduce_s + merge_s; }
};

struct JobProfile {
  PhaseTimes phases;
  SchedulerStats map_stats;
  SchedulerStats reduce_stats;
  /// shuffle(w, p): key/value pairs produced by map worker w that are read
  /// by reduce partition p — the on-chip traffic footprint of the shuffle.
  Matrix shuffle_pairs;
  std::size_t unique_keys = 0;
  std::uint64_t emitted_pairs = 0;

  /// Accumulate another job's profile (for iterative apps: Kmeans, PCA).
  void merge(const JobProfile& other);
};

/// Emits an engine run's phase spans onto a per-job "phases" trace track and
/// mirrors commit-once accounting into counters.  Timestamps are wall µs
/// since construction (job start), so map/reduce/merge spans abut.  Null
/// sink: every call is a pointer test.
class PhaseTrace {
 public:
  explicit PhaseTrace(const SchedulerConfig& cfg)
      : sink_{cfg.telemetry},
        label_{cfg.telemetry_label},
        start_{std::chrono::steady_clock::now()} {
    if (sink_ != nullptr) {
      track_ = sink_->tracer().track(label_, "phases");
    }
  }

  /// Record a phase that just ended and lasted `seconds`.
  void phase(const char* name, double seconds) const {
    if (sink_ == nullptr) return;
    const double end_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    sink_->tracer().complete(track_, name, end_us - seconds * 1e6,
                             seconds * 1e6);
  }

  /// Bump `<label><suffix>` (e.g. ".mr.map_commits") by one.
  void count(const char* suffix) const {
    if (sink_ == nullptr) return;
    sink_->metrics().counter(label_ + suffix).add();
  }

 private:
  telemetry::TelemetrySink* sink_;
  std::string label_;
  std::uint32_t track_ = 0;
  std::chrono::steady_clock::time_point start_;
};

template <typename K, typename V, typename Combiner = SumCombiner<V>,
          typename Hash = std::hash<K>>
class Engine {
 public:
  struct KeyValue {
    K key{};
    V value{};
  };

  struct Options {
    SchedulerConfig scheduler;       ///< used for both map and reduce phases
    std::size_t reduce_partitions = 0;  ///< 0 -> one per worker
  };

  struct Result {
    std::vector<KeyValue> pairs;  ///< merged, ascending key order
    JobProfile profile;
  };

  /// Worker-local emission sink handed to map functions.
  class Emitter {
   public:
    void emit(const K& key, const V& value) {
      auto [it, inserted] = local_->try_emplace(key, value);
      if (!inserted) combiner_(it->second, value);
      ++(*emitted_);
    }

   private:
    friend class Engine;
    Emitter(std::unordered_map<K, V, Hash>* local, std::uint64_t* emitted,
            Combiner combiner)
        : local_{local}, emitted_{emitted}, combiner_{combiner} {}
    std::unordered_map<K, V, Hash>* local_;
    std::uint64_t* emitted_;
    Combiner combiner_;
  };

  using MapFn = std::function<void(std::size_t task, Emitter& out)>;

  explicit Engine(Options options) : options_{std::move(options)} {
    VFIMR_REQUIRE(options_.scheduler.workers > 0);
    if (options_.reduce_partitions == 0) {
      options_.reduce_partitions = options_.scheduler.workers;
    }
  }

  Result run(std::size_t num_map_tasks, const MapFn& map_fn) {
    if (options_.scheduler.faults != nullptr) {
      return run_commit_once(num_map_tasks, map_fn);
    }
    const std::size_t workers = options_.scheduler.workers;
    const std::size_t parts = options_.reduce_partitions;
    const PhaseTrace trace{options_.scheduler};
    Result result;
    result.profile.shuffle_pairs = Matrix{workers, parts};

    // ---- Map ----
    std::vector<std::unordered_map<K, V, Hash>> locals(workers);
    std::vector<std::uint64_t> emitted(workers, 0);
    TaskScheduler sched{options_.scheduler};
    const Combiner combiner{};
    result.profile.map_stats =
        sched.run(num_map_tasks, [&](std::size_t task, std::size_t worker) {
          Emitter em{&locals[worker], &emitted[worker], combiner};
          map_fn(task, em);
        });
    result.profile.phases.map_s = result.profile.map_stats.wall_seconds;
    trace.phase("map", result.profile.phases.map_s);
    for (std::uint64_t e : emitted) result.profile.emitted_pairs += e;

    // Shuffle: bucket every worker's combined pairs by reduce partition in
    // ONE pass (the naive alternative — each partition rescanning all
    // workers' maps — is O(parts x total_pairs)).  The same pass feeds the
    // shuffle-matrix accounting: every (worker-local key, value) that hashes
    // to partition p will be read across the chip by the reducer owning p.
    // Bucket order preserves each local map's iteration order, so the reduce
    // below performs the identical try_emplace sequence per partition.
    const Hash hasher{};
    std::vector<std::vector<std::vector<KeyValue>>> buckets(
        workers, std::vector<std::vector<KeyValue>>(parts));
    for (std::size_t w = 0; w < workers; ++w) {
      for (auto& [key, value] : locals[w]) {
        const std::size_t p = hasher(key) % parts;
        buckets[w][p].push_back(KeyValue{key, std::move(value)});
        result.profile.shuffle_pairs(w, p) += 1.0;
      }
      locals[w] = {};  // pairs now live in the buckets
    }

    // ---- Reduce ----
    std::vector<std::vector<KeyValue>> partitions(parts);
    result.profile.reduce_stats =
        sched.run(parts, [&](std::size_t part, std::size_t /*worker*/) {
          std::unordered_map<K, V, Hash> acc;
          for (std::size_t w = 0; w < workers; ++w) {
            for (const auto& kv : buckets[w][part]) {
              auto [it, inserted] = acc.try_emplace(kv.key, kv.value);
              if (!inserted) combiner(it->second, kv.value);
            }
          }
          auto& out = partitions[part];
          out.reserve(acc.size());
          for (auto& [key, value] : acc) {
            out.push_back(KeyValue{key, std::move(value)});
          }
          std::sort(out.begin(), out.end(),
                    [](const KeyValue& a, const KeyValue& b) {
                      return a.key < b.key;
                    });
        });
    result.profile.phases.reduce_s = result.profile.reduce_stats.wall_seconds;
    trace.phase("reduce", result.profile.phases.reduce_s);

    // ---- Merge ---- (k-way merge of the sorted partitions; sequential on
    // the master, matching the paper's shrinking-thread-count merge stages)
    const auto merge_start = std::chrono::steady_clock::now();
    result.pairs = merge_partitions(std::move(partitions));
    result.profile.phases.merge_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      merge_start)
            .count();
    trace.phase("merge", result.profile.phases.merge_s);
    result.profile.unique_keys = result.pairs.size();
    return result;
  }

 private:
  /// Commit-once staging (scheduler.faults != nullptr).
  ///
  /// Worker-local combining maps cannot survive worker deaths or duplicate
  /// (speculative) executions: a re-executed task would double-combine into
  /// the same worker map.  This staging keeps results per
  /// TASK with a commit-once flag — the first completed execution of a task
  /// publishes its emissions, duplicates are discarded — and shuffles in
  /// task-id order.  Because map_fn is deterministic per task, the reduce
  /// input (and therefore the merged output) is byte-identical under ANY
  /// fault plan, worker count, or interleaving.  The trade-off is weaker
  /// cross-task combining: repeated keys merge in reduce instead of in the
  /// map-side containers, so emitted/shuffle accounting is task-grained.
  Result run_commit_once(std::size_t num_map_tasks, const MapFn& map_fn) {
    const std::size_t workers = options_.scheduler.workers;
    const std::size_t parts = options_.reduce_partitions;
    const PhaseTrace trace{options_.scheduler};
    Result result;
    result.profile.shuffle_pairs = Matrix{workers, parts};

    // ---- Map ---- (per-task staging, first commit wins)
    std::vector<std::unordered_map<K, V, Hash>> task_out(num_map_tasks);
    std::vector<std::uint64_t> task_emitted(num_map_tasks, 0);
    std::vector<std::size_t> task_committer(num_map_tasks, 0);
    std::unique_ptr<std::atomic<int>[]> committed{
        new std::atomic<int>[num_map_tasks]};
    for (std::size_t t = 0; t < num_map_tasks; ++t) {
      committed[t].store(0, std::memory_order_relaxed);
    }
    TaskScheduler sched{options_.scheduler};
    const Combiner combiner{};
    result.profile.map_stats =
        sched.run(num_map_tasks, [&](std::size_t task, std::size_t worker) {
          std::unordered_map<K, V, Hash> local;
          std::uint64_t emitted = 0;
          Emitter em{&local, &emitted, combiner};
          map_fn(task, em);
          int expected = 0;
          if (committed[task].compare_exchange_strong(
                  expected, 1, std::memory_order_acq_rel)) {
            task_out[task] = std::move(local);
            task_emitted[task] = emitted;
            task_committer[task] = worker;
            trace.count(".mr.map_commits");
          } else {
            // Losing duplicates drop their staging map.
            trace.count(".mr.duplicate_maps");
          }
        });
    result.profile.phases.map_s = result.profile.map_stats.wall_seconds;
    trace.phase("map", result.profile.phases.map_s);
    for (std::uint64_t e : task_emitted) result.profile.emitted_pairs += e;

    // Shuffle in task-id order: worker-independent, hence replay-exact.
    const Hash hasher{};
    std::vector<std::vector<KeyValue>> buckets(parts);
    for (std::size_t t = 0; t < num_map_tasks; ++t) {
      for (auto& [key, value] : task_out[t]) {
        const std::size_t p = hasher(key) % parts;
        buckets[p].push_back(KeyValue{key, std::move(value)});
        result.profile.shuffle_pairs(task_committer[t], p) += 1.0;
      }
      task_out[t] = {};
    }

    // ---- Reduce ---- (same commit-once treatment per partition)
    std::vector<std::vector<KeyValue>> partitions(parts);
    std::unique_ptr<std::atomic<int>[]> part_committed{
        new std::atomic<int>[parts]};
    for (std::size_t p = 0; p < parts; ++p) {
      part_committed[p].store(0, std::memory_order_relaxed);
    }
    result.profile.reduce_stats =
        sched.run(parts, [&](std::size_t part, std::size_t /*worker*/) {
          std::unordered_map<K, V, Hash> acc;
          for (const auto& kv : buckets[part]) {
            auto [it, inserted] = acc.try_emplace(kv.key, kv.value);
            if (!inserted) combiner(it->second, kv.value);
          }
          std::vector<KeyValue> out;
          out.reserve(acc.size());
          for (auto& [key, value] : acc) {
            out.push_back(KeyValue{key, std::move(value)});
          }
          std::sort(out.begin(), out.end(),
                    [](const KeyValue& a, const KeyValue& b) {
                      return a.key < b.key;
                    });
          int expected = 0;
          if (part_committed[part].compare_exchange_strong(
                  expected, 1, std::memory_order_acq_rel)) {
            partitions[part] = std::move(out);
          }
        });
    result.profile.phases.reduce_s = result.profile.reduce_stats.wall_seconds;
    trace.phase("reduce", result.profile.phases.reduce_s);

    const auto merge_start = std::chrono::steady_clock::now();
    result.pairs = merge_partitions(std::move(partitions));
    result.profile.phases.merge_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      merge_start)
            .count();
    trace.phase("merge", result.profile.phases.merge_s);
    result.profile.unique_keys = result.pairs.size();
    return result;
  }

  std::vector<KeyValue> merge_partitions(
      std::vector<std::vector<KeyValue>> partitions) {
    struct Cursor {
      std::size_t part;
      std::size_t index;
    };
    auto greater = [&](const Cursor& a, const Cursor& b) {
      return partitions[b.part][b.index].key < partitions[a.part][a.index].key;
    };
    std::priority_queue<Cursor, std::vector<Cursor>, decltype(greater)> heap{
        greater};
    std::size_t total = 0;
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      total += partitions[p].size();
      if (!partitions[p].empty()) heap.push(Cursor{p, 0});
    }
    std::vector<KeyValue> out;
    out.reserve(total);
    while (!heap.empty()) {
      const Cursor c = heap.top();
      heap.pop();
      out.push_back(std::move(partitions[c.part][c.index]));
      if (c.index + 1 < partitions[c.part].size()) {
        heap.push(Cursor{c.part, c.index + 1});
      }
    }
    return out;
  }

  Options options_;
};

}  // namespace vfimr::mr
