// Property tests for the deterministic work-stealing task simulator:
// work conservation, Eq. 3 steal-cap respect, makespan bounds and
// seed-determinism, across random task sets and heterogeneous core sets,
// and bit-identity with a straightforward per-task core scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "harness/generators.hpp"
#include "harness/property.hpp"
#include "mapreduce/scheduler.hpp"
#include "sysmodel/task_sim.hpp"

namespace vfimr::sysmodel {
namespace {

constexpr StealingPolicy kAllPolicies[] = {StealingPolicy::kPhoenixDefault,
                                           StealingPolicy::kVfiAssignment,
                                           StealingPolicy::kVfiHardCap};

TEST(PropTaskSim, WorkConservationUnderEveryPolicy) {
  test::for_each_seed(10, [](Rng& rng, std::uint64_t) {
    const auto spec = test::random_taskset(rng);
    const auto tasks = materialize_tasks(spec, rng);
    const auto cores = test::random_cores(rng, 1 + rng.uniform_u64(32));
    const double mem_scale = rng.uniform(0.5, 2.0);

    for (StealingPolicy policy : kAllPolicies) {
      const TaskSimResult r = simulate_phase(tasks, cores, mem_scale, policy);
      std::uint64_t executed = 0;
      for (std::uint64_t e : r.tasks_executed) executed += e;
      EXPECT_EQ(executed, tasks.size())
          << "policy " << static_cast<int>(policy);
      ASSERT_EQ(r.busy_seconds.size(), cores.size());
      for (std::size_t i = 0; i < cores.size(); ++i) {
        EXPECT_GE(r.busy_seconds[i], 0.0);
        EXPECT_LE(r.busy_seconds[i], r.makespan_s + 1e-12)
            << "core " << i << " busier than the makespan";
      }
      if (!tasks.empty()) {
        EXPECT_GE(r.makespan_s, 0.0);
      }
    }
  });
}

TEST(PropTaskSim, HardCapRespectsEq3) {
  test::for_each_seed(10, [](Rng& rng, std::uint64_t) {
    const auto spec = test::random_taskset(rng);
    const auto tasks = materialize_tasks(spec, rng);
    const std::size_t c = 1 + rng.uniform_u64(32);
    const auto cores = test::random_cores(rng, c);

    const TaskSimResult r =
        simulate_phase(tasks, cores, 1.0, StealingPolicy::kVfiHardCap);
    for (std::size_t i = 0; i < c; ++i) {
      if (cores[i].rel_freq >= 1.0) continue;
      const std::size_t cap =
          mr::stealing_cap(tasks.size(), c, cores[i].rel_freq);
      EXPECT_LE(r.tasks_executed[i], cap)
          << "core " << i << " (rel_freq " << cores[i].rel_freq
          << ") exceeded its Eq. 3 cap";
    }
  });
}

TEST(PropTaskSim, HomogeneousMakespanBounds) {
  test::for_each_seed(10, [](Rng& rng, std::uint64_t) {
    const auto spec = test::random_taskset(rng);
    const auto tasks = materialize_tasks(spec, rng);
    if (tasks.empty()) return;
    const std::size_t c = 1 + rng.uniform_u64(16);
    const std::vector<SimCore> cores(c, SimCore{2.5e9, 1.0});
    const double mem_scale = rng.uniform(0.5, 2.0);

    double total = 0.0;
    double longest = 0.0;
    for (const auto& t : tasks) {
      const double secs = t.cycles / 2.5e9 + t.mem_seconds * mem_scale;
      total += secs;
      longest = std::max(longest, secs);
    }

    const TaskSimResult r = simulate_phase(tasks, cores, mem_scale,
                                           StealingPolicy::kPhoenixDefault);
    const double ideal = total / static_cast<double>(c);
    // Greedy scheduling: never better than the perfect split, never worse
    // than the perfect split plus one straggler task.
    EXPECT_GE(r.makespan_s, ideal * (1.0 - 1e-12));
    EXPECT_LE(r.makespan_s, ideal + longest + 1e-12);
  });
}

TEST(PropTaskSim, MaterializeAndSimulateAreSeedDeterministic) {
  test::for_each_seed(6, [](Rng&, std::uint64_t seed) {
    auto run_once = [&]() {
      Rng rng{seed};
      const auto spec = test::random_taskset(rng);
      const auto util = test::random_utilization(rng, 16).utilization;
      const auto tasks = materialize_tasks(spec, util, rng);
      const auto cores = test::random_cores(rng, 8);
      return simulate_phase(tasks, cores, 1.3,
                            StealingPolicy::kVfiAssignment);
    };
    const TaskSimResult a = run_once();
    const TaskSimResult b = run_once();
    EXPECT_EQ(a.tasks_executed, b.tasks_executed);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
    ASSERT_EQ(a.busy_seconds.size(), b.busy_seconds.size());
    for (std::size_t i = 0; i < a.busy_seconds.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.busy_seconds[i], b.busy_seconds[i]);
    }
  });
}

/// block_owner must be the exact inverse of the block split
/// [i*n/c, (i+1)*n/c) for every (n, c), including non-divisible pairs —
/// the owner-map regression behind the §7.3 compute/memory shift.
TEST(PropTaskSim, BlockOwnerInvertsSplitForRandomShapes) {
  test::for_each_seed(12, [](Rng& rng, std::uint64_t) {
    const std::size_t c = 1 + rng.uniform_u64(48);
    // Bias toward non-divisible n (the old formula was correct only when
    // c divides n evenly and tasks outnumber cores).
    std::size_t n = 1 + rng.uniform_u64(400);
    if (n % c == 0 && rng.bernoulli(0.8)) ++n;
    for (std::size_t i = 0; i < c; ++i) {
      const std::size_t lo = i * n / c;
      const std::size_t hi = (i + 1) * n / c;
      for (std::size_t j = lo; j < hi; ++j) {
        ASSERT_EQ(block_owner(j, n, c), i)
            << "task " << j << " of n=" << n << " c=" << c;
      }
    }
  });
}

/// Utilization-correlated materialization preserves total nominal time
/// (the time-conservation contract documented in task_sim.hpp).
TEST(PropTaskSim, CorrelatedMaterializationConservesNominalTime) {
  test::for_each_seed(8, [](Rng& rng, std::uint64_t seed) {
    const auto spec = test::random_taskset(rng);
    const auto util = test::random_utilization(rng, 64).utilization;
    Rng rng_plain{seed ^ 0xBEEF};
    Rng rng_corr{seed ^ 0xBEEF};
    const auto plain = materialize_tasks(spec, rng_plain);
    const auto corr = materialize_tasks(spec, util, rng_corr);
    ASSERT_EQ(plain.size(), corr.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const double t_plain =
          plain[i].cycles / kNominalFreqHz + plain[i].mem_seconds;
      const double t_corr =
          corr[i].cycles / kNominalFreqHz + corr[i].mem_seconds;
      EXPECT_NEAR(t_corr, t_plain, 1e-9 + 1e-9 * t_plain);
      EXPECT_GE(corr[i].cycles, 0.0);
      EXPECT_GE(corr[i].mem_seconds, -1e-15);
    }
  });
}

/// The oracle for simulate_phase: the same scheduler written plainly, with
/// one deque per core and a scan of every core for each task it places
/// (the simulator before its core heap and flat queues), telemetry left
/// out.
TaskSimResult scan_simulate_phase(const std::vector<SimTask>& tasks,
                                  const std::vector<SimCore>& cores,
                                  double mem_scale, StealingPolicy policy,
                                  const std::vector<faults::CoreFault>* faults) {
  const std::size_t c = cores.size();
  const std::size_t n = tasks.size();
  TaskSimResult result;
  result.busy_seconds.assign(c, 0.0);
  result.tasks_executed.assign(c, 0);
  if (n == 0) return result;

  double fmax = 0.0;
  for (const auto& core : cores) fmax = std::max(fmax, core.freq_hz);
  std::vector<double> rel(c, 1.0);
  for (std::size_t i = 0; i < c; ++i) rel[i] = cores[i].freq_hz / fmax;

  std::vector<std::deque<std::size_t>> queues(c);
  std::vector<std::size_t> leftovers;
  for (std::size_t i = 0; i < c; ++i) {
    const std::size_t lo = i * n / c;
    const std::size_t hi = (i + 1) * n / c;
    std::size_t keep = hi - lo;
    if (policy == StealingPolicy::kVfiAssignment && rel[i] < 1.0) {
      const auto share = static_cast<std::size_t>(std::llround(
          static_cast<double>(n) / static_cast<double>(c) * rel[i]));
      keep = std::min(keep, share);
    }
    for (std::size_t t = lo; t < lo + keep; ++t) queues[i].push_back(t);
    for (std::size_t t = lo + keep; t < hi; ++t) leftovers.push_back(t);
  }
  std::vector<std::size_t> fast;
  for (std::size_t i = 0; i < c; ++i) {
    if (rel[i] >= 1.0) fast.push_back(i);
  }
  for (std::size_t k = 0; k < leftovers.size(); ++k) {
    queues[fast[k % fast.size()]].push_back(leftovers[k]);
  }

  std::vector<std::size_t> cap(c, std::numeric_limits<std::size_t>::max());
  if (policy == StealingPolicy::kVfiHardCap) {
    for (std::size_t i = 0; i < c; ++i) {
      if (rel[i] < 1.0) cap[i] = mr::stealing_cap(n, c, rel[i]);
    }
  }
  std::vector<double> fail_time(c, std::numeric_limits<double>::infinity());
  std::vector<bool> failed(c, false);
  if (faults != nullptr && !faults->empty()) {
    double ideal = 0.0;
    for (const auto& t : tasks) {
      ideal += t.cycles / fmax + t.mem_seconds * mem_scale;
    }
    ideal /= static_cast<double>(c);
    for (const auto& f : *faults) {
      if (f.core < c) {
        fail_time[f.core] = std::min(fail_time[f.core], f.at_fraction * ideal);
      }
    }
  }

  std::vector<double> free_time(c, 0.0);
  std::vector<bool> active(c, true);
  for (std::size_t i = 0; i < c; ++i) {
    if (cap[i] == 0) active[i] = false;
  }
  std::size_t remaining = n;
  struct Retry {
    std::size_t task;
    double ready;
  };
  std::deque<Retry> retries;
  while (remaining > 0) {
    std::size_t who = c;
    for (std::size_t i = 0; i < c; ++i) {
      if (!active[i]) continue;
      if (who == c || free_time[i] < free_time[who]) who = i;
    }
    if (who == c) {
      for (std::size_t i = 0; i < c; ++i) {
        active[i] = true;
        cap[i] = std::numeric_limits<std::size_t>::max();
        fail_time[i] = std::numeric_limits<double>::infinity();
      }
      continue;
    }
    if (fail_time[who] <= free_time[who]) {
      active[who] = false;
      if (!failed[who]) {
        failed[who] = true;
        ++result.cores_failed;
      }
      continue;
    }
    std::size_t task = n;
    double ready = 0.0;
    if (!queues[who].empty()) {
      task = queues[who].front();
      queues[who].pop_front();
    } else if (!retries.empty()) {
      task = retries.front().task;
      ready = retries.front().ready;
      retries.pop_front();
      ++result.tasks_reexecuted;
    } else {
      std::size_t victim = c;
      for (std::size_t v = 0; v < c; ++v) {
        if (v == who || queues[v].empty()) continue;
        if (victim == c || queues[v].size() > queues[victim].size()) {
          victim = v;
        }
      }
      if (victim == c) {
        active[who] = false;
        continue;
      }
      task = queues[victim].back();
      queues[victim].pop_back();
      ++result.steals;
    }
    const double duration = tasks[task].cycles / cores[who].freq_hz +
                            tasks[task].mem_seconds * mem_scale;
    const double start = std::max(free_time[who], ready);
    const double end = start + duration;
    if (end > fail_time[who]) {
      const double wasted = std::max(0.0, fail_time[who] - start);
      result.busy_seconds[who] += wasted;
      result.wasted_seconds += wasted;
      free_time[who] = fail_time[who];
      result.makespan_s = std::max(result.makespan_s, fail_time[who]);
      active[who] = false;
      if (!failed[who]) {
        failed[who] = true;
        ++result.cores_failed;
      }
      retries.push_back(Retry{task, std::max(ready, fail_time[who])});
      continue;
    }
    result.busy_seconds[who] += duration;
    free_time[who] = end;
    result.makespan_s = std::max(result.makespan_s, free_time[who]);
    --remaining;
    if (++result.tasks_executed[who] >= cap[who]) active[who] = false;
  }
  return result;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A random phase shaped to stress the scheduler's choices: 0-400 tasks on
/// 1-64 cores, and in half the cases durations that are whole seconds on
/// every ladder point (cycles a multiple of 6.3e11, the ladder's common
/// multiple), so free times tie across cores again and again.
struct PhaseCase {
  std::vector<SimTask> tasks;
  std::vector<SimCore> cores;
  double mem_scale = 1.0;
  std::vector<faults::CoreFault> faults;
};

PhaseCase random_phase(Rng& rng) {
  PhaseCase p;
  const std::size_t c = 1 + rng.uniform_u64(64);
  const bool ties = rng.bernoulli(0.5);
  p.cores = test::random_cores(
      rng, c,
      ties || rng.bernoulli(0.5) ? power::VfTable::standard()
                                 : test::random_vf_table(rng));
  if (ties) {
    p.tasks.resize(rng.uniform_u64(401));
    const std::uint64_t spread = 1 + rng.uniform_u64(3);
    for (auto& t : p.tasks) {
      t.cycles = 6.3e11 * static_cast<double>(rng.uniform_u64(spread));
      t.mem_seconds = static_cast<double>(rng.uniform_u64(spread));
    }
    p.mem_scale = static_cast<double>(1 + rng.uniform_u64(2));
  } else {
    p.tasks = materialize_tasks(test::random_taskset(rng, 400), rng);
    p.mem_scale = rng.uniform(0.5, 2.0);
  }
  // Core faults: none, a few, or every core (which also reaches the
  // lift-the-caps fallback once every core has died).
  const double fault_mix = rng.uniform();
  for (std::size_t i = 0; i < c; ++i) {
    if (fault_mix > 0.7 || (fault_mix > 0.4 && rng.bernoulli(0.2))) {
      p.faults.push_back({i, rng.uniform(0.0, 1.2)});
    }
  }
  return p;
}

// The heap-driven simulator places every task where the per-task scan
// does: bit-identical makespans, busy seconds, per-core task counts,
// steals, failures, re-executions and wasted seconds, under every policy —
// including the Eq. 3 caps of zero that small N/C gives slow cores.
TEST(PropTaskSim, MatchesTheScanOracleBitForBit) {
  std::uint64_t lifted = 0;
  std::uint64_t zero_caps = 0;
  test::for_each_seed(300, [&](Rng& rng, std::uint64_t) {
    const PhaseCase p = random_phase(rng);
    double fmax = 0.0;
    for (const auto& core : p.cores) fmax = std::max(fmax, core.freq_hz);
    for (const auto& core : p.cores) {
      if (core.freq_hz < fmax &&
          mr::stealing_cap(p.tasks.size(), p.cores.size(),
                           core.freq_hz / fmax) == 0) {
        ++zero_caps;
        break;
      }
    }
    for (StealingPolicy policy : kAllPolicies) {
      SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                   ", " + std::to_string(p.tasks.size()) + " tasks on " +
                   std::to_string(p.cores.size()) + " cores");
      const TaskSimResult got =
          simulate_phase(p.tasks, p.cores, p.mem_scale, policy, &p.faults);
      const TaskSimResult want = scan_simulate_phase(
          p.tasks, p.cores, p.mem_scale, policy, &p.faults);
      EXPECT_EQ(bits(got.makespan_s), bits(want.makespan_s));
      ASSERT_EQ(got.busy_seconds.size(), want.busy_seconds.size());
      for (std::size_t i = 0; i < want.busy_seconds.size(); ++i) {
        EXPECT_EQ(bits(got.busy_seconds[i]), bits(want.busy_seconds[i]))
            << "core " << i;
      }
      EXPECT_EQ(got.tasks_executed, want.tasks_executed);
      EXPECT_EQ(got.steals, want.steals);
      EXPECT_EQ(got.cores_failed, want.cores_failed);
      EXPECT_EQ(got.tasks_reexecuted, want.tasks_reexecuted);
      EXPECT_EQ(bits(got.wasted_seconds), bits(want.wasted_seconds));
      if (want.cores_failed == p.cores.size() && !p.tasks.empty()) ++lifted;
    }
  });
  // The shapes above must reach caps of zero and the fallback that
  // restarts dead cores.
  EXPECT_GT(zero_caps, 0u);
  EXPECT_GT(lifted, 0u);
}

}  // namespace
}  // namespace vfimr::sysmodel
