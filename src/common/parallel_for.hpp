#pragma once
// Bounded fork-join parallel loop for embarrassingly parallel experiment
// sweeps (one full-system simulation per index, each seconds long).
//
// Contract:
//  * `body(i)` is invoked exactly once for every i in [0, count), from at
//    most `threads` worker threads pulling indices off a shared atomic
//    counter (dynamic scheduling — sweep items have very uneven cost).
//  * Deterministic results are the *caller's* responsibility and trivially
//    achieved by writing into a pre-sized slot: results[i] = f(i).  The
//    runner guarantees each slot is written by exactly one invocation and
//    that all writes happen-before parallel_for returns (thread join).
//  * Seed isolation: the runner shares no RNG state between indices; any
//    randomness must live inside `body`, seeded from `i` alone, so results
//    are independent of the thread count and of scheduling order.
//  * The first exception thrown by any invocation is captured, the
//    remaining indices are abandoned (in-flight bodies still finish), and
//    the exception is rethrown on the calling thread after all workers join.
//  * threads <= 1 (or count <= 1) runs inline on the calling thread with no
//    pool — the sequential path used by tests and single-core hosts.
//  * Thread budget: the loop runs min(threads, count) workers, and each
//    body runs with the threads its workers leave unused,
//    max(1, threads / workers).  default_parallelism() returns that budget
//    inside a body, so a nested loop given default_parallelism() never
//    oversubscribes the outer loop's threads, and threads = 1 keeps every
//    nested loop on one thread.  The budget is restored when the body
//    returns or throws.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vfimr {

namespace detail {

/// Threads granted to the parallel_for body running on this thread; 0
/// outside any body.
inline thread_local std::size_t thread_budget = 0;

}  // namespace detail

/// Worker count used when a sweep is asked to pick "a sensible default":
/// inside a parallel_for body, the body's thread budget; otherwise the
/// VFIMR_THREADS environment variable when set to a positive integer, else
/// std::thread::hardware_concurrency() (>= 1).
inline std::size_t default_parallelism() {
  if (detail::thread_budget > 0) return detail::thread_budget;
  if (const char* env = std::getenv("VFIMR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

inline void parallel_for(std::size_t count, std::size_t threads,
                         const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const std::size_t workers = std::clamp<std::size_t>(threads, 1, count);
  const std::size_t budget = std::max<std::size_t>(1, threads / workers);
  // Grants the running thread `budget` until the scope ends, however the
  // bodies inside it end.
  struct BudgetScope {
    std::size_t saved = detail::thread_budget;
    explicit BudgetScope(std::size_t b) { detail::thread_budget = b; }
    ~BudgetScope() { detail::thread_budget = saved; }
  };
  if (workers == 1) {
    const BudgetScope scope{budget};
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto work = [&]() {
    const BudgetScope scope{budget};
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{error_mu};
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
  work();  // the calling thread is worker 0
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace vfimr
