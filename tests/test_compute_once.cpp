// ComputeOnce (common/compute_once.hpp), the memo behind NetworkEvaluator,
// PlatformCache and each platform's analytical-model memo: one make per key,
// a throwing make leaves its key empty, and makes for different keys do not
// serialize.  The same-key contention case is tier-2
// (test_stress_concurrency.cpp), where it runs under TSan.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/compute_once.hpp"

namespace vfimr {
namespace {

TEST(ComputeOnce, EachKeyIsMadeOnce) {
  ComputeOnce<std::string> memo;
  int makes = 0;
  const auto make = [&makes](std::string value) {
    return [&makes, value] {
      ++makes;
      return value;
    };
  };
  bool made = false;
  EXPECT_EQ(memo.get("a", make("A"), &made), "A");
  EXPECT_TRUE(made);
  EXPECT_EQ(memo.get("a", make("other"), &made), "A");
  EXPECT_FALSE(made);
  EXPECT_EQ(memo.get("b", make("B"), &made), "B");
  EXPECT_TRUE(made);
  EXPECT_EQ(memo.get("a", make("other")), "A");
  EXPECT_EQ(makes, 2);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(ComputeOnce, ThrowingMakeLeavesTheKeyEmpty) {
  ComputeOnce<int> memo;
  bool made = false;
  EXPECT_THROW(memo.get(
                   "k", []() -> int { throw std::runtime_error{"make failed"}; },
                   &made),
               std::runtime_error);
  EXPECT_TRUE(made);
  EXPECT_EQ(memo.get("k", [] { return 5; }, &made), 5);
  EXPECT_TRUE(made) << "the failed make must not have stored a value";
  EXPECT_EQ(memo.get("k", [] { return 6; }, &made), 5);
  EXPECT_FALSE(made);
  EXPECT_EQ(memo.size(), 1u);
}

TEST(ComputeOnce, MakeForOneKeyDoesNotBlockAnother) {
  ComputeOnce<int> memo;
  std::latch slow_started{1};
  std::promise<void> release;
  std::future<void> released = release.get_future();
  bool released_in_time = false;
  std::thread slow{[&] {
    memo.get("slow", [&] {
      slow_started.count_down();
      // Bounded wait: if the get below blocked behind this make, the test
      // fails after the timeout instead of hanging.
      released_in_time = released.wait_for(std::chrono::seconds(10)) ==
                         std::future_status::ready;
      return 1;
    });
  }};
  slow_started.wait();
  EXPECT_EQ(memo.get("fast", [] { return 2; }), 2);
  release.set_value();
  slow.join();
  EXPECT_TRUE(released_in_time)
      << "a get for another key waited for the running make";
  EXPECT_EQ(memo.get("slow", [] { return 3; }), 1);
}

}  // namespace
}  // namespace vfimr
