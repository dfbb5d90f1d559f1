// Tier-2 stress tests for the persistent evaluation store: concurrent
// writer *processes* (the `--shard i/N` population mode) and concurrent
// writer threads must leave a store whose every committed record reads
// back verbatim — the advisory directory lock serializes segment commits,
// and CRC framing guarantees a torn write degrades to a miss, never to
// wrong data.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "store/eval_store.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define VFIMR_HAVE_FORK 1
#endif

namespace vfimr::store {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path{(fs::temp_directory_path() / ("vfimr_store_stress_" + name))
                 .string()} {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::string key_of(int writer, int i) {
  return "writer" + std::to_string(writer) + "/key" + std::to_string(i);
}

std::string value_of(int writer, int i) {
  // Distinctive, length-varied payloads so any cross-record confusion or
  // truncation shows up as a content mismatch.
  return std::string(static_cast<std::size_t>(64 + (i * 7) % 256),
                     static_cast<char>('A' + (writer * 11 + i) % 26)) +
         "#" + std::to_string(writer) + ":" + std::to_string(i);
}

constexpr int kKeysPerWriter = 200;

#if VFIMR_HAVE_FORK
TEST(StoreStress, TwoWriterProcessesLeaveAConsistentIndex) {
  TempDir tmp{"fork"};
  // Both children also write a shared overlap range — content-addressed
  // puts of identical bytes — to exercise commit-time dedup under the
  // directory lock.
  const auto child = [&](int writer) {
    EvalStore st{tmp.path};
    for (int i = 0; i < kKeysPerWriter; ++i) {
      st.put(key_of(writer, i), value_of(writer, i));
      st.put("shared/key" + std::to_string(i % 32), "shared value");
      if (i % 16 == 0) st.flush();  // interleave many small commits
    }
    st.flush();
  };

  std::vector<pid_t> pids;
  for (int writer = 0; writer < 2; ++writer) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      child(writer);
      _exit(::testing::Test::HasFailure() ? 1 : 0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // A fresh reader sees every record from both processes, verbatim, with
  // nothing corrupt in the scan.
  EvalStore st{tmp.path};
  std::string v;
  for (int writer = 0; writer < 2; ++writer) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      ASSERT_TRUE(st.get(key_of(writer, i), v))
          << "missing writer " << writer << " key " << i;
      EXPECT_EQ(v, value_of(writer, i));
    }
  }
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(st.get("shared/key" + std::to_string(i), v));
    EXPECT_EQ(v, "shared value");
  }
  EXPECT_EQ(st.stats().corrupt_records, 0u);
  // Cross-process content dedup is best-effort (each process only knows the
  // segments it indexed at open), so the shared keys may be stored twice —
  // the index may hold more locations than distinct keys, never fewer.
  EXPECT_GE(st.keys(), 2u * kKeysPerWriter + 32u);
}
#endif  // VFIMR_HAVE_FORK

TEST(StoreStress, TwoStoreInstancesInterleaveCommitsSafely) {
  // Same shape as the fork test but in-process: two EvalStore instances on
  // one directory, driven from two threads.  Each instance's commits go
  // through the same advisory lock path as a foreign process's would.
  TempDir tmp{"instances"};
  {
    EvalStore a{tmp.path};
    EvalStore b{tmp.path};
    std::thread ta{[&] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        a.put(key_of(0, i), value_of(0, i));
        if (i % 8 == 0) a.flush();
      }
      a.flush();
    }};
    std::thread tb{[&] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        b.put(key_of(1, i), value_of(1, i));
        if (i % 8 == 0) b.flush();
      }
      b.flush();
    }};
    ta.join();
    tb.join();
  }
  EvalStore st{tmp.path};
  std::string v;
  for (int writer = 0; writer < 2; ++writer) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      ASSERT_TRUE(st.get(key_of(writer, i), v));
      EXPECT_EQ(v, value_of(writer, i));
    }
  }
  EXPECT_EQ(st.stats().corrupt_records, 0u);
  EXPECT_EQ(st.keys(), 2u * kKeysPerWriter);
}

TEST(StoreStress, ManyThreadsHammerOneStore) {
  // All public methods share one mutex; this is the usage pattern of
  // parallel_for evaluator workers resolving through an attached store.
  TempDir tmp{"threads"};
  EvalStore st{tmp.path};
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::string v;
      for (int i = 0; i < kKeysPerWriter; ++i) {
        st.put(key_of(t, i), value_of(t, i));
        ASSERT_TRUE(st.get(key_of(t, i), v));
        ASSERT_EQ(v, value_of(t, i));
        (void)st.get(key_of((t + 1) % kThreads, i), v);  // races are fine
      }
    });
  }
  for (auto& w : workers) w.join();
  st.flush();
  EXPECT_EQ(st.keys(),
            static_cast<std::size_t>(kThreads) * kKeysPerWriter);

  EvalStore reopened{tmp.path};
  std::string v;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      ASSERT_TRUE(reopened.get(key_of(t, i), v));
      EXPECT_EQ(v, value_of(t, i));
    }
  }
  EXPECT_EQ(reopened.stats().corrupt_records, 0u);
}

TEST(StoreStress, FlushStreamsWhileOtherThreadsPut) {
  // flush() takes the pending batch under the lock and then streams it
  // from the in-memory records outside the lock, while writer threads keep
  // inserting into (and rehashing) the same map.  A flusher thread commits
  // whatever is pending, again and again, until the writers are done.
  // Every record must be committed exactly once and read back verbatim.
  TempDir tmp{"flush_while_put"};
  constexpr int kWriters = 4;
  {
    EvalStore st{tmp.path};
    std::atomic<bool> writing{true};
    std::thread flusher{[&st, &writing] {
      while (writing.load()) st.flush();
    }};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&st, t] {
        for (int i = 0; i < kKeysPerWriter; ++i) {
          st.put(key_of(t, i), value_of(t, i));
        }
      });
    }
    for (auto& w : writers) w.join();
    writing = false;
    flusher.join();
    st.flush();
    EXPECT_GT(st.stats().bytes_written, 0u);
  }
  EvalStore st{tmp.path};
  std::string v;
  for (int t = 0; t < kWriters; ++t) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      ASSERT_TRUE(st.get(key_of(t, i), v));
      EXPECT_EQ(v, value_of(t, i));
    }
  }
  EXPECT_EQ(st.stats().corrupt_records, 0u);
  EXPECT_EQ(st.stats().records_scanned,
            static_cast<std::uint64_t>(kWriters) * kKeysPerWriter);
}

}  // namespace
}  // namespace vfimr::store
