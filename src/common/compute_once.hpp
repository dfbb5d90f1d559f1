#pragma once
// ComputeOnce: the thread-safe compute-once memo behind every cache the
// simulator owns (DESIGN.md §11, §12).  One registry mutex guards only the
// find-or-create of a key's entry; the value is made under the entry's own
// mutex, so makes for different keys run in parallel while a second caller
// asking for a key being made blocks until the value is ready.

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace vfimr {

template <class V>
class ComputeOnce {
 public:
  /// The value stored under `key`, running `make()` first if no caller has
  /// yet.  If `make()` throws, the key stays empty and the next request runs
  /// it again.  `made` (nullable) is set to whether this call ran `make()`.
  template <class Make>
  V get(const std::string& key, Make&& make, bool* made = nullptr) {
    Entry* entry = nullptr;
    {
      // Map nodes never move and are never erased, so the entry outlives
      // the registry lock.
      std::lock_guard<std::mutex> lock{mutex_};
      entry = &entries_[key];
    }
    std::lock_guard<std::mutex> lock{entry->mutex};
    if (made != nullptr) *made = !entry->value.has_value();
    if (!entry->value.has_value()) entry->value.emplace(make());
    return *entry->value;
  }

  /// Keys requested so far, including any whose make threw.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return entries_.size();
  }

  /// Drops every key.  Not safe against a concurrent get().
  void clear() {
    std::lock_guard<std::mutex> lock{mutex_};
    entries_.clear();
  }

 private:
  struct Entry {
    std::mutex mutex;
    std::optional<V> value;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace vfimr
