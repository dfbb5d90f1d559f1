#pragma once
// EvalStore: the disk tier of the evaluation memo stack (DESIGN.md §16).
//
// A content-addressed key/value store shared by every process that points
// VFIMR_CACHE_DIR (or --cache-dir) at the same directory.  Keys are the
// existing field-by-field cache keys of the in-memory memo layer
// (NetworkEvaluator, PlatformCache, the incremental sweep driver); values
// are the versioned canonical encodings from store/codec.hpp.  Because keys
// are exact input bytes and values are exact result bytes, a disk hit is
// bit-identical to a fresh computation by construction — and anything less
// (truncation, bit rot, schema drift) must degrade to a recompute, never to
// wrong data.
//
// On-disk layout (under `<root>/v<kStoreFormatVersion>-c<kCodecVersion>/`):
//   seg-s<shard>-<pid>-<seq>.seg   committed, immutable segment files
//   tmp-...part                    in-flight writer batches (pre-rename)
//   LOCK                           advisory flock taken around commits
//
// Each segment is a run of self-delimiting records:
//   [magic u32][format u32][key_len u64][val_len u64][key_hash u64]
//   [crc32(key+value) u32][key bytes][value bytes]
//
// Write path: put() queues records in memory (immediately visible to this
// process's get()); flush() buckets them by key-hash shard, writes one
// fsynced temp file per non-empty shard and atomically renames it into
// place while holding the advisory LOCK — so concurrent writer processes
// (sharded sweep workers, `--shard i/N`) interleave whole segments, never
// partial records, and a crash leaves only ignorable tmp files.
//
// Read path: open() scans every committed segment's record headers into an
// in-memory index (key_hash -> file locations).  A truncated tail or a
// corrupt header ends that segment's scan (the committed prefix stays
// usable); a record whose format version differs is skipped and counted.
// get() reads the candidate record back, re-verifies the CRC and compares
// the FULL key bytes — a failed checksum or a hash collision is a miss,
// never a wrong answer.
//
// Thread safety: all public methods are safe to call concurrently; the
// in-memory side is guarded by one mutex (disk reads happen under it too —
// records are small and lookups are rare next to the simulations they
// replace).

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace vfimr::store {

/// Bump when the record framing changes.  Stores of a different version
/// live in a different `v<N>-...` subdirectory (and any stray record of a
/// foreign version inside the directory is skipped at scan), so a stale
/// store is ignored — recomputed, never trusted.
inline constexpr std::uint32_t kStoreFormatVersion = 1;

/// Version of the value encodings (store/codec.hpp; bump rules there).  It
/// names the directory too, `v<format>-c<codec>`: put() leaves a key that is
/// already on disk alone, so records a newer codec rejects must not share a
/// namespace with it, or they would block their own replacement and keep
/// the store cold on every later run.
inline constexpr std::uint32_t kCodecVersion = 4;

struct StoreStats {
  std::uint64_t hits = 0;    ///< get() served (from fresh puts or segments)
  std::uint64_t misses = 0;  ///< get() found nothing usable
  std::uint64_t bytes_read = 0;     ///< record bytes read back from segments
  std::uint64_t bytes_written = 0;  ///< record bytes committed by flush()
  std::uint64_t records_scanned = 0;   ///< records indexed across segments
  std::uint64_t corrupt_records = 0;   ///< CRC / framing failures skipped
  std::uint64_t stale_records = 0;     ///< foreign-version records skipped

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

class EvalStore {
 public:
  /// Opens (creating if needed) the store under `<root>/v<format>-c<codec>`
  /// and indexes every committed segment.  Throws RequirementError when the
  /// directory cannot be created.
  explicit EvalStore(std::string root, std::size_t shards = 8);

  /// Flushes pending records (best-effort: a failing disk loses the batch,
  /// never corrupts committed segments).
  ~EvalStore();

  EvalStore(const EvalStore&) = delete;
  EvalStore& operator=(const EvalStore&) = delete;

  /// Exact lookup.  True + value bytes when a record with exactly `key`
  /// exists and passes its checksum; false (a miss) otherwise — including
  /// corrupt, truncated or foreign-version records.
  bool get(std::string_view key, std::string& value);

  /// Queue a record for commit.  Immediately visible to this process's
  /// get(); durable (and visible to other processes' next open/refresh)
  /// after flush().  A key already present is left as-is: records are
  /// content-addressed, so an overwrite could only rewrite the same bytes.
  void put(std::string_view key, std::string value);

  /// Commit pending records: one fsynced temp segment per non-empty shard,
  /// atomically renamed into place under the advisory directory lock.
  void flush();

  /// Named, *mutable* metadata record (e.g. a sweep manifest): unlike put(),
  /// a later put_meta for the same key replaces the value.  Each meta key
  /// lives in its own `meta-<hash>.mf` file, written with the same
  /// CRC-framed record format and committed by atomic rename under the
  /// directory lock — latest committed write wins.  Durable immediately (no
  /// flush() needed).  Returns false when the disk write fails.
  bool put_meta(std::string_view key, std::string_view value);

  /// Read back a meta record: true + value when the file exists, frames
  /// correctly, passes its CRC and stores exactly `key`; false otherwise
  /// (corrupt or foreign-version meta is ignored, never trusted).
  bool get_meta(std::string_view key, std::string& value);

  /// Index segments committed by other processes since open()/last
  /// refresh().
  void refresh();

  StoreStats stats() const;
  /// Distinct keys visible to get() (indexed + pending).
  std::size_t keys() const;
  /// Committed segment files currently indexed.
  std::size_t segments() const;
  const std::string& dir() const { return dir_; }

 private:
  struct Loc {
    std::uint32_t file = 0;  ///< index into files_
    std::uint64_t offset = 0;  ///< of the record header
    std::uint64_t key_len = 0;
    std::uint64_t val_len = 0;
  };

  void scan_segment_locked(const std::string& name);
  bool read_record_locked(const Loc& loc, std::string_view key,
                          std::string& value);

  std::string dir_;
  std::size_t shards_;
  mutable std::mutex mutex_;
  std::vector<std::string> files_;   ///< indexed segment file names
  std::set<std::string> scanned_;    ///< names already indexed
  std::unordered_map<std::uint64_t, std::vector<Loc>> index_;
  /// Records this process put() but other processes may not see yet; kept
  /// for the process lifetime so get() never re-reads what we just wrote.
  std::unordered_map<std::string, std::string> fresh_;
  std::vector<std::pair<std::string, std::string>> pending_;
  StoreStats stats_;
};

/// Compose a domain-tagged store key: one store serves several key spaces
/// (network evaluations, platform designs, sweep points, sweep manifests),
/// and the domain byte guarantees they can never collide even if two
/// domains serialized identical input bytes.
enum class KeyDomain : std::uint8_t {
  kNetworkEval = 1,
  kPlatformDesign = 2,
  kSweepPoint = 3,
  kSweepManifest = 4,
};

std::string domain_key(KeyDomain domain, std::string_view key);

}  // namespace vfimr::store
