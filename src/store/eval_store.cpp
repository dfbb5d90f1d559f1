#include "store/eval_store.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/require.hpp"
#include "store/bytes.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define VFIMR_STORE_POSIX 1
#endif

namespace vfimr::store {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMagic = 0x56465354u;  // "VFST"

struct RecordHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t format = kStoreFormatVersion;
  std::uint64_t key_len = 0;
  std::uint64_t val_len = 0;
  std::uint64_t key_hash = 0;
  std::uint32_t crc = 0;  ///< crc32 over key bytes then value bytes
};

// Serialized header size: fields written one by one (never the struct, so
// padding cannot leak onto disk).
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4;

template <typename V, Is<RecordHeader> S>
void fields(V& v, S& h) {
  v(h.magic, h.format, h.key_len, h.val_len, h.key_hash, h.crc);
}

void append_header(std::string& out, const RecordHeader& h) {
  ByteWriter w;
  w(h);
  out += w.bytes();
}

bool parse_header(const char* p, std::size_t n, RecordHeader& h) {
  ByteReader r{std::string_view{p, n}};
  r(h);
  return r.ok();
}

/// True when the header's key and value fit in the `avail` bytes after it.
/// Checked before anything is allocated, and without forming key_len +
/// val_len, which a corrupt header can overflow.
bool payload_fits(const RecordHeader& h, std::uint64_t avail) {
  return h.key_len <= avail && h.val_len <= avail - h.key_len;
}

/// crc32 over key bytes then value bytes, streamed without joining them.
std::uint32_t record_crc(std::string_view key, std::string_view value) {
  return crc32(value, crc32(key));
}

/// Advisory exclusive lock on `<dir>/LOCK`, held for the scope.  Advisory
/// by design: commits are already safe against readers (atomic renames of
/// unique names); the lock serializes concurrent writer processes so their
/// segment commits — and any future compaction — cannot interleave.
class ScopedDirLock {
 public:
  explicit ScopedDirLock(const std::string& dir) {
#ifdef VFIMR_STORE_POSIX
    fd_ = ::open((dir + "/LOCK").c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ >= 0) ::flock(fd_, LOCK_EX);
#else
    (void)dir;
#endif
  }
  ~ScopedDirLock() {
#ifdef VFIMR_STORE_POSIX
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
#endif
  }
  ScopedDirLock(const ScopedDirLock&) = delete;
  ScopedDirLock& operator=(const ScopedDirLock&) = delete;

 private:
#ifdef VFIMR_STORE_POSIX
  int fd_ = -1;
#endif
};

/// Write `data` to `path` and force it to stable storage before returning.
bool write_file_synced(const std::string& path, const std::string& data) {
#ifdef VFIMR_STORE_POSIX
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
#else
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
#endif
}

std::uint64_t process_tag() {
#ifdef VFIMR_STORE_POSIX
  return static_cast<std::uint64_t>(::getpid());
#else
  return 0;
#endif
}

/// Process-wide flush sequence.  Segment names embed <pid>-<seq>; the pid
/// separates concurrent processes, this counter separates concurrent
/// EvalStore instances *within* one process (two instances with per-object
/// counters would both start at 0 and rename over each other's segments).
std::uint64_t next_flush_seq() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::string domain_key(KeyDomain domain, std::string_view key) {
  std::string out;
  out.reserve(1 + key.size());
  out.push_back(static_cast<char>(domain));
  out.append(key);
  return out;
}

EvalStore::EvalStore(std::string root, std::size_t shards)
    : shards_(shards == 0 ? 1 : shards) {
  dir_ = root + "/v" + std::to_string(kStoreFormatVersion) + "-c" +
         std::to_string(kCodecVersion);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  VFIMR_REQUIRE_MSG(!ec, "cannot create evaluation store directory '"
                             << dir_ << "': " << ec.message());
  refresh();
}

EvalStore::~EvalStore() {
  try {
    flush();
  } catch (...) {
    // A failing flush loses the pending batch — the cache contract permits
    // losing writes, never corrupting committed data.
  }
}

void EvalStore::scan_segment_locked(const std::string& name) {
  const std::string path = dir_ + "/" + name;
  std::ifstream in{path, std::ios::binary};
  if (!in) return;
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);

  const std::uint32_t file_id = static_cast<std::uint32_t>(files_.size());
  files_.push_back(name);
  scanned_.insert(name);

  char header_buf[kHeaderBytes];
  std::uint64_t offset = 0;
  while (offset + kHeaderBytes <= file_size) {
    in.seekg(static_cast<std::streamoff>(offset));
    if (!in.read(header_buf, kHeaderBytes)) break;
    RecordHeader h;
    if (!parse_header(header_buf, kHeaderBytes, h) || h.magic != kMagic) {
      // Framing lost: drop the rest of this segment (committed records
      // before the corruption stay indexed).
      ++stats_.corrupt_records;
      break;
    }
    if (!payload_fits(h, file_size - offset - kHeaderBytes)) {
      // Truncated tail (e.g. a crash mid-copy of a segment): ignore it.
      ++stats_.corrupt_records;
      break;
    }
    if (h.format != kStoreFormatVersion) {
      // A record of a foreign format version is never trusted — skip it and
      // let the evaluation recompute (and re-store) it.
      ++stats_.stale_records;
    } else {
      index_[h.key_hash].push_back(
          Loc{file_id, offset, h.key_len, h.val_len});
      ++stats_.records_scanned;
    }
    offset += kHeaderBytes + h.key_len + h.val_len;
  }
}

void EvalStore::refresh() {
  std::lock_guard<std::mutex> lock{mutex_};
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it{dir_, ec}, end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() > 4 && name.rfind("seg-", 0) == 0 &&
        name.compare(name.size() - 4, 4, ".seg") == 0 &&
        scanned_.count(name) == 0) {
      names.push_back(name);
    }
  }
  // Deterministic index order regardless of directory enumeration order.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) scan_segment_locked(name);
}

bool EvalStore::read_record_locked(const Loc& loc, std::string_view key,
                                   std::string& value) {
  if (loc.key_len != key.size()) return false;
  std::ifstream in{dir_ + "/" + files_[loc.file], std::ios::binary};
  if (!in) return false;

  char header_buf[kHeaderBytes];
  in.seekg(static_cast<std::streamoff>(loc.offset));
  if (!in.read(header_buf, kHeaderBytes)) return false;
  RecordHeader h;
  if (!parse_header(header_buf, kHeaderBytes, h) || h.magic != kMagic ||
      h.format != kStoreFormatVersion || h.key_len != loc.key_len ||
      h.val_len != loc.val_len) {
    ++stats_.corrupt_records;
    return false;
  }

  std::string stored_key(static_cast<std::size_t>(h.key_len), '\0');
  std::string stored_val(static_cast<std::size_t>(h.val_len), '\0');
  if (!in.read(stored_key.data(),
               static_cast<std::streamsize>(stored_key.size())) ||
      !in.read(stored_val.data(),
               static_cast<std::streamsize>(stored_val.size()))) {
    ++stats_.corrupt_records;
    return false;
  }
  stats_.bytes_read += kHeaderBytes + h.key_len + h.val_len;
  if (record_crc(stored_key, stored_val) != h.crc) {
    // Bit rot or a torn write: never serve it — the caller recomputes.
    ++stats_.corrupt_records;
    return false;
  }
  if (stored_key != key) return false;  // index-hash collision
  value = std::move(stored_val);
  return true;
}

bool EvalStore::get(std::string_view key, std::string& value) {
  std::lock_guard<std::mutex> lock{mutex_};
  const auto fresh = fresh_.find(std::string{key});
  if (fresh != fresh_.end()) {
    value = fresh->second;
    ++stats_.hits;
    return true;
  }
  const auto it = index_.find(fnv1a64(key));
  if (it != index_.end()) {
    for (const Loc& loc : it->second) {
      if (read_record_locked(loc, key, value)) {
        ++stats_.hits;
        return true;
      }
    }
  }
  ++stats_.misses;
  return false;
}

void EvalStore::put(std::string_view key, std::string value) {
  std::lock_guard<std::mutex> lock{mutex_};
  std::string k{key};
  if (fresh_.count(k) > 0) return;
  // Already on disk?  Content addressing makes a rewrite pointless.
  const auto it = index_.find(fnv1a64(k));
  if (it != index_.end()) {
    std::string existing;
    for (const Loc& loc : it->second) {
      if (read_record_locked(loc, k, existing)) return;
    }
  }
  pending_.emplace_back(k, value);
  fresh_.emplace(std::move(k), std::move(value));
}

void EvalStore::flush() {
  std::vector<std::pair<std::string, std::string>> batch;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    batch.swap(pending_);
  }
  if (batch.empty()) return;

  // Bucket by key-hash shard so independent key ranges land in independent
  // segment files (smaller scan units, and a natural layout for future
  // per-shard compaction).
  std::vector<std::string> shard_bytes(shards_);
  for (const auto& [key, value] : batch) {
    RecordHeader h;
    h.key_len = key.size();
    h.val_len = value.size();
    h.key_hash = fnv1a64(key);
    h.crc = record_crc(key, value);
    std::string& out = shard_bytes[h.key_hash % shards_];
    append_header(out, h);
    out += key;
    out += value;
  }

  const ScopedDirLock dir_lock{dir_};
  const std::uint64_t seq = next_flush_seq();
  std::uint64_t written = 0;
  std::vector<std::string> committed;
  for (std::size_t s = 0; s < shards_; ++s) {
    if (shard_bytes[s].empty()) continue;
    std::string base = "s";
    base += std::to_string(s);
    base += '-';
    base += std::to_string(process_tag());
    base += '-';
    base += std::to_string(seq);
    const std::string tmp = dir_ + "/tmp-" + base + ".part";
    const std::string seg_name = "seg-" + base + ".seg";
    if (!write_file_synced(tmp, shard_bytes[s])) {
      std::error_code ec;
      fs::remove(tmp, ec);
      continue;  // lost batch, committed data untouched
    }
    std::error_code ec;
    fs::rename(tmp, dir_ + "/" + seg_name, ec);
    if (ec) {
      fs::remove(tmp, ec);
      continue;
    }
    written += shard_bytes[s].size();
    committed.push_back(seg_name);
  }

  std::lock_guard<std::mutex> lock{mutex_};
  stats_.bytes_written += written;
  // Index our own segments (the records are also in fresh_, but indexing
  // keeps keys()/segments() and future lookups consistent with a re-open).
  for (const std::string& name : committed) scan_segment_locked(name);
}

namespace {

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

bool EvalStore::put_meta(std::string_view key, std::string_view value) {
  RecordHeader h;
  h.key_len = key.size();
  h.val_len = value.size();
  h.key_hash = fnv1a64(key);
  h.crc = record_crc(key, value);
  std::string bytes;
  bytes.reserve(kHeaderBytes + key.size() + value.size());
  append_header(bytes, h);
  bytes += key;
  bytes += value;

  const std::string base = hex64(h.key_hash);
  const std::string tmp =
      dir_ + "/tmp-meta-" + base + "-" + std::to_string(process_tag()) +
      ".part";
  const ScopedDirLock dir_lock{dir_};
  if (!write_file_synced(tmp, bytes)) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(tmp, dir_ + "/meta-" + base + ".mf", ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  std::lock_guard<std::mutex> lock{mutex_};
  stats_.bytes_written += bytes.size();
  return true;
}

bool EvalStore::get_meta(std::string_view key, std::string& value) {
  const std::string path = dir_ + "/meta-" + hex64(fnv1a64(key)) + ".mf";
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const std::uint64_t file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char header_buf[kHeaderBytes];
  if (file_size < kHeaderBytes || !in.read(header_buf, kHeaderBytes)) {
    return false;
  }
  RecordHeader h;
  if (!parse_header(header_buf, kHeaderBytes, h) || h.magic != kMagic ||
      h.format != kStoreFormatVersion || h.key_len != key.size() ||
      !payload_fits(h, file_size - kHeaderBytes)) {
    return false;
  }
  std::string stored_key(static_cast<std::size_t>(h.key_len), '\0');
  std::string stored_val(static_cast<std::size_t>(h.val_len), '\0');
  if (!in.read(stored_key.data(),
               static_cast<std::streamsize>(stored_key.size())) ||
      !in.read(stored_val.data(),
               static_cast<std::streamsize>(stored_val.size()))) {
    return false;
  }
  if (record_crc(stored_key, stored_val) != h.crc || stored_key != key) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock{mutex_};
    stats_.bytes_read += kHeaderBytes + h.key_len + h.val_len;
  }
  value = std::move(stored_val);
  return true;
}

StoreStats EvalStore::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

std::size_t EvalStore::keys() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::size_t indexed = 0;
  for (const auto& [hash, locs] : index_) indexed += locs.size();
  // fresh_ entries that were flushed are also indexed; the exact distinct
  // count is not worth a full key scan — report the larger of the two
  // views (equal once everything is flushed).
  return std::max(indexed, fresh_.size());
}

std::size_t EvalStore::segments() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return files_.size();
}

}  // namespace vfimr::store
