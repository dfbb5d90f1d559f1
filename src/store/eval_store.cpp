#include "store/eval_store.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
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
  std::uint64_t key_hash = 0;  ///< xxh64 over the key bytes
  std::uint32_t crc = 0;       ///< crc32 over the value bytes
};

// Serialized header size: fields written one by one (never the struct, so
// padding cannot leak onto disk).
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4;

template <typename V, Is<RecordHeader> S>
void fields(V& v, S& h) {
  v(h.magic, h.format, h.key_len, h.val_len, h.key_hash, h.crc);
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

/// The serialized header of the record that holds `key` and `value`.
std::string record_header(std::string_view key, std::string_view value) {
  RecordHeader h;
  h.key_len = key.size();
  h.val_len = value.size();
  h.key_hash = xxh64(key);
  h.crc = crc32(value);
  ByteWriter w;
  w(h);
  return w.take();
}

/// Advisory exclusive lock on `<dir>/LOCK`, held for the scope.  Advisory
/// by design: commits are already safe against readers (atomic renames of
/// unique names); the lock serializes concurrent writer processes so their
/// segment commits cannot interleave.
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

/// Write every record of `batch` to `path` and force the file to stable
/// storage before returning.  Records stream out one by one from where they
/// lie: freeing a multi-MB buffer of the joined batch would raise glibc's
/// mmap threshold, keeping later large allocations resident on the heap.
bool write_segment_synced(
    const std::string& path,
    const std::vector<const std::pair<const std::string, std::string>*>&
        batch) {
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Closer> f{std::fopen(path.c_str(), "wb")};
  if (!f) return false;
  const auto put = [&f](std::string_view s) {
    return std::fwrite(s.data(), 1, s.size(), f.get()) == s.size();
  };
  bool ok = true;
  for (const auto* record : batch) {
    const auto& [key, value] = *record;
    ok = ok && put(record_header(key, value)) && put(key) && put(value);
  }
  ok = std::fflush(f.get()) == 0 && ok;
#ifdef VFIMR_STORE_POSIX
  ok = ok && ::fsync(::fileno(f.get())) == 0;
#endif
  return std::fclose(f.release()) == 0 && ok;
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

EvalStore::EvalStore(std::string root)
    : dir_{root + "/v" + std::to_string(kStoreFormatVersion) + "-c" +
           std::to_string(kCodecVersion)} {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  VFIMR_REQUIRE_MSG(!ec, "cannot create evaluation store directory '"
                             << dir_ << "': " << ec.message());
  std::vector<std::string> names;
  for (fs::directory_iterator it{dir_, ec}, end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() > 4 && name.rfind("seg-", 0) == 0 &&
        name.compare(name.size() - 4, 4, ".seg") == 0) {
      names.push_back(name);
    }
  }
  // Deterministic index order regardless of directory enumeration order.
  // No lock: no other thread can reach the store before it is constructed.
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) scan_segment_locked(name);
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
  if (stored_key != key) {
    // An index-hash collision, unless the stored key no longer hashes to
    // its header: then its bytes were damaged on disk.
    if (xxh64(stored_key) != h.key_hash) ++stats_.corrupt_records;
    return false;
  }
  if (crc32(stored_val) != h.crc) {
    // Bit rot or a torn write: never serve it — the caller recomputes.
    ++stats_.corrupt_records;
    return false;
  }
  value = std::move(stored_val);
  return true;
}

bool EvalStore::read_indexed_locked(std::string_view key,
                                    std::string& value) {
  const auto it = index_.find(xxh64(key));
  if (it == index_.end()) return false;
  for (const Loc& loc : it->second) {
    if (read_record_locked(loc, key, value)) return true;
  }
  return false;
}

std::size_t EvalStore::KeyHash::operator()(std::string_view key) const {
  return static_cast<std::size_t>(xxh64(key));
}

bool EvalStore::get(std::string_view key, std::string& value) {
  std::lock_guard<std::mutex> lock{mutex_};
  // A replay that puts nothing skips hashing the key for an empty map.
  if (!fresh_.empty()) {
    const auto fresh = fresh_.find(key);
    if (fresh != fresh_.end()) {
      value = fresh->second;
      ++stats_.hits;
      return true;
    }
  }
  if (read_indexed_locked(key, value)) {
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

void EvalStore::put(std::string_view key, std::string value) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (fresh_.find(key) != fresh_.end()) return;
  // Already on disk?  Content addressing makes a rewrite pointless.
  std::string existing;
  if (read_indexed_locked(key, existing)) return;
  const auto node = fresh_.emplace(std::string{key}, std::move(value)).first;
  pending_.push_back(&*node);
}

void EvalStore::flush() {
  std::vector<const Record*> batch;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    batch.swap(pending_);
  }
  if (batch.empty()) return;
  // The batch is read below without the lock: fresh_ nodes never move and
  // are never changed or erased, whatever other threads put meanwhile.

  std::string base = std::to_string(process_tag());
  base += '-';
  base += std::to_string(next_flush_seq());
  const std::string tmp = dir_ + "/tmp-" + base + ".part";
  const std::string seg_name = "seg-" + base + ".seg";
  {
    const ScopedDirLock dir_lock{dir_};
    std::error_code ec;
    if (!write_segment_synced(tmp, batch)) {
      fs::remove(tmp, ec);
      return;  // lost batch, committed data untouched
    }
    fs::rename(tmp, dir_ + "/" + seg_name, ec);
    if (ec) {
      fs::remove(tmp, ec);
      return;
    }
  }

  std::uint64_t written = 0;
  for (const Record* record : batch) {
    written += kHeaderBytes + record->first.size() + record->second.size();
  }
  std::lock_guard<std::mutex> lock{mutex_};
  stats_.bytes_written += written;
  // Index our own segment (the records are also in fresh_, but indexing
  // keeps keys()/segments() and future lookups consistent with a re-open).
  scan_segment_locked(seg_name);
}

StoreStats EvalStore::stats() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return stats_;
}

std::size_t EvalStore::keys() const {
  std::lock_guard<std::mutex> lock{mutex_};
  std::size_t indexed = 0;
  for (const auto& [hash, locs] : index_) indexed += locs.size();
  // put() queues only keys that are not indexed, and a flush indexes its
  // batch once it leaves pending_, so the two views never overlap.
  return indexed + pending_.size();
}

std::size_t EvalStore::segments() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return files_.size();
}

}  // namespace vfimr::store
