// Tests for the persistent evaluation store (DESIGN.md §16): byte codec
// round-trips, segment framing robustness (truncation, bit rot, foreign
// versions — every failure degrades to a recompute, never to wrong data),
// the tiered NetworkEvaluator / PlatformCache lookup, and the incremental
// sweep driver.  The load-bearing property throughout: a disk hit is
// bit-identical to a fresh computation, clean and faulty, in both fidelity
// bands.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/require.hpp"
#include "harness/fnv1a.hpp"
#include "store/bytes.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "store/schema.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/sweep.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::store {
namespace {

namespace fs = std::filesystem;

/// Scoped scratch directory for one test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path{(fs::temp_directory_path() / ("vfimr_store_test_" + name))
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

/// The directory a store rooted at `root` keeps its files in (created on
/// the way).
std::string store_dir(const std::string& root) {
  return EvalStore{root}.dir();
}

/// The one committed segment file of a freshly-flushed store.
std::string only_segment(const std::string& dir) {
  std::string found;
  for (const auto& e : fs::directory_iterator{dir}) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg-", 0) == 0) {
      EXPECT_TRUE(found.empty()) << "expected a single segment";
      found = e.path().string();
    }
  }
  EXPECT_FALSE(found.empty());
  return found;
}

TEST(Bytes, ScalarsStringsVectorsRoundTrip) {
  ByteWriter w;
  w.put(std::uint32_t{0xDEADBEEF});
  w.put(std::uint64_t{42});
  w.put(3.25);
  w.put_string("hello");
  w(true, std::vector<std::uint32_t>{1, 2, 3});

  ByteReader r{w.bytes()};
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  double c = 0.0;
  std::string s;
  bool flag = false;
  std::vector<std::uint32_t> v;
  r.get(a);
  r.get(b);
  r.get(c);
  r.get_string(s);
  r(flag, v);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 42u);
  EXPECT_EQ(c, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(flag);
  EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(Bytes, TruncatedInputLatchesNotOk) {
  ByteWriter w;
  w.put(std::uint64_t{7});
  std::string bytes{w.bytes()};
  bytes.resize(bytes.size() - 1);
  ByteReader r{bytes};
  std::uint64_t x = 99;
  r.get(x);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(x, 0u);  // a failed read zeroes the output, never leaves junk
  // Once not-ok, later reads stay not-ok and keep returning zeroed values.
  std::uint32_t y = 55;
  r.get(y);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(y, 0u);
}

TEST(Bytes, HugeDeclaredLengthIsRejectedNotAllocated) {
  ByteWriter w;
  w.put(std::uint64_t{1} << 60);  // claimed element count, no payload
  ByteReader r{w.bytes()};
  std::vector<double> v;
  r(v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

/// `n` bytes from a 64-bit LCG (the top byte of each state).
std::string pseudo_random_bytes(std::size_t n, std::uint64_t seed) {
  std::string out(n, '\0');
  std::uint64_t x = seed;
  for (char& c : out) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(x >> 56);
  }
  return out;
}

/// The bit-serial IEEE CRC-32, an oracle independent of the table-driven
/// crc32() under test.
std::uint32_t bitwise_crc32(std::string_view s) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : s) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

/// Serialized record header bytes: magic, format, key_len, val_len,
/// key_hash, crc.
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4;

/// One record framed by hand, independently of the store's writer, with
/// `format` in its header.  Format 1 framing (FNV-1a index hash, CRC over
/// key then value) for format 1; format 2 framing (XXH64 index hash, CRC
/// over the value alone) for any other format.  The CRC is the bit-serial
/// oracle's.
std::string framed_record(std::uint32_t format, const std::string& key,
                          const std::string& value) {
  const bool v1 = format == 1;
  ByteWriter w;
  w(std::uint32_t{0x56465354}, format,
    static_cast<std::uint64_t>(key.size()),
    static_cast<std::uint64_t>(value.size()),
    v1 ? test::fnv1a64(key) : xxh64(key),
    bitwise_crc32(v1 ? key + value : value));
  return w.take() + key + value;
}

TEST(Bytes, Crc32AndFnvKnownValues) {
  // IEEE 802.3 CRC-32 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  // FNV-1a 64-bit offset basis (the pinned-digest tests' hash).
  EXPECT_EQ(test::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(test::fnv1a64("a"), test::fnv1a64("b"));

  // At every alignment and every length up to 67 bytes (each tail of the
  // eight-byte steps), the CRC agrees with the bit-serial oracle.
  const std::string buf = pseudo_random_bytes(67, 7);
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t n = 0; start + n <= buf.size(); ++n) {
      const std::string_view span = std::string_view{buf}.substr(start, n);
      EXPECT_EQ(crc32(span), bitwise_crc32(span))
          << "start " << start << ", length " << n;
    }
  }

  // A 1 MiB buffer's CRC, recorded from the byte-at-a-time implementation
  // that wrote every earlier segment.
  EXPECT_EQ(crc32(pseudo_random_bytes(std::size_t{1} << 20, 2015)),
            0x8FC1D661u);

  // A format-2 segment framed by hand, its CRC the bit-serial one over the
  // value alone, verifies and is served.
  TempDir tmp{"old_crc"};
  const std::string key = "framed by hand";
  const std::string val = pseudo_random_bytes(1000, 3);
  ASSERT_EQ(kStoreFormatVersion, 2u);
  std::ofstream{store_dir(tmp.path) + "/seg-s0-999-0.seg", std::ios::binary}
      << framed_record(2, key, val);
  EvalStore st{tmp.path};
  std::string v;
  EXPECT_TRUE(st.get(key, v));
  EXPECT_EQ(v, val);
  EXPECT_EQ(st.stats().corrupt_records, 0u);
}

// XXH64 with seed 0, against values computed with the reference library
// (libxxhash's XXH64): its check values, every length from 0 to 64 (each
// tail path and the first full 32-byte stripes) and a 1 MiB buffer at
// offsets of every alignment.
TEST(Bytes, Xxh64MatchesTheReferenceImplementation) {
  EXPECT_EQ(xxh64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(xxh64("123456789"), 0x8cb841db40e6ae83ull);

  constexpr std::uint64_t kByLength[65] = {
      0xef46db3751d8e999ull, 0x4b9e065d01804ab5ull, 0x0ba4514a83bb58d8ull,
      0xe7e9599517566de7ull, 0x0c3f0eee7c719a89ull, 0x56fe5bcabaa4ad22ull,
      0x7c9d57807d37d97bull, 0xb3aac3263edab7e2ull, 0xf3e94a53f466f860ull,
      0x666408594afac8a3ull, 0xc64565a18eb88fc5ull, 0xa838c907ab29ad36ull,
      0xbc00ca0352544159ull, 0xa88ac25707c7f545ull, 0x97152f603285efd5ull,
      0x26fb80f3f6c0264bull, 0xddbcf3ff336ce5a5ull, 0x292d31f2f07f130bull,
      0xb83ba0d3e8dab916ull, 0x813176b4d1413a6full, 0x430f90ea3755ccd6ull,
      0x6a6c86b81fe8a669ull, 0xa8edfd47bbae7a74ull, 0x4bcc22aad0eb2c29ull,
      0x9cf42b002b9adb4bull, 0xed855b8476fe6843ull, 0x0e629d24e433f38aull,
      0x59363e425c30d1a9ull, 0x851001c225d8f6c7ull, 0xf898da28fa327da5ull,
      0xee096bb2f2894631ull, 0x178014f7ebbe1f34ull, 0x171d5e8aa14f211bull,
      0x4e79fef798496821ull, 0x7881bc4c188c7745ull, 0xecffce14aa6746b1ull,
      0xa0c6b32056cc7f85ull, 0x5dfcf421881d28cbull, 0x587e5d01a333147dull,
      0x44345c3728897ffaull, 0x9583a95c76591bd3ull, 0xc3e16a9c878c214eull,
      0xed544e2db1020ee6ull, 0xe81d7d272fe7081full, 0x8b3a1d3075968fa8ull,
      0xa1d7c0f4408b757dull, 0x39888c8156ea4edeull, 0xafbad29c464ec470ull,
      0x82102a929a718819ull, 0x1c243b045f3cd93dull, 0xebd10dfbbd7d19e0ull,
      0x29d9c872f1853abeull, 0x7bc89ce26119e351ull, 0x075647bb8b5287d0ull,
      0xebc6087c9125c3b4ull, 0x72e88c41c1f96cfeull, 0x7e8fe64fb0448193ull,
      0x60d4e29397bad928ull, 0xa1705a4881d69ff7ull, 0x4808e30d1a862e5full,
      0xd008ceb8af72f398ull, 0x3525f24df3af059full, 0x0d13312dd20d0a60ull,
      0x30b6aa90f7f48389ull, 0x85463394ad732ca0ull,
  };
  const std::string buf = pseudo_random_bytes(64, 24);
  for (std::size_t n = 0; n <= 64; ++n) {
    EXPECT_EQ(xxh64(std::string_view{buf}.substr(0, n)), kByLength[n])
        << "length " << n;
  }

  const struct {
    std::size_t offset;
    std::uint64_t hash;
  } kByOffset[] = {
      {0, 0xbca3be79a27fe0b0ull},  {1, 0x6704bbade5101669ull},
      {2, 0x67cc2ae24fbc0069ull},  {3, 0x1e19f2d96ffef01eull},
      {4, 0xdba4bdda1029d4f1ull},  {5, 0xb3e0ba921ed02180ull},
      {6, 0x9d973d05beff992eull},  {7, 0xb5d3c8e1be784243ull},
      {8, 0x791f90e7a6c3dd87ull},
      {13, 0x542833e79b2cfc2aull}, {31, 0xfd6f6ae6097db1abull},
      {32, 0x2e2cfea0dcab4194ull}, {33, 0x55322b5a61907406ull},
      {1000, 0xfbc8dad02d9abc58ull},
  };
  const std::string big = pseudo_random_bytes(std::size_t{1} << 20, 2015);
  for (const auto& pin : kByOffset) {
    EXPECT_EQ(xxh64(std::string_view{big}.substr(pin.offset)), pin.hash)
        << "offset " << pin.offset;
  }
}

TEST(EvalStore, PutGetFlushReopen) {
  TempDir tmp{"basic"};
  {
    EvalStore st{tmp.path};
    std::string v;
    EXPECT_FALSE(st.get("missing", v));
    st.put("k1", "v1");
    st.put("k2", std::string(100'000, 'x'));  // spans the record path
    EXPECT_TRUE(st.get("k1", v));  // visible before flush
    EXPECT_EQ(v, "v1");
    st.flush();
  }
  EvalStore st{tmp.path};
  std::string v;
  EXPECT_TRUE(st.get("k1", v));
  EXPECT_EQ(v, "v1");
  EXPECT_TRUE(st.get("k2", v));
  EXPECT_EQ(v.size(), 100'000u);
  EXPECT_EQ(v[0], 'x');
  EXPECT_FALSE(st.get("k3", v));
  const StoreStats s = st.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.corrupt_records, 0u);
  EXPECT_EQ(st.keys(), 2u);
  EXPECT_EQ(st.segments(), 1u);  // one flush, one segment
}

TEST(EvalStore, KeysCountPendingRecordsOfAReopenedStore) {
  // A store reopened over committed records counts what it indexed plus
  // what it has put since, before and after the flush.
  TempDir tmp{"keys"};
  {
    EvalStore st{tmp.path};
    for (int i = 0; i < 10; ++i) st.put("old" + std::to_string(i), "v");
    st.flush();
  }
  EvalStore st{tmp.path};
  ASSERT_EQ(st.keys(), 10u);
  for (int i = 0; i < 4; ++i) st.put("new" + std::to_string(i), "v");
  st.put("old0", "v");  // already on disk: not queued again
  EXPECT_EQ(st.keys(), 14u);
  st.flush();
  EXPECT_EQ(st.keys(), 14u);
  EXPECT_EQ(st.segments(), 2u);
}

TEST(EvalStore, DomainKeysNeverCollide) {
  const std::string key = "same payload";
  EXPECT_NE(domain_key(KeyDomain::kNetworkEval, key),
            domain_key(KeyDomain::kPlatformDesign, key));
  TempDir tmp{"domains"};
  EvalStore st{tmp.path};
  st.put(domain_key(KeyDomain::kNetworkEval, key), "eval");
  st.put(domain_key(KeyDomain::kPlatformDesign, key), "design");
  std::string v;
  ASSERT_TRUE(st.get(domain_key(KeyDomain::kNetworkEval, key), v));
  EXPECT_EQ(v, "eval");
  ASSERT_TRUE(st.get(domain_key(KeyDomain::kPlatformDesign, key), v));
  EXPECT_EQ(v, "design");
}

TEST(EvalStore, TruncatedTailKeepsCommittedPrefix) {
  TempDir tmp{"truncate"};
  {
    EvalStore st{tmp.path};  // one segment, records in insertion order
    st.put("first", "AAAA");
    st.put("second", "BBBB");
    st.flush();
  }
  const std::string seg = only_segment(store_dir(tmp.path));
  const auto full_size = fs::file_size(seg);
  fs::resize_file(seg, full_size - 2);  // tear the tail record

  EvalStore st{tmp.path};
  std::string v;
  const bool got_first = st.get("first", v);
  const bool got_second = st.get("second", v);
  // Record order inside the segment is insertion order, so the torn record
  // is the second one: the committed prefix must survive, the torn tail
  // must miss — and nothing may ever return wrong bytes.
  EXPECT_TRUE(got_first);
  EXPECT_FALSE(got_second);
  EXPECT_GE(st.stats().corrupt_records, 1u);
}

TEST(EvalStore, BitFlipIsAMissNeverWrongData) {
  TempDir tmp{"bitflip"};
  {
    EvalStore st{tmp.path};
    st.put("key", std::string(256, 'Z'));
    st.flush();
  }
  const std::string seg = only_segment(store_dir(tmp.path));
  {
    std::fstream f{seg, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(static_cast<std::streamoff>(fs::file_size(seg)) - 10);
    f.put('!');  // flip bytes inside the value region
  }
  EvalStore st{tmp.path};
  std::string v;
  EXPECT_FALSE(st.get("key", v));  // CRC catches it: miss, not wrong data
  EXPECT_GE(st.stats().corrupt_records, 1u);
}

// A stored key damaged on disk must never be served, and the read must
// tell the damage from an index-hash collision: the damaged bytes no longer
// hash to the header's xxh64, so the record counts as corrupt.
TEST(EvalStore, KeyBitFlipIsAMissNeverWrongData) {
  TempDir tmp{"keyflip"};
  const std::string key = "a key of some length";
  {
    EvalStore st{tmp.path};
    st.put(key, std::string(256, 'Z'));
    st.flush();
  }
  const std::string seg = only_segment(store_dir(tmp.path));
  std::string damaged = key;
  damaged[7] ^= 0x10;
  {
    std::fstream f{seg, std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(static_cast<std::streamoff>(kRecordHeaderBytes + 7));
    f.put(damaged[7]);
  }
  EvalStore st{tmp.path};
  std::string v;
  EXPECT_FALSE(st.get(key, v));  // the key compare catches it: a miss
  EXPECT_EQ(st.stats().corrupt_records, 1u);
  EXPECT_FALSE(st.get(damaged, v));  // nor is it served under its new bytes
  EXPECT_EQ(st.stats().hits, 0u);
}

TEST(EvalStore, ForeignFormatVersionRecordIsSkipped) {
  TempDir tmp{"version"};
  const std::string key = "future key";
  const std::string val = "future value";
  // Hand-craft a record whose format field is from the future.  The store
  // must count it stale and treat the key as absent — stale data is
  // recomputed, never trusted.
  std::ofstream{store_dir(tmp.path) + "/seg-s0-999-0.seg", std::ios::binary}
      << framed_record(kStoreFormatVersion + 1, key, val);

  EvalStore st{tmp.path};
  std::string v;
  EXPECT_FALSE(st.get(key, v));
  EXPECT_EQ(st.stats().stale_records, 1u);
  EXPECT_EQ(st.stats().records_scanned, 0u);
}

}  // namespace
}  // namespace vfimr::store

namespace vfimr::sysmodel {
namespace {

using store::EvalStore;
using TempDir = ::vfimr::store::TempDir;

PlatformParams small_params(SystemKind kind) {
  PlatformParams p;
  p.kind = kind;
  p.sim_cycles = 3'000;
  p.drain_cycles = 20'000;
  return p;
}

/// Field-by-field identity of every stored output, enumerated by hand so
/// the round trips below do not lean on the codec's own field lists.
void expect_identical(const noc::Metrics& a, const noc::Metrics& b) {
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_ejected, b.packets_ejected);
  EXPECT_EQ(a.packets_local, b.packets_local);
  EXPECT_EQ(a.flits_ejected, b.flits_ejected);
  EXPECT_EQ(a.cycles, b.cycles);
  const Accumulator::Raw la = a.packet_latency.raw();
  const Accumulator::Raw lb = b.packet_latency.raw();
  EXPECT_EQ(la.n, lb.n);
  EXPECT_EQ(la.mean, lb.mean);
  EXPECT_EQ(la.m2, lb.m2);
  EXPECT_EQ(la.sum, lb.sum);
  EXPECT_EQ(la.min, lb.min);
  EXPECT_EQ(la.max, lb.max);
  EXPECT_EQ(a.energy.switch_traversals, b.energy.switch_traversals);
  EXPECT_EQ(a.energy.wire_hops, b.energy.wire_hops);
  EXPECT_EQ(a.energy.wire_mm_flits, b.energy.wire_mm_flits);
  EXPECT_EQ(a.energy.wireless_flits, b.energy.wireless_flits);
  EXPECT_EQ(a.energy.buffer_writes, b.energy.buffer_writes);
  EXPECT_EQ(a.energy.buffer_reads, b.energy.buffer_reads);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.route_rebuilds, b.route_rebuilds);
  EXPECT_EQ(a.retry_backoffs, b.retry_backoffs);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.flits_lost, b.flits_lost);
}

void expect_identical(const NetworkEval& a, const NetworkEval& b) {
  EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  EXPECT_EQ(a.energy_per_flit_j, b.energy_per_flit_j);
  EXPECT_EQ(a.wireless_utilization, b.wireless_utilization);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.drained, b.drained);
  expect_identical(a.metrics, b.metrics);
}

void expect_identical(const vfi::VfiDesign& a, const vfi::VfiDesign& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.vfi1, b.vfi1);
  EXPECT_EQ(a.vfi2, b.vfi2);
  EXPECT_EQ(a.raised_clusters, b.raised_clusters);
  EXPECT_EQ(a.clustering_cost, b.clustering_cost);
}

void expect_identical(const PhaseResult& a, const PhaseResult& b) {
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.evaluated, b.evaluated);
  expect_identical(a.net, b.net);
  EXPECT_EQ(a.baseline_latency_cycles, b.baseline_latency_cycles);
  EXPECT_EQ(a.mem_scale, b.mem_scale);
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.net_dynamic_j, b.net_dynamic_j);
  EXPECT_EQ(a.rate_packets_per_cycle, b.rate_packets_per_cycle);
}

void expect_identical(const SystemReport& a, const SystemReport& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.phases.lib_init_s, b.phases.lib_init_s);
  EXPECT_EQ(a.phases.map_s, b.phases.map_s);
  EXPECT_EQ(a.phases.reduce_s, b.phases.reduce_s);
  EXPECT_EQ(a.phases.merge_s, b.phases.merge_s);
  EXPECT_EQ(a.exec_s, b.exec_s);
  EXPECT_EQ(a.core_energy_j, b.core_energy_j);
  EXPECT_EQ(a.net_dynamic_j, b.net_dynamic_j);
  EXPECT_EQ(a.net_static_j, b.net_static_j);
  expect_identical(a.net, b.net);
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    expect_identical(a.phase_results[p], b.phase_results[p]);
  }
  EXPECT_EQ(a.phase_resolved, b.phase_resolved);
  EXPECT_EQ(a.resilience.core_failures, b.resilience.core_failures);
  EXPECT_EQ(a.resilience.tasks_reexecuted, b.resilience.tasks_reexecuted);
  EXPECT_EQ(a.resilience.wasted_core_seconds,
            b.resilience.wasted_core_seconds);
  EXPECT_EQ(a.resilience.noc_fault_events, b.resilience.noc_fault_events);
  EXPECT_EQ(a.resilience.noc_route_rebuilds,
            b.resilience.noc_route_rebuilds);
  EXPECT_EQ(a.resilience.noc_retry_backoffs,
            b.resilience.noc_retry_backoffs);
  EXPECT_EQ(a.resilience.packets_lost, b.resilience.packets_lost);
  EXPECT_EQ(a.resilience.flits_lost, b.resilience.flits_lost);
  EXPECT_EQ(a.resilience.net_stall_seconds, b.resilience.net_stall_seconds);
  EXPECT_EQ(a.baseline_latency_cycles, b.baseline_latency_cycles);
  EXPECT_EQ(a.mem_scale, b.mem_scale);
  EXPECT_EQ(a.has_vfi, b.has_vfi);
  expect_identical(a.vfi, b.vfi);
}

void expect_identical(const SystemComparison& a, const SystemComparison& b) {
  expect_identical(a.nvfi_mesh, b.nvfi_mesh);
  expect_identical(a.vfi_mesh, b.vfi_mesh);
  expect_identical(a.vfi_winoc, b.vfi_winoc);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const std::vector<graph::Edge>& a,
                      const std::vector<graph::Edge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a[id].a, b[id].a) << "edge " << id;
    EXPECT_EQ(a[id].b, b[id].b) << "edge " << id;
    EXPECT_EQ(a[id].kind, b[id].kind) << "edge " << id;
    EXPECT_EQ(bits(a[id].length_mm), bits(b[id].length_mm)) << "edge " << id;
  }
}

void expect_identical(const noc::WirelessConfig& a,
                      const noc::WirelessConfig& b) {
  EXPECT_EQ(a.channel_count, b.channel_count);
  ASSERT_EQ(a.interfaces.size(), b.interfaces.size());
  for (std::size_t i = 0; i < a.interfaces.size(); ++i) {
    EXPECT_EQ(a.interfaces[i].node, b.interfaces[i].node) << "WI " << i;
    EXPECT_EQ(a.interfaces[i].channel, b.interfaces[i].channel) << "WI " << i;
  }
}

void expect_identical(const PlatformLayout& a, const PlatformLayout& b) {
  expect_identical(a.vfi, b.vfi);
  EXPECT_EQ(a.thread_to_node, b.thread_to_node);
  expect_identical(a.edges, b.edges);
  expect_identical(a.wireless, b.wireless);
}

/// next_hop, or an invalid decision where the table has a hole (a
/// down-phase packet with no all-down continuation).
noc::RouteDecision hop_or_hole(const noc::RoutingAlgorithm& r,
                               graph::NodeId node, graph::NodeId dest,
                               bool down_phase, bool wireless_used) {
  try {
    return r.next_hop(node, dest, down_phase, wireless_used);
  } catch (const RequirementError&) {
    return {};
  }
}

void expect_identical(const BuiltPlatform& a, const BuiltPlatform& b) {
  EXPECT_EQ(a.thread_to_node, b.thread_to_node);
  expect_identical(a.topology.graph.edges(), b.topology.graph.edges());
  ASSERT_EQ(a.topology.positions.size(), b.topology.positions.size());
  for (std::size_t n = 0; n < a.topology.positions.size(); ++n) {
    EXPECT_EQ(bits(a.topology.positions[n].x_mm),
              bits(b.topology.positions[n].x_mm));
    EXPECT_EQ(bits(a.topology.positions[n].y_mm),
              bits(b.topology.positions[n].y_mm));
  }
  expect_identical(a.wireless, b.wireless);
  EXPECT_EQ(a.wi_count, b.wi_count);
  ASSERT_EQ(a.node_traffic.rows(), b.node_traffic.rows());
  ASSERT_EQ(a.node_traffic.cols(), b.node_traffic.cols());
  for (std::size_t i = 0; i < a.node_traffic.data().size(); ++i) {
    EXPECT_EQ(bits(a.node_traffic.data()[i]), bits(b.node_traffic.data()[i]))
        << "node_traffic element " << i;
  }
  EXPECT_EQ(a.has_vfi, b.has_vfi);
  expect_identical(a.vfi, b.vfi);
  EXPECT_EQ(a.routing_kind, b.routing_kind);
  const auto n = static_cast<graph::NodeId>(a.topology.node_count());
  std::size_t differing_hops = 0;
  for (graph::NodeId node = 0; node < n; ++node) {
    for (graph::NodeId dest = 0; dest < n; ++dest) {
      if (node == dest) continue;
      for (const bool down : {false, true}) {
        for (const bool wireless_used : {false, true}) {
          const noc::RouteDecision x =
              hop_or_hole(a.routing(), node, dest, down, wireless_used);
          const noc::RouteDecision y =
              hop_or_hole(b.routing(), node, dest, down, wireless_used);
          if (x.edge != y.edge || x.down_phase != y.down_phase) {
            ++differing_hops;
          }
        }
      }
    }
  }
  EXPECT_EQ(differing_hops, 0u);
}

/// One system kind under one WI placement strategy (the strategy steers
/// only the WiNoC's search; the mesh cases pin that it changes nothing).
struct LayoutCase {
  SystemKind kind;
  winoc::PlacementStrategy placement;
};

std::ostream& operator<<(std::ostream& os, const LayoutCase& c) {
  return os << system_name(c.kind) << " / "
            << (c.placement == winoc::PlacementStrategy::kMinHopCount
                    ? "min-hop"
                    : "max-wireless");
}

constexpr LayoutCase kLayoutCases[] = {
    {SystemKind::kNvfiMesh, winoc::PlacementStrategy::kMinHopCount},
    {SystemKind::kNvfiMesh, winoc::PlacementStrategy::kMaxWirelessUtilization},
    {SystemKind::kVfiMesh, winoc::PlacementStrategy::kMinHopCount},
    {SystemKind::kVfiMesh, winoc::PlacementStrategy::kMaxWirelessUtilization},
    {SystemKind::kVfiWinoc, winoc::PlacementStrategy::kMinHopCount},
    {SystemKind::kVfiWinoc, winoc::PlacementStrategy::kMaxWirelessUtilization},
};

PlatformParams layout_params(const LayoutCase& c) {
  PlatformParams p = small_params(c.kind);
  p.placement = c.placement;
  return p;
}

/// The search's layout of HIST's platform for `c`.
PlatformLayout searched_layout(const LayoutCase& c) {
  return search_platform(workload::make_profile(workload::App::kHist),
                         layout_params(c), FullSystemSim{}.vf_table());
}

TEST(StoreCodec, NetworkEvalRoundTripIsBitExact) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kVfiWinoc);
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());
  const NetworkEval fresh =
      evaluate_network(built, built.node_traffic, profile.packet_flits,
                       params, sim.models().noc);

  const std::string bytes = store::encode_network_eval(fresh);
  NetworkEval decoded;
  ASSERT_TRUE(store::decode_network_eval(bytes, decoded));
  expect_identical(decoded, fresh);
  // Re-encoding the decoded value must reproduce the exact byte string:
  // the canonical encoding is injective over every field, including the
  // latency Accumulator's internal Welford state.
  EXPECT_EQ(store::encode_network_eval(decoded), bytes);
}

TEST(StoreCodec, RejectsForeignVersionKindAndTrailingGarbage) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kNvfiMesh);
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());
  const NetworkEval fresh =
      evaluate_network(built, built.node_traffic, profile.packet_flits,
                       params, sim.models().noc);
  const std::string bytes = store::encode_network_eval(fresh);
  NetworkEval out;

  std::string wrong_version = bytes;
  wrong_version[0] = static_cast<char>(wrong_version[0] + 1);
  EXPECT_FALSE(store::decode_network_eval(wrong_version, out));

  // A platform layout payload is not a NetworkEval: kind tag mismatch.
  PlatformLayout layout;
  layout.vfi = built.vfi;
  EXPECT_FALSE(store::decode_network_eval(
      store::encode_platform_layout(layout), out));

  std::string trailing = bytes + "x";
  EXPECT_FALSE(store::decode_network_eval(trailing, out));

  EXPECT_FALSE(store::decode_network_eval(bytes.substr(0, bytes.size() - 1),
                                          out));
}

/// One clean and one fault-injected small-window comparison, computed once
/// for the codec pins below.
struct PinnedComparisons {
  SystemComparison clean;
  SystemComparison faulty;
};

const PinnedComparisons& pinned_comparisons() {
  static const PinnedComparisons pinned = [] {
    const auto profile = workload::make_profile(workload::App::kHist);
    const FullSystemSim sim;
    PinnedComparisons out;
    PlatformParams params = small_params(SystemKind::kNvfiMesh);
    out.clean = compare_systems(profile, sim, params);
    params.faults.link_rate = 40.0;
    params.faults.router_rate = 20.0;
    params.faults.wi_rate = 40.0;
    params.faults.core_fail_prob = 0.05;
    params.faults.transient_fraction = 0.7;
    params.faults.seed = 77;
    out.faulty = compare_systems(profile, sim, params);
    return out;
  }();
  return pinned;
}

/// Decodes `bytes`, checks the value field by field against `expected`, and
/// checks that re-encoding reproduces `bytes` exactly.
template <typename T, typename Encode, typename Decode>
void expect_round_trip(const T& expected, Encode encode, Decode decode) {
  const std::string bytes = encode(expected);
  T decoded;
  ASSERT_TRUE(decode(bytes, decoded));
  expect_identical(decoded, expected);
  EXPECT_TRUE(encode(decoded) == bytes) << "re-encoding changed the bytes";
}

TEST(StoreCodec, FaultyComparisonCarriesResilienceCounters) {
  const SystemReport& r = pinned_comparisons().faulty.vfi_winoc;
  EXPECT_GT(r.resilience.core_failures, 0u);
  EXPECT_GT(r.resilience.tasks_reexecuted, 0u);
  EXPECT_GT(r.resilience.noc_fault_events, 0u);
  EXPECT_GT(r.resilience.noc_route_rebuilds, 0u);
  EXPECT_GT(r.resilience.wasted_core_seconds, 0.0);
  EXPECT_TRUE(r.phase_resolved);
  EXPECT_TRUE(r.has_vfi);
}

TEST(StoreCodec, PlatformLayoutRoundTripIsBitExact) {
  for (const LayoutCase& c : kLayoutCases) {
    SCOPED_TRACE(c);
    expect_round_trip(searched_layout(c), store::encode_platform_layout,
                      store::decode_platform_layout);
  }
}

TEST(StoreCodec, SystemReportRoundTripIsBitExact) {
  for (const SystemComparison* cmp :
       {&pinned_comparisons().clean, &pinned_comparisons().faulty}) {
    for (const SystemReport* r :
         {&cmp->nvfi_mesh, &cmp->vfi_mesh, &cmp->vfi_winoc}) {
      expect_round_trip(*r, store::encode_system_report,
                        store::decode_system_report);
    }
  }
}

TEST(StoreCodec, SystemComparisonRoundTripIsBitExact) {
  expect_round_trip(pinned_comparisons().clean,
                    store::encode_system_comparison,
                    store::decode_system_comparison);
  expect_round_trip(pinned_comparisons().faulty,
                    store::encode_system_comparison,
                    store::decode_system_comparison);
}

/// FNV-1a of an encoding's payload: everything after the 8-byte
/// [codec version][kind tag] preamble, so a version bump alone keeps it.
std::uint64_t payload_digest(const std::string& bytes) {
  return test::fnv1a64(std::string_view{bytes}.substr(8));
}

// The byte layout of every encoding, pinned by digests recorded before the
// codec was rewritten over store/schema.hpp (the platform layout's when it
// replaced the bare design record): records written by earlier builds must
// decode to the same values.
TEST(StoreCodec, PayloadDigestsMatchRecordedLayout) {
  const PinnedComparisons& p = pinned_comparisons();
  // The clean comparison's VFI WiNoC platform, as its search lays it out.
  const PlatformLayout layout = searched_layout(
      {SystemKind::kVfiWinoc,
       winoc::PlacementStrategy::kMaxWirelessUtilization});
  expect_identical(layout.vfi, p.clean.vfi_winoc.vfi);
  const std::string winoc_layout = store::encode_platform_layout(layout);
  store::ByteWriter design;
  design(layout.vfi);
  const std::size_t design_bytes = design.size();
  const struct {
    const char* name;
    std::string bytes;
    std::uint64_t digest;
  } pins[] = {
      {"network_eval(faulty winoc)",
       store::encode_network_eval(p.faulty.vfi_winoc.net),
       0xb6cc1aa1077927aeull},
      // The layout leads with the design, in the bytes the bare design
      // record held before the layout replaced it.
      {"platform_layout(clean winoc), design field",
       winoc_layout.substr(0, 8 + design_bytes), 0x7575162a8b204655ull},
      {"platform_layout(clean winoc)", winoc_layout, 0xc5a94b955118de53ull},
      {"system_report(faulty winoc)",
       store::encode_system_report(p.faulty.vfi_winoc), 0x4049bb7540803531ull},
      {"system_comparison(clean)", store::encode_system_comparison(p.clean),
       0xf93aa8eecf827538ull},
      {"system_comparison(faulty)", store::encode_system_comparison(p.faulty),
       0xd0736fc3419fea75ull},
  };
  for (const auto& pin : pins) {
    EXPECT_EQ(payload_digest(pin.bytes), pin.digest)
        << pin.name << ": 0x" << std::hex << payload_digest(pin.bytes);
  }
}

TEST(TieredNetEval, DiskHitBitIdenticalCleanBothBands) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  TempDir tmp{"tier_clean"};
  for (Fidelity band : {Fidelity::kCycleAccurate, Fidelity::kAnalytical}) {
    PlatformParams params = small_params(SystemKind::kVfiWinoc);
    params.fidelity = band;
    const BuiltPlatform built =
        build_platform(profile, params, sim.vf_table());
    const NetworkEval fresh =
        evaluate_network(built, built.node_traffic, profile.packet_flits,
                         params, sim.models().noc);

    // Writer process: memory miss + disk miss -> simulate, persist.
    {
      EvalStore st{tmp.path};
      NetworkEvaluator writer;
      writer.attach_store(&st);
      const NetworkEval computed = writer.evaluate(
          built, built.node_traffic, profile.packet_flits, params,
          sim.models().noc);
      expect_identical(computed, fresh);
      EXPECT_EQ(writer.stats().misses, 1u);
      EXPECT_EQ(writer.stats().disk_misses, 1u);
      st.flush();
    }
    // Reader process: cold memory, warm disk — no simulation runs, and the
    // served value is bit-identical to the fresh one.
    EvalStore st{tmp.path};
    NetworkEvaluator reader;
    reader.attach_store(&st);
    const NetworkEval served = reader.evaluate(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    expect_identical(served, fresh);
    EXPECT_EQ(reader.stats().disk_hits, 1u);
    EXPECT_EQ(reader.stats().misses, 0u);
    EXPECT_EQ(reader.stats().hits, 0u);
    // A replay in the same process resolves in memory, not on disk.
    (void)reader.evaluate(built, built.node_traffic, profile.packet_flits,
                          params, sim.models().noc);
    EXPECT_EQ(reader.stats().hits, 1u);
    EXPECT_EQ(reader.stats().disk_hits, 1u);
  }
}

TEST(TieredNetEval, DiskHitBitIdenticalUnderFaults) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  params.faults.link_rate = 40.0;
  params.faults.router_rate = 20.0;
  params.faults.wi_rate = 40.0;
  params.faults.transient_fraction = 0.7;
  params.faults.seed = 77;
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());
  const NetworkEval fresh =
      evaluate_network(built, built.node_traffic, profile.packet_flits,
                       params, sim.models().noc);

  TempDir tmp{"tier_faulty"};
  {
    EvalStore st{tmp.path};
    NetworkEvaluator writer;
    writer.attach_store(&st);
    (void)writer.evaluate(built, built.node_traffic, profile.packet_flits,
                          params, sim.models().noc);
    st.flush();
  }
  EvalStore st{tmp.path};
  NetworkEvaluator reader;
  reader.attach_store(&st);
  const NetworkEval served = reader.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(served, fresh);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);

  // A reseeded fault schedule is a different simulation: disk miss, fresh
  // compute — the store never aliases across fault specs.
  PlatformParams reseeded = params;
  reseeded.faults.seed = 78;
  (void)reader.evaluate(built, built.node_traffic, profile.packet_flits,
                        reseeded, sim.models().noc);
  EXPECT_EQ(reader.stats().disk_misses, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
}

TEST(TieredNetEval, CorruptStoreFallsBackToComputeNeverWrongData) {
  namespace fs = std::filesystem;
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kVfiWinoc);
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());
  const NetworkEval fresh =
      evaluate_network(built, built.node_traffic, profile.packet_flits,
                       params, sim.models().noc);

  TempDir tmp{"tier_corrupt"};
  {
    EvalStore st{tmp.path};
    NetworkEvaluator writer;
    writer.attach_store(&st);
    (void)writer.evaluate(built, built.node_traffic, profile.packet_flits,
                          params, sim.models().noc);
    st.flush();
  }
  // Rot every segment byte past the header region: the CRC must reject the
  // record, and the tiered lookup must recompute the correct answer.
  for (const auto& e : fs::directory_iterator{store::store_dir(tmp.path)}) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg-", 0) == 0) {
      std::fstream f{e.path().string(),
                     std::ios::in | std::ios::out | std::ios::binary};
      f.seekp(-4, std::ios::end);
      f.write("ROT!", 4);
    }
  }
  EvalStore st{tmp.path};
  NetworkEvaluator reader;
  reader.attach_store(&st);
  const NetworkEval served = reader.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(served, fresh);  // recomputed, not served rotten bytes
  EXPECT_EQ(reader.stats().disk_hits, 0u);
  EXPECT_EQ(reader.stats().misses, 1u);
}

/// Copies every record of the segments in `from` into `to`, re-stamped as
/// a build of store format `format` and codec version `codec` wrote it:
/// each value's leading version field replaced and the record re-framed as
/// that format frames it, with a valid CRC.
void restamp_segments(const std::string& from, const std::string& to,
                      std::uint32_t format, std::uint32_t codec) {
  namespace fs = std::filesystem;
  fs::create_directories(to);
  for (const auto& e : fs::directory_iterator{from}) {
    const std::string name = e.path().filename().string();
    if (name.rfind("seg-", 0) != 0) continue;
    std::ifstream in{e.path().string(), std::ios::binary};
    const std::string seg{std::istreambuf_iterator<char>{in}, {}};
    std::string out;
    std::size_t pos = 0;
    while (pos < seg.size()) {
      std::uint32_t magic = 0, stored_format = 0, crc = 0;
      std::uint64_t key_len = 0, val_len = 0, key_hash = 0;
      store::ByteReader header{std::string_view{seg}.substr(pos)};
      header(magic, stored_format, key_len, val_len, key_hash, crc);
      ASSERT_TRUE(header.ok());
      pos = seg.size() - header.remaining();
      const std::string key = seg.substr(pos, key_len);
      std::string value = seg.substr(pos + key_len, val_len);
      pos += key_len + val_len;
      std::memcpy(value.data(), &codec, sizeof codec);
      out += store::framed_record(format, key, value);
    }
    std::ofstream{to + "/" + name, std::ios::binary} << out;
  }
}

// A codec bump must leave the store cold for exactly one run.  The records
// an older build wrote decode as misses; if they shared the new build's
// namespace, put() would keep them (a key already on disk is left alone)
// and every later run would recompute again.
TEST(TieredNetEval, CodecBumpRecomputesOnceThenServesFromDisk) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  params.fidelity = Fidelity::kAnalytical;
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());
  auto run = [&](const std::string& root) {
    EvalStore st{root};
    NetworkEvaluator ev;
    ev.attach_store(&st);
    (void)ev.evaluate(built, built.node_traffic, profile.packet_flits,
                      params, sim.models().noc);
    st.flush();
    return ev.stats();
  };

  // The same evaluation as the previous codec version stored it, in the
  // directories that version's builds read: `v<format>` before the codec
  // named the directory, `v<format>-c<codec>` after.  And as the previous
  // store format (FNV-1a index, CRC over key and value) stored it under
  // this codec, in `v1-c<codec>`.
  TempDir source{"bump_source"};
  (void)run(source.path);
  TempDir tmp{"bump"};
  const std::string from = store::store_dir(source.path);
  const std::uint32_t format = store::kStoreFormatVersion;
  const std::uint32_t codec = store::kCodecVersion;
  const std::string v = tmp.path + "/v" + std::to_string(format);
  restamp_segments(from, v, format, codec - 1);
  restamp_segments(from, v + "-c" + std::to_string(codec - 1), format,
                   codec - 1);
  ASSERT_EQ(format, 2u);
  restamp_segments(from, tmp.path + "/v1-c" + std::to_string(codec), 1,
                   codec);

  const NetworkEvaluator::Stats first = run(tmp.path);
  EXPECT_EQ(first.misses, 1u);  // recomputed, not served the old record
  EXPECT_EQ(first.disk_hits, 0u);
  const NetworkEvaluator::Stats second = run(tmp.path);
  EXPECT_EQ(second.misses, 0u);  // zero simulations
  EXPECT_EQ(second.disk_hits, 1u);
}

/// The store-rebuilt platform of every kind and placement equals the one
/// its search built, field by field: a disk hit only assembles.
class StoredLayout : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(StoredLayout, RebuildsTheSearchedPlatform) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const PlatformParams params = layout_params(GetParam());
  const BuiltPlatform searched =
      build_platform(profile, params, sim.vf_table());

  TempDir tmp{"layout_" +
              std::to_string(static_cast<int>(GetParam().kind)) + "_" +
              std::to_string(static_cast<int>(GetParam().placement))};
  {
    EvalStore st{tmp.path};
    PlatformCache cold;
    cold.attach_store(&st);
    expect_identical(*cold.get(profile, params, sim.vf_table()), searched);
    EXPECT_EQ(cold.misses(), 1u);
    EXPECT_EQ(cold.disk_misses(), 1u);
    st.flush();
  }
  EvalStore st{tmp.path};
  PlatformCache warm;
  warm.attach_store(&st);
  const auto rebuilt = warm.get(profile, params, sim.vf_table());
  EXPECT_EQ(warm.disk_hits(), 1u);
  EXPECT_EQ(warm.misses(), 0u);
  expect_identical(*rebuilt, searched);
}

std::string layout_case_name(
    const ::testing::TestParamInfo<LayoutCase>& info) {
  const char* kinds[] = {"NvfiMesh", "VfiMesh", "VfiWinoc"};
  return std::string{kinds[static_cast<int>(info.param.kind)]} +
         (info.param.placement == winoc::PlacementStrategy::kMinHopCount
              ? "_MinHop"
              : "_MaxWireless");
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StoredLayout,
                         ::testing::ValuesIn(kLayoutCases), layout_case_name);

TEST(PlatformCacheStore, NvfiPlatformsRebuildFromTheStore) {
  // The NVFI baseline's mapping anneal is a search like any other: its
  // layout is stored, and a warm cache runs no search for it.
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kNvfiMesh);
  TempDir tmp{"nvfi"};
  {
    EvalStore st{tmp.path};
    PlatformCache cold;
    cold.attach_store(&st);
    (void)cold.get(profile, params, sim.vf_table());
    EXPECT_EQ(cold.misses(), 1u);
    EXPECT_EQ(cold.disk_misses(), 1u);
    EXPECT_EQ(st.keys(), 1u);
  }
  EvalStore st{tmp.path};
  PlatformCache warm;
  warm.attach_store(&st);
  const auto rebuilt = warm.get(profile, params, sim.vf_table());
  EXPECT_EQ(warm.disk_hits(), 1u);
  EXPECT_EQ(warm.misses(), 0u);
  EXPECT_FALSE(rebuilt->has_vfi);
}

TEST(PlatformCacheStore, WarmReplayBuildsNoRoutingTables) {
  // A run replayed from the store reads no routing table, so its platform
  // never builds one.  The first evaluation that misses builds the tables,
  // and later misses reuse them.
  const auto profile = workload::make_profile(workload::App::kWC);
  const PlatformParams params = small_params(SystemKind::kVfiWinoc);
  TempDir tmp{"lazy_routing"};
  SystemReport cold_report;
  {
    EvalStore st{tmp.path};
    FullSystemSim cold;
    cold.attach_store(&st);
    cold_report = cold.run(profile, params);
    st.flush();
  }
  EvalStore st{tmp.path};
  FullSystemSim warm;
  warm.attach_store(&st);
  const SystemReport warm_report = warm.run(profile, params);
  EXPECT_EQ(warm.platform_cache().misses(), 0u);
  EXPECT_EQ(warm.net_eval().stats().misses, 0u);
  EXPECT_GT(warm.net_eval().stats().disk_hits, 0u);
  EXPECT_TRUE(store::encode_system_report(warm_report) ==
              store::encode_system_report(cold_report));
  const std::shared_ptr<const BuiltPlatform> platform =
      warm.platform_cache().get(profile, params, warm.vf_table());
  EXPECT_EQ(platform->routing_tables.size(), 0u);

  PlatformParams reseeded = params;
  reseeded.traffic_seed += 1;
  (void)warm.run(profile, reseeded);
  EXPECT_GT(warm.net_eval().stats().misses, 0u);
  ASSERT_EQ(platform->routing_tables.size(), 1u);
  const noc::RoutingAlgorithm* tables = &platform->routing();
  reseeded.traffic_seed += 1;
  const std::uint64_t misses = warm.net_eval().stats().misses;
  (void)warm.run(profile, reseeded);
  EXPECT_GT(warm.net_eval().stats().misses, misses);
  EXPECT_EQ(platform->routing_tables.size(), 1u);
  EXPECT_EQ(&platform->routing(), tables);
}

std::vector<workload::AppProfile> sweep_profiles() {
  return {workload::make_profile(workload::App::kHist),
          workload::make_profile(workload::App::kWC)};
}

TEST(IncrementalSweep, WarmRunReusesEverythingBitIdentically) {
  const auto profiles = sweep_profiles();
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kVfiWinoc);
  TempDir tmp{"sweep"};

  IncrementalSweepResult cold;
  {
    EvalStore st{tmp.path};
    IncrementalOptions opts;
    opts.store = &st;
    cold = incremental_sweep_comparisons(profiles, sim, params, opts);
    EXPECT_EQ(cold.evaluated_points, profiles.size());
    EXPECT_EQ(cold.reused_points, 0u);
  }
  // The cold run matches the classic (non-incremental) sweep bit-for-bit,
  // computed on its own sim.
  const auto reference = sweep_comparisons(profiles, FullSystemSim{}, params);
  ASSERT_EQ(cold.comparisons.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(cold.valid[i]);
    EXPECT_EQ(store::encode_system_comparison(cold.comparisons[i]),
              store::encode_system_comparison(reference[i]));
  }

  // Warm run in a fresh process: everything reused, nothing evaluated.
  EvalStore st{tmp.path};
  IncrementalOptions opts;
  opts.store = &st;
  const auto warm = incremental_sweep_comparisons(profiles, sim, params, opts);
  EXPECT_EQ(warm.reused_points, profiles.size());
  EXPECT_EQ(warm.evaluated_points, 0u);
  EXPECT_EQ(st.stats().bytes_written, 0u);  // a warm replay is read-only
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(warm.valid[i]);
    EXPECT_EQ(store::encode_system_comparison(warm.comparisons[i]),
              store::encode_system_comparison(reference[i]));
  }

  // Changing any simulation input changes the point keys: the store has
  // nothing for them and every point re-evaluates.
  PlatformParams changed = params;
  changed.sim_cycles += 1'000;
  const auto moved =
      incremental_sweep_comparisons(profiles, sim, changed, opts);
  EXPECT_EQ(moved.evaluated_points, profiles.size());
  EXPECT_EQ(moved.reused_points, 0u);
}

TEST(IncrementalSweep, ShardsPartitionThenMergeToAFullSweep) {
  const auto profiles = sweep_profiles();
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kVfiMesh);
  TempDir tmp{"shards"};

  {  // Shard 0 of 2 evaluates only its own point; the other stays invalid.
    EvalStore st{tmp.path};
    IncrementalOptions opts;
    opts.store = &st;
    opts.shard_index = 0;
    opts.shard_count = 2;
    const auto r = incremental_sweep_comparisons(profiles, sim, params, opts);
    EXPECT_EQ(r.evaluated_points, 1u);
    EXPECT_EQ(r.skipped_points, 1u);
    EXPECT_TRUE(r.valid[0]);
    EXPECT_FALSE(r.valid[1]);
  }
  {  // Shard 1 of 2, opened after shard 0 committed: merges point 0 from
     // the store and evaluates point 1.
    EvalStore st{tmp.path};
    IncrementalOptions opts;
    opts.store = &st;
    opts.shard_index = 1;
    opts.shard_count = 2;
    const auto r = incremental_sweep_comparisons(profiles, sim, params, opts);
    EXPECT_EQ(r.evaluated_points, 1u);
    EXPECT_EQ(r.reused_points, 1u);
    EXPECT_EQ(r.skipped_points, 0u);
    EXPECT_TRUE(r.valid[0]);
    EXPECT_TRUE(r.valid[1]);
  }
  // A single-shard merge run reuses both points and matches the classic
  // sweep bit-for-bit.
  EvalStore st{tmp.path};
  IncrementalOptions opts;
  opts.store = &st;
  const auto merged = incremental_sweep_comparisons(profiles, sim, params,
                                                    opts);
  EXPECT_EQ(merged.reused_points, profiles.size());
  EXPECT_EQ(merged.evaluated_points, 0u);
  const auto reference = sweep_comparisons(profiles, FullSystemSim{}, params);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(merged.valid[i]);
    EXPECT_EQ(store::encode_system_comparison(merged.comparisons[i]),
              store::encode_system_comparison(reference[i]));
  }
}

}  // namespace
}  // namespace vfimr::sysmodel
