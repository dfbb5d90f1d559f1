// Telemetry layer tests: metrics registry semantics, tracer buffering and
// caps, Chrome-trace export determinism, and — the load-bearing guarantees
// of DESIGN.md §10 — that attaching a TelemetrySink perturbs no simulation
// result, that the reference and fast NoC stepping paths emit identical
// traces, and that a traced faulty run replays to an identical trace under
// the same seed.

#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sysmodel/sweep.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::telemetry {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  reg.counter("a.events").add();
  reg.counter("a.events").add(4);
  EXPECT_EQ(reg.counter("a.events").value(), 5u);

  reg.gauge("a.level").set(2.5);
  reg.gauge("a.level").add(-0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("a.level").value(), 2.0);

  auto& h = reg.histogram("a.lat", 0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.count(), 10u);
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 10u);
  EXPECT_DOUBLE_EQ(snap.mean(), 5.0);
}

TEST(Metrics, HistogramRebindingMismatchThrows) {
  MetricsRegistry reg;
  reg.histogram("h", 0.0, 1.0, 8);
  EXPECT_NO_THROW(reg.histogram("h", 0.0, 1.0, 8));
  EXPECT_THROW(reg.histogram("h", 0.0, 1.0, 16), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", 0.0, 2.0, 8), std::invalid_argument);
}

TEST(Metrics, SnapshotExpandsHistograms) {
  MetricsRegistry reg;
  reg.counter("c").add(3);
  reg.histogram("h", 0.0, 4.0, 4).add(1.0);
  const json::MetricMap m = reg.snapshot();
  EXPECT_EQ(m.at("c"), 3.0);
  EXPECT_EQ(m.at("h.count"), 1.0);
  EXPECT_TRUE(m.count("h.mean"));
  EXPECT_TRUE(m.count("h.p50"));
  EXPECT_TRUE(m.count("h.p95"));
  EXPECT_TRUE(m.count("h.p99"));
}

TEST(Metrics, EmptyInstrumentsPrintNaInSummary) {
  // Regression: a histogram that received no samples used to print NaN/0
  // for its derived stats.  The summary must say "n/a" and the flat
  // snapshot must omit the derived keys entirely.
  MetricsRegistry reg;
  reg.histogram("empty.hist", 0.0, 1.0, 4);
  reg.histogram("full.hist", 0.0, 4.0, 4).add(2.0);

  const std::string text = reg.summary_table().to_string();
  EXPECT_NE(text.find("n/a"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("-nan"), std::string::npos);
  EXPECT_NE(text.find("empty.hist.count"), std::string::npos);

  const json::MetricMap m = reg.snapshot();
  EXPECT_EQ(m.at("empty.hist.count"), 0.0);
  EXPECT_FALSE(m.count("empty.hist.mean"));
  EXPECT_FALSE(m.count("empty.hist.p50"));
  EXPECT_TRUE(m.count("full.hist.mean"));
}

TEST(Metrics, CountersAreThreadSafe) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < 10'000; ++i) c.add();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), 40'000u);
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, TrackRegistrationDedups) {
  Tracer tr;
  const TrackId a = tr.track("proc", "thread A");
  const TrackId b = tr.track("proc", "thread B");
  EXPECT_NE(a, b);
  EXPECT_EQ(tr.track("proc", "thread A"), a);
  EXPECT_EQ(tr.tracks().size(), 2u);
}

TEST(Tracer, EventCapDegradesToTruncation) {
  Tracer tr{4};
  const TrackId t = tr.track("p", "t");
  for (int i = 0; i < 10; ++i) tr.instant(t, "e", static_cast<double>(i));
  EXPECT_EQ(tr.events(), 4u);
  EXPECT_EQ(tr.dropped(), 6u);
  std::uint64_t seen = 0;
  tr.for_each_event([&](const TraceEvent&) { ++seen; });
  EXPECT_EQ(seen, 4u);
}

TEST(Tracer, ThreadLocalBufferRebindsAcrossTracers) {
  // One OS thread writing to two tracers alternately must not cross the
  // streams (the thread_local cache is keyed by tracer instance id).
  Tracer a, b;
  const TrackId ta = a.track("p", "t");
  const TrackId tb = b.track("p", "t");
  a.instant(ta, "in A", 1.0);
  b.instant(tb, "in B", 2.0);
  a.instant(ta, "in A again", 3.0);
  EXPECT_EQ(a.events(), 2u);
  EXPECT_EQ(b.events(), 1u);
}

TEST(ChromeTrace, ExportShapeAndEscaping) {
  Tracer tr;
  const TrackId t = tr.track("proc \"x\"", "row\n1");
  tr.complete(t, "span", 1.0, 2.0, {{"k", 3.0}});
  tr.instant(t, "mark", 4.0);
  tr.counter(t, "series", 5.0, 6.0);
  const std::string json = to_chrome_json(tr);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find_last_not_of('\n'), json.size() - 2);
  EXPECT_EQ(json[json.size() - 2], '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"proc \\\"x\\\"\""), std::string::npos);
  EXPECT_NE(json.find("row\\n1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(ChromeTrace, AsyncAndFlowEventsCarryCatIdAndBindingPoint) {
  Tracer tr;
  const TrackId a = tr.track("proc", "lane A");
  const TrackId b = tr.track("proc", "lane B");
  tr.async_begin(a, "job 7", "job", 7, 1.0, {{"deadline", 9.0}});
  tr.async_end(a, "job 7", "job", 7, 5.0);
  tr.flow_start(a, "retry", "retry", 42, 2.0);
  tr.flow_finish(b, "retry", "retry", 42, 3.0);

  const std::string json = to_chrome_json(tr);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"job\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"retry\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  // Perfetto binds a flow arrow to its enclosing slice only with "bp":"e"
  // on the finish edge.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline\""), std::string::npos);
}

// ----------------------------------------------- simulation determinism

sysmodel::PlatformParams small_params() {
  sysmodel::PlatformParams p;
  p.sim_cycles = 6'000;
  p.drain_cycles = 30'000;
  return p;
}

void expect_reports_equal(const sysmodel::SystemReport& a,
                          const sysmodel::SystemReport& b) {
  EXPECT_EQ(a.exec_s, b.exec_s);
  EXPECT_EQ(a.core_energy_j, b.core_energy_j);
  EXPECT_EQ(a.net_dynamic_j, b.net_dynamic_j);
  EXPECT_EQ(a.net_static_j, b.net_static_j);
  EXPECT_EQ(a.net.avg_latency_cycles, b.net.avg_latency_cycles);
  EXPECT_EQ(a.phases.map_s, b.phases.map_s);
  EXPECT_EQ(a.phases.reduce_s, b.phases.reduce_s);
  EXPECT_EQ(a.resilience.core_failures, b.resilience.core_failures);
  EXPECT_EQ(a.resilience.packets_lost, b.resilience.packets_lost);
}

// Each compared side runs on its own sim: on a shared one the second side
// would replay the first side's memo entries instead of simulating.

TEST(TelemetryDeterminism, SinkDoesNotPerturbResults) {
  const auto profile = workload::make_profile(workload::App::kHist);

  const auto off = sysmodel::compare_systems(
      profile, sysmodel::FullSystemSim{}, small_params());

  TelemetrySink sink;
  sysmodel::PlatformParams traced = small_params();
  traced.telemetry = &sink;
  const auto on =
      sysmodel::compare_systems(profile, sysmodel::FullSystemSim{}, traced);

  expect_reports_equal(off.nvfi_mesh, on.nvfi_mesh);
  expect_reports_equal(off.vfi_mesh, on.vfi_mesh);
  expect_reports_equal(off.vfi_winoc, on.vfi_winoc);
  EXPECT_GT(sink.tracer().events(), 0u);
}

TEST(TelemetryDeterminism, SinkDoesNotPerturbFaultyRuns) {
  const auto profile = workload::make_profile(workload::App::kWC);
  sysmodel::PlatformParams params = small_params();
  params.kind = sysmodel::SystemKind::kVfiWinoc;
  params.faults.link_rate = 20.0;
  params.faults.router_rate = 5.0;
  params.faults.core_fail_prob = 0.05;
  params.faults.seed = 1234;

  const auto off = sysmodel::FullSystemSim{}.run(profile, params);

  TelemetrySink sink;
  params.telemetry = &sink;
  const auto on = sysmodel::FullSystemSim{}.run(profile, params);

  expect_reports_equal(off, on);
}

TEST(TelemetryDeterminism, ReferenceAndFastSteppingTracesIdentical) {
  // The instrumentation sites sit on code shared by both stepping paths, so
  // a traced run must produce the same events (and file bytes) either way.
  const auto profile = workload::make_profile(workload::App::kKmeans);
  const sysmodel::FullSystemSim sim;

  auto traced_run = [&](bool reference) {
    TelemetrySink sink;
    sysmodel::PlatformParams params = small_params();
    params.kind = sysmodel::SystemKind::kVfiWinoc;
    params.noc_sim.reference_stepping = reference;
    params.telemetry = &sink;
    (void)sim.run(profile, params);
    return to_chrome_json(sink.tracer());
  };

  const std::string fast = traced_run(false);
  const std::string reference = traced_run(true);
  EXPECT_GT(fast.size(), 2u);
  EXPECT_EQ(fast, reference);
}

TEST(TelemetryDeterminism, FaultyRunReplaysToIdenticalTrace) {
  const auto profile = workload::make_profile(workload::App::kHist);

  auto traced_run = [&] {
    const sysmodel::FullSystemSim sim;
    TelemetrySink sink;
    sysmodel::PlatformParams params = small_params();
    params.kind = sysmodel::SystemKind::kVfiWinoc;
    params.faults.link_rate = 30.0;
    params.faults.router_rate = 10.0;
    params.faults.wi_rate = 5.0;
    params.faults.core_fail_prob = 0.08;
    params.faults.seed = 77;
    params.telemetry = &sink;
    (void)sim.run(profile, params);
    return std::pair{to_chrome_json(sink.tracer()), sink.metrics().snapshot()};
  };

  const auto first = traced_run();
  const auto second = traced_run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // A fault schedule this dense must actually have produced fault events.
  bool saw_fault_metric = false;
  for (const auto& [name, value] : first.second) {
    if (name.find(".noc.fault_events") != std::string::npos && value > 0) {
      saw_fault_metric = true;
    }
  }
  EXPECT_TRUE(saw_fault_metric);
}

TEST(TelemetryDeterminism, ParallelSweepMatchesSerialReports) {
  // One shared sink behind the parallel sweep runner: reports must still be
  // bit-identical to the serial, untraced sweep (metrics from concurrent
  // runs interleave, but never feed back into the simulation).
  std::vector<workload::AppProfile> profiles{
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kWC)};

  const auto serial = sysmodel::sweep_comparisons(
      profiles, sysmodel::FullSystemSim{}, small_params(), 1);

  TelemetrySink sink;
  sysmodel::PlatformParams traced = small_params();
  traced.telemetry = &sink;
  const auto parallel = sysmodel::sweep_comparisons(
      profiles, sysmodel::FullSystemSim{}, traced, 4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_reports_equal(serial[i].nvfi_mesh, parallel[i].nvfi_mesh);
    expect_reports_equal(serial[i].vfi_mesh, parallel[i].vfi_mesh);
    expect_reports_equal(serial[i].vfi_winoc, parallel[i].vfi_winoc);
  }
}

}  // namespace
}  // namespace vfimr::telemetry
