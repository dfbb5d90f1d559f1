#pragma once
// Shared helpers for the per-figure benchmark binaries.  Every bench prints
// the paper's rows as an ASCII table and mirrors them to results/<name>.csv
// (the directory is created on demand), so a repo-root run refreshes the
// committed results/ set in place instead of littering the working
// directory.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "common/json_lite.hpp"
#include "common/table.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/system_sim.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/profile.hpp"

namespace vfimr::bench {

/// Uniform telemetry hookup for the paper benches: strips
/// `--trace-out[=]FILE` and `--metrics-out[=]FILE` from argv, owns a
/// TelemetrySink while either flag is present, and writes the Chrome trace
/// JSON (load in Perfetto / chrome://tracing) and the metrics file
/// (flat-JSON when FILE ends in .json, CSV otherwise) on destruction.
///
/// Benches pass `scope.sink()` into PlatformParams::telemetry /
/// SimConfig::telemetry; it is nullptr when neither flag was given, so an
/// unflagged run is the untraced fast path.
class TelemetryScope {
 public:
  TelemetryScope(int& argc, char** argv) {
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value_of = [&](const std::string& flag) -> const char* {
        if (arg.rfind(flag + "=", 0) == 0) return argv[i] + flag.size() + 1;
        if (arg == flag && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      if (const char* v = value_of("--trace-out")) {
        trace_path_ = v;
      } else if (const char* v = value_of("--metrics-out")) {
        metrics_path_ = v;
      } else {
        argv[keep++] = argv[i];
      }
    }
    argc = keep;
    if (!trace_path_.empty() || !metrics_path_.empty()) {
      sink_ = std::make_unique<telemetry::TelemetrySink>();
    }
  }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

  /// Null when telemetry was not requested on the command line.
  telemetry::TelemetrySink* sink() { return sink_.get(); }

  ~TelemetryScope() {
    if (sink_ == nullptr) return;
    std::cout << "== telemetry summary\n"
              << sink_->metrics().summary_table().to_string();
    if (sink_->tracer().dropped() > 0) {
      std::cout << "(trace truncated: " << sink_->tracer().dropped()
                << " events dropped past the cap)\n";
    }
    try {
      if (!trace_path_.empty()) {
        telemetry::write_chrome_trace(trace_path_, sink_->tracer());
        std::cout << "(trace: " << trace_path_ << ", "
                  << sink_->tracer().events() << " events)\n";
      }
      if (!metrics_path_.empty()) {
        const bool as_json = metrics_path_.size() >= 5 &&
                             metrics_path_.compare(metrics_path_.size() - 5,
                                                   5, ".json") == 0;
        if (as_json) {
          json::save_file(metrics_path_, sink_->metrics().snapshot());
        } else {
          sink_->metrics().summary_table().write_csv(metrics_path_);
        }
        std::cout << "(metrics: " << metrics_path_ << ")\n";
      }
    } catch (const std::exception& e) {
      std::cout << "(telemetry not written: " << e.what() << ")\n";
    }
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::unique_ptr<telemetry::TelemetrySink> sink_;
};

/// Evaluation-store directory: the VFIMR_CACHE_DIR environment variable
/// when set and non-empty, else empty — the disk tier defaults to OFF, so
/// an unconfigured run touches no store files and is bit-identical to the
/// pre-store benches.  Mirrors results_dir()'s "one tree regardless of
/// CWD" contract for the cache.
inline std::string cache_dir() {
  if (const char* env = std::getenv("VFIMR_CACHE_DIR")) {
    if (*env != '\0') return env;
  }
  return {};
}

/// Uniform disk-tier hookup for the paper benches, the store twin of
/// TelemetryScope: strips `--cache-dir[=]DIR` from argv and owns an
/// EvalStore while the flag or VFIMR_CACHE_DIR selects a directory (the
/// flag wins).  store() is nullptr when neither is set — benches pass it to
/// FullSystemSim::attach_store unconditionally, and a null store keeps the
/// sim's caches purely in-memory.
class CacheDirScope {
 public:
  CacheDirScope(int& argc, char** argv) {
    std::string dir = cache_dir();
    int keep = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--cache-dir=", 0) == 0) {
        dir = arg.substr(sizeof("--cache-dir=") - 1);
      } else if (arg == "--cache-dir" && i + 1 < argc) {
        dir = argv[++i];
      } else {
        argv[keep++] = argv[i];
      }
    }
    argc = keep;
    if (!dir.empty()) {
      store_ = std::make_unique<store::EvalStore>(dir);
      std::cout << "(cache: " << store_->dir() << ", " << store_->keys()
                << " keys in " << store_->segments() << " segments)\n";
    }
  }

  CacheDirScope(const CacheDirScope&) = delete;
  CacheDirScope& operator=(const CacheDirScope&) = delete;

  /// Null when no cache directory was requested (flag or env).
  store::EvalStore* store() { return store_.get(); }

  ~CacheDirScope() {
    if (store_ == nullptr) return;
    try {
      store_->flush();
      const store::StoreStats s = store_->stats();
      std::cout << "(cache: " << s.hits << " hits / " << s.misses
                << " misses, " << s.bytes_read << " B read, "
                << s.bytes_written << " B written)\n";
    } catch (const std::exception& e) {
      std::cout << "(cache not flushed: " << e.what() << ")\n";
    }
  }

 private:
  std::unique_ptr<store::EvalStore> store_;
};

/// Bench output directory: the VFIMR_RESULTS_DIR environment variable when
/// set and non-empty, else `results` relative to the CWD.  The override
/// keeps every bench writing into ONE results tree no matter which
/// directory it is launched from (CI steps, `ctest`-driven smoke runs and
/// repo-root refreshes used to each grow their own `results/`).
inline std::string results_dir() {
  if (const char* env = std::getenv("VFIMR_RESULTS_DIR")) {
    if (*env != '\0') return env;
  }
  return "results";
}

/// Bench output path: `<results_dir()>/<name>`, creating the directory on
/// demand.  Falls back to `<name>` in the working directory when the
/// directory cannot be created (read-only checkouts) so the caller's own
/// error handling sees the write failure, not a bogus path.
inline std::string results_path(const std::string& name) {
  const std::string dir = results_dir();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return name;
  return dir + "/" + name;
}

/// Print the table and write `results/<csv_name>.csv`; CSV failures are
/// reported but non-fatal (benches may run in read-only directories).
inline void emit(const TextTable& table, const std::string& csv_name,
                 const std::string& title) {
  std::cout << "== " << title << "\n" << table.to_string();
  const std::string path = results_path(csv_name + ".csv");
  try {
    table.write_csv(path);
    std::cout << "(csv: " << path << ")\n\n";
  } catch (const std::exception& e) {
    std::cout << "(csv not written: " << e.what() << ")\n\n";
  }
}

}  // namespace vfimr::bench
