#pragma once
// TelemetrySink: the single object a run threads through every layer.  All
// instrumentation sites hold a `TelemetrySink*` that is null by default, so
// the disabled path is one pointer test per site and the simulators compile
// to the pre-telemetry code when no sink is attached — the golden-figure,
// fast-path A/B and fault-replay byte-identity guarantees are regression
// tested with the sink both attached and absent.

#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace vfimr::telemetry {

class TelemetrySink {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  MetricsRegistry metrics_;
  Tracer tracer_;
};

}  // namespace vfimr::telemetry
