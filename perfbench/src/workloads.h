// The four workloads and the metric sets they report.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Socket workloads against an in-process net::Server on loopback TCP.
Report run_serve(const Args& args, bool churn);

/// Offline fleetsim::FleetEngine workloads.
Report run_fleet(const Args& args, bool defer);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run (BENCHMARK.json "end_to_end").
const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every traced run (BENCHMARK.json "per_layer"); a layer a
/// workload does not exercise reads 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// Generator and workload-shape self-tests; returns the failure count.
int self_test();

}  // namespace perfbench
