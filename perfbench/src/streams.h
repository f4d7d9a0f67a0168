// Seeded inputs of the benchmark workloads. The program under test only
// ever sees what these functions produce; the same seed always yields the
// same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/time.h"
#include "fleetsim/workload.h"
#include "grid/trace.h"
#include "sched/job.h"

namespace perfbench {

/// What a request line of a serve stream is for.
enum class Kind : std::uint8_t {
  kHot,        // one of the pinned query universe (a cache hit once warm)
  kFresh,      // freshly drawn parameters (a cache miss, then an insert)
  kMetrics,    // {"op":"metrics"} monitoring poll
  kMalformed,  // must be answered with the engine's exact ok:false bytes
};

/// A request stream: a table of distinct lines and, per request, the
/// index of its line. Request i of a phase is lines[seq[i]].
struct Stream {
  std::vector<std::string> lines;
  std::vector<Kind> kind;          // parallel to lines
  std::vector<std::uint32_t> seq;  // per request

  const std::string& line(std::size_t request) const {
    return lines[seq[request]];
  }
};

/// serve_hot: the pinned Zipf(1.1) mix of net::zipf_mix over the 43-query
/// universe, `count` requests starting at a seed-derived offset into the
/// pinned mix.
Stream hot_stream(std::uint64_t seed, std::size_t count);

/// The share of each kind serve_churn is designed to have.
struct ChurnMix {
  static constexpr double kMetrics = 0.005;
  static constexpr double kMalformed = 0.01;
  static constexpr double kFresh = 0.60;
  // The rest (38.5%) is the hot head.
};

/// serve_churn: `count` requests mixing fresh lifetime (some with
/// Monte-Carlo samples), breakeven, trace-window and short sched/fleetsim
/// queries with the hot head, metrics polls and malformed lines.
Stream churn_stream(std::uint64_t seed, std::size_t count);

/// The hot-head lines serve_churn draws from: the query universe minus
/// its 28-day sched queries, whose re-evaluation after an eviction
/// (up to ~0.4 s each) would dominate any run.
std::vector<std::string> churn_hot_head();

/// Seeded Poisson send schedule: `count` due offsets in nanoseconds.
std::vector<std::uint64_t> poisson_due_ns(std::size_t count, double rate_rps,
                                          std::uint64_t seed);

/// Fleet workload geometry and policy set.
struct FleetSpec {
  int home_capacity = 0;
  int remote_capacity = 0;
  double rate_per_hour = 0;
  double horizon_hours = 0;
  int users = 64;
  /// Policies run per pass, fcfs-local (the baseline) first.
  std::vector<std::string> policies;
  /// Savings-quantile sweep per pass (0 samples = none).
  std::string sweep_policy;
  int sweep_samples = 0;
  double sweep_rate_per_hour = 0;
};

FleetSpec fleet_scale_spec();
FleetSpec fleet_defer_spec();

/// Tick 0 of every fleet run: June 1 (as in bench_fleetsim).
inline constexpr hpcarbon::HourOfYear kFleetEpoch{3624};

/// Workload seed of pass `pass` of a fleet workload run with `seed`.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass);

/// The jobs of one pass, and the base of its savings sweep.
hpcarbon::fleetsim::FleetWorkloadParams fleet_workload(const FleetSpec& spec,
                                                       std::uint64_t seed);
hpcarbon::fleetsim::FleetWorkloadParams sweep_workload(const FleetSpec& spec,
                                                       std::uint64_t seed);

/// The ERCOT-home trio sized by `spec`, over grid::generate_traces of
/// grid::fig7_regions() (ESO, CISO, ERCOT).
std::vector<hpcarbon::sched::Site> fleet_sites(
    const FleetSpec& spec,
    const std::vector<hpcarbon::grid::CarbonIntensityTrace>& traces);

}  // namespace perfbench
