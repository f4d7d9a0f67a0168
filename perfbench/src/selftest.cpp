// Self-tests of the benchmark's own inputs: the generators are pure
// functions of their seed, serve_churn lands on its designed mix, and the
// fleet workloads have the shape their names promise.
#include <cstdio>
#include <string>

#include "core/thread_pool.h"
#include "fleetsim/engine.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "obs/metrics.h"
#include "sched/policy.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "streams.h"
#include "workloads.h"

namespace perfbench {

using namespace hpcarbon;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool same(const Stream& a, const Stream& b) {
  return a.lines == b.lines && a.seq == b.seq && a.kind == b.kind;
}

fleetsim::FleetJobs pass_jobs(const FleetSpec& spec, std::uint64_t seed) {
  return fleetsim::generate_fleet_jobs(fleet_workload(spec, pass_seed(seed, 0)));
}

void test_determinism() {
  std::printf("generators are deterministic in their seed\n");
  expect(same(hot_stream(7, 5000), hot_stream(7, 5000)), "hot_stream repeats");
  expect(!same(hot_stream(7, 5000), hot_stream(8, 5000)), "hot_stream varies with the seed");
  expect(same(churn_stream(7, 5000), churn_stream(7, 5000)), "churn_stream repeats");
  expect(!same(churn_stream(7, 5000), churn_stream(8, 5000)), "churn_stream varies with the seed");
  expect(poisson_due_ns(1000, 3000, 7) == poisson_due_ns(1000, 3000, 7),
         "poisson_due_ns repeats");
  const FleetSpec spec = fleet_defer_spec();
  const fleetsim::FleetJobs a = pass_jobs(spec, 7), b = pass_jobs(spec, 7),
                            c = pass_jobs(spec, 8);
  expect(a.submit == b.submit && a.duration == b.duration && a.user == b.user,
         "fleet jobs repeat");
  expect(a.submit != c.submit, "fleet jobs vary with the seed");
}

/// Design: 0.5% metrics polls, 1% malformed, 60% fresh (misses), 38.5% hot
/// head (hits). Kind shares within 1 point (0.2 for the two small ones) over
/// 200k requests; measured cache hit share of the lookups within 5 points of
/// 0.385 / 0.985 over 3000 requests replayed through a 1 MiB engine.
void test_churn_mix(std::uint64_t seed) {
  std::printf("serve_churn mix, seed %llu\n", static_cast<unsigned long long>(seed));
  const Stream s = churn_stream(seed, 200000);
  double n[4] = {0, 0, 0, 0};
  for (const std::uint32_t l : s.seq) n[static_cast<int>(s.kind[l])] += 1;
  const double total = static_cast<double>(s.seq.size());
  auto near = [](double got, double want, double tol) {
    return got >= want - tol && got <= want + tol;
  };
  expect(near(n[static_cast<int>(Kind::kMetrics)] / total, ChurnMix::kMetrics, 0.002),
         "metrics share " + std::to_string(n[static_cast<int>(Kind::kMetrics)] / total));
  expect(near(n[static_cast<int>(Kind::kMalformed)] / total, ChurnMix::kMalformed, 0.002),
         "malformed share " + std::to_string(n[static_cast<int>(Kind::kMalformed)] / total));
  expect(near(n[static_cast<int>(Kind::kFresh)] / total, ChurnMix::kFresh, 0.01),
         "fresh share " + std::to_string(n[static_cast<int>(Kind::kFresh)] / total));
  const double hot_design = 1 - ChurnMix::kMetrics - ChurnMix::kMalformed - ChurnMix::kFresh;
  expect(near(n[static_cast<int>(Kind::kHot)] / total, hot_design, 0.01),
         "hot share " + std::to_string(n[static_cast<int>(Kind::kHot)] / total));

  serve::TraceStore traces;
  obs::MetricsRegistry registry;
  serve::ServeOptions o;
  o.cache_bytes = std::size_t{1} << 20;
  o.traces = &traces;
  o.registry = &registry;
  serve::Engine engine(o);
  for (const std::string& line : churn_hot_head()) (void)engine.handle_line(line);
  const serve::CacheStats before = engine.cache_stats();
  std::size_t invalid = 0;
  for (std::size_t i = 0; i < 3000; ++i) {
    const std::string r = engine.handle_line(s.line(i));
    if (r.find("\"ok\":false") != std::string::npos) ++invalid;
    if (s.kind[s.seq[i]] == Kind::kMalformed && r.find("\"ok\":false") == std::string::npos) {
      expect(false, "malformed line accepted: " + s.line(i));
    }
  }
  const serve::CacheStats after = engine.cache_stats();
  const double hits = static_cast<double>(after.hits - before.hits);
  const double lookups = hits + static_cast<double>(after.misses - before.misses);
  expect(near(hits / lookups, hot_design / (1 - ChurnMix::kMetrics - ChurnMix::kMalformed), 0.05),
         "hit share of lookups " + std::to_string(hits / lookups));
  expect(near(static_cast<double>(invalid) / 3000.0, ChurnMix::kMalformed, 0.006),
         "ok:false share " + std::to_string(static_cast<double>(invalid) / 3000.0));
}

void test_fleet_shapes() {
  std::printf("fleet workloads have their intended shape\n");
  const auto traces = grid::generate_traces(grid::fig7_regions());
  {
    const FleetSpec spec = fleet_defer_spec();
    const fleetsim::FleetEngine engine(fleet_sites(spec, traces), kFleetEpoch);
    const fleetsim::FleetJobs jobs = pass_jobs(spec, 1);
    for (const char* name : {"threshold-delay", "forecast-delay", "renewable-cap"}) {
      const auto policy = sched::make_policy(name);
      const auto m = engine.run(jobs, *policy);
      expect(m.mean_wait_hours > 0,
             std::string("fleet_defer ") + name + " defers (mean wait " +
                 std::to_string(m.mean_wait_hours) + " h)");
    }
  }
  {
    const FleetSpec spec = fleet_scale_spec();
    const fleetsim::FleetEngine engine(fleet_sites(spec, traces), kFleetEpoch);
    const fleetsim::FleetJobs jobs = pass_jobs(spec, 1);
    const auto policy = sched::make_policy("fcfs-local");
    const auto m = engine.run(jobs, *policy);
    expect(m.mean_wait_hours == 0 &&
               static_cast<std::size_t>(m.jobs_completed) == jobs.size(),
           "fleet_scale fcfs-local does not queue (" + std::to_string(jobs.size()) +
               " jobs, mean wait " + std::to_string(m.mean_wait_hours) + " h)");
  }
}

}  // namespace

int self_test() {
  failures = 0;
  test_determinism();
  test_churn_mix(1);
  test_churn_mix(2);
  test_fleet_shapes();
  return failures;
}

}  // namespace perfbench
