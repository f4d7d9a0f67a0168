// Fleet-simulator throughput: millions of simulated jobs per second on
// thousands of nodes.
//
// The headline of src/fleetsim is scale — an event-heap engine with
// integer ticks and struct-of-arrays job storage that pushes ~1M synthetic
// jobs through a 4096-node trio at over a million simulated jobs per
// wall-clock second. This bench measures exactly that: workload
// generation rate, simulation throughput under fcfs-local and a
// cross-region policy, and a bitwise parity verdict (the acceptance gate,
// pinned) against golden fcfs-local metrics captured from the original
// double-clock scheduling engine on the same jobs before it was retired.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/table.h"
#include "fleetsim/engine.h"
#include "fleetsim/workload.h"
#include "reporter.h"
#include "sched/policy.h"
#include "serve/cache.h"

#include "cli/registry.h"

using namespace hpcarbon;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// fcfs-local metrics of the original double-clock engine on this bench's
/// smoke and full workloads (hexfloat-exact).
const sched::ScheduleMetrics kGoldenSmoke{
    Mass::grams(0x1.6656c4e17c0f5p+28), Mass::grams(0),
    Energy::kilowatt_hours(0x1.df84b43ca4719p+19), 0x1.560af862e564ap-16, 0,
    0x1.9a2c459da2204p-2, 100064, 0};
const sched::ScheduleMetrics kGoldenFull{
    Mass::grams(0x1.b63eb3d747f42p+31), Mass::grams(0),
    Energy::kilowatt_hours(0x1.2b877b8eb070ap+23), 0, 0,
    0x1.a77c80674d18ap-2, 999529, 0};

bool metrics_equal(const sched::ScheduleMetrics& a,
                   const sched::ScheduleMetrics& b) {
  return a.total_carbon.to_grams() == b.total_carbon.to_grams() &&
         a.transfer_carbon.to_grams() == b.transfer_carbon.to_grams() &&
         a.total_energy.to_kwh() == b.total_energy.to_kwh() &&
         a.mean_wait_hours == b.mean_wait_hours &&
         a.p95_wait_hours == b.p95_wait_hours &&
         a.utilization == b.utilization &&
         a.jobs_completed == b.jobs_completed &&
         a.remote_dispatches == b.remote_dispatches;
}

}  // namespace

static int tool_main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, "fleetsim");
  bench::Reporter report("fleetsim", args);

  // Paper trio (ERCOT home, ESO + CISO remote), sized to 4096 nodes total
  // in full mode. The Poisson rate keeps mean concurrency (~rate x 5.5h
  // mean duration) at ~85% of the *home* capacity, since fcfs-local must
  // absorb the whole stream on site 0: realistically busy, not overloaded
  // (an overloaded queue measures the O(queue) policy scan, not the
  // engine).
  const int home_cap = args.smoke ? 512 : 2048;
  const int remote_cap = args.smoke ? 256 : 1024;
  const double rate = args.smoke ? 80.0 : 320.0;
  const double horizon_hours = args.smoke ? 1250.0 : 3125.0;  // rate*h ~ jobs

  auto& store = serve::TraceStore::global();
  const std::vector<sched::Site> sites = {
      sched::make_site("ERCOT", *store.preset("ERCOT"), home_cap),
      sched::make_site("ESO", *store.preset("ESO"), remote_cap),
      sched::make_site("CISO", *store.preset("CISO"), remote_cap)};
  const HourOfYear epoch(3624);  // June 1
  const fleetsim::FleetEngine fleet(sites, epoch);

  fleetsim::FleetWorkloadParams wp;
  wp.rate_per_hour = rate;
  wp.horizon_hours = horizon_hours;
  wp.user_count = 64;

  bench::print_banner("fleet workload generation (" +
                      std::string(args.smoke ? "smoke" : "full") + " mode)");
  const auto g0 = clock_type::now();
  const fleetsim::FleetJobs jobs = fleetsim::generate_fleet_jobs(wp);
  const double gen_s = seconds_since(g0);
  const double n = static_cast<double>(jobs.size());
  std::cout << jobs.size() << " jobs onto " << fleet.capacity_total()
            << " nodes in " << TextTable::num(gen_s * 1e3, 1) << " ms ("
            << TextTable::num(n / gen_s / 1e6, 2) << " Mjobs/s generated)\n";

  bench::print_banner("simulation throughput");
  TextTable t({"Engine / policy", "Time (s)", "Mjobs/s", "Carbon kg"});
  auto timed_fleet = [&](const char* policy_name, double* out_s) {
    const auto policy = sched::make_policy(policy_name);
    const auto t0 = clock_type::now();
    const auto m = fleet.run(jobs, *policy);
    *out_s = seconds_since(t0);
    t.add_row({std::string("fleetsim / ") + policy_name,
               TextTable::num(*out_s, 2), TextTable::num(n / *out_s / 1e6, 2),
               TextTable::num(m.total_carbon.to_kilograms(), 1)});
    return m;
  };
  double warm_s = 0, fcfs_s = 0, greedy_s = 0;
  (void)timed_fleet("fcfs-local", &warm_s);  // warm-up: fault in traces
  const auto fcfs_metrics = timed_fleet("fcfs-local", &fcfs_s);
  (void)timed_fleet("greedy-lowest-ci", &greedy_s);
  bench::print_table(t);

  const bool parity =
      metrics_equal(fcfs_metrics, args.smoke ? kGoldenSmoke : kGoldenFull);
  const double jobs_per_sec = n / fcfs_s;
  std::cout << "\nfcfs-local: " << TextTable::num(jobs_per_sec / 1e6, 2)
            << " Mjobs/s; parity vs golden metrics: "
            << (parity ? "bit-identical" : "MISMATCH") << "\n";

  using bench::Direction;
  report.metric("jobs", n, "count", Direction::kHigherIsBetter);
  report.metric("nodes", fleet.capacity_total(), "count",
                Direction::kHigherIsBetter);
  report.metric("jobs_per_sec", jobs_per_sec, "jobs/s",
                Direction::kHigherIsBetter, /*pinned=*/true);
  report.metric("greedy_jobs_per_sec", n / greedy_s, "jobs/s",
                Direction::kHigherIsBetter);
  report.metric("gen_jobs_per_sec", n / gen_s, "jobs/s",
                Direction::kHigherIsBetter);
  report.metric("parity_bit_identical", parity ? 1.0 : 0.0, "bool",
                Direction::kHigherIsBetter, /*pinned=*/true);
  report.write();
  return parity ? 0 : 1;
}

HPCARBON_TOOL("fleetsim", ToolKind::kBench,
              "Fleet-simulator throughput: Mjobs/s on 4k nodes and bitwise "
              "parity vs golden metrics; --json trajectory")
