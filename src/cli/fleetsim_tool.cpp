#include "cli/fleetsim_tool.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "cli/dispatch.h"
#include "cli/scenario_runner.h"
#include "core/error.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "fleetsim/engine.h"
#include "fleetsim/jobs.h"
#include "fleetsim/uncertainty.h"
#include "fleetsim/workload.h"
#include "grid/region.h"
#include "mc/engine.h"
#include "sched/policy.h"

namespace hpcarbon::cli {

namespace {

struct FleetsimOptions {
  std::vector<std::string> regions;   // regions[0] is the home site
  std::vector<std::string> policies;  // canonical names; empty: all
  fleetsim::FleetWorkloadParams workload;
  int capacity = 16;
  int uncertainty_samples = 0;
  std::uint64_t uncertainty_seed = 909;
  std::string jobs_csv;  // replay instead of generating when non-empty
  std::size_t threads = 0;
};

FleetsimOptions parse_args(int argc, char** argv) {
  FleetsimOptions opts;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--policies") {
      for (const auto& name :
           split_list(flag_value("--policies", argc, argv, i))) {
        opts.policies.push_back(parse_policy(name));
      }
    } else if (arg == "--process") {
      opts.workload.process = fleetsim::arrival_process_from(
          flag_value("--process", argc, argv, i));
    } else if (arg == "--days") {
      opts.workload.horizon_hours =
          24.0 * parse_number("--days", flag_value("--days", argc, argv, i));
      if (opts.workload.horizon_hours <= 0) {
        throw Error("--days expects a positive number");
      }
    } else if (arg == "--rate") {
      opts.workload.rate_per_hour =
          parse_number("--rate", flag_value("--rate", argc, argv, i));
      if (opts.workload.rate_per_hour <= 0) {
        throw Error("--rate expects a positive number");
      }
    } else if (arg == "--capacity") {
      opts.capacity = parse_positive_int(
          "--capacity", flag_value("--capacity", argc, argv, i));
    } else if (arg == "--seed") {
      opts.workload.seed = parse_non_negative_integer(
          "--seed", flag_value("--seed", argc, argv, i));
    } else if (arg == "--uncertainty") {
      opts.uncertainty_samples = parse_positive_int(
          "--uncertainty", flag_value("--uncertainty", argc, argv, i));
    } else if (arg == "--jobs-csv") {
      opts.jobs_csv = flag_value("--jobs-csv", argc, argv, i);
    } else if (arg == "--threads") {
      opts.threads = parse_non_negative_integer(
          "--threads", flag_value("--threads", argc, argv, i));
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error("unknown flag '" + arg + "' (see `hpcarbon help`)");
    } else if (std::find(opts.regions.begin(), opts.regions.end(), arg) ==
               opts.regions.end()) {
      opts.regions.push_back(arg);
    }
  }
  if (opts.regions.empty()) opts.regions = {"ERCOT", "ESO", "CISO"};
  if (opts.policies.empty()) {
    for (const auto& desc : sched::registered_policies()) {
      opts.policies.push_back(desc.name);
    }
  }
  return opts;
}

}  // namespace

int cmd_fleetsim(int argc, char** argv, std::ostream& err) {
  (void)err;
  const FleetsimOptions opts = parse_args(argc, argv);
  ThreadPool::set_global_threads(opts.threads > 0 ? opts.threads
                                                  : default_worker_threads());

  // Home region (regions[0]) plus the two cleanest other selected ones.
  std::vector<grid::RegionSpec> specs;
  for (const auto& code : opts.regions) specs.push_back(region_spec(code));
  const std::vector<sched::Site> sites =
      sched::site_trio(0, traces_for(specs, {}), opts.capacity);
  const fleetsim::FleetEngine engine(sites,
                                     HourOfYear(month_start_hour(5)));

  fleetsim::FleetJobs jobs;
  if (!opts.jobs_csv.empty()) {
    if (opts.uncertainty_samples > 0) {
      throw Error("--uncertainty resamples the synthetic workload and "
                  "cannot be combined with --jobs-csv");
    }
    jobs = fleetsim::load_jobs_csv(opts.jobs_csv, sites.size());
  } else {
    jobs = fleetsim::generate_fleet_jobs(opts.workload);
  }

  std::cout << banner("fleet simulation: " + std::to_string(jobs.size()) +
                      " jobs on " + std::to_string(engine.capacity_total()) +
                      " nodes");
  std::cout << "sites:";
  for (const auto& s : sites) std::cout << ' ' << s.code;
  if (opts.jobs_csv.empty()) {
    std::cout << "; arrivals: " << fleetsim::to_string(opts.workload.process)
              << " @ " << opts.workload.rate_per_hour << "/h over "
              << opts.workload.horizon_hours / 24.0 << " days (seed "
              << opts.workload.seed << ")";
  } else {
    std::cout << "; replayed from " << opts.jobs_csv;
  }
  std::cout << "\n\n";

  // fcfs-local is the savings baseline, always run first.
  const auto baseline_policy = sched::make_policy("fcfs-local");
  const auto baseline = engine.run(jobs, *baseline_policy);
  const double base_g = baseline.total_carbon.to_grams();

  std::vector<std::string> headers = {"Policy",     "Carbon kg", "Savings %",
                                      "Mean wait h", "p95 wait h", "Remote",
                                      "Mjobs/s"};
  const bool quantiles = opts.uncertainty_samples > 0;
  if (quantiles) {
    headers.insert(headers.end(), {"p05 %", "p50 %", "p95 %"});
  }
  std::vector<mc::Distribution> dists;
  if (quantiles) {
    const mc::SamplePlan plan{opts.uncertainty_samples, opts.uncertainty_seed,
                              &ThreadPool::global()};
    dists = fleetsim::fleet_savings_distributions(engine, opts.workload,
                                                  opts.policies, plan);
  }
  TextTable table(headers);
  for (std::size_t k = 0; k < opts.policies.size(); ++k) {
    const std::string& name = opts.policies[k];
    const auto policy = sched::make_policy(name);
    const auto start = std::chrono::steady_clock::now();
    const auto metrics = engine.run(jobs, *policy);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double g = metrics.total_carbon.to_grams();
    std::vector<std::string> row = {
        name,
        TextTable::num(metrics.total_carbon.to_kilograms(), 1),
        TextTable::num(fleetsim::savings_percent(base_g, g), 2),
        TextTable::num(metrics.mean_wait_hours, 2),
        TextTable::num(metrics.p95_wait_hours, 2),
        std::to_string(metrics.remote_dispatches),
        TextTable::num(seconds > 0
                           ? static_cast<double>(jobs.size()) / seconds / 1e6
                           : 0.0,
                       2)};
    if (quantiles) {
      row.push_back(TextTable::num(dists[k].p05(), 2));
      row.push_back(TextTable::num(dists[k].p50(), 2));
      row.push_back(TextTable::num(dists[k].p95(), 2));
    }
    table.add_row(row);
  }
  std::cout << table.to_string();
  std::cout << "\nsavings vs fcfs-local baseline ("
            << TextTable::num(baseline.total_carbon.to_kilograms(), 1)
            << " kg); Mjobs/s is simulated jobs per wall-clock second\n";
  if (quantiles) {
    std::cout << "quantiles over " << opts.uncertainty_samples
              << " workload seeds (bit-identical for any --threads)\n";
  }
  return 0;
}

}  // namespace hpcarbon::cli
