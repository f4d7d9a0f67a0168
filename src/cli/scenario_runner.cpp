#include "cli/scenario_runner.h"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "core/csv.h"
#include "core/error.h"
#include "core/rng.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "fleetsim/engine.h"
#include "fleetsim/uncertainty.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "mc/distribution.h"
#include "mc/engine.h"
#include "sched/policy.h"
#include "serve/cache.h"

namespace hpcarbon::cli {

std::pair<std::string, std::string> parse_trace_override(
    const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    throw Error("--trace-csv expects REGION=path, got '" + spec + "'");
  }
  return {spec.substr(0, eq), spec.substr(eq + 1)};
}

std::vector<serve::TraceStore::TracePtr> traces_for(
    const std::vector<grid::RegionSpec>& specs,
    const TraceOverrides& overrides, std::vector<std::string>* notes) {
  // Which spec each override drives. Unknown codes and duplicate codes
  // are typos, not no-ops: two overrides for one region would silently
  // shadow one file, so both are rejected up front.
  std::vector<std::size_t> override_of(specs.size(), overrides.size());
  for (std::size_t o = 0; o < overrides.size(); ++o) {
    bool applied = false;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].code != overrides[o].first) continue;
      if (override_of[i] != overrides.size()) {
        throw Error("duplicate --trace-csv override for '" +
                    overrides[o].first + "'");
      }
      override_of[i] = o;
      applied = true;
      break;
    }
    if (!applied) {
      std::string known;
      for (const auto& s : specs) known += (known.empty() ? "" : ", ") + s.code;
      throw Error("--trace-csv override for '" + overrides[o].first +
                  "' matches no selected region (selected: " + known + ")");
    }
  }

  // Every trace comes through the shared TraceStore: presets generate
  // once per process and --trace-csv files parse once, so `sweep` running
  // several sections (or `run --uncertainty N`) stops redoing identical
  // work. First-touch generation of distinct regions still overlaps on
  // the pool; warm lookups are a map hit, and no trace is copied.
  std::vector<serve::TraceStore::TracePtr> traces(specs.size());
  std::vector<std::string> import_notes(overrides.size());
  ThreadPool::global().parallel_for(0, specs.size(), [&](std::size_t i) {
    auto& store = serve::TraceStore::global();
    if (override_of[i] < overrides.size()) {
      const auto& [code, path] = overrides[override_of[i]];
      traces[i] = store.imported(code, path, &import_notes[override_of[i]]);
    } else {
      traces[i] = store.preset(specs[i].code);
    }
  });
  if (notes != nullptr) {
    for (auto& note : import_notes) notes->push_back(std::move(note));
  }
  return traces;
}

std::vector<std::string> region_codes() {
  return grid::codes_of(grid::all_regions());
}

grid::RegionSpec region_spec(const std::string& code) {
  if (const auto spec = grid::find_region(code)) return *spec;
  std::string known;
  for (const auto& c : region_codes()) known += (known.empty() ? "" : ", ") + c;
  throw Error("unknown region code '" + code + "' (known: " + known + ")");
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const auto& desc : sched::registered_policies()) {
    names.push_back(desc.short_name);
  }
  return names;
}

std::string parse_policy(const std::string& name) {
  if (const sched::PolicyDescriptor* desc = sched::find_policy(name)) {
    return desc->name;
  }
  std::string known;
  for (const auto& n : policy_names()) known += (known.empty() ? "" : ", ") + n;
  throw Error("unknown policy '" + name + "' (known: " + known + ")");
}

ScenarioReport run_scenarios(const ScenarioOptions& opts) {
  // Resolve the region selection up front so bad codes fail fast.
  std::vector<grid::RegionSpec> specs;
  if (opts.regions.empty()) {
    specs = grid::all_regions();
  } else {
    for (const auto& code : opts.regions) specs.push_back(region_spec(code));
  }

  // "fcfs-local" always runs first: it is the savings denominator. The
  // policy set comes from the policy table, so a new row there appears in
  // the matrix with no edits here.
  std::vector<std::string> policies = {"fcfs-local"};
  std::vector<std::string> requested = opts.policies;
  if (requested.empty()) {
    for (const auto& desc : sched::registered_policies()) {
      requested.push_back(desc.name);
    }
  }
  for (const std::string& p : requested) {
    const std::string canonical = parse_policy(p);
    if (std::find(policies.begin(), policies.end(), canonical) ==
        policies.end()) {
      policies.push_back(canonical);
    }
  }

  // Stage 1 — one year-long trace per region, generated in parallel on the
  // global pool; --trace-csv overrides swap in imported real data at its
  // native cadence (the whole downstream matrix is resolution-agnostic).
  std::vector<std::string> trace_notes;
  const auto traces = traces_for(specs, opts.trace_csv, &trace_notes);

  fleetsim::FleetWorkloadParams wp;
  wp.horizon_hours = 24.0 * opts.horizon_days;
  wp.rate_per_hour = opts.arrival_rate_per_hour;
  const fleetsim::FleetJobs jobs = fleetsim::generate_fleet_jobs(wp);
  const HourOfYear epoch(month_start_hour(opts.start_month));

  // One engine per home region on its site trio, the same trio for every
  // policy cell and every uncertainty sample of a region (run() is const,
  // so cells share it across pool threads).
  std::vector<fleetsim::FleetEngine> engines;
  engines.reserve(specs.size());
  for (std::size_t r = 0; r < specs.size(); ++r) {
    engines.emplace_back(sched::site_trio(r, traces, opts.site_capacity),
                         epoch);
  }

  // Stage 2 — the (region x policy) ablation matrix on the global pool.
  ScenarioReport report;
  report.trace_notes = std::move(trace_notes);
  report.jobs = jobs.size();
  report.rows.resize(specs.size() * policies.size());

  AnnotatedMutex mu;
  std::set<std::thread::id> worker_ids;  // guarded by mu (function-local)

  ThreadPool::global().parallel_for(
      0, report.rows.size(), [&](std::size_t cell) {
        const std::size_t r = cell / policies.size();
        const std::string& policy_name = policies[cell % policies.size()];

        const auto policy = sched::make_policy(policy_name);
        const auto metrics = engines[r].run(jobs, *policy);

        ScenarioRow& row = report.rows[cell];
        row.region = specs[r].code;
        row.policy = policy_name;
        row.median_ci_g_per_kwh = traces[r]->summary.box.median;
        row.cov_percent = traces[r]->summary.cov_percent;
        row.carbon_kg = metrics.total_carbon.to_kilograms();
        row.mean_wait_hours = metrics.mean_wait_hours;
        row.p95_wait_hours = metrics.p95_wait_hours;
        row.remote_dispatches = metrics.remote_dispatches;
        row.jobs_completed = metrics.jobs_completed;

        MutexLock lock(mu);
        worker_ids.insert(std::this_thread::get_id());
      });

  report.worker_threads_used = worker_ids.size();

  // Savings relative to the same region's FcfsLocal cell (index 0 of each
  // region's policy block, by construction).
  for (std::size_t r = 0; r < specs.size(); ++r) {
    const double base = report.rows[r * policies.size()].carbon_kg;
    for (std::size_t p = 0; p < policies.size(); ++p) {
      ScenarioRow& row = report.rows[r * policies.size() + p];
      row.savings_vs_fcfs_pct = fleetsim::savings_percent(base, row.carbon_kg);
    }
  }

  // Stage 3 (optional) — savings% quantiles over workload-generator seeds.
  // Sample k draws the same workload for every region (paired comparison),
  // and all policies of one (region, sample) cell score the same jobs, so
  // the quantiles isolate the policy effect, not workload luck. The cells
  // fan out over the pool; sample k uses substream k, exactly as
  // fleet_savings_distributions would for that region alone.
  if (opts.uncertainty_samples > 0) {
    report.uncertainty_samples = opts.uncertainty_samples;
    const auto n_samples = static_cast<std::size_t>(opts.uncertainty_samples);
    const std::size_t n_policies = policies.size();
    // savings[(r * n_samples + k) * n_policies + p]: one stripe per cell.
    std::vector<double> savings(specs.size() * n_samples * n_policies, 0.0);
    ThreadPool::global().parallel_for(
        0, specs.size() * n_samples, [&](std::size_t cell) {
          Rng rng = mc::substream(opts.uncertainty_seed, cell % n_samples);
          fleetsim::fleet_savings_sample(
              engines[cell / n_samples], wp, policies, rng,
              std::span<double>(&savings[cell * n_policies], n_policies));
        });
    for (std::size_t r = 0; r < specs.size(); ++r) {
      for (std::size_t p = 0; p < n_policies; ++p) {
        std::vector<double> column(n_samples);
        for (std::size_t k = 0; k < n_samples; ++k) {
          column[k] = savings[(r * n_samples + k) * n_policies + p];
        }
        const mc::Distribution d(std::move(column));
        ScenarioRow& row = report.rows[r * n_policies + p];
        row.savings_p05 = d.p05();
        row.savings_p50 = d.p50();
        row.savings_p95 = d.p95();
      }
    }
  }
  return report;
}

TextTable ScenarioReport::to_table() const {
  std::vector<std::string> header = {
      "Region", "Policy", "Median CI", "CoV%", "Carbon (kg)",
      "vs FCFS", "Mean wait (h)", "p95 wait (h)", "Remote", "Jobs"};
  if (uncertainty_samples > 0) {
    header.insert(header.end(), {"sav p05", "sav p50", "sav p95"});
  }
  TextTable t(header);
  for (const auto& r : rows) {
    std::vector<std::string> row = {
        r.region, r.policy, TextTable::num(r.median_ci_g_per_kwh, 0),
        TextTable::num(r.cov_percent, 1), TextTable::num(r.carbon_kg, 1),
        TextTable::pct(r.savings_vs_fcfs_pct, 1),
        TextTable::num(r.mean_wait_hours, 2),
        TextTable::num(r.p95_wait_hours, 2),
        std::to_string(r.remote_dispatches),
        std::to_string(r.jobs_completed)};
    if (uncertainty_samples > 0) {
      row.insert(row.end(), {TextTable::pct(r.savings_p05, 1),
                             TextTable::pct(r.savings_p50, 1),
                             TextTable::pct(r.savings_p95, 1)});
    }
    t.add_row(std::move(row));
  }
  return t;
}

std::string ScenarioReport::to_csv() const {
  // Emission goes through csv_row so string cells (region/policy names)
  // stay RFC-4180 parseable even if a registered policy name ever carries
  // a comma or quote.
  std::vector<std::string> header = {
      "region", "policy", "median_ci_g_per_kwh", "cov_percent", "carbon_kg",
      "savings_vs_fcfs_pct", "mean_wait_hours", "p95_wait_hours",
      "remote_dispatches", "jobs_completed"};
  if (uncertainty_samples > 0) {
    header.insert(header.end(), {"savings_p05", "savings_p50", "savings_p95"});
  }
  std::string out = csv_row(header);
  for (const auto& r : rows) {
    std::vector<std::string> cells = {
        r.region, r.policy, csv_num(r.median_ci_g_per_kwh),
        csv_num(r.cov_percent), csv_num(r.carbon_kg),
        csv_num(r.savings_vs_fcfs_pct), csv_num(r.mean_wait_hours),
        csv_num(r.p95_wait_hours), std::to_string(r.remote_dispatches),
        std::to_string(r.jobs_completed)};
    if (uncertainty_samples > 0) {
      cells.insert(cells.end(), {csv_num(r.savings_p05),
                                 csv_num(r.savings_p50),
                                 csv_num(r.savings_p95)});
    }
    out += csv_row(cells);
  }
  return out;
}

}  // namespace hpcarbon::cli
