// Engine/policy/registry layer tests.
//
// Every built-in policy is reachable through the string-keyed registry,
// and the engine's O(1) prefix-sum carbon must match an hour-stepping
// re-computation of every job's carbon within 1e-9.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/error.h"
#include "fleetsim/engine.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/policy.h"

namespace hpcarbon::sched {
namespace {

using fleetsim::FleetEngine;
using fleetsim::FleetJobs;
using fleetsim::FleetOutcomes;

grid::CarbonIntensityTrace constant_trace(const std::string& code, double v) {
  return grid::CarbonIntensityTrace(code, kUtc,
                                    std::vector<double>(kHoursPerYear, v));
}

// Square-wave trace: clean at night (hours 0-11), dirty by day (12-23).
grid::CarbonIntensityTrace square_trace(const std::string& code, double lo,
                                        double hi) {
  std::vector<double> v(kHoursPerYear);
  for (int i = 0; i < kHoursPerYear; ++i) {
    v[static_cast<size_t>(i)] = (i % 24) < 12 ? lo : hi;
  }
  return grid::CarbonIntensityTrace(code, kUtc, v);
}

std::vector<Site> fig7_sites(int capacity = 32) {
  const auto traces = grid::generate_traces(grid::fig7_regions());
  return {make_site("ERCOT", traces[2], capacity),
          make_site("ESO", traces[0], capacity),
          make_site("CISO", traces[1], capacity)};
}

FleetJobs seeded_jobs() {
  fleetsim::FleetWorkloadParams wp;
  wp.horizon_hours = 24 * 10;
  wp.rate_per_hour = 2.0;
  wp.seed = 31337;
  return fleetsim::generate_fleet_jobs(wp);
}

// The eight built-ins.
constexpr const char* kBuiltins[] = {
    "fcfs-local",     "greedy-lowest-ci",     "threshold-delay",
    "budget-aware",   "forecast-delay",       "net-benefit",
    "renewable-cap",  "forecast-net-benefit"};

TEST(PolicyRegistry, AllBuiltinsRegistered) {
  const auto& all = registered_policies();
  ASSERT_EQ(all.size(), 8u);
  // fcfs-local leads the table (the baseline position the scenario
  // runner and the sweep rely on).
  EXPECT_EQ(all[0].name, "fcfs-local");
  for (const char* name : kBuiltins) {
    const PolicyDescriptor* desc = find_policy(name);
    ASSERT_NE(desc, nullptr) << name;
    EXPECT_EQ(desc->name, name);
    const auto policy = desc->make(PolicyConfig{});
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), desc->name);
  }
}

TEST(PolicyRegistry, ShortNamesResolveAndUnknownThrows) {
  // The one name rule behind `hpcarbon run --policies` and serve's
  // {"policy": ...}: short and canonical names both find the same row.
  EXPECT_EQ(find_policy("greedy")->name, "greedy-lowest-ci");
  EXPECT_EQ(find_policy("greedy-lowest-ci")->name, "greedy-lowest-ci");
  EXPECT_EQ(find_policy("greedy"), find_policy("greedy-lowest-ci"));
  EXPECT_EQ(find_policy("forecast-nb")->name, "forecast-net-benefit");
  EXPECT_EQ(find_policy("fcfs-local")->name, "fcfs-local");
  EXPECT_EQ(find_policy("cap")->name, "renewable-cap");
  EXPECT_EQ(find_policy("no-such-policy"), nullptr);
  EXPECT_EQ(find_policy(""), nullptr);
  EXPECT_THROW(make_policy("no-such-policy"), Error);
}

// The engine's O(1) prefix-sum carbon must agree with an hour-stepping
// recomputation of every job's compute carbon (the pre-refactor pricing
// loop) within 1e-9 relative — the parity bound the refactor promises.
TEST(PolicyEngine, PrefixSumCarbonMatchesHourSteppingPerJob) {
  const auto sites = fig7_sites();
  const FleetJobs jobs = seeded_jobs();
  const HourOfYear epoch(month_start_hour(5));
  std::map<int, std::size_t> by_id;
  for (std::size_t i = 0; i < jobs.size(); ++i) by_id[jobs.id[i]] = i;

  const op::PueModel pue;  // constant 1.2
  for (const char* name : {"fcfs-local", "greedy-lowest-ci", "net-benefit",
                           "forecast-net-benefit"}) {
    FleetEngine engine(sites, epoch, pue);
    const auto policy = make_policy(name, PolicyConfig{});
    FleetOutcomes outcomes;
    engine.run(jobs, *policy, &outcomes, nullptr);
    ASSERT_EQ(outcomes.size(), jobs.size()) << name;
    for (std::size_t o = 0; o < outcomes.size(); ++o) {
      const std::size_t j = by_id.at(outcomes.job_id[o]);
      const std::size_t s = outcomes.site[o];
      const double start_hour = fleetsim::hours_of(outcomes.start[o]);
      // Hour-stepping reference (the old interval_carbon_g).
      double grams = 0;
      double remaining = fleetsim::hours_of(jobs.duration[j]);
      double cursor = start_hour;
      const double kw = jobs.power[j].to_kilowatts();
      while (remaining > 1e-12) {
        const double hour_end = std::floor(cursor) + 1.0;
        const double step = std::min(remaining, hour_end - cursor);
        const HourOfYear h =
            epoch.shifted(static_cast<int>(std::floor(cursor)));
        grams += sites[s].trace_utc.at(h).to_g_per_kwh() * kw * step *
                 pue.at(h);
        cursor += step;
        remaining -= step;
      }
      if (s != 0) {
        const HourOfYear h =
            epoch.shifted(static_cast<int>(std::floor(start_hour)));
        grams += sites[s].transfer_energy.to_kwh() *
                 sites[s].trace_utc.at(h).to_g_per_kwh();
      }
      EXPECT_NEAR(outcomes.carbon_g[o], grams, 1e-9 * std::max(1.0, grams))
          << name << " job " << outcomes.job_id[o];
    }
  }
}

TEST(PolicyEngine, EngineEmptyWorkloadYieldsZeroMetrics) {
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 2)};
  FleetEngine engine(sites, HourOfYear(0));
  for (const auto& desc : registered_policies()) {
    const auto policy = desc.make(PolicyConfig{});
    FleetOutcomes outcomes;
    const auto m = engine.run(FleetJobs{}, *policy, &outcomes, nullptr);
    EXPECT_EQ(m.jobs_completed, 0) << desc.name;
    EXPECT_DOUBLE_EQ(m.total_carbon.to_grams(), 0.0) << desc.name;
    EXPECT_EQ(outcomes.size(), 0u) << desc.name;
  }
}

TEST(PolicyEngine, RejectsInvalidDispatchDecision) {
  // A buggy policy pointing outside the queue/sites must fail loudly, not
  // corrupt accounting.
  class BrokenPolicy : public SchedulingPolicy {
   public:
    std::string name() const override { return "broken"; }
    std::optional<DispatchDecision> select(const std::vector<PendingJob>&,
                                           const ClusterView&) override {
      return DispatchDecision{99, 99};
    }
  };
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 2)};
  FleetEngine engine(sites, HourOfYear(0));
  BrokenPolicy broken;
  FleetJobs jobs;
  jobs.push(0, 0, fleetsim::kTicksPerHour, Power::kilowatts(1), "u");
  EXPECT_THROW(engine.run(jobs, broken), Error);
}

TEST(PolicyEngine, PoliciesSeeTheUserTableAndEachRowOnceAsItArrives) {
  // Records what the engine hands a policy: the user table at begin_run,
  // each job at planned_start and each started job, dispatching FCFS to
  // the cleanest free site.
  class RecordingPolicy : public SchedulingPolicy {
   public:
    std::string name() const override { return "recording"; }
    void begin_run(const std::vector<std::string>& users, CarbonBudgetLedger&,
                   const ClusterView&) override {
      ++begin_calls;
      seen_users = users;
    }
    double planned_start(const Job& job, const ClusterView&) override {
      arrived.push_back(job);
      return job.submit_hour;
    }
    std::optional<DispatchDecision> select(const std::vector<PendingJob>&,
                                           const ClusterView& view) override {
      const long site = view.lowest_ci_free_site();
      if (site < 0) return std::nullopt;
      return DispatchDecision{0, static_cast<std::size_t>(site)};
    }
    void on_job_started(const Job& job, std::size_t, double,
                        const ClusterView&) override {
      started.push_back(job);
    }
    int begin_calls = 0;
    std::vector<std::string> seen_users;
    std::vector<Job> arrived;
    std::vector<Job> started;
  };

  const FleetJobs jobs = seeded_jobs();
  ASSERT_GT(jobs.size(), 100u);
  FleetEngine engine(fig7_sites(4), HourOfYear(month_start_hour(5)));
  RecordingPolicy policy;
  engine.run(jobs, policy);

  EXPECT_EQ(policy.begin_calls, 1);
  EXPECT_EQ(policy.seen_users, jobs.users);
  // Rows are sorted by submit tick, so submit order is row order.
  ASSERT_EQ(policy.arrived.size(), jobs.size());
  ASSERT_EQ(policy.started.size(), jobs.size());
  std::map<int, const Job*> started_by_id;
  for (const Job& j : policy.started) started_by_id[j.id] = &j;
  ASSERT_EQ(started_by_id.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = policy.arrived[i];
    EXPECT_EQ(j.id, jobs.id[i]) << i;
    EXPECT_EQ(j.user, jobs.users[jobs.user[i]]) << i;
    EXPECT_EQ(j.submit_hour, fleetsim::hours_of(jobs.submit[i])) << i;
    EXPECT_EQ(j.duration_hours, fleetsim::hours_of(jobs.duration[i])) << i;
    EXPECT_EQ(j.it_power, jobs.power[i]) << i;
    // The started job is the arrived one, moved out of the queue intact.
    const Job& s = *started_by_id.at(j.id);
    EXPECT_EQ(s.user, j.user) << i;
    EXPECT_EQ(s.submit_hour, j.submit_hour) << i;
    EXPECT_EQ(s.duration_hours, j.duration_hours) << i;
    EXPECT_EQ(s.it_power, j.it_power) << i;
  }
}

TEST(BudgetAware, AllocatesEveryUserInTheTableIncludingUsersWithoutJobs) {
  // The ledger is seeded from FleetJobs::users, not from the arrivals: a
  // listed user who submits nothing still holds a full allocation.
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 2)};
  FleetEngine engine(sites, HourOfYear(0), op::PueModel(1.0));
  FleetJobs jobs;
  jobs.push(0, 0, fleetsim::kTicksPerHour, Power::kilowatts(1), "busy");
  jobs.push(1, fleetsim::kTicksPerHour, fleetsim::kTicksPerHour,
            Power::kilowatts(2), "busy");
  jobs.intern_user("idle");
  ASSERT_EQ(jobs.users, (std::vector<std::string>{"busy", "idle"}));

  PolicyConfig cfg;
  cfg.user_budget = Mass::kilograms(3);
  const auto policy = make_policy("budget-aware", cfg);
  CarbonBudgetLedger ledger;
  const auto m = engine.run(jobs, *policy, nullptr, &ledger);
  EXPECT_EQ(m.jobs_completed, 2);
  EXPECT_EQ(ledger.allocation("idle"), cfg.user_budget);
  EXPECT_EQ(ledger.spent("idle").to_grams(), 0.0);
  EXPECT_EQ(ledger.remaining_fraction("idle"), 1.0);
  EXPECT_EQ(ledger.allocation("busy"), cfg.user_budget);
  EXPECT_EQ(ledger.spent("busy"), m.total_carbon);
}

/// `n` jobs from one user, all at `power_kw` for `duration` hours; job i
/// is submitted at submit(i).
template <class SubmitFn>
FleetJobs user_jobs(int n, double power_kw, double duration,
                    SubmitFn submit) {
  std::vector<Job> jobs;
  for (int i = 0; i < n; ++i) {
    Job j;
    j.id = i;
    j.user = "u0";
    j.submit_hour = submit(i);
    j.duration_hours = duration;
    j.it_power = Power::kilowatts(power_kw);
    jobs.push_back(j);
  }
  return FleetJobs::from_jobs(jobs);
}

TEST(ForecastNetBenefit, RoutesToPredictedCleanerSite) {
  // Home is on a square wave entering its dirty half; remote is constant
  // at the square wave's mean. Instantaneous net-benefit at a clean-hour
  // dispatch sees home cheaper and stays; the forecasting variant prices
  // the whole runtime, sees the dirty half coming, and moves long jobs.
  std::vector<Site> sites = {
      make_site("SQ", square_trace("SQ", 50, 500), 16),
      make_site("FLAT", constant_trace("FLAT", 150.0), 16,
                Energy::kilowatt_hours(0.1))};
  FleetEngine engine(sites, HourOfYear(60 * 24), op::PueModel(1.0));
  // Clean now, but each job spans the dirty half.
  const FleetJobs jobs = user_jobs(4, 1.0, 12.0, [](int) { return 10.0; });
  const auto nb = make_policy("net-benefit", PolicyConfig{});
  const auto fnb = make_policy("forecast-net-benefit", PolicyConfig{});
  const auto m_nb = engine.run(jobs, *nb);
  const auto m_fnb = engine.run(jobs, *fnb);
  // Instantaneous comparison at hour 10: home CI 50 < remote 150 → stays.
  EXPECT_EQ(m_nb.remote_dispatches, 0);
  // Forecast over 12 h: home ~275 vs remote 150 + tiny transfer → moves.
  EXPECT_EQ(m_fnb.remote_dispatches, 4);
  EXPECT_LT(m_fnb.total_carbon.to_grams(), m_nb.total_carbon.to_grams());
}

void expect_metrics_bit_equal(const ScheduleMetrics& a,
                              const ScheduleMetrics& b,
                              const std::string& what) {
  EXPECT_EQ(a.total_carbon.to_grams(), b.total_carbon.to_grams()) << what;
  EXPECT_EQ(a.transfer_carbon.to_grams(), b.transfer_carbon.to_grams())
      << what;
  EXPECT_EQ(a.total_energy.to_kwh(), b.total_energy.to_kwh()) << what;
  EXPECT_EQ(a.mean_wait_hours, b.mean_wait_hours) << what;
  EXPECT_EQ(a.p95_wait_hours, b.p95_wait_hours) << what;
  EXPECT_EQ(a.utilization, b.utilization) << what;
  EXPECT_EQ(a.jobs_completed, b.jobs_completed) << what;
  EXPECT_EQ(a.remote_dispatches, b.remote_dispatches) << what;
}

TEST(ForecastPolicies, SnapshotMemoIsResetBetweenRuns) {
  // The forecast policies keep the last per-hour forecast snapshot. Run A
  // ends and run B starts on the same hour of the year (epochs 12 h
  // apart, arrivals 12 h apart) but B's home grid is A's mirror image, so
  // a snapshot carried over from A would mis-plan every job in B.
  const HourOfYear epoch_a(60 * 24);
  const HourOfYear epoch_b = epoch_a.shifted(12);
  const auto flat = constant_trace("FLAT", 275.0);
  FleetEngine engine_a({make_site("SQ", square_trace("SQ", 50, 500), 4),
                        make_site("FLAT", flat, 4,
                                  Energy::kilowatt_hours(0.01))},
                       epoch_a, op::PueModel(1.0));
  FleetEngine engine_b({make_site("INV", square_trace("INV", 500, 50), 4),
                        make_site("FLAT", flat, 4,
                                  Energy::kilowatt_hours(0.01))},
                       epoch_b, op::PueModel(1.0));
  const FleetJobs jobs_a = user_jobs(4, 1.0, 2.0, [](int) { return 20.0; });
  const FleetJobs jobs_b = user_jobs(4, 1.0, 2.0, [](int) { return 8.0; });
  for (const char* name : {"forecast-delay", "forecast-net-benefit"}) {
    const auto reused = make_policy(name, PolicyConfig{});
    (void)engine_a.run(jobs_a, *reused);
    const auto second = engine_b.run(jobs_b, *reused);
    const auto fresh = make_policy(name, PolicyConfig{});
    expect_metrics_bit_equal(second, engine_b.run(jobs_b, *fresh), name);
  }
}

TEST(RenewableCap, ThrottlesBurnRateWithinWindow) {
  // Constant grid, huge burst of jobs: uncapped FCFS burns everything
  // up-front; the cap spreads starts so no rolling window exceeds the
  // budgeted burn rate (until the fairness guard kicks in, which this
  // workload doesn't reach).
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 64)};
  FleetEngine engine(sites, HourOfYear(0), op::PueModel(1.0));
  // 1 kWh*10 => 1000 g per job.
  const FleetJobs jobs = user_jobs(30, 10.0, 1.0, [](int) { return 0.0; });
  PolicyConfig cfg;
  cfg.burn_cap_g_per_hour = 500.0;  // ~5 jobs per 10 h window
  cfg.burn_window_hours = 10.0;
  cfg.max_delay_hours = 1000.0;  // fairness guard out of the way
  const auto cap = make_policy("renewable-cap", cfg);
  FleetOutcomes outcomes;
  const auto m = engine.run(jobs, *cap, &outcomes, nullptr);
  EXPECT_EQ(m.jobs_completed, 30);
  EXPECT_GT(m.mean_wait_hours, 1.0);  // visibly throttled
  // Verify the invariant directly: carbon started within any rolling
  // window never exceeds cap * window (one job of slack at the boundary:
  // the policy admits while the observed rate is still at or below cap).
  for (std::size_t a = 0; a < outcomes.size(); ++a) {
    const double a_start = fleetsim::hours_of(outcomes.start[a]);
    double window_g = 0;
    for (std::size_t b = 0; b < outcomes.size(); ++b) {
      const double b_start = fleetsim::hours_of(outcomes.start[b]);
      if (b_start <= a_start && b_start > a_start - 10.0) {
        window_g += outcomes.carbon_g[b];
      }
    }
    EXPECT_LE(window_g, 500.0 * 10.0 + 1000.0 + 1e-6)
        << "window ending at " << a_start;
  }
}

TEST(RenewableCap, FairnessGuardReleasesOverdueJobs) {
  // Cap so tight it would starve forever; the max-delay guard must still
  // push every job through.
  std::vector<Site> sites = {make_site("A", constant_trace("A", 100.0), 64)};
  FleetEngine engine(sites, HourOfYear(0), op::PueModel(1.0));
  const FleetJobs jobs =
      user_jobs(10, 10.0, 1.0, [](int i) { return i * 0.1; });
  PolicyConfig cfg;
  cfg.burn_cap_g_per_hour = 1.0;  // unreachable
  cfg.burn_window_hours = 24.0;
  cfg.max_delay_hours = 6.0;
  const auto cap = make_policy("renewable-cap", cfg);
  FleetOutcomes outcomes;
  const auto m = engine.run(jobs, *cap, &outcomes, nullptr);
  EXPECT_EQ(m.jobs_completed, 10);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_LE(outcomes.wait_hours[i], 6.0 + 1.5)
        << "job " << outcomes.job_id[i];
  }
}

TEST(RenewableCap, ShiftsCarbonOutOfDirtySpikes) {
  // Square-wave grid: the dirty half doubles the burn rate, so the cap
  // throttles there and releases in the clean half — lower carbon than
  // FCFS at the cost of queue wait.
  std::vector<Site> sites = {make_site("SQ", square_trace("SQ", 50, 500), 32)};
  FleetEngine engine(sites, HourOfYear(0), op::PueModel(1.0));
  // Submitted across the dirty window.
  const FleetJobs jobs =
      user_jobs(16, 4.0, 1.0, [](int i) { return 13.0 + 0.25 * i; });
  PolicyConfig cfg;
  cfg.burn_cap_g_per_hour = 300.0;
  cfg.burn_window_hours = 6.0;
  cfg.max_delay_hours = 24.0;
  const auto fcfs = make_policy("fcfs-local", cfg);
  const auto cap = make_policy("renewable-cap", cfg);
  const auto m_fcfs = engine.run(jobs, *fcfs);
  const auto m_cap = engine.run(jobs, *cap);
  EXPECT_EQ(m_cap.jobs_completed, 16);
  EXPECT_LT(m_cap.total_carbon.to_grams(), m_fcfs.total_carbon.to_grams());
  EXPECT_GT(m_cap.mean_wait_hours, m_fcfs.mean_wait_hours);
}

}  // namespace
}  // namespace hpcarbon::sched
