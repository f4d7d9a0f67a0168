// Pluggable scheduling policies: the strategy layer of the scheduler.
//
// Sec. 4 of the paper sketches a family of carbon-aware scheduling ideas
// (temporal shifting, cross-region dispatch, budget incentives); this module
// turns each into one small class behind a common interface so new policies
// are additions, not edits to a monolithic switch. The pieces:
//
//  * ClusterView        — the read-only window a policy gets on the cluster:
//                         free slots, O(1) carbon pricing, current CI, the
//                         budget ledger, and the simulation clock.
//  * SchedulingPolicy   — the strategy interface: plan a start on arrival,
//                         pick (job, site) pairs at dispatch time, observe
//                         started jobs.
//  * Policy table       — one immutable, name-keyed table of factories
//                         (registered_policies()); the CLI, serve, and the
//                         benches enumerate it, so a row added there
//                         appears in `hpcarbon run`, `hpcarbon policies`,
//                         and the ablation bench with no further wiring.
//
// The one engine that drives these is fleetsim::FleetEngine
// (fleetsim/engine.h): it binds the ClusterView and calls every hook below.
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/units.h"
#include "op/operational.h"
#include "op/pue.h"
#include "sched/budget.h"
#include "sched/job.h"

namespace hpcarbon::fleetsim {
class FleetEngine;  // binds ClusterView for each run (src/fleetsim)
}

namespace hpcarbon::sched {

/// Knob bag shared by every built-in policy; each class reads only the
/// fields it documents. Policy-table `make` functions receive one of these.
struct PolicyConfig {
  /// ThresholdDelay: run when local CI <= threshold…
  double ci_threshold_g_per_kwh = 150.0;
  /// …or when the job has waited this long (also the ForecastDelay search
  /// window and the RenewableCap fairness guard).
  double max_delay_hours = 12.0;
  /// BudgetAware: per-user allocation for the simulated horizon.
  Mass user_budget = Mass::kilograms(200);
  /// ForecastDelay / ForecastNetBenefit: trailing window of the diurnal
  /// template, days.
  int forecast_window_days = 14;
  /// RenewableCap: throttle dispatch while the rolling emission rate over
  /// `burn_window_hours` exceeds this cap.
  double burn_cap_g_per_hour = 8000.0;
  double burn_window_hours = 24.0;
};

/// A queued job plus the policy-planned earliest start (ForecastDelay).
struct PendingJob {
  Job job;
  double earliest_start = 0;
};

/// What a policy hands back from select(): start `queue_index` on `site`.
struct DispatchDecision {
  std::size_t queue_index = 0;
  std::size_t site = 0;
};

/// Read-only window on the engine's cluster state, bound for the duration
/// of one run. All carbon queries are O(1) via per-site prefix sums.
class ClusterView {
 public:
  /// Current simulation time, global fractional hours since the epoch.
  double now() const { return *now_; }
  HourOfYear epoch() const { return epoch_; }
  /// Hour-of-year (UTC) containing simulation time `t`.
  HourOfYear hour_at(double t) const {
    return epoch_.shifted(static_cast<int>(std::floor(t)));
  }

  std::size_t site_count() const { return sites_->size(); }
  const Site& site(std::size_t i) const { return (*sites_)[i]; }
  int free_slots(std::size_t i) const { return (*free_slots_)[i]; }

  /// Carbon intensity (g/kWh) at site i at time `now()`.
  double current_ci(std::size_t i) const;
  /// PUE-weighted grams of CO2 if `it_power` ran at site i over
  /// [start, start + duration) simulation hours. O(1).
  double job_carbon_g(std::size_t i, Power it_power, double start,
                      double duration) const;
  double pue_base() const { return pue_->base(); }

  const CarbonBudgetLedger& ledger() const { return *ledger_; }

  /// Free site with the lowest current carbon intensity, or -1 when every
  /// site is full. Ties resolve deterministically to the LOWEST site index
  /// (so equal-CI sites prefer home, and ablation CSVs are reproducible
  /// run-to-run regardless of policy).
  long lowest_ci_free_site() const;

 private:
  friend class ::hpcarbon::fleetsim::FleetEngine;
  const std::vector<Site>* sites_ = nullptr;
  const std::vector<int>* free_slots_ = nullptr;
  const std::vector<op::CarbonIntegrator>* integrators_ = nullptr;
  const CarbonBudgetLedger* ledger_ = nullptr;
  const op::PueModel* pue_ = nullptr;
  const double* now_ = nullptr;
  HourOfYear epoch_;
};

/// Strategy interface. One instance drives one engine run; policies may
/// keep per-run state (forecasts, rolling windows) between callbacks.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  /// Canonical policy name ("greedy-lowest-ci").
  virtual std::string name() const = 0;

  /// Called once before the event loop with the run's user table
  /// (fleetsim::FleetJobs::users, which may name users who submit no job).
  /// Jobs themselves reach the policy one at a time, through
  /// planned_start() as each arrives. The ledger is the engine's mutable
  /// budget ledger (BudgetAware allocates every listed user here); `view`
  /// is already bound, with now() == 0.
  virtual void begin_run(const std::vector<std::string>& users,
                         CarbonBudgetLedger& ledger, const ClusterView& view) {
    (void)users;
    (void)ledger;
    (void)view;
  }

  /// Called on arrival: the earliest time the job may start (>= submit).
  /// Default: start as soon as possible.
  virtual double planned_start(const Job& job, const ClusterView& view) {
    (void)view;
    return job.submit_hour;
  }

  /// Called whenever cluster state changes (arrival, completion, hourly
  /// tick, or a preceding dispatch) while the queue is non-empty. Return
  /// the (job, site) to start now, or nullopt to wait.
  virtual std::optional<DispatchDecision> select(
      const std::vector<PendingJob>& queue, const ClusterView& view) = 0;

  /// Observer: `job` just started on `site` emitting `carbon_g` grams
  /// (compute + transfer). RenewableCap tracks its burn rate here.
  virtual void on_job_started(const Job& job, std::size_t site,
                              double carbon_g, const ClusterView& view) {
    (void)job;
    (void)site;
    (void)carbon_g;
    (void)view;
  }
};

/// One tunable of a policy, surfaced by `hpcarbon policies`.
struct PolicyKnob {
  std::string name;         // PolicyConfig field, e.g. "ci_threshold_g_per_kwh"
  std::string description;  // one line
  double default_value = 0;
};

/// One row of the policy table: names, documentation, and the factory.
struct PolicyDescriptor {
  std::string name;        // canonical, e.g. "greedy-lowest-ci"
  std::string short_name;  // CLI shorthand, e.g. "greedy"
  std::string description;
  std::vector<PolicyKnob> knobs;
  std::unique_ptr<SchedulingPolicy> (*make)(const PolicyConfig&) = nullptr;
};

/// Every built-in policy, in the order `hpcarbon policies`, policy_names()
/// and the ablation matrix report (fcfs-local first). One immutable table,
/// built on first use.
const std::vector<PolicyDescriptor>& registered_policies();

/// The table row whose canonical or short name is `name_or_short`; nullptr
/// when none is. The one name rule the CLI and the serve layer share.
const PolicyDescriptor* find_policy(std::string_view name_or_short);

/// Factory. Throws hpcarbon::Error for unknown names.
std::unique_ptr<SchedulingPolicy> make_policy(std::string_view name,
                                              const PolicyConfig& cfg = {});

}  // namespace hpcarbon::sched
