// Discrete-event scheduling engine: the mechanism layer of the scheduler.
//
// The engine owns everything policy-independent — arrival ordering, the
// completion queue, hourly re-evaluation ticks while jobs queue,
// per-site free slots, carbon and energy accounting, and the budget
// ledger — and delegates every decision (which queued job, which site,
// when) to a sched::SchedulingPolicy (sched/policy.h). It serves the
// paper-scale scenarios (`hpcarbon run`, serve `sched`) and fleets of
// thousands of nodes and millions of jobs alike:
//
//  * integer event ticks (fleetsim/jobs.h, 1024/hour): event matching is
//    an integer compare, never an epsilon, and because the tick rate is a
//    power of two every tick converts to an exact double, so carbon,
//    energy and wait arithmetic is exact in the event times;
//  * completions wait in a radix heap on the tick clock
//    (fleetsim/completion_queue.h): a push is an append, and each entry
//    is re-filed at most 64 times before it pops, where a binary heap
//    pays a log-depth sift per pop;
//  * each user's budget account is resolved once per run, so the per-job
//    ledger charge is an index, not a name lookup;
//  * O(1) per-job carbon through PUE-weighted prefix sums
//    (op::CarbonIntegrator), built once per site at construction, so
//    run() cost scales with job count, not job-hours;
//  * struct-of-arrays job storage in and out (FleetJobs / FleetOutcomes);
//  * run() is const — all mutable state is per-call, so Monte-Carlo
//    uncertainty sweeps fan one engine out across mc::Engine threads.
//
// Policies see the cluster through sched::ClusterView, whose double clock
// the engine slaves to the tick clock. Policy-planned starts that are not
// tick-aligned are rounded up to the next tick (built-in policies plan
// whole-hour offsets, which are always aligned). tests/test_fleetsim.cpp
// pins run() bit for bit against golden metrics.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time.h"
#include "fleetsim/jobs.h"
#include "obs/metrics.h"
#include "op/operational.h"
#include "op/pue.h"
#include "sched/budget.h"
#include "sched/job.h"
#include "sched/policy.h"

namespace hpcarbon::fleetsim {

/// Register the fleetsim instrument names (hpcarbon_fleetsim_jobs_total)
/// in `registry` so private-registry consumers expose the same metric
/// set as the process-global one. Runs always record into
/// MetricsRegistry::global(); a private registry reports 0.
void register_metrics(obs::MetricsRegistry& registry);

/// Per-job outcomes in dispatch order, struct-of-arrays (a million jobs
/// are five flat vectors, not a million strings).
struct FleetOutcomes {
  std::vector<std::int32_t> job_id;
  std::vector<std::uint32_t> site;   // index into the engine's sites
  std::vector<Tick> start;
  std::vector<double> wait_hours;
  std::vector<double> carbon_g;      // compute + transfer

  std::size_t size() const { return job_id.size(); }
  void clear();
  void reserve(std::size_t n);
};

class FleetEngine {
 public:
  /// sites[0] is the home site; `epoch` anchors tick 0 on the traces'
  /// calendar (UTC). Builds one CarbonIntegrator per site.
  FleetEngine(std::vector<sched::Site> sites, HourOfYear epoch,
              op::PueModel pue = op::PueModel());

  /// Run the event loop under `policy`. Jobs must validate (sorted
  /// submits, positive durations). An empty fleet yields zero metrics (a
  /// quiet generated horizon is a valid scenario, not an error).
  /// Optionally returns per-job outcomes (in dispatch order) and the
  /// final budget ledger.
  /// const: all simulation state is local, so concurrent runs on one
  /// engine (Monte-Carlo seed sweeps) are safe.
  sched::ScheduleMetrics run(const FleetJobs& jobs,
                             sched::SchedulingPolicy& policy,
                             FleetOutcomes* outcomes = nullptr,
                             sched::CarbonBudgetLedger* ledger_out =
                                 nullptr) const;

  const std::vector<sched::Site>& sites() const { return sites_; }
  HourOfYear epoch() const { return epoch_; }
  const op::PueModel& pue() const { return pue_; }
  /// Total node slots across every site ("4k nodes" in the bench).
  int capacity_total() const;

 private:
  std::vector<sched::Site> sites_;
  HourOfYear epoch_;
  op::PueModel pue_;
  std::vector<op::CarbonIntegrator> integrators_;  // one per site
};

}  // namespace hpcarbon::fleetsim
