#include "fleetsim/engine.h"

#include <algorithm>
#include <utility>

#include "core/error.h"
#include "core/stats.h"
#include "fleetsim/completion_queue.h"

namespace hpcarbon::fleetsim {

namespace {

obs::Counter& bind_jobs_counter(obs::MetricsRegistry& registry) {
  return registry.counter("hpcarbon_fleetsim_jobs_total", "",
                          "Jobs simulated by the fleet engine.");
}

obs::Counter& jobs_counter() {
  static obs::Counter& counter =
      bind_jobs_counter(obs::MetricsRegistry::global());
  return counter;
}

}  // namespace

void register_metrics(obs::MetricsRegistry& registry) {
  bind_jobs_counter(registry);
}

void FleetOutcomes::clear() {
  job_id.clear();
  site.clear();
  start.clear();
  wait_hours.clear();
  carbon_g.clear();
}

void FleetOutcomes::reserve(std::size_t n) {
  job_id.reserve(n);
  site.reserve(n);
  start.reserve(n);
  wait_hours.reserve(n);
  carbon_g.reserve(n);
}

FleetEngine::FleetEngine(std::vector<sched::Site> sites, HourOfYear epoch,
                         op::PueModel pue)
    : sites_(std::move(sites)), epoch_(epoch), pue_(pue) {
  HPC_REQUIRE(!sites_.empty(), "need at least one site");
  integrators_.reserve(sites_.size());
  for (const auto& s : sites_) {
    HPC_REQUIRE(s.capacity > 0, "site capacity must be positive");
    integrators_.emplace_back(s.trace_utc, pue_);
  }
}

int FleetEngine::capacity_total() const {
  int total = 0;
  for (const auto& s : sites_) total += s.capacity;
  return total;
}

sched::ScheduleMetrics FleetEngine::run(const FleetJobs& jobs,
                                        sched::SchedulingPolicy& policy,
                                        FleetOutcomes* outcomes,
                                        sched::CarbonBudgetLedger* ledger_out)
    const {
  if (jobs.empty()) {
    if (ledger_out != nullptr) *ledger_out = sched::CarbonBudgetLedger{};
    if (outcomes != nullptr) outcomes->clear();
    return sched::ScheduleMetrics{};
  }
  jobs.validate();
  const std::size_t n = jobs.size();

  // `jobs` is the run's one job store. Policies see a row as a sched::Job
  // only once it arrives, built in place in the queue and moved out of it
  // at dispatch; tick times convert to exact doubles, so every hour a
  // policy reads is exactly the tick time.
  sched::CarbonBudgetLedger ledger;
  std::vector<int> free_slots;
  free_slots.reserve(sites_.size());
  for (const auto& s : sites_) free_slots.push_back(s.capacity);

  std::vector<sched::PendingJob> waiting;
  // Parallel to `waiting`: the tick the planned start rounds up to, the
  // job's duration in ticks and its user's ledger account (PendingJob
  // carries neither ticks nor account indices).
  struct WaitMeta {
    Tick earliest;
    Tick duration;
    sched::CarbonBudgetLedger::Account account;
  };
  std::vector<WaitMeta> waiting_meta;
  // A radix heap on the tick clock (fleetsim/completion_queue.h). Due
  // completions all free their slots before any decision is consulted, so
  // the order among same-tick completions is unobservable.
  CompletionQueue completions;

  sched::ScheduleMetrics metrics;
  std::vector<double> waits;
  waits.reserve(n);
  if (outcomes != nullptr) {
    outcomes->clear();
    outcomes->reserve(n);
  }
  double busy_node_hours = 0;
  double makespan = 0;
  double total_grams = 0;
  double transfer_grams = 0;
  double total_kwh = 0;

  std::size_t next_arrival = 0;
  Tick t = 0;
  double t_hours = 0;  // always hours_of(t); the view's double clock

  sched::ClusterView view;
  view.sites_ = &sites_;
  view.free_slots_ = &free_slots;
  view.integrators_ = &integrators_;
  view.ledger_ = &ledger;
  view.pue_ = &pue_;
  view.now_ = &t_hours;
  view.epoch_ = epoch_;

  policy.begin_run(jobs.users, ledger, view);
  // Each `users` row's ledger account, resolved once: the per-job charge
  // indexes a vector instead of looking a name up.
  std::vector<sched::CarbonBudgetLedger::Account> accounts;
  accounts.reserve(jobs.users.size());
  for (const auto& u : jobs.users) accounts.push_back(ledger.account(u));

  // Accounting order is part of the output: FP sums are order-sensitive,
  // so reordering these operations moves the golden metrics in
  // tests/test_fleetsim.cpp.
  auto start_job = [&](const sched::Job& j, std::size_t site, Tick now_tick,
                       const WaitMeta& meta) {
    const double now = t_hours;
    --free_slots[site];
    completions.push(now_tick + meta.duration,
                     static_cast<std::uint32_t>(site));
    const double grams =
        view.job_carbon_g(site, j.it_power, now, j.duration_hours);
    const double kwh =
        j.it_power.to_kilowatts() * j.duration_hours * pue_.base();
    double tgrams = 0;
    if (site != 0) {
      ++metrics.remote_dispatches;
      tgrams = sites_[site].transfer_energy.to_kwh() * view.current_ci(site);
      total_kwh += sites_[site].transfer_energy.to_kwh();
    }
    total_grams += grams + tgrams;
    transfer_grams += tgrams;
    total_kwh += kwh;
    busy_node_hours += j.duration_hours;
    makespan = std::max(makespan, now + j.duration_hours);
    const double wait = now - j.submit_hour;
    waits.push_back(wait);
    ledger.charge(meta.account, Mass::grams(grams + tgrams));
    if (outcomes != nullptr) {
      outcomes->job_id.push_back(static_cast<std::int32_t>(j.id));
      outcomes->site.push_back(static_cast<std::uint32_t>(site));
      outcomes->start.push_back(now_tick);
      outcomes->wait_hours.push_back(wait);
      outcomes->carbon_g.push_back(grams + tgrams);
    }
    ++metrics.jobs_completed;
    policy.on_job_started(j, site, grams + tgrams, view);
  };

  auto dispatch = [&] {
    while (!waiting.empty()) {
      const auto decision = policy.select(waiting, view);
      if (!decision.has_value()) return;
      HPC_REQUIRE(decision->queue_index < waiting.size() &&
                      decision->site < sites_.size() &&
                      free_slots[decision->site] > 0,
                  "policy returned an invalid dispatch decision");
      const sched::Job j = std::move(waiting[decision->queue_index].job);
      const WaitMeta meta = waiting_meta[decision->queue_index];
      waiting.erase(waiting.begin() +
                    static_cast<std::ptrdiff_t>(decision->queue_index));
      waiting_meta.erase(waiting_meta.begin() +
                         static_cast<std::ptrdiff_t>(decision->queue_index));
      start_job(j, decision->site, t, meta);
    }
  };

  // Event loop: arrivals, completions, hourly ticks (so delay/throttle
  // policies re-evaluate as the grid's intensity moves), and planned
  // starts — four wake sources, all on the integer tick clock.
  while (next_arrival < n || !completions.empty() || !waiting.empty()) {
    Tick next_tick = kNoEvent;
    if (next_arrival < n) {
      next_tick = std::min(next_tick, jobs.submit[next_arrival]);
    }
    next_tick = std::min(next_tick, completions.next());
    if (!waiting.empty()) {
      // Next whole hour (t >= 0, so integer division floors).
      next_tick =
          std::min(next_tick, (t / kTicksPerHour + 1) * kTicksPerHour);
      for (const auto& m : waiting_meta) {
        if (m.earliest > t) next_tick = std::min(next_tick, m.earliest);
      }
    }
    HPC_REQUIRE(next_tick != kNoEvent, "fleet simulator deadlock");
    t = std::max(t, next_tick);
    t_hours = hours_of(t);

    completions.pop_due(t, free_slots);
    while (next_arrival < n && jobs.submit[next_arrival] <= t) {
      sched::PendingJob& p = waiting.emplace_back();
      p.job.id = jobs.id[next_arrival];
      p.job.user = jobs.users[jobs.user[next_arrival]];
      p.job.submit_hour = hours_of(jobs.submit[next_arrival]);
      p.job.duration_hours = hours_of(jobs.duration[next_arrival]);
      p.job.it_power = jobs.power[next_arrival];
      p.earliest_start = policy.planned_start(p.job, view);
      waiting_meta.push_back(WaitMeta{ceil_tick(p.earliest_start),
                                      jobs.duration[next_arrival],
                                      accounts[jobs.user[next_arrival]]});
      ++next_arrival;
    }
    dispatch();
  }

  metrics.total_carbon = Mass::grams(total_grams);
  metrics.transfer_carbon = Mass::grams(transfer_grams);
  metrics.total_energy = Energy::kilowatt_hours(total_kwh);
  metrics.mean_wait_hours = stats::mean(waits);
  metrics.p95_wait_hours = stats::quantile(waits, 0.95);
  metrics.utilization =
      makespan > 0 ? busy_node_hours / (capacity_total() * makespan) : 0.0;
  if (ledger_out != nullptr) *ledger_out = ledger;
  jobs_counter().inc(n);
  return metrics;
}

}  // namespace hpcarbon::fleetsim
