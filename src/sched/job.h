// Jobs and sites for the carbon-intensity-aware scheduler.
//
// Sec. 4 of the paper identifies "a strong opportunity for systems
// researchers to design, develop, and deploy carbon-intensity-aware job
// schedulers" exploiting the temporal and cross-region variations of
// Figs. 6-7, plus a per-user carbon-budget incentive structure. This module
// is that actionable artifact: a discrete-event scheduler over multiple
// regional HPC sites fed by the grid traces. This header holds the value
// types every layer shares — a job, a site, and the metrics of one run;
// the engine itself is fleetsim::FleetEngine (fleetsim/engine.h).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/units.h"
#include "grid/analysis.h"

namespace hpcarbon::sched {

struct Job {
  int id = 0;
  std::string user;
  double submit_hour = 0;    // global (UTC) hours since simulation start
  double duration_hours = 0;
  Power it_power;            // average IT draw while running
};

/// One regional HPC site. Traces are stored in UTC internally so that all
/// sites share the simulator's global clock.
struct Site {
  std::string code;          // "ESO"
  grid::CarbonIntensityTrace trace_utc;
  int capacity = 16;         // concurrently running jobs
  /// WAN transfer energy for shipping a remote job's data (charged at the
  /// destination's carbon intensity at dispatch time) — the cost Fig. 7's
  /// implication says distribution policies must weigh. Default sized for
  /// a ~100 GB dataset at published WAN transport intensities.
  Energy transfer_energy = Energy::kilowatt_hours(0.5);
};

Site make_site(const std::string& code, const grid::CarbonIntensityTrace& local,
               int capacity, Energy transfer_energy = Energy::kilowatt_hours(0.5));

/// The cross-region placement rule of Sec. 4: regions[home] plus the two
/// other regions whose summaries carry the lowest annual median CI, as
/// sites of `capacity` nodes named by their traces' region codes. Ties
/// keep std::sort's order over the region indices.
std::vector<Site> site_trio(
    std::size_t home,
    std::span<const std::shared_ptr<const grid::SummarizedTrace>> regions,
    int capacity);

/// Whole-run totals of one engine run under one policy.
struct ScheduleMetrics {
  Mass total_carbon;       // compute + transfer
  Mass transfer_carbon;
  Energy total_energy;     // facility side
  double mean_wait_hours = 0;
  double p95_wait_hours = 0;
  double utilization = 0;  // busy node-hours / available node-hours
  int jobs_completed = 0;
  int remote_dispatches = 0;
};

}  // namespace hpcarbon::sched
