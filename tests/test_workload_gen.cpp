// Workload-generator suite: generate_fleet_jobs, the one synthetic job
// generator behind the fleet simulator, the serve sched/fleetsim families
// and the scheduling benches. Determinism per seed and process, substream
// separation, arrival shapes, the sorted/capped/power/user/heavy-tail
// properties of the generated jobs, and parameter validation.
#include "fleetsim/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/error.h"
#include "fleetsim/jobs.h"

namespace hpcarbon::fleetsim {
namespace {

TEST(FleetWorkload, GenerationIsDeterministicPerSeedAndProcess) {
  FleetWorkloadParams p;
  p.horizon_hours = 24 * 7;
  p.rate_per_hour = 6.0;
  for (const auto process : {ArrivalProcess::kPoisson, ArrivalProcess::kDiurnal,
                             ArrivalProcess::kBursty}) {
    p.process = process;
    const FleetJobs a = generate_fleet_jobs(p);
    const FleetJobs b = generate_fleet_jobs(p);
    ASSERT_GT(a.size(), 100u) << to_string(process);
    EXPECT_EQ(a.submit, b.submit) << to_string(process);
    EXPECT_EQ(a.duration, b.duration) << to_string(process);
    EXPECT_EQ(a.user, b.user) << to_string(process);
    a.validate();
    // The long-run rate is preserved within sampling noise (20%).
    const double expected = p.rate_per_hour * p.horizon_hours;
    EXPECT_NEAR(static_cast<double>(a.size()), expected, 0.2 * expected)
        << to_string(process);
  }
  p.process = ArrivalProcess::kPoisson;
  p.seed = 777;
  const FleetJobs other_seed = generate_fleet_jobs(p);
  p.seed = 2024;
  const FleetJobs base = generate_fleet_jobs(p);
  EXPECT_NE(base.submit, other_seed.submit);
}

TEST(FleetWorkload, AttributeStreamIsSharedAcrossProcesses) {
  // Substream separation: the duration draw sequence depends only on the
  // seed, not on which arrival process consumed the arrival stream.
  FleetWorkloadParams p;
  p.horizon_hours = 24 * 7;
  p.rate_per_hour = 6.0;
  p.process = ArrivalProcess::kPoisson;
  const FleetJobs poisson = generate_fleet_jobs(p);
  p.process = ArrivalProcess::kDiurnal;
  const FleetJobs diurnal = generate_fleet_jobs(p);
  const std::size_t n = std::min(poisson.size(), diurnal.size());
  ASSERT_GT(n, 100u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(poisson.duration[i], diurnal.duration[i]) << i;
    ASSERT_EQ(poisson.user[i], diurnal.user[i]) << i;
  }
}

TEST(FleetWorkload, DiurnalConcentratesArrivalsAroundPeak) {
  FleetWorkloadParams p;
  p.process = ArrivalProcess::kDiurnal;
  p.horizon_hours = 24 * 28;
  p.rate_per_hour = 8.0;
  p.diurnal_amplitude = 0.9;
  const FleetJobs jobs = generate_fleet_jobs(p);
  std::size_t near_peak = 0;
  std::size_t near_trough = 0;
  for (const Tick t : jobs.submit) {
    const double hour_of_day = std::fmod(hours_of(t), 24.0);
    if (std::abs(hour_of_day - p.diurnal_peak_hour) <= 3) ++near_peak;
    const double trough = std::fmod(p.diurnal_peak_hour + 12.0, 24.0);
    if (std::abs(hour_of_day - trough) <= 3) ++near_trough;
  }
  EXPECT_GT(near_peak, 2 * near_trough);
}

TEST(FleetWorkload, BurstyBatchesShareSubmitTicks) {
  FleetWorkloadParams p;
  p.process = ArrivalProcess::kBursty;
  p.horizon_hours = 24 * 14;
  p.rate_per_hour = 8.0;
  p.burst_mean_size = 8.0;
  const FleetJobs jobs = generate_fleet_jobs(p);
  ASSERT_GT(jobs.size(), 200u);
  // Far fewer distinct submit ticks than jobs: batches land together.
  std::vector<Tick> distinct(jobs.submit);
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_LT(distinct.size() * 3, jobs.size());
}

TEST(FleetWorkload, ArrivalsSortedWithinHorizonWithSequentialIds) {
  FleetWorkloadParams p;
  p.horizon_hours = 100;
  const FleetJobs jobs = generate_fleet_jobs(p);
  ASSERT_FALSE(jobs.empty());
  EXPECT_TRUE(std::is_sorted(jobs.submit.begin(), jobs.submit.end()));
  EXPECT_GE(jobs.submit.front(), 0);
  EXPECT_LE(hours_of(jobs.submit.back()), p.horizon_hours);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs.id[i], static_cast<std::int32_t>(i));
  }
}

TEST(FleetWorkload, DurationsCappedAndPositive) {
  FleetWorkloadParams p;
  p.max_duration_hours = 48.0;
  const FleetJobs jobs = generate_fleet_jobs(p);
  ASSERT_FALSE(jobs.empty());
  for (const Tick d : jobs.duration) {
    EXPECT_GT(d, 0);
    EXPECT_LE(hours_of(d), 48.0);
  }
}

TEST(FleetWorkload, PowerWithinConfiguredBand) {
  FleetWorkloadParams p;
  p.min_power_kw = 1.0;
  p.max_power_kw = 3.0;
  const FleetJobs jobs = generate_fleet_jobs(p);
  ASSERT_FALSE(jobs.empty());
  for (const Power w : jobs.power) {
    EXPECT_GE(w.to_kilowatts(), 1.0);
    EXPECT_LT(w.to_kilowatts(), 3.0);
  }
}

TEST(FleetWorkload, UsersSpreadAcrossPopulation) {
  FleetWorkloadParams p;
  p.user_count = 4;
  p.horizon_hours = 24 * 30;
  const FleetJobs jobs = generate_fleet_jobs(p);
  EXPECT_EQ(jobs.users.size(), 4u);
  const std::set<std::uint32_t> users(jobs.user.begin(), jobs.user.end());
  EXPECT_EQ(users.size(), 4u);
}

TEST(FleetWorkload, HeavyTailDurations) {
  // Lognormal mix: median well below mean (production GPU cluster shape).
  FleetWorkloadParams p;
  p.horizon_hours = 24 * 365;
  const FleetJobs jobs = generate_fleet_jobs(p);
  std::vector<double> d;
  for (const Tick t : jobs.duration) d.push_back(hours_of(t));
  std::sort(d.begin(), d.end());
  const double median = d[d.size() / 2];
  double mean = 0;
  for (double x : d) mean += x;
  mean /= static_cast<double>(d.size());
  EXPECT_GT(mean, median * 1.2);
}

TEST(FleetWorkload, ValidationRejectsBadParams) {
  const auto rejects = [](auto mutate) {
    FleetWorkloadParams p;
    mutate(p);
    EXPECT_THROW(generate_fleet_jobs(p), Error);
  };
  rejects([](FleetWorkloadParams& p) { p.horizon_hours = 0; });
  rejects([](FleetWorkloadParams& p) { p.rate_per_hour = 0; });
  // Non-finite horizons and rates: unchecked, each never ends the arrival
  // loop.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  rejects([](FleetWorkloadParams& p) { p.horizon_hours = kInf; });
  rejects([](FleetWorkloadParams& p) { p.horizon_hours = kNan; });
  rejects([](FleetWorkloadParams& p) { p.rate_per_hour = kInf; });
  rejects([](FleetWorkloadParams& p) { p.rate_per_hour = kNan; });
  rejects([](FleetWorkloadParams& p) { p.user_count = 0; });
  rejects([](FleetWorkloadParams& p) { p.diurnal_amplitude = 1.0; });
  rejects([](FleetWorkloadParams& p) { p.burst_mean_size = 0.5; });
  rejects([](FleetWorkloadParams& p) { p.min_power_kw = 0; });
  rejects([](FleetWorkloadParams& p) { p.max_power_kw = 0.1; });
  rejects([](FleetWorkloadParams& p) { p.duration_log_sigma = -1; });
  rejects([](FleetWorkloadParams& p) { p.max_duration_hours = 0; });
}

}  // namespace
}  // namespace hpcarbon::fleetsim
