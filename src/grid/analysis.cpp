#include "grid/analysis.h"

#include <array>
#include <limits>
#include <utility>

#include "core/error.h"

namespace hpcarbon::grid {

RegionSummary summarize(const CarbonIntensityTrace& trace) {
  RegionSummary s;
  s.code = trace.region_code();
  s.box = stats::box_stats(trace.values());
  s.cov_percent = stats::cov_percent(trace.values());
  return s;
}

std::vector<RegionSummary> summarize(
    const std::vector<CarbonIntensityTrace>& traces) {
  std::vector<RegionSummary> out;
  out.reserve(traces.size());
  for (const auto& t : traces) out.push_back(summarize(t));
  return out;
}

SummarizedTrace::SummarizedTrace(CarbonIntensityTrace trace)
    : CarbonIntensityTrace(std::move(trace)), summary(summarize(*this)) {}

namespace {

/// The comparison value of one local hour: the stored sample for hourly
/// traces (unchanged pre-StepSeries behaviour), the hour's mean for finer
/// cadences (a 5-minute import competes on its hour-average intensity).
double hour_value(const CarbonIntensityTrace& trace, int hour) {
  if (trace.hourly()) {
    return trace.values()[static_cast<std::size_t>(hour)];
  }
  return trace.mean_over(HourOfYear(hour), Hours::hours(1.0)).to_g_per_kwh();
}

}  // namespace

HourlyWinners hourly_lowest_ci(const std::vector<CarbonIntensityTrace>& traces,
                               TimeZone reference_tz) {
  HPC_REQUIRE(traces.size() >= 2, "need at least two regions to compare");
  HourlyWinners w;
  std::vector<CarbonIntensityTrace> aligned;
  aligned.reserve(traces.size());
  for (const auto& t : traces) {
    w.region_codes.push_back(t.region_code());
    aligned.push_back(t.to_time_zone(reference_tz));
  }
  w.counts.assign(traces.size(), {});

  for (int d = 0; d < kDaysPerYear; ++d) {
    for (int h = 0; h < kHoursPerDay; ++h) {
      const int hour = d * kHoursPerDay + h;
      double best = std::numeric_limits<double>::infinity();
      std::size_t winner = 0;
      for (std::size_t r = 0; r < aligned.size(); ++r) {
        const double v = hour_value(aligned[r], hour);
        if (v < best) {
          best = v;
          winner = r;
        }
      }
      ++w.counts[winner][static_cast<std::size_t>(h)];
    }
  }
  return w;
}

std::array<double, kHoursPerDay> diurnal_profile(
    const CarbonIntensityTrace& trace) {
  std::array<double, kHoursPerDay> profile{};
  for (int h = 0; h < kHoursPerDay; ++h) {
    const auto slice = trace.hour_of_day_slice(h);
    profile[static_cast<std::size_t>(h)] = stats::mean(slice);
  }
  return profile;
}

double fraction_lower(const CarbonIntensityTrace& a,
                      const CarbonIntensityTrace& b) {
  const auto au = a.to_time_zone(kUtc);
  const auto bu = b.to_time_zone(kUtc);
  int lower = 0;
  for (int i = 0; i < kHoursPerYear; ++i) {
    if (hour_value(au, i) < hour_value(bu, i)) ++lower;
  }
  return static_cast<double>(lower) / kHoursPerYear;
}

}  // namespace hpcarbon::grid
