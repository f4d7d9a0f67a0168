// Regional carbon-intensity analyses behind Figs. 6 and 7.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/time.h"
#include "grid/trace.h"

namespace hpcarbon::grid {

/// Fig. 6: per-region annual distribution (box stats) and CoV%.
struct RegionSummary {
  std::string code;
  stats::BoxStats box;
  double cov_percent = 0;
};
RegionSummary summarize(const CarbonIntensityTrace& trace);
std::vector<RegionSummary> summarize(
    const std::vector<CarbonIntensityTrace>& traces);

/// A trace together with its Fig. 6 summary, computed once when the trace
/// is built: serve::TraceStore holds its entries this way, so consumers
/// read the median and CoV in place instead of re-scanning the year.
struct SummarizedTrace : CarbonIntensityTrace {
  explicit SummarizedTrace(CarbonIntensityTrace trace);
  RegionSummary summary;
};

/// Fig. 7: for every hour of the day (in `reference_tz`, JST in the paper),
/// count on how many of the 365 days each region had the strictly lowest
/// carbon intensity among the inputs. Ties go to the earlier region in the
/// input order (matching an argmin scan).
struct HourlyWinners {
  std::vector<std::string> region_codes;
  // counts[r][h] = number of days region r wins hour h.
  std::vector<std::array<int, kHoursPerDay>> counts;
};
HourlyWinners hourly_lowest_ci(const std::vector<CarbonIntensityTrace>& traces,
                               TimeZone reference_tz = kJst);

/// Mean CI per hour-of-day (diurnal profile) in the trace's own zone.
std::array<double, kHoursPerDay> diurnal_profile(
    const CarbonIntensityTrace& trace);

/// Fraction of hours in which `a` is strictly lower than `b`, after aligning
/// both to UTC. Supports the paper's pairwise "PJM vs ERCOT" observation.
double fraction_lower(const CarbonIntensityTrace& a,
                      const CarbonIntensityTrace& b);

}  // namespace hpcarbon::grid
