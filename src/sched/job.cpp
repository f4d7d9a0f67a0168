#include "sched/job.h"

#include <algorithm>

namespace hpcarbon::sched {

Site make_site(const std::string& code,
               const grid::CarbonIntensityTrace& local, int capacity,
               Energy transfer_energy) {
  Site s;
  s.code = code;
  s.trace_utc = local.to_time_zone(kUtc);
  s.capacity = capacity;
  s.transfer_energy = transfer_energy;
  return s;
}

std::vector<Site> site_trio(
    std::size_t home,
    std::span<const std::shared_ptr<const grid::SummarizedTrace>> regions,
    int capacity) {
  std::vector<std::size_t> by_median(regions.size());
  for (std::size_t i = 0; i < by_median.size(); ++i) by_median[i] = i;
  std::sort(by_median.begin(), by_median.end(),
            [&](std::size_t a, std::size_t b) {
              return regions[a]->summary.box.median <
                     regions[b]->summary.box.median;
            });
  std::vector<Site> sites;
  sites.reserve(3);
  sites.push_back(
      make_site(regions[home]->region_code(), *regions[home], capacity));
  for (const std::size_t idx : by_median) {
    if (idx == home || sites.size() >= 3) continue;
    sites.push_back(
        make_site(regions[idx]->region_code(), *regions[idx], capacity));
  }
  return sites;
}

}  // namespace hpcarbon::sched
