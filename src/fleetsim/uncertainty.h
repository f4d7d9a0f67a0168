// Monte-Carlo uncertainty for fleet simulations: savings quantiles over
// workload-generator seeds.
//
// A single fleet run answers "what did this policy save on this job
// stream"; the distribution over seeds answers whether the edge survives
// a different mix. Sampling rides mc::Engine — sample i draws its
// workload seed from mc::substream(plan.seed, i), every sample runs a
// paired fcfs-local baseline on the same jobs, and FleetEngine::run is
// const — so the quantiles are bit-identical whatever thread count
// executes them. This is the one savings-over-seeds sampler: `hpcarbon
// run --uncertainty`, `hpcarbon fleetsim --uncertainty`, `hpcarbon
// sweep`'s sched section, and serve `fleetsim` samples all call it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fleetsim/engine.h"
#include "fleetsim/workload.h"
#include "mc/distribution.h"
#include "mc/engine.h"

namespace hpcarbon::fleetsim {

/// Percent of the fcfs-local `base` saved by `value` (0 if base <= 0).
inline double savings_percent(double base, double value) {
  return base > 0 ? 100.0 * (base - value) / base : 0.0;
}

/// One joint draw: the workload `base` with its seed replaced by
/// rng.next_u64(), scored by the fcfs-local baseline and every policy in
/// `policy_names` on `engine`. Writes savings% vs the baseline into
/// out[k] for policy k; an fcfs-local entry reuses the baseline run (0%).
/// Policies are constructed per call (they keep per-run state) with their
/// default config.
void fleet_savings_sample(const FleetEngine& engine,
                          const FleetWorkloadParams& base,
                          const std::vector<std::string>& policy_names,
                          Rng& rng, std::span<double> out);

/// fleet_savings_sample over `plan`: sample i draws from
/// mc::substream(plan.seed, i), and every policy scores that sample's
/// jobs, so the per-policy distributions isolate policy choice from
/// workload luck. Returns one Distribution per name, in order.
std::vector<mc::Distribution> fleet_savings_distributions(
    const FleetEngine& engine, const FleetWorkloadParams& base,
    const std::vector<std::string>& policy_names, const mc::SamplePlan& plan);

/// fleet_savings_distributions for one policy.
mc::Distribution fleet_savings_distribution(const FleetEngine& engine,
                                            const FleetWorkloadParams& base,
                                            const std::string& policy_name,
                                            const mc::SamplePlan& plan);

}  // namespace hpcarbon::fleetsim
