#include "fleetsim/uncertainty.h"

#include "sched/policy.h"

namespace hpcarbon::fleetsim {

void fleet_savings_sample(const FleetEngine& engine,
                          const FleetWorkloadParams& base,
                          const std::vector<std::string>& policy_names,
                          Rng& rng, std::span<double> out) {
  FleetWorkloadParams wp = base;
  wp.seed = rng.next_u64();
  const FleetJobs jobs = generate_fleet_jobs(wp);
  const auto baseline = sched::make_policy("fcfs-local");
  const double base_g = engine.run(jobs, *baseline).total_carbon.to_grams();
  for (std::size_t p = 0; p < policy_names.size(); ++p) {
    const auto policy = sched::make_policy(policy_names[p]);
    const double g = policy->name() == baseline->name()
                         ? base_g
                         : engine.run(jobs, *policy).total_carbon.to_grams();
    out[p] = savings_percent(base_g, g);
  }
}

std::vector<mc::Distribution> fleet_savings_distributions(
    const FleetEngine& engine, const FleetWorkloadParams& base,
    const std::vector<std::string>& policy_names, const mc::SamplePlan& plan) {
  return mc::Engine(plan).run_multi(
      policy_names.size(), [&](std::size_t, Rng& rng, std::span<double> out) {
        fleet_savings_sample(engine, base, policy_names, rng, out);
      });
}

mc::Distribution fleet_savings_distribution(const FleetEngine& engine,
                                            const FleetWorkloadParams& base,
                                            const std::string& policy_name,
                                            const mc::SamplePlan& plan) {
  return fleet_savings_distributions(engine, base, {policy_name}, plan)[0];
}

}  // namespace hpcarbon::fleetsim
