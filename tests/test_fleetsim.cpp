// Fleet-simulator suite: the integer-tick scheduling engine, its job
// storage, job-trace replay, and seed sampling. The workload generator has
// its own suite in test_workload_gen.cpp.
//
// The FleetGolden tests pin FleetEngine::run bit for bit (EXPECT_EQ on
// doubles, not a tolerance) against the metrics, per-job outcomes and
// per-user ledger the original double-clock scheduling engine produced on
// the same jobs before it was retired (outcomes and ledger as a digest). The
// parity argument that made those equal: kTicksPerHour is a power of two,
// so every tick converts to an exact double and sums of tick-quantized
// hours are exact FP arithmetic — both engines walked the identical event
// sequence and evaluated the same accounting expressions on the same
// doubles.
#include "fleetsim/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/thread_pool.h"
#include "fleetsim/jobs.h"
#include "fleetsim/uncertainty.h"
#include "fleetsim/workload.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "sched/budget.h"
#include "sched/policy.h"

namespace hpcarbon::fleetsim {
namespace {

// Same paper trio the engine/policy suite uses: ERCOT home, ESO + CISO
// remote (generate_traces returns fig7_regions order ESO, CISO, ERCOT).
std::vector<sched::Site> fig7_sites(int capacity = 32) {
  const auto traces = grid::generate_traces(grid::fig7_regions());
  return {sched::make_site("ERCOT", traces[2], capacity),
          sched::make_site("ESO", traces[0], capacity),
          sched::make_site("CISO", traces[1], capacity)};
}

FleetJobs seeded_jobs() {
  FleetWorkloadParams wp;
  wp.horizon_hours = 24 * 10;
  wp.rate_per_hour = 2.0;
  wp.seed = 31337;
  return generate_fleet_jobs(wp);
}

sched::PolicyConfig tuned_config() {
  sched::PolicyConfig cfg;
  cfg.ci_threshold_g_per_kwh = 320;
  cfg.max_delay_hours = 12;
  cfg.user_budget = Mass::kilograms(150);
  cfg.burn_cap_g_per_hour = 4000;
  return cfg;
}

/// One run as captured from the retired engine: its metrics (%a
/// hexfloats) and an outcome digest.
struct Golden {
  const char* policy;
  double carbon_g;
  double transfer_g;
  double energy_kwh;
  double mean_wait_hours;
  double p95_wait_hours;
  double utilization;
  int jobs_completed;
  int remote_dispatches;
  std::uint64_t digest;  // outcome_digest() of the same run
};

/// FNV-1a over every per-job outcome (id, site, start tick, and the bit
/// patterns of wait and carbon) and every user's ledger spent/allocation,
/// so a change that moves a job but keeps the totals still fails.
std::uint64_t outcome_digest(const FleetOutcomes& o, const FleetJobs& jobs,
                             const sched::CarbonBudgetLedger& ledger) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (std::size_t i = 0; i < o.size(); ++i) {
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(o.job_id[i])));
    mix(o.site[i]);
    mix(static_cast<std::uint64_t>(o.start[i]));
    mix(bits(o.wait_hours[i]));
    mix(bits(o.carbon_g[i]));
  }
  for (const auto& user : jobs.users) {
    mix(bits(ledger.spent(user).to_grams()));
    mix(bits(ledger.allocation(user).to_grams()));
  }
  return h;
}

/// Runs `policy` on `jobs` and checks the metrics bitwise and the
/// per-job outcomes and ledger through their digest.
void expect_golden(const FleetEngine& fleet, const FleetJobs& jobs,
                   sched::SchedulingPolicy& policy, const Golden& g) {
  FleetOutcomes outcomes;
  sched::CarbonBudgetLedger ledger;
  const auto m = fleet.run(jobs, policy, &outcomes, &ledger);
  EXPECT_EQ(m.total_carbon.to_grams(), g.carbon_g) << g.policy;
  EXPECT_EQ(m.transfer_carbon.to_grams(), g.transfer_g) << g.policy;
  EXPECT_EQ(m.total_energy.to_kwh(), g.energy_kwh) << g.policy;
  EXPECT_EQ(m.mean_wait_hours, g.mean_wait_hours) << g.policy;
  EXPECT_EQ(m.p95_wait_hours, g.p95_wait_hours) << g.policy;
  EXPECT_EQ(m.utilization, g.utilization) << g.policy;
  EXPECT_EQ(m.jobs_completed, g.jobs_completed) << g.policy;
  EXPECT_EQ(m.remote_dispatches, g.remote_dispatches) << g.policy;
  ASSERT_EQ(outcomes.size(), jobs.size()) << g.policy;
  EXPECT_EQ(outcome_digest(outcomes, jobs, ledger), g.digest) << g.policy;
}

// seeded_jobs() on fig7_sites(32) from June 1 under tuned_config().
constexpr Golden kAllPolicies[] = {
    {"fcfs-local", 0x1.9d86531b10e5bp+20, 0x0p+0, 0x1.196a9cb9c5a1dp+12,
     0x0p+0, 0x0p+0, 0x1.ac17a906af771p-4, 473, 0, 0xa6ea34a4547fe709ull},
    {"greedy-lowest-ci", 0x1.2c453420e327ep+19, 0x1.2ed4bc550c2a2p+14,
     0x1.28329cb9c5a1dp+12, 0x0p+0, 0x0p+0, 0x1.ac17a906af771p-4, 473, 473,
     0x5ad2b9cf310b7e9eull},
    {"threshold-delay", 0x1.91e22f1c1728fp+20, 0x0p+0, 0x1.196a9cb9c5a1dp+12,
     0x1.28afd05f417dp+3, 0x1.919199999999ap+3, 0x1.98d82d5faba0fp-4, 473, 0,
     0xb391edd155018665ull},
    {"budget-aware", 0x1.2c453420e327ep+19, 0x1.2ed4bc550c2a2p+14,
     0x1.28329cb9c5a1dp+12, 0x0p+0, 0x0p+0, 0x1.ac17a906af771p-4, 473, 473,
     0x63d6f6e34b41d842ull},
    {"forecast-delay", 0x1.7d0c9730c526p+20, 0x0p+0, 0x1.196a9cb9c5a1cp+12,
     0x1.a3bd4292218e5p+2, 0x1.8p+3, 0x1.a6ebe89cdb411p-4, 473, 0,
     0x10bde956ed863bfcull},
    {"net-benefit", 0x1.2c418727249fbp+19, 0x1.2da78fed22b68p+14,
     0x1.282a9cb9c5a1dp+12, 0x0p+0, 0x0p+0, 0x1.ac17a906af771p-4, 473, 472,
     0x0ddecc58371da579ull},
    {"forecast-net-benefit", 0x1.fba7bac0edfbdp+18, 0x1.61cba823468c6p+14,
     0x1.28229cb9c5a1dp+12, 0x0p+0, 0x0p+0, 0x1.ac17a906af771p-4, 473, 471,
     0x9056b871e57b9df6ull},
    {"renewable-cap", 0x1.9d02904373d1dp+20, 0x0p+0, 0x1.196a9cb9c5a1dp+12,
     0x1.759630b5da1d4p+3, 0x1.9164ccccccccdp+3, 0x1.98d82d5faba0fp-4, 473, 0,
     0xdf47ce2521405850ull},
};

// seeded_jobs() on fig7_sites(4) from June 1, default config.
constexpr Golden kCongested[] = {
    {"greedy-lowest-ci", 0x1.05cb987e1237cp+20, 0x1.ae0afe9c48881p+14,
     0x1.23b29cb9c5a1dp+12, 0x1.60de944bc58c3p+0, 0x1.3506666666663p+2,
     0x1.ac17a906af771p-1, 473, 329, 0xcdaa9434b1c8e9baull},
    {"threshold-delay", 0x1.ae12eed3fa30dp+20, 0x0p+0, 0x1.196a9cb9c5a1dp+12,
     0x1.c1a5ca25e2c61p+7, 0x1.9431d99999999p+8, 0x1.4b42803659e9p-2, 473, 0,
     0x2aff0abce4af481bull},
    {"forecast-delay", 0x1.ad94cad9471f9p+20, 0x0p+0, 0x1.196a9cb9c5a1dp+12,
     0x1.b490ed0e9cf4ap+7, 0x1.8d92e66666666p+8, 0x1.4e96af4ce7847p-2, 473, 0,
     0xe8ea10200ebd6941ull},
    {"renewable-cap", 0x1.ae1ae807a056fp+20, 0x0p+0, 0x1.196a9cb9c5a1dp+12,
     0x1.a932acebf9816p+7, 0x1.87fbcp+8, 0x1.517a54cf6d7d1p-2, 473, 0,
     0x46221e967dafbc9eull},
};

// Bursty same-tick batches on fig7_sites(8) from June 1.
constexpr Golden kSameTick[] = {
    {"fcfs-local", 0x1.81167e2223ab3p+22, 0x0p+0, 0x1.01a77e3561291p+14,
     0x1.c336bc41938cp+8, 0x1.a7d1619999998p+9, 0x1.50908754154acp-2, 1624, 0,
     0xd92cdc1bb66809b4ull},
    {"greedy-lowest-ci", 0x1.f352f29315a98p+21, 0x1.4d245c2dcefb3p+16,
     0x1.09d37e3561292p+14, 0x1.35e2b938bfaf5p+6, 0x1.05b54p+7,
     0x1.cae1914b4c7d7p-1, 1624, 1046, 0x4afe3f642a7d6fd4ull},
};

// tests/data/jobs_sample.csv on fig7_sites(32) from June 1.
constexpr Golden kReplay[] = {
    {"net-benefit", 0x1.a6303e22015a4p+13, 0x1.0bd49d65fc6b1p+9,
     0x1.0e5c28f5c28f5p+7, 0x0p+0, 0x0p+0, 0x1.57f57f57f57f5p-6, 12, 12,
     0x3638e1a05e128665ull},
};

TEST(FleetTicks, ConversionsAreExact) {
  EXPECT_EQ(hours_of(0), 0.0);
  EXPECT_EQ(hours_of(kTicksPerHour), 1.0);
  EXPECT_EQ(hours_of(kTicksPerHour / 2), 0.5);
  // Round-trip: any tick-aligned value survives double conversion.
  for (Tick t : {Tick{1}, Tick{3}, Tick{1023}, Tick{123456789}}) {
    EXPECT_EQ(nearest_tick(hours_of(t)), t);
    EXPECT_TRUE(tick_aligned(hours_of(t)));
  }
  EXPECT_FALSE(tick_aligned(0.1));  // 0.1 h is not on a 1/1024 grid
  EXPECT_EQ(ceil_tick(1.0), kTicksPerHour);
  EXPECT_EQ(ceil_tick(hours_of(5) + 1e-9), Tick{6});
}

// Every built-in policy on the paper trio under tuned_config().
TEST(FleetGolden, AllPoliciesMatchGoldenMetrics) {
  const auto sites = fig7_sites();
  const FleetEngine fleet(sites, HourOfYear(3624));  // June 1
  const FleetJobs jobs = seeded_jobs();
  ASSERT_EQ(jobs.size(), 473u);
  for (const Golden& g : kAllPolicies) {
    const auto policy = sched::make_policy(g.policy, tuned_config());
    expect_golden(fleet, jobs, *policy, g);
  }
}

// Congested: capacity small enough that queues build and the hourly-tick
// / planned-start wake sources all fire.
TEST(FleetGolden, CongestedTrioMatchesGoldenMetrics) {
  const FleetEngine fleet(fig7_sites(/*capacity=*/4), HourOfYear(3624));
  const FleetJobs jobs = seeded_jobs();
  for (const Golden& g : kCongested) {
    const auto policy = sched::make_policy(g.policy);
    expect_golden(fleet, jobs, *policy, g);
  }
}

// Tie-heavy: bursty workloads submit whole batches at one tick, so FCFS
// order within a tick must be deterministic (a stable submit sort).
TEST(FleetGolden, SameTickSubmissionsMatchGoldenMetrics) {
  const FleetEngine fleet(fig7_sites(/*capacity=*/8), HourOfYear(3624));
  FleetWorkloadParams p;
  p.process = ArrivalProcess::kBursty;
  p.horizon_hours = 24 * 10;
  p.rate_per_hour = 6.0;
  p.burst_mean_size = 12.0;
  const FleetJobs jobs = generate_fleet_jobs(p);
  ASSERT_EQ(jobs.size(), 1624u);
  for (const Golden& g : kSameTick) {
    const auto policy = sched::make_policy(g.policy);
    expect_golden(fleet, jobs, *policy, g);
  }
}

TEST(FleetEngineBasics, EmptyFleetYieldsZeroMetrics) {
  const FleetEngine fleet(fig7_sites(), HourOfYear(0));
  const auto policy = sched::make_policy("fcfs-local");
  FleetOutcomes outcomes;
  const auto m = fleet.run(FleetJobs{}, *policy, &outcomes);
  EXPECT_EQ(m.jobs_completed, 0);
  EXPECT_EQ(m.total_carbon.to_grams(), 0.0);
  EXPECT_EQ(outcomes.size(), 0u);
}

TEST(FleetEngineBasics, ValidateRejectsBrokenVectors) {
  FleetJobs jobs;
  jobs.push(0, 10, 5, Power::kilowatts(1.0), "a");
  jobs.push(1, 5, 5, Power::kilowatts(1.0), "a");  // out of order
  EXPECT_THROW(jobs.validate(), Error);

  FleetJobs zero_dur;
  zero_dur.push(0, 0, 0, Power::kilowatts(1.0), "a");
  EXPECT_THROW(zero_dur.validate(), Error);

  FleetJobs ragged;
  ragged.push(0, 0, 1, Power::kilowatts(1.0), "a");
  ragged.submit.push_back(7);  // desync the parallel vectors
  EXPECT_THROW(ragged.validate(), Error);
}

std::string data_path(const std::string& name) {
  return std::string(HPCARBON_TEST_DATA_DIR) + "/" + name;
}

TEST(FleetReplay, SampleFixtureLoadsAndRuns) {
  std::vector<std::int32_t> origin;
  const FleetJobs jobs =
      load_jobs_csv(data_path("jobs_sample.csv"), /*site_count=*/3, &origin);
  ASSERT_EQ(jobs.size(), 12u);
  jobs.validate();
  ASSERT_EQ(origin.size(), 12u);
  // Sorted by submit; ids preserve the file's row order.
  EXPECT_EQ(jobs.id[0], 0);
  EXPECT_EQ(hours_of(jobs.submit[0]), 0.0);
  EXPECT_EQ(hours_of(jobs.submit[11]), 24.0);
  EXPECT_EQ(hours_of(jobs.duration[0]), 2.5);
  EXPECT_EQ(jobs.users[jobs.user[0]], "alice");
  EXPECT_EQ(origin[1], 1);  // bob's 0.25h job came from site 1
  EXPECT_EQ(jobs.power[0].to_kilowatts(), Power::kilowatts(1.2).to_kilowatts());

  const FleetEngine fleet(fig7_sites(), HourOfYear(3624));
  const auto policy = sched::make_policy("greedy-lowest-ci");
  const auto m = fleet.run(jobs, *policy);
  EXPECT_EQ(m.jobs_completed, 12);
  EXPECT_GT(m.total_carbon.to_grams(), 0.0);
}

TEST(FleetGolden, ReplayedFixtureMatchesGoldenMetrics) {
  // Replayed traces go through the same contract as synthetic workloads:
  // the fixture's times are tick-aligned.
  const FleetJobs jobs = load_jobs_csv(data_path("jobs_sample.csv"), 3);
  const FleetEngine fleet(fig7_sites(), HourOfYear(3624));
  const auto policy = sched::make_policy(kReplay[0].policy);
  expect_golden(fleet, jobs, *policy, kReplay[0]);
}

void expect_rejects(const std::string& csv, const std::string& needle,
                    std::size_t site_count = 3) {
  try {
    parse_jobs_csv(csv, site_count);
    FAIL() << "expected rejection mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FleetReplay, RejectionsCarryLineNumbers) {
  const std::string header = "submit_hours,duration_hours,power_kw,user\n";
  // Ragged row (line number from the raw CSV layer).
  expect_rejects(header + "0,1,1,alice\n2,1,1\n", "ragged CSV row 3");
  // Negative / zero durations.
  expect_rejects(header + "0,-2,1,alice\n", "duration_hours must be positive (line 2)");
  expect_rejects(header + "0,1,1,alice\n1,0,1,bob\n", "line 3");
  // Negative submit, bad number, empty user.
  expect_rejects(header + "-1,1,1,alice\n", "negative submit_hours (line 2)");
  expect_rejects(header + "0,abc,1,alice\n", "non-numeric duration_hours");
  expect_rejects(header + "0,1,1,\n", "empty user (line 2)");
  // Out-of-range or fractional site, against site_count=3.
  const std::string h5 = "submit_hours,duration_hours,power_kw,user,site\n";
  expect_rejects(h5 + "0,1,1,alice,3\n", "site must be an integer in [0, 3) (line 2)");
  expect_rejects(h5 + "0,1,1,alice,-1\n", "line 2");
  expect_rejects(h5 + "0,1,1,alice,1.5\n", "line 2");
  // Header itself must match.
  expect_rejects("a,b,c,d\n0,1,1,alice\n", "header must be");
}

TEST(FleetUncertainty, SavingsDistributionIsThreadCountBitIdentical) {
  const FleetEngine fleet(fig7_sites(), HourOfYear(3624));
  FleetWorkloadParams wp;
  wp.horizon_hours = 24 * 3;
  wp.rate_per_hour = 2.0;
  ThreadPool one(1);
  ThreadPool four(4);
  const auto d1 = fleet_savings_distribution(fleet, wp, "greedy-lowest-ci",
                                             {16, 99, &one});
  const auto d4 = fleet_savings_distribution(fleet, wp, "greedy-lowest-ci",
                                             {16, 99, &four});
  EXPECT_EQ(d1.samples(), d4.samples());
  EXPECT_EQ(d1.p50(), d4.p50());
  EXPECT_EQ(d1.p05(), d4.p05());
  EXPECT_EQ(d1.p95(), d4.p95());
}

TEST(FleetUncertainty, MultiPolicySamplerMatchesSinglePolicyCalls) {
  // One joint draw per seed: each policy's column equals the single-policy
  // sampler on the same plan, and the fcfs-local column is the baseline
  // against itself (exactly 0%).
  const FleetEngine fleet(fig7_sites(), HourOfYear(3624));
  FleetWorkloadParams wp;
  wp.horizon_hours = 24 * 3;
  wp.rate_per_hour = 2.0;
  const mc::SamplePlan plan{8, 7, nullptr};
  const auto dists = fleet_savings_distributions(
      fleet, wp, {"fcfs-local", "greedy-lowest-ci", "net-benefit"}, plan);
  ASSERT_EQ(dists.size(), 3u);
  EXPECT_EQ(dists[0].p05(), 0.0);
  EXPECT_EQ(dists[0].p95(), 0.0);
  for (std::size_t k = 1; k < dists.size(); ++k) {
    const char* name = k == 1 ? "greedy-lowest-ci" : "net-benefit";
    const auto single = fleet_savings_distribution(fleet, wp, name, plan);
    EXPECT_EQ(dists[k].samples(), single.samples()) << name;
    EXPECT_EQ(dists[k].p05(), single.p05()) << name;
    EXPECT_EQ(dists[k].p50(), single.p50()) << name;
    EXPECT_EQ(dists[k].p95(), single.p95()) << name;
  }
  EXPECT_GT(dists[1].p50(), 0.0);
}

TEST(FleetUncertainty, SampleKernelReproducesTheDistribution) {
  // `hpcarbon run --uncertainty` fans fleet_savings_sample out over
  // (region, sample) cells itself: sample k on substream k must give the
  // draws fleet_savings_distributions collects.
  const FleetEngine fleet(fig7_sites(), HourOfYear(3624));
  FleetWorkloadParams wp;
  wp.horizon_hours = 24 * 3;
  wp.rate_per_hour = 2.0;
  const mc::SamplePlan plan{6, 11, nullptr};
  const std::vector<std::string> names = {"fcfs-local", "greedy-lowest-ci"};
  const auto dists = fleet_savings_distributions(fleet, wp, names, plan);
  std::vector<std::vector<double>> columns(names.size());
  for (int k = 0; k < plan.samples; ++k) {
    Rng rng = mc::substream(plan.seed, static_cast<std::uint64_t>(k));
    std::vector<double> out(names.size());
    fleet_savings_sample(fleet, wp, names, rng, out);
    for (std::size_t p = 0; p < names.size(); ++p) columns[p].push_back(out[p]);
  }
  for (std::size_t p = 0; p < names.size(); ++p) {
    EXPECT_EQ(mc::Distribution(columns[p]).sorted(), dists[p].sorted())
        << names[p];
  }
}

}  // namespace
}  // namespace hpcarbon::fleetsim
