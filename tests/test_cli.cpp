#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/dispatch.h"
#include "cli/registry.h"
#include "cli/scenario_runner.h"
#include "cli/sweep.h"
#include "core/csv.h"
#include "core/error.h"

#include "core/thread_pool.h"

namespace hpcarbon::cli {
namespace {

// The sweep assertions below check that the scenario matrix really fans
// out; pin the pool before its first use so they hold on 1-core runners.
[[maybe_unused]] const bool g_pool_size_pinned = [] {
  ThreadPool::set_global_threads(4);
  return true;
}();

int fake_tool(int, char**) { return 42; }

TEST(Registry, RegisterFindAndSort) {
  register_tool({"zz-test-bench", ToolKind::kBench, "a bench", &fake_tool});
  register_tool({"aa-test-example", ToolKind::kExample, "an example",
                 &fake_tool});

  const ToolEntry* found = find_tool("zz-test-bench");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->description, "a bench");
  EXPECT_EQ(found->fn(0, nullptr), 42);
  EXPECT_EQ(find_tool("no-such-tool"), nullptr);

  // Sorted by (kind, name): every bench precedes every example.
  const auto all = tools();
  const auto bench_it = std::find_if(
      all.begin(), all.end(),
      [](const ToolEntry& e) { return e.name == "zz-test-bench"; });
  const auto example_it = std::find_if(
      all.begin(), all.end(),
      [](const ToolEntry& e) { return e.name == "aa-test-example"; });
  ASSERT_NE(bench_it, all.end());
  ASSERT_NE(example_it, all.end());
  EXPECT_LT(bench_it - all.begin(), example_it - all.begin());
}

TEST(Registry, ReRegisteringReplacesEntry) {
  register_tool({"dup-tool", ToolKind::kBench, "first", &fake_tool});
  register_tool({"dup-tool", ToolKind::kBench, "second", &fake_tool});
  int count = 0;
  for (const auto& e : tools()) count += e.name == "dup-tool";
  EXPECT_EQ(count, 1);
  EXPECT_EQ(find_tool("dup-tool")->description, "second");
}

TEST(ScenarioRunner, KnownRegionsAndPolicies) {
  const auto codes = region_codes();
  ASSERT_EQ(codes.size(), 7u);
  EXPECT_NE(std::find(codes.begin(), codes.end(), "ESO"), codes.end());
  // Eight built-ins come from the policy registry (six refactored + the
  // two registry-era additions).
  EXPECT_EQ(policy_names().size(), 8u);
  EXPECT_EQ(parse_policy("greedy"), "greedy-lowest-ci");
  EXPECT_EQ(parse_policy("greedy-lowest-ci"), "greedy-lowest-ci");
  EXPECT_EQ(parse_policy("cap"), "renewable-cap");
  EXPECT_EQ(parse_policy("forecast-nb"), "forecast-net-benefit");
  EXPECT_THROW(parse_policy("warp-drive"), Error);
}

TEST(ScenarioRunner, SweepProducesFullMatrixWithBaseline) {
  ScenarioOptions opts;
  opts.regions = {"ESO", "ERCOT"};
  opts.policies = {"greedy"};  // short names resolve through the registry
  opts.horizon_days = 7;
  opts.arrival_rate_per_hour = 1.0;

  const ScenarioReport report = run_scenarios(opts);
  // 2 regions x (FcfsLocal baseline + 1 requested policy).
  ASSERT_EQ(report.rows.size(), 4u);
  EXPECT_GT(report.jobs, 0u);
  // Which of the 4 pinned workers dequeue the 4 cells is an OS scheduling
  // race (one worker can drain the whole queue on a loaded single-core
  // runner), so only the bounds are deterministic.
  EXPECT_GE(report.worker_threads_used, 1u);
  EXPECT_LE(report.worker_threads_used, 4u);

  for (std::size_t r = 0; r < 2; ++r) {
    const auto& base = report.rows[r * 2];
    const auto& greedy = report.rows[r * 2 + 1];
    EXPECT_EQ(base.policy, "fcfs-local");
    EXPECT_EQ(greedy.policy, "greedy-lowest-ci");
    EXPECT_EQ(base.region, greedy.region);
    EXPECT_DOUBLE_EQ(base.savings_vs_fcfs_pct, 0.0);
    EXPECT_GT(base.carbon_kg, 0.0);
    EXPECT_GT(base.median_ci_g_per_kwh, 0.0);
    EXPECT_GT(base.jobs_completed, 0);
  }

  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("region,policy,median_ci_g_per_kwh"), std::string::npos);
  // Header + one line per row.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
  EXPECT_EQ(report.to_table().rows(), 4u);
}

TEST(ScenarioRunner, RejectsUnknownRegion) {
  ScenarioOptions opts;
  opts.regions = {"ATLANTIS"};
  EXPECT_THROW(run_scenarios(opts), Error);
}

TEST(ScenarioRunner, UncertaintyAddsSavingsQuantiles) {
  ScenarioOptions opts;
  // Two regions so ERCOT gets a cleaner remote site (ESO) to dispatch to.
  opts.regions = {"ERCOT", "ESO"};
  opts.policies = {"greedy"};
  opts.horizon_days = 7;
  opts.arrival_rate_per_hour = 1.0;
  opts.uncertainty_samples = 3;

  const ScenarioReport report = run_scenarios(opts);
  EXPECT_EQ(report.uncertainty_samples, 3);
  ASSERT_EQ(report.rows.size(), 4u);
  const auto& base = report.rows[0];    // ERCOT fcfs-local
  const auto& greedy = report.rows[1];  // ERCOT greedy-lowest-ci
  // The baseline's savings vs itself is identically zero in every sample.
  EXPECT_DOUBLE_EQ(base.savings_p05, 0.0);
  EXPECT_DOUBLE_EQ(base.savings_p95, 0.0);
  // Quantiles are ordered, and greedy's cross-region dispatch out of the
  // dirtiest region saves carbon for every workload seed.
  EXPECT_LE(greedy.savings_p05, greedy.savings_p50);
  EXPECT_LE(greedy.savings_p50, greedy.savings_p95);
  EXPECT_GT(greedy.savings_p05, 0.0);

  // The extra columns appear in CSV and table only when enabled.
  EXPECT_NE(report.to_csv().find("savings_p05"), std::string::npos);
  ScenarioOptions plain = opts;
  plain.uncertainty_samples = 0;
  EXPECT_EQ(run_scenarios(plain).to_csv().find("savings_p05"),
            std::string::npos);
}

// Pins every ScenarioRow of the all-region matrix bit for bit: each double
// is written as a %a hexfloat (csv_num keeps only 6 significant digits, so
// a CSV golden would miss a last-bit change). To regenerate after an
// intentional change, run with HPCARBON_REGEN_GOLDEN=1 and commit the
// rewritten fixture with the reason the numbers moved.
TEST(ScenarioRunner, AllRegionsMatchHexfloatGolden) {
  ScenarioOptions opts;
  opts.regions = region_codes();
  opts.horizon_days = 7;
  opts.uncertainty_samples = 3;
  const ScenarioReport report = run_scenarios(opts);

  std::vector<std::string> produced = {"jobs\t" + std::to_string(report.jobs)};
  for (const auto& r : report.rows) {
    std::string line = r.region + '\t' + r.policy;
    for (const double v :
         {r.median_ci_g_per_kwh, r.cov_percent, r.carbon_kg,
          r.savings_vs_fcfs_pct, r.mean_wait_hours, r.p95_wait_hours,
          r.savings_p05, r.savings_p50, r.savings_p95}) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "\t%a", v);
      line += buf;
    }
    line += '\t' + std::to_string(r.remote_dispatches) + '\t' +
            std::to_string(r.jobs_completed);
    produced.push_back(std::move(line));
  }

  const std::string path =
      std::string(HPCARBON_TEST_DATA_DIR) + "/scenario_golden.tsv";
  if (const char* env = std::getenv("HPCARBON_REGEN_GOLDEN");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& l : produced) out << l << '\n';
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> golden;
  for (std::string l; std::getline(in, l);) golden.push_back(l);
  ASSERT_EQ(produced.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(produced[i], golden[i]) << "line " << i + 1 << " diverged";
  }
}

TEST(Sweep, SectionsAreValidatedAndRowsSummarize) {
  SweepOptions opts;
  opts.samples = 64;
  opts.sections = {"embodied", "fleet"};
  const SweepReport report = run_sweep(opts);
  // Nine Table 1 parts + two fleet schedules.
  ASSERT_EQ(report.rows.size(), 11u);
  for (const auto& r : report.rows) {
    EXPECT_EQ(r.samples, 64);
    EXPECT_LE(r.p05, r.p50);
    EXPECT_LE(r.p50, r.p95);
    EXPECT_GT(r.stddev, 0.0);
  }
  const std::string csv = report.to_csv();
  EXPECT_NE(csv.find("section,quantity,unit"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 12);
  EXPECT_EQ(report.section_table("embodied").rows(), 9u);
  EXPECT_EQ(report.section_table("fleet").rows(), 2u);

  SweepOptions bad;
  bad.sections = {"astrology"};
  EXPECT_THROW(run_sweep(bad), Error);
  SweepOptions bad_region;
  bad_region.samples = 8;
  bad_region.sections = {"lifetime"};
  bad_region.region = "ATLANTIS";
  EXPECT_THROW(run_sweep(bad_region), Error);
}

std::string fixture_path() {
  return std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv";
}

TEST(ScenarioRunner, TraceOverrideSyntax) {
  EXPECT_EQ(parse_trace_override("ESO=grid.csv"),
            (std::pair<std::string, std::string>{"ESO", "grid.csv"}));
  EXPECT_THROW(parse_trace_override("no-equals"), Error);
  EXPECT_THROW(parse_trace_override("=path"), Error);
  EXPECT_THROW(parse_trace_override("ESO="), Error);
}

// Acceptance: the checked-in 5-minute fixture drives the full scenario
// matrix end to end via --trace-csv, at native 300 s resolution.
TEST(ScenarioRunner, FiveMinuteTraceOverrideDrivesScenarios) {
  ScenarioOptions opts;
  opts.regions = {"ESO", "CISO"};
  opts.policies = {"greedy"};
  opts.horizon_days = 5;
  opts.arrival_rate_per_hour = 1.0;
  opts.trace_csv = {{"ESO", fixture_path()}};

  const ScenarioReport report = run_scenarios(opts);
  ASSERT_EQ(report.rows.size(), 4u);
  ASSERT_EQ(report.trace_notes.size(), 1u);
  EXPECT_NE(report.trace_notes[0].find("105120 samples"), std::string::npos)
      << report.trace_notes[0];
  for (const auto& row : report.rows) {
    EXPECT_GT(row.carbon_kg, 0.0);
    EXPECT_GT(row.jobs_completed, 0);
  }
  // The ESO rows now reflect the fixture's statistics, not the preset's:
  // its diurnal pattern has a ~404 g/kWh median (the synthetic ESO preset
  // sits near 150).
  EXPECT_GT(report.rows[0].median_ci_g_per_kwh, 300.0);

  // The emitted report, string cells included, survives parse_csv_table.
  const auto table = parse_csv_table(report.to_csv());
  ASSERT_EQ(table.rows.size(), report.rows.size() + 1);
  EXPECT_EQ(table.rows[1][0], "ESO");

  // Overrides for unselected regions are typos, not no-ops — and so are
  // duplicate overrides for one region (one file would silently shadow
  // the other; `run` and `sweep` must agree instead of diverging).
  ScenarioOptions bad = opts;
  bad.trace_csv = {{"ERCOT", fixture_path()}};
  EXPECT_THROW(run_scenarios(bad), Error);
  ScenarioOptions dup = opts;
  dup.trace_csv = {{"ESO", fixture_path()}, {"ESO", "/tmp/other.csv"}};
  EXPECT_THROW(run_scenarios(dup), Error);
}

TEST(Sweep, TraceOverrideReachesLifetimeSection) {
  SweepOptions opts;
  opts.samples = 8;
  opts.sections = {"lifetime"};
  opts.region = "CISO";
  opts.trace_csv = {{"CISO", fixture_path()}};
  const SweepReport report = run_sweep(opts);
  ASSERT_EQ(report.rows.size(), 6u);
  for (const auto& r : report.rows) EXPECT_GT(r.p50, 0.0);

  // An override naming a region no selected section uses is rejected.
  SweepOptions bad = opts;
  bad.trace_csv = {{"KN", fixture_path()}};
  EXPECT_THROW(run_sweep(bad), Error);
}

// Exit-code contract of the driver: bare/unknown invocations print usage
// to stderr and fail; `help` prints to stdout and succeeds.
struct DispatchResult {
  int code = 0;
  std::string out;
  std::string err;
};

DispatchResult run_dispatch(std::vector<std::string> args) {
  std::vector<std::string> argv_storage = {"hpcarbon"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_storage) argv.push_back(a.data());
  std::ostringstream out, err;
  DispatchResult r;
  r.code = dispatch(static_cast<int>(argv.size()), argv.data(), out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

TEST(Dispatch, NoArgsPrintsUsageToStderrAndFails) {
  const DispatchResult r = run_dispatch({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("usage: hpcarbon"), std::string::npos);
  EXPECT_TRUE(r.out.empty());
}

TEST(Dispatch, UnknownCommandPrintsUsageToStderrAndFails) {
  const DispatchResult r = run_dispatch({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_NE(r.err.find("usage: hpcarbon"), std::string::npos);
  EXPECT_TRUE(r.out.empty());
}

TEST(Dispatch, HelpPrintsUsageToStdoutAndSucceeds) {
  for (const char* spelling : {"help", "--help", "-h"}) {
    const DispatchResult r = run_dispatch({spelling});
    EXPECT_EQ(r.code, 0) << spelling;
    EXPECT_NE(r.out.find("usage: hpcarbon"), std::string::npos) << spelling;
    EXPECT_TRUE(r.err.empty()) << spelling;
  }
}

TEST(Dispatch, MissingToolNameFails) {
  for (const char* cmd : {"bench", "example"}) {
    const DispatchResult r = run_dispatch({cmd});
    EXPECT_EQ(r.code, 2) << cmd;
    EXPECT_NE(r.err.find("missing tool name"), std::string::npos) << cmd;
  }
}

// `hpcarbon fleetsim` over all seven regions: PJM is home, and the two
// lowest preset medians (ESO, CISO) are its remote sites. The table holds
// one row per requested policy.
TEST(Dispatch, FleetsimRunsHomePlusTwoCleanestSites) {
  testing::internal::CaptureStdout();
  const DispatchResult r =
      run_dispatch({"fleetsim", "PJM", "KN", "TK", "ESO", "CISO", "MISO",
                    "ERCOT", "--days", "1", "--policies", "greedy"});
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(out.find("sites: PJM ESO CISO;"), std::string::npos) << out;
  std::vector<std::string> policies;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| ", 0) != 0) continue;
    const std::string policy = line.substr(2, line.find(' ', 2) - 2);
    if (policy != "Policy") policies.push_back(policy);
  }
  EXPECT_EQ(policies, std::vector<std::string>{"greedy-lowest-ci"}) << out;
}

// inf and nan are rejected while the arguments are parsed, before an
// infinite --rate or --days reaches job generation or a nan idle timeout
// reaches the server's millisecond cast.
TEST(Dispatch, NonFiniteNumbersAreRejectedDuringArgumentParsing) {
  const std::vector<std::vector<std::string>> cases = {
      {"fleetsim", "--rate", "inf"},
      {"run", "--days", "inf"},
      {"serve", "--idle-timeout", "nan"},
  };
  for (const auto& args : cases) {
    try {
      run_dispatch(args);
      ADD_FAILURE() << args[0] << " " << args[1] << " did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(args[1] +
                                           " expects a finite number"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Sweep, DeterministicForFixedSeed) {
  SweepOptions opts;
  opts.samples = 32;
  opts.sections = {"breakeven"};
  const SweepReport a = run_sweep(opts);
  const SweepReport b = run_sweep(opts);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rows[i].mean, b.rows[i].mean);
    EXPECT_DOUBLE_EQ(a.rows[i].p95, b.rows[i].p95);
    EXPECT_EQ(a.rows[i].extra, b.rows[i].extra);
  }
}

}  // namespace
}  // namespace hpcarbon::cli
