// fleet_scale and fleet_defer: whole passes of the fleet simulator
// (generate a seeded workload, run it under each policy, and for
// fleet_scale a savings-quantile sweep) until the measured seconds pass.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/thread_pool.h"
#include "fleetsim/engine.h"
#include "fleetsim/uncertainty.h"
#include "fleetsim/workload.h"
#include "grid/forecast.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "mc/engine.h"
#include "op/operational.h"
#include "sched/policy.h"
#include "streams.h"
#include "workloads.h"

namespace perfbench {

using namespace hpcarbon;

namespace {

constexpr int kSetups = 5;

struct Fleet {
  std::vector<grid::CarbonIntensityTrace> traces;  // ESO, CISO, ERCOT
  std::unique_ptr<fleetsim::FleetEngine> engine;
};

/// Set-up: the trio's traces, the engine (one CarbonIntegrator per site),
/// and warm-up runs: fcfs-local on a workload of the measured size, so the
/// first timed pass does not pay for first-touch page faults, and every
/// policy on one day of arrivals, so none runs cold. Returns wall seconds;
/// `trace_ms` receives the trace share.
double set_up(const FleetSpec& spec, std::uint64_t seed, Fleet& f,
              double* trace_ms) {
  const auto t0 = Clock::now();
  f.traces = grid::generate_traces(grid::fig7_regions());
  *trace_ms = seconds_since(t0) * 1e3;
  f.engine = std::make_unique<fleetsim::FleetEngine>(fleet_sites(spec, f.traces), kFleetEpoch);
  const fleetsim::FleetJobs warm = fleetsim::generate_fleet_jobs(
      fleet_workload(spec, mc::substream(seed, 99).next_u64()));
  const auto policy = sched::make_policy("fcfs-local");
  (void)f.engine->run(warm, *policy);
  fleetsim::FleetWorkloadParams day =
      fleet_workload(spec, mc::substream(seed, 98).next_u64());
  day.horizon_hours = 24.0;
  const fleetsim::FleetJobs day_jobs = fleetsim::generate_fleet_jobs(day);
  for (const std::string& name : spec.policies) {
    const auto p = sched::make_policy(name);
    (void)f.engine->run(day_jobs, *p);
  }
  return seconds_since(t0);
}

bool same_metrics(const sched::ScheduleMetrics& a,
                  const sched::ScheduleMetrics& b) {
  return a.total_carbon.to_grams() == b.total_carbon.to_grams() &&
         a.transfer_carbon.to_grams() == b.transfer_carbon.to_grams() &&
         a.total_energy.to_kwh() == b.total_energy.to_kwh() &&
         a.mean_wait_hours == b.mean_wait_hours &&
         a.p95_wait_hours == b.p95_wait_hours &&
         a.utilization == b.utilization &&
         a.jobs_completed == b.jobs_completed &&
         a.remote_dispatches == b.remote_dispatches;
}

struct Pass {
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  double gen_s = 0;
  double wall_s = 0;
  std::size_t simulated = 0;  // jobs through FleetEngine::run, sweep included
  double cpu_s = 0;           // process CPU time, pool threads included
  std::vector<double> run_s;                      // per policy
  std::vector<sched::ScheduleMetrics> metrics;    // per policy
};

Pass run_pass(const FleetSpec& spec, const fleetsim::FleetEngine& engine,
              std::uint64_t seed, SpanLog* spans, std::uint64_t pass_no) {
  Pass p;
  p.seed = seed;
  const std::uint64_t a0 = mono_ns();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  const fleetsim::FleetJobs jobs = fleetsim::generate_fleet_jobs(fleet_workload(spec, seed));
  p.jobs = jobs.size();
  p.gen_s = seconds_since(t0);
  const std::uint64_t a1 = mono_ns();
  std::uint32_t root = SpanLog::kNoParent;
  std::vector<std::uint64_t> stamps = {a0, a1};
  for (const std::string& name : spec.policies) {
    const auto policy = sched::make_policy(name);
    const auto r0 = Clock::now();
    p.metrics.push_back(engine.run(jobs, *policy));
    p.run_s.push_back(seconds_since(r0));
    stamps.push_back(mono_ns());
  }
  if (spec.sweep_samples > 0) {
    const mc::SamplePlan plan{spec.sweep_samples, seed, nullptr};
    (void)fleetsim::fleet_savings_distribution(
        engine, sweep_workload(spec, seed), spec.sweep_policy, plan);
    stamps.push_back(mono_ns());
  }
  p.wall_s = seconds_since(t0);
  p.cpu_s = process_cpu_s() - cpu0;
  if (spans != nullptr) {
    root = spans->add(spans->name_id("fleet.pass"), a0, stamps.back(),
                      SpanLog::kNoParent, pass_no);
    spans->add(spans->name_id("fleetsim.generate"), a0, a1, root, pass_no);
    for (std::size_t k = 0; k < spec.policies.size(); ++k) {
      spans->add(spans->name_id("fleetsim.run." + spec.policies[k]),
                 stamps[k + 1], stamps[k + 2], root, pass_no);
    }
    if (spec.sweep_samples > 0) {
      spans->add(spans->name_id("fleetsim.sweep"), stamps[stamps.size() - 2],
                 stamps.back(), root, pass_no);
    }
  }
  return p;
}

/// Jobs a pass's sweep simulated: every sample regenerates its workload
/// from the substream seed fleet_savings_distribution derives, and runs
/// it twice (fcfs-local baseline + the policy). Counted outside the
/// timed window by regenerating the same workloads.
std::size_t sweep_jobs(const FleetSpec& spec, std::uint64_t seed) {
  std::size_t n = 0;
  for (int i = 0; i < spec.sweep_samples; ++i) {
    fleetsim::FleetWorkloadParams wp = sweep_workload(spec, seed);
    Rng rng = mc::substream(seed, static_cast<std::uint64_t>(i));
    wp.seed = rng.next_u64();
    n += 2 * fleetsim::generate_fleet_jobs(wp).size();
  }
  return n;
}

struct Window {
  std::vector<Pass> passes;
  double wall_s = 0;
  std::size_t simulated = 0;

  /// Simulated jobs per wall second, median over passes (robust to a
  /// short stall of the shared host).
  double jobs_per_s() const {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(static_cast<double>(p.simulated) / p.wall_s);
    return median(v);
  }
  /// CPU µs per simulated job, median over passes.
  double cpu_us_per_job() const {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(p.cpu_s * 1e6 / static_cast<double>(p.simulated));
    return median(v);
  }
};

Window measure(const FleetSpec& spec, const fleetsim::FleetEngine& engine,
               std::uint64_t seed, std::size_t first_pass, double seconds,
               SpanLog* spans) {
  Window w;
  const auto t0 = Clock::now();
  while (w.passes.empty() || seconds_since(t0) < seconds) {
    const std::size_t pass_no = first_pass + w.passes.size();
    w.passes.push_back(run_pass(spec, engine, pass_seed(seed, pass_no), spans, pass_no));
  }
  w.wall_s = seconds_since(t0);
  for (Pass& p : w.passes) {
    p.simulated = p.jobs * spec.policies.size();
    if (spec.sweep_samples > 0) p.simulated += sweep_jobs(spec, p.seed);
    w.simulated += p.simulated;
  }
  return w;
}

/// Output checks, outside the timed window: every run completed every
/// job; a re-run of the first pass with outcomes completes each job
/// exactly once and repeats the timed run bit for bit.
std::uint64_t check_fleet(const FleetSpec& spec, const fleetsim::FleetEngine& engine,
                          const Window& w, Report& rep) {
  std::uint64_t failed = 0;
  for (const Pass& p : w.passes) {
    for (const auto& m : p.metrics) {
      if (static_cast<std::size_t>(m.jobs_completed) != p.jobs) {
        failed += p.jobs - std::min(p.jobs, static_cast<std::size_t>(m.jobs_completed));
      }
    }
  }
  if (failed != 0) rep.fail_check(std::to_string(failed) + " jobs left uncompleted");

  const Pass& first = w.passes.front();
  const fleetsim::FleetJobs jobs =
      fleetsim::generate_fleet_jobs(fleet_workload(spec, first.seed));
  if (jobs.size() != first.jobs) rep.fail_check("job generation is not deterministic");
  for (std::size_t k = 0; k < spec.policies.size(); ++k) {
    const auto policy = sched::make_policy(spec.policies[k]);
    fleetsim::FleetOutcomes out;
    const auto m = engine.run(jobs, *policy, &out);
    std::vector<char> seen(jobs.size(), 0);
    std::size_t dup_or_bad = 0;
    for (const std::int32_t id : out.job_id) {
      if (id < 0 || static_cast<std::size_t>(id) >= seen.size() || seen[id]++) ++dup_or_bad;
    }
    const std::size_t missing = jobs.size() - std::min(jobs.size(), out.size() - dup_or_bad);
    if (dup_or_bad + missing != 0) {
      failed += dup_or_bad + missing;
      rep.fail_check(spec.policies[k] + ": jobs not completed exactly once");
    }
    if (!same_metrics(m, first.metrics[k])) {
      rep.fail_check(spec.policies[k] + ": re-run on the same seed differs");
    }
  }
  return failed;
}

/// Median per-call nanoseconds of `fn` over `blocks` blocks of `per`
/// calls (sub-10 ns calls are timed in blocks, not one by one).
template <class Fn>
double blocked_ns(int blocks, int per, Fn&& fn) {
  std::vector<double> v;
  int i = 0;
  for (int b = 0; b < blocks; ++b) {
    v.push_back(time_ns([&] {
                  for (int k = 0; k < per; ++k) fn(i++);
                }) /
                per);
  }
  return median(v);
}

}  // namespace

Report run_fleet(const Args& args, bool defer) {
  const FleetSpec spec = defer ? fleet_defer_spec() : fleet_scale_spec();
  Report rep;
  std::vector<double> setup_s, trace_ms;
  Fleet fleet;
  for (int k = 0; k < kSetups; ++k) {
    fleet = Fleet{};
    double ms = 0;
    setup_s.push_back(set_up(spec, args.seed, fleet, &ms));
    trace_ms.push_back(ms);
  }
  const fleetsim::FleetEngine& engine = *fleet.engine;

  SpanLog spans;
  // A traced run measures half its window untraced and half traced; the
  // throughput difference is the tracing overhead.
  const Window plain = measure(spec, engine, args.seed, 0,
                               args.trace ? args.seconds / 2 : args.seconds, nullptr);
  Window traced;
  if (args.trace) {
    traced = measure(spec, engine, args.seed, plain.passes.size(), args.seconds / 2, &spans);
  }

  const double rss_mb = peak_rss_mb();  // before the checks' re-runs
  rep.failed = check_fleet(spec, engine, plain, rep);
  rep.attempted = plain.simulated;
  if (args.trace) {
    rep.failed += check_fleet(spec, engine, traced, rep);
    rep.attempted += traced.simulated;
  }
  const double jobs_per_s = plain.jobs_per_s();
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu passes, %zu jobs simulated in %.2f s (%zu jobs per "
                "pass, %zu policies%s)",
                defer ? "fleet_defer" : "fleet_scale", plain.passes.size(),
                plain.simulated, plain.wall_s, plain.passes.front().jobs,
                spec.policies.size(), spec.sweep_samples > 0 ? " + sweep" : "");
  rep.notes.push_back(line);

  if (!args.trace) {
    rep.set("cpu_us_per_op", plain.cpu_us_per_job(), "us");
    rep.set("setup_s", median(setup_s), "s");
    rep.set("peak_rss_mb", rss_mb, "MiB");
    return rep;
  }

  // ---- Traced run: per-layer metrics from the traced passes. ----
  // What a user of the simulator waits for: the wall time of one
  // FleetEngine::run. Per pass, the median run and the slowest; each
  // reported as the median over the untraced passes.
  std::vector<double> mid_us, slow_us;
  for (const Pass& p : plain.passes) {
    mid_us.push_back(percentile(p.run_s, 0.5) * 1e6);
    slow_us.push_back(*std::max_element(p.run_s.begin(), p.run_s.end()) * 1e6);
  }
  rep.set("wall.throughput", jobs_per_s, "1/s");
  rep.set("fleetsim.run_p50_us", median(mid_us), "us");
  rep.set("fleetsim.run_max_us", median(slow_us), "us");
  const std::vector<Pass>& ps = traced.passes;
  std::vector<double> gen_rate, loop_rate, wall;
  for (const Pass& p : ps) {
    gen_rate.push_back(static_cast<double>(p.jobs) / p.gen_s);
    loop_rate.push_back(static_cast<double>(p.jobs) / p.run_s[0]);  // fcfs-local
    wall.push_back(p.wall_s);
  }
  rep.set("fleetsim.generate_jobs_per_s", median(gen_rate), "1/s");
  rep.set("fleetsim.loop_jobs_per_s", median(loop_rate), "1/s");
  double policy_total = 0;
  for (std::size_t k = 1; k < spec.policies.size(); ++k) {
    std::vector<double> extra;
    for (const Pass& p : ps) extra.push_back(p.run_s[k] - p.run_s[0]);
    const double s = median(extra);
    policy_total += s;
    rep.set("sched.policy_s." + spec.policies[k], s, "s");
  }
  rep.set("sched.policy_share", policy_total / median(wall), "ratio");
  const double traced_rate = traced.jobs_per_s();
  rep.set("trace.overhead_pct", 100.0 * (jobs_per_s - traced_rate) / jobs_per_s, "%");
  rep.set("grid.trace_generate_ms", median(trace_ms), "ms");

  // The sweep's fan-out: the same plan on a 4-thread and a 1-thread pool.
  if (spec.sweep_samples > 0) {
    ThreadPool pool4(4), pool1(1);
    const fleetsim::FleetWorkloadParams wp = sweep_workload(spec, ps.front().seed);
    auto sweep_s = [&](ThreadPool& pool) {
      const auto t0 = Clock::now();
      (void)fleetsim::fleet_savings_distribution(
          engine, wp, spec.sweep_policy,
          mc::SamplePlan{spec.sweep_samples, ps.front().seed, &pool});
      return seconds_since(t0);
    };
    const double one = sweep_s(pool1);
    rep.set("mc.sweep_speedup", one / sweep_s(pool4), "x");
  }

  // Forecast windows (the deferring policies' inner call) and interval
  // carbon pricing (every dispatch), on the home site's trace.
  const grid::CarbonIntensityTrace& home = fleet.traces[2];
  const grid::DiurnalTemplateForecast forecast(home, 14);
  rep.set("grid.forecast_window_ns",
          blocked_ns(200, 16, [&](int i) {
            (void)forecast.predict_window(kFleetEpoch.shifted((i * 7) % 2000),
                                          i % 12, 1.0 + (i % 24));
          }),
          "ns");
  const op::CarbonIntegrator integrator(home, op::PueModel());
  double sink = 0;
  rep.set("op.interval_ns",
          blocked_ns(400, 256, [&](int i) {
            sink += integrator.carbon_g(1.5, 0.37 * (i % 8000), 0.5 + (i % 96));
          }),
          "ns");
  if (sink < 0) rep.notes.push_back("negative carbon");
  rep.notes.push_back(std::to_string(spans.size()) + " spans recorded");
  if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
    rep.notes.push_back("could not write spans to " + args.trace_out);
  }
  return rep;
}

}  // namespace perfbench
