// The repository benchmark: command-line entry point.
//
//   perfbench --workload <serve_hot|serve_churn|fleet_scale|fleet_defer>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//   perfbench --self-test
//
// Prints notes (stage tables, check failures), then as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics, traced runs the per-layer ones.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "core/thread_pool.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"cpu_us_per_op", "us"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"wall.throughput", "1/s"},
      {"net.open_p50_us", "us"},
      {"net.open_p90_us", "us"},
      {"net.open_p99_us", "us"},
      {"net.client_lag_p99_us", "us"},
      {"net.transport_p50_us", "us"},
      {"net.shed", "count"},
      {"net.max_inflight", "count"},
      {"json.parse_ns", "ns"},
      {"request.canon_ns", "ns"},
      {"cache.hit_ns", "ns"},
      {"cache.put_ns", "ns"},
      {"cache.lookups", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_kreq", "1/kreq"},
      {"engine.hit_ns", "ns"},
      {"engine.assemble_ns", "ns"},
      {"obs.metrics_op_us", "us"},
      {"evaluate.embodied_us", "us"},
      {"evaluate.lifetime_us", "us"},
      {"evaluate.lifetime_mc_us", "us"},
      {"evaluate.breakeven_us", "us"},
      {"evaluate.trace_window_us", "us"},
      {"evaluate.sched_us", "us"},
      {"evaluate.fleetsim_us", "us"},
      {"grid.summarize_us", "us"},
      {"grid.forecast_window_ns", "ns"},
      {"grid.trace_generate_ms", "ms"},
      {"mc.sample_ns", "ns"},
      {"mc.summarize_us", "us"},
      {"mc.sweep_speedup", "x"},
      {"fleetsim.run_p50_us", "us"},
      {"fleetsim.run_max_us", "us"},
      {"fleetsim.generate_jobs_per_s", "1/s"},
      {"fleetsim.loop_jobs_per_s", "1/s"},
      {"sched.policy_s.greedy-lowest-ci", "s"},
      {"sched.policy_s.net-benefit", "s"},
      {"sched.policy_s.budget-aware", "s"},
      {"sched.policy_s.threshold-delay", "s"},
      {"sched.policy_s.forecast-delay", "s"},
      {"sched.policy_s.forecast-net-benefit", "s"},
      {"sched.policy_s.renewable-cap", "s"},
      {"sched.policy_share", "ratio"},
      {"op.interval_ns", "ns"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_hot|serve_churn|"
               "fleet_scale|fleet_defer> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <path>]\n"
               "       perfbench --self-test\n");
  return 2;
}

/// JSON has no infinity: a latency of a failed request reads as the
/// largest double (it misses every limit).
double finite(double v) {
  if (std::isnan(v)) return -1;
  return std::isinf(v) ? DBL_MAX : v;
}

void print_result(const Report& rep, const std::vector<MetricSpec>& specs) {
  for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
  std::string out = "{\"correct\": ";
  out += rep.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rep.attempted);
  out += ", \"failed\": " + std::to_string(rep.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    double value = 0;  // a layer this workload does not exercise
    for (const Metric& m : rep.metrics) {
      if (m.name == spec.name) value = m.value;
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "%.17g", finite(value));
    out += std::string(first ? "" : ", ") + "\"" + spec.name +
           "\": {\"value\": " + buf + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool want_self_test = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--self-test") {
        want_self_test = true;
      } else if (a == "--workload" && has_value) {
        args.workload = argv[++i];
        have_workload = true;
      } else if (a == "--seed" && has_value) {
        args.seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (a == "--seconds" && has_value) {
        args.seconds = std::stod(argv[++i]);
        have_seconds = args.seconds > 0;
      } else if (a == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") return usage();
        args.trace = v == "1";
        have_trace = true;
      } else if (a == "--trace-out" && has_value) {
        args.trace_out = argv[++i];
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }

  try {
    if (want_self_test) {
      hpcarbon::ThreadPool::set_global_threads(4);
      const int failures = self_test();
      std::printf("perfbench self-test: %s (%d failures)\n",
                  failures == 0 ? "ok" : "FAILED", failures);
      return failures == 0 ? 0 : 1;
    }
    if (!(have_workload && have_seed && have_seconds && have_trace)) return usage();
    const bool serve = args.workload == "serve_hot" || args.workload == "serve_churn";
    const bool fleet = args.workload == "fleet_scale" || args.workload == "fleet_defer";
    if (!serve && !fleet) return usage();
    // Thread budget (nproc = 4): socket workloads run the client, the
    // server's IO thread and up to two workers, so the global pool gets
    // one thread (its parallel_for then runs inline); fleet workloads fan
    // the savings sweep over four.
    hpcarbon::ThreadPool::set_global_threads(serve ? 1 : 4);
    const Report rep = serve ? run_serve(args, args.workload == "serve_churn")
                             : run_fleet(args, args.workload == "fleet_defer");
    print_result(rep, args.trace ? per_layer_metrics() : end_to_end_metrics());
    return rep.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
