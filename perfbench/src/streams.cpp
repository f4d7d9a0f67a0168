#include "streams.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "core/rng.h"
#include "grid/presets.h"
#include "mc/engine.h"
#include "net/loadgen.h"

namespace perfbench {

using hpcarbon::Rng;

namespace {

/// Length of the pinned mix the hot stream cycles through.
constexpr std::size_t kHotMixLength = std::size_t{1} << 17;

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

template <class T>
const T& pick(Rng& rng, const std::vector<T>& items) {
  return items[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
}

/// Zipf(1.1) sampler over ranks 0..n-1.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
      cdf_[r] = total;
    }
  }
  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform(0.0, cdf_.back());
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

const std::vector<std::string>& region_codes() {
  static const std::vector<std::string> codes =
      hpcarbon::grid::codes_of(hpcarbon::grid::all_regions());
  return codes;
}

std::string fresh_line(Rng& rng) {
  static const std::vector<std::string> nodes = {"p100", "v100", "a100"};
  static const std::vector<std::string> suites = {"nlp", "vision", "candle"};
  // Non-forecasting policies only: a forecast policy costs ~0.1-0.4 s per
  // query and would turn the stream into a handful of slow requests.
  static const std::vector<std::string> policies = {
      "fcfs", "greedy", "threshold", "budget", "net-benefit", "cap"};
  const double u = rng.uniform();
  if (u < 0.30) {
    std::string s = R"({"op":"lifetime","params":{"node":")" +
                    pick(rng, nodes) + R"(","suite":")" + pick(rng, suites) +
                    R"(","region":")" + pick(rng, region_codes()) +
                    R"(","years":)" + fixed(rng.uniform(1.0, 10.0), 3) +
                    R"(,"gpu_usage":)" + fixed(rng.uniform(0.1, 0.9), 4);
    if (rng.uniform() < 0.25) {
      static const std::vector<std::string> samples = {"64", "128", "256"};
      s += R"(,"samples":)" + pick(rng, samples) + R"(,"seed":)" +
           std::to_string(rng.uniform_int(0, 1 << 30));
    }
    return s + "}}";
  }
  if (u < 0.55) {
    return R"({"op":"breakeven","params":{"intensity_g_per_kwh":)" +
           fixed(rng.uniform(50.0, 800.0), 2) + R"(,"annual_decline":)" +
           fixed(rng.uniform(0.0, 0.1), 5) + R"(,"horizon_years":)" +
           fixed(rng.uniform(5.0, 25.0), 3) + "}}";
  }
  if (u < 0.90) {
    return R"({"op":"trace","params":{"region":")" + pick(rng, region_codes()) +
           R"(","window_start_hour":)" + fixed(rng.uniform(0.0, 8000.0), 3) +
           R"(,"window_hours":)" + fixed(rng.uniform(1.0, 500.0), 3) + "}}";
  }
  // Short runs at or below capacity (default 16 slots; ~5.5 h mean job
  // length at <= 2.5 jobs/h keeps the queue short).
  const bool fleet = u >= 0.95;
  return std::string(R"({"op":")") + (fleet ? "fleetsim" : "sched") +
         R"(","params":{"policy":")" + pick(rng, policies) +
         R"(","days":)" + fixed(rng.uniform(1.0, 3.0), 3) + R"(,"rate":)" +
         fixed(rng.uniform(0.5, 2.5), 3) + R"(,"seed":)" +
         std::to_string(rng.uniform_int(0, 1 << 30)) + "}}";
}

/// Lines the engine must reject; the benchmark checks that each gets the
/// engine's exact ok:false bytes.
const std::vector<std::string>& malformed_lines() {
  static const std::vector<std::string> lines = {
      R"({"op":"lifetime","params":{"node":"v100")",
      R"({"op":"teleport","params":{}})",
      R"({"op":"trace","params":{"region":"XX"}})",
      R"({"op":"lifetime","params":{"node":"v100","years":-1}})",
      R"(not json at all)",
      R"({"op":"breakeven","params":{"pue":"high"}})",
      R"({"op":"sched","params":{"regions":["ESO","ESO"],"policy":"greedy"}})",
      R"({"op":"embodied","params":{"part":"a100-pcie-40"},"extra":1})",
  };
  return lines;
}

/// Interns `line` into the stream table, returning its index.
std::uint32_t intern(Stream& s, std::unordered_map<std::string, std::uint32_t>& ix,
                     const std::string& line, Kind kind) {
  const auto [it, inserted] =
      ix.emplace(line, static_cast<std::uint32_t>(s.lines.size()));
  if (inserted) {
    s.lines.push_back(line);
    s.kind.push_back(kind);
  }
  return it->second;
}

}  // namespace

Stream hot_stream(std::uint64_t seed, std::size_t count) {
  static const std::vector<std::string> mix = hpcarbon::net::zipf_mix(kHotMixLength);
  Stream s;
  std::unordered_map<std::string, std::uint32_t> ix;
  std::vector<std::uint32_t> mix_index;
  mix_index.reserve(mix.size());
  for (const std::string& line : mix) {
    mix_index.push_back(intern(s, ix, line, Kind::kHot));
  }
  const std::size_t offset =
      hpcarbon::mc::substream(seed, 0).next_u64() % kHotMixLength;
  s.seq.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    s.seq[i] = mix_index[(offset + i) % kHotMixLength];
  }
  return s;
}

std::vector<std::string> churn_hot_head() {
  std::vector<std::string> head;
  for (const std::string& q : hpcarbon::net::query_universe()) {
    if (q.find(R"("op":"sched")") == std::string::npos) head.push_back(q);
  }
  return head;
}

Stream churn_stream(std::uint64_t seed, std::size_t count) {
  static const std::vector<std::string> head = churn_hot_head();
  static const Zipf zipf(head.size());
  Rng rng = hpcarbon::mc::substream(seed, 1);
  Stream s;
  std::unordered_map<std::string, std::uint32_t> ix;
  s.seq.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform();
    if (u < ChurnMix::kMetrics) {
      s.seq.push_back(intern(s, ix, R"({"op":"metrics"})", Kind::kMetrics));
    } else if (u < ChurnMix::kMetrics + ChurnMix::kMalformed) {
      s.seq.push_back(intern(s, ix, pick(rng, malformed_lines()),
                             Kind::kMalformed));
    } else if (u < ChurnMix::kMetrics + ChurnMix::kMalformed + ChurnMix::kFresh) {
      s.seq.push_back(intern(s, ix, fresh_line(rng), Kind::kFresh));
    } else {
      s.seq.push_back(intern(s, ix, head[zipf.draw(rng)], Kind::kHot));
    }
  }
  return s;
}

std::vector<std::uint64_t> poisson_due_ns(std::size_t count, double rate_rps,
                                          std::uint64_t seed) {
  Rng rng = hpcarbon::mc::substream(seed, 2);
  std::vector<std::uint64_t> due(count);
  double t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(rate_rps) * 1e9;
    due[i] = static_cast<std::uint64_t>(t);
  }
  return due;
}

FleetSpec fleet_scale_spec() {
  // The bench_fleetsim geometry: ~1M Poisson jobs on a 4096-node
  // ERCOT/ESO/CISO trio, busy but under capacity, so fcfs-local never
  // queues and every policy decision is O(1).
  FleetSpec s;
  s.home_capacity = 2048;
  s.remote_capacity = 1024;
  s.rate_per_hour = 320.0;
  s.horizon_hours = 3125.0;
  s.policies = {"fcfs-local", "greedy-lowest-ci", "net-benefit",
                "budget-aware"};
  s.sweep_policy = "greedy-lowest-ci";
  s.sweep_samples = 8;
  s.sweep_rate_per_hour = 40.0;
  return s;
}

FleetSpec fleet_defer_spec() {
  // A small fleet under the deferring policies: queue scans and forecast
  // windows dominate (forecast-delay costs ~0.3 ms per job here, so a pass
  // takes a few seconds).
  FleetSpec s;
  s.home_capacity = 64;
  s.remote_capacity = 32;
  s.rate_per_hour = 10.0;
  s.horizon_hours = 672.0;
  s.policies = {"fcfs-local", "threshold-delay", "forecast-delay",
                "forecast-net-benefit", "renewable-cap"};
  return s;
}

std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return hpcarbon::mc::substream(seed, 100 + pass).next_u64();
}

hpcarbon::fleetsim::FleetWorkloadParams fleet_workload(const FleetSpec& spec,
                                                       std::uint64_t seed) {
  hpcarbon::fleetsim::FleetWorkloadParams wp;
  wp.rate_per_hour = spec.rate_per_hour;
  wp.horizon_hours = spec.horizon_hours;
  wp.user_count = spec.users;
  wp.seed = seed;
  return wp;
}

hpcarbon::fleetsim::FleetWorkloadParams sweep_workload(const FleetSpec& spec,
                                                       std::uint64_t seed) {
  hpcarbon::fleetsim::FleetWorkloadParams wp = fleet_workload(spec, seed);
  wp.rate_per_hour = spec.sweep_rate_per_hour;
  return wp;
}

std::vector<hpcarbon::sched::Site> fleet_sites(
    const FleetSpec& spec,
    const std::vector<hpcarbon::grid::CarbonIntensityTrace>& traces) {
  using hpcarbon::sched::make_site;
  return {make_site("ERCOT", traces[2], spec.home_capacity),
          make_site("ESO", traces[0], spec.remote_capacity),
          make_site("CISO", traces[1], spec.remote_capacity)};
}

}  // namespace perfbench
