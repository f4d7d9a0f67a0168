// Shared plumbing of the repository benchmark: arguments, the result
// report, timing helpers and the in-memory span log of a traced run.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans ("" = keep them in memory only).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload invocation reports. `attempted` counts requests sent
/// (serve) or jobs simulated (fleet); `failed` counts wrong or error
/// answers to valid requests, shed requests, requests lost with a
/// connection, and jobs not completed exactly once.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (stage tables, check
  /// failures).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  void fail_check(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nanoseconds of one call of `fn`, read with the TSC-based obs clock
/// (a steady_clock pair costs as much as the sub-µs stages measured).
template <class Fn>
double time_ns(Fn&& fn) {
  const std::uint64_t t0 = hpcarbon::obs::ticks();
  fn();
  const std::uint64_t t1 = hpcarbon::obs::ticks();
  return static_cast<double>(hpcarbon::obs::elapsed_ns(t0, t1));
}

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  const std::size_t k = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// CPU seconds (user + system) used so far by the whole process and by
/// the calling thread. Time the hypervisor steals from the vCPUs is in
/// neither, which is what makes CPU cost steadier than wall time on a
/// shared host.
double process_cpu_s();
double thread_cpu_s();

/// Spans of a traced run: kept in memory, written once at the end. A span
/// is one call into a layer (or one client-side request phase); spans of
/// one request share `request`, and `parent` is the index of the span that
/// caused it (kNoParent for roots).
class SpanLog {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  /// Interned span-name id.
  std::uint32_t name_id(const std::string& name);
  std::uint32_t add(std::uint32_t name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent,
                    std::uint64_t request);
  std::size_t size() const { return spans_.size(); }
  /// One JSON object per line: name, start_ns, end_ns, parent, request.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;
  };
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock timerfd schedules on).
std::uint64_t mono_ns();

}  // namespace perfbench
