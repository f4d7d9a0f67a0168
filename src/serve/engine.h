// Concurrent carbon-query engine: the execution half of the serve layer.
//
// One Engine owns a ResultCache and answers request lines
// (serve/request.h) with response lines:
//
//   {"id":"q1","ok":true,"op":"lifetime","result":{...}}      success
//   {"error":"...","id":"q1","ok":false}                      invalid
//
// Responses are a pure function of the canonical request — the client id
// is echoed but never changes the result, and cache state is reported
// only through the separate {"op":"stats"} control request — so the batch
// front-end, the stdin/stdout daemon loop, repeated runs, and every
// thread count all emit bit-identical bytes for the same question.
// {"op":"metrics"} renders the engine registry's snapshot; {"op":"stats"}
// is a fixed projection of that snapshot with no timing fields.
//
// handle_batch is the planner: it parses every line, answers cache hits
// immediately, dedups identical in-flight canonical keys down to one
// leader evaluation, fans the distinct leaders over the pool
// (ThreadPool::global() by default), and assembles responses in input
// order. Evaluation itself calls the same library seams as `hpcarbon
// run`/`sweep`/`trace` (deterministic, mc::substream-seeded where
// sampling is requested), so service answers agree with the offline
// tools.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/request.h"

namespace hpcarbon {
class ThreadPool;
}

namespace hpcarbon::serve {

struct ServeOptions {
  /// ResultCache geometry.
  std::size_t cache_shards = 8;
  std::size_t cache_bytes = 8u << 20;
  /// Pool the batch planner fans leaders over; nullptr selects
  /// ThreadPool::global(). Responses are bit-identical either way.
  ThreadPool* pool = nullptr;
  /// Trace source; nullptr selects TraceStore::global(). The stats op
  /// reports the trace_* fields from this engine's registry, so a store
  /// meant to show up there records into the same registry.
  TraceStore* traces = nullptr;
  /// Metrics sink of the engine and its cache; nullptr selects
  /// obs::MetricsRegistry::global(). Tests that assert exact counts pass
  /// a private registry (instruments are process-shared otherwise).
  obs::MetricsRegistry* registry = nullptr;
};

/// Append the canonical error-response document
/// `{"error":<what>,["id":<id>,]"ok":false}` (no trailing newline) to
/// `out`. Exposed so transport-level rejections (oversized lines,
/// overload shedding in src/net) emit bytes identical to the engine's own
/// error path. An empty id is omitted.
void append_error_response(std::string& out, std::string_view id,
                           std::string_view what);

/// True when `line` parses to an object whose "op" is "stats" or
/// "metrics" (the engine's own control test). A control line is a sequence
/// point on every front-end: it counts every earlier line on its stream
/// and none of the later ones.
bool is_control_line(std::string_view line);

/// Answer one validated query against the library (no caching). Returns
/// the result object; throws hpcarbon::Error for runtime failures (e.g. an
/// unreadable trace_csv path). Exposed for tests that compare service
/// answers against direct library calls.
json::Value evaluate(const Query& q, TraceStore& traces);

/// Per-family instrument slot: resolved once at Engine construction so
/// the hot path records without touching the registry. The six query
/// families get the full set; the stats/metrics/error pseudo-families
/// (slots 6..8) count requests only.
struct FamilySlots {
  obs::Counter* requests = nullptr;
  obs::Histogram* parse_us = nullptr;  // plan_line (batch front-end)
  obs::Histogram* eval_us = nullptr;   // evaluate + dump (cache misses)
  obs::Histogram* total_us = nullptr;  // handle_line end to end
};

class Engine {
 public:
  /// Instrument-slot layout: query families 0..5 (query_families()
  /// order), then the control/error pseudo-families.
  static constexpr std::size_t kFamilyCount = 6;
  static constexpr std::size_t kStatsSlot = 6;
  static constexpr std::size_t kMetricsSlot = 7;
  static constexpr std::size_t kErrorSlot = 8;
  static constexpr std::size_t kSlotCount = 9;

  explicit Engine(ServeOptions opts = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// One request line -> one response line (no trailing newline). Invalid
  /// requests yield ok:false responses, never throws. A line longer than
  /// kMaxRequestLineBytes (serve/limits.h) is rejected before parsing
  /// with the shared oversize error. The {"op":"stats"} and
  /// {"op":"metrics"} control requests answer counters / the obs
  /// snapshot and are themselves never cached.
  std::string handle_line(std::string_view line);

  /// handle_line, appended to a caller-owned buffer (identical bytes, no
  /// return-value string). The daemon loop and the load bench reuse one
  /// buffer across lines, so a warm request allocates nothing on this
  /// side of the cache.
  void handle_line_to(std::string_view line, std::string& out);

  /// Answer a whole batch; responses to query requests are parallel to
  /// `lines` and byte-identical to feeding the lines through handle_line
  /// one at a time on an equally-warm engine. Distinct uncached queries
  /// evaluate concurrently; duplicates within the batch evaluate once; a
  /// control line (is_control_line) is a sequence point, as on every
  /// front-end: it reports counters as of everything before it in the
  /// batch, like a sequential replay would.
  /// Caveat: when the cache is so small that entries evict each other
  /// *within one segment*, leader puts race and the hit/miss/eviction
  /// counts a stats line reports can differ from sequential replay —
  /// query responses themselves never do.
  std::vector<std::string> handle_batch(const std::vector<std::string>& lines);

  CacheStats cache_stats() const { return cache_.stats(); }
  const ServeOptions& options() const { return opts_; }
  obs::MetricsRegistry& registry() const;

 private:
  ThreadPool& pool() const;
  TraceStore& traces() const;
  /// {"op":"stats"} response body: the registry snapshot projected onto
  /// the stats field names.
  std::string stats_response(const std::string& id) const;
  /// {"op":"metrics"} response body: the obs snapshot as sorted-key JSON,
  /// transport-dependent domains excluded (see obs/export.h).
  std::string metrics_response(const std::string& id) const;
  void register_instruments();

  ServeOptions opts_;
  ResultCache cache_;

  /// Hot-path instrument slots (see FamilySlots).
  std::array<FamilySlots, kSlotCount> slots_{};
};

}  // namespace hpcarbon::serve
