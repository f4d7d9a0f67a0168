// Result + trace caching: the memory layer of the serve subsystem.
//
// Two caches with different lifetimes and shapes:
//
//  * ResultCache — a sharded LRU over rendered result documents, keyed by
//    the canonical FNV-1a/64 request hash (serve/request.h). N independent
//    mutex-guarded shards (key-selected) keep concurrent lookups from
//    serializing on one lock; the byte budget is split evenly across
//    shards and enforced by LRU eviction per shard.
//
//  * TraceStore — a process-wide store of immutable, fully-built traces
//    behind shared_ptr, each carrying its Fig. 6 summary
//    (grid::SummarizedTrace). Generating a preset region's synthetic year,
//    parsing a --trace-csv file and summarizing the year all cost orders
//    of magnitude more than any single query; the store does each exactly
//    once per process, in the build of the entry, and hands out shared,
//    already-prefix-summed and already-summarized traces. The CLI's
//    traces_for (scenario_runner) and every serve query read the store's
//    entries in place, so multi-section sweeps and repeated queries stop
//    re-parsing, re-summarizing or copying identical inputs.
//
// Neither keeps a tally of its own: each count and occupancy change is
// recorded at the event into the hpcarbon_cache_* / hpcarbon_trace_store_*
// instruments of the registry passed at construction, and CacheStats,
// TraceStore::hits() and the stats op read them back. Caches sharing a
// registry report their sum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.h"
#include "grid/analysis.h"
#include "obs/metrics.h"

namespace hpcarbon::serve {

/// The cache's instruments read back: aggregate counters and occupancy,
/// plus the per-shard occupancy breakdown — totals alone hide shard
/// imbalance, which is exactly what an operator tuning --shards needs to
/// see ({"op":"stats"} reports these as the shard_entries / shard_bytes
/// arrays). Exact once writers quiesce.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t inserts = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  /// Parallel per-shard views, indexed by shard (entries == sum of
  /// shard_entries, bytes == sum of shard_bytes).
  std::vector<std::size_t> shard_entries;
  std::vector<std::size_t> shard_bytes;
};

class ResultCache {
 public:
  /// `byte_budget` is split evenly across `shards`; both must be >= 1.
  explicit ResultCache(
      std::size_t shards = 8, std::size_t byte_budget = 8u << 20,
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global());
  /// Takes the resident entries and bytes back out of the occupancy
  /// gauges, which other caches on the registry may still feed.
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Lookup by canonical key: on a hit the cached value is appended to
  /// `out` under the shard lock (no intermediate std::string), its LRU
  /// position is refreshed, and true is returned; on a miss `out` is
  /// untouched. The full canonical string is verified on a hash hit —
  /// FNV-1a/64 is not collision-proof, and a collision must read as a
  /// miss, never as a confidently wrong answer. Counts one hit or one
  /// miss. The serve hot path embeds the cached result mid-response this
  /// way, so a warm lookup copies the bytes exactly once.
  bool get_append(std::uint64_t key, std::string_view canonical,
                  std::string& out);

  /// Insert or refresh (a hash collision replaces the resident entry —
  /// latest canonical wins). Evicts least-recently-used entries of the
  /// shard until it fits its budget. A value whose own cost exceeds the
  /// shard budget is not cached at all (it would evict the entire shard
  /// for a one-shot entry).
  void put(std::uint64_t key, std::string_view canonical, std::string value);

  CacheStats stats() const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t byte_budget() const { return budget_per_shard_ * shards_.size(); }

  /// `shard="i"`: the label of shard i's hpcarbon_cache_shard_* series.
  static std::string shard_label(std::size_t i);

  /// Budgeted cost of one entry: canonical + value bytes + bookkeeping
  /// overhead.
  static std::size_t entry_cost(std::string_view canonical,
                                std::string_view value);

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::string canonical;
    std::string value;
  };
  struct Shard {
    Shard(obs::Gauge& entries, obs::Gauge& bytes)
        : entries_gauge(entries), bytes_gauge(bytes) {}

    mutable AnnotatedMutex mu;
    /// Front = most recently used. Every field below holds the shard
    /// invariant (index points into lru; bytes == sum of entry costs)
    /// only while mu is held.
    std::list<Entry> lru HPCARBON_GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index
        HPCARBON_GUARDED_BY(mu);
    std::size_t bytes HPCARBON_GUARDED_BY(mu) = 0;
    /// hpcarbon_cache_shard_{entries,bytes}{shard="i"}.
    obs::Gauge& entries_gauge;
    obs::Gauge& bytes_gauge;
  };

  Shard& shard_of(std::uint64_t key);
  /// Add (sign +1) or remove (-1) one entry of `cost` bytes: the shard's
  /// byte ledger and the occupancy gauges move together.
  void account(Shard& s, int sign, std::size_t cost) HPCARBON_REQUIRES(s.mu);

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& inserts_;
  obs::Gauge& entries_;
  obs::Gauge& bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t budget_per_shard_;
};

class TraceStore {
 public:
  using TracePtr = std::shared_ptr<const grid::SummarizedTrace>;

  explicit TraceStore(
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global());
  /// Takes the resident traces back out of the entries gauge.
  ~TraceStore();
  TraceStore(const TraceStore&) = delete;
  TraceStore& operator=(const TraceStore&) = delete;

  /// Process-wide store shared by the CLI tools and serve engines.
  static TraceStore& global();

  /// Register the hpcarbon_trace_store_* series in `registry`, so an
  /// engine whose store records elsewhere still exposes the full metric
  /// set (reading zero), as ThreadPool::register_metrics does.
  static void register_metrics(obs::MetricsRegistry& registry);

  /// The generated synthetic trace of a Table 3 region code and its
  /// summary, built once (bit-identical to grid::generate_traces — the
  /// simulator is deterministic per RegionSpec). Throws hpcarbon::Error
  /// for unknown codes.
  TracePtr preset(const std::string& code);

  /// The imported trace of (region code, CSV path) and its summary: read,
  /// parsed and summarized once, rows taken as the region's local time,
  /// native cadence. `note` receives the human-readable import summary
  /// ("ESO <- f.csv: ...") recorded when the file was first parsed. Throws
  /// on unknown codes and on any import error.
  TracePtr imported(const std::string& code, const std::string& path,
                    std::string* note = nullptr);

  /// Traces currently held.
  std::size_t size() const;
  /// Lookup counters (a miss is a generate/parse).
  std::uint64_t hits() const { return metrics_.hits.value(); }
  std::uint64_t misses() const { return metrics_.misses.value(); }

  /// Cap on *imported* traces held at once (presets are bounded by the
  /// seven Table 3 regions and never evicted). When a new import would
  /// exceed the cap, the least-recently-used import is dropped — holders
  /// of its shared_ptr are unaffected; the next request for it re-parses.
  /// Bounds daemon memory when clients name many distinct trace_csv
  /// paths. Default 32 (a year of 5-minute data is ~1.7 MB shared).
  void set_max_imports(std::size_t n);
  std::size_t max_imports() const;

 private:
  struct Entry {
    TracePtr trace;
    std::string note;
    bool is_import = false;
    std::uint64_t last_use = 0;  // recency stamp for import eviction
  };

  struct Metrics {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Gauge& entries;
  };
  static Metrics bind_metrics(obs::MetricsRegistry& registry);

  /// The trace under `key`: a hit under the lock, or `build()` outside it
  /// and first-insert-wins (racing builds of one key are identical).
  TracePtr lookup_or_build(const std::string& key, std::string* note,
                           const std::function<Entry()>& build)
      HPCARBON_EXCLUDES(mu_);
  /// Stamp `e` as just used and hand out its trace (and note).
  TracePtr use_locked(Entry& e, std::string* note) HPCARBON_REQUIRES(mu_);
  void evict_imports_locked() HPCARBON_REQUIRES(mu_);

  Metrics metrics_;
  mutable AnnotatedMutex mu_;
  std::map<std::string, Entry> entries_ HPCARBON_GUARDED_BY(mu_);
  std::uint64_t use_clock_ HPCARBON_GUARDED_BY(mu_) = 0;
  std::size_t max_imports_ HPCARBON_GUARDED_BY(mu_) = 32;
};

}  // namespace hpcarbon::serve
