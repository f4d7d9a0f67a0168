#include "serve/cache.h"

#include "core/error.h"
#include "grid/import.h"
#include "grid/presets.h"
#include "grid/simulator.h"

namespace hpcarbon::serve {

// --- ResultCache ------------------------------------------------------------

namespace {

/// Approximate per-entry bookkeeping (list node + hash slot + key).
constexpr std::size_t kEntryOverhead = 64;

}  // namespace

ResultCache::ResultCache(std::size_t shards, std::size_t byte_budget,
                         obs::MetricsRegistry& registry)
    : hits_(registry.counter("hpcarbon_cache_hits_total", "",
                             "ResultCache hits.")),
      misses_(registry.counter("hpcarbon_cache_misses_total", "",
                               "ResultCache misses.")),
      evictions_(registry.counter("hpcarbon_cache_evictions_total", "",
                                  "ResultCache evictions.")),
      inserts_(registry.counter("hpcarbon_cache_inserts_total", "",
                                "ResultCache inserts.")),
      entries_(registry.gauge("hpcarbon_cache_entries", "",
                              "Cached results resident.")),
      bytes_(registry.gauge("hpcarbon_cache_bytes", "",
                            "Cached result bytes resident.")) {
  HPC_REQUIRE(shards >= 1, "ResultCache needs at least one shard");
  HPC_REQUIRE(byte_budget >= shards * kEntryOverhead,
              "ResultCache byte budget too small for its shard count");
  budget_per_shard_ = byte_budget / shards;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string l = shard_label(i);
    shards_.push_back(std::make_unique<Shard>(
        registry.gauge("hpcarbon_cache_shard_entries", l,
                       "Cached results resident, by shard."),
        registry.gauge("hpcarbon_cache_shard_bytes", l,
                       "Cached result bytes, by shard.")));
  }
}

ResultCache::~ResultCache() {
  for (const auto& shard : shards_) {
    Shard& s = *shard;
    MutexLock lock(s.mu);
    for (const Entry& e : s.lru) account(s, -1, entry_cost(e.canonical, e.value));
  }
}

std::string ResultCache::shard_label(std::size_t i) {
  return "shard=\"" + std::to_string(i) + "\"";
}

std::size_t ResultCache::entry_cost(std::string_view canonical,
                                    std::string_view value) {
  return canonical.size() + value.size() + kEntryOverhead;
}

ResultCache::Shard& ResultCache::shard_of(std::uint64_t key) {
  // The canonical key is already FNV-mixed; the low bits select evenly.
  return *shards_[key % shards_.size()];
}

void ResultCache::account(Shard& s, int sign, std::size_t cost) {
  s.bytes = sign > 0 ? s.bytes + cost : s.bytes - cost;
  const std::int64_t bytes = sign * static_cast<std::int64_t>(cost);
  s.entries_gauge.add(sign);
  s.bytes_gauge.add(bytes);
  entries_.add(sign);
  bytes_.add(bytes);
}

bool ResultCache::get_append(std::uint64_t key, std::string_view canonical,
                             std::string& out) {
  Shard& s = shard_of(key);
  MutexLock lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end() || it->second->canonical != canonical) {
    misses_.inc();  // absent, or a 64-bit hash collision: never serve it
    return false;
  }
  hits_.inc();
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  out += it->second->value;
  return true;
}

void ResultCache::put(std::uint64_t key, std::string_view canonical,
                      std::string value) {
  const std::size_t cost = entry_cost(canonical, value);
  Shard& s = shard_of(key);
  MutexLock lock(s.mu);
  if (cost > budget_per_shard_) return;  // would evict the whole shard
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    account(s, -1, entry_cost(it->second->canonical, it->second->value));
    it->second->canonical = std::string(canonical);
    it->second->value = std::move(value);
    account(s, +1, cost);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
  } else {
    s.lru.push_front(Entry{key, std::string(canonical), std::move(value)});
    s.index[key] = s.lru.begin();
    account(s, +1, cost);
    inserts_.inc();
  }
  while (s.bytes > budget_per_shard_) {
    const Entry& victim = s.lru.back();
    account(s, -1, entry_cost(victim.canonical, victim.value));
    s.index.erase(victim.key);
    s.lru.pop_back();
    evictions_.inc();
  }
}

CacheStats ResultCache::stats() const {
  auto size = [](const obs::Gauge& g) {
    return static_cast<std::size_t>(g.value());
  };
  CacheStats total;
  total.hits = hits_.value();
  total.misses = misses_.value();
  total.evictions = evictions_.value();
  total.inserts = inserts_.value();
  total.entries = size(entries_);
  total.bytes = size(bytes_);
  total.shard_entries.reserve(shards_.size());
  total.shard_bytes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    total.shard_entries.push_back(size(shard->entries_gauge));
    total.shard_bytes.push_back(size(shard->bytes_gauge));
  }
  return total;
}

// --- TraceStore -------------------------------------------------------------

TraceStore::Metrics TraceStore::bind_metrics(obs::MetricsRegistry& registry) {
  return Metrics{
      registry.counter("hpcarbon_trace_store_hits_total", "",
                       "TraceStore hits."),
      registry.counter("hpcarbon_trace_store_misses_total", "",
                       "TraceStore misses (a generate or parse)."),
      registry.gauge("hpcarbon_trace_store_entries", "", "Traces resident."),
  };
}

void TraceStore::register_metrics(obs::MetricsRegistry& registry) {
  bind_metrics(registry);
}

TraceStore::TraceStore(obs::MetricsRegistry& registry)
    : metrics_(bind_metrics(registry)) {}

TraceStore::~TraceStore() {
  MutexLock lock(mu_);
  metrics_.entries.sub(static_cast<std::int64_t>(entries_.size()));
}

TraceStore& TraceStore::global() {
  static TraceStore store;
  return store;
}

namespace {

grid::RegionSpec region_of(const std::string& code) {
  const auto spec = grid::find_region(code);
  if (!spec) throw Error("TraceStore: unknown region code '" + code + "'");
  return *spec;
}

}  // namespace

TraceStore::TracePtr TraceStore::use_locked(Entry& e, std::string* note) {
  e.last_use = ++use_clock_;
  if (note != nullptr) *note = e.note;
  return e.trace;
}

TraceStore::TracePtr TraceStore::lookup_or_build(
    const std::string& key, std::string* note,
    const std::function<Entry()>& build) {
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      metrics_.hits.inc();
      return use_locked(it->second, note);
    }
  }
  // Build outside the lock: a year-long synthetic trace or a CSV parse,
  // and its summary, are the expensive part, and concurrent first-touch
  // builds of *different* keys should overlap. Two racing builds of the
  // same key produce identical entries (generation, import and summary
  // are deterministic); the first insert wins.
  Entry built = build();
  MutexLock lock(mu_);
  const auto [it, inserted] = entries_.try_emplace(key, std::move(built));
  if (inserted) {
    metrics_.misses.inc();
    metrics_.entries.add(1);
  } else {
    metrics_.hits.inc();
  }
  TracePtr trace = use_locked(it->second, note);
  evict_imports_locked();  // may drop this very import; `trace` keeps it
  return trace;
}

TraceStore::TracePtr TraceStore::preset(const std::string& code) {
  return lookup_or_build("preset:" + code, nullptr, [&code] {
    return Entry{std::make_shared<const grid::SummarizedTrace>(
                     grid::GridSimulator(region_of(code)).run()),
                 {}, false, 0};
  });
}

TraceStore::TracePtr TraceStore::imported(const std::string& code,
                                          const std::string& path,
                                          std::string* note) {
  return lookup_or_build("import:" + code + "=" + path, note, [&] {
    grid::ImportOptions io;
    io.tz = region_of(code).tz;  // file rows are the region's local time
    grid::ImportReport report;
    auto trace = std::make_shared<const grid::SummarizedTrace>(
        grid::import_trace_file(path, code, io, &report));
    return Entry{std::move(trace),
                 code + " <- " + path + ": " + report.to_string(), true, 0};
  });
}

void TraceStore::evict_imports_locked() {
  // Presets never evict (seven at most, shared by every consumer); the
  // least-recently-used imports go first. Holders of an evicted trace's
  // shared_ptr keep a valid object.
  while (true) {
    std::size_t imports = 0;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.is_import) continue;
      ++imports;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (imports <= max_imports_ || victim == entries_.end()) return;
    entries_.erase(victim);
    metrics_.entries.sub(1);
  }
}

void TraceStore::set_max_imports(std::size_t n) {
  MutexLock lock(mu_);
  max_imports_ = n;
  evict_imports_locked();
}

std::size_t TraceStore::max_imports() const {
  MutexLock lock(mu_);
  return max_imports_;
}

std::size_t TraceStore::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace hpcarbon::serve
