#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/rng.h"
#include "grid/analysis.h"
#include "grid/presets.h"
#include "grid/simulator.h"
#include "obs/metrics.h"
#include "serve/cache.h"

namespace hpcarbon::serve {
namespace {

std::string fixture_path() {
  return std::string(HPCARBON_TEST_DATA_DIR) + "/sample_5min.csv";
}

/// ResultCache::get_append as an optional: the cached value on a hit,
/// nullopt on a miss — and a miss must leave the buffer untouched.
std::optional<std::string> lookup(ResultCache& cache, std::uint64_t key,
                                  std::string_view canonical) {
  const std::string prefix = "prefix:";
  std::string out = prefix;
  if (!cache.get_append(key, canonical, out)) {
    EXPECT_EQ(out, prefix);
    return std::nullopt;
  }
  EXPECT_EQ(out.compare(0, prefix.size(), prefix), 0);
  return out.substr(prefix.size());
}

TEST(ResultCache, HitMissAndCounters) {
  obs::MetricsRegistry reg;
  ResultCache cache(/*shards=*/2, /*byte_budget=*/1 << 16, reg);
  EXPECT_EQ(cache.shard_count(), 2u);
  EXPECT_FALSE(lookup(cache, 1, "k1").has_value());
  cache.put(1, "k1", "one");
  cache.put(2, "k2", "two");
  EXPECT_EQ(lookup(cache, 1, "k1").value(), "one");
  EXPECT_EQ(lookup(cache, 2, "k2").value(), "two");
  EXPECT_FALSE(lookup(cache, 3, "k3").has_value());

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, ResultCache::entry_cost("k1", "one") +
                         ResultCache::entry_cost("k2", "two"));
}

TEST(ResultCache, HashCollisionReadsAsMissNeverAsWrongAnswer) {
  // Two distinct canonical strings forced onto one 64-bit key: the
  // resident entry must not be served for the other question.
  obs::MetricsRegistry reg;
  ResultCache cache(1, 1 << 16, reg);
  cache.put(42, "canonical-A", "answer-A");
  EXPECT_FALSE(lookup(cache, 42, "canonical-B").has_value());
  EXPECT_EQ(lookup(cache, 42, "canonical-A").value(), "answer-A");
  // A colliding put replaces the resident (latest canonical wins).
  cache.put(42, "canonical-B", "answer-B");
  EXPECT_EQ(lookup(cache, 42, "canonical-B").value(), "answer-B");
  EXPECT_FALSE(lookup(cache, 42, "canonical-A").has_value());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCache, LruEvictionOrderUnderByteBudget) {
  // One shard, room for exactly three identical-cost entries.
  const std::string payload(100, 'x');
  const std::size_t budget = 3 * ResultCache::entry_cost("k1", payload);
  obs::MetricsRegistry reg;
  ResultCache cache(1, budget, reg);
  cache.put(1, "k1", payload);
  cache.put(2, "k2", payload);
  cache.put(3, "k3", payload);
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch 1 so 2 becomes least-recently-used, then overflow with 4.
  EXPECT_TRUE(lookup(cache, 1, "k1").has_value());
  cache.put(4, "k4", payload);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(lookup(cache, 2, "k2").has_value());  // the LRU victim
  EXPECT_TRUE(lookup(cache, 1, "k1").has_value());
  EXPECT_TRUE(lookup(cache, 3, "k3").has_value());
  EXPECT_TRUE(lookup(cache, 4, "k4").has_value());
  EXPECT_LE(cache.stats().bytes, budget);
}

TEST(ResultCache, UpdateAdjustsBytesAndRefreshesRecency) {
  const std::string small(10, 's');
  const std::string big(200, 'b');
  obs::MetricsRegistry reg;
  ResultCache cache(1, 1 << 16, reg);
  cache.put(7, "k7", small);
  const std::size_t before = cache.stats().bytes;
  cache.put(7, "k7", big);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);  // replace, not insert
  EXPECT_EQ(cache.stats().bytes,
            before - ResultCache::entry_cost("k7", small) +
                ResultCache::entry_cost("k7", big));
  EXPECT_EQ(lookup(cache, 7, "k7").value(), big);
}

TEST(ResultCache, OversizeValueIsNotCached) {
  obs::MetricsRegistry reg;
  ResultCache cache(1, 1 << 10, reg);  // 1 KiB shard budget
  cache.put(1, "k1", "keep-me");
  cache.put(2, "k2", std::string(4096, 'z'));  // larger than the shard
  EXPECT_FALSE(lookup(cache, 2, "k2").has_value());
  EXPECT_TRUE(lookup(cache, 1, "k1").has_value());  // nothing evicted for it
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ResultCache, RejectsDegenerateGeometry) {
  EXPECT_THROW(ResultCache(0, 1 << 20), Error);
  EXPECT_THROW(ResultCache(1024, 1024), Error);  // budget < overhead/shard
}

// The acceptance hammer: 8 threads against 8 shards, mixed get/put on a
// shared key space, under ASan/UBSan in CI. Counters must reconcile.
TEST(ResultCache, ShardIndependenceUnderThreadHammer) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  obs::MetricsRegistry reg;
  ResultCache cache(8, 64 << 10, reg);
  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 255));
        const std::string canonical = "canon-" + std::to_string(key);
        if (rng.bernoulli(0.5)) {
          cache.put(key, canonical, "value-" + std::to_string(key));
        } else {
          const auto v = lookup(cache, key, canonical);
          if (v.has_value()) {
            // Values are immutable per key: no torn reads under races.
            EXPECT_EQ(*v, "value-" + std::to_string(key));
          }
          gets.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, gets.load());
  EXPECT_LE(s.bytes, cache.byte_budget());
  EXPECT_LE(s.entries, 256u);
  EXPECT_GT(s.hits, 0u);

  // Exact ledger coherence, not just sanitizer silence: entries enter
  // only via insert and leave only via eviction, and the byte counter
  // must equal the summed cost of exactly the resident entries (probed
  // single-threaded after the hammer; probing moves hit/miss counters
  // but never bytes or entries).
  EXPECT_EQ(s.entries, s.inserts - s.evictions);
  std::size_t resident = 0;
  std::size_t resident_bytes = 0;
  for (std::uint64_t key = 0; key < 256; ++key) {
    const std::string canonical = "canon-" + std::to_string(key);
    if (lookup(cache, key, canonical).has_value()) {
      ++resident;
      resident_bytes +=
          ResultCache::entry_cost(canonical, "value-" + std::to_string(key));
    }
  }
  EXPECT_EQ(resident, s.entries);
  EXPECT_EQ(resident_bytes, s.bytes);

  // Shard-balance coherence: the per-shard occupancy arrays (the
  // hpcarbon_cache_shard_* gauges) must partition the totals exactly —
  // every entry lives in exactly one shard ledger.
  ASSERT_EQ(s.shard_entries.size(), 8u);
  ASSERT_EQ(s.shard_bytes.size(), 8u);
  std::size_t shard_entry_sum = 0;
  std::size_t shard_byte_sum = 0;
  for (std::size_t i = 0; i < s.shard_entries.size(); ++i) {
    shard_entry_sum += s.shard_entries[i];
    shard_byte_sum += s.shard_bytes[i];
    EXPECT_LE(s.shard_bytes[i], cache.byte_budget()) << "shard " << i;
  }
  EXPECT_EQ(shard_entry_sum, s.entries);
  EXPECT_EQ(shard_byte_sum, s.bytes);
}

TEST(TraceStore, PresetMatchesBatchGeneratorBitForBit) {
  obs::MetricsRegistry reg;
  TraceStore store(reg);
  const auto eso = store.preset("ESO");
  const auto batch = grid::generate_traces({grid::eso()});
  ASSERT_EQ(eso->size(), batch[0].size());
  EXPECT_EQ(eso->values(), batch[0].values());
  EXPECT_EQ(eso->time_zone().utc_offset_hours(),
            batch[0].time_zone().utc_offset_hours());

  // Second lookup: same immutable object, counted as a hit.
  const auto again = store.preset("ESO");
  EXPECT_EQ(again.get(), eso.get());
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

/// Every field of `got` equals the same field of `want`.
void expect_same_summary(const grid::RegionSummary& got,
                         const grid::RegionSummary& want) {
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(got.box.whisker_low, want.box.whisker_low) << want.code;
  EXPECT_EQ(got.box.min, want.box.min) << want.code;
  EXPECT_EQ(got.box.q1, want.box.q1) << want.code;
  EXPECT_EQ(got.box.median, want.box.median) << want.code;
  EXPECT_EQ(got.box.mean, want.box.mean) << want.code;
  EXPECT_EQ(got.box.q3, want.box.q3) << want.code;
  EXPECT_EQ(got.box.max, want.box.max) << want.code;
  EXPECT_EQ(got.box.whisker_high, want.box.whisker_high) << want.code;
  EXPECT_EQ(got.cov_percent, want.cov_percent) << want.code;
}

TEST(TraceStore, EntriesCarryTheSummaryOfTheirTrace) {
  obs::MetricsRegistry reg;
  TraceStore store(reg);
  const obs::Counter& misses =
      reg.counter("hpcarbon_trace_store_misses_total", "", "");
  std::vector<TraceStore::TracePtr> entries;
  for (const std::string& code : grid::codes_of(grid::all_regions())) {
    entries.push_back(store.preset(code));
  }
  entries.push_back(store.imported("CISO", fixture_path()));
  ASSERT_EQ(entries.size(), 8u);
  EXPECT_EQ(misses.value(), 8u);
  for (const auto& e : entries) {
    expect_same_summary(e->summary, grid::summarize(*e));
  }

  // A second lookup hands out the stored entry without a rebuild.
  for (std::size_t i = 0; i + 1 < entries.size(); ++i) {
    EXPECT_EQ(store.preset(entries[i]->region_code()).get(), entries[i].get());
  }
  EXPECT_EQ(store.imported("CISO", fixture_path()).get(),
            entries.back().get());
  EXPECT_EQ(misses.value(), 8u);
}

TEST(TraceStore, ImportedParsesOnceAndCachesTheNote) {
  obs::MetricsRegistry reg;
  TraceStore store(reg);
  std::string note1, note2;
  const auto a = store.imported("ESO", fixture_path(), &note1);
  const auto b = store.imported("ESO", fixture_path(), &note2);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(note1, note2);
  EXPECT_NE(note1.find("ESO <- "), std::string::npos);
  EXPECT_NE(note1.find("105120 samples"), std::string::npos) << note1;
  EXPECT_EQ(a->step_seconds(), 300.0);

  // Same path under a different region code is a distinct trace (zone
  // tagging differs).
  const auto c = store.imported("CISO", fixture_path());
  EXPECT_NE(c.get(), a.get());
  EXPECT_EQ(store.size(), 2u);
}

TEST(TraceStore, ImportCapEvictsLeastRecentlyUsedImportOnly) {
  obs::MetricsRegistry reg;
  TraceStore store(reg);
  store.set_max_imports(2);
  EXPECT_EQ(store.max_imports(), 2u);
  const auto preset = store.preset("ESO");  // never evicted
  const auto a = store.imported("ESO", fixture_path());
  const auto b = store.imported("CISO", fixture_path());
  EXPECT_EQ(store.size(), 3u);

  // Touch `a` so the CISO import is the LRU victim when KN arrives.
  store.imported("ESO", fixture_path());
  store.imported("KN", fixture_path());
  EXPECT_EQ(store.size(), 3u);  // preset + 2 imports, CISO dropped

  // The evicted trace's holders are unaffected; re-requesting re-parses.
  EXPECT_EQ(b->region_code(), "CISO");
  const std::uint64_t misses_before = store.misses();
  const auto b2 = store.imported("CISO", fixture_path());
  EXPECT_EQ(store.misses(), misses_before + 1);
  EXPECT_EQ(b2->values(), b->values());
  // Presets survive any import churn.
  EXPECT_EQ(store.preset("ESO").get(), preset.get());
}

TEST(TraceStore, UnknownCodeAndMissingFileThrow) {
  TraceStore store;
  EXPECT_THROW(store.preset("ATLANTIS"), Error);
  EXPECT_THROW(store.imported("ATLANTIS", fixture_path()), Error);
  EXPECT_THROW(store.imported("ESO", "/no/such/file.csv"), Error);
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace hpcarbon::serve
