// The fleet engine's completion queue: a radix heap on the tick clock.
//
// The engine's clock only moves forward and every completion it queues
// lies after the current clock, so the queue can be a monotone radix heap
// instead of a binary heap. Keys are filed into 65 buckets relative to a
// base tick: bucket 0 holds keys equal to the base, bucket b > 0 keys
// whose highest bit differing from the base is bit b-1. Buckets are
// ordered ranges (every key in bucket b is below every key in bucket
// b+1), so a push is one count-leading-zeros and an append, and each
// entry is re-filed at most 64 times over its life, each time into a
// strictly lower bucket.
//
// The base moves to the engine's clock `t` in pop_due, never further to
// the next completion's tick: an arrival at `t` may push a completion
// that finishes before every one already queued, and its key must not
// fall below the base.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/error.h"
#include "fleetsim/jobs.h"

namespace hpcarbon::fleetsim {

/// "No event": the wake time of an empty source.
inline constexpr Tick kNoEvent = std::numeric_limits<Tick>::max();

class CompletionQueue {
 public:
  CompletionQueue() { bucket_min_.fill(kNoEvent); }

  /// Queue a completion of one job on `site` at `tick`, which must not
  /// lie before the clock of the last pop_due (0 initially).
  void push(Tick tick, std::uint32_t site) {
    HPC_REQUIRE(tick >= base_ && tick != kNoEvent,
                "completion queued before the engine clock");
    file(Entry{tick, site});
    min_ = std::min(min_, tick);
  }

  /// Earliest queued completion tick, or kNoEvent when empty.
  Tick next() const { return min_; }
  bool empty() const { return min_ == kNoEvent; }

  /// Remove every completion due at or before `t` (t must not move
  /// backwards) and free its slot: ++free_slots[site] each. Due
  /// completions leave in no particular order; the engine frees them all
  /// before consulting any policy, so the order is unobservable.
  void pop_due(Tick t, std::vector<int>& free_slots) {
    if (t < min_) return;  // nothing due: the base may stay behind
    const int top = bucket_of(t);
    for (int b = 0; b < top; ++b) {  // wholly below t
      for (const Entry& e : buckets_[b]) ++free_slots[e.site];
      clear(b);
    }
    // t's own bucket straddles t: free its due entries and re-file the
    // rest against the new base, into buckets below `top`. Buckets above
    // `top` keep their keys' highest differing bit and stay put.
    spill_.swap(buckets_[top]);
    clear(top);
    base_ = t;
    for (const Entry& e : spill_) {
      if (e.tick <= t) {
        ++free_slots[e.site];
      } else {
        file(e);
      }
    }
    spill_.clear();
    min_ = kNoEvent;
    for (const Tick m : bucket_min_) {
      if (m != kNoEvent) {
        min_ = m;  // buckets are ordered: the first non-empty one has it
        break;
      }
    }
  }

 private:
  struct Entry {
    Tick tick;
    std::uint32_t site;
  };
  static constexpr int kBuckets = 65;

  int bucket_of(Tick tick) const {
    const auto diff =
        static_cast<std::uint64_t>(tick) ^ static_cast<std::uint64_t>(base_);
    return diff == 0 ? 0 : std::bit_width(diff);
  }

  void file(const Entry& e) {
    const int b = bucket_of(e.tick);
    buckets_[b].push_back(e);
    bucket_min_[b] = std::min(bucket_min_[b], e.tick);
  }

  void clear(int b) {
    buckets_[b].clear();
    bucket_min_[b] = kNoEvent;
  }

  Tick base_ = 0;
  Tick min_ = kNoEvent;
  std::array<std::vector<Entry>, kBuckets> buckets_;
  std::array<Tick, kBuckets> bucket_min_;  // kNoEvent when empty
  std::vector<Entry> spill_;                // reused by pop_due
};

}  // namespace hpcarbon::fleetsim
