#include "fleetsim/completion_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "core/error.h"

namespace hpcarbon::fleetsim {
namespace {

constexpr std::uint32_t kSites = 5;

/// The queue beside a std::multiset of (tick, site): every push goes to
/// both, and every pop_due must free exactly the reference's due entries.
class Differential {
 public:
  void push(Tick tick, std::uint32_t site) {
    queue_.push(tick, site);
    ref_.emplace(tick, site);
    check_next();
  }

  void pop_due(Tick t) {
    ASSERT_GE(t, clock_);
    clock_ = t;
    std::vector<int> got(kSites, 0);
    std::vector<int> want(kSites, 0);
    queue_.pop_due(t, got);
    while (!ref_.empty() && ref_.begin()->first <= t) {
      ++want[ref_.begin()->second];
      ref_.erase(ref_.begin());
    }
    EXPECT_EQ(got, want) << "pop_due(" << t << ")";
    check_next();
  }

  Tick clock() const { return clock_; }
  Tick next() const { return queue_.next(); }
  std::size_t size() const { return ref_.size(); }

 private:
  void check_next() {
    const Tick want = ref_.empty() ? kNoEvent : ref_.begin()->first;
    EXPECT_EQ(queue_.next(), want);
    EXPECT_EQ(queue_.empty(), ref_.empty());
  }

  CompletionQueue queue_;
  std::multiset<std::pair<Tick, std::uint32_t>> ref_;
  Tick clock_ = 0;
};

TEST(CompletionQueue, EmptyQueueHasNoEvent) {
  CompletionQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next(), kNoEvent);
  std::vector<int> free_slots(1, 0);
  q.pop_due(1'000'000, free_slots);
  EXPECT_EQ(free_slots[0], 0);
}

TEST(CompletionQueue, KeysBelowTheClockAreRefused) {
  CompletionQueue q;
  EXPECT_THROW(q.push(-1, 0), Error);
  q.push(100, 0);
  std::vector<int> free_slots(1, 0);
  q.pop_due(100, free_slots);
  EXPECT_EQ(free_slots[0], 1);
  EXPECT_THROW(q.push(99, 0), Error);
  q.push(100, 0);  // at the clock is allowed
  EXPECT_EQ(q.next(), 100);
}

// The engine's pitfall: after pop_due(t) an arrival at t queues a
// completion before every one already queued. The base must have moved to
// t, not to the old next completion, or this key would fall below it.
TEST(CompletionQueue, PushBelowNextAfterAdvancingTheClock) {
  Differential d;
  d.push(10, 0);
  d.push(5000, 1);
  d.pop_due(10);   // frees site 0; next is 5000
  d.push(11, 2);   // below next()
  d.push(4095, 3);
  d.push(4096, 4);
  d.pop_due(11);
  d.pop_due(4096);  // t equal to a key, across a power-of-two boundary
  d.pop_due(6000);
  EXPECT_EQ(d.size(), 0u);
}

TEST(CompletionQueue, SameTickBurstsLeaveTogether) {
  Differential d;
  for (std::uint32_t i = 0; i < 200; ++i) d.push(1024, i % kSites);
  for (std::uint32_t i = 0; i < 50; ++i) d.push(1025, i % kSites);
  d.pop_due(1023);
  d.pop_due(1024);
  d.pop_due(1025);
  EXPECT_EQ(d.size(), 0u);
}

// Randomized differential run against std::multiset: same-tick bursts,
// pushes below the current next(), keys on both sides of power-of-two
// boundaries, and clocks that land exactly on a key, just before it, or
// far past several.
TEST(CompletionQueue, MatchesMultisetReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 gen(seed);
    auto pick = [&](std::uint64_t n) {
      return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(gen);
    };
    Differential d;
    for (int step = 0; step < 20000 && !testing::Test::HasFailure(); ++step) {
      const Tick t = d.clock();
      const auto site = static_cast<std::uint32_t>(pick(kSites));
      switch (pick(8)) {
        case 0: {  // a same-tick burst
          const Tick at = t + static_cast<Tick>(pick(64));
          for (std::uint64_t k = 0, n = 1 + pick(20); k < n; ++k) {
            d.push(at, static_cast<std::uint32_t>(pick(kSites)));
          }
          break;
        }
        case 1: {  // around the next power of two above the clock
          Tick pow2 = 1;
          while (pow2 <= t) pow2 <<= 1;  // so pow2 - 1 >= t
          d.push(pow2 - 1 + static_cast<Tick>(pick(3)), site);
          break;
        }
        case 2:  // far ahead
          d.push(t + 1 + static_cast<Tick>(pick(Tick{1} << 40)), site);
          break;
        case 3:
        case 4:  // a job-length completion, often below next()
          d.push(t + 1 + static_cast<Tick>(pick(50 * 1024)), site);
          break;
        case 5:  // the clock lands exactly on the next completion
          if (d.next() != kNoEvent) d.pop_due(d.next());
          break;
        case 6:  // just before it, or at the current clock again
          if (d.next() != kNoEvent) d.pop_due(std::max(t, d.next() - 1));
          break;
        case 7:  // somewhere ahead, possibly past many completions
          d.pop_due(t + static_cast<Tick>(pick(8 * 1024)));
          break;
      }
    }
    d.pop_due(kNoEvent - 1);  // drain
    EXPECT_EQ(d.size(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace hpcarbon::fleetsim
