// The receipt store's bounded ring (serve/ring.hpp): FIFO order, capacity
// backpressure at the rounded power-of-two bound and the refused capacity
// above the maximum, cell reuse over many laps of the sequence numbers,
// run handoff on both sides (a producer's claim goes in as one published
// prefix at the bound, a consumer's claim visits it whole and in order,
// FIFO within and across runs), and multi-producer/multi-consumer
// exactly-once delivery with per-producer order. Every consumer here
// claims runs: the ring has no single-value dequeue.
#include "serve/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/store.hpp"

namespace tlc::serve {

// The typed suite below reports under the type names it has always had
// (it once ran against an MS-queue and a flat-combining backend). Both
// names now front the one ring: MpmcQueue is the bare Ring<T>, FcQueue is
// the production ReceiptStore carrying each value in a record field, so
// the contract is checked on the generic ring and on the store the
// pipeline actually runs.
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity) : ring_(capacity) {}
  bool try_enqueue(const T& v) { return ring_.try_enqueue(v); }
  template <typename F>
  std::size_t try_dequeue_run(F&& visit) {
    return ring_.try_dequeue_run(visit);
  }
  [[nodiscard]] std::size_t approx_size() const { return ring_.approx_size(); }

 private:
  Ring<T> ring_;
};

template <typename T>
class FcQueue {
 public:
  explicit FcQueue(std::size_t capacity) : store_(capacity) {}
  bool try_enqueue(const T& v) {
    ExchangeRecord r;
    r.charged_dl = v;
    return store_.try_enqueue(r);
  }
  template <typename F>
  std::size_t try_dequeue_run(F&& visit) {
    return store_.try_dequeue_run(
        [&visit](const ExchangeRecord& r) { visit(T{r.charged_dl}); });
  }
  [[nodiscard]] std::size_t approx_size() const {
    return store_.approx_size();
  }

 private:
  ReceiptStore store_;
};

namespace {

/// Claims the oldest run into `*out`: true iff it held one value, as every
/// run try_enqueue makes does.
template <typename Q>
bool dequeue_one(Q& queue, std::uint64_t* out) {
  return queue.try_dequeue_run([out](std::uint64_t v) { *out = v; }) == 1;
}

/// Claims the oldest run and appends its values to `*got`; returns its
/// length, 0 when nothing is published at the head.
template <typename Q>
std::size_t take_run(Q& queue, std::vector<std::uint64_t>* got) {
  return queue.try_dequeue_run([got](std::uint64_t v) { got->push_back(v); });
}

template <typename Q>
class ReceiptStoreTest : public ::testing::Test {};

using Stores =
    ::testing::Types<MpmcQueue<std::uint64_t>, FcQueue<std::uint64_t>>;
TYPED_TEST_SUITE(ReceiptStoreTest, Stores);

TYPED_TEST(ReceiptStoreTest, FifoSingleThread) {
  TypeParam queue{16};
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(queue.try_enqueue(i));
  }
  EXPECT_EQ(queue.approx_size(), 10u);
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(dequeue_one(queue, &out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(dequeue_one(queue, &out));
  EXPECT_EQ(queue.approx_size(), 0u);
}

TYPED_TEST(ReceiptStoreTest, CapacityBackpressure) {
  TypeParam queue{4};
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.try_enqueue(i));
  }
  EXPECT_FALSE(queue.try_enqueue(99)) << "full store must refuse";
  std::uint64_t out = 0;
  ASSERT_TRUE(dequeue_one(queue, &out));
  EXPECT_EQ(out, 0u);
  EXPECT_TRUE(queue.try_enqueue(99)) << "slot freed by the dequeue";
}

TYPED_TEST(ReceiptStoreTest, NodesRecycleThroughFixedPool) {
  // Far more operations than cells: only reusing the fixed cell array
  // can satisfy this.
  TypeParam queue{8};
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(queue.try_enqueue(i));
    ASSERT_TRUE(dequeue_one(queue, &out));
    ASSERT_EQ(out, i);
  }
  EXPECT_EQ(queue.approx_size(), 0u);
}

TYPED_TEST(ReceiptStoreTest, MpmcExactlyOnce) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 20'000;
  TypeParam queue{256};

  std::atomic<std::uint64_t> producers_done{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, &producers_done, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t value = p * kPerProducer + i;
        while (!queue.try_enqueue(value)) {
          std::this_thread::yield();
        }
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&queue, &producers_done, &received, c] {
      for (;;) {
        if (take_run(queue, &received[c]) != 0) continue;
        if (producers_done.load(std::memory_order_acquire) == kProducers) {
          if (take_run(queue, &received[c]) == 0) break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Exactly once: every value delivered, no duplicates, no inventions.
  std::vector<std::uint64_t> all;
  for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
  ASSERT_EQ(all.size(), kProducers * kPerProducer);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i);
  }
  EXPECT_EQ(queue.approx_size(), 0u);
}

TYPED_TEST(ReceiptStoreTest, PerProducerOrderPreserved) {
  // FIFO per producer must survive a concurrent consumer (MPMC queues
  // guarantee per-source order, not global order).
  TypeParam queue{64};
  constexpr std::uint64_t kCount = 50'000;
  std::vector<std::uint64_t> got;
  got.reserve(kCount);
  std::thread producer{[&queue] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!queue.try_enqueue(i)) std::this_thread::yield();
    }
  }};
  while (got.size() < kCount) take_run(queue, &got);
  producer.join();
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[i], i);
  }
}

TEST(Ring, NonPowerOfTwoCapacityRoundsUpAndRefusesThere) {
  Ring<std::uint64_t> ring{5};
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_enqueue(i)) << "value " << i;
  }
  EXPECT_FALSE(ring.try_enqueue(8)) << "the rounded capacity is the bound";
  EXPECT_EQ(ring.approx_size(), 8u);

  EXPECT_EQ(Ring<std::uint64_t>{0}.capacity(), 2u);
  EXPECT_EQ(Ring<std::uint64_t>{64}.capacity(), 64u);
}

TEST(Ring, CapacityOneGetsTwoCellsAndKeepsBothValues) {
  // One cell could not tell "published at pos" from "free at pos + 1": a
  // second enqueue would overwrite the first value, and the next dequeue
  // would wait forever for its sequence.
  Ring<std::uint64_t> ring{1};
  ASSERT_EQ(ring.capacity(), 2u);
  EXPECT_TRUE(ring.try_enqueue(1));
  EXPECT_TRUE(ring.try_enqueue(2));
  EXPECT_FALSE(ring.try_enqueue(3)) << "two values fill two cells";
  EXPECT_EQ(ring.approx_size(), 2u);
  std::uint64_t out = 0;
  ASSERT_TRUE(dequeue_one(ring, &out));
  EXPECT_EQ(out, 1u);
  ASSERT_TRUE(dequeue_one(ring, &out));
  EXPECT_EQ(out, 2u);
  EXPECT_FALSE(dequeue_one(ring, &out));
  EXPECT_EQ(ring.approx_size(), 0u);
}

TEST(Ring, CellsReusedOverManyLaps) {
  // Capacity 4: every cell's sequence number laps thousands of times,
  // first single-threaded, then with producers and consumers racing.
  Ring<std::uint64_t> ring{4};
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(ring.try_enqueue(i));
    ASSERT_TRUE(dequeue_one(ring, &out));
    ASSERT_EQ(out, i);
  }

  constexpr std::uint64_t kProducers = 2;
  constexpr std::uint64_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 50'000;
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        while (!ring.try_enqueue(p * kPerProducer + i)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&ring, &consumed, &received, c] {
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        const std::size_t n = take_run(ring, &received[c]);
        if (n != 0) {
          consumed.fetch_add(n, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Each consumer sees every producer's values in that producer's order.
  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& r : received) {
    std::vector<std::uint64_t> last(kProducers, 0);
    std::vector<bool> seen(kProducers, false);
    for (const std::uint64_t v : r) {
      const std::uint64_t p = v / kPerProducer;
      ASSERT_TRUE(!seen[p] || v > last[p]) << "producer order broken";
      seen[p] = true;
      last[p] = v;
    }
    all.insert(all.end(), r.begin(), r.end());
  }
  ASSERT_EQ(all.size(), kProducers * kPerProducer);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i], i);
  }
  EXPECT_EQ(ring.approx_size(), 0u);
}

TEST(Ring, RunClaimTakesTheFreePrefixAtTheBound) {
  Ring<std::uint64_t> ring{8};
  for (std::uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_enqueue(i));
  const std::vector<std::uint64_t> run{5, 6, 7, 8, 9, 10};
  EXPECT_EQ(ring.try_enqueue_bulk(run), 3u) << "only 3 of 8 cells are free";
  EXPECT_EQ(ring.approx_size(), 8u);
  EXPECT_EQ(ring.try_enqueue_bulk(std::span(run).subspan(3)), 0u)
      << "a full ring takes nothing";
  EXPECT_EQ(ring.try_enqueue_bulk({}), 0u);
  std::vector<std::uint64_t> got;
  while (got.size() < 8) ASSERT_NE(take_run(ring, &got), 0u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got[i], i);
  }
  EXPECT_EQ(take_run(ring, &got), 0u);
  EXPECT_EQ(ring.claimed(), 8u);
}

TEST(Ring, RunsKeepFifoOrderWithinAndAcrossRuns) {
  // Capacity 16, runs of 1..11 interleaved with single enqueues and
  // partial drains, over many laps of the cells.
  Ring<std::uint64_t> ring{16};
  std::vector<std::uint64_t> got;
  std::uint64_t next = 0;
  for (std::uint64_t k = 0; k < 2'000; ++k) {
    std::vector<std::uint64_t> run(1 + k % 11);
    std::iota(run.begin(), run.end(), next);
    std::span<const std::uint64_t> rest(run);
    while (!rest.empty()) {
      rest = rest.subspan(ring.try_enqueue_bulk(rest));
      if (!rest.empty()) take_run(ring, &got);
    }
    next += run.size();
    if (k % 3 == 0 && ring.try_enqueue(next)) ++next;
    for (std::uint64_t i = 0; i < k % 7 && take_run(ring, &got) != 0; ++i) {
    }
  }
  while (take_run(ring, &got) != 0) {
  }
  ASSERT_EQ(got.size(), next);
  for (std::uint64_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], i);
  EXPECT_EQ(ring.claimed(), next);
}

TEST(Ring, RunLongerThanCapacityGoesInCapacitySizedClaims) {
  Ring<std::uint64_t> ring{8};
  std::vector<std::uint64_t> run(20);
  std::iota(run.begin(), run.end(), 0);
  std::span<const std::uint64_t> rest(run);
  std::vector<std::size_t> claims;
  std::vector<std::uint64_t> got;
  while (!rest.empty()) {
    const std::size_t n = ring.try_enqueue_bulk(rest);
    claims.push_back(n);
    rest = rest.subspan(n);
    while (take_run(ring, &got) != 0) {
    }
  }
  EXPECT_EQ(claims, (std::vector<std::size_t>{8, 8, 4}));
  EXPECT_EQ(got, run);
}

TEST(Ring, RunsFromManyProducersDeliverExactlyOnce) {
  // 4 producers submit runs of 1..300 values (longer than the 256-cell
  // ring, so partial claims happen) against 2 consumers.
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 40'000;
  Ring<std::uint64_t> ring{256};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      std::vector<std::uint64_t> run;
      std::uint64_t i = 0;
      for (std::uint64_t k = 0; i < kPerProducer; ++k) {
        const std::uint64_t len =
            std::min(1 + (k * 37 + p * 11) % 300, kPerProducer - i);
        run.resize(len);
        std::iota(run.begin(), run.end(), p * kPerProducer + i);
        std::span<const std::uint64_t> rest(run);
        while (!rest.empty()) {
          const std::size_t n = ring.try_enqueue_bulk(rest);
          if (n == 0) std::this_thread::yield();
          rest = rest.subspan(n);
        }
        i += len;
      }
    });
  }
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&ring, &consumed, &received, c] {
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        const std::size_t n = take_run(ring, &received[c]);
        if (n != 0) {
          consumed.fetch_add(n, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& r : received) {
    std::vector<std::uint64_t> last(kProducers, 0);
    std::vector<bool> seen(kProducers, false);
    for (const std::uint64_t v : r) {
      const std::uint64_t p = v / kPerProducer;
      ASSERT_TRUE(!seen[p] || v > last[p]) << "producer order broken";
      seen[p] = true;
      last[p] = v;
    }
    all.insert(all.end(), r.begin(), r.end());
  }
  ASSERT_EQ(all.size(), kProducers * kPerProducer);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
  EXPECT_EQ(ring.approx_size(), 0u);
  EXPECT_EQ(ring.claimed(), kProducers * kPerProducer);
}

TEST(Ring, OneClaimVisitsAWholeRunInOrder) {
  Ring<std::uint64_t> ring{16};
  const std::vector<std::uint64_t> first{10, 11, 12, 13, 14};
  const std::vector<std::uint64_t> second{20, 21, 22};
  ASSERT_EQ(ring.try_enqueue_bulk(first), 5u);
  ASSERT_EQ(ring.try_enqueue_bulk(second), 3u);
  ASSERT_TRUE(ring.try_enqueue(30));

  std::vector<std::uint64_t> got;
  EXPECT_EQ(take_run(ring, &got), 5u) << "one claim takes the whole run";
  EXPECT_EQ(got, first);
  EXPECT_EQ(ring.approx_size(), 4u);
  got.clear();
  EXPECT_EQ(take_run(ring, &got), 3u);
  EXPECT_EQ(got, second);
  got.clear();
  EXPECT_EQ(take_run(ring, &got), 1u);
  EXPECT_EQ(got, std::vector<std::uint64_t>{30});
  EXPECT_EQ(take_run(ring, &got), 0u);
  EXPECT_EQ(ring.approx_size(), 0u);

  // Every visited cell went back to the producers: a whole lap, wrapping
  // past the end of the cell array, goes in and comes out as one run.
  std::vector<std::uint64_t> lap(16);
  std::iota(lap.begin(), lap.end(), 100);
  EXPECT_EQ(ring.try_enqueue_bulk(lap), 16u);
  got.clear();
  EXPECT_EQ(take_run(ring, &got), 16u);
  EXPECT_EQ(got, lap);
}

TEST(Ring, RunLongerThanTheFreeCellsGoesInAsPublishedPrefixes) {
  // 3 of 8 cells hold one-value runs, so a 10-value run goes in as a
  // 5-value prefix, published whole: one claim takes all 5. The other 5 go
  // in as the next prefix once the cells are free.
  Ring<std::uint64_t> ring{8};
  for (std::uint64_t i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_enqueue(i));
  std::vector<std::uint64_t> run(10);
  std::iota(run.begin(), run.end(), 3);
  std::span<const std::uint64_t> rest(run);
  EXPECT_EQ(ring.try_enqueue_bulk(rest), 5u);
  rest = rest.subspan(5);
  EXPECT_EQ(ring.try_enqueue_bulk(rest), 0u) << "a full ring takes nothing";

  std::vector<std::uint64_t> got;
  std::vector<std::size_t> claims;
  for (std::size_t n = 0; (n = take_run(ring, &got)) != 0;) {
    claims.push_back(n);
  }
  EXPECT_EQ(claims, (std::vector<std::size_t>{1, 1, 1, 5}));
  EXPECT_EQ(ring.try_enqueue_bulk(rest), 5u);
  claims.clear();
  for (std::size_t n = 0; (n = take_run(ring, &got)) != 0;) {
    claims.push_back(n);
  }
  EXPECT_EQ(claims, std::vector<std::size_t>{5});
  std::vector<std::uint64_t> want(13);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(got, want);
  EXPECT_EQ(ring.claimed(), 13u);
}

TEST(Ring, MixedRunsFromFourProducersReachThreeConsumersWhole) {
  // 4 producers submit runs of 1..300 values into a 64-cell ring, so most
  // runs go in as several published prefixes, while 3 consumers compete
  // for them. Every value arrives exactly once, each claim holds
  // consecutive values of one producer, and each consumer sees every
  // producer's values in that producer's order.
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 30'000;
  Ring<std::uint64_t> ring{64};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::vector<std::uint64_t>> received(kConsumers);
  std::vector<std::uint64_t> split_claims(kConsumers, 0);
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      std::vector<std::uint64_t> run;
      std::uint64_t i = 0;
      for (std::uint64_t k = 0; i < kPerProducer; ++k) {
        const std::uint64_t len =
            std::min(1 + (k * 53 + p * 29) % 300, kPerProducer - i);
        run.resize(len);
        std::iota(run.begin(), run.end(), p * kPerProducer + i);
        std::span<const std::uint64_t> rest(run);
        while (!rest.empty()) {
          const std::size_t n = ring.try_enqueue_bulk(rest);
          if (n == 0) std::this_thread::yield();
          rest = rest.subspan(n);
        }
        i += len;
      }
    });
  }
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&ring, &consumed, &received, &split_claims, c] {
      std::vector<std::uint64_t> claim;
      while (consumed.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        claim.clear();
        const std::size_t n = take_run(ring, &claim);
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 1; i < n; ++i) {
          if (claim[i] != claim[0] + i ||
              claim[i] / kPerProducer != claim[0] / kPerProducer) {
            ++split_claims[c];
          }
        }
        received[c].insert(received[c].end(), claim.begin(), claim.end());
        consumed.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<std::uint64_t> all;
  for (std::uint64_t c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(split_claims[c], 0u) << "consumer " << c;
    std::vector<std::uint64_t> last(kProducers, 0);
    std::vector<bool> seen(kProducers, false);
    for (const std::uint64_t v : received[c]) {
      const std::uint64_t p = v / kPerProducer;
      ASSERT_TRUE(!seen[p] || v > last[p]) << "producer order broken";
      seen[p] = true;
      last[p] = v;
    }
    all.insert(all.end(), received[c].begin(), received[c].end());
  }
  ASSERT_EQ(all.size(), kProducers * kPerProducer);
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
  EXPECT_EQ(ring.approx_size(), 0u);
  EXPECT_EQ(ring.claimed(), kProducers * kPerProducer);
}

TEST(Ring, CapacityAboveTheMaximumIsRefusedBeforeAllocating) {
  // Above 2^63 the power of two a capacity rounds up to does not exist,
  // and 2^40 cells would not fit in memory; every capacity above the
  // maximum is refused before the cells are allocated.
  using U64Ring = Ring<std::uint64_t>;
  EXPECT_THROW(U64Ring{U64Ring::kMaxCapacity + 1}, std::invalid_argument);
  EXPECT_THROW(U64Ring{(std::size_t{1} << 63) + 1}, std::invalid_argument);
  EXPECT_THROW(U64Ring{std::numeric_limits<std::size_t>::max()},
               std::invalid_argument);
  EXPECT_THROW(ReceiptStore{std::size_t{1} << 40}, std::invalid_argument);
}

}  // namespace
}  // namespace tlc::serve
