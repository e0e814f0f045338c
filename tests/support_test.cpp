//===- tests/support_test.cpp - Queue, histogram, Rng, interner tests --------===//
//
// Part of the ipse project: a reproduction of Cooper & Kennedy,
// "Interprocedural Side-Effect Analysis in Linear Time", PLDI 1988.
//
//===----------------------------------------------------------------------===//

#include "support/LatencyHistogram.h"
#include "support/MpmcQueue.h"
#include "support/Rng.h"
#include "support/StringInterner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>
#include <vector>

using namespace ipse;

namespace {

TEST(MpmcQueue, FifoAndTryPushBackpressure) {
  MpmcQueue<int> Q(3);
  EXPECT_EQ(Q.capacity(), 3u);
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  EXPECT_TRUE(Q.tryPush(3));
  EXPECT_FALSE(Q.tryPush(4)); // Full: the backpressure signal.
  EXPECT_EQ(Q.size(), 3u);
  EXPECT_EQ(Q.tryPop(), 1);
  EXPECT_EQ(Q.tryPop(), 2);
  EXPECT_TRUE(Q.tryPush(4));
  EXPECT_EQ(Q.tryPop(), 3);
  EXPECT_EQ(Q.tryPop(), 4);
  EXPECT_EQ(Q.tryPop(), std::nullopt);
}

TEST(MpmcQueue, TryPopBatchDrainsUpToMax) {
  MpmcQueue<int> Q(8);
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(Q.tryPush(I));
  std::vector<int> Out;
  EXPECT_EQ(Q.tryPopBatch(Out, 3), 3u);
  EXPECT_EQ(Out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(Q.tryPopBatch(Out, 10), 2u); // Appends the remainder.
  EXPECT_EQ(Out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(Q.tryPopBatch(Out, 10), 0u);
}

TEST(MpmcQueue, CloseDrainsThenStops) {
  MpmcQueue<int> Q(4);
  ASSERT_TRUE(Q.tryPush(7));
  ASSERT_TRUE(Q.tryPush(8));
  Q.close();
  EXPECT_FALSE(Q.tryPush(9)); // Producers fail fast after close.
  EXPECT_FALSE(Q.push(9));
  EXPECT_EQ(Q.pop(), 7); // Consumers drain what was queued...
  EXPECT_EQ(Q.pop(), 8);
  EXPECT_EQ(Q.pop(), std::nullopt); // ...then see end-of-stream.
}

TEST(MpmcQueue, CloseWakesBlockedConsumers) {
  MpmcQueue<int> Q(2);
  std::atomic<bool> GotEos{false};
  std::thread Consumer([&] {
    GotEos = Q.pop() == std::nullopt; // Blocks until close().
  });
  Q.close();
  Consumer.join();
  EXPECT_TRUE(GotEos);
}

TEST(MpmcQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr unsigned Producers = 3, Consumers = 3, PerProducer = 500;
  MpmcQueue<unsigned> Q(16);
  std::atomic<std::uint64_t> Sum{0};
  std::atomic<unsigned> Popped{0};
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      for (unsigned I = 0; I != PerProducer; ++I)
        ASSERT_TRUE(Q.push(P * PerProducer + I));
    });
  for (unsigned C = 0; C != Consumers; ++C)
    Threads.emplace_back([&] {
      while (std::optional<unsigned> V = Q.pop()) {
        Sum.fetch_add(*V);
        Popped.fetch_add(1);
      }
    });
  for (unsigned P = 0; P != Producers; ++P)
    Threads[P].join();
  Q.close();
  for (unsigned C = 0; C != Consumers; ++C)
    Threads[Producers + C].join();
  constexpr std::uint64_t N = Producers * PerProducer;
  EXPECT_EQ(Popped.load(), N);
  EXPECT_EQ(Sum.load(), N * (N - 1) / 2); // 0..N-1 each seen exactly once.
}

TEST(LatencyHistogram, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucketOf(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucketOf(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucketOf(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucketOf(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucketOf(1024), 11u);
  EXPECT_EQ(LatencyHistogram::bucketOf(~std::uint64_t(0)),
            LatencyHistogram::NumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucketBoundMicros(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucketBoundMicros(3), 8u);
}

TEST(LatencyHistogram, CountsMeanMaxPercentiles) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentileMicros(50), 0u);
  for (int I = 0; I != 90; ++I)
    H.record(1); // Bucket 1, bound 2us.
  for (int I = 0; I != 10; ++I)
    H.record(1000); // Bucket 10, bound 1024us.
  EXPECT_EQ(H.count(), 100u);
  EXPECT_EQ(H.meanMicros(), (90 * 1 + 10 * 1000) / 100u);
  EXPECT_EQ(H.maxMicros(), 1000u);
  EXPECT_EQ(H.percentileMicros(50), 2u);
  EXPECT_EQ(H.percentileMicros(99), 1024u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.maxMicros(), 0u);
}

TEST(LatencyHistogram, ConcurrentRecordingLosesNoSamples) {
  LatencyHistogram H;
  constexpr unsigned Threads = 4, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I)
        H.record(T * 100 + (I % 7));
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(H.count(), std::uint64_t(Threads) * PerThread);
}

TEST(Rng, Deterministic) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I != 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(Rng, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.nextBelow(17), 17u);
    std::uint64_t X = R.nextInRange(5, 9);
    EXPECT_GE(X, 5u);
    EXPECT_LE(X, 9u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng R(9);
  for (int I = 0; I != 100; ++I) {
    EXPECT_FALSE(R.nextChance(0, 100));
    EXPECT_TRUE(R.nextChance(100, 100));
  }
}

TEST(StringInterner, InternAndLookup) {
  StringInterner SI;
  SymbolId A = SI.intern("alpha");
  SymbolId B = SI.intern("beta");
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.intern("alpha"), A);
  EXPECT_EQ(SI.text(A), "alpha");
  EXPECT_EQ(SI.text(B), "beta");
  EXPECT_EQ(SI.lookup("alpha"), A);
  EXPECT_EQ(SI.lookup("gamma"), InvalidSymbol);
  EXPECT_EQ(SI.size(), 2u);
}

TEST(StringInterner, IdsAreDense) {
  StringInterner SI;
  for (int I = 0; I != 50; ++I)
    EXPECT_EQ(SI.intern("name" + std::to_string(I)),
              static_cast<SymbolId>(I));
}

TEST(StringInterner, EmptyAndOddStrings) {
  StringInterner SI;
  SymbolId E = SI.intern("");
  EXPECT_EQ(SI.text(E), "");
  SymbolId S = SI.intern("with space");
  EXPECT_EQ(SI.text(S), "with space");
}

} // namespace
