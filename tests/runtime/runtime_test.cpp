//===- tests/runtime/runtime_test.cpp - Real-hardware lock tests -----------------===//

#include "runtime/RtMcsLock.h"
#include "runtime/RtQueuingLock.h"
#include "runtime/RtSharedQueue.h"
#include "runtime/RtTicketLock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace ccal::rt;

namespace {

/// Hammers a critical section from \p NumThreads threads; returns true
/// when every increment was mutually exclusive.
template <typename AcquireFn, typename ReleaseFn>
bool hammer(unsigned NumThreads, unsigned Iters, AcquireFn Acquire,
            ReleaseFn Release) {
  long Counter = 0; // intentionally non-atomic: the lock must protect it
  std::atomic<bool> Torn{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T) {
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != Iters; ++I) {
        Acquire();
        long Seen = Counter;
        Counter = Seen + 1;
        Release();
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  return !Torn.load() &&
         Counter == static_cast<long>(NumThreads) * Iters;
}

} // namespace

TEST(RuntimeTicketLockTest, MutualExclusionUnderContention) {
  TicketLock<false> L;
  EXPECT_TRUE(hammer(4, 20000, [&] { L.acquire(); }, [&] { L.release(); }));
}

TEST(RuntimeTicketLockTest, GhostVariantBehavesIdentically) {
  TicketLock<true> L;
  EXPECT_TRUE(hammer(4, 5000, [&] { L.acquire(); }, [&] { L.release(); }));
  EXPECT_GT(threadGhostLog().size() + 1, 0u); // main thread may log nothing
}

TEST(RuntimeMcsLockTest, MutualExclusionWithScopes) {
  McsLock<false> L;
  long Counter = 0;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (unsigned I = 0; I != 20000; ++I) {
        LockScope<McsLock<false>> Guard(L);
        Counter = Counter + 1;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Counter, 4 * 20000);
}

TEST(RuntimeQueuingLockTest, MutualExclusionWithSleepers) {
  QueuingLock L;
  EXPECT_TRUE(hammer(8, 2000, [&] { L.acquire(); }, [&] { L.release(); }));
}

TEST(RuntimeQueuingLockTest, ShortLivedSleepersSurviveTheHandoff) {
  // Every sleeper releases and exits as soon as it is handed the lock, so
  // its stack Waiter dies right after the handoff: the releaser must be
  // done with the waiter's condition variable by then.  Run it under TSan
  // to see a late notify as a race with the waiter's destruction.
  QueuingLock L;
  long Counter = 0;
  constexpr unsigned Rounds = 200, Sleepers = 8;
  for (unsigned R = 0; R != Rounds; ++R) {
    L.acquire(); // held while the sleepers start, so most of them park
    std::vector<std::thread> Threads;
    for (unsigned S = 0; S != Sleepers; ++S)
      Threads.emplace_back([&] {
        L.acquire();
        Counter = Counter + 1;
        L.release();
      });
    L.release();
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(Counter, static_cast<long>(Rounds * Sleepers));
}

TEST(RuntimeSharedQueueTest, TicketBackedMpmc) {
  SharedQueue<TicketLock<false>> Q;
  constexpr int PerProducer = 5000;
  std::vector<std::thread> Producers;
  for (int P = 0; P != 3; ++P)
    Producers.emplace_back([&Q, P] {
      for (int I = 0; I != PerProducer; ++I)
        Q.enqueue(P * PerProducer + I);
    });
  std::atomic<long> Sum{0};
  std::atomic<int> Got{0};
  std::vector<std::thread> Consumers;
  for (int C = 0; C != 3; ++C)
    Consumers.emplace_back([&] {
      while (Got.load() < 3 * PerProducer) {
        if (std::optional<std::int64_t> V = Q.dequeue()) {
          Sum += *V;
          ++Got;
        }
      }
    });
  for (auto &T : Producers)
    T.join();
  for (auto &T : Consumers)
    T.join();
  long Expected = 0;
  for (int V = 0; V != 3 * PerProducer; ++V)
    Expected += V;
  EXPECT_EQ(Sum.load(), Expected);
}

TEST(RuntimeSharedQueueTest, McsBackedInterchangeable) {
  // §6: swapping the lock under the queue requires no other change.
  SharedQueue<McsLock<false>> Q;
  Q.enqueue(1);
  Q.enqueue(2);
  EXPECT_EQ(Q.dequeue(), 1);
  EXPECT_EQ(Q.dequeue(), 2);
  EXPECT_EQ(Q.dequeue(), std::nullopt);
}

TEST(RuntimeGhostLogTest, RecordsAndClears) {
  GhostLog &Log = threadGhostLog();
  Log.clear();
  Log.record(GhostFai, 1);
  Log.record(GhostHold, 2);
  EXPECT_EQ(Log.size(), 2u);
  Log.clear();
  EXPECT_EQ(Log.size(), 0u);
}
