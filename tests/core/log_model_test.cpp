//===- tests/core/log_model_test.cpp - Persistent log vs reference model ------===//
//
// Property-based check of the chunked copy-on-write Log against the data
// structure it replaced: a plain std::vector<Event>.  Random interleavings
// of append, copy, pop_back, and clear across a population of logs must
// leave every Log observationally identical to its shadow vector —
// size/indexing/iteration, equality between every pair, hashLog equality
// exactly when contents are equal, and isPrefixOf agreeing with a direct
// prefix scan.  This is the safety net under the Explorer's snapshot
// sharing: sealed chunks are shared between machine copies, so an aliasing
// bug here would corrupt counterexamples, not just benchmarks.
//
//===----------------------------------------------------------------------===//

#include "core/Log.h"

#include "core/Replay.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ccal;

namespace {

/// A Log under test paired with its reference model.
struct Pair {
  Log L;
  std::vector<Event> Ref;
};

Event randomEvent(Rng &R) {
  static const char *const Kinds[] = {"acq", "rel",  "FAI_t", "hold",
                                      "f",   "push", "pop",   "sched"};
  Event E(static_cast<ThreadId>(R.below(4)),
          Kinds[R.below(sizeof(Kinds) / sizeof(Kinds[0]))]);
  std::uint64_t NArgs = R.below(3);
  for (std::uint64_t I = 0; I != NArgs; ++I)
    E.Args.push_back(R.range(-100, 100));
  return E;
}

bool refIsPrefix(const std::vector<Event> &A, const std::vector<Event> &B) {
  if (A.size() > B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (!(A[I] == B[I]))
      return false;
  return true;
}

void checkAgainstModel(const Pair &P, const std::string &Ctx) {
  ASSERT_EQ(P.L.size(), P.Ref.size()) << Ctx;
  ASSERT_EQ(P.L.empty(), P.Ref.empty()) << Ctx;
  for (size_t I = 0; I != P.Ref.size(); ++I)
    ASSERT_EQ(P.L[I], P.Ref[I]) << Ctx << " at index " << I;
  if (!P.Ref.empty()) {
    ASSERT_EQ(P.L.back(), P.Ref.back()) << Ctx;
  }
  // Iteration visits the same sequence as indexing.
  size_t I = 0;
  for (const Event &E : P.L)
    ASSERT_EQ(E, P.Ref[I++]) << Ctx;
  ASSERT_EQ(I, P.Ref.size()) << Ctx;
  // The implicit vector-to-Log view is the identity on contents.
  ASSERT_EQ(P.L, Log(P.Ref)) << Ctx;
  ASSERT_EQ(hashLog(P.L), hashLog(Log(P.Ref))) << Ctx;
}

} // namespace

TEST(LogModelTest, RandomOpsMatchVectorModel) {
  const unsigned Trials = 30;
  const unsigned Steps = 120;
  for (unsigned T = 0; T != Trials; ++T) {
    Rng R(0x10d0000ULL + T);
    std::vector<Pair> Pop(1);
    for (unsigned S = 0; S != Steps; ++S) {
      size_t Who = R.below(Pop.size());
      Pair &P = Pop[Who];
      switch (R.below(5)) {
      case 0:
      case 1: { // append (biased: logs mostly grow)
        Event E = randomEvent(R);
        P.L.push_back(E);
        P.Ref.push_back(E);
        break;
      }
      case 2: // copy: sealed chunks are shared with the original
        if (Pop.size() < 8)
          Pop.push_back(Pop[Who]);
        break;
      case 3:
        if (!P.Ref.empty()) {
          P.L.pop_back();
          P.Ref.pop_back();
        }
        break;
      case 4:
        if (R.chance(1, 4)) {
          P.L.clear();
          P.Ref.clear();
        }
        break;
      }
      // Mutating one member of the population must not disturb another
      // (copy-on-write isolation), so re-check everybody every step.
      for (size_t J = 0; J != Pop.size(); ++J)
        checkAgainstModel(Pop[J],
                          "trial " + std::to_string(T) + " step " +
                              std::to_string(S) + " log " + std::to_string(J));
      // Pairwise equality, hash consistency, and prefix agreement.
      for (size_t A = 0; A != Pop.size(); ++A)
        for (size_t B = 0; B != Pop.size(); ++B) {
          bool RefEq = Pop[A].Ref == Pop[B].Ref;
          ASSERT_EQ(Pop[A].L == Pop[B].L, RefEq)
              << "trial " << T << " step " << S << " pair " << A << "," << B;
          if (RefEq) {
            ASSERT_EQ(hashLog(Pop[A].L), hashLog(Pop[B].L));
          }
          ASSERT_EQ(Pop[A].L.isPrefixOf(Pop[B].L),
                    refIsPrefix(Pop[A].Ref, Pop[B].Ref))
              << "trial " << T << " step " << S << " pair " << A << "," << B;
        }
    }
  }
}

TEST(LogModelTest, ChunkBoundaryEquality) {
  // Equality and prefix checks right at the sealing boundary (16 events),
  // where one operand's events live in a sealed chunk and the other's were
  // appended one by one into a fresh tail.
  for (size_t N : {15u, 16u, 17u, 31u, 32u, 33u}) {
    Log A, B;
    for (size_t I = 0; I != N; ++I) {
      Event E(1, "e", {static_cast<std::int64_t>(I)});
      A.push_back(E);
      B.push_back(E);
    }
    EXPECT_EQ(A, B) << N;
    EXPECT_EQ(hashLog(A), hashLog(B)) << N;
    EXPECT_TRUE(A.isPrefixOf(B)) << N;
    Log C = A; // shares A's sealed chunks
    C.push_back(Event(2, "x"));
    EXPECT_NE(A, C) << N;
    EXPECT_TRUE(A.isPrefixOf(C)) << N;
    EXPECT_FALSE(C.isPrefixOf(A)) << N;
  }
}

namespace {

/// A counting replayer whose step also records how many events it folded,
/// so memo hits (which skip the fold) are observable while remaining
/// semantically invisible.
Replayer<int> makeSumReplayer(unsigned long long *FoldCount) {
  return Replayer<int>(
      0, [FoldCount](const int &S, const Event &E) -> std::optional<int> {
        ++*FoldCount;
        if (E.Kind == "stuck")
          return std::nullopt;
        return S + (E.Args.empty() ? 1 : static_cast<int>(E.Args[0]));
      });
}

} // namespace

TEST(LogModelTest, ReplayMemoIsSemanticallyInvisible) {
  static unsigned long long Folds = 0;
  Replayer<int> R = makeSumReplayer(&Folds);
  Log L;
  int Expect = 0;
  for (int I = 1; I <= 40; ++I) {
    L.push_back(Event(1, "add", {I}));
    Expect += I;
    // Repeated replays of the same and extended logs: values must always
    // match the full fold, whatever the memo serves.
    for (int Rep = 0; Rep != 3; ++Rep) {
      std::optional<int> Got = R.replay(L);
      ASSERT_TRUE(Got.has_value());
      EXPECT_EQ(*Got, Expect) << "length " << I;
    }
  }
  // The memo must have saved most of the 40*3 full folds.
  EXPECT_LT(Folds, 40ull * 3 * 41);
}

TEST(LogModelTest, ReplayMemoDistinguishesReplayers) {
  // Two replayers with different semantics replaying the SAME log must
  // never see each other's memo entries.
  static unsigned long long FoldsA = 0, FoldsB = 0;
  Replayer<int> A = makeSumReplayer(&FoldsA);
  Replayer<int> B(100, [](const int &S, const Event &) -> std::optional<int> {
    ++FoldsB;
    return S - 1;
  });
  Log L = {Event(1, "add", {5}), Event(1, "add", {7})};
  unsigned long long FirstA = 0, FirstB = 0;
  for (int Rep = 0; Rep != 4; ++Rep) {
    EXPECT_EQ(A.replay(L), std::optional<int>(12));
    EXPECT_EQ(B.replay(L), std::optional<int>(98));
    if (Rep == 0) {
      FirstA = FoldsA;
      FirstB = FoldsB;
    }
  }
  // Each replayer folds the log once, then serves its own memo: neither
  // re-folds on a repeat, and neither was handed the other's state.
  EXPECT_GT(FirstA, 0u);
  EXPECT_GT(FirstB, 0u);
  EXPECT_EQ(FoldsA, FirstA);
  EXPECT_EQ(FoldsB, FirstB);
}

TEST(LogModelTest, ReplayMemoStuckPrefixStaysStuck) {
  static unsigned long long Folds = 0;
  Replayer<int> R = makeSumReplayer(&Folds);
  Log L = {Event(1, "add", {1}), Event(1, "stuck")};
  EXPECT_FALSE(R.replay(L).has_value());
  // Extending a stuck log keeps it stuck — including via the memoized
  // prefix path.
  L.push_back(Event(1, "add", {2}));
  EXPECT_FALSE(R.replay(L).has_value());
  EXPECT_FALSE(R.replay(L).has_value());
}

TEST(LogModelTest, ReplayMemoCopiesShareSemantics) {
  // A copied Replayer has identical semantics, so serving it from the
  // original's memo (or vice versa) must be invisible.
  static unsigned long long Folds = 0;
  Replayer<int> A = makeSumReplayer(&Folds);
  Replayer<int> B = A;
  Log L = {Event(1, "add", {3}), Event(1, "add", {4})};
  EXPECT_EQ(A.replay(L), std::optional<int>(7));
  EXPECT_EQ(B.replay(L), std::optional<int>(7));
}
