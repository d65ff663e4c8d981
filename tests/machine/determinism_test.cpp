//===- tests/machine/determinism_test.cpp - Worker-count invariance -----------===//
//
// The sharded-recording contract (machine/Explorer.h): per-worker outcome
// shards merged at the join must make every counter and the outcome SET
// independent of the worker count.  Schedules/states/outcomes are
// schedule-deterministic (every node is expanded exactly once regardless
// of which worker expands it), while stored-outcome *order* is search-
// order dependent under work stealing — so counters compare exactly and
// outcomes compare as sets.  Threads=1 additionally pins the exact
// sequential baseline ordering.
//
//===----------------------------------------------------------------------===//

#include "machine/Explorer.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace ccal;

namespace {

/// The atomic ticket-lock spec layer (the bench workload's shape, sized
/// for a test): blocking acq exercises the schedulable() dry-run path,
/// and f/g make return values schedule-sensitive.
MachineConfigPtr makeSpecConfig(unsigned Cpus, unsigned Rounds) {
  static TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule Client = cloneModule(makeTicketClient());
  static AsmProgramPtr Prog =
      compileAndLink("tickspec_det.lasm", {&Client});
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "tickspec_det";
  Cfg->Layer = Layers.L1;
  Cfg->Program = Prog;
  for (ThreadId C = 1; C <= Cpus; ++C) {
    std::vector<CpuWorkItem> Items;
    for (unsigned I = 0; I != Rounds; ++I)
      Items.push_back({"t_main", {}});
    Cfg->Work.emplace(C, std::move(Items));
  }
  return Cfg;
}

/// Three CPUs, each `quiet(); quiet(); return tick();`.  quiet is a
/// shared primitive that logs nothing, so schedules that differ only in
/// where the quiet steps fall reach the same outcome: over a thousand
/// schedules, six distinct outcomes (one per tick order).  Footprints are
/// declared (quiet touches nothing), so Por applies.
MachineConfigPtr makeQuietTickConfig() {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("q", R"(
      extern int quiet();
      extern int tick();
      int t_main() {
        quiet();
        quiet();
        return tick();
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  static AsmProgramPtr Prog = compileAndLink("quiet_tick.lasm", {&Client});
  auto L = makeInterface("Lquiet");
  L->addShared("quiet",
               [](const PrimCall &) -> std::optional<PrimResult> {
                 return PrimResult();
               },
               Footprint::of({}, {}));
  L->addShared("tick", makeFetchIncPrim("tick"), Footprint::of({"c"}, {"c"}));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "quiet_tick";
  Cfg->Layer = L;
  Cfg->Program = Prog;
  for (ThreadId C = 1; C <= 3; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

/// Canonical rendering of one outcome: the final log plus per-thread
/// returns, so set comparison sees full observable behavior.
std::string outcomeKey(const Outcome &O) {
  std::string S = logToString(O.FinalLog);
  for (const auto &[Tid, Rets] : O.Returns) {
    S += " | " + std::to_string(Tid) + ":";
    for (std::int64_t R : Rets)
      S += std::to_string(R) + ",";
  }
  return S;
}

std::multiset<std::string> outcomeSet(const ExploreResult &Res) {
  std::multiset<std::string> Out;
  for (const Outcome &O : Res.Outcomes)
    Out.insert(outcomeKey(O));
  return Out;
}

} // namespace

TEST(DeterminismTest, CountersAndOutcomeSetInvariantAcrossWorkerCounts) {
  std::map<unsigned, ExploreResult> Results;
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExploreOptions Opts;
    Opts.FairnessBound = 2;
    Opts.MaxSteps = 512;
    Opts.Threads = Threads;
    Results.emplace(Threads, exploreMachine(makeSpecConfig(4, 2), Opts));
  }
  const ExploreResult &Base = Results.at(1);
  ASSERT_TRUE(Base.Ok) << Base.Violation;
  ASSERT_TRUE(Base.Complete);
  ASSERT_GT(Base.SchedulesExplored, 100u); // non-trivial state space
  std::multiset<std::string> BaseSet = outcomeSet(Base);
  for (unsigned Threads : {2u, 4u}) {
    const ExploreResult &Res = Results.at(Threads);
    ASSERT_TRUE(Res.Ok) << "Threads=" << Threads << ": " << Res.Violation;
    EXPECT_TRUE(Res.Complete) << Threads;
    EXPECT_EQ(Res.SchedulesExplored, Base.SchedulesExplored) << Threads;
    EXPECT_EQ(Res.StatesExplored, Base.StatesExplored) << Threads;
    EXPECT_EQ(Res.MaxLogLen, Base.MaxLogLen) << Threads;
    EXPECT_EQ(Res.Outcomes.size(), Base.Outcomes.size()) << Threads;
    EXPECT_EQ(outcomeSet(Res), BaseSet) << Threads;
  }
}

TEST(DeterminismTest, InvariantAcrossStealBatchSizes) {
  // Donations move contiguous frontier batches of up to StealBatch
  // frames; the batch size decides WHERE work lands, never WHAT is
  // explored.  Counters and the outcome set must agree with the
  // sequential baseline for every (Threads, StealBatch) combination,
  // including the degenerate single-frame batch (the pre-batching
  // behavior) and a batch larger than any plausible frontier.
  ExploreOptions Base;
  Base.FairnessBound = 2;
  Base.MaxSteps = 512;
  Base.Threads = 1;
  ExploreResult Seq = exploreMachine(makeSpecConfig(4, 2), Base);
  ASSERT_TRUE(Seq.Ok) << Seq.Violation;
  ASSERT_TRUE(Seq.Complete);
  std::multiset<std::string> SeqSet = outcomeSet(Seq);
  for (unsigned Threads : {2u, 4u})
    for (unsigned Batch : {1u, 8u, 64u}) {
      ExploreOptions Opts = Base;
      Opts.Threads = Threads;
      Opts.StealBatch = Batch;
      ExploreResult Res = exploreMachine(makeSpecConfig(4, 2), Opts);
      ASSERT_TRUE(Res.Ok) << "Threads=" << Threads << " Batch=" << Batch
                          << ": " << Res.Violation;
      EXPECT_TRUE(Res.Complete) << Threads << "/" << Batch;
      EXPECT_EQ(Res.SchedulesExplored, Seq.SchedulesExplored)
          << Threads << "/" << Batch;
      EXPECT_EQ(Res.StatesExplored, Seq.StatesExplored)
          << Threads << "/" << Batch;
      EXPECT_EQ(outcomeSet(Res), SeqSet) << Threads << "/" << Batch;
      // Donations count frames, StealBatches counts lock acquisitions
      // that moved them: batching can only shrink the batch count, and
      // every batch carries at least one frame.
      EXPECT_LE(Res.StealBatches, Res.Donations) << Threads << "/" << Batch;
      EXPECT_LE(Res.Donations, Res.StealBatches * Batch)
          << Threads << "/" << Batch;
    }
}

TEST(DeterminismTest, SequentialRunsAreBitIdentical) {
  // Threads=1 twice: not just the same sets — the same order, entry for
  // entry, because the sequential engine is a deterministic DFS and the
  // shard merge with one worker is the identity.
  ExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 512;
  Opts.Threads = 1;
  ExploreResult A = exploreMachine(makeSpecConfig(3, 1), Opts);
  ExploreResult B = exploreMachine(makeSpecConfig(3, 1), Opts);
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.SchedulesExplored, B.SchedulesExplored);
  EXPECT_EQ(A.StatesExplored, B.StatesExplored);
  ASSERT_EQ(A.Outcomes.size(), B.Outcomes.size());
  for (size_t I = 0; I != A.Outcomes.size(); ++I) {
    EXPECT_EQ(A.Outcomes[I].FinalLog, B.Outcomes[I].FinalLog) << I;
    EXPECT_EQ(A.Outcomes[I].Returns, B.Outcomes[I].Returns) << I;
  }
}

TEST(DeterminismTest, OnOutcomeCallbackFiresOncePerDistinctOutcome) {
  // The callback path keeps one global deduper (lock-striped by outcome
  // hash) precisely so this invariant (checkers count calls) survives
  // sharding: the callback fires once per distinct outcome, at every
  // worker count, and never concurrently — the Explorer serializes the
  // calls, so the callback below uses no lock and no atomic of its own.
  // The quiet-tick machine reaches each outcome through many schedules,
  // so at Threads=4 duplicates race into the dedup from several workers.
  struct Case {
    const char *Name;
    MachineConfigPtr Cfg;
    bool Por;
    bool Collapses; ///< fewer distinct outcomes than explored schedules
  };
  for (const Case &C :
       {Case{"ticket spec", makeSpecConfig(3, 1), false, false},
        Case{"quiet tick", makeQuietTickConfig(), false, true},
        Case{"quiet tick, Por", makeQuietTickConfig(), true, false}}) {
    SCOPED_TRACE(C.Name);
    ExploreOptions Base;
    Base.FairnessBound = C.Por ? ~0u : 2;
    Base.MaxSteps = 512;
    Base.Por = C.Por;
    ExploreResult Stored = exploreMachine(C.Cfg, Base);
    ASSERT_TRUE(Stored.Ok) << Stored.Violation;
    ASSERT_TRUE(Stored.Complete);
    const std::multiset<std::string> Distinct = outcomeSet(Stored);
    ASSERT_GT(Distinct.size(), 1u);
    if (C.Collapses) {
      ASSERT_LT(Distinct.size(), Stored.SchedulesExplored);
    }
    if (C.Por) {
      // Canonical logs stand for many schedules of the full space; the
      // callback must see each canonical outcome once.
      ASSERT_TRUE(Stored.PorApplied);
      PorEquivalenceReport R = checkPorEquivalence(C.Cfg, Base);
      ASSERT_TRUE(R.Ok) << R.Detail;
      ASSERT_TRUE(R.Match) << R.Detail;
      ASSERT_EQ(R.FullOutcomes, Distinct.size());
      ASSERT_LT(R.FullOutcomes, R.FullSchedules);
    }
    std::multiset<std::string> AtOne;
    for (unsigned Threads : {1u, 4u}) {
      ExploreOptions Opts = Base;
      Opts.Threads = Threads;
      bool Inside = false, Overlapped = false;
      std::multiset<std::string> Seen;
      Opts.OnOutcome = [&](const Outcome &O) -> std::string {
        if (Inside)
          Overlapped = true;
        Inside = true;
        Seen.insert(outcomeKey(O));
        Inside = false;
        return "";
      };
      ExploreResult Res = exploreMachine(C.Cfg, Opts);
      ASSERT_TRUE(Res.Ok) << Res.Violation;
      EXPECT_TRUE(Res.Complete);
      EXPECT_FALSE(Overlapped) << "Threads=" << Threads;
      EXPECT_EQ(Seen, Distinct) << "Threads=" << Threads;
      if (Threads == 1)
        AtOne = Seen;
      else
        EXPECT_EQ(Seen, AtOne) << "Threads=" << Threads;
    }
  }
}
