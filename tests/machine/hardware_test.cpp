//===- tests/machine/hardware_test.cpp - Thm 3.1 multicore linking --------------===//

#include "machine/HardwareMachine.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

/// A client with a little CPU-private computation around shared ticks, so
/// the hardware machine has many instruction interleavings that all
/// collapse to the same query-point behaviors.  Kept tiny: instruction-
/// granularity exploration is exponential in code length.
MachineConfigPtr makeLinkConfig(unsigned Cpus, unsigned Ticks) {
  static ClightModule Client1 = [] {
    ClightModule M = parseModuleOrDie("c1", R"(
      extern int tick();
      int scratch = 0;
      int t_main() {
        scratch = scratch + 1;   // CPU-private work before the query point
        return tick() * 10 + scratch;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  static ClightModule Client2 = [] {
    ClightModule M = parseModuleOrDie("c2", R"(
      extern int tick();
      int t_main() { return tick() * 10 + tick(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  const ClightModule *Client = Ticks >= 2 ? &Client2 : &Client1;
  auto L = makeInterface("Lx86");
  L->addShared("tick", makeFetchIncPrim("tick"));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "linkcfg";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("linkcfg.lasm", {Client});
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

/// The certificate of a Thm 3.1 check on the makeLinkConfig machine.
CertPtr makeLinkCertificate(const ContextualRefinementReport &Rep) {
  return makeMachineCertificate("MulticoreLink", "Mx86(linkcfg)",
                                "(hardware scheduling)", "Lx86[D](linkcfg)",
                                EventMap::identity(), Rep);
}

} // namespace

TEST(HardwareMachineTest, SingleCpuStepsInstructions) {
  HardwareMachine M(makeLinkConfig(1, 1));
  ASSERT_TRUE(M.ok());
  std::uint64_t Steps = 0;
  while (!M.allIdle()) {
    std::vector<ThreadId> Ready = M.schedulable();
    ASSERT_EQ(Ready.size(), 1u);
    ASSERT_TRUE(M.step(Ready[0])) << M.error();
    ++Steps;
  }
  // Far more hardware cycles than the single query point.
  EXPECT_GT(Steps, 8u);
  EXPECT_EQ(M.log().size(), 1u);
  EXPECT_EQ(M.returns().at(1),
            std::vector<std::int64_t>{1}); // tick 0 * 10 + scratch 1
}

TEST(HardwareMachineTest, PreemptionBetweenInstructions) {
  // Run CPU 1 for a few instruction cycles (it does local work but has
  // not yet committed its shared tick), then let CPU 2 run to completion:
  // CPU 2 wins the tick even though CPU 1 started first — hardware
  // preemption at instruction granularity.
  HardwareMachine M(makeLinkConfig(2, 1));
  for (int Cycle = 0; Cycle != 3; ++Cycle)
    ASSERT_TRUE(M.step(1)) << M.error();
  EXPECT_TRUE(M.log().empty()); // CPU 1's tick not yet committed
  while (M.log().empty())
    ASSERT_TRUE(M.step(2)) << M.error();
  EXPECT_EQ(M.log()[0].Tid, 2u);
}

TEST(MulticoreLinkTest, Thm31HoldsTwoCpus) {
  // Fairness bound 16 exceeds the longest local stretch, so the hardware
  // sweep is rich enough to check *exactness*: the reduction is lossless.
  MachineConfigPtr Cfg = makeLinkConfig(2, 1);
  ContextualRefinementReport Rep =
      checkMulticoreLinking(Cfg, /*FairnessBound=*/16);
  ASSERT_TRUE(Rep.Holds) << Rep.Counterexample;
  // The hardware machine explores many more schedules than the layer
  // machine (the spec side, explored with the checker's options)...
  ExploreOptions LayerOpts;
  LayerOpts.FairnessBound = 1u << 20;
  const std::uint64_t LayerSchedules =
      exploreMachine(Cfg, LayerOpts).SchedulesExplored;
  EXPECT_GT(Rep.SchedulesExplored - LayerSchedules, LayerSchedules);
  // ...but produces exactly the layer machine's outcomes.  Every hardware
  // outcome is a layer outcome (Holds), and the matcher sees each distinct
  // hardware outcome once, so equal counts make the inclusion an equality.
  EXPECT_EQ(Rep.ImplOutcomes, Rep.SpecOutcomes);
  EXPECT_EQ(Rep.ObligationsChecked, Rep.ImplOutcomes);
}

TEST(MulticoreLinkTest, Thm31HoldsTwoTicks) {
  ContextualRefinementReport Rep =
      checkMulticoreLinking(makeLinkConfig(2, 2), /*FairnessBound=*/2);
  ASSERT_TRUE(Rep.Holds) << Rep.Counterexample;
  EXPECT_GE(Rep.ImplOutcomes, 2u);
}

TEST(MulticoreLinkTest, CertificateRecordsEvidence) {
  ContextualRefinementReport Rep =
      checkMulticoreLinking(makeLinkConfig(2, 1), /*FairnessBound=*/2);
  CertPtr C = makeLinkCertificate(Rep);
  EXPECT_TRUE(C->Valid);
  EXPECT_EQ(C->Rule, "MulticoreLink");
  EXPECT_GT(C->Runs, 0u);
}

TEST(MulticoreLinkTest, SharedLocalMemoryWouldBreakTheTheorem) {
  // Negative control: if a "private" primitive actually observed shared
  // state (here: the log length), instruction interleavings become
  // observable and the hardware machine produces outcomes the layer
  // machine cannot.  The checker must catch this modeling error.
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int tick();
      extern int leak();
      int t_main() { return leak() * 100 + tick(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lleaky");
  L->addShared("tick", makeFetchIncPrim("tick"));
  // A *private* primitive that reads the global log: a modeling bug.
  L->addPrivate("leak", [](const PrimCall &Call)
                    -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = static_cast<std::int64_t>(Call.L->size());
    return Res;
  });
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "leaky";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("leaky.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});

  ContextualRefinementReport Rep =
      checkMulticoreLinking(Cfg, /*FairnessBound=*/3);
  EXPECT_FALSE(Rep.Holds);
}

TEST(MulticoreLinkTest, TruncatedSweepMintsNoValidCertificate) {
  // Thm 3.1 quantifies over every hardware schedule; a one-schedule budget
  // checks a prefix only, so neither the report nor its certificate may
  // claim the theorem.
  ContextualRefinementReport Rep = checkMulticoreLinking(
      makeLinkConfig(2, 1), /*FairnessBound=*/2, /*MaxSchedules=*/1);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_NE(Rep.Coverage.find("MaxSchedules"), std::string::npos)
      << Rep.Coverage;
  CertPtr C = makeLinkCertificate(Rep);
  EXPECT_FALSE(C->Valid);
  EXPECT_FALSE(C->CoverageComplete);

  // A budget the layer sweep fits in but the hardware sweep does not.
  Rep = checkMulticoreLinking(makeLinkConfig(2, 1), /*FairnessBound=*/2,
                              /*MaxSchedules=*/16);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_NE(Rep.Coverage.find("hardware exploration truncated"),
            std::string::npos)
      << Rep.Coverage;
}
