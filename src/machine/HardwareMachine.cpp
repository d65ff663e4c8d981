//===- machine/HardwareMachine.cpp - Instruction-level Mx86 -------------------===//

#include "machine/HardwareMachine.h"

#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

HardwareMachine::HardwareMachine(MachineConfigPtr CfgIn)
    : Cfg(std::move(CfgIn)) {
  CCAL_CHECK(Cfg && Cfg->Layer && Cfg->Program && Cfg->Program->Linked,
             "machine config needs a layer and a linked program");
  CCAL_CHECK(!Cfg->Model || !Cfg->Model->weak(),
             "the hardware machine is SC-only; run weak-memory "
             "verification on the query-point MultiCoreMachine");
  std::vector<std::int64_t> Image = Cfg->Program->initialGlobals();
  for (const auto &[Id, Items] : Cfg->Work) {
    auto [It, Inserted] = Cpus.emplace(Id, Cpu(Cfg->Program, Image));
    CCAL_CHECK(Inserted, "duplicate CPU id");
    It->second.Done = Items.empty();
  }
}

void HardwareMachine::fault(ThreadId Id, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("CPU %u: %s", Id, Msg.c_str());
}

bool HardwareMachine::allIdle() const {
  for (const auto &[Id, C] : Cpus)
    if (!C.Done)
      return false;
  return true;
}

std::vector<ThreadId> HardwareMachine::schedulable() const {
  std::vector<ThreadId> Out;
  for (const auto &[Id, C] : Cpus) {
    if (!C.Done &&
        !(C.AtPrim && sharedPrimBlocked(*Cfg->Layer, Id, C.Machine,
                                        GlobalLog, C.Globals)))
      Out.push_back(Id);
  }
  return Out;
}

bool HardwareMachine::step(ThreadId Id) {
  if (!ok())
    return false;
  auto It = Cpus.find(Id);
  CCAL_CHECK(It != Cpus.end(), "step: unknown CPU");
  Cpu &C = It->second;
  CCAL_CHECK(!C.Done, "step: CPU has no work left");

  const std::vector<CpuWorkItem> &Items = Cfg->Work.at(Id);
  C.startNext(Items);

  if (C.AtPrim) {
    const Primitive *P = Cfg->Layer->lookup(C.Machine.primKind());
    if (!P) {
      fault(Id, "call to primitive '" + C.Machine.primName() +
                    "' not provided by layer " + Cfg->Layer->name());
      return false;
    }
    std::optional<PrimResult> Res =
        callPrim(*P, Id, C.Machine, GlobalLog, C.Globals);
    if (!Res) {
      fault(Id, "primitive '" + P->Name + "' got stuck");
      return false;
    }
    CCAL_CHECK(!Res->Blocked, "step: blocked CPUs are not schedulable");
    CCAL_CHECK(P->Shared || Res->Events.empty(),
               "private primitives must not emit events");
    logAppendAll(GlobalLog, Res->Events);
    returnFromPrim(*Res, C.Machine, C.Globals);
    C.AtPrim = false;
    return true;
  }

  // One hardware cycle: a single instruction.
  bool Exhausted = false;
  Vm::Status St = C.Machine.runBounded(C.Globals, 1, Exhausted);
  if (Exhausted)
    return true; // instruction executed; still running
  if (St == Vm::Status::Error) {
    fault(Id, C.Machine.error());
    return false;
  }
  if (St == Vm::Status::AtPrim) {
    C.AtPrim = true; // the primitive itself runs on this CPU's next cycle
    return true;
  }
  CCAL_CHECK(St == Vm::Status::Done, "unexpected VM status");
  C.finishItem();
  C.Done = C.NextWork >= Items.size();
  return true;
}

Footprint HardwareMachine::stepFootprint(ThreadId Id) const {
  auto It = Cpus.find(Id);
  if (It == Cpus.end() || !It->second.AtPrim)
    return Footprint(); // one instruction: CPU-local only
  const Primitive *P = Cfg->Layer->lookup(It->second.Machine.primKind());
  if (!P)
    return Footprint::opaque();
  if (!P->Shared)
    return Footprint(); // private primitives touch only local memory
  return P->Foot;
}

Footprint HardwareMachine::eventFootprint(const Event &E) const {
  return Cfg->Layer->footprintOf(E.Kind);
}

ContextualRefinementReport
ccal::checkMulticoreLinking(MachineConfigPtr Cfg, unsigned FairnessBound,
                            std::uint64_t MaxSchedules) {
  // Layer machine (query-point interleaving): the spec side, with no
  // spinning assumed at this level.
  ExploreOptions LayerOpts;
  LayerOpts.FairnessBound = 1u << 20;
  LayerOpts.MaxSchedules = MaxSchedules;
  // Hardware machine (instruction interleaving): the impl side.
  GenericExploreOptions<HardwareMachine> HwOpts;
  HwOpts.FairnessBound = FairnessBound;
  HwOpts.MaxSchedules = MaxSchedules;
  HwOpts.MaxSteps = 65536;
  return checkRefinement(HardwareMachine(Cfg), MultiCoreMachine(Cfg),
                         nullptr, nullptr, std::move(HwOpts), LayerOpts,
                         MulticoreLinkWording);
}
