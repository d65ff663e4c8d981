//===- machine/Participant.h - One primitive-call path ---------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the multicore, hardware and multithreaded machines share about one
/// participant (a CPU, or a thread on its CPU): the VM working through its
/// client workload, a layer primitive called from that VM (semantics over
/// the log, local writes, resume), the dry run that finds a shared
/// primitive Blocked, and the local slice of instructions and private
/// primitives up to the next shared call.  The machines differ only in
/// what they do when a participant parks, finishes or faults.
///
/// All of it is inline: step() and schedulable() run it on every node the
/// Explorer expands.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_PARTICIPANT_H
#define CCAL_MACHINE_PARTICIPANT_H

#include "core/LayerInterface.h"
#include "lasm/Vm.h"
#include "support/Check.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ccal {

/// One client call a CPU (or thread) performs, in order.
struct CpuWorkItem {
  std::string Fn;
  std::vector<std::int64_t> Args;
};

/// Calls \p P for participant \p Tid, whose VM \p M is parked at it, over
/// log \p L and local memory \p Mem.
inline std::optional<PrimResult> callPrim(const Primitive &P, ThreadId Tid,
                                          const Vm &M, const Log &L,
                                          const std::vector<std::int64_t> &Mem) {
  PrimCall Call;
  Call.Tid = Tid;
  Call.Args = M.primArgs();
  Call.L = &L;
  Call.LocalMem = &Mem;
  return P.Sem(Call);
}

/// True when \p M is parked at a shared primitive that is Blocked on \p L
/// (an atomic blocking spec such as acq on a held lock): the participant
/// is not schedulable until the log grows.  Primitives are deterministic
/// in the log, so this dry run is exact.
inline bool sharedPrimBlocked(const LayerInterface &Layer, ThreadId Tid,
                              const Vm &M, const Log &L,
                              const std::vector<std::int64_t> &Mem) {
  const Primitive *P = Layer.lookup(M.primKind());
  if (!P || !P->Shared)
    return false;
  std::optional<PrimResult> Res = callPrim(*P, Tid, M, L, Mem);
  return Res && Res->Blocked;
}

/// Delivers \p Res's local writes into \p Mem.
inline void applyLocalWrites(const PrimResult &Res,
                             std::vector<std::int64_t> &Mem) {
  for (auto [Addr, V] : Res.LocalWrites) {
    CCAL_CHECK(Addr >= 0 && static_cast<size_t>(Addr) < Mem.size(),
               "primitive local write out of range");
    Mem[static_cast<size_t>(Addr)] = V;
  }
}

/// Completes a call: local writes into \p Mem, then \p M resumes with Ret.
inline void returnFromPrim(const PrimResult &Res, Vm &M,
                           std::vector<std::int64_t> &Mem) {
  applyLocalWrites(Res, Mem);
  M.resumePrim(Res.Ret);
}

/// How a local slice ended.
enum class SliceEnd {
  AtShared, ///< parked at a shared primitive
  Finished, ///< the whole workload returned
  Faulted,  ///< trap, missing or stuck private primitive, or divergence
};

/// A participant's VM, its place in the workload, and the returns of the
/// work items it finished.
struct Participant {
  Vm Machine;
  size_t NextWork = 0;
  bool Active = false; ///< a work item is running in the VM
  std::vector<std::int64_t> Returns;

  explicit Participant(AsmProgramPtr P) : Machine(std::move(P)) {}

  /// Starts the next item of \p Items unless one is running; false when
  /// the workload is finished.
  bool startNext(const std::vector<CpuWorkItem> &Items) {
    if (Active)
      return true;
    if (NextWork >= Items.size())
      return false;
    Machine.start(Items[NextWork].Fn, Items[NextWork].Args);
    Active = true;
    return true;
  }

  /// Records the return value of the item the VM just finished.
  void finishItem() {
    Returns.push_back(Machine.result());
    Active = false;
    ++NextWork;
  }

  /// Runs instructions and private primitives over \p Mem until the next
  /// shared call of \p Layer or the end of \p Items; on Faulted, \p Why
  /// says why.  \p Budget bounds one VM run's instructions and the slice's
  /// private calls.
  SliceEnd runSlice(ThreadId Tid, const std::vector<CpuWorkItem> &Items,
                    std::vector<std::int64_t> &Mem,
                    const LayerInterface &Layer, const Log &L,
                    std::uint64_t Budget, std::string &Why) {
    for (std::uint64_t PrivateCalls = 1;; ++PrivateCalls) {
      if (PrivateCalls > Budget) {
        Why = "local slice diverged (private-primitive loop?)";
        return SliceEnd::Faulted;
      }
      if (!startNext(Items))
        return SliceEnd::Finished;
      Vm::Status St = Machine.run(Mem, Budget);
      if (St == Vm::Status::Done) {
        finishItem();
        continue;
      }
      if (St == Vm::Status::Error) {
        Why = Machine.error();
        return SliceEnd::Faulted;
      }
      CCAL_CHECK(St == Vm::Status::AtPrim, "unexpected VM status");
      const Primitive *P = Layer.lookup(Machine.primKind());
      if (!P) {
        Why = "call to primitive '" + Machine.primName() +
              "' not provided by layer " + Layer.name();
        return SliceEnd::Faulted;
      }
      if (P->Shared)
        return SliceEnd::AtShared;
      std::optional<PrimResult> Res = callPrim(*P, Tid, Machine, L, Mem);
      if (!Res) {
        Why = "private primitive '" + P->Name + "' got stuck";
        return SliceEnd::Faulted;
      }
      CCAL_CHECK(Res->Events.empty(),
                 "private primitives must not emit events");
      returnFromPrim(*Res, Machine, Mem);
    }
  }
};

/// Every participant's returns, keyed like \p Ps.
template <typename ParticipantMap>
std::map<ThreadId, std::vector<std::int64_t>>
returnsOf(const ParticipantMap &Ps) {
  std::map<ThreadId, std::vector<std::int64_t>> Out;
  for (const auto &[Id, P] : Ps)
    Out.emplace(Id, P.Returns);
  return Out;
}

} // namespace ccal

#endif // CCAL_MACHINE_PARTICIPANT_H
