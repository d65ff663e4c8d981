//===- perfbench/src/StackSeq.cpp - Certify the Fig. 1 stack in order ------===//
//
// Workload stack_seq: one caller in a closed loop, Explorer Threads=1 and
// no certificate store; the caller moves to the next CPU before each pass.  Each pass certifies the paper's layer stack from
// scratch, bottom-up: ticket and MCS L0->L1 under SC and under RA, the RA
// broken-grab twin (must be refuted), the local-queue differential, the
// shared queue, scheduler linking, the queuing lock, the CV bounded
// buffer, a vcomp + checkCompat of the certified lock layers, and the
// CompCertX parse -> typecheck -> compile -> optimize -> validate pipeline
// over every ClightX module of the stack on seeded argument cases.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compcertx/Linker.h"
#include "compcertx/Optimize.h"
#include "compcertx/Validate.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "objects/LocalQueue.h"
#include "objects/McsLock.h"
#include "objects/SharedQueue.h"
#include "objects/TicketLock.h"
#include "threads/CondVar.h"
#include "threads/Linking.h"
#include "threads/QueuingLock.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

using namespace ccal;
using namespace pb;

namespace {

/// One object certified by the harness front end.
struct HarnessRow {
  std::string Name;
  bool ExpectHolds = true;
  ObjectHarness H;
};

struct SourceModule {
  std::string Name, Text;
  std::vector<ValidationCase> Cases; ///< seeded, built at set-up
};

struct StackInputs {
  std::vector<HarnessRow> Rows;
  SharedQueueSetup Queue; ///< spec/impl configs for the traced split
  std::vector<SourceModule> Modules;
  std::uint64_t LocalQueueSeed = 1;
};

std::vector<SourceModule> readModules(const std::string &Dir) {
  std::vector<SourceModule> Out;
  if (Dir.empty())
    return Out;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec)) {
    if (E.path().extension() != ".cx")
      continue;
    std::ifstream In(E.path());
    std::stringstream SS;
    SS << In.rdbuf();
    Out.push_back({E.path().stem().string(), SS.str(), {}});
  }
  std::sort(Out.begin(), Out.end(),
            [](const SourceModule &A, const SourceModule &B) {
              return A.Name < B.Name;
            });
  return Out;
}

/// Primitive handler for validation: each primitive returns how often it
/// was called before in this execution, so spin loops over counters
/// terminate and every execution sees the same values.
PrimHandler countingPrims() {
  auto Counts = std::make_shared<std::map<std::string, std::int64_t>>();
  return [Counts](const std::string &Name, const std::vector<std::int64_t> &)
             -> std::optional<std::int64_t> { return (*Counts)[Name]++; };
}

StackInputs buildInputs(const Options &O, Rng &G, bool Min) {
  StackInputs In;
  In.Rows.push_back({"ticket", true, makeTicketLockHarness(2, 1)});
  In.Rows.push_back({"mcs", true, makeMcsLockHarness(2, 1)});
  In.Rows.push_back({"ticket_ra", true, makeTicketLockHarnessRa(2, 1)});
  In.Rows.push_back({"mcs_ra", true, makeMcsLockHarnessRa(2, 1)});
  In.Rows.push_back(
      {"ticket_ra_broken", false, makeTicketLockHarnessRa(2, 1, true)});
  In.Queue = makeSharedQueueSetup(1, 1, 2);
  In.Modules = readModules(O.ModulesDir);
  // Argument cases: every defined function, small arguments (the modules
  // index fixed-size arrays with them) from a fixed Latin design, so each
  // parameter sees every value once.  Whether a case runs into the step
  // budget depends on its arguments, so the seed only orders the cases:
  // it must not change how much work a pass does.
  for (SourceModule &M : In.Modules) {
    ParseResult P = parseModule(M.Name, M.Text);
    if (!P.ok())
      continue; // reported as a mismatch in the pass
    for (const FuncDecl &F : P.Module.Funcs) {
      if (F.IsExtern)
        continue;
      const std::size_t Cases = Min || F.Params.empty() ? 1 : 3;
      for (std::size_t C = 0; C != Cases; ++C) {
        ValidationCase VC{F.Name, {}};
        for (std::size_t A = 0; A != F.Params.size(); ++A)
          VC.Args.push_back(static_cast<std::int64_t>((C + A) % 3));
        M.Cases.push_back(std::move(VC));
      }
    }
    G.shuffle(M.Cases);
  }
  In.LocalQueueSeed = G.next() % 1000 + 1;
  return In;
}

/// Per-pass accumulators for the per-layer metrics.
struct PassStats {
  std::map<std::string, double> Ms;         ///< per span name, this pass
  std::map<std::string, std::uint64_t> Cnt; ///< exact counts, this pass
};

class StackPass {
public:
  StackPass(const StackInputs &In, Checks &C, bool Min)
      : In(In), C(C), Min(Min) {}

  /// One certification of the whole stack; fills \p P.
  void run(PassStats &P);
  /// Traced runs only: the spec and impl explorations of every object,
  /// separately, outside the pass timer.
  void split(PassStats &P);

private:
  void time(PassStats &P, const std::string &Name,
            const std::function<void()> &Fn) {
    P.Ms[Name] += timed(Name, Fn);
  }
  void explore(PassStats &P, const std::string &Obj, const char *Side,
               const std::function<MachineConfigPtr()> &Cfg,
               const ExploreOptions &Opts, bool MayViolate = false);

  const StackInputs &In;
  Checks &C;
  bool Min;
};

void StackPass::run(PassStats &P) {
  std::vector<HarnessOutcome> Certified;
  for (const HarnessRow &Row : In.Rows) {
    HarnessOutcome Out;
    time(P, "objects." + Row.Name + ".certify",
         [&] { Out = runObjectHarness(Row.H); });
    const ContextualRefinementReport &Rep = Out.Report;
    // A refutation must be a real counterexample on a complete spec
    // sweep, never a truncated exploration.
    bool Decided = Row.ExpectHolds
                       ? Rep.Holds
                       : Rep.SpecComplete &&
                             Rep.Counterexample.rfind(
                                 "implementation machine violation", 0) == 0;
    C.expect(Decided && Rep.Holds == Row.ExpectHolds,
             Row.Name + (Row.ExpectHolds ? " must hold: " : " must be refuted: ") +
                 (Rep.Holds ? "holds" : Rep.Counterexample.substr(0, 120)));
    P.Cnt["objects." + Row.Name + ".obligations"] = Rep.ObligationsChecked;
    P.Cnt["machine.schedules"] += Rep.SchedulesExplored;
    P.Cnt["machine.states"] += Rep.StatesExplored;
    Certified.push_back(std::move(Out));
  }

  time(P, "objects.local_queue.diff", [&] {
    for (bool Vm : {false, true}) {
      std::string Err = runLocalQueueDifferential(In.LocalQueueSeed,
                                                  Min ? 50 : 500, Vm);
      C.expect(Err.empty(), "local queue differential: " + Err);
    }
  });

  HarnessOutcome Queue;
  time(P, "objects.shared_queue.certify",
       [&] { Queue = certifySharedQueue(1, 1, 2); });
  C.expect(Queue.Report.Holds, "shared queue must hold: " +
                                   Queue.Report.Counterexample.substr(0, 120));
  P.Cnt["objects.shared_queue.obligations"] = Queue.Report.ObligationsChecked;
  P.Cnt["machine.schedules"] += Queue.Report.SchedulesExplored;
  P.Cnt["machine.states"] += Queue.Report.StatesExplored;

  time(P, "threads.sched_link", [&] {
    LinkingSetup S;
    S.NumThreads = 3;
    S.Rounds = 3;
    LinkingReport Rep = checkMultithreadedLinking(S);
    C.expect(Rep.Refinement.Holds && Rep.Cert && Rep.Cert->Valid,
             "scheduler linking must hold: " + Rep.Refinement.Counterexample);
    P.Cnt["machine.schedules"] += Rep.Refinement.SchedulesExplored;
    P.Cnt["machine.states"] += Rep.Refinement.StatesExplored;
  });
  time(P, "threads.qlock_certify", [&] {
    QueuingLockOutcome Out = certifyQueuingLock(2, 1, 2);
    C.expect(Out.Report.Holds && Out.Cert && Out.Cert->Valid,
             "queuing lock must hold: " + Out.Report.Counterexample);
    P.Cnt["machine.schedules"] += Out.Report.SchedulesExplored;
    P.Cnt["machine.states"] += Out.Report.StatesExplored;
  });
  time(P, "threads.condvar", [&] {
    MonitorCheck M = checkBoundedBuffer(3);
    C.expect(M.Ok, "CV bounded buffer must hold: " + M.Violation);
    P.Cnt["machine.schedules"] += M.SchedulesExplored;
    P.Cnt["machine.states"] += M.StatesExplored;
  });

  // The calculus over the certified SC lock layers: close each under the
  // Empty rule by Vcomp, and discharge Compat on its explored logs.
  time(P, "core.calculus", [&] {
    for (std::size_t I = 0; I != 2; ++I) {
      const HarnessOutcome &Out = Certified[I];
      const HarnessRow &Row = In.Rows[I];
      if (!Out.Layer.valid()) {
        C.expect(false, Row.Name + " layer invalid; calculus skipped");
        continue;
      }
      CertifiedLayer Top = calculus::vcomp(
          Out.Layer, calculus::empty(Out.Layer.Overlay, Out.Layer.Focus));
      C.expect(Top.valid(), "vcomp of " + Row.Name + " must be valid");
      std::vector<Log> Corpus;
      for (const Log &L : Out.Report.Corpus)
        Corpus.push_back(Row.H.R.apply(L));
      calculus::CompatReport Compat =
          calculus::checkCompat(*Row.H.Overlay, {1}, {2}, Corpus);
      C.expect(Compat.Holds, "compat of " + Row.Name + " must hold");
      P.Cnt["core.compat_obligations"] += Compat.LogsChecked;
    }
  });

  C.expect(!In.Modules.empty(), "no ClightX module sources to compile");
  for (const SourceModule &SM : In.Modules) {
    ParseResult PR;
    time(P, "lang.parse", [&] { PR = parseModule(SM.Name, SM.Text); });
    if (!PR.ok()) {
      C.expect(false, SM.Name + " must parse: " + PR.Error);
      continue;
    }
    TypeCheckResult TC;
    time(P, "lang.typecheck", [&] { TC = typeCheck(PR.Module); });
    if (!TC.ok()) {
      C.expect(false, SM.Name + " must typecheck: " + TC.Error);
      continue;
    }
    AsmProgramPtr Linked;
    time(P, "compcertx.compile",
         [&] { Linked = compileAndLink(SM.Name, {&PR.Module}); });
    AsmProgram Prog = *Linked;
    time(P, "compcertx.optimize", [&] {
      P.Cnt["compcertx.rewrites"] += optimizeProgram(Prog).total();
    });
    ValidationReport VR;
    time(P, "compcertx.validate", [&] {
      ValidationOptions VO;
      VO.CheckOptimized = true;
      VO.MaxSteps = 1u << 16;
      VR = validateTranslation(PR.Module, SM.Cases, countingPrims, VO);
    });
    C.expect(VR.Ok, SM.Name + " must validate: " + VR.Error);
    P.Cnt["compcertx.cases"] += VR.CasesChecked;
    P.Cnt["compcertx.both_stuck"] += VR.BothStuck;
  }
}

void StackPass::explore(PassStats &P, const std::string &Obj,
                        const char *Side,
                        const std::function<MachineConfigPtr()> &Cfg,
                        const ExploreOptions &Opts, bool MayViolate) {
  std::string Name = "objects." + Obj + "." + Side;
  Span S(Name);
  auto T0 = Clock::now();
  MachineConfigPtr M;
  {
    Span L("compcertx.link");
    M = Cfg();
  }
  ExploreResult R;
  P.Ms["machine.explore"] +=
      timed("machine.explore", [&] { R = exploreMachine(M, Opts); });
  P.Ms[Name] += msSince(T0);
  C.expect((R.Ok || MayViolate) && (R.Complete || !R.Ok),
           Name + " exploration must complete: " + R.Truncation);
  P.Cnt["split.states"] += R.StatesExplored;
  P.Cnt["machine.rf_variants"] += R.ReadsFromVariants;
}

void StackPass::split(PassStats &P) {
  for (const HarnessRow &Row : In.Rows) {
    explore(P, Row.Name, "spec", [&] { return Row.H.specConfig(); },
            Row.H.SpecOpts);
    explore(P, Row.Name, "impl", [&] { return Row.H.implConfig(); },
            Row.H.ImplOpts, !Row.ExpectHolds);
  }
  // certifySharedQueue's budgets, without its (opaque) safety invariant.
  ExploreOptions ImplOpts;
  ImplOpts.FairnessBound = 4;
  ImplOpts.MaxSteps = 512;
  ExploreOptions SpecOpts;
  SpecOpts.FairnessBound = 1u << 20;
  SpecOpts.MaxSteps = 512;
  explore(P, "shared_queue", "spec", [&] { return In.Queue.SpecConfig; },
          SpecOpts);
  explore(P, "shared_queue", "impl", [&] { return In.Queue.ImplConfig; },
          ImplOpts);
}

} // namespace

void pb::runStackSeq(const Options &O, Result &R) {
  Rng G(O.Seed);
  StackInputs In;
  Samples Setup;
  // Every set-up builds the same seeded inputs; each pass gets fresh ones.
  // The old inputs are released outside the timer.
  auto SetUp = [&] {
    StackInputs Fresh;
    timeSetup(Setup, [&] {
      Rng Local = G;
      Fresh = buildInputs(O, Local, O.Min);
    });
    In = std::move(Fresh);
  };
  for (int I = 0; I != 3; ++I)
    SetUp();

  StackPass Pass(In, R.Check, O.Min);
  Samples PassMs, TracedPassMs;
  std::map<std::string, Samples> LayerMs;
  std::map<std::string, std::uint64_t> Counts;
  std::set<std::string> Unstable;
  auto Deadline = Clock::now() + std::chrono::duration<double>(O.Seconds);
  std::uint64_t PassNo = 0;
  double BusyMs = 0;
  CpuRotation Cpus;
  do {
    if (PassNo)
      SetUp();
    ++PassNo;
    Cpus.next();
    // Traced runs alternate traced and untraced passes; the pair gives
    // the tracing overhead, the traced ones give the per-layer numbers.
    const bool Traced = O.Trace && PassNo % 2 == 0;
    Tracer::get().setOn(Traced);
    Request Req(PassNo);
    PassStats P;
    double Ms;
    {
      Span Root("stack.pass");
      auto T0 = Clock::now();
      Pass.run(P);
      Ms = msSince(T0);
    }
    BusyMs += Ms;
    (Traced ? TracedPassMs : PassMs).add(Ms);
    if (Traced) {
      Pass.split(P);
      for (const auto &[Name, V] : P.Ms)
        LayerMs[Name].add(V);
    }
    // Exact counts must repeat on every pass of a seed.
    for (const auto &[Name, V] : P.Cnt) {
      auto [It, New] = Counts.emplace(Name, V);
      if (!New && It->second != V && Unstable.insert(Name).second)
        R.Check.expect(false, "count " + Name + " changed between passes");
    }
  } while ((!O.Min && Clock::now() < Deadline) || PassMs.size() == 0 ||
           (O.Trace && TracedPassMs.size() == 0));
  Tracer::get().setOn(false);

  const Samples &Lat = PassMs.size() ? PassMs : TracedPassMs;
  // Work per second at the latency_ms pass: the states a pass explores.
  addCommonEndToEnd(R, Setup, Lat, Lat,
                    Counts["machine.states"] /
                        (Lat.percentile(LatencyPct) / 1000.0),
                    Lat.size(), "stack pass",
                    "machine states certified per second, p10 pass");
  Samples::Tail T = Lat.tail();
  R.named("stack_pass_s", Lat.median() / 1000.0, "s", Lat.size(), "median");
  R.named("stack_pass_tail_s", T.Value / 1000.0, "s", Lat.size(),
          "p" + std::to_string(T.Pct));
  R.Report.push_back("passes: " + std::to_string(PassNo) + " (" +
                     std::to_string(In.Modules.size()) +
                     " ClightX modules, " +
                     std::to_string(Counts["compcertx.cases"]) +
                     " validation cases of which " +
                     std::to_string(Counts["compcertx.both_stuck"]) +
                     " stuck on both sides, per pass), busy " +
                     std::to_string(BusyMs / 1000.0) + " s");

  if (!O.Trace)
    return;
  auto Med = [&](const std::string &Span) {
    auto It = LayerMs.find(Span);
    return It == LayerMs.end() ? std::make_pair(0.0, std::uint64_t(0))
                               : std::make_pair(It->second.median(),
                                                std::uint64_t(
                                                    It->second.size()));
  };
  auto LayerMed = [&](const std::string &Metric, const std::string &Span) {
    auto [V, N] = Med(Span);
    R.layer(Metric, V, "ms", N, "median per pass");
  };
  auto Count = [&](const std::string &Metric, const std::string &Key) {
    R.layer(Metric, static_cast<double>(Counts[Key]), "count", PassNo,
            "per pass");
  };
  LayerMed("machine.explore_ms", "machine.explore");
  auto [ExpMs, ExpN] = Med("machine.explore");
  R.layer("machine.states_per_s",
          ExpMs > 0 ? Counts["split.states"] / (ExpMs / 1000.0) : 0, "1/s",
          ExpN, "split explorations");
  Count("machine.schedules", "machine.schedules");
  Count("machine.states", "machine.states");
  Count("machine.rf_variants", "machine.rf_variants");
  for (const char *Obj : {"ticket", "mcs", "ticket_ra", "mcs_ra",
                          "ticket_ra_broken", "shared_queue"}) {
    std::string P = std::string("objects.") + Obj;
    LayerMed(P + ".certify_ms", P + ".certify");
    Count(P + ".obligations", P + ".obligations");
    LayerMed(P + ".spec_ms", P + ".spec");
    LayerMed(P + ".impl_ms", P + ".impl");
  }
  LayerMed("objects.local_queue.diff_ms", "objects.local_queue.diff");
  LayerMed("threads.sched_link_ms", "threads.sched_link");
  LayerMed("threads.qlock_certify_ms", "threads.qlock_certify");
  LayerMed("threads.condvar_ms", "threads.condvar");
  LayerMed("core.calculus_ms", "core.calculus");
  Count("core.compat_obligations", "core.compat_obligations");
  LayerMed("lang.parse_ms", "lang.parse");
  LayerMed("lang.typecheck_ms", "lang.typecheck");
  LayerMed("compcertx.compile_ms", "compcertx.compile");
  LayerMed("compcertx.optimize_ms", "compcertx.optimize");
  Count("compcertx.rewrites", "compcertx.rewrites");
  LayerMed("compcertx.validate_ms", "compcertx.validate");
  Count("compcertx.cases", "compcertx.cases");
  if (PassMs.size() && TracedPassMs.size())
    R.layer("obs.trace_overhead_pct",
            100.0 * (TracedPassMs.median() / PassMs.median() - 1.0), "%",
            TracedPassMs.size(), "traced vs untraced pass median");
}
