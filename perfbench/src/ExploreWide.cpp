//===- perfbench/src/ExploreWide.cpp - One wide exhaustive exploration -----===//
//
// Workload explore_wide: one exhaustive exploration of the atomic
// ticket-lock L1 layer, 4 CPUs x 3 rounds, FairnessBound=2, with as many
// Explorer workers as the machine has hardware threads, repeated back to
// back.  The known answer is exactly 50,040 schedules and 652,961 states
// on every verdict.  This is the workload where Explorer work sharing
// does most of the work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "compcertx/Linker.h"
#include "machine/Explorer.h"
#include "objects/TicketLock.h"

#include <algorithm>

using namespace ccal;
using namespace pb;

namespace {

constexpr unsigned WideCpus = 4, WideRounds = 3;
constexpr std::uint64_t WideSchedules = 50040, WideStates = 652961;

struct WideConfig {
  TicketLockLayers Layers;
  std::shared_ptr<ClightModule> Client;
  MachineConfigPtr Cfg;
};

/// The ticket-lock L1 machine.  The seed picks which thread ids run the
/// CPUs; the layer is symmetric in them, so the known answer holds for
/// every seed.
WideConfig buildConfig(std::uint64_t Seed) {
  WideConfig W;
  W.Layers = makeTicketLockLayers();
  W.Client = std::make_shared<ClightModule>(makeTicketClient());
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "wide";
  Cfg->Layer = W.Layers.L1;
  Cfg->Program = compileAndLink("wide.lasm", {W.Client.get()});
  Rng G(Seed);
  std::vector<ThreadId> Ids;
  while (Ids.size() != WideCpus) {
    ThreadId T = static_cast<ThreadId>(1 + G.below(8));
    if (std::find(Ids.begin(), Ids.end(), T) == Ids.end())
      Ids.push_back(T);
  }
  for (ThreadId T : Ids)
    Cfg->Work.emplace(
        T, std::vector<CpuWorkItem>(WideRounds, CpuWorkItem{"t_main", {}}));
  W.Cfg = Cfg;
  return W;
}

} // namespace

void pb::runExploreWide(const Options &O, Result &R) {
  WideConfig W;
  Samples Setup;
  auto SetUp = [&] {
    WideConfig Fresh;
    timeSetup(Setup, [&] { Fresh = buildConfig(O.Seed); });
    W = std::move(Fresh); // the old machine is released outside the timer
  };
  for (int I = 0; I != 3; ++I)
    SetUp();

  ExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 4096;
  Opts.Threads = hardwareThreads();
  Opts.OnOutcome = [](const Outcome &) { return std::string(); };

  Samples VerdictMs, TracedMs, ExploreMs, StatesPerS;
  Samples Steals, Batches, Donations;
  auto Deadline = Clock::now() + std::chrono::duration<double>(O.Seconds);
  std::uint64_t N = 0, Schedules = 0, States = 0;
  do {
    if (N)
      SetUp(); // each verdict explores a freshly built machine
    ++N;
    const bool Traced = O.Trace && N % 2 == 0;
    Tracer::get().setOn(Traced);
    Request Req(N);
    ExploreResult Res;
    double Ms, ExpMs = 0;
    {
      Span Root("wide.verdict");
      auto T0 = Clock::now();
      ExpMs = timed("machine.explore", [&] { Res = exploreMachine(W.Cfg, Opts); });
      R.Check.expect(Res.Ok && Res.Complete,
                     "wide exploration must complete: " + Res.Violation +
                         Res.Truncation);
      R.Check.expect(Res.SchedulesExplored == WideSchedules &&
                         Res.StatesExplored == WideStates,
                     "wide exploration counts " +
                         std::to_string(Res.SchedulesExplored) + "/" +
                         std::to_string(Res.StatesExplored) + ", expected " +
                         std::to_string(WideSchedules) + "/" +
                         std::to_string(WideStates));
      Ms = msSince(T0);
    }
    Schedules = Res.SchedulesExplored;
    States = Res.StatesExplored;
    (Traced ? TracedMs : VerdictMs).add(Ms);
    if (Traced) {
      ExploreMs.add(ExpMs);
      StatesPerS.add(Res.StatesExplored / (ExpMs / 1000.0));
      Steals.add(static_cast<double>(Res.Steals));
      Batches.add(static_cast<double>(Res.StealBatches));
      Donations.add(static_cast<double>(Res.Donations));
    }
  } while ((!O.Min && Clock::now() < Deadline) || VerdictMs.size() == 0 ||
           (O.Trace && TracedMs.size() == 0));
  Tracer::get().setOn(false);

  const Samples &Lat = VerdictMs.size() ? VerdictMs : TracedMs;
  addCommonEndToEnd(R, Setup, Lat, Lat,
                    States / (Lat.percentile(LatencyPct) / 1000.0),
                    Lat.size(), "wide verdict",
                    "states explored per second, p10 verdict");
  Samples::Tail T = Lat.tail();
  R.named("wide_verdict_s", Lat.median() / 1000.0, "s", Lat.size(),
          "median; Threads=" + std::to_string(Opts.Threads));
  R.named("wide_verdict_tail_s", T.Value / 1000.0, "s", Lat.size(),
          "p" + std::to_string(T.Pct));
  R.Report.push_back("verdicts: " + std::to_string(N) + " at Threads=" +
                     std::to_string(Opts.Threads) + ", each " +
                     std::to_string(WideSchedules) + " schedules / " +
                     std::to_string(WideStates) + " states");

  if (!O.Trace)
    return;
  const auto Nt = static_cast<std::uint64_t>(ExploreMs.size());
  R.layer("machine.explore_ms", ExploreMs.median(), "ms", Nt,
          "median per verdict");
  R.layer("machine.states_per_s", StatesPerS.median(), "1/s", Nt, "median");
  R.layer("machine.steals", Steals.median(), "count", Nt, "median per verdict");
  R.layer("machine.steal_batches", Batches.median(), "count", Nt,
          "median per verdict");
  R.layer("machine.donations", Donations.median(), "count", Nt,
          "median per verdict");
  R.layer("machine.frames_per_batch",
          Batches.sum() > 0 ? Donations.sum() / Batches.sum() : 0,
          "frames/batch", Nt,
          "donations " + std::to_string(static_cast<long long>(
                             Donations.sum())) +
              " / batches " +
              std::to_string(static_cast<long long>(Batches.sum())));
  R.layer("machine.schedules", Schedules, "count", N, "exact, every verdict");
  R.layer("machine.states", States, "count", N, "exact, every verdict");
  R.layer("obs.trace_overhead_pct",
          100.0 * (TracedMs.median() / VerdictMs.median() - 1.0), "%",
          TracedMs.size(), "traced vs untraced verdict median");
}
