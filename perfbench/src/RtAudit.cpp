//===- perfbench/src/RtAudit.cpp - The section 6 runtime and its auditor ---===//
//
// Workload rt_audit, in three parts interleaved over the measuring time:
//
//  1. Single-thread uncontended acquire+release of rt::TicketLock and
//     rt::McsLock with ghost calls in and removed, the queuing lock, and
//     an enqueue+dequeue of the shared queue; timed per batch, never per
//     call.  A ticket batch with the recorder on gives the recording cost.
//  2. A hammer of the ticket, MCS and queuing locks and the shared queue
//     by one thread per hardware thread, with seeded client work between
//     operations, in rounds that alternate the recorder off and on.
//  3. auditTrace of a fixed-size prefix of each recorded trace, which must
//     PASS, and of an rt::BrokenTicketLock trace, which must FAIL.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "audit/AuditChecker.h"
#include "audit/Recorder.h"
#include "audit/Trace.h"
#include "runtime/GhostLog.h"
#include "runtime/RtBrokenLock.h"
#include "runtime/RtMcsLock.h"
#include "runtime/RtQueuingLock.h"
#include "runtime/RtSharedQueue.h"
#include "runtime/RtTicketLock.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <thread>

using namespace ccal;
using namespace pb;

namespace {

constexpr int BatchPairs = 20000;   ///< uncontended ops per timed batch
constexpr int RoundPairs = 2000;    ///< hammer ops per thread per round
constexpr int PayloadIters = 300;   ///< client work between hammer ops
constexpr int KeptRounds = 2;       ///< audited prefix of each trace

/// Client work between operations (xorshift rounds on a seeded state).
inline std::uint64_t payload(std::uint64_t X) {
  for (int I = 0; I != PayloadIters; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  return X;
}

/// Persistent hammer threads; run() releases them for one round.
class Pool {
public:
  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;
  explicit Pool(int N) : Start(N + 1), End(N + 1) {
    for (int T = 0; T != N; ++T)
      Ts.emplace_back([this, T] {
        while (true) {
          Start.arrive_and_wait();
          if (Quit)
            return;
          Job(T);
          End.arrive_and_wait();
        }
      });
  }
  ~Pool() {
    Quit = true;
    Start.arrive_and_wait();
    for (std::thread &T : Ts)
      T.join();
  }
  int size() const { return static_cast<int>(Ts.size()); }
  /// Runs \p F on every thread; returns the round's wall time in ms.
  double run(std::function<void(int)> F) {
    Job = std::move(F);
    auto T0 = Clock::now();
    Start.arrive_and_wait();
    End.arrive_and_wait();
    return msSince(T0);
  }

private:
  std::barrier<> Start, End;
  std::function<void(int)> Job;
  bool Quit = false; ///< read by the threads after Start
  std::vector<std::thread> Ts;
};

/// One object under the hammer: its per-op body and its audit spec.
struct Target {
  std::string Name, Spec;
  /// One operation by hammer thread T on the instance for recorder state
  /// On: recorded rounds get their own instance, so the ticket numbers in
  /// the audited prefix run without gaps.
  std::function<void(int, bool)> Op;
  audit::Trace Kept;           ///< first KeptRounds recorded rounds
  int RecordedRounds = 0;
  Samples OffNsPerOp, OnNsPerOp; ///< per round: wall ns / ops
};

struct Objects {
  rt::TicketLock<false> Ticket;
  rt::TicketLock<true> TicketGhost;
  rt::McsLock<false> Mcs;
  rt::McsLock<true> McsGhost;
  rt::QueuingLock QLock;
  rt::SharedQueue<rt::TicketLock<false, false>> Queue;
  // Hammered instances, distinct from the uncontended ones; index 1 is
  // used while the recorder is on.
  rt::TicketLock<false> HTicket[2];
  rt::McsLock<false> HMcs[2];
  rt::QueuingLock HQLock[2];
  rt::SharedQueue<rt::TicketLock<false, false>> HQueue[2];
};

/// Everything set up before timing starts.
struct Rig {
  std::unique_ptr<Objects> Obj;
  std::unique_ptr<Pool> Hammer;
  std::vector<std::uint64_t> Sink; ///< per-thread payload state, padded
  std::vector<Target> Targets;
};

void buildRig(Rig &R, std::uint64_t Seed) {
  R.Obj = std::make_unique<Objects>();
  const int N = static_cast<int>(hardwareThreads());
  R.Sink.assign(static_cast<std::size_t>(N) * 8, 0);
  Rng G(Seed);
  for (int T = 0; T != N; ++T)
    R.Sink[static_cast<std::size_t>(T) * 8] = G.next() | 1;
  R.Hammer = std::make_unique<Pool>(N);
  Objects &O = *R.Obj;
  auto Work = [&R](int T) {
    std::uint64_t &S = R.Sink[static_cast<std::size_t>(T) * 8];
    S = payload(S);
    return S;
  };
  auto Add = [&R](const char *Name, const char *Spec,
                  std::function<void(int, bool)> Op) {
    Target &T = R.Targets.emplace_back();
    T.Name = Name;
    T.Spec = Spec;
    T.Kept.Spec = Spec;
    T.Op = std::move(Op);
  };
  Add("ticket", "ticket", [&O, Work](int T, bool On) {
    O.HTicket[On].acquire();
    O.HTicket[On].release();
    Work(T);
  });
  Add("mcs", "lock", [&O, Work](int T, bool On) {
    rt::McsNode N;
    O.HMcs[On].acquire(N);
    O.HMcs[On].release(N);
    Work(T);
  });
  Add("qlock", "lock", [&O, Work](int T, bool On) {
    O.HQLock[On].acquire();
    O.HQLock[On].release();
    Work(T);
  });
  Add("queue", "queue", [&O, Work](int T, bool On) {
    O.HQueue[On].enqueue(static_cast<std::int64_t>(Work(T) >> 20));
    (void)O.HQueue[On].dequeue();
  });
  // Start every hammer thread once, outside any recorded instance.
  R.Hammer->run([&O](int) {
    O.Ticket.acquire();
    O.Ticket.release();
  });
}

/// Times one uncontended batch of \p Body; returns ns per op.
template <typename Fn> double batchNs(const std::string &Name, Fn Body) {
  Span S(Name);
  auto T0 = Clock::now();
  for (int I = 0; I != BatchPairs; ++I)
    Body();
  return msSince(T0) * 1e6 / BatchPairs;
}

/// Hammers rt::BrokenTicketLock until a duplicate ticket is on record;
/// the audit must then FAIL.  Returns the audit's wall time in ms.
double brokenLockFails(Pool &P, Checks &C) {
  audit::resetForTest();
  rt::BrokenTicketLock Broken;
  audit::Trace Tr;
  Tr.Spec = "ticket";
  bool Duplicate = false;
  audit::setEnabled(true);
  for (int Round = 0; Round != 500 && !Duplicate; ++Round) {
    P.run([&Broken](int) {
      for (int I = 0; I != 200; ++I) {
        Broken.acquire();
        Broken.release();
      }
    });
    audit::Collected Col = audit::collect();
    Tr.Records.insert(Tr.Records.end(), Col.Records.begin(),
                      Col.Records.end());
    std::map<std::int64_t, int> Tickets;
    for (const audit::OpRecord &R : Tr.Records)
      if (R.M == audit::Method::Acq && ++Tickets[R.Ret] > 1)
        Duplicate = true;
  }
  audit::setEnabled(false);
  audit::AuditReport Rep;
  double Ms = timed("audit.audit_trace",
                    [&] { Rep = audit::auditTrace(Tr, "ticket"); });
  audit::resetForTest();
  C.expect(Duplicate, "broken ticket lock never tore a ticket grab");
  C.expect(Rep.Outcome == audit::AuditOutcome::Fail && !Rep.WitnessOps.empty(),
           std::string("broken ticket lock must FAIL the audit, got ") +
               audit::outcomeName(Rep.Outcome));
  return Ms;
}

} // namespace

void pb::runRtAudit(const Options &O, Result &R) {
  Rig Rg, Spare;
  Samples Setup;
  for (int I = 0; I != 3; ++I) {
    Rg = Rig();
    timeSetup(Setup, [&] { buildRig(Rg, O.Seed); });
  }
  Objects &Ob = *Rg.Obj;
  Pool &P = *Rg.Hammer;
  std::uint64_t Req = 0;

  // Part 1: one uncontended batch of every variant.
  std::map<std::string, Samples> Ns, TracedNs;
  rt::McsNode Node;
  auto Uncontended = [&](bool Traced) {
    Request Rq(++Req);
    auto &Out = Traced ? TracedNs : Ns;
    Out["ticket"].add(batchNs("runtime.ticket", [&] {
      Ob.Ticket.acquire();
      Ob.Ticket.release();
    }));
    Out["ticket_ghost"].add(batchNs("runtime.ticket_ghost", [&] {
      Ob.TicketGhost.acquire();
      Ob.TicketGhost.release();
    }));
    rt::threadGhostLog().clear();
    Out["mcs"].add(batchNs("runtime.mcs", [&] {
      Ob.Mcs.acquire(Node);
      Ob.Mcs.release(Node);
    }));
    Out["mcs_ghost"].add(batchNs("runtime.mcs_ghost", [&] {
      Ob.McsGhost.acquire(Node);
      Ob.McsGhost.release(Node);
    }));
    rt::threadGhostLog().clear();
    Out["qlock"].add(batchNs("runtime.qlock", [&] {
      Ob.QLock.acquire();
      Ob.QLock.release();
    }));
    std::int64_t V = static_cast<std::int64_t>(Req);
    int Lost = 0;
    Out["queue"].add(batchNs("runtime.queue", [&] {
      Ob.Queue.enqueue(V);
      Lost += Ob.Queue.dequeue() != V; // FIFO of one
    }));
    R.Check.expect(Lost == 0, "uncontended queue must return what it got");
    audit::setEnabled(true);
    Out["ticket_audited"].add(batchNs("audit.record", [&] {
      Ob.Ticket.acquire();
      Ob.Ticket.release();
    }));
    audit::setEnabled(false);
    audit::Collected Col = audit::collect();
    R.Check.expect(Col.Dropped == 0 && Col.Records.size() == 2u * BatchPairs,
                   "uncontended recording must keep every record");
  };

  // Part 2: one hammer round of every object, recorder off then on.
  std::uint64_t Dropped = 0, Round = 0;
  const std::uint64_t OpsPerRound =
      static_cast<std::uint64_t>(P.size()) * RoundPairs;
  auto Hammer = [&] {
    for (Target &T : Rg.Targets)
      for (bool On : {false, true}) {
        ++Round;
        Request Rq(++Req);
        Span S(On ? "audit.hammer" : "runtime.hammer");
        audit::setEnabled(On);
        double Ms = P.run([&T, On](int Th) {
          for (int I = 0; I != RoundPairs; ++I)
            T.Op(Th, On);
        });
        audit::setEnabled(false);
        if (!On) {
          T.OffNsPerOp.add(Ms * 1e6 / OpsPerRound);
          continue;
        }
        audit::Collected Col;
        Ms += timed("audit.collect", [&] { Col = audit::collect(); });
        T.OnNsPerOp.add(Ms * 1e6 / OpsPerRound);
        Dropped += Col.Dropped;
        R.Check.expect(Col.Records.size() == 2 * OpsPerRound,
                       T.Name + " hammer must record every operation");
        if (T.RecordedRounds++ < KeptRounds)
          T.Kept.Records.insert(T.Kept.Records.end(), Col.Records.begin(),
                                Col.Records.end());
      }
  };

  // Part 3: one audit verdict over the fixed-size kept traces.
  Samples VerdictMs;
  std::uint64_t Windows = 0, Nodes = 0;
  auto Verdict = [&] {
    Request Rq(++Req);
    Windows = Nodes = 0;
    double Ms = 0;
    for (Target &T : Rg.Targets) {
      audit::AuditReport Rep;
      Ms += timed("audit.audit_trace",
                  [&] { Rep = audit::auditTrace(T.Kept, T.Spec); });
      R.Check.expect(Rep.Outcome == audit::AuditOutcome::Pass &&
                         Rep.OpsAudited == T.Kept.Records.size(),
                     T.Name + " trace must PASS the audit: " + Rep.Detail);
      Windows += Rep.Windows;
      Nodes += Rep.NodesExplored;
    }
    VerdictMs.add(Ms);
  };

  // The parts interleave over the whole measuring time, so each samples
  // every phase of the machine's speed.  Verdicts start once the kept
  // traces are complete and take about a fifth of the time.
  const int Batches = O.Min ? 1 : 5;
  const unsigned MinVerdicts = O.Min ? 1 : 3;
  const std::size_t KeepRounds = O.Min ? 1 : KeptRounds;
  double VerdictTotalMs = 0;
  auto Start = Clock::now();
  auto Deadline = Start + std::chrono::duration<double>(O.Seconds);
  for (std::uint64_t Cycle = 1;; ++Cycle) {
    Tracer::get().setOn(O.Trace && Cycle % 2 == 0);
    for (int B = 0; B != Batches; ++B)
      Uncontended(O.Trace && Cycle % 2 == 0);
    Hammer();
    // The rig in use keeps its recorded instances for the whole run, so
    // the set-up repeated between cycles builds a spare one.
    Spare = Rig(); // joins the old spare's threads outside the timer
    timeSetup(Setup, [&] { buildRig(Spare, O.Seed); });
    bool Ready = Rg.Targets.back().RecordedRounds >= static_cast<int>(KeepRounds);
    if (Ready && (VerdictTotalMs < 0.2 * msSince(Start) ||
                  VerdictMs.size() < MinVerdicts)) {
      auto T0 = Clock::now();
      Verdict();
      VerdictTotalMs += msSince(T0);
    }
    bool Enough = !Ns.empty() && (!O.Trace || !TracedNs.empty()) &&
                  VerdictMs.size() >= MinVerdicts;
    if (Enough && (O.Min || Clock::now() >= Deadline))
      break;
  }
  Tracer::get().setOn(false);
  const double BrokenMs = brokenLockFails(P, R.Check);
  R.Check.expect(Dropped == 0, "the recorder must drop nothing");

  // End-to-end: the uncontended ticket lock with ghost calls removed is
  // the section 6 number; the hammer gives the contended rates.
  Samples LockMs;
  for (double X : Ns["ticket"].V)
    LockMs.add(X / 1e6);
  // Hammer throughput: each object's median round, combined by geometric
  // mean.  The queuing lock is left out: its waiters either spin or
  // sleep, so its contended rate is bimodal (about 0.7 or 7 us per op
  // here) and is reported per layer instead.
  double LogOff = 0, LogOn = 0, NT = 0;
  for (const Target &T : Rg.Targets) {
    if (T.Name == "qlock")
      continue;
    LogOff += std::log(T.OffNsPerOp.median());
    LogOn += std::log(T.OnNsPerOp.median());
    ++NT;
  }
  const double Contended = 1e9 / std::exp(LogOff / NT);
  const double Audited = 1e9 / std::exp(LogOn / NT);
  addCommonEndToEnd(R, Setup, LockMs, LockMs, Contended, Round / 2,
                    "uncontended ticket acquire+release (ghost removed)",
                    "contended ops/s, recorder off (geometric mean of the "
                    "ticket, MCS and queue median rounds)");
  Samples::Tail T = LockMs.tail();
  R.named("lock_ns", LockMs.median() * 1e6, "ns", LockMs.size(),
          "median of " + std::to_string(BatchPairs) + "-op batches");
  R.named("lock_tail_ns", T.Value * 1e6, "ns", LockMs.size(),
          "p" + std::to_string(T.Pct));
  R.named("contended_mops", Contended / 1e6, "Mop/s", Round / 2,
          std::to_string(P.size()) + " threads, recorder off");
  R.named("audited_mops", Audited / 1e6, "Mop/s", Round / 2,
          std::to_string(P.size()) + " threads, recorder on, with drain");
  R.named("audit_verdict_s", VerdictMs.median() / 1000.0, "s",
          VerdictMs.size(),
          "median; " + std::to_string(Rg.Targets.size()) + " traces of " +
              std::to_string(KeptRounds) + " rounds");
  R.Report.push_back("hammer: " + std::to_string(P.size()) + " threads, " +
                     std::to_string(Round) + " rounds of " +
                     std::to_string(OpsPerRound) + " ops; broken lock " +
                     "audited in " + std::to_string(BrokenMs) + " ms");

  if (!O.Trace)
    return;
  for (const char *K : {"ticket", "ticket_ghost", "mcs", "mcs_ghost", "qlock",
                        "queue"})
    R.layer(std::string("runtime.") + K + ".ns_per_op", TracedNs[K].median(),
            "ns", TracedNs[K].size(), "median uncontended batch");
  for (const Target &Tg : Rg.Targets)
    R.layer("runtime." + Tg.Name + ".contended_ns_per_op",
            Tg.OffNsPerOp.median(), "ns", Tg.OffNsPerOp.size(),
            "median round wall / ops, " + std::to_string(P.size()) +
                " threads");
  R.layer("audit.record_ns_per_op",
          (TracedNs["ticket_audited"].median() - TracedNs["ticket"].median()) /
              2,
          "ns", TracedNs["ticket_audited"].size(),
          "per recorded call, uncontended ticket with recorder on vs off");
  R.layer("audit.windows", static_cast<double>(Windows), "count", 1,
          "per verdict");
  R.layer("audit.nodes", static_cast<double>(Nodes), "count", 1,
          "per verdict");
  R.layer("audit.dropped", static_cast<double>(Dropped), "count", Round / 2,
          "whole run");
  R.layer("audit.verdict_ms", VerdictMs.median(), "ms", VerdictMs.size(),
          "median verdict");
  R.layer("obs.trace_overhead_pct",
          100.0 * (TracedNs["ticket"].median() / Ns["ticket"].median() - 1.0),
          "%", TracedNs["ticket"].size(),
          "traced vs untraced ticket batch median");
}
