//===- perfbench/src/CertdMix.cpp - Cold and warm certd requests -----------===//
//
// Workload certd_mix: an in-process certd (2 workers, 1 Explorer thread
// per job) with its certificate store in a fresh directory, driven by two
// closed-loop client connections in the same process.  Each round starts
// from an empty store, sends the five catalog jobs once (cold: explore,
// then store), then the same jobs several more times in seeded order
// (warm: load).  Writes and reads of the cert layer are served side by
// side, so a change that trades one for the other shows.
//
// Traced runs also time CertStore::load/store and the CertJson render and
// parse directly on the entries the last round wrote, per entry size,
// which separates the store's own cost from the serve overhead.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cert/CertJson.h"
#include "cert/CertStore.h"
#include "obs/Metrics.h"
#include "serve/Certd.h"
#include "serve/Client.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace ccal;
using namespace ccal::serve;
using namespace pb;

namespace fs = std::filesystem;

namespace {

const std::vector<std::string> JobNames = {
    "ticket.2cpu", "mcs.2cpu", "ticket.2cpu.ra", "mcs.2cpu.ra",
    "ticket.1cpu.2r"};

constexpr unsigned Clients = 2;

struct Sample {
  bool Cold = false;
  double ClientMs = 0, JobMs = 0;
};

/// The daemon and its two client connections.
struct Service {
  std::unique_ptr<Certd> Daemon;
  std::vector<CertClient> Conns;
};

void stopService(Service &S) {
  S.Conns.clear();
  if (S.Daemon)
    S.Daemon->shutdown();
  S.Daemon.reset();
}

bool startService(Service &S, const std::string &Socket, std::string &Err) {
  CertdOptions O;
  O.SocketPath = Socket;
  O.Workers = 2;
  O.ThreadsPerJob = 1;
  S.Daemon = std::make_unique<Certd>(O);
  if (!S.Daemon->start(Err))
    return false;
  S.Conns.resize(Clients);
  for (CertClient &C : S.Conns)
    if (!C.connect(Socket, Err))
      return false;
  return true;
}

/// Drains \p Jobs through the client connections, one closed loop each.
void drive(Service &S, const std::vector<std::string> &Jobs, bool Cold,
           std::uint64_t &NextReq, std::vector<Sample> &Out, Checks &C,
           std::uint64_t &Rejected) {
  std::atomic<std::size_t> Next{0};
  std::mutex Mu;
  std::vector<std::thread> Ts;
  const std::uint64_t ReqBase = NextReq;
  NextReq += Jobs.size();
  for (unsigned K = 0; K != Clients; ++K)
    Ts.emplace_back([&, K] {
      for (std::size_t I; (I = Next.fetch_add(1)) < Jobs.size();) {
        Request Req(ReqBase + I + 1);
        VerifyResponse Resp;
        std::string Err;
        bool Sent;
        auto T0 = Clock::now();
        {
          Span Sp("serve.verify");
          Sent = S.Conns[K].verify({Jobs[I]}, {}, Resp, Err);
        }
        double Ms = msSince(T0);
        std::lock_guard<std::mutex> L(Mu);
        const std::string What =
            (Cold ? "cold " : "warm ") + Jobs[I] + ": ";
        if (!Sent || !Resp.Ok || Resp.Results.size() != 1) {
          ++Rejected;
          C.expect(false, What + "refused: " + Err + Resp.Error);
          continue;
        }
        const JobResult &J = Resp.Results[0];
        C.expect(J.Known && J.Holds && J.Complete,
                 What + "must hold: " + J.Diagnostic.substr(0, 120));
        if (Cold)
          C.expect(J.CertStores > 0, What + "must store its certificate");
        else
          C.expect(J.CertStores == 0 && J.CertHits > 0,
                   What + "must be served from the store (stores=" +
                       std::to_string(J.CertStores) +
                       ", hits=" + std::to_string(J.CertHits) + ")");
        Out.push_back({Cold, Ms, J.WallMs});
      }
    });
  for (std::thread &T : Ts)
    T.join();
}

/// Direct cert-layer timings on one stored entry.
struct EntryTiming {
  std::string File;
  std::uintmax_t Bytes = 0;
  double LoadMs = 0, StoreMs = 0, RenderMs = 0, ParseMs = 0;
};

bool keyOf(const std::string &Text, cert::CertKey &Key) {
  JsonParseResult P = parseJson(Text);
  if (!P)
    return false;
  const JsonValue *Checker = P.Value.field("checker");
  const JsonValue *Version = P.Value.field("version");
  const JsonValue *Hex = P.Value.field("key");
  const JsonValue *Desc = P.Value.field("desc");
  if (!Checker || !Version || !Hex || !Desc)
    return false;
  Key.Checker = Checker->StrVal;
  Key.Version = Version->StrVal;
  Key.Hash = std::strtoull(Hex->StrVal.c_str(), nullptr, 16);
  Key.Desc = Desc->StrVal;
  return true;
}

std::vector<EntryTiming> timeEntries(const std::string &Dir,
                                     const std::string &Scratch, int Reps,
                                     Checks &C) {
  std::vector<EntryTiming> Out;
  cert::CertStore Src(Dir), Dst(Scratch);
  std::error_code Ec;
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir, Ec))
    if (E.path().extension() == ".json")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  C.expect(!Files.empty(), "the cold requests must have written entries");
  for (const fs::path &F : Files) {
    std::ifstream In(F);
    std::stringstream SS;
    SS << In.rdbuf();
    const std::string Text = SS.str();
    cert::CertKey Key;
    if (!keyOf(Text, Key)) {
      C.expect(false, "unreadable store entry " + F.filename().string());
      continue;
    }
    EntryTiming T;
    T.File = F.filename().string();
    T.Bytes = Text.size();
    Samples Load, Store, Render, Parse;
    cert::CertStore::Entry E;
    for (int I = 0; I != Reps; ++I) {
      bool Ok = false;
      Load.add(timed("cert.load", [&] { Ok = Src.load(Key, E); }));
      C.expect(Ok, "stored entry must load: " + T.File);
      if (!Ok)
        break;
      Store.add(timed("cert.store", [&] { Dst.store(Key, E); }));
      // CertJson on the whole entry: render the document the store
      // writes, and parse the file's text back to a certificate.
      std::string Json;
      Render.add(timed("cert.render",
                       [&] { Json = cert::CertStore::render(Key, E); }));
      C.expect(Json.size() == Text.size(),
               "re-rendered entry must match the stored size: " + T.File);
      CertPtr Back;
      std::string Err;
      Parse.add(timed("cert.parse", [&] {
        JsonParseResult P = parseJson(Text);
        const JsonValue *Doc = P ? P.Value.field("certificate") : nullptr;
        if (Doc)
          Back = cert::certFromJson(*Doc, Err);
      }));
      C.expect(Back != nullptr, "certificate must parse back: " + Err);
    }
    T.LoadMs = Load.median();
    T.StoreMs = Store.median();
    T.RenderMs = Render.median();
    T.ParseMs = Parse.median();
    Out.push_back(T);
  }
  return Out;
}

std::uint64_t counter(const char *Name) { return obs::counterValue(Name); }

} // namespace

void pb::runCertdMix(const Options &O, Result &R) {
  Rng G(O.Seed);
  const std::string Tag = std::to_string(::getpid());
  const fs::path Work = fs::path(O.WorkDir);
  const std::string Socket = (Work / ("certd-" + Tag + ".sock")).string();
  std::error_code Ec;
  fs::create_directories(Work, Ec);

  // One daemon serves the whole run.  Set-up (start certd, connect both
  // clients) is repeated between rounds on a spare daemon that never runs
  // a job: a daemon whose workers ran jobs keeps about 10 MB per restart
  // after it stops, which would make peak_rss_mb depend on the round
  // count.
  const std::string SpareSocket =
      (Work / ("certd-" + Tag + "-spare.sock")).string();
  Service S, Spare;
  std::string Err;
  Samples Setup;
  auto SetUp = [&](Service &Svc, const std::string &Path) {
    stopService(Svc); // tearing the previous one down is not set-up
    bool Up = false;
    timeSetup(Setup, [&] { Up = startService(Svc, Path, Err); });
    R.Check.expect(Up, "certd must start: " + Err);
    return Up;
  };
  for (int I = 0; I != 3; ++I)
    if (!SetUp(S, Socket))
      return;

  const unsigned WarmCopies = O.Min ? 1 : 3;
  std::vector<Sample> Plain, Traced;
  std::uint64_t Rejected = 0, NextReq = 0, Rounds = 0;
  // Per round: wall time, and the mean round trip of its requests.  Every
  // round sends the same requests, so rounds are alike units; single
  // requests are not (cold and warm, five jobs of different cost).
  Samples Hits, Misses, Rejections, RoundMs, PlainMeanMs, TracedMeanMs;
  std::uint64_t Requests = 0;
  std::string LastStore;
  auto Deadline = Clock::now() + std::chrono::duration<double>(O.Seconds);
  do {
    if (Rounds && !SetUp(Spare, SpareSocket))
      return;
    ++Rounds;
    const bool IsTraced = O.Trace && Rounds % 2 == 0;
    Tracer::get().setOn(IsTraced);
    // A fresh, empty store per round (swapped while no job runs).
    std::string Store =
        (Work / ("store-" + Tag + "-" + std::to_string(Rounds))).string();
    cert::setStoreDir(Store);
    if (!LastStore.empty())
      fs::remove_all(LastStore, Ec);
    LastStore = Store;

    std::vector<std::string> Cold = JobNames, Warm;
    G.shuffle(Cold);
    for (unsigned K = 0; K != WarmCopies; ++K)
      Warm.insert(Warm.end(), JobNames.begin(), JobNames.end());
    G.shuffle(Warm);

    std::uint64_t H0 = counter("cert.hits"), M0 = counter("cert.misses"),
                  X0 = counter("cert.rejections");
    std::vector<Sample> &Out = IsTraced ? Traced : Plain;
    const std::size_t First = Out.size();
    auto T0 = Clock::now();
    drive(S, Cold, true, NextReq, Out, R.Check, Rejected);
    drive(S, Warm, false, NextReq, Out, R.Check, Rejected);
    double Ms = msSince(T0);
    RoundMs.add(Ms);
    if (Out.size() > First) {
      double Sum = 0;
      for (std::size_t I = First; I != Out.size(); ++I)
        Sum += Out[I].ClientMs;
      (IsTraced ? TracedMeanMs : PlainMeanMs).add(Sum / (Out.size() - First));
    }
    Requests += Cold.size() + Warm.size();
    Hits.add(static_cast<double>(counter("cert.hits") - H0));
    Misses.add(static_cast<double>(counter("cert.misses") - M0));
    Rejections.add(static_cast<double>(counter("cert.rejections") - X0));
  } while ((!O.Min && Clock::now() < Deadline) || Plain.empty() ||
           (O.Trace && Traced.empty()));
  Tracer::get().setOn(false);
  stopService(S);
  stopService(Spare);

  std::vector<EntryTiming> Entries;
  if (O.Trace) {
    std::string Scratch = (Work / ("store-" + Tag + "-rewrite")).string();
    Tracer::get().setOn(true);
    Entries = timeEntries(LastStore, Scratch, O.Min ? 1 : 5, R.Check);
    Tracer::get().setOn(false);
    fs::remove_all(Scratch, Ec);
  }
  fs::remove_all(LastStore, Ec);
  fs::remove(Socket, Ec);
  fs::remove(SpareSocket, Ec);

  auto Split = [](const std::vector<Sample> &V, int Which) {
    Samples Out; // Which: 0 all, 1 cold, 2 warm
    for (const Sample &X : V)
      if (Which == 0 || X.Cold == (Which == 1))
        Out.add(X.ClientMs);
    return Out;
  };
  const std::vector<Sample> &Main = Plain.empty() ? Traced : Plain;
  Samples All = Split(Main, 0), ColdMs = Split(Main, 1),
          WarmMs = Split(Main, 2);
  // Throughput of the p10 round (every round sends the same requests).
  const double PerS = 1000.0 * JobNames.size() * (1 + WarmCopies) /
                      RoundMs.percentile(LatencyPct);
  const Samples &MeanMs = PlainMeanMs.size() ? PlainMeanMs : TracedMeanMs;
  addCommonEndToEnd(R, Setup, MeanMs, All, PerS, Requests,
                    "verify request (cold and warm): latency over round "
                    "means, tail over single requests",
                    "verify requests per second in the p10 round, "
                    "2 clients");
  Samples::Tail CT = ColdMs.tail(), WT = WarmMs.tail();
  R.named("verify_cold_ms", ColdMs.median(), "ms", ColdMs.size(), "median");
  R.named("verify_cold_tail_ms", CT.Value, "ms", ColdMs.size(),
          "p" + std::to_string(CT.Pct));
  R.named("verify_warm_ms", WarmMs.median(), "ms", WarmMs.size(), "median");
  R.named("verify_warm_tail_ms", WT.Value, "ms", WarmMs.size(),
          "p" + std::to_string(WT.Pct));
  R.named("verify_per_s", PerS, "1/s", RoundMs.size(), "p10 round");
  R.Report.push_back("rounds: " + std::to_string(Rounds) + ", " +
                     std::to_string(JobNames.size()) + " cold + " +
                     std::to_string(JobNames.size() * WarmCopies) +
                     " warm requests each, round median " +
                     std::to_string(RoundMs.median()) + " ms");

  if (!O.Trace)
    return;
  Samples Job, Overhead;
  for (const Sample &X : Traced) {
    Job.add(X.JobMs);
    Overhead.add(X.ClientMs - X.JobMs);
  }
  R.layer("serve.job_ms", Job.median(), "ms", Job.size(),
          "median JobResult.WallMs");
  R.layer("serve.overhead_ms", Overhead.median(), "ms", Overhead.size(),
          "median round trip minus job time");
  R.layer("serve.rejected", static_cast<double>(Rejected), "count", Requests,
          "whole run");
  R.layer("cert.hits", Hits.median(), "count", Hits.size(), "median per round");
  R.layer("cert.misses", Misses.median(), "count", Misses.size(),
          "median per round");
  R.layer("cert.rejections", Rejections.median(), "count", Rejections.size(),
          "median per round");
  Samples Load, Store, Render, Parse, Bytes;
  for (const EntryTiming &T : Entries) {
    Load.add(T.LoadMs);
    Store.add(T.StoreMs);
    Render.add(T.RenderMs);
    Parse.add(T.ParseMs);
    Bytes.add(static_cast<double>(T.Bytes));
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "cert entry %9ju bytes: load %.3f ms, store %.3f ms, "
                  "render %.3f ms, parse %.3f ms  (%s)",
                  T.Bytes, T.LoadMs, T.StoreMs, T.RenderMs, T.ParseMs,
                  T.File.c_str());
    R.Report.push_back(Buf);
  }
  const std::uint64_t NE = Entries.size();
  R.layer("cert.load_ms", Load.median(), "ms", NE, "median entry");
  R.layer("cert.entry_bytes", Bytes.median(), "bytes", NE, "median entry");
  R.layer("cert.store_ms", Store.median(), "ms", NE, "median entry");
  R.layer("cert.render_ms", Render.median(), "ms", NE, "median entry");
  R.layer("cert.parse_ms", Parse.median(), "ms", NE, "median entry");
  Samples PlainAll = Split(Plain, 0), TracedAll = Split(Traced, 0);
  R.layer("obs.trace_overhead_pct",
          100.0 * (TracedAll.median() / PlainAll.median() - 1.0), "%",
          TracedAll.size(), "traced vs untraced request median");
}
