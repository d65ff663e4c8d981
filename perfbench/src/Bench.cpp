//===- perfbench/src/Bench.cpp - Shared benchmark plumbing ----------------===//

#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

using namespace pb;

double Samples::median() const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  std::size_t N = S.size();
  return N % 2 ? S[N / 2] : 0.5 * (S[N / 2 - 1] + S[N / 2]);
}

double Samples::percentile(double P) const {
  if (V.empty())
    return 0;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  auto Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * S.size()));
  return S[std::clamp<std::size_t>(Rank, 1, S.size()) - 1];
}

double Samples::sum() const { return std::accumulate(V.begin(), V.end(), 0.0); }

Samples::Tail Samples::tail() const {
  Tail T;
  if (V.empty())
    return T;
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  std::size_t N = S.size();
  T.Value = S.back();
  for (int P = 99; P >= 50; --P) {
    // Nearest rank of the P-th percentile; ranks above it lie beyond.
    auto Rank = static_cast<std::size_t>(std::ceil(P / 100.0 * N));
    if (N - Rank >= 10) {
      T.Pct = P;
      T.Value = S[Rank - 1];
      break;
    }
  }
  return T;
}

void Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Mismatches.size() < 20)
    Mismatches.push_back(What);
  std::fprintf(stderr, "known-answer mismatch: %s\n", What.c_str());
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {

thread_local std::vector<std::uint64_t> OpenSpans;
thread_local std::uint64_t CurrentReq = 0;

std::uint32_t threadIndex() {
  static std::atomic<std::uint32_t> Next{1};
  thread_local std::uint32_t Mine = Next.fetch_add(1);
  return Mine;
}

std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

} // namespace

Tracer &Tracer::get() {
  static Tracer *T = new Tracer(); // outlives every worker thread
  return *T;
}

std::uint64_t Tracer::begin(double &StartUs) {
  std::uint64_t Id;
  {
    std::lock_guard<std::mutex> L(Mu);
    Id = NextId++;
  }
  OpenSpans.push_back(Id);
  StartUs =
      std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
  return Id;
}

void Tracer::end(std::uint64_t Id, std::string Name, double StartUs) {
  double EndUs =
      std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
  OpenSpans.pop_back();
  Rec R;
  R.Name = std::move(Name);
  R.Id = Id;
  R.Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
  R.Req = CurrentReq;
  R.Tid = threadIndex();
  R.StartUs = StartUs;
  R.EndUs = EndUs;
  std::lock_guard<std::mutex> L(Mu);
  Recs.push_back(std::move(R));
}

std::map<std::string, Tracer::Fold> Tracer::foldByName() const {
  std::lock_guard<std::mutex> L(Mu);
  // Children run nested on their parent's thread, so the part of a
  // parent's interval they cover is the sum of their durations.
  std::map<std::uint64_t, double> ChildUs;
  for (const Rec &R : Recs)
    if (R.Parent)
      ChildUs[R.Parent] += R.EndUs - R.StartUs;
  std::map<std::string, Fold> Out;
  for (const Rec &R : Recs) {
    Fold &F = Out[R.Name];
    double Dur = R.EndUs - R.StartUs;
    auto It = ChildUs.find(R.Id);
    double Self = Dur - (It == ChildUs.end() ? 0.0 : It->second);
    ++F.Count;
    F.TotalMs += Dur / 1000.0;
    F.SelfMs += std::max(0.0, Self) / 1000.0;
  }
  return Out;
}

std::map<std::string, Tracer::Fold> Tracer::foldByLayer() const {
  std::map<std::string, Fold> Out;
  for (const auto &[Name, F] : foldByName()) {
    Fold &L = Out[layerOf(Name)];
    L.Count += F.Count;
    L.TotalMs += F.TotalMs;
    L.SelfMs += F.SelfMs;
  }
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"traceEvents\": [\n");
  {
    std::lock_guard<std::mutex> L(Mu);
    for (std::size_t I = 0; I != Recs.size(); ++I) {
      const Rec &R = Recs[I];
      std::fprintf(F,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, \"req\": "
                   "%llu}},\n",
                   R.Name.c_str(), layerOf(R.Name).c_str(), R.Tid, R.StartUs,
                   R.EndUs - R.StartUs, static_cast<unsigned long long>(R.Id),
                   static_cast<unsigned long long>(R.Parent),
                   static_cast<unsigned long long>(R.Req));
    }
  }
  std::fprintf(F, "  {}\n], \"selfTimeByLayer\": {");
  bool First = true;
  for (const auto &[Layer, Fd] : foldByLayer()) {
    std::fprintf(F, "%s\n  \"%s\": {\"spans\": %llu, \"total_ms\": %.3f, "
                    "\"self_ms\": %.3f}",
                 First ? "" : ",", Layer.c_str(),
                 static_cast<unsigned long long>(Fd.Count), Fd.TotalMs,
                 Fd.SelfMs);
    First = false;
  }
  std::fprintf(F, "\n}}\n");
  return std::fclose(F) == 0;
}

Request::Request(std::uint64_t Id) : Prev(CurrentReq) { CurrentReq = Id; }
Request::~Request() { CurrentReq = Prev; }

Span::Span(const std::string &N) {
  if (Tracer::get().on()) {
    Name = N;
    Id = Tracer::get().begin(StartUs);
  }
}

Span::~Span() {
  if (Id)
    Tracer::get().end(Id, std::move(Name), StartUs);
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

void Result::e2e(const std::string &Name, double V, const std::string &Unit,
                 std::uint64_t N, const std::string &Note) {
  EndToEnd.push_back({Name, V, Unit, N, Note});
}

void Result::layer(const std::string &Name, double V, const std::string &Unit,
                   std::uint64_t N, const std::string &Note) {
  PerLayer[Name] = {Name, V, Unit, N, Note};
}

void Result::named(const std::string &Name, double V, const std::string &Unit,
                   std::uint64_t N, const std::string &Note) {
  Named.push_back({Name, V, Unit, N, Note});
}

void pb::timeSetup(Samples &Setup, const std::function<void()> &Build) {
  auto T0 = Clock::now();
  Build();
  Setup.add(msSince(T0) / 1000.0);
}

double pb::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // Linux: KiB
}

void pb::addCommonEndToEnd(Result &R, const Samples &Setup,
                           const Samples &Latency, const Samples &Tail,
                           double RatePerS, std::uint64_t RateSamples,
                           const std::string &What,
                           const std::string &RateWhat) {
  Samples::Tail T = Tail.tail();
  const std::string Pct = "p" + std::to_string(static_cast<int>(LatencyPct));
  for (auto Add : {&Result::e2e, &Result::named}) {
    (R.*Add)("setup_s", Setup.median(), "s", Setup.size(),
             "median of set-ups");
    (R.*Add)("peak_rss_mb", peakRssMb(), "MB", 1, "whole process");
  }
  R.e2e("latency_ms", Latency.percentile(LatencyPct), "ms", Latency.size(),
        Pct + " " + What);
  R.e2e("tail_ms", T.Value, "ms", Tail.size(),
        "p" + std::to_string(T.Pct) + " " + What);
  R.e2e("rate_per_s", RatePerS, "1/s", RateSamples, RateWhat);
}

unsigned pb::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

CpuRotation::CpuRotation() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
}

CpuRotation::~CpuRotation() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

void CpuRotation::next() {
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[At++ % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}
