//===- perfbench/src/Bench.h - Shared benchmark plumbing ---------*- C++ -*-===//
//
// Timing, sample statistics, known-answer bookkeeping, the in-memory span
// recorder, and result printing shared by the four workloads.  Everything
// here lives in the benchmark: the library under test is only ever called
// through its public headers.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// The command line of one run.
struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";    ///< scratch space inside the checkout
  std::string ModulesDir;       ///< extracted ClightX sources (stack_seq)
  std::string Sha = "unknown";  ///< source revision stamp
  bool Min = false;             ///< self-test size: one unit of each kind
};

/// A sample set; all statistics sort a copy.
struct Samples {
  std::vector<double> V;
  void add(double X) { V.push_back(X); }
  std::size_t size() const { return V.size(); }
  double median() const;
  double sum() const;
  /// The nearest-rank \p P-th percentile, 0 < P <= 100.
  double percentile(double P) const;
  /// The highest whole percentile with at least ten samples beyond it
  /// (nearest rank).  Below 20 samples no percentile above the median
  /// qualifies, and the maximum is reported as p100.
  struct Tail {
    int Pct = 100;
    double Value = 0;
  };
  Tail tail() const;
};

/// Known-answer bookkeeping: every checked verdict is one attempt.
struct Checks {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Mismatches;
  void expect(bool Ok, const std::string &What);
  double failedFrac() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 1.0;
  }
};

/// In-memory span recorder.  Spans are recorded only while enabled; each
/// carries its parent (the innermost open span on the same thread) and the
/// request id of the pass or request it belongs to.  At exit the spans are
/// folded into per-layer self time (duration minus the part covered by
/// child spans) and written as a Chrome trace.
class Tracer {
public:
  struct Fold {
    std::uint64_t Count = 0;
    double TotalMs = 0, SelfMs = 0;
  };

  static Tracer &get();
  bool on() const { return On.load(std::memory_order_relaxed); }
  void setOn(bool B) { On.store(B, std::memory_order_relaxed); }

  std::uint64_t begin(double &StartUs);
  void end(std::uint64_t Id, std::string Name, double StartUs);

  /// Self time per layer (the span name's first component).
  std::map<std::string, Fold> foldByLayer() const;
  bool write(const std::string &Path) const;

private:
  struct Rec {
    std::string Name;
    std::uint64_t Id = 0, Parent = 0, Req = 0;
    std::uint32_t Tid = 0;
    double StartUs = 0, EndUs = 0;
  };
  std::map<std::string, Fold> foldByName() const;

  std::atomic<bool> On{false};
  mutable std::mutex Mu; ///< guards Recs and NextId
  std::vector<Rec> Recs;
  std::uint64_t NextId = 1;
  Clock::time_point T0 = Clock::now();
};

/// Sets the request id of the spans opened on this thread while alive.
class Request {
public:
  explicit Request(std::uint64_t Id);
  ~Request();
  Request(const Request &) = delete;
  Request &operator=(const Request &) = delete;

private:
  std::uint64_t Prev;
};

/// RAII span around one call into a layer; a no-op while tracing is off.
class Span {
public:
  explicit Span(const std::string &Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  std::string Name; ///< copied only while tracing
  std::uint64_t Id = 0;
  double StartUs = 0;
};

/// Times \p Fn as a span and returns its wall time in ms.
inline double timed(const std::string &Name, const std::function<void()> &Fn) {
  Span S(Name);
  auto T0 = Clock::now();
  Fn();
  return msSince(T0);
}

/// One metric of the final result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::uint64_t Samples = 1;
  std::string Note; ///< what it maps to, tail rank, ...
};

/// Everything a workload reports.
struct Result {
  std::vector<Metric> EndToEnd; ///< printed with --trace 0
  std::map<std::string, Metric> PerLayer; ///< printed with --trace 1
  /// The workload's end-to-end figures under their own names
  /// (stack_pass_s, lock_ns, ...), printed in the human-readable report;
  /// the result line uses the workload-independent names.
  std::vector<Metric> Named;
  std::vector<std::string> Report; ///< free-form human-readable lines
  Checks Check;

  void e2e(const std::string &Name, double V, const std::string &Unit,
           std::uint64_t N, const std::string &Note = "");
  void layer(const std::string &Name, double V, const std::string &Unit,
             std::uint64_t N, const std::string &Note = "");
  void named(const std::string &Name, double V, const std::string &Unit,
             std::uint64_t N, const std::string &Note = "");
};

/// Times one set-up (in s) into \p Setup.  Workloads set up a few times
/// before timing starts and again between units, outside every timer, so
/// the median of setup_s samples the whole run rather than its first
/// milliseconds.
void timeSetup(Samples &Setup, const std::function<void()> &Build);

/// Peak resident set of this process in MiB.
double peakRssMb();

/// The percentile of a workload's unit times that latency_ms reports.
/// The benchmark shares a host whose cores slow down by up to half for
/// seconds at a time while neighbours run; that only ever adds time, and
/// how much of a run it covers varies from run to run, which moves the
/// median.  The fast tenth of the units is the program's own cost.
constexpr double LatencyPct = 10;

/// The workload-independent end-to-end metrics every workload reports,
/// plus set-up and memory under the same names in the report:
/// latency_ms is the LatencyPct-th percentile of \p Latency, tail_ms the
/// tail of \p Tail.
void addCommonEndToEnd(Result &R, const Samples &Setup,
                       const Samples &Latency, const Samples &Tail,
                       double RatePerS, std::uint64_t RateSamples,
                       const std::string &What, const std::string &RateWhat);

/// Deterministic 64-bit generator for seeded inputs.
struct Rng {
  std::uint64_t S;
  explicit Rng(std::uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  std::uint64_t below(std::uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

unsigned hardwareThreads();

/// Moves the calling thread round robin over the CPUs the process may
/// run on, one step per next(), and restores its affinity when destroyed.
/// On a shared host single cores slow down for seconds at a time while a
/// neighbour runs; a one-thread caller left where the scheduler put it can
/// spend a whole run on such a core, so one-thread workloads step to the
/// next CPU before each timed unit and every run samples all of them.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  void next();

private:
  std::vector<int> Cpus; ///< empty when the affinity cannot be read
  std::size_t At = 0;
};

// The four workloads.
void runStackSeq(const Options &O, Result &R);
void runExploreWide(const Options &O, Result &R);
void runCertdMix(const Options &O, Result &R);
void runRtAudit(const Options &O, Result &R);

} // namespace pb

#endif // PERFBENCH_BENCH_H
