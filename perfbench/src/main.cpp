//===- perfbench/src/main.cpp - ccal benchmark runner ----------------------===//
//
// Runs one named workload for a fixed measuring time and prints a
// human-readable report followed by one JSON result line:
//
//   ccal_perfbench --workload <stack_seq|explore_wide|certd_mix|rt_audit>
//                  --seed N --seconds S --trace <0|1>
//                  [--workdir DIR] [--modules DIR] [--sha REV] [--min]
//
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from spans the
// benchmark records around its own calls into each layer.  Every workload
// checks its verdicts against known answers; any mismatch makes the
// result incorrect and the exit code 1.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace pb;

namespace {

/// The end-to-end metrics, in result order (every workload reports all).
const char *const EndToEndNames[] = {"setup_s", "peak_rss_mb", "latency_ms",
                                     "tail_ms", "rate_per_s"};

/// The per-layer metrics, in result order: name, unit, and the end-to-end
/// metric (on the workload) it should move.  A workload that does not
/// exercise a layer reports 0 for it.
struct LayerSpec {
  const char *Name;
  const char *Unit;
  const char *Moves;
};

const LayerSpec PerLayerSpecs[] = {
    {"machine.explore_ms", "ms",
     "stack_pass_s on stack_seq; wide_verdict_s on explore_wide"},
    {"machine.states_per_s", "1/s", "wide_verdict_s on explore_wide"},
    {"machine.steals", "count", "wide_verdict_s on explore_wide"},
    {"machine.steal_batches", "count", "wide_verdict_s on explore_wide"},
    {"machine.donations", "count", "base of machine.frames_per_batch"},
    {"machine.frames_per_batch", "frames/batch",
     "wide_verdict_s on explore_wide"},
    {"machine.schedules", "count", "exact; per pass or verdict"},
    {"machine.states", "count", "exact; per pass or verdict"},
    {"machine.rf_variants", "count", "stack_pass_s on stack_seq (RA rows)"},
#define OBJ(O)                                                               \
  {"objects." O ".certify_ms", "ms", "stack_pass_s on stack_seq"},           \
      {"objects." O ".obligations", "count", "stack_pass_s on stack_seq"},   \
      {"objects." O ".spec_ms", "ms", "stack_pass_s on stack_seq"},          \
      {"objects." O ".impl_ms", "ms", "stack_pass_s on stack_seq"}
    OBJ("ticket"),
    OBJ("mcs"),
    OBJ("ticket_ra"),
    OBJ("mcs_ra"),
    OBJ("ticket_ra_broken"),
    OBJ("shared_queue"),
#undef OBJ
    {"objects.local_queue.diff_ms", "ms", "stack_pass_s on stack_seq"},
    {"threads.sched_link_ms", "ms", "stack_pass_s on stack_seq"},
    {"threads.qlock_certify_ms", "ms", "stack_pass_s on stack_seq"},
    {"threads.condvar_ms", "ms", "stack_pass_s on stack_seq"},
    {"core.calculus_ms", "ms", "stack_pass_s on stack_seq"},
    {"core.compat_obligations", "count", "stack_pass_s on stack_seq"},
    {"lang.parse_ms", "ms", "stack_pass_s on stack_seq; verify_warm_ms"},
    {"lang.typecheck_ms", "ms", "stack_pass_s on stack_seq; verify_warm_ms"},
    {"compcertx.compile_ms", "ms", "stack_pass_s on stack_seq"},
    {"compcertx.optimize_ms", "ms", "stack_pass_s on stack_seq"},
    {"compcertx.rewrites", "count", "stack_pass_s on stack_seq"},
    {"compcertx.validate_ms", "ms", "stack_pass_s on stack_seq"},
    {"compcertx.cases", "count", "stack_pass_s on stack_seq"},
    {"cert.load_ms", "ms", "verify_warm_ms on certd_mix"},
    {"cert.entry_bytes", "bytes", "verify_warm_ms on certd_mix"},
    {"cert.store_ms", "ms", "verify_cold_ms on certd_mix"},
    {"cert.render_ms", "ms", "verify_cold_ms on certd_mix"},
    {"cert.parse_ms", "ms", "verify_warm_ms on certd_mix"},
    {"cert.hits", "count", "verify_warm_ms on certd_mix"},
    {"cert.misses", "count", "verify_cold_ms on certd_mix"},
    {"cert.rejections", "count", "verify_warm_ms on certd_mix"},
    {"serve.job_ms", "ms", "verify_*_ms and verify_per_s on certd_mix"},
    {"serve.overhead_ms", "ms", "verify_*_ms and verify_per_s on certd_mix"},
    {"serve.rejected", "count", "verify_per_s on certd_mix"},
    {"runtime.ticket.ns_per_op", "ns", "lock_ns on rt_audit"},
    {"runtime.ticket_ghost.ns_per_op", "ns", "lock_ns on rt_audit"},
    {"runtime.mcs.ns_per_op", "ns", "lock_ns on rt_audit"},
    {"runtime.mcs_ghost.ns_per_op", "ns", "lock_ns on rt_audit"},
    {"runtime.qlock.ns_per_op", "ns", "lock_ns on rt_audit"},
    {"runtime.queue.ns_per_op", "ns", "lock_ns on rt_audit"},
    {"runtime.ticket.contended_ns_per_op", "ns", "contended_mops on rt_audit"},
    {"runtime.mcs.contended_ns_per_op", "ns", "contended_mops on rt_audit"},
    {"runtime.qlock.contended_ns_per_op", "ns", "contended_mops on rt_audit"},
    {"runtime.queue.contended_ns_per_op", "ns", "contended_mops on rt_audit"},
    {"audit.record_ns_per_op", "ns", "audited_mops on rt_audit"},
    {"audit.windows", "count", "audit_verdict_s on rt_audit"},
    {"audit.nodes", "count", "audit_verdict_s on rt_audit"},
    {"audit.dropped", "count", "must be 0 on rt_audit"},
    {"audit.verdict_ms", "ms", "audit_verdict_s on rt_audit"},
    {"obs.trace_overhead_pct", "%", "traced vs untraced latency_ms"},
};

void usage() {
  std::fprintf(stderr,
               "usage: ccal_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--modules DIR] [--sha REV] "
               "[--min]\n");
}

std::string jsonNum(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string stamp(const Options &O) {
  char Buf[1024];
  std::snprintf(Buf, sizeof(Buf),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
                "\"build_type\": \"%s\", \"compiler\": \"%s %s\", "
                "\"sha\": \"%s\", \"min\": %s}",
                O.Workload.c_str(), O.Seed, O.Seconds, O.Trace ? 1 : 0,
                hardwareThreads(), PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
                "clang",
#else
                "gcc",
#endif
                __VERSION__, O.Sha.c_str(), O.Min ? "true" : "false");
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Val();
    else if (A == "--seed")
      O.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Val().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Val() != "0";
    else if (A == "--workdir")
      O.WorkDir = Val();
    else if (A == "--modules")
      O.ModulesDir = Val();
    else if (A == "--sha")
      O.Sha = Val();
    else if (A == "--min")
      O.Min = true;
    else {
      usage();
      return 2;
    }
  }
  if (O.Seconds <= 0) {
    usage();
    return 2;
  }

  Result R;
  if (O.Workload == "stack_seq")
    runStackSeq(O, R);
  else if (O.Workload == "explore_wide")
    runExploreWide(O, R);
  else if (O.Workload == "certd_mix")
    runCertdMix(O, R);
  else if (O.Workload == "rt_audit")
    runRtAudit(O, R);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", O.Workload.c_str());
    usage();
    return 2;
  }
  Tracer::get().setOn(false);

  R.named("failed_frac", R.Check.failedFrac(), "fraction", R.Check.Attempted,
          "wrong or missing verdicts / attempted");

  std::printf("# ccal perfbench\n# stamp %s\n", stamp(O).c_str());
  for (const std::string &L : R.Report)
    std::printf("# %s\n", L.c_str());
  std::printf("# %s end-to-end:\n", O.Workload.c_str());
  for (const Metric &M : R.Named)
    std::printf("#   %-26s %14.6g %-9s n=%-6llu %s\n", M.Name.c_str(),
                M.Value, M.Unit.c_str(),
                static_cast<unsigned long long>(M.Samples), M.Note.c_str());

  // The result line: generic end-to-end names, or the per-layer list.
  std::string Metrics;
  auto Add = [&](const Metric &M) {
    // JSON has no NaN or infinity; a metric that is neither was not
    // measured, which makes the run incorrect.
    const bool Finite = std::isfinite(M.Value);
    if (!Finite)
      R.Check.expect(false, M.Name + " is not a finite number");
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += "\"" + M.Name + "\": {\"value\": " +
               jsonNum(Finite ? M.Value : 0) + ", \"unit\": \"" + M.Unit +
               "\"}";
  };
  std::printf("# result metrics (%s):\n", O.Trace ? "per-layer" : "end-to-end");
  if (!O.Trace) {
    for (const char *N : EndToEndNames)
      for (const Metric &M : R.EndToEnd)
        if (M.Name == N) {
          Add(M);
          std::printf("#   %-22s %14.6g %-6s n=%-6llu %s\n", M.Name.c_str(),
                      M.Value, M.Unit.c_str(),
                      static_cast<unsigned long long>(M.Samples),
                      M.Note.c_str());
        }
  } else {
    for (const LayerSpec &S : PerLayerSpecs) {
      auto It = R.PerLayer.find(S.Name);
      Metric M{S.Name, 0, S.Unit, 0, "not exercised by this workload"};
      if (It != R.PerLayer.end()) {
        M.Value = It->second.Value;
        M.Samples = It->second.Samples;
        M.Note = It->second.Note;
      }
      Add(M);
      std::printf("#   %-36s %14.6g %-12s n=%-6llu -> %s%s%s\n", S.Name,
                  M.Value, S.Unit, static_cast<unsigned long long>(M.Samples),
                  S.Moves, M.Note.empty() ? "" : "; ", M.Note.c_str());
    }
    for (const auto &[Layer, F] : Tracer::get().foldByLayer())
      std::printf("#   self time %-12s %10.3f ms over %llu spans\n",
                  Layer.c_str(), F.SelfMs,
                  static_cast<unsigned long long>(F.Count));
    std::string Path = (std::filesystem::path(O.WorkDir) /
                        ("trace-" + O.Workload + "-seed" +
                         std::to_string(O.Seed) + ".json"))
                           .string();
    if (Tracer::get().write(Path))
      std::printf("# spans written to %s\n", Path.c_str());
  }
  for (const std::string &M : R.Check.Mismatches)
    std::printf("# MISMATCH %s\n", M.c_str());

  const bool Correct = R.Check.Attempted > 0 && R.Check.Failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Check.Attempted),
              static_cast<unsigned long long>(R.Check.Failed),
              Metrics.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
