//===- machine/Soundness.cpp - Contextual refinement (Thm 2.2) --------------===//

#include "machine/Soundness.h"

#include "cert/CertKeys.h"
#include "cert/CertStore.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Text.h"

using namespace ccal;

namespace {

/// Bump when this checker's semantics change: stored certificates from the
/// old semantics must miss, not lie.
const char RefineCheckerVersion[] = "refine-v1";

std::string refinementMismatch(const Log &ImplLog, const Log &Mapped) {
  return strFormat("no specification behavior matches implementation "
                   "outcome\n  impl log:   %s\n  mapped (R): %s",
                   logToString(ImplLog).c_str(),
                   logToString(Mapped).c_str());
}

std::string linkMismatch(const Log &ImplLog, const Log &) {
  return strFormat("hardware outcome not admitted by the layer machine\n"
                   "  log: %s",
                   logToString(ImplLog).c_str());
}

const RefinementWording::Side ImplementationSide = {
    "implementation", "impl", "implementation",
    "only a prefix of the schedule space was matched"};

} // namespace

const RefinementWording ccal::ContextualRefinementWording = {
    {"specification", "spec", "specification",
     "the spec outcome set may be silently capped, so any mismatch below "
     "would be a false counterexample and any match proves nothing"},
    ImplementationSide,
    refinementMismatch};

const RefinementWording ccal::ThreadedRefinementWording = {
    {"specification", "spec", "specification",
     "the spec outcome set may be silently capped"},
    ImplementationSide,
    refinementMismatch};

const RefinementWording ccal::MulticoreLinkWording = {
    {"layer", "layer", "layer-machine",
     "the admitted outcome set may be silently capped"},
    {"hardware", "hardware", "hardware-machine",
     "only a prefix of the instruction interleavings was checked"},
    linkMismatch};

bool ccal::detail::acceptSweep(ContextualRefinementReport &Report,
                               const ExploreResult &Res,
                               const RefinementWording::Side &S) {
  if (!Res.Ok) {
    Report.Counterexample =
        std::string(S.Machine) + " machine violation: " + Res.Violation;
    return false;
  }
  if (!Res.Complete) {
    Report.Coverage =
        std::string(S.Coverage) + " exploration truncated: " + Res.Truncation;
    Report.Counterexample = std::string(S.Sweep) +
                            " exploration is incomplete (" + Res.Truncation +
                            "): " + S.Gap +
                            "; raise the truncating budget and re-run";
    return false;
  }
  return true;
}

void ccal::detail::publishRefinementMetrics(
    const ContextualRefinementReport &Report, const char *CheckCounter) {
  if (!obs::enabled())
    return;
  obs::counterAdd(CheckCounter, 1);
  obs::counterAdd("refine.obligations_discharged",
                  Report.ObligationsChecked);
  obs::counterAdd("refine.impl_outcomes", Report.ImplOutcomes);
  obs::counterAdd("refine.spec_outcomes", Report.SpecOutcomes);
  if (Report.Holds)
    obs::counterAdd("refine.holds", 1);
  if (!Report.SpecComplete || !Report.ImplComplete) {
    obs::counterAdd("refine.truncated", 1);
    obs::traceInstant("refine.truncation: " + Report.Coverage, "refine");
  }
}

JsonValue ccal::refinementToPayload(const ContextualRefinementReport &R,
                                    bool WithCorpus) {
  JsonValue V;
  V.K = JsonValue::Kind::Object;
  V.Fields["holds"] = jsonBool(R.Holds);
  V.Fields["spec_complete"] = jsonBool(R.SpecComplete);
  V.Fields["impl_complete"] = jsonBool(R.ImplComplete);
  V.Fields["coverage"] = jsonStr(R.Coverage);
  V.Fields["impl_outcomes"] = jsonUInt(R.ImplOutcomes);
  V.Fields["spec_outcomes"] = jsonUInt(R.SpecOutcomes);
  V.Fields["obligations"] = jsonUInt(R.ObligationsChecked);
  V.Fields["schedules"] = jsonUInt(R.SchedulesExplored);
  V.Fields["states"] = jsonUInt(R.StatesExplored);
  V.Fields["counterexample"] = jsonStr(R.Counterexample);
  if (WithCorpus)
    V.Fields["corpus"] = cert::logsToJson(R.Corpus);
  return V;
}

bool ccal::refinementFromPayload(const JsonValue &V,
                                 ContextualRefinementReport &R,
                                 bool WithCorpus) {
  const JsonValue *Holds = V.field("holds");
  const JsonValue *SpecC = V.field("spec_complete");
  const JsonValue *ImplC = V.field("impl_complete");
  const JsonValue *Cov = V.field("coverage");
  const JsonValue *IO = V.field("impl_outcomes");
  const JsonValue *SO = V.field("spec_outcomes");
  const JsonValue *Ob = V.field("obligations");
  const JsonValue *Sch = V.field("schedules");
  const JsonValue *St = V.field("states");
  const JsonValue *Cex = V.field("counterexample");
  const JsonValue *Corpus = V.field("corpus");
  if (!Holds || !Holds->isBool() || !SpecC || !SpecC->isBool() || !ImplC ||
      !ImplC->isBool() || !Cov || !Cov->isString() || !IO || !IO->IsInt ||
      !SO || !SO->IsInt || !Ob || !Ob->IsInt || !Sch || !Sch->IsInt ||
      !St || !St->IsInt || !Cex || !Cex->isString() ||
      (WithCorpus && (!Corpus || !cert::logsFromJson(*Corpus, R.Corpus))))
    return false;
  R.Holds = Holds->BoolVal;
  R.SpecComplete = SpecC->BoolVal;
  R.ImplComplete = ImplC->BoolVal;
  R.Coverage = Cov->StrVal;
  R.ImplOutcomes = static_cast<std::uint64_t>(IO->IntVal);
  R.SpecOutcomes = static_cast<std::uint64_t>(SO->IntVal);
  R.ObligationsChecked = static_cast<std::uint64_t>(Ob->IntVal);
  R.SchedulesExplored = static_cast<std::uint64_t>(Sch->IntVal);
  R.StatesExplored = static_cast<std::uint64_t>(St->IntVal);
  R.Counterexample = Cex->StrVal;
  return true;
}

ContextualRefinementReport ccal::checkContextualRefinement(
    MachineConfigPtr Impl, MachineConfigPtr Spec, const EventMap &R,
    const ExploreOptions &ImplOpts, const ExploreOptions &SpecOpts) {
  obs::Span CheckSpan("refine.check", "refine");

  auto Check = [&] {
    ExploreOptions Collect = ImplOpts;
    Collect.CollectCorpus = true;
    ContextualRefinementReport Report = checkRefinement(
        MultiCoreMachine(Impl), MultiCoreMachine(Spec), &R, nullptr,
        std::move(Collect), SpecOpts, ContextualRefinementWording);
    detail::publishRefinementMetrics(Report, "refine.checks");
    return Report;
  };

  // Load-or-recheck front-end.  Uncacheable checks — store disabled, or
  // an anonymous invariant the key cannot see — run exactly as before.
  cert::CertStore *Store = cert::store();
  if (!Store || !cert::cacheableOptions(ImplOpts) ||
      !cert::cacheableOptions(SpecOpts))
    return Check();

  cert::CertKey Key;
  Key.Checker = "refine";
  Key.Version = RefineCheckerVersion;
  Key.Desc = Impl->Name + " refines " + Spec->Name + " via " + R.name();
  Hasher H;
  cert::keyAddMachineConfig(H, *Impl);
  cert::keyAddMachineConfig(H, *Spec);
  H.str(R.name());
  cert::keyAddExploreOptions(H, ImplOpts);
  cert::keyAddExploreOptions(H, SpecOpts);
  Key.Hash = H.value();

  ContextualRefinementReport Report;
  bool Hit = Store->getOrCheck(
      Key,
      [&](const cert::CertStore::Entry &E) {
        return refinementFromPayload(E.Payload, Report, /*WithCorpus=*/true);
      },
      [&] {
        Report = Check();
        cert::CertStore::Entry Out;
        Out.Cert = makeMachineCertificate("Soundness", Impl->Layer->name(),
                                          Impl->Name, Spec->Layer->name(),
                                          R, Report);
        Out.Payload = refinementToPayload(Report, /*WithCorpus=*/true);
        return Out;
      });
  // A hit re-runs nothing: only the check-happened counter moves, never
  // the exploration counters (which is what the warm-cache CI asserts).
  if (Hit && obs::enabled())
    obs::counterAdd("refine.checks", 1);
  return Report;
}

CertPtr ccal::makeMachineCertificate(
    const std::string &Rule, const std::string &Underlay,
    const std::string &Module, const std::string &Overlay, const EventMap &R,
    const ContextualRefinementReport &Report) {
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = Rule;
  C->Underlay = Underlay;
  C->Module = Module;
  C->Overlay = Overlay;
  C->Relation = R.name();
  // Belt and braces: the checker already refuses Holds on a truncated
  // sweep, but a certificate must be impossible to mint Valid from one
  // even if a future checker forgets.
  C->CoverageComplete = Report.SpecComplete && Report.ImplComplete;
  C->Coverage = Report.Coverage;
  C->Valid = Report.Holds && C->CoverageComplete;
  C->Obligations = Report.ObligationsChecked;
  C->Runs = Report.SchedulesExplored;
  C->Moves = Report.StatesExplored;
  if (!Report.Holds)
    C->Notes.push_back(Report.Counterexample);
  return C;
}
