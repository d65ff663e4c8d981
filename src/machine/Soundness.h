//===- machine/Soundness.h - Contextual refinement (Thm 2.2) ---*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The soundness theorem (Thm 2.2), checked executably: from
/// `L'[D] |-R M : L[D]`, for any client program P, every behavior (log) of
/// `P (+) M` over the underlay machine must have an R-related behavior of
/// P over the overlay machine, with the same client return values.
///
/// The implementation machine runs P *linked with* M (so M's functions are
/// code); the specification machine runs P with M's functions left as
/// `extern` — they remain Prim instructions bound to the overlay's atomic
/// primitives.  This is exactly the paper's picture, including the
/// compiler: both sides are CompCertX-compiled LAsm.
///
/// The paper states Thm 2.2, the multicore linking theorem (Thm 3.1) and
/// the multithreaded linking theorem (Thm 5.1) in one shape, contextual
/// refinement `[[P (+) M]] <=_R [[P]]`, and ccal checks all three with the
/// one outcome-inclusion checker below, checkRefinement:
///  - checkContextualRefinement (here): MultiCore impl and spec machines;
///  - checkMulticoreLinking (HardwareMachine.h): the instruction-level
///    hardware machine against the query-point layer machine `Lx86[D]`;
///  - checkThreadedRefinement (ThreadMachine.h): two multithreaded
///    machines, with an event map on each side.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_SOUNDNESS_H
#define CCAL_MACHINE_SOUNDNESS_H

#include "core/Certificate.h"
#include "core/Simulation.h"
#include "machine/Explorer.h"
#include "support/Json.h"

namespace ccal {

/// Outcome of a contextual refinement check between two machines.
struct ContextualRefinementReport {
  /// True only when every obligation held AND both explorations were
  /// exhaustive (SpecComplete && ImplComplete): a truncated sweep covers a
  /// prefix of the schedule space and discharges nothing.
  bool Holds = false;

  /// Whether each side's exploration ran to completion; when false, the
  /// Counterexample names the budget that truncated it.
  bool SpecComplete = false;
  bool ImplComplete = false;

  /// "exhaustive", or which budget truncated which side — recorded in the
  /// certificate so partial coverage is auditable.
  std::string Coverage;

  /// Distinct outcomes of each side; impl outcomes are counted as the
  /// matcher sees them, once per distinct outcome.
  std::uint64_t ImplOutcomes = 0;
  std::uint64_t SpecOutcomes = 0;
  std::uint64_t ObligationsChecked = 0; ///< impl outcomes matched
  std::uint64_t SchedulesExplored = 0;  ///< both sides together
  std::uint64_t StatesExplored = 0;     ///< both sides together
  std::string Counterexample;

  /// Logs gathered from the implementation exploration (for compat
  /// checks); only checkContextualRefinement collects them.
  std::vector<Log> Corpus;
};

/// How one check names its two sides in Coverage and Counterexample text
/// ("spec exploration truncated: ...", "hardware machine violation: ...").
struct RefinementWording {
  struct Side {
    const char *Machine;  ///< "<Machine> machine violation: ..."
    const char *Coverage; ///< "<Coverage> exploration truncated: ..."
    const char *Sweep;    ///< "<Sweep> exploration is incomplete (...): <Gap>"
    const char *Gap;
  };
  Side Spec, Impl;
  /// Text for an impl outcome no spec outcome matches, from its log and
  /// that log after the impl event map.
  std::string (*Mismatch)(const Log &ImplLog, const Log &Mapped);
};

/// The wordings of Thm 2.2, Thm 5.1 and Thm 3.1.
extern const RefinementWording ContextualRefinementWording,
    ThreadedRefinementWording, MulticoreLinkWording;

namespace detail {

/// Fails \p Report closed on one side's sweep that hit a violation or was
/// truncated: a capped spec outcome set would turn refining impl outcomes
/// into false counterexamples, and a truncated impl sweep matched only a
/// prefix of the schedules.  True when \p Res is usable.
bool acceptSweep(ContextualRefinementReport &Report, const ExploreResult &Res,
                 const RefinementWording::Side &S);

/// Publishes one check under the `refine.*` counters, \p CheckCounter
/// counting the check itself.
void publishRefinementMetrics(const ContextualRefinementReport &Report,
                              const char *CheckCounter);

} // namespace detail

/// The outcome-inclusion check behind all three theorems: explores
/// \p SpecRoot, then streams every outcome of \p ImplRoot through a matcher
/// that wants a spec outcome with the same client returns and the same log
/// after each side's event map (null: identity, no log copy).
///
/// When either side runs under the partial-order reduction its outcome
/// logs are canonical trace forms, so both sides' (mapped) logs are put in
/// canonical form over the SPEC machine's event footprints, or nothing
/// would match.  With honest spec footprints, logs with equal canonical
/// forms are observationally equivalent, so this never accepts an outcome
/// full comparison would reject.  ThreadedMachine's event footprints are
/// opaque, which makes canonical forms the logs themselves.
template <typename ImplM, typename SpecM>
ContextualRefinementReport
checkRefinement(const ImplM &ImplRoot, const SpecM &SpecRoot,
                const EventMap *RImpl, const EventMap *RSpec,
                GenericExploreOptions<ImplM> ImplOpts,
                const GenericExploreOptions<SpecM> &SpecOpts,
                const RefinementWording &W) {
  ContextualRefinementReport Report;
  ExploreResult SpecRes = [&] {
    obs::Span SpecSpan("refine.spec_explore", "refine");
    return exploreGeneric(SpecRoot, SpecOpts);
  }();
  Report.SpecComplete = detail::acceptSweep(Report, SpecRes, W.Spec);
  if (!Report.SpecComplete)
    return Report;

  const bool Canon = ImplOpts.Por || SpecOpts.Por;
  auto FootOfKind = [&SpecRoot](KindId Kind) {
    return SpecRoot.eventFootprint(Event(0, Kind));
  };
  // The log an outcome is matched by; called only when R or Canon is set.
  auto KeyLog = [&](const Log &L, const EventMap *R) {
    if (!Canon)
      return R->apply(L);
    return R ? canonicalizeLog(R->apply(L), FootOfKind)
             : canonicalizeLog(L, FootOfKind);
  };

  OutcomeSet SpecSet;
  for (Outcome &O : SpecRes.Outcomes) {
    if (RSpec || Canon)
      O.FinalLog = KeyLog(O.FinalLog, RSpec);
    SpecSet.insert(O);
  }

  // Stream implementation outcomes through the matcher instead of storing
  // them: large schedule spaces would not fit in memory otherwise.
  std::uint64_t ImplOutcomes = 0, Obligations = 0;
  ImplOpts.OnOutcome = [&](const Outcome &O) -> std::string {
    ++ImplOutcomes;
    const bool Match =
        RImpl || Canon
            ? SpecSet.contains(KeyLog(O.FinalLog, RImpl), O.Returns)
            : SpecSet.contains(O);
    if (!Match)
      return W.Mismatch(O.FinalLog,
                        RImpl ? RImpl->apply(O.FinalLog) : O.FinalLog);
    ++Obligations;
    return "";
  };
  ExploreResult ImplRes = [&] {
    obs::Span ImplSpan("refine.impl_explore", "refine");
    return exploreGeneric(ImplRoot, ImplOpts);
  }();
  Report.ImplOutcomes = ImplOutcomes;
  Report.SpecOutcomes = SpecRes.Outcomes.size();
  Report.SchedulesExplored =
      ImplRes.SchedulesExplored + SpecRes.SchedulesExplored;
  Report.StatesExplored = ImplRes.StatesExplored + SpecRes.StatesExplored;
  Report.ObligationsChecked = Obligations;
  Report.Corpus = std::move(ImplRes.Corpus);
  if (detail::acceptSweep(Report, ImplRes, W.Impl)) {
    Report.ImplComplete = Report.Holds = true;
    Report.Coverage = "exhaustive";
  }
  return Report;
}

/// Checks `[[Impl]] <=_R [[Spec]]`: every implementation outcome has a
/// specification outcome with the R-mapped log and equal client returns.
/// Collects the implementation corpus; goes through the certificate store
/// when one is configured.
ContextualRefinementReport
checkContextualRefinement(MachineConfigPtr Impl, MachineConfigPtr Spec,
                          const EventMap &R, const ExploreOptions &ImplOpts,
                          const ExploreOptions &SpecOpts);

/// Wraps a report into a certificate for the given rule name
/// ("Soundness", "MulticoreLink", "MultithreadLink", "LogLift", ...).
CertPtr makeMachineCertificate(const std::string &Rule,
                               const std::string &Underlay,
                               const std::string &Module,
                               const std::string &Overlay,
                               const EventMap &R,
                               const ContextualRefinementReport &Report);

/// The certificate-store payload of a report: its ten verdict and counter
/// fields, plus the implementation corpus when \p WithCorpus ("refine"
/// entries carry one; "link" entries, whose checks collect none, do not).
JsonValue refinementToPayload(const ContextualRefinementReport &R,
                              bool WithCorpus);

/// Inverse of refinementToPayload; false when a field is missing or has
/// the wrong type.
bool refinementFromPayload(const JsonValue &V, ContextualRefinementReport &R,
                           bool WithCorpus);

} // namespace ccal

#endif // CCAL_MACHINE_SOUNDNESS_H
