/// \file plan_verifier.hpp
/// \brief Static analysis over the `LogicalPlan` IR: proves, or refutes
/// with actionable diagnostics, the invariants the optimizer, placement
/// pass and serving layer all lean on.
///
/// Eight layers of rewrites (pushdown across joins and fan-outs, fusion,
/// CSE, placement cuts, prefix merging) mean a subtly malformed plan can
/// otherwise surface only as wrong rows or a TSan hit much later. The
/// verifier derives each operator's input schema once, through the
/// lowering step `CompilePlan` itself takes (`LowerNode`), and checks
/// each invariant right where it can still name the culprit:
///
///   - `structure`              — `CheckStructure`, the walk `Validate`
///                                runs: termination (waived mid-rewrite),
///                                fan-out arity, KeyBy consumption,
///                                window aggregates; one finding per node
///   - `schema-derivation`      — every operator lowers against the schema
///                                reaching it (emitted by the facts walk)
///   - `field-provenance`       — every `ReferencedFields` read set,
///                                projection list, join/key/time field is
///                                resolvable at that point in the DAG
///   - `window-wellformed`      — window/CEP key and time fields exist and
///                                carry time-typed values; sizes positive;
///                                aggregates name real input fields
///   - `placement-soundness`    — fully annotated once placed, monotone
///                                edge→cloud along every path (no node
///                                revisits, no cloud→edge backhops), routes
///                                exist, sinks off the edge
///   - `merge-safety`           — shared-prefix plans carry only
///                                `ExpressionMergeSafe` expressions and
///                                merge-safe operator payloads
///   - `branch-schema-coherence`— every attached sink's declared schema
///                                equals the schema its leaf derives
///
/// Diagnostics carry the rule, the failing operator's DAG path and
/// placement annotation (rendered like `Explain`'s `@nodeN`), and the
/// verifier's error status appends the plan rendering — so a verify-each
/// failure reads like an LLVM `-verify-each` report: which pass, which
/// operator, what broke.

#pragma once

#include <string>

#include "nebula/logical_plan.hpp"

namespace nebulameos::nebula::analysis {

/// \brief Inputs a verification runs under (beyond the plan itself).
struct VerifyContext {
  /// Placement routes are resolved against this when set; null skips the
  /// route/node-kind checks (structural placement checks still run).
  const Topology* topology = nullptr;
  /// The plan is (or is about to become) a shared-host prefix: the
  /// structure walk runs in `ChainTermination::kSharedPrefix` mode (the
  /// gate `SubmitShared` applies), and every operator must additionally
  /// be merge-safe.
  bool shared_prefix = false;
  /// The plan is mid-construction (rewrite boundaries): leaf chains may
  /// still be waiting for their sinks (`SetLeafSinks`), so termination is
  /// not required — every other structural invariant still is.
  bool allow_unterminated = false;
};

/// \brief Derives the plan's facts once and runs the checks above in a
/// fixed order. OK when nothing fires; otherwise `FailedPrecondition`
/// listing every diagnostic, one per line as
/// `[rule] root chain op #1 -> Filter(...)  @node2: message` (a finding
/// with no node to name reads `[rule] plan: message`), with the plan
/// rendering appended.
Status VerifyPlan(const LogicalPlan& plan, const VerifyContext& ctx = {});

/// \brief True when every expression \p op carries is `ExpressionMergeSafe`
/// and its payload has provable cross-query identity (the sharing gate the
/// serving layer applies before merging prefixes; fan-outs and sinks are
/// never merge material). When false and \p why is non-null, \p why names
/// the offending payload.
bool OperatorMergeSafe(const LogicalOperator& op, std::string* why = nullptr);

}  // namespace nebulameos::nebula::analysis
