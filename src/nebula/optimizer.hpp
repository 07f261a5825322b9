/// \file optimizer.hpp
/// \brief The logical plan optimizer: a pipeline of rewrite passes over
/// `LogicalPlan` run before physical lowering.
///
/// Mirrors NebulaStream's `nes-query-optimizer` layer: each pass is a
/// small, independently testable plan-to-plan rewrite, and the
/// `PlanRewriter` drives them to a fixpoint. All rewrites are
/// dependency-sound: they consult `Expression::ReferencedFields` and leave
/// nodes in place whenever an expression's read set cannot be proven
/// (extension expressions that don't report their reads are never moved
/// across a producer).
///
/// Built-in passes (`PlanRewriter::Default` runs all five, in this order;
/// `OptimizerOptions::enable`, reachable via `EngineOptions::optimizer`,
/// switches the pipeline off as a whole):
///
/// * **constant folding** — constant expression subtrees pre-evaluate into
///   literals (`Mul(Lit(3.6), Lit(2))` → `7.2`) and always-true filters
///   disappear;
/// * **predicate pushdown** — filters move below adjacent maps that do not
///   feed them and below projections, so rows are dropped before compute
///   and narrowing work is spent on them;
/// * **filter fusion** — adjacent filters AND-combine into one operator
///   (one pipeline stage and one stats node instead of two);
/// * **map fusion** — adjacent independent maps merge into one `Map` with
///   the union of their specs (single buffer pass);
/// * **projection pushdown** — the projection's field set is pushed into
///   the map below it, deleting computed fields the query never outputs,
///   and adjacent projections collapse.
///
/// Every pass is DAG-aware: it rewrites the shared prefix and recurses
/// into each fan-out branch. Two rules act *across* the fan-out boundary:
/// predicate pushdown hoists a filter above a fan-out only when **every**
/// branch leads with a structurally identical filter (the shared prefix
/// then drops rows once instead of once per branch), and projection
/// pushdown narrows the shared prefix to the **union** of all branches'
/// leading projection demands (buffer copies per branch get cheaper while
/// each branch keeps its exact field set).

#pragma once

#include "nebula/logical_plan.hpp"

namespace nebulameos::nebula {

/// The default for `OptimizerOptions::verify_each`: the `NM_VERIFY_EACH`
/// environment variable when set ("1" on, "0" off), else on in Debug
/// builds (`!NDEBUG`) and off in Release. CI exports `NM_VERIFY_EACH=1`.
bool VerifyEachDefault();

/// \brief Optimizer configuration (a member of `EngineOptions`).
struct OptimizerOptions {
  /// Run the built-in passes; false submits plans verbatim (A/B
  /// benchmarking, debugging, plans whose exact shape a test pins).
  bool enable = true;
  /// LLVM-style verify-each: run the plan verifier
  /// (analysis/plan_verifier.hpp) after every rewrite pass that changed
  /// the plan — a pass that breaks an invariant then fails at its own
  /// boundary, named — and again at Submit/SubmitShared over plans and
  /// compiled pipelines. Defaults per `VerifyEachDefault()`.
  bool verify_each = VerifyEachDefault();
};

/// \brief One plan rewrite. Implementations must preserve query semantics
/// for every valid plan they are given.
class RewritePass {
 public:
  virtual ~RewritePass() = default;

  /// Display name ("predicate-pushdown", ...).
  virtual std::string name() const = 0;

  /// Applies the pass once over the whole plan; sets \p *changed to true
  /// when the plan was modified.
  virtual Status Apply(LogicalPlan* plan, bool* changed) = 0;
};

using RewritePassPtr = std::unique_ptr<RewritePass>;

/// Pre-evaluates constant expression subtrees into literals and removes
/// filters whose predicate folds to `true`.
RewritePassPtr MakeConstantFoldingPass();
/// Moves filters earlier past maps that don't feed them and past
/// projections; hoists a filter shared by every fan-out branch into the
/// shared prefix.
RewritePassPtr MakePredicatePushdownPass();
/// AND-combines adjacent filters.
RewritePassPtr MakeFilterFusionPass();
/// Merges adjacent independent maps into one.
RewritePassPtr MakeMapFusionPass();
/// Collapses adjacent projections and deletes map outputs the following
/// projection drops; narrows the prefix above a fan-out to the union of
/// the branches' leading projection demands.
RewritePassPtr MakeProjectionPushdownPass();

/// \brief Inputs of the placement pass: the topology to place onto and
/// the measured flow of a prior run of the *same* (already-optimized)
/// plan shape.
struct PlacementPassOptions {
  /// Topology to place onto (non-owning; must outlive the pass). A route
  /// from `edge_node` to `cloud_node` must exist (multi-hop allowed).
  const Topology* topology = nullptr;
  int edge_node = 0;   ///< node running the source (sensors on the train)
  int cloud_node = 0;  ///< node running the sinks (operations center)
  /// Measured per-operator flow (`QueryStats::operator_stats`): path-keyed
  /// operator names in depth-first pipeline order, from a prior run of a
  /// structurally identical plan.
  std::vector<std::pair<std::string, OperatorStats>> measured;
  /// Bytes the source produced in that run (`QueryStats::bytes_ingested`).
  uint64_t source_bytes = 0;
};

/// \brief The per-branch placement pass: one edge→cloud cut per DAG path,
/// the decision NebulaStream's incremental query placement makes per
/// operator.
///
/// Annotates every `LogicalOperator` with a target node id: each
/// root-to-leaf path gets the edge→cloud cut that ships the fewest bytes
/// over the topology's cheapest edge→cloud route, weighted by measured
/// per-operator flow. A cut inside the shared prefix moves the fan-out
/// and every branch to the cloud (the stream crosses once); leaving the
/// prefix on the edge lets each branch cut independently — e.g. the
/// ingest prefix stays on the train while an archival aggregation branch
/// ships its (tiny) aggregates and an alerting branch ships filtered
/// alerts. Byte ties break toward the deepest cut (maximal pushdown).
/// Sinks always land on `cloud_node` — results must reach the operations
/// center. `CompilePlan` then lowers each annotated transition to a
/// network-channel pair.
///
/// Unlike the always-on rewrites, this pass needs runtime inputs (a
/// topology and measured stats), so it is not part of
/// `PlanRewriter::Default`; add it explicitly or `Apply` it directly.
RewritePassPtr MakePlacementPass(PlacementPassOptions options);

/// Annotates \p plan with the paper's full edge pushdown: source and
/// every operator on \p edge_node, sinks on \p cloud_node.
void AnnotateEdgePushdownPlacement(LogicalPlan* plan, int edge_node,
                                   int cloud_node);

/// Annotates \p plan with the ship-raw baseline: source on \p edge_node,
/// every operator and sink on \p cloud_node (the raw stream crosses the
/// uplink once, before any processing).
void AnnotateCloudPlacement(LogicalPlan* plan, int edge_node, int cloud_node);

/// \brief The pass pipeline. Runs its passes in registration order,
/// repeating the whole pipeline until no pass reports a change (at most
/// eight times).
class PlanRewriter {
 public:
  PlanRewriter() = default;
  PlanRewriter(PlanRewriter&&) = default;
  PlanRewriter& operator=(PlanRewriter&&) = default;

  /// The five built-in passes, or an empty, no-op rewriter when
  /// `options.enable` is false; verify-each follows `options.verify_each`.
  static PlanRewriter Default(const OptimizerOptions& options = {});

  /// Appends a pass; returns *this for chaining.
  PlanRewriter& AddPass(RewritePassPtr pass);

  /// Rewrites \p plan in place to a fixpoint. With verify-each on, the
  /// plan verifier runs after every pass application that reported a
  /// change; a violation fails the rewrite with the pass's name.
  Status Rewrite(LogicalPlan* plan) const;

  size_t NumPasses() const { return passes_.size(); }

  /// Toggles verify-each for this rewriter (set from
  /// `OptimizerOptions::verify_each` by `Default`).
  PlanRewriter& SetVerifyEach(bool on) {
    verify_each_ = on;
    return *this;
  }

 private:
  std::vector<RewritePassPtr> passes_;
  bool verify_each_ = false;
};

}  // namespace nebulameos::nebula
