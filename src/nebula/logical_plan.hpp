/// \file logical_plan.hpp
/// \brief The first-class logical plan IR sitting between the fluent
/// `Query` builder and physical compilation.
///
/// Mirrors NebulaStream's layering (`nes-logical-operators` →
/// `nes-query-optimizer` → physical lowering): a query is first expressed
/// as a `LogicalPlan` — a DAG of `LogicalOperator` nodes rooted at one
/// source — which can be *inspected* (`Explain`), *validated* (`Validate`),
/// *rewritten* (optimizer.hpp) and only then *lowered* to physical
/// operators (`CompilePlan`). Nothing in the engine touches the builder;
/// `Query` is sugar that emits this IR.
///
/// A plan is a chain of operators that either terminates in one `SinkNode`
/// (a linear plan) or in a `FanOutNode` whose branches are themselves
/// chains with the same structure — so one ingest pipeline can feed
/// several sinks (alerting + archival) while the shared prefix executes
/// once. Branch chains are addressed by *DAG path*: "" is the shared
/// prefix, "0"/"1"/... the fan-out's branches, "1.0" a nested branch.

#pragma once

#include <optional>
#include <set>

#include "nebula/cep.hpp"
#include "nebula/join.hpp"
#include "nebula/operators.hpp"
#include "nebula/source.hpp"

namespace nebulameos::nebula {

/// \brief Base class of all logical plan nodes.
///
/// Nodes are pure descriptions — no schemas, no bound expressions, no
/// runtime state — so optimizer passes can reorder, merge and drop them
/// freely before lowering binds anything.
class LogicalOperator {
 public:
  enum class Kind {
    kFilter,
    kMap,
    kProject,
    kKeyBy,
    kWindowAgg,
    kThresholdWindow,
    kCep,
    kLookupJoin,
    kFanOut,
    kSink,
  };

  /// Placement annotation value meaning "not placed on any node".
  static constexpr int kUnplaced = -1;

  virtual ~LogicalOperator() = default;

  virtual Kind kind() const = 0;

  /// Display name ("Filter", "WindowAgg", ...).
  virtual std::string name() const = 0;

  /// One-line rendering used by `LogicalPlan::Explain`, e.g.
  /// "Filter((speed_kmh > limit_kmh))".
  virtual std::string ToString() const = 0;

  /// Target topology node of this operator (`kUnplaced` when the plan has
  /// not been placed). Written by the optimizer's placement pass (or the
  /// `Annotate*Placement` helpers); consumed by `CompilePlan`, which
  /// lowers every node transition along a chain to a network-channel
  /// operator pair.
  int placement() const { return placement_; }
  void set_placement(int node_id) { placement_ = node_id; }

 private:
  int placement_ = kUnplaced;
};

using LogicalOperatorPtr = std::unique_ptr<LogicalOperator>;

/// \brief Emits only records satisfying `predicate`.
class FilterNode : public LogicalOperator {
 public:
  explicit FilterNode(ExprPtr predicate) : predicate_(std::move(predicate)) {}

  Kind kind() const override { return Kind::kFilter; }
  std::string name() const override { return "Filter"; }
  std::string ToString() const override;

  const ExprPtr& predicate() const { return predicate_; }
  void set_predicate(ExprPtr p) { predicate_ = std::move(p); }

 private:
  ExprPtr predicate_;
};

/// \brief Adds or replaces computed fields. All specs evaluate against the
/// node's *input* record (specs never see each other's outputs).
class MapNode : public LogicalOperator {
 public:
  explicit MapNode(std::vector<MapSpec> specs) : specs_(std::move(specs)) {}

  Kind kind() const override { return Kind::kMap; }
  std::string name() const override { return "Map"; }
  std::string ToString() const override;

  const std::vector<MapSpec>& specs() const { return specs_; }
  std::vector<MapSpec>& mutable_specs() { return specs_; }

 private:
  std::vector<MapSpec> specs_;
};

/// \brief Keeps only the named fields, in order.
class ProjectNode : public LogicalOperator {
 public:
  explicit ProjectNode(std::vector<std::string> fields)
      : fields_(std::move(fields)) {}

  Kind kind() const override { return Kind::kProject; }
  std::string name() const override { return "Project"; }
  std::string ToString() const override;

  const std::vector<std::string>& fields() const { return fields_; }

 private:
  std::vector<std::string> fields_;
};

/// \brief Marks the partitioning key of the *next* node, which must be a
/// window aggregation or CEP step (enforced by `LogicalPlan::Validate`).
class KeyByNode : public LogicalOperator {
 public:
  explicit KeyByNode(std::string field) : field_(std::move(field)) {}

  Kind kind() const override { return Kind::kKeyBy; }
  std::string name() const override { return "KeyBy"; }
  std::string ToString() const override { return "KeyBy(" + field_ + ")"; }

  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

/// \brief Keyed time-window aggregation (tumbling or sliding).
class WindowAggNode : public LogicalOperator {
 public:
  explicit WindowAggNode(WindowAggOptions options)
      : options_(std::move(options)) {}

  Kind kind() const override { return Kind::kWindowAgg; }
  std::string name() const override { return "WindowAgg"; }
  std::string ToString() const override;

  const WindowAggOptions& options() const { return options_; }
  WindowAggOptions& mutable_options() { return options_; }

 private:
  WindowAggOptions options_;
};

/// \brief Keyed threshold-window aggregation.
class ThresholdWindowNode : public LogicalOperator {
 public:
  explicit ThresholdWindowNode(ThresholdWindowOptions options)
      : options_(std::move(options)) {}

  Kind kind() const override { return Kind::kThresholdWindow; }
  std::string name() const override { return "ThresholdWindow"; }
  std::string ToString() const override;

  const ThresholdWindowOptions& options() const { return options_; }
  ThresholdWindowOptions& mutable_options() { return options_; }

 private:
  ThresholdWindowOptions options_;
};

/// \brief CEP pattern detection.
class CepNode : public LogicalOperator {
 public:
  CepNode(Pattern pattern, std::vector<Measure> measures)
      : pattern_(std::move(pattern)), measures_(std::move(measures)) {}

  Kind kind() const override { return Kind::kCep; }
  std::string name() const override { return "CEP"; }
  std::string ToString() const override;

  const Pattern& pattern() const { return pattern_; }
  Pattern& mutable_pattern() { return pattern_; }
  const std::vector<Measure>& measures() const { return measures_; }

 private:
  Pattern pattern_;
  std::vector<Measure> measures_;
};

/// \brief Temporal lookup join against a bounded side stream.
class LookupJoinNode : public LogicalOperator {
 public:
  explicit LookupJoinNode(TemporalLookupJoinOptions options)
      : options_(std::move(options)) {}

  Kind kind() const override { return Kind::kLookupJoin; }
  std::string name() const override { return "TemporalLookupJoin"; }
  std::string ToString() const override;

  const TemporalLookupJoinOptions& options() const { return options_; }

  /// Field provenance: every output field name the *right* (lookup) side
  /// can provide. Each right payload field lands in the output either
  /// under its own name or, on collision with a left field, under
  /// `collision_prefix + name` — collision resolution needs the left
  /// schema, which the logical IR does not carry, so both candidates are
  /// reported. Any output field outside this set therefore provably comes
  /// from the probe side unchanged, which is what predicate pushdown
  /// needs: a filter reading only such fields commutes with the (inner)
  /// join. `nullopt` when the lookup source is absent (unknowable).
  std::optional<std::set<std::string>> RightProvidedFields() const {
    if (!options_.lookup) return std::nullopt;
    std::set<std::string> provided;
    for (const Field& field : options_.lookup->schema().fields()) {
      if (field.name == options_.right_key ||
          field.name == options_.right_time) {
        continue;  // represented by the left key/time columns
      }
      provided.insert(field.name);
      provided.insert(options_.collision_prefix + field.name);
    }
    return provided;
  }

 private:
  TemporalLookupJoinOptions options_;
};

/// \brief Fans the stream out to several concurrent downstream branches.
///
/// The node is terminal within its own chain; each branch is a chain of
/// nodes with the same structure as the plan's top-level ops (ending in a
/// `SinkNode` or a nested `FanOutNode`). At runtime every branch sees the
/// full output of the shared upstream prefix, which executes once.
class FanOutNode : public LogicalOperator {
 public:
  /// One downstream chain.
  using Branch = std::vector<LogicalOperatorPtr>;

  explicit FanOutNode(std::vector<Branch> branches)
      : branches_(std::move(branches)) {}

  Kind kind() const override { return Kind::kFanOut; }
  std::string name() const override { return "FanOut"; }
  std::string ToString() const override {
    return "FanOut(" + std::to_string(branches_.size()) + " branches)";
  }

  const std::vector<Branch>& branches() const { return branches_; }
  std::vector<Branch>& mutable_branches() { return branches_; }

 private:
  std::vector<Branch> branches_;
};

/// \brief Terminal node holding the sink (shared so callers can read
/// results after the run).
class SinkNode : public LogicalOperator {
 public:
  explicit SinkNode(std::shared_ptr<SinkOperator> sink)
      : sink_(std::move(sink)) {}

  Kind kind() const override { return Kind::kSink; }
  std::string name() const override { return "Sink"; }
  std::string ToString() const override;

  const std::shared_ptr<SinkOperator>& sink() const { return sink_; }

 private:
  std::shared_ptr<SinkOperator> sink_;
};

/// The DAG path of branch \p index under \p parent ("" → "0", "1" →
/// "1.0") — the single addressing scheme shared by `CompiledPipeline`
/// paths, `QueryStats::operator_stats` keys, and the optimizer's
/// placement pass.
std::string DagBranchPath(const std::string& parent, size_t index);

// --- Plan-level structural identity ------------------------------------------

/// \brief Extends expression-level `StructurallyEqual` to plan nodes: true
/// when \p a and \p b are the same operator with semantically identical
/// configuration — same kind, same placement annotation, and per-kind
/// payload equality (predicates/specs by expression `StructurallyEqual`,
/// field lists verbatim, window/CEP options field by field). Conservative
/// where semantics cannot be proven: nodes carrying opaque callables
/// (custom window aggregators) or distinct sink/lookup-source instances
/// compare unequal. The serving layer uses this to find the longest shared
/// operator prefix across independently submitted plans.
bool StructurallyEqual(const LogicalOperator& a, const LogicalOperator& b);

/// \brief Hash consistent with plan-level `StructurallyEqual`: equal nodes
/// hash equal (the converse may not hold — callers bucket by hash and
/// confirm with `StructurallyEqual`, as the expression CSE does).
size_t StructuralHash(const LogicalOperator& op);

/// \brief Deep-copies a plan node (placement annotation included).
/// Expression trees are shared, not copied — they are immutable after
/// `Bind`, and `Bind` is idempotent for a fixed schema, so clones bound
/// against structurally identical inputs resolve identically. Returns
/// nullptr for nodes that cannot be cloned faithfully (custom window
/// aggregators' opaque factories could alias state; fan-outs clone only if
/// every nested node does). Sinks clone to a node *sharing* the same sink
/// instance.
LogicalOperatorPtr CloneOperator(const LogicalOperator& op);

// --- Plan-lowering rules -----------------------------------------------------
//
// Each rule below is kept once and shared by `CompilePlan`, `Validate`,
// the engine's shared-host entry points and the plan verifier, so the
// verifier derives exactly what the compiler lowers.

/// \brief What a structural walk requires of the end of each chain.
enum class ChainTermination {
  /// Every chain ends in a sink or a fan-out: a finished plan.
  kRequired,
  /// Chains may end anywhere: a plan mid-rewrite, whose sinks attach
  /// later. A trailing `KeyBy` may still be awaiting its window.
  kWaived,
  /// A shared-host prefix: termination is waived, and no sink or fan-out
  /// may appear anywhere (consumers attach as branches).
  kSharedPrefix,
};

/// \brief One structural defect, addressed like a verifier diagnostic.
struct StructureFinding {
  /// The culprit node; null when the finding is about an empty chain.
  const LogicalOperator* op = nullptr;
  std::string path;   ///< DAG path of the culprit's chain ("" = root)
  size_t index = 0;   ///< the culprit's position in that chain
  std::string message;

  /// `InvalidArgument` carrying the message, tagged " (branch <path>)"
  /// off the root chain: the status `Validate` returns.
  Status ToStatus() const;
};

/// \brief The one structural walk over \p chain and every fan-out branch
/// below it, returning each finding in DFS order:
/// - the chain ends in a sink or a fan-out (per \p termination);
/// - sinks and fan-outs are terminal in their chain, sinks are non-null,
///   and fan-outs have >= 2 non-empty branches;
/// - every `KeyBy` names a field and is immediately consumed by a window
///   or CEP node (a dangling key is a hard error, not a silent drop);
/// - window nodes carry at least one aggregate (i.e. the builder's
///   `Aggregate` was called).
std::vector<StructureFinding> CheckStructure(
    const std::vector<LogicalOperatorPtr>& chain,
    ChainTermination termination);

/// \brief The key a keyed stateful node (window aggregation, threshold
/// window, CEP) partitions its state by once \p pending_key, the field of
/// a `KeyBy` immediately before it (empty when none), folds in. A KeyBy
/// wins over a window's own `key_field`; a CEP pattern's own `key_field`
/// wins over a KeyBy. Empty for every other node and for global windows.
std::string FoldedKeyField(const LogicalOperator& node,
                           const std::string& pending_key);

/// \brief The one lowering step: builds the interpreted physical operator
/// of \p node bound against \p input. `CompilePlan` takes it for every
/// node a fused kernel run does not absorb, and the plan verifier takes it
/// to derive each node's schema.
///
/// A `KeyBy` lowers to nullptr and sets \p pending_key; the next window or
/// CEP node consumes it (`FoldedKeyField`) and clears it. While a key is
/// pending, any other node, a second `KeyBy` included, is refused. Fan-out
/// and sink nodes lower to nullptr: the compiler recurses into the
/// branches and hands the sink to the engine.
Result<OperatorPtr> LowerNode(const LogicalOperator& node, const Schema& input,
                              std::string* pending_key);

/// \brief A complete logical query: source → operator DAG → sink(s).
///
/// Move-only (owns its source). The ops vector is the root chain; a
/// trailing `FanOutNode` makes the plan a DAG whose branches are the
/// fan-out's chains. Rewriter passes mutate `mutable_ops` (and recurse
/// into fan-out branches).
class LogicalPlan {
 public:
  LogicalPlan() = default;
  LogicalPlan(LogicalPlan&&) = default;
  LogicalPlan& operator=(LogicalPlan&&) = default;
  LogicalPlan(const LogicalPlan&) = delete;
  LogicalPlan& operator=(const LogicalPlan&) = delete;

  // --- Construction ---

  void SetSource(SourcePtr source) { source_ = std::move(source); }
  void Append(LogicalOperatorPtr op) { ops_.push_back(std::move(op)); }

  /// Attaches \p sink as the terminal node of the root chain (replaces an
  /// existing one). Linear plans only — fan-out plans attach sinks per
  /// branch (`SetLeafSinks`, or `To` on each branch builder).
  void SetSink(std::shared_ptr<SinkOperator> sink);

  /// Attaches one sink per leaf chain in DAG-path order, replacing
  /// existing terminal sinks. Fails when the count does not match the
  /// number of leaves.
  Status SetLeafSinks(std::vector<std::shared_ptr<SinkOperator>> sinks);

  // --- Introspection ---

  Source* source() const { return source_.get(); }
  SourcePtr TakeSource() { return std::move(source_); }
  const std::vector<LogicalOperatorPtr>& ops() const { return ops_; }
  std::vector<LogicalOperatorPtr>& mutable_ops() { return ops_; }

  /// Topology node the source runs on (`LogicalOperator::kUnplaced` when
  /// the plan is not placed). Sensors sit on the edge device, so the
  /// placement pass pins this to the edge worker.
  int source_placement() const { return source_placement_; }
  void set_source_placement(int node_id) { source_placement_ = node_id; }

  /// True when the plan contains a `FanOutNode` (multi-sink DAG).
  bool HasFanOut() const;

  /// True when the plan carries any placement annotation (source or
  /// operator). Placement is tied to the exact plan shape it was
  /// computed for, so the engine submits placed plans verbatim instead
  /// of re-running the rewriter over them.
  bool IsPlaced() const;

  /// Number of leaf chains (1 for a linear plan).
  size_t NumLeaves() const;

  /// The sink when a single `SinkNode` terminates a linear plan, nullptr
  /// otherwise (no sink yet, or the plan fans out).
  std::shared_ptr<SinkOperator> sink() const;

  /// Every terminal sink in DAG-path order with its path ("" for a linear
  /// plan). Leaves without a sink are skipped.
  std::vector<std::pair<std::string, std::shared_ptr<SinkOperator>>> Sinks()
      const;

  /// Structural validation, before any schema is known: a source is
  /// present, and `CheckStructure` with termination required finds
  /// nothing. Returns the first finding (`StructureFinding::ToStatus`).
  Status Validate() const;

  /// Textual rendering of the plan, one node per line. Linear plans render
  /// as a chain; fan-out plans render as a tree with the shared prefix
  /// annotated:
  ///
  /// ```
  /// Source: MemorySource(key:INT64, ts:TIMESTAMP, value:DOUBLE)
  ///   -> Filter((value >= 5))  [shared]
  ///   -> FanOut(2 branches)
  ///      [branch 0]
  ///      -> Project(value, key)
  ///      -> Sink(CollectSink)
  ///      [branch 1]
  ///      -> Sink(CountingSink)
  /// ```
  std::string Explain() const;

  /// Schema of the records entering the sink of a *linear* plan, inferred
  /// by lowering the chain against the source's schema (binding only —
  /// cheap, and the source is not consumed). Fails on fan-out plans; use
  /// `OutputSchemas`.
  Result<Schema> OutputSchema() const;

  /// Schema at every leaf, paired with its DAG path, in path order.
  /// Works for plans whose leaves do not have sinks attached yet.
  Result<std::vector<std::pair<std::string, Schema>>> OutputSchemas() const;

 private:
  SourcePtr source_;
  std::vector<LogicalOperatorPtr> ops_;
  int source_placement_ = LogicalOperator::kUnplaced;
};

/// \brief The physical form of one plan segment: a lowered operator chain
/// followed by either a sink (leaf) or several downstream branches
/// (fan-out). `path` addresses the segment in the DAG ("" for the shared
/// prefix, "0"/"1"/... for branches, "1.0" for nested fan-outs).
struct CompiledPipeline {
  std::vector<OperatorPtr> operators;
  std::shared_ptr<SinkOperator> sink;      ///< non-null at a sink leaf
  std::vector<CompiledPipeline> branches;  ///< non-empty at a fan-out
  Schema output_schema;                    ///< schema after `operators`
  std::string path;
  /// Network channels lowered into this segment (one per node transition
  /// along the chain, in chain order). The engine aggregates these into
  /// the measured `DeploymentReport`.
  std::vector<std::shared_ptr<NetworkChannel>> channels;
  /// Partitioned-parallel suffix: when `CompileOptions::partitions > 1`
  /// and the chain reaches a keyed stateful node whose downstream suffix
  /// qualifies, the suffix is compiled once per partition here instead of
  /// into `operators`. Each clone owns disjoint keyed state; the engine
  /// routes rows by hashing the key field (below) into a selection vector
  /// per partition. All clones share the chain's terminal sink and carry
  /// the same `path`, so per-path stats sum across clones. Mutually
  /// exclusive with `branches` / a non-null `sink` on this segment.
  std::vector<CompiledPipeline> partitions;
  size_t partition_key_index = 0;  ///< key field in `operators`' output
  DataType partition_key_type = DataType::kInt64;
};

/// \brief Physical lowering configuration.
struct CompileOptions {
  /// Lower maximal Filter→Map→Project runs (within one placement segment)
  /// whose expressions compile to batch kernels into a single fused
  /// `exec::BatchKernelOperator` pass. Nodes whose expressions refuse to
  /// compile fall back to the interpreted operators; false interprets
  /// everything, each tree as written — the reference the compiled
  /// kernels are checked against, and the A/B benchmarking switch.
  bool compiled_kernels = true;
  /// Compile the suffix hanging off each qualifying keyed stateful node
  /// (window aggregation, threshold window, CEP) this many times, one
  /// clone per hash partition of the key (`CompiledPipeline::partitions`).
  /// 1 (the default) compiles everything into a single sequential chain.
  /// Suffixes containing fan-outs, joins, a second keyed stateful node,
  /// or placement transitions stay sequential — their state or channel
  /// ordering is not per-key-disjoint.
  size_t partitions = 1;
  /// Fault-tolerance configuration applied to every channel this compile
  /// lowers: `faults.profile` combines with the per-link profiles along
  /// each channel's route, `faults.retry` configures the retransmit queue
  /// and reorder-repair buffer of every channel pair (fault.hpp).
  FaultToleranceOptions faults = {};
};

/// \brief Lowers a validated plan to its physical pipeline tree (schemas
/// propagate source → sinks; expressions bind along the way). Every node a
/// fused kernel run does not absorb lowers through `LowerNode`, which
/// folds `KeyBy` nodes into the node they precede; sink nodes become
/// `CompiledPipeline::sink` (the engine drives them separately). The
/// plan's source is *not* consumed.
///
/// When \p topology is non-null and the plan carries placement
/// annotations, every transition between differently-placed neighbours
/// lowers to a `NetworkChannelSink`/`NetworkChannelSource` pair over a
/// `NetworkChannel` connecting the two nodes (multi-hop routes resolve
/// through the topology) — the executable form of the paper's edge/cloud
/// split. A null \p topology ignores annotations and compiles the plan
/// for single-node execution.
Result<CompiledPipeline> CompilePlan(const Schema& source_schema,
                                     const LogicalPlan& plan,
                                     const Topology* topology = nullptr,
                                     const CompileOptions& options = {});

/// \brief Lowers a placement transition from \p from_node to \p to_node:
/// a `NetworkChannelSink`/`NetworkChannelSource` pair sharing one channel,
/// appended to \p pipe so every record of \p schema crossing the boundary
/// travels as a serialized wire frame over the (possibly multi-hop)
/// route. The channel arms \p ft's fault profile (combined with the
/// route's link profiles) and retry/repair policy. `CompilePlan` lowers
/// every transition of a placed plan this way, and a shared host its
/// delivery channel.
Status LowerTransition(const Topology& topology, int from_node, int to_node,
                       const Schema& schema, const FaultToleranceOptions& ft,
                       CompiledPipeline* pipe);

}  // namespace nebulameos::nebula
