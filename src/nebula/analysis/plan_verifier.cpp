#include "nebula/analysis/plan_verifier.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <variant>
#include <vector>

namespace nebulameos::nebula::analysis {

namespace {

using Kind = LogicalOperator::Kind;
using Chain = std::vector<LogicalOperatorPtr>;

// One verifier finding, addressable enough to act on.
struct Diagnostic {
  std::string rule;     ///< check that fired ("field-provenance", ...)
  std::string path;     ///< DAG path of the chain ("" = root chain)
  size_t index = 0;     ///< operator position within that chain
  std::string op;       ///< `LogicalOperator::ToString()` of the culprit
  int placement = LogicalOperator::kUnplaced;  ///< its `@node` annotation
  std::string message;  ///< what is violated, in plan vocabulary

  /// The path/placement vocabulary `LogicalPlan::Explain` renders.
  std::string ToString() const {
    std::string out = "[" + rule + "] ";
    if (op.empty()) return out + "plan: " + message;
    out += path.empty() ? "root chain" : "branch '" + path + "'";
    out += " op #" + std::to_string(index) + " -> " + op;
    if (placement != LogicalOperator::kUnplaced) {
      out += "  @node" + std::to_string(placement);
    }
    return out + ": " + message;
  }
};

// The facts every check reads, derived once per verification: every
// operator in DFS order with its DAG path, chain index, the schema
// entering it and the KeyBy field pending as it is reached. Schemas
// derive through `LowerNode`, the step `CompilePlan` lowers each node
// with, so the verifier accepts precisely the plans that lower; its
// refusals become `schema-derivation` diagnostics, and the nodes
// downstream of one carry a null input schema that schema-dependent
// checks skip.
struct PlanFacts {
  struct Node {
    const LogicalOperator* op = nullptr;
    std::string path;
    size_t index = 0;
    const Schema* input = nullptr;  ///< schema entering; null = unknown
    std::string pending_key;        ///< KeyBy field awaiting its consumer
  };

  explicit PlanFacts(const LogicalPlan& p) : plan(p) {
    Walk(p.ops(), "",
         p.source() != nullptr ? Intern(p.source()->schema()) : nullptr);
  }

  const LogicalPlan& plan;
  std::vector<Node> nodes;
  std::vector<Diagnostic> derivation_diags;

 private:
  const Schema* Intern(Schema schema) {
    schemas_.push_back(std::make_unique<Schema>(std::move(schema)));
    return schemas_.back().get();
  }

  void Walk(const Chain& ops, const std::string& path, const Schema* input);

  /// Owns derived schemas; unique_ptr keeps `Node::input` stable.
  std::vector<std::unique_ptr<Schema>> schemas_;
};

Diagnostic MakeDiag(std::string rule, const PlanFacts::Node& node,
                    std::string message) {
  Diagnostic d;
  d.rule = std::move(rule);
  d.path = node.path;
  d.index = node.index;
  d.op = node.op->ToString();
  d.placement = node.op->placement();
  d.message = std::move(message);
  return d;
}

Diagnostic PlanLevelDiag(std::string rule, std::string message) {
  Diagnostic d;
  d.rule = std::move(rule);
  d.message = std::move(message);
  return d;
}

void PlanFacts::Walk(const Chain& ops, const std::string& path,
                     const Schema* input) {
  const Schema* current = input;
  std::string pending_key;
  for (size_t i = 0; i < ops.size(); ++i) {
    const LogicalOperator& op = *ops[i];
    nodes.push_back({&op, path, i, current, pending_key});
    if (current != nullptr) {  // else upstream derivation failed
      Result<OperatorPtr> lowered = LowerNode(op, *current, &pending_key);
      if (!lowered.ok()) {
        derivation_diags.push_back(MakeDiag(
            "schema-derivation", nodes.back(), lowered.status().message()));
        current = nullptr;
      } else if (*lowered != nullptr) {
        current = Intern((*lowered)->output_schema());
      }
    }
    if (op.kind() == Kind::kFanOut) {
      const auto& fan = static_cast<const FanOutNode&>(op);
      for (size_t b = 0; b < fan.branches().size(); ++b) {
        Walk(fan.branches()[b], DagBranchPath(path, b), current);
      }
    }
    // A fan-out or sink should end its chain; if the chain (illegally)
    // continues, keep walking with an unknown schema so the structure
    // rule sees, and can name, the trailing operators.
    if (op.kind() == Kind::kFanOut || op.kind() == Kind::kSink) {
      current = nullptr;
    }
  }
}

// Checks every field \p expr provably reads against \p input; unknown
// read sets (ad-hoc lambdas) are tolerated — the verifier proves what it
// can and stays conservative elsewhere.
void CheckExprFields(const ExprPtr& expr, const Schema& input,
                     const std::string& what, const PlanFacts::Node& node,
                     std::vector<Diagnostic>* out) {
  if (!expr) {
    out->push_back(
        MakeDiag("field-provenance", node, what + " is missing"));
    return;
  }
  std::vector<std::string> fields;
  if (!expr->ReferencedFields(&fields)) return;  // unprovable read set
  for (const std::string& name : fields) {
    if (!input.HasField(name)) {
      out->push_back(MakeDiag(
          "field-provenance", node,
          what + " references unknown field '" + name +
              "' — fields available here: " + input.ToString()));
    }
  }
}

// --- structure ---------------------------------------------------------------

// `CheckStructure` in the mode the context asks for: termination required
// for a finished plan, waived mid-rewrite, and the `SubmitShared` gate (a
// pure operator chain) for a shared-host prefix.
void CheckStructureRule(const PlanFacts& facts, const VerifyContext& ctx,
                        std::vector<Diagnostic>* out) {
  const ChainTermination termination =
      ctx.shared_prefix        ? ChainTermination::kSharedPrefix
      : ctx.allow_unterminated ? ChainTermination::kWaived
                               : ChainTermination::kRequired;
  if (termination == ChainTermination::kRequired &&
      facts.plan.source() == nullptr) {
    out->push_back(PlanLevelDiag("structure", "plan has no source"));
  }
  for (const StructureFinding& finding :
       CheckStructure(facts.plan.ops(), termination)) {
    if (finding.op == nullptr) {  // an empty chain: no node to name
      out->push_back(
          PlanLevelDiag("structure", finding.ToStatus().message()));
      continue;
    }
    out->push_back(MakeDiag(
        "structure", {finding.op, finding.path, finding.index, nullptr, ""},
        finding.message));
  }
}

// --- field-provenance --------------------------------------------------------

void CheckFieldProvenance(const PlanFacts& facts,
                          std::vector<Diagnostic>* out) {
  for (const PlanFacts::Node& node : facts.nodes) {
    if (node.input == nullptr) continue;  // upstream derivation failed
    const Schema& in = *node.input;
    switch (node.op->kind()) {
      case Kind::kFilter:
        CheckExprFields(static_cast<const FilterNode&>(*node.op).predicate(),
                        in, "filter predicate", node, out);
        break;
      case Kind::kMap:
        for (const MapSpec& spec :
             static_cast<const MapNode&>(*node.op).specs()) {
          CheckExprFields(spec.expr, in, "map expr for '" + spec.name + "'",
                          node, out);
        }
        break;
      case Kind::kProject:
        for (const std::string& field :
             static_cast<const ProjectNode&>(*node.op).fields()) {
          if (!in.HasField(field)) {
            out->push_back(MakeDiag(
                "field-provenance", node,
                "projects unknown field '" + field +
                    "' — fields available here: " + in.ToString()));
          }
        }
        break;
      case Kind::kKeyBy: {
        const std::string& field =
            static_cast<const KeyByNode&>(*node.op).field();
        if (!in.HasField(field)) {
          out->push_back(MakeDiag(
              "field-provenance", node,
              "keys by unknown field '" + field +
                  "' — fields available here: " + in.ToString()));
        }
        break;
      }
      case Kind::kThresholdWindow:
        CheckExprFields(
            static_cast<const ThresholdWindowNode&>(*node.op)
                .options()
                .predicate,
            in, "threshold predicate", node, out);
        break;
      case Kind::kCep:
        for (const PatternStep& step :
             static_cast<const CepNode&>(*node.op).pattern().steps) {
          CheckExprFields(step.predicate, in,
                          "CEP step '" + step.name + "' predicate", node,
                          out);
        }
        break;
      case Kind::kLookupJoin: {
        const auto& opts =
            static_cast<const LookupJoinNode&>(*node.op).options();
        if (!opts.left_key.empty() && !in.HasField(opts.left_key)) {
          out->push_back(MakeDiag("field-provenance", node,
                                  "join left key '" + opts.left_key +
                                      "' not in probe schema: " +
                                      in.ToString()));
        }
        if (!opts.left_time.empty() && !in.HasField(opts.left_time)) {
          out->push_back(MakeDiag("field-provenance", node,
                                  "join left time '" + opts.left_time +
                                      "' not in probe schema: " +
                                      in.ToString()));
        }
        if (opts.lookup) {
          const Schema& right = opts.lookup->schema();
          if (!opts.right_key.empty() && !right.HasField(opts.right_key)) {
            out->push_back(MakeDiag("field-provenance", node,
                                    "join right key '" + opts.right_key +
                                        "' not in lookup schema: " +
                                        right.ToString()));
          }
          if (!opts.right_time.empty() &&
              !right.HasField(opts.right_time)) {
            out->push_back(MakeDiag("field-provenance", node,
                                    "join right time '" + opts.right_time +
                                        "' not in lookup schema: " +
                                        right.ToString()));
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

// --- window-wellformed -------------------------------------------------------

bool IsTimeType(DataType type) {
  return type == DataType::kTimestamp || type == DataType::kInt64;
}

void CheckKeyed(const std::string& key, const PlanFacts::Node& node,
                std::vector<Diagnostic>* out) {
  if (key.empty() || node.input->HasField(key)) return;
  out->push_back(MakeDiag("window-wellformed", node,
                          "keys by unknown field '" + key +
                              "' — fields available here: " +
                              node.input->ToString()));
}

void CheckTime(const std::string& time_field, const PlanFacts::Node& node,
               std::vector<Diagnostic>* out) {
  if (time_field.empty()) {
    out->push_back(
        MakeDiag("window-wellformed", node, "needs an event-time field"));
    return;
  }
  auto idx = node.input->IndexOf(time_field);
  if (!idx.ok()) {
    out->push_back(MakeDiag("window-wellformed", node,
                            "time field '" + time_field +
                                "' not in input — fields available here: " +
                                node.input->ToString()));
    return;
  }
  const DataType type = node.input->field(*idx).type;
  if (!IsTimeType(type)) {
    out->push_back(MakeDiag(
        "window-wellformed", node,
        "time field '" + time_field + "' has type " + DataTypeName(type) +
            " — event time must be TIMESTAMP or INT64 (MEOS faults on "
            "non-monotonic sequences, so ordering is a correctness "
            "invariant)"));
  }
}

void CheckAggregates(const std::vector<AggregateSpec>& aggs,
                     const PlanFacts::Node& node,
                     std::vector<Diagnostic>* out) {
  for (const AggregateSpec& spec : aggs) {
    if (spec.kind == AggKind::kCount && spec.field.empty()) continue;
    auto idx = node.input->IndexOf(spec.field);
    if (!idx.ok()) {
      out->push_back(MakeDiag(
          "window-wellformed", node,
          "aggregate '" + spec.output_name + "' over unknown field '" +
              spec.field + "' — fields available here: " +
              node.input->ToString()));
      continue;
    }
    const DataType type = node.input->field(*idx).type;
    if (!IsNumeric(type) && type != DataType::kBool) {
      out->push_back(MakeDiag("window-wellformed", node,
                              "aggregate '" + spec.output_name +
                                  "' over non-numeric field '" + spec.field +
                                  "' of type " + DataTypeName(type)));
    }
  }
}

void CheckSpec(const WindowSpec& spec, const PlanFacts::Node& node,
               std::vector<Diagnostic>* out) {
  if (const auto* tumbling = std::get_if<TumblingWindowSpec>(&spec)) {
    if (tumbling->size <= 0) {
      out->push_back(MakeDiag("window-wellformed", node,
                              "tumbling window size must be > 0"));
    }
  } else {
    const auto& sliding = std::get<SlidingWindowSpec>(spec);
    if (sliding.size <= 0 || sliding.slide <= 0) {
      out->push_back(MakeDiag("window-wellformed", node,
                              "sliding window size/slide must be > 0"));
    } else if (sliding.slide > sliding.size) {
      out->push_back(MakeDiag("window-wellformed", node,
                              "sliding window slide must be <= size"));
    }
  }
}

void CheckWindowWellformed(const PlanFacts& facts,
                           std::vector<Diagnostic>* out) {
  for (const PlanFacts::Node& node : facts.nodes) {
    if (node.input == nullptr) continue;
    // Empty, so unchecked, for every node but a keyed stateful one.
    CheckKeyed(FoldedKeyField(*node.op, node.pending_key), node, out);
    switch (node.op->kind()) {
      case Kind::kWindowAgg: {
        const auto& opts =
            static_cast<const WindowAggNode&>(*node.op).options();
        CheckTime(opts.time_field, node, out);
        CheckAggregates(opts.aggregates, node, out);
        CheckSpec(opts.window, node, out);
        break;
      }
      case Kind::kThresholdWindow: {
        const auto& opts =
            static_cast<const ThresholdWindowNode&>(*node.op).options();
        CheckTime(opts.time_field, node, out);
        CheckAggregates(opts.aggregates, node, out);
        if (!opts.predicate) {
          out->push_back(MakeDiag("window-wellformed", node,
                                  "threshold window needs a predicate"));
        }
        if (opts.min_duration < 0) {
          out->push_back(MakeDiag("window-wellformed", node,
                                  "threshold min_duration must be >= 0"));
        }
        break;
      }
      case Kind::kCep: {
        const auto& cep = static_cast<const CepNode&>(*node.op);
        const Pattern& pattern = cep.pattern();
        CheckTime(pattern.time_field, node, out);
        if (pattern.steps.empty()) {
          out->push_back(MakeDiag("window-wellformed", node,
                                  "pattern needs at least one step"));
        }
        if (pattern.within < 0) {
          out->push_back(MakeDiag("window-wellformed", node,
                                  "pattern 'within' must be >= 0"));
        }
        for (const Measure& m : cep.measures()) {
          const bool step_known = std::any_of(
              pattern.steps.begin(), pattern.steps.end(),
              [&m](const PatternStep& s) { return s.name == m.step; });
          if (!step_known) {
            out->push_back(MakeDiag(
                "window-wellformed", node,
                "measure '" + m.output_name +
                    "' references unknown step '" + m.step + "'"));
          }
          if (m.kind != MeasureKind::kCount &&
              !node.input->HasField(m.field)) {
            out->push_back(MakeDiag(
                "window-wellformed", node,
                "measure '" + m.output_name + "' over unknown field '" +
                    m.field + "' — fields available here: " +
                    node.input->ToString()));
          }
        }
        break;
      }
      default:
        break;
    }
  }
}

// --- placement-soundness -----------------------------------------------------

// True when `node_id` resolves to an edge worker (unknown ids resolve
// to "not edge": the route check reports those).
bool IsEdge(const Topology& topology, int node_id) {
  auto node = topology.GetNode(node_id);
  return node.ok() && node->kind == NodeKind::kEdgeWorker;
}

// Checks one chain whose input sits on topology node `current`, having
// left the nodes in `left`; recurses at a fan-out.
void CheckPlacementChain(const Chain& ops, const std::string& path,
                         int current, std::set<int> left,
                         const VerifyContext& ctx,
                         std::vector<Diagnostic>* out) {
  for (size_t i = 0; i < ops.size(); ++i) {
    const LogicalOperator& op = *ops[i];
    const PlanFacts::Node node{&op, path, i, nullptr, ""};
    const int target = op.placement();
    if (target == LogicalOperator::kUnplaced) {
      out->push_back(MakeDiag(
          "placement-soundness", node,
          "operator is unplaced inside a placed plan — `CompilePlan` "
          "would run it wherever the previous operator sits, silently"));
      continue;
    }
    if (target != current && current != LogicalOperator::kUnplaced) {
      if (left.count(target) != 0) {
        out->push_back(MakeDiag(
            "placement-soundness", node,
            "placement returns to node " + std::to_string(target) +
                " after the chain already left it — placement must be "
                "monotone along every path"));
      }
      if (ctx.topology != nullptr) {
        const Status route =
            ctx.topology->ShortestPath(current, target).status();
        if (!route.ok()) {
          out->push_back(MakeDiag(
              "placement-soundness", node,
              "no topology route from node " + std::to_string(current) +
                  " to node " + std::to_string(target) + ": " +
                  route.message()));
        }
        if (!IsEdge(*ctx.topology, current) &&
            IsEdge(*ctx.topology, target)) {
          out->push_back(MakeDiag(
              "placement-soundness", node,
              "placement moves from non-edge node " +
                  std::to_string(current) + " back to edge worker " +
                  std::to_string(target) +
                  " — the edge→cloud direction is one-way"));
        }
      }
      left.insert(current);
      current = target;
    } else if (current == LogicalOperator::kUnplaced) {
      current = target;
    }
    if (op.kind() == Kind::kSink && ctx.topology != nullptr &&
        IsEdge(*ctx.topology, target)) {
      out->push_back(MakeDiag(
          "placement-soundness", node,
          "sink is placed on edge worker " + std::to_string(target) +
              " — results must reach the operations center (cloud side)"));
    }
    if (op.kind() == Kind::kFanOut) {
      const auto& fan = static_cast<const FanOutNode&>(op);
      for (size_t b = 0; b < fan.branches().size(); ++b) {
        CheckPlacementChain(fan.branches()[b], DagBranchPath(path, b),
                            current, left, ctx, out);
      }
    }
  }
}

void CheckPlacementSoundness(const PlanFacts& facts, const VerifyContext& ctx,
                             std::vector<Diagnostic>* out) {
  const LogicalPlan& plan = facts.plan;
  if (!plan.IsPlaced()) return;  // unplaced plans have nothing to prove
  if (plan.source_placement() == LogicalOperator::kUnplaced) {
    out->push_back(PlanLevelDiag(
        "placement-soundness",
        "plan carries placement annotations but its source is unplaced — "
        "annotate the source node (the placement pass pins it to the "
        "edge worker)"));
  }
  CheckPlacementChain(plan.ops(), "", plan.source_placement(), {}, ctx, out);
}

// --- merge-safety ------------------------------------------------------------

void CheckMergeSafety(const PlanFacts& facts, const VerifyContext& ctx,
                      std::vector<Diagnostic>* out) {
  if (!ctx.shared_prefix) return;
  for (const PlanFacts::Node& node : facts.nodes) {
    std::string why;
    if (!OperatorMergeSafe(*node.op, &why)) {
      out->push_back(MakeDiag("merge-safety", node, why));
    }
  }
}

// --- branch-schema-coherence -------------------------------------------------

void CheckBranchSchemaCoherence(const PlanFacts& facts,
                                std::vector<Diagnostic>* out) {
  for (const PlanFacts::Node& node : facts.nodes) {
    if (node.op->kind() != Kind::kSink || node.input == nullptr) continue;
    const auto& sink = static_cast<const SinkNode&>(*node.op);
    if (!sink.sink()) {
      out->push_back(MakeDiag("branch-schema-coherence", node,
                              "sink node without a sink"));
      continue;
    }
    const Schema& declared = sink.sink()->output_schema();
    if (!(declared == *node.input)) {
      out->push_back(MakeDiag(
          "branch-schema-coherence", node,
          "sink expects (" + declared.ToString() +
              ") but its leaf derives (" + node.input->ToString() + ")"));
    }
  }
}

}  // namespace

// --- OperatorMergeSafe -------------------------------------------------------

bool OperatorMergeSafe(const LogicalOperator& op, std::string* why) {
  const auto fail = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  const auto check_expr = [&fail](const ExprPtr& expr,
                                  const std::string& what) {
    if (ExpressionMergeSafe(expr)) return true;
    return fail(what + " is not merge-safe: " +
                (expr ? expr->ToString() : std::string("<null>")) +
                " — only registered functions and pure operators carry "
                "provable cross-query semantics");
  };
  switch (op.kind()) {
    case Kind::kFilter:
      return check_expr(static_cast<const FilterNode&>(op).predicate(),
                        "filter predicate");
    case Kind::kMap:
      for (const MapSpec& spec : static_cast<const MapNode&>(op).specs()) {
        if (!check_expr(spec.expr, "map expr for '" + spec.name + "'")) {
          return false;
        }
      }
      return true;
    case Kind::kProject:
    case Kind::kKeyBy:
      return true;
    case Kind::kWindowAgg: {
      const WindowAggOptions& opts =
          static_cast<const WindowAggNode&>(op).options();
      if (!opts.custom_aggregators.empty()) {
        return fail(
            "custom aggregators are opaque callables with no provable "
            "cross-query identity");
      }
      return true;
    }
    case Kind::kThresholdWindow: {
      const ThresholdWindowOptions& opts =
          static_cast<const ThresholdWindowNode&>(op).options();
      if (!opts.custom_aggregators.empty()) {
        return fail(
            "custom aggregators are opaque callables with no provable "
            "cross-query identity");
      }
      return check_expr(opts.predicate, "threshold predicate");
    }
    case Kind::kCep:
      for (const PatternStep& step :
           static_cast<const CepNode&>(op).pattern().steps) {
        if (!check_expr(step.predicate,
                        "CEP step '" + step.name + "' predicate")) {
          return false;
        }
      }
      return true;
    case Kind::kLookupJoin:
      // Lookup sides compare by instance identity (StructurallyEqual), so
      // a shared lookup join is always a proven-identical join.
      return true;
    case Kind::kFanOut:
      return fail("fan-outs are per-client and never merge material");
    case Kind::kSink:
      return fail("sinks are per-client and never merge material");
  }
  return fail("unknown operator kind");
}

// --- VerifyPlan --------------------------------------------------------------

Status VerifyPlan(const LogicalPlan& plan, const VerifyContext& ctx) {
  const PlanFacts facts(plan);
  std::vector<Diagnostic> diags = facts.derivation_diags;
  CheckStructureRule(facts, ctx, &diags);
  CheckFieldProvenance(facts, &diags);
  CheckWindowWellformed(facts, &diags);
  CheckPlacementSoundness(facts, ctx, &diags);
  CheckMergeSafety(facts, ctx, &diags);
  CheckBranchSchemaCoherence(facts, &diags);
  if (diags.empty()) return Status::OK();
  std::string msg = "plan verification failed (" +
                    std::to_string(diags.size()) + " diagnostic" +
                    (diags.size() == 1 ? "" : "s") + "):";
  for (const Diagnostic& d : diags) {
    msg += "\n  " + d.ToString();
  }
  msg += "\nplan:\n" + plan.Explain();
  return Status::FailedPrecondition(std::move(msg));
}

}  // namespace nebulameos::nebula::analysis
