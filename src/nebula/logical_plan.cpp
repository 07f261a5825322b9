#include "nebula/logical_plan.hpp"

#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "nebula/exec/kernels.hpp"

namespace nebulameos::nebula {

namespace {

// Durations render in the largest unit that divides them evenly.
std::string FormatDurationText(Duration d) {
  if (d >= Minutes(1) && d % Minutes(1) == 0) {
    return std::to_string(d / Minutes(1)) + "m";
  }
  if (d >= Seconds(1) && d % Seconds(1) == 0) {
    return std::to_string(d / Seconds(1)) + "s";
  }
  return std::to_string(d) + "us";
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kFirst:
      return "first";
    case AggKind::kLast:
      return "last";
  }
  return "?";
}

std::string FormatAggregates(
    const std::vector<AggregateSpec>& aggs,
    const std::vector<CustomAggregatorFactory>& customs) {
  std::string out = "[";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggKindName(aggs[i].kind);
    out += "(" + aggs[i].field + ") AS " + aggs[i].output_name;
  }
  out += "]";
  if (!customs.empty()) {
    out += " +" + std::to_string(customs.size()) + " custom";
  }
  return out;
}

std::string FormatWindowSpec(const WindowSpec& spec) {
  if (const auto* t = std::get_if<TumblingWindowSpec>(&spec)) {
    return "tumbling " + FormatDurationText(t->size);
  }
  const auto& s = std::get<SlidingWindowSpec>(spec);
  return "sliding " + FormatDurationText(s.size) + " by " +
         FormatDurationText(s.slide);
}

}  // namespace

std::string FilterNode::ToString() const {
  return "Filter(" + (predicate_ ? predicate_->ToString() : "<null>") + ")";
}

std::string MapNode::ToString() const {
  std::string out = "Map(";
  for (size_t i = 0; i < specs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += specs_[i].name + " := " +
           (specs_[i].expr ? specs_[i].expr->ToString() : "<null>");
  }
  return out + ")";
}

std::string ProjectNode::ToString() const {
  std::string out = "Project(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields_[i];
  }
  return out + ")";
}

std::string WindowAggNode::ToString() const {
  std::string out = "WindowAgg(" + FormatWindowSpec(options_.window);
  if (!options_.key_field.empty()) out += ", key=" + options_.key_field;
  out += ", time=" + options_.time_field;
  out += ", aggs=" +
         FormatAggregates(options_.aggregates, options_.custom_aggregators);
  return out + ")";
}

std::string ThresholdWindowNode::ToString() const {
  std::string out = "ThresholdWindow(";
  out += options_.predicate ? options_.predicate->ToString() : "<null>";
  if (options_.min_duration > 0) {
    out += ", min=" + FormatDurationText(options_.min_duration);
  }
  if (!options_.key_field.empty()) out += ", key=" + options_.key_field;
  out += ", time=" + options_.time_field;
  out += ", aggs=" +
         FormatAggregates(options_.aggregates, options_.custom_aggregators);
  return out + ")";
}

std::string CepNode::ToString() const {
  std::string out = "CEP(";
  for (size_t i = 0; i < pattern_.steps.size(); ++i) {
    const PatternStep& step = pattern_.steps[i];
    if (i > 0) out += " ; ";
    if (step.negated) out += "!";
    out += step.name;
    if (step.one_or_more) out += "+";
  }
  if (pattern_.within > 0) {
    out += " within " + FormatDurationText(pattern_.within);
  }
  if (!pattern_.key_field.empty()) out += ", key=" + pattern_.key_field;
  out += ", " + std::to_string(measures_.size()) + " measures";
  return out + ")";
}

std::string LookupJoinNode::ToString() const {
  std::string out = "TemporalLookupJoin(";
  out += options_.left_key + " = " + options_.right_key;
  out += ", nearest " + options_.left_time + "~" + options_.right_time;
  if (options_.max_age > 0) {
    out += " within " + FormatDurationText(options_.max_age);
  }
  return out + ")";
}

std::string SinkNode::ToString() const {
  return "Sink(" + (sink_ ? sink_->name() : "<null>") + ")";
}

std::string DagBranchPath(const std::string& parent, size_t index) {
  return parent.empty() ? std::to_string(index)
                        : parent + "." + std::to_string(index);
}

// --- Plan-level structural identity ------------------------------------------

namespace {

bool AggregatesEqual(const std::vector<AggregateSpec>& a,
                     const std::vector<AggregateSpec>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].field != b[i].field ||
        a[i].output_name != b[i].output_name) {
      return false;
    }
  }
  return true;
}

bool MeasuresEqual(const std::vector<Measure>& a,
                   const std::vector<Measure>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].step != b[i].step ||
        a[i].field != b[i].field || a[i].output_name != b[i].output_name) {
      return false;
    }
  }
  return true;
}

bool WindowSpecEqual(const WindowSpec& a, const WindowSpec& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ta = std::get_if<TumblingWindowSpec>(&a)) {
    return ta->size == std::get<TumblingWindowSpec>(b).size;
  }
  const auto& sa = std::get<SlidingWindowSpec>(a);
  const auto& sb = std::get<SlidingWindowSpec>(b);
  return sa.size == sb.size && sa.slide == sb.slide;
}

bool PatternsEqual(const Pattern& a, const Pattern& b) {
  if (a.steps.size() != b.steps.size() || a.within != b.within ||
      a.key_field != b.key_field || a.time_field != b.time_field ||
      a.suppress_duplicate_starts != b.suppress_duplicate_starts) {
    return false;
  }
  for (size_t i = 0; i < a.steps.size(); ++i) {
    const PatternStep& sa = a.steps[i];
    const PatternStep& sb = b.steps[i];
    if (sa.name != sb.name || sa.negated != sb.negated ||
        sa.one_or_more != sb.one_or_more ||
        !StructurallyEqual(sa.predicate, sb.predicate)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool StructurallyEqual(const LogicalOperator& a, const LogicalOperator& b) {
  if (&a == &b) return true;
  if (a.kind() != b.kind() || a.placement() != b.placement()) return false;
  switch (a.kind()) {
    case LogicalOperator::Kind::kFilter: {
      const auto& fa = static_cast<const FilterNode&>(a);
      const auto& fb = static_cast<const FilterNode&>(b);
      return StructurallyEqual(fa.predicate(), fb.predicate());
    }
    case LogicalOperator::Kind::kMap: {
      const auto& ma = static_cast<const MapNode&>(a);
      const auto& mb = static_cast<const MapNode&>(b);
      if (ma.specs().size() != mb.specs().size()) return false;
      for (size_t i = 0; i < ma.specs().size(); ++i) {
        if (ma.specs()[i].name != mb.specs()[i].name ||
            !StructurallyEqual(ma.specs()[i].expr, mb.specs()[i].expr)) {
          return false;
        }
      }
      return true;
    }
    case LogicalOperator::Kind::kProject:
      return static_cast<const ProjectNode&>(a).fields() ==
             static_cast<const ProjectNode&>(b).fields();
    case LogicalOperator::Kind::kKeyBy:
      return static_cast<const KeyByNode&>(a).field() ==
             static_cast<const KeyByNode&>(b).field();
    case LogicalOperator::Kind::kWindowAgg: {
      const auto& wa = static_cast<const WindowAggNode&>(a).options();
      const auto& wb = static_cast<const WindowAggNode&>(b).options();
      // Custom aggregators are opaque callables — two factories cannot be
      // proven equivalent, so any custom aggregate blocks equality.
      if (!wa.custom_aggregators.empty() || !wb.custom_aggregators.empty()) {
        return false;
      }
      return wa.key_field == wb.key_field && wa.time_field == wb.time_field &&
             wa.allowed_lateness == wb.allowed_lateness &&
             WindowSpecEqual(wa.window, wb.window) &&
             AggregatesEqual(wa.aggregates, wb.aggregates);
    }
    case LogicalOperator::Kind::kThresholdWindow: {
      const auto& ta = static_cast<const ThresholdWindowNode&>(a).options();
      const auto& tb = static_cast<const ThresholdWindowNode&>(b).options();
      if (!ta.custom_aggregators.empty() || !tb.custom_aggregators.empty()) {
        return false;
      }
      return ta.min_duration == tb.min_duration &&
             ta.key_field == tb.key_field && ta.time_field == tb.time_field &&
             StructurallyEqual(ta.predicate, tb.predicate) &&
             AggregatesEqual(ta.aggregates, tb.aggregates);
    }
    case LogicalOperator::Kind::kCep: {
      const auto& ca = static_cast<const CepNode&>(a);
      const auto& cb = static_cast<const CepNode&>(b);
      return PatternsEqual(ca.pattern(), cb.pattern()) &&
             MeasuresEqual(ca.measures(), cb.measures());
    }
    case LogicalOperator::Kind::kLookupJoin: {
      const auto& ja = static_cast<const LookupJoinNode&>(a).options();
      const auto& jb = static_cast<const LookupJoinNode&>(b).options();
      // The lookup side is an arbitrary Source — only instance identity
      // proves the two joins probe the same data.
      return ja.lookup == jb.lookup && ja.left_key == jb.left_key &&
             ja.right_key == jb.right_key && ja.left_time == jb.left_time &&
             ja.right_time == jb.right_time && ja.max_age == jb.max_age &&
             ja.collision_prefix == jb.collision_prefix;
    }
    case LogicalOperator::Kind::kFanOut: {
      const auto& fa = static_cast<const FanOutNode&>(a);
      const auto& fb = static_cast<const FanOutNode&>(b);
      if (fa.branches().size() != fb.branches().size()) return false;
      for (size_t i = 0; i < fa.branches().size(); ++i) {
        const auto& ba = fa.branches()[i];
        const auto& bb = fb.branches()[i];
        if (ba.size() != bb.size()) return false;
        for (size_t j = 0; j < ba.size(); ++j) {
          if (!StructurallyEqual(*ba[j], *bb[j])) return false;
        }
      }
      return true;
    }
    case LogicalOperator::Kind::kSink:
      // Sinks are stateful endpoints owned by their submitter; two plans
      // share results only through the *same* sink instance.
      return static_cast<const SinkNode&>(a).sink() ==
             static_cast<const SinkNode&>(b).sink();
  }
  return false;
}

size_t StructuralHash(const LogicalOperator& op) {
  // ToString renders kind + payload (expressions render structurally);
  // placement is appended because Explain reports it separately. Equal
  // nodes render equal, so equal nodes hash equal; collisions are resolved
  // by callers via StructurallyEqual.
  std::string repr = op.ToString() + "@" + std::to_string(op.placement());
  if (op.kind() == LogicalOperator::Kind::kFanOut) {
    // FanOut renders only its branch count — fold in the nested chains.
    for (const auto& branch : static_cast<const FanOutNode&>(op).branches()) {
      for (const auto& node : branch) {
        repr += "|" + std::to_string(StructuralHash(*node));
      }
    }
  }
  return std::hash<std::string>{}(repr);
}

LogicalOperatorPtr CloneOperator(const LogicalOperator& op) {
  LogicalOperatorPtr clone;
  switch (op.kind()) {
    case LogicalOperator::Kind::kFilter:
      clone = std::make_unique<FilterNode>(
          static_cast<const FilterNode&>(op).predicate());
      break;
    case LogicalOperator::Kind::kMap:
      clone =
          std::make_unique<MapNode>(static_cast<const MapNode&>(op).specs());
      break;
    case LogicalOperator::Kind::kProject:
      clone = std::make_unique<ProjectNode>(
          static_cast<const ProjectNode&>(op).fields());
      break;
    case LogicalOperator::Kind::kKeyBy:
      clone = std::make_unique<KeyByNode>(
          static_cast<const KeyByNode&>(op).field());
      break;
    case LogicalOperator::Kind::kWindowAgg: {
      const auto& options = static_cast<const WindowAggNode&>(op).options();
      // A custom-aggregator factory may close over shared state; a clone
      // aliasing it could double-fold. Refuse rather than guess.
      if (!options.custom_aggregators.empty()) return nullptr;
      clone = std::make_unique<WindowAggNode>(options);
      break;
    }
    case LogicalOperator::Kind::kThresholdWindow: {
      const auto& options =
          static_cast<const ThresholdWindowNode&>(op).options();
      if (!options.custom_aggregators.empty()) return nullptr;
      clone = std::make_unique<ThresholdWindowNode>(options);
      break;
    }
    case LogicalOperator::Kind::kCep: {
      const auto& cep = static_cast<const CepNode&>(op);
      clone = std::make_unique<CepNode>(cep.pattern(), cep.measures());
      break;
    }
    case LogicalOperator::Kind::kLookupJoin:
      clone = std::make_unique<LookupJoinNode>(
          static_cast<const LookupJoinNode&>(op).options());
      break;
    case LogicalOperator::Kind::kFanOut: {
      std::vector<FanOutNode::Branch> branches;
      for (const auto& branch :
           static_cast<const FanOutNode&>(op).branches()) {
        FanOutNode::Branch cloned;
        for (const auto& node : branch) {
          LogicalOperatorPtr c = CloneOperator(*node);
          if (c == nullptr) return nullptr;
          cloned.push_back(std::move(c));
        }
        branches.push_back(std::move(cloned));
      }
      clone = std::make_unique<FanOutNode>(std::move(branches));
      break;
    }
    case LogicalOperator::Kind::kSink:
      clone = std::make_unique<SinkNode>(
          static_cast<const SinkNode&>(op).sink());
      break;
  }
  if (clone != nullptr) clone->set_placement(op.placement());
  return clone;
}

namespace {

using Chain = std::vector<LogicalOperatorPtr>;

// Local alias keeping the traversal helpers terse.
std::string BranchPath(const std::string& parent, size_t i) {
  return DagBranchPath(parent, i);
}

// Depth-first visit of every leaf chain (a chain not ending in a fan-out),
// carrying its DAG path. Returns false to stop early. Templated on the
// chain's constness so read-only traversals (NumLeaves, Sinks) stay const
// all the way down.
template <typename ChainT, typename Fn>
bool ForEachLeafChain(ChainT& chain, const std::string& path, const Fn& fn) {
  if (!chain.empty() &&
      chain.back()->kind() == LogicalOperator::Kind::kFanOut) {
    if constexpr (std::is_const_v<ChainT>) {
      const auto& fan = static_cast<const FanOutNode&>(*chain.back());
      const auto& branches = fan.branches();
      for (size_t i = 0; i < branches.size(); ++i) {
        if (!ForEachLeafChain(branches[i], BranchPath(path, i), fn)) {
          return false;
        }
      }
    } else {
      auto& fan = static_cast<FanOutNode&>(*chain.back());
      auto& branches = fan.mutable_branches();
      for (size_t i = 0; i < branches.size(); ++i) {
        if (!ForEachLeafChain(branches[i], BranchPath(path, i), fn)) {
          return false;
        }
      }
    }
    return true;
  }
  return fn(chain, path);
}

bool IsTerminal(LogicalOperator::Kind kind) {
  return kind == LogicalOperator::Kind::kSink ||
         kind == LogicalOperator::Kind::kFanOut;
}

bool ConsumesKey(LogicalOperator::Kind kind) {
  return kind == LogicalOperator::Kind::kWindowAgg ||
         kind == LogicalOperator::Kind::kThresholdWindow ||
         kind == LogicalOperator::Kind::kCep;
}

// `CheckStructure` over one chain at `path`, recursing at a fan-out.
void CheckChain(const Chain& ops, const std::string& path,
                ChainTermination termination,
                std::vector<StructureFinding>* out) {
  const bool required = termination == ChainTermination::kRequired;
  const auto add = [&](size_t i, std::string message) {
    out->push_back({ops[i].get(), path, i, std::move(message)});
  };
  if (required && ops.empty()) {
    out->push_back({nullptr, path, 0, "plan has no sink"});
  } else if (required && !IsTerminal(ops.back()->kind())) {
    add(ops.size() - 1, "plan has no sink");
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const LogicalOperator& op = *ops[i];
    const bool last = i + 1 == ops.size();
    if (termination == ChainTermination::kSharedPrefix &&
        IsTerminal(op.kind())) {
      add(i,
          "a shared-host prefix must be a pure operator chain — sinks and "
          "fan-outs are per-client and attach as branches");
    }
    switch (op.kind()) {
      case LogicalOperator::Kind::kSink:
        if (!last) add(i, "sink must be the terminal node of its chain");
        if (static_cast<const SinkNode&>(op).sink() == nullptr) {
          add(i, "plan has a null sink");
        }
        break;
      case LogicalOperator::Kind::kFanOut: {
        if (!last) add(i, "fan-out must be the terminal node of its chain");
        const auto& branches = static_cast<const FanOutNode&>(op).branches();
        if (branches.size() < 2) add(i, "fan-out needs at least two branches");
        // With termination required, an empty branch is a chain without
        // a sink, which the recursion reports.
        for (size_t b = 0; b < branches.size() && !required; ++b) {
          if (branches[b].empty()) {
            add(i, "fan-out branch " + std::to_string(b) + " is empty");
          }
        }
        for (size_t b = 0; b < branches.size(); ++b) {
          CheckChain(branches[b], BranchPath(path, b), termination, out);
        }
        break;
      }
      case LogicalOperator::Kind::kKeyBy: {
        const std::string& field = static_cast<const KeyByNode&>(op).field();
        if (field.empty()) add(i, "KeyBy with an empty field");
        // Once termination is waived, a trailing KeyBy may still be
        // awaiting its window; an interior unconsumed one never is.
        if (last ? required : !ConsumesKey(ops[i + 1]->kind())) {
          add(i, "KeyBy(" + field +
                     ") is never consumed: it must be immediately followed "
                     "by a window aggregation or CEP step");
        }
        break;
      }
      case LogicalOperator::Kind::kWindowAgg: {
        const auto& opts = static_cast<const WindowAggNode&>(op).options();
        if (opts.aggregates.empty() && opts.custom_aggregators.empty()) {
          add(i, "window aggregation without aggregates (missing Aggregate?)");
        }
        break;
      }
      case LogicalOperator::Kind::kThresholdWindow: {
        const auto& opts =
            static_cast<const ThresholdWindowNode&>(op).options();
        if (opts.aggregates.empty() && opts.custom_aggregators.empty()) {
          add(i, "threshold window without aggregates (missing Aggregate?)");
        }
        break;
      }
      default:
        break;
    }
  }
}

// Renders one chain. `indent` prefixes every line; nodes of a chain that
// ends in a fan-out are annotated as the shared prefix of its branches;
// placed nodes show their target topology node.
void ExplainChain(const Chain& ops, const std::string& indent,
                  const std::string& path, std::string* out) {
  const bool fans_out =
      !ops.empty() && ops.back()->kind() == LogicalOperator::Kind::kFanOut;
  for (const LogicalOperatorPtr& op : ops) {
    *out += indent + "-> " + op->ToString();
    if (op->placement() != LogicalOperator::kUnplaced) {
      *out += "  @node" + std::to_string(op->placement());
    }
    if (fans_out && op->kind() != LogicalOperator::Kind::kFanOut) {
      *out += "  [shared]";
    }
    *out += "\n";
    if (op->kind() == LogicalOperator::Kind::kFanOut) {
      const auto& fan = static_cast<const FanOutNode&>(*op);
      for (size_t b = 0; b < fan.branches().size(); ++b) {
        const std::string branch_path = BranchPath(path, b);
        *out += indent + "   [branch " + branch_path + "]\n";
        ExplainChain(fan.branches()[b], indent + "   ", branch_path, out);
      }
    }
  }
}

// True when `node` runs on another topology node than `current_node`: a
// placement transition, which `CompileChain` lowers to a channel pair and
// which ends fused runs and partitionable suffixes. A KeyBy is a marker
// folded into its consumer, so it never moves the pipeline on its own.
// Without a topology, annotations are ignored.
bool MovesNode(const LogicalOperator& node, const Topology* topology,
               int current_node) {
  return topology != nullptr &&
         node.kind() != LogicalOperator::Kind::kKeyBy &&
         node.placement() != LogicalOperator::kUnplaced &&
         current_node != LogicalOperator::kUnplaced &&
         node.placement() != current_node;
}

// True when the chain suffix starting at the keyed stateful node at
// `begin` may run as per-key hash partitions: nothing downstream may
// merge keys (fan-out), hold non-key-partitioned state (lookup join),
// re-key (KeyBy or a second stateful node), or cross a placement
// boundary (a network channel's frame order is per-channel, not
// per-key).
bool SuffixPartitionable(const Chain& ops, size_t begin,
                         const Topology* topology, int current_node) {
  for (size_t i = begin; i < ops.size(); ++i) {
    const LogicalOperator& node = *ops[i];
    switch (node.kind()) {
      case LogicalOperator::Kind::kFanOut:
      case LogicalOperator::Kind::kLookupJoin:
      case LogicalOperator::Kind::kKeyBy:
        return false;
      case LogicalOperator::Kind::kWindowAgg:
      case LogicalOperator::Kind::kThresholdWindow:
      case LogicalOperator::Kind::kCep:
        if (i != begin) return false;
        break;
      default:
        break;
    }
    if (MovesNode(node, topology, current_node)) return false;
  }
  return true;
}

bool PartitionableKeyType(DataType type) {
  switch (type) {
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kText16:
    case DataType::kText32:
      return true;
    default:
      return false;
  }
}

// Kernel-level CSE rewrites for the fused run starting at ops[idx], keyed
// by op index so refused stages fall back to the *original* nodes.
struct FusedRunCse {
  std::map<size_t, ExprPtr> filter_predicates;
  std::map<size_t, std::vector<MapSpec>> map_specs;
  std::shared_ptr<exec::ColumnCache> cache;  ///< null = nothing shared
};

// Plans kernel-level CSE for one fused run: collects the expression roots
// that read the fields of the run's input under the same names — the
// predicates of the leading consecutive filters plus the computed fields
// of the map immediately after them (a map's specs read its input, not
// its own output) — and rewrites repeated subtrees to share one cached
// column. Every stage of a run reads the same input buffer's physical
// rows, but the scan still stops at any other node kind, the second map
// or a placement transition: a map may shadow a name, so structurally
// equal subtrees on either side of it need not be equal.
FusedRunCse PlanFusedRunCse(const Chain& ops, size_t idx,
                            const Topology* topology, int current_node) {
  FusedRunCse out;
  std::vector<ExprPtr> roots;
  std::vector<size_t> filter_indices;
  size_t map_index = ops.size();
  for (size_t i = idx; i < ops.size(); ++i) {
    const LogicalOperator& node = *ops[i];
    if (MovesNode(node, topology, current_node)) {
      break;  // fusion barrier: the run ends at the transition
    }
    if (node.kind() == LogicalOperator::Kind::kFilter) {
      filter_indices.push_back(i);
      roots.push_back(static_cast<const FilterNode&>(node).predicate());
      continue;
    }
    if (node.kind() == LogicalOperator::Kind::kMap) {
      map_index = i;
      for (const MapSpec& spec : static_cast<const MapNode&>(node).specs()) {
        roots.push_back(spec.expr);
      }
    }
    break;
  }
  if (roots.empty()) return out;
  KernelCsePlan plan = PlanKernelCse(std::move(roots));
  if (plan.num_shared == 0) return out;
  out.cache = std::move(plan.cache);
  size_t r = 0;
  for (size_t fi : filter_indices) {
    out.filter_predicates[fi] = std::move(plan.roots[r++]);
  }
  if (map_index < ops.size()) {
    std::vector<MapSpec> specs =
        static_cast<const MapNode&>(*ops[map_index]).specs();
    for (MapSpec& spec : specs) spec.expr = std::move(plan.roots[r++]);
    out.map_specs[map_index] = std::move(specs);
  }
  return out;
}

// Lowers one chain into `pipe` starting at node `begin`, recursing at a
// fan-out. `current` is the schema entering the chain at `begin`;
// `pending_key_in` seeds the folded KeyBy field (non-empty only when a
// partition clone re-enters the chain at its stateful node).
// `current_node` tracks which topology node the pipeline is on (kUnplaced
// for single-node compilation); when a placed node differs, the
// transition lowers to a channel pair first.
//
// With `copts.compiled_kernels` on, maximal runs of Filter/Map/Project
// nodes whose expressions lower to batch kernels fuse into one
// `exec::BatchKernelOperator`; a refused expression, any other node kind,
// or a placement transition ends the run and lowering continues with the
// interpreted operators.
//
// With `copts.partitions > 1`, reaching a keyed stateful node whose
// suffix qualifies (`SuffixPartitionable`) compiles that suffix once per
// partition into `pipe->partitions` (each clone re-entering this function
// with partitions = 1) and records the key's index and type for the
// engine's hash router.
Status CompileChain(const Chain& ops, size_t begin,
                    const std::string& pending_key_in,
                    const Schema& current_in, const std::string& path,
                    CompiledPipeline* pipe, const Topology* topology,
                    int current_node, const CompileOptions& copts) {
  Schema current = current_in;
  pipe->path = path;
  // A KeyBy node's field is folded into the node it precedes.
  std::string pending_key = pending_key_in;
  // The in-flight fused run (engaged while consecutive nodes absorb) and
  // its kernel-CSE rewrites (planned when the run opens).
  std::optional<exec::BatchKernelCompiler> fuser;
  FusedRunCse cse;
  const auto flush_fused = [&]() {
    if (!fuser.has_value()) return;
    if (fuser->num_stages() > 0) {
      OperatorPtr op = std::move(*fuser).Finish();
      current = op->output_schema();
      pipe->operators.push_back(std::move(op));
    }
    fuser.reset();
  };
  for (size_t idx = begin; idx < ops.size(); ++idx) {
    const LogicalOperator& node = *ops[idx];
    // Partitioned-parallel trigger: a qualifying keyed stateful node ends
    // this segment's sequential chain; its whole suffix (through the
    // sink) compiles once per partition. Checked before placement
    // lowering — a transition anywhere in the suffix disqualifies it, so
    // nothing is lowered twice.
    if (copts.partitions > 1) {
      const std::string key = FoldedKeyField(node, pending_key);
      if (!key.empty() && current.HasField(key) &&
          SuffixPartitionable(ops, idx, topology, current_node)) {
        NM_ASSIGN_OR_RETURN(const size_t key_index, current.IndexOf(key));
        const DataType key_type = current.field(key_index).type;
        if (PartitionableKeyType(key_type)) {
          flush_fused();
          CompileOptions sub = copts;
          sub.partitions = 1;
          for (size_t p = 0; p < copts.partitions; ++p) {
            CompiledPipeline part;
            // Clones keep this segment's path: their operators carry the
            // same stats keys and are summed per path by the engine.
            NM_RETURN_NOT_OK(CompileChain(ops, idx, pending_key, current,
                                          path, &part, topology,
                                          current_node, sub));
            pipe->partitions.push_back(std::move(part));
          }
          pipe->partition_key_index = key_index;
          pipe->partition_key_type = key_type;
          pipe->output_schema = current;
          return Status::OK();  // the suffix lives in the partitions
        }
      }
    }
    // Placement lowering. A transition is a fusion barrier: kernels never
    // span two placement segments.
    if (MovesNode(node, topology, current_node)) {
      flush_fused();
      NM_RETURN_NOT_OK(LowerTransition(*topology, current_node,
                                       node.placement(), current,
                                       copts.faults, pipe));
      current_node = node.placement();
    }
    if (copts.compiled_kernels && pending_key.empty()) {
      bool absorbed = false;
      // Opening a fresh run plans kernel-level CSE across its same-buffer
      // stages; a wrapper-carrying predicate/spec that still refuses to
      // compile falls back to the original node below (wrappers only wrap
      // compilation, so refusal behaviour is unchanged).
      const auto open_run = [&]() {
        if (fuser.has_value()) return;
        cse = PlanFusedRunCse(ops, idx, topology, current_node);
        fuser.emplace(current);
        if (cse.cache != nullptr) fuser->AttachCseCache(cse.cache);
      };
      switch (node.kind()) {
        case LogicalOperator::Kind::kFilter: {
          open_run();
          const auto rewritten = cse.filter_predicates.find(idx);
          absorbed = fuser->AddFilter(
              rewritten != cse.filter_predicates.end()
                  ? rewritten->second
                  : static_cast<const FilterNode&>(node).predicate());
          break;
        }
        case LogicalOperator::Kind::kMap: {
          open_run();
          const auto rewritten = cse.map_specs.find(idx);
          absorbed = fuser->AddMap(
              rewritten != cse.map_specs.end()
                  ? rewritten->second
                  : static_cast<const MapNode&>(node).specs());
          break;
        }
        case LogicalOperator::Kind::kProject: {
          if (!fuser.has_value()) fuser.emplace(current);
          absorbed = fuser->AddProject(
              static_cast<const ProjectNode&>(node).fields());
          break;
        }
        default:
          break;
      }
      if (absorbed) {
        current = fuser->current_schema();
        continue;
      }
    }
    // Not (or no longer) fusable: close the run before the interpreted
    // operator binds against the run's output schema.
    flush_fused();
    NM_ASSIGN_OR_RETURN(OperatorPtr op, LowerNode(node, current, &pending_key));
    if (op != nullptr) {
      current = op->output_schema();
      pipe->operators.push_back(std::move(op));
    } else if (node.kind() == LogicalOperator::Kind::kSink) {
      // The engine drives the sink; lowering stops here.
      pipe->sink = static_cast<const SinkNode&>(node).sink();
    } else if (node.kind() == LogicalOperator::Kind::kFanOut) {
      const auto& fan = static_cast<const FanOutNode&>(node);
      for (size_t b = 0; b < fan.branches().size(); ++b) {
        CompiledPipeline branch;
        NM_RETURN_NOT_OK(CompileChain(fan.branches()[b], 0, "", current,
                                      BranchPath(path, b), &branch, topology,
                                      current_node, copts));
        pipe->branches.push_back(std::move(branch));
      }
      pipe->output_schema = current;
      return Status::OK();  // fan-out terminates the chain
    }
  }
  if (!pending_key.empty()) {
    return Status::InvalidArgument(
        "KeyBy(" + pending_key + ") is never consumed");
  }
  flush_fused();
  pipe->output_schema = current;
  return Status::OK();
}

}  // namespace

Status StructureFinding::ToStatus() const {
  return Status::InvalidArgument(
      path.empty() ? message : message + " (branch " + path + ")");
}

std::vector<StructureFinding> CheckStructure(const Chain& chain,
                                             ChainTermination termination) {
  std::vector<StructureFinding> out;
  CheckChain(chain, "", termination, &out);
  return out;
}

std::string FoldedKeyField(const LogicalOperator& node,
                           const std::string& pending_key) {
  switch (node.kind()) {
    case LogicalOperator::Kind::kWindowAgg: {
      const auto& opts = static_cast<const WindowAggNode&>(node).options();
      return pending_key.empty() ? opts.key_field : pending_key;
    }
    case LogicalOperator::Kind::kThresholdWindow: {
      const auto& opts =
          static_cast<const ThresholdWindowNode&>(node).options();
      return pending_key.empty() ? opts.key_field : pending_key;
    }
    case LogicalOperator::Kind::kCep: {
      const auto& pattern = static_cast<const CepNode&>(node).pattern();
      return pattern.key_field.empty() ? pending_key : pattern.key_field;
    }
    default:
      return "";
  }
}

Result<OperatorPtr> LowerNode(const LogicalOperator& node, const Schema& input,
                              std::string* pending_key) {
  using Kind = LogicalOperator::Kind;
  if (!pending_key->empty() && !ConsumesKey(node.kind())) {
    const bool marker_or_end = node.kind() == Kind::kKeyBy ||
                               IsTerminal(node.kind());
    return Status::InvalidArgument(
        "KeyBy(" + *pending_key +
        (marker_or_end
             ? ") is never consumed"
             : ") must be immediately followed by a window or CEP step"));
  }
  const std::string key = FoldedKeyField(node, *pending_key);
  pending_key->clear();
  switch (node.kind()) {
    case Kind::kFilter:
      return FilterOperator::Make(
          input, static_cast<const FilterNode&>(node).predicate());
    case Kind::kMap:
      return MapOperator::Make(input,
                               static_cast<const MapNode&>(node).specs());
    case Kind::kProject:
      return ProjectOperator::Make(
          input, static_cast<const ProjectNode&>(node).fields());
    case Kind::kKeyBy:
      *pending_key = static_cast<const KeyByNode&>(node).field();
      return OperatorPtr();
    case Kind::kWindowAgg: {
      WindowAggOptions options =
          static_cast<const WindowAggNode&>(node).options();
      options.key_field = key;
      return WindowAggOperator::Make(input, std::move(options));
    }
    case Kind::kThresholdWindow: {
      ThresholdWindowOptions options =
          static_cast<const ThresholdWindowNode&>(node).options();
      options.key_field = key;
      return ThresholdWindowOperator::Make(input, std::move(options));
    }
    case Kind::kCep: {
      const auto& cep = static_cast<const CepNode&>(node);
      Pattern pattern = cep.pattern();
      pattern.key_field = key;
      return CepOperator::Make(input, std::move(pattern), cep.measures());
    }
    case Kind::kLookupJoin:
      return TemporalLookupJoinOperator::Make(
          input, static_cast<const LookupJoinNode&>(node).options());
    case Kind::kFanOut:
    case Kind::kSink:
      return OperatorPtr();
  }
  return Status::Internal("unknown logical operator kind");
}

Status LowerTransition(const Topology& topology, int from_node, int to_node,
                       const Schema& schema, const FaultToleranceOptions& ft,
                       CompiledPipeline* pipe) {
  NM_ASSIGN_OR_RETURN(std::shared_ptr<NetworkChannel> channel,
                      NetworkChannel::Connect(topology, from_node, to_node));
  channel->ConfigureFaults(ft.profile, ft.retry);
  NM_ASSIGN_OR_RETURN(OperatorPtr channel_sink,
                      NetworkChannelSink::Make(schema, channel));
  NM_ASSIGN_OR_RETURN(OperatorPtr channel_source,
                      NetworkChannelSource::Make(schema, channel));
  pipe->operators.push_back(std::move(channel_sink));
  pipe->operators.push_back(std::move(channel_source));
  pipe->channels.push_back(std::move(channel));
  return Status::OK();
}

void LogicalPlan::SetSink(std::shared_ptr<SinkOperator> sink) {
  if (!ops_.empty() && ops_.back()->kind() == LogicalOperator::Kind::kSink) {
    ops_.pop_back();
  }
  ops_.push_back(std::make_unique<SinkNode>(std::move(sink)));
}

Status LogicalPlan::SetLeafSinks(
    std::vector<std::shared_ptr<SinkOperator>> sinks) {
  // Validate the count before touching anything, so a mismatch leaves the
  // plan exactly as it was.
  if (sinks.size() != NumLeaves()) {
    return Status::InvalidArgument(
        "SetLeafSinks: " + std::to_string(sinks.size()) + " sinks for " +
        std::to_string(NumLeaves()) + " plan leaves");
  }
  size_t next = 0;
  ForEachLeafChain(ops_, "", [&](Chain& chain, const std::string&) {
    if (!chain.empty() &&
        chain.back()->kind() == LogicalOperator::Kind::kSink) {
      chain.pop_back();
    }
    chain.push_back(std::make_unique<SinkNode>(std::move(sinks[next++])));
    return true;
  });
  return Status::OK();
}

bool LogicalPlan::HasFanOut() const {
  return !ops_.empty() &&
         ops_.back()->kind() == LogicalOperator::Kind::kFanOut;
}

namespace {

bool AnyPlaced(const Chain& chain) {
  for (const LogicalOperatorPtr& op : chain) {
    if (op->placement() != LogicalOperator::kUnplaced) return true;
    if (op->kind() == LogicalOperator::Kind::kFanOut) {
      for (const Chain& branch :
           static_cast<const FanOutNode&>(*op).branches()) {
        if (AnyPlaced(branch)) return true;
      }
    }
  }
  return false;
}

}  // namespace

bool LogicalPlan::IsPlaced() const {
  return source_placement_ != LogicalOperator::kUnplaced || AnyPlaced(ops_);
}

size_t LogicalPlan::NumLeaves() const {
  size_t n = 0;
  ForEachLeafChain(std::as_const(ops_), "",
                   [&n](const Chain&, const std::string&) {
                     ++n;
                     return true;
                   });
  return n;
}

std::shared_ptr<SinkOperator> LogicalPlan::sink() const {
  if (ops_.empty() || ops_.back()->kind() != LogicalOperator::Kind::kSink) {
    return nullptr;
  }
  return static_cast<const SinkNode*>(ops_.back().get())->sink();
}

std::vector<std::pair<std::string, std::shared_ptr<SinkOperator>>>
LogicalPlan::Sinks() const {
  std::vector<std::pair<std::string, std::shared_ptr<SinkOperator>>> out;
  ForEachLeafChain(std::as_const(ops_), "",
                   [&out](const Chain& chain, const std::string& path) {
                     if (!chain.empty() &&
                         chain.back()->kind() ==
                             LogicalOperator::Kind::kSink) {
                       out.emplace_back(
                           path,
                           static_cast<const SinkNode&>(*chain.back()).sink());
                     }
                     return true;
                   });
  return out;
}

Status LogicalPlan::Validate() const {
  if (source_ == nullptr) {
    return Status::InvalidArgument("plan has no source");
  }
  const std::vector<StructureFinding> findings =
      CheckStructure(ops_, ChainTermination::kRequired);
  return findings.empty() ? Status::OK() : findings.front().ToStatus();
}

std::string LogicalPlan::Explain() const {
  std::string out = "Source: ";
  if (source_ != nullptr) {
    out += source_->name() + "(" + source_->schema().ToString() + ")";
  } else {
    out += "<none>";
  }
  if (source_placement_ != LogicalOperator::kUnplaced) {
    out += "  @node" + std::to_string(source_placement_);
  }
  out += "\n";
  ExplainChain(ops_, "  ", "", &out);
  return out;
}

Result<Schema> LogicalPlan::OutputSchema() const {
  if (HasFanOut()) {
    return Status::InvalidArgument(
        "plan fans out to several sinks; use OutputSchemas()");
  }
  if (source_ == nullptr) {
    return Status::InvalidArgument("plan has no source");
  }
  NM_ASSIGN_OR_RETURN(CompiledPipeline pipe,
                      CompilePlan(source_->schema(), *this));
  return pipe.output_schema;
}

Result<std::vector<std::pair<std::string, Schema>>>
LogicalPlan::OutputSchemas() const {
  if (source_ == nullptr) {
    return Status::InvalidArgument("plan has no source");
  }
  NM_ASSIGN_OR_RETURN(CompiledPipeline root,
                      CompilePlan(source_->schema(), *this));
  std::vector<std::pair<std::string, Schema>> out;
  const std::function<void(const CompiledPipeline&)> collect =
      [&](const CompiledPipeline& pipe) {
        if (pipe.branches.empty()) {
          out.emplace_back(pipe.path, pipe.output_schema);
          return;
        }
        for (const CompiledPipeline& branch : pipe.branches) collect(branch);
      };
  collect(root);
  return out;
}

Result<CompiledPipeline> CompilePlan(const Schema& source_schema,
                                     const LogicalPlan& plan,
                                     const Topology* topology,
                                     const CompileOptions& options) {
  CompiledPipeline root;
  NM_RETURN_NOT_OK(CompileChain(plan.ops(), 0, "", source_schema, "", &root,
                                topology, plan.source_placement(), options));
  return root;
}

}  // namespace nebulameos::nebula
