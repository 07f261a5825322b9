#include "nebula/optimizer.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "nebula/analysis/plan_verifier.hpp"

namespace nebulameos::nebula {

namespace {

using Chain = std::vector<LogicalOperatorPtr>;

// The read set of an expression, or nullopt when it cannot be proven
// (treat as "reads everything": never move the node across a producer).
std::optional<std::set<std::string>> ReadSetOf(const ExprPtr& expr) {
  if (!expr) return std::nullopt;
  std::vector<std::string> fields;
  if (!expr->ReferencedFields(&fields)) return std::nullopt;
  return std::set<std::string>(fields.begin(), fields.end());
}

std::set<std::string> WrittenNamesOf(const MapNode& map) {
  std::set<std::string> names;
  for (const MapSpec& spec : map.specs()) names.insert(spec.name);
  return names;
}

bool Disjoint(const std::set<std::string>& a, const std::set<std::string>& b) {
  return std::none_of(a.begin(), a.end(),
                      [&b](const std::string& x) { return b.count(x) != 0; });
}

bool IsSubset(const std::set<std::string>& sub,
              const std::vector<std::string>& super) {
  return std::all_of(sub.begin(), sub.end(), [&super](const std::string& x) {
    return std::find(super.begin(), super.end(), x) != super.end();
  });
}

/// \brief Base of all built-in passes: applies a chain-local rewrite to
/// the plan's root chain and recursively to every fan-out branch, so each
/// pass is DAG-aware by construction. Cross-boundary rules (hoisting into
/// the shared prefix) see the fan-out node as the last element of the
/// chain they are given.
class ChainRewritePass : public RewritePass {
 public:
  Status Apply(LogicalPlan* plan, bool* changed) override {
    return ApplyRecursive(&plan->mutable_ops(), changed);
  }

 protected:
  virtual Status ApplyChain(Chain* ops, bool* changed) = 0;

 private:
  Status ApplyRecursive(Chain* ops, bool* changed) {
    NM_RETURN_NOT_OK(ApplyChain(ops, changed));
    for (LogicalOperatorPtr& op : *ops) {
      if (op->kind() != LogicalOperator::Kind::kFanOut) continue;
      auto& fan = static_cast<FanOutNode&>(*op);
      for (Chain& branch : fan.mutable_branches()) {
        NM_RETURN_NOT_OK(ApplyRecursive(&branch, changed));
      }
    }
    return Status::OK();
  }
};

// --- Constant folding --------------------------------------------------------

class ConstantFoldingPass : public ChainRewritePass {
 public:
  std::string name() const override { return "constant-folding"; }

 protected:
  Status ApplyChain(Chain* ops, bool* changed) override {
    for (size_t i = 0; i < ops->size();) {
      LogicalOperator& op = *(*ops)[i];
      switch (op.kind()) {
        case LogicalOperator::Kind::kFilter: {
          auto& filter = static_cast<FilterNode&>(op);
          bool folded = false;
          ExprPtr pred = FoldConstants(filter.predicate(), &folded);
          if (folded) {
            *changed = true;
            const auto constant = pred->ConstantValue();
            if (constant && ValueAsBool(*constant)) {
              // Always-true filter: a full no-op stage, delete it. (An
              // always-false filter stays — it still legitimately drops
              // every row.)
              ops->erase(ops->begin() + static_cast<std::ptrdiff_t>(i));
              continue;
            }
            filter.set_predicate(std::move(pred));
          }
          break;
        }
        case LogicalOperator::Kind::kMap: {
          auto& map = static_cast<MapNode&>(op);
          for (MapSpec& spec : map.mutable_specs()) {
            bool folded = false;
            ExprPtr expr = FoldConstants(spec.expr, &folded);
            if (folded) {
              *changed = true;
              spec.expr = std::move(expr);
            }
          }
          break;
        }
        case LogicalOperator::Kind::kThresholdWindow: {
          auto& win = static_cast<ThresholdWindowNode&>(op);
          bool folded = false;
          ExprPtr pred = FoldConstants(win.options().predicate, &folded);
          if (folded) {
            *changed = true;
            win.mutable_options().predicate = std::move(pred);
          }
          break;
        }
        case LogicalOperator::Kind::kCep: {
          auto& cep = static_cast<CepNode&>(op);
          for (PatternStep& step : cep.mutable_pattern().steps) {
            bool folded = false;
            ExprPtr pred = FoldConstants(step.predicate, &folded);
            if (folded) {
              *changed = true;
              step.predicate = std::move(pred);
            }
          }
          break;
        }
        default:
          break;
      }
      ++i;
    }
    return Status::OK();
  }
};

// --- Predicate pushdown ------------------------------------------------------

class PredicatePushdownPass : public ChainRewritePass {
 public:
  std::string name() const override { return "predicate-pushdown"; }

 protected:
  Status ApplyChain(Chain* opsp, bool* changed) override {
    Chain& ops = *opsp;
    // A filter demanded by *every* branch of a trailing fan-out hoists
    // into the shared prefix, where it drops rows once instead of once
    // per branch.
    HoistSharedBranchFilter(opsp, changed);
    bool swapped = true;
    while (swapped) {  // bubble filters as far down as they can go
      swapped = false;
      for (size_t i = 1; i < ops.size(); ++i) {
        if (ops[i]->kind() != LogicalOperator::Kind::kFilter) continue;
        const auto& filter = static_cast<const FilterNode&>(*ops[i]);
        const auto reads = ReadSetOf(filter.predicate());
        if (!reads) continue;  // unknown read set: leave in place
        const LogicalOperator& prev = *ops[i - 1];
        bool can_swap = false;
        if (prev.kind() == LogicalOperator::Kind::kMap) {
          // Safe iff the map writes nothing the filter reads.
          can_swap = Disjoint(*reads,
                              WrittenNamesOf(static_cast<const MapNode&>(prev)));
        } else if (prev.kind() == LogicalOperator::Kind::kProject) {
          // Projected fields exist before the projection with identical
          // values, so a filter over them commutes with it.
          can_swap = IsSubset(
              *reads, static_cast<const ProjectNode&>(prev).fields());
        } else if (prev.kind() == LogicalOperator::Kind::kLookupJoin) {
          // A filter reading no field the lookup side can provide only
          // touches probe-side fields, which the (inner) join forwards
          // unchanged — filtering the probe stream first keeps exactly
          // the rows whose join results would have survived, and skips
          // index lookups for rows the filter drops. Field provenance is
          // conservative (collision-prefixed names count as
          // right-provided even when no collision occurs).
          const auto provided =
              static_cast<const LookupJoinNode&>(prev).RightProvidedFields();
          can_swap = provided && Disjoint(*reads, *provided);
        }
        if (can_swap) {
          std::swap(ops[i - 1], ops[i]);
          swapped = true;
          *changed = true;
        }
      }
    }
    return Status::OK();
  }

 private:
  // Hoisting is sound when every branch *leads* with the same filter:
  // running it before the fan-out sees exactly the records every branch
  // copy would have seen. Identity is proven structurally
  // (`StructurallyEqual` — node kinds, operators, field names, literal
  // values; extension nodes it cannot introspect never compare equal),
  // and every predicate's read set must additionally be provable.
  static void HoistSharedBranchFilter(Chain* opsp, bool* changed) {
    Chain& ops = *opsp;
    if (ops.empty() || ops.back()->kind() != LogicalOperator::Kind::kFanOut) {
      return;
    }
    auto& fan = static_cast<FanOutNode&>(*ops.back());
    auto& branches = fan.mutable_branches();
    if (branches.size() < 2) return;
    bool hoisted = true;
    while (hoisted) {  // several common filters hoist one at a time
      hoisted = false;
      const ExprPtr* first_predicate = nullptr;
      bool all_lead_with_same_filter = true;
      for (const Chain& branch : branches) {
        if (branch.empty() ||
            branch.front()->kind() != LogicalOperator::Kind::kFilter) {
          all_lead_with_same_filter = false;
          break;
        }
        const auto& filter = static_cast<const FilterNode&>(*branch.front());
        if (!ReadSetOf(filter.predicate())) {
          all_lead_with_same_filter = false;
          break;
        }
        if (first_predicate == nullptr) {
          first_predicate = &filter.predicate();
        } else if (!StructurallyEqual(*first_predicate, filter.predicate())) {
          all_lead_with_same_filter = false;
          break;
        }
      }
      if (!all_lead_with_same_filter) break;
      LogicalOperatorPtr shared = std::move(branches[0].front());
      for (Chain& branch : branches) branch.erase(branch.begin());
      ops.insert(ops.end() - 1, std::move(shared));
      hoisted = true;
      *changed = true;
    }
  }
};

// --- Filter fusion -----------------------------------------------------------

class FilterFusionPass : public ChainRewritePass {
 public:
  std::string name() const override { return "filter-fusion"; }

 protected:
  Status ApplyChain(Chain* opsp, bool* changed) override {
    Chain& ops = *opsp;
    for (size_t i = 1; i < ops.size();) {
      if (ops[i - 1]->kind() == LogicalOperator::Kind::kFilter &&
          ops[i]->kind() == LogicalOperator::Kind::kFilter) {
        auto& first = static_cast<FilterNode&>(*ops[i - 1]);
        auto& second = static_cast<FilterNode&>(*ops[i]);
        // Upstream predicate on the left: And short-circuits in the same
        // order the separate operators evaluated.
        first.set_predicate(And(first.predicate(), second.predicate()));
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
        *changed = true;
      } else {
        ++i;
      }
    }
    return Status::OK();
  }
};

// --- Map fusion --------------------------------------------------------------

class MapFusionPass : public ChainRewritePass {
 public:
  std::string name() const override { return "map-fusion"; }

 protected:
  Status ApplyChain(Chain* opsp, bool* changed) override {
    Chain& ops = *opsp;
    for (size_t i = 1; i < ops.size();) {
      if (ops[i - 1]->kind() == LogicalOperator::Kind::kMap &&
          ops[i]->kind() == LogicalOperator::Kind::kMap &&
          CanFuse(static_cast<const MapNode&>(*ops[i - 1]),
                  static_cast<const MapNode&>(*ops[i]))) {
        auto& first = static_cast<MapNode&>(*ops[i - 1]);
        auto& second = static_cast<MapNode&>(*ops[i]);
        for (MapSpec& spec : second.mutable_specs()) {
          first.mutable_specs().push_back(std::move(spec));
        }
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
        *changed = true;
      } else {
        ++i;
      }
    }
    return Status::OK();
  }

 private:
  // Specs within one Map all evaluate against the node's input record, so
  // fusing is sound only when the second map neither reads nor rewrites
  // anything the first one writes.
  static bool CanFuse(const MapNode& first, const MapNode& second) {
    const std::set<std::string> written = WrittenNamesOf(first);
    for (const MapSpec& spec : second.specs()) {
      if (written.count(spec.name) != 0) return false;
      const auto reads = ReadSetOf(spec.expr);
      if (!reads || !Disjoint(*reads, written)) return false;
    }
    return true;
  }
};

// --- Projection pushdown -----------------------------------------------------

class ProjectionPushdownPass : public ChainRewritePass {
 public:
  std::string name() const override { return "projection-pushdown"; }

 protected:
  Status ApplyChain(Chain* opsp, bool* changed) override {
    Chain& ops = *opsp;
    NarrowFanOutToUnionDemand(opsp, changed);
    for (size_t i = 1; i < ops.size();) {
      if (ops[i]->kind() != LogicalOperator::Kind::kProject) {
        ++i;
        continue;
      }
      const auto& project = static_cast<const ProjectNode&>(*ops[i]);
      if (ops[i - 1]->kind() == LogicalOperator::Kind::kProject) {
        // Adjacent projections collapse to the outer one (its fields are a
        // subset of the inner's in any valid plan; verified to be safe).
        const auto& inner = static_cast<const ProjectNode&>(*ops[i - 1]);
        const std::set<std::string> outer_set(project.fields().begin(),
                                              project.fields().end());
        if (IsSubset(outer_set, inner.fields())) {
          ops[i - 1] = std::make_unique<ProjectNode>(project.fields());
          ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
          *changed = true;
          continue;
        }
      } else if (ops[i - 1]->kind() == LogicalOperator::Kind::kMap) {
        // Push the projection's field set into the map: computed fields the
        // projection drops are dead and never evaluated.
        auto& map = static_cast<MapNode&>(*ops[i - 1]);
        auto& specs = map.mutable_specs();
        const size_t before = specs.size();
        specs.erase(
            std::remove_if(specs.begin(), specs.end(),
                           [&project](const MapSpec& spec) {
                             const auto& kept = project.fields();
                             return std::find(kept.begin(), kept.end(),
                                              spec.name) == kept.end();
                           }),
            specs.end());
        if (specs.size() != before) *changed = true;
        if (specs.empty()) {
          ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i - 1));
          *changed = true;
          // The projection slid to index i-1; step back so it is
          // re-examined against its new left neighbour.
          if (i > 1) --i;
          continue;
        }
      }
      ++i;
    }
    return Status::OK();
  }

 private:
  // When every branch of a trailing fan-out *leads* with a projection, the
  // shared prefix only needs the union of their field demands: insert that
  // union projection before the fan-out (each branch keeps its exact
  // projection, so per-branch schemas are unchanged) — the per-branch
  // buffer hand-off then carries narrower records.
  static void NarrowFanOutToUnionDemand(Chain* opsp, bool* changed) {
    Chain& ops = *opsp;
    if (ops.empty() || ops.back()->kind() != LogicalOperator::Kind::kFanOut) {
      return;
    }
    const auto& fan = static_cast<const FanOutNode&>(*ops.back());
    if (fan.branches().size() < 2) return;
    std::vector<std::string> unioned;
    for (const Chain& branch : fan.branches()) {
      if (branch.empty() ||
          branch.front()->kind() != LogicalOperator::Kind::kProject) {
        return;
      }
      for (const std::string& field :
           static_cast<const ProjectNode&>(*branch.front()).fields()) {
        if (std::find(unioned.begin(), unioned.end(), field) ==
            unioned.end()) {
          unioned.push_back(field);
        }
      }
    }
    // Already narrowed (field sets equal, any order): nothing to do — this
    // is also the termination guard for the rewriter's fixpoint loop.
    if (ops.size() >= 2 &&
        ops[ops.size() - 2]->kind() == LogicalOperator::Kind::kProject) {
      const auto& prev = static_cast<const ProjectNode&>(*ops[ops.size() - 2]);
      const std::set<std::string> prev_set(prev.fields().begin(),
                                           prev.fields().end());
      if (prev_set.size() == unioned.size() && IsSubset(prev_set, unioned)) {
        return;
      }
    }
    ops.insert(ops.end() - 1, std::make_unique<ProjectNode>(unioned));
    *changed = true;
  }
};

// --- Placement ---------------------------------------------------------------

// Flattens every placement annotation of `chain` (and nested branches)
// in a deterministic order. `Apply` compares snapshots taken before and
// after placing to report `changed` truthfully — the recursive solver
// may annotate a branch edge-side and later overwrite it cloud-side when
// a prefix cut wins, which must not count as a change when the final
// state matches the input.
void SnapshotPlacements(const Chain& chain, std::vector<int>* out) {
  for (const LogicalOperatorPtr& op : chain) {
    out->push_back(op->placement());
    if (op->kind() == LogicalOperator::Kind::kFanOut) {
      for (const Chain& branch :
           static_cast<const FanOutNode&>(*op).branches()) {
        SnapshotPlacements(branch, out);
      }
    }
  }
}

class PlacementPass : public RewritePass {
 public:
  explicit PlacementPass(PlacementPassOptions options)
      : options_(std::move(options)) {}

  std::string name() const override { return "placement"; }

  Status Apply(LogicalPlan* plan, bool* changed) override {
    if (options_.topology == nullptr) {
      return Status::InvalidArgument("placement pass without a topology");
    }
    // The cut decision needs a reachable cloud; resolving the route up
    // front also surfaces topology mistakes as a pass error instead of a
    // lowering error later.
    NM_RETURN_NOT_OK(options_.topology
                         ->ShortestPath(options_.edge_node,
                                        options_.cloud_node)
                         .status());
    flows_.clear();
    for (const auto& [key, stats] : options_.measured) {
      // Keys are "<path>/<OperatorName>" ("<OperatorName>" in the shared
      // prefix); operator names never contain '/'.
      const size_t slash = key.rfind('/');
      const std::string path =
          slash == std::string::npos ? std::string() : key.substr(0, slash);
      const std::string op_name =
          slash == std::string::npos ? key : key.substr(slash + 1);
      // Stats measured from an already-placed run include the lowered
      // channel pairs; they are transparent relays, so dropping their
      // entries re-aligns the flow with the logical operators (this is
      // what lets a deployment re-place itself from live traffic).
      if (op_name == "NetworkChannelSink" ||
          op_name == "NetworkChannelSource") {
        continue;
      }
      flows_[path].push_back(stats.bytes_out);
    }
    std::vector<int> before{plan->source_placement()};
    SnapshotPlacements(plan->ops(), &before);
    NM_RETURN_NOT_OK(
        PlaceChain(&plan->mutable_ops(), "", options_.source_bytes).status());
    plan->set_source_placement(options_.edge_node);
    std::vector<int> after{plan->source_placement()};
    SnapshotPlacements(plan->ops(), &after);
    if (after != before) *changed = true;
    return Status::OK();
  }

 private:
  // Annotates every node of `chain` (and nested branches) with the cloud
  // node — used when a shared-prefix cut moves a whole subtree off the
  // edge.
  void AnnotateSubtreeCloud(Chain* chain) {
    for (LogicalOperatorPtr& op : *chain) {
      op->set_placement(options_.cloud_node);
      if (op->kind() == LogicalOperator::Kind::kFanOut) {
        auto& fan = static_cast<FanOutNode&>(*op);
        for (Chain& branch : fan.mutable_branches()) {
          AnnotateSubtreeCloud(&branch);
        }
      }
    }
  }

  // Annotates the non-terminal nodes of `chain` for a cut after physical
  // operator index `cut` (-1: everything cloud-side): the first `cut`+1
  // physical operators (and the KeyBy markers they consume) stay on the
  // edge, the rest move to the cloud. Sinks and fan-outs are handled by
  // the caller.
  void AnnotateChainCut(Chain* chain, int cut) {
    int next_physical = 0;
    for (LogicalOperatorPtr& op : *chain) {
      if (op->kind() == LogicalOperator::Kind::kSink ||
          op->kind() == LogicalOperator::Kind::kFanOut) {
        continue;
      }
      op->set_placement(next_physical <= cut ? options_.edge_node
                                             : options_.cloud_node);
      // KeyBy is a marker folded into the next physical operator, so it
      // shares that operator's index and does not advance it.
      if (op->kind() != LogicalOperator::Kind::kKeyBy) ++next_physical;
    }
  }

  // Chooses and annotates the optimal cut(s) for `chain` (entered on the
  // edge carrying `in_bytes`), recursing into fan-out branches. Returns
  // the bytes the chosen placement ships edge -> cloud for this subtree.
  Result<uint64_t> PlaceChain(Chain* chain, const std::string& path,
                              uint64_t in_bytes) {
    // Measured bytes_out per physical operator of this chain segment, in
    // chain order. Leaf segments carry exactly one trailing sink entry
    // (the cut never uses it); fan-out segments carry none — anything
    // else is a shape mismatch.
    const std::vector<uint64_t>& flow = flows_[path];
    size_t num_physical = 0;
    for (const LogicalOperatorPtr& op : *chain) {
      if (op->kind() != LogicalOperator::Kind::kKeyBy &&
          op->kind() != LogicalOperator::Kind::kSink &&
          op->kind() != LogicalOperator::Kind::kFanOut) {
        ++num_physical;
      }
    }
    const bool fans_out =
        !chain->empty() &&
        chain->back()->kind() == LogicalOperator::Kind::kFanOut;
    const size_t expected = num_physical + (fans_out ? 0u : 1u);
    if (flow.size() != expected) {
      return Status::InvalidArgument(
          "measured stats do not match the plan shape at path '" + path +
          "': expected " + std::to_string(expected) + " entries, got " +
          std::to_string(flow.size()) + " — measure a run of the same "
          "optimized plan first");
    }
    // Cut after physical operator c ships that operator's measured output
    // (c == -1 ships the chain input). Ties break toward the deepest cut:
    // maximal pushdown, the paper's Figure 1 point.
    int best_cut = -1;
    uint64_t best_bytes = in_bytes;
    for (size_t c = 0; c < num_physical; ++c) {
      if (flow[c] <= best_bytes) {
        best_bytes = flow[c];
        best_cut = static_cast<int>(c);
      }
    }
    const uint64_t prefix_out =
        num_physical == 0 ? in_bytes : flow[num_physical - 1];

    if (!fans_out) {
      // Leaf chain: one cut; the sink stays in the cloud.
      AnnotateChainCut(chain, best_cut);
      if (!chain->empty() &&
          chain->back()->kind() == LogicalOperator::Kind::kSink) {
        chain->back()->set_placement(options_.cloud_node);
      }
      return best_bytes;
    }
    // Fan-out segment: first let every branch choose its own cut (the
    // prefix-on-edge hypothesis), then compare against the best single
    // prefix cut, which ships the stream once and runs the fan-out and
    // all branches in the cloud. A tie keeps the per-branch cuts —
    // deeper pushdown.
    auto& fan = static_cast<FanOutNode&>(*chain->back());
    uint64_t branch_sum = 0;
    for (size_t b = 0; b < fan.mutable_branches().size(); ++b) {
      NM_ASSIGN_OR_RETURN(
          const uint64_t branch_bytes,
          PlaceChain(&fan.mutable_branches()[b], DagBranchPath(path, b),
                     prefix_out));
      branch_sum += branch_bytes;
    }
    if (best_bytes < branch_sum) {
      AnnotateChainCut(chain, best_cut);
      chain->back()->set_placement(options_.cloud_node);
      for (Chain& branch : fan.mutable_branches()) {
        AnnotateSubtreeCloud(&branch);
      }
      return best_bytes;
    }
    AnnotateChainCut(chain, static_cast<int>(num_physical) - 1);
    chain->back()->set_placement(options_.edge_node);
    return branch_sum;
  }

  PlacementPassOptions options_;
  std::map<std::string, std::vector<uint64_t>> flows_;
};

// Shared walker of the two fixed-placement helpers: operators (and
// fan-outs) onto `op_node`, sinks onto `sink_node`.
void AnnotateChainFixed(std::vector<LogicalOperatorPtr>* chain, int op_node,
                        int sink_node) {
  for (LogicalOperatorPtr& op : *chain) {
    if (op->kind() == LogicalOperator::Kind::kSink) {
      op->set_placement(sink_node);
      continue;
    }
    op->set_placement(op_node);
    if (op->kind() == LogicalOperator::Kind::kFanOut) {
      auto& fan = static_cast<FanOutNode&>(*op);
      for (auto& branch : fan.mutable_branches()) {
        AnnotateChainFixed(&branch, op_node, sink_node);
      }
    }
  }
}

}  // namespace

void AnnotateEdgePushdownPlacement(LogicalPlan* plan, int edge_node,
                                   int cloud_node) {
  plan->set_source_placement(edge_node);
  AnnotateChainFixed(&plan->mutable_ops(), edge_node, cloud_node);
}

void AnnotateCloudPlacement(LogicalPlan* plan, int edge_node,
                            int cloud_node) {
  plan->set_source_placement(edge_node);
  AnnotateChainFixed(&plan->mutable_ops(), cloud_node, cloud_node);
}

RewritePassPtr MakePlacementPass(PlacementPassOptions options) {
  return std::make_unique<PlacementPass>(std::move(options));
}

RewritePassPtr MakeConstantFoldingPass() {
  return std::make_unique<ConstantFoldingPass>();
}

RewritePassPtr MakePredicatePushdownPass() {
  return std::make_unique<PredicatePushdownPass>();
}

RewritePassPtr MakeFilterFusionPass() {
  return std::make_unique<FilterFusionPass>();
}

RewritePassPtr MakeMapFusionPass() {
  return std::make_unique<MapFusionPass>();
}

RewritePassPtr MakeProjectionPushdownPass() {
  return std::make_unique<ProjectionPushdownPass>();
}

bool VerifyEachDefault() {
  if (const char* env = std::getenv("NM_VERIFY_EACH")) {
    return env[0] != '0';
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

PlanRewriter PlanRewriter::Default(const OptimizerOptions& options) {
  PlanRewriter rewriter;
  rewriter.verify_each_ = options.verify_each;
  if (!options.enable) return rewriter;
  rewriter.AddPass(MakeConstantFoldingPass())
      .AddPass(MakePredicatePushdownPass())
      .AddPass(MakeFilterFusionPass())
      .AddPass(MakeMapFusionPass())
      .AddPass(MakeProjectionPushdownPass());
  return rewriter;
}

PlanRewriter& PlanRewriter::AddPass(RewritePassPtr pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

Status PlanRewriter::Rewrite(LogicalPlan* plan) const {
  // Fixpoint guard: bounds the rounds of a pipeline that keeps changing.
  constexpr size_t kMaxIterations = 8;
  for (size_t iter = 0; iter < kMaxIterations; ++iter) {
    bool any_changed = false;
    for (const RewritePassPtr& pass : passes_) {
      bool changed = false;
      NM_RETURN_NOT_OK(pass->Apply(plan, &changed));
      if (changed && verify_each_) {
        analysis::VerifyContext vctx;
        // Rewrite runs on plans whose sinks may attach later
        // (`SetLeafSinks`), so termination is checked at Submit, not here.
        vctx.allow_unterminated = true;
        const Status verified = analysis::VerifyPlan(*plan, vctx);
        if (!verified.ok()) {
          return Status::Internal("verify-each: invariant violated after "
                                  "pass '" +
                                  pass->name() + "': " + verified.message());
        }
      }
      any_changed = any_changed || changed;
    }
    if (!any_changed) break;
  }
  return Status::OK();
}

}  // namespace nebulameos::nebula
