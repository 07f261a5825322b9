/// \file pipeline_verifier.hpp
/// \brief Static checks over the *compiled* pipeline tree and the batch
/// contract — the physical counterparts of plan_verifier.hpp.
///
/// `CompilePlan` output carries invariants the engine silently leans on:
/// each segment is exactly one of sink-leaf / fan-out / partitioned;
/// segment paths mirror the logical DAG paths (stats, Explain and the
/// shared-query accountant all join on them); network-channel lowering
/// keeps sink/source pairs adjacent with one channel per transition; and
/// partition clones must stay name-parallel so their per-path instruments
/// sum coherently. `VerifyPipeline` proves those after compilation,
/// `VerifyBatch` proves the sealed-buffer / ascending-selection contract
/// on every dispatched batch (verify-each mode), and
/// `VerifyStrandOwnership` proves that no strand serves two dispatch
/// targets (the actor guarantee every stateful target relies on).

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "nebula/exec/batch.hpp"
#include "nebula/logical_plan.hpp"

namespace nebulameos::nebula::analysis {

/// \brief What the verifier should expect of the pipeline's shape.
struct PipelineVerifyContext {
  /// The root segment may be a sink-less, branch-less chain: it is a
  /// shared host whose client branches attach dynamically (`SubmitShared`
  /// / `AttachBranch`).
  bool expect_dynamic_tail = false;
  /// Expected DAG path of the root segment ("" for a whole plan; a branch
  /// path for a pipeline compiled by `AttachBranch`).
  std::string root_path;
};

/// Verifies the structural invariants of a compiled pipeline tree.
/// Returns `FailedPrecondition` naming every violated segment by path.
Status VerifyPipeline(const CompiledPipeline& pipeline,
                      const PipelineVerifyContext& ctx = {});

/// Verifies the batch dispatch contract: non-null *sealed* buffer, and a
/// selection that is strictly ascending with every index in bounds.
Status VerifyBatch(const exec::Batch& batch);

/// Verifies strand single-ownership over every dispatch target of a
/// query — fan-out branches, key-partition clones (which share their
/// segment's path) and shared-host branches: every (target path, strand)
/// pair carries a non-null strand and no strand serves two targets.
/// \p strands uses opaque pointers so the check stays independent of the
/// pool's types.
Status VerifyStrandOwnership(
    const std::vector<std::pair<std::string, const void*>>& strands);

}  // namespace nebulameos::nebula::analysis
