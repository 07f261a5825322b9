#include "nebula/analysis/pipeline_verifier.hpp"

#include <map>

namespace nebulameos::nebula::analysis {

namespace {

std::string SegmentName(const CompiledPipeline& pipe) {
  return pipe.path.empty() ? std::string("segment <root>")
                           : "segment '" + pipe.path + "'";
}

void CheckSegment(const CompiledPipeline& pipe, const std::string& expected,
                  bool root, const PipelineVerifyContext& ctx,
                  std::vector<std::string>* out) {
  const std::string seg = SegmentName(pipe);
  if (pipe.path != expected) {
    out->push_back(seg + ": path should be '" + expected +
                   "' — per-path stats and Explain join on DAG paths");
  }

  // Exactly one continuation: sink leaf, fan-out, or partitioned suffix.
  const int shapes = (pipe.sink != nullptr ? 1 : 0) +
                     (pipe.branches.empty() ? 0 : 1) +
                     (pipe.partitions.empty() ? 0 : 1);
  if (shapes > 1) {
    out->push_back(seg +
                   ": sink / branches / partitions are mutually exclusive "
                   "continuations, but this segment carries " +
                   std::to_string(shapes));
  }
  if (shapes == 0 && !(root && ctx.expect_dynamic_tail)) {
    out->push_back(seg +
                   ": dead end — no sink, branches or partitions (only a "
                   "shared host awaiting dynamic branches may dangle)");
  }

  if (!pipe.operators.empty()) {
    const Schema& last = pipe.operators.back()->output_schema();
    if (!(pipe.output_schema == last)) {
      out->push_back(seg + ": declared output schema (" +
                     pipe.output_schema.ToString() +
                     ") != last operator's (" + last.ToString() + ")");
    }
  }

  // Network-channel lowering: sink/source adjacent, one channel per pair.
  size_t wire_pairs = 0;
  for (size_t i = 0; i < pipe.operators.size(); ++i) {
    const std::string name = pipe.operators[i]->name();
    if (name == "NetworkChannelSink") {
      ++wire_pairs;
      if (i + 1 >= pipe.operators.size() ||
          pipe.operators[i + 1]->name() != "NetworkChannelSource") {
        out->push_back(seg + ": NetworkChannelSink at op #" +
                       std::to_string(i) +
                       " not immediately followed by its "
                       "NetworkChannelSource — records would leave the "
                       "node and never come back");
      }
    } else if (name == "NetworkChannelSource") {
      if (i == 0 || pipe.operators[i - 1]->name() != "NetworkChannelSink") {
        out->push_back(seg + ": NetworkChannelSource at op #" +
                       std::to_string(i) + " without a paired sink");
      }
    }
  }
  if (wire_pairs != pipe.channels.size()) {
    out->push_back(seg + ": " + std::to_string(wire_pairs) +
                   " lowered transition(s) but " +
                   std::to_string(pipe.channels.size()) +
                   " channel(s) — the deployment report would miscount "
                   "wire traffic");
  }

  // Fault coherence: a channel armed with loss needs recovery machinery —
  // retained frames to retransmit from and a repair buffer to detect the
  // gap in. Without both, every injected drop is silent data loss even
  // under the strict kBlock policy.
  for (size_t c = 0; c < pipe.channels.size(); ++c) {
    const auto& ch = pipe.channels[c];
    if (ch == nullptr) {
      out->push_back(seg + ": channel #" + std::to_string(c) + " is null");
      continue;
    }
    const FaultProfile& profile = ch->fault_profile();
    const RetryOptions& retry = ch->retry_options();
    if (profile.drop_rate > 0.0 &&
        (retry.retain_limit < 1 || retry.reorder_capacity < 1)) {
      out->push_back(seg + ": channel " + ch->EndpointsString() +
                     " injects drops (rate " +
                     std::to_string(profile.drop_rate) +
                     ") but retry options disable recovery (retain_limit=" +
                     std::to_string(retry.retain_limit) +
                     ", reorder_capacity=" +
                     std::to_string(retry.reorder_capacity) +
                     ") — dropped frames could never be repaired");
    }
  }

  if (!pipe.partitions.empty()) {
    if (pipe.partition_key_index >= pipe.output_schema.num_fields()) {
      out->push_back(seg + ": partition key index " +
                     std::to_string(pipe.partition_key_index) +
                     " out of range for (" + pipe.output_schema.ToString() +
                     ")");
    } else {
      const DataType type =
          pipe.output_schema.field(pipe.partition_key_index).type;
      if (type != pipe.partition_key_type) {
        out->push_back(seg + ": partition key type " +
                       DataTypeName(pipe.partition_key_type) +
                       " != schema field type " + DataTypeName(type));
      }
    }
    const CompiledPipeline& first = pipe.partitions.front();
    for (size_t p = 0; p < pipe.partitions.size(); ++p) {
      const CompiledPipeline& clone = pipe.partitions[p];
      const std::string who = seg + " partition #" + std::to_string(p);
      if (clone.path != pipe.path) {
        out->push_back(who + ": path '" + clone.path +
                       "' differs from its segment — per-path stats would "
                       "split across clones");
      }
      if (!clone.branches.empty() || !clone.partitions.empty()) {
        out->push_back(who +
                       ": partition clones must be sequential chains (no "
                       "nested fan-out/partitioning)");
      }
      if (clone.sink == nullptr) {
        out->push_back(who + ": missing the shared terminal sink");
      } else if (clone.sink != first.sink) {
        out->push_back(who +
                       ": does not share the terminal sink with its sibling "
                       "clones — results would split across sinks");
      }
      // Instrument-name parity: metrics bind per operator name under one
      // path, so clones must carry identical operator name sequences.
      if (clone.operators.size() != first.operators.size()) {
        out->push_back(who + ": " + std::to_string(clone.operators.size()) +
                       " operators vs " +
                       std::to_string(first.operators.size()) +
                       " in partition #0 — instrument names would diverge");
        continue;
      }
      for (size_t i = 0; i < clone.operators.size(); ++i) {
        if (clone.operators[i]->name() != first.operators[i]->name()) {
          out->push_back(who + ": op #" + std::to_string(i) + " is " +
                         clone.operators[i]->name() + " but partition #0 has " +
                         first.operators[i]->name() +
                         " — instrument names would diverge");
        }
      }
      if (!(clone.output_schema == first.output_schema)) {
        out->push_back(who + ": output schema (" +
                       clone.output_schema.ToString() +
                       ") differs from partition #0 (" +
                       first.output_schema.ToString() + ")");
      }
    }
  }

  for (size_t b = 0; b < pipe.branches.size(); ++b) {
    CheckSegment(pipe.branches[b], DagBranchPath(pipe.path, b),
                 /*root=*/false, ctx, out);
  }
}

Status Report(const char* what, const std::vector<std::string>& diags) {
  if (diags.empty()) return Status::OK();
  std::string msg = std::string(what) + " verification failed (" +
                    std::to_string(diags.size()) + " diagnostic" +
                    (diags.size() == 1 ? "" : "s") + "):";
  for (const std::string& d : diags) msg += "\n  " + d;
  return Status::FailedPrecondition(std::move(msg));
}

}  // namespace

Status VerifyPipeline(const CompiledPipeline& pipeline,
                      const PipelineVerifyContext& ctx) {
  std::vector<std::string> diags;
  CheckSegment(pipeline, ctx.root_path, /*root=*/true, ctx, &diags);
  return Report("pipeline", diags);
}

Status VerifyBatch(const exec::Batch& batch) {
  if (batch.data == nullptr) {
    return Status::FailedPrecondition("batch dispatched without a buffer");
  }
  if (!batch.data->sealed()) {
    return Status::FailedPrecondition(
        "unsealed buffer dispatched — fan-out sharing relies on the "
        "immutable-after-seal contract");
  }
  if (batch.selection != nullptr) {
    const size_t rows = batch.data->size();
    uint32_t prev = 0;
    for (size_t i = 0; i < batch.selection->size(); ++i) {
      const uint32_t row = (*batch.selection)[i];
      if (row >= rows) {
        return Status::FailedPrecondition(
            "selection index " + std::to_string(row) +
            " out of bounds for a buffer of " + std::to_string(rows) +
            " rows");
      }
      if (i > 0 && row <= prev) {
        return Status::FailedPrecondition(
            "selection not strictly ascending at position " +
            std::to_string(i) + " (" + std::to_string(prev) + " then " +
            std::to_string(row) + ")");
      }
      prev = row;
    }
  }
  return Status::OK();
}

Status VerifyStrandOwnership(
    const std::vector<std::pair<std::string, const void*>>& strands) {
  std::vector<std::string> diags;
  std::map<const void*, std::string> owner_of;
  for (const auto& [path, strand] : strands) {
    if (strand == nullptr) {
      diags.push_back("target '" + path + "': no strand");
      continue;
    }
    auto [it, inserted] = owner_of.emplace(strand, path);
    if (!inserted) {
      diags.push_back("target '" + path + "' shares a strand with target '" +
                      it->second +
                      "' — the actor guarantee needs one strand per target");
    }
  }
  return Report("strand ownership", diags);
}

}  // namespace nebulameos::nebula::analysis
