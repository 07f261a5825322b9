#include "nebula/join.hpp"

#include <algorithm>
#include <utility>

namespace nebulameos::nebula {

Result<OperatorPtr> TemporalLookupJoinOperator::Make(
    const Schema& input, TemporalLookupJoinOptions options) {
  if (!options.lookup) {
    return Status::InvalidArgument("lookup join needs a right-side source");
  }
  if (options.max_age <= 0) {
    return Status::InvalidArgument("lookup join max_age must be > 0");
  }
  auto op = std::unique_ptr<TemporalLookupJoinOperator>(
      new TemporalLookupJoinOperator());
  op->input_schema_ = input;
  op->right_schema_ = options.lookup->schema();
  NM_ASSIGN_OR_RETURN(op->left_key_index_, input.IndexOf(options.left_key));
  NM_ASSIGN_OR_RETURN(op->left_time_index_, input.IndexOf(options.left_time));
  NM_ASSIGN_OR_RETURN(op->right_key_index_,
                      op->right_schema_.IndexOf(options.right_key));
  NM_ASSIGN_OR_RETURN(op->right_time_index_,
                      op->right_schema_.IndexOf(options.right_time));
  if (input.field(op->left_key_index_).type != DataType::kInt64 ||
      op->right_schema_.field(op->right_key_index_).type != DataType::kInt64) {
    return Status::InvalidArgument("lookup join keys must be INT64");
  }
  // Output schema: left fields + right payload fields (key/time excluded),
  // prefixing names that collide.
  std::vector<Field> fields = input.fields();
  for (size_t i = 0; i < op->right_schema_.num_fields(); ++i) {
    if (i == op->right_key_index_ || i == op->right_time_index_) continue;
    Field f = op->right_schema_.field(i);
    if (input.HasField(f.name)) f.name = options.collision_prefix + f.name;
    fields.push_back(std::move(f));
    op->right_payload_indices_.push_back(i);
  }
  NM_ASSIGN_OR_RETURN(op->output_schema_, Schema::Make(std::move(fields)));
  op->options_ = std::move(options);
  return OperatorPtr(std::move(op));
}

Status TemporalLookupJoinOperator::Open(ExecutionContext* ctx) {
  NM_RETURN_NOT_OK(Operator::Open(ctx));
  if (opened_) return Status::OK();
  opened_ = true;
  // Drain the bounded right side into the per-key index.
  TupleBuffer buffer(right_schema_, 1024);
  while (true) {
    buffer.Clear();
    auto more = options_.lookup->Fill(&buffer);
    if (!more.ok()) return more.status();
    for (size_t i = 0; i < buffer.size(); ++i) {
      const RecordView rec = buffer.At(i);
      RightRow row;
      row.ts = rec.GetInt64(right_time_index_);
      row.bytes.assign(rec.data(), rec.data() + right_schema_.record_size());
      index_[rec.GetInt64(right_key_index_)].push_back(std::move(row));
      ++lookup_rows_;
    }
    if (!*more) break;
  }
  for (auto& [key, rows] : index_) {
    std::sort(rows.begin(), rows.end(),
              [](const RightRow& a, const RightRow& b) { return a.ts < b.ts; });
  }
  return Status::OK();
}

const TemporalLookupJoinOperator::RightRow*
TemporalLookupJoinOperator::FindNearest(int64_t key, Timestamp ts) const {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  const std::vector<RightRow>& rows = it->second;
  // First row with ts >= left ts; nearest is that one or its predecessor.
  auto pos = std::lower_bound(
      rows.begin(), rows.end(), ts,
      [](const RightRow& row, Timestamp t) { return row.ts < t; });
  const RightRow* best = nullptr;
  Duration best_gap = options_.max_age + 1;
  if (pos != rows.end()) {
    const Duration gap = pos->ts - ts;
    if (gap <= options_.max_age) {
      best = &*pos;
      best_gap = gap;
    }
  }
  if (pos != rows.begin()) {
    const RightRow& prev = *std::prev(pos);
    const Duration gap = ts - prev.ts;
    if (gap <= options_.max_age && gap < best_gap) best = &prev;
  }
  return best;
}

Status TemporalLookupJoinOperator::ProcessBatch(const exec::Batch& input,
                                                const BatchEmitFn& emit) {
  const TupleBuffer& in = *input.data;
  TupleBufferPtr out;  // allocated on the first match only
  const size_t left_fields = input_schema_.num_fields();
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = in.At(input.RowAt(i));
    const RightRow* match =
        FindNearest(rec.GetInt64(left_key_index_),
                    rec.GetInt64(left_time_index_));
    if (match == nullptr) {
      ++unmatched_;
      continue;
    }
    if (out && out->full()) emit(exec::SealedBatch(std::exchange(out, {})));
    if (!out) {
      out = ctx_->Allocate(output_schema_);
      out->set_watermark(in.watermark());
      out->set_sequence_number(in.sequence_number());
    }
    RecordWriter w = out->Append();
    // Left fields verbatim, then right payload.
    std::memcpy(w.data(), rec.data(), input_schema_.record_size());
    const RecordView right(&right_schema_, match->bytes.data());
    for (size_t p = 0; p < right_payload_indices_.size(); ++p) {
      const size_t src = right_payload_indices_[p];
      const size_t dst = left_fields + p;
      switch (output_schema_.field(dst).type) {
        case DataType::kBool:
          w.SetBool(dst, right.GetBool(src));
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          w.SetInt64(dst, right.GetInt64(src));
          break;
        case DataType::kDouble:
          w.SetDouble(dst, right.GetDouble(src));
          break;
        case DataType::kText16:
        case DataType::kText32:
          w.SetText(dst, right.GetText(src));
          break;
      }
    }
  }
  // No matches → no emit: a watermark-only advance must not draw a pooled
  // buffer (windows fire on event times, not buffer watermarks).
  if (out) emit(exec::SealedBatch(std::move(out)));
  return Status::OK();
}

}  // namespace nebulameos::nebula
