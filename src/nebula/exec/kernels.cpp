#include "nebula/exec/kernels.hpp"

#include <cstring>

#include "common/time.hpp"

namespace nebulameos::nebula::exec {

Result<TupleBufferPtr> AllocateOutputFor(const Batch& batch,
                                         const Schema& out_schema,
                                         ExecutionContext* ctx) {
  if (ctx == nullptr) {
    return Status::Internal("materialize without an execution context");
  }
  TupleBufferPtr out = ctx->Allocate(out_schema);
  if (batch.NumRows() > out->capacity()) {
    return Status::Internal("batch of " + std::to_string(batch.NumRows()) +
                            " rows exceeds the pool buffer capacity");
  }
  out->set_sequence_number(batch.data->sequence_number());
  out->set_watermark(batch.data->watermark());
  return out;
}

// --- CompiledPredicate ------------------------------------------------------

Result<CompiledPredicate> CompiledPredicate::Make(const Schema& input,
                                                  ExprPtr predicate) {
  if (!predicate) return Status::InvalidArgument("predicate is null");
  NM_RETURN_NOT_OK(predicate->Bind(input));
  KernelPtr kernel = predicate->CompileKernel(input);
  if (kernel == nullptr) {
    return Status::Unimplemented("expression is not batch-compilable: " +
                                 predicate->ToString());
  }
  return CompiledPredicate(std::move(predicate), std::move(kernel));
}

void CompiledPredicate::Select(const Batch& batch,
                               SelectionVector* out) const {
  const size_t n = batch.NumRows();
  if (n == 0) return;
  flags_.resize(n);
  const RowSpan span =
      SpanOf(*batch.data, batch.selection ? batch.selection.get() : nullptr);
  kernel_->EvalAsBool(span, flags_.data());
  out->reserve(out->size() + n);
  for (size_t i = 0; i < n; ++i) {
    if (flags_[i] != 0) {
      out->push_back(static_cast<uint32_t>(batch.RowAt(i)));
    }
  }
}

// --- Field-copy coalescing and gathering ------------------------------------

namespace {

/// Appends a (src, dst, width) byte move, merging with the previous one
/// when both ranges are contiguous — adjacent kept fields become one
/// memcpy per row.
void AppendCopy(std::vector<FieldCopy>* copies, size_t src_offset,
                size_t dst_offset, size_t width) {
  if (!copies->empty()) {
    FieldCopy& last = copies->back();
    if (last.src_offset + last.width == src_offset &&
        last.dst_offset + last.width == dst_offset) {
      last.width += width;
      return;
    }
  }
  copies->push_back({src_offset, dst_offset, width});
}

/// Gathers the coalesced byte ranges of every selected row of \p batch
/// into the rows starting at \p dst_base (stride \p dst_stride) — the one
/// stride-walking loop both materializations share.
void GatherFieldCopies(const Batch& batch,
                       const std::vector<FieldCopy>& copies,
                       uint8_t* dst_base, size_t dst_stride) {
  const size_t n = batch.NumRows();
  const size_t src_stride = batch.data->schema().record_size();
  const uint8_t* src_base = batch.data->At(0).data();
  for (const FieldCopy& c : copies) {
    const uint8_t* s = src_base + c.src_offset;
    uint8_t* d = dst_base + c.dst_offset;
    for (size_t i = 0; i < n; ++i, d += dst_stride) {
      std::memcpy(d, s + batch.RowAt(i) * src_stride, c.width);
    }
  }
}

}  // namespace

// --- CompiledProjection -----------------------------------------------------

Result<CompiledProjection> CompiledProjection::Make(
    const Schema& input, const std::vector<std::string>& fields) {
  if (fields.empty()) return Status::InvalidArgument("project without fields");
  CompiledProjection proj;
  std::vector<Field> out_fields;
  std::vector<size_t> indices;
  for (const std::string& name : fields) {
    NM_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(name));
    indices.push_back(idx);
    out_fields.push_back(input.field(idx));
  }
  NM_ASSIGN_OR_RETURN(proj.output_schema_,
                      Schema::Make(std::move(out_fields)));
  for (size_t f = 0; f < indices.size(); ++f) {
    AppendCopy(&proj.copies_, input.offset(indices[f]),
               proj.output_schema_.offset(f),
               DataTypeSize(proj.output_schema_.field(f).type));
  }
  return proj;
}

void CompiledProjection::Materialize(const Batch& batch,
                                     TupleBuffer* out) const {
  const size_t n = batch.NumRows();
  if (n == 0) return;
  const size_t first = out->size();
  for (size_t i = 0; i < n; ++i) out->Append();
  GatherFieldCopies(batch, copies_, out->MutableAt(first).data(),
                    output_schema_.record_size());
}

// --- CompiledMap ------------------------------------------------------------

Result<CompiledMap> CompiledMap::Make(const Schema& input,
                                      const std::vector<MapSpec>& specs) {
  NM_ASSIGN_OR_RETURN(MapLayout layout, PlanMapLayout(input, specs));
  CompiledMap map;
  map.output_schema_ = layout.output_schema;
  for (size_t f = 0; f < map.output_schema_.num_fields(); ++f) {
    const DataType type = map.output_schema_.field(f).type;
    if (layout.copy_from[f] >= 0) {
      const size_t src = static_cast<size_t>(layout.copy_from[f]);
      AppendCopy(&map.copies_, input.offset(src),
                 map.output_schema_.offset(f), DataTypeSize(type));
      continue;
    }
    if (type == DataType::kText16 || type == DataType::kText32) {
      return Status::Unimplemented("text-valued map spec stays interpreted");
    }
    const ExprPtr& expr = layout.exprs[layout.expr_of[f]];
    KernelPtr kernel = expr->CompileKernel(input);
    if (kernel == nullptr) {
      return Status::Unimplemented("expression is not batch-compilable: " +
                                   expr->ToString());
    }
    map.computed_.push_back(
        {std::move(kernel), map.output_schema_.offset(f), type});
  }
  map.exprs_ = std::move(layout.exprs);
  return map;
}

void CompiledMap::Materialize(const Batch& batch, TupleBuffer* out) const {
  const size_t n = batch.NumRows();
  if (n == 0) return;
  const size_t dst_stride = output_schema_.record_size();
  const size_t first = out->size();
  for (size_t i = 0; i < n; ++i) out->Append();
  uint8_t* dst_base = out->MutableAt(first).data();
  GatherFieldCopies(batch, copies_, dst_base, dst_stride);
  const RowSpan span =
      SpanOf(*batch.data, batch.selection ? batch.selection.get() : nullptr);
  for (const Computed& comp : computed_) {
    uint8_t* d = dst_base + comp.dst_offset;
    switch (comp.type) {
      case DataType::kBool: {
        column_scratch_.resize(n);
        uint8_t* col = column_scratch_.data();
        comp.kernel->EvalAsBool(span, col);
        for (size_t i = 0; i < n; ++i, d += dst_stride) *d = col[i];
        break;
      }
      case DataType::kInt64:
      case DataType::kTimestamp: {
        column_scratch_.resize(n * sizeof(int64_t));
        int64_t* col = reinterpret_cast<int64_t*>(column_scratch_.data());
        comp.kernel->EvalAsInt64(span, col);
        for (size_t i = 0; i < n; ++i, d += dst_stride) {
          std::memcpy(d, &col[i], sizeof(int64_t));
        }
        break;
      }
      case DataType::kDouble: {
        column_scratch_.resize(n * sizeof(double));
        double* col = reinterpret_cast<double*>(column_scratch_.data());
        comp.kernel->EvalAsDouble(span, col);
        for (size_t i = 0; i < n; ++i, d += dst_stride) {
          std::memcpy(d, &col[i], sizeof(double));
        }
        break;
      }
      case DataType::kText16:
      case DataType::kText32:
        break;  // rejected in Make
    }
  }
}

// --- BatchKernelOperator ----------------------------------------------------

std::string BatchKernelOperator::name() const {
  std::string out = "BatchKernels(";
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += "+";
    out += stages_[i].name;
  }
  return out + ")";
}

Status BatchKernelOperator::ProcessBatch(const Batch& input,
                                         const BatchEmitFn& emit) {
  // New input buffer: any kernel-CSE columns cached from the previous
  // batch are stale.
  if (cse_cache_ != nullptr) cse_cache_->Invalidate();
  Batch cur = input;
  bool alive = cur.NumRows() > 0;
  // One clock read per stage *boundary* (adjacent stages share it), so the
  // per-stage latency instrumentation costs stages+1 clock calls per batch.
  const bool timed = !stages_.empty() && stages_.front().process_micros;
  int64_t stage_start = timed ? MonotonicNowMicros() : 0;
  for (Stage& stage : stages_) {
    const uint64_t rows_in = alive ? cur.NumRows() : 0;
    stage.stats.AddIn(rows_in, rows_in * stage.in_record_size);
    if (alive) {
      if (stage.predicate.has_value()) {
        scratch_sel_.clear();
        stage.predicate->Select(cur, &scratch_sel_);
        if (scratch_sel_.empty()) {
          alive = false;
        } else if (scratch_sel_.size() != cur.NumRows()) {
          cur = TakePartialSelection(&scratch_sel_, cur);
        }
        // Fully selective: `cur` (and its buffer) passes through untouched.
      } else {
        const Schema& out_schema = stage.map.has_value()
                                       ? stage.map->output_schema()
                                       : stage.projection->output_schema();
        NM_ASSIGN_OR_RETURN(TupleBufferPtr out,
                            AllocateOutputFor(cur, out_schema, ctx_));
        if (stage.map.has_value()) {
          stage.map->Materialize(cur, out.get());
        } else {
          stage.projection->Materialize(cur, out.get());
        }
        out->Seal();
        cur = Batch(std::move(out));
      }
    }
    const uint64_t rows_out = alive ? cur.NumRows() : 0;
    stage.stats.AddOut(rows_out, rows_out * stage.out_record_size);
    if (timed) {
      const int64_t now = MonotonicNowMicros();
      stage.process_micros->Record(now - stage_start);
      stage.batch_rows->Record(static_cast<int64_t>(rows_in));
      stage_start = now;
    }
  }
  if (alive) emit(cur);
  return Status::OK();
}

void BatchKernelOperator::AppendStats(
    const std::string& prefix,
    std::vector<std::pair<std::string, OperatorStats>>* out) const {
  for (const Stage& stage : stages_) {
    out->emplace_back(prefix + stage.name, stage.stats.Snapshot());
  }
}

void BatchKernelOperator::BindMetrics(metrics::MetricsRegistry* registry,
                                      InstrumentNamer* names) {
  for (Stage& stage : stages_) {
    const std::string base = names->Next(stage.name);
    stage.process_micros = registry->GetHistogram(base + ".process_micros");
    stage.batch_rows = registry->GetHistogram(base + ".batch_rows");
  }
}

// --- BatchKernelCompiler ----------------------------------------------------

BatchKernelCompiler::BatchKernelCompiler(Schema input)
    : current_(std::move(input)),
      op_(std::unique_ptr<BatchKernelOperator>(new BatchKernelOperator())) {}

bool BatchKernelCompiler::AddFilter(const ExprPtr& predicate) {
  auto compiled = CompiledPredicate::Make(current_, predicate);
  if (!compiled.ok()) return false;
  BatchKernelOperator::Stage stage;
  stage.name = "Filter";
  stage.in_record_size = current_.record_size();
  stage.out_record_size = current_.record_size();
  stage.predicate.emplace(std::move(*compiled));
  op_->stages_.push_back(std::move(stage));
  return true;
}

bool BatchKernelCompiler::AddMap(const std::vector<MapSpec>& specs) {
  auto compiled = CompiledMap::Make(current_, specs);
  if (!compiled.ok()) return false;
  BatchKernelOperator::Stage stage;
  stage.name = "Map";
  stage.in_record_size = current_.record_size();
  stage.map.emplace(std::move(*compiled));
  stage.out_record_size = stage.map->output_schema().record_size();
  current_ = stage.map->output_schema();
  op_->stages_.push_back(std::move(stage));
  return true;
}

bool BatchKernelCompiler::AddProject(const std::vector<std::string>& fields) {
  auto compiled = CompiledProjection::Make(current_, fields);
  if (!compiled.ok()) return false;
  BatchKernelOperator::Stage stage;
  stage.name = "Project";
  stage.in_record_size = current_.record_size();
  stage.projection.emplace(std::move(*compiled));
  stage.out_record_size = stage.projection->output_schema().record_size();
  current_ = stage.projection->output_schema();
  op_->stages_.push_back(std::move(stage));
  return true;
}

void BatchKernelCompiler::AttachCseCache(std::shared_ptr<ColumnCache> cache) {
  op_->cse_cache_ = std::move(cache);
}

OperatorPtr BatchKernelCompiler::Finish() && {
  op_->output_schema_ = current_;
  return OperatorPtr(std::move(op_));
}

}  // namespace nebulameos::nebula::exec
