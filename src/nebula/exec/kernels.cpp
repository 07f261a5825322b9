#include "nebula/exec/kernels.hpp"

#include <cstring>

#include "common/time.hpp"

namespace nebulameos::nebula::exec {

Result<TupleBufferPtr> AllocateOutputFor(const TupleBuffer& source,
                                         size_t rows,
                                         const Schema& out_schema,
                                         ExecutionContext* ctx) {
  if (ctx == nullptr) {
    return Status::Internal("materialize without an execution context");
  }
  TupleBufferPtr out = ctx->Allocate(out_schema);
  if (rows > out->capacity()) {
    return Status::Internal("batch of " + std::to_string(rows) +
                            " rows exceeds the pool buffer capacity");
  }
  out->set_sequence_number(source.sequence_number());
  out->set_watermark(source.watermark());
  return out;
}

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

template <typename T>
T* Retype(std::vector<uint8_t>* bytes, size_t count) {
  bytes->resize(count * sizeof(T));
  return reinterpret_cast<T*>(bytes->data());
}

/// Stores span row i's value at physical row `Phys(i)` of a run column.
template <typename T>
void Scatter(const RowSpan& span, const T* values, T* column) {
  for (size_t i = 0; i < span.count; ++i) column[span.sel[i]] = values[i];
}

/// Copies `width` bytes at `src_offset` of each span row into the output
/// records starting at `dst` (stride `dst_stride`). Span fields are read
/// once: the opaque per-row memcpy would otherwise reload them.
void CopyRows(const RowSpan& span, size_t src_offset, size_t width,
              uint8_t* dst, size_t dst_stride) {
  const uint8_t* src = span.base + src_offset;
  const size_t stride = span.stride;
  const uint32_t* sel = span.sel;
  const size_t n = span.count;
  if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i, src += stride, dst += dst_stride) {
      std::memcpy(dst, src, width);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i, dst += dst_stride) {
    std::memcpy(dst, src + sel[i] * stride, width);
  }
}

/// Copies the span's rows of a run column of `kWidth`-byte elements into
/// the output records starting at `dst` (stride `dst_stride`, records not
/// 8-byte aligned); the constant width makes each copy one move.
template <size_t kWidth>
void WriteColumn(const RowSpan& span, const uint8_t* column, uint8_t* dst,
                 size_t dst_stride) {
  const uint32_t* sel = span.sel;
  const size_t n = span.count;
  if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i, column += kWidth, dst += dst_stride) {
      std::memcpy(dst, column, kWidth);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i, dst += dst_stride) {
    std::memcpy(dst, column + sel[i] * kWidth, kWidth);
  }
}

}  // namespace

// --- BatchKernelOperator ----------------------------------------------------

std::string BatchKernelOperator::name() const {
  std::string out = "BatchKernels(";
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += "+";
    out += stages_[i].name;
  }
  return out + ")";
}

void BatchKernelOperator::FillColumn(const Computed& comp,
                                     const RowSpan& span) {
  uint8_t* column = columns_[comp.column].data();
  // A full span's rows are the physical rows, so the kernel writes the
  // column directly; a selection scatters through a dense scratch column.
  const bool direct = span.sel == nullptr;
  switch (comp.type) {
    case DataType::kBool: {
      uint8_t* out = direct ? column : Retype<uint8_t>(&values_, span.count);
      comp.kernel->EvalAsBool(span, out);
      if (!direct) Scatter(span, out, column);
      return;
    }
    case DataType::kInt64:
    case DataType::kTimestamp: {
      auto* col = reinterpret_cast<int64_t*>(column);
      int64_t* out = direct ? col : Retype<int64_t>(&values_, span.count);
      comp.kernel->EvalAsInt64(span, out);
      if (!direct) Scatter(span, out, col);
      return;
    }
    case DataType::kDouble: {
      auto* col = reinterpret_cast<double*>(column);
      double* out = direct ? col : Retype<double>(&values_, span.count);
      comp.kernel->EvalAsDouble(span, out);
      if (!direct) Scatter(span, out, col);
      return;
    }
    case DataType::kText16:
    case DataType::kText32:
      return;  // text-valued maps never compile
  }
}

bool BatchKernelOperator::RunStage(const Stage& stage, RowSpan* span) {
  if (stage.predicate != nullptr) {
    flags_.resize(span->count);
    stage.predicate->EvalAsBool(*span, flags_.data());
    const int next = current_selection_ == 0 ? 1 : 0;
    SelectionVector& selected = selections_[next];
    selected.clear();
    selected.reserve(span->count);
    for (size_t i = 0; i < span->count; ++i) {
      if (flags_[i] != 0) {
        selected.push_back(static_cast<uint32_t>(span->Phys(i)));
      }
    }
    if (selected.empty()) return false;
    // Fully selective: the span (and the selection it reads) stays as is.
    if (selected.size() != span->count) {
      current_selection_ = next;
      *span = span->Subset(selected.data(), selected.size());
    }
    return true;
  }
  for (const Computed& comp : stage.computed) FillColumn(comp, *span);
  return true;
}

Result<TupleBufferPtr> BatchKernelOperator::WriteOutput(
    const TupleBuffer& input, const RowSpan& span) {
  NM_ASSIGN_OR_RETURN(
      TupleBufferPtr out,
      AllocateOutputFor(input, span.count, output_schema_, ctx_));
  for (size_t i = 0; i < span.count; ++i) out->Append();
  uint8_t* dst_base = out->MutableAt(0).data();
  const size_t dst_stride = output_schema_.record_size();
  for (const FieldCopy& c : input_copies_) {
    CopyRows(span, c.src_offset, c.width, dst_base + c.dst_offset, dst_stride);
  }
  for (const ColumnCopy& c : column_copies_) {
    uint8_t* d = dst_base + c.dst_offset;
    if (ColumnWidth(c.type) == 1) {
      WriteColumn<1>(span, column_ptrs_[c.column], d, dst_stride);
    } else {
      WriteColumn<8>(span, column_ptrs_[c.column], d, dst_stride);
    }
  }
  return out;
}

Status BatchKernelOperator::ProcessBatch(const Batch& input,
                                         const BatchEmitFn& emit) {
  const size_t physical = input.data != nullptr ? input.data->size() : 0;
  // New input buffer: any kernel-CSE columns cached from the previous
  // batch are stale, and the run columns cover this buffer's rows.
  if (cse_cache_ != nullptr) cse_cache_->Invalidate(physical);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].resize(physical * ColumnWidth(column_types_[c]));
    column_ptrs_[c] = columns_[c].data();
  }
  current_selection_ = -1;
  RowSpan span;
  bool alive = input.NumRows() > 0;
  if (alive) {
    span = SpanOf(*input.data, input.selection.get());
    span.columns = column_ptrs_.data();
  }
  TupleBufferPtr written;
  // One clock read per stage *boundary* (adjacent stages share it), so the
  // per-stage latency instrumentation costs stages+1 clock calls per batch.
  const bool bound = !stages_.empty() && stages_.front().flow.bound();
  int64_t stage_start = bound ? MonotonicNowMicros() : 0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    const Stage& stage = stages_[s];
    const uint64_t rows_in = alive ? span.count : 0;
    if (alive) alive = RunStage(stage, &span);
    // The run's one write is timed with its last stage.
    if (alive && writes_output_ && s + 1 == stages_.size()) {
      NM_ASSIGN_OR_RETURN(written, WriteOutput(*input.data, span));
    }
    if (bound) {
      const uint64_t rows_out = alive ? span.count : 0;
      stage.flow.RecordIn(rows_in, rows_in * stage.in_record_size);
      stage.flow.RecordOut(rows_out, rows_out * stage.out_record_size);
      const int64_t now = MonotonicNowMicros();
      stage.process_micros->Record(now - stage_start);
      stage_start = now;
    }
  }
  if (!alive) return Status::OK();
  if (written != nullptr) {
    emit(SealedBatch(std::move(written)));
  } else if (current_selection_ < 0) {
    emit(input);  // every stage fully selective
  } else {
    emit(TakePartialSelection(&selections_[current_selection_], input));
  }
  return Status::OK();
}

void BatchKernelOperator::BindMetrics(metrics::MetricsRegistry* registry,
                                      InstrumentNamer* names,
                                      std::vector<FlowEntry>* entries) {
  for (Stage& stage : stages_) {
    const std::string base = names->Next(stage.name);
    stage.process_micros = registry->GetHistogram(base + ".process_micros");
    stage.flow = FlowInstruments::Bind(registry, base, /*sheds=*/false);
    entries->push_back({names->Key(stage.name), stage.flow});
  }
}

// --- BatchKernelCompiler ----------------------------------------------------

BatchKernelCompiler::BatchKernelCompiler(Schema input)
    : current_(std::move(input)),
      layout_(current_),
      op_(std::unique_ptr<BatchKernelOperator>(new BatchKernelOperator())) {}

bool BatchKernelCompiler::AddFilter(const ExprPtr& predicate) {
  if (predicate == nullptr || !predicate->Bind(current_).ok()) return false;
  KernelPtr kernel = predicate->CompileKernel(layout_);
  if (kernel == nullptr) return false;
  BatchKernelOperator::Stage stage;
  stage.name = "Filter";
  stage.in_record_size = current_.record_size();
  stage.out_record_size = current_.record_size();
  stage.predicate = std::move(kernel);
  op_->stages_.push_back(std::move(stage));
  op_->exprs_.push_back(predicate);
  return true;
}

bool BatchKernelCompiler::AddMap(const std::vector<MapSpec>& specs) {
  auto planned = PlanMapLayout(current_, specs);
  if (!planned.ok()) return false;
  const MapLayout& map = *planned;
  const Schema& out_schema = map.output_schema;
  // Every spec compiles against the layout *before* this map (specs read
  // the map's input, like the interpreted MapOperator); the new columns
  // shadow replaced names for later stages only.
  RunLayout next = layout_;
  std::vector<FieldSource> sources;
  std::vector<BatchKernelOperator::Computed> computed;
  for (size_t f = 0; f < out_schema.num_fields(); ++f) {
    if (map.copy_from[f] >= 0) {
      sources.push_back(
          layout_.sources()[static_cast<size_t>(map.copy_from[f])]);
      continue;
    }
    const DataType type = out_schema.field(f).type;
    if (type == DataType::kText16 || type == DataType::kText32) {
      return false;  // text-valued map spec stays interpreted
    }
    KernelPtr kernel = map.exprs[map.expr_of[f]]->CompileKernel(layout_);
    if (kernel == nullptr) return false;
    FieldSource source;
    source.type = type;
    source.column = next.AddColumn(type);
    sources.push_back(source);
    computed.push_back({std::move(kernel), source.column, type});
  }
  std::vector<std::string> names;
  for (const Field& field : out_schema.fields()) names.push_back(field.name);
  next.SetFields(std::move(names), std::move(sources));
  BatchKernelOperator::Stage stage;
  stage.name = "Map";
  stage.in_record_size = current_.record_size();
  stage.out_record_size = out_schema.record_size();
  stage.computed = std::move(computed);
  op_->stages_.push_back(std::move(stage));
  op_->exprs_.insert(op_->exprs_.end(), map.exprs.begin(), map.exprs.end());
  current_ = out_schema;
  layout_ = std::move(next);
  return true;
}

bool BatchKernelCompiler::AddProject(const std::vector<std::string>& fields) {
  if (fields.empty()) return false;
  std::vector<Field> out_fields;
  std::vector<FieldSource> sources;
  for (const std::string& name : fields) {
    auto idx = current_.IndexOf(name);
    if (!idx.ok()) return false;
    out_fields.push_back(current_.field(*idx));
    sources.push_back(layout_.sources()[*idx]);
  }
  auto out_schema = Schema::Make(std::move(out_fields));
  if (!out_schema.ok()) return false;
  BatchKernelOperator::Stage stage;
  stage.name = "Project";
  stage.in_record_size = current_.record_size();
  stage.out_record_size = out_schema->record_size();
  op_->stages_.push_back(std::move(stage));
  current_ = *std::move(out_schema);
  layout_.SetFields(fields, std::move(sources));
  return true;
}

void BatchKernelCompiler::AttachCseCache(std::shared_ptr<ColumnCache> cache) {
  op_->cse_cache_ = std::move(cache);
}

OperatorPtr BatchKernelCompiler::Finish() && {
  BatchKernelOperator& op = *op_;
  op.output_schema_ = current_;
  // Only Map and Project stages (the ones without a predicate) change the
  // row layout; a run of Filters alone emits its refined selection.
  for (const BatchKernelOperator::Stage& stage : op.stages_) {
    op.writes_output_ = op.writes_output_ || stage.predicate == nullptr;
  }
  // The end-of-run write: pass-through fields as coalesced byte moves from
  // the input record, computed fields from their run columns.
  for (size_t f = 0; f < current_.num_fields(); ++f) {
    const FieldSource& source = layout_.sources()[f];
    const size_t dst = current_.offset(f);
    if (source.computed()) {
      op.column_copies_.push_back({source.column, dst, source.type});
    } else {
      AppendCopy(&op.input_copies_, source.offset, dst,
                 DataTypeSize(source.type));
    }
  }
  op.column_types_ = layout_.column_types();
  op.columns_.resize(op.column_types_.size());
  op.column_ptrs_.resize(op.column_types_.size());
  return OperatorPtr(std::move(op_));
}

}  // namespace nebulameos::nebula::exec
