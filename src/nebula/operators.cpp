#include "nebula/operators.hpp"

#include <algorithm>
#include <cstring>

#include "common/strings.hpp"

namespace nebulameos::nebula {

TupleBufferPtr ExecutionContext::Allocate(const Schema& schema) {
  std::shared_ptr<BufferManager> pool;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = pools_[schema.ToString()];
    if (!slot) {
      slot = BufferManager::Create(schema, tuples_per_buffer_, pool_size_);
    }
    pool = slot;
  }
  return pool->Acquire();
}

uint64_t ExecutionContext::TotalBuffersAcquired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [key, pool] : pools_) total += pool->total_acquired();
  return total;
}

uint64_t ExecutionContext::TotalBuffersCreated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const auto& [key, pool] : pools_) total += pool->created();
  return total;
}

// --- Interpreted materialization ---------------------------------------------

namespace {

// Shared interpreted-materialization loop of MapOperator::ProcessBatch and
// ProjectOperator::ProcessBatch: allocate one output buffer, write one
// record per selected row, seal. `write` receives (input record, writer).
template <typename WriteFn>
Result<exec::Batch> MaterializeRows(ExecutionContext* ctx,
                                    const Schema& out_schema,
                                    const exec::Batch& input,
                                    const WriteFn& write) {
  NM_ASSIGN_OR_RETURN(
      TupleBufferPtr out,
      exec::AllocateOutputFor(*input.data, input.NumRows(), out_schema, ctx));
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    RecordWriter w = out->Append();
    write(rec, &w);
  }
  out->Seal();
  return exec::Batch(std::move(out));
}

}  // namespace

// --- Filter -------------------------------------------------------------------

Result<OperatorPtr> FilterOperator::Make(const Schema& input,
                                         ExprPtr predicate) {
  if (!predicate) return Status::InvalidArgument("filter without predicate");
  NM_RETURN_NOT_OK(predicate->Bind(input));
  return OperatorPtr(new FilterOperator(input, std::move(predicate)));
}

Status FilterOperator::ProcessBatch(const exec::Batch& input,
                                    const BatchEmitFn& emit) {
  const size_t n = input.NumRows();
  if (n == 0) return Status::OK();
  scratch_sel_.clear();
  for (size_t i = 0; i < n; ++i) {
    const size_t row = input.RowAt(i);
    if (ValueAsBool(predicate_->Eval(input.data->At(row)))) {
      scratch_sel_.push_back(static_cast<uint32_t>(row));
    }
  }
  if (scratch_sel_.size() == n) {
    // Fully selective: the input batch passes through untouched.
    emit(input);
    return Status::OK();
  }
  if (scratch_sel_.empty()) return Status::OK();
  emit(exec::TakePartialSelection(&scratch_sel_, input));
  return Status::OK();
}

// --- Map ----------------------------------------------------------------------

Result<MapLayout> PlanMapLayout(const Schema& input,
                                std::vector<MapSpec> specs) {
  if (specs.empty()) return Status::InvalidArgument("map without specs");
  // Bind expressions against the *input* schema.
  for (MapSpec& spec : specs) {
    if (!spec.expr) return Status::InvalidArgument("map spec without expr");
    NM_RETURN_NOT_OK(spec.expr->Bind(input));
  }
  // Output schema: input fields (possibly replaced), then new fields in
  // spec order.
  MapLayout layout;
  std::vector<Field> fields = input.fields();
  layout.copy_from.resize(fields.size());
  layout.expr_of.assign(fields.size(), -1);
  for (size_t i = 0; i < fields.size(); ++i) {
    layout.copy_from[i] = static_cast<int>(i);
  }
  for (size_t s = 0; s < specs.size(); ++s) {
    const MapSpec& spec = specs[s];
    bool replaced = false;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].name == spec.name) {
        fields[i].type = spec.expr->output_type();
        layout.copy_from[i] = -1;
        layout.expr_of[i] = static_cast<int>(s);
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      fields.push_back({spec.name, spec.expr->output_type()});
      layout.copy_from.push_back(-1);
      layout.expr_of.push_back(static_cast<int>(s));
    }
  }
  NM_ASSIGN_OR_RETURN(layout.output_schema, Schema::Make(std::move(fields)));
  for (MapSpec& spec : specs) layout.exprs.push_back(std::move(spec.expr));
  return layout;
}

Result<OperatorPtr> MapOperator::Make(const Schema& input,
                                      std::vector<MapSpec> specs) {
  auto op = std::unique_ptr<MapOperator>(new MapOperator());
  NM_ASSIGN_OR_RETURN(op->layout_, PlanMapLayout(input, std::move(specs)));
  return OperatorPtr(std::move(op));
}

void MapOperator::WriteRecord(const RecordView& rec, RecordWriter* w) const {
  const Schema& out_schema = layout_.output_schema;
  for (size_t f = 0; f < out_schema.num_fields(); ++f) {
    if (layout_.copy_from[f] >= 0) {
      const size_t src = static_cast<size_t>(layout_.copy_from[f]);
      switch (out_schema.field(f).type) {
        case DataType::kBool:
          w->SetBool(f, rec.GetBool(src));
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          w->SetInt64(f, rec.GetInt64(src));
          break;
        case DataType::kDouble:
          w->SetDouble(f, rec.GetDouble(src));
          break;
        case DataType::kText16:
        case DataType::kText32:
          w->SetText(f, rec.GetText(src));
          break;
      }
      continue;
    }
    const Value v = layout_.exprs[layout_.expr_of[f]]->Eval(rec);
    switch (out_schema.field(f).type) {
      case DataType::kBool:
        w->SetBool(f, ValueAsBool(v));
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
        w->SetInt64(f, ValueAsInt64(v));
        break;
      case DataType::kDouble:
        w->SetDouble(f, ValueAsDouble(v));
        break;
      case DataType::kText16:
      case DataType::kText32:
        w->SetText(f, ValueToString(v));
        break;
    }
  }
}

Status MapOperator::ProcessBatch(const exec::Batch& input,
                                 const BatchEmitFn& emit) {
  if (input.NumRows() == 0) return Status::OK();
  // Interpreted map over the selection: computes only surviving rows, no
  // intermediate materialization of the input.
  NM_ASSIGN_OR_RETURN(
      exec::Batch result,
      MaterializeRows(ctx_, layout_.output_schema, input,
                      [this](const RecordView& rec, RecordWriter* w) {
                        WriteRecord(rec, w);
                      }));
  emit(result);
  return Status::OK();
}

// --- Project ------------------------------------------------------------------

Result<OperatorPtr> ProjectOperator::Make(const Schema& input,
                                          std::vector<std::string> names) {
  if (names.empty()) return Status::InvalidArgument("project without fields");
  auto op = std::unique_ptr<ProjectOperator>(new ProjectOperator());
  std::vector<Field> fields;
  for (const std::string& name : names) {
    NM_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(name));
    op->indices_.push_back(idx);
    fields.push_back(input.field(idx));
  }
  NM_ASSIGN_OR_RETURN(op->output_schema_, Schema::Make(std::move(fields)));
  return OperatorPtr(std::move(op));
}

void ProjectOperator::WriteRecord(const RecordView& rec,
                                  RecordWriter* w) const {
  for (size_t f = 0; f < indices_.size(); ++f) {
    const size_t src = indices_[f];
    switch (output_schema_.field(f).type) {
      case DataType::kBool:
        w->SetBool(f, rec.GetBool(src));
        break;
      case DataType::kInt64:
      case DataType::kTimestamp:
        w->SetInt64(f, rec.GetInt64(src));
        break;
      case DataType::kDouble:
        w->SetDouble(f, rec.GetDouble(src));
        break;
      case DataType::kText16:
      case DataType::kText32:
        w->SetText(f, rec.GetText(src));
        break;
    }
  }
}

Status ProjectOperator::ProcessBatch(const exec::Batch& input,
                                     const BatchEmitFn& emit) {
  if (input.NumRows() == 0) return Status::OK();
  NM_ASSIGN_OR_RETURN(
      exec::Batch result,
      MaterializeRows(ctx_, output_schema_, input,
                      [this](const RecordView& rec, RecordWriter* w) {
                        WriteRecord(rec, w);
                      }));
  emit(result);
  return Status::OK();
}

// --- WindowAgg helpers ----------------------------------------------------------

namespace {

// Builds the window-result schema shared by time and threshold windows:
// [key] + window_start + window_end + aggregates + custom fields.
Result<Schema> MakeWindowOutputSchema(
    const Schema& input, const std::string& key_field,
    const std::vector<AggregateSpec>& aggs,
    const std::vector<CustomAggregatorFactory>& customs,
    size_t* custom_first_field) {
  std::vector<Field> fields;
  if (!key_field.empty()) {
    NM_ASSIGN_OR_RETURN(size_t key_idx, input.IndexOf(key_field));
    fields.push_back(input.field(key_idx));
  }
  fields.push_back({"window_start", DataType::kTimestamp});
  fields.push_back({"window_end", DataType::kTimestamp});
  for (const AggregateSpec& spec : aggs) {
    const DataType out_type =
        spec.kind == AggKind::kCount ? DataType::kInt64 : DataType::kDouble;
    fields.push_back({spec.output_name, out_type});
  }
  *custom_first_field = fields.size();
  for (const CustomAggregatorFactory& factory : customs) {
    auto agg = factory();
    NM_RETURN_NOT_OK(agg->Bind(input));
    for (const Field& f : agg->OutputFields()) fields.push_back(f);
  }
  return Schema::Make(std::move(fields));
}

// Resolves aggregate input-field indices (kCount uses the time field).
Result<std::vector<size_t>> ResolveAggFields(
    const Schema& input, const std::vector<AggregateSpec>& aggs,
    size_t time_index) {
  std::vector<size_t> out;
  out.reserve(aggs.size());
  for (const AggregateSpec& spec : aggs) {
    if (spec.kind == AggKind::kCount && spec.field.empty()) {
      out.push_back(time_index);
      continue;
    }
    NM_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(spec.field));
    if (!IsNumeric(input.field(idx).type) &&
        input.field(idx).type != DataType::kBool) {
      return Status::InvalidArgument("aggregate over non-numeric field: " +
                                     spec.field);
    }
    out.push_back(idx);
  }
  return out;
}

void WriteKey(RecordWriter* w, size_t field, DataType type,
              const std::variant<int64_t, std::string>& key) {
  if (std::holds_alternative<int64_t>(key)) {
    w->SetInt64(field, std::get<int64_t>(key));
  } else if (type == DataType::kText16 || type == DataType::kText32) {
    w->SetText(field, std::get<std::string>(key));
  }
}

}  // namespace

// --- WindowAggOperator ------------------------------------------------------------

Result<OperatorPtr> WindowAggOperator::Make(const Schema& input,
                                            WindowAggOptions options) {
  auto op = std::unique_ptr<WindowAggOperator>(new WindowAggOperator());
  op->input_schema_ = input;
  NM_ASSIGN_OR_RETURN(op->assigner_, WindowAssigner::Make(options.window));
  op->keyed_ = !options.key_field.empty();
  if (op->keyed_) {
    NM_ASSIGN_OR_RETURN(op->key_index_, input.IndexOf(options.key_field));
    op->key_type_ = input.field(op->key_index_).type;
  }
  if (options.time_field.empty()) {
    return Status::InvalidArgument("window aggregation needs a time field");
  }
  NM_ASSIGN_OR_RETURN(op->time_index_, input.IndexOf(options.time_field));
  NM_ASSIGN_OR_RETURN(
      op->agg_field_index_,
      ResolveAggFields(input, options.aggregates, op->time_index_));
  NM_ASSIGN_OR_RETURN(
      op->output_schema_,
      MakeWindowOutputSchema(input, options.key_field, options.aggregates,
                             options.custom_aggregators,
                             &op->custom_first_field_));
  op->options_ = std::move(options);
  return OperatorPtr(std::move(op));
}

WindowAggOperator::Pane WindowAggOperator::MakePane() const {
  Pane pane;
  pane.states.resize(options_.aggregates.size());
  for (const CustomAggregatorFactory& factory : options_.custom_aggregators) {
    auto agg = factory();
    Status s = agg->Bind(input_schema_);
    assert(s.ok());  // validated in Make
    (void)s;
    pane.customs.push_back(std::move(agg));
  }
  return pane;
}

WindowAggOperator::KeyValue WindowAggOperator::KeyOf(
    const RecordView& rec) const {
  if (!keyed_) return int64_t{0};
  if (key_type_ == DataType::kText16 || key_type_ == DataType::kText32) {
    return rec.GetText(key_index_);
  }
  return rec.GetInt64(key_index_);
}

void WindowAggOperator::WritePane(const PaneKey& key, Pane& pane,
                                  TupleBuffer* out) const {
  RecordWriter w = out->Append();
  size_t f = 0;
  if (keyed_) {
    WriteKey(&w, f, key_type_, key.second);
    ++f;
  }
  w.SetInt64(f++, key.first);
  w.SetInt64(f++, key.first + assigner_.size());
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    const double v = pane.states[a].Result(options_.aggregates[a].kind);
    if (options_.aggregates[a].kind == AggKind::kCount) {
      w.SetInt64(f++, static_cast<int64_t>(v));
    } else {
      w.SetDouble(f++, v);
    }
  }
  size_t custom_field = custom_first_field_;
  for (auto& agg : pane.customs) {
    agg->WriteResult(&w, custom_field);
    custom_field += agg->OutputFields().size();
  }
}

Status WindowAggOperator::FireUpTo(Timestamp watermark,
                                   const BatchEmitFn& emit) {
  fired_through_ = std::max(fired_through_, watermark);
  TupleBufferPtr out;
  auto it = panes_.begin();
  while (it != panes_.end()) {
    const Timestamp window_end = it->first.first + assigner_.size();
    if (window_end > watermark) {
      // Panes are ordered by window start; later starts may still be open,
      // but all panes with start < watermark - size are closed. Iterate on:
      // only skip, since keys interleave.
      ++it;
      continue;
    }
    if (!out) out = ctx_->Allocate(output_schema_);
    if (out->full()) {
      emit(exec::SealedBatch(out));
      out = ctx_->Allocate(output_schema_);
    }
    WritePane(it->first, it->second, out.get());
    it = panes_.erase(it);
  }
  if (out && !out->empty()) emit(exec::SealedBatch(std::move(out)));
  return Status::OK();
}

Status WindowAggOperator::ProcessBatch(const exec::Batch& input,
                                       const BatchEmitFn& emit) {
  uint64_t shed = 0;
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    const Timestamp t = rec.GetInt64(time_index_);
    max_event_time_ = std::max(max_event_time_, t);
    assigner_.AssignWindows(t, &scratch_starts_);
    const KeyValue key = KeyOf(rec);
    bool joined = false;
    for (Timestamp start : scratch_starts_) {
      // Monotonicity guard: a pane whose window already fired must not be
      // resurrected by a late record — that would emit the window twice.
      if (start + assigner_.size() <= fired_through_) continue;
      joined = true;
      auto [it, inserted] = panes_.try_emplace({start, key});
      if (inserted) it->second = MakePane();
      Pane& pane = it->second;
      for (size_t a = 0; a < options_.aggregates.size(); ++a) {
        pane.states[a].Add(rec.GetNumeric(agg_field_index_[a]), t);
      }
      for (auto& agg : pane.customs) agg->Add(rec, t);
    }
    if (!joined) ++shed;
  }
  if (shed > 0) CountShed(shed);
  // Watermark: the max event time seen, minus allowed lateness.
  if (max_event_time_ != std::numeric_limits<Timestamp>::min()) {
    return FireUpTo(max_event_time_ - options_.allowed_lateness, emit);
  }
  return Status::OK();
}

Status WindowAggOperator::Finish(const BatchEmitFn& emit) {
  return FireUpTo(std::numeric_limits<Timestamp>::max(), emit);
}

// --- ThresholdWindowOperator --------------------------------------------------------

Result<OperatorPtr> ThresholdWindowOperator::Make(
    const Schema& input, ThresholdWindowOptions options) {
  if (!options.predicate) {
    return Status::InvalidArgument("threshold window needs a predicate");
  }
  NM_RETURN_NOT_OK(options.predicate->Bind(input));
  auto op =
      std::unique_ptr<ThresholdWindowOperator>(new ThresholdWindowOperator());
  op->input_schema_ = input;
  op->keyed_ = !options.key_field.empty();
  if (op->keyed_) {
    NM_ASSIGN_OR_RETURN(op->key_index_, input.IndexOf(options.key_field));
    op->key_type_ = input.field(op->key_index_).type;
  }
  if (options.time_field.empty()) {
    return Status::InvalidArgument("threshold window needs a time field");
  }
  NM_ASSIGN_OR_RETURN(op->time_index_, input.IndexOf(options.time_field));
  NM_ASSIGN_OR_RETURN(
      op->agg_field_index_,
      ResolveAggFields(input, options.aggregates, op->time_index_));
  NM_ASSIGN_OR_RETURN(
      op->output_schema_,
      MakeWindowOutputSchema(input, options.key_field, options.aggregates,
                             options.custom_aggregators,
                             &op->custom_first_field_));
  op->options_ = std::move(options);
  return OperatorPtr(std::move(op));
}

ThresholdWindowOperator::OpenWindow ThresholdWindowOperator::MakeWindow(
    Timestamp start) const {
  OpenWindow win;
  win.start = start;
  win.last = start;
  win.states.resize(options_.aggregates.size());
  for (const CustomAggregatorFactory& factory : options_.custom_aggregators) {
    auto agg = factory();
    Status s = agg->Bind(input_schema_);
    assert(s.ok());
    (void)s;
    win.customs.push_back(std::move(agg));
  }
  return win;
}

void ThresholdWindowOperator::CloseInto(const KeyValue& key, OpenWindow& win,
                                        TupleBuffer* out) const {
  RecordWriter w = out->Append();
  size_t f = 0;
  if (keyed_) {
    WriteKey(&w, f, key_type_, key);
    ++f;
  }
  w.SetInt64(f++, win.start);
  w.SetInt64(f++, win.last);
  for (size_t a = 0; a < options_.aggregates.size(); ++a) {
    const double v = win.states[a].Result(options_.aggregates[a].kind);
    if (options_.aggregates[a].kind == AggKind::kCount) {
      w.SetInt64(f++, static_cast<int64_t>(v));
    } else {
      w.SetDouble(f++, v);
    }
  }
  size_t custom_field = custom_first_field_;
  for (auto& agg : win.customs) {
    agg->WriteResult(&w, custom_field);
    custom_field += agg->OutputFields().size();
  }
}

Status ThresholdWindowOperator::ProcessBatch(const exec::Batch& input,
                                             const BatchEmitFn& emit) {
  TupleBufferPtr out;
  uint64_t shed = 0;
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    const Timestamp t = rec.GetInt64(time_index_);
    KeyValue key = keyed_ ? (key_type_ == DataType::kText16 ||
                                     key_type_ == DataType::kText32
                                 ? KeyValue(rec.GetText(key_index_))
                                 : KeyValue(rec.GetInt64(key_index_)))
                          : KeyValue(int64_t{0});
    const bool holds = ValueAsBool(options_.predicate->Eval(rec));
    auto it = open_.find(key);
    if (holds) {
      // Monotonicity guard: a satisfying record at or before the last
      // closed window of its key belongs to a window already emitted —
      // applying it would resurrect or skew that window, so shed it.
      auto closed = closed_through_.find(key);
      if (closed != closed_through_.end() && t <= closed->second) {
        ++shed;
        continue;
      }
      if (it == open_.end()) {
        it = open_.emplace(std::move(key), MakeWindow(t)).first;
      }
      OpenWindow& win = it->second;
      // Repair mild disorder inside the open window: extend both bounds.
      win.start = std::min(win.start, t);
      win.last = std::max(win.last, t);
      for (size_t a = 0; a < options_.aggregates.size(); ++a) {
        win.states[a].Add(rec.GetNumeric(agg_field_index_[a]), t);
      }
      for (auto& agg : win.customs) agg->Add(rec, t);
    } else if (it != open_.end()) {
      // Close the window; emit when long enough.
      if (it->second.last - it->second.start >= options_.min_duration) {
        if (!out) out = ctx_->Allocate(output_schema_);
        if (out->full()) {
          emit(exec::SealedBatch(out));
          out = ctx_->Allocate(output_schema_);
        }
        CloseInto(it->first, it->second, out.get());
      }
      auto [closed, inserted] =
          closed_through_.try_emplace(it->first, it->second.last);
      if (!inserted) closed->second = std::max(closed->second, it->second.last);
      open_.erase(it);
    }
  }
  if (shed > 0) CountShed(shed);
  if (out && !out->empty()) emit(exec::SealedBatch(std::move(out)));
  return Status::OK();
}

Status ThresholdWindowOperator::Finish(const BatchEmitFn& emit) {
  TupleBufferPtr out;
  for (auto& [key, win] : open_) {
    if (win.last - win.start < options_.min_duration) continue;
    if (!out) out = ctx_->Allocate(output_schema_);
    if (out->full()) {
      emit(exec::SealedBatch(out));
      out = ctx_->Allocate(output_schema_);
    }
    CloseInto(key, win, out.get());
  }
  open_.clear();
  if (out && !out->empty()) emit(exec::SealedBatch(std::move(out)));
  return Status::OK();
}

// --- Network channel pair ---------------------------------------------------

namespace {

// Wire frame layout: [record_count u64][buffer_seq u64][watermark i64]
// [channel_seq u64] then `record_count * record_size` raw record bytes
// (see `kWireFrameHeaderBytes`). Records are fixed-size (text fields
// NUL-padded), so a full batch's payload is a straight memcpy of the
// buffer's record region and a partial one gathers its selected rows.
std::vector<uint8_t> SerializeFrame(const exec::Batch& batch,
                                    uint64_t channel_seq) {
  const TupleBuffer& buffer = *batch.data;
  const size_t payload = batch.SizeBytes();
  std::vector<uint8_t> frame(kWireFrameHeaderBytes + payload);
  const uint64_t count = batch.NumRows();
  const uint64_t buffer_seq = buffer.sequence_number();
  const int64_t watermark = buffer.watermark();
  std::memcpy(frame.data(), &count, sizeof(count));
  std::memcpy(frame.data() + 8, &buffer_seq, sizeof(buffer_seq));
  std::memcpy(frame.data() + 16, &watermark, sizeof(watermark));
  std::memcpy(frame.data() + 24, &channel_seq, sizeof(channel_seq));
  if (payload == 0) return frame;
  uint8_t* dst = frame.data() + kWireFrameHeaderBytes;
  if (batch.IsFull()) {
    std::memcpy(dst, buffer.At(0).data(), payload);
    return frame;
  }
  const size_t stride = buffer.schema().record_size();
  for (size_t i = 0; i < count; ++i, dst += stride) {
    std::memcpy(dst, buffer.At(batch.RowAt(i)).data(), stride);
  }
  return frame;
}

}  // namespace

Result<OperatorPtr> NetworkChannelSink::Make(
    const Schema& input, std::shared_ptr<NetworkChannel> channel) {
  if (!channel) {
    return Status::InvalidArgument("network channel sink without channel");
  }
  return OperatorPtr(new NetworkChannelSink(input, std::move(channel)));
}

Status NetworkChannelSink::ProcessBatch(const exec::Batch& input,
                                        const BatchEmitFn& emit) {
  channel_->Send(next_seq_, SerializeFrame(input, next_seq_),
                 input.SizeBytes(), input.NumRows());
  ++next_seq_;
  // The emitted batch only drives the paired NetworkChannelSource, which
  // reads the serialized frame from the channel instead.
  emit(input);
  return Status::OK();
}

Status NetworkChannelSink::Finish(const BatchEmitFn& /*emit*/) {
  // End of stream: nothing more will push frames past the injector's
  // reorder slot or age its delay queue, so release them now. The paired
  // source's Finish runs after this one (chain order) and drains them.
  channel_->FlushFaults();
  return Status::OK();
}

Result<OperatorPtr> NetworkChannelSource::Make(
    const Schema& schema, std::shared_ptr<NetworkChannel> channel) {
  if (!channel) {
    return Status::InvalidArgument("network channel source without channel");
  }
  return OperatorPtr(new NetworkChannelSource(schema, std::move(channel)));
}

Status NetworkChannelSource::StashFrame(std::vector<uint8_t> frame) {
  if (frame.size() < kWireFrameHeaderBytes) {
    return Status::Internal("network frame shorter than its header");
  }
  PendingFrame pending;
  uint64_t channel_seq = 0;
  std::memcpy(&pending.count, frame.data(), sizeof(pending.count));
  std::memcpy(&pending.buffer_seq, frame.data() + 8,
              sizeof(pending.buffer_seq));
  std::memcpy(&pending.watermark, frame.data() + 16,
              sizeof(pending.watermark));
  std::memcpy(&channel_seq, frame.data() + 24, sizeof(channel_seq));
  if (frame.size() !=
      kWireFrameHeaderBytes + pending.count * schema_.record_size()) {
    return Status::Internal(
        "network frame payload does not match its record count");
  }
  // Duplicate suppression: already released, or already waiting.
  if (channel_seq < next_seq_ || pending_.count(channel_seq) > 0) {
    channel_->NoteDuplicateSuppressed();
    return Status::OK();
  }
  pending.frame = std::move(frame);
  pending_.emplace(channel_seq, std::move(pending));
  return Status::OK();
}

Status NetworkChannelSource::EmitFrame(const PendingFrame& pending,
                                       const BatchEmitFn& emit) {
  const size_t record_size = schema_.record_size();
  const uint8_t* payload = pending.frame.data() + kWireFrameHeaderBytes;
  // Clamp the watermark monotonic per channel: reorder repair restores
  // frame order, but a retransmitted or delayed frame may still carry a
  // watermark older than one already emitted.
  const int64_t watermark = std::max(pending.watermark, last_watermark_);
  last_watermark_ = watermark;
  // Reconstruct buffers, splitting when a frame outsizes the pool shape.
  uint64_t emitted = 0;
  do {
    TupleBufferPtr out = ctx_->Allocate(schema_);
    out->set_sequence_number(pending.buffer_seq);
    out->set_watermark(watermark);
    const uint64_t chunk =
        std::min<uint64_t>(pending.count - emitted, out->capacity());
    out->AppendRecords(payload + emitted * record_size, chunk);
    emitted += chunk;
    emit(exec::SealedBatch(std::move(out)));
  } while (emitted < pending.count);
  return Status::OK();
}

Status NetworkChannelSource::ReleaseReady(const BatchEmitFn& emit) {
  while (!pending_.empty() && pending_.begin()->first == next_seq_) {
    PendingFrame pending = std::move(pending_.begin()->second);
    pending_.erase(pending_.begin());
    NM_RETURN_NOT_OK(EmitFrame(pending, emit));
    channel_->Ack(next_seq_);
    ++next_seq_;
  }
  return Status::OK();
}

Status NetworkChannelSource::Drain(const BatchEmitFn& emit, bool at_end) {
  for (;;) {
    std::vector<uint8_t> frame;
    while (channel_->Receive(&frame)) {
      NM_RETURN_NOT_OK(StashFrame(std::move(frame)));
    }
    NM_RETURN_NOT_OK(ReleaseReady(emit));
    // After releasing the in-sequence prefix, anything still pending sits
    // behind a gap at next_seq_. Repair it when the buffer overflows its
    // bound (a gap older than the buffer is the deterministic stand-in for
    // a retransmit timeout), or at end-of-stream when the sender's tail
    // never arrived.
    constexpr size_t kReorderCapacity = 64;  // frames
    const RetryOptions& retry = channel_->retry_options();
    const bool overflow = pending_.size() > kReorderCapacity;
    const bool tail_missing = at_end && next_seq_ < channel_->seq_end();
    if (!overflow && !tail_missing) return Status::OK();
    Status repair = channel_->RequestRetransmit(next_seq_);
    if (repair.ok()) continue;  // re-sent; the next Receive round has it
    // Unrecoverable gap: degrade by policy.
    if (retry.shed_policy == ShedPolicy::kBlock) {
      return Status(repair.code(), "network channel " +
                                       channel_->EndpointsString() +
                                       ": " + repair.message());
    }
    channel_->NoteFrameLost(1);
    ++next_seq_;  // skip the gap; frames behind it release next round
  }
}

Status NetworkChannelSource::ProcessBatch(const exec::Batch& /*input*/,
                                          const BatchEmitFn& emit) {
  // Scheduling hand-off only; the data arrives through the channel.
  return Drain(emit, /*at_end=*/false);
}

Status NetworkChannelSource::Finish(const BatchEmitFn& emit) {
  // Frames flushed by upstream Finish calls (including the paired sink's
  // fault flush) land here; recover any missing tail before reporting
  // end-of-stream.
  return Drain(emit, /*at_end=*/true);
}

// --- Sinks -------------------------------------------------------------------

Status SinkOperator::ProcessBatch(const exec::Batch& input,
                                  const BatchEmitFn&) {
  return Consume(input);
}

std::vector<std::vector<Value>> CollectSink::Rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

size_t CollectSink::RowCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

Status CollectSink::Consume(const exec::Batch& batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < batch.NumRows(); ++i) {
    if (rows_.size() >= max_rows_) {
      return Status::ResourceExhausted("collect sink row cap reached");
    }
    const RecordView rec = batch.data->At(batch.RowAt(i));
    std::vector<Value> row;
    row.reserve(schema_.num_fields());
    for (size_t f = 0; f < schema_.num_fields(); ++f) {
      switch (schema_.field(f).type) {
        case DataType::kBool:
          row.emplace_back(rec.GetBool(f));
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          row.emplace_back(rec.GetInt64(f));
          break;
        case DataType::kDouble:
          row.emplace_back(rec.GetDouble(f));
          break;
        case DataType::kText16:
        case DataType::kText32:
          row.emplace_back(rec.GetText(f));
          break;
      }
    }
    rows_.push_back(std::move(row));
  }
  return Status::OK();
}

Status CountingSink::Consume(const exec::Batch& batch) {
  events_.fetch_add(batch.NumRows());
  bytes_.fetch_add(batch.SizeBytes());
  return Status::OK();
}

Result<std::shared_ptr<CsvSink>> CsvSink::Open(Schema schema,
                                               const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open csv sink file: " + path);
  }
  // Header line.
  std::string header;
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) header += ',';
    header += schema.field(i).name;
  }
  header += '\n';
  std::fputs(header.c_str(), f);
  return std::shared_ptr<CsvSink>(new CsvSink(std::move(schema), f));
}

CsvSink::~CsvSink() {
  if (file_ != nullptr) std::fclose(file_);
}

Status CsvSink::Consume(const exec::Batch& batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string line;
  for (size_t i = 0; i < batch.NumRows(); ++i) {
    const RecordView rec = batch.data->At(batch.RowAt(i));
    line.clear();
    for (size_t f = 0; f < schema_.num_fields(); ++f) {
      if (f > 0) line += ',';
      switch (schema_.field(f).type) {
        case DataType::kBool:
          line += rec.GetBool(f) ? "true" : "false";
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          line += std::to_string(rec.GetInt64(f));
          break;
        case DataType::kDouble:
          line += FormatDouble(rec.GetDouble(f));
          break;
        case DataType::kText16:
        case DataType::kText32:
          line += rec.GetText(f);
          break;
      }
    }
    line += '\n';
    std::fputs(line.c_str(), file_);
  }
  return Status::OK();
}

}  // namespace nebulameos::nebula
