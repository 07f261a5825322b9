#include "nebula/cep.hpp"

#include <algorithm>

namespace nebulameos::nebula {

Result<OperatorPtr> CepOperator::Make(const Schema& input, Pattern pattern,
                                      std::vector<Measure> measures) {
  if (pattern.steps.empty()) {
    return Status::InvalidArgument("pattern needs at least one step");
  }
  if (pattern.steps.front().negated) {
    return Status::InvalidArgument("pattern cannot start with a negated step");
  }
  if (pattern.steps.back().negated) {
    return Status::InvalidArgument("pattern cannot end with a negated step");
  }
  for (size_t i = 0; i + 1 < pattern.steps.size(); ++i) {
    if (pattern.steps[i].negated && pattern.steps[i + 1].negated) {
      return Status::InvalidArgument("consecutive negated steps unsupported");
    }
    if (pattern.steps[i].negated && pattern.steps[i].one_or_more) {
      return Status::InvalidArgument("negated step cannot be one_or_more");
    }
  }
  if (pattern.time_field.empty()) {
    return Status::InvalidArgument("pattern needs a time field");
  }
  auto op = std::unique_ptr<CepOperator>(new CepOperator());
  op->input_schema_ = input;
  for (PatternStep& step : pattern.steps) {
    if (!step.predicate) {
      return Status::InvalidArgument("pattern step without predicate: " +
                                     step.name);
    }
    NM_RETURN_NOT_OK(step.predicate->Bind(input));
  }
  op->keyed_ = !pattern.key_field.empty();
  if (op->keyed_) {
    NM_ASSIGN_OR_RETURN(op->key_index_, input.IndexOf(pattern.key_field));
    op->key_type_ = input.field(op->key_index_).type;
  }
  NM_ASSIGN_OR_RETURN(op->time_index_, input.IndexOf(pattern.time_field));
  // Resolve measures.
  for (const Measure& m : measures) {
    int step_idx = -1;
    for (size_t s = 0; s < pattern.steps.size(); ++s) {
      if (pattern.steps[s].name == m.step) {
        step_idx = static_cast<int>(s);
        break;
      }
    }
    if (step_idx < 0) {
      return Status::InvalidArgument("measure references unknown step: " +
                                     m.step);
    }
    if (pattern.steps[step_idx].negated) {
      return Status::InvalidArgument("measure over negated step: " + m.step);
    }
    op->step_index_by_name_.push_back(step_idx);
    if (m.kind == MeasureKind::kCount) {
      op->measure_field_index_.push_back(-1);
    } else {
      NM_ASSIGN_OR_RETURN(size_t fi, input.IndexOf(m.field));
      op->measure_field_index_.push_back(static_cast<int>(fi));
    }
  }
  // Output schema.
  std::vector<Field> fields;
  if (op->keyed_) fields.push_back(input.field(op->key_index_));
  fields.push_back({"match_start", DataType::kTimestamp});
  fields.push_back({"match_end", DataType::kTimestamp});
  for (const Measure& m : measures) {
    fields.push_back({m.output_name, m.kind == MeasureKind::kCount
                                         ? DataType::kInt64
                                         : DataType::kDouble});
  }
  NM_ASSIGN_OR_RETURN(op->output_schema_, Schema::Make(std::move(fields)));
  op->pattern_ = std::move(pattern);
  op->measures_ = std::move(measures);
  return OperatorPtr(std::move(op));
}

CepOperator::KeyValue CepOperator::KeyOf(const RecordView& rec) const {
  if (!keyed_) return int64_t{0};
  if (key_type_ == DataType::kText16 || key_type_ == DataType::kText32) {
    return rec.GetText(key_index_);
  }
  return rec.GetInt64(key_index_);
}

void CepOperator::EmitMatch(const KeyValue& key, const Run& run,
                            TupleBuffer* out) const {
  RecordWriter w = out->Append();
  size_t f = 0;
  if (keyed_) {
    if (std::holds_alternative<int64_t>(key)) {
      w.SetInt64(f, std::get<int64_t>(key));
    } else {
      w.SetText(f, std::get<std::string>(key));
    }
    ++f;
  }
  w.SetInt64(f++, run.start);
  w.SetInt64(f++, run.last);
  for (size_t m = 0; m < measures_.size(); ++m) {
    const StepFold& fold = run.folds[m];
    switch (measures_[m].kind) {
      case MeasureKind::kFirst:
        w.SetDouble(f++, fold.first);
        break;
      case MeasureKind::kLast:
        w.SetDouble(f++, fold.last);
        break;
      case MeasureKind::kCount:
        w.SetInt64(f++, fold.count);
        break;
      case MeasureKind::kMin:
        w.SetDouble(f++, fold.min);
        break;
      case MeasureKind::kMax:
        w.SetDouble(f++, fold.max);
        break;
      case MeasureKind::kAvg:
        w.SetDouble(f++, fold.count == 0
                             ? 0.0
                             : fold.sum / static_cast<double>(fold.count));
        break;
    }
  }
}

bool CepOperator::AdvanceRun(Run* run, const RecordView& rec, Timestamp t,
                             bool* completed) const {
  *completed = false;
  const size_t n = pattern_.steps.size();
  if (run->step >= n) return false;  // defensive; completed runs are removed
  const PatternStep& step = pattern_.steps[run->step];

  auto fold_measures = [&](size_t step_idx) {
    for (size_t m = 0; m < measures_.size(); ++m) {
      if (step_index_by_name_[m] != static_cast<int>(step_idx)) continue;
      const int fi = measure_field_index_[m];
      run->folds[m].Add(fi < 0 ? 1.0 : rec.GetNumeric(fi));
    }
  };

  if (step.negated) {
    if (ValueAsBool(step.predicate->Eval(rec))) {
      return false;  // forbidden event arrived — kill the run
    }
    // The event may instead satisfy the step after the negation.
    const size_t next = run->step + 1;
    const PatternStep& after = pattern_.steps[next];
    if (ValueAsBool(after.predicate->Eval(rec))) {
      fold_measures(next);
      run->last = t;
      if (after.one_or_more) {
        run->step = next;  // stay on the Kleene step (it has one match now)
        run->kleene_matches = 1;
      } else {
        run->step = next + 1;
      }
      *completed = run->step >= n && !after.one_or_more;
    }
    return true;
  }

  if (step.one_or_more) {
    // Greedy Kleene-plus with skip-till-next-match: once the step has at
    // least one event, an event matching the *next* step closes the loop.
    if (run->kleene_matches > 0 && run->step + 1 < n) {
      const PatternStep& next = pattern_.steps[run->step + 1];
      if (!next.negated && ValueAsBool(next.predicate->Eval(rec))) {
        fold_measures(run->step + 1);
        run->last = t;
        run->step += 2;
        run->kleene_matches = 0;
        *completed = run->step >= n;
        return true;
      }
    }
    if (ValueAsBool(step.predicate->Eval(rec))) {
      fold_measures(run->step);
      run->last = t;
      ++run->kleene_matches;
      // A final Kleene step completes on its first match; later matches
      // extend already-emitted patterns and are suppressed (one match per
      // maximal run start).
      if (run->step + 1 >= n && run->kleene_matches == 1) {
        *completed = true;
      }
    }
    return true;
  }

  if (ValueAsBool(step.predicate->Eval(rec))) {
    fold_measures(run->step);
    run->last = t;
    run->step += 1;
    // Skip over a trailing position if the next step is negated and the
    // run is otherwise complete — handled on later events.
    *completed = run->step >= n;
  }
  return true;
}

Status CepOperator::ProcessBatch(const exec::Batch& input,
                                 const BatchEmitFn& emit) {
  TupleBufferPtr out;
  auto ensure_out = [&]() {
    if (!out) out = ctx_->Allocate(output_schema_);
    if (out->full()) {
      emit(exec::SealedBatch(out));
      out = ctx_->Allocate(output_schema_);
    }
  };
  uint64_t shed = 0;
  for (size_t i = 0; i < input.NumRows(); ++i) {
    const RecordView rec = input.data->At(input.RowAt(i));
    const Timestamp t = rec.GetInt64(time_index_);
    const KeyValue key = KeyOf(rec);
    // Monotonicity guard: shed records whose event time regresses behind
    // their key's high-water mark (time runs forward through the NFA).
    auto [hwm, first_seen] = max_time_.try_emplace(key, t);
    if (!first_seen) {
      if (t < hwm->second) {
        ++shed;
        continue;
      }
      hwm->second = t;
    }
    std::deque<Run>& key_runs = runs_[key];
    // Expire runs outside the within bound.
    if (pattern_.within > 0) {
      while (!key_runs.empty() &&
             t - key_runs.front().start > pattern_.within) {
        key_runs.pop_front();
      }
    }
    // Advance existing runs.
    for (auto it = key_runs.begin(); it != key_runs.end();) {
      bool completed = false;
      const bool alive = AdvanceRun(&*it, rec, t, &completed);
      if (completed) {
        ensure_out();
        EmitMatch(key, *it, out.get());
        it = key_runs.erase(it);
        continue;
      }
      it = alive ? std::next(it) : key_runs.erase(it);
    }
    // Try to start a new run at step 0.
    const PatternStep& first = pattern_.steps.front();
    bool start_suppressed = false;
    if (pattern_.suppress_duplicate_starts) {
      for (const Run& run : key_runs) {
        if (run.step == 1 && run.kleene_matches == 0) {
          start_suppressed = true;  // an equivalent pending run exists
          break;
        }
      }
    }
    if (!start_suppressed && ValueAsBool(first.predicate->Eval(rec))) {
      if (key_runs.size() >= max_runs_per_key_) key_runs.pop_front();
      Run run;
      run.start = t;
      run.last = t;
      run.folds.resize(measures_.size());
      for (size_t m = 0; m < measures_.size(); ++m) {
        if (step_index_by_name_[m] != 0) continue;
        const int fi = measure_field_index_[m];
        run.folds[m].Add(fi < 0 ? 1.0 : rec.GetNumeric(fi));
      }
      if (first.one_or_more) {
        run.kleene_matches = 1;
        if (pattern_.steps.size() == 1) {
          ensure_out();
          EmitMatch(key, run, out.get());
        } else {
          key_runs.push_back(std::move(run));
        }
      } else if (pattern_.steps.size() == 1) {
        ensure_out();
        EmitMatch(key, run, out.get());
      } else {
        run.step = 1;
        key_runs.push_back(std::move(run));
      }
    }
  }
  if (shed > 0) CountShed(shed);
  if (out && !out->empty()) emit(exec::SealedBatch(std::move(out)));
  return Status::OK();
}

size_t CepOperator::ActiveRuns() const {
  size_t n = 0;
  for (const auto& [key, key_runs] : runs_) n += key_runs.size();
  return n;
}

}  // namespace nebulameos::nebula
