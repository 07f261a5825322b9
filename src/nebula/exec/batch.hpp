/// \file batch.hpp
/// \brief The selection-vector batch contract between pipeline operators.
///
/// A `Batch` is the unit the engine pushes through a compiled pipeline: a
/// shared, sealed `TupleBuffer` plus an optional *selection vector* naming
/// the surviving row indices. Filters refine the selection instead of
/// copying survivors into a fresh buffer (DuckDB-style vectorized
/// filtering), and a fan-out hands the *same* batch to every branch — the
/// immutable-after-seal buffer contract (tuple_buffer.hpp) is what makes
/// that sharing safe without copies.
///
/// It is also the only unit of the operator contract (operator.hpp):
/// every operator reads the selected rows of its input batch directly, and
/// every buffer an operator writes is sealed before it is emitted, so no
/// hop ever gathers a partial selection just to hand it on. Batches stay
/// row-major between operators; inside one fused kernel run
/// (exec/kernels.hpp) computed fields live in run-local columns indexed by
/// physical row of the batch's buffer until the run's one write.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nebula/tuple_buffer.hpp"

namespace nebulameos::nebula {
class ExecutionContext;
}  // namespace nebulameos::nebula

namespace nebulameos::nebula::exec {

/// Row indices into a `TupleBuffer`, ascending. Shared read-only across
/// fan-out branches.
using SelectionVector = std::vector<uint32_t>;
using SelectionPtr = std::shared_ptr<const SelectionVector>;

/// \brief One unit of batch data flow: a sealed buffer plus the selection
/// of rows that are logically present (null selection = every row).
struct Batch {
  TupleBufferPtr data;
  SelectionPtr selection;

  Batch() = default;
  explicit Batch(TupleBufferPtr d, SelectionPtr sel = nullptr)
      : data(std::move(d)), selection(std::move(sel)) {}

  /// True when every row of `data` is selected.
  bool IsFull() const { return selection == nullptr; }

  /// Number of logically present rows.
  size_t NumRows() const {
    return selection ? selection->size() : (data ? data->size() : 0);
  }

  /// Physical row index of logical row \p i.
  size_t RowAt(size_t i) const {
    return selection ? (*selection)[i] : i;
  }

  /// Bytes occupied by the selected rows (the flow-accounting size).
  size_t SizeBytes() const {
    return data ? NumRows() * data->schema().record_size() : 0;
  }
};

/// Moves a *partial* selection out of \p scratch into a batch sharing
/// \p in's buffer, leaving \p scratch empty and reusable — the one
/// allocation a selection-refining filter pays, and only when the result
/// is neither empty nor fully selective (callers handle those cases
/// first, allocation-free).
inline Batch TakePartialSelection(SelectionVector* scratch, const Batch& in) {
  Batch out(in.data,
            std::make_shared<SelectionVector>(std::move(*scratch)));
  *scratch = SelectionVector();
  return out;
}

/// Allocates a pooled output buffer of \p out_schema sized to hold \p rows
/// rows read from \p source, with the source's stream metadata (sequence
/// number, watermark) carried over — the shared preamble of every
/// materialization. Fails when the rows exceed the pool's buffer shape.
/// The caller fills the buffer and seals it before emitting.
Result<TupleBufferPtr> AllocateOutputFor(const TupleBuffer& source,
                                         size_t rows,
                                         const Schema& out_schema,
                                         ExecutionContext* ctx);

/// Seals a buffer an operator has finished writing and wraps it as a full
/// batch — the one way operator-built buffers leave an operator.
inline Batch SealedBatch(TupleBufferPtr buffer) {
  buffer->Seal();
  return Batch(std::move(buffer));
}

}  // namespace nebulameos::nebula::exec
