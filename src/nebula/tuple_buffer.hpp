/// \file tuple_buffer.hpp
/// \brief Fixed-size tuple buffers and typed record accessors.
///
/// The unit of data flow in the engine: a `TupleBuffer` owns a fixed byte
/// region holding `capacity` fixed-size records of one schema, plus stream
/// metadata (sequence number, watermark). `RecordView` / `RecordWriter`
/// provide typed, offset-computed access to one record. Buffers are pooled
/// by `BufferManager` (see buffer_manager.hpp), which builds them on demand
/// up to a cap and reuses them, so once a query's pools reach their
/// in-flight high-water mark, steady-state processing performs no
/// allocation — the property that lets NebulaStream run on constrained
/// edge devices.

#pragma once

#include <cassert>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nebula/schema.hpp"

namespace nebulameos::nebula {

class TupleBuffer;

/// \brief Read-only view of one record inside a buffer.
class RecordView {
 public:
  RecordView(const Schema* schema, const uint8_t* base)
      : schema_(schema), base_(base) {}

  /// The record's schema.
  const Schema& schema() const { return *schema_; }

  /// Reads field \p i as bool (type must be kBool).
  bool GetBool(size_t i) const { return base_[schema_->offset(i)] != 0; }

  /// Reads field \p i as int64 (kInt64 or kTimestamp).
  int64_t GetInt64(size_t i) const {
    int64_t v;
    std::memcpy(&v, base_ + schema_->offset(i), sizeof(v));
    return v;
  }

  /// Reads field \p i as double (kDouble).
  double GetDouble(size_t i) const {
    double v;
    std::memcpy(&v, base_ + schema_->offset(i), sizeof(v));
    return v;
  }

  /// Reads a text field (kText16/kText32) as a string (stops at NUL).
  std::string GetText(size_t i) const {
    const size_t cap = DataTypeSize(schema_->field(i).type);
    const char* p = reinterpret_cast<const char*>(base_ + schema_->offset(i));
    size_t len = 0;
    while (len < cap && p[len] != '\0') ++len;
    return std::string(p, len);
  }

  /// Numeric read with implicit widening: int64/timestamp → double.
  double GetNumeric(size_t i) const {
    return schema_->field(i).type == DataType::kDouble
               ? GetDouble(i)
               : static_cast<double>(GetInt64(i));
  }

  /// Raw pointer to the record bytes.
  const uint8_t* data() const { return base_; }

 private:
  const Schema* schema_;
  const uint8_t* base_;
};

/// \brief Mutable accessor for one record inside a buffer.
class RecordWriter {
 public:
  RecordWriter(const Schema* schema, uint8_t* base)
      : schema_(schema), base_(base) {}

  void SetBool(size_t i, bool v) { base_[schema_->offset(i)] = v ? 1 : 0; }

  void SetInt64(size_t i, int64_t v) {
    std::memcpy(base_ + schema_->offset(i), &v, sizeof(v));
  }

  void SetDouble(size_t i, double v) {
    std::memcpy(base_ + schema_->offset(i), &v, sizeof(v));
  }

  /// Writes a text field, truncating to the field width; NUL-pads.
  void SetText(size_t i, const std::string& v) {
    const size_t cap = DataTypeSize(schema_->field(i).type);
    char* p = reinterpret_cast<char*>(base_ + schema_->offset(i));
    const size_t len = std::min(v.size(), cap);
    std::memcpy(p, v.data(), len);
    if (len < cap) std::memset(p + len, 0, cap - len);
  }

  /// Copies all fields from \p src (same schema layout required).
  void CopyFrom(const RecordView& src) {
    std::memcpy(base_, src.data(), schema_->record_size());
  }

  /// Read-only view of this record.
  RecordView View() const { return RecordView(schema_, base_); }

  uint8_t* data() { return base_; }

 private:
  const Schema* schema_;
  uint8_t* base_;
};

/// \brief A fixed-capacity run of records plus stream metadata.
class TupleBuffer {
 public:
  /// Creates a buffer for \p schema with room for \p capacity records.
  /// Throws `std::length_error` when the byte size would not fit in a
  /// `size_t`, as `std::vector` does above `max_size()`.
  TupleBuffer(Schema schema, size_t capacity)
      : schema_(std::move(schema)),
        capacity_(capacity),
        bytes_(ByteSize(schema_.record_size(), capacity)) {}

  const Schema& schema() const { return schema_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  /// Bytes occupied by the current records.
  size_t SizeBytes() const { return size_ * schema_.record_size(); }

  /// Appends a record slot and returns a writer for it. Buffer must not be
  /// full.
  RecordWriter Append() {
    assert(!sealed_ && "append to a sealed buffer");
    RecordWriter w(&schema_, bytes_.data() + size_ * schema_.record_size());
    ++size_;
    return w;
  }

  /// Appends \p count records in one copy from \p src, which must point
  /// at contiguous records of this buffer's exact layout (e.g. a network
  /// frame payload). The records must fit: `size() + count <= capacity()`.
  void AppendRecords(const uint8_t* src, size_t count) {
    assert(!sealed_ && "append to a sealed buffer");
    std::memcpy(bytes_.data() + size_ * schema_.record_size(), src,
                count * schema_.record_size());
    size_ += count;
  }

  /// View of record \p i.
  RecordView At(size_t i) const {
    return RecordView(&schema_, bytes_.data() + i * schema_.record_size());
  }

  /// Writer for existing record \p i.
  RecordWriter MutableAt(size_t i) {
    assert(!sealed_ && "mutating a sealed buffer");
    return RecordWriter(&schema_, bytes_.data() + i * schema_.record_size());
  }

  /// Drops all records (metadata kept).
  void Clear() {
    assert(!sealed_ && "clearing a sealed buffer");
    size_ = 0;
  }

  /// Removes the most recently appended record (used by sources that
  /// discover end-of-stream after reserving a slot).
  void PopBack() {
    assert(!sealed_ && "mutating a sealed buffer");
    if (size_ > 0) --size_;
  }

  /// Resets records and metadata, lifting any seal (pool reuse).
  void Reset() {
    size_ = 0;
    sequence_number_ = 0;
    watermark_ = 0;
    sealed_ = false;
  }

  /// Marks the buffer immutable: any later append or in-place write is a
  /// contract violation (asserted in debug builds). The engine seals every
  /// buffer before pushing it into a pipeline — sealing is what lets a
  /// fan-out share one buffer across branches (with per-branch selection
  /// vectors) instead of copying it per branch. `Reset` lifts the seal
  /// when the pool recycles the buffer.
  void Seal() { sealed_ = true; }
  bool sealed() const { return sealed_; }

  /// Monotonic per-stream sequence number, set by sources.
  uint64_t sequence_number() const { return sequence_number_; }
  void set_sequence_number(uint64_t n) { sequence_number_ = n; }

  /// Event-time watermark carried by this buffer.
  Timestamp watermark() const { return watermark_; }
  void set_watermark(Timestamp w) { watermark_ = w; }

 private:
  static size_t ByteSize(size_t record_size, size_t capacity) {
    if (record_size != 0 &&
        capacity > std::numeric_limits<size_t>::max() / record_size) {
      throw std::length_error("TupleBuffer byte size overflows size_t");
    }
    return record_size * capacity;
  }

  Schema schema_;
  size_t capacity_;
  std::vector<uint8_t> bytes_;
  size_t size_ = 0;
  uint64_t sequence_number_ = 0;
  Timestamp watermark_ = 0;
  bool sealed_ = false;
};

/// Shared handle used across pipeline stages.
using TupleBufferPtr = std::shared_ptr<TupleBuffer>;

}  // namespace nebulameos::nebula
