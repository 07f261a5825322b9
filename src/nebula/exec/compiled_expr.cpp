#include "nebula/exec/compiled_expr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "nebula/exec/batch.hpp"

namespace nebulameos::nebula::exec {

RowSpan SpanOf(const TupleBuffer& buffer, const SelectionVector* sel) {
  RowSpan span;
  span.base = buffer.empty() ? nullptr : buffer.At(0).data();
  span.stride = buffer.schema().record_size();
  span.sel = sel != nullptr ? sel->data() : nullptr;
  span.count = sel != nullptr ? sel->size() : buffer.size();
  return span;
}

RunLayout::RunLayout(const Schema& input) {
  for (size_t f = 0; f < input.num_fields(); ++f) {
    names_.push_back(input.field(f).name);
    FieldSource source;
    source.type = input.field(f).type;
    source.offset = input.offset(f);
    sources_.push_back(source);
  }
}

const FieldSource* RunLayout::Find(const std::string& name) const {
  for (size_t f = 0; f < names_.size(); ++f) {
    if (names_[f] == name) return &sources_[f];
  }
  return nullptr;
}

size_t RunLayout::AddColumn(DataType type) {
  column_types_.push_back(type);
  return column_types_.size() - 1;
}

void RunLayout::SetFields(std::vector<std::string> names,
                          std::vector<FieldSource> sources) {
  names_ = std::move(names);
  sources_ = std::move(sources);
}

void ScalarKernel::EvalBool(const RowSpan&, uint8_t*) const {
  assert(false && "kernel is not bool-typed");
}
void ScalarKernel::EvalInt64(const RowSpan&, int64_t*) const {
  assert(false && "kernel is not int64-typed");
}
void ScalarKernel::EvalDouble(const RowSpan&, double*) const {
  assert(false && "kernel is not double-typed");
}

namespace {

template <typename T>
T* Retype(std::vector<uint8_t>* bytes, size_t count) {
  bytes->resize(count * sizeof(T));
  return reinterpret_cast<T*>(bytes->data());
}

}  // namespace

void ScalarKernel::EvalAsDouble(const RowSpan& rows, double* out) const {
  switch (type_) {
    case KernelType::kDouble:
      EvalDouble(rows, out);
      return;
    case KernelType::kInt64: {
      int64_t* tmp = Retype<int64_t>(&convert_scratch_, rows.count);
      EvalInt64(rows, tmp);
      for (size_t i = 0; i < rows.count; ++i) {
        out[i] = static_cast<double>(tmp[i]);
      }
      return;
    }
    case KernelType::kBool: {
      uint8_t* tmp = Retype<uint8_t>(&convert_scratch_, rows.count);
      EvalBool(rows, tmp);
      for (size_t i = 0; i < rows.count; ++i) {
        out[i] = tmp[i] != 0 ? 1.0 : 0.0;
      }
      return;
    }
  }
}

void ScalarKernel::EvalAsInt64(const RowSpan& rows, int64_t* out) const {
  switch (type_) {
    case KernelType::kInt64:
      EvalInt64(rows, out);
      return;
    case KernelType::kDouble: {
      double* tmp = Retype<double>(&convert_scratch_, rows.count);
      EvalDouble(rows, tmp);
      for (size_t i = 0; i < rows.count; ++i) {
        out[i] = static_cast<int64_t>(tmp[i]);
      }
      return;
    }
    case KernelType::kBool: {
      uint8_t* tmp = Retype<uint8_t>(&convert_scratch_, rows.count);
      EvalBool(rows, tmp);
      for (size_t i = 0; i < rows.count; ++i) {
        out[i] = tmp[i] != 0 ? 1 : 0;
      }
      return;
    }
  }
}

void ScalarKernel::EvalAsBool(const RowSpan& rows, uint8_t* out) const {
  switch (type_) {
    case KernelType::kBool:
      EvalBool(rows, out);
      return;
    case KernelType::kInt64: {
      int64_t* tmp = Retype<int64_t>(&convert_scratch_, rows.count);
      EvalInt64(rows, tmp);
      for (size_t i = 0; i < rows.count; ++i) {
        out[i] = tmp[i] != 0 ? 1 : 0;
      }
      return;
    }
    case KernelType::kDouble: {
      double* tmp = Retype<double>(&convert_scratch_, rows.count);
      EvalDouble(rows, tmp);
      for (size_t i = 0; i < rows.count; ++i) {
        out[i] = tmp[i] != 0.0 ? 1 : 0;
      }
      return;
    }
  }
}

namespace {

// --- Leaves -----------------------------------------------------------------

// Gathers a fused run's computed column by physical row: the same element
// width in and out (1-byte bool, 8-byte int64/double), so the loop needs no
// runtime width.
template <typename T>
void GatherComputed(const RowSpan& rows, size_t column, T* out) {
  const T* col = reinterpret_cast<const T*>(rows.columns[column]);
  if (rows.sel == nullptr) {
    std::memcpy(out, col, rows.count * sizeof(T));
    return;
  }
  for (size_t i = 0; i < rows.count; ++i) out[i] = col[rows.sel[i]];
}

class LoadBoolKernel final : public ScalarKernel {
 public:
  explicit LoadBoolKernel(const FieldSource& source)
      : ScalarKernel(KernelType::kBool), source_(source) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    if (source_.computed()) {
      GatherComputed(rows, source_.column, out);  // stored as 0/1
      return;
    }
    if (rows.sel == nullptr) {
      const uint8_t* p = rows.base + source_.offset;
      for (size_t i = 0; i < rows.count; ++i, p += rows.stride) {
        out[i] = *p != 0 ? 1 : 0;
      }
      return;
    }
    for (size_t i = 0; i < rows.count; ++i) {
      out[i] = *(rows.Row(i) + source_.offset) != 0 ? 1 : 0;
    }
  }

 private:
  FieldSource source_;
};

// Tight strided load shared by the typed leaf kernels. Each kernel
// overrides only its native Eval method, so a type-mismatched call still
// hits the asserting ScalarKernel default.
template <typename T>
void LoadColumn(const RowSpan& rows, const FieldSource& source, T* out) {
  if (source.computed()) {
    GatherComputed(rows, source.column, out);
    return;
  }
  if (rows.sel == nullptr) {
    const uint8_t* p = rows.base + source.offset;
    for (size_t i = 0; i < rows.count; ++i, p += rows.stride) {
      std::memcpy(&out[i], p, sizeof(T));
    }
    return;
  }
  for (size_t i = 0; i < rows.count; ++i) {
    std::memcpy(&out[i], rows.Row(i) + source.offset, sizeof(T));
  }
}

class LoadInt64Kernel final : public ScalarKernel {
 public:
  explicit LoadInt64Kernel(const FieldSource& source)
      : ScalarKernel(KernelType::kInt64), source_(source) {}
  void EvalInt64(const RowSpan& rows, int64_t* out) const override {
    LoadColumn(rows, source_, out);
  }

 private:
  FieldSource source_;
};

class LoadDoubleKernel final : public ScalarKernel {
 public:
  explicit LoadDoubleKernel(const FieldSource& source)
      : ScalarKernel(KernelType::kDouble), source_(source) {}
  void EvalDouble(const RowSpan& rows, double* out) const override {
    LoadColumn(rows, source_, out);
  }

 private:
  FieldSource source_;
};

class ConstBoolKernel final : public ScalarKernel {
 public:
  explicit ConstBoolKernel(bool v)
      : ScalarKernel(KernelType::kBool), v_(v ? 1 : 0) {}
  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    std::memset(out, v_, rows.count);
  }

 private:
  uint8_t v_;
};

class ConstInt64Kernel final : public ScalarKernel {
 public:
  explicit ConstInt64Kernel(int64_t v)
      : ScalarKernel(KernelType::kInt64), v_(v) {}
  void EvalInt64(const RowSpan& rows, int64_t* out) const override {
    for (size_t i = 0; i < rows.count; ++i) out[i] = v_;
  }

 private:
  int64_t v_;
};

class ConstDoubleKernel final : public ScalarKernel {
 public:
  explicit ConstDoubleKernel(double v)
      : ScalarKernel(KernelType::kDouble), v_(v) {}
  void EvalDouble(const RowSpan& rows, double* out) const override {
    for (size_t i = 0; i < rows.count; ++i) out[i] = v_;
  }

 private:
  double v_;
};

// --- Arithmetic -------------------------------------------------------------

class ArithInt64Kernel final : public ScalarKernel {
 public:
  ArithInt64Kernel(ArithOp op, KernelPtr lhs, KernelPtr rhs)
      : ScalarKernel(KernelType::kInt64),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  void EvalInt64(const RowSpan& rows, int64_t* out) const override {
    a_.resize(rows.count);
    b_.resize(rows.count);
    lhs_->EvalAsInt64(rows, a_.data());
    rhs_->EvalAsInt64(rows, b_.data());
    switch (op_) {
      case ArithOp::kAdd:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] + b_[i];
        return;
      case ArithOp::kSub:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] - b_[i];
        return;
      case ArithOp::kMul:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] * b_[i];
        return;
      case ArithOp::kMod:
        for (size_t i = 0; i < rows.count; ++i) {
          out[i] = b_[i] == 0 ? 0 : a_[i] % b_[i];
        }
        return;
      case ArithOp::kDiv:
        // int_result_ is never true for division (ArithExpr::Bind).
        assert(false && "integer division kernel");
        return;
    }
  }

 private:
  ArithOp op_;
  KernelPtr lhs_;
  KernelPtr rhs_;
  mutable std::vector<int64_t> a_, b_;
};

class ArithDoubleKernel final : public ScalarKernel {
 public:
  ArithDoubleKernel(ArithOp op, KernelPtr lhs, KernelPtr rhs)
      : ScalarKernel(KernelType::kDouble),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  void EvalDouble(const RowSpan& rows, double* out) const override {
    a_.resize(rows.count);
    b_.resize(rows.count);
    lhs_->EvalAsDouble(rows, a_.data());
    rhs_->EvalAsDouble(rows, b_.data());
    switch (op_) {
      case ArithOp::kAdd:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] + b_[i];
        return;
      case ArithOp::kSub:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] - b_[i];
        return;
      case ArithOp::kMul:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] * b_[i];
        return;
      case ArithOp::kDiv:
        for (size_t i = 0; i < rows.count; ++i) {
          out[i] = b_[i] == 0.0 ? 0.0 : a_[i] / b_[i];
        }
        return;
      case ArithOp::kMod:
        for (size_t i = 0; i < rows.count; ++i) {
          out[i] = b_[i] == 0.0 ? 0.0 : std::fmod(a_[i], b_[i]);
        }
        return;
    }
  }

 private:
  ArithOp op_;
  KernelPtr lhs_;
  KernelPtr rhs_;
  mutable std::vector<double> a_, b_;
};

// --- Comparison and logic ---------------------------------------------------

class CompareKernel final : public ScalarKernel {
 public:
  CompareKernel(CompareOp op, KernelPtr lhs, KernelPtr rhs)
      : ScalarKernel(KernelType::kBool),
        op_(op),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    a_.resize(rows.count);
    b_.resize(rows.count);
    lhs_->EvalAsDouble(rows, a_.data());
    rhs_->EvalAsDouble(rows, b_.data());
    switch (op_) {
      case CompareOp::kLt:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] < b_[i];
        return;
      case CompareOp::kLe:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] <= b_[i];
        return;
      case CompareOp::kGt:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] > b_[i];
        return;
      case CompareOp::kGe:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] >= b_[i];
        return;
      case CompareOp::kEq:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] == b_[i];
        return;
      case CompareOp::kNe:
        for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] != b_[i];
        return;
    }
  }

 private:
  CompareOp op_;
  KernelPtr lhs_;
  KernelPtr rhs_;
  mutable std::vector<double> a_, b_;
};

// AND/OR refine the selection: the right side runs only over the rows the
// left side leaves undecided, through a span over their physical indices —
// the batch form of the interpreter's short circuit.
class LogicalKernel final : public ScalarKernel {
 public:
  LogicalKernel(bool is_and, KernelPtr lhs, KernelPtr rhs)
      : ScalarKernel(KernelType::kBool),
        is_and_(is_and),
        lhs_(std::move(lhs)),
        rhs_(std::move(rhs)) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    lhs_->EvalAsBool(rows, out);
    // Undecided: a true left side of AND, a false left side of OR. The
    // result of an undecided row is its right side's.
    const uint8_t undecided = is_and_ ? 1 : 0;
    pending_.clear();
    for (size_t i = 0; i < rows.count; ++i) {
      if (out[i] == undecided) pending_.push_back(static_cast<uint32_t>(i));
    }
    const size_t k = pending_.size();
    if (k == 0) return;
    if (k == rows.count) {
      rhs_->EvalAsBool(rows, out);
      return;
    }
    phys_.resize(k);
    for (size_t j = 0; j < k; ++j) {
      phys_[j] = static_cast<uint32_t>(rows.Phys(pending_[j]));
    }
    b_.resize(k);
    rhs_->EvalAsBool(rows.Subset(phys_.data(), k), b_.data());
    for (size_t j = 0; j < k; ++j) out[pending_[j]] = b_[j];
  }

 private:
  bool is_and_;
  KernelPtr lhs_;
  KernelPtr rhs_;
  mutable std::vector<uint32_t> pending_;  ///< span rows left undecided
  mutable std::vector<uint32_t> phys_;     ///< their physical indices
  mutable std::vector<uint8_t> b_;
};

class NotKernel final : public ScalarKernel {
 public:
  explicit NotKernel(KernelPtr inner)
      : ScalarKernel(KernelType::kBool), inner_(std::move(inner)) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    a_.resize(rows.count);
    inner_->EvalAsBool(rows, a_.data());
    for (size_t i = 0; i < rows.count; ++i) out[i] = a_[i] ^ 1;
  }

 private:
  KernelPtr inner_;
  mutable std::vector<uint8_t> a_;
};

// --- Text comparison --------------------------------------------------------

// Which outcomes of a three-way comparison satisfy `op`, indexed by the
// comparison's sign + 1.
struct Accepts {
  uint8_t by_sign[3];

  explicit Accepts(CompareOp op) {
    const bool lt = op == CompareOp::kLt || op == CompareOp::kLe ||
                    op == CompareOp::kNe;
    const bool eq = op == CompareOp::kLe || op == CompareOp::kGe ||
                    op == CompareOp::kEq;
    const bool gt = op == CompareOp::kGt || op == CompareOp::kGe ||
                    op == CompareOp::kNe;
    by_sign[0] = lt;
    by_sign[1] = eq;
    by_sign[2] = gt;
  }

  uint8_t operator()(int cmp) const {
    return by_sign[(cmp > 0) - (cmp < 0) + 1];
  }
};

// Length of a NUL-padded fixed-width text field: the bytes before its
// first NUL, capped at the width.
size_t TextLength(const uint8_t* p, size_t width) {
  const void* nul = std::memchr(p, 0, width);
  return nul == nullptr
             ? width
             : static_cast<size_t>(static_cast<const uint8_t*>(nul) - p);
}

// std::string::compare over two byte strings.
int CompareText(const uint8_t* a, size_t alen, const uint8_t* b,
                size_t blen) {
  const int c = std::memcmp(a, b, std::min(alen, blen));
  if (c != 0) return c;
  return alen < blen ? -1 : (alen > blen ? 1 : 0);
}

class TextLiteralCompareKernel final : public ScalarKernel {
 public:
  TextLiteralCompareKernel(CompareOp op, size_t offset, size_t width,
                           std::string literal, bool literal_on_left)
      : ScalarKernel(KernelType::kBool),
        op_(op),
        accepts_(op),
        offset_(offset),
        width_(width),
        literal_(std::move(literal)) {
    // `lit op field` reads the field-first comparison's sign reversed.
    if (literal_on_left) std::swap(accepts_.by_sign[0], accepts_.by_sign[2]);
  }

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    const auto* lit = reinterpret_cast<const uint8_t*>(literal_.data());
    const size_t len = literal_.size();
    if (op_ == CompareOp::kEq || op_ == CompareOp::kNe) {
      const uint8_t ne = op_ == CompareOp::kNe ? 1 : 0;
      // A field value holds no NUL and at most `width_` bytes.
      if (len > width_ || std::memchr(lit, 0, len) != nullptr) {
        std::memset(out, ne, rows.count);
        return;
      }
      // Independent of the bytes after the field's first NUL.
      for (size_t i = 0; i < rows.count; ++i) {
        const uint8_t* f = rows.Row(i) + offset_;
        const bool eq = std::memcmp(f, lit, len) == 0 &&
                        (len == width_ || f[len] == 0);
        out[i] = static_cast<uint8_t>(eq) ^ ne;
      }
      return;
    }
    for (size_t i = 0; i < rows.count; ++i) {
      const uint8_t* f = rows.Row(i) + offset_;
      out[i] = accepts_(CompareText(f, TextLength(f, width_), lit, len));
    }
  }

 private:
  CompareOp op_;
  Accepts accepts_;
  size_t offset_;
  size_t width_;
  std::string literal_;
};

class TextFieldCompareKernel final : public ScalarKernel {
 public:
  TextFieldCompareKernel(CompareOp op, size_t lhs_offset, size_t lhs_width,
                         size_t rhs_offset, size_t rhs_width)
      : ScalarKernel(KernelType::kBool),
        accepts_(op),
        lhs_offset_(lhs_offset),
        lhs_width_(lhs_width),
        rhs_offset_(rhs_offset),
        rhs_width_(rhs_width) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    for (size_t i = 0; i < rows.count; ++i) {
      const uint8_t* a = rows.Row(i) + lhs_offset_;
      const uint8_t* b = rows.Row(i) + rhs_offset_;
      out[i] = accepts_(CompareText(a, TextLength(a, lhs_width_), b,
                                    TextLength(b, rhs_width_)));
    }
  }

 private:
  Accepts accepts_;
  size_t lhs_offset_;
  size_t lhs_width_;
  size_t rhs_offset_;
  size_t rhs_width_;
};

// --- Extension-function bridges ---------------------------------------------

class ScalarFnKernel final : public ScalarKernel {
 public:
  ScalarFnKernel(KernelType out_type, ColumnFn fn, std::vector<KernelPtr> args,
                 std::vector<double> const_args)
      : ScalarKernel(out_type),
        fn_(std::move(fn)),
        args_(std::move(args)),
        const_args_(std::move(const_args)),
        cols_(args_.size()),
        col_ptrs_(args_.size()) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    result_.resize(rows.count);
    EvalInto(rows, result_.data());
    for (size_t i = 0; i < rows.count; ++i) out[i] = result_[i] != 0.0;
  }
  void EvalInt64(const RowSpan& rows, int64_t* out) const override {
    result_.resize(rows.count);
    EvalInto(rows, result_.data());
    for (size_t i = 0; i < rows.count; ++i) {
      out[i] = static_cast<int64_t>(result_[i]);
    }
  }
  void EvalDouble(const RowSpan& rows, double* out) const override {
    EvalInto(rows, out);
  }

 private:
  void EvalInto(const RowSpan& rows, double* out) const {
    for (size_t a = 0; a < args_.size(); ++a) {
      if (args_[a] == nullptr) {
        cols_[a].assign(rows.count, const_args_[a]);
      } else {
        cols_[a].resize(rows.count);
        args_[a]->EvalAsDouble(rows, cols_[a].data());
      }
      col_ptrs_[a] = cols_[a].data();
    }
    fn_(col_ptrs_.data(), rows.count, out);
  }

  ColumnFn fn_;
  std::vector<KernelPtr> args_;  ///< nullptr entries are constants
  std::vector<double> const_args_;
  mutable std::vector<std::vector<double>> cols_;
  mutable std::vector<const double*> col_ptrs_;
  mutable std::vector<double> result_;
};

class BoxedFnKernel final : public ScalarKernel {
 public:
  BoxedFnKernel(KernelType out_type, BoxedFn fn, std::vector<KernelPtr> args,
                std::vector<Value> const_args)
      : ScalarKernel(out_type),
        fn_(std::move(fn)),
        args_(std::move(args)),
        row_args_(std::move(const_args)),
        cols_(args_.size()) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    EvalRows(rows,
             [out](size_t i, const Value& r) { out[i] = ValueAsBool(r); });
  }
  void EvalInt64(const RowSpan& rows, int64_t* out) const override {
    EvalRows(rows,
             [out](size_t i, const Value& r) { out[i] = ValueAsInt64(r); });
  }
  void EvalDouble(const RowSpan& rows, double* out) const override {
    EvalRows(rows,
             [out](size_t i, const Value& r) { out[i] = ValueAsDouble(r); });
  }

 private:
  template <typename Store>
  void EvalRows(const RowSpan& rows, const Store& store) const {
    for (size_t a = 0; a < args_.size(); ++a) {
      if (args_[a] == nullptr) continue;  // row_args_[a] holds the constant
      switch (args_[a]->type()) {
        case KernelType::kBool:
          args_[a]->EvalBool(rows, Retype<uint8_t>(&cols_[a], rows.count));
          break;
        case KernelType::kInt64:
          args_[a]->EvalInt64(rows, Retype<int64_t>(&cols_[a], rows.count));
          break;
        case KernelType::kDouble:
          args_[a]->EvalDouble(rows, Retype<double>(&cols_[a], rows.count));
          break;
      }
    }
    for (size_t i = 0; i < rows.count; ++i) {
      for (size_t a = 0; a < args_.size(); ++a) {
        if (args_[a] == nullptr) continue;
        const uint8_t* col = cols_[a].data();
        switch (args_[a]->type()) {
          case KernelType::kBool:
            row_args_[a] = col[i] != 0;
            break;
          case KernelType::kInt64:
            row_args_[a] = reinterpret_cast<const int64_t*>(col)[i];
            break;
          case KernelType::kDouble:
            row_args_[a] = reinterpret_cast<const double*>(col)[i];
            break;
        }
      }
      store(i, fn_(row_args_));
    }
  }

  BoxedFn fn_;
  std::vector<KernelPtr> args_;  ///< nullptr entries are constants
  mutable std::vector<Value> row_args_;
  /// Native-typed argument columns (bytes, retyped per argument).
  mutable std::vector<std::vector<uint8_t>> cols_;
};

// --- Cross-stage computed-column cache (kernel-level CSE) -------------------

// Caches by *physical* row index of the run's input buffer and tracks which
// rows it holds: an evaluation computes only the requested rows missing
// from the slot (over a sub-span of their physical indices), scatters them
// in, and gathers the rest. Element width follows the inner kernel's native
// type.
class ColumnCacheKernel final : public ScalarKernel {
 public:
  ColumnCacheKernel(std::shared_ptr<ColumnCache> cache, size_t slot,
                    KernelPtr inner)
      : ScalarKernel(inner->type()),
        cache_(std::move(cache)),
        slot_(slot),
        inner_(std::move(inner)) {}

  void EvalBool(const RowSpan& rows, uint8_t* out) const override {
    Eval<uint8_t>(rows, out, [this](const RowSpan& r, uint8_t* o) {
      inner_->EvalBool(r, o);
    });
  }
  void EvalInt64(const RowSpan& rows, int64_t* out) const override {
    Eval<int64_t>(rows, out, [this](const RowSpan& r, int64_t* o) {
      inner_->EvalInt64(r, o);
    });
  }
  void EvalDouble(const RowSpan& rows, double* out) const override {
    Eval<double>(rows, out, [this](const RowSpan& r, double* o) {
      inner_->EvalDouble(r, o);
    });
  }

 private:
  template <typename T, typename Compute>
  void Eval(const RowSpan& rows, T* out, const Compute& compute) const {
    ColumnCache::Slot& slot = cache_->slot(slot_);
    if (slot.epoch != cache_->epoch()) {
      slot.epoch = cache_->epoch();
      slot.valid.assign(cache_->rows(), 0);
      slot.data.resize(cache_->rows() * sizeof(T));
    }
    T* col = reinterpret_cast<T*>(slot.data.data());
    missing_.clear();
    for (size_t i = 0; i < rows.count; ++i) {
      const size_t phys = rows.Phys(i);
      if (slot.valid[phys] == 0) {
        missing_.push_back(static_cast<uint32_t>(phys));
      }
    }
    const size_t k = missing_.size();
    if (k == rows.count) {
      // Nothing cached yet for these rows: compute straight into `out`.
      compute(rows, out);
      for (size_t i = 0; i < k; ++i) {
        col[missing_[i]] = out[i];
        slot.valid[missing_[i]] = 1;
      }
      return;
    }
    if (k > 0) {
      T* computed = Retype<T>(&scratch_, k);
      compute(rows.Subset(missing_.data(), k), computed);
      for (size_t j = 0; j < k; ++j) {
        col[missing_[j]] = computed[j];
        slot.valid[missing_[j]] = 1;
      }
    }
    for (size_t i = 0; i < rows.count; ++i) out[i] = col[rows.Phys(i)];
  }

  std::shared_ptr<ColumnCache> cache_;
  size_t slot_;
  KernelPtr inner_;
  mutable std::vector<uint32_t> missing_;  ///< physical rows to compute
  mutable std::vector<uint8_t> scratch_;   ///< their values (retyped)
};

}  // namespace

KernelPtr MakeColumnCacheKernel(std::shared_ptr<ColumnCache> cache,
                                size_t slot, KernelPtr inner) {
  if (inner == nullptr) return nullptr;
  return std::make_unique<ColumnCacheKernel>(std::move(cache), slot,
                                             std::move(inner));
}

KernelPtr MakeLoadKernel(const FieldSource& source) {
  switch (source.type) {
    case DataType::kBool:
      return std::make_unique<LoadBoolKernel>(source);
    case DataType::kInt64:
    case DataType::kTimestamp:
      return std::make_unique<LoadInt64Kernel>(source);
    case DataType::kDouble:
      return std::make_unique<LoadDoubleKernel>(source);
    case DataType::kText16:
    case DataType::kText32:
      return nullptr;  // text stays on the interpreter
  }
  return nullptr;
}

KernelPtr MakeConstKernel(bool v) {
  return std::make_unique<ConstBoolKernel>(v);
}
KernelPtr MakeConstKernel(int64_t v) {
  return std::make_unique<ConstInt64Kernel>(v);
}
KernelPtr MakeConstKernel(double v) {
  return std::make_unique<ConstDoubleKernel>(v);
}

KernelPtr MakeArithKernel(ArithOp op, bool int_result, KernelPtr lhs,
                          KernelPtr rhs) {
  if (lhs == nullptr || rhs == nullptr) return nullptr;
  if (int_result) {
    return std::make_unique<ArithInt64Kernel>(op, std::move(lhs),
                                              std::move(rhs));
  }
  return std::make_unique<ArithDoubleKernel>(op, std::move(lhs),
                                             std::move(rhs));
}

KernelPtr MakeCompareKernel(CompareOp op, KernelPtr lhs, KernelPtr rhs) {
  if (lhs == nullptr || rhs == nullptr) return nullptr;
  return std::make_unique<CompareKernel>(op, std::move(lhs), std::move(rhs));
}

KernelPtr MakeAndKernel(KernelPtr lhs, KernelPtr rhs) {
  if (lhs == nullptr || rhs == nullptr) return nullptr;
  return std::make_unique<LogicalKernel>(true, std::move(lhs),
                                         std::move(rhs));
}

KernelPtr MakeOrKernel(KernelPtr lhs, KernelPtr rhs) {
  if (lhs == nullptr || rhs == nullptr) return nullptr;
  return std::make_unique<LogicalKernel>(false, std::move(lhs),
                                         std::move(rhs));
}

KernelPtr MakeNotKernel(KernelPtr inner) {
  if (inner == nullptr) return nullptr;
  return std::make_unique<NotKernel>(std::move(inner));
}

KernelPtr MakeTextLiteralCompareKernel(CompareOp op, size_t offset,
                                       size_t width, std::string literal,
                                       bool literal_on_left) {
  return std::make_unique<TextLiteralCompareKernel>(
      op, offset, width, std::move(literal), literal_on_left);
}

KernelPtr MakeTextFieldCompareKernel(CompareOp op, size_t lhs_offset,
                                     size_t lhs_width, size_t rhs_offset,
                                     size_t rhs_width) {
  return std::make_unique<TextFieldCompareKernel>(op, lhs_offset, lhs_width,
                                                  rhs_offset, rhs_width);
}

KernelPtr MakeScalarFnKernel(KernelType out_type, ColumnFn fn,
                             std::vector<KernelPtr> arg_kernels,
                             std::vector<double> const_args) {
  return std::make_unique<ScalarFnKernel>(out_type, std::move(fn),
                                          std::move(arg_kernels),
                                          std::move(const_args));
}

KernelPtr MakeBoxedFnKernel(KernelType out_type, BoxedFn fn,
                            std::vector<KernelPtr> arg_kernels,
                            std::vector<Value> const_args) {
  return std::make_unique<BoxedFnKernel>(out_type, std::move(fn),
                                         std::move(arg_kernels),
                                         std::move(const_args));
}

}  // namespace nebulameos::nebula::exec
