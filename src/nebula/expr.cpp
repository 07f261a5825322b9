#include "nebula/expr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "common/strings.hpp"
#include "nebula/exec/compiled_expr.hpp"

namespace nebulameos::nebula {

double ValueAsDouble(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::get<bool>(v) ? 1.0 : 0.0;
    case 1:
      return static_cast<double>(std::get<int64_t>(v));
    case 2:
      return std::get<double>(v);
    default:
      return 0.0;
  }
}

bool ValueAsBool(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::get<bool>(v);
    case 1:
      return std::get<int64_t>(v) != 0;
    case 2:
      return std::get<double>(v) != 0.0;
    default:
      return !std::get<std::string>(v).empty();
  }
}

int64_t ValueAsInt64(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::get<bool>(v) ? 1 : 0;
    case 1:
      return std::get<int64_t>(v);
    case 2:
      return static_cast<int64_t>(std::get<double>(v));
    default:
      return 0;
  }
}

std::string ValueToString(const Value& v) {
  switch (v.index()) {
    case 0:
      return std::get<bool>(v) ? "true" : "false";
    case 1:
      return std::to_string(std::get<int64_t>(v));
    case 2:
      return FormatDouble(std::get<double>(v));
    default:
      return std::get<std::string>(v);
  }
}

exec::KernelPtr Expression::CompileKernel(const exec::RunLayout&) const {
  return nullptr;  // conservative default: interpret
}

namespace {

// --- Field reference --------------------------------------------------------

class FieldExpr : public Expression {
 public:
  explicit FieldExpr(std::string name) : name_(std::move(name)) {}

  Status Bind(const Schema& schema) override {
    NM_ASSIGN_OR_RETURN(index_, schema.IndexOf(name_));
    type_ = schema.field(index_).type;
    bound_ = true;
    return Status::OK();
  }

  Value Eval(const RecordView& rec) const override {
    assert(bound_);
    switch (type_) {
      case DataType::kBool:
        return rec.GetBool(index_);
      case DataType::kInt64:
      case DataType::kTimestamp:
        return rec.GetInt64(index_);
      case DataType::kDouble:
        return rec.GetDouble(index_);
      case DataType::kText16:
      case DataType::kText32:
        return rec.GetText(index_);
    }
    return int64_t{0};
  }

  DataType output_type() const override { return type_; }
  std::string ToString() const override { return name_; }

  const std::string& field_name() const { return name_; }

  bool ReferencedFields(std::vector<std::string>* out) const override {
    out->push_back(name_);
    return true;
  }

  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override {
    const exec::FieldSource* source = layout.Find(name_);
    if (source == nullptr) return nullptr;
    return exec::MakeLoadKernel(*source);
  }

 private:
  std::string name_;
  size_t index_ = 0;
  DataType type_ = DataType::kInt64;
  bool bound_ = false;
};

// --- Literal ----------------------------------------------------------------

class LiteralExpr : public Expression {
 public:
  LiteralExpr(Value v, DataType type) : value_(std::move(v)), type_(type) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  Value Eval(const RecordView&) const override { return value_; }
  DataType output_type() const override { return type_; }
  std::string ToString() const override { return ValueToString(value_); }
  std::optional<Value> ConstantValue() const override { return value_; }
  bool ReferencedFields(std::vector<std::string>*) const override {
    return true;  // reads nothing
  }

  exec::KernelPtr CompileKernel(const exec::RunLayout&) const override {
    switch (type_) {
      case DataType::kBool:
        return exec::MakeConstKernel(std::get<bool>(value_));
      case DataType::kInt64:
      case DataType::kTimestamp:
        return exec::MakeConstKernel(ValueAsInt64(value_));
      case DataType::kDouble:
        return exec::MakeConstKernel(ValueAsDouble(value_));
      case DataType::kText16:
      case DataType::kText32:
        return nullptr;
    }
    return nullptr;
  }

 private:
  Value value_;
  DataType type_;
};

// --- Arithmetic -------------------------------------------------------------

class ArithExpr : public Expression {
 public:
  ArithExpr(ArithOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Bind(const Schema& schema) override {
    NM_RETURN_NOT_OK(lhs_->Bind(schema));
    NM_RETURN_NOT_OK(rhs_->Bind(schema));
    const bool both_int = lhs_->output_type() != DataType::kDouble &&
                          rhs_->output_type() != DataType::kDouble;
    int_result_ = both_int && op_ != ArithOp::kDiv;
    return Status::OK();
  }

  Value Eval(const RecordView& rec) const override {
    const Value lv = lhs_->Eval(rec);
    const Value rv = rhs_->Eval(rec);
    if (int_result_) {
      const int64_t a = ValueAsInt64(lv);
      const int64_t b = ValueAsInt64(rv);
      switch (op_) {
        case ArithOp::kAdd:
          return a + b;
        case ArithOp::kSub:
          return a - b;
        case ArithOp::kMul:
          return a * b;
        case ArithOp::kMod:
          return b == 0 ? int64_t{0} : a % b;
        case ArithOp::kDiv:
          break;  // handled as double below
      }
    }
    const double a = ValueAsDouble(lv);
    const double b = ValueAsDouble(rv);
    switch (op_) {
      case ArithOp::kAdd:
        return a + b;
      case ArithOp::kSub:
        return a - b;
      case ArithOp::kMul:
        return a * b;
      case ArithOp::kDiv:
        return b == 0.0 ? 0.0 : a / b;
      case ArithOp::kMod:
        return b == 0.0 ? 0.0 : std::fmod(a, b);
    }
    return 0.0;
  }

  DataType output_type() const override {
    return int_result_ ? DataType::kInt64 : DataType::kDouble;
  }

  std::string ToString() const override {
    static const char* kOps[] = {"+", "-", "*", "/", "%"};
    return "(" + lhs_->ToString() + " " + kOps[static_cast<int>(op_)] + " " +
           rhs_->ToString() + ")";
  }

  bool ReferencedFields(std::vector<std::string>* out) const override {
    return lhs_->ReferencedFields(out) && rhs_->ReferencedFields(out);
  }

  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override {
    return exec::MakeArithKernel(op_, int_result_,
                                 lhs_->CompileKernel(layout),
                                 rhs_->CompileKernel(layout));
  }

  ArithOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  ArithOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
  bool int_result_ = false;
};

// --- Comparison -------------------------------------------------------------

class CompareExpr : public Expression {
 public:
  CompareExpr(CompareOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Bind(const Schema& schema) override {
    NM_RETURN_NOT_OK(lhs_->Bind(schema));
    NM_RETURN_NOT_OK(rhs_->Bind(schema));
    text_compare_ = !IsNumericish(lhs_->output_type()) &&
                    !IsNumericish(rhs_->output_type());
    return Status::OK();
  }

  Value Eval(const RecordView& rec) const override {
    if (text_compare_) {
      const std::string a = ValueToString(lhs_->Eval(rec));
      const std::string b = ValueToString(rhs_->Eval(rec));
      return EvalOrdered(a.compare(b));
    }
    const double a = ValueAsDouble(lhs_->Eval(rec));
    const double b = ValueAsDouble(rhs_->Eval(rec));
    return EvalOrdered(a < b ? -1 : (a > b ? 1 : 0));
  }

  DataType output_type() const override { return DataType::kBool; }

  std::string ToString() const override {
    static const char* kOps[] = {"<", "<=", ">", ">=", "==", "!="};
    return "(" + lhs_->ToString() + " " + kOps[static_cast<int>(op_)] + " " +
           rhs_->ToString() + ")";
  }

  bool ReferencedFields(std::vector<std::string>* out) const override {
    return lhs_->ReferencedFields(out) && rhs_->ReferencedFields(out);
  }

  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override {
    if (text_compare_) return CompileTextKernel(layout);
    return exec::MakeCompareKernel(op_, lhs_->CompileKernel(layout),
                                   rhs_->CompileKernel(layout));
  }

 private:
  static bool IsNumericish(DataType t) {
    return IsNumeric(t) || t == DataType::kBool;
  }

  // Lowers a text comparison of a field against a literal or another
  // field to one kernel over the fixed-width field bytes; any other text
  // operand (a text-valued function) stays interpreted.
  exec::KernelPtr CompileTextKernel(const exec::RunLayout& layout) const {
    const auto lhs_lit = lhs_->ConstantValue();
    const auto rhs_lit = rhs_->ConstantValue();
    // A text field is always read from the run's input buffer: text-valued
    // maps never compile, so no computed column holds text.
    const auto text_field =
        [&layout](const ExprPtr& side) -> const exec::FieldSource* {
      const auto* field = dynamic_cast<const FieldExpr*>(side.get());
      if (field == nullptr) return nullptr;
      const exec::FieldSource* source = layout.Find(field->field_name());
      if (source == nullptr || source->computed()) return nullptr;
      return source;
    };
    const exec::FieldSource* lhs_field = text_field(lhs_);
    const exec::FieldSource* rhs_field = text_field(rhs_);
    const auto width = [](const exec::FieldSource* source) {
      return DataTypeSize(source->type);
    };
    if (lhs_field && rhs_field) {
      return exec::MakeTextFieldCompareKernel(op_, lhs_field->offset,
                                              width(lhs_field),
                                              rhs_field->offset,
                                              width(rhs_field));
    }
    if (lhs_field && rhs_lit) {
      return exec::MakeTextLiteralCompareKernel(
          op_, lhs_field->offset, width(lhs_field), ValueToString(*rhs_lit),
          /*literal_on_left=*/false);
    }
    if (lhs_lit && rhs_field) {
      return exec::MakeTextLiteralCompareKernel(
          op_, rhs_field->offset, width(rhs_field), ValueToString(*lhs_lit),
          /*literal_on_left=*/true);
    }
    return nullptr;
  }

  bool EvalOrdered(int cmp) const {
    switch (op_) {
      case CompareOp::kLt:
        return cmp < 0;
      case CompareOp::kLe:
        return cmp <= 0;
      case CompareOp::kGt:
        return cmp > 0;
      case CompareOp::kGe:
        return cmp >= 0;
      case CompareOp::kEq:
        return cmp == 0;
      case CompareOp::kNe:
        return cmp != 0;
    }
    return false;
  }

 public:
  CompareOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  CompareOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
  bool text_compare_ = false;
};

// --- Logical ----------------------------------------------------------------

class LogicalExpr : public Expression {
 public:
  enum class Kind { kAnd, kOr };

  LogicalExpr(Kind kind, ExprPtr lhs, ExprPtr rhs)
      : kind_(kind), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  Status Bind(const Schema& schema) override {
    NM_RETURN_NOT_OK(lhs_->Bind(schema));
    return rhs_->Bind(schema);
  }

  Value Eval(const RecordView& rec) const override {
    const bool a = ValueAsBool(lhs_->Eval(rec));
    if (kind_ == Kind::kAnd) {
      return a && ValueAsBool(rhs_->Eval(rec));
    }
    return a || ValueAsBool(rhs_->Eval(rec));
  }

  DataType output_type() const override { return DataType::kBool; }

  std::string ToString() const override {
    return "(" + lhs_->ToString() +
           (kind_ == Kind::kAnd ? " AND " : " OR ") + rhs_->ToString() + ")";
  }

  bool ReferencedFields(std::vector<std::string>* out) const override {
    return lhs_->ReferencedFields(out) && rhs_->ReferencedFields(out);
  }

  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override {
    exec::KernelPtr lhs = lhs_->CompileKernel(layout);
    exec::KernelPtr rhs = rhs_->CompileKernel(layout);
    return kind_ == Kind::kAnd
               ? exec::MakeAndKernel(std::move(lhs), std::move(rhs))
               : exec::MakeOrKernel(std::move(lhs), std::move(rhs));
  }

  Kind logical_kind() const { return kind_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

 private:
  Kind kind_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class NotExpr : public Expression {
 public:
  explicit NotExpr(ExprPtr inner) : inner_(std::move(inner)) {}

  Status Bind(const Schema& schema) override { return inner_->Bind(schema); }

  Value Eval(const RecordView& rec) const override {
    return !ValueAsBool(inner_->Eval(rec));
  }

  DataType output_type() const override { return DataType::kBool; }
  std::string ToString() const override {
    return "NOT " + inner_->ToString();
  }

  bool ReferencedFields(std::vector<std::string>* out) const override {
    return inner_->ReferencedFields(out);
  }

  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override {
    return exec::MakeNotKernel(inner_->CompileKernel(layout));
  }

  const ExprPtr& inner() const { return inner_; }

 private:
  ExprPtr inner_;
};

// --- Built-in math functions --------------------------------------------------

class MathFn : public FunctionExpression {
 public:
  /// Scalar implementation over pre-widened doubles — both the boxed
  /// `EvalFn` and the compiled batch kernel dispatch to it, so the
  /// interpreter and the kernel cannot drift.
  using Impl = double (*)(const double*);

  MathFn(std::string name, std::vector<ExprPtr> args, Impl impl)
      : FunctionExpression(std::move(name), std::move(args),
                           DataType::kDouble),
        impl_(impl) {}

 protected:
  Value EvalFn(const std::vector<Value>& args) const override {
    double widened[3] = {0.0, 0.0, 0.0};
    for (size_t i = 0; i < args.size() && i < 3; ++i) {
      widened[i] = ValueAsDouble(args[i]);
    }
    return impl_(widened);
  }

  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override {
    const size_t arity = this->args().size();
    double row[3] = {0.0, 0.0, 0.0};
    for (size_t r = 0; r < n; ++r) {
      for (size_t a = 0; a < arity; ++a) row[a] = args[a][r];
      out[r] = impl_(row);
    }
  }

 private:
  Impl impl_;
};

Result<ExprPtr> MakeMathFn(const std::string& name, std::vector<ExprPtr> args,
                           size_t arity, MathFn::Impl impl) {
  if (args.size() != arity) {
    return Status::InvalidArgument(name + " expects " + std::to_string(arity) +
                                   " arguments");
  }
  return ExprPtr(std::make_shared<MathFn>(name, std::move(args), impl));
}

}  // namespace

// --- Public constructors ------------------------------------------------------

ExprPtr Attribute(std::string name) {
  return std::make_shared<FieldExpr>(std::move(name));
}

ExprPtr Lit(bool v) {
  return std::make_shared<LiteralExpr>(Value(v), DataType::kBool);
}
ExprPtr Lit(int64_t v) {
  return std::make_shared<LiteralExpr>(Value(v), DataType::kInt64);
}
ExprPtr Lit(int v) { return Lit(static_cast<int64_t>(v)); }
ExprPtr Lit(double v) {
  return std::make_shared<LiteralExpr>(Value(v), DataType::kDouble);
}
ExprPtr Lit(std::string v) {
  return std::make_shared<LiteralExpr>(Value(std::move(v)), DataType::kText32);
}

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<ArithExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Add(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kAdd, std::move(lhs), std::move(rhs));
}
ExprPtr Sub(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kSub, std::move(lhs), std::move(rhs));
}
ExprPtr Mul(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kMul, std::move(lhs), std::move(rhs));
}
ExprPtr Div(ExprPtr lhs, ExprPtr rhs) {
  return Arith(ArithOp::kDiv, std::move(lhs), std::move(rhs));
}

ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<CompareExpr>(op, std::move(lhs), std::move(rhs));
}
ExprPtr Lt(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kLt, std::move(lhs), std::move(rhs));
}
ExprPtr Le(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kLe, std::move(lhs), std::move(rhs));
}
ExprPtr Gt(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kGt, std::move(lhs), std::move(rhs));
}
ExprPtr Ge(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kGe, std::move(lhs), std::move(rhs));
}
ExprPtr Eq(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kEq, std::move(lhs), std::move(rhs));
}
ExprPtr Ne(ExprPtr lhs, ExprPtr rhs) {
  return Compare(CompareOp::kNe, std::move(lhs), std::move(rhs));
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalExpr::Kind::kAnd,
                                       std::move(lhs), std::move(rhs));
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<LogicalExpr>(LogicalExpr::Kind::kOr, std::move(lhs),
                                       std::move(rhs));
}
ExprPtr Not(ExprPtr inner) { return std::make_shared<NotExpr>(std::move(inner)); }

// --- FunctionExpression --------------------------------------------------------

Status FunctionExpression::Bind(const Schema& schema) {
  for (const ExprPtr& arg : args_) {
    NM_RETURN_NOT_OK(arg->Bind(schema));
  }
  return OnBind(schema);
}

Status FunctionExpression::OnBind(const Schema&) { return Status::OK(); }

Value FunctionExpression::Eval(const RecordView& rec) const {
  std::vector<Value> vals;
  vals.reserve(args_.size());
  for (const ExprPtr& arg : args_) vals.push_back(arg->Eval(rec));
  return EvalFn(vals);
}

std::string FunctionExpression::ToString() const {
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  out += ")";
  return out;
}

bool FunctionExpression::ReferencedFields(std::vector<std::string>* out) const {
  // Function expressions read only through their argument expressions, so
  // every subclass — including the MEOS extension suite and runtime-
  // registered lambdas — participates in optimizer dependency analysis
  // without any extra code.
  for (const ExprPtr& arg : args_) {
    if (!arg->ReferencedFields(out)) return false;
  }
  return true;
}

namespace {

// The kernel type a function of declared type \p type produces; nullopt
// for text.
std::optional<exec::KernelType> KernelTypeOf(DataType type) {
  switch (type) {
    case DataType::kBool:
      return exec::KernelType::kBool;
    case DataType::kInt64:
    case DataType::kTimestamp:
      return exec::KernelType::kInt64;
    case DataType::kDouble:
      return exec::KernelType::kDouble;
    case DataType::kText16:
    case DataType::kText32:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

exec::KernelPtr FunctionExpression::CompileKernel(
    const exec::RunLayout& layout) const {
  if (!ScalarEvaluable()) return nullptr;
  const auto out_type = KernelTypeOf(output_type_);
  if (!out_type) return nullptr;
  std::vector<exec::KernelPtr> arg_kernels;
  std::vector<double> const_args;
  arg_kernels.reserve(args_.size());
  const_args.reserve(args_.size());
  for (const ExprPtr& arg : args_) {
    if (auto cv = arg->ConstantValue()) {
      // Bind-time configuration (zone names, bounds): widened once, never
      // re-evaluated per row.
      arg_kernels.push_back(nullptr);
      const_args.push_back(ValueAsDouble(*cv));
      continue;
    }
    exec::KernelPtr k = arg->CompileKernel(layout);
    if (k == nullptr) return nullptr;
    arg_kernels.push_back(std::move(k));
    const_args.push_back(0.0);
  }
  return exec::MakeScalarFnKernel(
      *out_type,
      [this](const double* const* a, size_t n, double* out) {
        EvalColumn(a, n, out);
      },
      std::move(arg_kernels), std::move(const_args));
}

// --- Registry -------------------------------------------------------------------

ExpressionRegistry& ExpressionRegistry::Global() {
  static ExpressionRegistry* registry = new ExpressionRegistry();
  return *registry;
}

Status ExpressionRegistry::Register(const std::string& name, Factory factory) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (factories_.count(name) != 0) {
    return Status::AlreadyExists("function already registered: " + name);
  }
  factories_[name] = std::move(factory);
  return Status::OK();
}

bool ExpressionRegistry::Contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) != 0;
}

Result<ExprPtr> ExpressionRegistry::Create(const std::string& name,
                                           std::vector<ExprPtr> args) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return Status::NotFound("no registered function: " + name);
    }
    factory = it->second;
  }
  return factory(std::move(args));
}

std::vector<std::string> ExpressionRegistry::RegisteredNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, _] : factories_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

ExprPtr Fn(const std::string& name, std::vector<ExprPtr> args) {
  auto res = ExpressionRegistry::Global().Create(name, std::move(args));
  assert(res.ok());
  return *res;
}

namespace {

class LambdaFn : public FunctionExpression {
 public:
  using Impl = std::function<Value(const std::vector<Value>&)>;

  LambdaFn(std::string name, std::vector<ExprPtr> args, DataType output_type,
           Impl impl)
      : FunctionExpression(std::move(name), std::move(args), output_type),
        impl_(std::move(impl)) {}

  // Compiles to a per-row call over boxed arguments. A text output or a
  // text runtime argument (which has no kernel) stays interpreted;
  // constant arguments, text ones included, pass through as literals.
  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override {
    const auto out_type = KernelTypeOf(output_type());
    if (!out_type) return nullptr;
    std::vector<exec::KernelPtr> arg_kernels;
    std::vector<Value> const_args;
    for (const ExprPtr& arg : args()) {
      if (auto cv = arg->ConstantValue()) {
        arg_kernels.push_back(nullptr);
        const_args.push_back(std::move(*cv));
        continue;
      }
      exec::KernelPtr k = arg->CompileKernel(layout);
      if (k == nullptr) return nullptr;
      arg_kernels.push_back(std::move(k));
      const_args.emplace_back(false);
    }
    return exec::MakeBoxedFnKernel(*out_type, impl_, std::move(arg_kernels),
                                   std::move(const_args));
  }

 protected:
  // The callable's value converted to the declared type, as the kernel
  // converts it, so a lambda declared int64 that returns a double compares
  // the same interpreted and compiled.
  Value EvalFn(const std::vector<Value>& args) const override {
    Value v = impl_(args);
    switch (output_type()) {
      case DataType::kBool:
        return ValueAsBool(v);
      case DataType::kInt64:
      case DataType::kTimestamp:
        return ValueAsInt64(v);
      case DataType::kDouble:
        return ValueAsDouble(v);
      default:
        return v;  // text
    }
  }

 private:
  Impl impl_;
};

}  // namespace

ExprPtr MakeLambdaExpr(std::string name, std::vector<ExprPtr> args,
                       DataType output_type,
                       std::function<Value(const std::vector<Value>&)> fn) {
  return std::make_shared<LambdaFn>(std::move(name), std::move(args),
                                    output_type, std::move(fn));
}

Status RegisterLambdaFunction(
    const std::string& name, size_t arity, DataType output_type,
    std::function<Value(const std::vector<Value>&)> fn) {
  return ExpressionRegistry::Global().Register(
      name, [name, arity, output_type,
             fn](std::vector<ExprPtr> args) -> Result<ExprPtr> {
        if (args.size() != arity) {
          return Status::InvalidArgument(
              name + " expects " + std::to_string(arity) + " arguments");
        }
        return MakeLambdaExpr(name, std::move(args), output_type, fn);
      });
}

void RegisterBuiltinFunctions() {
  auto& reg = ExpressionRegistry::Global();
  if (reg.Contains("abs")) return;  // already registered
  (void)reg.Register("abs", [](std::vector<ExprPtr> args) {
    return MakeMathFn("abs", std::move(args), 1,
                      [](const double* v) { return std::fabs(v[0]); });
  });
  (void)reg.Register("sqrt", [](std::vector<ExprPtr> args) {
    return MakeMathFn("sqrt", std::move(args), 1, [](const double* v) {
      return std::sqrt(std::max(0.0, v[0]));
    });
  });
  (void)reg.Register("least", [](std::vector<ExprPtr> args) {
    return MakeMathFn("least", std::move(args), 2,
                      [](const double* v) { return std::min(v[0], v[1]); });
  });
  (void)reg.Register("greatest", [](std::vector<ExprPtr> args) {
    return MakeMathFn("greatest", std::move(args), 2,
                      [](const double* v) { return std::max(v[0], v[1]); });
  });
  (void)reg.Register("clamp", [](std::vector<ExprPtr> args) {
    return MakeMathFn("clamp", std::move(args), 3, [](const double* v) {
      return std::clamp(v[0], v[1], v[2]);
    });
  });
}

// --- Structural equality ------------------------------------------------------

bool StructurallyEqual(const ExprPtr& a, const ExprPtr& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  if (const auto* fa = dynamic_cast<const FieldExpr*>(a.get())) {
    const auto* fb = dynamic_cast<const FieldExpr*>(b.get());
    return fb != nullptr && fa->field_name() == fb->field_name();
  }
  if (dynamic_cast<const LiteralExpr*>(a.get()) != nullptr) {
    // Literal vs literal: same value AND same static type (an int64 1 and
    // a double 1.0 are distinct variant alternatives and compare unequal,
    // which is what we want — they widen differently downstream).
    if (dynamic_cast<const LiteralExpr*>(b.get()) == nullptr) return false;
    return a->output_type() == b->output_type() &&
           *a->ConstantValue() == *b->ConstantValue();
  }
  if (const auto* aa = dynamic_cast<const ArithExpr*>(a.get())) {
    const auto* ab = dynamic_cast<const ArithExpr*>(b.get());
    return ab != nullptr && aa->op() == ab->op() &&
           StructurallyEqual(aa->lhs(), ab->lhs()) &&
           StructurallyEqual(aa->rhs(), ab->rhs());
  }
  if (const auto* ca = dynamic_cast<const CompareExpr*>(a.get())) {
    const auto* cb = dynamic_cast<const CompareExpr*>(b.get());
    return cb != nullptr && ca->op() == cb->op() &&
           StructurallyEqual(ca->lhs(), cb->lhs()) &&
           StructurallyEqual(ca->rhs(), cb->rhs());
  }
  if (const auto* la = dynamic_cast<const LogicalExpr*>(a.get())) {
    const auto* lb = dynamic_cast<const LogicalExpr*>(b.get());
    return lb != nullptr && la->logical_kind() == lb->logical_kind() &&
           StructurallyEqual(la->lhs(), lb->lhs()) &&
           StructurallyEqual(la->rhs(), lb->rhs());
  }
  if (const auto* na = dynamic_cast<const NotExpr*>(a.get())) {
    const auto* nb = dynamic_cast<const NotExpr*>(b.get());
    return nb != nullptr && StructurallyEqual(na->inner(), nb->inner());
  }
  if (const auto* ga = dynamic_cast<const FunctionExpression*>(a.get())) {
    const auto* gb = dynamic_cast<const FunctionExpression*>(b.get());
    if (gb == nullptr || ga->name() != gb->name() ||
        ga->args().size() != gb->args().size()) {
      return false;
    }
    for (size_t i = 0; i < ga->args().size(); ++i) {
      if (!StructurallyEqual(ga->args()[i], gb->args()[i])) return false;
    }
    return true;
  }
  // Unknown extension node: semantics unprovable, never equal.
  return false;
}

bool ExpressionMergeSafe(const ExprPtr& expr) {
  if (!expr) return false;
  if (dynamic_cast<const FieldExpr*>(expr.get()) != nullptr) return true;
  if (dynamic_cast<const LiteralExpr*>(expr.get()) != nullptr) return true;
  if (const auto* a = dynamic_cast<const ArithExpr*>(expr.get())) {
    return ExpressionMergeSafe(a->lhs()) && ExpressionMergeSafe(a->rhs());
  }
  if (const auto* c = dynamic_cast<const CompareExpr*>(expr.get())) {
    return ExpressionMergeSafe(c->lhs()) && ExpressionMergeSafe(c->rhs());
  }
  if (const auto* l = dynamic_cast<const LogicalExpr*>(expr.get())) {
    return ExpressionMergeSafe(l->lhs()) && ExpressionMergeSafe(l->rhs());
  }
  if (const auto* n = dynamic_cast<const NotExpr*>(expr.get())) {
    return ExpressionMergeSafe(n->inner());
  }
  if (const auto* f = dynamic_cast<const FunctionExpression*>(expr.get())) {
    // A registered name pins process-wide semantics; an ad-hoc
    // MakeLambdaExpr name pins nothing — two queries can use the same
    // name for different callables, so it must not be merge material.
    if (!ExpressionRegistry::Global().Contains(f->name())) return false;
    for (const ExprPtr& arg : f->args()) {
      if (!ExpressionMergeSafe(arg)) return false;
    }
    return true;
  }
  return false;
}

// --- Constant folding ---------------------------------------------------------

namespace {

// Literal of the node's own output type, so folding never changes the
// downstream schema (an int-typed arithmetic result stays an int literal).
ExprPtr LiteralOf(const Value& v, DataType type) {
  switch (type) {
    case DataType::kBool:
      return Lit(ValueAsBool(v));
    case DataType::kInt64:
    case DataType::kTimestamp:
      return Lit(ValueAsInt64(v));
    case DataType::kDouble:
      return Lit(ValueAsDouble(v));
    case DataType::kText16:
    case DataType::kText32:
      return Lit(ValueToString(v));
  }
  return Lit(ValueAsDouble(v));
}

bool IsConst(const ExprPtr& e) { return e->ConstantValue().has_value(); }

// Evaluates a pure node whose children are all literals: binding against
// the empty schema succeeds (no field references) and Eval never touches
// the record.
ExprPtr EvalPure(ExprPtr node) {
  static const Schema kEmpty;
  if (!node->Bind(kEmpty).ok()) return node;
  const Value v = node->Eval(RecordView(&kEmpty, nullptr));
  return LiteralOf(v, node->output_type());
}

}  // namespace

namespace {

// Folds a rebuilt pure node with all-literal children into a literal via
// EvalPure; reports `changed` only when a literal actually came out (a
// Bind refusal leaves the rebuilt node alone — any real type error still
// surfaces at CompilePlan).
ExprPtr FoldOrKeep(ExprPtr rebuilt, bool* changed) {
  ExprPtr folded = EvalPure(rebuilt);
  if (IsConst(folded)) {
    *changed = true;
    return folded;
  }
  return rebuilt;
}

}  // namespace

ExprPtr FoldConstants(const ExprPtr& expr, bool* changed) {
  if (!expr || IsConst(expr)) return expr;
  if (const auto* a = dynamic_cast<const ArithExpr*>(expr.get())) {
    const ExprPtr lhs = FoldConstants(a->lhs(), changed);
    const ExprPtr rhs = FoldConstants(a->rhs(), changed);
    if (IsConst(lhs) && IsConst(rhs)) {
      return FoldOrKeep(Arith(a->op(), lhs, rhs), changed);
    }
    if (lhs != a->lhs() || rhs != a->rhs()) return Arith(a->op(), lhs, rhs);
    return expr;
  }
  if (const auto* c = dynamic_cast<const CompareExpr*>(expr.get())) {
    const ExprPtr lhs = FoldConstants(c->lhs(), changed);
    const ExprPtr rhs = FoldConstants(c->rhs(), changed);
    if (IsConst(lhs) && IsConst(rhs)) {
      return FoldOrKeep(Compare(c->op(), lhs, rhs), changed);
    }
    if (lhs != c->lhs() || rhs != c->rhs()) return Compare(c->op(), lhs, rhs);
    return expr;
  }
  if (const auto* l = dynamic_cast<const LogicalExpr*>(expr.get())) {
    const bool is_and = l->logical_kind() == LogicalExpr::Kind::kAnd;
    const ExprPtr lhs = FoldConstants(l->lhs(), changed);
    const ExprPtr rhs = FoldConstants(l->rhs(), changed);
    // Short-circuit simplification: a constant side either decides the
    // result or drops out (expressions are pure reads, so eliding the
    // other side preserves semantics).
    const auto lc = lhs->ConstantValue();
    const auto rc = rhs->ConstantValue();
    if (lc) {
      *changed = true;
      const bool b = ValueAsBool(*lc);
      if (is_and) return b ? rhs : Lit(false);
      return b ? Lit(true) : rhs;
    }
    if (rc) {
      *changed = true;
      const bool b = ValueAsBool(*rc);
      if (is_and) return b ? lhs : Lit(false);
      return b ? Lit(true) : lhs;
    }
    if (lhs != l->lhs() || rhs != l->rhs()) {
      return is_and ? And(lhs, rhs) : Or(lhs, rhs);
    }
    return expr;
  }
  if (const auto* n = dynamic_cast<const NotExpr*>(expr.get())) {
    const ExprPtr inner = FoldConstants(n->inner(), changed);
    if (IsConst(inner)) {
      return FoldOrKeep(Not(inner), changed);
    }
    if (inner != n->inner()) return Not(inner);
    return expr;
  }
  return expr;
}

// --- Common-subexpression elimination ----------------------------------------

namespace {

// The wrapper `PlanKernelCse` installs at every occurrence of a shared
// subexpression. One instance per distinct subexpression, aliased at all
// its occurrence positions (trees are immutable after Bind, so sharing a
// node is free). Interpretation passes straight through to the inner tree,
// while `CompileKernel` wraps the inner kernel so each row's value is
// computed at most once per batch and every occurrence in the fused run's
// stages reads it from the shared column.
class KernelCachedExpr final : public Expression {
 public:
  KernelCachedExpr(ExprPtr inner, std::shared_ptr<exec::ColumnCache> cache,
                   size_t slot)
      : inner_(std::move(inner)), cache_(std::move(cache)), slot_(slot) {}

  Status Bind(const Schema& schema) override { return inner_->Bind(schema); }
  Value Eval(const RecordView& rec) const override {
    return inner_->Eval(rec);
  }
  DataType output_type() const override { return inner_->output_type(); }
  std::string ToString() const override { return inner_->ToString(); }
  std::optional<Value> ConstantValue() const override {
    return inner_->ConstantValue();
  }
  bool ReferencedFields(std::vector<std::string>* out) const override {
    return inner_->ReferencedFields(out);
  }
  exec::KernelPtr CompileKernel(const exec::RunLayout& layout) const override {
    return exec::MakeColumnCacheKernel(cache_, slot_,
                                       inner_->CompileKernel(layout));
  }

 private:
  ExprPtr inner_;
  std::shared_ptr<exec::ColumnCache> cache_;
  size_t slot_;
};

// Field reads and literals are cheaper than a cache slot.
bool CseTrivial(const Expression* e) {
  return dynamic_cast<const FieldExpr*>(e) != nullptr ||
         dynamic_cast<const LiteralExpr*>(e) != nullptr;
}

// Occurrence census bucket. Buckets key on the rendered form and verify
// membership with StructurallyEqual, so a rendering collision degrades to
// a missed sharing opportunity, never a wrong merge.
struct CseBucket {
  ExprPtr representative;
  size_t occurrences = 0;
  ExprPtr wrapper;  // the shared caching wrapper, built on first replacement
};

// Counts subtree occurrences over the replaceable region: every subtree
// all of whose ancestors (within its root) are rebuildable built-ins.
void CseCount(const ExprPtr& node, std::map<std::string, CseBucket>* buckets) {
  if (!CseTrivial(node.get())) {
    CseBucket& bucket = (*buckets)[node->ToString()];
    if (!bucket.representative) bucket.representative = node;
    if (StructurallyEqual(bucket.representative, node)) ++bucket.occurrences;
  }
  if (const auto* a = dynamic_cast<const ArithExpr*>(node.get())) {
    CseCount(a->lhs(), buckets);
    CseCount(a->rhs(), buckets);
  } else if (const auto* c = dynamic_cast<const CompareExpr*>(node.get())) {
    CseCount(c->lhs(), buckets);
    CseCount(c->rhs(), buckets);
  } else if (const auto* l = dynamic_cast<const LogicalExpr*>(node.get())) {
    CseCount(l->lhs(), buckets);
    CseCount(l->rhs(), buckets);
  } else if (const auto* n = dynamic_cast<const NotExpr*>(node.get())) {
    CseCount(n->inner(), buckets);
  }
}

// Top-down, outermost-wins replacement: a node matching a shared bucket
// becomes (an alias of) the bucket's wrapper, which takes the next slot of
// `cache`, and its interior is left untouched — the wrapper's single
// evaluation covers it. Rebuilt ancestor nodes come out unbound.
ExprPtr CseRewrite(const ExprPtr& node,
                   std::map<std::string, CseBucket>* buckets,
                   const std::shared_ptr<exec::ColumnCache>& cache) {
  if (!CseTrivial(node.get())) {
    const auto it = buckets->find(node->ToString());
    if (it != buckets->end() && it->second.occurrences >= 2 &&
        StructurallyEqual(it->second.representative, node)) {
      CseBucket& bucket = it->second;
      if (!bucket.wrapper) {
        bucket.wrapper = std::make_shared<KernelCachedExpr>(
            bucket.representative, cache, cache->AddSlot());
      }
      return bucket.wrapper;
    }
  }
  if (const auto* a = dynamic_cast<const ArithExpr*>(node.get())) {
    ExprPtr lhs = CseRewrite(a->lhs(), buckets, cache);
    ExprPtr rhs = CseRewrite(a->rhs(), buckets, cache);
    if (lhs != a->lhs() || rhs != a->rhs()) {
      return Arith(a->op(), std::move(lhs), std::move(rhs));
    }
    return node;
  }
  if (const auto* c = dynamic_cast<const CompareExpr*>(node.get())) {
    ExprPtr lhs = CseRewrite(c->lhs(), buckets, cache);
    ExprPtr rhs = CseRewrite(c->rhs(), buckets, cache);
    if (lhs != c->lhs() || rhs != c->rhs()) {
      return Compare(c->op(), std::move(lhs), std::move(rhs));
    }
    return node;
  }
  if (const auto* l = dynamic_cast<const LogicalExpr*>(node.get())) {
    ExprPtr lhs = CseRewrite(l->lhs(), buckets, cache);
    ExprPtr rhs = CseRewrite(l->rhs(), buckets, cache);
    if (lhs != l->lhs() || rhs != l->rhs()) {
      return l->logical_kind() == LogicalExpr::Kind::kAnd
                 ? And(std::move(lhs), std::move(rhs))
                 : Or(std::move(lhs), std::move(rhs));
    }
    return node;
  }
  if (const auto* n = dynamic_cast<const NotExpr*>(node.get())) {
    ExprPtr inner = CseRewrite(n->inner(), buckets, cache);
    if (inner != n->inner()) return Not(std::move(inner));
    return node;
  }
  return node;
}

}  // namespace

KernelCsePlan PlanKernelCse(std::vector<ExprPtr> roots) {
  KernelCsePlan plan;
  std::map<std::string, CseBucket> buckets;
  for (const ExprPtr& root : roots) {
    if (root) CseCount(root, &buckets);
  }
  bool any_shared = false;
  for (const auto& [key, bucket] : buckets) {
    any_shared = any_shared || bucket.occurrences >= 2;
  }
  if (!any_shared) {
    plan.roots = std::move(roots);
    return plan;
  }
  auto cache = std::make_shared<exec::ColumnCache>();
  plan.roots.reserve(roots.size());
  for (const ExprPtr& root : roots) {
    plan.roots.push_back(root ? CseRewrite(root, &buckets, cache) : root);
  }
  plan.num_shared = cache->num_slots();
  plan.cache = std::move(cache);
  return plan;
}

}  // namespace nebulameos::nebula
