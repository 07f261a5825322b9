#include "nebulameos/meos_expressions.hpp"

#include <atomic>
#include <limits>
#include <mutex>

namespace nebulameos::integration {

using nebula::DataType;
using nebula::ExprPtr;
using nebula::Value;
using nebula::ValueAsDouble;
using nebula::ValueAsInt64;
using nebula::ValueToString;

namespace {

std::mutex g_geofence_mutex;
std::shared_ptr<const GeofenceRegistry> g_geofences;

// Extracts the constant string value of argument `idx`, or errors.
Result<std::string> ConstText(const std::vector<ExprPtr>& args, size_t idx,
                              const std::string& fn) {
  auto v = args[idx]->ConstantValue();
  if (!v) {
    return Status::InvalidArgument(fn + ": argument " + std::to_string(idx) +
                                   " must be a literal");
  }
  return ValueToString(*v);
}

// Extracts the constant numeric value of argument `idx`, or errors.
Result<double> ConstNumber(const std::vector<ExprPtr>& args, size_t idx,
                           const std::string& fn) {
  auto v = args[idx]->ConstantValue();
  if (!v) {
    return Status::InvalidArgument(fn + ": argument " + std::to_string(idx) +
                                   " must be a literal");
  }
  return ValueAsDouble(*v);
}

Status CheckArity(const std::vector<ExprPtr>& args, size_t arity,
                  const std::string& fn) {
  if (args.size() != arity) {
    return Status::InvalidArgument(fn + " expects " + std::to_string(arity) +
                                   " arguments, got " +
                                   std::to_string(args.size()));
  }
  return Status::OK();
}

Result<std::shared_ptr<const GeofenceRegistry>> RequireGeofences(
    const std::string& fn) {
  auto reg = ActiveGeofences();
  if (!reg) {
    return Status::FailedPrecondition(
        fn + ": no active geofence registry (call SetActiveGeofences)");
  }
  return reg;
}

}  // namespace

void SetActiveGeofences(std::shared_ptr<const GeofenceRegistry> registry) {
  std::lock_guard<std::mutex> lock(g_geofence_mutex);
  g_geofences = std::move(registry);
}

std::shared_ptr<const GeofenceRegistry> ActiveGeofences() {
  std::lock_guard<std::mutex> lock(g_geofence_mutex);
  return g_geofences;
}

Result<std::optional<ZoneKind>> ParseZoneKind(const std::string& name) {
  if (name.empty()) return std::optional<ZoneKind>{};
  for (ZoneKind kind :
       {ZoneKind::kMaintenance, ZoneKind::kStation, ZoneKind::kWorkshop,
        ZoneKind::kNoiseSensitive, ZoneKind::kHighRisk, ZoneKind::kWeather}) {
    if (name == ZoneKindName(kind)) return std::optional<ZoneKind>{kind};
  }
  return Status::InvalidArgument("unknown zone kind: '" + name + "'");
}

// --- EdwithinExpression ----------------------------------------------------

EdwithinExpression::EdwithinExpression(std::vector<ExprPtr> args)
    : FunctionExpression("edwithin", std::move(args), DataType::kBool) {}

Result<ExprPtr> EdwithinExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 4, "edwithin"));
  return ExprPtr(std::make_shared<EdwithinExpression>(std::move(args)));
}

Status EdwithinExpression::OnBind(const nebula::Schema&) {
  NM_ASSIGN_OR_RETURN(auto registry, RequireGeofences("edwithin"));
  NM_ASSIGN_OR_RETURN(std::string target, ConstText(args(), 2, "edwithin"));
  NM_ASSIGN_OR_RETURN(dist_m_, ConstNumber(args(), 3, "edwithin"));
  zone_ = registry->FindZone(target);
  poi_ = zone_ ? nullptr : registry->FindPoi(target);
  if (zone_ == nullptr && poi_ == nullptr) {
    return Status::NotFound("edwithin: no zone or POI named '" + target + "'");
  }
  return Status::OK();
}

Value EdwithinExpression::EvalFn(const std::vector<Value>& args) const {
  const Point p{ValueAsDouble(args[0]), ValueAsDouble(args[1])};
  if (zone_ != nullptr) return zone_->DistanceTo(p) <= dist_m_;
  return meos::PointDistance(p, poi_->location, Metric::kWgs84) <= dist_m_;
}

void EdwithinExpression::EvalColumn(const double* const* args, size_t n,
                                    double* out) const {
  for (size_t r = 0; r < n; ++r) {
    const Point p{args[0][r], args[1][r]};
    const double d = zone_ != nullptr
                         ? zone_->DistanceTo(p)
                         : meos::PointDistance(p, poi_->location,
                                               Metric::kWgs84);
    out[r] = d <= dist_m_ ? 1.0 : 0.0;
  }
}

// --- MeosAtStboxExpression -------------------------------------------------

MeosAtStboxExpression::MeosAtStboxExpression(std::vector<ExprPtr> args)
    : FunctionExpression("tpoint_at_stbox", std::move(args), DataType::kBool) {}

Result<ExprPtr> MeosAtStboxExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 9, "tpoint_at_stbox"));
  return ExprPtr(std::make_shared<MeosAtStboxExpression>(std::move(args)));
}

nebula::ExprPtr MeosAtStboxExpression::FromBox(ExprPtr lon, ExprPtr lat,
                                               ExprPtr ts,
                                               const meos::STBox& box) {
  std::vector<ExprPtr> args = {
      std::move(lon),
      std::move(lat),
      std::move(ts),
      nebula::Lit(box.xmin()),
      nebula::Lit(box.ymin()),
      nebula::Lit(box.xmax()),
      nebula::Lit(box.ymax()),
      nebula::Lit(box.has_time() ? box.tmin()
                                 : std::numeric_limits<int64_t>::min()),
      nebula::Lit(box.has_time() ? box.tmax()
                                 : std::numeric_limits<int64_t>::max()),
  };
  return std::make_shared<MeosAtStboxExpression>(std::move(args));
}

Status MeosAtStboxExpression::OnBind(const nebula::Schema&) {
  double bounds[4];
  for (size_t i = 0; i < 4; ++i) {
    NM_ASSIGN_OR_RETURN(bounds[i],
                        ConstNumber(args(), 3 + i, "tpoint_at_stbox"));
  }
  Timestamp tmin, tmax;
  {
    NM_ASSIGN_OR_RETURN(double v, ConstNumber(args(), 7, "tpoint_at_stbox"));
    tmin = static_cast<Timestamp>(v);
  }
  {
    NM_ASSIGN_OR_RETURN(double v, ConstNumber(args(), 8, "tpoint_at_stbox"));
    tmax = static_cast<Timestamp>(v);
  }
  NM_ASSIGN_OR_RETURN(meos::Period period, meos::Period::Make(tmin, tmax));
  NM_ASSIGN_OR_RETURN(
      box_, meos::STBox::Make(bounds[0], bounds[1], bounds[2], bounds[3],
                              period));
  return Status::OK();
}

Value MeosAtStboxExpression::EvalFn(const std::vector<Value>& args) const {
  const Point p{ValueAsDouble(args[0]), ValueAsDouble(args[1])};
  const Timestamp t = ValueAsInt64(args[2]);
  return box_.Contains(p, t);
}

void MeosAtStboxExpression::EvalColumn(const double* const* args, size_t n,
                                       double* out) const {
  for (size_t r = 0; r < n; ++r) {
    const Point p{args[0][r], args[1][r]};
    out[r] = box_.Contains(p, static_cast<Timestamp>(args[2][r])) ? 1.0 : 0.0;
  }
}

// --- InZoneExpression --------------------------------------------------------

InZoneExpression::InZoneExpression(std::vector<ExprPtr> args)
    : FunctionExpression("in_zone", std::move(args), DataType::kBool) {}

Result<ExprPtr> InZoneExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 3, "in_zone"));
  return ExprPtr(std::make_shared<InZoneExpression>(std::move(args)));
}

Status InZoneExpression::OnBind(const nebula::Schema&) {
  NM_ASSIGN_OR_RETURN(auto registry, RequireGeofences("in_zone"));
  NM_ASSIGN_OR_RETURN(std::string name, ConstText(args(), 2, "in_zone"));
  zone_ = registry->FindZone(name);
  if (zone_ == nullptr) {
    return Status::NotFound("in_zone: no zone named '" + name + "'");
  }
  return Status::OK();
}

Value InZoneExpression::EvalFn(const std::vector<Value>& args) const {
  return zone_->Contains(Point{ValueAsDouble(args[0]), ValueAsDouble(args[1])});
}

void InZoneExpression::EvalColumn(const double* const* args, size_t n,
                                  double* out) const {
  for (size_t r = 0; r < n; ++r) {
    out[r] = zone_->Contains(Point{args[0][r], args[1][r]}) ? 1.0 : 0.0;
  }
}

// --- InZoneKindExpression ------------------------------------------------------

InZoneKindExpression::InZoneKindExpression(std::vector<ExprPtr> args)
    : FunctionExpression("in_zone_kind", std::move(args), DataType::kBool) {}

Result<ExprPtr> InZoneKindExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 3, "in_zone_kind"));
  return ExprPtr(std::make_shared<InZoneKindExpression>(std::move(args)));
}

Status InZoneKindExpression::OnBind(const nebula::Schema&) {
  NM_ASSIGN_OR_RETURN(registry_, RequireGeofences("in_zone_kind"));
  NM_ASSIGN_OR_RETURN(std::string kind, ConstText(args(), 2, "in_zone_kind"));
  NM_ASSIGN_OR_RETURN(kind_, ParseZoneKind(kind));
  return Status::OK();
}

Value InZoneKindExpression::EvalFn(const std::vector<Value>& args) const {
  return registry_->InAnyZone(
      Point{ValueAsDouble(args[0]), ValueAsDouble(args[1])}, kind_);
}

void InZoneKindExpression::EvalColumn(const double* const* args, size_t n,
                                      double* out) const {
  for (size_t r = 0; r < n; ++r) {
    out[r] =
        registry_->InAnyZone(Point{args[0][r], args[1][r]}, kind_) ? 1.0 : 0.0;
  }
}

// --- ZoneIdExpression ----------------------------------------------------------

ZoneIdExpression::ZoneIdExpression(std::vector<ExprPtr> args)
    : FunctionExpression("zone_id", std::move(args), DataType::kInt64) {}

Result<ExprPtr> ZoneIdExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 3, "zone_id"));
  return ExprPtr(std::make_shared<ZoneIdExpression>(std::move(args)));
}

Status ZoneIdExpression::OnBind(const nebula::Schema&) {
  NM_ASSIGN_OR_RETURN(registry_, RequireGeofences("zone_id"));
  NM_ASSIGN_OR_RETURN(std::string kind, ConstText(args(), 2, "zone_id"));
  NM_ASSIGN_OR_RETURN(kind_, ParseZoneKind(kind));
  return Status::OK();
}

Value ZoneIdExpression::EvalFn(const std::vector<Value>& args) const {
  return registry_->ZoneIdAt(
      Point{ValueAsDouble(args[0]), ValueAsDouble(args[1])}, kind_);
}

void ZoneIdExpression::EvalColumn(const double* const* args, size_t n,
                                  double* out) const {
  for (size_t r = 0; r < n; ++r) {
    out[r] = static_cast<double>(
        registry_->ZoneIdAt(Point{args[0][r], args[1][r]}, kind_));
  }
}

// --- ZoneSpeedLimitExpression -----------------------------------------------------

ZoneSpeedLimitExpression::ZoneSpeedLimitExpression(std::vector<ExprPtr> args)
    : FunctionExpression("zone_speed_limit", std::move(args),
                         DataType::kDouble) {}

Result<ExprPtr> ZoneSpeedLimitExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 3, "zone_speed_limit"));
  return ExprPtr(std::make_shared<ZoneSpeedLimitExpression>(std::move(args)));
}

Status ZoneSpeedLimitExpression::OnBind(const nebula::Schema&) {
  NM_ASSIGN_OR_RETURN(registry_, RequireGeofences("zone_speed_limit"));
  NM_ASSIGN_OR_RETURN(default_kmh_,
                      ConstNumber(args(), 2, "zone_speed_limit"));
  return Status::OK();
}

Value ZoneSpeedLimitExpression::EvalFn(const std::vector<Value>& args) const {
  return registry_->SpeedLimitAt(
      Point{ValueAsDouble(args[0]), ValueAsDouble(args[1])}, default_kmh_);
}

void ZoneSpeedLimitExpression::EvalColumn(const double* const* args,
                                          size_t n, double* out) const {
  for (size_t r = 0; r < n; ++r) {
    out[r] =
        registry_->SpeedLimitAt(Point{args[0][r], args[1][r]}, default_kmh_);
  }
}

// --- NearestPoiDistanceExpression ----------------------------------------------------

NearestPoiDistanceExpression::NearestPoiDistanceExpression(
    std::vector<ExprPtr> args)
    : FunctionExpression("nearest_poi_distance", std::move(args),
                         DataType::kDouble) {}

Result<ExprPtr> NearestPoiDistanceExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 3, "nearest_poi_distance"));
  return ExprPtr(
      std::make_shared<NearestPoiDistanceExpression>(std::move(args)));
}

Status NearestPoiDistanceExpression::OnBind(const nebula::Schema&) {
  NM_ASSIGN_OR_RETURN(registry_, RequireGeofences("nearest_poi_distance"));
  NM_ASSIGN_OR_RETURN(kind_, ConstText(args(), 2, "nearest_poi_distance"));
  return Status::OK();
}

Value NearestPoiDistanceExpression::EvalFn(
    const std::vector<Value>& args) const {
  double dist = 0.0;
  registry_->NearestPoi(Point{ValueAsDouble(args[0]), ValueAsDouble(args[1])},
                        kind_, &dist);
  return dist;
}

void NearestPoiDistanceExpression::EvalColumn(const double* const* args,
                                              size_t n, double* out) const {
  for (size_t r = 0; r < n; ++r) {
    registry_->NearestPoi(Point{args[0][r], args[1][r]}, kind_, &out[r]);
  }
}

// --- NearestPoiIdExpression ---------------------------------------------------------

NearestPoiIdExpression::NearestPoiIdExpression(std::vector<ExprPtr> args)
    : FunctionExpression("nearest_poi_id", std::move(args), DataType::kInt64) {}

Result<ExprPtr> NearestPoiIdExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 3, "nearest_poi_id"));
  return ExprPtr(std::make_shared<NearestPoiIdExpression>(std::move(args)));
}

Status NearestPoiIdExpression::OnBind(const nebula::Schema&) {
  NM_ASSIGN_OR_RETURN(registry_, RequireGeofences("nearest_poi_id"));
  NM_ASSIGN_OR_RETURN(kind_, ConstText(args(), 2, "nearest_poi_id"));
  return Status::OK();
}

Value NearestPoiIdExpression::EvalFn(const std::vector<Value>& args) const {
  const Poi* poi = registry_->NearestPoi(
      Point{ValueAsDouble(args[0]), ValueAsDouble(args[1])}, kind_);
  return poi == nullptr ? int64_t{-1} : poi->id;
}

void NearestPoiIdExpression::EvalColumn(const double* const* args, size_t n,
                                        double* out) const {
  for (size_t r = 0; r < n; ++r) {
    const Poi* poi =
        registry_->NearestPoi(Point{args[0][r], args[1][r]}, kind_);
    out[r] = poi == nullptr ? -1.0 : static_cast<double>(poi->id);
  }
}

// --- HaversineExpression -----------------------------------------------------------

HaversineExpression::HaversineExpression(std::vector<ExprPtr> args)
    : FunctionExpression("haversine_m", std::move(args), DataType::kDouble) {}

Result<ExprPtr> HaversineExpression::Make(std::vector<ExprPtr> args) {
  NM_RETURN_NOT_OK(CheckArity(args, 4, "haversine_m"));
  return ExprPtr(std::make_shared<HaversineExpression>(std::move(args)));
}

Value HaversineExpression::EvalFn(const std::vector<Value>& args) const {
  return meos::HaversineMeters(
      Point{ValueAsDouble(args[0]), ValueAsDouble(args[1])},
      Point{ValueAsDouble(args[2]), ValueAsDouble(args[3])});
}

void HaversineExpression::EvalColumn(const double* const* args, size_t n,
                                     double* out) const {
  for (size_t r = 0; r < n; ++r) {
    out[r] = meos::HaversineMeters(Point{args[0][r], args[1][r]},
                                   Point{args[2][r], args[3][r]});
  }
}

}  // namespace nebulameos::integration
