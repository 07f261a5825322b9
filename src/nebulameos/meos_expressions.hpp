/// \file meos_expressions.hpp
/// \brief The MEOS operators exposed inside NebulaStream expressions —
/// the paper's core contribution.
///
/// "NebulaMEOS adds custom operators, including `MeosAtStbox_Expression`,
/// which incorporate spatial predicates such as `edwithin` and
/// `tpoint_at_stbox`" (§2.3). Each class here subclasses
/// `nebula::FunctionExpression` and is registered in the global
/// `ExpressionRegistry` by `RegisterMeosPlugin()` (plugin.hpp), so queries
/// can call them by name through `Fn("edwithin", {...})` and compose them
/// freely with the engine's native expression nodes.
///
/// In a streaming pipeline each record carries one position instant
/// (lon, lat, ts); the *instantaneous* lift of each MEOS predicate is
/// evaluated per record, while the trajectory-level ("ever") semantics over
/// windows are provided by the custom aggregators in trajectory.hpp, which
/// assemble `TGeomPointSeq`s and call the exact MEOS operations.
///
/// Configuration arguments (zone names, box bounds, distances) must be
/// literals: they are const-folded and resolved once at bind time, so the
/// per-record path touches no registry.
///
/// Because every class here is a `FunctionExpression`, its field read set
/// is visible to the plan optimizer (`Expression::ReferencedFields`), so
/// filters over MEOS predicates participate in predicate pushdown and
/// filter fusion like any built-in expression (see nebula/optimizer.hpp).
///
/// Every class also implements the batch-compiler column hook
/// (`FunctionExpression::EvalColumn`): a batch's positions arrive as
/// unboxed double columns and configuration is already bind-resolved, so
/// MEOS predicates compile into the engine's fused batch kernels
/// (nebula/exec/) with one call per batch instead of per-record `Value`
/// boxing.

#pragma once

#include <memory>

#include "meos/stbox.hpp"
#include "nebula/expr.hpp"
#include "nebulameos/geofence.hpp"

namespace nebulameos::integration {

/// \brief Installs \p registry as the geofence catalog that subsequently
/// bound MEOS expressions resolve names against.
void SetActiveGeofences(std::shared_ptr<const GeofenceRegistry> registry);

/// The currently installed geofence catalog (may be null).
std::shared_ptr<const GeofenceRegistry> ActiveGeofences();

/// \brief `edwithin(lon, lat, 'target', dist_m)` → BOOL.
///
/// True when the event position is within \c dist_m meters of the named
/// zone or POI ("checks if a geometry and a temporal point ever fall within
/// a specified distance of each other" — per-instant lift; the windowed
/// `edwithin` lives in trajectory.hpp).
class EdwithinExpression : public nebula::FunctionExpression {
 public:
  explicit EdwithinExpression(std::vector<nebula::ExprPtr> args);

  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  const Zone* zone_ = nullptr;
  const Poi* poi_ = nullptr;
  double dist_m_ = 0.0;
};

/// \brief `tpoint_at_stbox(lon, lat, ts, xmin, ymin, xmax, ymax, tmin,
/// tmax)` → BOOL — the `MeosAtStbox_Expression`.
///
/// True when the instant (lon, lat)@ts lies inside the spatiotemporal box;
/// used as a filter it restricts the stream's temporal point to the box,
/// the streaming realization of MEOS's `tpoint_at_stbox`.
class MeosAtStboxExpression : public nebula::FunctionExpression {
 public:
  explicit MeosAtStboxExpression(std::vector<nebula::ExprPtr> args);

  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

  /// Convenience: builds the expression from an `STBox` value.
  static nebula::ExprPtr FromBox(nebula::ExprPtr lon, nebula::ExprPtr lat,
                                 nebula::ExprPtr ts, const meos::STBox& box);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  meos::STBox box_;
};

/// \brief `in_zone(lon, lat, 'zone')` → BOOL: containment in one named
/// zone.
class InZoneExpression : public nebula::FunctionExpression {
 public:
  explicit InZoneExpression(std::vector<nebula::ExprPtr> args);
  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  const Zone* zone_ = nullptr;
};

/// \brief `in_zone_kind(lon, lat, 'kind')` → BOOL: containment in any zone
/// of a kind ("maintenance", "station", "workshop", "noise_sensitive",
/// "high_risk", "weather").
class InZoneKindExpression : public nebula::FunctionExpression {
 public:
  explicit InZoneKindExpression(std::vector<nebula::ExprPtr> args);
  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  std::shared_ptr<const GeofenceRegistry> registry_;
  std::optional<ZoneKind> kind_;
};

/// \brief `zone_id(lon, lat, 'kind')` → INT64: id of the containing zone of
/// a kind, or −1 ("" = any kind).
class ZoneIdExpression : public nebula::FunctionExpression {
 public:
  explicit ZoneIdExpression(std::vector<nebula::ExprPtr> args);
  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  std::shared_ptr<const GeofenceRegistry> registry_;
  std::optional<ZoneKind> kind_;
};

/// \brief `zone_speed_limit(lon, lat, default_kmh)` → DOUBLE: the advisory
/// limit at a position (Q3's dynamic speed limit).
class ZoneSpeedLimitExpression : public nebula::FunctionExpression {
 public:
  explicit ZoneSpeedLimitExpression(std::vector<nebula::ExprPtr> args);
  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  std::shared_ptr<const GeofenceRegistry> registry_;
  double default_kmh_ = 0.0;
};

/// \brief `nearest_poi_distance(lon, lat, 'kind')` → DOUBLE meters
/// (Q5 queries nearby workshops).
class NearestPoiDistanceExpression : public nebula::FunctionExpression {
 public:
  explicit NearestPoiDistanceExpression(std::vector<nebula::ExprPtr> args);
  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  std::shared_ptr<const GeofenceRegistry> registry_;
  std::string kind_;
};

/// \brief `nearest_poi_id(lon, lat, 'kind')` → INT64 (−1 when none).
class NearestPoiIdExpression : public nebula::FunctionExpression {
 public:
  explicit NearestPoiIdExpression(std::vector<nebula::ExprPtr> args);
  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  Status OnBind(const nebula::Schema& schema) override;
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;

 private:
  std::shared_ptr<const GeofenceRegistry> registry_;
  std::string kind_;
};

/// \brief `haversine_m(lon1, lat1, lon2, lat2)` → DOUBLE meters.
class HaversineExpression : public nebula::FunctionExpression {
 public:
  explicit HaversineExpression(std::vector<nebula::ExprPtr> args);
  static Result<nebula::ExprPtr> Make(std::vector<nebula::ExprPtr> args);

 protected:
  nebula::Value EvalFn(const std::vector<nebula::Value>& args) const override;
  bool ScalarEvaluable() const override { return true; }
  void EvalColumn(const double* const* args, size_t n,
                  double* out) const override;
};

/// Extracts a ZoneKind from its name; nullopt for "" (any).
Result<std::optional<ZoneKind>> ParseZoneKind(const std::string& name);

}  // namespace nebulameos::integration
