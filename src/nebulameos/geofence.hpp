/// \file geofence.hpp
/// \brief Geofence registry: named zones and points of interest with a
/// spatial grid index.
///
/// "A geofence is a boundary that limits a location. It can be created
/// dynamically in a radius from the center of the area or by setting the
/// boundaries to perimeters" (paper §3.1). The registry holds both forms —
/// circles and polygons — tagged by kind (maintenance zone, station,
/// workshop, noise-sensitive neighbourhood, high-risk segment, weather
/// zone), plus point POIs. Queries resolve zones by name or by containment;
/// containment lookups go through a uniform grid index over zone bounding
/// boxes (MEOS-style box pruning before exact geometry tests), which the
/// A1 ablation benchmark can disable.
///
/// The grid index is a flat open-addressing hash table over the *occupied*
/// cells only, so a containment probe costs one hash of the packed cell
/// coordinates and a short linear probe instead of a tree walk. Memory is
/// proportional to the number of occupied cells (the power-of-two table
/// is kept at most half full), never to the area between distant zones.
/// Each cell lists its candidate zones with their kinds in registration
/// order, so a kind-filtered probe reads no `Zone` it does not test, and
/// the first match is the lowest id.
///
/// Probe coordinates come from the stream: a NaN, an infinity or a value
/// whose cell index does not fit in `int32_t` maps to no cell, and the
/// lookups answer as the linear scan does for a point inside no zone
/// (false, -1, or the default speed limit).

#pragma once

#include <optional>
#include <variant>

#include "meos/tgeompoint.hpp"

namespace nebulameos::integration {

using meos::Circle;
using meos::Metric;
using meos::Point;
using meos::Polygon;

/// Category of a geofence zone.
enum class ZoneKind {
  kMaintenance,
  kStation,
  kWorkshop,
  kNoiseSensitive,
  kHighRisk,
  kWeather,
};

/// Human-readable zone-kind name.
const char* ZoneKindName(ZoneKind kind);

/// \brief One registered geofence.
struct Zone {
  int64_t id = 0;
  std::string name;
  ZoneKind kind = ZoneKind::kMaintenance;
  std::variant<Polygon, Circle> shape;
  /// Advisory speed limit inside the zone (km/h); 0 = none.
  double speed_limit_kmh = 0.0;

  /// Bounding box of the shape (circles use a conservative WGS84 box).
  meos::GeoBox BoundingBox() const;

  /// True iff \p p lies inside the zone.
  bool Contains(const Point& p) const;

  /// Metric distance from \p p to the zone (0 inside).
  double DistanceTo(const Point& p) const;
};

/// \brief A named point of interest (e.g. a workshop's gate).
struct Poi {
  int64_t id = 0;
  std::string name;
  std::string kind;  ///< free-form tag, e.g. "workshop"
  Point location;
};

/// \brief Registry of zones and POIs with containment lookups.
///
/// Thread-compatible: build single-threaded, then share read-only across
/// query threads.
class GeofenceRegistry {
 public:
  /// \p metric selects WGS84 (default) or planar coordinates;
  /// \p cell_deg is the grid-index cell size in coordinate units.
  explicit GeofenceRegistry(Metric metric = Metric::kWgs84,
                            double cell_deg = 0.05);

  /// Registers a polygon zone; returns its id.
  int64_t AddPolygonZone(std::string name, ZoneKind kind, Polygon polygon,
                         double speed_limit_kmh = 0.0);

  /// Registers a circular zone; returns its id.
  int64_t AddCircleZone(std::string name, ZoneKind kind, Circle circle,
                        double speed_limit_kmh = 0.0);

  /// Registers a POI; returns its id.
  int64_t AddPoi(std::string name, std::string kind, Point location);

  /// Zone by name.
  const Zone* FindZone(const std::string& name) const;
  /// Zone by id.
  const Zone* FindZone(int64_t id) const;
  /// POI by name.
  const Poi* FindPoi(const std::string& name) const;

  /// All zones containing \p p, optionally restricted to \p kind.
  std::vector<const Zone*> ZonesContaining(
      const Point& p, std::optional<ZoneKind> kind = std::nullopt) const;

  /// True iff some zone (of \p kind, when given) contains \p p.
  bool InAnyZone(const Point& p,
                 std::optional<ZoneKind> kind = std::nullopt) const;

  /// Id of the first (lowest-id) zone containing \p p (kind-filtered), or
  /// -1.
  int64_t ZoneIdAt(const Point& p,
                   std::optional<ZoneKind> kind = std::nullopt) const;

  /// The lowest advisory speed limit among zones containing \p p, or
  /// \p default_kmh when none applies.
  double SpeedLimitAt(const Point& p, double default_kmh) const;

  /// Nearest POI of \p kind; distance (meters in WGS84) returned through
  /// \p out_distance when non-null.
  const Poi* NearestPoi(const Point& p, const std::string& kind,
                        double* out_distance = nullptr) const;

  /// Enables/disables the grid index (A1 ablation: linear scan vs pruned
  /// lookup).
  void SetIndexEnabled(bool enabled) { index_enabled_ = enabled; }
  bool index_enabled() const { return index_enabled_; }

  size_t NumZones() const { return zones_.size(); }
  size_t NumPois() const { return pois_.size(); }
  Metric metric() const { return metric_; }
  const std::vector<Zone>& zones() const { return zones_; }
  const std::vector<Poi>& pois() const { return pois_; }

 private:
  /// One candidate zone of a cell: index into `zones_` and its kind.
  struct CellZone {
    uint32_t index;
    ZoneKind kind;
  };
  /// One slot of the cell table; a slot with no zones is free.
  struct Cell {
    uint64_t key = 0;  ///< packed (cx, cy)
    std::vector<CellZone> zones;
  };

  void IndexZone(size_t zone_index);
  /// The cell index of coordinate \p v; false when it is not finite or
  /// does not fit in int32.
  bool CellIndex(double v, int32_t* out) const;
  size_t SlotOf(uint64_t key) const;
  /// The table cell holding \p p, or nullptr when no zone's box covers it.
  const Cell* FindCell(const Point& p) const;
  /// The cell for \p key, claimed (and the table grown) when absent.
  Cell& CellFor(uint64_t key);
  /// Calls \p visit on every zone (of \p kind, when given) that may hold
  /// \p p, in registration order, until it returns true; returns whether
  /// it did.
  template <typename Visit>
  bool VisitCandidates(const Point& p, std::optional<ZoneKind> kind,
                       const Visit& visit) const;

  Metric metric_;
  double cell_deg_;
  bool index_enabled_ = true;
  std::vector<Zone> zones_;
  std::vector<Poi> pois_;
  /// Open-addressing table, power-of-two sized, at most half full.
  std::vector<Cell> cells_;
  size_t num_cells_ = 0;
  int slot_shift_ = 64;  ///< 64 - log2(cells_.size())
};

}  // namespace nebulameos::integration
