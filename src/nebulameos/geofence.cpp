#include "nebulameos/geofence.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace nebulameos::integration {

const char* ZoneKindName(ZoneKind kind) {
  switch (kind) {
    case ZoneKind::kMaintenance:
      return "maintenance";
    case ZoneKind::kStation:
      return "station";
    case ZoneKind::kWorkshop:
      return "workshop";
    case ZoneKind::kNoiseSensitive:
      return "noise_sensitive";
    case ZoneKind::kHighRisk:
      return "high_risk";
    case ZoneKind::kWeather:
      return "weather";
  }
  return "?";
}

meos::GeoBox Zone::BoundingBox() const {
  if (const auto* poly = std::get_if<Polygon>(&shape)) {
    return poly->bbox();
  }
  const Circle& c = std::get<Circle>(shape);
  // Conservative degree margin for the metric radius.
  const double margin = meos::MetersToDegreeMargin(c.radius, c.center.y);
  meos::GeoBox box = meos::GeoBox::Empty();
  box.Extend(c.center);
  return box.Expanded(margin);
}

bool Zone::Contains(const Point& p) const {
  if (const auto* poly = std::get_if<Polygon>(&shape)) {
    return poly->Contains(p);
  }
  const Circle& c = std::get<Circle>(shape);
  return meos::PointCircleDistance(p, c, Metric::kWgs84) == 0.0;
}

double Zone::DistanceTo(const Point& p) const {
  if (const auto* poly = std::get_if<Polygon>(&shape)) {
    return meos::PointPolygonDistance(p, *poly, Metric::kWgs84);
  }
  return meos::PointCircleDistance(p, std::get<Circle>(shape),
                                   Metric::kWgs84);
}

GeofenceRegistry::GeofenceRegistry(Metric metric, double cell_deg)
    : metric_(metric), cell_deg_(cell_deg) {}

int64_t GeofenceRegistry::AddPolygonZone(std::string name, ZoneKind kind,
                                         Polygon polygon,
                                         double speed_limit_kmh) {
  Zone zone;
  zone.id = static_cast<int64_t>(zones_.size());
  zone.name = std::move(name);
  zone.kind = kind;
  zone.shape = std::move(polygon);
  zone.speed_limit_kmh = speed_limit_kmh;
  zones_.push_back(std::move(zone));
  IndexZone(zones_.size() - 1);
  return zones_.back().id;
}

int64_t GeofenceRegistry::AddCircleZone(std::string name, ZoneKind kind,
                                        Circle circle,
                                        double speed_limit_kmh) {
  Zone zone;
  zone.id = static_cast<int64_t>(zones_.size());
  zone.name = std::move(name);
  zone.kind = kind;
  zone.shape = circle;
  zone.speed_limit_kmh = speed_limit_kmh;
  zones_.push_back(std::move(zone));
  IndexZone(zones_.size() - 1);
  return zones_.back().id;
}

int64_t GeofenceRegistry::AddPoi(std::string name, std::string kind,
                                 Point location) {
  Poi poi;
  poi.id = static_cast<int64_t>(pois_.size());
  poi.name = std::move(name);
  poi.kind = std::move(kind);
  poi.location = location;
  pois_.push_back(std::move(poi));
  return pois_.back().id;
}

const Zone* GeofenceRegistry::FindZone(const std::string& name) const {
  for (const Zone& z : zones_) {
    if (z.name == name) return &z;
  }
  return nullptr;
}

const Zone* GeofenceRegistry::FindZone(int64_t id) const {
  if (id < 0 || static_cast<size_t>(id) >= zones_.size()) return nullptr;
  return &zones_[static_cast<size_t>(id)];
}

const Poi* GeofenceRegistry::FindPoi(const std::string& name) const {
  for (const Poi& p : pois_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

namespace {

uint64_t PackCell(int32_t cx, int32_t cy) {
  return (uint64_t{static_cast<uint32_t>(cx)} << 32) |
         static_cast<uint32_t>(cy);
}

}  // namespace

bool GeofenceRegistry::CellIndex(double v, int32_t* out) const {
  const double c = std::floor(v / cell_deg_);
  // Written so that NaN fails too: every comparison with NaN is false.
  if (!(c >= static_cast<double>(std::numeric_limits<int32_t>::min()) &&
        c <= static_cast<double>(std::numeric_limits<int32_t>::max()))) {
    return false;
  }
  *out = static_cast<int32_t>(c);
  return true;
}

size_t GeofenceRegistry::SlotOf(uint64_t key) const {
  // Fibonacci hashing: the product's high bits depend on every bit of the
  // key. Its low bits depend on the low bits of cy alone, so every cell
  // sharing a cy would collide.
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> slot_shift_);
}

const GeofenceRegistry::Cell* GeofenceRegistry::FindCell(
    const Point& p) const {
  int32_t cx = 0;
  int32_t cy = 0;
  if (num_cells_ == 0 || !CellIndex(p.x, &cx) || !CellIndex(p.y, &cy)) {
    return nullptr;
  }
  const uint64_t key = PackCell(cx, cy);
  const size_t mask = cells_.size() - 1;
  // Terminates: the table is at most half full.
  for (size_t i = SlotOf(key);; i = (i + 1) & mask) {
    const Cell& cell = cells_[i];
    if (cell.zones.empty()) return nullptr;
    if (cell.key == key) return &cell;
  }
}

GeofenceRegistry::Cell& GeofenceRegistry::CellFor(uint64_t key) {
  if (2 * (num_cells_ + 1) > cells_.size()) {
    std::vector<Cell> old = std::move(cells_);
    cells_ = std::vector<Cell>(std::max<size_t>(16, 2 * old.size()));
    slot_shift_ = 64 - std::countr_zero(cells_.size());
    const size_t mask = cells_.size() - 1;
    for (Cell& cell : old) {
      if (cell.zones.empty()) continue;
      size_t i = SlotOf(cell.key);
      while (!cells_[i].zones.empty()) i = (i + 1) & mask;
      cells_[i] = std::move(cell);
    }
  }
  const size_t mask = cells_.size() - 1;
  size_t i = SlotOf(key);
  while (!cells_[i].zones.empty() && cells_[i].key != key) i = (i + 1) & mask;
  if (cells_[i].zones.empty()) {
    cells_[i].key = key;
    ++num_cells_;
  }
  return cells_[i];
}

void GeofenceRegistry::IndexZone(size_t zone_index) {
  const meos::GeoBox box = zones_[zone_index].BoundingBox();
  int32_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  // A box with a non-finite or out-of-range corner indexes nowhere.
  if (!CellIndex(box.xmin, &x0) || !CellIndex(box.ymin, &y0) ||
      !CellIndex(box.xmax, &x1) || !CellIndex(box.ymax, &y1)) {
    return;
  }
  const CellZone entry{static_cast<uint32_t>(zone_index),
                       zones_[zone_index].kind};
  for (int64_t cx = x0; cx <= x1; ++cx) {
    for (int64_t cy = y0; cy <= y1; ++cy) {
      CellFor(PackCell(static_cast<int32_t>(cx), static_cast<int32_t>(cy)))
          .zones.push_back(entry);
    }
  }
}

template <typename Visit>
bool GeofenceRegistry::VisitCandidates(const Point& p,
                                       std::optional<ZoneKind> kind,
                                       const Visit& visit) const {
  if (!index_enabled_) {
    for (const Zone& z : zones_) {
      if ((!kind || z.kind == *kind) && visit(z)) return true;
    }
    return false;
  }
  const Cell* cell = FindCell(p);
  if (cell == nullptr) return false;
  for (const CellZone& cz : cell->zones) {
    if ((!kind || cz.kind == *kind) && visit(zones_[cz.index])) return true;
  }
  return false;
}

std::vector<const Zone*> GeofenceRegistry::ZonesContaining(
    const Point& p, std::optional<ZoneKind> kind) const {
  std::vector<const Zone*> out;
  VisitCandidates(p, kind, [&](const Zone& z) {
    if (z.Contains(p)) out.push_back(&z);
    return false;
  });
  return out;
}

bool GeofenceRegistry::InAnyZone(const Point& p,
                                 std::optional<ZoneKind> kind) const {
  return VisitCandidates(p, kind,
                         [&](const Zone& z) { return z.Contains(p); });
}

int64_t GeofenceRegistry::ZoneIdAt(const Point& p,
                                   std::optional<ZoneKind> kind) const {
  int64_t id = -1;
  VisitCandidates(p, kind, [&](const Zone& z) {
    if (!z.Contains(p)) return false;
    id = z.id;
    return true;
  });
  return id;
}

double GeofenceRegistry::SpeedLimitAt(const Point& p,
                                      double default_kmh) const {
  double limit = default_kmh;
  VisitCandidates(p, std::nullopt, [&](const Zone& z) {
    // Only a positive limit below the current one can lower it, so the
    // containment test runs for those zones alone.
    if (z.speed_limit_kmh > 0.0 && z.speed_limit_kmh < limit &&
        z.Contains(p)) {
      limit = z.speed_limit_kmh;
    }
    return false;
  });
  return limit;
}

const Poi* GeofenceRegistry::NearestPoi(const Point& p,
                                        const std::string& kind,
                                        double* out_distance) const {
  const Poi* best = nullptr;
  double best_d = std::numeric_limits<double>::infinity();
  for (const Poi& poi : pois_) {
    if (!kind.empty() && poi.kind != kind) continue;
    const double d = meos::PointDistance(p, poi.location, metric_);
    if (d < best_d) {
      best_d = d;
      best = &poi;
    }
  }
  if (out_distance != nullptr) {
    *out_distance = best ? best_d : std::numeric_limits<double>::infinity();
  }
  return best;
}

}  // namespace nebulameos::integration
