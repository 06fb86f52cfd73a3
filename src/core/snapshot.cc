#include "core/snapshot.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <utility>

#include "core/compressor.h"

namespace ppq::core {

uint64_t NewDecodeLineage() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

// ---------------------------------------------------------------------------
// PpqSummarySnapshot
// ---------------------------------------------------------------------------

PpqSummarySnapshot::PpqSummarySnapshot(
    std::string name, TrajectorySummary summary,
    std::shared_ptr<const index::TemporalPartitionIndex> tpi,
    double local_search_radius, uint64_t decode_lineage)
    : SummarySnapshot(decode_lineage),
      name_(std::move(name)),
      summary_(std::move(summary)),
      tpi_(std::move(tpi)),
      local_search_radius_(local_search_radius),
      summary_bytes_(summary_.Size().Total()) {}

Result<Point> PpqSummarySnapshot::Reconstruct(TrajId id, Tick t,
                                              DecodeMemo* scratch) const {
  return summary_.ReconstructRefined(id, t, scratch);
}

size_t PpqSummarySnapshot::ReconstructSpan(TrajId id, Tick tick_begin,
                                           size_t n, Point* out,
                                           DecodeMemo* scratch) const {
  return summary_.ReconstructSpan(id, tick_begin, n, out, scratch);
}

Tick PpqSummarySnapshot::MaxCoveredTick() const {
  Tick covered = std::numeric_limits<Tick>::min();
  for (const auto& [id, record] : summary_.records()) {
    if (record.points.empty()) continue;
    covered = std::max(
        covered,
        record.start_tick + static_cast<Tick>(record.points.size()) - 1);
  }
  return covered;
}

// ---------------------------------------------------------------------------
// MaterializedSnapshot
// ---------------------------------------------------------------------------

MaterializedSnapshot::MaterializedSnapshot(
    std::string name, std::map<TrajId, TrajectoryPoints> points,
    std::shared_ptr<const index::TemporalPartitionIndex> tpi,
    double local_search_radius, size_t summary_bytes, size_t num_codewords)
    : SummarySnapshot(NewDecodeLineage()),
      name_(std::move(name)),
      points_(std::move(points)),
      tpi_(std::move(tpi)),
      local_search_radius_(local_search_radius),
      summary_bytes_(summary_bytes),
      num_codewords_(num_codewords) {}

Result<Point> MaterializedSnapshot::Reconstruct(TrajId id, Tick t,
                                                DecodeMemo* /*scratch*/) const {
  const auto it = points_.find(id);
  if (it == points_.end()) {
    return Status::NotFound("unknown trajectory id");
  }
  const TrajectoryPoints& traj = it->second;
  if (t < traj.start_tick ||
      t >= traj.start_tick + static_cast<Tick>(traj.points.size())) {
    return Status::OutOfRange("trajectory has no sample at requested tick");
  }
  return traj.points[static_cast<size_t>(t - traj.start_tick)];
}

size_t MaterializedSnapshot::ReconstructSpan(TrajId id, Tick tick_begin,
                                             size_t n, Point* out,
                                             DecodeMemo* /*scratch*/) const {
  if (n == 0) return 0;
  const auto it = points_.find(id);
  if (it == points_.end()) return 0;
  const TrajectoryPoints& traj = it->second;
  if (tick_begin < traj.start_tick ||
      tick_begin >=
          traj.start_tick + static_cast<Tick>(traj.points.size())) {
    return 0;
  }
  const size_t first = static_cast<size_t>(tick_begin - traj.start_tick);
  const size_t count = std::min(n, traj.points.size() - first);
  std::copy(traj.points.begin() + static_cast<ptrdiff_t>(first),
            traj.points.begin() + static_cast<ptrdiff_t>(first + count), out);
  return count;
}

Tick MaterializedSnapshot::MaxCoveredTick() const {
  Tick covered = std::numeric_limits<Tick>::min();
  for (const auto& [id, traj] : points_) {
    if (traj.points.empty()) continue;
    covered = std::max(
        covered, traj.start_tick + static_cast<Tick>(traj.points.size()) - 1);
  }
  return covered;
}

// ---------------------------------------------------------------------------
// Compressor::Seal default: materialize every record span
// ---------------------------------------------------------------------------

SnapshotPtr Compressor::Seal() const {
  std::map<TrajId, MaterializedSnapshot::TrajectoryPoints> points;
  for (const RecordSpan& span : RecordSpans()) {
    MaterializedSnapshot::TrajectoryPoints traj;
    traj.start_tick = span.start_tick;
    traj.points.reserve(static_cast<size_t>(span.length));
    for (Tick i = 0; i < span.length; ++i) {
      const auto p = Reconstruct(span.id, span.start_tick + i);
      if (!p.ok()) break;  // defensive: freeze the decodable prefix
      traj.points.push_back(*p);
    }
    points.emplace(span.id, std::move(traj));
  }

  std::shared_ptr<const index::TemporalPartitionIndex> tpi;
  if (index() != nullptr) {
    tpi = std::make_shared<const index::TemporalPartitionIndex>(*index());
  }
  return std::make_shared<MaterializedSnapshot>(
      name(), std::move(points), std::move(tpi), LocalSearchRadius(),
      SummaryBytes(), NumCodewords());
}

}  // namespace ppq::core
