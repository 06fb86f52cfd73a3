#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/simd.h"
#include "core/compressor.h"
#include "core/query_types.h"
#include "core/snapshot.h"
#include "index/temporal_index.h"
#include "obs/trace.h"

/// \file query_eval.h
/// The spatio-temporal query algorithms of Section 5.2 (STRQ local search,
/// window queries, expanding-ring k-NN), written once as templates over a
/// minimal Reader concept so that the serial QueryEngine and the async
/// QueryService (per shard) evaluate *the same code* — results are
/// byte-identical by construction, whichever path (and whichever thread
/// count) served them.
///
/// A Reader provides:
///   Result<Point> Reconstruct(TrajId id, Tick t) const;
///   size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
///                          Point* out) const;
///   const index::TemporalPartitionIndex* index() const;
///   double LocalSearchRadius() const;
/// ReconstructSpan writes the decodable prefix of [tick_begin,
/// tick_begin + n) and returns how many points it wrote — the batched form
/// the evaluation loops below prefer: candidates are decoded into compact
/// arrays and the geometry (containment, rectangle distance, kNN scoring)
/// runs through the simd.h kernels, whose scalar references keep answers
/// bit-identical to the historical per-point loops.
///
/// It is the Reader that decides where decode scratch lives: the serial
/// engine uses the compressor's internal memo, the executor hands every
/// worker thread its own DecodeMemo.

namespace ppq::core::eval {

/// Reader over a live compressor: decode goes through the method's own
/// (internal, single-threaded) memo.
struct CompressorReader {
  const Compressor* method;

  Result<Point> Reconstruct(TrajId id, Tick t) const {
    return method->Reconstruct(id, t);
  }
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const {
    return method->ReconstructSpan(id, tick_begin, n, out);
  }
  const index::TemporalPartitionIndex* index() const {
    return method->index();
  }
  double LocalSearchRadius() const { return method->LocalSearchRadius(); }
};

/// Reader over a sealed snapshot with caller-owned scratch — the
/// concurrent-safe path.
struct SnapshotReader {
  const SummarySnapshot* snapshot;
  DecodeMemo* scratch;

  Result<Point> Reconstruct(TrajId id, Tick t) const {
    return snapshot->Reconstruct(id, t, scratch);
  }
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const {
    return snapshot->ReconstructSpan(id, tick_begin, n, out, scratch);
  }
  const index::TemporalPartitionIndex* index() const {
    return snapshot->index();
  }
  double LocalSearchRadius() const { return snapshot->LocalSearchRadius(); }
};

/// Per-evaluation stage accumulator: nanoseconds per ServeStage (nanos
/// because individual samples — one span decode, one kernel pass — are
/// often sub-microsecond; the services convert to micros once at the end).
/// Carried by CountingReader so the evaluation templates can attribute
/// wall time to stages without taking new parameters: readers that carry
/// no sink (the serial engine's CompressorReader) get a null sink and the
/// timers compile down to a pointer test — results stay bit-identical and
/// the untimed path stays clock-free.
struct StageNanos {
  std::array<uint64_t, kNumServeStages> v{};
};

/// StagesOf(reader): the reader's stage sink, or nullptr for readers that
/// don't carry one. Detection is on a member named `stages` of type
/// StageNanos*, so only readers that opt in are ever timed.
template <typename Reader>
inline auto StagesOfImpl(const Reader& reader, int) -> decltype(reader.stages) {
  return reader.stages;
}
template <typename Reader>
inline StageNanos* StagesOfImpl(const Reader&, long) {
  return nullptr;
}
template <typename Reader>
inline StageNanos* StagesOf(const Reader& reader) {
  return StagesOfImpl(reader, 0);
}

/// \brief RAII stage interval: adds [construction, destruction) to one
/// stage of a StageNanos sink. A null sink skips the clock entirely.
class StageTimer {
 public:
  StageTimer(StageNanos* sink, ServeStage stage) : sink_(sink), stage_(stage) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (sink_ == nullptr) return;
    sink_->v[static_cast<size_t>(stage_)] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageNanos* sink_;
  ServeStage stage_;
  std::chrono::steady_clock::time_point start_{};
};

/// Convert an evaluation's accumulated stage nanos into the response's
/// stage_micros (truncating division, matching the historical
/// decode_micros semantics) and fill decode_micros from the decode stage.
/// The queue stage is stamped later, by the dispatcher.
inline void FillStageMicros(const StageNanos& stages, QueryStats* stats) {
  for (size_t i = 0; i < kNumServeStages; ++i) {
    stats->stage_micros[i] = stages.v[i] / 1000;
  }
  stats->decode_micros =
      stages.v[static_cast<size_t>(ServeStage::kDecode)] / 1000;
}

/// Wraps any Reader and accounts every Reconstruct call into a QueryStats
/// (points decoded + wall time spent decoding, attributed to the decode
/// stage of the carried StageNanos sink). This is how QueryService fills
/// per-query cost stats without the algorithms knowing: the counting is a
/// reader concern, so the evaluation templates — and therefore the
/// results — are bit-for-bit the same with or without it.
template <typename Inner>
struct CountingReader {
  Inner inner;
  QueryStats* stats;
  /// Per-stage wall-time sink; decode samples accumulate into
  /// stages->v[kDecode]. Must be non-null.
  StageNanos* stages;

  Result<Point> Reconstruct(TrajId id, Tick t) const {
    const auto start = std::chrono::steady_clock::now();
    Result<Point> r = inner.Reconstruct(id, t);
    stages->v[static_cast<size_t>(ServeStage::kDecode)] +=
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    ++stats->points_decoded;
    return r;
  }
  /// One timing sample per span (not per point), so decode_micros stays
  /// comparable with the pre-batching numbers. points_decoded counts what
  /// an equivalent per-point loop would have: every written point, plus
  /// the one failed attempt that would have ended a cut-short span.
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const {
    const auto start = std::chrono::steady_clock::now();
    const size_t m = inner.ReconstructSpan(id, tick_begin, n, out);
    stages->v[static_cast<size_t>(ServeStage::kDecode)] +=
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
    stats->points_decoded += (m == n) ? n : m + 1;
    return m;
  }
  const index::TemporalPartitionIndex* index() const { return inner.index(); }
  double LocalSearchRadius() const { return inner.LocalSearchRadius(); }
};

/// The global grid cell containing a point, as half-open [min, max) bounds.
inline Window CellOf(const Point& p, double cell_size) {
  const double cx = std::floor(p.x / cell_size);
  const double cy = std::floor(p.y / cell_size);
  return Window{cx * cell_size, cy * cell_size, (cx + 1) * cell_size,
                (cy + 1) * cell_size};
}

/// \brief Decoded candidate set at one tick: parallel id/position arrays,
/// compact so the geometry kernels can run over the positions directly.
struct DecodedCandidates {
  std::vector<TrajId> ids;
  std::vector<Point> positions;
};

/// Decode every candidate's position at tick \p t. Candidates that fail to
/// decode (expired id, tick outside the record) are dropped, exactly like
/// the historical `if (!recon.ok()) continue;`. Goes through the span API
/// (n = 1) so CountingReader attributes cost identically either way.
template <typename Reader>
DecodedCandidates DecodeAt(const Reader& reader,
                           const std::vector<TrajId>& candidates, Tick t) {
  PPQ_ZONE("eval.decode");
  DecodedCandidates out;
  out.ids.reserve(candidates.size());
  out.positions.reserve(candidates.size());
  Point p;
  for (TrajId id : candidates) {
    if (reader.ReconstructSpan(id, t, 1, &p) == 1) {
      out.ids.push_back(id);
      out.positions.push_back(p);
    }
  }
  return out;
}

/// Region query: the ids whose position at tick \p t lies in the half-open
/// rectangle \p region. Every indexed point within the search radius of
/// the region lies inside the sweep disc: the region's centre, radius
/// \p half_diag (centre to corner) plus the search radius.
template <typename Reader>
StrqResult RegionQuery(const Reader& reader, const TrajectoryDataset* raw,
                       const Window& region, double half_diag, Tick t,
                       StrqMode mode) {
  StrqResult result;
  const index::TemporalPartitionIndex* tpi = reader.index();
  if (tpi == nullptr) return result;

  StageNanos* const stages = StagesOf(reader);
  const double radius =
      (mode == StrqMode::kApproximate) ? 0.0 : reader.LocalSearchRadius();
  const Point center{(region.min_x + region.max_x) / 2.0,
                     (region.min_y + region.max_y) / 2.0};
  std::vector<TrajId> coarse;
  {
    PPQ_ZONE("eval.scan");
    StageTimer timer(stages, ServeStage::kScan);
    coarse = tpi->QueryCircle(center, half_diag + radius + 1e-12, t);
    std::sort(coarse.begin(), coarse.end());
    coarse.erase(std::unique(coarse.begin(), coarse.end()), coarse.end());
  }

  const DecodedCandidates decoded = DecodeAt(reader, coarse, t);
  const size_t n = decoded.positions.size();

  PPQ_ZONE("eval.kernel");
  StageTimer kernel_timer(stages, ServeStage::kKernel);
  if (mode == StrqMode::kApproximate) {
    std::vector<uint8_t> mask(n);
    simd::ContainsMask(decoded.positions.data(), n, region.min_x,
                       region.min_y, region.max_x, region.max_y, mask.data());
    for (size_t i = 0; i < n; ++i) {
      if (mask[i]) result.ids.push_back(decoded.ids[i]);
    }
    return result;
  }

  std::vector<double> dist(n);
  simd::RegionDistances(decoded.positions.data(), n, region.min_x,
                        region.min_y, region.max_x, region.max_y, dist.data());
  for (size_t i = 0; i < n; ++i) {
    if (dist[i] > radius) continue;  // cannot be in the region by Lemma 3
    const TrajId id = decoded.ids[i];
    if (mode == StrqMode::kLocalSearch) {
      result.ids.push_back(id);
      continue;
    }
    // kExact: verify against the raw trajectory. Ids beyond the dataset
    // (a mismatched verification set) cannot be verified and are dropped.
    ++result.candidates_visited;
    if (raw != nullptr && static_cast<size_t>(id) < raw->size()) {
      const Trajectory& traj = (*raw)[static_cast<size_t>(id)];
      if (traj.ActiveAt(t) && region.Contains(traj.At(t))) {
        result.ids.push_back(id);
      }
    }
  }
  return result;
}

/// Spatio-temporal range query at (q.position, q.tick): a region query
/// over the query point's grid cell.
template <typename Reader>
StrqResult Strq(const Reader& reader, const TrajectoryDataset* raw,
                double cell_size, const QuerySpec& q, StrqMode mode) {
  return RegionQuery(reader, raw, CellOf(q.position, cell_size),
                     std::sqrt(2.0) / 2.0 * cell_size, q.tick, mode);
}

/// Window query: trajectories inside an arbitrary rectangle at tick t. A
/// window without interior contains nothing.
template <typename Reader>
StrqResult WindowQuery(const Reader& reader, const TrajectoryDataset* raw,
                       const Window& window, Tick t, StrqMode mode) {
  if (window.max_x <= window.min_x || window.max_y <= window.min_y) {
    return StrqResult{};
  }
  const double width = window.max_x - window.min_x;
  const double height = window.max_y - window.min_y;
  return RegionQuery(reader, raw, window,
                     std::sqrt(width * width + height * height) / 2.0, t,
                     mode);
}

/// k-nearest-trajectory query, answered entirely from the summary via an
/// expanding ring search over the index.
template <typename Reader>
std::vector<Neighbor> NearestTrajectories(const Reader& reader,
                                          double cell_size, const QuerySpec& q,
                                          size_t k) {
  std::vector<Neighbor> result;
  const index::TemporalPartitionIndex* tpi = reader.index();
  if (tpi == nullptr || k == 0) return result;

  // Expanding ring search: double the radius until at least k candidates
  // are found (or the search space is clearly exhausted), then rank by
  // reconstruction distance. The extra `bound` margin guarantees no true
  // k-NN member outside the scanned disc can beat the returned set by
  // more than the deviation bound.
  StageNanos* const stages = StagesOf(reader);
  const double bound = reader.LocalSearchRadius();
  double radius = std::max(cell_size, 4.0 * bound);
  std::vector<TrajId> coarse;
  {
    PPQ_ZONE("eval.scan");
    StageTimer timer(stages, ServeStage::kScan);
    for (int attempt = 0; attempt < 24; ++attempt) {
      coarse = tpi->QueryCircle(q.position, radius + bound, q.tick);
      std::sort(coarse.begin(), coarse.end());
      coarse.erase(std::unique(coarse.begin(), coarse.end()), coarse.end());
      if (coarse.size() >= k) break;
      radius *= 2.0;
    }
  }

  const DecodedCandidates decoded = DecodeAt(reader, coarse, q.tick);
  const size_t n = decoded.positions.size();

  PPQ_ZONE("eval.kernel");
  StageTimer kernel_timer(stages, ServeStage::kKernel);
  std::vector<double> dist(n);
  simd::Distances(decoded.positions.data(), n, q.position, dist.data());

  result.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    result.push_back({decoded.ids[i], dist[i]});
  }
  std::sort(result.begin(), result.end(), NeighborOrder);
  if (result.size() > k) result.resize(k);
  return result;
}

/// Trajectory path query: STRQ then reconstruct the next \p length
/// positions of every matching trajectory.
template <typename Reader>
TpqResult Tpq(const Reader& reader, const TrajectoryDataset* raw,
              double cell_size, const QuerySpec& q, int length,
              StrqMode mode) {
  TpqResult result;
  const StrqResult strq = Strq(reader, raw, cell_size, q, mode);
  result.candidates_visited = strq.candidates_visited;
  const size_t want = length > 0 ? static_cast<size_t>(length) : 0;
  for (TrajId id : strq.ids) {
    // One span decode per matching trajectory; the decodable prefix is the
    // path (shorter than `length` when the trajectory ends first).
    std::vector<Point> path(want);
    const size_t got = reader.ReconstructSpan(id, q.tick, want, path.data());
    path.resize(got);
    result.ids.push_back(id);
    result.paths.push_back(std::move(path));
  }
  return result;
}

}  // namespace ppq::core::eval
