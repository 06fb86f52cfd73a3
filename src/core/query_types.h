#pragma once

#include <array>
#include <cstdint>
#include <variant>
#include <vector>

#include "common/status.h"
#include "common/types.h"

/// \file query_types.h
/// The one shared query vocabulary of the serving stack: query
/// specifications, evaluation modes, result shapes, and the closed
/// QueryRequest / QueryResponse sum types spoken by both serving paths —
/// the single-query QueryEngine and the futures-based QueryService. Kept
/// free of any engine state so both speak exactly the same types.

namespace ppq::core {

/// \brief STRQ evaluation modes.
enum class StrqMode {
  /// Return the ids whose indexed (reconstructed) position falls in the
  /// query cell — the summary used directly, no guarantees.
  kApproximate,
  /// Local search (Section 5.2): scan cells within the method's deviation
  /// radius of the query cell and keep ids whose reconstruction is within
  /// that radius of the cell; recall is 1 by Lemma 3.
  kLocalSearch,
  /// Local search + verification against the raw trajectories: precision
  /// and recall both 1. The number of candidates verified is the "ratio of
  /// trajectories visited" statistic of Table 4.
  kExact,
};

/// \brief One spatio-temporal query (x, y, t).
struct QuerySpec {
  Point position;
  Tick tick = 0;
};

/// \brief Result of an STRQ evaluation, including the verification-step
/// cost needed by Table 4.
struct StrqResult {
  std::vector<TrajId> ids;
  /// Candidates accessed in the second (verification) step.
  size_t candidates_visited = 0;

  bool operator==(const StrqResult& o) const {
    return ids == o.ids && candidates_visited == o.candidates_visited;
  }
};

/// \brief An arbitrary query rectangle (window queries generalise STRQ
/// from one grid cell to a region).
struct Window {
  double min_x, min_y, max_x, max_y;
  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x < max_x && p.y >= min_y && p.y < max_y;
  }
};

/// \brief A window query: rectangle + tick.
struct WindowSpec {
  Window window;
  Tick tick = 0;
};

/// \brief One k-NN answer entry.
struct Neighbor {
  TrajId id;
  double distance;  ///< distance of the reconstruction to the query point

  bool operator==(const Neighbor& o) const {
    return id == o.id && distance == o.distance;
  }
};

/// The one strict-weak ranking used everywhere neighbors are ordered:
/// ascending distance, ties broken by ascending id. Both the unsharded
/// ranking (query_eval.h) and the sharded top-k re-merge sort with THIS
/// function, so tie-breaks — including ties straddling a shard boundary —
/// cannot silently diverge between the two paths.
inline bool NeighborOrder(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.id < b.id);
}

/// \brief Trajectory path query result: STRQ matches plus the next
/// reconstructed positions of every match.
struct TpqResult {
  std::vector<TrajId> ids;
  std::vector<std::vector<Point>> paths;
  /// Candidates accessed in the verification step of the underlying STRQ.
  size_t candidates_visited = 0;

  bool operator==(const TpqResult& o) const {
    return ids == o.ids && paths == o.paths &&
           candidates_visited == o.candidates_visited;
  }
};

// ---------------------------------------------------------------------------
// The unified request/response vocabulary (QueryService, executor shims).
// ---------------------------------------------------------------------------

/// \brief One STRQ (Definition 5.2): grid cell of (x, y) at tick t.
struct StrqRequest {
  QuerySpec query;
  StrqMode mode = StrqMode::kLocalSearch;
};

/// \brief One window query: arbitrary rectangle at tick t.
struct WindowRequest {
  WindowSpec window;
  StrqMode mode = StrqMode::kLocalSearch;
};

/// \brief One k-nearest-trajectory query at (x, y, t).
struct KnnRequest {
  QuerySpec query;
  size_t k = 1;
};

/// \brief One trajectory path query (Definition 5.3): STRQ plus the next
/// \p length reconstructed positions of every match.
struct TpqRequest {
  QuerySpec query;
  int length = 1;
  StrqMode mode = StrqMode::kLocalSearch;
};

/// \brief The closed sum of every query the serving stack answers — all
/// four of the paper's query types go through this one vocabulary.
using QueryRequest =
    std::variant<StrqRequest, WindowRequest, KnnRequest, TpqRequest>;

/// \brief Discriminator of a QueryRequest/QueryResponse. (Strq and Window
/// responses share the StrqResult payload alternative, so the kind cannot
/// be derived from the response variant alone.)
enum class QueryKind { kStrq, kWindow, kKnn, kTpq };

inline QueryKind KindOf(const QueryRequest& request) {
  switch (request.index()) {
    case 0: return QueryKind::kStrq;
    case 1: return QueryKind::kWindow;
    case 2: return QueryKind::kKnn;
    default: return QueryKind::kTpq;
  }
}

/// Overload-set visitor for std::visit over QueryRequest — shared by
/// everything that dispatches on the request variant.
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

/// \brief The stages of one served request, in lifecycle order. Every
/// QueryResponse carries a per-stage wall-time breakdown
/// (QueryStats::stage_micros) so a p99 regression is attributable to a
/// stage, not just an end-to-end number. The same vocabulary names the
/// registry histograms (`ppq_serve_<stage>_micros`, src/obs/metrics.h).
enum class ServeStage : size_t {
  kQueue = 0,   ///< dispatcher queue wait (submit -> worker pickup)
  kScan = 1,    ///< candidate scan: grid/index probes + sort/unique
  kDecode = 2,  ///< summary reconstruction (Reconstruct/ReconstructSpan)
  kKernel = 3,  ///< SIMD kernel eval + verification loops
  kTail = 4,    ///< raw-tail scan (live sources only)
  kMerge = 5,   ///< merge of the per-shard sealed and tail parts
};

inline constexpr size_t kNumServeStages = 6;

/// Stage display/metric names, indexed by ServeStage.
inline constexpr std::array<const char*, kNumServeStages> kServeStageNames = {
    "queue", "scan", "decode", "kernel", "tail", "merge"};

/// \brief Per-query serving cost, filled by QueryService for every
/// response. The counters come from the evaluation itself (the
/// CountingReader in query_eval.h), not from sampling.
struct QueryStats {
  /// Candidates accessed by the second (verification or ranking) step:
  /// StrqResult::candidates_visited for STRQ/window/TPQ (the Table 4
  /// numerator), and the number of reconstructed candidates for k-NN.
  size_t candidates_visited = 0;
  /// Summary reconstructions performed (Reconstruct calls).
  size_t points_decoded = 0;
  /// Wall micros spent inside Reconstruct (summary decode).
  uint64_t decode_micros = 0;
  /// Wall micros for the whole evaluation, decode included.
  uint64_t eval_micros = 0;
  /// Wall micros the request waited in the dispatcher queue before a
  /// worker picked it up (stamped by QueryDispatcher, not the evaluator).
  uint64_t queue_micros = 0;
  /// Compact per-stage wall-time breakdown, indexed by ServeStage. The
  /// sub-stages of the evaluation (scan/decode/kernel/tail/merge) sum to
  /// at most eval_micros (each stage truncates to whole micros);
  /// stage_micros[kQueue] == queue_micros. Stages a request does not run
  /// (e.g. tail on a source without tails) stay 0.
  std::array<uint64_t, kNumServeStages> stage_micros{};
  /// Freshness: the minimum seal_epoch of the shard views the response
  /// pinned. Views the service builds from fixed seals carry its swap
  /// count (0 = the construction view); a live shard's view carries its
  /// seal generation — under live ingest a response is therefore never
  /// staler than the one watermark separating epoch N from N+1.
  uint64_t seal_epoch = 0;
};

/// \brief Answer to one QueryRequest: the result variant matching the
/// request kind, plus per-query cost stats. \ref status is non-OK only
/// when the request never ran (e.g. cancelled while still queued); the
/// result payload is then empty.
struct QueryResponse {
  Status status;
  QueryKind kind = QueryKind::kStrq;
  std::variant<StrqResult, std::vector<Neighbor>, TpqResult> result;
  QueryStats stats;

  bool ok() const { return status.ok(); }
  /// Payload accessors; valid only for the matching kind.
  const StrqResult& strq() const { return std::get<StrqResult>(result); }
  const std::vector<Neighbor>& neighbors() const {
    return std::get<std::vector<Neighbor>>(result);
  }
  const TpqResult& tpq() const { return std::get<TpqResult>(result); }
};

}  // namespace ppq::core
