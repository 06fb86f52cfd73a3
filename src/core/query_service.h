#pragma once

#include <future>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "core/query_dispatch.h"
#include "core/query_types.h"
#include "core/shard_view.h"
#include "core/snapshot.h"
#include "obs/metrics.h"

/// \file query_service.h
/// The one asynchronous serving engine. QueryService accepts the unified
/// QueryRequest vocabulary (STRQ / window / k-NN / TPQ, query_types.h)
/// from any number of caller threads, evaluates each request on a
/// dedicated worker pool, and resolves a std::future<QueryResponse> per
/// request. It serves three view sources, all as one view per shard
/// (shard_view.h):
///
///  - one sealed snapshot: one view, no tail, no cut;
///  - the seals of a sharded repository (RepositorySnapshot::shards()):
///    N such views held in one published object;
///  - a live source (repo::LiveRepository): each shard's published view,
///    sealed summary plus raw tail.
///
/// Every request pins one view per shard, runs the query_eval.h templates
/// on each seal and the SIMD tail scans on each tail, then merges the
/// id-disjoint parts: ascending id for STRQ, window and TPQ, (distance,
/// id) for k-NN. TPQ runs per shard (that shard's STRQ, then paths decoded
/// on the same shard: the sealed prefix up to the cut, then raw tail
/// points), so no router is needed. A 1-shard source answers byte for
/// byte like the serial QueryEngine over its seal.
///
/// QueryStats::seal_epoch is the minimum seal_epoch of the pinned views:
/// for fixed seals, the number of UpdateView swaps applied before the
/// seals were published (0 = the construction view); for a live source,
/// the oldest shard seal generation the response drew on.
///
/// Thread-safety contract — the service is INTERNALLY synchronized:
///  - Submit / SubmitBatch / CancelPending / UpdateView are safe to call
///    concurrently from any number of threads.
///  - UpdateView is one atomic shared_ptr exchange that never blocks
///    queries. Fixed seals are pinned by a single atomic load, so a
///    response never mixes two swaps' seals. A live source is pinned per
///    shard: shards roll independently, and per-point disjointness around
///    each shard's own cut keeps the union exact.
///  - Workers keep one DecodeMemo per shard, tagged by the decode
///    lineage of the seal it was filled from (SummarySnapshot::
///    decode_lineage). A memo survives every seal of one encoder and is
///    cleared when its shard serves another lineage. Workers hold no
///    reference to any seal: the writer that retires a seal frees it.
///    UpdateView still sweeps idle workers' memos so their memory goes
///    at swap time.
///  - Exact-mode verification data is OWNED by the service via
///    shared_ptr (Options::raw) and validated at construction and at
///    every UpdateView.
///  - Destruction drains: every request already submitted is evaluated
///    and its future resolved before the destructor returns. To shed a
///    backlog instead, CancelPending() fails queued-but-unstarted
///    requests with StatusCode::kCancelled.

namespace ppq::core {

/// \brief Futures-based, internally synchronized query serving engine
/// over atomically hot-swappable per-shard views.
class QueryService {
 public:
  struct Options {
    /// Dedicated serving workers; 0 = hardware concurrency. (The caller
    /// thread never evaluates — submission is asynchronous.)
    size_t num_threads = 0;
    /// Raw dataset for StrqMode::kExact verification of sealed points
    /// (tail points are raw already), owned by the service. Ids are
    /// global, so one dataset serves every shard. May be null: exact mode
    /// then degenerates like the serial engine's (candidates counted,
    /// none verified).
    std::shared_ptr<const TrajectoryDataset> raw;
    /// Evaluation grid cell size gc.
    double cell_size = 0.001;
    /// Per-worker decode-scratch budget across all shards: when a
    /// worker's memoised prefixes exceed this many points its scratch is
    /// cleared, bounding resident memory at (num_threads * budget *
    /// sizeof(Point)). Memos outlive seals, so this is their only bound.
    size_t scratch_budget_points = size_t{1} << 22;
  };

  /// \throws std::invalid_argument when the source is null (an empty
  /// seal list or a null seal counts as null) or options.raw holds fewer
  /// trajectories than the pinned seals serve.
  QueryService(SnapshotPtr seal, Options options)
      : QueryService(std::vector<SnapshotPtr>{std::move(seal)},
                     std::move(options)) {}
  QueryService(std::vector<SnapshotPtr> seals, Options options);
  QueryService(std::shared_ptr<const ShardViewSource> source,
               Options options);

  /// Drains: blocks until every submitted request has resolved its
  /// future. Call CancelPending() first to shed the queue instead.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// \brief Submit one request; the future resolves when a worker has
  /// evaluated it (or it was cancelled).
  std::future<QueryResponse> Submit(QueryRequest request) {
    return dispatcher_.Submit(std::move(request));
  }

  /// \brief Submit a batch under one lock; futures[i] answers
  /// requests[i].
  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests) {
    return dispatcher_.SubmitBatch(std::move(requests));
  }

  /// \brief Fail every queued-but-unstarted request with
  /// StatusCode::kCancelled; requests already being evaluated complete
  /// normally. Returns the number cancelled.
  size_t CancelPending() { return dispatcher_.CancelPending(); }

  /// \brief Hot-swap what is served, validated like the constructors.
  /// In-flight requests finish on the views they pinned; every request
  /// dispatched after the exchange sees the new source. A rejected swap
  /// throws std::invalid_argument and changes nothing. The calling
  /// thread then frees idle workers' decode scratch (waiting at most for
  /// each worker's current evaluation).
  void UpdateView(SnapshotPtr seal) {
    UpdateView(std::vector<SnapshotPtr>{std::move(seal)});
  }
  void UpdateView(std::vector<SnapshotPtr> seals) PPQ_EXCLUDES(swap_mu_);
  void UpdateView(std::shared_ptr<const ShardViewSource> source)
      PPQ_EXCLUDES(swap_mu_);

  /// Dedicated serving workers.
  size_t num_threads() const { return num_workers_; }

 private:
  /// Per-worker decode scratch: one memo per shard, each tagged by the
  /// decode lineage it was filled under (0 = untagged). The owning worker
  /// holds `mu` for each evaluation (uncontended in steady state);
  /// UpdateView's sweep takes it too.
  struct WorkerState {
    Mutex mu;
    std::vector<DecodeMemo> memos PPQ_GUARDED_BY(mu);
    std::vector<uint64_t> memo_lineages PPQ_GUARDED_BY(mu);
  };

  /// Throws std::invalid_argument on a null source, a shard without a
  /// seal, or a verification dataset smaller than the pinned seals.
  void Validate(const ShardViewSource* source) const;
  /// Validate, publish, count the swap, then sweep idle workers' scratch.
  void Swap(std::shared_ptr<const ShardViewSource> source)
      PPQ_REQUIRES(swap_mu_);
  QueryResponse Evaluate(const QueryRequest& request, WorkerState& state);

  Options options_;
  size_t num_workers_;
  /// `ppq_serve_memo_resets_total{cause="lineage"|"budget"}`: non-empty
  /// memos cleared because their shard changed lineage, and scratch
  /// clears past the budget.
  obs::Counter* lineage_resets_;
  obs::Counter* budget_resets_;
  /// Accessed only through std::atomic_load/atomic_store (the C++17
  /// atomic-shared_ptr interface): UpdateView is one atomic exchange.
  std::shared_ptr<const ShardViewSource> served_;
  /// Serializes swaps, so swap counts follow publication order.
  Mutex swap_mu_;
  /// Swaps applied; the next fixed-seal swap publishes swaps_ + 1.
  uint64_t swaps_ PPQ_GUARDED_BY(swap_mu_) = 0;

  /// Queue + pool + per-worker state; declared last so it is destroyed
  /// FIRST — its drain-on-destroy evaluates against the still-alive
  /// members above.
  QueryDispatcher<WorkerState> dispatcher_;
};

}  // namespace ppq::core
