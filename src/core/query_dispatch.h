#pragma once

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/query_types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file query_dispatch.h
/// The asynchronous dispatch substrate of the serving engine
/// (core::QueryService): an internally synchronized pending-request queue
/// drained by a dedicated worker pool, per-worker state handed to the
/// evaluator, cancellation of queued-but-unstarted requests, and
/// drain-on-destruction. Keeping this apart from evaluation keeps the
/// subtle parts — the queue-token race with CancelPending, the
/// destruction ordering that lets the pool drain against still-alive
/// state, promise exception delivery — in one place; the engine
/// contributes only its evaluator, validation, and hot-swap bookkeeping.
///
/// Thread-safety contract (inherited verbatim by the engine):
/// Submit / SubmitBatch / CancelPending are safe from any number of
/// threads. Each queued request is evaluated exactly once, on a dedicated
/// worker (worker 0 is the never-submitting caller slot of the pool, so
/// evaluation never runs on a submitter thread). Destruction drains:
/// every submitted future resolves before the destructor returns.
///
/// WorkerState must expose a `common::Mutex mu` (ppq::Mutex) guarding its
/// scratch members; the evaluator holds it for the duration of each
/// evaluation, and the engine's hot-swap reclamation sweep walks
/// worker_states() taking each `mu` in turn — all of it visible to
/// `clang -Wthread-safety` because the guarded members carry
/// PPQ_GUARDED_BY(mu) and every acquisition is a common::MutexLock.

namespace ppq::core {

/// The per-stage serve histograms (`ppq_serve_<stage>_micros`) plus the
/// whole-evaluation histogram, resolved from the default registry once.
/// Shared by every QueryDispatcher instantiation.
struct ServeStageHistograms {
  std::array<obs::Histogram*, kNumServeStages> stages{};
  obs::Histogram* eval = nullptr;

  static const ServeStageHistograms& Get() {
    static const ServeStageHistograms instance = [] {
      ServeStageHistograms h;
      obs::Registry& registry = obs::Registry::Default();
      for (size_t i = 0; i < kNumServeStages; ++i) {
        h.stages[i] = registry.GetHistogram(std::string("ppq_serve_") +
                                            kServeStageNames[i] + "_micros");
      }
      h.eval = registry.GetHistogram("ppq_serve_eval_micros");
      return h;
    }();
    return instance;
  }
};

/// Record one response's stage breakdown into the serve histograms.
/// Called once per request by the dispatcher (the only site, so the
/// registry view and the per-response QueryStats cannot double-count).
inline void ObserveServeStages(const QueryStats& stats) {
  const ServeStageHistograms& h = ServeStageHistograms::Get();
  for (size_t i = 0; i < kNumServeStages; ++i) {
    h.stages[i]->Observe(stats.stage_micros[i]);
  }
  h.eval->Observe(stats.eval_micros);
}

/// \brief Internally synchronized request queue + worker pool, generic
/// over the per-worker scratch the engine keeps.
template <typename WorkerState>
class QueryDispatcher {
 public:
  using Evaluator =
      std::function<QueryResponse(const QueryRequest&, WorkerState&)>;

  /// \param num_workers dedicated evaluation workers (resolved, nonzero).
  QueryDispatcher(size_t num_workers, Evaluator evaluate)
      : evaluate_(std::move(evaluate)),
        worker_state_(num_workers + 1),
        // One caller slot + num_workers background workers: the pool's
        // worker 0 is its (never-submitting) caller, so posted requests
        // always run on the dedicated threads.
        pool_(num_workers + 1) {}

  QueryDispatcher(const QueryDispatcher&) = delete;
  QueryDispatcher& operator=(const QueryDispatcher&) = delete;

  /// \brief Queue one request; the future resolves when a worker has
  /// evaluated it (or it was cancelled).
  std::future<QueryResponse> Submit(QueryRequest request)
      PPQ_EXCLUDES(queue_mu_) {
    std::promise<QueryResponse> promise;
    std::future<QueryResponse> future = promise.get_future();
    {
      MutexLock lock(queue_mu_);
      pending_.push_back({std::move(request), std::move(promise),
                          std::chrono::steady_clock::now()});
    }
    pool_.Post([this](size_t worker) { ProcessOne(worker); });
    queue_depth_->Set(static_cast<int64_t>(pool_.ApproxQueuedTasks()));
    return future;
  }

  /// \brief Queue a batch under one lock; futures[i] answers requests[i].
  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests) PPQ_EXCLUDES(queue_mu_) {
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(requests.size());
    {
      MutexLock lock(queue_mu_);
      const auto enqueued = std::chrono::steady_clock::now();
      for (QueryRequest& request : requests) {
        Pending pending;
        pending.request = std::move(request);
        pending.enqueued = enqueued;
        futures.push_back(pending.promise.get_future());
        pending_.push_back(std::move(pending));
      }
    }
    // One pool token per request: a token that loses the race to a
    // cancellation (or another worker) simply finds the queue empty.
    for (size_t i = 0; i < futures.size(); ++i) {
      pool_.Post([this](size_t worker) { ProcessOne(worker); });
    }
    queue_depth_->Set(static_cast<int64_t>(pool_.ApproxQueuedTasks()));
    return futures;
  }

  /// \brief Fail every queued-but-unstarted request with
  /// StatusCode::kCancelled; returns the number cancelled.
  size_t CancelPending() PPQ_EXCLUDES(queue_mu_) {
    std::deque<Pending> cancelled;
    {
      MutexLock lock(queue_mu_);
      cancelled.swap(pending_);
    }
    for (Pending& pending : cancelled) {
      QueryResponse response;
      response.kind = KindOf(pending.request);
      response.status =
          Status::Cancelled("request cancelled before evaluation started");
      pending.promise.set_value(std::move(response));
    }
    return cancelled.size();
  }

  /// \brief The per-worker states, for the engine's hot-swap
  /// reclamation sweep. Callers take each state's `mu` themselves:
  ///
  ///   for (auto& state : dispatcher_.worker_states()) {
  ///     MutexLock lock(state.mu);
  ///     state.memo.Clear();   // guarded member, lock provably held
  ///   }
  ///
  /// (An opaque for-each taking a callback would hide the acquisition
  /// from the thread-safety analysis — the explicit loop keeps the
  /// guarded accesses and the lock in the same scope.) Each lock waits
  /// at most for that worker's current evaluation.
  std::vector<WorkerState>& worker_states() { return worker_state_; }

 private:
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    /// Submission time, for the queue-wait stage of the response.
    std::chrono::steady_clock::time_point enqueued{};
  };

  /// Pop one pending request (if any survives cancellation) and resolve
  /// its promise.
  void ProcessOne(size_t worker) PPQ_EXCLUDES(queue_mu_) {
    Pending pending;
    {
      MutexLock lock(queue_mu_);
      if (pending_.empty()) return;  // lost the race to CancelPending
      pending = std::move(pending_.front());
      pending_.pop_front();
    }
    const uint64_t queue_micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - pending.enqueued)
            .count());
    try {
      PPQ_ZONE("serve.evaluate");
      QueryResponse response =
          evaluate_(pending.request, worker_state_[worker]);
      // Queue wait is the dispatcher's stage: the evaluator never sees it.
      response.stats.queue_micros = queue_micros;
      response.stats.stage_micros[static_cast<size_t>(ServeStage::kQueue)] =
          queue_micros;
      ObserveServeStages(response.stats);
      pending.promise.set_value(std::move(response));
    } catch (...) {
      pending.promise.set_exception(std::current_exception());
    }
  }

  Evaluator evaluate_;
  /// Sampled at every submit: tasks waiting for a worker (one per pending
  /// request), the back-pressure signal for queue-wait regressions.
  obs::Gauge* queue_depth_ =
      obs::Registry::Default().GetGauge("ppq_serve_queue_depth");

  Mutex queue_mu_;
  std::deque<Pending> pending_ PPQ_GUARDED_BY(queue_mu_);

  std::vector<WorkerState> worker_state_;
  /// Declared last so it is destroyed FIRST: the pool's drain-on-destroy
  /// runs ProcessOne against still-alive pending_/worker_state_ (and an
  /// evaluator whose captured engine members outlive this dispatcher).
  ThreadPool pool_;
};

/// Resolve a requested worker count: 0 means hardware concurrency.
inline size_t ResolveServingWorkers(size_t requested) {
  if (requested != 0) return requested;
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace ppq::core
