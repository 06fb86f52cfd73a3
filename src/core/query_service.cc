#include "core/query_service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/simd.h"
#include "core/query_eval.h"
#include "obs/trace.h"

namespace ppq::core {
namespace {

/// Fixed seals as one published object: one atomic load of the served
/// source pins every shard, so no response mixes two swaps' seals. Each
/// view's cut is the largest Tick (the seal answers every tick) and its
/// epoch is the swap count the engine stamped.
class FixedViews final : public ShardViewSource {
 public:
  FixedViews(std::vector<SnapshotPtr> seals, uint64_t epoch) {
    views_.reserve(seals.size());
    for (SnapshotPtr& seal : seals) {
      auto view = std::make_shared<core::ShardView>();
      view->sealed = std::move(seal);
      view->sealed_through = std::numeric_limits<Tick>::max();
      view->seal_epoch = epoch;
      views_.push_back(std::move(view));
    }
  }
  uint32_t num_shards() const override {
    return static_cast<uint32_t>(views_.size());
  }
  ShardViewPtr ShardView(size_t shard) const override {
    return views_[shard];
  }

 private:
  std::vector<ShardViewPtr> views_;
};

// The merges below take id-disjoint parts — shards partition trajectory
// ids, and within a shard a point at tick t lives on exactly one side of
// the cut — whose ids each arrive ascending (the evaluation templates sort
// their candidate sweep). They reproduce the serial engine's ordering.

/// Union of STRQ/window parts: ids ascending, verification candidates
/// summed.
StrqResult MergeStrq(std::vector<StrqResult> parts) {
  StrqResult merged;
  for (StrqResult& part : parts) {
    merged.candidates_visited += part.candidates_visited;
    merged.ids.insert(merged.ids.end(), part.ids.begin(), part.ids.end());
  }
  std::sort(merged.ids.begin(), merged.ids.end());
  return merged;
}

/// Per-part top-k lists ranked by core::NeighborOrder — the function the
/// serial ranking sorts with, so equal distances straddling a part
/// boundary resolve identically — then truncated to k.
std::vector<Neighbor> MergeKnn(std::vector<std::vector<Neighbor>> parts,
                               size_t k) {
  std::vector<Neighbor> merged;
  for (std::vector<Neighbor>& part : parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), NeighborOrder);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

/// Per-shard TPQ parts re-merged by id, each path riding its id.
TpqResult MergeTpq(std::vector<TpqResult> parts) {
  TpqResult merged;
  std::vector<std::pair<TrajId, std::vector<Point>*>> order;
  for (TpqResult& part : parts) {
    merged.candidates_visited += part.candidates_visited;
    for (size_t i = 0; i < part.ids.size(); ++i) {
      order.emplace_back(part.ids[i], &part.paths[i]);
    }
  }
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  merged.ids.reserve(order.size());
  merged.paths.reserve(order.size());
  for (auto& [id, path] : order) {
    merged.ids.push_back(id);
    merged.paths.push_back(std::move(*path));
  }
  return merged;
}

/// Tail points at \p tick inside the half-open rectangle \p rect — the
/// containment kernel runs over each chunk's contiguous position array.
/// Tail points are raw device readings, so approximate, local-search and
/// exact modes coincide; in exact mode each match counts as a verified
/// candidate, mirroring the sealed side's Table 4 accounting.
StrqResult TailMatches(const ShardView& view, Tick tick, const Window& rect,
                       StrqMode mode) {
  StrqResult part;
  std::vector<uint8_t> mask;
  // Chain ticks are non-increasing newest-first: stop at the first chunk
  // older than the query tick.
  for (const TailChunk* c = view.tail.get(); c != nullptr; c = c->prev.get()) {
    if (c->slice.tick < tick) break;
    if (c->slice.tick != tick) continue;
    const size_t n = c->slice.size();
    mask.resize(n);
    simd::ContainsMask(c->slice.positions.data(), n, rect.min_x, rect.min_y,
                       rect.max_x, rect.max_y, mask.data());
    for (size_t i = 0; i < n; ++i) {
      if (mask[i]) {
        if (mode == StrqMode::kExact) ++part.candidates_visited;
        part.ids.push_back(c->slice.ids[i]);
      }
    }
  }
  return part;
}

/// Every tail point at \p tick, scored at its exact distance to \p q.
std::vector<Neighbor> TailNeighbors(const ShardView& view, Tick tick,
                                    const Point& q) {
  std::vector<Neighbor> out;
  std::vector<double> dist;
  for (const TailChunk* c = view.tail.get(); c != nullptr; c = c->prev.get()) {
    if (c->slice.tick < tick) break;
    if (c->slice.tick != tick) continue;
    const size_t n = c->slice.size();
    dist.resize(n);
    simd::Distances(c->slice.positions.data(), n, q, dist.data());
    out.reserve(out.size() + n);
    for (size_t i = 0; i < n; ++i) out.push_back({c->slice.ids[i], dist[i]});
  }
  return out;
}

/// The raw position of (id, tick) in a tail, or nullptr.
const Point* TailPointOf(const ShardView& view, TrajId id, Tick tick) {
  for (const TailChunk* c = view.tail.get(); c != nullptr; c = c->prev.get()) {
    if (c->slice.tick < tick) break;
    if (c->slice.tick != tick) continue;
    for (size_t i = 0; i < c->slice.size(); ++i) {
      if (c->slice.ids[i] == id) return &c->slice.positions[i];
    }
  }
  return nullptr;
}

}  // namespace

QueryService::QueryService(std::vector<SnapshotPtr> seals, Options options)
    : QueryService(std::make_shared<const FixedViews>(std::move(seals), 0),
                   std::move(options)) {}

QueryService::QueryService(std::shared_ptr<const ShardViewSource> source,
                           Options options)
    : options_(std::move(options)),
      num_workers_(ResolveServingWorkers(options_.num_threads)),
      lineage_resets_(obs::Registry::Default().GetCounter(
          "ppq_serve_memo_resets_total", "cause=\"lineage\"")),
      budget_resets_(obs::Registry::Default().GetCounter(
          "ppq_serve_memo_resets_total", "cause=\"budget\"")),
      served_(std::move(source)),
      // The evaluator captures this; the dispatcher is declared last, so
      // it drains (and stops calling Evaluate) before any member dies.
      dispatcher_(num_workers_, [this](const QueryRequest& request,
                                       WorkerState& state) {
        return Evaluate(request, state);
      }) {
  Validate(served_.get());
}

QueryService::~QueryService() = default;

void QueryService::Validate(const ShardViewSource* source) const {
  if (source == nullptr || source->num_shards() == 0) {
    throw std::invalid_argument(
        "QueryService: the view source must not be null or empty");
  }
  size_t trajectories = 0;
  for (size_t s = 0; s < source->num_shards(); ++s) {
    const ShardViewPtr view = source->ShardView(s);
    if (view->sealed == nullptr) {
      throw std::invalid_argument("QueryService: shard " + std::to_string(s) +
                                  " has no seal");
    }
    trajectories += view->sealed->NumTrajectories();
  }
  if (options_.raw != nullptr && options_.raw->size() < trajectories) {
    throw std::invalid_argument(
        "QueryService: verification dataset has fewer trajectories than "
        "the pinned seals serve — it cannot be the dataset they were "
        "compressed from");
  }
}

void QueryService::UpdateView(std::vector<SnapshotPtr> seals) {
  MutexLock lock(swap_mu_);
  Swap(std::make_shared<const FixedViews>(std::move(seals), swaps_ + 1));
}

void QueryService::UpdateView(std::shared_ptr<const ShardViewSource> source) {
  MutexLock lock(swap_mu_);
  Swap(std::move(source));
}

void QueryService::Swap(std::shared_ptr<const ShardViewSource> source) {
  Validate(source.get());
  // Never blocks serving: workers that already pinned the old views finish
  // on them; every request dispatched after this store pins the new ones.
  std::atomic_store_explicit(&served_, std::move(source),
                             std::memory_order_release);
  ++swaps_;
  // Free idle workers' memos now rather than at their next request. Each
  // lock waits at most for the worker's current evaluation.
  for (WorkerState& state : dispatcher_.worker_states()) {
    MutexLock lock(state.mu);
    state.memos.clear();
    state.memo_lineages.clear();
  }
}

QueryResponse QueryService::Evaluate(const QueryRequest& request,
                                     WorkerState& state) {
  QueryResponse response;
  response.kind = KindOf(request);

  // Owning-worker lock: uncontended except against UpdateView's sweep.
  MutexLock state_lock(state.mu);

  // Pin every shard's view up front: each is immutable, so the whole
  // evaluation reads a frozen (seal, cut, tail) triple per shard.
  const std::shared_ptr<const ShardViewSource> source =
      std::atomic_load_explicit(&served_, std::memory_order_acquire);
  const size_t num_shards = source->num_shards();
  std::vector<ShardViewPtr> views(num_shards);
  uint64_t min_epoch = std::numeric_limits<uint64_t>::max();
  for (size_t s = 0; s < num_shards; ++s) {
    views[s] = source->ShardView(s);
    min_epoch = std::min(min_epoch, views[s]->seal_epoch);
  }
  response.stats.seal_epoch = min_epoch;

  // Re-tag decode scratch per shard by decode lineage. One encoder's seals
  // are prefix-stable: Codebook::Add and CoefficientTable::Append only
  // append, and records only push_back, so the closed-loop prefix decoded
  // under any seal of a lineage is the prefix under every other. A decode
  // reads only memo entries below the serving record's length, so equal
  // lineage is the whole rule, even for an older seal of the lineage.
  state.memos.resize(num_shards);
  state.memo_lineages.resize(num_shards, 0);
  for (size_t s = 0; s < num_shards; ++s) {
    const uint64_t lineage = views[s]->sealed->decode_lineage();
    if (state.memo_lineages[s] == lineage) continue;
    if (!state.memos[s].prefix.empty()) {
      state.memos[s].Clear();
      lineage_resets_->Increment();
    }
    state.memo_lineages[s] = lineage;
  }

  eval::StageNanos stages;
  const TrajectoryDataset* raw = options_.raw.get();
  const double cell_size = options_.cell_size;

  // One counting reader per shard, all accounting into this response.
  const auto reader = [&](size_t s) {
    return eval::CountingReader<eval::SnapshotReader>{
        eval::SnapshotReader{views[s]->sealed.get(), &state.memos[s]},
        &response.stats, &stages};
  };

  const auto tail_point_of = [&](size_t s, TrajId id,
                                 Tick tick) -> const Point* {
    eval::StageTimer timer(&stages, ServeStage::kTail);
    return TailPointOf(*views[s], id, tick);
  };
  const auto merge_strq = [&](std::vector<StrqResult> parts) -> StrqResult {
    eval::StageTimer timer(&stages, ServeStage::kMerge);
    return MergeStrq(std::move(parts));
  };
  // Shard s's parts of one region query: the seal's answer, and on a live
  // shard the tail points inside the same region, timed as the tail stage.
  const auto add_region_parts = [&](size_t s, StrqResult sealed,
                                    const Window& region, Tick tick,
                                    StrqMode mode,
                                    std::vector<StrqResult>& parts) {
    parts.push_back(std::move(sealed));
    if (views[s]->tail == nullptr) return;
    PPQ_ZONE("eval.tail");
    eval::StageTimer timer(&stages, ServeStage::kTail);
    parts.push_back(TailMatches(*views[s], tick, region, mode));
  };
  // STRQ (and TPQ's STRQ) is the region query over the query's grid cell.
  const auto add_strq_parts = [&](size_t s, const QuerySpec& q, StrqMode mode,
                                  std::vector<StrqResult>& parts) {
    add_region_parts(s, eval::Strq(reader(s), raw, cell_size, q, mode),
                     eval::CellOf(q.position, cell_size), q.tick, mode, parts);
  };

  const auto start = std::chrono::steady_clock::now();
  std::visit(
      Overloaded{
          [&](const StrqRequest& r) {
            std::vector<StrqResult> parts;
            parts.reserve(2 * num_shards);
            for (size_t s = 0; s < num_shards; ++s) {
              add_strq_parts(s, r.query, r.mode, parts);
            }
            StrqResult merged = merge_strq(std::move(parts));
            response.stats.candidates_visited = merged.candidates_visited;
            response.result = std::move(merged);
          },
          [&](const WindowRequest& r) {
            const Window& window = r.window.window;
            const Tick tick = r.window.tick;
            std::vector<StrqResult> parts;
            parts.reserve(2 * num_shards);
            for (size_t s = 0; s < num_shards; ++s) {
              add_region_parts(
                  s, eval::WindowQuery(reader(s), raw, window, tick, r.mode),
                  window, tick, r.mode, parts);
            }
            StrqResult merged = merge_strq(std::move(parts));
            response.stats.candidates_visited = merged.candidates_visited;
            response.result = std::move(merged);
          },
          [&](const KnnRequest& r) {
            std::vector<std::vector<Neighbor>> parts;
            parts.reserve(2 * num_shards);
            for (size_t s = 0; s < num_shards; ++s) {
              parts.push_back(eval::NearestTrajectories(reader(s), cell_size,
                                                        r.query, r.k));
              if (views[s]->tail == nullptr) continue;
              // Tail candidates: every raw point at the query tick, at its
              // exact distance (the tail is small by construction).
              PPQ_ZONE("eval.tail");
              eval::StageTimer timer(&stages, ServeStage::kTail);
              parts.push_back(
                  TailNeighbors(*views[s], r.query.tick, r.query.position));
            }
            eval::StageTimer timer(&stages, ServeStage::kMerge);
            response.result = MergeKnn(std::move(parts), r.k);
            // Every k-NN candidate is visited exactly once, to rank its
            // reconstruction.
            response.stats.candidates_visited = response.stats.points_decoded;
          },
          [&](const TpqRequest& r) {
            const size_t want =
                r.length > 0 ? static_cast<size_t>(r.length) : 0;
            std::vector<TpqResult> parts(num_shards);
            for (size_t s = 0; s < num_shards; ++s) {
              std::vector<StrqResult> strq;
              add_strq_parts(s, r.query, r.mode, strq);
              const StrqResult base = merge_strq(std::move(strq));
              // Each path splits at its shard's cut: the sealed prefix
              // decodes as one span, raw tail points continue it. A fixed
              // seal's cut is the largest Tick, so the span is 64-bit.
              const auto sealed_want = static_cast<size_t>(std::clamp<int64_t>(
                  int64_t{views[s]->sealed_through} - r.query.tick + 1, 0,
                  static_cast<int64_t>(want)));
              TpqResult& part = parts[s];
              part.candidates_visited = base.candidates_visited;
              for (TrajId id : base.ids) {
                std::vector<Point> path(want);
                size_t got = reader(s).ReconstructSpan(
                    id, r.query.tick, sealed_want, path.data());
                // The tail only extends a path that reached the cut intact.
                if (got == sealed_want) {
                  for (; got < want; ++got) {
                    const Point* p = tail_point_of(
                        s, id, r.query.tick + static_cast<Tick>(got));
                    if (p == nullptr) break;  // not (yet) appended
                    path[got] = *p;
                  }
                }
                path.resize(got);
                part.ids.push_back(id);
                part.paths.push_back(std::move(path));
              }
            }
            eval::StageTimer timer(&stages, ServeStage::kMerge);
            TpqResult merged = MergeTpq(std::move(parts));
            response.stats.candidates_visited = merged.candidates_visited;
            response.result = std::move(merged);
          },
      },
      request);
  response.stats.eval_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  eval::FillStageMicros(stages, &response.stats);

  size_t scratch_points = 0;
  for (const DecodeMemo& memo : state.memos) {
    scratch_points += memo.TotalPoints();
  }
  if (scratch_points > options_.scratch_budget_points) {
    for (DecodeMemo& memo : state.memos) memo.Clear();
    budget_resets_->Increment();
  }
  return response;
}

}  // namespace ppq::core
