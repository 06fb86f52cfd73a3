#include "repo/live_repository.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

/// \file live_repository_test.cc
/// The ingest-while-serving tentpole's contract. The load-bearing oracle:
/// StrqMode::kExact equals ground truth over the raw data (local-search
/// recall 1, verification precision 1 — window_knn_test proves it for the
/// sealed path, and tail points are raw, where all modes coincide), and
/// appends only ever add ticks NEWER than the frontier — so for any query
/// tick at or behind the frontier, ground truth over the FULL dataset is
/// the exact oracle even mid-ingest, whichever side of a watermark roll
/// or in-flight background seal each point currently sits on. That is the
/// staleness bound made testable: every response equals the oracle over
/// every point appended before it, at every roll/seal boundary.
///
/// Around it: watermark rolls (tick-span and point-count) trip
/// deterministically; appends divert to the pending queue during a slow
/// background seal and drain losslessly; per-shard tick monotonicity is
/// enforced per batch; TPQ paths stitched across a shard's seal cut equal
/// the seal's reconstruction before it and the raw points after it; a
/// roll frees the retired seal without waiting for the next request; the
/// sealed snapshot after RollAll+Quiesce answers byte-identically to the
/// live union (tails empty); and concurrent appenders racing queries stay
/// exact (TSan CI job).

namespace ppq::repo {
namespace {

using core::QueryEngine;
using core::QueryResponse;
using core::QueryService;
using core::QuerySpec;
using core::SampleQueries;
using core::StrqMode;
using core::StrqRequest;
using core::WindowRequest;
using core::WindowSpec;

constexpr StrqMode kAllModes[] = {StrqMode::kApproximate,
                                  StrqMode::kLocalSearch, StrqMode::kExact};

TrajectoryDataset SmallDataset(uint64_t seed = 77, int trajectories = 40) {
  return test::MakePortoDataset({trajectories, 50, 15, 50, seed});
}

LiveRepository::CompressorFactory PpqAFactory() {
  return [](uint32_t /*shard*/) {
    return std::make_unique<core::PpqTrajectory>(core::MakePpqA());
  };
}

double CellSize() { return core::PpqOptions{}.tpi.pi.cell_size; }

/// Append the whole dataset tick by tick (the single-producer shape).
void IngestAll(LiveRepository& live, const TrajectoryDataset& data) {
  for (Tick t = data.MinTick(); t < data.MaxTick(); ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live.Append(batch).ok());
    }
  }
}

std::vector<TrajId> SortedIds(std::vector<TrajId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// -------------------------------------------------------------------------
// Construction and batch validation
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, RejectsInvalidConstruction) {
  LiveRepository::Options zero;
  zero.num_shards = 0;
  EXPECT_THROW(LiveRepository(PpqAFactory(), zero), std::invalid_argument);

  LiveRepository::Options options;
  options.num_shards = 2;
  EXPECT_THROW(LiveRepository([](uint32_t) {
                 return std::unique_ptr<core::Compressor>();
               },
                              options),
               std::invalid_argument);
}

TEST(LiveRepositoryTest, AppendValidatesBatchAndTickMonotonicity) {
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  LiveRepository live(PpqAFactory(), options);

  PointBatch mismatched(5);
  mismatched.ids.push_back(7);  // positions left empty
  EXPECT_FALSE(live.Append(mismatched).ok());

  PointBatch t10(10);
  t10.Add(1, Point{-8.6, 41.1});
  EXPECT_TRUE(live.Append(t10).ok());

  PointBatch t12(12);
  t12.Add(1, Point{-8.61, 41.11});
  EXPECT_TRUE(live.Append(t12).ok());

  // Same tick as staging: merges.
  PointBatch t12b(12);
  t12b.Add(2, Point{-8.62, 41.12});
  EXPECT_TRUE(live.Append(t12b).ok());

  // Behind the staging tick: rejected.
  PointBatch t11(11);
  t11.Add(3, Point{-8.63, 41.13});
  const Status regression = live.Append(t11);
  EXPECT_EQ(regression.code(), StatusCode::kInvalidArgument);

  // Advance to 13 (flushes 12), then 12 again: already flushed.
  PointBatch t13(13);
  t13.Add(1, Point{-8.64, 41.14});
  EXPECT_TRUE(live.Append(t13).ok());
  PointBatch t12c(12);
  t12c.Add(4, Point{-8.65, 41.15});
  EXPECT_EQ(live.Append(t12c).code(), StatusCode::kInvalidArgument);

  // The rejected batches left no trace: only the accepted points count.
  EXPECT_EQ(live.TotalPointsAppended(), 4u);
}

// -------------------------------------------------------------------------
// The queryable tail (before any seal exists)
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, TailServesEveryPointBeforeAnySeal) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 0;   // never roll:
  options.watermark_points = 0;  // the whole stream lives in the tail
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);
  IngestAll(*live, *data);

  EXPECT_EQ(live->MinSealEpoch(), 0u);
  size_t tail_points = 0;
  for (size_t s = 0; s < live->num_shards(); ++s) {
    tail_points += live->ShardView(s)->tail_points;
  }
  EXPECT_EQ(tail_points, live->TotalPointsAppended());

  QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);

  // Tail points are raw: all three modes coincide AND equal ground truth.
  Rng rng(5);
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    const auto truth = QueryEngine::GroundTruth(*data, q, CellSize());
    for (StrqMode mode : kAllModes) {
      const QueryResponse response =
          service.Submit(StrqRequest{q, mode}).get();
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(SortedIds(response.strq().ids), SortedIds(truth))
          << "tick " << q.tick;
      EXPECT_EQ(response.stats.seal_epoch, 0u);
    }
  }
}

// -------------------------------------------------------------------------
// The staleness bound, across roll and background-seal boundaries
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, StalenessBoundAcrossRollAndSealBoundaries) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 5;  // roll often: many boundaries to cross
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);

  QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);

  Rng rng(9);
  const auto queries = SampleQueries(*data, 120, &rng);
  const auto windows = test::SampleWindows(*data, 60, &rng);

  // Ingest tick by tick; after each tick, replay every sampled query at
  // or behind the frontier whose tick is "near" — current, one watermark
  // back (straddling the last roll), two watermarks back (sealed by now).
  // Background seals land whenever they land; exactness must not care.
  const auto near_frontier = [&](Tick query_tick, Tick frontier) {
    if (query_tick > frontier) return false;
    const Tick lag = frontier - query_tick;
    return lag == 0 || lag == options.watermark_ticks ||
           lag == 2 * options.watermark_ticks;
  };

  size_t checked = 0;
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live->Append(batch).ok());
    }

    const uint64_t epoch_floor = live->MinSealEpoch();
    for (const QuerySpec& q : queries) {
      if (!near_frontier(q.tick, t)) continue;
      const QueryResponse response =
          service.Submit(StrqRequest{q, StrqMode::kExact}).get();
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(SortedIds(response.strq().ids),
                SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
          << "query tick " << q.tick << " at frontier " << t;
      // Freshness is reported and monotone: a response never claims a
      // seal generation older than the floor read before submission.
      EXPECT_GE(response.stats.seal_epoch, epoch_floor);
      ++checked;
    }
    for (const WindowSpec& w : windows) {
      if (!near_frontier(w.tick, t)) continue;
      const QueryResponse response =
          service.Submit(WindowRequest{w, StrqMode::kExact}).get();
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(SortedIds(response.strq().ids),
                SortedIds(QueryEngine::WindowGroundTruth(*data, w.window,
                                                         w.tick)))
          << "window tick " << w.tick << " at frontier " << t;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);

  // Final cut: everything seals, tails empty, answers unchanged.
  live->RollAll();
  live->Quiesce();
  EXPECT_GE(live->MinSealEpoch(), 1u);
  for (size_t s = 0; s < live->num_shards(); ++s) {
    EXPECT_EQ(live->ShardView(s)->tail_points, 0u) << "shard " << s;
  }
  for (const QuerySpec& q : queries) {
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids),
              SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())));
    EXPECT_GE(response.stats.seal_epoch, 1u);
  }
}

// -------------------------------------------------------------------------
// Watermark rolls trip deterministically
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, TickWatermarkRollsDeterministically) {
  const TrajectoryDataset data = SmallDataset();
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 4;
  options.watermark_points = 0;
  LiveRepository live(PpqAFactory(), options);

  // Quiescing after every tick keeps each seal out of the next flush's
  // way, so the roll points are exactly the watermark arithmetic's.
  std::vector<Tick> nonempty;
  for (Tick t = data.MinTick(); t < data.MaxTick(); ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (batch.empty()) continue;
    ASSERT_TRUE(live.Append(batch).ok());
    live.Quiesce();
    nonempty.push_back(t);
  }
  live.RollAll();
  live.Quiesce();

  // Replay the trip rule: tick u flushes when the stream advances past
  // it; a segment seals once it spans watermark_ticks; RollAll cuts the
  // rest.
  uint64_t expected = 0;
  Tick first = kNoTickYet;
  for (size_t i = 0; i + 1 < nonempty.size(); ++i) {
    if (first == kNoTickYet) first = nonempty[i];
    if (nonempty[i] - first + 1 >= options.watermark_ticks) {
      ++expected;
      first = kNoTickYet;
    }
  }
  if (!nonempty.empty()) ++expected;  // RollAll seals the final segment

  EXPECT_EQ(live.MinSealEpoch(), expected);
  EXPECT_GE(expected, 5u);  // the dataset really exercises multiple rolls
  EXPECT_EQ(live.ShardView(0)->sealed_through, nonempty.back());
  EXPECT_EQ(live.ShardView(0)->tail_points, 0u);
}

TEST(LiveRepositoryTest, PointWatermarkRollsDeterministically) {
  const TrajectoryDataset data = SmallDataset();
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 0;
  options.watermark_points = 150;
  LiveRepository live(PpqAFactory(), options);

  std::vector<size_t> flushed_sizes;
  for (Tick t = data.MinTick(); t < data.MaxTick(); ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (batch.empty()) continue;
    ASSERT_TRUE(live.Append(batch).ok());
    live.Quiesce();
    flushed_sizes.push_back(batch.size());
  }
  live.RollAll();
  live.Quiesce();

  uint64_t expected = 0;
  size_t segment = 0;
  for (size_t i = 0; i + 1 < flushed_sizes.size(); ++i) {
    segment += flushed_sizes[i];
    if (segment >= options.watermark_points) {
      ++expected;
      segment = 0;
    }
  }
  if (!flushed_sizes.empty()) ++expected;  // RollAll

  EXPECT_EQ(live.MinSealEpoch(), expected);
  EXPECT_GE(expected, 2u);
}

// -------------------------------------------------------------------------
// Appends divert (and drain losslessly) while a seal is in flight
// -------------------------------------------------------------------------

/// Decorator making Compressor::Seal slow enough that appends provably
/// land WHILE the background seal runs — the pending-queue path.
class SlowSealCompressor : public core::Compressor {
 public:
  explicit SlowSealCompressor(std::unique_ptr<core::Compressor> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void ObserveSlice(const TimeSlice& slice) override {
    inner_->ObserveSlice(slice);
  }
  void Finish() override { inner_->Finish(); }
  Result<Point> Reconstruct(TrajId id, Tick t) const override {
    return inner_->Reconstruct(id, t);
  }
  size_t SummaryBytes() const override { return inner_->SummaryBytes(); }
  size_t NumCodewords() const override { return inner_->NumCodewords(); }
  const index::TemporalPartitionIndex* index() const override {
    return inner_->index();
  }
  double LocalSearchRadius() const override {
    return inner_->LocalSearchRadius();
  }
  std::vector<core::RecordSpan> RecordSpans() const override {
    return inner_->RecordSpans();
  }
  core::SnapshotPtr Seal() const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return inner_->Seal();
  }

 private:
  std::unique_ptr<core::Compressor> inner_;
};

TEST(LiveRepositoryTest, PendingAppendsDrainDuringSlowSeal) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 4;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(
      [](uint32_t) {
        return std::make_unique<SlowSealCompressor>(
            std::make_unique<core::PpqTrajectory>(core::MakePpqA()));
      },
      options);

  // Ingest everything back to back: the first roll's 100ms seal is still
  // in flight while the following ticks flush, so they MUST divert to the
  // pending queue and drain when the cut lands.
  IngestAll(*live, *data);
  live->RollAll();
  live->Quiesce();

  EXPECT_GE(live->MinSealEpoch(), 2u);
  EXPECT_EQ(live->ShardView(0)->tail_points, 0u);

  // Lossless: after the last cut, every point answers from the summary,
  // exactly.
  QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);
  Rng rng(13);
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids),
              SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
        << "tick " << q.tick;
  }
}

// -------------------------------------------------------------------------
// TPQ across a shard's seal cut
// -------------------------------------------------------------------------

// A live TPQ path is stitched per shard: the seal's reconstruction at
// ticks <= that shard's sealed_through, raw tail points after it. Queried
// mid-stream with non-empty tails, every path must equal that stitch
// point for point and stop exactly where the trajectory or the appended
// stream ends.
TEST(LiveRepositoryTest, TpqPathsCrossTheSealCutExactly) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 4;
  options.num_threads = 1;
  options.watermark_ticks = 6;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);

  QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);

  constexpr int kLength = 12;
  Rng rng(47);
  const auto queries = SampleQueries(*data, 120, &rng);
  size_t paths = 0;
  size_t crossing = 0;  // paths with points on both sides of a cut
  for (Tick frontier = data->MinTick(); frontier < data->MaxTick();
       ++frontier) {
    const PointBatch batch = data->BatchAt(frontier);
    if (batch.empty()) continue;
    ASSERT_TRUE(live->Append(batch).ok());
    if ((frontier - data->MinTick()) % 5 != 4) continue;
    // No seal is in flight and none starts without an append, so the
    // views read here are the ones every request below pins.
    live->Quiesce();
    std::vector<core::ShardViewPtr> views;
    size_t tail_points = 0;
    for (size_t s = 0; s < live->num_shards(); ++s) {
      views.push_back(live->ShardView(s));
      tail_points += views.back()->tail_points;
    }
    ASSERT_GT(tail_points, 0u) << "frontier " << frontier;

    for (const QuerySpec& q : queries) {
      if (q.tick > frontier || frontier - q.tick >= kLength) continue;
      for (StrqMode mode : kAllModes) {
        const QueryResponse response =
            service.Submit(core::TpqRequest{q, kLength, mode}).get();
        ASSERT_TRUE(response.ok());
        const core::TpqResult& tpq = response.tpq();
        ASSERT_EQ(tpq.ids.size(), tpq.paths.size());
        if (mode == StrqMode::kExact) {
          EXPECT_EQ(tpq.ids,
                    SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
              << "tick " << q.tick << " at frontier " << frontier;
        }
        for (size_t i = 0; i < tpq.ids.size(); ++i) {
          const TrajId id = tpq.ids[i];
          const core::ShardView& view = *views[live->shard_map().ShardOf(id)];
          const Trajectory& traj = (*data)[static_cast<size_t>(id)];
          core::DecodeMemo memo;
          std::vector<Point> expected;
          for (Tick t = q.tick;
               t < q.tick + kLength && t <= frontier && traj.ActiveAt(t);
               ++t) {
            if (t > view.sealed_through) {
              expected.push_back(traj.At(t));
              continue;
            }
            const Result<Point> p = view.sealed->Reconstruct(id, t, &memo);
            ASSERT_TRUE(p.ok()) << "id " << id << " tick " << t;
            expected.push_back(*p);
          }
          EXPECT_EQ(tpq.paths[i], expected)
              << "id " << id << " from tick " << q.tick << " at frontier "
              << frontier << ", cut " << view.sealed_through;
          ++paths;
          const Tick last = q.tick + static_cast<Tick>(expected.size()) - 1;
          if (q.tick <= view.sealed_through && last > view.sealed_through) {
            ++crossing;
          }
        }
      }
    }
  }
  EXPECT_GT(paths, 100u);
  EXPECT_GT(crossing, 10u);
}

// -------------------------------------------------------------------------
// A roll frees the retired seal in the seal task
// -------------------------------------------------------------------------

// Workers tag their decode memos without owning the seal, so the seal
// task that publishes a successor drops the last reference to the seal it
// retires. No request has to arrive to free it.
TEST(LiveRepositoryTest, RollFreesTheRetiredSealWithoutTraffic) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 0;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);
  const Tick mid = (data->MinTick() + data->MaxTick()) / 2;
  const auto ingest = [&](Tick begin, Tick end) {
    for (Tick t = begin; t < end; ++t) {
      const PointBatch batch = data->BatchAt(t);
      if (!batch.empty()) {
        ASSERT_TRUE(live->Append(batch).ok());
      }
    }
    live->RollAll();
    live->Quiesce();
  };
  ingest(data->MinTick(), mid);

  QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);
  Rng rng(37);
  std::vector<core::QueryRequest> requests;
  for (const QuerySpec& q : SampleQueries(*data, 20, &rng)) {
    requests.push_back(StrqRequest{q, StrqMode::kLocalSearch});
  }
  for (auto& future : service.SubmitBatch(requests)) {
    ASSERT_TRUE(future.get().ok());
  }

  const core::SnapshotPtr retired = live->ShardView(0)->sealed;
  ingest(mid, data->MaxTick());
  ASSERT_NE(live->ShardView(0)->sealed, retired);
  // No further traffic: this handle is the last reference.
  EXPECT_EQ(retired.use_count(), 1);
}

// -------------------------------------------------------------------------
// Decode memos outlive seals: one encoder per shard, one lineage
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, WarmMemosAcrossSealsMatchAFreshService) {
  // One worker serves a 4-shard repository through many seals and keeps
  // its decode memos: every seal of a shard comes from that shard's one
  // encoder. At each checked boundary, every request kind in every mode
  // answers byte for byte like a service built just then over the same
  // views, and exact answers equal ground truth.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 4;
  options.num_threads = 1;
  options.watermark_ticks = 3;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);

  QueryService::Options serve;
  serve.num_threads = 1;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);
  obs::Counter* const lineage_resets = obs::Registry::Default().GetCounter(
      "ppq_serve_memo_resets_total", "cause=\"lineage\"");
  const uint64_t resets_before = lineage_resets->Value();

  Rng rng(53);
  const auto queries = SampleQueries(*data, 30, &rng);
  const auto windows = test::SampleWindows(*data, 15, &rng);
  size_t boundaries = 0;
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    const PointBatch batch = data->BatchAt(t);
    if (!batch.empty()) {
      ASSERT_TRUE(live->Append(batch).ok());
    }
    if ((t - data->MinTick()) % 4 != 3) continue;
    // Let in-flight seals land, so both services see the same views.
    live->Quiesce();

    std::vector<core::QueryRequest> requests;
    for (StrqMode mode : kAllModes) {
      for (const QuerySpec& q : queries) {
        if (q.tick > t) continue;
        requests.push_back(StrqRequest{q, mode});
        requests.push_back(core::TpqRequest{q, 8, mode});
      }
      for (const WindowSpec& w : windows) {
        if (w.tick <= t) requests.push_back(WindowRequest{w, mode});
      }
    }
    for (const QuerySpec& q : queries) {
      if (q.tick <= t) requests.push_back(core::KnnRequest{q, 5});
    }
    if (requests.empty()) continue;

    QueryService fresh(live, serve);
    auto warm_futures = service.SubmitBatch(requests);
    auto fresh_futures = fresh.SubmitBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResponse warm = warm_futures[i].get();
      const QueryResponse cold = fresh_futures[i].get();
      ASSERT_TRUE(warm.ok());
      ASSERT_TRUE(cold.ok());
      EXPECT_EQ(warm.result, cold.result)
          << "request " << i << " at frontier " << t;
      std::vector<TrajId> truth;
      std::vector<TrajId> exact;
      if (const auto* r = std::get_if<StrqRequest>(&requests[i])) {
        if (r->mode != StrqMode::kExact) continue;
        truth = QueryEngine::GroundTruth(*data, r->query, CellSize());
        exact = warm.strq().ids;
      } else if (const auto* r = std::get_if<core::TpqRequest>(&requests[i])) {
        if (r->mode != StrqMode::kExact) continue;
        truth = QueryEngine::GroundTruth(*data, r->query, CellSize());
        exact = warm.tpq().ids;
      } else if (const auto* r = std::get_if<WindowRequest>(&requests[i])) {
        if (r->mode != StrqMode::kExact) continue;
        truth = QueryEngine::WindowGroundTruth(*data, r->window.window,
                                               r->window.tick);
        exact = warm.strq().ids;
      } else {
        continue;
      }
      EXPECT_EQ(SortedIds(exact), SortedIds(truth))
          << "request " << i << " at frontier " << t;
    }
    ++boundaries;
  }
  EXPECT_GE(boundaries, 8u);
  EXPECT_GE(live->MinSealEpoch(), 8u);
  // Every seal a worker met came from its shard's one encoder.
  EXPECT_EQ(lineage_resets->Value(), resets_before);
}

// -------------------------------------------------------------------------
// The quiesced live union == the phased sharded path over SealedSnapshot
// -------------------------------------------------------------------------

TEST(LiveRepositoryTest, SealedSnapshotMatchesLiveServiceAfterQuiesce) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 8;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);
  IngestAll(*live, *data);
  live->RollAll();
  live->Quiesce();

  QueryService::Options live_serve;
  live_serve.num_threads = 2;
  live_serve.raw = data;
  live_serve.cell_size = CellSize();
  QueryService live_service(live, live_serve);

  QueryService::Options sharded_serve;
  sharded_serve.num_threads = 2;
  sharded_serve.raw = data;
  sharded_serve.cell_size = CellSize();
  QueryService sharded_service(live->SealedSnapshot()->shards(),
                               sharded_serve);

  Rng rng(21);
  const auto queries = SampleQueries(*data, 25, &rng);
  const auto windows = test::SampleWindows(*data, 12, &rng);
  std::vector<core::QueryRequest> requests;
  for (StrqMode mode : kAllModes) {
    for (const QuerySpec& q : queries) {
      requests.push_back(StrqRequest{q, mode});
      requests.push_back(core::TpqRequest{q, 8, mode});
    }
    for (const WindowSpec& w : windows) {
      requests.push_back(WindowRequest{w, mode});
    }
  }
  for (const QuerySpec& q : queries) {
    requests.push_back(core::KnnRequest{q, 5});
  }

  auto live_futures = live_service.SubmitBatch(requests);
  auto sharded_futures = sharded_service.SubmitBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    const QueryResponse a = live_futures[i].get();
    const QueryResponse b = sharded_futures[i].get();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.result, b.result) << "request " << i;
  }
}

// -------------------------------------------------------------------------
// Concurrency: appenders racing queries (TSan)
// -------------------------------------------------------------------------

/// Reusable cyclic barrier (C++17 has none): appender threads synchronize
/// per tick so per-shard batch ticks stay non-decreasing.
class TickBarrier {
 public:
  explicit TickBarrier(int parties) : parties_(parties) {}

  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != generation; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int waiting_ = 0;
  uint64_t generation_ = 0;
};

TEST(LiveRepositoryConcurrencyTest, AppendersRaceQueriesAndStayExact) {
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(31, 24));
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 1;
  options.watermark_ticks = 4;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(PpqAFactory(), options);

  QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);

  Rng rng(3);
  const auto queries = SampleQueries(*data, 40, &rng);
  std::vector<std::vector<TrajId>> truth;
  truth.reserve(queries.size());
  for (const QuerySpec& q : queries) {
    truth.push_back(SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())));
  }

  constexpr int kAppenders = 2;
  TickBarrier barrier(kAppenders);
  std::atomic<Tick> frontier{std::numeric_limits<Tick>::min()};
  std::atomic<bool> done{false};

  // Each appender owns every (kAppenders)th point of each tick's batch;
  // the barrier keeps both on the same tick so per-shard ticks never
  // regress. Same-tick batches from both threads merge in staging.
  std::vector<std::thread> appenders;
  for (int a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&, a] {
      for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
        const PointBatch full = data->BatchAt(t);
        PointBatch mine(t);
        for (size_t i = static_cast<size_t>(a); i < full.size();
             i += kAppenders) {
          mine.Add(full.ids[i], full.positions[i]);
        }
        EXPECT_TRUE(live->Append(mine).ok());
        barrier.Arrive();
        // Both threads finished tick t: publish the frontier (one writer).
        if (a == 0) frontier.store(t, std::memory_order_release);
        barrier.Arrive();
      }
    });
  }

  std::thread reader([&] {
    size_t exact_checked = 0;
    while (!done.load(std::memory_order_acquire) || exact_checked == 0) {
      const Tick f = frontier.load(std::memory_order_acquire);
      for (size_t i = 0; i < queries.size(); ++i) {
        if (queries[i].tick > f) continue;
        const QueryResponse response =
            service.Submit(StrqRequest{queries[i], StrqMode::kExact}).get();
        ASSERT_TRUE(response.ok());
        EXPECT_EQ(SortedIds(response.strq().ids), truth[i])
            << "query " << i << " at frontier " << f;
        ++exact_checked;
      }
    }
    EXPECT_GT(exact_checked, 0u);
  });

  for (std::thread& t : appenders) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  // Everything appended exactly once across the racing producers.
  size_t total = 0;
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    total += data->SliceAt(t).size();
  }
  EXPECT_EQ(live->TotalPointsAppended(), total);

  live->RollAll();
  live->Quiesce();
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryResponse response =
        service.Submit(StrqRequest{queries[i], StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids), truth[i]) << "query " << i;
  }
}

// The seal-diversion protocol under racing readers. This is the path the
// thread-safety annotations restructured: SealShard MOVES the shard's
// compressor out under `shard.mu`, seals it with no lock held while
// appends divert to the pending queue, then moves it back and publishes
// the view. A slow seal keeps that window open for ~every flush while an
// appender hammers Append and a poller hammers ShardView/MinSealEpoch —
// under TSan (this suite is in the tsan CI job's -R 'Live' selection),
// any access that escaped the lock discipline is a hard failure. The
// final exactness sweep proves the diverted appends also drained
// losslessly.
TEST(LiveRepositoryConcurrencyTest, SealDiversionRacesViewReaders) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  LiveRepository::Options options;
  options.num_shards = 2;
  options.num_threads = 2;
  options.watermark_ticks = 3;
  options.watermark_points = 0;
  const auto live = std::make_shared<LiveRepository>(
      [](uint32_t) {
        return std::make_unique<SlowSealCompressor>(
            std::make_unique<core::PpqTrajectory>(core::MakePpqA()));
      },
      options);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    uint64_t floor = 0;
    std::vector<uint64_t> shard_floor(options.num_shards, 0);
    while (!done.load(std::memory_order_acquire)) {
      // Published views and the seal epoch must always read as a
      // consistent, monotone snapshot while seals are in flight.
      const uint64_t epoch = live->MinSealEpoch();
      EXPECT_GE(epoch, floor);
      floor = epoch;
      for (uint32_t s = 0; s < options.num_shards; ++s) {
        const auto view = live->ShardView(s);
        ASSERT_NE(view, nullptr);
        EXPECT_GE(view->seal_epoch, shard_floor[s]);
        shard_floor[s] = view->seal_epoch;
      }
      std::this_thread::yield();
    }
  });

  // Back-to-back ingest: each 100ms seal is still running when the next
  // watermark's flush lands, so those flushes take the diversion path.
  IngestAll(*live, *data);
  live->RollAll();
  live->Quiesce();
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_GE(live->MinSealEpoch(), 1u);
  QueryService::Options serve;
  serve.num_threads = 2;
  serve.raw = data;
  serve.cell_size = CellSize();
  QueryService service(live, serve);
  Rng rng(29);
  for (const QuerySpec& q : SampleQueries(*data, 25, &rng)) {
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(SortedIds(response.strq().ids),
              SortedIds(QueryEngine::GroundTruth(*data, q, CellSize())))
        << "tick " << q.tick;
  }
}

}  // namespace
}  // namespace ppq::repo
