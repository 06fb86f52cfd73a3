#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "repo/live_repository.h"
#include "repo/sharded_repository.h"
#include "tests/test_util.h"

/// \file query_backend_test.cc
/// The conformance suite of the serving engine: core::QueryService must
/// honour one contract whatever it serves, checked here once and
/// parameterized over its three view sources — one seal, the seals of a
/// 1-shard repository, a live repository:
///
///   - byte-parity with the serial QueryEngine at 1 and 4 workers, cold
///     and warm scratch (each source is 1-shard so the serial engine over
///     its one seal IS the oracle);
///   - UpdateView atomically swaps to a new view, rejects a null source
///     with std::invalid_argument (leaving the served view unchanged),
///     and stamps QueryStats::seal_epoch;
///   - destruction drains every submitted future, correctly;
///   - CancelPending fails exactly the queued requests and serving
///     continues;
///   - submitters racing UpdateView (the TSan CI job runs this suite)
///     observe every response as exactly ONE view's byte-exact answer,
///     never a mix of two.

namespace ppq {
namespace {

using core::KindOf;
using core::KnnRequest;
using core::Neighbor;
using core::QueryEngine;
using core::QueryRequest;
using core::QueryResponse;
using core::QueryService;
using core::QuerySpec;
using core::SnapshotPtr;
using core::StrqMode;
using core::StrqRequest;
using core::StrqResult;
using core::TpqRequest;
using core::TpqResult;
using core::WindowRequest;
using core::WindowSpec;
using repo::LiveRepository;
using repo::RepositorySnapshotPtr;
using repo::ShardedRepository;

using Payload = std::variant<StrqResult, std::vector<Neighbor>, TpqResult>;

constexpr StrqMode kAllModes[] = {StrqMode::kApproximate,
                                  StrqMode::kLocalSearch, StrqMode::kExact};
constexpr int kTpqLength = 8;
constexpr size_t kK = 5;

TrajectoryDataset SmallDataset(uint64_t seed = 77) {
  return test::MakePortoDataset({40, 50, 15, 50, seed});
}

std::vector<QueryRequest> MakeRequests(const std::vector<QuerySpec>& queries,
                                       const std::vector<WindowSpec>& windows) {
  std::vector<QueryRequest> requests;
  for (StrqMode mode : kAllModes) {
    for (const QuerySpec& q : queries) {
      requests.push_back(StrqRequest{q, mode});
      requests.push_back(TpqRequest{q, kTpqLength, mode});
    }
    for (const WindowSpec& w : windows) {
      requests.push_back(WindowRequest{w, mode});
    }
  }
  for (const QuerySpec& q : queries) requests.push_back(KnnRequest{q, kK});
  return requests;
}

Payload EvalSerial(const QueryEngine& engine, const QueryRequest& request) {
  if (const auto* r = std::get_if<StrqRequest>(&request)) {
    return engine.Strq(r->query, r->mode);
  }
  if (const auto* r = std::get_if<WindowRequest>(&request)) {
    return engine.WindowQuery(r->window.window, r->window.tick, r->mode);
  }
  if (const auto* r = std::get_if<KnnRequest>(&request)) {
    return engine.NearestTrajectories(r->query, r->k);
  }
  const auto& r = std::get<TpqRequest>(request);
  return engine.Tpq(r.query, r.length, r.mode);
}

/// One view source under conformance test: a factory producing a service
/// serving view A, swaps to each of the two views (with their serial
/// oracles and expected seal epochs), and a swap to a null source of the
/// same shape, which UpdateView must reject.
struct BackendCase {
  std::shared_ptr<const TrajectoryDataset> data;
  double cell_size = 0;
  std::function<std::unique_ptr<QueryService>(size_t workers)> make;
  std::function<void(QueryService&)> swap_to_a;
  std::function<void(QueryService&)> swap_to_b;
  std::function<void(QueryService&)> swap_to_null;
  std::unique_ptr<QueryEngine> oracle_a;
  std::unique_ptr<QueryEngine> oracle_b;
  uint64_t epoch_a = 0;
  uint64_t epoch_b = 0;
};

enum class BackendKind { kSingle, kSharded, kLive };

std::string KindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSingle:
      return "Single";
    case BackendKind::kSharded:
      return "Sharded";
    case BackendKind::kLive:
      return "Live";
  }
  return "?";
}

std::shared_ptr<LiveRepository> BuildLive(const TrajectoryDataset& data,
                                          Tick end) {
  LiveRepository::Options options;
  options.num_shards = 1;
  options.num_threads = 1;
  options.watermark_ticks = 8;
  options.watermark_points = 0;
  auto live = std::make_shared<LiveRepository>(
      [](uint32_t) {
        return std::make_unique<core::PpqTrajectory>(core::MakePpqA());
      },
      options);
  for (Tick t = data.MinTick(); t < end; ++t) {
    const PointBatch batch = data.BatchAt(t);
    if (!batch.empty()) {
      EXPECT_TRUE(live->Append(batch).ok());
    }
  }
  // Seal everything: with the tails empty, the serial engine over the one
  // shard's seal is the byte-exact oracle for this source.
  live->RollAll();
  live->Quiesce();
  return live;
}

/// Installs swaps to \p a, \p b and a null view of the same shape, and a
/// factory serving \p a.
template <typename View>
void SetViews(BackendCase& c, View a, View b, View null) {
  c.swap_to_a = [a](QueryService& s) { s.UpdateView(a); };
  c.swap_to_b = [b](QueryService& s) { s.UpdateView(b); };
  c.swap_to_null = [null](QueryService& s) { s.UpdateView(null); };
  c.make = [a, data = c.data, cell = c.cell_size](size_t workers) {
    QueryService::Options o;
    o.num_threads = workers;
    o.raw = data;
    o.cell_size = cell;
    return std::make_unique<QueryService>(a, o);
  };
}

/// Views A and B are two seals of ONE stream: A covers the first half of
/// the day, B the whole day. All sources are 1-shard on the same data,
/// so each view's oracle is the serial engine over its single seal.
BackendCase MakeCase(BackendKind kind) {
  BackendCase c;
  c.data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const core::PpqOptions options = core::MakePpqA();
  c.cell_size = options.tpi.pi.cell_size;
  const Tick mid = (c.data->MinTick() + c.data->MaxTick()) / 2;

  switch (kind) {
    case BackendKind::kSingle: {
      core::PpqTrajectory method(options);
      for (Tick t = c.data->MinTick(); t < mid; ++t) {
        const TimeSlice slice = c.data->SliceAt(t);
        if (!slice.empty()) method.ObserveSlice(slice);
      }
      const SnapshotPtr seal_a = method.Seal();
      for (Tick t = mid; t < c.data->MaxTick(); ++t) {
        const TimeSlice slice = c.data->SliceAt(t);
        if (!slice.empty()) method.ObserveSlice(slice);
      }
      method.Finish();
      const SnapshotPtr seal_b = method.Seal();
      c.oracle_a =
          std::make_unique<QueryEngine>(seal_a, c.data.get(), c.cell_size);
      c.oracle_b =
          std::make_unique<QueryEngine>(seal_b, c.data.get(), c.cell_size);
      SetViews(c, seal_a, seal_b, SnapshotPtr{});
      c.epoch_b = 1;  // one UpdateView swap from A to B
      break;
    }
    case BackendKind::kSharded: {
      ShardedRepository::Options ro;
      ro.num_shards = 1;
      ro.num_threads = 2;
      ShardedRepository repo(
          [](uint32_t) {
            return std::make_unique<core::PpqTrajectory>(core::MakePpqA());
          },
          ro);
      for (Tick t = c.data->MinTick(); t < mid; ++t) {
        const TimeSlice slice = c.data->SliceAt(t);
        if (!slice.empty()) repo.ObserveSlice(slice);
      }
      const RepositorySnapshotPtr repo_a = repo.SealAll();
      for (Tick t = mid; t < c.data->MaxTick(); ++t) {
        const TimeSlice slice = c.data->SliceAt(t);
        if (!slice.empty()) repo.ObserveSlice(slice);
      }
      repo.Finish();
      const RepositorySnapshotPtr repo_b = repo.SealAll();
      c.oracle_a = std::make_unique<QueryEngine>(repo_a->shards()[0],
                                                 c.data.get(), c.cell_size);
      c.oracle_b = std::make_unique<QueryEngine>(repo_b->shards()[0],
                                                 c.data.get(), c.cell_size);
      SetViews(c, repo_a->shards(), repo_b->shards(),
               std::vector<SnapshotPtr>{nullptr});
      c.epoch_b = 1;
      break;
    }
    case BackendKind::kLive: {
      const auto live_a = BuildLive(*c.data, mid);
      const auto live_b = BuildLive(*c.data, c.data->MaxTick());
      c.oracle_a = std::make_unique<QueryEngine>(
          live_a->ShardView(0)->sealed, c.data.get(), c.cell_size);
      c.oracle_b = std::make_unique<QueryEngine>(
          live_b->ShardView(0)->sealed, c.data.get(), c.cell_size);
      using LivePtr = std::shared_ptr<const core::ShardViewSource>;
      SetViews(c, LivePtr(live_a), LivePtr(live_b), LivePtr());
      // Live freshness is the repository's seal generation, not a swap
      // count: quiesced repositories report it deterministically.
      c.epoch_a = live_a->MinSealEpoch();
      c.epoch_b = live_b->MinSealEpoch();
      break;
    }
  }
  return c;
}

/// Submit every request and require byte-parity with \p oracle plus
/// populated, internally consistent responses at \p epoch.
void ExpectMatchesOracle(QueryService& service, const QueryEngine& oracle,
                         uint64_t epoch,
                         const std::vector<QueryRequest>& requests,
                         const std::string& label) {
  auto futures = service.SubmitBatch(requests);
  ASSERT_EQ(futures.size(), requests.size());
  size_t total_decoded = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const QueryResponse response = futures[i].get();
    EXPECT_TRUE(response.ok()) << label << " request " << i;
    EXPECT_EQ(response.kind, KindOf(requests[i])) << label << " request " << i;
    EXPECT_EQ(response.result, EvalSerial(oracle, requests[i]))
        << label << " request " << i;
    EXPECT_EQ(response.stats.seal_epoch, epoch) << label << " request " << i;
    total_decoded += response.stats.points_decoded;
  }
  EXPECT_GT(total_decoded, 0u) << label;
}

class QueryBackendConformance
    : public ::testing::TestWithParam<BackendKind> {};

TEST_P(QueryBackendConformance, ParityAgainstSerialOracle) {
  const BackendCase c = MakeCase(GetParam());
  Rng rng(17);
  const auto queries = core::SampleQueries(*c.data, 30, &rng);
  const auto windows = test::SampleWindows(*c.data, 15, &rng);
  const auto requests = MakeRequests(queries, windows);

  for (size_t workers : {size_t{1}, size_t{4}}) {
    const auto service = c.make(workers);
    EXPECT_EQ(service->num_threads(), workers);
    const std::string label =
        KindName(GetParam()) + "@" + std::to_string(workers) + "w";
    ExpectMatchesOracle(*service, *c.oracle_a, c.epoch_a, requests,
                        "cold " + label);
    // Warm decode scratch must not change results.
    ExpectMatchesOracle(*service, *c.oracle_a, c.epoch_a, requests,
                        "warm " + label);
  }
}

TEST_P(QueryBackendConformance, UpdateViewSwapsAndRejectsWrongViewType) {
  const BackendCase c = MakeCase(GetParam());
  Rng rng(19);
  const auto queries = core::SampleQueries(*c.data, 15, &rng);
  const auto windows = test::SampleWindows(*c.data, 8, &rng);
  const auto requests = MakeRequests(queries, windows);

  const auto service = c.make(2);
  ExpectMatchesOracle(*service, *c.oracle_a, c.epoch_a, requests, "pre-swap");
  c.swap_to_b(*service);
  ExpectMatchesOracle(*service, *c.oracle_b, c.epoch_b, requests, "post-swap");

  // With one engine there is no view of another type left to hand it:
  // the wrong view is a null source, rejected — and nothing was swapped.
  EXPECT_THROW(c.swap_to_null(*service), std::invalid_argument);
  ExpectMatchesOracle(*service, *c.oracle_b, c.epoch_b, requests,
                      "post-reject");
}

TEST_P(QueryBackendConformance, DestructionDrainsSubmittedRequests) {
  const BackendCase c = MakeCase(GetParam());
  Rng rng(11);
  std::vector<QueryRequest> requests;
  for (const QuerySpec& q : core::SampleQueries(*c.data, 60, &rng)) {
    requests.push_back(StrqRequest{q, StrqMode::kExact});
  }

  std::vector<std::future<QueryResponse>> futures;
  {
    const auto service = c.make(2);
    futures = service->SubmitBatch(requests);
  }  // destroyed immediately: every future must still resolve, correctly

  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].valid());
    const QueryResponse response = futures[i].get();
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.result, EvalSerial(*c.oracle_a, requests[i]));
  }
}

TEST_P(QueryBackendConformance, CancelPendingFailsExactlyTheQueued) {
  const BackendCase c = MakeCase(GetParam());
  Rng rng(13);
  std::vector<QueryRequest> requests;
  for (const QuerySpec& q : core::SampleQueries(*c.data, 200, &rng)) {
    requests.push_back(StrqRequest{q, StrqMode::kExact});
  }

  const auto service = c.make(1);
  auto futures = service->SubmitBatch(std::move(requests));
  const size_t cancelled = service->CancelPending();
  ASSERT_LE(cancelled, futures.size());

  size_t observed = 0;
  for (auto& future : futures) {
    const QueryResponse response = future.get();
    if (response.ok()) continue;
    EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
    EXPECT_EQ(response.kind, core::QueryKind::kStrq);
    ++observed;
  }
  EXPECT_EQ(observed, cancelled);

  // After a cancel, the service still serves.
  Rng rng2(14);
  const QueryResponse after =
      service
          ->Submit(StrqRequest{core::SampleQueries(*c.data, 1, &rng2)[0],
                               StrqMode::kLocalSearch})
          .get();
  EXPECT_TRUE(after.ok());
}

TEST_P(QueryBackendConformance, SubmittersRaceHotSwap) {
  const BackendCase c = MakeCase(GetParam());
  Rng rng(7);
  const auto queries = core::SampleQueries(*c.data, 20, &rng);
  const auto windows = test::SampleWindows(*c.data, 10, &rng);
  const auto requests = MakeRequests(queries, windows);

  // Serial references against BOTH views: however submissions interleave
  // with swaps, every response must be exactly ONE view's byte-exact
  // answer — never a mix (this is the TSan-checked contract).
  std::vector<Payload> ref_a, ref_b;
  for (const QueryRequest& request : requests) {
    ref_a.push_back(EvalSerial(*c.oracle_a, request));
    ref_b.push_back(EvalSerial(*c.oracle_b, request));
  }

  const auto service = c.make(4);
  constexpr size_t kSubmitters = 4;
  constexpr int kSwaps = 50;
  std::vector<std::vector<QueryResponse>> responses(kSubmitters);
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (const QueryRequest& request : requests) {
        responses[s].push_back(service->Submit(request).get());
      }
    });
  }
  for (int i = 0; i < kSwaps; ++i) {
    ((i % 2 == 0) ? c.swap_to_b : c.swap_to_a)(*service);
  }
  for (std::thread& t : submitters) t.join();

  for (size_t s = 0; s < kSubmitters; ++s) {
    ASSERT_EQ(responses[s].size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResponse& response = responses[s][i];
      EXPECT_TRUE(response.ok());
      EXPECT_TRUE(response.result == ref_a[i] || response.result == ref_b[i])
          << "submitter " << s << " request " << i
          << " matches neither view's serial answer";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, QueryBackendConformance,
                         ::testing::Values(BackendKind::kSingle,
                                           BackendKind::kSharded,
                                           BackendKind::kLive),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                           return KindName(info.param);
                         });

}  // namespace
}  // namespace ppq
