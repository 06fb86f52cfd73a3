#include "core/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "baselines/trajstore.h"
#include "core/metrics.h"
#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tests/test_util.h"

/// \file query_service_test.cc
/// The async serving front-end: every request type of the unified
/// QueryRequest vocabulary must resolve byte-identical to the serial
/// QueryEngine at 1 and 4 workers — across the whole MakeMethod family,
/// materialized (TrajStore) snapshots, and fixed-per-tick mode (the
/// parity oracles formerly living in query_executor_test.cc; the
/// deprecated executor shims are gone). The hot-swap race, drain-on-
/// destruction, and cancellation-accounting contracts are covered for
/// every view source at once by the conformance suite
/// (query_backend_test.cc); this suite keeps what is specific to serving
/// one snapshot — eager scratch reclamation on swap, the shared_ptr-owned
/// verification dataset that closes the old raw-pointer lifetime footgun,
/// seals staying immutable under continued encoding / outliving their
/// compressor — and the serve path's own reporting: per-response stage
/// books, the serve histograms, and (in a -DPPQ_TRACE=ON build) the
/// drained zone trace.

namespace ppq::core {
namespace {

TrajectoryDataset SmallDataset(uint64_t seed = 77) {
  return test::MakePortoDataset({40, 50, 15, 50, seed});
}

constexpr StrqMode kAllModes[] = {StrqMode::kApproximate,
                                  StrqMode::kLocalSearch, StrqMode::kExact};
constexpr int kTpqLength = 8;
constexpr size_t kK = 5;

/// The full mixed request stream for \p queries/\p windows: every request
/// type x StrqMode, interleaved.
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
  for (const QuerySpec& q : queries) {
    requests.push_back(KnnRequest{q, kK});
  }
  return requests;
}

/// Serial-engine answer for one request, as the response payload variant.
std::variant<StrqResult, std::vector<Neighbor>, TpqResult> EvalSerial(
    const QueryEngine& engine, const QueryRequest& request) {
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

/// Submit every request and require byte-parity with the serial engine
/// plus populated responses (kind, status, stats).
void ExpectServiceMatchesSerial(QueryService& service,
                                const QueryEngine& engine,
                                const std::vector<QueryRequest>& requests,
                                const std::string& label) {
  auto futures = service.SubmitBatch(requests);
  ASSERT_EQ(futures.size(), requests.size());
  size_t total_decoded = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    const QueryResponse response = futures[i].get();
    EXPECT_TRUE(response.ok()) << label << " request " << i;
    EXPECT_EQ(response.kind, KindOf(requests[i])) << label << " request " << i;
    EXPECT_EQ(response.result, EvalSerial(engine, requests[i]))
        << label << " request " << i;
    total_decoded += response.stats.points_decoded;
    EXPECT_GE(response.stats.eval_micros, response.stats.decode_micros)
        << label << " request " << i;
  }
  // The workload reconstructs many candidates; the counters must see them.
  EXPECT_GT(total_decoded, 0u) << label;
}

class ServiceParity : public ::testing::TestWithParam<size_t> {};

TEST_P(ServiceParity, AllRequestTypesMatchSerialEngine) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);

  const QueryEngine engine(&method, data.get(), options.tpi.pi.cell_size);
  Rng rng(17);
  const auto queries = SampleQueries(*data, 40, &rng);
  const auto windows = test::SampleWindows(*data, 20, &rng);
  const auto requests = MakeRequests(queries, windows);

  QueryService::Options serve_options;
  serve_options.num_threads = GetParam();
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(method.Seal(), serve_options);
  EXPECT_EQ(service.num_threads(), GetParam());

  ExpectServiceMatchesSerial(service, engine, requests,
                             "cold @" + std::to_string(GetParam()) + "w");
  // Warm decode scratch must not change results.
  ExpectServiceMatchesSerial(service, engine, requests,
                             "warm @" + std::to_string(GetParam()) + "w");
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, ServiceParity,
                         ::testing::Values(size_t{1}, size_t{4}));

/// Full parity sweep for one sealed compressor: serial engine vs service
/// at 1 and 4 workers, cold and warm scratch (the former executor-suite
/// oracle, now speaking the request vocabulary directly).
void CheckServiceParity(const Compressor& method,
                        const std::shared_ptr<const TrajectoryDataset>& data,
                        double cell_size, const std::string& label) {
  const QueryEngine engine(&method, data.get(), cell_size);
  Rng rng(17);
  const auto queries = SampleQueries(*data, 40, &rng);
  const auto windows = test::SampleWindows(*data, 20, &rng);
  const auto requests = MakeRequests(queries, windows);

  const SnapshotPtr snapshot = method.Seal();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->name(), method.name());

  for (size_t workers : {size_t{1}, size_t{4}}) {
    QueryService::Options options;
    options.num_threads = workers;
    options.raw = data;
    options.cell_size = cell_size;
    QueryService service(snapshot, options);
    ExpectServiceMatchesSerial(service, engine, requests,
                               label + " @" + std::to_string(workers) + "w");
    // Re-run on the warm scratch: memoised prefixes must not change
    // results.
    ExpectServiceMatchesSerial(
        service, engine, requests,
        label + " warm @" + std::to_string(workers) + "w");
  }
}

class ServiceParityFamily : public ::testing::TestWithParam<const char*> {};

TEST_P(ServiceParityFamily, MatchesSerialEngineAcrossWorkerCounts) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions base;
  auto method = MakeMethod(GetParam(), base);
  method->Compress(*data);
  CheckServiceParity(*method, data, base.tpi.pi.cell_size, GetParam());
}

INSTANTIATE_TEST_SUITE_P(MakeMethodFamily, ServiceParityFamily,
                         ::testing::Values("PPQ-A", "PPQ-A-basic", "PPQ-S",
                                           "PPQ-S-basic", "E-PQ",
                                           "Q-trajectory"));

TEST(QueryServiceTest, FixedPerTickModeParity) {
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(21));
  PpqOptions options = MakePpqA();
  options.mode = QuantizationMode::kFixedPerTick;
  options.fixed_bits = 6;
  PpqTrajectory method(options);
  method.Compress(*data);
  CheckServiceParity(method, data, options.tpi.pi.cell_size, "PPQ-A fixed");
}

TEST(QueryServiceTest, MaterializedSnapshotParity) {
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(5));
  baselines::TrajStore::Options options;
  options.region = {-9.0, 41.0, -8.0, 41.5};
  baselines::TrajStore method(options);
  method.Compress(*data);

  const QueryEngine engine(&method, data.get(), options.tpi.pi.cell_size);
  Rng rng(23);
  const auto queries = SampleQueries(*data, 25, &rng);
  const auto windows = test::SampleWindows(*data, 12, &rng);

  QueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(method.Seal(), serve_options);
  ExpectServiceMatchesSerial(service, engine, MakeRequests(queries, windows),
                             "TrajStore");
}

TEST(QueryServiceTest, PerQueryStatsCountVerificationCandidates) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);

  QueryService::Options serve_options;
  serve_options.num_threads = 1;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(method.Seal(), serve_options);

  Rng rng(29);
  for (const QuerySpec& q : SampleQueries(*data, 20, &rng)) {
    const QueryResponse response =
        service.Submit(StrqRequest{q, StrqMode::kExact}).get();
    // The stats candidate counter is exactly the result's (Table 4).
    EXPECT_EQ(response.stats.candidates_visited,
              response.strq().candidates_visited);
    // Exact STRQ on a populated cell must have decoded something.
    if (!response.strq().ids.empty()) {
      EXPECT_GT(response.stats.points_decoded, 0u);
    }
  }
}

TEST(QueryServiceTest, StageAccountingBalances) {
  // Closed-loop submitters drive the mixed stream. In every response the
  // queue stage is the queue wait, the evaluation's stages are disjoint
  // sub-intervals of it, and queue wait plus evaluation are disjoint
  // sub-intervals of the submitter's own submit -> get() time. Every
  // duration truncates to whole micros, so no check needs slack.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);
  Rng rng(37);
  const auto queries = SampleQueries(*data, 30, &rng);
  const auto requests =
      MakeRequests(queries, test::SampleWindows(*data, 15, &rng));

  QueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(method.Seal(), serve_options);
  obs::Histogram* const eval_hist =
      obs::Registry::Default().GetHistogram("ppq_serve_eval_micros");
  const uint64_t observed_before = eval_hist->Snapshot().count;

  constexpr size_t kSubmitters = 4;
  std::vector<std::thread> submitters;
  for (size_t first = 0; first < kSubmitters; ++first) {
    submitters.emplace_back([&, first] {
      for (size_t i = first; i < requests.size(); i += kSubmitters) {
        const auto start = std::chrono::steady_clock::now();
        const QueryResponse response = service.Submit(requests[i]).get();
        const auto wall_micros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        const QueryStats& stats = response.stats;
        EXPECT_EQ(stats.stage_micros[static_cast<size_t>(ServeStage::kQueue)],
                  stats.queue_micros)
            << "request " << i;
        uint64_t eval_stages = 0;
        for (size_t st = 0; st < kNumServeStages; ++st) {
          if (st != static_cast<size_t>(ServeStage::kQueue)) {
            eval_stages += stats.stage_micros[st];
          }
        }
        EXPECT_LE(eval_stages, stats.eval_micros) << "request " << i;
        EXPECT_LE(stats.queue_micros + stats.eval_micros, wall_micros)
            << "request " << i;
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  // The registry saw each response exactly once.
  EXPECT_EQ(eval_hist->Snapshot().count - observed_before, requests.size());
}

#if defined(PPQ_TRACE)
TEST(QueryServiceTest, ServeZonesDrainToChromeTrace) {
  // A traced build records the serve path's zones on the workers; drained,
  // they are chrome://tracing complete events with non-negative durations.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);
  Rng rng(43);
  const auto queries = SampleQueries(*data, 10, &rng);
  const auto requests =
      MakeRequests(queries, test::SampleWindows(*data, 5, &rng));

  obs::trace::Reset();
  {
    QueryService::Options serve_options;
    serve_options.num_threads = 2;
    serve_options.raw = data;
    serve_options.cell_size = options.tpi.pi.cell_size;
    QueryService service(method.Seal(), serve_options);
    for (auto& future : service.SubmitBatch(requests)) future.get();
  }
  // A fixed name, so a CI job can keep the file as an artifact.
  const std::string path = ::testing::TempDir() + "/ppq_serve_trace.json";
  ASSERT_TRUE(obs::trace::WriteChromeTrace(path));
  const std::vector<uint8_t> bytes = test::ReadFileBytes(path);
  const std::string trace(bytes.begin(), bytes.end());

  // Each event is one flat object opening with its name:
  // {"name":"...","ph":"X","ts":...,"dur":...,"pid":0,"tid":N[,"args":..]}
  const std::string open = "{\"name\":\"";
  std::set<std::string> names;
  for (size_t at = trace.find(open); at != std::string::npos;
       at = trace.find(open, at + 1)) {
    const size_t name_begin = at + open.size();
    names.insert(
        trace.substr(name_begin, trace.find('"', name_begin) - name_begin));
    const std::string event = trace.substr(at, trace.find('}', at) - at);
    EXPECT_NE(event.find("\"ph\":\"X\""), std::string::npos) << event;
    const size_t dur = event.find("\"dur\":");
    ASSERT_NE(dur, std::string::npos) << event;
    EXPECT_GE(std::strtod(event.c_str() + dur + 6, nullptr), 0.0) << event;
  }
  for (const char* zone :
       {"serve.evaluate", "eval.scan", "eval.decode", "eval.kernel"}) {
    EXPECT_EQ(names.count(zone), 1u) << "no " << zone << " event in " << path;
  }
  obs::trace::Reset();
}
#endif

// ---------------------------------------------------------------------------
// Swap semantics of a single served snapshot
// (the generic hot-swap race lives in query_backend_test.cc)
// ---------------------------------------------------------------------------

TEST(QueryServiceConcurrencyTest, HotSwapReclaimsRetiredSealEagerly) {
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(71));
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);
  SnapshotPtr seal_a = method.Seal();
  const SnapshotPtr seal_b = method.Seal();

  QueryService::Options serve_options;
  serve_options.num_threads = 3;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(seal_a, serve_options);

  // Serve traffic so every worker may have pinned seal A in its scratch.
  Rng rng(3);
  std::vector<QueryRequest> requests;
  for (const QuerySpec& q : SampleQueries(*data, 60, &rng)) {
    requests.push_back(StrqRequest{q, StrqMode::kLocalSearch});
  }
  for (auto& future : service.SubmitBatch(requests)) future.get();

  // After the swap — with NO further traffic — no worker may still hold
  // seal A: the only remaining reference is this test's handle.
  service.UpdateView(seal_b);
  EXPECT_EQ(seal_a.use_count(), 1);
}

// ---------------------------------------------------------------------------
// Decode memos: kept across one lineage, dropped across two, budgeted
// ---------------------------------------------------------------------------

obs::Counter* MemoResets(const char* cause) {
  return obs::Registry::Default().GetCounter(
      "ppq_serve_memo_resets_total", std::string("cause=\"") + cause + "\"");
}

/// Two shards whose seals are republished in place, the way a live
/// repository republishes a view: the engine meets the new seal without an
/// UpdateView sweep of its memos.
class RepublishedViews final : public ShardViewSource {
 public:
  RepublishedViews(SnapshotPtr shard0, SnapshotPtr shard1) {
    Publish(0, std::move(shard0));
    Publish(1, std::move(shard1));
  }
  uint32_t num_shards() const override { return 2; }
  ShardViewPtr ShardView(size_t shard) const override {
    return std::atomic_load(&views_[shard]);
  }
  void Publish(size_t shard, SnapshotPtr seal) {
    auto view = std::make_shared<core::ShardView>();
    view->sealed = std::move(seal);
    view->sealed_through = std::numeric_limits<Tick>::max();
    std::atomic_store(&views_[shard], ShardViewPtr(std::move(view)));
  }

 private:
  ShardViewPtr views_[2];
};

/// The trajectories of \p data whose id has parity \p parity.
TrajectoryDataset IdParityHalf(const TrajectoryDataset& data, TrajId parity) {
  TrajectoryDataset half;
  for (const Trajectory& traj : data.trajectories()) {
    if (traj.id % 2 == parity) half.Add(traj);
  }
  return half;
}

std::vector<QueryResponse> Answers(QueryService& service,
                                   const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> responses;
  for (auto& future : service.SubmitBatch(requests)) {
    responses.push_back(future.get());
    EXPECT_TRUE(responses.back().ok());
  }
  return responses;
}

TEST(QueryServiceTest, MemoDroppedWhenAShardChangesLineage) {
  // Shard 0 switches from encoder A's seal to encoder B's, built with a
  // coarser eps_1 over the same trajectories, so the two decode the same
  // (id, tick) to different points. A worker whose memo was warmed on A
  // must answer B's requests like a cold service.
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  const TrajectoryDataset even = IdParityHalf(*data, 0);
  const TrajectoryDataset odd = IdParityHalf(*data, 1);
  const PpqOptions options = MakePpqA();
  PpqOptions coarse = options;
  coarse.epsilon1 *= 4;
  PpqTrajectory a(options);
  PpqTrajectory b(coarse);
  PpqTrajectory c(options);
  a.Compress(even);
  b.Compress(even);
  c.Compress(odd);
  const auto source = std::make_shared<RepublishedViews>(a.Seal(), c.Seal());

  Rng rng(43);
  const auto requests = MakeRequests(SampleQueries(*data, 30, &rng),
                                     test::SampleWindows(*data, 15, &rng));
  QueryService::Options serve_options;
  serve_options.num_threads = 1;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(source, serve_options);
  const std::vector<QueryResponse> on_a = Answers(service, requests);

  obs::Counter* const lineage_resets = MemoResets("lineage");
  const uint64_t resets_before = lineage_resets->Value();
  source->Publish(0, b.Seal());
  const std::vector<QueryResponse> warm = Answers(service, requests);
  QueryService cold_service(source, serve_options);
  const std::vector<QueryResponse> cold = Answers(cold_service, requests);
  EXPECT_GT(lineage_resets->Value(), resets_before);

  size_t changed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(warm[i].result, cold[i].result) << "request " << i;
    if (!(cold[i].result == on_a[i].result)) ++changed;
  }
  // The two encoders really decode differently.
  EXPECT_GT(changed, 0u);
}

TEST(QueryServiceTest, ScratchBudgetClearsMemosWithoutChangingAnswers) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);
  const QueryEngine engine(&method, data.get(), options.tpi.pi.cell_size);

  Rng rng(47);
  std::vector<QueryRequest> requests;
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    for (StrqMode mode : kAllModes) {
      requests.push_back(TpqRequest{q, 16, mode});
    }
    requests.push_back(KnnRequest{q, kK});
  }

  QueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  serve_options.scratch_budget_points = 48;
  QueryService service(method.Seal(), serve_options);
  obs::Counter* const budget_resets = MemoResets("budget");
  const uint64_t resets_before = budget_resets->Value();
  ExpectServiceMatchesSerial(service, engine, requests, "budget 48");
  EXPECT_GT(budget_resets->Value(), resets_before);
}

// ---------------------------------------------------------------------------
// Lifetime: the raw-dataset footgun is structurally closed
// ---------------------------------------------------------------------------

TEST(QueryServiceLifetimeTest, ServiceOwnsVerificationDataset) {
  PpqOptions options = MakePpqA();
  std::unique_ptr<QueryService> service;
  std::vector<QueryRequest> requests;
  std::vector<std::variant<StrqResult, std::vector<Neighbor>, TpqResult>>
      expected;
  {
    // The dataset's only named reference dies with this scope; the
    // service's shared_ptr keeps exact-mode verification alive. (Before
    // the redesign this was a dangling raw pointer — ASan caught it as a
    // use-after-free in exactly this shape.)
    const auto data =
        std::make_shared<const TrajectoryDataset>(SmallDataset(61));
    PpqTrajectory method(options);
    method.Compress(*data);
    const QueryEngine engine(&method, data.get(), options.tpi.pi.cell_size);
    Rng rng(19);
    for (const QuerySpec& q : SampleQueries(*data, 30, &rng)) {
      requests.push_back(StrqRequest{q, StrqMode::kExact});
      expected.push_back(EvalSerial(engine, requests.back()));
    }

    QueryService::Options serve_options;
    serve_options.num_threads = 2;
    serve_options.raw = data;
    serve_options.cell_size = options.tpi.pi.cell_size;
    service = std::make_unique<QueryService>(method.Seal(), serve_options);
  }

  auto futures = service->SubmitBatch(requests);
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().result, expected[i]) << "request " << i;
  }
}

TEST(QueryServiceLifetimeTest, RejectsMismatchedVerificationDataset) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);
  const SnapshotPtr snapshot = method.Seal();

  // A dataset with fewer trajectories than the snapshot serves cannot be
  // the compression source; the old API silently indexed out of bounds.
  QueryService::Options serve_options;
  serve_options.num_threads = 1;
  serve_options.raw = std::make_shared<const TrajectoryDataset>(
      test::MakePortoDataset({3, 50, 15, 50, 99}));
  EXPECT_THROW(QueryService(snapshot, serve_options), std::invalid_argument);

  QueryService::Options null_snapshot_options;
  null_snapshot_options.num_threads = 1;
  EXPECT_THROW(QueryService(SnapshotPtr{}, null_snapshot_options),
               std::invalid_argument);

  // UpdateView validates the same way; the original seal still answers
  // after a rejected swap.
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(snapshot, serve_options);
  EXPECT_THROW(service.UpdateView(SnapshotPtr{}), std::invalid_argument);
  const QueryEngine oracle(snapshot, data.get(), serve_options.cell_size);
  Rng rng(23);
  for (const QuerySpec& q : SampleQueries(*data, 20, &rng)) {
    const StrqRequest request{q, StrqMode::kExact};
    const QueryResponse response = service.Submit(request).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.result, EvalSerial(oracle, request));
    EXPECT_EQ(response.stats.seal_epoch, 0u);
  }
}

// ---------------------------------------------------------------------------
// Snapshot semantics through the service (formerly query_executor_test.cc)
// ---------------------------------------------------------------------------

/// Submit one StrqRequest per query and collect the StrqResult payloads.
std::vector<StrqResult> ServeStrq(QueryService& service,
                                  const std::vector<QuerySpec>& queries,
                                  StrqMode mode) {
  std::vector<QueryRequest> requests;
  requests.reserve(queries.size());
  for (const QuerySpec& q : queries) requests.push_back(StrqRequest{q, mode});
  std::vector<StrqResult> results;
  results.reserve(queries.size());
  for (auto& future : service.SubmitBatch(std::move(requests))) {
    QueryResponse response = future.get();
    EXPECT_TRUE(response.ok());
    results.push_back(std::move(std::get<StrqResult>(response.result)));
  }
  return results;
}

TEST(SnapshotTest, MethodWithoutIndexServesEmpty) {
  const auto data = std::make_shared<const TrajectoryDataset>(SmallDataset());
  PpqOptions options = MakePpqS();
  options.enable_index = false;
  PpqTrajectory method(options);
  method.Compress(*data);
  const SnapshotPtr snapshot = method.Seal();
  EXPECT_EQ(snapshot->index(), nullptr);

  QueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(snapshot, serve_options);
  Rng rng(3);
  const auto queries = SampleQueries(*data, 10, &rng);
  for (const StrqResult& r : ServeStrq(service, queries, StrqMode::kExact)) {
    EXPECT_TRUE(r.ids.empty());
  }
}

TEST(SnapshotTest, SealIsImmutableUnderContinuedEncoding) {
  // Seal mid-stream, keep encoding: the sealed snapshot must keep
  // answering exactly as it did at seal time.
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(31));
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);

  const Tick mid = (data->MinTick() + data->MaxTick()) / 2;
  for (Tick t = data->MinTick(); t < mid; ++t) {
    const TimeSlice slice = data->SliceAt(t);
    if (!slice.empty()) method.ObserveSlice(slice);
  }
  const SnapshotPtr sealed = method.Seal();

  QueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.raw = data;
  serve_options.cell_size = options.tpi.pi.cell_size;
  QueryService service(sealed, serve_options);

  Rng rng(7);
  std::vector<QuerySpec> queries;
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    if (q.tick < mid) queries.push_back(q);
  }
  ASSERT_FALSE(queries.empty());
  const auto before = ServeStrq(service, queries, StrqMode::kLocalSearch);

  // Writer continues: encode the rest of the day and finish.
  for (Tick t = mid; t < data->MaxTick(); ++t) {
    const TimeSlice slice = data->SliceAt(t);
    if (!slice.empty()) method.ObserveSlice(slice);
  }
  method.Finish();

  EXPECT_EQ(ServeStrq(service, queries, StrqMode::kLocalSearch), before);

  // Re-seal and swap: the service now also sees the later ticks.
  service.UpdateView(method.Seal());
  Rng rng2(9);
  std::vector<QuerySpec> late;
  for (const QuerySpec& q : SampleQueries(*data, 60, &rng2)) {
    if (q.tick >= mid) late.push_back(q);
  }
  ASSERT_FALSE(late.empty());
  size_t hits = 0;
  for (const StrqResult& r :
       ServeStrq(service, late, StrqMode::kLocalSearch)) {
    hits += r.ids.size();
  }
  EXPECT_GT(hits, 0u);

  // And the re-sealed snapshot agrees with the serial engine on the final
  // state.
  CheckServiceParity(method, data, options.tpi.pi.cell_size, "post-reseal");
}

TEST(SnapshotTest, QueryEngineServesSnapshotsToo) {
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(41));
  PpqOptions options = MakePpqA();
  PpqTrajectory method(options);
  method.Compress(*data);

  const QueryEngine live(&method, data.get(), options.tpi.pi.cell_size);
  const QueryEngine sealed(method.Seal(), data.get(),
                           options.tpi.pi.cell_size);
  Rng rng(11);
  for (const QuerySpec& q : SampleQueries(*data, 40, &rng)) {
    for (StrqMode mode : kAllModes) {
      EXPECT_EQ(sealed.Strq(q, mode), live.Strq(q, mode));
    }
    EXPECT_EQ(sealed.NearestTrajectories(q, 4),
              live.NearestTrajectories(q, 4));
  }
}

TEST(SnapshotTest, SnapshotOutlivesCompressor) {
  const auto data =
      std::make_shared<const TrajectoryDataset>(SmallDataset(51));
  SnapshotPtr snapshot;
  size_t expected_records = 0;
  {
    PpqOptions options = MakePpqA();
    PpqTrajectory method(options);
    method.Compress(*data);
    expected_records = method.summary().NumTrajectories();
    snapshot = method.Seal();
  }  // writer destroyed; the seal must be self-contained
  EXPECT_EQ(snapshot->NumTrajectories(), expected_records);
  QueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.raw = data;
  QueryService service(snapshot, serve_options);
  Rng rng(13);
  const auto queries = SampleQueries(*data, 20, &rng);
  size_t hits = 0;
  for (const StrqResult& r :
       ServeStrq(service, queries, StrqMode::kLocalSearch)) {
    hits += r.ids.size();
  }
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace ppq::core
