/// \file bench_shard.cc
/// Sharded-repository benchmark: compress a Porto-like workload into a
/// hash-partitioned ShardedRepository at --shards=N (default 4) AND at 1
/// shard, persist the N-shard repository through the manifest
/// (SaveAll -> OpenRepository, so the timed serving path is the real
/// cold-open one), and serve both through QueryService over the
/// repository's shard seals with a mixed STRQ / window / k-NN / TPQ
/// workload.
///
/// Three correctness gates run before anything is reported, and the
/// process exits non-zero if any fails:
///  1. The 1-shard repository answers byte-identical to the serial
///     unsharded QueryEngine (the sharded stack adds nothing at N=1).
///  2. Exact-mode STRQ and window id sets are identical between N shards
///     and 1 shard — sharding must never change verified answers, even
///     though each shard count quantizes differently.
///  3. N-shard local-search results contain the exact results (recall 1
///     survives sharding).
///
/// Output: shared [throughput] lines (phase=encode/seal/save/open/serve)
/// plus one [shard] line per configuration:
///   [shard] shards=4 threads=2 requests=350 seconds=0.21 qps=1667
///           speedup_vs_1shard=1.8 identical_exact=yes

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "common/geo.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/metrics.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "obs/metrics.h"
#include "repo/sharded_repository.h"

namespace ppq::bench {
namespace {

constexpr size_t kKnnK = 8;
constexpr int kTpqLength = 8;

struct Workload {
  std::vector<core::QueryRequest> requests;
  /// Indices of the exact-mode STRQ/window requests (gate 2) and their
  /// local-search twins (gate 3): local[i] relaxes exact[i].
  std::vector<size_t> exact;
  std::vector<size_t> local;
};

Workload MakeWorkload(const TrajectoryDataset& data, size_t queries,
                      uint64_t seed) {
  Workload w;
  Rng rng(seed);
  for (const auto& q : core::SampleQueries(data, queries / 2, &rng)) {
    w.exact.push_back(w.requests.size());
    w.requests.push_back(core::StrqRequest{q, core::StrqMode::kExact});
    w.local.push_back(w.requests.size());
    w.requests.push_back(core::StrqRequest{q, core::StrqMode::kLocalSearch});
  }
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    const double half = rng.Uniform(0.001, 0.01);
    const core::WindowSpec window{
        core::Window{q.position.x - half, q.position.y - half,
                     q.position.x + half, q.position.y + half},
        q.tick};
    w.exact.push_back(w.requests.size());
    w.requests.push_back(core::WindowRequest{window, core::StrqMode::kExact});
    w.local.push_back(w.requests.size());
    w.requests.push_back(
        core::WindowRequest{window, core::StrqMode::kLocalSearch});
  }
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    w.requests.push_back(core::KnnRequest{q, kKnnK});
  }
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    w.requests.push_back(
        core::TpqRequest{q, kTpqLength, core::StrqMode::kExact});
  }
  return w;
}

using Payload = std::variant<core::StrqResult, std::vector<core::Neighbor>,
                             core::TpqResult>;

/// Compress \p bundle's dataset into \p num_shards shards (timed).
std::unique_ptr<repo::ShardedRepository> BuildRepository(
    const DatasetBundle& bundle, uint32_t num_shards, size_t threads) {
  MethodSetup setup;
  setup.mode = core::QuantizationMode::kErrorBounded;
  repo::ShardedRepository::Options options;
  options.num_shards = num_shards;
  options.num_threads = threads;
  auto repository = std::make_unique<repo::ShardedRepository>(
      [&bundle, &setup](uint32_t) {
        return MakeCompressor("PPQ-A", bundle, setup);
      },
      options);

  WallTimer timer;
  repository->Compress(bundle.data);
  PrintThroughput("ShardedRepo/" + std::to_string(num_shards) + "s",
                  "encode", bundle.data.TotalPoints(),
                  timer.ElapsedSeconds());
  return repository;
}

/// Serve the whole workload through \p service (timed);
/// returns payloads.
std::vector<Payload> Serve(core::QueryService& service,
                           const Workload& workload, double* seconds) {
  WallTimer timer;
  auto futures = service.SubmitBatch(workload.requests);
  std::vector<Payload> payloads;
  payloads.reserve(futures.size());
  for (auto& future : futures) {
    payloads.push_back(std::move(future.get().result));
  }
  *seconds = timer.ElapsedSeconds();
  return payloads;
}

bool IsSubset(const std::vector<TrajId>& subset,
              const std::vector<TrajId>& superset) {
  // Both sides are ascending (the merge contract).
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

int Run(const BenchOptions& options, uint32_t num_shards,
        const std::string& json_path) {
  std::printf("=== bench_shard: hash-partitioned repository, scatter-gather "
              "serving ===\n");
  DatasetBundle bundle = MakePortoBundle(options);
  std::printf("dataset: %s, %zu trajectories, %zu points\n",
              bundle.name.c_str(), bundle.data.size(),
              bundle.data.TotalPoints());
  const size_t threads = options.threads;
  const double cell_size = 100.0 / kMetersPerDegree;

  // --- Build: N shards and the 1-shard reference --------------------------
  auto sharded = BuildRepository(bundle, num_shards, threads);
  auto single = BuildRepository(bundle, 1, threads);

  WallTimer seal_timer;
  const repo::RepositorySnapshotPtr sealed = sharded->SealAll();
  PrintThroughput("ShardedRepo/" + std::to_string(num_shards) + "s", "seal",
                  sealed->NumTrajectories(), seal_timer.ElapsedSeconds());
  const repo::RepositorySnapshotPtr single_seal = single->SealAll();

  // --- Persist: SaveAll -> OpenRepository (the served seal is the
  // cold-opened one, so the round trip is on the measured path) ------------
  const std::string dir =
      std::filesystem::temp_directory_path() / "ppq_bench_shard_repo";
  std::filesystem::remove_all(dir);
  WallTimer save_timer;
  const Status saved = sharded->SaveAll(dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveAll failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  PrintThroughput("ShardedRepo/" + std::to_string(num_shards) + "s", "save",
                  bundle.data.TotalPoints(), save_timer.ElapsedSeconds());
  WallTimer open_timer;
  ThreadPool open_pool(threads);
  auto opened = repo::OpenRepository(dir, &open_pool);
  if (!opened.ok()) {
    std::fprintf(stderr, "OpenRepository failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  PrintThroughput("ShardedRepo/" + std::to_string(num_shards) + "s", "open",
                  bundle.data.TotalPoints(), open_timer.ElapsedSeconds());
  std::filesystem::remove_all(dir);

  // --- Workload + serial oracle -------------------------------------------
  const Workload workload =
      MakeWorkload(bundle.data, options.queries, options.seed + 99);
  std::printf("workload: %zu mixed requests (%zu exact-mode gates)\n",
              workload.requests.size(), workload.exact.size());
  const auto raw =
      std::make_shared<const TrajectoryDataset>(std::move(bundle.data));

  // Serial unsharded oracle for gate 1 (the 1-shard repository IS the
  // unsharded compressor, so its serial engine is the unsharded answer).
  const core::QueryEngine engine(single_seal->shard(0), raw.get(), cell_size);
  std::vector<Payload> reference;
  reference.reserve(workload.requests.size());
  WallTimer serial_timer;
  for (const core::QueryRequest& request : workload.requests) {
    if (const auto* r = std::get_if<core::StrqRequest>(&request)) {
      reference.emplace_back(engine.Strq(r->query, r->mode));
    } else if (const auto* r = std::get_if<core::WindowRequest>(&request)) {
      reference.emplace_back(
          engine.WindowQuery(r->window.window, r->window.tick, r->mode));
    } else if (const auto* r = std::get_if<core::KnnRequest>(&request)) {
      reference.emplace_back(engine.NearestTrajectories(r->query, r->k));
    } else {
      const auto& tpq = std::get<core::TpqRequest>(request);
      reference.emplace_back(engine.Tpq(tpq.query, tpq.length, tpq.mode));
    }
  }
  PrintThroughput("QueryEngine", "serve", workload.requests.size(),
                  serial_timer.ElapsedSeconds());

  // --- Serve both configurations ------------------------------------------
  core::QueryService::Options serve_options;
  serve_options.num_threads = threads;
  serve_options.raw = raw;
  serve_options.cell_size = cell_size;

  core::QueryService single_service(single_seal->shards(), serve_options);
  double single_seconds = 0.0;
  const std::vector<Payload> single_served =
      Serve(single_service, workload, &single_seconds);
  PrintThroughput("ShardedService/1s", "serve", workload.requests.size(),
                  single_seconds);

  core::QueryService service((*opened)->shards(), serve_options);
  double seconds = 0.0;
  const std::vector<Payload> served = Serve(service, workload, &seconds);
  PrintThroughput("ShardedService/" + std::to_string(num_shards) + "s",
                  "serve", workload.requests.size(), seconds);

  // --- Gate 1: 1 shard == unsharded serial, byte for byte -----------------
  bool gate1 = true;
  for (size_t i = 0; i < reference.size(); ++i) {
    if (!(single_served[i] == reference[i])) {
      gate1 = false;
      break;
    }
  }
  // --- Gates 2+3: exact answers shard-count invariant; local ⊇ exact ------
  bool gate2 = true;
  bool gate3 = true;
  for (size_t g = 0; g < workload.exact.size(); ++g) {
    const auto& n_exact =
        std::get<core::StrqResult>(served[workload.exact[g]]);
    const auto& one_exact =
        std::get<core::StrqResult>(single_served[workload.exact[g]]);
    if (n_exact.ids != one_exact.ids) gate2 = false;
    const auto& n_local =
        std::get<core::StrqResult>(served[workload.local[g]]);
    if (!IsSubset(n_exact.ids, n_local.ids)) gate3 = false;
  }

  const bool identical = gate1 && gate2 && gate3;
  const double qps =
      seconds > 0.0
          ? static_cast<double>(workload.requests.size()) / seconds
          : 0.0;
  const double speedup = seconds > 0.0 ? single_seconds / seconds : 0.0;
  std::printf("[shard] shards=%u threads=%zu requests=%zu seconds=%.4f "
              "qps=%.0f speedup_vs_1shard=%.2f identical_exact=%s\n",
              num_shards, threads, workload.requests.size(), seconds, qps,
              speedup, identical ? "yes" : "NO");

  PerfJson json;
  json.Begin("shard");
  json.Field("shards", static_cast<double>(num_shards));
  json.Field("threads", static_cast<double>(threads));
  json.Field("requests", static_cast<double>(workload.requests.size()));
  json.Field("seconds", seconds);
  json.Field("qps", qps);
  json.Field("speedup_vs_1shard", speedup);
  json.Text("identical_exact", identical ? "yes" : "no");
  // The run's whole metrics snapshot (serve-stage histograms incl. the
  // scatter-gather merge stage), embedded verbatim.
  json.Begin("metrics");
  json.Raw("registry", obs::Registry::Default().RenderJson());
  if (!json_path.empty() && !json.Write(json_path, "shard")) {
    std::fprintf(stderr, "bench_shard: could not write %s\n",
                 json_path.c_str());
    return 2;
  }

  if (!gate1) {
    std::fprintf(stderr, "ERROR: 1-shard repository diverged from the "
                         "serial unsharded engine\n");
  }
  if (!gate2) {
    std::fprintf(stderr, "ERROR: exact-mode answers changed with the shard "
                         "count\n");
  }
  if (!gate3) {
    std::fprintf(stderr, "ERROR: local-search lost exact results "
                         "(recall < 1 under sharding)\n");
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace ppq::bench

int main(int argc, char** argv) {
  ppq::bench::BenchOptions options = ppq::bench::ParseArgs(argc, argv);
  const std::string json_path = ppq::bench::ParseJsonPath(argc, argv);
  uint32_t shards = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shards = static_cast<uint32_t>(
          std::strtoul(arg.substr(9).c_str(), nullptr, 10));
      if (shards == 0) shards = 1;
    }
  }
  return ppq::bench::Run(options, shards, json_path);
}
