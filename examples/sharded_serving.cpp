/// \file sharded_serving.cpp
/// End-to-end tour of the sharded repository (src/repo/):
///   1. generate a Porto-like workload,
///   2. ingest it into a 4-shard ShardedRepository — every tick's slice is
///      hash-split by trajectory id and the shards encode in parallel,
///   3. SealAll() into an immutable RepositorySnapshot and SaveAll() it as
///      a directory (per-shard PPQSNAP1 containers + PPQMANIF manifest),
///   4. OpenRepository() the directory back, as a restarted server would,
///   5. serve a mixed asynchronous stream through QueryService over the
///      shard seals — the same engine and Submit(QueryRequest) surface as
///      for one snapshot, same byte-exact answers.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/sharded_serving

#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/ppq_trajectory.h"
#include "datagen/generator.h"
#include "core/query_service.h"
#include "repo/sharded_repository.h"

int main() {
  using namespace ppq;

  // 1. A Porto-like workload, shared with the serving stack.
  datagen::GeneratorOptions gen_options;
  gen_options.num_trajectories = 300;
  gen_options.horizon = 400;
  gen_options.max_length = 200;
  datagen::PortoLikeGenerator generator(gen_options);
  const auto dataset =
      std::make_shared<const TrajectoryDataset>(generator.Generate());
  std::printf("dataset: %zu trajectories, %zu points\n", dataset->size(),
              dataset->TotalPoints());

  // 2. Ingest into 4 hash-partitioned shards. Each shard owns an
  //    identically configured PPQ-A compressor; the repository splits
  //    every slice by ShardMap::ShardOf(id) and fans the sub-slices out
  //    across its thread pool.
  const core::PpqOptions options = core::MakePpqA();
  repo::ShardedRepository::Options repo_options;
  repo_options.num_shards = 4;
  repo_options.num_threads = 4;
  repo::ShardedRepository repository(
      [&options](uint32_t) {
        return std::make_unique<core::PpqTrajectory>(options);
      },
      repo_options);
  repository.Compress(*dataset);
  for (uint32_t shard = 0; shard < repository.num_shards(); ++shard) {
    std::printf("  shard %u: %zu trajectories, %zu summary bytes\n", shard,
                repository.shard(shard).RecordSpans().size(),
                repository.shard(shard).SummaryBytes());
  }

  // 3. Seal (parallel) and persist the whole repository as a directory:
  //    one snapshot container per shard plus the manifest, written last.
  const std::string dir =
      std::filesystem::temp_directory_path() / "ppq_example_repository";
  std::filesystem::remove_all(dir);
  const Status saved = repository.SaveAll(dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "SaveAll failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("saved repository to %s (%u shards + manifest)\n", dir.c_str(),
              repository.num_shards());

  // 4. Reopen it cold, exactly as a restarted serving process would. A
  //    corrupted manifest or shard file would surface here as a clean
  //    Status error.
  auto opened = repo::OpenRepository(dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "OpenRepository failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::printf("reopened: %u shards, %zu trajectories, %zu summary bytes\n",
              (*opened)->num_shards(), (*opened)->NumTrajectories(),
              (*opened)->SummaryBytes());

  // 5. Scatter-gather serving over the reopened seal: STRQ/window scatter
  //    to every shard and union-merge; k-NN re-merges per-shard top-k by
  //    (distance, id); TPQ paths come from each id's owning shard.
  core::QueryService::Options serve_options;
  serve_options.num_threads = 4;
  serve_options.raw = dataset;  // owned: exact mode cannot dangle
  serve_options.cell_size = options.tpi.pi.cell_size;
  core::QueryService service((*opened)->shards(), serve_options);

  Rng rng(7);
  std::vector<core::QueryRequest> requests;
  for (const auto& q : core::SampleQueries(*dataset, 64, &rng)) {
    requests.push_back(core::StrqRequest{q, core::StrqMode::kExact});
  }
  for (const auto& q : core::SampleQueries(*dataset, 16, &rng)) {
    requests.push_back(core::KnnRequest{q, /*k=*/4});
  }
  auto futures = service.SubmitBatch(std::move(requests));

  size_t total_hits = 0, total_neighbors = 0, points_decoded = 0;
  for (auto& future : futures) {
    const core::QueryResponse response = future.get();
    if (response.kind == core::QueryKind::kStrq) {
      total_hits += response.strq().ids.size();
    } else {
      total_neighbors += response.neighbors().size();
    }
    points_decoded += response.stats.points_decoded;
  }
  std::printf("service: %zu async queries scattered over %u shards -> %zu "
              "STRQ matches, %zu neighbors (%zu points decoded)\n",
              futures.size(), (*opened)->num_shards(), total_hits,
              total_neighbors, points_decoded);

  std::filesystem::remove_all(dir);
  return 0;
}
