/// \file live_ingest.cpp
/// Ingest-while-serving tour of the streaming repository (src/repo/):
///   1. generate a Porto-like vehicle stream,
///   2. open a DURABLE LiveRepository on a directory — every batch is
///      hash-split across shards, write-ahead logged, and queryable from
///      the raw tail the moment Append returns; shards roll their active
///      segment into a background Seal() (persisting the container and
///      rotating the log) whenever it crosses the watermark,
///   3. query MID-STREAM through a QueryService: answers come from
///      the union of each shard's last sealed summary and its raw tail,
///      so an exact-mode STRQ at the ingest frontier is never stale —
///      QueryStats::seal_epoch reports the freshness floor it drew on,
///   4. "crash" at midday — drop the repository with no Quiesce, no
///      manual save — then OpenLiveRepository the same directory: the
///      WAL replay resumes the exact pre-crash state and the afternoon
///      ingest just continues,
///   5. RollAll() + Quiesce() to cut every shard; the sealed containers
///      and manifest are already on disk (SealedSnapshot() still works
///      for phased export of a memory-only repository).
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/live_ingest

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "datagen/generator.h"
#include "core/query_service.h"
#include "repo/live_repository.h"

int main() {
  using namespace ppq;

  // 1. A day of vehicle positions, shared with the serving stack.
  datagen::GeneratorOptions gen_options;
  gen_options.num_trajectories = 300;
  gen_options.horizon = 200;
  gen_options.max_length = 150;
  gen_options.seed = 2026;
  const auto fleet = std::make_shared<const TrajectoryDataset>(
      datagen::PortoLikeGenerator(gen_options).Generate());
  std::printf("stream: %zu vehicles, %zu points over %d ticks\n",
              fleet->size(), fleet->TotalPoints(), fleet->MaxTick() + 1);

  // 2. A 2-shard durable live repository: identically configured PPQ-A
  //    encoders, a background seal every 25 ticks of active segment, the
  //    WAL group-committed every 8 appends.
  const core::PpqOptions options = core::MakePpqA();
  const auto factory = [&options](uint32_t) {
    return std::make_unique<core::PpqTrajectory>(options);
  };
  repo::LiveRepository::Options live_options;
  live_options.num_shards = 2;
  live_options.watermark_ticks = 25;
  live_options.wal_sync_interval = 8;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ppq_live_ingest").string();
  std::filesystem::remove_all(dir);

  auto opened = repo::OpenLiveRepository(dir, factory, live_options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  // Move the handle OUT of the Result: the midday "crash" below relies on
  // live.reset() dropping the LAST reference — a copy left behind in
  // `opened` would keep the first instance (and its background seals)
  // alive and writing while the recovery open reads the same directory.
  std::shared_ptr<repo::LiveRepository> live = std::move(*opened);
  std::printf("durable repository at %s\n", dir.c_str());

  // 3. Serving starts BEFORE ingest: the service answers from whatever
  //    each shard has published (initially two empty seals).
  core::QueryService::Options serve_options;
  serve_options.num_threads = 2;
  serve_options.raw = fleet;  // exact-mode verification for sealed points
  serve_options.cell_size = options.tpi.pi.cell_size;
  auto service = std::make_unique<core::QueryService>(live, serve_options);

  // Stream the morning. At a few checkpoints, ask "who shares a grid
  // cell with vehicle 42 right now?" — at the ingest frontier, so part
  // of the answer is still raw tail, part already-sealed summary.
  const Trajectory& probe = (*fleet)[42];
  const Tick midday = fleet->MaxTick() / 2;
  const auto ingest_range = [&](std::shared_ptr<repo::LiveRepository>& repo,
                                Tick from, Tick to) -> bool {
    for (Tick t = from; t <= to; ++t) {
      const PointBatch batch = fleet->BatchAt(t);
      if (!batch.empty()) {
        const Status status = repo->Append(batch);
        if (!status.ok()) {
          std::fprintf(stderr, "Append failed: %s\n",
                       status.ToString().c_str());
          return false;
        }
      }
      if ((t + 1) % 50 == 0 && probe.ActiveAt(t)) {
        const core::QueryResponse response =
            service
                ->Submit(core::StrqRequest{core::QuerySpec{probe.At(t), t},
                                           core::StrqMode::kExact})
                .get();
        size_t tail_points = 0;
        for (uint32_t shard = 0; shard < repo->num_shards(); ++shard) {
          tail_points += repo->ShardView(shard)->tail_points;
        }
        std::printf("  @t=%d: %zu vehicles in the cell (seal_epoch=%llu, "
                    "%zu points still in raw tails)\n",
                    t, response.strq().ids.size(),
                    static_cast<unsigned long long>(
                        response.stats.seal_epoch),
                    tail_points);
      }
    }
    return true;
  };
  if (!ingest_range(live, 0, midday)) return 1;

  // 4. The midday "crash": make the morning durable (SyncWal bounds the
  //    loss window to zero), then drop everything — no RollAll, no
  //    Quiesce, no manual save. The WAL is the only safety net.
  if (!live->SyncWal().ok()) {
    std::fprintf(stderr, "SyncWal failed\n");
    return 1;
  }
  const size_t morning_points = live->TotalPointsAppended();
  service.reset();
  live.reset();
  std::printf("-- crash at t=%d with %zu points ingested --\n", midday,
              morning_points);

  auto reopened = repo::OpenLiveRepository(dir, factory, live_options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  live = std::move(*reopened);
  service = std::make_unique<core::QueryService>(live, serve_options);
  std::printf("recovered %zu of %zu points (%s)\n",
              live->TotalPointsAppended(), morning_points,
              live->TotalPointsAppended() == morning_points ? "all of them"
                                                            : "MISMATCH");

  // The afternoon ingest resumes against the replayed encoders as if
  // nothing happened.
  if (!ingest_range(live, midday + 1, fleet->MaxTick())) return 1;

  // 5. End of day: cut every shard. In durable mode the sealed
  //    containers and manifest land in `dir` as part of the seal; the
  //    phased SealedSnapshot() assembly below is the memory-only export
  //    path and keeps working here too.
  live->RollAll();
  live->Quiesce();
  const repo::RepositorySnapshotPtr sealed = live->SealedSnapshot();
  std::printf("after RollAll: %llu seals on the slowest shard, %zu "
              "trajectories sealed, %.1f KB summary\n",
              static_cast<unsigned long long>(live->MinSealEpoch()),
              sealed->NumTrajectories(),
              static_cast<double>(sealed->SummaryBytes()) / 1024.0);

  // Everything is sealed now (empty tails), and the same service keeps
  // answering — this time entirely from summaries.
  const Tick evening = fleet->MaxTick();
  const auto& active = fleet->ActiveIdsAt(evening);
  if (!active.empty()) {
    const Trajectory& witness = (*fleet)[static_cast<size_t>(active.front())];
    const core::QueryResponse response =
        service
            ->Submit(core::StrqRequest{
                core::QuerySpec{witness.At(evening), evening},
                core::StrqMode::kExact})
            .get();
    std::printf("sealed STRQ @t=%d: %zu vehicles, seal_epoch=%llu\n",
                evening, response.strq().ids.size(),
                static_cast<unsigned long long>(response.stats.seal_epoch));
  }
  return 0;
}
