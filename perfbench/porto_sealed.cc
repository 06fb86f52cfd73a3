/// porto-sealed: the paper's setting. One PPQ-A compressor (error-bounded,
/// CQC) encodes a Porto-like stream tick by tick and seals it; the seal is
/// saved, reopened with core::OpenSnapshot, and served by a 2-worker
/// core::QueryService under a closed loop of 4 requests in flight. No WAL,
/// no seal under ingest, no merge: encoder and read-path changes show
/// here, durability and merge changes do not.
///
/// The pipeline runs in rounds: make the inputs, build and seal them, save
/// (first round only), reopen, and serve the reopened seal under the
/// closed loop. Then the oracles run and the figures are reported.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/ppq_trajectory.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "core/serialization.h"
#include "harness.h"

namespace ppq::perfbench {
namespace {

constexpr size_t kTrajectories = 375;
constexpr size_t kRequests = 4000;
constexpr size_t kWorkers = 2;
/// Every figure is taken in kRounds rounds, each of which repeats set-up,
/// ingest, reopen and a share of the closed loop, so each figure averages
/// the host's speed over the whole run. Of --seconds, kIngestShare goes
/// to ingest and the rest to serving. Per round, reopen runs at least
/// kReopenReps times and for kReopenSeconds / kRounds, and the service is
/// constructed kConstructReps times.
constexpr int kRounds = 4;
constexpr double kIngestShare = 0.4;
constexpr int kReopenReps = 2;
constexpr double kReopenSeconds = 2.0;
constexpr int kConstructReps = 3;

struct Inputs {
  std::shared_ptr<const TrajectoryDataset> data;
  std::vector<TimeSlice> slices;
  std::vector<Item> requests;
  ApproxSample approx;
};

Inputs MakeInputs(const Args& args) {
  Inputs in;
  auto data = std::make_shared<TrajectoryDataset>(MakePorto(
      kDataSeed, static_cast<int>(Scaled(kTrajectories, args.scale))));
  for (Tick t = data->MinTick(); t < data->MaxTick(); ++t) {
    TimeSlice slice = data->SliceAt(t);
    if (!slice.empty()) in.slices.push_back(std::move(slice));
  }
  in.requests = MakeMixedRequests(*data, kRequests, args.seed);
  in.approx = MakeApproxSample(*data, kApproxQueries, args.seed);
  in.data = std::move(data);
  return in;
}

std::unique_ptr<core::QueryService> NewService(
    const core::SnapshotPtr& snapshot,
    const std::shared_ptr<const TrajectoryDataset>& raw) {
  core::QueryService::Options options;
  options.num_threads = kWorkers;
  options.raw = raw;
  options.cell_size = kCellSize;
  return std::make_unique<core::QueryService>(snapshot, options);
}

/// The porto-live write-path layers, 0 here: this workload has no WAL, no
/// live repository and no merge.
void ReportLiveOnlyLayers(Report& report) {
  report.Layer("repo.append_p50_us", 0, "us", "ingest_points_per_s");
  report.Layer("repo.append_p99_us", 0, "us", "ingest_points_per_s");
  report.Layer("repo.roll_wait_us", 0, "us", "ingest_points_per_s");
  report.Layer("repo.quiesce_s", 0, "s", "ingest_points_per_s");
  report.Layer("repo.wal_syncs", 0, "count", "ingest_points_per_s");
  report.Layer("repo.wal_bytes_per_point", 0, "B/pt", "disk_bytes_per_point");
  report.Layer("repo.wal_generations", 0, "count", "disk_bytes_per_point");
}

}  // namespace

void RunPortoSealed(const Args& args, Tracer& tracer, Report& report) {
  Inputs in;
  Figures f;
  std::vector<double> setup_s;
  std::vector<double> construct_s;
  std::vector<double> ingest_s;
  std::vector<double> seal_s;
  std::vector<double> reopen_s;
  EncoderTotals encoders;
  core::SnapshotPtr sealed;
  core::SnapshotPtr reopened;
  LoopResult loop;
  const std::string dir = args.dir + "/sealed";
  const std::string path = dir + "/porto.snapshot";
  const double ingest_seconds = args.seconds * kIngestShare / kRounds;
  const double serve_seconds = args.seconds * (1.0 - kIngestShare) / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    // --- setup: inputs, request list and oracles --------------------------
    const std::vector<double> setup = Repeat(1, kSetupSeconds / kRounds, [&] {
      in = MakeInputs(args);
      return true;
    });
    setup_s.insert(setup_s.end(), setup.begin(), setup.end());

    // --- ingest: encode + seal; the encoder's construction is not timed ---
    Repeat(1, ingest_seconds, [&] {
      auto encoder = std::make_unique<core::PpqTrajectory>(PpqAOptions());
      const double t0 = NowSeconds();
      for (const TimeSlice& slice : in.slices) {
        ScopedSpan span(tracer, "core.encode_tick");
        encoder->ObserveSlice(slice);
      }
      encoder->Finish();
      const double t1 = NowSeconds();
      {
        ScopedSpan span(tracer, "core.seal");
        sealed = encoder->Seal();
      }
      const double t2 = NowSeconds();
      ingest_s.push_back(t2 - t0);
      seal_s.push_back(t2 - t1);
      report.Attempt(in.slices.size() + 1);
      SampleThreads();
      encoders = EncoderTotals{};
      encoders.Add(*encoder);
      return true;
    });

    // --- persist (once) + reopen ------------------------------------------
    if (round == 0) {
      ResetDirectory(dir);
      report.Attempt();
      if (Status st = sealed->Save(path); !st.ok()) {
        report.Fail("Save: " + st.ToString());
        return;
      }
      f.disk_bytes = static_cast<double>(
          DirectoryBytes(dir, [](const std::string&) { return true; }));
    }
    bool opened = false;
    const std::vector<double> reopen =
        Repeat(kReopenReps, kReopenSeconds / kRounds, [&] {
          ScopedSpan span(tracer, "core.open");
          Result<core::SnapshotPtr> snapshot = core::OpenSnapshot(path);
          report.Attempt();
          opened = snapshot.ok();
          if (!opened) {
            report.Fail("OpenSnapshot: " + snapshot.status().ToString());
            return false;
          }
          reopened = *snapshot;
          SampleThreads();
          return true;
        });
    if (!opened) return;
    reopen_s.insert(reopen_s.end(), reopen.begin(), reopen.end());

    // --- serve: closed loop against the reopened seal -----------------------
    std::unique_ptr<core::QueryService> service;
    for (int i = 0; i < kConstructReps; ++i) {
      service.reset();
      const double t0 = NowSeconds();
      service = NewService(reopened, in.data);
      construct_s.push_back(NowSeconds() - t0);
    }
    SampleThreads();
    RunClosedLoop(*service, in.requests, 2 * kWorkers, serve_seconds, tracer,
                  report, loop);
    if (round == 0) f.approx = ApproxPrecisionRecall(*service, in.approx, report);
  }
  const TrajectoryDataset& data = *in.data;
  f.points = static_cast<double>(data.TotalPoints());
  f.setup_s = Median(setup_s) + Median(construct_s);
  f.ingest_s = Mean(ingest_s);
  f.reopen_s = Mean(reopen_s);
  f.p50_us = Percentile(loop.latency_us, 0.50);
  f.p99_us = Percentile(loop.latency_us, 0.99);
  f.completions = static_cast<double>(loop.completions);
  f.serve_wall_s = loop.wall_s;
  std::printf("[porto-sealed] %zu trajectories, %.0f points, %zu requests; "
              "setup: inputs %.6f s (median of %zu), service %.6f s\n",
              data.size(), f.points, in.requests.size(), Median(setup_s),
              setup_s.size(), Median(construct_s));

  // --- oracles outside the timed phases --------------------------------------
  const core::QueryEngine serial(reopened, &data, kCellSize);
  for (size_t i = 0; i < in.requests.size(); ++i) {
    report.Attempt();
    if (!SamePayload(loop.first_responses[i],
                     SerialResponse(serial, in.requests[i].request))) {
      report.Fail("response " + std::to_string(i) +
                  " differs from the serial QueryEngine");
    }
  }
  f.mae_m = SnapshotMaeMeters(
      data, [&](TrajId) { return reopened.get(); }, report);
  f.summary_bytes = static_cast<double>(reopened->SummaryBytes());
  f.seals = 1;
  f.codewords = encoders.codewords;
  f.tpi_periods = encoders.tpi_periods;
  f.candidates = loop.first_pass.candidates;
  f.points_decoded = loop.first_pass.points_decoded;
  ReportFigures(f, report);
  std::printf("[porto-sealed] %zu ingests, served %zu requests in %.2f s\n",
              ingest_s.size(), loop.completions, loop.wall_s);
  if (!tracer.enabled()) return;

  // --- per-layer metrics (traced run) ---------------------------------------
  ReportEncoderLayers(encoders, f.points, report);
  report.Layer("core.encode_s", Sum(tracer.DurationsUs("core.encode_tick")) *
                                    1e-6 / static_cast<double>(ingest_s.size()),
               "s", "ingest_points_per_s");
  report.Layer("core.seal_s", Median(seal_s), "s", "ingest_points_per_s");
  const double container_bytes =
      static_cast<double>(std::filesystem::file_size(path));
  report.Layer("index.disk_bytes_per_point",
               static_cast<double>(ContainerIndexBytes(path, report)) / f.points,
               "B/pt", "disk_bytes_per_point");
  report.Layer("repo.container_bytes_per_point", container_bytes / f.points,
               "B/pt", "disk_bytes_per_point");
  report.Layer("repo.seals", f.seals, "count", "ingest_points_per_s");
  ReportLiveOnlyLayers(report);
  ReportServeLayers(loop.all, loop.first_pass,
                    loop.completions == 0
                        ? 0.0
                        : loop.serve_cpu_s * 1e6 /
                              static_cast<double>(loop.completions),
                    tracer, report);
}

}  // namespace ppq::perfbench
