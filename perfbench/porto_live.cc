/// porto-live: the write path. One producer streams a Porto-like workload
/// tick by tick into a durable 4-shard repo::LiveRepository (WAL with the
/// default group commit, one background seal worker, watermarks off,
/// RollAll at fixed ticks). Halfway through every roll period the producer
/// waits for the seals in flight (Quiesce) and then, as a closed-loop
/// client with 1 request in flight, asks a fixed burst of requests about
/// the newest ticks through a 1-worker repo::LiveQueryService. Each cycle
/// ends with RollAll + Quiesce, a close, and an OpenLiveRepository replay;
/// cycles repeat for the measured seconds and the figures pool every
/// cycle. Every cycle does the same work: the same appends, rolls, seals
/// and requests, against the same repository state.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/ppq_trajectory.h"
#include "harness.h"
#include "repo/live_query_service.h"
#include "repo/live_repository.h"

namespace ppq::perfbench {
namespace {

constexpr size_t kTrajectories = 375;
constexpr uint32_t kShards = 4;
constexpr size_t kSealWorkers = 1;
constexpr size_t kQueryWorkers = 1;
/// RollAll after every tick t with (t + 1) % kRollEvery == 0, then once
/// more at the end: the seal count is a function of the input alone.
constexpr Tick kRollEvery = 32;
constexpr size_t kWalSyncInterval = 32;
/// A burst follows every tick t with (t + 1) % kRollEvery == kRollEvery / 2
/// once kTrailingTicks ticks are in. It asks one round of the mix about
/// every kBurstStride-th tick of the newest kTrailingTicks: the ticks since
/// the last RollAll, read from the raw tail, and the roll periods before,
/// read from the newest seals (whose decode memo the service resets at
/// every seal). 8 rounds of 8, so 64 requests per burst and 11 bursts per
/// cycle.
constexpr Tick kTrailingTicks = 2 * kRollEvery;
constexpr Tick kBurstStride = 8;
constexpr size_t kSweepRequests = 400;
constexpr int kMinCycles = 5;

struct Inputs {
  std::shared_ptr<const TrajectoryDataset> data;
  std::vector<PointBatch> batches;  ///< one per tick from data->MinTick()
  /// The burst asked after batches[i] (empty for most i).
  std::vector<std::vector<Item>> bursts;
  std::vector<Item> sweep;  ///< post-roll checks
  std::vector<Item> replay_sweep;  ///< the sweep without k-NN, after replay
  ApproxSample approx;
};

Inputs MakeInputs(const Args& args) {
  Inputs in;
  auto data = std::make_shared<TrajectoryDataset>(MakePorto(
      kDataSeed, static_cast<int>(Scaled(kTrajectories, args.scale))));
  const Tick first = data->MinTick();
  for (Tick t = first; t < data->MaxTick(); ++t) {
    in.batches.push_back(data->BatchAt(t));
    std::vector<Item>& burst = in.bursts.emplace_back();
    if ((t + 1) % kRollEvery != kRollEvery / 2 ||
        t + 1 - first < kTrailingTicks) {
      continue;
    }
    for (Tick back = 0; back < kTrailingTicks; back += kBurstStride) {
      std::vector<Item> round = MakeRoundAt(*data, t - back, args.seed);
      std::move(round.begin(), round.end(), std::back_inserter(burst));
    }
  }
  in.sweep = MakeMixedRequests(*data, kSweepRequests, args.seed);
  for (const Item& item : in.sweep) {
    if (!std::holds_alternative<core::KnnRequest>(item.request)) {
      in.replay_sweep.push_back(item);
    }
  }
  in.approx = MakeApproxSample(*data, kApproxQueries, args.seed);
  in.data = std::move(data);
  return in;
}

repo::LiveRepository::Options LiveOptions() {
  repo::LiveRepository::Options options;
  options.num_shards = kShards;
  options.num_threads = kSealWorkers;
  options.watermark_ticks = 0;
  options.watermark_points = std::numeric_limits<size_t>::max();
  options.wal_sync_interval = kWalSyncInterval;
  return options;
}

repo::LiveQueryService::Options ServeOptions(const Inputs& in) {
  repo::LiveQueryService::Options options;
  options.num_threads = kQueryWorkers;
  options.raw = in.data;
  options.cell_size = kCellSize;
  return options;
}

/// What the bursts measured, pooled over every cycle.
struct ClientResult {
  std::vector<double> latency_us;
  size_t completions = 0;
  /// Sum of the submit-to-resolve times: the client's wall time less the
  /// time it spent checking answers.
  double wall_s = 0;
  ServeTotals totals;
};

/// Ask \p items one at a time (1 request in flight). The client polls the
/// answer rather than sleeping on it, so its own wake-up is not part of the
/// latency. Each answer is checked after its latency is stamped and before
/// the next request goes out.
void Burst(core::QueryBackend& service, const std::vector<Item>& items,
           Tracer& tracer, Report& report, ClientResult& out) {
  for (const Item& item : items) {
    const auto id = static_cast<int64_t>(out.completions);
    report.Attempt();
    const uint64_t t0 = NowNanos();
    std::future<core::QueryResponse> answer = service.Submit(item.request);
    while (answer.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      std::this_thread::yield();
    }
    const uint64_t t1 = NowNanos();
    const core::QueryResponse response = answer.get();
    out.latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    out.wall_s += static_cast<double>(t1 - t0) * 1e-9;
    ++out.completions;
    RecordRequestSpans(tracer, core::KindOf(item.request), t0, t1,
                       response.stats, id);
    const std::string why = CheckResponse(item, response);
    if (!why.empty()) report.Fail("at the frontier: " + why);
    out.totals.Add(item, response);
  }
}

struct SweepResult {
  ServeTotals totals;
  /// CPU of every thread but the caller's, per request. Nothing else runs
  /// during a sweep, so this is the serving worker's cost.
  double serve_cpu_us = 0;
};

/// Serve \p items one at a time and check each against its oracle.
SweepResult Sweep(core::QueryBackend& service, const std::vector<Item>& items,
                  const char* phase, Report& report) {
  SweepResult out;
  const double caller_cpu0 = ThreadCpuSeconds();
  const double cpu0 = ProcessCpuSeconds();
  for (const Item& item : items) {
    report.Attempt();
    const core::QueryResponse response = service.Submit(item.request).get();
    const std::string why = CheckResponse(item, response);
    if (!why.empty()) report.Fail(std::string(phase) + ": " + why);
    out.totals.Add(item, response);
  }
  const double cpu =
      (ProcessCpuSeconds() - cpu0) - (ThreadCpuSeconds() - caller_cpu0);
  out.serve_cpu_us = cpu * 1e6 / static_cast<double>(std::max<size_t>(1, items.size()));
  return out;
}

}  // namespace

void RunPortoLive(const Args& args, Tracer& tracer, Report& report) {
  // --- setup: inputs, request lists and oracles ---------------------------
  Inputs in;
  // Set-up is timed in two halves, before and after the cycles, so it
  // samples the host over the whole run.
  std::vector<double> setup_s = Repeat(1, kSetupSeconds / 2, [&] {
    in = MakeInputs(args);
    return true;
  });
  const TrajectoryDataset& data = *in.data;
  const size_t total_points = data.TotalPoints();
  Figures f;
  f.points = static_cast<double>(total_points);
  std::printf("[porto-live] %zu trajectories, %.0f points, %zu ticks\n",
              data.size(), f.points, in.batches.size());

  const std::string dir = args.dir + "/live";
  std::vector<const core::PpqTrajectory*> encoders;
  const repo::LiveRepository::CompressorFactory factory = [&](uint32_t) {
    auto encoder = std::make_unique<core::PpqTrajectory>(PpqAOptions());
    encoders.push_back(encoder.get());
    return encoder;
  };

  std::vector<double> open_s;
  std::vector<double> ingest_s;
  std::vector<double> reopen_s;
  std::vector<double> quiesce_s;
  std::vector<double> seal_s;
  std::vector<double> wal_syncs;
  ClientResult client;
  SweepResult sweep;
  double wal_bytes = 0;
  double container_bytes = 0;
  double index_bytes = 0;
  EncoderTotals encoder_totals;

  const double measure_start = NowSeconds();
  for (int cycle = 0;
       cycle < kMinCycles || NowSeconds() - measure_start < args.seconds;
       ++cycle) {
    // --- open a fresh durable repository and its service -----------------
    ResetDirectory(dir);
    encoders.clear();
    const double open_t0 = NowSeconds();
    std::shared_ptr<repo::LiveRepository> live;
    {
      Result<std::shared_ptr<repo::LiveRepository>> opened =
          repo::LiveRepository::Open(dir, factory, LiveOptions());
      report.Attempt();
      if (!opened.ok()) {
        report.Fail("LiveRepository::Open: " + opened.status().ToString());
        return;
      }
      live = std::move(*opened);
    }
    auto service =
        std::make_unique<repo::LiveQueryService>(live, ServeOptions(in));
    open_s.push_back(NowSeconds() - open_t0);
    const HistogramTotals syncs0 = RegistryHistogram("ppq_wal_sync_micros");
    const HistogramTotals seals0 = RegistryHistogram("ppq_ingest_seal_micros");

    // --- ingest, with a burst of requests halfway through each period ------
    double burst_s = 0;
    double waited_s = 0;
    const auto quiesce = [&] {
      const double q0 = NowSeconds();
      ScopedSpan span(tracer, "repo.quiesce");
      live->Quiesce();
      waited_s += NowSeconds() - q0;
    };
    const double t0 = NowSeconds();
    for (size_t i = 0; i < in.batches.size(); ++i) {
      const PointBatch& batch = in.batches[i];
      if (!batch.empty()) {
        report.Attempt();
        Status st;
        {
          ScopedSpan span(tracer, "repo.append");
          st = live->Append(batch);
        }
        if (!st.ok()) report.Fail("Append rejected: " + st.ToString());
      }
      if ((batch.tick + 1) % kRollEvery == 0) {
        ScopedSpan span(tracer, "repo.roll_all");
        live->RollAll();
      }
      if (!in.bursts[i].empty()) {
        // The seals in flight land first, so every burst meets the same
        // repository state; the wait is write-path work and stays in
        // the ingest time.
        quiesce();
        const double b0 = NowSeconds();
        Burst(*service, in.bursts[i], tracer, report, client);
        burst_s += NowSeconds() - b0;
        SampleThreads();
      }
      if (i % 32 == 0) SampleThreads();
    }
    {
      ScopedSpan span(tracer, "repo.roll_all");
      live->RollAll();
    }
    quiesce();
    ingest_s.push_back(NowSeconds() - t0 - burst_s);
    quiesce_s.push_back(waited_s);
    SampleThreads();
    if (!live->DurabilityError().ok()) {
      report.Fail("durability: " + live->DurabilityError().ToString());
    }

    // --- checks and counters of the final seal (untimed) -------------------
    sweep = Sweep(*service, in.sweep, "after the final roll", report);
    // Every cycle ingests the same stream: its final seal, and with it
    // the approximate answers, repeat, so they are scored once.
    if (cycle == 0) f.approx = ApproxPrecisionRecall(*service, in.approx, report);
    const repo::RepositorySnapshotPtr sealed = live->SealedSnapshot();
    const repo::ShardMap& map = sealed->shard_map();
    f.mae_m = SnapshotMaeMeters(
        data, [&](TrajId id) { return sealed->shard(map.ShardOf(id)).get(); },
        report);
    seal_s.push_back(
        (RegistryHistogram("ppq_ingest_seal_micros").sum - seals0.sum) * 1e-6);
    wal_syncs.push_back(RegistryHistogram("ppq_wal_sync_micros").count -
                        syncs0.count);
    f.seals = 0;
    for (uint32_t shard = 0; shard < kShards; ++shard) {
      f.seals += static_cast<double>(live->ShardView(shard)->seal_epoch);
    }
    encoder_totals = EncoderTotals{};
    for (const core::PpqTrajectory* encoder : encoders) {
      encoder_totals.Add(*encoder);
    }

    // --- close, then measure what was persisted ---------------------------
    service.reset();
    live.reset();
    const auto starts_with = [](const std::string& s, const char* prefix) {
      return s.rfind(prefix, 0) == 0;
    };
    f.disk_bytes = static_cast<double>(
        DirectoryBytes(dir, [](const std::string&) { return true; }));
    wal_bytes = static_cast<double>(DirectoryBytes(
        dir, [&](const std::string& s) { return starts_with(s, "wal-"); }));
    container_bytes = static_cast<double>(DirectoryBytes(
        dir, [&](const std::string& s) { return starts_with(s, "shard-"); }));
    f.wal_generations = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().filename().string().find(".gen-") != std::string::npos) {
        f.wal_generations += 1;
      }
    }
    index_bytes = 0;
    if (tracer.enabled()) {
      for (uint32_t shard = 0; shard < kShards; ++shard) {
        index_bytes += static_cast<double>(ContainerIndexBytes(
            dir + "/" + repo::ShardSnapshotFileName(shard), report));
      }
    }

    // --- recovery: replay every generation, then re-check -----------------
    encoders.clear();
    const double r0 = NowSeconds();
    {
      Result<std::shared_ptr<repo::LiveRepository>> reopened = [&] {
        ScopedSpan span(tracer, "repo.open_live");
        return repo::OpenLiveRepository(dir, factory, LiveOptions());
      }();
      reopen_s.push_back(NowSeconds() - r0);
      report.Attempt();
      if (!reopened.ok()) {
        report.Fail("OpenLiveRepository: " + reopened.status().ToString());
        return;
      }
      live = std::move(*reopened);
    }
    SampleThreads();
    report.Attempt();
    if (live->TotalPointsAppended() != total_points) {
      report.Fail("replay recovered " +
                  std::to_string(live->TotalPointsAppended()) + " of " +
                  std::to_string(total_points) + " points");
    }
    service = std::make_unique<repo::LiveQueryService>(live, ServeOptions(in));
    Sweep(*service, in.replay_sweep, "after replay", report);
    service.reset();
    live.reset();
  }

  const std::vector<double> later = Repeat(1, kSetupSeconds / 2, [&] {
    const Inputs again = MakeInputs(args);
    return true;
  });
  setup_s.insert(setup_s.end(), later.begin(), later.end());
  f.setup_s = Median(setup_s) + Median(open_s);
  std::printf("[porto-live] setup: inputs %.6f s (median of %zu), open %.6f s\n",
              Median(setup_s), setup_s.size(), Median(open_s));
  f.p50_us = Percentile(client.latency_us, 0.50);
  f.p99_us = Percentile(client.latency_us, 0.99);
  f.completions = static_cast<double>(client.completions);
  f.serve_wall_s = client.wall_s;
  f.ingest_s = Mean(ingest_s);
  f.summary_bytes = static_cast<double>(encoder_totals.size.Total());
  f.reopen_s = Mean(reopen_s);
  f.codewords = encoder_totals.codewords;
  f.tpi_periods = encoder_totals.tpi_periods;
  f.candidates = sweep.totals.candidates;
  f.points_decoded = sweep.totals.points_decoded;
  ReportFigures(f, report);
  std::printf("[porto-live] %zu cycles, %.0f frontier requests, seals=%.0f "
              "wal_generations=%.0f\n",
              ingest_s.size(), f.completions, f.seals, f.wal_generations);
  if (!tracer.enabled()) return;

  // --- per-layer metrics (traced run) ---------------------------------------
  ReportEncoderLayers(encoder_totals, f.points, report);
  const std::vector<double> append_us = tracer.DurationsUs("repo.append");
  report.Layer("core.encode_s", Sum(append_us) * 1e-6 /
                                    static_cast<double>(ingest_s.size()),
               "s", "ingest_points_per_s");
  report.Layer("core.seal_s", Median(seal_s), "s", "ingest_points_per_s");
  report.Layer("index.disk_bytes_per_point", index_bytes / f.points, "B/pt",
               "disk_bytes_per_point");
  report.Layer("repo.container_bytes_per_point", container_bytes / f.points,
               "B/pt", "disk_bytes_per_point");
  report.Layer("repo.seals", f.seals, "count", "ingest_points_per_s");
  report.Layer("repo.append_p50_us", Percentile(append_us, 0.50), "us",
               "ingest_points_per_s");
  report.Layer("repo.append_p99_us", Percentile(append_us, 0.99), "us",
               "ingest_points_per_s");
  report.Layer("repo.roll_wait_us",
               Median(tracer.DurationsUs("repo.roll_all")), "us",
               "ingest_points_per_s");
  report.Layer("repo.quiesce_s", Median(quiesce_s), "s",
               "ingest_points_per_s");
  report.Layer("repo.wal_syncs", Median(wal_syncs), "count",
               "ingest_points_per_s");
  report.Layer("repo.wal_bytes_per_point", wal_bytes / f.points, "B/pt",
               "disk_bytes_per_point");
  report.Layer("repo.wal_generations", f.wal_generations, "count",
               "disk_bytes_per_point");
  ReportServeLayers(client.totals, sweep.totals, sweep.serve_cpu_us, tracer,
                    report);
}

}  // namespace ppq::perfbench
