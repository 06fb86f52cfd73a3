/// \file bench_live.cc
/// Ingest-while-serving benchmark: stream a Porto-like workload into a
/// LiveRepository from --ingestors=N concurrent producer threads (default
/// 2, lockstep per tick so every tick is fully appended before the ingest
/// frontier advances) while --submitters=N closed-loop threads (default
/// 4) drive a QueryService over it with a mixed STRQ / window / k-NN / TPQ
/// stream. A request is submitted only once the frontier has reached its
/// query tick; every exact-mode STRQ and window response is then checked
/// against QueryEngine ground truth over the FULL dataset — valid mid
/// -ingest because ticks at or behind the frontier are completely
/// appended, the sealed \cup tail union is exact, and later ticks cannot
/// change a tick-t answer. That is the one-watermark freshness oracle:
/// responses may be served from a seal at most one watermark behind, yet
/// must still be ground-truth exact for everything already ingested.
///
/// After ingest completes, RollAll + Quiesce cut every shard and the
/// whole workload is re-served from the sealed state (same oracle, no
/// frontier gate), so both the live path and the post-roll path are
/// gated.
///
/// Output: shared [throughput] lines (phase=ingest/serve), per-kind and
/// aggregate [latency] lines for the concurrent phase (same shape as
/// bench_serve --mixed), and one final machine-parseable line:
///   [live] shards=4 ingestors=2 submitters=4 watermark_ticks=16
///          points=240000 points_per_sec=513000 served=5100 qps=12000
///          seals=12 checked=2600 identical=yes
/// The process exits non-zero if any gated response diverges from ground
/// truth (or no gated response was ever checked).
///
/// Durable modes (--dir=PATH):
///   --dir alone          run the full bench against a durable (WAL-backed)
///                        repository rooted at PATH (freshly initialised).
///   --crash-after-ticks=N  ingest ticks [0, N], SyncWal, then _Exit(2) —
///                        no shutdown, no destructors, background seals
///                        killed mid-flight: a process-kill crash image.
///   --recover            reopen PATH, verify the recovered frontier
///                        (point counts + exact-mode gates vs ground
///                        truth), resume ingest past N, cut, re-gate the
///                        whole workload, and print the CI gate line:
///                        [recover] ... identical=yes
/// The crash/recover pair must be invoked with identical dataset flags
/// (and the same --crash-after-ticks) so both runs derive the same
/// deterministic stream and workload.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "common/geo.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/metrics.h"
#include "core/query_engine.h"
#include "obs/metrics.h"
#include "core/query_service.h"
#include "repo/live_repository.h"

namespace ppq::bench {
namespace {

constexpr size_t kKnnK = 8;
constexpr int kTpqLength = 8;
constexpr size_t kNoTruth = static_cast<size_t>(-1);

/// Reusable rendezvous for the lockstep ingest threads (C++17 has no
/// std::barrier): the last arriver of each generation runs \p on_complete
/// before releasing the others — that is where the frontier is published,
/// so a tick is visible to the gate only after every producer appended
/// its share of it.
class TickBarrier {
 public:
  explicit TickBarrier(size_t parties) : parties_(parties) {}

  template <typename Fn>
  void ArriveAndWait(Fn&& on_complete) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      on_complete();
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != generation; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parties_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
};

/// One mixed request plus the tick the frontier must reach before it may
/// be submitted, and (for the exact-mode gates) its ground-truth answer.
struct LiveWorkload {
  struct Item {
    core::QueryRequest request;
    Tick tick = 0;
    /// Index into `truths`, or kNoTruth for latency-only requests.
    size_t truth = kNoTruth;
  };
  std::vector<Item> items;
  std::vector<std::vector<TrajId>> truths;
};

LiveWorkload MakeWorkload(const TrajectoryDataset& data, size_t queries,
                          uint64_t seed, double cell_size) {
  LiveWorkload w;
  Rng rng(seed);
  // Gated: exact STRQ + exact window, ground truth from the raw data.
  for (const auto& q : core::SampleQueries(data, queries / 2, &rng)) {
    std::vector<TrajId> truth = core::QueryEngine::GroundTruth(data, q,
                                                               cell_size);
    std::sort(truth.begin(), truth.end());
    w.items.push_back({core::StrqRequest{q, core::StrqMode::kExact}, q.tick,
                       w.truths.size()});
    w.truths.push_back(std::move(truth));
  }
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    const double half = rng.Uniform(0.001, 0.01);
    const core::WindowSpec window{
        core::Window{q.position.x - half, q.position.y - half,
                     q.position.x + half, q.position.y + half},
        q.tick};
    std::vector<TrajId> truth = core::QueryEngine::WindowGroundTruth(
        data, window.window, window.tick);
    std::sort(truth.begin(), truth.end());
    w.items.push_back({core::WindowRequest{window, core::StrqMode::kExact},
                       window.tick, w.truths.size()});
    w.truths.push_back(std::move(truth));
  }
  // Latency-only breadth: local-search STRQ, k-NN, TPQ.
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    w.items.push_back(
        {core::StrqRequest{q, core::StrqMode::kLocalSearch}, q.tick});
  }
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    w.items.push_back({core::KnnRequest{q, kKnnK}, q.tick});
  }
  for (const auto& q : core::SampleQueries(data, queries / 8, &rng)) {
    w.items.push_back(
        {core::TpqRequest{q, kTpqLength, core::StrqMode::kExact}, q.tick});
  }
  std::shuffle(w.items.begin(), w.items.end(), rng.engine());
  return w;
}

/// Check one gated response against its precomputed ground truth.
bool CheckGate(const LiveWorkload& w, const LiveWorkload::Item& item,
               const core::QueryResponse& response) {
  const auto& result = std::get<core::StrqResult>(response.result);
  std::vector<TrajId> ids = result.ids;
  std::sort(ids.begin(), ids.end());
  return ids == w.truths[item.truth];
}

struct LiveFlags {
  uint32_t shards = 4;
  size_t ingestors = 2;
  size_t submitters = 4;
  Tick watermark_ticks = 16;
  /// Durable mode: backing directory (empty = memory-only).
  std::string dir;
  /// >= 0: ingest ticks [0, crash_after] then _Exit without shutdown.
  Tick crash_after = -1;
  /// Reopen --dir, verify recovery, resume, and print the gate line.
  bool recover = false;
  /// Override Options::wal_sync_interval (0 = library default).
  size_t wal_sync = 0;
};

repo::LiveRepository::Options MakeLiveOptions(const LiveFlags& flags,
                                              size_t threads) {
  repo::LiveRepository::Options live_options;
  live_options.num_shards = flags.shards;
  live_options.num_threads = threads;
  live_options.watermark_ticks = flags.watermark_ticks;
  if (flags.wal_sync != 0) live_options.wal_sync_interval = flags.wal_sync;
  return live_options;
}

/// Ingest the deterministic stream through `--crash-after-ticks`, sync the
/// logs, then die the hard way: no Quiesce, no destructors, background
/// seals killed wherever they happen to be. The directory left behind is
/// the crash image `--recover` must resurrect.
int RunCrash(const BenchOptions& options, const LiveFlags& flags) {
  std::printf("=== bench_live --crash-after-ticks: durable ingest, then "
              "process kill ===\n");
  DatasetBundle bundle = MakePortoBundle(options);
  const Tick max_tick = bundle.data.MaxTick();
  const Tick stop = std::min(flags.crash_after, max_tick);
  const size_t threads = options.threads == 0 ? 4 : options.threads;

  MethodSetup setup;
  setup.mode = core::QuantizationMode::kErrorBounded;
  std::filesystem::remove_all(flags.dir);
  auto opened = repo::LiveRepository::Open(
      flags.dir,
      [&bundle, &setup](uint32_t) {
        return MakeCompressor("PPQ-A", bundle, setup);
      },
      MakeLiveOptions(flags, threads));
  if (!opened.ok()) {
    std::fprintf(stderr, "ERROR: open %s: %s\n", flags.dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  const auto live = *opened;

  WallTimer timer;
  for (Tick t = 0; t <= stop; ++t) {
    const PointBatch batch = bundle.data.BatchAt(t);
    if (batch.empty()) continue;
    if (!live->Append(batch).ok()) {
      std::fprintf(stderr, "ERROR: Append rejected tick %lld\n",
                   static_cast<long long>(t));
      return 1;
    }
  }
  if (!live->SyncWal().ok() || !live->DurabilityError().ok()) {
    std::fprintf(stderr, "ERROR: durability failure before the crash: %s\n",
                 live->DurabilityError().ToString().c_str());
    return 1;
  }
  PrintThroughput("LiveRepo/" + std::to_string(flags.shards) + "s", "ingest",
                  live->TotalPointsAppended(), timer.ElapsedSeconds());
  std::printf("[crash] shards=%u crash_after_ticks=%lld points=%zu "
              "synced=yes\n",
              flags.shards, static_cast<long long>(stop),
              live->TotalPointsAppended());
  std::fflush(stdout);
  // The crash: skip every destructor (WAL close, pool drain, in-flight
  // seal completion). Exit 2 so a wrapper can tell "crashed as asked"
  // from a real failure.
  std::_Exit(2);
}

/// Reopen the crash image, prove the recovered frontier answers exactly,
/// resume the stream past the crash tick, cut, and re-gate everything.
int RunRecover(const BenchOptions& options, const LiveFlags& flags) {
  std::printf("=== bench_live --recover: reopen, verify, resume ===\n");
  DatasetBundle bundle = MakePortoBundle(options);
  const double cell_size = 100.0 / kMetersPerDegree;
  const size_t threads = options.threads == 0 ? 4 : options.threads;
  const Tick max_tick = bundle.data.MaxTick();
  const Tick frontier =
      flags.crash_after >= 0 ? std::min(flags.crash_after, max_tick)
                             : max_tick;

  const LiveWorkload workload =
      MakeWorkload(bundle.data, options.queries, options.seed + 99,
                   cell_size);

  MethodSetup setup;
  setup.mode = core::QuantizationMode::kErrorBounded;
  WallTimer open_timer;
  auto opened = repo::OpenLiveRepository(
      flags.dir,
      [&bundle, &setup](uint32_t) {
        return MakeCompressor("PPQ-A", bundle, setup);
      },
      MakeLiveOptions(flags, threads));
  if (!opened.ok()) {
    std::fprintf(stderr, "ERROR: recover %s: %s\n", flags.dir.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  const auto live = *opened;
  const double open_seconds = open_timer.ElapsedSeconds();

  // Every synced point at or behind the crash tick must have survived.
  size_t expected = 0;
  for (Tick t = 0; t <= frontier; ++t) {
    expected += bundle.data.BatchAt(t).size();
  }
  const size_t recovered_points = live->TotalPointsAppended();
  bool identical = recovered_points == expected;
  if (!identical) {
    std::fprintf(stderr,
                 "ERROR: recovered %zu points, expected %zu at tick %lld\n",
                 recovered_points, expected,
                 static_cast<long long>(frontier));
  }

  const auto raw =
      std::make_shared<const TrajectoryDataset>(std::move(bundle.data));
  core::QueryService::Options serve_options;
  serve_options.num_threads = threads;
  serve_options.raw = raw;
  serve_options.cell_size = cell_size;
  core::QueryService service(live, serve_options);

  // Gate the recovered frontier: exact answers straight out of replay.
  size_t checked = 0;
  for (const LiveWorkload::Item& item : workload.items) {
    if (item.truth == kNoTruth || item.tick > frontier) continue;
    const core::QueryResponse response = service.Submit(item.request).get();
    ++checked;
    if (!CheckGate(workload, item, response)) identical = false;
  }
  const size_t recovered_checked = checked;

  // Recovery resumes: finish the stream, cut, and re-gate everything —
  // the replayed encoder must behave exactly like the one that died.
  for (Tick t = frontier + 1; t <= max_tick; ++t) {
    const PointBatch batch = raw->BatchAt(t);
    if (batch.empty()) continue;
    if (!live->Append(batch).ok()) identical = false;
  }
  live->RollAll();
  live->Quiesce();
  for (const LiveWorkload::Item& item : workload.items) {
    if (item.truth == kNoTruth) continue;
    const core::QueryResponse response = service.Submit(item.request).get();
    ++checked;
    if (!CheckGate(workload, item, response)) identical = false;
  }
  if (!live->DurabilityError().ok()) {
    std::fprintf(stderr, "ERROR: durability error after resume: %s\n",
                 live->DurabilityError().ToString().c_str());
    identical = false;
  }

  const bool ok = identical && checked > 0;
  std::printf("[recover] shards=%u crash_after_ticks=%lld open_ms=%.1f "
              "recovered_points=%zu resumed_points=%zu "
              "recovered_checked=%zu checked=%zu identical=%s\n",
              flags.shards, static_cast<long long>(frontier),
              open_seconds * 1e3, recovered_points,
              live->TotalPointsAppended(), recovered_checked, checked,
              ok ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr, "ERROR: recovered state diverged from ground "
                         "truth\n");
  }
  if (checked == 0) {
    std::fprintf(stderr, "ERROR: no gated response was checked\n");
  }
  return ok ? 0 : 1;
}

int Run(const BenchOptions& options, const LiveFlags& flags,
        const std::string& json_path) {
  std::printf("=== bench_live: concurrent ingest + mixed serving over a "
              "LiveRepository ===\n");
  DatasetBundle bundle = MakePortoBundle(options);
  std::printf("dataset: %s, %zu trajectories, %zu points\n",
              bundle.name.c_str(), bundle.data.size(),
              bundle.data.TotalPoints());
  const double cell_size = 100.0 / kMetersPerDegree;
  const size_t threads = options.threads == 0 ? 4 : options.threads;

  const LiveWorkload workload =
      MakeWorkload(bundle.data, options.queries, options.seed + 99,
                   cell_size);
  std::printf("stream: %zu mixed requests (%zu exact-mode gates), "
              "%zu ingestors, %zu submitters, watermark_ticks=%lld\n",
              workload.items.size(), workload.truths.size(), flags.ingestors,
              flags.submitters,
              static_cast<long long>(flags.watermark_ticks));

  // Pre-split every tick into one PointBatch per ingestor (round-robin by
  // slice index) so the timed loop is pure Append.
  const Tick max_tick = bundle.data.MaxTick();
  std::vector<std::vector<PointBatch>> parts(flags.ingestors);
  for (auto& per_thread : parts) {
    per_thread.reserve(static_cast<size_t>(max_tick) + 1);
  }
  for (Tick t = 0; t <= max_tick; ++t) {
    const PointBatch full = bundle.data.BatchAt(t);
    for (size_t j = 0; j < flags.ingestors; ++j) {
      PointBatch sub(t);
      sub.Reserve(full.size() / flags.ingestors + 1);
      for (size_t i = j; i < full.size(); i += flags.ingestors) {
        sub.Add(full.ids[i], full.positions[i]);
      }
      parts[j].push_back(std::move(sub));
    }
  }

  MethodSetup setup;
  setup.mode = core::QuantizationMode::kErrorBounded;
  const auto factory = [&bundle, &setup](uint32_t) {
    return MakeCompressor("PPQ-A", bundle, setup);
  };
  std::shared_ptr<repo::LiveRepository> live;
  if (flags.dir.empty()) {
    live = std::make_shared<repo::LiveRepository>(
        factory, MakeLiveOptions(flags, threads));
  } else {
    // Durable bench: fresh directory, WAL on the ingest path, containers
    // persisted at every seal — the end-to-end durability overhead shows
    // up in the [throughput] ingest line.
    std::filesystem::remove_all(flags.dir);
    auto opened = repo::LiveRepository::Open(flags.dir, factory,
                                            MakeLiveOptions(flags, threads));
    if (!opened.ok()) {
      std::fprintf(stderr, "ERROR: open %s: %s\n", flags.dir.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    live = *opened;
  }

  const auto raw =
      std::make_shared<const TrajectoryDataset>(std::move(bundle.data));
  core::QueryService::Options serve_options;
  serve_options.num_threads = threads;
  serve_options.raw = raw;
  serve_options.cell_size = cell_size;
  core::QueryService service(live, serve_options);

  // --- Concurrent phase: lockstep ingest vs closed-loop submitters ------
  std::atomic<Tick> frontier{repo::kNoTickYet};
  std::atomic<bool> done{false};
  std::atomic<bool> identical{true};
  std::atomic<bool> append_ok{true};
  std::atomic<size_t> served{0};
  std::atomic<size_t> checked{0};
  TickBarrier barrier(flags.ingestors);
  std::vector<std::vector<std::pair<core::QueryKind, uint64_t>>> latencies(
      flags.submitters);
  // Per-response serve-stage breakdowns for the [stage]/[stages] report
  // (per-submitter buffers, merged after the join).
  std::vector<std::vector<core::QueryStats>> stage_stats(flags.submitters);

  WallTimer concurrent_timer;
  std::vector<std::thread> ingest_threads;
  ingest_threads.reserve(flags.ingestors);
  for (size_t j = 0; j < flags.ingestors; ++j) {
    ingest_threads.emplace_back([&, j] {
      for (Tick t = 0; t <= max_tick; ++t) {
        if (!live->Append(parts[j][static_cast<size_t>(t)]).ok()) {
          append_ok.store(false, std::memory_order_relaxed);
        }
        barrier.ArriveAndWait(
            [&] { frontier.store(t, std::memory_order_release); });
      }
    });
  }

  std::vector<std::thread> submit_threads;
  submit_threads.reserve(flags.submitters);
  for (size_t s = 0; s < flags.submitters; ++s) {
    submit_threads.emplace_back([&, s] {
      while (!done.load(std::memory_order_acquire)) {
        bool any = false;
        for (size_t i = s; i < workload.items.size();
             i += flags.submitters) {
          if (done.load(std::memory_order_acquire)) break;
          const LiveWorkload::Item& item = workload.items[i];
          if (item.tick > frontier.load(std::memory_order_acquire)) {
            continue;
          }
          any = true;
          const auto start = std::chrono::steady_clock::now();
          core::QueryResponse response = service.Submit(item.request).get();
          latencies[s].emplace_back(
              core::KindOf(item.request),
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count()));
          stage_stats[s].push_back(response.stats);
          served.fetch_add(1, std::memory_order_relaxed);
          if (item.truth != kNoTruth) {
            checked.fetch_add(1, std::memory_order_relaxed);
            if (!CheckGate(workload, item, response)) {
              identical.store(false, std::memory_order_relaxed);
            }
          }
        }
        if (!any) std::this_thread::yield();
      }
    });
  }

  for (std::thread& t : ingest_threads) t.join();
  const double ingest_seconds = concurrent_timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  for (std::thread& t : submit_threads) t.join();
  const double concurrent_seconds = concurrent_timer.ElapsedSeconds();

  const size_t total_points = live->TotalPointsAppended();
  PrintThroughput("LiveRepo/" + std::to_string(flags.shards) + "s", "ingest",
                  total_points, ingest_seconds);
  const size_t live_served = served.load();
  PrintThroughput("LiveService/" + std::to_string(threads) + "t", "serve",
                  live_served, concurrent_seconds);

  // --- Latency breakdown for the concurrent phase -----------------------
  const auto percentile = [](const std::vector<uint64_t>& sorted,
                             double p) -> uint64_t {
    if (sorted.empty()) return 0;
    const size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  };
  std::vector<uint64_t> all;
  std::vector<uint64_t> by_kind[4];
  for (const auto& per_thread : latencies) {
    for (const auto& [kind, us] : per_thread) {
      all.push_back(us);
      by_kind[static_cast<size_t>(kind)].push_back(us);
    }
  }
  std::sort(all.begin(), all.end());
  PerfJson json;
  const auto latency_record = [&](const std::string& name,
                                  const std::vector<uint64_t>& sorted) {
    json.Begin(name);
    json.Field("requests", static_cast<double>(sorted.size()));
    json.Field("p50_us", static_cast<double>(percentile(sorted, 0.50)));
    json.Field("p95_us", static_cast<double>(percentile(sorted, 0.95)));
    json.Field("p99_us", static_cast<double>(percentile(sorted, 0.99)));
    json.Field("max_us",
               static_cast<double>(sorted.empty() ? 0 : sorted.back()));
  };
  constexpr const char* kKindNames[4] = {"strq", "window", "knn", "tpq"};
  for (size_t kind = 0; kind < 4; ++kind) {
    std::vector<uint64_t>& sample = by_kind[kind];
    if (sample.empty()) continue;
    std::sort(sample.begin(), sample.end());
    std::printf("[latency] kind=%s requests=%zu p50_us=%llu p95_us=%llu "
                "p99_us=%llu max_us=%llu\n",
                kKindNames[kind], sample.size(),
                static_cast<unsigned long long>(percentile(sample, 0.50)),
                static_cast<unsigned long long>(percentile(sample, 0.95)),
                static_cast<unsigned long long>(percentile(sample, 0.99)),
                static_cast<unsigned long long>(sample.back()));
    latency_record(std::string("latency_") + kKindNames[kind], sample);
  }
  std::printf("[latency] p50_us=%llu p95_us=%llu p99_us=%llu max_us=%llu\n",
              static_cast<unsigned long long>(percentile(all, 0.50)),
              static_cast<unsigned long long>(percentile(all, 0.95)),
              static_cast<unsigned long long>(percentile(all, 0.99)),
              static_cast<unsigned long long>(all.empty() ? 0 : all.back()));
  latency_record("latency", all);

  // --- Serve-side stage breakdown of the concurrent phase ---------------
  {
    std::array<std::vector<uint64_t>, core::kNumServeStages> samples;
    std::array<uint64_t, core::kNumServeStages> sums{};
    uint64_t queue_sum = 0;
    uint64_t eval_sum = 0;
    size_t requests = 0;
    for (const auto& per_thread : stage_stats) {
      for (const core::QueryStats& s : per_thread) {
        ++requests;
        queue_sum += s.queue_micros;
        eval_sum += s.eval_micros;
        for (size_t st = 0; st < core::kNumServeStages; ++st) {
          samples[st].push_back(s.stage_micros[st]);
          sums[st] += s.stage_micros[st];
        }
      }
    }
    for (size_t st = 0; st < core::kNumServeStages; ++st) {
      std::vector<uint64_t>& sample = samples[st];
      std::sort(sample.begin(), sample.end());
      std::printf("[stage] name=%s requests=%zu p50_us=%llu p95_us=%llu "
                  "p99_us=%llu max_us=%llu sum_us=%llu\n",
                  core::kServeStageNames[st], sample.size(),
                  static_cast<unsigned long long>(percentile(sample, 0.50)),
                  static_cast<unsigned long long>(percentile(sample, 0.95)),
                  static_cast<unsigned long long>(percentile(sample, 0.99)),
                  static_cast<unsigned long long>(
                      sample.empty() ? 0 : sample.back()),
                  static_cast<unsigned long long>(sums[st]));
      latency_record(std::string("stage_") + core::kServeStageNames[st],
                     sample);
      json.Field("sum_us", static_cast<double>(sums[st]));
    }
    std::printf("[stages] requests=%zu queue_sum_us=%llu eval_sum_us=%llu\n",
                requests, static_cast<unsigned long long>(queue_sum),
                static_cast<unsigned long long>(eval_sum));
    json.Begin("stages");
    json.Field("requests", static_cast<double>(requests));
    json.Field("queue_sum_us", static_cast<double>(queue_sum));
    json.Field("eval_sum_us", static_cast<double>(eval_sum));
  }

  // --- Post-roll sweep: cut every shard, re-gate the whole workload -----
  live->RollAll();
  live->Quiesce();
  {
    std::vector<core::QueryRequest> requests;
    requests.reserve(workload.items.size());
    for (const auto& item : workload.items) requests.push_back(item.request);
    WallTimer sweep_timer;
    auto futures = service.SubmitBatch(std::move(requests));
    for (size_t i = 0; i < futures.size(); ++i) {
      const core::QueryResponse response = futures[i].get();
      const LiveWorkload::Item& item = workload.items[i];
      if (item.truth != kNoTruth) {
        checked.fetch_add(1, std::memory_order_relaxed);
        if (!CheckGate(workload, item, response)) {
          identical.store(false, std::memory_order_relaxed);
        }
      }
    }
    PrintThroughput("LiveService/sealed", "serve", futures.size(),
                    sweep_timer.ElapsedSeconds());
  }

  // --- Ingest/durability stage latencies, from the metrics registry -----
  // One [ingest-stage] line per populated per-shard series: append (lock
  // wait + WAL + staging + tail publish), flush, seal cut, WAL
  // append/fdatasync, rotation. Durable runs (--dir) show the WAL lines;
  // memory-only runs show the in-memory stages alone.
  {
    const obs::MetricsSnapshot snap = obs::Registry::Default().Snapshot();
    for (const auto& h : snap.histograms) {
      const bool ingest_side = h.name.rfind("ppq_ingest_", 0) == 0 ||
                               h.name.rfind("ppq_wal_", 0) == 0 ||
                               h.name.rfind("ppq_recovery_", 0) == 0;
      if (!ingest_side || h.snapshot.count == 0) continue;
      // ppq_wal_append_micros -> wal_append
      std::string stage = h.name.substr(4);
      const size_t suffix = stage.rfind("_micros");
      if (suffix != std::string::npos) stage.resize(suffix);
      unsigned long shard_no = 0;
      std::sscanf(h.labels.c_str(), "shard=\"%lu\"", &shard_no);
      std::printf("[ingest-stage] stage=%s shard=%lu count=%llu "
                  "p50_us=%llu p95_us=%llu p99_us=%llu max_us=%llu "
                  "mean_us=%.1f\n",
                  stage.c_str(), shard_no,
                  static_cast<unsigned long long>(h.snapshot.count),
                  static_cast<unsigned long long>(h.snapshot.Quantile(0.50)),
                  static_cast<unsigned long long>(h.snapshot.Quantile(0.95)),
                  static_cast<unsigned long long>(h.snapshot.Quantile(0.99)),
                  static_cast<unsigned long long>(h.snapshot.max),
                  h.snapshot.Mean());
      json.Begin("ingest_" + stage + "_shard" + std::to_string(shard_no));
      json.Field("count", static_cast<double>(h.snapshot.count));
      json.Field("p50_us", static_cast<double>(h.snapshot.Quantile(0.50)));
      json.Field("p95_us", static_cast<double>(h.snapshot.Quantile(0.95)));
      json.Field("p99_us", static_cast<double>(h.snapshot.Quantile(0.99)));
      json.Field("max_us", static_cast<double>(h.snapshot.max));
      json.Field("mean_us", h.snapshot.Mean());
    }
  }

  const bool durable_ok = flags.dir.empty() || live->DurabilityError().ok();
  if (!durable_ok) {
    std::fprintf(stderr, "ERROR: durability error: %s\n",
                 live->DurabilityError().ToString().c_str());
  }
  const bool ok = identical.load() && append_ok.load() &&
                  checked.load() > 0 && durable_ok;
  const double points_per_sec =
      ingest_seconds > 0.0
          ? static_cast<double>(total_points) / ingest_seconds
          : 0.0;
  const double qps = concurrent_seconds > 0.0
                         ? static_cast<double>(live_served) /
                               concurrent_seconds
                         : 0.0;
  std::printf("[live] shards=%u ingestors=%zu submitters=%zu "
              "watermark_ticks=%lld points=%zu points_per_sec=%.0f "
              "served=%zu qps=%.0f seals=%llu checked=%zu identical=%s\n",
              flags.shards, flags.ingestors, flags.submitters,
              static_cast<long long>(flags.watermark_ticks), total_points,
              points_per_sec, live_served, qps,
              static_cast<unsigned long long>(live->MinSealEpoch()),
              checked.load(), ok ? "yes" : "NO");

  json.Begin("live");
  json.Field("shards", static_cast<double>(flags.shards));
  json.Field("ingestors", static_cast<double>(flags.ingestors));
  json.Field("submitters", static_cast<double>(flags.submitters));
  json.Field("watermark_ticks", static_cast<double>(flags.watermark_ticks));
  json.Field("points", static_cast<double>(total_points));
  json.Field("points_per_sec", points_per_sec);
  json.Field("served", static_cast<double>(live_served));
  json.Field("qps", qps);
  json.Field("seals", static_cast<double>(live->MinSealEpoch()));
  json.Field("checked", static_cast<double>(checked.load()));
  json.Text("identical", ok ? "yes" : "no");
  json.Text("durable", flags.dir.empty() ? "no" : "yes");
  json.Begin("metrics");
  json.Raw("registry", obs::Registry::Default().RenderJson());
  if (!json_path.empty() && !json.Write(json_path, "live")) {
    std::fprintf(stderr, "bench_live: could not write %s\n",
                 json_path.c_str());
    return 2;
  }

  if (!append_ok.load()) {
    std::fprintf(stderr, "ERROR: Append rejected a batch during lockstep "
                         "ingest\n");
  }
  if (!identical.load()) {
    std::fprintf(stderr, "ERROR: a gated response diverged from ground "
                         "truth (staleness bound violated)\n");
  }
  if (checked.load() == 0) {
    std::fprintf(stderr, "ERROR: no gated response was checked\n");
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ppq::bench

int main(int argc, char** argv) {
  ppq::bench::BenchOptions options = ppq::bench::ParseArgs(argc, argv);
  const std::string json_path = ppq::bench::ParseJsonPath(argc, argv);
  ppq::bench::LiveFlags flags;
  bool threads_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) threads_given = true;
    if (arg.rfind("--shards=", 0) == 0) {
      flags.shards = static_cast<uint32_t>(
          std::strtoul(arg.substr(9).c_str(), nullptr, 10));
      if (flags.shards == 0) flags.shards = 1;
    }
    if (arg.rfind("--ingestors=", 0) == 0) {
      flags.ingestors = static_cast<size_t>(
          std::strtoull(arg.substr(12).c_str(), nullptr, 10));
      if (flags.ingestors == 0) flags.ingestors = 1;
    }
    if (arg.rfind("--submitters=", 0) == 0) {
      flags.submitters = static_cast<size_t>(
          std::strtoull(arg.substr(13).c_str(), nullptr, 10));
      if (flags.submitters == 0) flags.submitters = 1;
    }
    if (arg.rfind("--watermark=", 0) == 0) {
      flags.watermark_ticks = static_cast<ppq::Tick>(
          std::strtoll(arg.substr(12).c_str(), nullptr, 10));
      if (flags.watermark_ticks <= 0) flags.watermark_ticks = 1;
    }
    if (arg.rfind("--dir=", 0) == 0) {
      flags.dir = arg.substr(6);
    }
    if (arg.rfind("--crash-after-ticks=", 0) == 0) {
      flags.crash_after = static_cast<ppq::Tick>(
          std::strtoll(arg.substr(20).c_str(), nullptr, 10));
    }
    if (arg == "--recover") {
      flags.recover = true;
    }
    if (arg.rfind("--wal-sync=", 0) == 0) {
      flags.wal_sync = static_cast<size_t>(
          std::strtoull(arg.substr(11).c_str(), nullptr, 10));
    }
  }
  // Serving workers default to 4 (like bench_serve --mixed).
  if (!threads_given) options.threads = 4;
  if ((flags.crash_after >= 0 || flags.recover) && flags.dir.empty()) {
    std::fprintf(stderr,
                 "--crash-after-ticks/--recover require --dir=PATH\n");
    return 1;
  }
  if (flags.recover) return ppq::bench::RunRecover(options, flags);
  if (flags.crash_after >= 0) return ppq::bench::RunCrash(options, flags);
  return ppq::bench::Run(options, flags, json_path);
}
