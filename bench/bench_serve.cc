/// \file bench_serve.cc
/// Concurrent serving benchmark for the async serving stack, two modes:
///
/// Default (batch ladder): compress a Porto-like workload with PPQ-A,
/// Seal() it, and measure queries/sec of batched QueryService submission
/// over a mixed STRQ / window / k-NN workload at 1/2/4/8 workers (or a
/// single count with --threads=N). Before timing, every batch result is
/// checked byte-identical against the serial QueryEngine. Output ends
/// with one [serve] line per thread count:
///   [serve] threads=4 queries=3500 seconds=0.81 qps=4321 speedup=2.73
///
/// --mixed (request stream): the production shape — N submitter threads
/// (--submitters=N, default 4) drive one futures-based QueryService with
/// an interleaved STRQ / window / k-NN / TPQ stream (closed loop: each
/// submitter keeps one request in flight), every response is
/// parity-checked against the serial engine, and per-request latency is
/// recorded from submission to future resolution — reported both per
/// request kind and aggregated over the whole stream:
///   [mixed] threads=4 submitters=4 requests=1750 seconds=0.42 qps=4123
///           identical=yes
///   [latency] kind=strq requests=700 p50_us=640 p95_us=1800 p99_us=2600
///             max_us=4100
///   ... (one line per kind: strq, window, knn, tpq) ...
///   [latency] p50_us=812 p95_us=2100 p99_us=3400 max_us=5120
///
/// Both modes emit the shared [throughput] lines (phase=serve) for the
/// perf trail and exit non-zero if any result diverges from the serial
/// engine. --json=<path> additionally writes the run's records (ladder
/// rungs, or the mixed qps + per-kind/aggregate latency percentiles) as
/// a BENCH_serve.json via bench::PerfJson.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/metrics.h"
#include "core/query_engine.h"
#include "core/query_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppq::bench {
namespace {

struct Workload {
  std::vector<core::QuerySpec> strq;
  std::vector<core::WindowSpec> windows;
  std::vector<core::QuerySpec> knn;

  size_t Total() const { return strq.size() + windows.size() + knn.size(); }
};

Workload MakeWorkload(const TrajectoryDataset& data, size_t queries,
                      uint64_t seed) {
  Workload w;
  Rng rng(seed);
  w.strq = core::SampleQueries(data, queries, &rng);
  for (const core::QuerySpec& q : core::SampleQueries(data, queries / 2,
                                                      &rng)) {
    const double half = rng.Uniform(0.001, 0.01);
    w.windows.push_back({core::Window{q.position.x - half,
                                      q.position.y - half,
                                      q.position.x + half,
                                      q.position.y + half},
                         q.tick});
  }
  w.knn = core::SampleQueries(data, queries / 4, &rng);
  return w;
}

struct MixedResults {
  std::vector<core::StrqResult> strq_exact;
  std::vector<core::StrqResult> strq_local;
  std::vector<core::StrqResult> windows;
  std::vector<std::vector<core::Neighbor>> knn;

  bool operator==(const MixedResults& o) const {
    return strq_exact == o.strq_exact && strq_local == o.strq_local &&
           windows == o.windows && knn == o.knn;
  }
};

constexpr size_t kKnnK = 8;
constexpr int kTpqLength = 8;

MixedResults RunSerial(const core::QueryEngine& engine, const Workload& w) {
  MixedResults r;
  for (const auto& q : w.strq) {
    r.strq_exact.push_back(engine.Strq(q, core::StrqMode::kExact));
    r.strq_local.push_back(engine.Strq(q, core::StrqMode::kLocalSearch));
  }
  for (const auto& win : w.windows) {
    r.windows.push_back(
        engine.WindowQuery(win.window, win.tick, core::StrqMode::kExact));
  }
  for (const auto& q : w.knn) {
    r.knn.push_back(engine.NearestTrajectories(q, kKnnK));
  }
  return r;
}

MixedResults RunService(core::QueryService& service, const Workload& w) {
  std::vector<core::QueryRequest> requests;
  requests.reserve(2 * w.strq.size() + w.windows.size() + w.knn.size());
  for (const auto& q : w.strq) {
    requests.push_back(core::StrqRequest{q, core::StrqMode::kExact});
  }
  for (const auto& q : w.strq) {
    requests.push_back(core::StrqRequest{q, core::StrqMode::kLocalSearch});
  }
  for (const auto& win : w.windows) {
    requests.push_back(core::WindowRequest{win, core::StrqMode::kExact});
  }
  for (const auto& q : w.knn) requests.push_back(core::KnnRequest{q, kKnnK});

  auto futures = service.SubmitBatch(std::move(requests));
  MixedResults r;
  size_t i = 0;
  for (size_t n = 0; n < w.strq.size(); ++n) {
    r.strq_exact.push_back(
        std::move(std::get<core::StrqResult>(futures[i++].get().result)));
  }
  for (size_t n = 0; n < w.strq.size(); ++n) {
    r.strq_local.push_back(
        std::move(std::get<core::StrqResult>(futures[i++].get().result)));
  }
  for (size_t n = 0; n < w.windows.size(); ++n) {
    r.windows.push_back(
        std::move(std::get<core::StrqResult>(futures[i++].get().result)));
  }
  for (size_t n = 0; n < w.knn.size(); ++n) {
    r.knn.push_back(std::move(
        std::get<std::vector<core::Neighbor>>(futures[i++].get().result)));
  }
  return r;
}

/// One serving pass: queries evaluated per timed run (exact+local STRQ
/// count as two evaluations per spec).
size_t EvaluationsPerPass(const Workload& w) {
  return 2 * w.strq.size() + w.windows.size() + w.knn.size();
}

// ---------------------------------------------------------------------------
// --mixed: interleaved request stream against the QueryService
// ---------------------------------------------------------------------------

/// The response payload variant, shared by the service and the serial
/// reference so parity is one == per request.
using Payload =
    std::variant<core::StrqResult, std::vector<core::Neighbor>,
                 core::TpqResult>;

/// All four request kinds interleaved into one deterministic stream.
std::vector<core::QueryRequest> MakeMixedStream(const TrajectoryDataset& data,
                                                size_t queries,
                                                uint64_t seed) {
  std::vector<core::QueryRequest> stream;
  Rng rng(seed);
  for (const auto& q : core::SampleQueries(data, queries / 2, &rng)) {
    stream.push_back(core::StrqRequest{q, core::StrqMode::kExact});
  }
  for (const auto& q : core::SampleQueries(data, queries / 2, &rng)) {
    stream.push_back(core::StrqRequest{q, core::StrqMode::kLocalSearch});
  }
  for (const auto& q : core::SampleQueries(data, queries / 2, &rng)) {
    const double half = rng.Uniform(0.001, 0.01);
    stream.push_back(core::WindowRequest{
        {core::Window{q.position.x - half, q.position.y - half,
                      q.position.x + half, q.position.y + half},
         q.tick},
        core::StrqMode::kExact});
  }
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    stream.push_back(core::KnnRequest{q, kKnnK});
  }
  for (const auto& q : core::SampleQueries(data, queries / 4, &rng)) {
    stream.push_back(core::TpqRequest{q, kTpqLength, core::StrqMode::kExact});
  }
  std::shuffle(stream.begin(), stream.end(), rng.engine());
  return stream;
}

Payload EvalSerial(const core::QueryEngine& engine,
                   const core::QueryRequest& request) {
  if (const auto* r = std::get_if<core::StrqRequest>(&request)) {
    return engine.Strq(r->query, r->mode);
  }
  if (const auto* r = std::get_if<core::WindowRequest>(&request)) {
    return engine.WindowQuery(r->window.window, r->window.tick, r->mode);
  }
  if (const auto* r = std::get_if<core::KnnRequest>(&request)) {
    return engine.NearestTrajectories(r->query, r->k);
  }
  const auto& r = std::get<core::TpqRequest>(request);
  return engine.Tpq(r.query, r.length, r.mode);
}

int RunMixed(const BenchOptions& options, size_t submitters,
             const std::string& json_path, const std::string& trace_path) {
  std::printf("=== bench_serve --mixed: async QueryService, %zu submitter "
              "thread(s) ===\n", submitters);
  DatasetBundle bundle = MakePortoBundle(options);
  std::printf("dataset: %s, %zu trajectories, %zu points\n",
              bundle.name.c_str(), bundle.data.size(),
              bundle.data.TotalPoints());

  MethodSetup setup;
  setup.mode = core::QuantizationMode::kErrorBounded;
  auto method = MakeCompressor("PPQ-A", bundle, setup);
  CompressTimed(*method, bundle.data);
  const core::SnapshotPtr snapshot = method->Seal();

  const double cell_size = 100.0 / kMetersPerDegree;
  const std::vector<core::QueryRequest> stream =
      MakeMixedStream(bundle.data, options.queries, options.seed + 99);
  std::printf("stream: %zu interleaved requests (STRQ exact+local, window, "
              "kNN, TPQ)\n", stream.size());

  // The dataset moves into shared ownership (no copy): the serial
  // reference engine and the service verify against the same object.
  const auto raw = std::make_shared<const TrajectoryDataset>(
      std::move(bundle.data));

  // Serial reference for every request, and the serial-serving baseline.
  const core::QueryEngine engine(method.get(), raw.get(), cell_size);
  std::vector<Payload> reference;
  reference.reserve(stream.size());
  WallTimer serial_timer;
  for (const core::QueryRequest& request : stream) {
    reference.push_back(EvalSerial(engine, request));
  }
  PrintThroughput("QueryEngine", "serve", stream.size(),
                  serial_timer.ElapsedSeconds());

  const size_t threads = options.threads == 0 ? 4 : options.threads;
  core::QueryService::Options serve_options;
  serve_options.num_threads = threads;
  serve_options.raw = raw;
  serve_options.cell_size = cell_size;
  core::QueryService service(snapshot, serve_options);

  // Closed-loop submitters: thread s owns request indices s, s+S, s+2S...
  // and keeps exactly one in flight, so concurrency = #submitters and the
  // recorded latency spans submission -> future resolution. Latency is
  // recorded with the request's kind so the stream decomposes into
  // per-kind distributions (a slow tail can hide entirely inside one
  // request kind of a mixed stream).
  std::vector<Payload> served(stream.size());
  // Per-request stage breakdown (submitters own disjoint indices, so the
  // writes need no lock) — the same numbers the dispatcher feeds the
  // metrics registry, kept per-request here so [stages] percentiles come
  // from exact samples rather than histogram buckets.
  std::vector<core::QueryStats> stats(stream.size());
  std::vector<std::vector<std::pair<core::QueryKind, uint64_t>>> latencies(
      submitters);
  WallTimer stream_timer;
  std::vector<std::thread> threads_vec;
  threads_vec.reserve(submitters);
  for (size_t s = 0; s < submitters; ++s) {
    threads_vec.emplace_back([&, s] {
      for (size_t i = s; i < stream.size(); i += submitters) {
        const auto start = std::chrono::steady_clock::now();
        core::QueryResponse response = service.Submit(stream[i]).get();
        latencies[s].emplace_back(
            core::KindOf(stream[i]),
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
        stats[i] = response.stats;
        served[i] = std::move(response.result);
      }
    });
  }
  for (std::thread& t : threads_vec) t.join();
  const double seconds = stream_timer.ElapsedSeconds();

  bool identical = true;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!(served[i] == reference[i])) {
      identical = false;
      break;
    }
  }

  // Percentiles over a sorted sample (nearest-rank with rounding).
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

  const double qps =
      seconds > 0.0 ? static_cast<double>(stream.size()) / seconds : 0.0;
  PrintThroughput("QueryService/" + std::to_string(threads) + "t", "serve",
                  stream.size(), seconds);
  std::printf("[mixed] threads=%zu submitters=%zu requests=%zu "
              "seconds=%.4f qps=%.0f identical=%s\n",
              threads, submitters, stream.size(), seconds, qps,
              identical ? "yes" : "NO");

  PerfJson json;
  json.Begin("mixed");
  json.Field("threads", static_cast<double>(threads));
  json.Field("submitters", static_cast<double>(submitters));
  json.Field("requests", static_cast<double>(stream.size()));
  json.Field("seconds", seconds);
  json.Field("qps", qps);
  json.Text("identical", identical ? "yes" : "no");

  // Per-kind breakdown first, aggregate last (tools keyed on the bare
  // "[latency] p50_us=" line keep parsing the same final line).
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

  // Per-stage breakdown from the exact per-response QueryStats — the same
  // numbers ObserveServeStages feeds the registry, but per-request samples
  // so percentiles are exact. The stage accounting is cross-checked
  // against the wall-clock [latency] sample: queue + evaluation can never
  // exceed the observed submission->resolution time, and the evaluator's
  // substages (scan/decode/kernel/tail/merge) can never exceed the
  // whole-evaluation time. Every recorded duration truncates down by
  // < 1us, so the check allows a few microseconds per request plus 2%.
  uint64_t wall_sum = 0;
  for (uint64_t us : all) wall_sum += us;
  uint64_t queue_sum = 0;
  uint64_t eval_sum = 0;
  uint64_t substage_sum = 0;
  std::array<std::vector<uint64_t>, core::kNumServeStages> stage_samples;
  std::array<uint64_t, core::kNumServeStages> stage_sums{};
  for (const core::QueryStats& s : stats) {
    queue_sum += s.queue_micros;
    eval_sum += s.eval_micros;
    for (size_t st = 0; st < core::kNumServeStages; ++st) {
      stage_samples[st].push_back(s.stage_micros[st]);
      stage_sums[st] += s.stage_micros[st];
      if (st != static_cast<size_t>(core::ServeStage::kQueue)) {
        substage_sum += s.stage_micros[st];
      }
    }
  }
  const uint64_t slack = 3 * stream.size() + wall_sum / 50;
  const bool consistent = queue_sum + eval_sum <= wall_sum + slack &&
                          substage_sum <= eval_sum + slack;
  for (size_t st = 0; st < core::kNumServeStages; ++st) {
    std::vector<uint64_t>& sample = stage_samples[st];
    std::sort(sample.begin(), sample.end());
    const double share =
        wall_sum > 0 ? static_cast<double>(stage_sums[st]) / wall_sum : 0.0;
    std::printf("[stage] name=%s requests=%zu p50_us=%llu p95_us=%llu "
                "p99_us=%llu max_us=%llu sum_us=%llu share=%.3f\n",
                core::kServeStageNames[st], sample.size(),
                static_cast<unsigned long long>(percentile(sample, 0.50)),
                static_cast<unsigned long long>(percentile(sample, 0.95)),
                static_cast<unsigned long long>(percentile(sample, 0.99)),
                static_cast<unsigned long long>(sample.empty() ? 0
                                                               : sample.back()),
                static_cast<unsigned long long>(stage_sums[st]), share);
    json.Begin(std::string("stage_") + core::kServeStageNames[st]);
    json.Field("requests", static_cast<double>(sample.size()));
    json.Field("p50_us", static_cast<double>(percentile(sample, 0.50)));
    json.Field("p95_us", static_cast<double>(percentile(sample, 0.95)));
    json.Field("p99_us", static_cast<double>(percentile(sample, 0.99)));
    json.Field("max_us",
               static_cast<double>(sample.empty() ? 0 : sample.back()));
    json.Field("sum_us", static_cast<double>(stage_sums[st]));
    json.Field("share", share);
  }
  std::printf("[stages] requests=%zu queue_sum_us=%llu eval_sum_us=%llu "
              "substage_sum_us=%llu wall_sum_us=%llu consistent=%s\n",
              stream.size(), static_cast<unsigned long long>(queue_sum),
              static_cast<unsigned long long>(eval_sum),
              static_cast<unsigned long long>(substage_sum),
              static_cast<unsigned long long>(wall_sum),
              consistent ? "yes" : "NO");
  json.Begin("stages");
  json.Field("requests", static_cast<double>(stream.size()));
  json.Field("queue_sum_us", static_cast<double>(queue_sum));
  json.Field("eval_sum_us", static_cast<double>(eval_sum));
  json.Field("substage_sum_us", static_cast<double>(substage_sum));
  json.Field("wall_sum_us", static_cast<double>(wall_sum));
  json.Text("consistent", consistent ? "yes" : "no");

  // The whole run's registry snapshot, embedded verbatim: histograms here
  // aggregate what the per-request samples above show exactly.
  json.Begin("metrics");
  json.Raw("registry", obs::Registry::Default().RenderJson());

  if (!trace_path.empty()) {
    if (!obs::trace::WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "bench_serve: could not write trace %s\n",
                   trace_path.c_str());
      return 2;
    }
    std::printf("[trace] events=%zu path=%s\n",
                obs::trace::BufferedEventCount(), trace_path.c_str());
  }

  if (!json_path.empty() && !json.Write(json_path, "serve")) {
    std::fprintf(stderr, "bench_serve: could not write %s\n",
                 json_path.c_str());
    return 2;
  }
  if (!identical) {
    std::printf("ERROR: service responses diverged from the serial "
                "engine\n");
    return 1;
  }
  if (!consistent) {
    std::printf("ERROR: stage accounting is inconsistent with the "
                "wall-clock latency sample\n");
    return 1;
  }
  return 0;
}

int Run(const BenchOptions& options, const std::string& json_path) {
  std::printf("=== bench_serve: snapshot + batched QueryService ladder ===\n");
  DatasetBundle bundle = MakePortoBundle(options);
  std::printf("dataset: %s, %zu trajectories, %zu points\n",
              bundle.name.c_str(), bundle.data.size(),
              bundle.data.TotalPoints());

  MethodSetup setup;
  setup.mode = core::QuantizationMode::kErrorBounded;
  auto method = MakeCompressor("PPQ-A", bundle, setup);
  CompressTimed(*method, bundle.data);

  WallTimer seal_timer;
  const core::SnapshotPtr snapshot = method->Seal();
  std::printf("seal: %.1f KB summary, %zu trajectories, %.3f ms\n",
              static_cast<double>(snapshot->SummaryBytes()) / 1024.0,
              snapshot->NumTrajectories(), seal_timer.ElapsedMillis());

  const double cell_size = 100.0 / kMetersPerDegree;
  const Workload workload =
      MakeWorkload(bundle.data, options.queries, options.seed + 99);
  const size_t evaluations = EvaluationsPerPass(workload);
  std::printf("workload: %zu STRQ (exact+local) + %zu window + %zu kNN "
              "= %zu evaluations/pass\n",
              workload.strq.size(), workload.windows.size(),
              workload.knn.size(), evaluations);

  // The dataset moves into shared ownership (no copy) for the serving
  // stack; the serial engine verifies against the same object.
  const auto raw = std::make_shared<const TrajectoryDataset>(
      std::move(bundle.data));

  // Serial reference: the single-query engine, timed the same way.
  const core::QueryEngine engine(method.get(), raw.get(), cell_size);
  WallTimer serial_timer;
  const MixedResults reference = RunSerial(engine, workload);
  const double serial_seconds = serial_timer.ElapsedSeconds();
  const double serial_qps =
      serial_seconds > 0.0
          ? static_cast<double>(evaluations) / serial_seconds
          : 0.0;
  PrintThroughput("QueryEngine", "serve", evaluations, serial_seconds);

  std::vector<size_t> ladder = {1, 2, 4, 8};
  if (options.threads > 0) ladder = {options.threads};

  bool all_identical = true;
  double qps_at_1 = 0.0;
  PerfJson json;
  for (size_t threads : ladder) {
    core::QueryService::Options serve_options;
    serve_options.num_threads = threads;
    serve_options.raw = raw;
    serve_options.cell_size = cell_size;
    core::QueryService service(snapshot, serve_options);

    // Correctness pass (also warms per-worker decode scratch the same way
    // every thread count warms it: by running the workload once).
    const MixedResults check = RunService(service, workload);
    const bool identical = check == reference;
    all_identical = all_identical && identical;

    WallTimer timer;
    const MixedResults timed = RunService(service, workload);
    const double seconds = timer.ElapsedSeconds();
    all_identical = all_identical && (timed == reference);

    const double qps =
        seconds > 0.0 ? static_cast<double>(evaluations) / seconds : 0.0;
    if (threads == 1) qps_at_1 = qps;
    // Speedup vs the 1-worker service when the ladder includes it;
    // otherwise (explicit --threads=N) vs the serial engine.
    const double baseline = qps_at_1 > 0.0 ? qps_at_1 : serial_qps;
    const double speedup = baseline > 0.0 ? qps / baseline : 0.0;
    const std::string label =
        "QueryService/" + std::to_string(threads) + "t";
    PrintThroughput(label, "serve", evaluations, seconds);
    std::printf("[serve] threads=%zu queries=%zu seconds=%.4f qps=%.0f "
                "speedup=%.2f identical=%s\n",
                threads, evaluations, seconds, qps, speedup,
                identical ? "yes" : "NO");
    json.Begin("serve_" + std::to_string(threads) + "t");
    json.Field("threads", static_cast<double>(threads));
    json.Field("queries", static_cast<double>(evaluations));
    json.Field("seconds", seconds);
    json.Field("qps", qps);
    json.Field("speedup", speedup);
    json.Text("identical", identical ? "yes" : "no");
  }

  if (!json_path.empty() && !json.Write(json_path, "serve")) {
    std::fprintf(stderr, "bench_serve: could not write %s\n",
                 json_path.c_str());
    return 2;
  }
  if (!all_identical) {
    std::printf("ERROR: service results diverged from the serial engine\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ppq::bench

int main(int argc, char** argv) {
  ppq::bench::BenchOptions options = ppq::bench::ParseArgs(argc, argv);
  const std::string json_path = ppq::bench::ParseJsonPath(argc, argv);
  bool threads_given = false;
  bool mixed = false;
  size_t submitters = 4;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) threads_given = true;
    if (arg == "--mixed") mixed = true;
    if (arg.rfind("--submitters=", 0) == 0) {
      submitters = static_cast<size_t>(
          std::strtoull(arg.substr(13).c_str(), nullptr, 10));
      if (submitters == 0) submitters = 1;
    }
    // Drain the zone-trace rings to a chrome://tracing JSON after the
    // run. Zones only record in a -DPPQ_TRACE=ON build; the default
    // build writes a valid empty trace.
    if (arg.rfind("--trace-out=", 0) == 0) trace_path = arg.substr(12);
  }
  if (mixed) {
    // --mixed serves with --threads workers (default 4), driven by
    // --submitters caller threads.
    if (!threads_given) options.threads = 0;
    return ppq::bench::RunMixed(options, submitters, json_path, trace_path);
  }
  // The batch ladder sweeps 1/2/4/8 threads by default.
  if (!threads_given) options.threads = 0;
  return ppq::bench::Run(options, json_path);
}
