#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <thread>
#include <variant>

#include "common/geo.h"
#include "common/random.h"
#include "core/metrics.h"
#include "core/query_engine.h"
#include "core/serialization.h"
#include "datagen/generator.h"
#include "obs/metrics.h"

namespace ppq::perfbench {

// --- clocks, threads, memory ----------------------------------------------

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return static_cast<double>(NowNanos()) * 1e-9; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec +
                             usage.ru_stime.tv_usec) *
             1e-6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
std::atomic<size_t> g_peak_threads{0};
}  // namespace

void SampleThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) != 0) continue;
    const size_t now = std::strtoull(line.c_str() + 8, nullptr, 10);
    size_t seen = g_peak_threads.load();
    while (now > seen && !g_peak_threads.compare_exchange_weak(seen, now)) {
    }
    return;
  }
}

size_t PeakThreads() { return g_peak_threads.load(); }

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

std::vector<double> Repeat(int min_reps, double min_seconds,
                           const std::function<bool()>& body) {
  std::vector<double> times;
  const double start = NowSeconds();
  while (static_cast<int>(times.size()) < min_reps ||
         NowSeconds() - start < min_seconds) {
    const double t0 = NowSeconds();
    if (!body()) break;
    times.push_back(NowSeconds() - t0);
  }
  return times;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// --- spans -----------------------------------------------------------------

namespace {
uint32_t ThisThreadTraceId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}
}  // namespace

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                    int64_t request) {
  if (!enabled_) return;
  const uint32_t tid = ThisThreadTraceId();
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back({name, start_ns, end_ns, request, tid});
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Event& e : events_) {
    if (name == e.name) {
      out.push_back(static_cast<double>(e.end_ns - e.start_ns) * 1e-3);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> sorted = events_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Event& a, const Event& b) {
              return a.start_ns < b.start_ns;
            });
  const uint64_t epoch = sorted.empty() ? 0 : sorted.front().start_ns;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[", file);
  for (size_t i = 0; i < sorted.size(); ++i) {
    const Event& e = sorted[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":0,\"tid\":%u",
                 i == 0 ? "" : ",", e.name,
                 static_cast<double>(e.start_ns - epoch) * 1e-3,
                 static_cast<double>(e.end_ns - e.start_ns) * 1e-3, e.tid);
    if (e.request >= 0) {
      std::fprintf(file, ",\"args\":{\"req\":%lld}",
                   static_cast<long long>(e.request));
    }
    std::fputc('}', file);
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

// --- report ----------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit, ""});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, const std::string& target) {
  layers_.push_back({name, value, unit, target});
}

void Report::Deterministic(const std::string& name, double value) {
  deterministic_.push_back({name, value, "", ""});
}

void Report::Fail(const std::string& what) {
  if (failed_ < 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  ++failed_;
}

namespace {
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

std::string Report::ToJson(const std::string& workload, uint64_t seed) const {
  std::ostringstream out;
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"peak_threads\":" << PeakThreads() << ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    out << (i ? "," : "") << "\"" << metrics_[i].name << "\":{\"value\":"
        << Number(metrics_[i].value) << ",\"unit\":\"" << metrics_[i].unit
        << "\"}";
  }
  out << "},\"layers\":{";
  for (size_t i = 0; i < layers_.size(); ++i) {
    out << (i ? "," : "") << "\"" << layers_[i].name << "\":{\"value\":"
        << Number(layers_[i].value) << ",\"unit\":\"" << layers_[i].unit
        << "\",\"target\":\"" << layers_[i].target << "\"}";
  }
  out << "},\"deterministic\":{";
  for (size_t i = 0; i < deterministic_.size(); ++i) {
    out << (i ? "," : "") << "\"" << deterministic_[i].name
        << "\":" << Number(deterministic_[i].value);
  }
  out << "}}";
  return out.str();
}

// --- inputs, requests, oracles ----------------------------------------------

TrajectoryDataset MakePorto(uint64_t seed, int trajectories) {
  datagen::GeneratorOptions gen;
  gen.num_trajectories = trajectories;
  gen.horizon = 400;
  gen.min_length = 30;
  gen.max_length = 350;
  gen.seed = seed;
  return datagen::PortoLikeGenerator(gen).Generate();
}

core::PpqOptions PpqAOptions() {
  core::PpqOptions options = core::MakePpqA();
  options.mode = core::QuantizationMode::kErrorBounded;
  return options;
}

namespace {

std::vector<TrajId> Sorted(std::vector<TrajId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Request kind of the i-th draw, in the 2:2:2:1:1 round of kMixRound:
/// exact STRQ, local-search STRQ, exact window, k-NN, exact TPQ.
Item MakeItem(const TrajectoryDataset& data, const core::QuerySpec& q,
              size_t i, Rng& rng) {
  Item item;
  item.tick = q.tick;
  item.active = data.ActiveIdsAt(q.tick).size();
  const size_t slot = i % kMixRound;
  if (slot < 4) {
    const core::StrqMode mode =
        slot < 2 ? core::StrqMode::kExact : core::StrqMode::kLocalSearch;
    item.request = core::StrqRequest{q, mode};
    item.truth = Sorted(core::QueryEngine::GroundTruth(data, q, kCellSize));
  } else if (slot < 6) {
    const double half = rng.Uniform(0.001, 0.01);
    const core::Window window{q.position.x - half, q.position.y - half,
                              q.position.x + half, q.position.y + half};
    item.request = core::WindowRequest{core::WindowSpec{window, q.tick},
                                       core::StrqMode::kExact};
    item.truth =
        Sorted(core::QueryEngine::WindowGroundTruth(data, window, q.tick));
  } else if (slot == 6) {
    item.request = core::KnnRequest{q, kKnnK};
  } else {
    item.request = core::TpqRequest{q, kTpqLength, core::StrqMode::kExact};
    item.truth = Sorted(core::QueryEngine::GroundTruth(data, q, kCellSize));
  }
  return item;
}

}  // namespace

std::vector<Item> MakeMixedRequests(const TrajectoryDataset& data,
                                    size_t count, uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  const std::vector<core::QuerySpec> queries =
      core::SampleQueries(data, count, &rng);
  std::vector<Item> items;
  items.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    items.push_back(MakeItem(data, queries[i], i, rng));
  }
  std::shuffle(items.begin(), items.end(), rng.engine());
  return items;
}

std::vector<Item> MakeRoundAt(const TrajectoryDataset& data, Tick tick,
                              uint64_t seed) {
  Rng rng(seed * 104729 + static_cast<uint64_t>(tick));
  const TimeSlice slice = data.SliceAt(tick);
  std::vector<Item> items;
  if (slice.empty()) return items;
  for (size_t i = 0; i < kMixRound; ++i) {
    const size_t pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(slice.size()) - 1));
    items.push_back(MakeItem(data, core::QuerySpec{slice.positions[pick], tick},
                             i, rng));
  }
  std::shuffle(items.begin(), items.end(), rng.engine());
  return items;
}

ApproxSample MakeApproxSample(const TrajectoryDataset& data, size_t count,
                              uint64_t seed) {
  Rng rng(seed * 6151 + 3);
  ApproxSample sample;
  sample.queries = core::SampleQueries(data, count, &rng);
  for (const core::QuerySpec& q : sample.queries) {
    sample.truths.push_back(
        Sorted(core::QueryEngine::GroundTruth(data, q, kCellSize)));
  }
  return sample;
}

std::string CheckResponse(const Item& item, const core::QueryResponse& r) {
  if (!r.ok()) return "non-OK response: " + r.status.ToString();
  if (r.kind != core::KindOf(item.request)) return "response of another kind";
  return std::visit(
      core::Overloaded{
          [&](const core::StrqRequest& s) -> std::string {
            const std::vector<TrajId> ids = Sorted(r.strq().ids);
            if (s.mode == core::StrqMode::kExact && ids != item.truth) {
              return "exact STRQ differs from ground truth";
            }
            if (s.mode == core::StrqMode::kLocalSearch &&
                !std::includes(ids.begin(), ids.end(), item.truth.begin(),
                               item.truth.end())) {
              return "local-search STRQ misses a ground-truth id";
            }
            return "";
          },
          [&](const core::WindowRequest&) -> std::string {
            return Sorted(r.strq().ids) == item.truth
                       ? ""
                       : "exact window differs from ground truth";
          },
          [&](const core::KnnRequest& k) -> std::string {
            const std::vector<core::Neighbor>& n = r.neighbors();
            if (n.empty() || n.size() > k.k) return "k-NN answer size";
            return std::is_sorted(n.begin(), n.end(), core::NeighborOrder)
                       ? ""
                       : "k-NN answer out of order";
          },
          [&](const core::TpqRequest& t) -> std::string {
            const core::TpqResult& tpq = r.tpq();
            if (Sorted(tpq.ids) != item.truth) {
              return "exact TPQ differs from ground truth";
            }
            if (tpq.paths.size() != tpq.ids.size()) return "TPQ path count";
            for (const auto& path : tpq.paths) {
              if (path.empty() || path.size() > static_cast<size_t>(t.length)) {
                return "TPQ path length";
              }
            }
            return "";
          },
      },
      item.request);
}

bool SamePayload(const core::QueryResponse& a, const core::QueryResponse& b) {
  return a.ok() && b.ok() && a.kind == b.kind && a.result == b.result;
}

PrecisionRecall ApproxPrecisionRecall(core::QueryBackend& backend,
                                      const ApproxSample& sample,
                                      Report& report) {
  std::vector<core::QueryRequest> requests;
  requests.reserve(sample.queries.size());
  for (const core::QuerySpec& q : sample.queries) {
    requests.push_back(core::StrqRequest{q, core::StrqMode::kApproximate});
  }
  report.Attempt(requests.size());
  auto futures = backend.SubmitBatch(std::move(requests));
  PrecisionRecall pr;
  for (size_t i = 0; i < futures.size(); ++i) {
    const core::QueryResponse r = futures[i].get();
    if (!r.ok()) {
      report.Fail("approximate STRQ: " + r.status.ToString());
      continue;
    }
    const std::vector<TrajId> ids = Sorted(r.strq().ids);
    const std::vector<TrajId>& truth = sample.truths[i];
    std::vector<TrajId> both;
    std::set_intersection(truth.begin(), truth.end(), ids.begin(), ids.end(),
                          std::back_inserter(both));
    pr.AddQuery(both.size(), ids.size(), truth.size());
  }
  return pr;
}

core::QueryResponse SerialResponse(const core::QueryEngine& engine,
                                   const core::QueryRequest& request) {
  core::QueryResponse r;
  r.kind = core::KindOf(request);
  std::visit(core::Overloaded{
                 [&](const core::StrqRequest& s) {
                   r.result = engine.Strq(s.query, s.mode);
                 },
                 [&](const core::WindowRequest& w) {
                   r.result = engine.WindowQuery(w.window.window,
                                                 w.window.tick, w.mode);
                 },
                 [&](const core::KnnRequest& k) {
                   r.result = engine.NearestTrajectories(k.query, k.k);
                 },
                 [&](const core::TpqRequest& t) {
                   r.result = engine.Tpq(t.query, t.length, t.mode);
                 },
             },
             request);
  return r;
}

double SnapshotMaeMeters(
    const TrajectoryDataset& raw,
    const std::function<const core::SummarySnapshot*(TrajId)>& snapshot_of,
    Report& report) {
  double sum = 0.0;
  size_t n = 0;
  std::vector<Point> decoded;
  core::DecodeMemo memo;
  for (const Trajectory& traj : raw.trajectories()) {
    const core::SummarySnapshot* snapshot = snapshot_of(traj.id);
    decoded.resize(traj.points.size());
    const size_t got =
        snapshot == nullptr
            ? 0
            : snapshot->ReconstructSpan(traj.id, traj.start_tick,
                                        traj.points.size(), decoded.data(),
                                        &memo);
    if (got != traj.points.size()) {
      report.Fail("seal decodes " + std::to_string(got) + " of " +
                  std::to_string(traj.points.size()) + " points of trajectory " +
                  std::to_string(traj.id));
    }
    for (size_t i = 0; i < got; ++i) {
      sum += DegreeDistanceMeters(traj.points[i], decoded[i]);
    }
    n += got;
    memo.Clear();
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// --- closed-loop client ----------------------------------------------------

void ServeTotals::Add(const Item& item, const core::QueryResponse& response) {
  ++requests;
  const core::QueryStats& s = response.stats;
  queue_us += static_cast<double>(s.queue_micros);
  for (size_t st = 0; st < core::kNumServeStages; ++st) {
    stage_us[st] += static_cast<double>(s.stage_micros[st]);
  }
  candidates += static_cast<double>(s.candidates_visited);
  points_decoded += static_cast<double>(s.points_decoded);
  const auto* strq = std::get_if<core::StrqRequest>(&item.request);
  if (strq != nullptr && strq->mode == core::StrqMode::kExact &&
      response.ok()) {
    exact_candidates += static_cast<double>(s.candidates_visited);
    exact_active += static_cast<double>(item.active);
    exact_answers += static_cast<double>(response.strq().ids.size());
  }
}

namespace {
constexpr const char* kQuerySpanNames[4] = {"query.strq", "query.window",
                                            "query.knn", "query.tpq"};
}  // namespace

void RecordRequestSpans(Tracer& tracer, core::QueryKind kind,
                        uint64_t submit_ns, uint64_t done_ns,
                        const core::QueryStats& stats, int64_t id) {
  if (!tracer.enabled()) return;
  const uint64_t queued = submit_ns + stats.queue_micros * 1000;
  tracer.Record(kQuerySpanNames[static_cast<size_t>(kind)], submit_ns, done_ns,
                id);
  tracer.Record("core.queue", submit_ns, queued, id);
  tracer.Record("core.eval", queued, queued + stats.eval_micros * 1000, id);
}

void RunClosedLoop(core::QueryBackend& backend, const std::vector<Item>& items,
                   size_t inflight, double seconds, Tracer& tracer,
                   Report& report, LoopResult& out) {
  struct Slot {
    std::future<core::QueryResponse> future;
    size_t request = 0;
    uint64_t submit_ns = 0;
    bool busy = false;
  };
  /// A resolved request, held until its slot has been refilled.
  struct Done {
    size_t request;
    uint64_t submit_ns;
    uint64_t done_ns;
    core::QueryResponse response;
  };
  const bool first = out.first_responses.empty();
  if (first) out.first_responses.resize(items.size());
  // Request ids go on from earlier passes, so spans stay unique.
  const size_t id_base = out.all.requests;
  std::vector<Slot> slots(inflight);
  std::vector<Done> done;
  done.reserve(inflight);
  size_t submitted = 0;
  const double client_cpu0 = ThreadCpuSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  const auto submit = [&](Slot& slot) {
    slot.request = submitted++;
    slot.submit_ns = NowNanos();
    slot.future = backend.Submit(items[slot.request % items.size()].request);
    slot.busy = true;
    report.Attempt();
  };
  for (Slot& slot : slots) submit(slot);
  size_t busy = slots.size();
  SampleThreads();
  while (busy > 0) {
    // Stamp every ready slot first, then refill them all, and only then
    // check the answers: the client's own work neither delays a stamp
    // nor leaves a worker waiting for a request.
    for (Slot& slot : slots) {
      if (!slot.busy || slot.future.wait_for(std::chrono::seconds(0)) !=
                            std::future_status::ready) {
        continue;
      }
      done.push_back({slot.request, slot.submit_ns, NowNanos(), {}});
      done.back().response = slot.future.get();
      slot.busy = false;
      --busy;
    }
    if (done.empty()) {
      std::this_thread::yield();
      continue;
    }
    for (Slot& slot : slots) {
      if (slot.busy ||
          (submitted >= items.size() && NowNanos() >= deadline)) {
        continue;
      }
      submit(slot);
      ++busy;
    }
    for (Done& d : done) {
      const size_t index = d.request % items.size();
      const Item& item = items[index];
      out.latency_us.push_back(static_cast<double>(d.done_ns - d.submit_ns) *
                               1e-3);
      ++out.completions;
      RecordRequestSpans(tracer, core::KindOf(item.request), d.submit_ns,
                         d.done_ns, d.response.stats,
                         static_cast<int64_t>(id_base + d.request));
      const std::string why = CheckResponse(item, d.response);
      if (!why.empty()) report.Fail(why);
      out.all.Add(item, d.response);
      if (first && d.request < items.size()) {
        out.first_pass.Add(item, d.response);
        out.first_responses[index] = std::move(d.response);
      }
      if ((out.completions & 1023) == 0) SampleThreads();
    }
    done.clear();
  }
  out.wall_s += static_cast<double>(NowNanos() - start) * 1e-9;
  out.serve_cpu_s += (ProcessCpuSeconds() - cpu0) -
                     (ThreadCpuSeconds() - client_cpu0);
}

void ReportServeLayers(const ServeTotals& all, const ServeTotals& counted,
                       double serve_cpu_us, const Tracer& tracer,
                       Report& report) {
  const double n = std::max<double>(1.0, static_cast<double>(all.requests));
  const auto stage = [&](core::ServeStage s) {
    return all.stage_us[static_cast<size_t>(s)] / n;
  };
  const double counted_n =
      std::max<double>(1.0, static_cast<double>(counted.requests));
  report.Layer("core.queue_us", all.queue_us / n, "us", "query_p50_us");
  report.Layer("index.scan_us", stage(core::ServeStage::kScan), "us",
               "query_capacity_qps");
  report.Layer("core.decode_us", stage(core::ServeStage::kDecode), "us",
               "query_capacity_qps");
  report.Layer("common.kernel_us", stage(core::ServeStage::kKernel), "us",
               "none");
  report.Layer("repo.tail_us", stage(core::ServeStage::kTail), "us",
               "query_p50_us");
  report.Layer("repo.merge_us", stage(core::ServeStage::kMerge), "us",
               "query_p99_us");
  report.Layer("index.candidates_per_query", counted.candidates / counted_n,
               "count", "query_capacity_qps");
  report.Layer("core.points_decoded_per_query",
               counted.points_decoded / counted_n, "count",
               "query_capacity_qps");
  report.Layer("index.exact_visit_ratio",
               counted.exact_active > 0
                   ? counted.exact_candidates / counted.exact_active
                   : 0.0,
               "ratio", "query_capacity_qps");
  report.Layer("index.exact_hit_ratio",
               counted.exact_candidates > 0
                   ? counted.exact_answers / counted.exact_candidates
                   : 0.0,
               "ratio", "query_capacity_qps");
  report.Layer("core.serve_cpu_us", serve_cpu_us, "us",
               "query_capacity_qps");
  static constexpr const char* kLayerNames[4] = {
      "core.strq_p50_us", "core.window_p50_us", "core.knn_p50_us",
      "core.tpq_p50_us"};
  for (size_t kind = 0; kind < 4; ++kind) {
    report.Layer(kLayerNames[kind],
                 Median(tracer.DurationsUs(kQuerySpanNames[kind])), "us",
                 "query_p50_us");
  }
}

// --- end-to-end figures ------------------------------------------------------

void ReportFigures(const Figures& f, Report& report) {
  const double summary_bpp = f.summary_bytes / f.points;
  const double disk_bpp = f.disk_bytes / f.points;
  report.Metric("setup_s", f.setup_s, "s");
  report.Metric("ingest_points_per_s", f.points / f.ingest_s, "points/s");
  report.Metric("summary_bytes_per_point", summary_bpp, "B/pt");
  report.Metric("disk_bytes_per_point", disk_bpp, "B/pt");
  report.Metric("summary_mae_m", f.mae_m, "m");
  report.Metric("approx_precision", f.approx.precision(), "ratio");
  report.Metric("approx_recall", f.approx.recall(), "ratio");
  report.Metric("query_p50_us", f.p50_us, "us");
  report.Metric("query_p99_us", f.p99_us, "us");
  report.Metric("query_capacity_qps", f.completions / f.serve_wall_s, "req/s");
  report.Metric("reopen_s", f.reopen_s, "s");

  report.Deterministic("points", f.points);
  report.Deterministic("summary_bytes_per_point", summary_bpp);
  report.Deterministic("disk_bytes_per_point", disk_bpp);
  report.Deterministic("summary_mae_m", f.mae_m);
  report.Deterministic("approx_precision", f.approx.precision());
  report.Deterministic("approx_recall", f.approx.recall());
  report.Deterministic("repo.seals", f.seals);
  report.Deterministic("repo.wal_generations", f.wal_generations);
  report.Deterministic("quantizer.codewords", f.codewords);
  report.Deterministic("index.tpi_periods", f.tpi_periods);
  report.Deterministic("index.candidates_total", f.candidates);
  report.Deterministic("core.points_decoded_total", f.points_decoded);
}

// --- per-layer helpers -------------------------------------------------------

void EncoderTotals::Add(const core::PpqTrajectory& encoder) {
  partition_s += encoder.partition_seconds();
  for (const core::EncodeTickStats& tick : encoder.tick_stats()) {
    ticks += 1;
    partitions += tick.partitions;
    violators += static_cast<double>(tick.violators);
  }
  quantized += static_cast<double>(encoder.summary().TotalPoints());
  codewords += static_cast<double>(encoder.NumCodewords());
  if (const index::TemporalPartitionIndex* tpi = encoder.index()) {
    tpi_periods += static_cast<double>(tpi->stats().num_periods);
    tpi_rebuilds += static_cast<double>(tpi->stats().num_rebuilds);
  }
  const core::SummarySize s = encoder.summary().Size();
  size.codebook_bytes += s.codebook_bytes;
  size.code_index_bytes += s.code_index_bytes;
  size.coefficient_bytes += s.coefficient_bytes;
  size.partition_id_bytes += s.partition_id_bytes;
  size.cqc_bytes += s.cqc_bytes;
  size.metadata_bytes += s.metadata_bytes;
}

void ReportEncoderLayers(const EncoderTotals& t, double points,
                         Report& report) {
  const auto per_point = [&](size_t bytes) {
    return static_cast<double>(bytes) / points;
  };
  report.Layer("partition.busy_s", t.partition_s, "s", "ingest_points_per_s");
  report.Layer("partition.partitions_per_tick",
               t.ticks > 0 ? t.partitions / t.ticks : 0.0, "count",
               "ingest_points_per_s");
  report.Layer("quantizer.codewords", t.codewords, "count",
               "summary_bytes_per_point");
  report.Layer("quantizer.hit_ratio",
               t.quantized > 0 ? 1.0 - t.violators / t.quantized : 0.0,
               "ratio", "summary_bytes_per_point");
  report.Layer("cqc.bytes_per_point", per_point(t.size.cqc_bytes), "B/pt",
               "summary_bytes_per_point");
  report.Layer("core.codebook_bytes_per_point",
               per_point(t.size.codebook_bytes), "B/pt",
               "summary_bytes_per_point");
  report.Layer("core.code_bytes_per_point",
               per_point(t.size.code_index_bytes), "B/pt",
               "summary_bytes_per_point");
  report.Layer("core.coefficient_bytes_per_point",
               per_point(t.size.coefficient_bytes), "B/pt",
               "summary_bytes_per_point");
  report.Layer("index.tpi_periods", t.tpi_periods, "count",
               "ingest_points_per_s");
  report.Layer("index.tpi_rebuilds", t.tpi_rebuilds, "count",
               "ingest_points_per_s");
}

size_t DirectoryBytes(const std::string& dir,
                      const std::function<bool(const std::string&)>& keep) {
  size_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (!keep(entry.path().filename().string())) continue;
    total += static_cast<size_t>(entry.file_size());
  }
  return total;
}

size_t ContainerIndexBytes(const std::string& path, Report& report) {
  report.Attempt();
  auto reader = core::SectionReader::Open(path);
  if (!reader.ok()) {
    report.Fail("reading sections of " + path + ": " +
                reader.status().ToString());
    return 0;
  }
  for (const auto& section : reader->sections()) {
    if (section.tag == core::kSectionTpi) return section.length;
  }
  return 0;
}

void ResetDirectory(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}


size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(n) * scale)));
}

HistogramTotals RegistryHistogram(const std::string& name) {
  HistogramTotals totals;
  for (const auto& h : obs::Registry::Default().Snapshot().histograms) {
    if (h.name != name) continue;
    totals.count += static_cast<double>(h.snapshot.count);
    totals.sum += static_cast<double>(h.snapshot.sum);
  }
  return totals;
}

}  // namespace ppq::perfbench
