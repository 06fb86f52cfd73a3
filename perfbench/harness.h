#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/options.h"
#include "core/ppq_trajectory.h"
#include "core/query_backend.h"
#include "core/query_engine.h"
#include "core/query_types.h"
#include "core/snapshot.h"

/// \file harness.h
/// Shared pieces of the benchmark workloads: argument block, input
/// and request generation with their oracles, the closed-loop client, the
/// benchmark-side span recorder, and the report printed as one JSON line.
/// Everything here calls the repository through its public headers only.

namespace ppq::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured time: porto-sealed shares it between ingest
  /// and serving, porto-live repeats whole cycles for it.
  double seconds = 10.0;
  /// Record spans and print per-layer metrics.
  bool trace = false;
  /// Directory for every file the workload persists (created, emptied).
  std::string dir;
  /// chrome://tracing output of a traced run ("" = do not write).
  std::string trace_out;
  /// Multiplies the input size (the determinism test runs small inputs).
  double scale = 1.0;
};

// --- clocks, threads, memory ----------------------------------------------

uint64_t NowNanos();
double NowSeconds();
/// Process CPU seconds (user + system, every thread).
double ProcessCpuSeconds();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// ru_maxrss of the process, in MiB.
double PeakRssMb();
/// Read `Threads:` from /proc/self/status and keep the maximum seen.
void SampleThreads();
size_t PeakThreads();

double Sum(const std::vector<double>& values);
/// Mean of \p values (0 for an empty list). Repeated ingest and reopen
/// timings are averaged, not medianed: the host alternates between a fast
/// and a slow state, and a median of repetitions flips between the two
/// where a mean moves with the share of time spent in each.
double Mean(const std::vector<double>& values);
/// Run \p body until it has run \p min_reps times and for \p min_seconds,
/// or until it returns false; the wall time of every completed run.
std::vector<double> Repeat(int min_reps, double min_seconds,
                           const std::function<bool()>& body);
/// Median of \p values (0 for an empty list).
double Median(std::vector<double> values);
/// Nearest-rank percentile, \p q in [0, 1] (0 for an empty list).
double Percentile(std::vector<double> values, double q);

// --- spans -----------------------------------------------------------------

/// Benchmark-side span recorder. Spans are kept in memory and written as
/// chrome://tracing "X" events at the end of a traced run, in the layout
/// obs::trace::WriteChromeTrace uses. Spans of one request share the
/// `req` argument. Disabled recorders drop every call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// \p name must be a string literal.
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t request = -1);
  /// Durations of every span called \p name, in microseconds.
  std::vector<double> DurationsUs(const std::string& name) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t request;
    uint32_t tid;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name), start_(NowNanos()) {}
  ~ScopedSpan() { tracer_.Record(name_, start_, NowNanos()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  uint64_t start_;
};

// --- report ----------------------------------------------------------------

/// Everything one workload run prints: end-to-end metrics, per-layer
/// metrics (traced runs), the values the determinism test compares, and
/// operation accounting.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// \p target names the end-to-end metric the layer should move.
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& target);
  /// A value that must repeat exactly for the same seed.
  void Deterministic(const std::string& name, double value);
  void Attempt(size_t n = 1) { attempted_ += n; }
  /// Count one failed operation; the first few are described on stderr.
  void Fail(const std::string& what);
  size_t failed() const { return failed_; }
  /// One JSON object on one line.
  std::string ToJson(const std::string& workload, uint64_t seed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string target;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> layers_;
  std::vector<Entry> deterministic_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// --- inputs, requests, oracles ----------------------------------------------

/// Evaluation grid cell gc (100 m), shared by queries and their oracles.
inline constexpr double kCellSize = 100.0 / 111320.0;
inline constexpr size_t kKnnK = 8;
inline constexpr int kTpqLength = 8;
/// One round of the mixed stream: 2 exact STRQ, 2 local-search STRQ,
/// 2 exact window, 1 k-NN, 1 exact TPQ, the 2:2:2:1:1 request stream of
/// bench_serve --mixed. Request lists are drawn in whole rounds.
inline constexpr size_t kMixRound = 8;

/// Generator seed of every workload's trajectory data. --seed draws the
/// request streams and samples; the data stay fixed because on these
/// generators the index layout, and with it the per-request scan cost,
/// changes up to 3.6x from one data seed to the next (porto-sealed: 98 vs
/// 352 us of scan per request between data seeds 1 and 3), which would
/// swamp any change a bound of at most 25% is meant to catch.
inline constexpr uint64_t kDataSeed = 42;

/// Porto-like dense short trips (horizon 400 ticks).
TrajectoryDataset MakePorto(uint64_t seed, int trajectories);
/// PPQ-A, error-bounded with CQC, at the library's default thresholds.
core::PpqOptions PpqAOptions();

/// One request of the mixed stream plus what its answer is checked
/// against.
struct Item {
  core::QueryRequest request;
  Tick tick = 0;
  /// Sorted ground truth of the request's cell or window. Exact STRQ,
  /// window and TPQ must equal it; local-search STRQ must contain it.
  std::vector<TrajId> truth;
  /// Trajectories active at the tick (Table 4's visit-ratio base).
  size_t active = 0;
};

/// The mixed stream: exact and local-search STRQ, exact window, k-NN
/// (k = 8) and exact TPQ (length 8) in the kMixRound ratios, at points
/// drawn from \p data, in a seeded shuffle. Ground truth is computed
/// here, before any timing.
std::vector<Item> MakeMixedRequests(const TrajectoryDataset& data,
                                    size_t count, uint64_t seed);
/// One round of the mix aimed at one tick (porto-live queries at the
/// ingest frontier).
std::vector<Item> MakeRoundAt(const TrajectoryDataset& data, Tick tick,
                              uint64_t seed);

/// Size of the approximate-mode STRQ sample that scores precision and
/// recall. The seed draws it, so its size sets how far recall moves from
/// one seed to the next: at 4,000 queries, 0.018 (Q3 - Q1 over median,
/// ten seeds) against a bound of 0.05.
inline constexpr size_t kApproxQueries = 8000;

/// Approximate-mode STRQ sample and its ground truth.
struct ApproxSample {
  std::vector<core::QuerySpec> queries;
  std::vector<std::vector<TrajId>> truths;
};
ApproxSample MakeApproxSample(const TrajectoryDataset& data, size_t count,
                              uint64_t seed);

/// The oracle check of one response; "" when it passes, else the reason.
std::string CheckResponse(const Item& item, const core::QueryResponse& r);
/// Byte-level equality of two responses' payloads (serial-engine parity).
bool SamePayload(const core::QueryResponse& a, const core::QueryResponse& b);

/// Serve \p sample through \p backend in approximate mode (untimed) and
/// score it against ground truth, micro-averaged like core::EvaluateStrq.
PrecisionRecall ApproxPrecisionRecall(core::QueryBackend& backend,
                                      const ApproxSample& sample,
                                      Report& report);

/// The serial engine's answer to \p request, shaped like a response.
core::QueryResponse SerialResponse(const core::QueryEngine& engine,
                                   const core::QueryRequest& request);

/// Mean |reconstruction - raw| in metres over every point of \p raw,
/// decoded span by span from the snapshot \p snapshot_of names for the
/// point's trajectory. Points the snapshot cannot decode count as a
/// failure.
double SnapshotMaeMeters(
    const TrajectoryDataset& raw,
    const std::function<const core::SummarySnapshot*(TrajId)>& snapshot_of,
    Report& report);

/// Count and sum of every series of the obs::Registry histogram \p name.
struct HistogramTotals {
  double count = 0;
  double sum = 0;
};
HistogramTotals RegistryHistogram(const std::string& name);

// --- closed-loop client ----------------------------------------------------

/// Per-request serving counters summed over a closed-loop pass.
struct ServeTotals {
  size_t requests = 0;
  double queue_us = 0;
  std::array<double, core::kNumServeStages> stage_us{};
  double candidates = 0;
  double points_decoded = 0;
  /// Exact STRQ only: Table 4 numerator/denominator and answers.
  double exact_candidates = 0;
  double exact_active = 0;
  double exact_answers = 0;

  void Add(const Item& item, const core::QueryResponse& response);
};

/// The spans of one request: query.<kind> from submit to resolve, with
/// core.queue and core.eval placed from its QueryStats. All three carry
/// \p id as their `req` argument.
void RecordRequestSpans(Tracer& tracer, core::QueryKind kind,
                        uint64_t submit_ns, uint64_t done_ns,
                        const core::QueryStats& stats, int64_t id);

/// What closed-loop passes measured, summed over every pass.
struct LoopResult {
  std::vector<double> latency_us;
  size_t completions = 0;
  double wall_s = 0;
  /// CPU of every thread but the client's.
  double serve_cpu_s = 0;
  /// Counters over every completion, and over the first pass of the list
  /// only (fixed, so they repeat exactly for a seed).
  ServeTotals all;
  ServeTotals first_pass;
  /// Responses of the first pass, in list order (serial-parity input).
  std::vector<core::QueryResponse> first_responses;
};

/// One client thread (the caller) keeps \p inflight requests of \p items
/// in flight against \p backend, cycling through the list, and refills a
/// slot as soon as any request resolves. Runs for \p seconds and at least
/// one full pass, and adds what it measured to \p out; the first pass
/// into an empty \p out is kept as its first pass. Every response is
/// checked against its oracle after the ready slots have been stamped and
/// refilled.
void RunClosedLoop(core::QueryBackend& backend, const std::vector<Item>& items,
                   size_t inflight, double seconds, Tracer& tracer,
                   Report& report, LoopResult& out);

/// Per-layer serving metrics shared by every workload: stage means over
/// \p all, per-query counts over \p counted, and the serving CPU per
/// request.
void ReportServeLayers(const ServeTotals& all, const ServeTotals& counted,
                       double serve_cpu_us, const Tracer& tracer,
                       Report& report);

// --- end-to-end figures ------------------------------------------------------

/// What a workload measured: the end-to-end metrics, and the values that
/// must repeat exactly for a seed.
struct Figures {
  double points = 0;
  double setup_s = 0;
  /// Mean wall time of one ingest.
  double ingest_s = 0;
  double summary_bytes = 0;
  double disk_bytes = 0;
  double mae_m = 0;
  PrecisionRecall approx;
  /// Closed-loop submit-to-resolve latency percentiles, completions, and
  /// the wall time they took.
  double p50_us = 0;
  double p99_us = 0;
  double completions = 0;
  double serve_wall_s = 0;
  double reopen_s = 0;
  double seals = 0;
  double wal_generations = 0;
  double codewords = 0;
  double tpi_periods = 0;
  /// Summed over the fixed list of checked requests.
  double candidates = 0;
  double points_decoded = 0;
};

/// Every end-to-end metric but peak_rss_mb (main adds it), and the
/// deterministic values.
void ReportFigures(const Figures& figures, Report& report);

// --- per-layer helpers -------------------------------------------------------

/// Encoder counters summed over one or more PPQ compressors (shards).
struct EncoderTotals {
  double partition_s = 0;
  double ticks = 0;
  double partitions = 0;  ///< summed over ticks
  double violators = 0;
  double quantized = 0;  ///< points encoded
  double codewords = 0;
  double tpi_periods = 0;
  double tpi_rebuilds = 0;
  core::SummarySize size;

  void Add(const core::PpqTrajectory& encoder);
};
/// partition.*, quantizer.*, cqc.*, core.*_bytes_per_point, index.tpi_*.
void ReportEncoderLayers(const EncoderTotals& totals, double points,
                         Report& report);

/// Sum of the sizes of every regular file in \p dir whose name passes
/// \p keep.
size_t DirectoryBytes(const std::string& dir,
                      const std::function<bool(const std::string&)>& keep);
/// Bytes of the "TPI " section of the snapshot container at \p path.
size_t ContainerIndexBytes(const std::string& path, Report& report);

/// Wipe and recreate \p dir.
void ResetDirectory(const std::string& dir);

/// Scale a size by Args::scale (at least 1).
size_t Scaled(size_t n, double scale);

/// Set-up repetitions of every workload (inputs, request lists, oracles):
/// at least this long in all, spread over the run.
inline constexpr double kSetupSeconds = 3.0;

// --- workloads --------------------------------------------------------------

void RunPortoSealed(const Args& args, Tracer& tracer, Report& report);
void RunPortoLive(const Args& args, Tracer& tracer, Report& report);

}  // namespace ppq::perfbench
