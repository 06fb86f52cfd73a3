#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/options.h"
#include "core/ppq_trajectory.h"
#include "datagen/generator.h"
#include "index/rectangle.h"

/// \file bench_common.h
/// Shared scaffolding for the table/figure reproduction binaries: workload
/// construction (Porto-like / GeoLife-like / sub-Porto, Section 6.1),
/// method factory covering the paper's nine compared methods, common
/// CLI parsing (--scale grows or shrinks every workload, --queries sets
/// the query batch size, --seed the RNG seed, --threads the serving
/// parallelism), and wall-clock throughput reporting so every bench run
/// leaves a parseable perf trail (points/sec encode, queries/sec serve).

namespace ppq::bench {

/// \brief Common benchmark CLI options.
struct BenchOptions {
  /// Multiplies trajectory counts (and the query batch) of every workload.
  double scale = 1.0;
  /// Query batch size (the paper uses 10,000; the default here is sized
  /// for laptop runtimes and can be raised with --queries).
  size_t queries = 1000;
  uint64_t seed = 42;
  /// Serving thread count (bench_persist's QueryService workers).
  size_t threads = 1;
};

/// Parse --scale=<f> --queries=<n> --seed=<n> --threads=<n>; unknown
/// flags are ignored.
BenchOptions ParseArgs(int argc, char** argv);

/// The value of a --json=<path> flag, or "" when absent. bench_micro
/// writes its machine-readable perf record there (BENCH_micro.json in CI,
/// uploaded as an artifact).
std::string ParseJsonPath(int argc, char** argv);

/// \brief Accumulates named metric records and writes them as one JSON
/// document: {"bench": <name>, "records": [{"name": ..., <field>: <num>,
/// ...}, ...]}. Field order is preserved; values print with %.17g so the
/// file round-trips doubles exactly. No external JSON dependency.
class PerfJson {
 public:
  /// Start a new record; subsequent Field() calls attach to it.
  void Begin(const std::string& name);
  void Field(const std::string& key, double value);
  /// Convenience for string-valued fields (kernel level, workload name).
  void Text(const std::string& key, const std::string& value);

  bool empty() const { return records_.empty(); }
  /// Write the document to \p path (overwrites); false on I/O failure.
  bool Write(const std::string& path, const std::string& bench) const;

 private:
  struct Entry {
    std::string key;
    bool is_text = false;
    double number = 0.0;
    std::string text;
  };
  struct Record {
    std::string name;
    std::vector<Entry> entries;
  };
  std::vector<Record> records_;
};

/// \brief Print one machine-parseable throughput line:
///   [throughput] method=<name> phase=<phase> items=<n> seconds=<s> rate=<r>
/// Phases in use: "encode" (points/sec) and "serve" (queries/sec), one
/// shape across every bench so a run's lines can be grepped together.
void PrintThroughput(const std::string& method, const char* phase,
                     size_t items, double seconds);

/// Compress \p data into \p method (streaming tick by tick + Finish) and
/// print the encode throughput line.
void CompressTimed(core::Compressor& method, const TrajectoryDataset& data);

/// \brief A benchmark workload plus its dataset-specific thresholds
/// (Section 6.1 parameter settings, recalibrated to the synthetic
/// workloads as documented in DESIGN.md).
struct DatasetBundle {
  std::string name;
  TrajectoryDataset data;
  /// eps_p for the spatial partition strategy.
  double eps_p_spatial = 0.03;
  /// eps_p for the autocorrelation (ACF) partition strategy.
  double eps_p_autocorr = 0.2;
  /// Index partition threshold eps_s.
  double eps_s = 0.1;
  /// TrajStore root region.
  index::Rect region;
};

/// Porto-like workload: many short urban taxi trips.
DatasetBundle MakePortoBundle(const BenchOptions& options);
/// GeoLife-like workload: fewer, longer, wide-area trajectories.
DatasetBundle MakeGeoLifeBundle(const BenchOptions& options);

/// \brief Quantization regime shared by every method in a run.
struct MethodSetup {
  core::QuantizationMode mode = core::QuantizationMode::kFixedPerTick;
  /// Bits per point in fixed mode.
  int fixed_bits = 8;
  /// eps_1 in degrees (error-bounded mode, and the CQC error space).
  double epsilon1 = 0.001;
  /// CQC cell size gs in degrees.
  double cqc_grid_size = 50.0 / 111320.0;
  bool enable_index = true;
};

/// The paper's method roster in table order.
const std::vector<std::string>& AllMethodNames();
/// The subset used by Table 4 (TrajStore excluded, see Section 6.2.3).
const std::vector<std::string>& FilteringMethodNames();

/// Instantiate a method by its table name, configured for \p bundle.
std::unique_ptr<core::Compressor> MakeCompressor(const std::string& name,
                                                 const DatasetBundle& bundle,
                                                 const MethodSetup& setup);

/// Spatial-deviation helper for Tables 5/6 and Figure 9: configure
/// \p setup so the method family achieves \p deviation_m metres. PPQ-A/S
/// get gs = sqrt(2) * D and eps_1^M = 2 * gs (the paper's setting); the
/// other methods get eps_1^M = D directly.
MethodSetup DeviationSetup(double deviation_m, bool cqc_method);

}  // namespace ppq::bench
