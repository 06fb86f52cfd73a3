#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "baselines/product_quantization.h"
#include "baselines/residual_quantization.h"
#include "baselines/trajstore.h"
#include "common/geo.h"
#include "common/timer.h"

namespace ppq::bench {
namespace {

index::Rect ToRect(const BoundingBox& box) {
  return index::Rect{box.min_x, box.min_y, box.max_x, box.max_y};
}

}  // namespace

BenchOptions ParseArgs(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    double value = 0.0;
    if (std::sscanf(argv[i], "--scale=%lf", &value) == 1) {
      options.scale = value;
    } else if (std::sscanf(argv[i], "--queries=%lf", &value) == 1) {
      options.queries = static_cast<size_t>(value);
    } else if (std::sscanf(argv[i], "--seed=%lf", &value) == 1) {
      options.seed = static_cast<uint64_t>(value);
    } else if (std::sscanf(argv[i], "--threads=%lf", &value) == 1) {
      options.threads = static_cast<size_t>(value);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "flags: --scale=<f> --queries=<n> --seed=<n> --threads=<n> "
          "--json=<path>\n");
    }
  }
  return options;
}

std::string ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return "";
}

void PerfJson::Begin(const std::string& name) {
  records_.push_back(Record{name, {}});
}

void PerfJson::Field(const std::string& key, double value) {
  Entry e;
  e.key = key;
  e.number = value;
  records_.back().entries.push_back(std::move(e));
}

void PerfJson::Text(const std::string& key, const std::string& value) {
  Entry e;
  e.key = key;
  e.is_text = true;
  e.text = value;
  records_.back().entries.push_back(std::move(e));
}

namespace {

/// Minimal string escaping — keys/values here are code-controlled
/// identifiers, but quotes and backslashes must never corrupt the file.
void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool PerfJson::Write(const std::string& path, const std::string& bench) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"bench\": ", f);
  WriteJsonString(f, bench);
  std::fputs(", \"records\": [", f);
  for (size_t r = 0; r < records_.size(); ++r) {
    if (r > 0) std::fputc(',', f);
    std::fputs("\n  {\"name\": ", f);
    WriteJsonString(f, records_[r].name);
    for (const Entry& e : records_[r].entries) {
      std::fputs(", ", f);
      WriteJsonString(f, e.key);
      std::fputs(": ", f);
      if (e.is_text) {
        WriteJsonString(f, e.text);
      } else if (std::isfinite(e.number)) {
        std::fprintf(f, "%.17g", e.number);
      } else {
        std::fputs("null", f);  // JSON has no NaN/inf
      }
    }
    std::fputc('}', f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void PrintThroughput(const std::string& method, const char* phase,
                     size_t items, double seconds) {
  const double rate = seconds > 0.0 ? static_cast<double>(items) / seconds
                                    : 0.0;
  std::printf("[throughput] method=%s phase=%s items=%zu seconds=%.4f "
              "rate=%.0f\n",
              method.c_str(), phase, items, seconds, rate);
}

void CompressTimed(core::Compressor& method, const TrajectoryDataset& data) {
  WallTimer timer;
  method.Compress(data);
  PrintThroughput(method.name(), "encode", data.TotalPoints(),
                  timer.ElapsedSeconds());
}

DatasetBundle MakePortoBundle(const BenchOptions& options) {
  datagen::GeneratorOptions gen;
  gen.num_trajectories =
      std::max(20, static_cast<int>(1500 * options.scale));
  gen.horizon = 400;
  gen.min_length = 30;
  gen.max_length = 350;
  gen.seed = options.seed;

  DatasetBundle bundle;
  bundle.name = "Porto";
  bundle.data = datagen::PortoLikeGenerator(gen).Generate();
  bundle.eps_p_spatial = 0.03;
  bundle.eps_p_autocorr = 0.2;
  bundle.eps_s = 0.1;
  bundle.region = ToRect(datagen::PortoLikeGenerator::Region());
  return bundle;
}

DatasetBundle MakeGeoLifeBundle(const BenchOptions& options) {
  datagen::GeneratorOptions gen;
  gen.num_trajectories =
      std::max(10, static_cast<int>(400 * options.scale));
  gen.horizon = 500;
  gen.min_length = 120;
  gen.max_length = 500;
  gen.seed = options.seed + 1;

  DatasetBundle bundle;
  bundle.name = "Geolife";
  bundle.data = datagen::GeoLifeLikeGenerator(gen).Generate();
  bundle.eps_p_spatial = 1.0;  // paper: 5 on GeoLife's global span
  bundle.eps_p_autocorr = 0.2;
  bundle.eps_s = 0.5;
  bundle.region = ToRect(datagen::GeoLifeLikeGenerator::Region());
  return bundle;
}

const std::vector<std::string>& AllMethodNames() {
  static const std::vector<std::string> names = {
      "PPQ-A",        "PPQ-A-basic", "PPQ-S",
      "PPQ-S-basic",  "E-PQ",        "Q-trajectory",
      "Residual Quantization", "Product Quantization", "TrajStore"};
  return names;
}

const std::vector<std::string>& FilteringMethodNames() {
  static const std::vector<std::string> names = {
      "PPQ-A",       "PPQ-A-basic", "PPQ-S",
      "PPQ-S-basic", "E-PQ",        "Q-trajectory",
      "Residual Quantization", "Product Quantization"};
  return names;
}

std::unique_ptr<core::Compressor> MakeCompressor(const std::string& name,
                                                 const DatasetBundle& bundle,
                                                 const MethodSetup& setup) {
  if (name == "Residual Quantization") {
    baselines::ResidualQuantization::Options o;
    o.epsilon1 = setup.epsilon1;
    o.mode = setup.mode;
    o.fixed_bits = setup.fixed_bits;
    o.enable_index = setup.enable_index;
    o.tpi.pi.epsilon_s = bundle.eps_s;
    return std::make_unique<baselines::ResidualQuantization>(o);
  }
  if (name == "Product Quantization") {
    baselines::BaselineOptions o;
    o.epsilon1 = setup.epsilon1;
    o.mode = setup.mode;
    o.fixed_bits = setup.fixed_bits;
    o.enable_index = setup.enable_index;
    o.tpi.pi.epsilon_s = bundle.eps_s;
    return std::make_unique<baselines::ProductQuantization>(o);
  }
  if (name == "TrajStore") {
    baselines::TrajStore::Options o;
    o.epsilon1 = setup.epsilon1;
    o.mode = setup.mode;
    o.fixed_bits = setup.fixed_bits;
    o.enable_index = setup.enable_index;
    o.tpi.pi.epsilon_s = bundle.eps_s;
    o.region = bundle.region;
    return std::make_unique<baselines::TrajStore>(o);
  }

  // PPQ family.
  core::PpqOptions o;
  o.epsilon1 = setup.epsilon1;
  o.mode = setup.mode;
  o.fixed_bits = setup.fixed_bits;
  o.cqc_grid_size = setup.cqc_grid_size;
  o.enable_index = setup.enable_index;
  o.tpi.pi.epsilon_s = bundle.eps_s;
  auto method = core::MakeMethod(name, o);
  // Dataset-calibrated partition thresholds.
  core::PpqOptions configured = method->options();
  if (configured.strategy == core::PartitionStrategy::kSpatial) {
    configured.epsilon_p = bundle.eps_p_spatial;
  } else if (configured.strategy ==
             core::PartitionStrategy::kAutocorrelation) {
    configured.epsilon_p = bundle.eps_p_autocorr;
  }
  return std::make_unique<core::PpqTrajectory>(configured);
}

MethodSetup DeviationSetup(double deviation_m, bool cqc_method) {
  MethodSetup setup;
  setup.mode = core::QuantizationMode::kErrorBounded;
  if (cqc_method) {
    // sqrt(2)/2 * gs = D  =>  gs = sqrt(2) * D; eps_1^M = 2 gs.
    setup.cqc_grid_size = MetersToDegrees(std::sqrt(2.0) * deviation_m);
    setup.epsilon1 = 2.0 * setup.cqc_grid_size;
  } else {
    setup.epsilon1 = MetersToDegrees(deviation_m);
  }
  return setup;
}

}  // namespace ppq::bench
