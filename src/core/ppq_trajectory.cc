#include "core/ppq_trajectory.h"

#include <algorithm>

#include "common/timer.h"
#include "core/snapshot.h"
#include "quantizer/kmeans.h"

namespace ppq::core {
namespace {

partition::IncrementalPartitioner::Options PartitionerOptions(
    const PpqOptions& options) {
  partition::IncrementalPartitioner::Options po;
  po.epsilon = options.epsilon_p;
  po.enable_merge = options.partition_merge;
  po.seed = options.seed + 1;
  return po;
}

quantizer::IncrementalQuantizer::Options QuantizerOptions(
    const PpqOptions& options) {
  quantizer::IncrementalQuantizer::Options qo;
  qo.epsilon = options.epsilon1;
  qo.growth = options.growth;
  qo.seed = options.seed + 2;
  return qo;
}

std::optional<cqc::CqcCodec> MakeCodec(const PpqOptions& options) {
  if (!options.enable_cqc) return std::nullopt;
  return cqc::CqcCodec(options.epsilon1, options.cqc_grid_size);
}

index::TemporalPartitionIndex::Options TpiOptions(const PpqOptions& options) {
  auto o = options.tpi;
  o.seed = options.seed + 3;
  return o;
}

}  // namespace

PpqTrajectory::PpqTrajectory(PpqOptions options)
    : options_(options),
      rng_(options.seed),
      summary_(options.prediction_order, options.enable_cqc,
               MakeCodec(options)),
      partitioner_(PartitionerOptions(options)),
      autocorr_({options.prediction_order, options.autocorr_feature}),
      predictor_(options.prediction_order),
      quantizer_(QuantizerOptions(options)),
      tpi_(TpiOptions(options)) {}

std::string PpqTrajectory::name() const {
  if (!options_.enable_prediction) return "Q-trajectory";
  switch (options_.strategy) {
    case PartitionStrategy::kNone:
      return "E-PQ";
    case PartitionStrategy::kSpatial:
      return options_.enable_cqc ? "PPQ-S" : "PPQ-S-basic";
    case PartitionStrategy::kAutocorrelation:
      return options_.enable_cqc ? "PPQ-A" : "PPQ-A-basic";
  }
  return "PPQ";
}

double PpqTrajectory::LocalSearchRadius() const {
  if (options_.mode == QuantizationMode::kFixedPerTick) {
    return max_deviation_;
  }
  if (options_.enable_cqc && summary_.codec().has_value()) {
    return summary_.codec()->max_refined_error();
  }
  return options_.epsilon1;
}

std::vector<double> PpqTrajectory::BuildFeatures(const TimeSlice& slice,
                                                 int* dim) {
  if (options_.strategy == PartitionStrategy::kSpatial) {
    *dim = 2;
    return quantizer::FlattenPoints(slice.positions);
  }
  // Autocorrelation: AR(k) features over each trajectory's recent raw
  // window, including the current point.
  *dim = autocorr_.FeatureDim();
  std::vector<double> features(slice.size() * static_cast<size_t>(*dim));
  std::vector<Point> window;
  predictor::AutocorrelationExtractor::Scratch scratch;
  for (size_t i = 0; i < slice.size(); ++i) {
    const std::vector<Point>& raw = states_[slice.ids[i]].raw_window;
    window.assign(raw.begin(), raw.end());
    window.push_back(slice.positions[i]);
    autocorr_.ExtractInto(window, &scratch,
                          features.data() + i * static_cast<size_t>(*dim));
  }
  return features;
}

std::vector<quantizer::CodewordIndex> PpqTrajectory::QuantizeErrors(
    Tick tick, const std::vector<Point>& errors, EncodeTickStats* stats) {
  if (options_.mode == QuantizationMode::kErrorBounded) {
    quantizer::QuantizeStats qstats;
    auto assignments =
        quantizer_.QuantizeBatch(errors, summary_.mutable_codebook(), &qstats);
    stats->violators = qstats.violators;
    stats->codebook_size = summary_.codebook().size();
    return assignments;
  }

  // kFixedPerTick: a fresh codebook of at most 2^fixed_bits codewords,
  // trained on this tick's errors only.
  const int v = std::min<int>(1 << options_.fixed_bits,
                              static_cast<int>(errors.size()));
  quantizer::KMeansOptions kmeans_options;
  kmeans_options.max_iterations = 10;
  const auto kmeans = quantizer::RunKMeans(
      quantizer::FlattenPoints(errors), static_cast<int>(errors.size()),
      /*dim=*/2, v, kmeans_options, rng_);
  quantizer::Codebook* codebook = summary_.mutable_tick_codebook(tick);
  for (int c = 0; c < kmeans.k; ++c) {
    codebook->Add(kmeans.CentroidPoint(c));
  }
  stats->codebook_size = codebook->size();
  std::vector<quantizer::CodewordIndex> assignments(errors.size());
  for (size_t i = 0; i < errors.size(); ++i) {
    assignments[i] =
        static_cast<quantizer::CodewordIndex>(kmeans.assignments[i]);
  }
  return assignments;
}

void PpqTrajectory::ObserveSlice(const TimeSlice& slice) {
  const int n = static_cast<int>(slice.size());
  const int k = options_.prediction_order;
  EncodeTickStats stats;

  // --- partitioning (Section 3.2) -----------------------------------------
  std::vector<int> assignment(static_cast<size_t>(n), 0);
  int num_partitions = 1;
  if (options_.enable_prediction &&
      options_.strategy != PartitionStrategy::kNone) {
    int dim = 0;
    const std::vector<double> features = BuildFeatures(slice, &dim);
    WallTimer timer;
    assignment = partitioner_.Update(slice.ids, features, dim);
    partition_seconds_ += timer.ElapsedSeconds();
    stats.partition_seconds = timer.ElapsedSeconds();
    num_partitions = partitioner_.NumPartitions();
  }
  stats.partitions = num_partitions;

  // --- per-partition prediction (Equations 1-2, 5-6) -----------------------
  std::vector<Point> predictions(static_cast<size_t>(n), Point{0.0, 0.0});
  std::vector<int32_t> used_partition(static_cast<size_t>(n), -1);
  if (options_.enable_prediction) {
    std::vector<std::vector<predictor::PredictionSample>> samples(
        static_cast<size_t>(num_partitions));
    std::vector<std::vector<int>> rows(static_cast<size_t>(num_partitions));
    for (int i = 0; i < n; ++i) {
      const TrajState& state = states_[slice.ids[static_cast<size_t>(i)]];
      if (static_cast<int>(state.recon_history.size()) < k) continue;
      const int p = assignment[static_cast<size_t>(i)] < 0
                        ? 0
                        : assignment[static_cast<size_t>(i)];
      predictor::PredictionSample sample;
      sample.target = slice.positions[static_cast<size_t>(i)];
      // history[j-1] = reconstruction at t-j (newest first).
      sample.history.assign(state.recon_history.rbegin(),
                            state.recon_history.rend());
      sample.history.resize(static_cast<size_t>(k));
      samples[static_cast<size_t>(p)].push_back(std::move(sample));
      rows[static_cast<size_t>(p)].push_back(i);
    }

    std::vector<predictor::PredictionCoefficients> coefficients(
        static_cast<size_t>(num_partitions));
    for (int p = 0; p < num_partitions; ++p) {
      if (samples[static_cast<size_t>(p)].empty()) continue;
      auto fitted = predictor_.Fit(samples[static_cast<size_t>(p)]);
      if (fitted.ok()) {
        coefficients[static_cast<size_t>(p)] = std::move(*fitted);
      } else {
        // Degenerate system: fall back to persistence (predict t-1).
        coefficients[static_cast<size_t>(p)].coefficients.assign(
            static_cast<size_t>(k), 0.0);
        coefficients[static_cast<size_t>(p)].coefficients[0] = 1.0;
      }
      for (size_t s = 0; s < rows[static_cast<size_t>(p)].size(); ++s) {
        const int i = rows[static_cast<size_t>(p)][s];
        predictions[static_cast<size_t>(i)] = predictor::LinearPredictor::
            Predict(coefficients[static_cast<size_t>(p)],
                    samples[static_cast<size_t>(p)][s].history);
        used_partition[static_cast<size_t>(i)] = p;
      }
    }
    summary_.SetCoefficients(slice.tick, std::move(coefficients));
  }

  // --- error quantization (Equation 3) --------------------------------------
  std::vector<Point> errors(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    errors[static_cast<size_t>(i)] =
        slice.positions[static_cast<size_t>(i)] -
        predictions[static_cast<size_t>(i)];
  }
  const std::vector<quantizer::CodewordIndex> codewords =
      QuantizeErrors(slice.tick, errors, &stats);

  // --- reconstruction, CQC, record keeping, indexing -----------------------
  TimeSlice recon_slice;
  recon_slice.tick = slice.tick;
  recon_slice.ids = slice.ids;
  recon_slice.positions.resize(static_cast<size_t>(n));
  const quantizer::Codebook& codebook =
      options_.mode == QuantizationMode::kErrorBounded
          ? summary_.codebook()
          : *summary_.mutable_tick_codebook(slice.tick);

  for (int i = 0; i < n; ++i) {
    const TrajId id = slice.ids[static_cast<size_t>(i)];
    const Point raw = slice.positions[static_cast<size_t>(i)];
    const Point recon = predictions[static_cast<size_t>(i)] +
                        codebook[codewords[static_cast<size_t>(i)]];

    PointRecord record;
    record.partition = used_partition[static_cast<size_t>(i)];
    record.codeword = codewords[static_cast<size_t>(i)];
    Point indexed = recon;
    if (options_.enable_cqc && summary_.codec().has_value()) {
      record.cqc = summary_.codec()->Encode(raw, recon);
      indexed = summary_.codec()->Refine(recon, record.cqc);
    }
    summary_.GetOrCreate(id, slice.tick).points.push_back(record);
    recon_slice.positions[static_cast<size_t>(i)] = indexed;
    max_deviation_ = std::max(max_deviation_, indexed.DistanceTo(raw));

    TrajState& state = states_[id];
    state.recon_history.push_back(recon);
    if (static_cast<int>(state.recon_history.size()) > k) {
      state.recon_history.erase(state.recon_history.begin());
    }
    state.raw_window.push_back(raw);
    if (static_cast<int>(state.raw_window.size()) > options_.autocorr_window) {
      state.raw_window.erase(state.raw_window.begin());
    }
  }

  if (options_.enable_index) tpi_.Observe(recon_slice);
  tick_stats_.push_back(stats);
}

void PpqTrajectory::Finish() {
  if (options_.enable_index) tpi_.Finalize();
  states_.clear();
}

Result<Point> PpqTrajectory::Reconstruct(TrajId id, Tick t) const {
  return summary_.ReconstructRefined(id, t);
}

size_t PpqTrajectory::ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                                      Point* out) const {
  return summary_.ReconstructSpan(id, tick_begin, n, out);
}

std::vector<RecordSpan> PpqTrajectory::RecordSpans() const {
  std::vector<RecordSpan> spans;
  spans.reserve(summary_.records().size());
  for (const auto& [id, record] : summary_.records()) {
    spans.push_back(
        {id, record.start_tick, static_cast<Tick>(record.points.size())});
  }
  return spans;
}

SnapshotPtr PpqTrajectory::Seal() const {
  std::shared_ptr<const index::TemporalPartitionIndex> tpi;
  if (options_.enable_index) {
    tpi = std::make_shared<const index::TemporalPartitionIndex>(tpi_);
  }
  return std::make_shared<PpqSummarySnapshot>(name(), summary_.SnapshotCopy(),
                                              std::move(tpi),
                                              LocalSearchRadius());
}

std::unique_ptr<PpqTrajectory> MakeMethod(const std::string& name,
                                          PpqOptions base) {
  PpqOptions o = base;
  if (name == "PPQ-A") {
    o.strategy = PartitionStrategy::kAutocorrelation;
    o.enable_prediction = true;
    o.enable_cqc = true;
  } else if (name == "PPQ-A-basic") {
    o.strategy = PartitionStrategy::kAutocorrelation;
    o.enable_prediction = true;
    o.enable_cqc = false;
  } else if (name == "PPQ-S") {
    o.strategy = PartitionStrategy::kSpatial;
    o.enable_prediction = true;
    o.enable_cqc = true;
  } else if (name == "PPQ-S-basic") {
    o.strategy = PartitionStrategy::kSpatial;
    o.enable_prediction = true;
    o.enable_cqc = false;
  } else if (name == "E-PQ") {
    o.strategy = PartitionStrategy::kNone;
    o.enable_prediction = true;
    o.enable_cqc = false;
  } else if (name == "Q-trajectory") {
    o.strategy = PartitionStrategy::kNone;
    o.enable_prediction = false;
    o.enable_cqc = false;
  }
  return std::make_unique<PpqTrajectory>(o);
}

}  // namespace ppq::core
