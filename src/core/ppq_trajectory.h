#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/compressor.h"
#include "core/options.h"
#include "core/summary.h"
#include "index/temporal_index.h"
#include "partition/incremental_partitioner.h"
#include "predictor/autocorrelation.h"
#include "predictor/linear_predictor.h"
#include "quantizer/incremental_quantizer.h"

/// \file ppq_trajectory.h
/// The PPQ-trajectory pipeline (Figure 1): partition-wise predictive
/// quantization (Section 3) + coordinate quadtree coding (Section 4) +
/// temporal partition-based indexing (Section 5), all online. One class
/// covers the whole ablation family — PPQ-A/S, the -basic variants, E-PQ
/// and Q-trajectory — through PpqOptions (see options.h).

namespace ppq::core {

/// \brief Per-tick encoder statistics (observability + tests).
struct EncodeTickStats {
  int partitions = 0;
  size_t codebook_size = 0;
  size_t violators = 0;
  double partition_seconds = 0.0;
};

/// \brief Online PPQ-trajectory compressor.
class PpqTrajectory : public Compressor {
 public:
  explicit PpqTrajectory(PpqOptions options);

  /// Not copyable: two encoders must never carry one decode lineage. A
  /// moved-from encoder may only be destroyed or assigned to.
  PpqTrajectory(const PpqTrajectory&) = delete;
  PpqTrajectory& operator=(const PpqTrajectory&) = delete;
  PpqTrajectory(PpqTrajectory&&) = default;
  PpqTrajectory& operator=(PpqTrajectory&&) = default;

  std::string name() const override;
  void ObserveSlice(const TimeSlice& slice) override;
  void Finish() override;

  /// CQC-refined reconstruction when CQC is enabled, plain otherwise.
  Result<Point> Reconstruct(TrajId id, Tick t) const override;

  /// Vectorized span decode straight off the live summary.
  size_t ReconstructSpan(TrajId id, Tick tick_begin, size_t n,
                         Point* out) const override;

  size_t SummaryBytes() const override { return summary_.Size().Total(); }
  size_t NumCodewords() const override { return summary_.NumCodewords(); }
  const index::TemporalPartitionIndex* index() const override {
    return options_.enable_index ? &tpi_ : nullptr;
  }

  /// In error-bounded mode: the Lemma 3 bound with CQC, eps_1 without it.
  /// In fixed-per-tick mode no a-priori bound exists, so the observed
  /// maximum reconstruction deviation is returned (making local search a
  /// guaranteed-recall scan at the price the method's accuracy earns).
  double LocalSearchRadius() const override;

  std::vector<RecordSpan> RecordSpans() const override;

  /// Seal the compressed form directly (summary + index deep copy) into a
  /// PpqSummarySnapshot — no materialization, memory stays at summary
  /// scale. Re-sealable mid-stream: encoding continues untouched. Every
  /// seal carries this encoder's decode lineage.
  SnapshotPtr Seal() const override;

  const TrajectorySummary& summary() const { return summary_; }
  const PpqOptions& options() const { return options_; }
  /// Number of live partitions after the last slice (Figure 8's q).
  int NumPartitions() const { return partitioner_.NumPartitions(); }
  /// Per-tick stats history, aligned with observed slices.
  const std::vector<EncodeTickStats>& tick_stats() const {
    return tick_stats_;
  }
  /// Cumulative seconds spent in the partitioning step (Figure 7).
  double partition_seconds() const { return partition_seconds_; }

 private:
  struct TrajState {
    /// Most recent k reconstructed points, newest last.
    std::vector<Point> recon_history;
    /// Most recent raw points (autocorrelation window), newest last.
    std::vector<Point> raw_window;
  };

  /// Feature matrix for the configured partition strategy.
  std::vector<double> BuildFeatures(const TimeSlice& slice, int* dim);

  /// Quantize this tick's prediction errors; returns codeword indices.
  std::vector<quantizer::CodewordIndex> QuantizeErrors(
      Tick tick, const std::vector<Point>& errors, EncodeTickStats* stats);

  PpqOptions options_;
  Rng rng_;
  TrajectorySummary summary_;
  partition::IncrementalPartitioner partitioner_;
  predictor::AutocorrelationExtractor autocorr_;
  predictor::LinearPredictor predictor_;
  quantizer::IncrementalQuantizer quantizer_;
  index::TemporalPartitionIndex tpi_;
  std::unordered_map<TrajId, TrajState> states_;
  std::vector<EncodeTickStats> tick_stats_;
  double partition_seconds_ = 0.0;
  /// Largest |indexed reconstruction - raw| seen while encoding.
  double max_deviation_ = 0.0;
  /// Drawn once at construction and stamped into every Seal().
  uint64_t decode_lineage_;
};

/// Construct the named method family member (factory used by benches).
std::unique_ptr<PpqTrajectory> MakeMethod(const std::string& name,
                                          PpqOptions base);

}  // namespace ppq::core
