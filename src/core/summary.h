#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "cqc/cqc_codec.h"
#include "predictor/linear_predictor.h"
#include "quantizer/codebook.h"

/// \file summary.h
/// The summary produced by PPQ-trajectory (Figure 1): the prediction
/// coefficients {P_j[t]} per (tick, partition), the codebook C, the
/// codeword indices {b_i^t}, and the CQC codes. Together these reproduce
/// any trajectory point, and the size accounting below is what the
/// compression-ratio experiments charge.

namespace ppq::core {

/// \brief Per-point record: everything needed to decode T_i^t.
struct PointRecord {
  /// Which partition's coefficients predicted this point (-1 for the
  /// warm-up points quantized with zero prediction).
  int32_t partition = -1;
  quantizer::CodewordIndex codeword = -1;
  cqc::CqcCode cqc;  ///< valid only when the summary stores CQC codes
};

/// \brief Per-trajectory encoded stream, tick-aligned like the input.
struct TrajectoryRecord {
  Tick start_tick = 0;
  std::vector<PointRecord> points;

  bool ActiveAt(Tick t) const {
    return t >= start_tick &&
           t < start_tick + static_cast<Tick>(points.size());
  }
  const PointRecord& At(Tick t) const {
    return points[static_cast<size_t>(t - start_tick)];
  }
};

/// \brief Byte-level breakdown of the summary (what the compression ratio
/// divides by).
struct SummarySize {
  size_t codebook_bytes = 0;
  size_t code_index_bytes = 0;     ///< ceil(log2 V) bits per point
  size_t coefficient_bytes = 0;    ///< {P_j[t]}: 8 bytes per coefficient
  size_t partition_id_bytes = 0;   ///< per-point partition tags
  size_t cqc_bytes = 0;            ///< fixed-width CQC codes
  size_t metadata_bytes = 0;       ///< per-trajectory headers, CQC template

  size_t Total() const {
    return codebook_bytes + code_index_bytes + coefficient_bytes +
           partition_id_bytes + cqc_bytes + metadata_bytes;
  }
};

/// \brief Caller-owned reconstruction scratch: per trajectory, the prefix
/// of decoded points computed so far (decode is sequential by nature).
///
/// The decoder extends the prefix on demand, so repeated queries against
/// nearby ticks amortise to O(1). Handing each reader thread its own
/// DecodeMemo is what makes concurrent reconstruction over one shared
/// (immutable) summary safe: with an external memo the decode path only
/// reads the summary's maps.
///
/// Sharing contract: only summaries of one decode lineage (the seals of
/// one encoder, SummarySnapshot::decode_lineage) may share a memo. Their
/// records, codebooks and coefficients only ever grow, so a prefix
/// decoded under one of them is the prefix under any other.
struct DecodeMemo {
  std::map<TrajId, std::vector<Point>> prefix;

  void Clear() { prefix.clear(); }
  /// Total decoded points held (scratch-budget accounting).
  size_t TotalPoints() const {
    size_t n = 0;
    for (const auto& [id, points] : prefix) n += points.size();
    return n;
  }
};

/// \brief The prediction coefficients {P_j[t]} of every (tick, partition)
/// in four tick-sorted flat arrays: the ticks, each tick's first set, each
/// set's first value, and the values. The two offset arrays end in a
/// sentinel. A seal copies four vectors, and a decode walks an index
/// instead of tree nodes.
class CoefficientTable {
 public:
  /// One coefficient set: values[j-1] multiplies the reconstruction at t-j.
  struct Set {
    const double* values;
    size_t size;
  };

  /// Append tick \p t's sets, one per partition. \p t must exceed every
  /// stored tick.
  void Append(Tick t,
              const std::vector<predictor::PredictionCoefficients>& sets);

  size_t NumTicks() const { return ticks_.size(); }
  Tick TickAt(size_t i) const { return ticks_[i]; }
  /// Index of the first stored tick at or after \p t (NumTicks() if none).
  size_t LowerBound(Tick t) const {
    return static_cast<size_t>(
        std::lower_bound(ticks_.begin(), ticks_.end(), t) - ticks_.begin());
  }
  /// Index of tick \p t, or NumTicks() when it is not stored.
  size_t Find(Tick t) const {
    const size_t i = LowerBound(t);
    return i < ticks_.size() && ticks_[i] == t ? i : ticks_.size();
  }
  /// Partitions fitted at the tick of index \p i.
  size_t NumSets(size_t i) const { return first_set_[i + 1] - first_set_[i]; }
  /// Set of partition \p p at the tick of index \p i (p < NumSets(i)).
  Set SetAt(size_t i, size_t p) const {
    const size_t s = first_set_[i] + p;
    return {values_.data() + first_value_[s],
            first_value_[s + 1] - first_value_[s]};
  }
  /// Coefficients stored over all sets.
  size_t NumValues() const { return values_.size(); }

 private:
  std::vector<Tick> ticks_;             ///< ascending
  std::vector<size_t> first_set_{0};    ///< per tick, into first_value_
  std::vector<size_t> first_value_{0};  ///< per set, into values_
  std::vector<double> values_;
};

/// \brief The complete decodable summary.
class TrajectorySummary {
 public:
  TrajectorySummary(int prediction_order, bool has_cqc,
                    std::optional<cqc::CqcCodec> codec)
      : prediction_order_(prediction_order),
        has_cqc_(has_cqc),
        codec_(std::move(codec)) {}

  // --- encoder-side population --------------------------------------------

  /// Ensure a record exists for trajectory \p id starting at \p start.
  TrajectoryRecord& GetOrCreate(TrajId id, Tick start);

  /// Store tick \p t's fitted coefficients, one set per partition. \p t
  /// must exceed every tick already stored (the encoder's tick order).
  void SetCoefficients(
      Tick t, const std::vector<predictor::PredictionCoefficients>& coeffs) {
    coefficients_.Append(t, coeffs);
  }

  quantizer::Codebook* mutable_codebook() { return &codebook_; }
  /// Per-tick codebook for QuantizationMode::kFixedPerTick.
  quantizer::Codebook* mutable_tick_codebook(Tick t) {
    return &tick_codebooks_[t];
  }

  // --- decoder -------------------------------------------------------------

  /// Reconstruct T^_i^t (prediction + codeword, Equation 4). Runs the
  /// closed-loop recursion from the trajectory start; O(t - start) per
  /// cold call, O(1) amortised via the per-trajectory memo.
  ///
  /// With the default \p memo (nullptr) the summary's internal memo is
  /// used — convenient, but NOT safe under concurrent callers. Concurrent
  /// readers must each pass their own DecodeMemo; the decode then only
  /// reads the summary state.
  Result<Point> Reconstruct(TrajId id, Tick t,
                            DecodeMemo* memo = nullptr) const;

  /// Reconstruct with CQC refinement (Equation 11) when available. Same
  /// memo contract as Reconstruct().
  Result<Point> ReconstructRefined(TrajId id, Tick t,
                                   DecodeMemo* memo = nullptr) const;

  /// Reconstruct the sub-trajectory [from, from + count) (TPQ payload).
  Result<std::vector<Point>> ReconstructRange(TrajId id, Tick from,
                                              int count) const;

  /// Batched refined reconstruction of the span [from, from + n): extends
  /// the decode prefix once, copies the base points out, and applies CQC
  /// refinement through the vectorized span kernel (CqcCodec::RefineSpan).
  /// Bit-identical to n calls of ReconstructRefined.
  ///
  /// Returns the number of points written to \p out: n when the whole span
  /// is resident, fewer when the trajectory ends (or the decodable prefix
  /// stops) before the span does, and 0 when \p id is unknown or \p from
  /// precedes the record. Same memo contract as Reconstruct().
  size_t ReconstructSpan(TrajId id, Tick from, size_t n, Point* out,
                         DecodeMemo* memo = nullptr) const;

  /// Deep copy of the decodable state (codebooks, coefficients, records,
  /// codec) WITHOUT the internal decode memo — the copy Seal() takes.
  /// Skipping the memo keeps seals at summary scale even when the live
  /// summary has served queries (a warm memo is raw-data-scale).
  TrajectorySummary SnapshotCopy() const;

  // --- introspection -------------------------------------------------------

  const quantizer::Codebook& codebook() const { return codebook_; }
  const std::map<Tick, quantizer::Codebook>& tick_codebooks() const {
    return tick_codebooks_;
  }
  bool has_cqc() const { return has_cqc_; }
  const std::optional<cqc::CqcCodec>& codec() const { return codec_; }
  int prediction_order() const { return prediction_order_; }
  size_t NumTrajectories() const { return records_.size(); }
  size_t TotalPoints() const;
  const TrajectoryRecord* Find(TrajId id) const;
  /// All per-trajectory records (serialisation, analytics sweeps).
  const std::map<TrajId, TrajectoryRecord>& records() const {
    return records_;
  }
  /// Number of codewords (the paper's |C|): global codebook size, or the
  /// summed per-tick codebook sizes in fixed mode.
  size_t NumCodewords() const;

  /// The stored prediction coefficients, one set per (tick, partition).
  /// Exposed for serialization and forecasting.
  const CoefficientTable& coefficients() const { return coefficients_; }

  /// Size accounting; see SummarySize.
  SummarySize Size() const;

 private:
  const quantizer::Codebook& CodebookAt(Tick t) const;
  Result<Point> ReconstructInternal(TrajId id, Tick t, bool refined,
                                    DecodeMemo* memo) const;
  /// Run the closed-loop recursion (Equations 2 and 4) until \p memo holds
  /// at least \p needed points of \p record's reconstruction prefix.
  Status ExtendPrefix(const TrajectoryRecord& record,
                      std::vector<Point>& memo, size_t needed) const;

  int prediction_order_;
  bool has_cqc_;
  std::optional<cqc::CqcCodec> codec_;
  quantizer::Codebook codebook_;
  std::map<Tick, quantizer::Codebook> tick_codebooks_;
  CoefficientTable coefficients_;
  std::map<TrajId, TrajectoryRecord> records_;

  /// Internal memo backing the single-threaded convenience decode path.
  mutable DecodeMemo memo_;
};

}  // namespace ppq::core
