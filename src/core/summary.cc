#include "core/summary.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace ppq::core {

TrajectoryRecord& TrajectorySummary::GetOrCreate(TrajId id, Tick start) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    TrajectoryRecord record;
    record.start_tick = start;
    it = records_.emplace(id, std::move(record)).first;
  }
  return it->second;
}

void CoefficientTable::Append(
    Tick t, const std::vector<predictor::PredictionCoefficients>& sets) {
  assert(ticks_.empty() || t > ticks_.back());
  ticks_.push_back(t);
  for (const predictor::PredictionCoefficients& set : sets) {
    values_.insert(values_.end(), set.coefficients.begin(),
                   set.coefficients.end());
    first_value_.push_back(values_.size());
  }
  first_set_.push_back(first_value_.size() - 1);
}

TrajectorySummary TrajectorySummary::SnapshotCopy() const {
  TrajectorySummary copy(prediction_order_, has_cqc_, codec_);
  copy.codebook_ = codebook_;
  copy.tick_codebooks_ = tick_codebooks_;
  copy.coefficients_ = coefficients_;
  copy.records_ = records_;
  return copy;
}

const TrajectoryRecord* TrajectorySummary::Find(TrajId id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

size_t TrajectorySummary::TotalPoints() const {
  size_t total = 0;
  for (const auto& [id, record] : records_) total += record.points.size();
  return total;
}

size_t TrajectorySummary::NumCodewords() const {
  if (!tick_codebooks_.empty()) {
    size_t total = 0;
    for (const auto& [tick, codebook] : tick_codebooks_) {
      total += codebook.size();
    }
    return total;
  }
  return codebook_.size();
}

const quantizer::Codebook& TrajectorySummary::CodebookAt(Tick t) const {
  if (!tick_codebooks_.empty()) {
    const auto it = tick_codebooks_.find(t);
    if (it != tick_codebooks_.end()) return it->second;
  }
  return codebook_;
}

Status TrajectorySummary::ExtendPrefix(const TrajectoryRecord& record,
                                       std::vector<Point>& memo,
                                       size_t needed) const {
  if (memo.size() >= needed) return Status::OK();
  const size_t order =
      prediction_order_ > 0 ? static_cast<size_t>(prediction_order_) : 0;
  Tick tick = record.start_tick + static_cast<Tick>(memo.size());
  // One walk over the coefficient table, advanced with the tick.
  const CoefficientTable& table = coefficients_;
  size_t ti = table.LowerBound(tick);
  for (; memo.size() < needed; ++tick) {
    const PointRecord& pr = record.points[memo.size()];

    // Prediction (Equation 2) from the reconstructed history, the last
    // `order` points of the prefix.
    Point prediction{0.0, 0.0};
    if (pr.partition >= 0) {
      while (ti < table.NumTicks() && table.TickAt(ti) < tick) ++ti;
      if (ti == table.NumTicks() || table.TickAt(ti) != tick ||
          static_cast<size_t>(pr.partition) >= table.NumSets(ti)) {
        return Status::Internal("missing coefficients for tick/partition");
      }
      const CoefficientTable::Set set =
          table.SetAt(ti, static_cast<size_t>(pr.partition));
      const size_t history = std::min(order, memo.size());
      prediction = predictor::LinearPredictor::PredictFromTail(
          set.values, set.size, memo.data() + (memo.size() - history),
          history);
    }

    // Codeword (Equation 4).
    const quantizer::Codebook& codebook = CodebookAt(tick);
    if (pr.codeword < 0 ||
        static_cast<size_t>(pr.codeword) >= codebook.size()) {
      return Status::Internal("codeword index out of range");
    }
    memo.push_back(prediction + codebook[pr.codeword]);
  }
  return Status::OK();
}

Result<Point> TrajectorySummary::ReconstructInternal(TrajId id, Tick t,
                                                     bool refined,
                                                     DecodeMemo* scratch) const {
  const auto rit = records_.find(id);
  if (rit == records_.end()) {
    return Status::NotFound("unknown trajectory id");
  }
  const TrajectoryRecord& record = rit->second;
  if (!record.ActiveAt(t)) {
    return Status::OutOfRange("trajectory has no sample at requested tick");
  }

  // Extend the memoised reconstruction prefix up to t.
  std::vector<Point>& memo = scratch->prefix[id];
  const size_t needed = static_cast<size_t>(t - record.start_tick) + 1;
  PPQ_RETURN_NOT_OK(ExtendPrefix(record, memo, needed));

  const Point base = memo[needed - 1];
  if (!refined || !has_cqc_ || !codec_.has_value()) return base;
  return codec_->Refine(base, record.At(t).cqc);
}

size_t TrajectorySummary::ReconstructSpan(TrajId id, Tick from, size_t n,
                                          Point* out,
                                          DecodeMemo* scratch) const {
  if (n == 0) return 0;
  const auto rit = records_.find(id);
  if (rit == records_.end()) return 0;
  const TrajectoryRecord& record = rit->second;
  if (!record.ActiveAt(from)) return 0;

  const size_t first = static_cast<size_t>(from - record.start_tick);
  size_t count = std::min(n, record.points.size() - first);

  std::vector<Point>& memo =
      (scratch != nullptr ? scratch : &memo_)->prefix[id];
  if (memo.size() < first + count &&
      !ExtendPrefix(record, memo, first + count).ok()) {
    // Freeze at the decodable prefix — exactly the ticks the per-point
    // path can serve.
    count = memo.size() > first ? memo.size() - first : 0;
  }
  std::copy(memo.begin() + static_cast<ptrdiff_t>(first),
            memo.begin() + static_cast<ptrdiff_t>(first + count), out);
  if (!has_cqc_ || !codec_.has_value()) return count;

  // Refine in chunks through the span kernel; stack buffers gather the
  // packed code words out of the 24-byte PointRecord stride.
  constexpr size_t kChunk = 256;
  uint64_t bits[kChunk];
  int32_t lens[kChunk];
  for (size_t done = 0; done < count; done += kChunk) {
    const size_t m = std::min(kChunk, count - done);
    for (size_t i = 0; i < m; ++i) {
      const cqc::CqcCode& code = record.points[first + done + i].cqc;
      bits[i] = code.bits;
      lens[i] = static_cast<int32_t>(code.length);
    }
    codec_->RefineSpan(out + done, bits, lens, m, out + done);
  }
  return count;
}

Result<Point> TrajectorySummary::Reconstruct(TrajId id, Tick t,
                                             DecodeMemo* memo) const {
  return ReconstructInternal(id, t, /*refined=*/false,
                             memo != nullptr ? memo : &memo_);
}

Result<Point> TrajectorySummary::ReconstructRefined(TrajId id, Tick t,
                                                    DecodeMemo* memo) const {
  return ReconstructInternal(id, t, /*refined=*/true,
                             memo != nullptr ? memo : &memo_);
}

Result<std::vector<Point>> TrajectorySummary::ReconstructRange(
    TrajId id, Tick from, int count) const {
  const TrajectoryRecord* record = Find(id);
  if (record == nullptr) return Status::NotFound("unknown trajectory id");
  std::vector<Point> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Tick t = from + static_cast<Tick>(i);
    if (!record->ActiveAt(t)) break;  // clamp at trajectory end
    auto point = ReconstructInternal(id, t, /*refined=*/true, &memo_);
    if (!point.ok()) return point.status();
    out.push_back(*point);
  }
  return out;
}

SummarySize TrajectorySummary::Size() const {
  SummarySize size;
  // Codebook(s): two float64 per codeword.
  size.codebook_bytes = NumCodewords() * 2 * sizeof(double);

  // Codeword indices: ceil(log2 V) bits per point (per-tick V in fixed
  // mode; final V in error-bounded mode).
  size_t index_bits = 0;
  size_t partition_bits = 0;
  size_t cqc_bits = 0;
  // Partition tag width per coefficient tick index: enough bits for the
  // tick's partition count.
  const CoefficientTable& table = coefficients_;
  std::vector<int> partition_widths(table.NumTicks());
  for (size_t i = 0; i < table.NumTicks(); ++i) {
    int bits = 1;
    while ((size_t{1} << bits) < table.NumSets(i)) ++bits;
    partition_widths[i] = bits;
  }
  const bool per_tick_codebooks = !tick_codebooks_.empty();
  const int global_index_bits = codebook_.BitsPerIndex();
  for (const auto& [id, record] : records_) {
    // Points are tick-consecutive, so each record walks the tick array once.
    size_t ti = table.LowerBound(record.start_tick);
    for (size_t i = 0; i < record.points.size(); ++i) {
      const Tick tick = record.start_tick + static_cast<Tick>(i);
      index_bits += static_cast<size_t>(
          per_tick_codebooks ? CodebookAt(tick).BitsPerIndex()
                             : global_index_bits);
      if (ti < table.NumTicks() && table.TickAt(ti) == tick) {
        partition_bits += static_cast<size_t>(partition_widths[ti++]);
      }
      if (has_cqc_) {
        cqc_bits += static_cast<size_t>(record.points[i].cqc.length);
      }
    }
  }
  size.code_index_bytes = (index_bits + 7) / 8;
  size.partition_id_bytes = (partition_bits + 7) / 8;
  size.cqc_bytes = (cqc_bits + 7) / 8;

  // Coefficients: 8 bytes each, q_t * k per tick.
  size.coefficient_bytes = table.NumValues() * sizeof(double);

  // Per-trajectory header (id, start tick, length) + CQC template.
  size.metadata_bytes = records_.size() * (sizeof(TrajId) + 2 * sizeof(Tick));
  if (codec_.has_value()) size.metadata_bytes += codec_->TemplateSizeBytes();
  return size;
}

}  // namespace ppq::core
