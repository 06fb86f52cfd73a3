#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/trajstore.h"
#include "core/ppq_trajectory.h"
#include "core/serialization.h"
#include "core/snapshot.h"
#include "core/summary.h"
#include "tests/test_util.h"

namespace ppq::core {
namespace {

/// Hand-build a tiny summary: one trajectory, persistence prediction
/// (coefficients [1]), codebook with two codewords.
TrajectorySummary MakeTinySummary(bool with_cqc) {
  std::optional<cqc::CqcCodec> codec;
  if (with_cqc) codec.emplace(0.5, 0.2);
  TrajectorySummary summary(/*prediction_order=*/1, with_cqc,
                            std::move(codec));

  // Codebook: c0 = (1, 0) (warm-up absolute position), c1 = (0.5, 0).
  summary.mutable_codebook()->Add({1.0, 0.0});
  summary.mutable_codebook()->Add({0.5, 0.0});

  // Coefficients at ticks 1, 2: persistence.
  predictor::PredictionCoefficients persist;
  persist.coefficients = {1.0};
  summary.SetCoefficients(1, {persist});
  summary.SetCoefficients(2, {persist});

  // Trajectory 7 starting at tick 0:
  //   t=0: warm-up, codeword 0        -> recon (1, 0)
  //   t=1: partition 0, codeword 1    -> recon (1,0) + (0.5,0) = (1.5, 0)
  //   t=2: partition 0, codeword 1    -> recon (2.0, 0)
  TrajectoryRecord& record = summary.GetOrCreate(7, 0);
  record.points.push_back({-1, 0, {}});
  record.points.push_back({0, 1, {}});
  record.points.push_back({0, 1, {}});
  return summary;
}

TEST(SummaryTest, ReconstructClosedLoop) {
  const TrajectorySummary summary = MakeTinySummary(false);
  const auto p0 = summary.Reconstruct(7, 0);
  ASSERT_TRUE(p0.ok());
  EXPECT_DOUBLE_EQ(p0->x, 1.0);
  const auto p1 = summary.Reconstruct(7, 1);
  ASSERT_TRUE(p1.ok());
  EXPECT_DOUBLE_EQ(p1->x, 1.5);
  const auto p2 = summary.Reconstruct(7, 2);
  ASSERT_TRUE(p2.ok());
  EXPECT_DOUBLE_EQ(p2->x, 2.0);
}

TEST(SummaryTest, ReconstructIsIdempotent) {
  const TrajectorySummary summary = MakeTinySummary(false);
  const auto a = summary.Reconstruct(7, 2);
  const auto b = summary.Reconstruct(7, 2);  // memoised path
  const auto c = summary.Reconstruct(7, 0);  // earlier tick after later
  ASSERT_TRUE(a.ok());
  EXPECT_DOUBLE_EQ(a->x, b->x);
  EXPECT_DOUBLE_EQ(c->x, 1.0);
}

TEST(SummaryTest, UnknownTrajectory) {
  const TrajectorySummary summary = MakeTinySummary(false);
  EXPECT_EQ(summary.Reconstruct(99, 0).status().code(),
            StatusCode::kNotFound);
}

TEST(SummaryTest, OutOfRangeTick) {
  const TrajectorySummary summary = MakeTinySummary(false);
  EXPECT_EQ(summary.Reconstruct(7, 5).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(summary.Reconstruct(7, -1).status().code(),
            StatusCode::kOutOfRange);
}

TEST(SummaryTest, ReconstructRangeClampsAtEnd) {
  const TrajectorySummary summary = MakeTinySummary(false);
  const auto range = summary.ReconstructRange(7, 1, 10);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 2u);  // ticks 1 and 2 only
  EXPECT_DOUBLE_EQ((*range)[0].x, 1.5);
  EXPECT_DOUBLE_EQ((*range)[1].x, 2.0);
}

TEST(SummaryTest, RefinedEqualsPlainWithoutCqc) {
  const TrajectorySummary summary = MakeTinySummary(false);
  const auto plain = summary.Reconstruct(7, 1);
  const auto refined = summary.ReconstructRefined(7, 1);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(refined.ok());
  EXPECT_DOUBLE_EQ(plain->x, refined->x);
}

TEST(SummaryTest, SizeBreakdownComponents) {
  const TrajectorySummary summary = MakeTinySummary(false);
  const SummarySize size = summary.Size();
  // 2 codewords * 16 bytes.
  EXPECT_EQ(size.codebook_bytes, 32u);
  // 3 points * 1 bit (V=2) -> 1 byte.
  EXPECT_EQ(size.code_index_bytes, 1u);
  // 2 ticks * 1 partition * 1 coefficient * 8 bytes.
  EXPECT_EQ(size.coefficient_bytes, 16u);
  EXPECT_EQ(size.cqc_bytes, 0u);
  EXPECT_GT(size.metadata_bytes, 0u);
  EXPECT_EQ(size.Total(), size.codebook_bytes + size.code_index_bytes +
                              size.coefficient_bytes +
                              size.partition_id_bytes + size.cqc_bytes +
                              size.metadata_bytes);
}

TEST(SummaryTest, CqcBytesCounted) {
  TrajectorySummary summary = MakeTinySummary(true);
  // Attach a CQC code to every point.
  // (cells: 2*0.5/0.2 = 5 -> depth 3 -> 6 bits per code)
  TrajectoryRecord& record = summary.GetOrCreate(7, 0);
  for (auto& pr : record.points) {
    pr.cqc = summary.codec()->Encode({0.0, 0.0}, {0.1, 0.1});
  }
  const SummarySize size = summary.Size();
  EXPECT_EQ(size.cqc_bytes, (3u * 6u + 7u) / 8u);
}

TEST(SummaryTest, NumCodewordsGlobalVsPerTick) {
  TrajectorySummary summary(1, false, std::nullopt);
  summary.mutable_codebook()->Add({0, 0});
  EXPECT_EQ(summary.NumCodewords(), 1u);
  // Adding per-tick codebooks switches the accounting.
  summary.mutable_tick_codebook(0)->Add({0, 0});
  summary.mutable_tick_codebook(0)->Add({1, 1});
  summary.mutable_tick_codebook(1)->Add({2, 2});
  EXPECT_EQ(summary.NumCodewords(), 3u);
}

TEST(SummaryTest, TotalPointsSumsRecords) {
  TrajectorySummary summary = MakeTinySummary(false);
  EXPECT_EQ(summary.TotalPoints(), 3u);
  summary.GetOrCreate(8, 4).points.push_back({-1, 0, {}});
  EXPECT_EQ(summary.TotalPoints(), 4u);
  EXPECT_EQ(summary.NumTrajectories(), 2u);
}

/// Trajectory 7 from tick 0 over the codebook {(1, 0), (0.5, 0)} with
/// prediction order 1; coefficient sets are added per case.
TrajectorySummary MakeWalkSummary(std::vector<PointRecord> points) {
  TrajectorySummary summary(/*prediction_order=*/1, false, std::nullopt);
  summary.mutable_codebook()->Add({1.0, 0.0});
  summary.mutable_codebook()->Add({0.5, 0.0});
  summary.GetOrCreate(7, 0).points = std::move(points);
  return summary;
}

/// One partition per tick: coefficient \p a on the point at t-1.
void SetOneCoefficient(TrajectorySummary& summary, Tick t, double a) {
  predictor::PredictionCoefficients coeffs;
  coeffs.coefficients = {a};
  summary.SetCoefficients(t, {coeffs});
}

/// Trajectory 7 must decode to (good_x[t], 0) for t < good_x.size() and
/// fail with kInternal from tick good_x.size() on. Checked through
/// Reconstruct and through ReconstructSpan (which returns the points before
/// the failure), from a cold memo and from memos already extended part of
/// the way.
void ExpectDecodeStopsAt(const TrajectorySummary& summary,
                         const std::vector<double>& good_x) {
  const size_t bad = good_x.size();
  const size_t length = summary.Find(7)->points.size();
  for (size_t warm = 0; warm <= bad; ++warm) {
    SCOPED_TRACE("memo holds " + std::to_string(warm) + " points");
    DecodeMemo memo;
    DecodeMemo span_memo;
    for (size_t t = 0; t < warm; ++t) {
      ASSERT_TRUE(summary.Reconstruct(7, static_cast<Tick>(t), &memo).ok());
      ASSERT_TRUE(
          summary.Reconstruct(7, static_cast<Tick>(t), &span_memo).ok());
    }
    for (size_t t = bad; t < length; ++t) {
      EXPECT_EQ(summary.Reconstruct(7, static_cast<Tick>(t), &memo)
                    .status()
                    .code(),
                StatusCode::kInternal)
          << "t=" << t;
    }
    for (size_t t = 0; t < bad; ++t) {
      const auto p = summary.Reconstruct(7, static_cast<Tick>(t), &memo);
      ASSERT_TRUE(p.ok()) << "t=" << t;
      EXPECT_EQ(p->x, good_x[t]) << "t=" << t;
    }

    std::vector<Point> out(length, Point{-1.0, -1.0});
    EXPECT_EQ(summary.ReconstructSpan(7, 0, length, out.data(), &span_memo),
              bad);
    for (size_t t = 0; t < length; ++t) {
      EXPECT_EQ(out[t].x, t < bad ? good_x[t] : -1.0) << "t=" << t;
    }
    EXPECT_EQ(summary.ReconstructSpan(7, 1, length - 1, out.data(),
                                      &span_memo),
              bad > 0 ? bad - 1 : 0);
  }
}

TEST(SummaryTest, MissingCoefficientsIsInternalError) {
  {
    TrajectorySummary summary(1, false, std::nullopt);
    summary.mutable_codebook()->Add({0.0, 0.0});
    TrajectoryRecord& record = summary.GetOrCreate(1, 0);
    record.points.push_back({0, 0, {}});  // partition 0 but no coefficients
    EXPECT_EQ(summary.Reconstruct(1, 0).status().code(),
              StatusCode::kInternal);
  }
  // The first point predicts from a tick with no coefficients at all.
  {
    SCOPED_TRACE("first point");
    TrajectorySummary summary = MakeWalkSummary(
        {{0, 0, {}}, {0, 1, {}}, {0, 1, {}}});
    SetOneCoefficient(summary, 1, 1.0);
    SetOneCoefficient(summary, 2, 1.0);
    ExpectDecodeStopsAt(summary, {});
  }
  // Tick 2 has no coefficients, between ticks 1 and 3 that do. Tick 0's
  // set is never read (warm-up point) and tick 1's differs from tick 3's,
  // so a walk that lands on the wrong tick decodes a wrong x.
  {
    SCOPED_TRACE("gap between ticks");
    TrajectorySummary summary = MakeWalkSummary(
        {{-1, 0, {}}, {0, 1, {}}, {0, 1, {}}, {0, 1, {}}, {0, 1, {}}});
    SetOneCoefficient(summary, 0, 5.0);
    SetOneCoefficient(summary, 1, 2.0);
    SetOneCoefficient(summary, 3, 1.0);
    SetOneCoefficient(summary, 4, 1.0);
    ExpectDecodeStopsAt(summary, {1.0, 2.5});
  }
  // A warm-up point at a tick without coefficients decodes; the failure is
  // a partition beyond tick 3's one-partition set.
  {
    SCOPED_TRACE("partition beyond its tick's set");
    TrajectorySummary summary = MakeWalkSummary(
        {{-1, 0, {}}, {-1, 1, {}}, {0, 1, {}}, {1, 1, {}}, {0, 1, {}}});
    SetOneCoefficient(summary, 2, 2.0);
    SetOneCoefficient(summary, 3, 1.0);
    SetOneCoefficient(summary, 4, 1.0);
    ExpectDecodeStopsAt(summary, {1.0, 0.5, 1.5});
  }
}

TEST(SummaryTest, CorruptCodewordIndexIsInternalError) {
  {
    TrajectorySummary summary(1, false, std::nullopt);
    TrajectoryRecord& record = summary.GetOrCreate(1, 0);
    record.points.push_back({-1, 5, {}});  // codeword 5 of empty codebook
    EXPECT_EQ(summary.Reconstruct(1, 0).status().code(),
              StatusCode::kInternal);
  }
  // Codeword 2 of the two-word codebook in the middle of the span.
  {
    SCOPED_TRACE("index past the codebook");
    TrajectorySummary summary = MakeWalkSummary(
        {{-1, 0, {}}, {0, 1, {}}, {0, 2, {}}, {0, 1, {}}});
    for (Tick t = 1; t < 4; ++t) SetOneCoefficient(summary, t, 1.0);
    ExpectDecodeStopsAt(summary, {1.0, 1.5});
  }
  // A negative codeword on the last point.
  {
    SCOPED_TRACE("negative index");
    TrajectorySummary summary = MakeWalkSummary(
        {{-1, 0, {}}, {0, 1, {}}, {0, 1, {}}, {0, -1, {}}});
    for (Tick t = 1; t < 4; ++t) SetOneCoefficient(summary, t, 1.0);
    ExpectDecodeStopsAt(summary, {1.0, 1.5, 2.0});
  }
}

std::vector<uint8_t> EncodedBytes(const TrajectorySummary& summary) {
  ByteWriter out;
  EncodeSummary(summary, &out);
  return out.buffer();
}

TEST(SummaryTest, SnapshotCopyIgnoresLaterAppends) {
  TrajectorySummary source = MakeTinySummary(false);
  const TrajectorySummary copy = source.SnapshotCopy();
  const std::vector<uint8_t> copied = EncodedBytes(copy);
  std::vector<Point> decoded;
  for (Tick t = 0; t < 3; ++t) decoded.push_back(*copy.Reconstruct(7, t));

  // Extend every part of the source: a coefficient tick, a codeword, a
  // point of trajectory 7 and a new trajectory.
  SetOneCoefficient(source, 3, 2.0);
  source.mutable_codebook()->Add({0.25, 0.0});
  source.GetOrCreate(7, 0).points.push_back({0, 2, {}});
  source.GetOrCreate(8, 3).points.push_back({-1, 1, {}});
  ASSERT_EQ(source.Reconstruct(7, 3)->x, 4.25);

  EXPECT_EQ(EncodedBytes(copy), copied);
  EXPECT_EQ(copy.coefficients().NumTicks(), 2u);
  EXPECT_EQ(copy.Reconstruct(7, 3).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(copy.Find(8), nullptr);
  for (Tick t = 0; t < 3; ++t) {
    const Point p = *copy.Reconstruct(7, t);
    EXPECT_EQ(p.x, decoded[static_cast<size_t>(t)].x) << "t=" << t;
    EXPECT_EQ(p.y, decoded[static_cast<size_t>(t)].y) << "t=" << t;
  }
}

TEST(SummaryTest, RaggedCoefficientSetsRoundTrip) {
  // Order-2 prediction with sets of 0, 1 and 2 coefficients side by side
  // at one tick (a partition without samples keeps an empty set), and a
  // tick (3) with no sets between ticks that have them.
  TrajectorySummary summary(/*prediction_order=*/2, false, std::nullopt);
  summary.mutable_codebook()->Add({1.0, 0.0});
  summary.mutable_codebook()->Add({0.5, 0.25});
  summary.mutable_codebook()->Add({-0.125, 1.0});
  const auto set = [](std::vector<double> values) {
    predictor::PredictionCoefficients coeffs;
    coeffs.coefficients = std::move(values);
    return coeffs;
  };
  summary.SetCoefficients(1, {set({1.0}), set({2.0, -1.0}), set({})});
  summary.SetCoefficients(2, {set({0.5, 0.5}), set({1.0})});
  summary.SetCoefficients(4, {set({1.5, -0.5}), set({}), set({0.75})});
  summary.GetOrCreate(1, 0).points = {
      {-1, 0, {}}, {0, 1, {}}, {0, 1, {}}, {-1, 2, {}}, {0, 1, {}}};
  summary.GetOrCreate(2, 0).points = {
      {-1, 0, {}}, {1, 2, {}}, {1, 0, {}}, {-1, 1, {}}, {2, 1, {}}};
  summary.GetOrCreate(3, 1).points = {
      {-1, 1, {}}, {0, 0, {}}, {-1, 2, {}}, {1, 2, {}}};

  const std::vector<uint8_t> bytes = EncodedBytes(summary);
  ByteReader in(bytes);
  auto decoded = DecodeSummary(&in);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(EncodedBytes(*decoded), bytes);

  const CoefficientTable& want = summary.coefficients();
  const CoefficientTable& got = decoded->coefficients();
  ASSERT_EQ(got.NumTicks(), 3u);
  EXPECT_EQ(got.NumValues(), want.NumValues());
  for (size_t i = 0; i < want.NumTicks(); ++i) {
    EXPECT_EQ(got.TickAt(i), want.TickAt(i));
    ASSERT_EQ(got.NumSets(i), want.NumSets(i)) << "tick " << want.TickAt(i);
    for (size_t p = 0; p < want.NumSets(i); ++p) {
      const CoefficientTable::Set a = want.SetAt(i, p);
      const CoefficientTable::Set b = got.SetAt(i, p);
      EXPECT_EQ(std::vector<double>(b.values, b.values + b.size),
                std::vector<double>(a.values, a.values + a.size))
          << "tick " << want.TickAt(i) << ", partition " << p;
    }
  }
  for (const auto& [id, record] : summary.records()) {
    for (Tick t = record.start_tick;
         t < record.start_tick + static_cast<Tick>(record.points.size());
         ++t) {
      const auto a = summary.Reconstruct(id, t);
      const auto b = decoded->Reconstruct(id, t);
      ASSERT_TRUE(a.ok()) << "id " << id << ", t=" << t;
      ASSERT_TRUE(b.ok()) << "id " << id << ", t=" << t;
      EXPECT_EQ(b->x, a->x) << "id " << id << ", t=" << t;
      EXPECT_EQ(b->y, a->y) << "id " << id << ", t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Decode lineage: the invariant worker memos that outlive seals rest on
// ---------------------------------------------------------------------------

/// One MakeMethod family member, or "PPQ-A-fixed" for PPQ-A in
/// kFixedPerTick mode (one fresh codebook per tick).
std::unique_ptr<PpqTrajectory> MakeLineageEncoder(const std::string& name) {
  if (name == "PPQ-A-fixed") {
    PpqOptions options = MakePpqA();
    options.mode = QuantizationMode::kFixedPerTick;
    options.fixed_bits = 6;
    return std::make_unique<PpqTrajectory>(options);
  }
  return MakeMethod(name, PpqOptions{});
}

/// Every trajectory's span [start, start + length) under \p seal, decoded
/// through \p memo, where length is the record's length in \p spans_of.
std::vector<std::vector<Point>> DecodeSpans(const SummarySnapshot& seal,
                                            const PpqSummarySnapshot& spans_of,
                                            DecodeMemo* memo) {
  std::vector<std::vector<Point>> spans;
  for (const auto& [id, record] : spans_of.summary().records()) {
    std::vector<Point> span(record.points.size());
    span.resize(seal.ReconstructSpan(id, record.start_tick, span.size(),
                                     span.data(), memo));
    spans.push_back(std::move(span));
  }
  return spans;
}

bool SameBytes(const std::vector<Point>& a, const std::vector<Point>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Point)) == 0);
}

class SnapshotLineage : public ::testing::TestWithParam<const char*> {};

TEST_P(SnapshotLineage, ConsecutiveSealsDecodeEqualPrefixes) {
  // Seal one encoder every few ticks. Under every pair of consecutive
  // seals N, N+1, each trajectory's span under N decodes to the same
  // bytes under N+1, from a cold memo and from a memo warmed on N, and a
  // memo warmed on N extends to N+1's full spans like a cold one.
  const TrajectoryDataset data = test::MakePortoDataset({40, 50, 15, 50, 31});
  const auto encoder = MakeLineageEncoder(GetParam());
  std::vector<SnapshotPtr> seals;
  for (Tick t = data.MinTick(); t < data.MaxTick(); ++t) {
    const TimeSlice slice = data.SliceAt(t);
    if (!slice.empty()) encoder->ObserveSlice(slice);
    if ((t - data.MinTick()) % 4 == 3) seals.push_back(encoder->Seal());
  }
  encoder->Finish();
  seals.push_back(encoder->Seal());
  ASSERT_GE(seals.size(), 10u);

  for (size_t n = 0; n + 1 < seals.size(); ++n) {
    SCOPED_TRACE("seal " + std::to_string(n) + " -> " + std::to_string(n + 1));
    const auto& older = dynamic_cast<const PpqSummarySnapshot&>(*seals[n]);
    const auto& newer = dynamic_cast<const PpqSummarySnapshot&>(*seals[n + 1]);
    ASSERT_NE(older.decode_lineage(), 0u);
    ASSERT_EQ(older.decode_lineage(), newer.decode_lineage());

    DecodeMemo warm;
    const auto under_older = DecodeSpans(older, older, &warm);
    DecodeMemo cold;
    const auto under_newer = DecodeSpans(newer, older, &cold);
    const auto under_newer_warm = DecodeSpans(newer, older, &warm);
    ASSERT_EQ(under_newer.size(), under_older.size());
    for (size_t i = 0; i < under_older.size(); ++i) {
      EXPECT_TRUE(SameBytes(under_newer[i], under_older[i])) << "record " << i;
      EXPECT_TRUE(SameBytes(under_newer_warm[i], under_older[i]))
          << "record " << i;
    }

    DecodeMemo full_cold;
    const auto full = DecodeSpans(newer, newer, &full_cold);
    const auto full_warm = DecodeSpans(newer, newer, &warm);
    ASSERT_EQ(full_warm.size(), full.size());
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_TRUE(SameBytes(full_warm[i], full[i])) << "record " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MakeMethodFamily, SnapshotLineage,
                         ::testing::Values("PPQ-A", "PPQ-A-basic", "PPQ-S",
                                           "PPQ-S-basic", "E-PQ",
                                           "Q-trajectory", "PPQ-A-fixed"));

TEST(SnapshotLineageTest, OnlyOneEncodersSealsShareALineage) {
  const TrajectoryDataset data = test::MakePortoDataset({20, 30, 10, 30, 3});
  PpqTrajectory a(MakePpqA());
  PpqTrajectory b(MakePpqA());
  a.Compress(data);
  b.Compress(data);
  const SnapshotPtr a1 = a.Seal();
  const SnapshotPtr a2 = a.Seal();
  const SnapshotPtr b1 = b.Seal();
  EXPECT_EQ(a1->decode_lineage(), a2->decode_lineage());
  EXPECT_NE(a1->decode_lineage(), b1->decode_lineage());

  // A moved encoder keeps its lineage.
  const uint64_t lineage = a1->decode_lineage();
  PpqTrajectory moved(std::move(a));
  EXPECT_EQ(moved.Seal()->decode_lineage(), lineage);

  // A reopened container never shares a lineage with a live encoder, nor
  // do two opens of one file.
  const std::string path = test::TempPath("lineage.snapshot");
  ASSERT_TRUE(a1->Save(path).ok());
  const auto reopened = OpenSnapshot(path);
  const auto reopened_again = OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(reopened_again.ok()) << reopened_again.status().ToString();
  EXPECT_NE((*reopened)->decode_lineage(), 0u);
  EXPECT_NE((*reopened)->decode_lineage(), lineage);
  EXPECT_NE((*reopened)->decode_lineage(),
            (*reopened_again)->decode_lineage());

  // Materialized seals draw a fresh lineage each.
  baselines::TrajStore::Options options;
  options.region = {-9.0, 41.0, -8.0, 41.5};
  baselines::TrajStore store(options);
  store.Compress(data);
  const SnapshotPtr m1 = store.Seal();
  const SnapshotPtr m2 = store.Seal();
  EXPECT_NE(m1->decode_lineage(), 0u);
  EXPECT_NE(m1->decode_lineage(), m2->decode_lineage());
}

}  // namespace
}  // namespace ppq::core
