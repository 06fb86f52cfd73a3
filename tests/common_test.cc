#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/geo.h"
#include "common/serial.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"

namespace ppq {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_NE(s.ToString().find("bad input"), std::string::npos);
}

TEST(StatusTest, DistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

// ---------------------------------------------------------------------------
// Point / BoundingBox
// ---------------------------------------------------------------------------

TEST(PointTest, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{0.5, -1.0};
  EXPECT_EQ((a + b), (Point{1.5, 1.0}));
  EXPECT_EQ((a - b), (Point{0.5, 3.0}));
  EXPECT_EQ((a * 2.0), (Point{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.DistanceTo(a), 0.0);
  EXPECT_DOUBLE_EQ((Point{3.0, 4.0}).Norm(), 5.0);
  EXPECT_DOUBLE_EQ((Point{3.0, 4.0}).SquaredNorm(), 25.0);
}

TEST(BoundingBoxTest, ExtendAndContains) {
  BoundingBox box;
  EXPECT_FALSE(box.valid());
  box.Extend({1.0, 1.0});
  box.Extend({-1.0, 2.0});
  EXPECT_TRUE(box.valid());
  EXPECT_TRUE(box.Contains({0.0, 1.5}));
  EXPECT_FALSE(box.Contains({0.0, 3.0}));
  EXPECT_DOUBLE_EQ(box.width(), 2.0);
  EXPECT_DOUBLE_EQ(box.height(), 1.0);
}

// ---------------------------------------------------------------------------
// Trajectory / TrajectoryDataset
// ---------------------------------------------------------------------------

Trajectory MakeTrajectory(Tick start, int n, double base) {
  Trajectory t;
  t.start_tick = start;
  for (int i = 0; i < n; ++i) {
    t.points.push_back({base + i, base - i});
  }
  return t;
}

TEST(TrajectoryTest, ActiveWindow) {
  const Trajectory t = MakeTrajectory(10, 5, 0.0);
  EXPECT_FALSE(t.ActiveAt(9));
  EXPECT_TRUE(t.ActiveAt(10));
  EXPECT_TRUE(t.ActiveAt(14));
  EXPECT_FALSE(t.ActiveAt(15));
  EXPECT_EQ(t.end_tick(), 15);
  EXPECT_EQ(t.At(12).x, 2.0);
}

TEST(TrajectoryDatasetTest, AddAssignsDenseIds) {
  TrajectoryDataset ds;
  ds.Add(MakeTrajectory(0, 3, 0.0));
  ds.Add(MakeTrajectory(1, 3, 5.0));
  EXPECT_EQ(ds[0].id, 0);
  EXPECT_EQ(ds[1].id, 1);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.TotalPoints(), 6u);
}

TEST(TrajectoryDatasetTest, SliceAtReturnsActivePoints) {
  TrajectoryDataset ds;
  ds.Add(MakeTrajectory(0, 3, 0.0));   // active ticks 0..2
  ds.Add(MakeTrajectory(2, 3, 5.0));   // active ticks 2..4
  const TimeSlice s0 = ds.SliceAt(0);
  EXPECT_EQ(s0.size(), 1u);
  const TimeSlice s2 = ds.SliceAt(2);
  EXPECT_EQ(s2.size(), 2u);
  EXPECT_EQ(s2.ids[0], 0);
  EXPECT_EQ(s2.ids[1], 1);
  const TimeSlice s4 = ds.SliceAt(4);
  EXPECT_EQ(s4.size(), 1u);
  EXPECT_EQ(s4.ids[0], 1);
}

TEST(TrajectoryDatasetTest, ActiveIdsAtMatchesBruteForce) {
  // The per-tick index must agree with a brute-force scan at every tick,
  // including out-of-range ticks, with ids in ascending order. The second
  // Add starts EARLIER than the first (out-of-order arrival).
  TrajectoryDataset ds;
  ds.Add(MakeTrajectory(5, 4, 0.0));   // active 5..8
  ds.Add(MakeTrajectory(2, 3, 1.0));   // active 2..4
  ds.Add(MakeTrajectory(4, 6, 2.0));   // active 4..9
  for (Tick t = -2; t <= 12; ++t) {
    std::vector<TrajId> expected;
    for (const Trajectory& traj : ds.trajectories()) {
      if (traj.ActiveAt(t)) expected.push_back(traj.id);
    }
    EXPECT_EQ(ds.ActiveIdsAt(t), expected) << "tick " << t;
  }
  EXPECT_TRUE(ds.ActiveIdsAt(-100).empty());
  EXPECT_TRUE(ds.ActiveIdsAt(100).empty());
}

TEST(TrajectoryDatasetTest, WidelySeparatedTicksStayCheap) {
  // The index is keyed by occupied tick, so epoch-scale tick values next
  // to tick-0 trajectories must not blow up memory (or time).
  TrajectoryDataset ds;
  ds.Add(MakeTrajectory(1'700'000'000, 3, 0.0));
  ds.Add(MakeTrajectory(0, 3, 5.0));
  EXPECT_EQ(ds.ActiveIdsAt(1'700'000'001), (std::vector<TrajId>{0}));
  EXPECT_EQ(ds.ActiveIdsAt(1), (std::vector<TrajId>{1}));
  EXPECT_TRUE(ds.ActiveIdsAt(1'000'000).empty());
  EXPECT_EQ(ds.SliceAt(0).size(), 1u);
}

TEST(TrajectoryDatasetTest, ConstructorBuildsTickIndex) {
  std::vector<Trajectory> trajs;
  trajs.push_back(MakeTrajectory(0, 3, 0.0));
  trajs.push_back(MakeTrajectory(2, 3, 5.0));
  const TrajectoryDataset ds(std::move(trajs));
  EXPECT_EQ(ds.ActiveIdsAt(2), (std::vector<TrajId>{0, 1}));
  const TimeSlice slice = ds.SliceAt(2);
  EXPECT_EQ(slice.ids, (std::vector<TrajId>{0, 1}));
  EXPECT_EQ(slice.positions[1].x, 5.0);
}

TEST(TrajectoryDatasetTest, TickBounds) {
  TrajectoryDataset ds;
  ds.Add(MakeTrajectory(3, 4, 0.0));
  ds.Add(MakeTrajectory(1, 2, 0.0));
  EXPECT_EQ(ds.MinTick(), 1);
  EXPECT_EQ(ds.MaxTick(), 7);
}

TEST(TrajectoryDatasetTest, BoundsCoverAllPoints) {
  TrajectoryDataset ds;
  ds.Add(MakeTrajectory(0, 4, 0.0));
  const BoundingBox box = ds.Bounds();
  for (const auto& p : ds[0].points) EXPECT_TRUE(box.Contains(p));
}

// ---------------------------------------------------------------------------
// Geo
// ---------------------------------------------------------------------------

TEST(GeoTest, DegreeMeterRoundTrip) {
  EXPECT_NEAR(DegreesToMeters(MetersToDegrees(123.0)), 123.0, 1e-9);
  // The paper's equivalence: 0.001 deg ~ 111 m.
  EXPECT_NEAR(DegreesToMeters(0.001), 111.32, 0.01);
}

TEST(GeoTest, DegreeDistance) {
  const Point a{0.0, 0.0};
  const Point b{0.001, 0.0};
  EXPECT_NEAR(DegreeDistanceMeters(a, b), 111.32, 0.01);
}

TEST(GeoTest, EquirectangularShrinksLongitude) {
  const Point a{0.0, 60.0};
  const Point b{1.0, 60.0};
  // cos(60 deg) = 0.5.
  EXPECT_NEAR(EquirectangularDistanceMeters(a, b, 60.0),
              0.5 * kMetersPerDegree, 1.0);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(RunningStatTest, MeanMinMax) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(PrecisionRecallTest, PerfectQueries) {
  PrecisionRecall pr;
  pr.AddQuery(5, 5, 5);
  EXPECT_DOUBLE_EQ(pr.precision(), 1.0);
  EXPECT_DOUBLE_EQ(pr.recall(), 1.0);
}

TEST(PrecisionRecallTest, PartialOverlap) {
  PrecisionRecall pr;
  pr.AddQuery(2, 4, 8);
  EXPECT_DOUBLE_EQ(pr.precision(), 0.5);
  EXPECT_DOUBLE_EQ(pr.recall(), 0.25);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

// ---------------------------------------------------------------------------
// CRC-32 and the fixed-width codec (common/serial.h)
// ---------------------------------------------------------------------------

/// Byte-at-a-time reflected CRC-32, straight from the polynomial.
uint32_t ReferenceCrc32(const uint8_t* p, size_t size) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

/// Deterministic pseudo-random bytes (LCG high bytes).
std::vector<uint8_t> NoiseBytes(size_t size) {
  std::vector<uint8_t> bytes(size);
  uint32_t x = 0x2545F491u;
  for (uint8_t& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(ReferenceCrc32(reinterpret_cast<const uint8_t*>("123456789"), 9),
            0xCBF43926u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Start offsets 0-7 put the 8-byte words at every alignment; lengths up
  // to 300 cover empty input, tails of 1-7 bytes and many whole words.
  const std::vector<uint8_t> bytes = NoiseBytes(300 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(Crc32(bytes.data() + offset, size),
                ReferenceCrc32(bytes.data() + offset, size))
          << "offset " << offset << ", " << size << " bytes";
    }
  }
}

TEST(Crc32Test, ChainingThroughSeedEqualsOneShot) {
  const std::vector<uint8_t> bytes = NoiseBytes(300);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    ASSERT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(ByteCodecTest, FixedWidthValuesRoundTripLittleEndian) {
  const double nan = [] {
    const uint64_t bits = 0x7FF8000000012345ULL;  // quiet NaN with payload
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }();
  const double denormal = [] {
    const uint64_t bits = 0x000FEDCBA9876543ULL;
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }();
  ASSERT_EQ(std::fpclassify(denormal), FP_SUBNORMAL);

  ByteWriter out;
  out.WriteU32(0);
  out.WriteU32(std::numeric_limits<uint32_t>::max());
  out.WriteI32(std::numeric_limits<int32_t>::min());
  out.WriteU64(std::numeric_limits<uint64_t>::max());
  out.WriteU64(0x0102030405060708ULL);
  out.WriteF64(-0.0);
  out.WriteF64(nan);
  out.WriteF64(denormal);
  const std::vector<uint8_t> expected = {
      0x00, 0x00, 0x00, 0x00,                          // 0
      0xFF, 0xFF, 0xFF, 0xFF,                          // UINT32_MAX
      0x00, 0x00, 0x00, 0x80,                          // INT32_MIN
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // UINT64_MAX
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // byte order
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0x45, 0x23, 0x01, 0x00, 0x00, 0x00, 0xF8, 0x7F,  // NaN payload
      0x43, 0x65, 0x87, 0xA9, 0xCB, 0xED, 0x0F, 0x00,  // denormal
  };
  EXPECT_EQ(out.buffer(), expected);

  const auto bits_of = [](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
  };
  ByteReader in(out.buffer());
  EXPECT_EQ(*in.ReadU32(), 0u);
  EXPECT_EQ(*in.ReadU32(), std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(*in.ReadI32(), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(*in.ReadU64(), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(*in.ReadU64(), 0x0102030405060708ULL);
  EXPECT_EQ(bits_of(*in.ReadF64()), bits_of(-0.0));
  EXPECT_EQ(bits_of(*in.ReadF64()), bits_of(nan));
  EXPECT_EQ(bits_of(*in.ReadF64()), bits_of(denormal));
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(in.ReadU32().status().code(), StatusCode::kIOError);
}

TEST(ByteCodecTest, BlocksAndBytesStayInBounds) {
  ByteWriter out;
  out.WriteU8(0xAA);
  StoreU32LE(out.Extend(4), 0xDDCCBBAAu);
  out.WriteBytes("xyz", 3);
  EXPECT_EQ(out.buffer(), (std::vector<uint8_t>{0xAA, 0xAA, 0xBB, 0xCC, 0xDD,
                                                'x', 'y', 'z'}));

  ByteReader in(out.buffer());
  EXPECT_EQ(*in.ReadU8(), 0xAA);
  auto block = in.Take(4);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(LoadU32LE(*block), 0xDDCCBBAAu);
  char tail[3] = {};
  ASSERT_TRUE(in.ReadBytes(tail, 3).ok());
  EXPECT_EQ(std::string(tail, 3), "xyz");
  EXPECT_TRUE(in.ReadBytes(nullptr, 0).ok());
  EXPECT_EQ(in.Take(1).status().code(), StatusCode::kIOError);
  EXPECT_EQ(in.ReadBytes(tail, 1).code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace ppq
