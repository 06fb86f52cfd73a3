/// \file simd_kernel_test.cc
/// Bit-parity suite for the simd.h hot-path kernels: every dispatched
/// kernel must produce byte-identical output to its scalar reference over
/// randomized and adversarial inputs — NaN/inf/denormal coordinates,
/// boundary points sitting exactly on rectangle edges, spans shorter than
/// the vector width, unaligned buffer offsets, and (for the k-means
/// kernels) exact ties between centroids and all-NaN rows. Outputs are compared
/// with memcmp so NaN payloads and signed zeros count too. The suite runs
/// under ASan/UBSan in CI (tail-handling bugs in vector code are exactly
/// the kind sanitizers catch).
///
/// The second half covers the batched decode path built on the kernels:
/// SummarySnapshot::ReconstructSpan against per-point Reconstruct over a
/// real PPQ-A seal, and the eval::CountingReader span-accounting
/// invariant (points_decoded counts what an equivalent per-point loop
/// would have counted).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/query_eval.h"
#include "core/snapshot.h"
#include "cqc/cqc_codec.h"

namespace ppq {
namespace {

using core::DecodeMemo;
using core::QueryStats;
using core::RecordSpan;

// Sizes straddling the vector widths (2 for SSE2, 4 for AVX2) plus zero,
// and start offsets that walk the buffers off natural alignment.
const std::vector<size_t>& TestSizes() {
  static const std::vector<size_t> sizes = {0, 1,  2,  3,  4,  5,  7, 8,
                                            9, 15, 16, 17, 31, 33, 100};
  return sizes;
}
constexpr size_t kMaxOffset = 4;

/// Hostile doubles: NaN, infinities, denormals, signed zeros, extremes,
/// and values sitting exactly on the test rectangle's edges (0.25 / 0.75),
/// where half-open containment and zero region distance meet.
const std::vector<double>& AdversarialValues() {
  static const std::vector<double> values = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      0.0,
      -0.0,
      0.25,
      0.75,
      1e308,
      -1e308,
  };
  return values;
}

/// n points, mostly uniform in [0,1]^2 with every third point drawing one
/// or both coordinates from the adversarial set.
std::vector<Point> MakePoints(size_t n, Rng& rng) {
  const auto& adv = AdversarialValues();
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point p{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
    if (i % 3 == 0) p.x = adv[i % adv.size()];
    if (i % 3 == 1) p.y = adv[(i * 7 + 3) % adv.size()];
    pts.push_back(p);
  }
  return pts;
}

bool BitEqual(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}
/// Bitwise equality except that two NaNs match regardless of payload —
/// for inputs where one addition merges two NaN operands, whose result
/// payload is unspecified (see the simd.h contract).
bool EqualOrBothNan(const double* a, const double* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) == 0) continue;
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    return false;
  }
  return true;
}
bool BitEqual(const Point* a, const Point* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(Point)) == 0;
}

constexpr double kMinX = 0.25, kMinY = 0.25, kMaxX = 0.75, kMaxY = 0.75;
constexpr double kCanary = -777.5;  // detects out-of-span writes

TEST(SimdKernelTest, ContainsMaskMatchesScalar) {
  Rng rng(101);
  for (size_t n : TestSizes()) {
    for (size_t off = 0; off < kMaxOffset; ++off) {
      const std::vector<Point> pts = MakePoints(n + off, rng);
      std::vector<uint8_t> got(n + off + 1, 0xCD);
      std::vector<uint8_t> want(n + off + 1, 0xCD);
      simd::ContainsMask(pts.data() + off, n, kMinX, kMinY, kMaxX, kMaxY,
                         got.data() + off);
      simd::ContainsMaskScalar(pts.data() + off, n, kMinX, kMinY, kMaxX,
                               kMaxY, want.data() + off);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size()))
          << "n=" << n << " off=" << off;
      ASSERT_EQ(0xCD, got[n + off]) << "wrote past the mask, n=" << n;
    }
  }
}

TEST(SimdKernelTest, RegionDistancesMatchesScalarBitwise) {
  Rng rng(102);
  for (size_t n : TestSizes()) {
    for (size_t off = 0; off < kMaxOffset; ++off) {
      const std::vector<Point> pts = MakePoints(n + off, rng);
      std::vector<double> got(n + off + 1, kCanary);
      std::vector<double> want(n + off + 1, kCanary);
      simd::RegionDistances(pts.data() + off, n, kMinX, kMinY, kMaxX, kMaxY,
                            got.data() + off);
      simd::RegionDistancesScalar(pts.data() + off, n, kMinX, kMinY, kMaxX,
                                  kMaxY, want.data() + off);
      ASSERT_TRUE(BitEqual(got.data(), want.data(), got.size()))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernelTest, DistancesMatchesScalarBitwise) {
  Rng rng(103);
  const Point q{0.5, 0.5};
  // A NaN query turns every lane's dx^2 NaN; lanes whose point also has a
  // NaN coordinate then merge two NaNs in one addition, where the result
  // payload is unspecified — those lanes only require NaN-vs-NaN.
  const Point hostile_q{std::numeric_limits<double>::quiet_NaN(), -0.0};
  for (const Point& query : {q, hostile_q}) {
    const bool strict = !std::isnan(query.x) && !std::isnan(query.y);
    for (size_t n : TestSizes()) {
      for (size_t off = 0; off < kMaxOffset; ++off) {
        const std::vector<Point> pts = MakePoints(n + off, rng);
        std::vector<double> got(n + off + 1, kCanary);
        std::vector<double> want(n + off + 1, kCanary);
        simd::Distances(pts.data() + off, n, query, got.data() + off);
        simd::DistancesScalar(pts.data() + off, n, query, want.data() + off);
        ASSERT_TRUE(strict
                        ? BitEqual(got.data(), want.data(), got.size())
                        : EqualOrBothNan(got.data(), want.data(), got.size()))
            << "n=" << n << " off=" << off;
      }
    }
  }
}

TEST(SimdKernelTest, SquaredDistancesSoaMatchesScalarBitwise) {
  Rng rng(104);
  const Point q{0.5, 0.5};
  for (size_t n : TestSizes()) {
    for (size_t off = 0; off < kMaxOffset; ++off) {
      const std::vector<Point> pts = MakePoints(n + off, rng);
      std::vector<double> xs, ys;
      for (const Point& p : pts) {
        xs.push_back(p.x);
        ys.push_back(p.y);
      }
      std::vector<double> got(n + off + 1, kCanary);
      std::vector<double> want(n + off + 1, kCanary);
      simd::SquaredDistancesSoa(xs.data() + off, ys.data() + off, n, q,
                                got.data() + off);
      simd::SquaredDistancesSoaScalar(xs.data() + off, ys.data() + off, n, q,
                                      want.data() + off);
      ASSERT_TRUE(BitEqual(got.data(), want.data(), got.size()))
          << "n=" << n << " off=" << off;
    }
  }
}

// ---------------------------------------------------------------------------
// CqcRefineSpan: vs scalar reference, vs per-point Refine, in-place
// ---------------------------------------------------------------------------

/// Codes covering the whole shape space: real Encode output, garbage high
/// bits above code_bits (Decode must ignore them), invalid lengths (0,
/// short, long — lanes that must copy base through untouched), and LUT
/// indices that land on NaN padding cells.
struct CodeStream {
  std::vector<uint64_t> bits;
  std::vector<int32_t> lens;
};

CodeStream MakeCodes(const cqc::CqcCodec& codec,
                     const std::vector<Point>& base, Rng& rng) {
  CodeStream cs;
  const int cb = codec.code_bits();
  for (size_t i = 0; i < base.size(); ++i) {
    uint64_t b;
    int32_t len;
    switch (i % 4) {
      case 0: {  // realistic: encode a nearby deviation
        const Point recon{0.5 + rng.Uniform(-9e-4, 9e-4),
                          0.5 + rng.Uniform(-9e-4, 9e-4)};
        const Point orig{0.5 + rng.Uniform(-9e-4, 9e-4),
                         0.5 + rng.Uniform(-9e-4, 9e-4)};
        const cqc::CqcCode code = codec.Encode(orig, recon);
        b = code.bits;
        len = static_cast<int32_t>(code.length);
        break;
      }
      case 1:  // random index + garbage above code_bits
        b = static_cast<uint64_t>(rng.UniformInt(0, (1 << cb) - 1)) |
            (static_cast<uint64_t>(rng.UniformInt(1, 1 << 10)) << cb);
        len = static_cast<int32_t>(cb);
        break;
      case 2:  // invalid length: lane must pass base through bit-exactly
        b = static_cast<uint64_t>(rng.UniformInt(0, (1 << cb) - 1));
        len = static_cast<int32_t>(rng.UniformInt(0, 2) == 0 ? 0 : cb + 1);
        break;
      default:  // full random walk over the index space (hits NaN padding)
        b = static_cast<uint64_t>(rng.UniformInt(0, (1 << (cb + 2)) - 1));
        len = static_cast<int32_t>(rng.UniformInt(0, 1) == 0 ? cb : cb - 1);
        break;
    }
    cs.bits.push_back(b);
    cs.lens.push_back(len);
  }
  return cs;
}

TEST(SimdKernelTest, CqcRefineSpanMatchesScalarBitwise) {
  const cqc::CqcCodec codec(0.001, 50.0 / 111320.0);
  ASSERT_TRUE(codec.has_refine_lut());
  const auto& lut = codec.refine_lut();
  Rng rng(105);
  for (size_t n : TestSizes()) {
    for (size_t off = 0; off < kMaxOffset; ++off) {
      const std::vector<Point> base = MakePoints(n + off, rng);
      CodeStream cs = MakeCodes(codec, base, rng);
      std::vector<Point> got(n + off + 1, Point{kCanary, kCanary});
      std::vector<Point> want(n + off + 1, Point{kCanary, kCanary});
      simd::CqcRefineSpan(base.data() + off, cs.bits.data() + off,
                          cs.lens.data() + off, n, lut.data(), lut.size(),
                          codec.code_bits(), got.data() + off);
      simd::CqcRefineSpanScalar(base.data() + off, cs.bits.data() + off,
                                cs.lens.data() + off, n, lut.data(),
                                lut.size(), codec.code_bits(),
                                want.data() + off);
      ASSERT_TRUE(BitEqual(got.data(), want.data(), got.size()))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdKernelTest, CqcRefineSpanMatchesPerPointRefine) {
  const cqc::CqcCodec codec(0.001, 50.0 / 111320.0);
  ASSERT_TRUE(codec.has_refine_lut());
  const auto& lut = codec.refine_lut();
  Rng rng(106);
  constexpr size_t kN = 257;
  const std::vector<Point> base = MakePoints(kN, rng);
  const CodeStream cs = MakeCodes(codec, base, rng);
  std::vector<Point> got(kN);
  simd::CqcRefineSpan(base.data(), cs.bits.data(), cs.lens.data(), kN,
                      lut.data(), lut.size(), codec.code_bits(), got.data());
  for (size_t i = 0; i < kN; ++i) {
    const Point want = codec.Refine(
        base[i], cqc::CqcCode{cs.bits[i], static_cast<int>(cs.lens[i])});
    ASSERT_TRUE(BitEqual(&got[i], &want, 1))
        << "i=" << i << " bits=" << cs.bits[i] << " len=" << cs.lens[i];
  }
}

TEST(SimdKernelTest, CqcRefineSpanInPlaceAliasing) {
  const cqc::CqcCodec codec(0.001, 50.0 / 111320.0);
  const auto& lut = codec.refine_lut();
  Rng rng(107);
  constexpr size_t kN = 100;
  const std::vector<Point> base = MakePoints(kN, rng);
  const CodeStream cs = MakeCodes(codec, base, rng);
  std::vector<Point> out_of_place(kN);
  simd::CqcRefineSpan(base.data(), cs.bits.data(), cs.lens.data(), kN,
                      lut.data(), lut.size(), codec.code_bits(),
                      out_of_place.data());
  std::vector<Point> in_place = base;  // base and out alias exactly
  simd::CqcRefineSpan(in_place.data(), cs.bits.data(), cs.lens.data(), kN,
                      lut.data(), lut.size(), codec.code_bits(),
                      in_place.data());
  ASSERT_TRUE(BitEqual(in_place.data(), out_of_place.data(), kN));
}

// ---------------------------------------------------------------------------
// k-means kernels: NearestCentroids and RefreshMinSquaredDistances
// ---------------------------------------------------------------------------

const std::vector<size_t>& KMeansDims() {
  static const std::vector<size_t> dims = {1, 2, 3, 6, 8};
  return dims;
}
const std::vector<size_t>& KMeansKs() {
  static const std::vector<size_t> ks = {1, 2, 5, 17};
  return ks;
}

/// One k-means coordinate: a quarter-grid value (so distances tie
/// exactly), a uniform one, or, one time in five, an adversarial one.
double KMeansValue(Rng& rng) {
  const auto& adv = AdversarialValues();
  const int64_t kind = rng.UniformInt(0, 9);
  if (kind < 2) {
    return adv[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(adv.size()) - 1))];
  }
  if (kind < 6) return 0.25 * static_cast<double>(rng.UniformInt(0, 4));
  return rng.Uniform(0.0, 1.0);
}

/// Dim-major rows with \p off leading entries per column, so the kernels
/// start off alignment: coordinate d of row i at [d * stride + off + i].
/// Every seventh row is all-NaN.
std::vector<double> KMeansRows(size_t n, size_t dim, size_t off, Rng& rng) {
  const size_t stride = off + n;
  std::vector<double> cols(dim * stride);
  for (double& v : cols) v = KMeansValue(rng);
  for (size_t i = 0; i < n; i += 7) {
    for (size_t d = 0; d < dim; ++d) {
      cols[d * stride + off + i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return cols;
}

/// k row-major centroids; a third of them repeat an earlier one, so rows
/// meet exact ties between centroids.
std::vector<double> KMeansCentroids(size_t k, size_t dim, Rng& rng) {
  std::vector<double> centroids(k * dim);
  for (size_t c = 0; c < k; ++c) {
    const bool repeat = c > 0 && c % 3 == 2;
    const size_t from = repeat ? static_cast<size_t>(rng.UniformInt(
                                     0, static_cast<int64_t>(c) - 1))
                               : c;
    for (size_t d = 0; d < dim; ++d) {
      centroids[c * dim + d] =
          repeat ? centroids[from * dim + d] : KMeansValue(rng);
    }
  }
  return centroids;
}

TEST(SimdKernelTest, NearestCentroidsMatchesScalarBitwise) {
  Rng rng(108);
  constexpr int32_t kIndexCanary = -7;
  for (size_t n = 0; n <= 100; ++n) {
    for (size_t dim : KMeansDims()) {
      for (size_t k : KMeansKs()) {
        const size_t off = n % kMaxOffset;
        const size_t stride = off + n;
        const std::vector<double> cols = KMeansRows(n, dim, off, rng);
        const std::vector<double> centroids = KMeansCentroids(k, dim, rng);
        std::vector<int32_t> got_index(stride + 1, kIndexCanary);
        std::vector<int32_t> want_index(stride + 1, kIndexCanary);
        std::vector<double> got_d2(stride + 1, kCanary);
        std::vector<double> want_d2(stride + 1, kCanary);
        simd::NearestCentroids(cols.data() + off, stride, n, dim,
                               centroids.data(), k, got_index.data() + off,
                               got_d2.data() + off);
        simd::NearestCentroidsScalar(cols.data() + off, stride, n, dim,
                                     centroids.data(), k,
                                     want_index.data() + off,
                                     want_d2.data() + off);
        ASSERT_EQ(0, std::memcmp(got_index.data(), want_index.data(),
                                 got_index.size() * sizeof(int32_t)))
            << "n=" << n << " dim=" << dim << " k=" << k;
        ASSERT_TRUE(BitEqual(got_d2.data(), want_d2.data(), got_d2.size()))
            << "n=" << n << " dim=" << dim << " k=" << k;
        for (size_t i = 0; i < n; i += 7) {  // the all-NaN rows
          ASSERT_EQ(0, got_index[off + i]) << "n=" << n << " i=" << i;
          ASSERT_EQ(std::numeric_limits<double>::infinity(),
                    got_d2[off + i]);
        }
      }
    }
  }
}

TEST(SimdKernelTest, NearestCentroidsTiesTakeTheLowerIndex) {
  // Row x = 0.5 sits exactly between 0.25 and 0.75; centroids 3 and 4
  // repeat them, so every row has a four-way tie at d2 = 0.0625 * dim.
  const std::vector<double> centroid_x = {1.0, 0.25, 0.75, 0.25, 0.75};
  for (size_t dim : KMeansDims()) {
    for (size_t n = 0; n <= 17; ++n) {
      std::vector<double> cols(dim * n, 0.5);
      std::vector<double> centroids;
      for (double x : centroid_x) centroids.insert(centroids.end(), dim, x);
      std::vector<int32_t> index(n, -1);
      std::vector<double> d2(n);
      simd::NearestCentroids(cols.data(), n, n, dim, centroids.data(),
                             centroid_x.size(), index.data(), d2.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(1, index[i]) << "dim=" << dim << " n=" << n << " i=" << i;
        ASSERT_EQ(0.0625 * static_cast<double>(dim), d2[i]);
      }
    }
  }
}

TEST(SimdKernelTest, RefreshMinSquaredDistancesMatchesScalarBitwise) {
  Rng rng(109);
  for (size_t n = 0; n <= 100; ++n) {
    for (size_t dim : KMeansDims()) {
      for (size_t off = 0; off < kMaxOffset; ++off) {
        const size_t stride = off + n;
        const std::vector<double> cols = KMeansRows(n, dim, off, rng);
        const std::vector<double> centroid = KMeansCentroids(1, dim, rng);
        // Running minima: +inf (the seeding start), earlier minima, and
        // k-means values (a NaN minimum must survive untouched).
        std::vector<double> got(stride + 1, kCanary);
        for (size_t i = 0; i < n; ++i) {
          const int64_t kind = rng.UniformInt(0, 3);
          got[off + i] = kind == 0   ? std::numeric_limits<double>::infinity()
                         : kind == 1 ? KMeansValue(rng)
                                     : rng.Uniform(0.0, 2.0);
        }
        std::vector<double> want = got;
        simd::RefreshMinSquaredDistances(cols.data() + off, stride, n, dim,
                                         centroid.data(), got.data() + off);
        simd::RefreshMinSquaredDistancesScalar(cols.data() + off, stride, n,
                                               dim, centroid.data(),
                                               want.data() + off);
        ASSERT_TRUE(BitEqual(got.data(), want.data(), got.size()))
            << "n=" << n << " dim=" << dim << " off=" << off;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched span decode over a real seal + CountingReader accounting
// ---------------------------------------------------------------------------

struct SealFixture {
  std::unique_ptr<core::Compressor> method;
  core::SnapshotPtr snapshot;
  std::vector<RecordSpan> spans;
};

/// Small PPQ-A error-bounded seal (the CQC-refined decode path), built
/// once and shared across the span tests.
const SealFixture& PpqSeal() {
  static const SealFixture* fixture = [] {
    auto* fx = new SealFixture;
    bench::BenchOptions options;
    options.scale = 0.01;
    bench::DatasetBundle bundle = bench::MakePortoBundle(options);
    bench::MethodSetup setup;
    setup.mode = core::QuantizationMode::kErrorBounded;
    fx->method = bench::MakeCompressor("PPQ-A", bundle, setup);
    fx->method->Compress(bundle.data);
    fx->snapshot = fx->method->Seal();
    fx->spans = fx->method->RecordSpans();
    return fx;
  }();
  return *fixture;
}

TEST(SpanDecodeTest, ReconstructSpanMatchesPerPointReconstruct) {
  const SealFixture& fx = PpqSeal();
  ASSERT_FALSE(fx.spans.empty());
  DecodeMemo memo_point, memo_span;
  // Chunk width 7: deliberately off the vector widths so every span ends
  // in a partial vector tail.
  constexpr size_t kChunk = 7;
  for (const RecordSpan& s : fx.spans) {
    const size_t len = static_cast<size_t>(s.length);
    std::vector<Point> from_span(len);
    size_t wrote = 0;
    for (size_t done = 0; done < len; done += kChunk) {
      const size_t want = std::min(kChunk, len - done);
      wrote += fx.snapshot->ReconstructSpan(
          s.id, s.start_tick + static_cast<Tick>(done), want,
          from_span.data() + done, &memo_span);
    }
    ASSERT_EQ(len, wrote) << "id=" << s.id;
    for (size_t i = 0; i < len; ++i) {
      const auto p = fx.snapshot->Reconstruct(
          s.id, s.start_tick + static_cast<Tick>(i), &memo_point);
      ASSERT_TRUE(p.ok()) << "id=" << s.id << " i=" << i;
      ASSERT_TRUE(BitEqual(&from_span[i], &*p, 1))
          << "id=" << s.id << " i=" << i;
    }
  }
}

TEST(SpanDecodeTest, ReconstructSpanEdgeCases) {
  const SealFixture& fx = PpqSeal();
  ASSERT_FALSE(fx.spans.empty());
  const RecordSpan& s = fx.spans.front();
  const size_t len = static_cast<size_t>(s.length);
  DecodeMemo memo;
  std::vector<Point> buf(len + 16);

  // Unknown id and zero-length requests write nothing.
  EXPECT_EQ(0u, fx.snapshot->ReconstructSpan(TrajId{9999999}, s.start_tick,
                                             4, buf.data(), &memo));
  EXPECT_EQ(0u, fx.snapshot->ReconstructSpan(s.id, s.start_tick, 0,
                                             buf.data(), &memo));
  // A start before the record decodes nothing (ActiveAt is false there).
  EXPECT_EQ(0u, fx.snapshot->ReconstructSpan(s.id, s.start_tick - 1, 4,
                                             buf.data(), &memo));
  // Requests running past the record end truncate to the record.
  EXPECT_EQ(len, fx.snapshot->ReconstructSpan(s.id, s.start_tick, len + 16,
                                              buf.data(), &memo));
  // A mid-record start returns the tail.
  if (len >= 3) {
    EXPECT_EQ(len - 2,
              fx.snapshot->ReconstructSpan(
                  s.id, s.start_tick + 2, len + 16, buf.data(), &memo));
  }
}

// Satellite invariant: the CountingReader span overload must attribute
// exactly what the historical per-point loop attributed — every decoded
// point, plus the one failed Reconstruct that ended a cut-short span.
TEST(SpanDecodeTest, CountingReaderSpanAccountingMatchesPerPointLoop) {
  const SealFixture& fx = PpqSeal();
  ASSERT_FALSE(fx.spans.empty());
  const RecordSpan& s = fx.spans.front();
  const size_t len = static_cast<size_t>(s.length);
  ASSERT_GE(len, 4u);

  DecodeMemo memo;
  core::eval::SnapshotReader base{fx.snapshot.get(), &memo};
  QueryStats stats;
  core::eval::StageNanos stages;
  core::eval::CountingReader<core::eval::SnapshotReader> reader{base, &stats,
                                                                &stages};
  std::vector<Point> buf(len + 8);

  // Full span: n points decoded, n attributed.
  ASSERT_EQ(4u, reader.ReconstructSpan(s.id, s.start_tick, 4, buf.data()));
  EXPECT_EQ(4u, stats.points_decoded);

  // Cut-short span (request past the record end): the per-point loop
  // would have decoded len points and then failed once — len + 1.
  stats.points_decoded = 0;
  ASSERT_EQ(len, reader.ReconstructSpan(s.id, s.start_tick, len + 8,
                                        buf.data()));
  size_t per_point_count = 0;
  for (size_t i = 0; i < len + 8; ++i) {
    ++per_point_count;
    if (!reader.inner
             .Reconstruct(s.id, s.start_tick + static_cast<Tick>(i))
             .ok()) {
      break;
    }
  }
  EXPECT_EQ(per_point_count, stats.points_decoded);
  EXPECT_EQ(len + 1, stats.points_decoded);

  // Failing n=1 span (unknown id — the DecodeAt shape): one attempt.
  stats.points_decoded = 0;
  Point p;
  ASSERT_EQ(0u, reader.ReconstructSpan(TrajId{9999999}, s.start_tick, 1, &p));
  EXPECT_EQ(1u, stats.points_decoded);

  // And decode time was actually sampled (one pair per span, not zero).
  EXPECT_GT(stages.v[static_cast<size_t>(core::ServeStage::kDecode)], 0u);
}

}  // namespace
}  // namespace ppq
