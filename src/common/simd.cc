#include "common/simd.h"

#include <algorithm>
#include <cmath>
#include <limits>

/// \file simd.cc
/// Kernel implementations. This translation unit is compiled with
/// -ffp-contract=off (see src/common/CMakeLists.txt): no variant may fuse a
/// multiply-add, which is one half of the bit-parity contract; the other
/// half is that every vector variant keeps the scalar reference's operation
/// order within each lane. x86-64 SSE2 is the compile baseline, AVX2
/// variants are emitted with a function-level target attribute and selected
/// at static-init time iff the CPU reports the feature.

#if !defined(PPQ_SIMD_DISABLED) && (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define PPQ_SIMD_X86 1
#include <immintrin.h>
#else
#define PPQ_SIMD_X86 0
#endif

namespace ppq::simd {

// ---------------------------------------------------------------------------
// Scalar references — these define the kernel semantics.
// ---------------------------------------------------------------------------

void ContainsMaskScalar(const Point* pts, size_t n, double min_x, double min_y,
                        double max_x, double max_y, uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    const Point& p = pts[i];
    mask[i] = (p.x >= min_x && p.x < max_x && p.y >= min_y && p.y < max_y)
                  ? uint8_t{1}
                  : uint8_t{0};
  }
}

void RegionDistancesScalar(const Point* pts, size_t n, double min_x,
                           double min_y, double max_x, double max_y,
                           double* out) {
  for (size_t i = 0; i < n; ++i) {
    const Point& p = pts[i];
    const double dx = MaxPd(MaxPd(min_x - p.x, 0.0), p.x - max_x);
    const double dy = MaxPd(MaxPd(min_y - p.y, 0.0), p.y - max_y);
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

void DistancesScalar(const Point* pts, size_t n, const Point& q, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = pts[i].x - q.x;
    const double dy = pts[i].y - q.y;
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

void SquaredDistancesSoaScalar(const double* xs, const double* ys, size_t n,
                               const Point& q, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - q.x;
    const double dy = ys[i] - q.y;
    out[i] = dx * dx + dy * dy;
  }
}

void CqcRefineSpanScalar(const Point* base, const uint64_t* bits,
                         const int32_t* lengths, size_t n, const Point* lut,
                         size_t lut_size, int32_t code_bits, Point* out) {
  const uint64_t index_mask = static_cast<uint64_t>(lut_size - 1);
  for (size_t i = 0; i < n; ++i) {
    const Point off = lut[bits[i] & index_mask];
    // Padding-cell entries are stored as NaN, so `off == off` doubles as the
    // decodability test; invalid lanes copy the base bit-exactly (a select,
    // not a subtract-by-zero).
    if (lengths[i] == code_bits && off.x == off.x && off.y == off.y) {
      out[i] = Point{base[i].x - off.x, base[i].y - off.y};
    } else {
      out[i] = base[i];
    }
  }
}

namespace {

/// d2(i, c) of the k-means kernels: row i of dim-major \p cols.
inline double RowSquaredDistance(const double* cols, size_t stride, size_t i,
                                 size_t dim, const double* centroid) {
  double d2 = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    const double diff = cols[d * stride + i] - centroid[d];
    d2 += diff * diff;
  }
  return d2;
}

}  // namespace

void NearestCentroidsScalar(const double* cols, size_t stride, size_t n,
                            size_t dim, const double* centroids, size_t k,
                            int32_t* index, double* dist2) {
  for (size_t i = 0; i < n; ++i) {
    int32_t best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < k; ++c) {
      const double d2 = RowSquaredDistance(cols, stride, i, dim,
                                           centroids + c * dim);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = static_cast<int32_t>(c);
      }
    }
    index[i] = best;
    dist2[i] = best_d2;
  }
}

void RefreshMinSquaredDistancesScalar(const double* cols, size_t stride,
                                      size_t n, size_t dim,
                                      const double* centroid, double* best) {
  for (size_t i = 0; i < n; ++i) {
    best[i] = std::min(best[i],
                       RowSquaredDistance(cols, stride, i, dim, centroid));
  }
}

#if PPQ_SIMD_X86

namespace {

// ---------------------------------------------------------------------------
// SSE2 variants (x86-64 baseline; no attribute needed)
// ---------------------------------------------------------------------------

void ContainsMaskSse2(const Point* pts, size_t n, double min_x, double min_y,
                      double max_x, double max_y, uint8_t* mask) {
  const __m128d lo = _mm_set_pd(min_y, min_x);  // [min_x min_y]
  const __m128d hi = _mm_set_pd(max_y, max_x);
  for (size_t i = 0; i < n; ++i) {
    const __m128d p = _mm_loadu_pd(&pts[i].x);
    const __m128d in = _mm_and_pd(_mm_cmpge_pd(p, lo), _mm_cmplt_pd(p, hi));
    mask[i] = _mm_movemask_pd(in) == 0b11 ? uint8_t{1} : uint8_t{0};
  }
}

void RegionDistancesSse2(const Point* pts, size_t n, double min_x,
                         double min_y, double max_x, double max_y,
                         double* out) {
  const __m128d lo = _mm_set_pd(min_y, min_x);
  const __m128d hi = _mm_set_pd(max_y, max_x);
  const __m128d zero = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d pa = _mm_loadu_pd(&pts[i].x);      // [x0 y0]
    const __m128d pb = _mm_loadu_pd(&pts[i + 1].x);  // [x1 y1]
    const __m128d da = _mm_max_pd(_mm_max_pd(_mm_sub_pd(lo, pa), zero),
                                  _mm_sub_pd(pa, hi));
    const __m128d db = _mm_max_pd(_mm_max_pd(_mm_sub_pd(lo, pb), zero),
                                  _mm_sub_pd(pb, hi));
    const __m128d sa = _mm_mul_pd(da, da);  // [dx0^2 dy0^2]
    const __m128d sb = _mm_mul_pd(db, db);
    // Horizontal add keeping the scalar's x-term-first operand order:
    // [dx0^2 dx1^2] + [dy0^2 dy1^2].
    const __m128d sum =
        _mm_add_pd(_mm_unpacklo_pd(sa, sb), _mm_unpackhi_pd(sa, sb));
    _mm_storeu_pd(out + i, _mm_sqrt_pd(sum));
  }
  if (i < n) RegionDistancesScalar(pts + i, n - i, min_x, min_y, max_x, max_y,
                                   out + i);
}

void DistancesSse2(const Point* pts, size_t n, const Point& q, double* out) {
  const __m128d qv = _mm_set_pd(q.y, q.x);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d da = _mm_sub_pd(_mm_loadu_pd(&pts[i].x), qv);
    const __m128d db = _mm_sub_pd(_mm_loadu_pd(&pts[i + 1].x), qv);
    const __m128d sa = _mm_mul_pd(da, da);
    const __m128d sb = _mm_mul_pd(db, db);
    const __m128d sum =
        _mm_add_pd(_mm_unpacklo_pd(sa, sb), _mm_unpackhi_pd(sa, sb));
    _mm_storeu_pd(out + i, _mm_sqrt_pd(sum));
  }
  if (i < n) DistancesScalar(pts + i, n - i, q, out + i);
}

void SquaredDistancesSoaSse2(const double* xs, const double* ys, size_t n,
                             const Point& q, double* out) {
  const __m128d qx = _mm_set1_pd(q.x);
  const __m128d qy = _mm_set1_pd(q.y);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d dx = _mm_sub_pd(_mm_loadu_pd(xs + i), qx);
    const __m128d dy = _mm_sub_pd(_mm_loadu_pd(ys + i), qy);
    _mm_storeu_pd(out + i,
                  _mm_add_pd(_mm_mul_pd(dx, dx), _mm_mul_pd(dy, dy)));
  }
  if (i < n) SquaredDistancesSoaScalar(xs + i, ys + i, n - i, q, out + i);
}

void CqcRefineSpanSse2(const Point* base, const uint64_t* bits,
                       const int32_t* lengths, size_t n, const Point* lut,
                       size_t lut_size, int32_t code_bits, Point* out) {
  const uint64_t index_mask = static_cast<uint64_t>(lut_size - 1);
  const __m128i want_len = _mm_set1_epi32(code_bits);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // Widen the two 32-bit length-match masks to 64 bits each.
    const __m128i lv = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(lengths + i));  // [l0 l1 _ _]
    const __m128i eq = _mm_cmpeq_epi32(lv, want_len);
    const __m128i eq64 = _mm_unpacklo_epi32(eq, eq);  // [m0 m0 m1 m1]
    const __m128d len0 = _mm_castsi128_pd(
        _mm_shuffle_epi32(eq64, _MM_SHUFFLE(1, 0, 1, 0)));
    const __m128d len1 = _mm_castsi128_pd(
        _mm_shuffle_epi32(eq64, _MM_SHUFFLE(3, 2, 3, 2)));
    const __m128d o0 = _mm_loadu_pd(&lut[bits[i] & index_mask].x);
    const __m128d o1 = _mm_loadu_pd(&lut[bits[i + 1] & index_mask].x);
    // Entry validity: both coordinates non-NaN, broadcast to the pair.
    const __m128d ord0 = _mm_cmpeq_pd(o0, o0);
    const __m128d ord1 = _mm_cmpeq_pd(o1, o1);
    const __m128d ok0 = _mm_and_pd(
        len0, _mm_and_pd(ord0, _mm_shuffle_pd(ord0, ord0, 0b01)));
    const __m128d ok1 = _mm_and_pd(
        len1, _mm_and_pd(ord1, _mm_shuffle_pd(ord1, ord1, 0b01)));
    const __m128d b0 = _mm_loadu_pd(&base[i].x);
    const __m128d b1 = _mm_loadu_pd(&base[i + 1].x);
    const __m128d r0 = _mm_or_pd(_mm_and_pd(ok0, _mm_sub_pd(b0, o0)),
                                 _mm_andnot_pd(ok0, b0));
    const __m128d r1 = _mm_or_pd(_mm_and_pd(ok1, _mm_sub_pd(b1, o1)),
                                 _mm_andnot_pd(ok1, b1));
    _mm_storeu_pd(&out[i].x, r0);
    _mm_storeu_pd(&out[i + 1].x, r1);
  }
  if (i < n) CqcRefineSpanScalar(base + i, bits + i, lengths + i, n - i, lut,
                                 lut_size, code_bits, out + i);
}

/// d2 of the two rows starting at \p col0 (coordinate 0 of the first row)
/// to \p centroid, one row per lane; dim >= 1.
inline __m128d SquaredDistances2Sse2(const double* col0, size_t stride,
                                     size_t dim, const double* centroid) {
  __m128d diff = _mm_sub_pd(_mm_loadu_pd(col0), _mm_set1_pd(centroid[0]));
  __m128d d2 = _mm_mul_pd(diff, diff);
  for (size_t d = 1; d < dim; ++d) {
    diff = _mm_sub_pd(_mm_loadu_pd(col0 + d * stride),
                      _mm_set1_pd(centroid[d]));
    d2 = _mm_add_pd(d2, _mm_mul_pd(diff, diff));
  }
  return d2;
}

// The k-means variants below take dim >= 1 (the dispatcher sends dim == 0
// to the scalar reference). minpd(a, b) computes a < b ? a : b, exactly
// the strict-< update of the scalar scans, NaN operands included. Argmin
// indices ride in double lanes (exact far beyond any k), so the d2 < best
// mask selects them directly.

void NearestCentroidsSse2(const double* cols, size_t stride, size_t n,
                          size_t dim, const double* centroids, size_t k,
                          int32_t* index, double* dist2) {
  const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d best = inf;
    __m128d arg = _mm_setzero_pd();
    for (size_t c = 0; c < k; ++c) {
      const __m128d d2 =
          SquaredDistances2Sse2(cols + i, stride, dim, centroids + c * dim);
      const __m128d less = _mm_cmplt_pd(d2, best);
      arg = _mm_or_pd(_mm_and_pd(less, _mm_set1_pd(static_cast<double>(c))),
                      _mm_andnot_pd(less, arg));
      best = _mm_min_pd(d2, best);
    }
    _mm_storeu_pd(dist2 + i, best);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(index + i),
                     _mm_cvttpd_epi32(arg));
  }
  if (i < n) {
    NearestCentroidsScalar(cols + i, stride, n - i, dim, centroids, k,
                           index + i, dist2 + i);
  }
}

void RefreshMinSquaredDistancesSse2(const double* cols, size_t stride,
                                    size_t n, size_t dim,
                                    const double* centroid, double* best) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d d2 = SquaredDistances2Sse2(cols + i, stride, dim, centroid);
    _mm_storeu_pd(best + i, _mm_min_pd(d2, _mm_loadu_pd(best + i)));
  }
  if (i < n) {
    RefreshMinSquaredDistancesScalar(cols + i, stride, n - i, dim, centroid,
                                     best + i);
  }
}

// ---------------------------------------------------------------------------
// AVX2 variants
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void ContainsMaskAvx2(
    const Point* pts, size_t n, double min_x, double min_y, double max_x,
    double max_y, uint8_t* mask) {
  const __m256d lo = _mm256_set_pd(min_y, min_x, min_y, min_x);
  const __m256d hi = _mm256_set_pd(max_y, max_x, max_y, max_x);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d pa = _mm256_loadu_pd(&pts[i].x);      // [x0 y0 x1 y1]
    const __m256d pb = _mm256_loadu_pd(&pts[i + 2].x);  // [x2 y2 x3 y3]
    const __m256d ina = _mm256_and_pd(_mm256_cmp_pd(pa, lo, _CMP_GE_OQ),
                                      _mm256_cmp_pd(pa, hi, _CMP_LT_OQ));
    const __m256d inb = _mm256_and_pd(_mm256_cmp_pd(pb, lo, _CMP_GE_OQ),
                                      _mm256_cmp_pd(pb, hi, _CMP_LT_OQ));
    const int ma = _mm256_movemask_pd(ina);
    const int mb = _mm256_movemask_pd(inb);
    mask[i] = (ma & 0b11) == 0b11 ? uint8_t{1} : uint8_t{0};
    mask[i + 1] = (ma >> 2) == 0b11 ? uint8_t{1} : uint8_t{0};
    mask[i + 2] = (mb & 0b11) == 0b11 ? uint8_t{1} : uint8_t{0};
    mask[i + 3] = (mb >> 2) == 0b11 ? uint8_t{1} : uint8_t{0};
  }
  if (i < n) {
    ContainsMaskSse2(pts + i, n - i, min_x, min_y, max_x, max_y, mask + i);
  }
}

__attribute__((target("avx2"))) void RegionDistancesAvx2(
    const Point* pts, size_t n, double min_x, double min_y, double max_x,
    double max_y, double* out) {
  const __m256d lo = _mm256_set_pd(min_y, min_x, min_y, min_x);
  const __m256d hi = _mm256_set_pd(max_y, max_x, max_y, max_x);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d pa = _mm256_loadu_pd(&pts[i].x);
    const __m256d pb = _mm256_loadu_pd(&pts[i + 2].x);
    const __m256d da = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(lo, pa), zero), _mm256_sub_pd(pa, hi));
    const __m256d db = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(lo, pb), zero), _mm256_sub_pd(pb, hi));
    const __m256d sa = _mm256_mul_pd(da, da);
    const __m256d sb = _mm256_mul_pd(db, db);
    // Per-128-lane unpack: x-terms first, then lane-reorder [s0 s2 s1 s3]
    // back to point order.
    const __m256d sum = _mm256_add_pd(_mm256_unpacklo_pd(sa, sb),
                                      _mm256_unpackhi_pd(sa, sb));
    const __m256d ordered =
        _mm256_permute4x64_pd(sum, _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(ordered));
  }
  if (i < n) {
    RegionDistancesSse2(pts + i, n - i, min_x, min_y, max_x, max_y, out + i);
  }
}

__attribute__((target("avx2"))) void DistancesAvx2(const Point* pts, size_t n,
                                                   const Point& q,
                                                   double* out) {
  const __m256d qv = _mm256_set_pd(q.y, q.x, q.y, q.x);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d da = _mm256_sub_pd(_mm256_loadu_pd(&pts[i].x), qv);
    const __m256d db = _mm256_sub_pd(_mm256_loadu_pd(&pts[i + 2].x), qv);
    const __m256d sa = _mm256_mul_pd(da, da);
    const __m256d sb = _mm256_mul_pd(db, db);
    const __m256d sum = _mm256_add_pd(_mm256_unpacklo_pd(sa, sb),
                                      _mm256_unpackhi_pd(sa, sb));
    const __m256d ordered =
        _mm256_permute4x64_pd(sum, _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(ordered));
  }
  if (i < n) DistancesSse2(pts + i, n - i, q, out + i);
}

__attribute__((target("avx2"))) void SquaredDistancesSoaAvx2(
    const double* xs, const double* ys, size_t n, const Point& q,
    double* out) {
  const __m256d qx = _mm256_set1_pd(q.x);
  const __m256d qy = _mm256_set1_pd(q.y);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), qx);
    const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), qy);
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
  }
  if (i < n) SquaredDistancesSoaSse2(xs + i, ys + i, n - i, q, out + i);
}

__attribute__((target("avx2"))) void CqcRefineSpanAvx2(
    const Point* base, const uint64_t* bits, const int32_t* lengths, size_t n,
    const Point* lut, size_t lut_size, int32_t code_bits, Point* out) {
  const uint64_t index_mask = static_cast<uint64_t>(lut_size - 1);
  const __m128i want_len = _mm_set1_epi32(code_bits);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Length-match masks for four points, widened to one 64-bit mask per
    // point, then spread to per-coordinate pairs.
    const __m128i lv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lengths + i));
    const __m256i eq64 = _mm256_cvtepi32_epi64(_mm_cmpeq_epi32(lv, want_len));
    const __m256d len_a = _mm256_castsi256_pd(
        _mm256_permute4x64_epi64(eq64, _MM_SHUFFLE(1, 1, 0, 0)));
    const __m256d len_b = _mm256_castsi256_pd(
        _mm256_permute4x64_epi64(eq64, _MM_SHUFFLE(3, 3, 2, 2)));
    // Table lookups as explicit 128-bit loads (cheaper and more predictable
    // than a gather for a table this small).
    const __m128d o0 = _mm_loadu_pd(&lut[bits[i] & index_mask].x);
    const __m128d o1 = _mm_loadu_pd(&lut[bits[i + 1] & index_mask].x);
    const __m128d o2 = _mm_loadu_pd(&lut[bits[i + 2] & index_mask].x);
    const __m128d o3 = _mm_loadu_pd(&lut[bits[i + 3] & index_mask].x);
    const __m256d off_a = _mm256_set_m128d(o1, o0);
    const __m256d off_b = _mm256_set_m128d(o3, o2);
    const __m256d ord_a = _mm256_cmp_pd(off_a, off_a, _CMP_EQ_OQ);
    const __m256d ord_b = _mm256_cmp_pd(off_b, off_b, _CMP_EQ_OQ);
    const __m256d ok_a = _mm256_and_pd(
        len_a, _mm256_and_pd(ord_a, _mm256_permute_pd(ord_a, 0b0101)));
    const __m256d ok_b = _mm256_and_pd(
        len_b, _mm256_and_pd(ord_b, _mm256_permute_pd(ord_b, 0b0101)));
    const __m256d base_a = _mm256_loadu_pd(&base[i].x);
    const __m256d base_b = _mm256_loadu_pd(&base[i + 2].x);
    const __m256d ref_a = _mm256_sub_pd(base_a, off_a);
    const __m256d ref_b = _mm256_sub_pd(base_b, off_b);
    _mm256_storeu_pd(&out[i].x, _mm256_blendv_pd(base_a, ref_a, ok_a));
    _mm256_storeu_pd(&out[i + 2].x, _mm256_blendv_pd(base_b, ref_b, ok_b));
  }
  if (i < n) {
    CqcRefineSpanSse2(base + i, bits + i, lengths + i, n - i, lut, lut_size,
                      code_bits, out + i);
  }
}

/// SquaredDistances2Sse2 over four rows.
__attribute__((target("avx2"))) inline __m256d SquaredDistances4Avx2(
    const double* col0, size_t stride, size_t dim, const double* centroid) {
  __m256d diff =
      _mm256_sub_pd(_mm256_loadu_pd(col0), _mm256_broadcast_sd(centroid));
  __m256d d2 = _mm256_mul_pd(diff, diff);
  for (size_t d = 1; d < dim; ++d) {
    diff = _mm256_sub_pd(_mm256_loadu_pd(col0 + d * stride),
                         _mm256_broadcast_sd(centroid + d));
    d2 = _mm256_add_pd(d2, _mm256_mul_pd(diff, diff));
  }
  return d2;
}

__attribute__((target("avx2"))) void NearestCentroidsAvx2(
    const double* cols, size_t stride, size_t n, size_t dim,
    const double* centroids, size_t k, int32_t* index, double* dist2) {
  const __m256d inf =
      _mm256_set1_pd(std::numeric_limits<double>::infinity());
  size_t i = 0;
  // Eight rows per step: two independent argmin chains over the centroids.
  for (; i + 8 <= n; i += 8) {
    __m256d best_a = inf;
    __m256d best_b = inf;
    __m256d arg_a = _mm256_setzero_pd();
    __m256d arg_b = _mm256_setzero_pd();
    for (size_t c = 0; c < k; ++c) {
      const double* centroid = centroids + c * dim;
      const __m256d d2_a =
          SquaredDistances4Avx2(cols + i, stride, dim, centroid);
      const __m256d d2_b =
          SquaredDistances4Avx2(cols + i + 4, stride, dim, centroid);
      const __m256d cv = _mm256_set1_pd(static_cast<double>(c));
      arg_a = _mm256_blendv_pd(arg_a, cv,
                               _mm256_cmp_pd(d2_a, best_a, _CMP_LT_OQ));
      arg_b = _mm256_blendv_pd(arg_b, cv,
                               _mm256_cmp_pd(d2_b, best_b, _CMP_LT_OQ));
      best_a = _mm256_min_pd(d2_a, best_a);
      best_b = _mm256_min_pd(d2_b, best_b);
    }
    _mm256_storeu_pd(dist2 + i, best_a);
    _mm256_storeu_pd(dist2 + i + 4, best_b);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(index + i),
                     _mm256_cvttpd_epi32(arg_a));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(index + i + 4),
                     _mm256_cvttpd_epi32(arg_b));
  }
  if (i < n) {
    NearestCentroidsSse2(cols + i, stride, n - i, dim, centroids, k,
                         index + i, dist2 + i);
  }
}

__attribute__((target("avx2"))) void RefreshMinSquaredDistancesAvx2(
    const double* cols, size_t stride, size_t n, size_t dim,
    const double* centroid, double* best) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d2 = SquaredDistances4Avx2(cols + i, stride, dim, centroid);
    _mm256_storeu_pd(best + i, _mm256_min_pd(d2, _mm256_loadu_pd(best + i)));
  }
  if (i < n) {
    RefreshMinSquaredDistancesSse2(cols + i, stride, n - i, dim, centroid,
                                   best + i);
  }
}

Level DetectLevel() {
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
  return Level::kSse2;
}

}  // namespace

#else  // !PPQ_SIMD_X86

namespace {
Level DetectLevel() { return Level::kScalar; }
}  // namespace

#endif  // PPQ_SIMD_X86

namespace {
const Level g_level = DetectLevel();
}  // namespace

Level ActiveLevel() { return g_level; }

const char* LevelName(Level level) {
  switch (level) {
    case Level::kAvx2:
      return "avx2";
    case Level::kSse2:
      return "sse2";
    case Level::kScalar:
      break;
  }
  return "scalar";
}

void ContainsMask(const Point* pts, size_t n, double min_x, double min_y,
                  double max_x, double max_y, uint8_t* mask) {
#if PPQ_SIMD_X86
  if (g_level == Level::kAvx2) {
    ContainsMaskAvx2(pts, n, min_x, min_y, max_x, max_y, mask);
    return;
  }
  ContainsMaskSse2(pts, n, min_x, min_y, max_x, max_y, mask);
#else
  ContainsMaskScalar(pts, n, min_x, min_y, max_x, max_y, mask);
#endif
}

void RegionDistances(const Point* pts, size_t n, double min_x, double min_y,
                     double max_x, double max_y, double* out) {
#if PPQ_SIMD_X86
  if (g_level == Level::kAvx2) {
    RegionDistancesAvx2(pts, n, min_x, min_y, max_x, max_y, out);
    return;
  }
  RegionDistancesSse2(pts, n, min_x, min_y, max_x, max_y, out);
#else
  RegionDistancesScalar(pts, n, min_x, min_y, max_x, max_y, out);
#endif
}

void Distances(const Point* pts, size_t n, const Point& q, double* out) {
#if PPQ_SIMD_X86
  if (g_level == Level::kAvx2) {
    DistancesAvx2(pts, n, q, out);
    return;
  }
  DistancesSse2(pts, n, q, out);
#else
  DistancesScalar(pts, n, q, out);
#endif
}

void SquaredDistancesSoa(const double* xs, const double* ys, size_t n,
                         const Point& q, double* out) {
#if PPQ_SIMD_X86
  if (g_level == Level::kAvx2) {
    SquaredDistancesSoaAvx2(xs, ys, n, q, out);
    return;
  }
  SquaredDistancesSoaSse2(xs, ys, n, q, out);
#else
  SquaredDistancesSoaScalar(xs, ys, n, q, out);
#endif
}

void CqcRefineSpan(const Point* base, const uint64_t* bits,
                   const int32_t* lengths, size_t n, const Point* lut,
                   size_t lut_size, int32_t code_bits, Point* out) {
#if PPQ_SIMD_X86
  if (g_level == Level::kAvx2) {
    CqcRefineSpanAvx2(base, bits, lengths, n, lut, lut_size, code_bits, out);
    return;
  }
  CqcRefineSpanSse2(base, bits, lengths, n, lut, lut_size, code_bits, out);
#else
  CqcRefineSpanScalar(base, bits, lengths, n, lut, lut_size, code_bits, out);
#endif
}

void NearestCentroids(const double* cols, size_t stride, size_t n, size_t dim,
                      const double* centroids, size_t k, int32_t* index,
                      double* dist2) {
#if PPQ_SIMD_X86
  if (dim > 0) {
    if (g_level == Level::kAvx2) {
      NearestCentroidsAvx2(cols, stride, n, dim, centroids, k, index, dist2);
    } else {
      NearestCentroidsSse2(cols, stride, n, dim, centroids, k, index, dist2);
    }
    return;
  }
#endif
  NearestCentroidsScalar(cols, stride, n, dim, centroids, k, index, dist2);
}

void RefreshMinSquaredDistances(const double* cols, size_t stride, size_t n,
                                size_t dim, const double* centroid,
                                double* best) {
#if PPQ_SIMD_X86
  if (dim > 0) {
    if (g_level == Level::kAvx2) {
      RefreshMinSquaredDistancesAvx2(cols, stride, n, dim, centroid, best);
    } else {
      RefreshMinSquaredDistancesSse2(cols, stride, n, dim, centroid, best);
    }
    return;
  }
#endif
  RefreshMinSquaredDistancesScalar(cols, stride, n, dim, centroid, best);
}

}  // namespace ppq::simd
