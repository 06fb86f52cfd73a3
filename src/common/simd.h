#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

/// \file simd.h
/// Vectorized hot-path kernels for the serve path: containment masks and
/// rectangle distances (STRQ/window filtering), point distances (kNN
/// scoring), squared distances over coordinate arrays (codebook
/// nearest-centroid search), and LUT-based CQC span refinement (batched
/// decode); and for the encoder: k-means nearest-centroid assignment and
/// k-means++ seeding over dim-major rows (threshold clustering). Each
/// kernel exists in three variants — scalar reference, SSE2,
/// AVX2 — selected once at startup: SSE2 is the x86-64 baseline, AVX2 is
/// taken when the CPU reports it, and every other platform (or a
/// -DPPQ_SIMD=OFF build) runs the scalar reference.
///
/// Bit-parity contract: for identical inputs, every variant of a kernel
/// produces bit-identical outputs. The kernels keep the float operation
/// order of the scalar reference within each lane (additions ordered
/// dx*dx + dy*dy, max chains ordered as written, IEEE sqrt), there are no
/// cross-lane reductions, and the implementation translation unit is
/// compiled with -ffp-contract=off so no variant fuses multiply-adds. The
/// scalar references therefore define the semantics, exact-mode query
/// answers do not depend on the selected level, and tests compare variants
/// bitwise (see tests/simd_kernel_test.cc).
///
/// One scoped exception: when a single addition merges two NaN operands
/// (e.g. a NaN query against a NaN coordinate, so dx^2 and dy^2 are both
/// NaN), the payload/sign of the resulting NaN is unspecified — compilers
/// treat FP addition as commutative, so even the scalar reference's
/// operand order is not fixed. Both variants still produce a NaN, every
/// comparison downstream treats all NaNs identically, and lanes with at
/// most one NaN source remain bit-exact.
///
/// All kernels tolerate n == 0, unaligned pointers, and adversarial floats
/// (NaN/inf/denormal coordinates behave exactly as in the scalar code).

namespace ppq::simd {

/// Instruction-set level selected for this process.
enum class Level { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The level every dispatched kernel below runs at (decided once, at
/// static-init time; scalar when built with -DPPQ_SIMD=OFF).
Level ActiveLevel();
const char* LevelName(Level level);
inline const char* ActiveLevelName() { return LevelName(ActiveLevel()); }

/// Scalar max with maxpd semantics: returns \p b when b >= a *or* either
/// operand is NaN — exactly what the vector max instruction computes, so
/// scalar and vector rectangle distances agree bitwise on hostile input.
inline double MaxPd(double a, double b) { return a > b ? a : b; }

// ---------------------------------------------------------------------------
// Containment masks (STRQ cell / window filtering)
// ---------------------------------------------------------------------------

/// mask[i] = 1 iff pts[i] lies in the half-open rectangle
/// [min_x, max_x) x [min_y, max_y), else 0. NaN coordinates are never
/// contained. Matches core::Window::Contains.
void ContainsMask(const Point* pts, size_t n, double min_x, double min_y,
                  double max_x, double max_y, uint8_t* mask);
void ContainsMaskScalar(const Point* pts, size_t n, double min_x, double min_y,
                        double max_x, double max_y, uint8_t* mask);

// ---------------------------------------------------------------------------
// Rectangle distances (STRQ/window local-search pruning)
// ---------------------------------------------------------------------------

/// out[i] = Euclidean distance from pts[i] to the rectangle (0 inside),
/// computed as sqrt(dx*dx + dy*dy) with dx = max(max(min_x - x, 0), x - max_x)
/// under MaxPd semantics.
void RegionDistances(const Point* pts, size_t n, double min_x, double min_y,
                     double max_x, double max_y, double* out);
void RegionDistancesScalar(const Point* pts, size_t n, double min_x,
                           double min_y, double max_x, double max_y,
                           double* out);

// ---------------------------------------------------------------------------
// Point distances (kNN candidate scoring)
// ---------------------------------------------------------------------------

/// out[i] = sqrt((pts[i].x - q.x)^2 + (pts[i].y - q.y)^2), additions ordered
/// x-term + y-term. Matches Point::DistanceTo(q).
void Distances(const Point* pts, size_t n, const Point& q, double* out);
void DistancesScalar(const Point* pts, size_t n, const Point& q, double* out);

/// Squared distances over split coordinate arrays — the codebook
/// nearest-centroid layout (quantizer::GridNearest stores bucket points as
/// SoA). out[i] = (xs[i] - q.x)^2 + (ys[i] - q.y)^2.
void SquaredDistancesSoa(const double* xs, const double* ys, size_t n,
                         const Point& q, double* out);
void SquaredDistancesSoaScalar(const double* xs, const double* ys, size_t n,
                               const Point& q, double* out);

// ---------------------------------------------------------------------------
// k-means over dim-major rows (threshold clustering, quantizer training)
// ---------------------------------------------------------------------------
//
// Both kernels read n rows of dimension dim stored dim-major (SoA):
// coordinate d of row i is cols[d * stride + i], stride >= n. The squared
// distance of row i to a centroid c (dim doubles) is
//
//   d2(i, c) = 0.0 + diff_0^2 + diff_1^2 + ...,  diff_d = row_i[d] - c[d]
//
// summed for d ascending, no fused multiply-add. A square is never -0, so
// the leading 0.0 + is exact and the vector variants start from diff_0^2.
// These define quantizer::RunKMeans' distances bit for bit.

/// Nearest centroid per row: index[i] = argmin over c in [0, k) of
/// d2(i, centroids + c * dim) and dist2[i] its distance. The scan keeps
/// (0, +inf) and takes c only when d2 < best strictly, so the lower index
/// wins ties and a NaN distance never wins: a row whose every distance is
/// NaN gets index 0 and distance +inf. centroids is row-major, k x dim.
void NearestCentroids(const double* cols, size_t stride, size_t n, size_t dim,
                      const double* centroids, size_t k, int32_t* index,
                      double* dist2);
void NearestCentroidsScalar(const double* cols, size_t stride, size_t n,
                            size_t dim, const double* centroids, size_t k,
                            int32_t* index, double* dist2);

/// k-means++ seeding refresh: best[i] = std::min(best[i], d2(i, centroid)),
/// i.e. d2 replaces best[i] only when d2 < best[i] (a NaN never does).
void RefreshMinSquaredDistances(const double* cols, size_t stride, size_t n,
                                size_t dim, const double* centroid,
                                double* best);
void RefreshMinSquaredDistancesScalar(const double* cols, size_t stride,
                                      size_t n, size_t dim,
                                      const double* centroid, double* best);

// ---------------------------------------------------------------------------
// CQC span refinement (batched summary decode)
// ---------------------------------------------------------------------------

/// Span-decode refinement kernel: applies per-point CQC offsets from a
/// precomputed table to a run of base reconstructions.
///
///   idx    = bits[i] & (lut_size - 1)        // decode ignores high bits
///   valid  = lengths[i] == code_bits && lut[idx] has no NaN coordinate
///   out[i] = valid ? base[i] - lut[idx] : base[i]
///
/// Invalid lanes copy base[i] bit-exactly (a select, not a subtract-zero,
/// so signalling-NaN bases survive unquieted — matching CqcCodec::Refine's
/// fall-back-to-unrefined behaviour on malformed codes). lut_size must be a
/// power of two; lut entries that decode to padding cells are stored as NaN
/// by the codec, which is what makes the NaN check the validity test.
/// base and out may alias exactly (in-place refinement).
void CqcRefineSpan(const Point* base, const uint64_t* bits,
                   const int32_t* lengths, size_t n, const Point* lut,
                   size_t lut_size, int32_t code_bits, Point* out);
void CqcRefineSpanScalar(const Point* base, const uint64_t* bits,
                         const int32_t* lengths, size_t n, const Point* lut,
                         size_t lut_size, int32_t code_bits, Point* out);

}  // namespace ppq::simd
