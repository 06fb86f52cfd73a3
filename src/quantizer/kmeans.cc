#include "quantizer/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd.h"

namespace ppq::quantizer {
namespace {

/// Dim-major (SoA) copy of row-major \p data: coordinate d of row i at
/// [d * n + i], the layout the simd.h k-means kernels read.
std::vector<double> DimMajor(const std::vector<double>& data, int n, int dim) {
  std::vector<double> cols(static_cast<size_t>(n) * dim);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < dim; ++d) {
      cols[static_cast<size_t>(d) * n + i] =
          data[static_cast<size_t>(i) * dim + d];
    }
  }
  return cols;
}

/// k-means++ seeding: first centre uniform, subsequent centres drawn
/// proportionally to squared distance from the nearest chosen centre.
std::vector<double> SeedPlusPlus(const std::vector<double>& data,
                                 const std::vector<double>& cols, int n,
                                 int dim, int k, Rng& rng) {
  std::vector<double> centroids(static_cast<size_t>(k) * dim);
  const int first = static_cast<int>(rng.UniformInt(0, n - 1));
  std::copy_n(&data[static_cast<size_t>(first) * dim], dim, centroids.begin());

  std::vector<double> best_d2(static_cast<size_t>(n),
                              std::numeric_limits<double>::infinity());
  for (int c = 1; c < k; ++c) {
    // Refresh distances with the centre added last round.
    simd::RefreshMinSquaredDistances(
        cols.data(), static_cast<size_t>(n), static_cast<size_t>(n),
        static_cast<size_t>(dim), &centroids[static_cast<size_t>(c - 1) * dim],
        best_d2.data());
    const size_t pick = rng.WeightedIndex(best_d2);
    std::copy_n(&data[pick * dim], dim,
                centroids.begin() + static_cast<size_t>(c) * dim);
  }
  return centroids;
}

}  // namespace

std::vector<double> FlattenPoints(const std::vector<Point>& points) {
  std::vector<double> flat;
  flat.reserve(points.size() * 2);
  for (const Point& p : points) {
    flat.push_back(p.x);
    flat.push_back(p.y);
  }
  return flat;
}

KMeansResult RunKMeans(const std::vector<double>& data, int n, int dim, int k,
                       const KMeansOptions& options, Rng& rng) {
  KMeansResult result;
  result.dim = dim;
  if (n <= 0) {
    result.k = 0;
    return result;
  }
  k = std::clamp(k, 1, n);
  result.k = k;
  const std::vector<double> cols = DimMajor(data, n, dim);
  result.centroids = SeedPlusPlus(data, cols, n, dim, k, rng);
  result.assignments.assign(static_cast<size_t>(n), 0);

  // Nearest-centroid scan of every row against result.centroids.
  std::vector<int> nearest(static_cast<size_t>(n));
  std::vector<double> nearest_d2(static_cast<size_t>(n));
  const auto assign_nearest = [&] {
    simd::NearestCentroids(cols.data(), static_cast<size_t>(n),
                           static_cast<size_t>(n), static_cast<size_t>(dim),
                           result.centroids.data(), static_cast<size_t>(k),
                           nearest.data(), nearest_d2.data());
  };

  std::vector<double> sums(static_cast<size_t>(k) * dim);
  std::vector<int> counts(static_cast<size_t>(k));
  // Whether the last scan is already the final pass's: true when Lloyd
  // stops with no assignment changed, because no update step followed it.
  bool final_scan_done = false;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Assignment step.
    assign_nearest();
    const bool changed = nearest != result.assignments;
    result.assignments.swap(nearest);
    if (!changed && iter > 0 && options.early_stop) {
      final_scan_done = true;
      break;
    }

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (int i = 0; i < n; ++i) {
      const int c = result.assignments[static_cast<size_t>(i)];
      ++counts[static_cast<size_t>(c)];
      for (int d = 0; d < dim; ++d) {
        sums[static_cast<size_t>(c) * dim + d] +=
            data[static_cast<size_t>(i) * dim + d];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (counts[static_cast<size_t>(c)] == 0) {
        // Re-seed an empty cluster at a random row.
        const int pick = static_cast<int>(rng.UniformInt(0, n - 1));
        std::copy_n(&data[static_cast<size_t>(pick) * dim], dim,
                    result.centroids.begin() + static_cast<size_t>(c) * dim);
        continue;
      }
      for (int d = 0; d < dim; ++d) {
        result.centroids[static_cast<size_t>(c) * dim + d] =
            sums[static_cast<size_t>(c) * dim + d] /
            counts[static_cast<size_t>(c)];
      }
    }
  }

  // Final assignment pass + per-cluster radius.
  if (!final_scan_done) {
    assign_nearest();
    result.assignments.swap(nearest);
  }
  result.max_radius.assign(static_cast<size_t>(k), 0.0);
  for (int i = 0; i < n; ++i) {
    const size_t best =
        static_cast<size_t>(result.assignments[static_cast<size_t>(i)]);
    result.max_radius[best] = std::max(
        result.max_radius[best], std::sqrt(nearest_d2[static_cast<size_t>(i)]));
  }
  return result;
}

ThresholdClusterResult ThresholdCluster(const std::vector<double>& data, int n,
                                        int dim, double epsilon,
                                        const ThresholdClusterOptions& options,
                                        Rng& rng) {
  ThresholdClusterResult result;
  if (n <= 0) return result;
  int q = std::max(1, options.initial_clusters);
  while (true) {
    ++result.rounds;
    result.kmeans = RunKMeans(data, n, dim, q, options.kmeans, rng);
    const double worst =
        result.kmeans.max_radius.empty()
            ? 0.0
            : *std::max_element(result.kmeans.max_radius.begin(),
                                result.kmeans.max_radius.end());
    if (worst <= epsilon || q >= n || q >= options.max_clusters) break;
    q = std::min({q + options.step, n, options.max_clusters});
  }
  return result;
}

}  // namespace ppq::quantizer
