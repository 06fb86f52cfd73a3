#include "predictor/autocorrelation.h"

#include <algorithm>
#include <cmath>

#include "common/matrix.h"

namespace ppq::predictor {
namespace {

/// Mean of a series.
double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

void AutocorrelationExtractor::ExtractAr(const std::vector<double>& series,
                                         double* out) const {
  const int k = options_.order;
  const int n = static_cast<int>(series.size());
  std::fill_n(out, k, 0.0);
  if (n < k + 1) return;

  // Centre the window: position windows are smooth and nearly collinear,
  // and removing the mean plus a scale-aware ridge keeps the AR fit from
  // exploding on them (the coefficients feed a clustering threshold, so
  // wild magnitudes would fragment the partitions).
  const double mean = Mean(series);
  // Rows: one per predictable sample t in [k, n); columns: lags 1..k.
  const size_t rows = static_cast<size_t>(n - k);
  Matrix a(rows, static_cast<size_t>(k));
  std::vector<double> b(rows);
  double scale = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    const int t = static_cast<int>(r) + k;
    for (int j = 1; j <= k; ++j) {
      const double v = series[static_cast<size_t>(t - j)] - mean;
      a(r, static_cast<size_t>(j - 1)) = v;
      scale = std::max(scale, std::fabs(v));
    }
    b[r] = series[static_cast<size_t>(t)] - mean;
  }
  const double ridge = std::max(1e-12, 1e-4 * scale * scale);
  auto solved = SolveLeastSquares(a, b, ridge);
  if (!solved.ok()) return;
  std::copy(solved->begin(), solved->end(), out);
}

void AutocorrelationExtractor::ExtractAcf(const std::vector<double>& series,
                                          double* out) const {
  const int k = options_.order;
  const int n = static_cast<int>(series.size());
  std::fill_n(out, k, 0.0);
  if (n < k + 1) return;
  const double mean = Mean(series);
  double var = 0.0;
  for (double x : series) var += (x - mean) * (x - mean);
  if (var <= 1e-30) return;
  for (int lag = 1; lag <= k; ++lag) {
    double cov = 0.0;
    for (int t = lag; t < n; ++t) {
      cov += (series[static_cast<size_t>(t)] - mean) *
             (series[static_cast<size_t>(t - lag)] - mean);
    }
    out[lag - 1] = cov / var;
  }
}

std::vector<double> AutocorrelationExtractor::Extract(
    const std::vector<Point>& window) const {
  std::vector<double> features(static_cast<size_t>(FeatureDim()));
  Scratch scratch;
  ExtractInto(window, &scratch, features.data());
  return features;
}

void AutocorrelationExtractor::ExtractInto(const std::vector<Point>& window,
                                           Scratch* scratch,
                                           double* out) const {
  scratch->xs.clear();
  scratch->ys.clear();
  for (const Point& p : window) {
    scratch->xs.push_back(p.x);
    scratch->ys.push_back(p.y);
  }
  if (options_.feature == AutocorrFeature::kArCoefficients) {
    ExtractAr(scratch->xs, out);
    ExtractAr(scratch->ys, out + options_.order);
  } else {
    ExtractAcf(scratch->xs, out);
    ExtractAcf(scratch->ys, out + options_.order);
  }
}

}  // namespace ppq::predictor
