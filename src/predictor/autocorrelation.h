#pragma once

#include <vector>

#include "common/types.h"

/// \file autocorrelation.h
/// Per-trajectory autocorrelation features for PPQ-A partitioning
/// (Section 3.2.1): the correlation between T_i^t and T_i^{t-k..t-1} is
/// modelled as an AR(k) process; its fitted parameters {a_i^t} are the
/// feature vector that groups trajectories whose motion a shared f_j can
/// predict well. We fit AR(k) per coordinate by least squares over a
/// sliding window of recent raw samples and concatenate the coefficient
/// vectors (dimension 2k). The plain sample autocorrelation function (ACF)
/// at lags 1..k is also provided as an alternative feature.

namespace ppq::predictor {

/// \brief Feature choice for autocorrelation-based partitioning.
enum class AutocorrFeature {
  /// Least-squares AR(k) coefficients per coordinate (paper default).
  kArCoefficients,
  /// Sample autocorrelation values at lags 1..k per coordinate.
  kAcf,
};

/// \brief Extracts fixed-width autocorrelation features from trajectory
/// history windows.
class AutocorrelationExtractor {
 public:
  struct Options {
    /// AR order (the paper's k).
    int order = 3;
    AutocorrFeature feature = AutocorrFeature::kArCoefficients;
  };

  explicit AutocorrelationExtractor(Options options) : options_(options) {}

  /// Feature dimension (2 * order: x block then y block).
  int FeatureDim() const { return 2 * options_.order; }

  /// Compute the feature vector for a window of consecutive raw samples
  /// (oldest first). Windows shorter than order+1 samples, and windows
  /// with degenerate (constant) coordinates, yield the zero vector so
  /// immature trajectories cluster together rather than failing.
  std::vector<double> Extract(const std::vector<Point>& window) const;

  /// Caller-owned buffers reused across ExtractInto calls.
  struct Scratch {
    std::vector<double> xs;
    std::vector<double> ys;
  };

  /// Extract() into \p out (FeatureDim() values), reusing \p scratch: once
  /// it has grown, ACF features allocate nothing (the AR fit still does,
  /// in its least-squares solve).
  void ExtractInto(const std::vector<Point>& window, Scratch* scratch,
                   double* out) const;

  const Options& options() const { return options_; }

 private:
  /// Each writes `order` values to \p out.
  void ExtractAr(const std::vector<double>& series, double* out) const;
  void ExtractAcf(const std::vector<double>& series, double* out) const;

  Options options_;
};

}  // namespace ppq::predictor
