#pragma once

#include <vector>

#include "common/status.h"
#include "common/types.h"

/// \file linear_predictor.h
/// The per-partition prediction function f of Equations 1-2: a linear model
/// that predicts the position at tick t from the k previous *reconstructed*
/// positions with shared scalar coefficients P_j[t]:
///
///   T~_i^t = sum_{j=1..k} P_j[t] * T^_i^{t-j}
///
/// Fitting minimises the summed squared prediction error over all points in
/// the partition (Eq. 1/6); both coordinates share the coefficient vector,
/// so each sample contributes an x-row and a y-row to the least squares
/// system. Using reconstructed history on both encode and decode sides
/// keeps the decoder in lockstep (closed-loop predictive quantization [1]).

namespace ppq::predictor {

/// \brief One training sample: the target position and its k-deep history
/// (history[0] is the position at t-1, history[k-1] at t-k).
struct PredictionSample {
  Point target;
  std::vector<Point> history;
};

/// \brief Coefficients of a fitted prediction function (the paper's
/// {P_j[t]} for one partition at one timestamp).
struct PredictionCoefficients {
  /// coefficients[j-1] multiplies the reconstruction at t-j.
  std::vector<double> coefficients;

  bool empty() const { return coefficients.empty(); }
  int order() const { return static_cast<int>(coefficients.size()); }

  /// Storage charged per coefficient set (float64 each).
  size_t SizeBytes() const { return coefficients.size() * sizeof(double); }
};

/// \brief Least-squares fitter / evaluator for the linear model.
class LinearPredictor {
 public:
  /// \param order the prediction order k (number of lagged samples).
  explicit LinearPredictor(int order) : order_(order) {}

  int order() const { return order_; }

  /// Fit shared coefficients over \p samples (Eq. 1). Every sample must
  /// carry exactly `order` history points. Returns Invalid when fewer than
  /// one sample is supplied or the system is degenerate even after ridge
  /// regularisation.
  Result<PredictionCoefficients> Fit(
      const std::vector<PredictionSample>& samples) const;

  /// Evaluate the model (Eq. 2): sum_j coeffs[j-1] * history[j-1].
  /// history[0] is the reconstruction at t-1. A shorter-than-order history
  /// uses the available prefix (coefficients beyond it are ignored),
  /// which matches the paper's zero-coefficient convention for t <= k.
  static Point Predict(const PredictionCoefficients& coeffs,
                       const std::vector<Point>& history);

  /// Predict() with the \p order coefficients stored flat at \p coeffs,
  /// over the tail of a reconstruction sequence stored oldest first:
  /// history[j] is recent[count - 1 - j], so recent[count - 1] is t-1.
  /// Same terms and summation order as Predict(). The decoder calls it on
  /// its prefix and its coefficient table, so nothing is built per point.
  static Point PredictFromTail(const double* coeffs, size_t order,
                               const Point* recent, size_t count);

 private:
  int order_;
};

}  // namespace ppq::predictor
