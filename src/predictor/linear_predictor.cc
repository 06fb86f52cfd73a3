#include "predictor/linear_predictor.h"

#include "common/matrix.h"

namespace ppq::predictor {

Result<PredictionCoefficients> LinearPredictor::Fit(
    const std::vector<PredictionSample>& samples) const {
  if (samples.empty()) {
    return Status::Invalid("LinearPredictor::Fit: no samples");
  }
  for (const auto& s : samples) {
    if (static_cast<int>(s.history.size()) != order_) {
      return Status::Invalid(
          "LinearPredictor::Fit: sample history length != order");
    }
  }
  // Stack x-rows and y-rows: 2 * n_samples rows, `order` columns.
  const size_t rows = samples.size() * 2;
  Matrix a(rows, static_cast<size_t>(order_));
  std::vector<double> b(rows);
  for (size_t i = 0; i < samples.size(); ++i) {
    for (int j = 0; j < order_; ++j) {
      a(2 * i, static_cast<size_t>(j)) = samples[i].history[j].x;
      a(2 * i + 1, static_cast<size_t>(j)) = samples[i].history[j].y;
    }
    b[2 * i] = samples[i].target.x;
    b[2 * i + 1] = samples[i].target.y;
  }
  auto solved = SolveLeastSquares(a, b);
  if (!solved.ok()) return solved.status();
  PredictionCoefficients coeffs;
  coeffs.coefficients = std::move(solved).ValueOrDie();
  return coeffs;
}

Point LinearPredictor::Predict(const PredictionCoefficients& coeffs,
                               const std::vector<Point>& history) {
  Point prediction{0.0, 0.0};
  const size_t usable = std::min(coeffs.coefficients.size(), history.size());
  for (size_t j = 0; j < usable; ++j) {
    prediction += history[j] * coeffs.coefficients[j];
  }
  return prediction;
}

Point LinearPredictor::PredictFromTail(const double* coeffs, size_t order,
                                       const Point* recent, size_t count) {
  Point prediction{0.0, 0.0};
  const size_t usable = std::min(order, count);
  for (size_t j = 0; j < usable; ++j) {
    prediction += recent[count - 1 - j] * coeffs[j];
  }
  return prediction;
}

}  // namespace ppq::predictor
