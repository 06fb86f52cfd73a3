#include "core/forecast.h"

#include <algorithm>

#include "predictor/linear_predictor.h"

namespace ppq::core {

Result<Forecast> Forecaster::Predict(TrajId id, Tick from, int steps) const {
  const TrajectoryRecord* record = summary_->Find(id);
  if (record == nullptr) return Status::NotFound("unknown trajectory id");
  if (!record->ActiveAt(from)) {
    return Status::OutOfRange("forecast anchor outside trajectory");
  }
  if (steps < 0) return Status::Invalid("steps must be non-negative");

  const int k = summary_->prediction_order();

  // Rolling history, newest first, seeded from the reconstruction.
  std::vector<Point> history;
  for (int j = 0; j < k; ++j) {
    const Tick t = from - static_cast<Tick>(j);
    if (!record->ActiveAt(t)) break;
    const auto p = summary_->ReconstructRefined(id, t);
    if (!p.ok()) return p.status();
    history.push_back(*p);
  }
  if (history.empty()) return Status::Internal("empty reconstruction");

  // Latest fitted coefficients for this trajectory: walk backwards from
  // `from` until a point with a fitted partition appears.
  Forecast forecast;
  const CoefficientTable& table = summary_->coefficients();
  bool found = false;
  for (Tick t = from; t >= record->start_tick && !found; --t) {
    const PointRecord& pr = record->At(t);
    if (pr.partition < 0) continue;
    const size_t ti = table.Find(t);
    if (ti == table.NumTicks()) continue;
    if (static_cast<size_t>(pr.partition) >= table.NumSets(ti)) continue;
    const CoefficientTable::Set set =
        table.SetAt(ti, static_cast<size_t>(pr.partition));
    forecast.coefficients.coefficients.assign(set.values,
                                              set.values + set.size);
    found = !forecast.coefficients.empty();
  }
  if (!found) {
    // Warm-up-only trajectory: persistence.
    forecast.coefficients.coefficients.assign(static_cast<size_t>(k), 0.0);
    forecast.coefficients.coefficients[0] = 1.0;
  }

  forecast.positions.reserve(static_cast<size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    const Point next =
        predictor::LinearPredictor::Predict(forecast.coefficients, history);
    forecast.positions.push_back(next);
    history.insert(history.begin(), next);
    if (static_cast<int>(history.size()) > k) history.resize(static_cast<size_t>(k));
  }
  return forecast;
}

Result<Forecast> Forecaster::PredictBeyondEnd(TrajId id, int steps) const {
  const TrajectoryRecord* record = summary_->Find(id);
  if (record == nullptr) return Status::NotFound("unknown trajectory id");
  const Tick last =
      record->start_tick + static_cast<Tick>(record->points.size()) - 1;
  return Predict(id, last, steps);
}

}  // namespace ppq::core
