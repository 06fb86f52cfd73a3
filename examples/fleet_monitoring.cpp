/// \file fleet_monitoring.cpp
/// Real-time traffic-management scenario from the paper's introduction:
/// a stream of vehicle positions is compressed online; at any moment an
/// operator can ask "which vehicles passed location (x, y) at time t?"
/// (STRQ), "where did they go next?" (TPQ), and "where will vehicle v be
/// in the next l ticks?" (forecasting over the summary).
///
/// The example runs the stream in two phases to show the writer/reader
/// split: ingestion never stops; the operator's queries are submitted
/// asynchronously to a QueryService serving immutable Seal() snapshots
/// that are re-cut (and atomically hot-swapped) as the stream advances.

#include <cstdio>
#include <future>
#include <memory>

#include "common/geo.h"
#include "core/forecast.h"
#include "core/metrics.h"
#include "core/ppq_trajectory.h"
#include "core/query_service.h"
#include "datagen/generator.h"

int main() {
  using namespace ppq;

  // A taxi fleet: 500 vehicles over a 300-tick day.
  datagen::GeneratorOptions gen;
  gen.num_trajectories = 500;
  gen.horizon = 300;
  gen.max_length = 250;
  gen.seed = 2026;
  const auto shared_fleet = std::make_shared<const TrajectoryDataset>(
      datagen::PortoLikeGenerator(gen).Generate());
  const TrajectoryDataset& fleet = *shared_fleet;

  core::PpqOptions options = core::MakePpqA();
  core::PpqTrajectory monitor(options);

  // --- Phase 1: ingest the first two thirds of the day -----------------------
  const Tick phase1_end = 200;
  for (Tick t = fleet.MinTick(); t < phase1_end; ++t) {
    const TimeSlice slice = fleet.SliceAt(t);
    if (!slice.empty()) monitor.ObserveSlice(slice);
  }
  std::printf("after tick %d: %zu codewords, %.1f KB summary\n", phase1_end,
              monitor.NumCodewords(),
              static_cast<double>(monitor.SummaryBytes()) / 1024.0);

  // Mid-stream serving: seal what has been ingested so far into an
  // immutable snapshot served by an asynchronous QueryService. The
  // monitor keeps encoding; the operator's queries never touch writer
  // state, and submission never blocks the operator's thread.
  core::QueryService::Options serve_options;
  serve_options.num_threads = 4;
  serve_options.raw = shared_fleet;  // owned by the service
  serve_options.cell_size = options.tpi.pi.cell_size;
  core::QueryService service(monitor.Seal(), serve_options);

  // STRQ: who passed the busiest spot? Probe a vehicle mid-trip (and
  // inside the ingested phase). The path query (TPQ) for the same spot
  // rides the same submission — one request vocabulary for all four
  // query types.
  const Trajectory& probe = fleet[42];
  const Tick probe_tick = std::min<Tick>(
      probe.start_tick + static_cast<Tick>(probe.size()) / 2, phase1_end - 20);
  const core::QuerySpec mid_query{probe.At(probe_tick), probe_tick};
  std::future<core::QueryResponse> strq_future =
      service.Submit(core::StrqRequest{mid_query, core::StrqMode::kExact});
  std::future<core::QueryResponse> tpq_future = service.Submit(
      core::TpqRequest{mid_query, /*length=*/15, core::StrqMode::kExact});

  const core::QueryResponse strq_response = strq_future.get();
  const core::StrqResult& mid = strq_response.strq();
  std::printf("STRQ @t=%d: %zu vehicles in the query cell (%zu candidates "
              "verified, %zu points decoded, %zu serving threads)\n",
              probe_tick, mid.ids.size(), mid.candidates_visited,
              strq_response.stats.points_decoded, service.num_threads());

  // Path query answer: where did they go in the following 15 ticks?
  const core::TpqResult paths = tpq_future.get().tpq();
  for (size_t i = 0; i < paths.ids.size() && i < 3; ++i) {
    const auto& path = paths.paths[i];
    if (path.empty()) continue;
    std::printf("  vehicle %d moved %.0f m over the next %zu ticks\n",
                paths.ids[i],
                DegreeDistanceMeters(path.front(), path.back()),
                path.size());
  }

  // Forecast: where will the matched vehicles be 10 ticks from now?
  core::Forecaster forecaster(&monitor.summary());
  for (size_t i = 0; i < mid.ids.size() && i < 3; ++i) {
    const auto forecast = forecaster.Predict(mid.ids[i], probe_tick, 10);
    if (!forecast.ok()) continue;
    const Point& final_pos = forecast->positions.back();
    std::printf("  vehicle %d forecast @t=%d: (%.5f, %.5f)\n", mid.ids[i],
                probe_tick + 10, final_pos.x, final_pos.y);
    // Compare against what actually happened when the data allows it.
    const Trajectory& truth = fleet[static_cast<size_t>(mid.ids[i])];
    if (truth.ActiveAt(probe_tick + 10)) {
      std::printf("    actual: (%.5f, %.5f), error %.0f m\n",
                  truth.At(probe_tick + 10).x, truth.At(probe_tick + 10).y,
                  DegreeDistanceMeters(final_pos, truth.At(probe_tick + 10)));
    }
  }

  // --- Phase 2: finish the day ------------------------------------------------
  for (Tick t = phase1_end; t < fleet.MaxTick(); ++t) {
    const TimeSlice slice = fleet.SliceAt(t);
    if (!slice.empty()) monitor.ObserveSlice(slice);
  }
  monitor.Finish();

  // Re-seal and hot-swap with UpdateView: an atomic view exchange —
  // queries already in flight finish on the seal they pinned, new
  // submissions see the full day.
  service.UpdateView(monitor.Seal());
  const Tick evening = phase1_end + 50;
  const auto& active = fleet.ActiveIdsAt(evening);
  if (!active.empty()) {
    const Trajectory& witness = fleet[static_cast<size_t>(active.front())];
    const core::QueryResponse evening_response =
        service
            .Submit(core::StrqRequest{
                core::QuerySpec{witness.At(evening), evening},
                core::StrqMode::kLocalSearch})
            .get();
    std::printf("after re-seal, STRQ @t=%d sees %zu of %zu active "
                "vehicles in the query cell\n",
                evening, evening_response.strq().ids.size(), active.size());
  }

  std::printf("\nend of day: %zu vehicles, %zu points, ratio %.2fx, "
              "MAE %.1f m\n",
              fleet.size(), fleet.TotalPoints(),
              core::CompressionRatio(monitor, fleet),
              core::SummaryMaeMeters(monitor, fleet));
  const auto* tpi = monitor.index();
  std::printf("index: %zu temporal periods, %zu insertions, %zu rebuilds\n",
              tpi->stats().num_periods, tpi->stats().num_insertions,
              tpi->stats().num_rebuilds);
  return 0;
}
